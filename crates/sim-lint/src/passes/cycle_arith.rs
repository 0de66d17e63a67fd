//! `cycle-arith`: unchecked `+` / `*` on cycle-domain values in the hot
//! crates.
//!
//! Simulated time is unsigned and monotonically huge: a wrapped cycle
//! count, deadline or epoch boundary silently reorders every future event
//! instead of crashing, which is the worst possible failure mode for a
//! deterministic simulator. Any binary `+` or `*` whose left or right
//! operand is an identifier mentioning `cycle`, `deadline` or `epoch`
//! must be written as `saturating_add` / `saturating_mul` / `checked_*`
//! instead, or carry a pragma arguing why overflow is impossible. Compound
//! assignment (`+=`, `*=`) is out of scope here — it mutates state the
//! surrounding code already guards — as is `-`, which the debug-build
//! underflow panic already catches loudly.

use std::collections::HashSet;

use crate::diag::Diagnostic;
use crate::lexer::TokKind;
use crate::passes::Pass;
use crate::Analysis;

const LINT: &str = "cycle-arith";

/// The simulator hot-path crates. Their crate roots also deny clippy's
/// panic and discarded-`Result` lints outside test code.
pub const HOT_CRATES: &[&str] = &[
    "dram-sim",
    "cache-sim",
    "cpu-sim",
    "mem-model",
    "core",
    "sim-recover",
];

/// Whether an identifier names a cycle-domain quantity.
fn is_cycle_name(s: &str) -> bool {
    let l = s.to_ascii_lowercase();
    l.contains("cycle") || l.contains("deadline") || l.contains("epoch")
}

/// Pass implementation.
pub struct CycleArith;

impl Pass for CycleArith {
    fn name(&self) -> &'static str {
        LINT
    }

    fn run(&self, a: &Analysis, out: &mut Vec<Diagnostic>) {
        for file in &a.ws.files {
            if !HOT_CRATES.contains(&file.crate_name.as_str()) {
                continue;
            }
            let toks = &file.tokens;
            let mut flagged: HashSet<u32> = HashSet::new();
            for (i, tok) in file.code_tokens() {
                let op = match tok.kind {
                    TokKind::Punct(c @ ('+' | '*')) => c,
                    _ => continue,
                };
                // `+=` / `*=` compound assignment is out of scope.
                if toks.get(i + 1).map(|t| t.is_punct('=')).unwrap_or(false) {
                    continue;
                }
                // Binary use only: the left operand must end an expression,
                // which also excludes deref `*x` and trait bounds `T: A + B`
                // (the `+` there follows `>` or an uppercase path we never
                // name-match).
                let Some(prev) = i.checked_sub(1).map(|p| &toks[p]) else {
                    continue;
                };
                if !matches!(
                    prev.kind,
                    TokKind::Ident | TokKind::Num | TokKind::Punct(')') | TokKind::Punct(']')
                ) {
                    continue;
                }
                let mut names: Vec<&str> = Vec::new();
                if prev.kind == TokKind::Ident {
                    names.push(prev.text.as_str());
                }
                if let Some(r) = right_operand_ident(toks, i + 1) {
                    names.push(r);
                }
                if !names.iter().any(|n| is_cycle_name(n)) {
                    continue;
                }
                if !flagged.insert(tok.line) {
                    continue;
                }
                out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    tok.line,
                    format!(
                        "unchecked `{op}` on a cycle/deadline/epoch value — a wrap \
                         silently reorders future events; use `saturating_{}` or \
                         `checked_{}`, or pragma-annotate with the overflow argument",
                        if op == '+' { "add" } else { "mul" },
                        if op == '+' { "add" } else { "mul" },
                    ),
                ));
            }
        }
    }
}

/// The final identifier of the right operand's leading field chain:
/// `self.cfg.epoch_len` → `epoch_len`; skips leading `&` / `*`.
fn right_operand_ident(toks: &[crate::lexer::Token], mut j: usize) -> Option<&str> {
    while toks
        .get(j)
        .map(|t| t.is_punct('&') || t.is_punct('*'))
        .unwrap_or(false)
    {
        j += 1;
    }
    let mut last: Option<&str> = None;
    while let Some(t) = toks.get(j) {
        if t.kind != TokKind::Ident {
            break;
        }
        last = Some(t.text.as_str());
        let dotted = toks.get(j + 1).map(|n| n.is_punct('.')).unwrap_or(false)
            && toks
                .get(j + 2)
                .map(|n| n.kind == TokKind::Ident)
                .unwrap_or(false);
        if !dotted {
            break;
        }
        j += 2;
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn ws_one(crate_name: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(
                crate_name,
                &format!("crates/{crate_name}/src/x.rs"),
                src,
                false,
            )],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn run(w: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        CycleArith.run(&Analysis::new(w), &mut out);
        out
    }

    #[test]
    fn add_and_mul_on_cycle_names_are_flagged() {
        let w = ws_one(
            "dram-sim",
            "fn f(cycle: u64, n: u64) -> u64 { cycle + n }\n\
             fn g(deadline: u64) -> u64 { deadline * 2 }\n\
             fn h(s: &S) -> u64 { s.now + s.cfg.epoch_len }\n",
        );
        let d = run(&w);
        assert_eq!(d.len(), 3, "{d:?}");
        assert!(d.iter().all(|d| d.lint == "cycle-arith"));
    }

    #[test]
    fn saturating_and_checked_forms_pass() {
        let w = ws_one(
            "dram-sim",
            "fn f(cycle: u64, n: u64) -> u64 { cycle.saturating_add(n) }\n\
             fn g(epoch: u64) -> Option<u64> { epoch.checked_mul(2) }\n",
        );
        assert!(run(&w).is_empty());
    }

    #[test]
    fn compound_assign_deref_and_bounds_are_out_of_scope() {
        let w = ws_one(
            "dram-sim",
            "fn f(mut cycle: u64) { cycle += 1; cycle *= 2; }\n\
             fn g(p: &u64) -> u64 { *p }\n\
             fn h<T: Clone + Default>(t: T) -> T { t }\n",
        );
        assert!(run(&w).is_empty());
    }

    #[test]
    fn unrelated_names_and_cold_crates_pass() {
        let w = ws_one("dram-sim", "fn f(width: u64) -> u64 { width + 1 }\n");
        assert!(run(&w).is_empty());
        let w = ws_one("sim-obs", "fn f(cycle: u64) -> u64 { cycle + 1 }\n");
        assert!(run(&w).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let w = ws_one(
            "dram-sim",
            "#[cfg(test)]\nmod tests {\n    fn t(cycle: u64) -> u64 { cycle + 1 }\n}\n",
        );
        assert!(run(&w).is_empty());
    }
}
