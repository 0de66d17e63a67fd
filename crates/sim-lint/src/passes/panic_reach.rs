//! `panic-reachability`: no panicking construct may be *transitively*
//! reachable from the simulator's hot-loop entry points.
//!
//! Clippy's `unwrap_used`/`expect_used`/`panic` lints are per-site and
//! per-crate. This pass walks the [call graph](crate::callgraph) from the
//! entry points (`Channel::tick`, `MemorySystem::try_tick`, the bank FSM
//! command methods) and flags every panic site in any function they reach,
//! including helpers in crates clippy's hot-crate lints do not cover and
//! `assert!`s clippy has no lint for. Each diagnostic carries the full call
//! chain from the entry point to the panic site, so the report reads as a
//! proof, not an assertion. Because the call graph deliberately
//! under-approximates (ambiguous calls produce no edge), every chain this
//! pass prints is real.

use std::collections::HashSet;

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lexer::{TokKind, Token};
use crate::passes::Pass;
use crate::Analysis;

const LINT: &str = "panic-reachability";

/// If the token at `i` is a panicking construct, returns its display form
/// (`.unwrap(...)`, `panic!(...)`, …): `.unwrap()`, `.expect(`, `panic!`,
/// `unreachable!`, `todo!`, `unimplemented!` and the `assert!` /
/// `assert_eq!` / `assert_ne!` macros. `debug_assert*` compiles out of
/// release builds, so it cannot take a production run down.
pub fn panic_construct(tokens: &[Token], i: usize) -> Option<String> {
    let tok = tokens.get(i)?;
    if !matches!(tok.kind, TokKind::Ident) {
        return None;
    }
    let prev_dot = i > 0 && tokens[i - 1].is_punct('.');
    let next_bang = tokens.get(i + 1).map(|t| t.is_punct('!')).unwrap_or(false);
    let next_paren = tokens.get(i + 1).map(|t| t.is_punct('(')).unwrap_or(false);
    let flagged = match tok.text.as_str() {
        "unwrap" | "expect" => prev_dot && next_paren,
        // `panic!(...)` — but not `std::panic::catch_unwind`.
        "panic" | "unreachable" | "todo" | "unimplemented" => next_bang,
        "assert" | "assert_eq" | "assert_ne" => next_bang,
        _ => false,
    };
    if !flagged {
        return None;
    }
    Some(match tok.text.as_str() {
        "unwrap" | "expect" => format!(".{}(...)", tok.text),
        t => format!("{t}!(...)"),
    })
}

/// Hot-loop entry points as `(self_type, method)` pairs: the channel and
/// memory-system tick functions and the bank FSM command methods.
pub const ENTRY_POINTS: &[(&str, &str)] = &[
    ("Channel", "tick"),
    ("MemorySystem", "try_tick"),
    ("Bank", "activate"),
    ("Bank", "column_read"),
    ("Bank", "column_write"),
    ("Bank", "precharge"),
    ("Bank", "tick_auto_precharge"),
];

/// Pass implementation.
pub struct PanicReachability;

impl Pass for PanicReachability {
    fn name(&self) -> &'static str {
        LINT
    }

    fn run(&self, a: &Analysis, out: &mut Vec<Diagnostic>) {
        let roots: Vec<usize> = a
            .items
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| {
                !f.is_test
                    && ENTRY_POINTS
                        .iter()
                        .any(|(ty, m)| f.self_type.as_deref() == Some(*ty) && f.name == *m)
            })
            .map(|(i, _)| i)
            .collect();
        if roots.is_empty() {
            return;
        }
        let parents = a.calls.reach_with_parents(&roots);
        let mut reached: Vec<usize> = parents.keys().copied().collect();
        reached.sort_unstable();

        let mut seen: HashSet<(usize, usize)> = HashSet::new();
        for fi in reached {
            let f = &a.items.fns[fi];
            if f.is_test {
                continue;
            }
            let Some((body_start, body_end)) = f.body else {
                continue;
            };
            let file = &a.ws.files[f.file_idx];
            for i in body_start..=body_end.min(file.tokens.len().saturating_sub(1)) {
                let Some(display) = panic_construct(&file.tokens, i) else {
                    continue;
                };
                let line = file.tokens[i].line;
                if !seen.insert((f.file_idx, i)) {
                    continue;
                }
                let chain: Vec<String> = CallGraph::chain_to(&parents, fi)
                    .into_iter()
                    .map(|j| a.items.fns[j].display())
                    .collect();
                out.push(Diagnostic::new(
                    LINT,
                    &file.rel_path,
                    line,
                    format!(
                        "`{display}` is reachable from hot-loop entry point `{}` \
                         (call chain: {}) — return a typed `SimError`/`Result` along \
                         the chain, or pragma-annotate a provably-infallible site \
                         with a reason",
                        chain.first().cloned().unwrap_or_default(),
                        chain.join(" → "),
                    ),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;
    use crate::workspace::Workspace;

    fn ws(files: Vec<(&str, &str, &str)>) -> Workspace {
        Workspace {
            files: files
                .into_iter()
                .map(|(c, p, s)| SourceFile::parse(c, p, s, false))
                .collect(),
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    fn run(w: &Workspace) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        PanicReachability.run(&Analysis::new(w), &mut out);
        out
    }

    #[test]
    fn panic_two_hops_from_tick_is_reported_with_chain() {
        let w = ws(vec![
            (
                "dram-sim",
                "crates/dram-sim/src/channel.rs",
                "use crate::util::decode;\n\
                 pub struct Channel;\n\
                 impl Channel {\n    pub fn tick(&mut self) { decode(0); }\n}\n",
            ),
            (
                "dram-sim",
                "crates/dram-sim/src/util.rs",
                "pub fn decode(v: u64) -> u64 { inner(v) }\n\
                 fn inner(v: u64) -> u64 { v.checked_mul(2).unwrap() }\n",
            ),
        ]);
        let d = run(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, "panic-reachability");
        assert_eq!(d[0].file, "crates/dram-sim/src/util.rs");
        assert!(d[0].message.contains("Channel::tick → decode → inner"));
    }

    #[test]
    fn unreachable_panic_is_not_reported() {
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub struct Channel;\n\
             impl Channel {\n    pub fn tick(&mut self) {}\n}\n\
             fn orphan() { panic!(\"never called from tick\"); }\n",
        )]);
        assert!(run(&w).is_empty());
    }

    #[test]
    fn clippy_expect_does_not_vouch_the_site() {
        // A clippy suppression answers the per-site lint only; the reachable
        // site still needs its own allow(panic-reachability) pragma.
        let w = ws(vec![(
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub struct Channel;\n\
             impl Channel {\n    pub fn tick(&mut self) { helper(); }\n}\n\
             #[expect(clippy::unwrap_used, reason = \"key inserted above\")]\n\
             fn helper() {\n    m.get(&k).unwrap();\n}\n",
        )]);
        let d = run(&w);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 7);
    }

    #[test]
    fn no_entry_points_means_no_diagnostics() {
        let w = ws(vec![(
            "sim-obs",
            "crates/sim-obs/src/lib.rs",
            "fn a() { b(); }\nfn b() { panic!(\"x\"); }\n",
        )]);
        assert!(run(&w).is_empty());
    }
}
