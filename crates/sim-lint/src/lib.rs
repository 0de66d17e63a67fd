//! sim-lint: a static analyzer, free of external crates, that enforces the PRA
//! simulator's correctness contracts at CI time.
//!
//! The analyzer is semantic, not just lexical: on top of a hand-rolled
//! lexer (see [`lexer`] — raw strings, char literals and nested block
//! comments are handled, so text never masquerades as code) it builds a
//! workspace-wide [item index](items) of every `fn`/`impl`/`trait` with
//! module paths, and a [conservative call graph](callgraph) (direct calls,
//! method calls resolved by receiver-type heuristics, closures attributed
//! to their enclosing function). The passes:
//!
//! * `no-panic-hot-path` — no `unwrap`/`expect`/`panic!`/`unreachable!`/
//!   runtime asserts in non-test code of the simulator hot-path crates
//!   (lexical, per-site).
//! * `panic-reachability` — no panicking construct transitively reachable
//!   from the hot-loop entry points (`Channel::tick`,
//!   `MemorySystem::try_tick`, the bank FSM); diagnostics carry the full
//!   call chain.
//! * `checker-parity` — every `TimingParams` field is enforced by both the
//!   scheduler and the independent protocol checker.
//! * `metric-registry` — every emitted metric / trace-event name follows
//!   the naming convention and matches the `docs/metrics.md` manifest.
//! * `forbid-wallclock-and-unsafe` — no wall-clock reads, ambient
//!   randomness or `unsafe` in deterministic sim crates, and every crate
//!   root declares `#![forbid(unsafe_code)]`.
//! * `discarded-result` — no `let _ =`, `.ok();` or bare-statement drops
//!   of `Result`s returned by workspace sim APIs.
//! * `cycle-arith` — no unchecked `+`/`*` on cycle/deadline/epoch-named
//!   values in the hot crates; event-jump arithmetic must saturate or
//!   check.
//! * `dead-pragma` — a suppression that no longer suppresses anything is
//!   itself an error.
//!
//! All passes are deny-by-default. Site-level exemptions use
//!
//! ```text
//! // sim-lint: allow(lint-name): reason this is sound
//! ```
//!
//! on (or directly above) the offending line; the reason is mandatory and
//! ill-formed pragmas are themselves diagnosed by the always-on `pragma`
//! meta lint, which cannot be suppressed.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod diag;
pub mod items;
pub mod lexer;
pub mod passes;
pub mod sarif;
pub mod source;
pub mod workspace;

use std::path::Path;

pub use diag::{to_json, to_json_report, Diagnostic};
pub use workspace::{load_workspace, Manifest, Workspace};

/// Everything a pass may consult: the lexed workspace plus the semantic
/// layers built over it (item index and call graph).
pub struct Analysis<'a> {
    /// The lexed workspace.
    pub ws: &'a Workspace,
    /// Workspace-wide `fn`/`impl`/`trait`/`use` index.
    pub items: items::ItemIndex,
    /// Conservative call graph over the index.
    pub calls: callgraph::CallGraph,
}

impl<'a> Analysis<'a> {
    /// Builds the semantic layers for a loaded workspace.
    pub fn new(ws: &'a Workspace) -> Self {
        let items = items::ItemIndex::build(ws);
        let calls = callgraph::CallGraph::build(ws, &items);
        Analysis { ws, items, calls }
    }
}

/// Lints the workspace rooted at `root`. Returns the post-suppression
/// diagnostics, sorted by file, line, lint.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let ws = workspace::load_workspace(root)?;
    Ok(lint_sources(&ws))
}

/// Runs every pass over an already-loaded workspace, applies pragma
/// suppression, runs the `dead-pragma` phase over the pre-suppression
/// results, and appends `pragma` meta-diagnostics.
pub fn lint_sources(ws: &Workspace) -> Vec<Diagnostic> {
    let analysis = Analysis::new(ws);
    let mut raw = Vec::new();
    for pass in passes::all_passes() {
        pass.run(&analysis, &mut raw);
    }

    // Dead-pragma runs on the PRE-suppression diagnostics: a pragma is
    // alive exactly when it covers at least one raw diagnostic of a lint
    // it names. Its output manages its own (allow(dead-pragma)) exemptions.
    let dead = passes::dead_pragma::run(ws, &raw);

    let mut out: Vec<Diagnostic> = raw
        .into_iter()
        .filter(|d| {
            !ws.files
                .iter()
                .any(|f| f.rel_path == d.file && f.suppresses(&d.lint, d.line))
        })
        .collect();
    out.extend(dead);

    for file in &ws.files {
        for err in &file.pragma_errors {
            out.push(Diagnostic::new(
                "pragma",
                &file.rel_path,
                err.line,
                err.message.clone(),
            ));
        }
        for pragma in &file.pragmas {
            for lint in &pragma.lints {
                if !passes::LINT_NAMES.contains(&lint.as_str()) {
                    out.push(Diagnostic::new(
                        "pragma",
                        &file.rel_path,
                        pragma.line,
                        format!(
                            "pragma references unknown lint `{lint}` (known lints: {})",
                            passes::LINT_NAMES.join(", ")
                        ),
                    ));
                }
            }
        }
    }

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint.as_str()).cmp(&(b.file.as_str(), b.line, b.lint.as_str()))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceFile;

    fn ws_one(crate_name: &str, rel: &str, src: &str) -> Workspace {
        Workspace {
            files: vec![SourceFile::parse(crate_name, rel, src, false)],
            manifest: None,
            manifest_path: "docs/metrics.md".to_string(),
        }
    }

    #[test]
    fn pragma_suppresses_a_violation() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(no-panic-hot-path): index bounded by ctor\n    \
             a.unwrap();\n}\n",
        );
        assert!(lint_sources(&w).is_empty());
    }

    #[test]
    fn trailing_pragma_also_suppresses() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    a.unwrap(); // sim-lint: allow(no-panic-hot-path): bounded\n}\n",
        );
        assert!(lint_sources(&w).is_empty());
    }

    #[test]
    fn pragma_without_reason_surfaces_meta_diagnostic() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(no-panic-hot-path)\n    a.unwrap();\n}\n",
        );
        let d = lint_sources(&w);
        // The unwrap is NOT suppressed and the pragma itself is diagnosed.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.lint == "no-panic-hot-path"));
        assert!(d
            .iter()
            .any(|d| d.lint == "pragma" && d.message.contains("no reason")));
    }

    #[test]
    fn unknown_lint_name_in_pragma_is_diagnosed() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "// sim-lint: allow(no-such-lint): whatever\nfn f() {}\n",
        );
        let d = lint_sources(&w);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].lint, "pragma");
        assert!(d[0].message.contains("no-such-lint"));
    }

    #[test]
    fn pragma_for_wrong_lint_does_not_suppress() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() {\n    // sim-lint: allow(metric-registry): wrong lint\n    a.unwrap();\n}\n",
        );
        let d = lint_sources(&w);
        // The unwrap is not suppressed, and the mistargeted pragma is
        // additionally reported as dead.
        assert_eq!(d.len(), 2);
        assert!(d.iter().any(|d| d.lint == "no-panic-hot-path"));
        assert!(d.iter().any(|d| d.lint == "dead-pragma"));
    }

    #[test]
    fn diagnostics_are_sorted() {
        let w = ws_one(
            "dram-sim",
            "crates/dram-sim/src/x.rs",
            "fn f() { b.unwrap(); }\nfn g() { a.unwrap(); }\n",
        );
        let d = lint_sources(&w);
        assert_eq!(d.len(), 2);
        assert!(d[0].line < d[1].line);
    }
}
