//! Per-pass fixtures: each lint must flag a deliberately seeded violation
//! and honour an inline `// sim-lint: allow(...)` pragma on the same site.
//! This is the regression gate for the analyzer itself — if a pass stops
//! firing, these tests fail before the workspace quietly rots.

use sim_lint::source::SourceFile;
use sim_lint::workspace::{Manifest, Workspace};

/// Builds a synthetic workspace from `(crate_name, rel_path, source)`.
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

fn lints_named<'a>(diags: &'a [sim_lint::Diagnostic], lint: &str) -> Vec<&'a sim_lint::Diagnostic> {
    diags.iter().filter(|d| d.lint == lint).collect()
}

// ----------------------------------------------------------- checker-parity

const SEEDED_TIMING: &str = "pub struct TimingParams {\n    pub tzap: u64,\n}\n";

fn parity_files(timing: &'static str) -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        ("dram-sim", "crates/dram-sim/src/timing.rs", timing),
        (
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub fn fence(t: &TimingParams) -> u64 { t.tzap }\n",
        ),
        (
            "dram-sim",
            "crates/dram-sim/src/checker.rs",
            "pub fn observe() {}\n",
        ),
    ]
}

#[test]
fn parity_flags_scheduler_only_field() {
    let diags = sim_lint::lint_sources(&ws(parity_files(SEEDED_TIMING)));
    let hits = lints_named(&diags, "checker-parity");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert!(hits[0].message.contains("tzap"), "{}", hits[0].message);
    assert!(
        hits[0]
            .message
            .contains("never verified by the protocol checker"),
        "{}",
        hits[0].message
    );
    assert_eq!(hits[0].file, "crates/dram-sim/src/timing.rs");
}

#[test]
fn parity_pragma_on_field_line_suppresses() {
    let timing = "pub struct TimingParams {\n\
         // sim-lint: allow(checker-parity): fixture — pin-side timing\n\
         pub tzap: u64,\n\
         }\n";
    let diags = sim_lint::lint_sources(&ws(parity_files(timing)));
    assert!(
        lints_named(&diags, "checker-parity").is_empty(),
        "{diags:?}"
    );
}

// ---------------------------------------------------------- metric-registry

#[test]
fn metrics_flags_undeclared_name_and_unused_entry() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) { reg.counter(\"dram.seeded_metric\"); }\n",
    )]);
    w.manifest = Some(Manifest::parse(
        "| `dram.declared_but_never_emitted` | counter | fixture |\n",
    ));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(hits
        .iter()
        .any(|d| d.message.contains("dram.seeded_metric") && d.file.ends_with("stats.rs")));
    assert!(hits
        .iter()
        .any(|d| d.message.contains("dram.declared_but_never_emitted")
            && d.file == "docs/metrics.md"));
}

#[test]
fn metrics_flags_undocumented_power_metric_both_ways() {
    // A power-telemetry publication site that registers a counter the
    // manifest does not know, next to a manifest that declares a power
    // gauge no code emits — the reconciliation must fire in BOTH
    // directions, and the correctly declared pair stays quiet.
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/memory_system.rs",
        "fn publish_power_telemetry(reg: &mut R) {\n\
         reg.counter(\"energy.total_pj\");\n\
         reg.gauge(\"power.total_mw\");\n\
         reg.counter(\"energy.leakage_pj\");\n\
         }\n",
    )]);
    w.manifest = Some(Manifest::parse(
        "| `energy.total_pj` | counter | fixture |\n\
         | `power.total_mw` | gauge | fixture |\n\
         | `power.phantom_rail_mw` | gauge | declared, never emitted |\n",
    ));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert_eq!(hits.len(), 2, "{diags:?}");
    assert!(
        hits.iter().any(|d| d.message.contains("energy.leakage_pj")
            && d.message.contains("not declared")
            && d.file.ends_with("memory_system.rs")),
        "{diags:?}"
    );
    assert!(
        hits.iter()
            .any(|d| d.message.contains("power.phantom_rail_mw") && d.file == "docs/metrics.md"),
        "{diags:?}"
    );
}

#[test]
fn metrics_flags_power_metric_kind_mismatch() {
    // Publishing a rail as a counter when the manifest declares a gauge
    // (or vice versa) is a reconciliation error, not a silent pass.
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/memory_system.rs",
        "fn publish(reg: &mut R) { reg.counter(\"power.total_mw\"); }\n",
    )]);
    w.manifest = Some(Manifest::parse("| `power.total_mw` | gauge | fixture |\n"));
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert!(
        hits.iter()
            .any(|d| d.message.contains("power.total_mw")
                && d.message.contains("emitted as a counter")),
        "{diags:?}"
    );
}

#[test]
fn metrics_flags_bad_naming_convention() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) { reg.counter(\"BadName\"); }\n",
    )]);
    w.manifest = Some(Manifest::default());
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "metric-registry");
    assert!(
        hits.iter()
            .any(|d| d.message.contains("convention") && d.message.contains("BadName")),
        "{diags:?}"
    );
}

#[test]
fn metrics_pragma_suppresses_undeclared_name() {
    let mut w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/stats.rs",
        "pub fn publish(reg: &mut R) {\n\
         // sim-lint: allow(metric-registry): fixture — experimental metric\n\
         reg.counter(\"dram.seeded_metric\");\n\
         }\n",
    )]);
    w.manifest = Some(Manifest::default());
    let diags = sim_lint::lint_sources(&w);
    assert!(
        lints_named(&diags, "metric-registry").is_empty(),
        "{diags:?}"
    );
}

// ------------------------------------------------------------------ pragma

#[test]
fn pragma_without_reason_is_rejected_and_does_not_suppress() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(cycle-arith)\n\
         pub fn next(cycle: u64, latency: u64) -> u64 { cycle + latency }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(
        !lints_named(&diags, "pragma").is_empty(),
        "reasonless pragma must be reported: {diags:?}"
    );
    assert!(
        !lints_named(&diags, "cycle-arith").is_empty(),
        "reasonless pragma must not suppress: {diags:?}"
    );
}

#[test]
fn stale_pragma_is_reported_under_the_pragma_meta_lint() {
    // The pragma names a real lint but the line below is clean.
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "// sim-lint: allow(cycle-arith): stale — the addition saturates now\n\
         pub fn next(cycle: u64, latency: u64) -> u64 { cycle.saturating_add(latency) }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "pragma");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 1);
    assert!(
        hits[0].message.contains("suppresses nothing"),
        "{}",
        hits[0].message
    );
    assert!(
        hits[0].message.contains("cycle-arith"),
        "{}",
        hits[0].message
    );
}

// ------------------------------------------------------ panic-reachability

/// A hot-loop entry point in `dram-sim` reaching, two calls deep, a panic
/// in a crate outside the hot-crate set clippy's panic lints cover.
fn panic_reach_files(obs_src: &'static str) -> Vec<(&'static str, &'static str, &'static str)> {
    vec![
        (
            "dram-sim",
            "crates/dram-sim/src/channel.rs",
            "pub struct Channel;\n\
             impl Channel {\n    pub fn tick(&mut self, obs: &mut Recorder) { obs.record(1); }\n}\n",
        ),
        ("sim-obs", "crates/sim-obs/src/lib.rs", obs_src),
    ]
}

#[test]
fn panic_reach_flags_seeded_panic_two_hops_deep() {
    let diags = sim_lint::lint_sources(&ws(panic_reach_files(
        "pub struct Recorder;\n\
         impl Recorder {\n    pub fn record(&mut self, v: u64) { bucket_of(v); }\n}\n\
         fn bucket_of(v: u64) -> usize { v.checked_ilog2().unwrap() as usize }\n",
    )));
    let hits = lints_named(&diags, "panic-reachability");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].file, "crates/sim-obs/src/lib.rs");
    // The chain is at least two calls deep and names the entry point.
    assert!(
        hits[0]
            .message
            .contains("Channel::tick → Recorder::record → bucket_of"),
        "{}",
        hits[0].message
    );
    // Nothing else fires: the reachable panic is the only finding.
    assert_eq!(diags.len(), 1, "{diags:?}");
}

#[test]
fn panic_reach_pragma_suppresses_seeded_site() {
    let diags = sim_lint::lint_sources(&ws(panic_reach_files(
        "pub struct Recorder;\n\
         impl Recorder {\n    pub fn record(&mut self, v: u64) { bucket_of(v); }\n}\n\
         fn bucket_of(v: u64) -> usize {\n\
         // sim-lint: allow(panic-reachability): fixture — caller passes v >= 1\n\
         v.checked_ilog2().unwrap() as usize\n\
         }\n",
    )));
    assert!(
        lints_named(&diags, "panic-reachability").is_empty(),
        "{diags:?}"
    );
    assert!(lints_named(&diags, "pragma").is_empty(), "{diags:?}");
}

// ----------------------------------------------------------- cycle-arith

#[test]
fn cycle_arith_flags_seeded_unchecked_add() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "pub fn next(cycle: u64, latency: u64) -> u64 { cycle + latency }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    let hits = lints_named(&diags, "cycle-arith");
    assert_eq!(hits.len(), 1, "{diags:?}");
    assert_eq!(hits[0].line, 1);
}

#[test]
fn cycle_arith_pragma_and_saturating_pass() {
    let w = ws(vec![(
        "dram-sim",
        "crates/dram-sim/src/seeded.rs",
        "pub fn next(cycle: u64, latency: u64) -> u64 { cycle.saturating_add(latency) }\n\
         pub fn trace(epoch: u64) -> u64 {\n\
         // sim-lint: allow(cycle-arith): fixture — epoch < 2^32 by config validation\n\
         epoch * 2\n\
         }\n",
    )]);
    let diags = sim_lint::lint_sources(&w);
    assert!(lints_named(&diags, "cycle-arith").is_empty(), "{diags:?}");
    assert!(lints_named(&diags, "pragma").is_empty(), "{diags:?}");
}
