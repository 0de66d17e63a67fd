//! Every metric and trace-event kind the simulator produces is declared in
//! `docs/metrics.md` with the kind it is produced as, and every declared
//! name is produced by some run.
//!
//! The names come from what runs actually register and emit, not from the
//! source text: every scheme under every page policy with metric epochs
//! and a trace ring on, plus one run with the chaos fault plan and
//! recovery, one that writes a checkpoint and one restored from it, one
//! under the profiler, and a one-run campaign. Power telemetry is on by default, so
//! every simulation publishes the `energy.*` and `power.*` families. An
//! epoch snapshot lists every metric registered by then, so the last one
//! of a run names them all.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use pra_repro::dram_sim::RecoveryConfig;
use pra_repro::{FaultPlan, PagePolicy, Scheme, SimBuilder};
use sim_obs::{MetricsRegistry, RingSink};

const MANIFEST: &str = include_str!("../docs/metrics.md");

/// One manifest table row: `` | `name` | kind [(dynamic)] | description | ``.
struct Row {
    name: String,
    kind: String,
    dynamic: bool,
}

impl Row {
    /// A `(dynamic)` row matches the names its `<placeholder>` stands for:
    /// the text before the first `<` is a prefix, the text after the last
    /// `>` a suffix, and something must lie between. A dynamic row without
    /// a placeholder, and every other row, matches its own name only.
    fn matches(&self, name: &str) -> bool {
        match (self.dynamic, self.name.find('<'), self.name.rfind('>')) {
            (true, Some(open), Some(close)) => {
                let (prefix, suffix) = (&self.name[..open], &self.name[close + 1..]);
                name.len() > prefix.len() + suffix.len()
                    && name.starts_with(prefix)
                    && name.ends_with(suffix)
            }
            _ => self.name == name,
        }
    }
}

fn manifest() -> Vec<Row> {
    MANIFEST
        .lines()
        .filter_map(|line| {
            let mut cells = line.strip_prefix('|')?.split('|').map(str::trim);
            let name = cells.next()?.strip_prefix('`')?.strip_suffix('`')?;
            let kind = cells.next()?;
            let dynamic = kind.ends_with("(dynamic)");
            Some(Row {
                name: name.to_string(),
                kind: kind.trim_end_matches("(dynamic)").trim().to_string(),
                dynamic,
            })
        })
        .collect()
}

/// `domain.name[.subname]`: at least two non-empty dot-separated segments
/// of `[a-z0-9_]`, the first starting with a letter.
fn is_dotted_lowercase(name: &str) -> bool {
    let segments: Vec<&str> = name.split('.').collect();
    segments.len() >= 2
        && segments[0].starts_with(|c: char| c.is_ascii_lowercase())
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        })
}

/// Trace-event kinds are uppercase tags: `[A-Z][A-Z0-9_]*`.
fn is_upper_tag(kind: &str) -> bool {
    kind.starts_with(|c: char| c.is_ascii_uppercase())
        && kind
            .bytes()
            .all(|b| b.is_ascii_uppercase() || b.is_ascii_digit() || b == b'_')
}

/// Name → kind of everything produced, kinds spelled as in the manifest.
#[derive(Default)]
struct Produced(BTreeMap<String, &'static str>);

impl Produced {
    fn add(&mut self, name: &str, kind: &'static str) {
        let previous = self.0.insert(name.to_string(), kind);
        assert!(
            previous.is_none_or(|k| k == kind),
            "{name} produced as both a {kind} and a {previous:?}"
        );
    }

    fn registry(&mut self, registry: &MetricsRegistry) {
        for (name, kind) in registry.names() {
            self.add(&name, kind);
        }
    }

    /// Runs `builder` with a fresh trace ring and records the metrics of
    /// its last epoch snapshot and every event kind the ring kept.
    fn run(&mut self, builder: SimBuilder) {
        let ring = Arc::new(Mutex::new(RingSink::new(1 << 16)));
        let report = builder
            .trace_ring(Arc::clone(&ring))
            .try_run()
            .unwrap_or_else(|e| panic!("run failed: {e}"));
        let ring = ring.lock().expect("the run released the ring");
        assert_eq!(ring.dropped(), 0, "the ring must keep every event");
        for event in ring.events() {
            self.add(event.kind(), "trace-event");
        }
        let last = report.metrics.last().expect("the run closed an epoch");
        for (name, _) in &last.counters {
            self.add(name, "counter");
        }
        for (name, _) in &last.gauges {
            self.add(name, "gauge");
        }
        for (name, _) in &last.histograms {
            self.add(name, "histogram");
        }
    }
}

fn mix2() -> SimBuilder {
    let mix = workloads::all_mixes()
        .into_iter()
        .find(|m| m.name == "MIX2")
        .expect("MIX2 is a Table 4 mix");
    SimBuilder::new()
        .mix(mix.apps)
        .instructions(5_000)
        .warmup_mem_ops(5_000)
        .metrics_epoch(2_000)
        .seed(1)
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("pra-metric-registry-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn produce() -> Produced {
    let mut produced = Produced::default();
    for scheme in Scheme::ALL {
        for policy in PagePolicy::ALL {
            produced.run(mix2().scheme(scheme).policy(policy));
        }
    }

    // GUPS's random stores under PRA make the partial activations the mask
    // faults hit; a warm-up that fills the LLC makes the write-backs and a
    // write drain, and a short probation lets a demoted row be promoted.
    let chaos = FaultPlan::from_toml_str(include_str!("../docs/faults/chaos.toml"))
        .expect("chaos plan parses");
    produced.run(
        SimBuilder::new()
            .homogeneous(workloads::gups(), 4)
            .instructions(10_000)
            .warmup_mem_ops(100_000)
            .metrics_epoch(2_000)
            .seed(1)
            .scheme(Scheme::Pra)
            .faults(chaos)
            .recovery(RecoveryConfig {
                probation_cycles: 2_000,
                ..RecoveryConfig::default()
            }),
    );

    let dir = scratch_dir("ckpt");
    let checkpointed = mix2()
        .scheme(Scheme::Pra)
        .checkpoint_every(500)
        .checkpoint_dir(&dir);
    produced.run(checkpointed.clone());
    let mut snapshots: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    snapshots.sort();
    produced.run(checkpointed.restore(&snapshots[0]));
    let _ = std::fs::remove_dir_all(&dir);

    sim_prof::reset();
    sim_prof::enable();
    produced.run(mix2());
    sim_prof::disable();
    let mut profile = MetricsRegistry::new();
    sim_prof::take_report().publish_to(&mut profile);
    produced.registry(&profile);

    let dir = scratch_dir("campaign");
    let campaign = sim_harness::Campaign::from_toml_str(
        "schemes = [\"pra\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\ninstructions = 300\nwarmup = 1000\n",
    )
    .expect("campaign parses");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let options = sim_harness::CampaignOptions {
        jobs: 1,
        journal: dir.join("journal.jsonl"),
        resume: false,
    };
    let summary = sim_harness::run_campaign(&campaign, &options).expect("campaign runs");
    let _ = std::fs::remove_dir_all(&dir);
    produced.registry(&summary.metrics);
    produced
}

#[test]
fn produced_metrics_and_trace_kinds_match_the_manifest_both_ways() {
    let rows = manifest();
    let produced = produce();
    let mut problems = Vec::new();
    for (name, &kind) in &produced.0 {
        let well_named = if kind == "trace-event" {
            is_upper_tag(name)
        } else {
            is_dotted_lowercase(name)
        };
        if !well_named {
            problems.push(format!("{name} ({kind}) breaks the naming rule"));
        }
        match rows.iter().find(|row| row.matches(name)) {
            None => problems.push(format!(
                "{name} ({kind}) is produced but not declared in docs/metrics.md"
            )),
            Some(row) if row.kind != kind => problems.push(format!(
                "{name} is produced as a {kind} but declared a {}",
                row.kind
            )),
            Some(_) => {}
        }
    }
    for row in rows.iter().filter(|row| !row.dynamic) {
        if !produced.0.contains_key(&row.name) {
            problems.push(format!(
                "{} ({}) is declared in docs/metrics.md but no run produced it",
                row.name, row.kind
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "docs/metrics.md and the runs disagree:\n  {}",
        problems.join("\n  ")
    );
}
