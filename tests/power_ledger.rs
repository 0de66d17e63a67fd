//! Golden digests of the power ledger: short MIX2 runs with metrics epochs
//! on, so every epoch's `energy.*` and `power.residency.*` counters (and
//! with them each rank's power-state residency, the per-bank open-row
//! cycles and the background energy) enter `Report::state_digest`.
//! `tests/golden_digests.rs` runs without epochs and sees only the
//! end-of-run energy totals.
//!
//! A second test writes checkpoints mid-run and resumes from one: the
//! resumed run must end on the uninterrupted run's digest, so the ledger
//! state a snapshot carries cannot lose or double-count a cycle.

use pra_repro::{PagePolicy, Scheme, SimBuilder};

const INSTRUCTIONS: u64 = 10_000;
const WARMUP_MEM_OPS: u64 = 20_000;
const EPOCH_MEM_CYCLES: u64 = 2_000;

/// `(scheme, policy, digest)`.
const GOLDEN: &[(&str, &str, u64)] = &[
    ("baseline", "relaxed", 0x92f308adc9f412ac),
    ("baseline", "restricted", 0xe5e7aba4ad80e56e),
    ("baseline", "open", 0x99ec2a8f67c0a8e6),
    ("pra", "relaxed", 0x1d9d9b3faa882d99),
    ("pra", "restricted", 0xaf0676f7760d365b),
    ("pra", "open", 0x20a300f9390fa4d7),
];

fn mix2() -> SimBuilder {
    let mix = pra_repro::workloads::all_mixes()
        .into_iter()
        .find(|m| m.name == "MIX2")
        .expect("MIX2 is a Table 4 mix");
    SimBuilder::new()
        .mix(mix.apps)
        .instructions(INSTRUCTIONS)
        .warmup_mem_ops(WARMUP_MEM_OPS)
        .metrics_epoch(EPOCH_MEM_CYCLES)
        .seed(1)
}

#[test]
fn epoch_power_counters_match_the_pinned_table() {
    let mut observed: Vec<(&str, &str, u64)> = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::Pra] {
        for policy in PagePolicy::ALL {
            let report = mix2().scheme(scheme).policy(policy).run();
            let published = |prefix: &str| {
                report
                    .metrics
                    .iter()
                    .flat_map(|e| &e.counters)
                    .any(|(k, _)| k.starts_with(prefix))
            };
            assert!(
                report.metrics.len() > 2 && published("energy.bg_pj"),
                "{}/{}: epochs must publish the power ledger",
                scheme.cli_name(),
                policy.cli_name()
            );
            assert!(published("power.residency.r0.bank_open"));
            observed.push((scheme.cli_name(), policy.cli_name(), report.state_digest()));
        }
    }
    let table: String = observed
        .iter()
        .map(|(s, p, d)| format!("    ({s:?}, {p:?}, 0x{d:016x}),\n"))
        .collect();
    assert_eq!(
        observed.as_slice(),
        GOLDEN,
        "power-ledger digests moved; observed table:\n{table}"
    );
}

#[test]
fn a_run_resumed_mid_run_ends_on_the_uninterrupted_digest() {
    let dir = std::env::temp_dir().join(format!("pra-power-ledger-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let build = || {
        mix2()
            .scheme(Scheme::Pra)
            .policy(PagePolicy::RelaxedClosePage)
    };
    let reference = build().run();
    let checkpointed = build().checkpoint_every(3_000).checkpoint_dir(&dir).run();
    assert_eq!(checkpointed.state_digest(), reference.state_digest());
    let mut files: Vec<_> = std::fs::read_dir(&dir)
        .expect("checkpoint dir exists")
        .map(|e| e.expect("readable entry").path())
        .collect();
    files.sort();
    assert!(files.len() >= 2, "the run must write several checkpoints");
    // Resume from a checkpoint in the middle of the run, not the first.
    let resumed = build().restore(&files[files.len() / 2]).run();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        resumed.state_digest(),
        reference.state_digest(),
        "the resumed run diverged from the uninterrupted one"
    );
}
