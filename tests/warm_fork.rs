//! Warm once, fork many: a run the report store starts from its held warm
//! image must report exactly what a cold `SimBuilder::run()` reports, and
//! every knob functional warm-up depends on must force a fresh warm-up.

use pra_repro::pra_core::experiments::ReportStore;
use pra_repro::pra_core::{DramGeneration, RecoveryConfig};
use pra_repro::{FaultPlan, PagePolicy, Scheme, SimBuilder};

const INSTRUCTIONS: u64 = 3_000;
const WARMUP_MEM_OPS: u64 = 10_000;

fn mix2() -> SimBuilder {
    let mix = workloads::all_mixes()
        .into_iter()
        .find(|m| m.name == "MIX2")
        .expect("MIX2 is a Table 4 mix");
    SimBuilder::new()
        .mix(mix.apps)
        .name("MIX2")
        .instructions(INSTRUCTIONS)
        .warmup_mem_ops(WARMUP_MEM_OPS)
}

/// Runs `builders` in order through one store, checks every report against
/// a cold run of the same builder, and returns the store's warm-up count
/// after each run.
fn forks_match_cold_runs(builders: &[SimBuilder]) -> Vec<usize> {
    let mut store = ReportStore::new();
    builders
        .iter()
        .enumerate()
        .map(|(i, builder)| {
            let forked = store.report(builder).state_digest();
            assert_eq!(
                forked,
                builder.run().state_digest(),
                "run {i} diverged from its cold run"
            );
            store.warmups()
        })
        .collect()
}

/// Warm-ups one store performs over `builders`.
fn warmups(builders: &[SimBuilder]) -> usize {
    let mut store = ReportStore::new();
    for builder in builders {
        store.report(builder);
    }
    store.warmups()
}

#[test]
fn every_scheme_forks_to_the_cold_digest_under_both_close_page_policies() {
    let builders: Vec<SimBuilder> = [
        PagePolicy::RelaxedClosePage,
        PagePolicy::RestrictedClosePage,
    ]
    .into_iter()
    .flat_map(|policy| {
        Scheme::ALL
            .into_iter()
            .map(move |scheme| mix2().scheme(scheme).policy(policy))
    })
    .collect();
    // Per policy the five schemes without DBI share one image and the two
    // DBI schemes (last in `Scheme::ALL`) another.
    assert_eq!(
        forks_match_cold_runs(&builders),
        [1, 1, 1, 1, 1, 2, 2, 3, 3, 3, 3, 3, 4, 4]
    );
}

#[test]
fn prefetch_ddr4_and_trace_driven_runs_fork_to_the_cold_digest() {
    let mut generator = workloads::WorkloadGen::new(workloads::gups(), 1, 0);
    let trace = workloads::Trace::record(&mut generator, 40_000);
    let traced = || {
        SimBuilder::new()
            .app_trace("GUPS-trace", trace.clone())
            .instructions(INSTRUCTIONS)
            .warmup_mem_ops(WARMUP_MEM_OPS)
    };
    let ddr4 = || mix2().dram_generation(DramGeneration::Ddr4);
    let builders = [
        mix2().prefetch_next_line(true),
        mix2().prefetch_next_line(true).scheme(Scheme::Pra),
        ddr4(),
        ddr4().scheme(Scheme::Pra),
        traced(),
        traced().scheme(Scheme::Pra),
    ];
    assert_eq!(forks_match_cold_runs(&builders), [1, 1, 2, 2, 3, 3]);
}

#[test]
fn chaos_plan_with_recovery_forks_to_the_cold_digest() {
    let chaos = FaultPlan::from_toml_str(include_str!("../docs/faults/chaos.toml"))
        .expect("chaos plan parses");
    let chaotic = |scheme| {
        mix2()
            .scheme(scheme)
            .faults(chaos)
            .recovery(RecoveryConfig::default())
    };
    let builders = [
        mix2().scheme(Scheme::Pra),
        chaotic(Scheme::Pra),
        mix2().scheme(Scheme::DbiPra),
        chaotic(Scheme::DbiPra),
    ];
    assert_eq!(forks_match_cold_runs(&builders), [1, 1, 2, 2]);
}

#[test]
fn every_warm_up_knob_forces_a_fresh_warm_up() {
    let changed = [
        ("DBI", mix2().scheme(Scheme::Dbi)),
        ("prefetch", mix2().prefetch_next_line(true)),
        ("seed", mix2().seed(2)),
        ("warm-up length", mix2().warmup_mem_ops(WARMUP_MEM_OPS + 1)),
        (
            "policy (mapping)",
            mix2().policy(PagePolicy::RestrictedClosePage),
        ),
    ];
    for (knob, builder) in changed {
        assert_eq!(warmups(&[mix2(), builder]), 2, "{knob} must warm up");
    }
    let unchanged = [
        ("scheme", mix2().scheme(Scheme::HalfDramPra)),
        ("ECC DIMM", mix2().ecc_x72(true)),
        ("escalation age", mix2().starvation_escalation_age(64)),
        ("name", mix2().name("renamed")),
    ];
    for (knob, builder) in unchanged {
        assert_eq!(warmups(&[mix2(), builder]), 1, "{knob} must fork");
    }
}
