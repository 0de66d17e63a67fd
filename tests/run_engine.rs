//! The run engine: `ReportStore::run_all` simulates a planned set of runs
//! on several threads and must leave the store exactly as simulating the
//! runs one by one would, warm each distinct warm key once, carry a
//! failing run's own panic message to the caller, and cover every run a
//! figure reads.

use std::panic::{catch_unwind, AssertUnwindSafe};

use bench::FIGURES;
use pra_repro::pra_core::experiments::{self, ExperimentConfig, ReportStore};
use pra_repro::SimBuilder;

fn tiny() -> ExperimentConfig {
    ExperimentConfig {
        instructions: 500,
        seed: 3,
        warmup: Some(2_000),
    }
}

#[test]
fn fig12_13_rows_are_the_same_at_one_and_two_jobs() {
    let cfg = tiny();
    let rows_at = |jobs| {
        let mut store = ReportStore::new();
        store.run_all(&experiments::fig12_13_builders(&cfg), jobs);
        let simulated = store.simulations();
        let rows = experiments::fig12_13_with(&mut store, &cfg);
        assert_eq!(
            store.simulations(),
            simulated,
            "rows read only planned runs"
        );
        rows
    };
    let (one, two) = (rows_at(1), rows_at(2));
    assert_eq!(one.len(), 14 * 3);
    let key = |r: &experiments::ComparisonRow| {
        (
            r.workload.clone(),
            r.scheme.clone(),
            r.report.state_digest(),
            [
                r.norm_act_power,
                r.norm_io_power,
                r.norm_total_power,
                r.norm_performance,
                r.norm_energy,
                r.norm_edp,
            ]
            .map(f64::to_bits),
        )
    };
    let one: Vec<_> = one.iter().map(key).collect();
    assert_eq!(one, two.iter().map(key).collect::<Vec<_>>());
    let public: Vec<_> = experiments::fig12_13(&cfg).iter().map(key).collect();
    assert_eq!(one, public, "fig12_13 itself gives the same rows");
}

#[test]
fn fig12_sweep_warms_up_once_per_distinct_image() {
    let cfg = ExperimentConfig {
        instructions: 200,
        seed: 1,
        warmup: Some(500),
    };
    for jobs in [1, 2] {
        let mut store = ReportStore::new();
        store.run_all(&experiments::fig12_13_builders(&cfg), jobs);
        experiments::fig12_13_with(&mut store, &cfg);
        assert_eq!(store.simulations(), 14 * 4 + 8, "jobs = {jobs}");
        assert_eq!(
            store.warmups(),
            14 + 8,
            "one per workload, one per alone run (jobs = {jobs})"
        );
    }
}

#[test]
fn every_figure_declares_the_runs_it_reads() {
    let cfg = tiny();
    for figure in FIGURES {
        let mut store = ReportStore::new();
        store.run_all(&(figure.runs)(&cfg), 2);
        let simulated = store.simulations();
        (figure.render)(&mut store, &cfg).unwrap();
        assert_eq!(
            store.simulations(),
            simulated,
            "{} reads runs it does not declare",
            figure.name
        );
    }
}

#[test]
fn a_run_that_panics_on_a_worker_keeps_its_message() {
    // The largest group goes first, usually to the calling thread, which
    // leaves the failing run to the spawned worker.
    let ok = |seed| {
        SimBuilder::new()
            .app(workloads::gups())
            .instructions(500)
            .warmup_mem_ops(1_000)
            .seed(seed)
    };
    let failing = ok(9).instructions(1);
    let builders = [
        ok(1),
        ok(1).scheme(pra_repro::Scheme::Pra),
        ok(1).scheme(pra_repro::Scheme::Fga),
        failing,
    ];
    let mut store = ReportStore::new();
    let panic = catch_unwind(AssertUnwindSafe(|| store.run_all(&builders, 2)))
        .expect_err("the one-instruction run has no elapsed time");
    let message = panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        message.contains("the measured phase of 1 instructions per core ended"),
        "{message:?}"
    );
    assert_eq!(store.simulations(), 0, "nothing merges from a failed plan");
}
