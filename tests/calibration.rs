//! Calibration regression tests: the Table 1 / Figure 3 *shape* invariants
//! the whole evaluation rests on must survive any future retuning of the
//! workload profiles or simulator. Runs at reduced scale; the full-scale
//! numbers live in EXPERIMENTS.md.

use pra_repro::pra_core::experiments::{motivation_runs, table1, ExperimentConfig, ReportStore};
use pra_repro::{Scheme, SimBuilder};

fn cfg() -> ExperimentConfig {
    ExperimentConfig {
        instructions: 25_000,
        seed: 1,
        warmup: Some(250_000),
    }
}

#[test]
fn locality_asymmetry_holds_for_every_benchmark() {
    // The paper's central Table 1 observation: reads have (much) better row
    // locality than writes, for every benchmark — up to noise for the
    // random benchmarks whose rates are both within a percent of zero.
    for row in table1(&mut ReportStore::new(), &cfg()) {
        assert!(
            row.rb_hit.0 + 0.02 >= row.rb_hit.1,
            "{}: read hit {:.3} must be >= write hit {:.3}",
            row.name,
            row.rb_hit.0,
            row.rb_hit.1
        );
        // Where locality is meaningful at all, reads must clearly lead.
        if row.rb_hit.0 > 0.10 {
            assert!(
                row.rb_hit.0 > row.rb_hit.1,
                "{}: {:.3} vs {:.3}",
                row.name,
                row.rb_hit.0,
                row.rb_hit.1
            );
        }
    }
}

#[test]
fn benchmark_character_matches_table1() {
    let rows = table1(&mut ReportStore::new(), &cfg());
    let get = |name: &str| rows.iter().find(|r| r.name == name).expect(name);

    // libquantum has the best locality of the suite, on both sides.
    let libquantum = get("libquantum");
    for row in &rows {
        assert!(
            libquantum.rb_hit.0 >= row.rb_hit.0 - 1e-9,
            "{} out-hits libquantum",
            row.name
        );
    }
    assert!(
        libquantum.rb_hit.1 > 0.3,
        "libquantum write locality is real"
    );

    // The random/pointer benchmarks have essentially no locality.
    for name in ["em3d", "GUPS", "LinkedList"] {
        let row = get(name);
        assert!(row.rb_hit.0 < 0.05, "{name} read hit {:.3}", row.rb_hit.0);
        assert!(row.rb_hit.1 < 0.05, "{name} write hit {:.3}", row.rb_hit.1);
    }

    // Write-traffic ordering: the RMW-heavy benchmarks approach 50 %,
    // mcf stays the most read-dominated.
    let mcf = get("mcf");
    for name in ["em3d", "GUPS"] {
        let row = get(name);
        assert!(
            row.traffic.1 > 0.40,
            "{name} write traffic {:.3}",
            row.traffic.1
        );
        assert!(row.traffic.1 > mcf.traffic.1, "{name} must out-write mcf");
    }
    assert!(mcf.traffic.0 > 0.75, "mcf read share {:.3}", mcf.traffic.0);

    // Suite averages stay in the paper's neighbourhood.
    let n = rows.len() as f64;
    let avg_read_traffic: f64 = rows.iter().map(|r| r.traffic.0).sum::<f64>() / n;
    let avg_write_acts: f64 = rows.iter().map(|r| r.activations.1).sum::<f64>() / n;
    assert!(
        (0.55..=0.75).contains(&avg_read_traffic),
        "avg read traffic {avg_read_traffic:.3} (paper: 0.64)"
    );
    assert!(
        (0.30..=0.55).contains(&avg_write_acts),
        "avg write activation share {avg_write_acts:.3} (paper: 0.42)"
    );
}

#[test]
fn dirty_word_distribution_is_single_word_dominated() {
    // Figure 3's shape: across the suite, most evicted dirty lines carry
    // very few dirty words.
    let reports = motivation_runs(&mut ReportStore::new(), &cfg());
    let mut single = 0.0;
    let mut counted = 0;
    for report in &reports {
        let dist = report.cache.dirty_word_proportions();
        if dist.iter().sum::<f64>() > 0.0 {
            single += dist[0];
            counted += 1;
        }
    }
    assert!(counted >= 6, "most benchmarks must produce writebacks");
    let avg_single = single / f64::from(counted);
    assert!(
        avg_single > 0.6,
        "avg single-word share {avg_single:.3} (paper-like: ~0.8)"
    );
}

#[test]
fn pra_shape_on_the_flagship_claims() {
    // A 4-core GUPS run must show the paper's three headline directions at
    // once: big activation saving, bigger write-I/O saving, tiny
    // performance impact.
    let run = |scheme: Scheme| {
        SimBuilder::new()
            .homogeneous(workloads::gups(), 4)
            .name("GUPS")
            .scheme(scheme)
            .instructions(10_000)
            .warmup_mem_ops(80_000)
            .run()
    };
    let base = run(Scheme::Baseline);
    let pra = run(Scheme::Pra);
    let act_saving = 1.0 - pra.power.act_pre / base.power.act_pre;
    let wr_io_saving = 1.0 - pra.power.wr_io / base.power.wr_io;
    let perf_ratio = pra.ipc_sum() / base.ipc_sum();
    assert!(act_saving > 0.15, "activation saving {act_saving:.3}");
    assert!(wr_io_saving > 0.5, "write I/O saving {wr_io_saving:.3}");
    assert!(wr_io_saving > act_saving, "GUPS: I/O saving dominates");
    assert!(perf_ratio > 0.93, "performance ratio {perf_ratio:.3}");
}
