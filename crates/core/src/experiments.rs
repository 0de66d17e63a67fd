//! One function per table/figure of the paper's evaluation. Each returns
//! typed rows; the `bench` crate's binaries print them in the paper's
//! layout, and EXPERIMENTS.md records the comparison against the published
//! numbers.

use std::collections::HashMap;

use dram_power::{
    ActivationEnergyModel, DevicePowerTimings, Figure9Point, IddParams, PowerBreakdown, PowerParams,
};
use dram_sim::PagePolicy;
use workloads::BenchProfile;

use crate::report::Report;
use crate::scheme::Scheme;
use crate::system::SimBuilder;

/// Run-length and seed knobs shared by all experiments.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Instructions per core per run. The paper uses 200M; synthetic
    /// workloads reach steady state far earlier, so defaults are small
    /// enough for the whole suite to regenerate in minutes.
    pub instructions: u64,
    /// Workload generator seed.
    pub seed: u64,
    /// Cache warmup length override (memory ops per core); `None` uses the
    /// [`SimBuilder`] default of roughly three LLC turnovers.
    pub warmup: Option<u64>,
}

impl ExperimentConfig {
    /// Quick configuration for tests: short runs, shallow warmup.
    pub const fn quick() -> Self {
        ExperimentConfig {
            instructions: 20_000,
            seed: 1,
            warmup: Some(40_000),
        }
    }

    /// Default figure-quality configuration.
    pub const fn figure() -> Self {
        ExperimentConfig {
            instructions: 300_000,
            seed: 1,
            warmup: None,
        }
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig::figure()
    }
}

/// Runs experiments, memoising the alone-IPC runs that weighted speedup
/// normalisation needs.
#[derive(Debug, Default)]
pub struct Runner {
    alone_cache: HashMap<(String, bool), f64>,
}

impl Runner {
    /// A fresh runner.
    pub fn new() -> Self {
        Runner::default()
    }

    /// IPC of `profile` running alone on the baseline scheme under
    /// `policy` (memoised). This is the Eq. 3 denominator, shared across
    /// schemes as the common normalisation (see DESIGN.md).
    pub fn alone_ipc(
        &mut self,
        profile: &BenchProfile,
        policy: PagePolicy,
        cfg: &ExperimentConfig,
    ) -> f64 {
        let key = (
            profile.name.to_string(),
            matches!(policy, PagePolicy::RestrictedClosePage),
        );
        if let Some(&ipc) = self.alone_cache.get(&key) {
            return ipc;
        }
        let mut builder = SimBuilder::new()
            .app(*profile)
            .scheme(Scheme::Baseline)
            .policy(policy)
            .instructions(cfg.instructions)
            .seed(cfg.seed);
        if let Some(w) = cfg.warmup {
            builder = builder.warmup_mem_ops(w);
        }
        let report = builder.run();
        let ipc = report.ipc[0];
        self.alone_cache.insert(key, ipc);
        ipc
    }

    /// Runs a named 4-app workload under a scheme/policy.
    pub fn run_workload(
        &mut self,
        name: &str,
        apps: &[BenchProfile; 4],
        scheme: Scheme,
        policy: PagePolicy,
        cfg: &ExperimentConfig,
    ) -> Report {
        let mut builder = SimBuilder::new()
            .mix(*apps)
            .name(name)
            .scheme(scheme)
            .policy(policy)
            .instructions(cfg.instructions)
            .seed(cfg.seed);
        if let Some(w) = cfg.warmup {
            builder = builder.warmup_mem_ops(w);
        }
        builder.run()
    }

    /// Weighted speedup of a 4-core report (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if the report does not come from a 4-core run matching
    /// `apps`, or an alone run produced a zero IPC (both are driver bugs:
    /// the runner itself produced the inputs).
    #[expect(
        clippy::expect_used,
        reason = "the alone vector is built one entry per app of this report, so the lengths match by construction"
    )]
    pub fn weighted_speedup(
        &mut self,
        report: &Report,
        apps: &[BenchProfile; 4],
        policy: PagePolicy,
        cfg: &ExperimentConfig,
    ) -> f64 {
        let alone: Vec<f64> = apps
            .iter()
            .map(|a| self.alone_ipc(a, policy, cfg))
            .collect();
        report
            .weighted_speedup(&alone)
            .expect("alone-IPC runs were produced for this very report")
    }
}

// ---------------------------------------------------------------------------
// Motivation: Table 1, Figure 2, Figure 3 (single-core baseline runs).
// ---------------------------------------------------------------------------

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Benchmark name.
    pub name: String,
    /// Row-buffer hit rates (read, write), 0..=1.
    pub rb_hit: (f64, f64),
    /// Memory traffic split (read, write), 0..=1.
    pub traffic: (f64, f64),
    /// Row-activation split (read, write), 0..=1.
    pub activations: (f64, f64),
}

/// Runs the eight benchmarks single-core on the baseline (the paper's
/// motivational setup) and returns one [`Report`] each.
pub fn motivation_runs(cfg: &ExperimentConfig) -> Vec<Report> {
    workloads::all_benchmarks()
        .into_iter()
        .map(|b| {
            let mut builder = SimBuilder::new()
                .app(b)
                .name(b.name)
                .scheme(Scheme::Baseline)
                .policy(PagePolicy::RelaxedClosePage)
                .instructions(cfg.instructions)
                .seed(cfg.seed);
            if let Some(w) = cfg.warmup {
                builder = builder.warmup_mem_ops(w);
            }
            builder.run()
        })
        .collect()
}

/// Table 1: per-benchmark memory characteristics.
pub fn table1(cfg: &ExperimentConfig) -> Vec<Table1Row> {
    motivation_runs(cfg)
        .into_iter()
        .map(|r| table1_row(&r))
        .collect()
}

/// Derives a Table 1 row from any report.
pub fn table1_row(report: &Report) -> Table1Row {
    Table1Row {
        name: report.workload.clone(),
        rb_hit: (report.dram.read.hit_rate(), report.dram.write.hit_rate()),
        traffic: report.traffic_split(),
        activations: report.activation_split(),
    }
}

/// Figure 2: baseline DRAM power breakdown per benchmark.
pub fn fig2(cfg: &ExperimentConfig) -> Vec<(String, PowerBreakdown)> {
    motivation_runs(cfg)
        .into_iter()
        .map(|r| (r.workload.clone(), r.power))
        .collect()
}

/// Figure 3: dirty-word distribution of evicted LLC lines per benchmark.
pub fn fig3(cfg: &ExperimentConfig) -> Vec<(String, [f64; 8])> {
    motivation_runs(cfg)
        .into_iter()
        .map(|r| (r.workload.clone(), r.cache.dirty_word_proportions()))
        .collect()
}

// ---------------------------------------------------------------------------
// Power model: Table 2, Figure 9, Table 3 (static, no simulation).
// ---------------------------------------------------------------------------

/// Table 2: the activation-energy and die-area model.
pub fn table2() -> (ActivationEnergyModel, dram_power::overheads::DieArea) {
    (
        ActivationEnergyModel::paper_table2(),
        dram_power::overheads::DieArea::paper_table2(),
    )
}

/// Figure 9: activation energy versus MATs activated.
pub fn fig9() -> Vec<Figure9Point> {
    ActivationEnergyModel::paper_table2().figure9_series()
}

/// Table 3's power rows: the published per-granularity ACT powers, the
/// Eq. (1)/(2)-derived full-row power, and the CACTI-projected alternative.
pub fn table3() -> Table3Data {
    let params = PowerParams::paper_table3();
    let idd = IddParams::calibrated_to_paper();
    let t = DevicePowerTimings::ddr3_1600();
    Table3Data {
        published_act_mw: params.act_by_granularity_mw,
        eq12_full_row_mw: idd.p_act_mw(&t),
        cacti_projected_mw: ActivationEnergyModel::paper_table2()
            .project_onto_p_act(params.act_power_mw(8)),
        params,
    }
}

/// The data behind Table 3.
#[derive(Debug, Clone)]
pub struct Table3Data {
    /// Published ACT power by granularity (1/8 .. full), mW.
    pub published_act_mw: [f64; 8],
    /// Full-row ACT power derived from Equations (1)/(2), mW.
    pub eq12_full_row_mw: f64,
    /// The CACTI-scaling alternative projection, mW.
    pub cacti_projected_mw: [f64; 8],
    /// The full Table 3 parameter set.
    pub params: PowerParams,
}

// ---------------------------------------------------------------------------
// Main evaluation: Figures 10-15 (14 four-core workloads).
// ---------------------------------------------------------------------------

/// One row of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// Workload name.
    pub name: String,
    /// Hit rates with false hits counted as misses (read, write, total).
    pub hit_rates: (f64, f64, f64),
    /// False-hit rates among all requests (read, write).
    pub false_rates: (f64, f64),
    /// What the hit rates would have been conventionally (read, write).
    pub conventional: (f64, f64),
}

/// Figure 10: PRA's impact on row-buffer hit rates, across the 14
/// workloads under the relaxed close-page policy.
pub fn fig10(cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    let mut runner = Runner::new();
    workloads::all_workloads()
        .into_iter()
        .map(|(name, apps)| {
            let r =
                runner.run_workload(&name, &apps, Scheme::Pra, PagePolicy::RelaxedClosePage, cfg);
            let read = &r.dram.read;
            let write = &r.dram.write;
            Fig10Row {
                name,
                hit_rates: (read.hit_rate(), write.hit_rate(), r.dram.total_hit_rate()),
                false_rates: (
                    read.false_hits as f64 / read.total().max(1) as f64,
                    write.false_hits as f64 / write.total().max(1) as f64,
                ),
                conventional: (read.conventional_hit_rate(), write.conventional_hit_rate()),
            }
        })
        .collect()
}

/// Figure 11: PRA's activation-granularity proportions per workload under
/// the given policy, plus the all-workload average as a final `"average"`
/// row.
pub fn fig11(cfg: &ExperimentConfig, policy: PagePolicy) -> Vec<(String, [f64; 8])> {
    let mut runner = Runner::new();
    let mut rows: Vec<(String, [f64; 8])> = workloads::all_workloads()
        .into_iter()
        .map(|(name, apps)| {
            let r = runner.run_workload(&name, &apps, Scheme::Pra, policy, cfg);
            (name, r.dram.granularity_proportions())
        })
        .collect();
    let mut avg = [0.0; 8];
    for (_, p) in &rows {
        for (a, v) in avg.iter_mut().zip(p) {
            *a += v / rows.len() as f64;
        }
    }
    rows.push(("average".to_string(), avg));
    rows
}

/// One workload x scheme data point of the main comparison
/// (Figures 12-15), normalised to the same workload's baseline run.
#[derive(Debug, Clone)]
pub struct ComparisonRow {
    /// Workload name.
    pub workload: String,
    /// Scheme name.
    pub scheme: String,
    /// Row-activation power relative to baseline (Fig. 12a).
    pub norm_act_power: f64,
    /// I/O power relative to baseline (Fig. 12b).
    pub norm_io_power: f64,
    /// Total DRAM power relative to baseline (Fig. 12c).
    pub norm_total_power: f64,
    /// Weighted speedup relative to baseline (Fig. 13a).
    pub norm_performance: f64,
    /// DRAM energy relative to baseline (Fig. 13b).
    pub norm_energy: f64,
    /// Energy-delay product relative to baseline (Fig. 13c).
    pub norm_edp: f64,
    /// The underlying report.
    pub report: Report,
}

/// Runs a scheme set over all 14 workloads under `policy`, normalising
/// each scheme's metrics to the baseline run of the same workload. The
/// baseline itself is included as rows with all-1.0 normalised values.
pub fn scheme_comparison(
    cfg: &ExperimentConfig,
    schemes: &[Scheme],
    policy: PagePolicy,
) -> Vec<ComparisonRow> {
    scheme_comparison_filtered(cfg, schemes, policy, |_| true)
}

/// [`scheme_comparison`] over the subset of the 14 workloads whose name the
/// filter accepts — useful for quick looks and fast tests.
pub fn scheme_comparison_filtered(
    cfg: &ExperimentConfig,
    schemes: &[Scheme],
    policy: PagePolicy,
    filter: impl Fn(&str) -> bool,
) -> Vec<ComparisonRow> {
    let mut runner = Runner::new();
    let mut rows = Vec::new();
    for (name, apps) in workloads::all_workloads()
        .into_iter()
        .filter(|(n, _)| filter(n))
    {
        let base = runner.run_workload(&name, &apps, Scheme::Baseline, policy, cfg);
        let base_ws = runner.weighted_speedup(&base, &apps, policy, cfg);
        for &scheme in schemes {
            let r = if scheme == Scheme::Baseline {
                base.clone()
            } else {
                runner.run_workload(&name, &apps, scheme, policy, cfg)
            };
            let ws = runner.weighted_speedup(&r, &apps, policy, cfg);
            rows.push(ComparisonRow {
                workload: name.clone(),
                scheme: scheme.name().to_string(),
                norm_act_power: ratio(r.power.act_pre, base.power.act_pre),
                norm_io_power: ratio(r.power.io(), base.power.io()),
                norm_total_power: ratio(r.power.total(), base.power.total()),
                norm_performance: ratio(ws, base_ws),
                norm_energy: ratio(r.energy.total(), base.energy.total()),
                norm_edp: ratio(r.edp(), base.edp()),
                report: r,
            });
        }
    }
    rows
}

/// Figures 12 and 13: FGA vs Half-DRAM vs PRA under relaxed close-page.
pub fn fig12_13(cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(
        cfg,
        &[Scheme::Fga, Scheme::HalfDram, Scheme::Pra],
        PagePolicy::RelaxedClosePage,
    )
}

/// Figure 14: Half-DRAM vs PRA vs the combined scheme under restricted
/// close-page (the paper reports the 14-workload mean).
pub fn fig14(cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(
        cfg,
        &[Scheme::HalfDram, Scheme::Pra, Scheme::HalfDramPra],
        PagePolicy::RestrictedClosePage,
    )
}

/// Figure 15: DBI vs PRA vs the combined scheme under relaxed close-page.
pub fn fig15(cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(
        cfg,
        &[Scheme::Dbi, Scheme::Pra, Scheme::DbiPra],
        PagePolicy::RelaxedClosePage,
    )
}

/// Means of each normalised metric over all workloads, per scheme, in
/// first-appearance order — the aggregation Figures 12-15 report as
/// `average`/`MEAN`.
pub fn mean_by_scheme(rows: &[ComparisonRow]) -> Vec<(String, [f64; 6])> {
    let mut order: Vec<String> = Vec::new();
    let mut sums: HashMap<String, ([f64; 6], u32)> = HashMap::new();
    for row in rows {
        if !sums.contains_key(&row.scheme) {
            order.push(row.scheme.clone());
        }
        let entry = sums.entry(row.scheme.clone()).or_insert(([0.0; 6], 0));
        let vals = [
            row.norm_act_power,
            row.norm_io_power,
            row.norm_total_power,
            row.norm_performance,
            row.norm_energy,
            row.norm_edp,
        ];
        for (s, v) in entry.0.iter_mut().zip(vals) {
            *s += v;
        }
        entry.1 += 1;
    }
    order
        .into_iter()
        .map(|scheme| {
            let (sum, n) = sums[&scheme];
            (scheme, sum.map(|s| s / f64::from(n)))
        })
        .collect()
}

/// Serialises comparison rows to CSV (header + one row per
/// workload x scheme), for plotting outside Rust.
pub fn comparison_to_csv(rows: &[ComparisonRow]) -> String {
    let mut out = String::from(
        "workload,scheme,norm_act_power,norm_io_power,norm_total_power,         norm_performance,norm_energy,norm_edp,total_power_mw,energy_mj,         runtime_ns,read_hit_rate,write_hit_rate,false_hits\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{},{},{:.6},{:.6},{:.6},{:.6},{:.6},{:.6},{:.3},{:.6},{:.1},{:.6},{:.6},{}\n",
            r.workload,
            r.scheme,
            r.norm_act_power,
            r.norm_io_power,
            r.norm_total_power,
            r.norm_performance,
            r.norm_energy,
            r.norm_edp,
            r.report.power.total(),
            r.report.energy_mj(),
            r.report.runtime_ns,
            r.report.dram.read.hit_rate(),
            r.report.dram.write.hit_rate(),
            r.report.dram.read.false_hits + r.report.dram.write.false_hits,
        ));
    }
    out
}

fn ratio(value: f64, base: f64) -> f64 {
    if base == 0.0 {
        1.0
    } else {
        value / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentConfig {
        ExperimentConfig {
            instructions: 4_000,
            seed: 1,
            warmup: Some(20_000),
        }
    }

    #[test]
    fn table1_has_eight_rows_with_sane_splits() {
        let rows = table1(&tiny());
        assert_eq!(rows.len(), 8);
        for row in &rows {
            assert!(
                (row.traffic.0 + row.traffic.1 - 1.0).abs() < 1e-9,
                "{}",
                row.name
            );
            assert!((row.activations.0 + row.activations.1 - 1.0).abs() < 1e-9);
            assert!(row.rb_hit.0 >= 0.0 && row.rb_hit.0 <= 1.0);
        }
    }

    #[test]
    fn fig9_and_table3_are_static_and_consistent() {
        let pts = fig9();
        assert_eq!(pts.len(), 8);
        let t3 = table3();
        assert!((t3.eq12_full_row_mw - 22.2).abs() < 0.1);
        assert_eq!(t3.published_act_mw[7], 22.2);
        assert!((t3.cacti_projected_mw[7] - 22.2).abs() < 1e-9);
    }

    #[test]
    fn mean_by_scheme_averages() {
        let cfg = tiny();
        let mut runner = Runner::new();
        let apps = [workloads::gups(); 4];
        let base = runner.run_workload(
            "g",
            &apps,
            Scheme::Baseline,
            PagePolicy::RelaxedClosePage,
            &cfg,
        );
        let row = |scheme: &str, v: f64| ComparisonRow {
            workload: "w".into(),
            scheme: scheme.into(),
            norm_act_power: v,
            norm_io_power: v,
            norm_total_power: v,
            norm_performance: v,
            norm_energy: v,
            norm_edp: v,
            report: base.clone(),
        };
        let rows = vec![row("PRA", 0.5), row("PRA", 1.5), row("FGA", 2.0)];
        let means = mean_by_scheme(&rows);
        assert_eq!(means.len(), 2);
        assert_eq!(means[0].0, "PRA");
        assert!((means[0].1[0] - 1.0).abs() < 1e-12);
        assert!((means[1].1[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn filtered_comparison_normalises_to_baseline() {
        let cfg = tiny();
        let rows = scheme_comparison_filtered(
            &cfg,
            &[Scheme::Baseline, Scheme::Pra],
            PagePolicy::RelaxedClosePage,
            |name| name == "GUPS",
        );
        assert_eq!(rows.len(), 2, "one workload x two schemes");
        let base = rows.iter().find(|r| r.scheme == "baseline").unwrap();
        assert!((base.norm_total_power - 1.0).abs() < 1e-12);
        assert!((base.norm_performance - 1.0).abs() < 1e-12);
        let pra = rows.iter().find(|r| r.scheme == "PRA").unwrap();
        assert!(pra.norm_total_power < 1.0, "PRA saves power on GUPS");
        assert!(pra.norm_act_power < 1.0);
        assert!(pra.report.dram.activations > 0);
    }

    #[test]
    fn fig3_distributions_are_probability_vectors() {
        let rows = fig3(&tiny());
        assert_eq!(rows.len(), 8);
        for (name, dist) in rows {
            let sum: f64 = dist.iter().sum();
            assert!(
                sum == 0.0 || (sum - 1.0).abs() < 1e-9,
                "{name}: distribution sums to {sum}"
            );
        }
    }

    #[test]
    fn csv_export_shape() {
        let cfg = tiny();
        let rows = scheme_comparison_filtered(
            &cfg,
            &[Scheme::Baseline, Scheme::Pra],
            PagePolicy::RelaxedClosePage,
            |name| name == "GUPS",
        );
        let csv = comparison_to_csv(&rows);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3, "header + two rows");
        assert!(lines[0].starts_with("workload,scheme,"));
        let fields = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), fields, "ragged row: {line}");
        }
        assert!(lines[1].starts_with("GUPS,baseline,1.000000,"));
    }

    #[test]
    fn alone_ipc_is_memoised() {
        let cfg = tiny();
        let mut runner = Runner::new();
        let a = runner.alone_ipc(&workloads::gups(), PagePolicy::RelaxedClosePage, &cfg);
        let b = runner.alone_ipc(&workloads::gups(), PagePolicy::RelaxedClosePage, &cfg);
        assert_eq!(a, b);
        assert_eq!(runner.alone_cache.len(), 1);
    }
}
