//! One function per table/figure of the paper's evaluation. Each returns
//! typed rows; the `bench` crate's `figures` driver renders them in the
//! paper's layout, and EXPERIMENTS.md records the comparison against the
//! published numbers. Simulated figures draw their runs from a shared
//! [`ReportStore`], so a run that several figures need simulates once.
//!
//! Each simulated figure also has a `*_builders` function listing the
//! [`SimBuilder`]s it reads. [`ReportStore::run_all`] simulates such a
//! plan on several threads first, so that drawing the figure afterwards
//! simulates nothing.

use std::collections::HashMap;
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use dram_power::{ActivationEnergyModel, DevicePowerTimings, Figure9Point, IddParams, PowerParams};
use dram_sim::PagePolicy;
use workloads::{BenchProfile, Workload};

use crate::report::Report;
use crate::scheme::Scheme;
use crate::system::{SimBuilder, WarmSlot};

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

    /// Default figure-quality configuration: the run length `results/`
    /// and EXPERIMENTS.md are generated at.
    pub const fn figure() -> Self {
        ExperimentConfig {
            instructions: 200_000,
            seed: 1,
            warmup: None,
        }
    }

    /// A [`SimBuilder`] with this configuration's run length, seed and
    /// warm-up already applied.
    pub fn builder(&self) -> SimBuilder {
        let builder = SimBuilder::new()
            .instructions(self.instructions)
            .seed(self.seed);
        match self.warmup {
            Some(w) => builder.warmup_mem_ops(w),
            None => builder,
        }
    }
}

/// Every report a figure suite has simulated, keyed by the run's
/// [`SimBuilder::config_digest`], so a run that several figures share
/// simulates once.
///
/// The store also keeps a [`WarmSlot`], so a run whose warm key matches the
/// newest warm image starts from a copy of it; its report is identical.
#[derive(Debug, Default)]
pub struct ReportStore {
    reports: HashMap<u64, Report>,
    warm: WarmSlot,
}

impl ReportStore {
    /// An empty store.
    pub fn new() -> Self {
        ReportStore::default()
    }

    /// The report of `builder`'s run, simulated on the first request only.
    ///
    /// # Panics
    ///
    /// Panics where [`SimBuilder::run`] does.
    pub fn report(&mut self, builder: &SimBuilder) -> &Report {
        let digest = builder.config_digest();
        if !self.reports.contains_key(&digest) {
            self.run_all(std::slice::from_ref(builder), 1);
        }
        &self.reports[&digest]
    }

    /// Simulates every run of `builders` that the store does not hold yet,
    /// deduplicated by [`SimBuilder::config_digest`], on [`run_pool`]'s
    /// `jobs` workers. Reports enter the store after every worker has
    /// finished, and are the same as [`report`](Self::report) would produce
    /// one by one.
    ///
    /// # Panics
    ///
    /// Panics where [`SimBuilder::run`] does, with that run's own message,
    /// once every worker has stopped. Nothing enters the store then.
    pub fn run_all(&mut self, builders: &[SimBuilder], jobs: usize) {
        let mut planned = std::collections::HashSet::new();
        let runs: Vec<(u64, &SimBuilder)> = builders
            .iter()
            .map(|builder| (builder.config_digest(), builder))
            .filter(|(digest, _)| !self.reports.contains_key(digest) && planned.insert(*digest))
            .collect();
        let mut done = Vec::with_capacity(runs.len());
        #[expect(
            clippy::panic,
            reason = "panics exactly where the documented `run` facade does"
        )]
        let Ok(_) = run_pool(
            &runs,
            |(_, builder)| builder,
            jobs,
            &mut self.warm,
            |(_, builder), slot| {
                let (report, _) = builder.try_run_warm(slot).unwrap_or_else(|e| panic!("{e}"));
                report
            },
            |&(digest, _), report| {
                done.push((digest, report));
                Ok::<(), Infallible>(())
            },
        );
        self.reports.extend(done);
    }

    /// How many simulations the store has run.
    pub fn simulations(&self) -> usize {
        self.reports.len()
    }

    /// How many of those simulations warmed their caches up from cold; the
    /// rest started from the held warm image.
    pub fn warmups(&self) -> usize {
        self.warm.warmups
    }

    /// IPC of `profile` running alone on the baseline scheme under
    /// `policy`. This is the Eq. 3 denominator, shared across schemes as
    /// the common normalisation (see DESIGN.md). The run is named after the
    /// profile, so it is the same run as the motivation figures'.
    pub fn alone_ipc(
        &mut self,
        cfg: &ExperimentConfig,
        profile: &BenchProfile,
        policy: PagePolicy,
    ) -> f64 {
        self.report(&alone_builder(cfg, profile, policy)).ipc[0]
    }

    /// Weighted speedup of a 4-core report (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if the report does not come from a 4-core run matching
    /// `apps`, or an alone run produced a zero IPC (both are driver bugs:
    /// the store itself produced the inputs).
    #[expect(
        clippy::expect_used,
        reason = "the alone vector is built one entry per app of this report, so the lengths match by construction"
    )]
    pub fn weighted_speedup(
        &mut self,
        cfg: &ExperimentConfig,
        report: &Report,
        apps: &[BenchProfile],
        policy: PagePolicy,
    ) -> f64 {
        let alone: Vec<f64> = apps
            .iter()
            .map(|a| self.alone_ipc(cfg, a, policy))
            .collect();
        report
            .weighted_speedup(&alone)
            .expect("alone-IPC runs were produced for this very report")
    }
}

/// The one worker pool: runs `runs` on `jobs` workers (0: one per
/// available CPU), hands each result to `done` and returns the number of
/// workers.
///
/// Workers claim whole groups of runs with the same warm key, largest group
/// first, and each passes its own [`WarmSlot`] to `run`, so every key warms
/// up once while there are at least as many keys as workers. With fewer,
/// the largest groups are split until each worker has one, and each split
/// costs one more warm-up. Worker `i` starts with group `i`, so the count
/// does not depend on thread timing. The calling thread is worker 0, with
/// `slot`, which also gets the other workers' warm-up counts. `done` runs
/// on the finishing worker, one call at a time; its first `Err` stops
/// further claims and is returned once every worker has joined.
///
/// # Panics
///
/// A panic in `run` or `done` stops further claims and is re-raised with
/// its own payload once every worker has joined.
pub fn run_pool<T: Sync, R, E: Send>(
    runs: &[T],
    builder: impl Fn(&T) -> &SimBuilder,
    jobs: usize,
    slot: &mut WarmSlot,
    run: impl Fn(&T, &mut WarmSlot) -> R + Sync,
    done: impl FnMut(&T, R) -> Result<(), E> + Send,
) -> Result<usize, E> {
    let mut groups: Vec<(u64, Vec<&T>)> = Vec::new();
    for item in runs {
        let key = builder(item).warm_key();
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, group)) => group.push(item),
            None => groups.push((key, vec![item])),
        }
    }
    let workers = match jobs {
        0 => std::thread::available_parallelism().map_or(1, usize::from),
        n => n,
    }
    .clamp(1, runs.len().max(1));
    // With fewer groups than workers some workers would idle: split the
    // largest group in two, at the price of one more warm-up, until every
    // worker has one.
    groups.sort_by_key(|(_, group)| std::cmp::Reverse(group.len()));
    while groups.len() < workers.min(runs.len()) {
        let (key, largest) = &mut groups[0];
        let half = (*key, largest.split_off(largest.len() / 2));
        groups.push(half);
        groups.sort_by_key(|(_, group)| std::cmp::Reverse(group.len()));
    }
    // Worker `i` starts with group `i` and later claims the next unclaimed
    // group, so which runs share a slot, and so the warm-up count, never
    // depends on thread timing. The atomics publish no data (the groups are
    // shared read-only, and results pass through the `done` lock), so
    // relaxed accesses suffice.
    let next = AtomicUsize::new(workers);
    let stopped = AtomicBool::new(false);
    let stop = || stopped.store(true, Ordering::Relaxed);
    let done = Mutex::new((done, None));
    let work = |first: usize, slot: &mut WarmSlot| {
        catch_unwind(AssertUnwindSafe(|| {
            let mut claim = first;
            while let Some((_, group)) = groups
                .get(claim)
                .filter(|_| !stopped.load(Ordering::Relaxed))
            {
                for &item in group {
                    let result = run(item, slot);
                    // A poisoned lock means `done` panicked on another worker.
                    let Ok(mut guard) = done.lock() else { return };
                    let (done, error) = &mut *guard;
                    if error.is_none() {
                        *error = done(item, result).err();
                    }
                    if error.is_some() {
                        return stop();
                    }
                }
                claim = next.fetch_add(1, Ordering::Relaxed);
            }
        }))
        .inspect_err(|_| stop())
    };
    let panic = std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers)
            .map(|first| {
                scope.spawn(move || {
                    let mut own = WarmSlot::default();
                    (work(first, &mut own), own.warmups)
                })
            })
            .collect();
        let mut outcomes = vec![work(0, slot)];
        for handle in handles {
            let (outcome, warmups) = handle.join().unwrap_or_else(|panic| (Err(panic), 0));
            slot.warmups += warmups;
            outcomes.push(outcome);
        }
        outcomes.into_iter().find_map(Result::err)
    });
    if let Some(panic) = panic {
        resume_unwind(panic)
    }
    // Only a panic in `done` poisons the lock, and it was re-raised above.
    let (_, error) = done.into_inner().unwrap_or_else(PoisonError::into_inner);
    error.map_or(Ok(workers), Err)
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

/// The eight benchmarks single-core on the baseline (the paper's
/// motivational setup). These are also the relaxed close-page alone-IPC
/// runs of [`ReportStore::alone_ipc`].
pub fn motivation_builders(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    workloads::all_benchmarks()
        .iter()
        .map(|b| alone_builder(cfg, b, PagePolicy::RelaxedClosePage))
        .collect()
}

/// The reports of [`motivation_builders`], in the same order.
pub fn motivation_runs(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<Report> {
    motivation_builders(cfg)
        .iter()
        .map(|b| store.report(b).clone())
        .collect()
}

/// Table 1: per-benchmark memory characteristics.
pub fn table1(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<Table1Row> {
    motivation_runs(store, cfg).iter().map(table1_row).collect()
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

/// PRA on each of the 14 workloads under `policy`: the runs of Figure 10
/// (relaxed close-page) and Figure 11.
pub fn pra_builders(cfg: &ExperimentConfig, policy: PagePolicy) -> Vec<SimBuilder> {
    Workload::suite()
        .iter()
        .map(|workload| workload_builder(cfg, workload, policy).scheme(Scheme::Pra))
        .collect()
}

/// Figure 10: PRA's impact on row-buffer hit rates, across the 14
/// workloads under the relaxed close-page policy.
pub fn fig10(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<Fig10Row> {
    Workload::suite()
        .iter()
        .zip(pra_builders(cfg, PagePolicy::RelaxedClosePage))
        .map(|(workload, builder)| {
            let r = store.report(&builder);
            let read = &r.dram.read;
            let write = &r.dram.write;
            Fig10Row {
                name: workload.name().to_string(),
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
pub fn fig11(
    store: &mut ReportStore,
    cfg: &ExperimentConfig,
    policy: PagePolicy,
) -> Vec<(String, [f64; 8])> {
    let mut rows: Vec<(String, [f64; 8])> = Workload::suite()
        .iter()
        .zip(pra_builders(cfg, policy))
        .map(|(workload, builder)| {
            let r = store.report(&builder);
            (
                workload.name().to_string(),
                r.dram.granularity_proportions(),
            )
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

/// The runs [`scheme_comparison`] reads: per workload, the alone-IPC runs
/// of its applications, its baseline and each scheme of the set.
pub fn comparison_builders(
    cfg: &ExperimentConfig,
    schemes: &[Scheme],
    policy: PagePolicy,
    filter: impl Fn(&str) -> bool,
) -> Vec<SimBuilder> {
    let mut runs = Vec::new();
    for workload in Workload::suite().iter().filter(|w| filter(w.name())) {
        runs.extend(
            workload
                .apps(4)
                .iter()
                .map(|app| alone_builder(cfg, app, policy)),
        );
        let builder = workload_builder(cfg, workload, policy);
        runs.push(builder.clone().scheme(Scheme::Baseline));
        runs.extend(schemes.iter().map(|&s| builder.clone().scheme(s)));
    }
    runs
}

/// Runs a scheme set under `policy` over those of the 14 workloads whose
/// name `filter` accepts, normalising each scheme's metrics to the
/// baseline run of the same workload. A baseline in the set yields rows
/// with all-1.0 normalised values.
pub fn scheme_comparison(
    store: &mut ReportStore,
    cfg: &ExperimentConfig,
    schemes: &[Scheme],
    policy: PagePolicy,
    filter: impl Fn(&str) -> bool,
) -> Vec<ComparisonRow> {
    let mut rows = Vec::new();
    for workload in Workload::suite().iter().filter(|w| filter(w.name())) {
        let apps = workload.apps(4);
        let builder = workload_builder(cfg, workload, policy);
        let base = store
            .report(&builder.clone().scheme(Scheme::Baseline))
            .clone();
        let base_ws = store.weighted_speedup(cfg, &base, &apps, policy);
        for &scheme in schemes {
            let r = store.report(&builder.clone().scheme(scheme)).clone();
            let ws = store.weighted_speedup(cfg, &r, &apps, policy);
            rows.push(ComparisonRow {
                workload: workload.name().to_string(),
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

/// The schemes of Figures 12 and 13, and their page policy.
const FIG12_13: (&[Scheme], PagePolicy) = (
    &[Scheme::Fga, Scheme::HalfDram, Scheme::Pra],
    PagePolicy::RelaxedClosePage,
);
/// The schemes of Figure 14, and its page policy.
const FIG14: (&[Scheme], PagePolicy) = (
    &[Scheme::HalfDram, Scheme::Pra, Scheme::HalfDramPra],
    PagePolicy::RestrictedClosePage,
);
/// The schemes of Figure 15, and its page policy.
const FIG15: (&[Scheme], PagePolicy) = (
    &[Scheme::Dbi, Scheme::Pra, Scheme::DbiPra],
    PagePolicy::RelaxedClosePage,
);

/// Figures 12 and 13: FGA vs Half-DRAM vs PRA under relaxed close-page,
/// in a store of their own. The 64 runs (14 workloads' baseline, FGA,
/// Half-DRAM and PRA runs, and 8 alone-IPC runs) are simulated by
/// [`ReportStore::run_all`] on every available CPU, each workload's four
/// sharing one warm-up.
pub fn fig12_13(cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    let mut store = ReportStore::new();
    store.run_all(&fig12_13_builders(cfg), 0);
    fig12_13_with(&mut store, cfg)
}

/// The runs of [`fig12_13`].
pub fn fig12_13_builders(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    comparison_builders(cfg, FIG12_13.0, FIG12_13.1, |_| true)
}

/// [`fig12_13`] over a shared store.
pub fn fig12_13_with(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(store, cfg, FIG12_13.0, FIG12_13.1, |_| true)
}

/// The runs of [`fig14`].
pub fn fig14_builders(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    comparison_builders(cfg, FIG14.0, FIG14.1, |_| true)
}

/// Figure 14: Half-DRAM vs PRA vs the combined scheme under restricted
/// close-page (the paper reports the 14-workload mean).
pub fn fig14(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(store, cfg, FIG14.0, FIG14.1, |_| true)
}

/// The runs of [`fig15`].
pub fn fig15_builders(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    comparison_builders(cfg, FIG15.0, FIG15.1, |_| true)
}

/// Figure 15: DBI vs PRA vs the combined scheme under relaxed close-page.
pub fn fig15(store: &mut ReportStore, cfg: &ExperimentConfig) -> Vec<ComparisonRow> {
    scheme_comparison(store, cfg, FIG15.0, FIG15.1, |_| true)
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

/// One of the 14 workloads on four cores under `policy`.
fn workload_builder(cfg: &ExperimentConfig, workload: &Workload, policy: PagePolicy) -> SimBuilder {
    cfg.builder().workload(workload, 4).policy(policy)
}

/// `profile` running alone on the baseline under `policy`, named after
/// the profile: a motivation run under relaxed close-page, and the run
/// behind [`ReportStore::alone_ipc`].
fn alone_builder(cfg: &ExperimentConfig, profile: &BenchProfile, policy: PagePolicy) -> SimBuilder {
    cfg.builder()
        .workload(&Workload::Bench(*profile), 1)
        .scheme(Scheme::Baseline)
        .policy(policy)
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
        let rows = table1(&mut ReportStore::new(), &tiny());
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
        let base = tiny().builder().homogeneous(workloads::gups(), 4).run();
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
        let rows = scheme_comparison(
            &mut ReportStore::new(),
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
        let runs = motivation_runs(&mut ReportStore::new(), &tiny());
        assert_eq!(runs.len(), 8);
        for r in runs {
            let (name, dist) = (r.workload, r.cache.dirty_word_proportions());
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
        let rows = scheme_comparison(
            &mut ReportStore::new(),
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
    fn pool_stops_claiming_after_the_first_callback_error() {
        let builders: Vec<SimBuilder> = (1..=3)
            .map(|seed| tiny().builder().app(workloads::gups()).seed(seed))
            .collect();
        let ran = AtomicUsize::new(0);
        let result = run_pool(
            &builders,
            |builder| builder,
            1,
            &mut WarmSlot::default(),
            |_, _| ran.fetch_add(1, Ordering::Relaxed),
            |_, _| Err("journal full"),
        );
        assert_eq!(result, Err("journal full"));
        assert_eq!(ran.into_inner(), 1, "three warm keys, so three groups");
        let workers = run_pool(
            &builders,
            |builder| builder,
            0,
            &mut WarmSlot::default(),
            |_, _| (),
            |_, ()| Ok::<(), ()>(()),
        );
        assert!(matches!(workers, Ok(1..=3)), "{workers:?}");
    }

    #[test]
    fn pool_splits_a_lone_warm_key_so_no_worker_idles() {
        let builders: Vec<SimBuilder> = [Scheme::Baseline, Scheme::Pra, Scheme::HalfDram]
            .into_iter()
            .map(|scheme| tiny().builder().app(workloads::gups()).scheme(scheme))
            .collect();
        let mut slot = WarmSlot::default();
        let mut digests = Vec::new();
        let workers = run_pool(
            &builders,
            |builder| builder,
            2,
            &mut slot,
            |builder, slot| builder.try_run_warm(slot).unwrap().0.state_digest(),
            |builder, digest| {
                digests.push((builder.config_digest(), digest));
                Ok::<(), ()>(())
            },
        );
        assert_eq!(workers, Ok(2), "one warm key, split in two");
        assert_eq!(slot.warmups(), 2, "one warm-up per half");
        digests.sort_unstable();
        let mut cold: Vec<_> = builders
            .iter()
            .map(|b| (b.config_digest(), b.run().state_digest()))
            .collect();
        cold.sort_unstable();
        assert_eq!(digests, cold);
    }

    #[test]
    fn store_simulates_each_run_once_and_matches_a_fresh_run() {
        let cfg = tiny();
        let builder = cfg
            .builder()
            .app(workloads::gups())
            .name("GUPS")
            .scheme(Scheme::Baseline);
        let mut store = ReportStore::new();
        let digest = store.report(&builder).state_digest();
        assert_eq!(store.simulations(), 1);
        assert_eq!(store.report(&builder).state_digest(), digest);
        store.alone_ipc(&cfg, &workloads::gups(), PagePolicy::RelaxedClosePage);
        assert_eq!(store.simulations(), 1, "the alone run is the named run");
        assert_eq!(builder.run().state_digest(), digest);
    }
}
