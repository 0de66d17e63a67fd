//! The benchmark's workloads and the simulations each one runs.
//!
//! Why these three (see `perfbench/README.md` for the longer reasons):
//! `fig12_sweep` is what users wait for and is dominated by per-run set-up;
//! `membound_mix2` keeps the DRAM tick and the core loop busy with PRA's
//! partial activations; `cachebound_bzip2` keeps the cores and the cache
//! hierarchy busy on full-row reads with DRAM lightly loaded.

use std::panic::{catch_unwind, AssertUnwindSafe};

use dram_sim::PagePolicy;
use pra_core::experiments::{self, ComparisonRow, ExperimentConfig};
use pra_core::{Report, Scheme, SimBuilder};
use workloads::BenchProfile;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig12Sweep,
    MemboundMix2,
    CacheboundBzip2,
}

/// Run lengths: `Full` for measurement, `Tiny` for the smoke tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Full,
    #[cfg(test)]
    Tiny,
}

/// Instructions each core retires in the set-up probe: the measured phase
/// cut to almost nothing. (0 or 1 instructions make `SimBuilder::try_run`
/// panic in `EnergyBreakdown::to_power`; see the README.)
pub const SETUP_INSTRUCTIONS: u64 = 100;

/// Simulations per `cachebound_bzip2` pass, each with its own seed derived
/// from the run's: where bzip2's four streams start changes its cycle count
/// by up to 13% from seed to seed, and averaging four seeds halves that.
const BZIP2_SEEDS: u64 = 4;

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig12Sweep,
        Workload::MemboundMix2,
        Workload::CacheboundBzip2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig12Sweep => "fig12_sweep",
            Workload::MemboundMix2 => "membound_mix2",
            Workload::CacheboundBzip2 => "cachebound_bzip2",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Instructions per core and functional warm-up (memory ops per core;
    /// `None` keeps `SimBuilder`'s default of `1_000_000 / cores`).
    fn lengths(self, scale: Scale) -> (u64, Option<u64>) {
        match (self, scale) {
            (Workload::Fig12Sweep, Scale::Full) => {
                let quick = ExperimentConfig::quick();
                (quick.instructions, quick.warmup)
            }
            (Workload::MemboundMix2, Scale::Full) => (400_000, Some(50_000)),
            (Workload::CacheboundBzip2, Scale::Full) => (500_000, Some(80_000)),
            #[cfg(test)]
            (_, Scale::Tiny) => (1_000, Some(2_000)),
        }
    }
}

/// One simulation, described the way `SimBuilder` takes it.
#[derive(Debug, Clone)]
pub struct SimSpec {
    pub name: Option<String>,
    pub apps: Vec<BenchProfile>,
    pub scheme: Scheme,
    pub policy: PagePolicy,
    pub instructions: u64,
    pub seed: u64,
    pub warmup: Option<u64>,
}

impl SimSpec {
    pub fn builder(&self) -> SimBuilder {
        let mut b = SimBuilder::new()
            .scheme(self.scheme)
            .policy(self.policy)
            .instructions(self.instructions)
            .seed(self.seed);
        for app in &self.apps {
            b = b.app(*app);
        }
        if let Some(name) = &self.name {
            b = b.name(name.clone());
        }
        if let Some(w) = self.warmup {
            b = b.warmup_mem_ops(w);
        }
        b
    }

    pub fn cores(&self) -> usize {
        self.apps.len()
    }

    /// Memory ops each core plays through the caches before the measured
    /// phase (`SimBuilder`'s rule).
    pub fn warmup_ops(&self) -> u64 {
        self.warmup.unwrap_or(1_000_000 / self.cores() as u64)
    }

    /// The report's workload name (`SimBuilder`'s rule).
    pub fn workload_name(&self) -> String {
        self.name.clone().unwrap_or_else(|| {
            let names: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
            names.join("+")
        })
    }

    /// Identifies the simulation across repetitions in one process.
    pub fn key(&self) -> String {
        format_key(
            &self.workload_name(),
            self.scheme.name(),
            self.cores(),
            self.instructions,
            self.seed,
        )
    }

    /// Two simulations with the same warm key warm up to the same cache
    /// image: warm-up depends on the apps, seed, length and whether the
    /// LLC runs a Dirty-Block Index, not on the DRAM scheme.
    pub fn warm_key(&self) -> String {
        let names: Vec<&str> = self.apps.iter().map(|a| a.name).collect();
        format!(
            "{names:?}/{}/{}/{}",
            self.seed,
            self.warmup_ops(),
            self.scheme.uses_dbi()
        )
    }

    fn instructions_total(&self) -> u64 {
        self.instructions * self.cores() as u64
    }
}

pub fn format_key(
    workload: &str,
    scheme: &str,
    cores: usize,
    instructions: u64,
    seed: u64,
) -> String {
    format!("{workload}/{scheme}/{cores}c/{instructions}i/seed{seed}")
}

/// One pass of a workload with its own run length.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub workload: Workload,
    pub instructions: u64,
    pub warmup: Option<u64>,
    pub seed: u64,
}

/// What one untraced pass produced: the reports it exposes, each keyed,
/// with its core count, and the simulated instructions of every
/// simulation it ran.
pub struct Pass {
    pub reports: Vec<(String, usize, Result<Report, String>)>,
    pub instructions: u64,
    /// Figure 12/13 rows (`fig12_sweep` only).
    pub rows: Vec<ComparisonRow>,
}

impl Plan {
    pub fn new(workload: Workload, scale: Scale, seed: u64) -> Self {
        let (instructions, warmup) = workload.lengths(scale);
        Plan {
            workload,
            instructions,
            warmup,
            seed,
        }
    }

    /// The same plan with the measured phase cut to the set-up probe.
    pub fn setup_probe(self) -> Self {
        Plan {
            instructions: SETUP_INSTRUCTIONS,
            ..self
        }
    }

    fn spec(&self, name: Option<&str>, apps: &[BenchProfile], scheme: Scheme) -> SimSpec {
        SimSpec {
            name: name.map(str::to_string),
            apps: apps.to_vec(),
            scheme,
            policy: PagePolicy::RelaxedClosePage,
            instructions: self.instructions,
            seed: self.seed,
            warmup: self.warmup,
        }
    }

    fn experiment_config(&self) -> ExperimentConfig {
        ExperimentConfig {
            instructions: self.instructions,
            seed: self.seed,
            warmup: self.warmup,
        }
    }

    /// Every simulation of one pass, in the order the untraced pass runs
    /// them. For `fig12_sweep` this follows `experiments::fig12_13`: per
    /// workload the baseline, then the alone-IPC runs its weighted speedup
    /// needs for the first time, then FGA, Half-DRAM and PRA.
    pub fn specs(&self) -> Vec<SimSpec> {
        match self.workload {
            Workload::Fig12Sweep => {
                let mut specs = Vec::new();
                let mut alone_done: Vec<&str> = Vec::new();
                for (name, apps) in workloads::all_workloads() {
                    specs.push(self.spec(Some(&name), &apps, Scheme::Baseline));
                    for app in apps {
                        if !alone_done.contains(&app.name) {
                            alone_done.push(app.name);
                            specs.push(self.spec(None, &[app], Scheme::Baseline));
                        }
                    }
                    for scheme in [Scheme::Fga, Scheme::HalfDram, Scheme::Pra] {
                        specs.push(self.spec(Some(&name), &apps, scheme));
                    }
                }
                specs
            }
            Workload::MemboundMix2 => {
                let mix = &workloads::all_mixes()[1];
                vec![self.spec(Some(mix.name), &mix.apps, Scheme::Pra)]
            }
            Workload::CacheboundBzip2 => (0..BZIP2_SEEDS)
                .map(|i| SimSpec {
                    seed: self.seed.wrapping_mul(BZIP2_SEEDS).wrapping_add(i),
                    ..self.spec(None, &[workloads::bzip2(); 4], Scheme::Baseline)
                })
                .collect(),
        }
    }

    /// Runs one pass through the entry point a user calls: the figure
    /// function for the sweep, `SimBuilder::try_run` for the loops.
    pub fn run(&self) -> Pass {
        let specs = self.specs();
        let instructions = specs.iter().map(SimSpec::instructions_total).sum();
        match self.workload {
            Workload::Fig12Sweep => {
                let cfg = self.experiment_config();
                match catch_unwind(AssertUnwindSafe(|| experiments::fig12_13(&cfg))) {
                    Ok(rows) => Pass {
                        reports: rows
                            .iter()
                            .map(|r| {
                                let cores = r.report.ipc.len();
                                let key = format_key(
                                    &r.workload,
                                    &r.scheme,
                                    cores,
                                    self.instructions,
                                    self.seed,
                                );
                                (key, cores, Ok(r.report.clone()))
                            })
                            .collect(),
                        instructions,
                        rows,
                    },
                    Err(panic) => {
                        let why = panic_message(&panic);
                        let reports = specs
                            .iter()
                            .filter(|s| s.cores() == 4 && s.scheme != Scheme::Baseline)
                            .map(|s| (s.key(), s.cores(), Err(why.clone())))
                            .collect();
                        Pass {
                            reports,
                            instructions,
                            rows: Vec::new(),
                        }
                    }
                }
            }
            Workload::MemboundMix2 | Workload::CacheboundBzip2 => Pass {
                reports: specs
                    .iter()
                    .map(|s| {
                        let outcome = catch_unwind(AssertUnwindSafe(|| s.builder().try_run()))
                            .map_err(|p| panic_message(&p))
                            .and_then(|r| r.map_err(|e| e.to_string()));
                        (s.key(), s.cores(), outcome)
                    })
                    .collect(),
                instructions,
                rows: Vec::new(),
            },
        }
    }
}

fn panic_message(panic: &Box<dyn std::any::Any + Send>) -> String {
    panic
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "panicked".to_string())
}

/// PRA's 14-workload means from Figure 12(c) and 13(a): total DRAM power
/// and weighted speedup, both relative to the baseline.
pub fn pra_means(rows: &[ComparisonRow]) -> Option<(f64, f64)> {
    experiments::mean_by_scheme(rows)
        .into_iter()
        .find(|(scheme, _)| scheme == Scheme::Pra.name())
        .map(|(_, means)| (means[2], means[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig12_plan_matches_the_sweep_it_stands_for() {
        let plan = Plan::new(Workload::Fig12Sweep, Scale::Full, 7);
        let specs = plan.specs();
        assert_eq!(
            specs.len(),
            14 * 4 + 8,
            "14 workloads x 4 schemes + 8 alone runs"
        );
        let distinct: std::collections::BTreeSet<String> =
            specs.iter().map(SimSpec::warm_key).collect();
        assert_eq!(distinct.len(), 22, "14 shared 4-core warm images + 8 alone");
        assert!(specs.iter().all(|s| s.seed == 7));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
