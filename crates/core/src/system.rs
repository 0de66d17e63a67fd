//! The full-system simulation builder.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};

use cache_sim::{CacheHierarchy, HierarchyConfig};
use cpu_sim::{CpuSystem, InstructionSource, SystemConfig};
use dram_sim::{DramConfig, MemorySystem, PagePolicy};
use sim_fault::{Domain, FaultPlan};
use sim_snap::SnapState as _;
use workloads::{BenchProfile, Trace, Workload, WorkloadGen};

use crate::error::SimError;

/// What drives one core: a synthetic profile or a recorded trace (replayed
/// in a loop, SimPoint-style).
#[derive(Debug, Clone)]
enum AppSpec {
    Profile(BenchProfile),
    Trace { name: String, trace: Trace },
}

impl AppSpec {
    fn name(&self) -> &str {
        match self {
            AppSpec::Profile(p) => p.name,
            AppSpec::Trace { name, .. } => name,
        }
    }

    fn source(&self, seed: u64, base: u64) -> Box<dyn InstructionSource> {
        match self {
            AppSpec::Profile(p) => Box::new(WorkloadGen::new(*p, seed, base)),
            AppSpec::Trace { trace, .. } => Box::new(trace.replay()),
        }
    }
}

use crate::report::Report;
use crate::scheme::Scheme;

/// DRAM generation the simulated system is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DramGeneration {
    /// The paper's 2 Gb x8 DDR3-1600 baseline.
    #[default]
    Ddr3,
    /// 8 Gb x8 DDR4-2400 with estimated power parameters (an exploration
    /// target beyond the paper; see `PowerParams::ddr4_2400_estimate`).
    Ddr4,
}

/// CPU cycles a run may take per instruction before it stops as timed out:
/// generous enough for the most memory-bound workloads.
const MAX_CPU_CYCLES_PER_INSTRUCTION: u64 = 2_000;
/// The cycle cap of a run too short for the per-instruction cap to matter.
const MIN_CPU_CYCLE_CAP: u64 = 10_000_000;

/// Builds and runs one simulation: a workload (1..=4 applications) under a
/// [`Scheme`] and a [`PagePolicy`].
///
/// # Example
///
/// ```
/// use pra_core::{Scheme, SimBuilder};
/// use dram_sim::PagePolicy;
///
/// let report = SimBuilder::new()
///     .app(workloads::gups())
///     .scheme(Scheme::Pra)
///     .policy(PagePolicy::RelaxedClosePage)
///     .instructions(20_000)
///     .run();
/// assert!(report.power.total() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct SimBuilder {
    name: Option<String>,
    apps: Vec<AppSpec>,
    scheme: Scheme,
    policy: PagePolicy,
    instructions: u64,
    seed: u64,
    warmup_mem_ops: Option<u64>,
    scheme_override: Option<dram_sim::SchemeBehavior>,
    prefetch_next_line: bool,
    generation: DramGeneration,
    ecc_x72: bool,
    trace_out: Option<PathBuf>,
    trace_ring: Option<Arc<Mutex<sim_obs::RingSink>>>,
    metrics_out: Option<PathBuf>,
    metrics_epoch: u64,
    power_telemetry: bool,
    faults: Option<FaultPlan>,
    recovery: Option<dram_sim::RecoveryConfig>,
    liveness: dram_sim::LivenessConfig,
    escalation_age: Option<u64>,
    checkpoint_every: u64,
    checkpoint_dir: Option<PathBuf>,
    restore_from: Option<PathBuf>,
}

/// Checkpoint/restore bookkeeping for one run, reported alongside the
/// [`Report`] by [`SimBuilder::try_run_snap`].
///
/// Deliberately *not* part of the [`Report`] or the in-simulation metrics
/// registry: how often the host process snapshotted says nothing about the
/// simulated machine, and folding it into the report would change
/// [`Report::state_digest`] — breaking the contract that a restored run
/// digests identically to an uninterrupted one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SnapOutcome {
    /// Checkpoints successfully written during the run.
    pub checkpoints_written: u64,
    /// Memory cycle of the newest checkpoint written, if any.
    pub last_checkpoint_cycle: Option<u64>,
    /// Memory cycle this run resumed from, when a restore was requested.
    pub restored_from_cycle: Option<u64>,
    /// Checkpoint writes that failed (the run continues; a missing
    /// checkpoint only widens the recovery gap).
    pub write_errors: u64,
}

impl SimBuilder {
    /// A builder with no applications yet, the baseline scheme, relaxed
    /// close-page and a small default run length.
    pub fn new() -> Self {
        SimBuilder {
            name: None,
            apps: Vec::new(),
            scheme: Scheme::Baseline,
            policy: PagePolicy::RelaxedClosePage,
            instructions: 100_000,
            seed: 1,
            warmup_mem_ops: None,
            scheme_override: None,
            prefetch_next_line: false,
            generation: DramGeneration::Ddr3,
            ecc_x72: false,
            trace_out: None,
            trace_ring: None,
            metrics_out: None,
            metrics_epoch: 0,
            power_telemetry: true,
            faults: None,
            recovery: None,
            liveness: dram_sim::LivenessConfig::disabled(),
            escalation_age: None,
            checkpoint_every: 0,
            checkpoint_dir: None,
            restore_from: None,
        }
    }

    /// Adds one application (one core).
    pub fn app(mut self, profile: BenchProfile) -> Self {
        self.apps.push(AppSpec::Profile(profile));
        self
    }

    /// Adds one core driven by a recorded trace, replayed in a loop
    /// (SimPoint-style region replay).
    ///
    /// # Panics
    ///
    /// Panics if the trace is empty.
    pub fn app_trace(mut self, name: impl Into<String>, trace: Trace) -> Self {
        assert!(!trace.is_empty(), "cannot drive a core with an empty trace");
        self.apps.push(AppSpec::Trace {
            name: name.into(),
            trace,
        });
        self
    }

    /// Runs `n` identical instances of `profile` (the paper's homogeneous
    /// workloads use four).
    pub fn homogeneous(mut self, profile: BenchProfile, n: usize) -> Self {
        self.apps
            .extend(std::iter::repeat_n(AppSpec::Profile(profile), n));
        self
    }

    /// Adds a 4-application mix.
    pub fn mix(mut self, apps: [BenchProfile; 4]) -> Self {
        self.apps.extend(apps.map(AppSpec::Profile));
        self
    }

    /// Runs `workload` (`cores` copies of a benchmark, or a mix's four
    /// applications whatever `cores` is) under its name: the one way `pra
    /// run`, campaigns and the figure suite turn a workload into a run.
    pub fn workload(self, workload: &Workload, cores: usize) -> Self {
        let mut builder = self.name(workload.name());
        builder
            .apps
            .extend(workload.apps(cores).into_iter().map(AppSpec::Profile));
        builder
    }

    /// Overrides the workload name in the report (defaults to joined app
    /// names).
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Selects the scheme.
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Selects the DRAM generation (DDR3 default; DDR4-2400 as an
    /// exploration target).
    pub fn dram_generation(mut self, generation: DramGeneration) -> Self {
        self.generation = generation;
        self
    }

    /// Models an x72 ECC DIMM (Section 4.2): a ninth chip whose PRA# pin
    /// is strapped high stores ECC codes, activating full rows and moving
    /// its byte lane on every access.
    pub fn ecc_x72(mut self, enabled: bool) -> Self {
        self.ecc_x72 = enabled;
        self
    }

    /// Enables the next-line prefetcher in the shared L2 (an extension
    /// beyond the paper's configuration; off by default).
    pub fn prefetch_next_line(mut self, enabled: bool) -> Self {
        self.prefetch_next_line = enabled;
        self
    }

    /// Replaces the DRAM-side behaviour with a custom descriptor while
    /// keeping the selected [`Scheme`]'s cache-side settings — the hook the
    /// ablation studies use (e.g. PRA without relaxed tRRD/tFAW).
    pub fn scheme_behavior_override(mut self, behavior: dram_sim::SchemeBehavior) -> Self {
        self.scheme_override = Some(behavior);
        self
    }

    /// Selects the page policy (the address mapping follows the paper's
    /// pairing automatically).
    pub fn policy(mut self, policy: PagePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Instructions each core retires.
    pub fn instructions(mut self, n: u64) -> Self {
        self.instructions = n;
        self
    }

    /// RNG seed for the workload generators.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Streams every trace event — DRAM commands, cache fills/writebacks
    /// and core-stall episodes, interleaved in one file — as JSON Lines to
    /// `path` (see DESIGN.md "Observability" for the event schema). Off by
    /// default; the run is bit-identical with or without tracing.
    pub fn trace_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.trace_out = Some(path.into());
        self
    }

    /// Feeds every trace event into a shared in-memory [`sim_obs::RingSink`]
    /// instead of a file — the flight-recorder mode behind
    /// `pra trace export-perfetto`. The caller keeps its own `Arc` clone and
    /// reads the retained events (and the overflow count,
    /// [`sim_obs::RingSink::dropped`]) back after the run. Ignored when
    /// [`trace_out`](Self::trace_out) streams to a file instead.
    pub fn trace_ring(mut self, ring: Arc<Mutex<sim_obs::RingSink>>) -> Self {
        self.trace_ring = Some(ring);
        self
    }

    /// Takes a metrics snapshot every `cycles` memory cycles. The delta
    /// records land in the report's `metrics` field (and in the
    /// [`metrics_out`](Self::metrics_out) file when set). 0 disables.
    pub fn metrics_epoch(mut self, cycles: u64) -> Self {
        self.metrics_epoch = cycles;
        self
    }

    /// Enables or disables the live power-telemetry layer (on by default):
    /// per-bank residency tracking in the DRAM energy accountant plus
    /// `energy.*`/`power.*` metric publication and `POWER_EPOCH` /
    /// `POWER_RANK` trace events at every epoch close. The simulation
    /// itself is bit-identical either way — telemetry only observes.
    pub fn power_telemetry(mut self, enabled: bool) -> Self {
        self.power_telemetry = enabled;
        self
    }

    /// Streams each closed epoch snapshot as a JSON line to `path`.
    /// Implies a default epoch of 100 000 memory cycles unless
    /// [`metrics_epoch`](Self::metrics_epoch) chose another length.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.metrics_out = Some(path.into());
        self
    }

    /// Memory operations each core's generator plays through the cache
    /// hierarchy *functionally* (no timing, no DRAM traffic) before the
    /// measured phase, so the 4 MB LLC reaches its steady-state content
    /// *and* dirty fraction — the trace-warmup step of standard simulation
    /// methodology. Cache and DRAM statistics reset afterwards. The default
    /// scales inversely with core count (the shared LLC turns over `cores`
    /// times faster): `1_000_000 / cores` per core, roughly three LLC
    /// capacity turnovers.
    pub fn warmup_mem_ops(mut self, n: u64) -> Self {
        self.warmup_mem_ops = Some(n);
        self
    }

    /// Injects faults during the measured phase according to `plan` (see
    /// [`sim_fault`]): per-domain injectors derived from `plan.seed` attach
    /// to the DRAM controller and the cache hierarchy. A no-op plan (all
    /// rates zero) attaches nothing, keeping the run bit-identical to one
    /// without a plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Arms the controller-side recovery pipeline: C/A parity over issued
    /// commands, ALERT_n-style delayed error signalling, bounded replay
    /// with per-command retry budgets, and a row health scoreboard that
    /// demotes persistently faulty rows to full-row activation (see
    /// [`sim_recover`](dram_sim::RecoveryConfig)). Without faults the
    /// pipeline is inert and the run is bit-identical to one without it.
    pub fn recovery(mut self, config: dram_sim::RecoveryConfig) -> Self {
        self.recovery = Some(config);
        self
    }

    /// Arms the DRAM liveness watchdogs (both in memory cycles, 0 disables
    /// each): `max_no_retire` bounds how long the memory system may tick
    /// without retiring any request while work is pending;
    /// `max_queue_age` bounds how long any single request may sit queued.
    /// A trip surfaces as [`SimError::Liveness`] from
    /// [`SimBuilder::try_run`], carrying the victim's address/bank trail.
    pub fn liveness_watchdog(mut self, max_no_retire: u64, max_queue_age: u64) -> Self {
        self.liveness = dram_sim::LivenessConfig {
            max_no_retire_cycles: max_no_retire,
            max_queue_age_cycles: max_queue_age,
        };
        self
    }

    /// Overrides the FR-FCFS starvation-escalation age (memory cycles a
    /// request may wait before the scheduler stops taking row hits over it;
    /// 0 disables escalation). Defaults to
    /// [`dram_sim::DEFAULT_ESCALATION_AGE`].
    pub fn starvation_escalation_age(mut self, cycles: u64) -> Self {
        self.escalation_age = Some(cycles);
        self
    }

    /// Writes a full-state checkpoint every `mem_cycles` memory cycles
    /// (0 disables, the default). Requires
    /// [`checkpoint_dir`](Self::checkpoint_dir); snapshots are written
    /// atomically (temp file + rename) as `snap-<cycle>.snap`, named so
    /// lexicographic order is cycle order. The simulation itself is
    /// bit-identical with checkpointing on or off — serialisation only
    /// reads state.
    pub fn checkpoint_every(mut self, mem_cycles: u64) -> Self {
        self.checkpoint_every = mem_cycles;
        self
    }

    /// Directory checkpoints are written into (created if absent).
    /// Requires [`checkpoint_every`](Self::checkpoint_every).
    pub fn checkpoint_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.checkpoint_dir = Some(dir.into());
        self
    }

    /// Restores the complete simulator state from a snapshot file before
    /// the measured phase and continues the run from that cycle. The
    /// builder must be configured identically to the run that wrote the
    /// snapshot — the file's config digest is verified against
    /// [`config_digest`](Self::config_digest) and a mismatch is rejected.
    /// A run restored at cycle C finishes with a [`Report::state_digest`]
    /// bit-identical to the uninterrupted run.
    pub fn restore(mut self, snapshot: impl Into<PathBuf>) -> Self {
        self.restore_from = Some(snapshot.into());
        self
    }

    /// The metrics epoch actually used by the run ([`metrics_out`]
    /// (Self::metrics_out) implies a 100 000-cycle default).
    fn effective_metrics_epoch(&self) -> u64 {
        if self.metrics_epoch == 0 && self.metrics_out.is_some() {
            100_000
        } else {
            self.metrics_epoch
        }
    }

    /// Writes the applications into a digest: profiles by their full
    /// parameters, traces op by op.
    fn write_apps(&self, w: &mut sim_snap::SnapWriter) {
        w.seq(self.apps.len());
        for app in &self.apps {
            match app {
                AppSpec::Profile(p) => {
                    w.u8(0);
                    w.str(&format!("{p:?}"));
                }
                AppSpec::Trace { name, trace } => {
                    w.u8(1);
                    w.str(name);
                    w.seq(trace.len());
                    for op in trace.ops() {
                        match *op {
                            cpu_sim::Op::Compute(n) => {
                                w.u8(0);
                                w.u32(n);
                            }
                            cpu_sim::Op::Load(a) => {
                                w.u8(1);
                                w.u64(a.raw());
                            }
                            cpu_sim::Op::Store(a, m) => {
                                w.u8(2);
                                w.u64(a.raw());
                                w.u8(m.bits());
                            }
                        }
                    }
                }
            }
        }
    }

    /// Memory ops each core plays through the caches before the measured
    /// phase.
    fn effective_warmup(&self) -> u64 {
        self.warmup_mem_ops
            .unwrap_or(1_000_000 / self.apps.len() as u64)
    }

    /// FNV-1a digest over everything functional warm-up depends on: the
    /// applications, seed and warm-up length, the whole hierarchy shape
    /// (DBI and prefetch included), and the DRAM geometry and mapping DBI
    /// groups rows by. Runs with equal keys warm up to identical caches and
    /// generator positions, whatever their scheme, page policy timing,
    /// faults or other DRAM-side knobs.
    pub(crate) fn warm_key(&self) -> u64 {
        let mut w = sim_snap::SnapWriter::new();
        w.section("pra-warm-key");
        self.write_apps(&mut w);
        w.u64(self.seed);
        w.u64(self.effective_warmup());
        w.str(&format!("{:?}", self.hierarchy_config()));
        w.str(&format!("{:?}", dram_view(&self.dram_config())));
        sim_snap::codec::fnv1a_64(&w.into_bytes())
    }

    /// The cache hierarchy of this run: the paper's, one L1 per app.
    fn hierarchy_config(&self) -> HierarchyConfig {
        HierarchyConfig {
            dbi: self.scheme.uses_dbi(),
            prefetch_next_line: self.prefetch_next_line,
            ..HierarchyConfig::paper(self.apps.len())
        }
    }

    /// The DRAM system of this run.
    fn dram_config(&self) -> DramConfig {
        let behavior = self
            .scheme_override
            .unwrap_or_else(|| self.scheme.behavior());
        let mut dram_config = match self.generation {
            DramGeneration::Ddr3 => DramConfig::paper_baseline(self.policy, behavior),
            DramGeneration::Ddr4 => DramConfig::ddr4_2400(self.policy, behavior),
        };
        dram_config.power.ecc_x72 = self.ecc_x72;
        dram_config.recovery = self.recovery;
        dram_config.liveness = self.liveness;
        if let Some(age) = self.escalation_age {
            dram_config.starvation_escalation_age = age;
        }
        dram_config
    }

    /// One generator per core, each over a disjoint 2 GB slice of the 8 GB
    /// physical space, modelling separate address spaces.
    fn generators(&self) -> Vec<Box<dyn InstructionSource>> {
        self.apps
            .iter()
            .enumerate()
            .map(|(core, spec)| {
                spec.source(
                    self.seed.wrapping_add(core as u64 * 0x1234_5678),
                    core_base(core),
                )
            })
            .collect()
    }

    /// Checks that every core's addresses fit the cache tags: a profile's
    /// slice from its core's base to the end of its footprint, a trace's
    /// addresses as recorded.
    fn check_addr_spans(&self, hierarchy: &HierarchyConfig) -> Result<(), SimError> {
        for (core, app) in self.apps.iter().enumerate() {
            let span = match app {
                AppSpec::Profile(p) => {
                    let footprint = p.footprint_lines.saturating_mul(mem_model::LINE_BYTES);
                    core_base(core).saturating_add(footprint)
                }
                AppSpec::Trace { trace, .. } => trace
                    .ops()
                    .iter()
                    .filter_map(|op| match op {
                        cpu_sim::Op::Load(a) | cpu_sim::Op::Store(a, _) => {
                            Some(a.raw().saturating_add(1))
                        }
                        cpu_sim::Op::Compute(_) => None,
                    })
                    .max()
                    .unwrap_or(0),
            };
            hierarchy
                .check_addr_span(span)
                .map_err(|source| SimError::AddressSpan { core, source })?;
        }
        Ok(())
    }

    /// Functional warm-up: plays each generator's prefix through the cache
    /// hierarchy so the LLC holds a steady-state mix of (dirty) lines.
    /// Writebacks produced during warm-up are dropped — no DRAM timing or
    /// energy is involved.
    fn warm_up(
        &self,
        hierarchy: &mut CacheHierarchy,
        generators: &mut [Box<dyn InstructionSource>],
    ) {
        let warmup = self.effective_warmup();
        let mut writebacks = Vec::new();
        for (core, generator) in generators.iter_mut().enumerate() {
            let mut mem_ops = 0;
            while mem_ops < warmup {
                let (addr, store) = match generator.next_op() {
                    cpu_sim::Op::Compute(_) => continue,
                    cpu_sim::Op::Load(a) => (a, None),
                    cpu_sim::Op::Store(a, mask) => (a, Some(mask)),
                };
                hierarchy.access_into(core, addr, store, &mut writebacks);
                writebacks.clear();
                mem_ops += 1;
            }
        }
    }

    /// The warmed hierarchy and generators a run starts from. With a
    /// `slot` whose image has this run's warm key, both are forked from the
    /// image; otherwise they are warmed up cold and, with a slot, captured
    /// as its new image.
    #[expect(
        clippy::expect_used,
        reason = "the image's generator states were saved from generators built from the same apps and seed, which the warm key covers"
    )]
    fn warmed(
        &self,
        hierarchy_config: HierarchyConfig,
        dram_view: DramView,
        slot: Option<&mut WarmSlot>,
    ) -> (CacheHierarchy, Vec<Box<dyn InstructionSource>>) {
        let _prof = sim_prof::span!("sim.warmup");
        let mut generators = self.generators();
        let cold = |generators: &mut [Box<dyn InstructionSource>]| {
            let mut hierarchy =
                CacheHierarchy::with_dram_view(hierarchy_config, dram_view.0, dram_view.1);
            self.warm_up(&mut hierarchy, generators);
            hierarchy
        };
        let Some(slot) = slot else {
            let hierarchy = cold(&mut generators);
            return (hierarchy, generators);
        };
        let key = self.warm_key();
        if let Some(image) = slot.image.as_ref().filter(|image| image.key == key) {
            let mut r = sim_snap::SnapReader::new(&image.generators);
            for generator in &mut generators {
                generator
                    .snap_load_state(&mut r)
                    .expect("generator state saved by this warm key");
            }
            return (fork_reusing(&image.hierarchy, &mut slot.spare), generators);
        }
        // Drop the old image first, so at most two hierarchies are live.
        slot.image = None;
        let hierarchy = cold(&mut generators);
        let mut w = sim_snap::SnapWriter::new();
        for generator in &generators {
            generator.snap_save_state(&mut w);
        }
        slot.image = Some(WarmImage {
            key,
            hierarchy: fork_reusing(&hierarchy, &mut slot.spare),
            generators: w.into_bytes(),
        });
        slot.warmups += 1;
        (hierarchy, generators)
    }

    /// The workload name the report carries: the [`name`](Self::name)
    /// override, else the app names joined with `+`.
    fn report_name(&self) -> String {
        self.name.clone().unwrap_or_else(|| {
            self.apps
                .iter()
                .map(AppSpec::name)
                .collect::<Vec<_>>()
                .join("+")
        })
    }

    /// FNV-1a digest over every knob that shapes simulated state or the
    /// report, including the seed and the report's workload name. It is
    /// stamped into snapshot headers so a restore into a
    /// differently-configured builder is rejected instead of silently
    /// diverging, and it is the one key of a run: campaign journals and
    /// checkpoint directories and the figure suite's report store use it.
    /// Output paths, trace sinks and the checkpoint knobs are excluded
    /// (they only observe, and a checkpointed or restored run ends on the
    /// uninterrupted run's state digest); the *effective* metrics epoch is
    /// included because epoch sealing mutates the serialised observer.
    pub fn config_digest(&self) -> u64 {
        let mut w = sim_snap::SnapWriter::new();
        w.section("pra-sim-config");
        w.u32(3); // digest layout version
        self.write_apps(&mut w);
        w.str(&self.report_name());
        w.str(self.scheme.name());
        w.str(&format!("{:?}", self.policy));
        w.u64(self.instructions);
        w.u64(self.seed);
        w.opt_u64(self.warmup_mem_ops);
        w.bool(self.scheme_override.is_some());
        if let Some(b) = &self.scheme_override {
            w.str(&format!("{b:?}"));
        }
        w.bool(self.prefetch_next_line);
        w.str(&format!("{:?}", self.generation));
        w.bool(self.ecc_x72);
        w.u64(self.effective_metrics_epoch());
        w.bool(self.power_telemetry);
        w.bool(self.faults.is_some());
        if let Some(p) = &self.faults {
            w.str(&format!("{p:?}"));
        }
        w.bool(self.recovery.is_some());
        if let Some(r) = &self.recovery {
            w.str(&format!("{r:?}"));
        }
        w.str(&format!("{:?}", self.liveness));
        w.opt_u64(self.escalation_age);
        sim_snap::codec::fnv1a_64(&w.into_bytes())
    }

    /// Builds the system and runs it to completion.
    ///
    /// # Panics
    ///
    /// Panics if no applications were added, the configuration or fault
    /// plan is inconsistent, a requested trace or metrics output file
    /// cannot be created or written, or the measured phase is too short
    /// to span one memory cycle ([`SimError::NoElapsedTime`]). Use
    /// [`SimBuilder::try_run`] to handle these as [`SimError`]s instead.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade; try_run is the fallible API"
    )]
    pub fn run(&self) -> Report {
        self.try_run().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Runs the simulation again, warmed up cold, and verifies that it ends
    /// on `first`'s [`Report::state_digest`], catching nondeterminism in
    /// the stack, in an attached fault plan or in the warm fork `first` may
    /// have started from.
    ///
    /// # Errors
    ///
    /// Any [`SimBuilder::try_run`] error, plus
    /// [`SimError::Nondeterministic`] with both digests on a mismatch.
    pub fn try_verify(&self, first: &Report) -> Result<(), SimError> {
        let (first, second) = (first.state_digest(), self.try_run()?.state_digest());
        if first != second {
            return Err(SimError::Nondeterministic { first, second });
        }
        Ok(())
    }

    /// Builds the system and runs it to completion.
    ///
    /// # Errors
    ///
    /// [`SimError::NoApplications`] when no applications were added,
    /// [`SimError::Config`]/[`SimError::FaultPlan`] on inconsistent inputs,
    /// [`SimError::Io`] when a trace or metrics output file cannot be
    /// created or written, and [`SimError::NoElapsedTime`] when the
    /// measured phase ends before one memory cycle (a handful of
    /// instructions per core).
    pub fn try_run(&self) -> Result<Report, SimError> {
        self.try_run_snap().map(|(report, _)| report)
    }

    /// [`Self::try_run`] plus the checkpoint/restore bookkeeping: how many
    /// snapshots the run wrote, the newest checkpoint cycle, and — when
    /// [`restore`](Self::restore) was requested — the cycle the run resumed
    /// from.
    ///
    /// # Errors
    ///
    /// Everything [`Self::try_run`] returns, plus
    /// [`SimError::CheckpointConfig`] when checkpointing is
    /// half-configured and [`SimError::Snapshot`] when the restore file is
    /// missing, torn, corrupt or from a differently-configured run.
    pub fn try_run_snap(&self) -> Result<(Report, SnapOutcome), SimError> {
        self.try_run_from(None)
    }

    /// [`Self::try_run_snap`], starting from `slot`'s warm image when its
    /// warm key matches this run's and replacing the image otherwise. The
    /// report is identical to [`Self::try_run_snap`]'s.
    ///
    /// # Errors
    ///
    /// Everything [`Self::try_run_snap`] returns.
    pub fn try_run_warm(&self, slot: &mut WarmSlot) -> Result<(Report, SnapOutcome), SimError> {
        self.try_run_from(Some(slot))
    }

    fn try_run_from(
        &self,
        mut slot: Option<&mut WarmSlot>,
    ) -> Result<(Report, SnapOutcome), SimError> {
        if self.apps.is_empty() {
            return Err(SimError::NoApplications);
        }
        let hierarchy_config = self.hierarchy_config();
        self.check_addr_spans(&hierarchy_config)?;
        if let Some(plan) = &self.faults {
            plan.validate()?;
        }
        match (self.checkpoint_every, &self.checkpoint_dir) {
            (0, Some(_)) => {
                return Err(SimError::CheckpointConfig(
                    "checkpoint_dir is set but checkpoint_every is 0: \
                     choose a checkpoint interval"
                        .to_string(),
                ))
            }
            (n, None) if n > 0 => {
                return Err(SimError::CheckpointConfig(
                    "checkpoint_every is set but no checkpoint_dir: \
                     choose a directory for the snapshots"
                        .to_string(),
                ))
            }
            _ => {}
        }
        let dram_config = self.dram_config();
        let dram_view = dram_view(&dram_config);
        let mut mem = MemorySystem::try_new(dram_config)?;
        mem.set_power_telemetry(self.power_telemetry);
        // A no-op plan attaches nothing: the injector-free fast path stays
        // bit-identical to a run without a plan.
        let fault_plan = self.faults.filter(|p| !p.is_noop());
        if let Some(plan) = &fault_plan {
            mem.set_fault_injector(plan.injector(Domain::Dram));
        }
        let (mut hierarchy, generators) =
            self.warmed(hierarchy_config, dram_view, slot.as_deref_mut());
        hierarchy.reset_stats();
        // Cache-side faults start with the measured phase, after warmup, so
        // warmup cache contents are identical with and without a plan.
        if let Some(plan) = &fault_plan {
            hierarchy.set_fault_injector(plan.injector(Domain::Cache));
        }
        let mut system = CpuSystem::new(
            SystemConfig::paper(),
            hierarchy,
            mem,
            generators,
            self.instructions,
        );
        // Kept so write failures during the run surface after it.
        let mut trace_file = None;
        if let Some(path) = &self.trace_out {
            let sink = sim_obs::JsonlSink::create(path).map_err(|e| SimError::Io {
                path: path.clone(),
                source: e,
            })?;
            // One shared sink so DRAM, cache and core events interleave in
            // emission order within a single JSONL stream.
            let shared = std::rc::Rc::new(std::cell::RefCell::new(sink));
            system
                .mem_mut()
                .set_trace_sink(Box::new(std::rc::Rc::clone(&shared)));
            system
                .hierarchy_mut()
                .set_trace_sink(Box::new(std::rc::Rc::clone(&shared)));
            system.set_trace_sink(Box::new(std::rc::Rc::clone(&shared)));
            trace_file = Some((path, shared));
        } else if let Some(ring) = &self.trace_ring {
            system.mem_mut().set_trace_sink(Box::new(Arc::clone(ring)));
            system
                .hierarchy_mut()
                .set_trace_sink(Box::new(Arc::clone(ring)));
            system.set_trace_sink(Box::new(Arc::clone(ring)));
        }
        let epoch = self.effective_metrics_epoch();
        if epoch > 0 {
            let out = match self.metrics_out.as_ref() {
                Some(path) => {
                    let file = std::fs::File::create(path).map_err(|e| SimError::Io {
                        path: path.clone(),
                        source: e,
                    })?;
                    Some(Box::new(std::io::BufWriter::new(file)) as Box<dyn std::io::Write>)
                }
                None => None,
            };
            system.mem_mut().set_metrics_epochs(epoch, out);
        }
        let mut snap = SnapOutcome::default();
        let digest = self.config_digest();
        if let Some(path) = &self.restore_from {
            let snap_err = |source| SimError::Snapshot {
                path: path.clone(),
                source,
            };
            let (header, payload) =
                sim_snap::read_snapshot(path, Some(digest)).map_err(snap_err)?;
            let mut r = sim_snap::SnapReader::new(&payload);
            system.snap_load(&mut r).map_err(snap_err)?;
            r.finish().map_err(snap_err)?;
            snap.restored_from_cycle = Some(header.cycle);
            let cycle = header.cycle;
            system
                .mem_mut()
                .observer_mut()
                .emit(|| sim_obs::TraceEvent::Restore { cycle });
        }
        let cap = self
            .instructions
            .saturating_mul(MAX_CPU_CYCLES_PER_INSTRUCTION)
            .max(MIN_CPU_CYCLE_CAP);
        let outcome = {
            let _prof = sim_prof::span!("sim.run");
            match &self.checkpoint_dir {
                Some(dir) => {
                    system.try_run_with_checkpoints(cap, self.checkpoint_every, |sys, cycle| {
                        let mut w = sim_snap::SnapWriter::new();
                        sys.snap_save(&mut w);
                        match sim_snap::write_snapshot(dir, digest, cycle, &w.into_bytes()) {
                            Ok(_) => {
                                let seq = snap.checkpoints_written as u32;
                                sys.mem_mut()
                                    .observer_mut()
                                    .emit(|| sim_obs::TraceEvent::Checkpoint { cycle, seq });
                                snap.checkpoints_written += 1;
                                snap.last_checkpoint_cycle = Some(cycle);
                            }
                            // Keep simulating: a failed write only widens
                            // the gap a later recovery replays.
                            Err(_) => snap.write_errors += 1,
                        }
                        true
                    })?
                }
                None => system.try_run(cap)?,
            }
        };
        if let Some((path, sink)) = &trace_file {
            let mut sink = sink.borrow_mut();
            sim_obs::TraceSink::flush(&mut *sink);
            if let Some(source) = sink.take_error() {
                return Err(SimError::Io {
                    path: path.to_path_buf(),
                    source,
                });
            }
        }
        let metrics_error = system.mem_mut().observer_mut().take_metrics_error();
        if let (Some(path), Some(source)) = (&self.metrics_out, metrics_error) {
            return Err(SimError::Io {
                path: path.clone(),
                source,
            });
        }

        if system.mem().elapsed_ns() <= 0.0 {
            return Err(SimError::NoElapsedTime {
                instructions: self.instructions,
            });
        }
        let report = Report {
            workload: self.report_name(),
            scheme: self
                .scheme_override
                .map_or_else(|| self.scheme.name().to_string(), |b| b.name.to_string()),
            ipc: outcome.per_core.iter().map(|r| r.ipc()).collect(),
            cpu_cycles: outcome.cpu_cycles,
            runtime_ns: system.mem().elapsed_ns(),
            energy: system.mem().energy(),
            power: system.mem().power(),
            dram: system.mem().stats().clone(),
            cache: system.hierarchy().stats().clone(),
            metrics: system.mem().observer().snapshots().to_vec(),
            faults: system
                .mem()
                .fault_counts()
                .merged(system.hierarchy().fault_counts()),
            recovery: system.mem().recovery_counts(),
            timed_out: outcome.timed_out,
        };
        if let Some(slot) = slot {
            slot.spare = Some(system.into_hierarchy());
        }
        Ok((report, snap))
    }
}

/// The DRAM geometry and address mapping the cache hierarchy's DBI groups
/// rows by.
type DramView = (mem_model::DramGeometry, mem_model::AddressMapping);

fn dram_view(config: &DramConfig) -> DramView {
    (config.geometry, config.mapping)
}

/// The base address of core `core`'s 2 GB slice.
fn core_base(core: usize) -> u64 {
    (core as u64) << 31
}

/// A functionally warmed hierarchy and the generator positions warm-up
/// left, for every run with the same warm key.
#[derive(Debug)]
struct WarmImage {
    key: u64,
    hierarchy: CacheHierarchy,
    /// Each generator's `snap_save_state`, core by core.
    generators: Vec<u8>,
}

/// Holds at most one functionally warmed cache image (the newest) and
/// counts the cold warm-ups it has seen. It also keeps the hierarchy of the
/// last run it served, whose buffers the next fork overwrites instead of
/// allocating new ones. See [`SimBuilder::try_run_warm`].
#[derive(Debug, Default)]
pub struct WarmSlot {
    image: Option<WarmImage>,
    spare: Option<CacheHierarchy>,
    pub(crate) warmups: usize,
}

impl WarmSlot {
    /// How many of the runs this slot served warmed their caches up from
    /// cold; the rest started from its image.
    pub fn warmups(&self) -> usize {
        self.warmups
    }
}

/// A fork of `hierarchy`, into the buffers of `spare` when there is one.
fn fork_reusing(hierarchy: &CacheHierarchy, spare: &mut Option<CacheHierarchy>) -> CacheHierarchy {
    match spare.take() {
        Some(mut spare) => {
            hierarchy.fork_into(&mut spare);
            spare
        }
        None => hierarchy.fork(),
    }
}

impl Default for SimBuilder {
    fn default() -> Self {
        SimBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_phase_shorter_than_a_memory_cycle_is_an_error() {
        let run = |instructions| {
            SimBuilder::new()
                .app(workloads::gups())
                .instructions(instructions)
                .warmup_mem_ops(100)
                .try_run()
        };
        for n in [0, 1, 2, 3, 4, 8] {
            match run(n) {
                Err(SimError::NoElapsedTime { instructions }) => assert_eq!(instructions, n),
                other => panic!("{n} instructions: expected NoElapsedTime, got {other:?}"),
            }
        }
        let report = run(16).expect("16 instructions span a memory cycle");
        assert!(report.runtime_ns > 0.0);
    }

    #[test]
    fn the_digest_covers_what_a_run_computes_and_nothing_it_only_writes() {
        let gups: Workload = "GUPS".parse().unwrap();
        let base = SimBuilder::new().workload(&gups, 1).scheme(Scheme::Pra);
        let plan = FaultPlan {
            mask_corrupt_rate: 0.5,
            ..FaultPlan::disabled()
        };
        let unnamed = |cores| SimBuilder::new().homogeneous(workloads::gups(), cores);
        // Checkpointing and output paths never change what a run computes
        // (a restored run ends on the uninterrupted state digest), so a
        // campaign resumed with another checkpoint cadence still skips its
        // completed runs. The name counts as the report carries it.
        for (knob, builder, moves) in [
            ("seed", base.clone().seed(2), true),
            ("scheme", base.clone().scheme(Scheme::Baseline), true),
            ("name", base.clone().name("GUPS-alone"), true),
            ("fault plan", base.clone().faults(plan), true),
            ("recovery", base.clone().recovery(Default::default()), true),
            ("watchdog", base.clone().liveness_watchdog(20, 0), true),
            ("GUPS+GUPS", unnamed(2).scheme(Scheme::Pra), true),
            (
                "checkpoint_every",
                base.clone().checkpoint_every(5_000),
                false,
            ),
            (
                "checkpoint_dir",
                base.clone().checkpoint_dir("snaps"),
                false,
            ),
            ("trace_out", base.clone().trace_out("trace.jsonl"), false),
            ("restore", base.clone().restore("snaps/snap-1.snap"), false),
            ("unnamed GUPS", unnamed(1).scheme(Scheme::Pra), false),
        ] {
            let moved = builder.config_digest() != base.config_digest();
            assert_eq!(moved, moves, "{knob}");
        }
        let two_cores = SimBuilder::new().workload(&gups, 2).config_digest();
        assert_eq!(unnamed(2).name("GUPS").config_digest(), two_cores);
    }

    fn quick(scheme: Scheme) -> Report {
        SimBuilder::new()
            .app(workloads::gups())
            .scheme(scheme)
            .instructions(20_000)
            .warmup_mem_ops(400_000)
            .run()
    }

    #[test]
    fn baseline_run_completes() {
        let r = quick(Scheme::Baseline);
        assert!(!r.timed_out, "20k instructions must fit the cycle cap");
        assert_eq!(r.ipc.len(), 1);
        assert!(r.ipc[0] > 0.0);
        assert!(r.power.total() > 0.0);
        assert!(r.dram.reads_completed > 0);
        assert!(r.dram.writes_completed > 0, "GUPS must generate writebacks");
    }

    #[test]
    fn pra_reduces_act_and_wr_io_power_on_gups() {
        let base = quick(Scheme::Baseline);
        let pra = quick(Scheme::Pra);
        assert!(
            pra.power.act_pre < base.power.act_pre,
            "PRA ACT power {} must undercut baseline {}",
            pra.power.act_pre,
            base.power.act_pre
        );
        assert!(
            pra.power.wr_io < base.power.wr_io,
            "PRA write I/O power {} must undercut baseline {}",
            pra.power.wr_io,
            base.power.wr_io
        );
        assert!(pra.power.total() < base.power.total());
    }

    #[test]
    fn pra_activation_histogram_is_mostly_partial_on_gups() {
        let pra = quick(Scheme::Pra);
        let props = pra.dram.granularity_proportions();
        assert!(
            props[0] > 0.2,
            "GUPS writes are single-word: 1/8 share {}",
            props[0]
        );
        assert!(
            props[7] > 0.2,
            "reads stay full-row: full share {}",
            props[7]
        );
    }

    #[test]
    fn dbi_pra_runs_and_uses_dbi() {
        let r = quick(Scheme::DbiPra);
        assert!(!r.timed_out);
        assert_eq!(r.scheme, "DBI+PRA");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let a = quick(Scheme::Baseline);
        let b = quick(Scheme::Baseline);
        assert_eq!(a.cpu_cycles, b.cpu_cycles);
        assert_eq!(a.dram.activations, b.dram.activations);
        assert!((a.energy.total() - b.energy.total()).abs() < 1e-6);
    }

    #[test]
    fn four_core_mix_runs() {
        let mixes = workloads::all_mixes();
        let r = SimBuilder::new()
            .mix(mixes[0].apps)
            .name("MIX1")
            .scheme(Scheme::Pra)
            .instructions(5_000)
            .warmup_mem_ops(30_000)
            .run();
        assert!(!r.timed_out);
        assert_eq!(r.ipc.len(), 4);
        assert_eq!(r.workload, "MIX1");
    }

    #[test]
    fn prefetcher_raises_hit_rate_on_streaming_workloads() {
        let run = |prefetch: bool| {
            SimBuilder::new()
                .app(workloads::libquantum())
                .scheme(Scheme::Baseline)
                .instructions(20_000)
                .warmup_mem_ops(100_000)
                .prefetch_next_line(prefetch)
                .run()
        };
        let without = run(false);
        let with = run(true);
        assert!(with.cache.prefetches > 0);
        assert_eq!(without.cache.prefetches, 0);
        // Prefetching converts sequential demand misses into L2 hits...
        let l2_hit_rate = |r: &Report| {
            r.cache.l2_hits as f64 / (r.cache.l2_hits + r.cache.l2_misses).max(1) as f64
        };
        assert!(
            l2_hit_rate(&with) > l2_hit_rate(&without),
            "prefetch L2 hit rate {:.3} vs {:.3}",
            l2_hit_rate(&with),
            l2_hit_rate(&without)
        );
        // ...at the cost of extra DRAM reads (the classic coverage/accuracy
        // trade-off; on this bandwidth-bound stream it is not a net win,
        // which is why the feature defaults to off).
        assert!(with.dram.reads_completed > without.dram.reads_completed / 2);
    }

    #[test]
    fn ecc_dimm_costs_power_but_keeps_pra_saving() {
        let run = |scheme: Scheme, ecc: bool| {
            SimBuilder::new()
                .app(workloads::gups())
                .scheme(scheme)
                .ecc_x72(ecc)
                .instructions(15_000)
                .warmup_mem_ops(300_000)
                .run()
        };
        let plain = run(Scheme::Pra, false);
        let ecc = run(Scheme::Pra, true);
        assert!(
            ecc.power.total() > plain.power.total(),
            "the ninth chip is not free"
        );
        // PRA still wins on the ECC DIMM.
        let ecc_base = run(Scheme::Baseline, true);
        assert!(ecc.power.total() < ecc_base.power.total());
        // Timing is identical: ECC costs energy, not cycles.
        assert_eq!(ecc.cpu_cycles, plain.cpu_cycles);
    }

    #[test]
    fn ddr4_system_runs_and_pra_still_saves() {
        let run = |scheme: Scheme| {
            SimBuilder::new()
                .app(workloads::gups())
                .scheme(scheme)
                .dram_generation(DramGeneration::Ddr4)
                .instructions(15_000)
                .warmup_mem_ops(300_000)
                .run()
        };
        let base = run(Scheme::Baseline);
        let pra = run(Scheme::Pra);
        assert!(!base.timed_out && !pra.timed_out);
        assert!(base.dram.writes_completed > 0);
        assert!(
            pra.power.act_pre < base.power.act_pre,
            "PRA activation saving carries over to DDR4: {} vs {}",
            pra.power.act_pre,
            base.power.act_pre
        );
        assert!(pra.power.total() < base.power.total());
    }

    #[test]
    fn trace_driven_run_matches_generator_run() {
        // Record enough GUPS ops to cover warmup + the measured phase, so
        // the trace replay never wraps and both runs see identical streams.
        let mut generator = workloads::WorkloadGen::new(workloads::gups(), 1, 0);
        let trace = workloads::Trace::record(&mut generator, 500_000);
        let by_trace = SimBuilder::new()
            .app_trace("GUPS-trace", trace)
            .scheme(Scheme::Pra)
            .instructions(10_000)
            .warmup_mem_ops(100_000)
            .run();
        let by_generator = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(10_000)
            .warmup_mem_ops(100_000)
            .run();
        assert_eq!(by_trace.cpu_cycles, by_generator.cpu_cycles);
        assert_eq!(by_trace.dram.activations, by_generator.dram.activations);
        assert_eq!(by_trace.workload, "GUPS-trace");
    }

    #[test]
    fn trace_and_metrics_files_reconcile_with_the_report() {
        let dir = std::env::temp_dir();
        let trace = dir.join("pra_sim_builder_trace_test.jsonl");
        let metrics = dir.join("pra_sim_builder_metrics_test.jsonl");
        let r = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(10_000)
            .warmup_mem_ops(100_000)
            .trace_out(&trace)
            .metrics_out(&metrics)
            .metrics_epoch(10_000)
            .run();
        let text = std::fs::read_to_string(&trace).unwrap();
        let (mut acts, mut partial, mut reads) = (0u64, 0u64, 0u64);
        for line in text.lines() {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "malformed JSONL: {line}"
            );
            if line.contains("\"kind\":\"ACT\"") {
                acts += 1;
            }
            if line.contains("\"kind\":\"PARTIAL_ACT\"") {
                partial += 1;
            }
            if line.contains("\"kind\":\"RD\"") {
                reads += 1;
            }
        }
        assert_eq!(
            acts + partial,
            r.dram.activations,
            "trace must mirror DramStats"
        );
        assert_eq!(reads, r.dram.reads_completed);
        assert!(partial > 0, "a PRA run on GUPS must partially activate");
        // Epoch snapshots reach both the report and the metrics file, and
        // their deltas sum back to the end-of-run aggregate.
        assert!(!r.metrics.is_empty());
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert_eq!(m.lines().count(), r.metrics.len());
        let delta_sum: u64 = r
            .metrics
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(name, _)| name == "dram.activations")
            .map(|(_, delta)| *delta)
            .sum();
        assert_eq!(delta_sum, r.dram.activations);
        let _ = std::fs::remove_file(&trace);
        let _ = std::fs::remove_file(&metrics);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn trace_and_metrics_write_failures_are_errors() {
        // /dev/full opens fine and fails every write with ENOSPC.
        let base = || {
            SimBuilder::new()
                .app(workloads::gups())
                .scheme(Scheme::Pra)
                .instructions(3_000)
                .warmup_mem_ops(1_000)
        };
        for (what, builder) in [
            ("trace", base().trace_out("/dev/full")),
            (
                "metrics",
                base().metrics_out("/dev/full").metrics_epoch(1_000),
            ),
        ] {
            match builder.try_run() {
                Err(SimError::Io { path, source }) => {
                    assert_eq!(path, PathBuf::from("/dev/full"), "{what}");
                    assert_eq!(source.kind(), std::io::ErrorKind::StorageFull, "{what}");
                }
                other => panic!("{what} to /dev/full: expected SimError::Io, got {other:?}"),
            }
        }
    }

    #[test]
    fn ring_sink_records_and_counts_drops() {
        let run = |ring: Option<Arc<Mutex<sim_obs::RingSink>>>| {
            let mut b = SimBuilder::new()
                .app(workloads::gups())
                .scheme(Scheme::Pra)
                .instructions(10_000)
                .warmup_mem_ops(100_000);
            if let Some(r) = ring {
                b = b.trace_ring(r);
            }
            b.run()
        };
        let ring = Arc::new(Mutex::new(sim_obs::RingSink::new(64)));
        let recorded = run(Some(Arc::clone(&ring)));
        let plain = run(None);
        {
            let ring = ring.lock().unwrap();
            assert!(ring.total_emitted() > 64, "a PRA run emits many events");
            assert_eq!(
                ring.dropped(),
                ring.total_emitted() - 64,
                "everything beyond capacity is dropped"
            );
            assert_eq!(ring.events().count(), 64);
        }
        assert_eq!(
            recorded.state_digest(),
            plain.state_digest(),
            "the flight recorder must not perturb the simulation"
        );
    }

    #[test]
    fn profiling_does_not_perturb_simulation_state() {
        let base = quick(Scheme::Pra);
        sim_prof::reset();
        sim_prof::enable();
        let profiled = quick(Scheme::Pra);
        sim_prof::disable();
        let report = sim_prof::take_report();
        for span in ["sim.warmup", "sim.run"] {
            assert!(
                report.spans.iter().any(|s| s.name == span),
                "expected span {span} in {:?}",
                report.spans
            );
        }
        assert_eq!(
            profiled.state_digest(),
            base.state_digest(),
            "profiling on/off must leave simulation state untouched"
        );
    }

    #[test]
    fn liveness_watchdog_surfaces_as_sim_error() {
        // A 20-cycle no-retire bound is tighter than a single read's
        // latency, so any memory-bound run must trip it.
        let err = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Baseline)
            .instructions(5_000)
            .warmup_mem_ops(10_000)
            .liveness_watchdog(20, 0)
            .try_run()
            .unwrap_err();
        match err {
            SimError::Liveness(e) => {
                assert!(e.to_string().contains("no request retired"), "{e}");
            }
            other => panic!("expected SimError::Liveness, got {other}"),
        }
    }

    #[test]
    fn recovery_without_faults_leaves_the_run_bit_identical() {
        let base = quick(Scheme::Pra);
        let recovered = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(20_000)
            .warmup_mem_ops(400_000)
            .recovery(dram_sim::RecoveryConfig::default())
            .run();
        assert_eq!(recovered.recovery, dram_sim::RecoveryCounts::default());
        // The recovery field itself differs only by being present in both
        // reports (all zero), so the digests must match exactly.
        assert_eq!(base.state_digest(), recovered.state_digest());
    }

    #[test]
    fn recovery_under_faults_engages_and_stays_deterministic() {
        let plan = FaultPlan {
            seed: 5,
            command_drop_rate: 0.05,
            mask_corrupt_rate: 0.2,
            persistent_rate: 0.1,
            transient_burst_len: 2,
            ..FaultPlan::disabled()
        };
        let builder = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(20_000)
            .warmup_mem_ops(400_000)
            .faults(plan)
            .recovery(dram_sim::RecoveryConfig::default());
        let report = builder.try_run().unwrap();
        builder.try_verify(&report).expect("deterministic");
        assert!(report.recovery.engaged(), "faults must raise alerts");
        assert!(report.recovery.recovered > 0, "transients must recover");
        assert_eq!(
            report.recovery.retries + report.recovery.exhausted,
            report.recovery.alerts,
            "every alert is replayed or exhausted"
        );
        assert!(!report.timed_out);
    }

    #[test]
    fn power_telemetry_toggle_preserves_state_digest() {
        // Without epochs nothing is ever published, so the *full* digest —
        // stats, energy, cache, metrics — must match exactly.
        let run = |telemetry: bool, epoch: u64| {
            let mut b = SimBuilder::new()
                .app(workloads::gups())
                .scheme(Scheme::Pra)
                .instructions(15_000)
                .warmup_mem_ops(200_000)
                .power_telemetry(telemetry);
            if epoch > 0 {
                b = b.metrics_epoch(epoch);
            }
            b.run()
        };
        let on = run(true, 0);
        let off = run(false, 0);
        assert_eq!(
            on.state_digest(),
            off.state_digest(),
            "telemetry must not perturb the simulation"
        );
        // With epochs on, telemetry adds `energy.*`/`power.*` rows to the
        // snapshots; everything *outside* the metrics field still digests
        // identically.
        let on = run(true, 10_000);
        let off = run(false, 10_000);
        let strip = |r: &Report| {
            let mut r = r.clone();
            r.metrics.clear();
            r.state_digest()
        };
        assert_eq!(strip(&on), strip(&off));
        let has_power = |r: &Report| {
            r.metrics
                .iter()
                .any(|s| s.counters.iter().any(|(n, _)| n.starts_with("energy.")))
        };
        assert!(has_power(&on), "telemetry on must publish energy counters");
        assert!(!has_power(&off), "telemetry off must publish none");
    }

    #[test]
    fn power_streaming_counters_match_post_hoc_energy() {
        // Satellite: streaming `energy.*` epoch deltas sum back to the
        // post-hoc EnergyBreakdown field-by-field, on the paper 1-channel
        // config and on MIX1 (run release CI under PRA_VERIFY_PROTOCOL=1).
        let check = |report: &Report| {
            let streamed = |name: &str| -> u64 {
                report
                    .metrics
                    .iter()
                    .flat_map(|s| s.counters.iter())
                    .filter(|(n, _)| n == name)
                    .map(|&(_, v)| v)
                    .sum()
            };
            let e = &report.energy;
            let fields = [
                ("energy.act_pre_pj", e.act_pre),
                ("energy.rd_pj", e.rd),
                ("energy.wr_pj", e.wr),
                ("energy.rd_io_pj", e.rd_io),
                ("energy.wr_io_pj", e.wr_io),
                ("energy.bg_pj", e.bg),
                ("energy.refresh_pj", e.refresh),
                ("energy.total_pj", e.total()),
            ];
            for (name, exact) in fields {
                assert_eq!(
                    streamed(name),
                    exact.round() as u64,
                    "{name} must reconcile with the post-hoc breakdown ({})",
                    report.workload
                );
            }
        };
        let paper = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(15_000)
            .warmup_mem_ops(200_000)
            .metrics_epoch(10_000)
            .run();
        check(&paper);
        let mix1 = SimBuilder::new()
            .mix(workloads::all_mixes()[0].apps)
            .name("MIX1")
            .scheme(Scheme::Pra)
            .instructions(4_000)
            .warmup_mem_ops(30_000)
            .metrics_epoch(10_000)
            .run();
        check(&mix1);
    }

    #[test]
    fn power_residency_counters_cover_every_rank() {
        let r = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Baseline)
            .instructions(10_000)
            .warmup_mem_ops(100_000)
            .metrics_epoch(20_000)
            .run();
        let ranks = 4; // paper baseline: 2 channels x 2 ranks
        for rank in 0..ranks {
            for state in ["act_stby", "pre_stby", "pdn"] {
                let name = format!("power.residency.r{rank}.{state}");
                let total: u64 = r
                    .metrics
                    .iter()
                    .flat_map(|s| s.counters.iter())
                    .filter(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .sum();
                if state == "act_stby" {
                    assert!(total > 0, "{name} must accrue cycles");
                }
            }
        }
        // Residency across all states and ranks conserves total cycles:
        // mem cycles x ranks (runtime_ns / tCK, DDR3-1600 tCK = 1.25 ns).
        let all_states: u64 = r
            .metrics
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(n, _)| n.starts_with("power.residency.") && !n.ends_with(".bank_open"))
            .map(|&(_, v)| v)
            .sum();
        let cycles = (r.runtime_ns / 1.25).round() as u64;
        assert_eq!(all_states, cycles * ranks);
    }

    fn snap_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("pra-snap-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_restore_digest_identity_across_schemes_faults_recovery() {
        // The correctness contract of the checkpoint subsystem: a run
        // checkpointed at cycle C and restored from that snapshot finishes
        // with a state digest bit-identical to the uninterrupted run —
        // across every scheme x fault-plan x recovery combination.
        let chaos = FaultPlan {
            seed: 0xC0FFEE,
            mask_corrupt_rate: 0.05,
            command_drop_rate: 0.02,
            command_stretch_rate: 0.05,
            command_stretch_cycles: 2,
            ..FaultPlan::disabled()
        };
        // Without the recovery pipeline, dropped commands would strand
        // requests; corrupt masks alone degrade but always complete.
        let mild = FaultPlan {
            seed: 0xC0FFEE,
            mask_corrupt_rate: 0.05,
            ..FaultPlan::disabled()
        };
        for scheme in [Scheme::Baseline, Scheme::Pra, Scheme::DbiPra] {
            for faulty in [false, true] {
                for recovery in [false, true] {
                    let tag = format!("{scheme:?}-faults{faulty}-rec{recovery}");
                    let dir = snap_dir(&tag);
                    let build = || {
                        let mut b = SimBuilder::new()
                            .app(workloads::gups())
                            .scheme(scheme)
                            .instructions(8_000)
                            .warmup_mem_ops(100_000);
                        if faulty {
                            b = b.faults(if recovery { chaos } else { mild });
                        }
                        if recovery {
                            b = b.recovery(dram_sim::RecoveryConfig::default());
                        }
                        b
                    };
                    let reference = build().try_run().unwrap();
                    let (checkpointed, snap) = build()
                        .checkpoint_every(2_000)
                        .checkpoint_dir(&dir)
                        .try_run_snap()
                        .unwrap();
                    assert!(
                        snap.checkpoints_written > 0,
                        "{tag}: expected at least one checkpoint"
                    );
                    assert_eq!(snap.write_errors, 0, "{tag}");
                    assert_eq!(
                        reference.state_digest(),
                        checkpointed.state_digest(),
                        "{tag}: writing checkpoints perturbed the run"
                    );
                    // Resume from the oldest snapshot — the longest replay
                    // span, so any drift has maximal room to show.
                    let mut files: Vec<_> = std::fs::read_dir(&dir)
                        .unwrap()
                        .map(|e| e.unwrap().path())
                        .collect();
                    files.sort();
                    let (resumed, rsnap) = build().restore(&files[0]).try_run_snap().unwrap();
                    assert!(rsnap.restored_from_cycle.unwrap() > 0, "{tag}");
                    assert_eq!(
                        reference.state_digest(),
                        resumed.state_digest(),
                        "{tag}: restored run diverged from the uninterrupted one"
                    );
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }

    #[test]
    fn torn_snapshot_is_rejected_and_older_one_restores() {
        let dir = snap_dir("torn");
        let builder = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(8_000)
            .warmup_mem_ops(100_000);
        let reference = builder.clone().try_run().unwrap();
        let (_, snap) = builder
            .clone()
            .checkpoint_every(1_000)
            .checkpoint_dir(&dir)
            .try_run_snap()
            .unwrap();
        assert!(snap.checkpoints_written >= 2, "need two checkpoints");
        let mut files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        files.sort();
        let newest = files.last().unwrap().clone();
        // Truncate the newest snapshot, simulating a kill mid-write that
        // beat the atomic rename discipline (e.g. a torn copy).
        let bytes = std::fs::read(&newest).unwrap();
        std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        // A direct restore of the torn file fails loudly...
        let err = builder.clone().restore(&newest).try_run().unwrap_err();
        assert!(
            matches!(err, SimError::Snapshot { .. }),
            "expected SimError::Snapshot, got {err}"
        );
        // ...while the discovery path skips it and falls back to the
        // next-older checkpoint, which restores to the identical digest.
        let found = sim_snap::latest_valid(&dir, Some(builder.config_digest()))
            .unwrap()
            .expect("an older valid checkpoint must remain");
        assert_eq!(found.skipped, 1, "exactly the torn file is skipped");
        assert_ne!(found.path, newest);
        let resumed = builder.clone().restore(&found.path).try_run().unwrap();
        assert_eq!(reference.state_digest(), resumed.state_digest());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restore_rejects_mismatched_configuration() {
        let dir = snap_dir("mismatch");
        let pra = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Pra)
            .instructions(6_000)
            .warmup_mem_ops(60_000);
        let (_, snap) = pra
            .clone()
            .checkpoint_every(500)
            .checkpoint_dir(&dir)
            .try_run_snap()
            .unwrap();
        assert!(snap.checkpoints_written > 0);
        let file = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .next()
            .unwrap();
        // Same workload, different scheme: the config digest must refuse.
        let err = SimBuilder::new()
            .app(workloads::gups())
            .scheme(Scheme::Baseline)
            .instructions(6_000)
            .warmup_mem_ops(60_000)
            .restore(&file)
            .try_run()
            .unwrap_err();
        match err {
            SimError::Snapshot { source, .. } => {
                assert!(
                    matches!(source, sim_snap::SnapError::ConfigDigest { .. }),
                    "expected a config-digest rejection, got {source}"
                );
            }
            other => panic!("expected SimError::Snapshot, got {other}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn half_configured_checkpointing_is_rejected() {
        let base = || SimBuilder::new().app(workloads::gups()).instructions(1_000);
        let err = base().checkpoint_every(2_000).try_run().unwrap_err();
        assert!(
            matches!(&err, SimError::CheckpointConfig(m) if m.contains("checkpoint_dir")),
            "{err}"
        );
        let err = base()
            .checkpoint_dir(std::env::temp_dir())
            .try_run()
            .unwrap_err();
        assert!(
            matches!(&err, SimError::CheckpointConfig(m) if m.contains("checkpoint_every")),
            "{err}"
        );
    }

    #[test]
    fn address_spans_past_the_cache_tags_are_rejected() {
        // Core 0's slice ends exactly at the L1 tags' 2^45-byte limit;
        // core 1's starts 2 GB higher.
        let wide = BenchProfile {
            footprint_lines: (1 << 45) / mem_model::LINE_BYTES,
            ..workloads::gups()
        };
        let err = SimBuilder::new()
            .homogeneous(wide, 2)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::AddressSpan { core: 1, source }
                if source.span == (1 << 45) + (1 << 31) && source.limit == 1 << 45),
            "{err}"
        );
        // A trace recorded above the limit is rejected the same way.
        let mut high = WorkloadGen::new(workloads::gups(), 1, 1 << 45);
        let trace = Trace::record(&mut high, 100);
        let err = SimBuilder::new()
            .app_trace("high", trace)
            .try_run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::AddressSpan { core: 0, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("limit of the cache tags"), "{err}");
    }

    #[test]
    #[should_panic(expected = "empty trace")]
    fn empty_trace_rejected() {
        let _ = SimBuilder::new().app_trace("empty", workloads::Trace::new());
    }

    #[test]
    #[should_panic(expected = "at least one application")]
    fn empty_builder_rejected() {
        let _ = SimBuilder::new().run();
    }
}
