//! The memory-system facade: channels, global clock, stats and energy.

use core::fmt;
use std::io::Write;

use dram_power::{EnergyAccounting, EnergyBreakdown, PowerBreakdown, PowerRail, ResidencyLedger};
use mem_model::{MemRequest, RequestId};
use sim_fault::{FaultCounts, FaultInjector};
use sim_obs::{Observer, TraceEvent, TraceSink};

use crate::channel::Channel;
use crate::config::{ConfigError, DramConfig};
use crate::liveness::{
    LivenessError, LivenessKind, RequestTrail, TickError, STARVATION_SCAN_INTERVAL,
};
use crate::obs::DramObs;
use crate::stats::DramStats;

/// Error returned when a request cannot be accepted because its channel's
/// queue is full. The caller should retry on a later cycle (this is the
/// back-pressure path that stalls the cache hierarchy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFull {
    /// Channel whose queue was full.
    pub channel: u32,
}

impl fmt::Display for QueueFull {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "request queue of channel {} is full", self.channel)
    }
}

impl std::error::Error for QueueFull {}

/// A cycle-level DDR3 memory system.
///
/// Drive it by interleaving [`MemorySystem::try_enqueue`] and
/// [`MemorySystem::tick`]; each tick advances one memory-clock cycle
/// (1.25 ns at DDR3-1600) and reports the reads whose data completed.
///
/// # Example
///
/// ```
/// use dram_sim::{DramConfig, MemorySystem, PagePolicy, SchemeBehavior};
/// use mem_model::{MemRequest, PhysAddr};
///
/// let cfg = DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
/// let mut mem = MemorySystem::new(cfg);
/// mem.try_enqueue(MemRequest::read(1, PhysAddr::new(0x4000)))?;
/// let done = mem.run_until_idle(10_000);
/// assert!(done, "a lone read finishes in well under 10k cycles");
/// assert_eq!(mem.stats().reads_completed, 1);
/// # Ok::<(), dram_sim::QueueFull>(())
/// ```
#[derive(Debug)]
pub struct MemorySystem {
    config: DramConfig,
    channels: Vec<Channel>,
    cycle: u64,
    stats: DramStats,
    energy: EnergyAccounting,
    completed_scratch: Vec<RequestId>,
    obs: DramObs,
    /// Streaming energy→power window converter, closed at every epoch
    /// boundary and at finish.
    power_rail: PowerRail,
    faults: Option<FaultInjector>,
    /// Cycle at which a request last retired (or the queues last drained);
    /// drives the no-retire liveness watchdog.
    last_progress_cycle: u64,
    /// reads+writes completed as of `last_progress_cycle`.
    last_completed_total: u64,
}

impl MemorySystem {
    /// Builds a memory system from a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is inconsistent; use
    /// [`MemorySystem::try_new`] to handle the error instead.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade; try_new is the fallible API"
    )]
    pub fn new(config: DramConfig) -> Self {
        Self::try_new(config).unwrap_or_else(|e| panic!("invalid DRAM configuration: {e}"))
    }

    /// Builds a memory system, validating the configuration first.
    ///
    /// # Errors
    ///
    /// Returns the [`ConfigError`] describing the first inconsistency found
    /// by [`DramConfig::validate`].
    pub fn try_new(config: DramConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let channels = (0..config.geometry.channels)
            .map(|i| Channel::new(&config, i))
            .collect();
        let total_ranks = config.geometry.channels * config.geometry.ranks_per_channel;
        let energy = EnergyAccounting::new(config.power, total_ranks);
        Ok(MemorySystem {
            channels,
            cycle: 0,
            stats: DramStats::default(),
            energy,
            completed_scratch: Vec::new(),
            obs: DramObs::new(),
            power_rail: PowerRail::new(),
            faults: None,
            last_progress_cycle: 0,
            last_completed_total: 0,
            config,
        })
    }

    /// Attaches a fault injector (see [`sim_fault`]); every channel consults
    /// it on command issue and refresh scheduling. Without one (the
    /// default), no fault branches are taken and behaviour is bit-identical
    /// to a build without fault support.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = Some(injector);
    }

    /// Fault-event counters accumulated by the attached injector (zero when
    /// no injector is attached).
    pub fn fault_counts(&self) -> FaultCounts {
        self.faults
            .as_ref()
            .map(FaultInjector::counts)
            .unwrap_or_default()
    }

    /// Recovery-pipeline counters aggregated over every channel's engine
    /// (all zero when [`DramConfig::recovery`] is `None`).
    pub fn recovery_counts(&self) -> sim_recover::RecoveryCounts {
        self.channels
            .iter()
            .map(Channel::recovery_counts)
            .fold(sim_recover::RecoveryCounts::default(), |a, b| a.merged(b))
    }

    /// Attaches a trace sink; every subsequent DRAM command, power
    /// transition and read completion is emitted as a [`sim_obs::TraceEvent`]
    /// stamped with the memory cycle. Pass a `NullSink` (or never call
    /// this) to keep tracing disabled at zero cost.
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.obs.obs.set_sink(sink);
    }

    /// Enables epoch metric snapshots: every `cycles` memory cycles the
    /// registry's counters and histograms are captured as a delta record
    /// (written to `out` as JSONL when provided, and retained in memory
    /// either way). `cycles == 0` disables snapshots.
    pub fn set_metrics_epochs(&mut self, cycles: u64, out: Option<Box<dyn Write>>) {
        self.obs.obs.set_epochs(cycles, out);
    }

    /// The observability layer: metrics registry, epoch snapshots, sink.
    pub fn observer(&self) -> &Observer {
        &self.obs.obs
    }

    /// Mutable observer access, used by outer simulation layers (caches,
    /// cores) to register and publish their own metrics into the shared
    /// registry so epoch snapshots cover the whole stack.
    pub fn observer_mut(&mut self) -> &mut Observer {
        &mut self.obs.obs
    }

    /// Whether the next [`MemorySystem::tick`] will close a metrics epoch.
    /// Outer layers that mirror counters into the registry should publish
    /// when this is true, just before ticking, so the closing snapshot sees
    /// fresh values.
    pub fn epoch_closes_next_tick(&self) -> bool {
        self.obs.obs.epoch_due(self.cycle.saturating_add(1))
    }

    /// Publishes final counter values into the registry, closes the last
    /// partial epoch and flushes the sink and metrics writer. Call once
    /// when the simulation ends; safe to call when observability is off.
    pub fn finish_observability(&mut self) {
        self.stats.publish_to(&mut self.obs.obs.registry);
        if let Some(f) = &self.faults {
            f.publish_to(&mut self.obs.obs.registry, "fault");
        }
        if self.config.recovery.is_some() {
            self.recovery_counts()
                .publish_to(&mut self.obs.obs.registry);
        }
        self.publish_power_telemetry();
        self.obs.obs.finish(self.cycle);
    }

    /// Enables or disables live power telemetry (on by default). When off,
    /// per-bank residency tracking and `energy.*`/`power.*` epoch
    /// publication are skipped entirely, leaving the registry and trace
    /// stream exactly as they were before this layer existed.
    pub fn set_power_telemetry(&mut self, enabled: bool) {
        self.obs.power_telemetry = enabled;
    }

    /// The per-rank power-state residency ledger (global channel-major rank
    /// indices).
    pub fn residency(&self) -> &ResidencyLedger {
        self.energy.residency()
    }

    /// Closes the current power window and publishes energy counters, power
    /// gauges, residency counters and `PowerEpoch`/`PowerRank` trace events.
    /// No-op when telemetry is off or no time elapsed since the last close
    /// (e.g. `finish_observability` right after an epoch boundary).
    fn publish_power_telemetry(&mut self) {
        if !self.obs.power_telemetry {
            return;
        }
        let elapsed = self.elapsed_ns();
        if elapsed <= self.power_rail.elapsed_ns() {
            return;
        }
        let cycle = self.cycle;
        let epoch = self.obs.obs.epoch_index();
        let total = self.energy.breakdown();
        let (delta, power) = self.power_rail.close_window(total, elapsed);
        let act_by_mats = *self.energy.act_energy_by_mats();
        let p = self.energy.params();
        let state_mw = [p.act_stby_mw, p.pre_stby_mw, p.pre_pdn_mw];
        let residency: Vec<([u64; 3], u64)> = self
            .energy
            .residency()
            .ranks()
            .iter()
            .map(|r| (r.state_cycles, r.open_bank_cycles()))
            .collect();
        let rank_windows = self.energy.residency_window();

        let reg = &mut self.obs.obs.registry;
        // Cumulative energy, rounded to whole pJ. Rounding a nondecreasing
        // f64 keeps the counter monotonic.
        let id = reg.counter("energy.act_pre_pj");
        reg.set_counter(id, total.act_pre.round() as u64);
        let id = reg.counter("energy.rd_pj");
        reg.set_counter(id, total.rd.round() as u64);
        let id = reg.counter("energy.wr_pj");
        reg.set_counter(id, total.wr.round() as u64);
        let id = reg.counter("energy.rd_io_pj");
        reg.set_counter(id, total.rd_io.round() as u64);
        let id = reg.counter("energy.wr_io_pj");
        reg.set_counter(id, total.wr_io.round() as u64);
        let id = reg.counter("energy.bg_pj");
        reg.set_counter(id, total.bg.round() as u64);
        let id = reg.counter("energy.refresh_pj");
        reg.set_counter(id, total.refresh.round() as u64);
        let id = reg.counter("energy.total_pj");
        reg.set_counter(id, total.total().round() as u64);
        // Per-granularity activation energy; registered lazily so runs
        // that never activate at a given MAT count stay free of its row.
        for (m, pj) in act_by_mats.iter().enumerate() {
            if *pj > 0.0 {
                let name = format!("energy.act.mats{:02}_pj", m + 1);
                let id = reg.counter(&name);
                reg.set_counter(id, pj.round() as u64);
            }
        }
        // Epoch-average power rails (mW over the window just closed).
        let id = reg.gauge("power.act_pre_mw");
        reg.set_gauge(id, power.act_pre);
        let id = reg.gauge("power.rd_mw");
        reg.set_gauge(id, power.rd);
        let id = reg.gauge("power.wr_mw");
        reg.set_gauge(id, power.wr);
        let id = reg.gauge("power.rd_io_mw");
        reg.set_gauge(id, power.rd_io);
        let id = reg.gauge("power.wr_io_mw");
        reg.set_gauge(id, power.wr_io);
        let id = reg.gauge("power.bg_mw");
        reg.set_gauge(id, power.bg);
        let id = reg.gauge("power.refresh_mw");
        reg.set_gauge(id, power.refresh);
        let id = reg.gauge("power.total_mw");
        reg.set_gauge(id, power.total());
        // Cumulative per-rank residency counters.
        for (r, (states, bank_open)) in residency.iter().enumerate() {
            for (s, label) in ResidencyLedger::state_labels().iter().enumerate() {
                let name = format!("power.residency.r{r}.{label}");
                let id = reg.counter(&name);
                reg.set_counter(id, states[s]);
            }
            let name = format!("power.residency.r{r}.bank_open");
            let id = reg.counter(&name);
            reg.set_counter(id, *bank_open);
        }

        self.obs.obs.emit(|| TraceEvent::PowerEpoch {
            cycle,
            epoch: epoch as u32,
            act_pre_pj: delta.act_pre.round() as u64,
            rd_pj: delta.rd.round() as u64,
            wr_pj: delta.wr.round() as u64,
            rd_io_pj: delta.rd_io.round() as u64,
            wr_io_pj: delta.wr_io.round() as u64,
            bg_pj: delta.bg.round() as u64,
            refresh_pj: delta.refresh.round() as u64,
            total_uw: (power.total() * 1000.0).round() as u64,
        });
        let tck_ns = self.config.power.timings.tck_ns;
        for (r, d) in rank_windows.iter().enumerate() {
            let window_cycles = d[0] + d[1] + d[2];
            let bg_uw = if window_cycles > 0 {
                let bg_pj = (d[0] as f64 * state_mw[0]
                    + d[1] as f64 * state_mw[1]
                    + d[2] as f64 * state_mw[2])
                    * tck_ns;
                (bg_pj / (window_cycles as f64 * tck_ns) * 1000.0).round() as u64
            } else {
                0
            };
            self.obs.obs.emit(|| TraceEvent::PowerRank {
                cycle,
                rank: r as u8,
                act_stby: d[0],
                pre_stby: d[1],
                pdn: d[2],
                bg_uw,
            });
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DramConfig {
        &self.config
    }

    /// Current memory-clock cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Whether a request of this kind would currently be accepted.
    pub fn can_accept(&self, req: &MemRequest) -> bool {
        let loc = self.config.mapping.decode(req.addr, &self.config.geometry);
        self.channels[loc.channel as usize].can_accept(req.kind, &self.config)
    }

    /// Enqueues a request into its channel's read or write queue.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFull`] when the target queue has no free entry; the
    /// caller must hold the request and retry after ticking.
    pub fn try_enqueue(&mut self, req: MemRequest) -> Result<(), QueueFull> {
        let loc = self.config.mapping.decode(req.addr, &self.config.geometry);
        let channel = &mut self.channels[loc.channel as usize];
        if !channel.can_accept(req.kind, &self.config) {
            return Err(QueueFull {
                channel: loc.channel,
            });
        }
        channel.enqueue(req, loc, self.cycle, &self.config, &mut self.obs);
        Ok(())
    }

    /// Advances one memory cycle; returns the ids of reads whose data
    /// completed during this cycle.
    ///
    /// # Errors
    ///
    /// Returns [`TickError::Protocol`] when the protocol checker (enabled
    /// via [`DramConfig::verify_protocol`]) rejects a command the scheduler
    /// issued — always a simulator bug, never a workload property — and
    /// [`TickError::Liveness`] when a watchdog armed via
    /// [`DramConfig::liveness`] detects no forward progress.
    pub fn try_tick(&mut self) -> Result<&[RequestId], TickError> {
        let _prof = sim_prof::span!("dram.tick");
        self.completed_scratch.clear();
        for channel in &mut self.channels {
            channel.tick(
                self.cycle,
                &self.config,
                &mut self.stats,
                &mut self.energy,
                &mut self.obs,
                &mut self.completed_scratch,
                &mut self.faults,
            )?;
        }
        self.cycle += 1;
        self.check_liveness()?;
        self.stats.cycles = self.cycle;
        if self.obs.obs.epoch_due(self.cycle) {
            self.stats.publish_to(&mut self.obs.obs.registry);
            if let Some(f) = &self.faults {
                f.publish_to(&mut self.obs.obs.registry, "fault");
            }
            if self.config.recovery.is_some() {
                let counts = self.recovery_counts();
                counts.publish_to(&mut self.obs.obs.registry);
            }
            self.publish_power_telemetry();
            self.obs.obs.end_epoch(self.cycle);
        }
        Ok(&self.completed_scratch)
    }

    /// Advances one memory cycle; returns the ids of reads whose data
    /// completed during this cycle.
    ///
    /// # Panics
    ///
    /// Panics if the protocol checker rejects a scheduled command; use
    /// [`Self::try_tick`] to observe the violation as an error instead.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade; a checker rejection is a simulator bug and try_tick is the fallible API"
    )]
    pub fn tick(&mut self) -> &[RequestId] {
        self.try_tick().unwrap_or_else(|e| panic!("DRAM {e}"))
    }

    /// Cycle-domain liveness watchdogs (see [`crate::liveness`]). Called
    /// after every tick; a cheap early-out keeps the disabled case free.
    fn check_liveness(&mut self) -> Result<(), LivenessError> {
        let live = self.config.liveness;
        if !live.enabled() {
            return Ok(());
        }
        let completed = self.stats.reads_completed + self.stats.writes_completed;
        let progressed = completed != self.last_completed_total || self.pending() == 0;
        if progressed {
            self.last_completed_total = completed;
            self.last_progress_cycle = self.cycle;
        }
        // Progress resets the no-retire watchdog, but not the starvation
        // scan: a stream that retires plenty of requests can still starve
        // one queued victim indefinitely.
        if !progressed && live.max_no_retire_cycles > 0 {
            let stalled_for = self.cycle - self.last_progress_cycle;
            if stalled_for > live.max_no_retire_cycles {
                return Err(LivenessError {
                    cycle: self.cycle,
                    kind: LivenessKind::NoRetire { stalled_for },
                    victim: self.oldest_trail(),
                });
            }
        }
        if live.max_queue_age_cycles > 0 && self.cycle.is_multiple_of(STARVATION_SCAN_INTERVAL) {
            if let Some(victim) = self.oldest_trail() {
                let age = self.cycle.saturating_sub(victim.enqueued_at);
                if age > live.max_queue_age_cycles {
                    return Err(LivenessError {
                        cycle: self.cycle,
                        kind: LivenessKind::Starvation {
                            age,
                            bound: live.max_queue_age_cycles,
                        },
                        victim: Some(victim),
                    });
                }
            }
        }
        Ok(())
    }

    /// Trail of the oldest queued request across all channels.
    fn oldest_trail(&self) -> Option<RequestTrail> {
        self.channels
            .iter()
            .enumerate()
            .filter_map(|(i, ch)| ch.oldest_trail(i as u32))
            .min_by_key(|t| t.enqueued_at)
    }

    /// Requests queued or in flight across all channels.
    pub fn pending(&self) -> usize {
        self.channels.iter().map(Channel::pending).sum()
    }

    /// Ticks until no work remains or `max_cycles` elapse; returns `true`
    /// if the system drained completely.
    ///
    /// # Panics
    ///
    /// Panics on a protocol or liveness violation; use
    /// [`Self::try_run_until_idle`] to observe it as an error instead.
    pub fn run_until_idle(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            if self.pending() == 0 {
                return true;
            }
            self.tick();
        }
        self.pending() == 0
    }

    /// Fallible variant of [`Self::run_until_idle`].
    ///
    /// # Errors
    ///
    /// Returns the first [`TickError`] raised while draining.
    pub fn try_run_until_idle(&mut self, max_cycles: u64) -> Result<bool, TickError> {
        for _ in 0..max_cycles {
            if self.pending() == 0 {
                return Ok(true);
            }
            self.try_tick()?;
        }
        Ok(self.pending() == 0)
    }

    /// Collected statistics.
    pub fn stats(&self) -> &DramStats {
        &self.stats
    }

    /// Accumulated energy breakdown (pJ).
    pub fn energy(&self) -> EnergyBreakdown {
        self.energy.breakdown()
    }

    /// Elapsed simulated time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.cycle as f64 * self.config.power.timings.tck_ns
    }

    /// Average power breakdown over the run so far (mW).
    ///
    /// # Panics
    ///
    /// Panics if no cycles have been simulated yet.
    pub fn power(&self) -> PowerBreakdown {
        self.energy.breakdown().to_power(self.elapsed_ns())
    }
}

impl sim_snap::SnapState for MemorySystem {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("memory-system");
        // `config` is not serialized: restore rebuilds the system from the
        // run configuration and the snapshot header's config digest guards
        // against overlaying state onto a differently-shaped system.
        w.u64(self.cycle);
        self.stats.snap_save(w);
        self.energy.snap_save(w);
        w.seq(self.channels.len());
        for ch in &self.channels {
            ch.snap_save(w);
        }
        self.obs.snap_save(w);
        self.power_rail.snap_save(w);
        w.bool(self.faults.is_some());
        if let Some(f) = &self.faults {
            f.snap_save(w);
        }
        w.u64(self.last_progress_cycle);
        w.u64(self.last_completed_total);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("memory-system")?;
        self.cycle = r.u64()?;
        self.stats.snap_load(r)?;
        self.energy.snap_load(r)?;
        let channels = r.seq()?;
        if channels != self.channels.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "channel count mismatch: snapshot has {channels}, config has {}",
                self.channels.len()
            )));
        }
        for ch in &mut self.channels {
            ch.snap_load(r)?;
        }
        self.obs.snap_load(r)?;
        self.power_rail.snap_load(r)?;
        let has_faults = r.bool()?;
        if has_faults != self.faults.is_some() {
            return Err(sim_snap::SnapError::Decode(format!(
                "fault-injector presence mismatch: snapshot has {has_faults}, config has {}",
                self.faults.is_some()
            )));
        }
        if let Some(f) = self.faults.as_mut() {
            f.snap_load(r)?;
        }
        self.last_progress_cycle = r.u64()?;
        self.last_completed_total = r.u64()?;
        // Scratch is rebuilt from scratch every tick; never carried across.
        self.completed_scratch.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PagePolicy;
    use crate::scheme::SchemeBehavior;
    use mem_model::{AddressMapping, DramGeometry, Location, PhysAddr, WordMask};

    fn system(policy: PagePolicy, scheme: SchemeBehavior) -> MemorySystem {
        MemorySystem::new(DramConfig::paper_baseline(policy, scheme))
    }

    fn addr_for(loc: Location, mapping: AddressMapping) -> PhysAddr {
        mapping.encode(loc, &DramGeometry::baseline_ddr3())
    }

    fn loc(row: u32, column: u32) -> Location {
        Location {
            channel: 0,
            rank: 0,
            bank: 0,
            row,
            column,
        }
    }

    #[test]
    fn single_read_latency_is_act_plus_cas_plus_burst() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        mem.try_enqueue(MemRequest::read(1, PhysAddr::new(0)))
            .unwrap();
        let mut done_cycle = None;
        for _ in 0..200 {
            if !mem.tick().is_empty() {
                done_cycle = Some(mem.cycle() - 1);
                break;
            }
        }
        // ACT at cycle 0, column at tRCD=11, data done at 11+CL+burst=26.
        assert_eq!(done_cycle, Some(26));
        assert_eq!(mem.stats().read.misses, 1);
        assert_eq!(mem.stats().activations, 1);
    }

    #[test]
    fn second_read_to_same_row_hits() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::read(1, addr_for(loc(5, 0), mapping)))
            .unwrap();
        mem.try_enqueue(MemRequest::read(2, addr_for(loc(5, 1), mapping)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        assert_eq!(mem.stats().read.hits, 1);
        assert_eq!(mem.stats().read.misses, 1);
        assert_eq!(mem.stats().activations, 1, "one activation serves both");
    }

    #[test]
    fn row_conflict_precharges_and_reactivates() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::read(1, addr_for(loc(5, 0), mapping)))
            .unwrap();
        mem.try_enqueue(MemRequest::read(2, addr_for(loc(9, 0), mapping)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        assert_eq!(mem.stats().read.misses, 2);
        assert_eq!(mem.stats().activations, 2);
        assert!(mem.stats().precharges >= 1);
    }

    #[test]
    fn restricted_policy_activates_per_request() {
        let mut mem = system(PagePolicy::RestrictedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        // Same row twice: restricted close-page still pays two ACT/PRE pairs
        // because every column access auto-precharges.
        mem.try_enqueue(MemRequest::read(1, addr_for(loc(5, 0), mapping)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        // Let the armed auto-precharge fire (tRAS after the activate) before
        // the second request arrives.
        for _ in 0..64 {
            mem.tick();
        }
        mem.try_enqueue(MemRequest::read(2, addr_for(loc(5, 1), mapping)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        for _ in 0..64 {
            mem.tick(); // let the second auto-precharge fire
        }
        assert_eq!(mem.stats().activations, 2);
        assert_eq!(mem.stats().read.misses, 2);
        assert_eq!(mem.stats().precharges, 2, "both were auto-precharges");
    }

    #[test]
    fn pra_write_activates_partially() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mapping = mem.config().mapping;
        let a = addr_for(loc(3, 0), mapping);
        mem.try_enqueue(MemRequest::write(1, a, WordMask::single(0)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        assert_eq!(mem.stats().activations, 1);
        assert_eq!(mem.stats().act_histogram[1], 1, "2 MATs for a 1-word mask");
        // Energy: the activation must be charged at the 1/8 rate.
        let act_pj = mem.energy().act_pre;
        assert!((act_pj - 3.7 * 48.75).abs() < 1e-6, "got {act_pj}");
    }

    #[test]
    fn pra_masks_are_ored_across_queued_writes() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            1,
            addr_for(loc(3, 0), mapping),
            WordMask::single(0),
        ))
        .unwrap();
        mem.try_enqueue(MemRequest::write(
            2,
            addr_for(loc(3, 1), mapping),
            WordMask::single(5),
        ))
        .unwrap();
        assert!(mem.run_until_idle(2000));
        // One activation with both groups selected; the second write hits.
        assert_eq!(mem.stats().activations, 1);
        assert_eq!(
            mem.stats().act_histogram[3],
            1,
            "4 MATs for the ORed 2-word mask"
        );
        assert_eq!(mem.stats().write.hits, 1);
        assert_eq!(mem.stats().write.misses, 1);
    }

    #[test]
    fn pra_false_hit_on_read_after_partial_write() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mapping = mem.config().mapping;
        let wa = addr_for(loc(3, 0), mapping);
        mem.try_enqueue(MemRequest::write(1, wa, WordMask::single(0)))
            .unwrap();
        // Let the write open its partial row and be served.
        for _ in 0..60 {
            mem.tick();
        }
        assert_eq!(mem.stats().write.misses, 1);
        // The row is still open partially (relaxed policy would close it as
        // unwanted — enqueue the read before that can happen is exercised by
        // the drain ordering below; if already closed this is a plain miss).
        let partially_open = {
            // Peek through stats: a false hit can only occur if no precharge
            // has closed the row yet.
            mem.stats().precharges == 0
        };
        mem.try_enqueue(MemRequest::read(2, addr_for(loc(3, 1), mapping)))
            .unwrap();
        assert!(mem.run_until_idle(2000));
        if partially_open {
            assert_eq!(
                mem.stats().read.false_hits,
                1,
                "read to a partial row is a false hit"
            );
            assert_eq!(mem.stats().read.misses, 1);
        }
        assert_eq!(mem.stats().reads_completed, 1);
    }

    #[test]
    fn pra_false_hit_on_uncovered_write() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            1,
            addr_for(loc(3, 0), mapping),
            WordMask::single(0),
        ))
        .unwrap();
        for _ in 0..60 {
            mem.tick();
        }
        let still_open = mem.stats().precharges == 0;
        mem.try_enqueue(MemRequest::write(
            2,
            addr_for(loc(3, 1), mapping),
            WordMask::single(7),
        ))
        .unwrap();
        assert!(mem.run_until_idle(2000));
        if still_open {
            assert_eq!(mem.stats().write.false_hits, 1);
        }
        assert_eq!(mem.stats().writes_completed, 2);
    }

    #[test]
    fn covered_write_hits_partial_row() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            1,
            addr_for(loc(3, 0), mapping),
            WordMask::from_words([0, 7]),
        ))
        .unwrap();
        for _ in 0..60 {
            mem.tick();
        }
        let still_open = mem.stats().precharges == 0;
        mem.try_enqueue(MemRequest::write(
            2,
            addr_for(loc(3, 1), mapping),
            WordMask::single(7),
        ))
        .unwrap();
        assert!(mem.run_until_idle(2000));
        if still_open {
            assert_eq!(
                mem.stats().write.hits,
                1,
                "subset mask hits the partial row"
            );
            assert_eq!(mem.stats().write.false_hits, 0);
        }
    }

    #[test]
    fn open_page_keeps_rows_open_across_idle_gaps() {
        let mut open = system(PagePolicy::OpenPage, SchemeBehavior::baseline());
        let mut relaxed = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        for mem in [&mut open, &mut relaxed] {
            let mapping = mem.config().mapping;
            mem.try_enqueue(MemRequest::read(1, addr_for(loc(5, 0), mapping)))
                .unwrap();
            assert!(mem.run_until_idle(1000));
            for _ in 0..200 {
                mem.tick(); // idle gap: relaxed closes the row, open-page keeps it
            }
            mem.try_enqueue(MemRequest::read(2, addr_for(loc(5, 1), mapping)))
                .unwrap();
            assert!(mem.run_until_idle(1000));
        }
        assert_eq!(open.stats().read.hits, 1, "open page retains the row");
        assert_eq!(open.stats().activations, 1);
        assert_eq!(relaxed.stats().read.hits, 0, "relaxed closed the idle row");
        assert_eq!(relaxed.stats().activations, 2);
        // Open page never powers down, so its background energy is higher.
        assert!(open.energy().bg > relaxed.energy().bg);
    }

    #[test]
    fn refresh_happens_periodically() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        for _ in 0..20_000 {
            mem.tick();
        }
        // Each of the 4 ranks refreshes every tREFI = 6240 cycles, with
        // staggered first refreshes between 6240 and ~11k cycles; in 20k
        // cycles every rank completes 2-3 refreshes.
        assert!(
            (8..=12).contains(&mem.stats().refreshes),
            "refreshes {} outside the 8..=12 envelope",
            mem.stats().refreshes,
        );
        assert!(mem.energy().refresh > 0.0);
    }

    #[test]
    fn refresh_postponing_defers_under_load_and_repays() {
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        cfg.refresh_postpone_max = 8;
        let mut mem = MemorySystem::new(cfg);
        let mapping = mem.config().mapping;
        // Keep every rank busy across several tREFI intervals.
        let mut id = 0u64;
        for _ in 0..30_000u64 {
            if mem.pending() < 32 {
                id += 1;
                let a = addr_for(loc((id % 1024) as u32, (id % 64) as u32), mapping);
                let _ = mem.try_enqueue(MemRequest::read(id, a));
            }
            mem.tick();
        }
        // Debt may have accumulated but is bounded by the allowance (+1 for
        // the interval that just elapsed).
        // Drain and idle: all debt must be repaid opportunistically.
        assert!(mem.run_until_idle(100_000));
        for _ in 0..20_000 {
            mem.tick();
        }
        // Refresh conservation: over ~50k cycles each of the 4 ranks owes
        // roughly cycles/tREFI refreshes; everything owed was serviced.
        let elapsed = mem.cycle();
        let expected = elapsed / 6240 * 4;
        let refreshes = mem.stats().refreshes;
        assert!(
            refreshes + 4 * 9 >= expected && refreshes <= expected + 8,
            "refreshes {refreshes} vs owed ~{expected}"
        );
    }

    #[test]
    fn idle_system_powers_down() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        for _ in 0..1000 {
            mem.tick();
        }
        // All background energy in the pre-refresh window must be at the
        // power-down rate: 4 ranks x 1000 cycles x 18 mW x 1.25 ns.
        let bg = mem.energy().bg;
        let expected = 4.0 * 1000.0 * 18.0 * 1.25;
        assert!(
            (bg - expected).abs() / expected < 0.01,
            "bg {bg} vs {expected}"
        );
    }

    #[test]
    fn queue_full_backpressure() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        let mut rejected = false;
        for i in 0..200u64 {
            let a = addr_for(loc((i % 64) as u32, 0), mapping);
            if mem.try_enqueue(MemRequest::read(i, a)).is_err() {
                rejected = true;
                break;
            }
        }
        assert!(rejected, "64-entry read queue must eventually refuse");
        assert!(mem.run_until_idle(100_000));
    }

    #[test]
    fn write_drain_triggers_at_watermark() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        for i in 0..48u64 {
            let a = addr_for(loc(i as u32, 0), mapping);
            mem.try_enqueue(MemRequest::write(i, a, WordMask::FULL))
                .unwrap();
        }
        mem.tick();
        assert_eq!(mem.stats().drain_entries, 1);
        assert!(mem.run_until_idle(100_000));
        assert_eq!(mem.stats().writes_completed, 48);
    }

    #[test]
    fn fga_reads_occupy_bus_twice_as_long() {
        let mut base = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mut fga = system(PagePolicy::RelaxedClosePage, SchemeBehavior::fga_half());
        let mapping = base.config().mapping;
        for mem in [&mut base, &mut fga] {
            for i in 0..16u64 {
                let a = addr_for(loc(2, i as u32), mapping);
                mem.try_enqueue(MemRequest::read(i, a)).unwrap();
            }
        }
        let mut base_done = 0;
        let mut fga_done = 0;
        for c in 1..100_000u64 {
            if base.pending() > 0 {
                base.tick();
                if base.pending() == 0 {
                    base_done = c;
                }
            }
            if fga.pending() > 0 {
                fga.tick();
                if fga.pending() == 0 {
                    fga_done = c;
                }
            }
            if base.pending() == 0 && fga.pending() == 0 {
                break;
            }
        }
        assert!(
            fga_done > base_done,
            "FGA ({fga_done}) must be slower than baseline ({base_done})"
        );
        // I/O energy identical per line (the paper: FGA pays in runtime, not
        // energy per bit).
        assert!((base.energy().rd_io - fga.energy().rd_io).abs() < 1e-9);
    }

    #[test]
    fn half_dram_charges_half_row_activations() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::half_dram());
        mem.try_enqueue(MemRequest::read(1, PhysAddr::new(0)))
            .unwrap();
        assert!(mem.run_until_idle(1000));
        assert_eq!(mem.stats().act_histogram[7], 1, "8 MATs");
        let act = mem.energy().act_pre;
        assert!((act - 11.6 * 48.75).abs() < 1e-6);
    }

    /// Drives a continuous stream of row-buffer hits (bank 0, row 5) past a
    /// single older write to the same bank's row 9. The write queue stays far
    /// below the drain watermark and the hit stream never conflicts inside
    /// the read queue, so nothing in plain FR-FCFS ever closes the row for
    /// the write. Returns the memory system after `cycles` ticks.
    fn run_hit_stream_against_lone_write(escalation_age: u64, cycles: u64) -> MemorySystem {
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        cfg.starvation_escalation_age = escalation_age;
        let mut mem = MemorySystem::new(cfg);
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            0,
            addr_for(loc(9, 0), mapping),
            WordMask::FULL,
        ))
        .unwrap();
        let mut id = 1u64;
        for _ in 0..cycles {
            if mem.pending() < 8 {
                id += 1;
                let a = addr_for(loc(5, (id % 64) as u32), mapping);
                let _ = mem.try_enqueue(MemRequest::read(id, a));
            }
            mem.tick();
        }
        mem
    }

    #[test]
    fn row_hit_stream_starves_cross_queue_write_without_escalation() {
        // Keep the run under the first refresh (~6240) so only the scheduler
        // decides; the hit stream holds row 5 open for the entire run.
        let mem = run_hit_stream_against_lone_write(0, 5_000);
        assert_eq!(
            mem.stats().writes_completed,
            0,
            "documents the starvation hole escalation exists to close"
        );
        assert!(mem.stats().reads_completed > 100);
    }

    #[test]
    fn escalation_retires_starved_write_within_bound() {
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        cfg.starvation_escalation_age = 300;
        let mut mem = MemorySystem::new(cfg);
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            0,
            addr_for(loc(9, 0), mapping),
            WordMask::FULL,
        ))
        .unwrap();
        let mut id = 1u64;
        let mut write_done_at = None;
        for _ in 0..5_000u64 {
            if mem.pending() < 8 {
                id += 1;
                let a = addr_for(loc(5, (id % 64) as u32), mapping);
                let _ = mem.try_enqueue(MemRequest::read(id, a));
            }
            mem.tick();
            if write_done_at.is_none() && mem.stats().writes_completed == 1 {
                write_done_at = Some(mem.cycle());
            }
        }
        let done = write_done_at.expect("escalation must retire the starved write");
        assert!(
            done <= 300 + 200,
            "write retired at {done}, expected within the 300-cycle bound plus service slack"
        );
        // The hit stream resumes after the escalated write retires.
        assert!(mem.stats().reads_completed > 100);
    }

    #[test]
    fn no_retire_watchdog_trips_with_trail() {
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        cfg.liveness.max_no_retire_cycles = 10;
        let mut mem = MemorySystem::new(cfg);
        let mapping = mem.config().mapping;
        // A lone read legitimately takes 26 cycles, so an absurd 10-cycle
        // bound trips deterministically at cycle 11.
        mem.try_enqueue(MemRequest::read(1, addr_for(loc(5, 3), mapping)))
            .unwrap();
        let err = loop {
            match mem.try_tick() {
                Ok(_) => continue,
                Err(e) => break e,
            }
        };
        let TickError::Liveness(live) = err else {
            panic!("expected a liveness error, got {err}");
        };
        assert_eq!(live.cycle, 11);
        assert!(matches!(
            live.kind,
            LivenessKind::NoRetire { stalled_for: 11 }
        ));
        let victim = live.victim.expect("the queued read is the victim");
        assert_eq!((victim.bank, victim.row), (0, 5));
        assert!(!victim.is_write);
        assert_eq!(victim.enqueued_at, 0);
    }

    #[test]
    fn queue_age_watchdog_trips_on_starved_write() {
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        cfg.liveness.max_queue_age_cycles = 500;
        cfg.starvation_escalation_age = 0; // watchdog observes the raw hole
        let mut mem = MemorySystem::new(cfg);
        let mapping = mem.config().mapping;
        mem.try_enqueue(MemRequest::write(
            0,
            addr_for(loc(9, 0), mapping),
            WordMask::FULL,
        ))
        .unwrap();
        let mut id = 1u64;
        let err = loop {
            if mem.pending() < 8 {
                id += 1;
                let a = addr_for(loc(5, (id % 64) as u32), mapping);
                let _ = mem.try_enqueue(MemRequest::read(id, a));
            }
            match mem.try_tick() {
                Ok(_) => {
                    assert!(mem.cycle() < 2_000, "watchdog never tripped");
                }
                Err(e) => break e,
            }
        };
        let TickError::Liveness(live) = err else {
            panic!("expected a liveness error, got {err}");
        };
        let LivenessKind::Starvation { age, bound } = live.kind else {
            panic!("expected starvation, got {:?}", live.kind);
        };
        assert_eq!(bound, 500);
        assert!(age > 500);
        assert!(live.cycle.is_multiple_of(STARVATION_SCAN_INTERVAL));
        let victim = live.victim.expect("starvation always names a victim");
        assert!(victim.is_write);
        assert_eq!((victim.bank, victim.row), (0, 9));
        assert_eq!(victim.open_row, Some(5), "the hit stream holds row 5 open");
    }

    #[test]
    fn disabled_watchdogs_change_nothing() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        assert!(!mem.config().liveness.enabled());
        mem.try_enqueue(MemRequest::read(1, PhysAddr::new(0)))
            .unwrap();
        assert!(mem.try_run_until_idle(10_000).unwrap());
        assert_eq!(mem.stats().reads_completed, 1);
    }

    /// One deterministic traffic step: mixed reads and partial writes
    /// spread over rows, banks and channels.
    fn feed_step(mem: &mut MemorySystem, n: u64) {
        let mapping = mem.config().mapping;
        let l = Location {
            channel: 0,
            rank: (n % 4) as u32,
            bank: (n % 8) as u32,
            row: (n % 32) as u32,
            column: (n % 64) as u32,
        };
        let a = mapping.encode(l, &mem.config().geometry);
        if mem.pending() < 16 {
            let req = if n.is_multiple_of(3) {
                MemRequest::write(n, a, WordMask::single((n % 8) as u8))
            } else {
                MemRequest::read(n, a)
            };
            let _ = mem.try_enqueue(req);
        }
    }

    fn roundtrip_resumes_identically(mut live: MemorySystem, mut fresh: MemorySystem) {
        use sim_snap::SnapState;
        // Warm up: leave open rows, queued work and inflight bursts behind.
        for n in 0..400u64 {
            feed_step(&mut live, n);
            live.tick();
        }
        assert!(live.pending() > 0, "snapshot must capture in-flight state");
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();

        let mut r = sim_snap::SnapReader::new(&bytes);
        fresh.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.cycle(), live.cycle());

        // Continue both in lockstep: every completion, counter and energy
        // figure must stay bit-identical.
        for n in 400..1200u64 {
            feed_step(&mut live, n);
            feed_step(&mut fresh, n);
            let a: Vec<RequestId> = live.tick().to_vec();
            let b: Vec<RequestId> = fresh.tick().to_vec();
            assert_eq!(a, b, "completions diverged at cycle {}", live.cycle());
        }
        assert_eq!(live.stats().reads_completed, fresh.stats().reads_completed);
        assert_eq!(
            live.stats().writes_completed,
            fresh.stats().writes_completed
        );
        assert_eq!(live.stats().activations, fresh.stats().activations);
        assert_eq!(live.stats().precharges, fresh.stats().precharges);
        assert_eq!(live.stats().refreshes, fresh.stats().refreshes);
        assert_eq!(
            live.stats().read_latency_sum,
            fresh.stats().read_latency_sum
        );
        assert_eq!(
            live.energy().total().to_bits(),
            fresh.energy().total().to_bits()
        );
        assert_eq!(live.fault_counts(), fresh.fault_counts());
        assert_eq!(live.recovery_counts(), fresh.recovery_counts());
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically_pra() {
        let live = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let fresh = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        roundtrip_resumes_identically(live, fresh);
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically_under_chaos() {
        use sim_fault::{Domain, FaultPlan};
        let cfg = || {
            let mut c =
                DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
            c.recovery = Some(sim_recover::RecoveryConfig::default());
            c
        };
        let plan = FaultPlan {
            seed: 0xDEC0DE,
            mask_corrupt_rate: 0.05,
            command_drop_rate: 0.02,
            command_stretch_rate: 0.05,
            command_stretch_cycles: 2,
            ..FaultPlan::disabled()
        };
        let mut live = MemorySystem::new(cfg());
        live.set_fault_injector(plan.injector(Domain::Dram));
        let mut fresh = MemorySystem::new(cfg());
        // A differently-seeded injector: the overlay must replace its RNG
        // position so both streams draw identical fault decisions.
        fresh.set_fault_injector(FaultPlan { seed: 999, ..plan }.injector(Domain::Dram));
        roundtrip_resumes_identically(live, fresh);
    }

    #[test]
    fn snapshot_shape_mismatch_rejected() {
        use sim_snap::SnapState;
        let live = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();

        // Recovery armed on the restore side but absent in the snapshot.
        let mut cfg =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        cfg.recovery = Some(sim_recover::RecoveryConfig::default());
        let mut other = MemorySystem::new(cfg);
        let mut r = sim_snap::SnapReader::new(&bytes);
        let err = other.snap_load(&mut r).unwrap_err();
        assert!(
            err.to_string().contains("presence mismatch"),
            "unexpected error: {err}"
        );

        // Fault injector attached on the restore side but not snapshotted.
        let mut other = system(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
        other
            .set_fault_injector(sim_fault::FaultPlan::disabled().injector(sim_fault::Domain::Dram));
        let mut r = sim_snap::SnapReader::new(&bytes);
        let err = other.snap_load(&mut r).unwrap_err();
        assert!(
            err.to_string().contains("fault-injector presence mismatch"),
            "unexpected error: {err}"
        );
    }

    /// One cycle of dense pseudo-random traffic: reads and partial writes
    /// over every channel, rank, bank and a few rows, enough to fill the
    /// write queue past its drain watermark.
    fn feed_random(mem: &mut MemorySystem, rng: &mut u64, id: &mut u64) {
        for _ in 0..2 {
            *rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = *rng >> 16;
            let g = mem.config().geometry;
            let l = Location {
                channel: (x % g.channels as u64) as u32,
                rank: ((x >> 4) % g.ranks_per_channel as u64) as u32,
                bank: ((x >> 8) % g.banks_per_rank as u64) as u32,
                row: ((x >> 12) % 6) as u32,
                column: ((x >> 16) % 64) as u32,
            };
            let a = mem.config().mapping.encode(l, &g);
            *id += 1;
            let req = if (x >> 24) % 5 < 2 {
                MemRequest::write(*id, a, WordMask::from_bits(((x >> 28) as u8) | 1))
            } else {
                MemRequest::read(*id, a)
            };
            let _ = mem.try_enqueue(req);
        }
    }

    fn masks_consistent(mem: &MemorySystem) -> bool {
        mem.channels.iter().all(Channel::masks_consistent)
    }

    #[test]
    fn bank_masks_match_a_rebuild_after_every_tick() {
        use sim_fault::{Domain, FaultPlan};
        use sim_snap::SnapState;
        let chaos = FaultPlan::from_toml_str(include_str!("../../../docs/faults/chaos.toml"))
            .expect("chaos plan parses");
        let schemes = [
            SchemeBehavior::baseline(),
            SchemeBehavior::fga_half(),
            SchemeBehavior::half_dram(),
            SchemeBehavior::pra(),
            SchemeBehavior::half_dram_pra(),
        ];
        let mut configs = Vec::new();
        for policy in PagePolicy::ALL {
            for scheme in schemes {
                for faulted in [false, true] {
                    configs.push((DramConfig::paper_baseline(policy, scheme), faulted));
                }
            }
            // 16 banks per rank: the widest rank slice of the masks.
            configs.push((DramConfig::ddr4_2400(policy, SchemeBehavior::pra()), true));
        }
        for (mut cfg, faulted) in configs {
            let build = |cfg: &DramConfig| {
                let mut mem = MemorySystem::new(cfg.clone());
                if faulted {
                    mem.set_fault_injector(chaos.injector(Domain::Dram));
                }
                mem
            };
            if faulted {
                cfg.recovery = Some(sim_recover::RecoveryConfig::default());
            }
            let label = format!("{:?} {:?} faulted={faulted}", cfg.policy, cfg.scheme);
            let mut live = build(&cfg);
            let (mut rng, mut id) = (7u64, 0u64);
            // Long enough for every rank to owe a refresh, which forces its
            // open banks closed.
            for _ in 0..8_000 {
                feed_random(&mut live, &mut rng, &mut id);
                live.tick();
                assert!(masks_consistent(&live), "{label}: cycle {}", live.cycle());
            }
            assert!(
                live.stats().activations > 0 && live.pending() > 0,
                "{label}"
            );

            let mut w = sim_snap::SnapWriter::new();
            live.snap_save(&mut w);
            let bytes = w.into_bytes();
            let mut fresh = build(&cfg);
            let mut r = sim_snap::SnapReader::new(&bytes);
            fresh.snap_load(&mut r).unwrap();
            assert!(masks_consistent(&fresh), "{label}: after restore");
            let (mut rng2, mut id2) = (rng, id);
            for _ in 0..500 {
                feed_random(&mut live, &mut rng, &mut id);
                feed_random(&mut fresh, &mut rng2, &mut id2);
                let a = live.tick().to_vec();
                assert_eq!(a, fresh.tick(), "{label}: cycle {}", live.cycle());
                assert!(masks_consistent(&fresh), "{label}: cycle {}", fresh.cycle());
            }
        }
    }

    #[test]
    fn power_breakdown_totals_positive_under_load() {
        let mut mem = system(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        let mapping = mem.config().mapping;
        for i in 0..32u64 {
            let a = addr_for(loc(i as u32, 0), mapping);
            mem.try_enqueue(MemRequest::read(i, a)).unwrap();
        }
        assert!(mem.run_until_idle(100_000));
        let p = mem.power();
        assert!(p.act_pre > 0.0 && p.rd > 0.0 && p.bg > 0.0);
        assert!(p.total() > 0.0);
    }
}
