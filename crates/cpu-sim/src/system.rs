//! The multi-core system: cores + cache hierarchy + DRAM, clock-coupled.

use cache_sim::{CacheHierarchy, HitLevel};
use dram_sim::MemorySystem;
use mem_model::{MemRequest, PhysAddr, RequestId, WordMask};
use sim_obs::{SinkHandle, StallKind, TraceEvent, TraceSink};

use crate::core::{Core, CoreConfig, Deferred, InstructionSource, Op, Outstanding};
use crate::metrics::CoreResult;

/// System-level parameters.
#[derive(Debug, Clone, Copy)]
pub struct SystemConfig {
    /// Core parameters.
    pub core: CoreConfig,
    /// CPU cycles per DRAM command-clock cycle (3.2 GHz / 800 MHz = 4).
    pub cpu_per_mem_clock: u64,
}

impl SystemConfig {
    /// The paper's clocking: 3.2 GHz cores over DDR3-1600.
    pub const fn paper() -> Self {
        SystemConfig {
            core: CoreConfig::paper(),
            cpu_per_mem_clock: 4,
        }
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        SystemConfig::paper()
    }
}

/// Outcome of a run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Per-core instruction/cycle results.
    pub per_core: Vec<CoreResult>,
    /// Total CPU cycles elapsed until every core finished.
    pub cpu_cycles: u64,
    /// `true` if the run hit its cycle cap before all cores finished.
    pub timed_out: bool,
}

/// A contiguous run of fully-stalled cycles on one core, pending emission
/// as a single [`TraceEvent::CoreStall`] when it ends.
#[derive(Debug, Clone, Copy)]
struct StallRun {
    kind: StallKind,
    start: u64,
    len: u64,
}

/// A quiet core: one whose every tick until an event would repeat the last
/// one, adding one cycle to a stall counter and changing nothing else. It
/// is not ticked; the cycles it skips are added to that counter in bulk.
#[derive(Debug, Clone, Copy)]
struct Sleep {
    /// First CPU cycle at which the core must be ticked again: its earliest
    /// timed completion, or the next memory tick when the DRAM queues
    /// refused it. At or below the current cycle for an awake core; a
    /// completion for the core lowers it to the next cycle.
    wake: u64,
    /// First skipped cycle not yet added to the core's counters.
    since: u64,
    /// The stall counter each skipped cycle adds to; `None` for a finished
    /// core, whose skipped cycles count nothing.
    kind: Option<StallKind>,
}

impl Sleep {
    const AWAKE: Sleep = Sleep {
        wake: 0,
        since: u64::MAX,
        kind: None,
    };
}

/// Why a core's tick stopped before it used its issue width or finished.
#[derive(Debug, Clone, Copy)]
enum Stop {
    /// Blocked on a resource a completion frees (a memory tick, for a full
    /// writeback buffer).
    Blocked(StallKind),
    /// The read queue refused one of its reads; a memory tick may free it.
    Refused(StallKind),
}

/// A complete simulated machine: N cores with private L1s, a shared L2 and
/// a DDR3 memory system.
///
/// Runs CPU cycles; every `cpu_per_mem_clock` CPU cycles the DRAM advances
/// one memory cycle and read completions unblock waiting cores. Cores are
/// event-driven: a core that is finished or blocked, and whose writebacks
/// are all enqueued or refused, sleeps until a completion for it, its
/// earliest timed completion or (when the DRAM queues refused it) the next
/// memory tick. When every core sleeps the clock jumps ahead to the next
/// wake-up or memory tick. Skipped cycles add to the same stall counters
/// the cycle-by-cycle ticks would, so every statistic, checkpoint and trace
/// event is unchanged.
pub struct CpuSystem {
    config: SystemConfig,
    cores: Vec<Core>,
    sources: Vec<Box<dyn InstructionSource>>,
    hierarchy: CacheHierarchy,
    mem: MemorySystem,
    cpu_cycle: u64,
    next_req_id: RequestId,
    sink: SinkHandle,
    stall_runs: Vec<Option<StallRun>>,
    /// Per core; runtime state rebuilt as all-awake on restore, since the
    /// counters are settled whenever control leaves the run loop.
    sleeps: Vec<Sleep>,
}

impl CpuSystem {
    /// Assembles a system. One instruction source per core.
    ///
    /// # Panics
    ///
    /// Panics if `sources` is empty or its length disagrees with the
    /// hierarchy's core count.
    pub fn new(
        config: SystemConfig,
        hierarchy: CacheHierarchy,
        mem: MemorySystem,
        sources: Vec<Box<dyn InstructionSource>>,
        instructions_per_core: u64,
    ) -> Self {
        assert!(!sources.is_empty(), "need at least one instruction source");
        assert_eq!(
            sources.len(),
            hierarchy.config().cores,
            "one source per core is required"
        );
        let stall_runs = vec![None; sources.len()];
        let sleeps = vec![Sleep::AWAKE; sources.len()];
        let cores = (0..sources.len())
            .map(|_| Core::new(config.core, instructions_per_core))
            .collect();
        CpuSystem {
            config,
            cores,
            sources,
            hierarchy,
            mem,
            cpu_cycle: 0,
            next_req_id: 1,
            sink: SinkHandle::disabled(),
            stall_runs,
            sleeps,
        }
    }

    /// Attaches a trace sink for core-stall episode events. Sinks for DRAM
    /// command and cache events are attached to the memory system and
    /// hierarchy directly (share one sink via `Rc<RefCell<_>>` to get a
    /// single interleaved stream).
    pub fn set_trace_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = SinkHandle::new(sink);
    }

    /// The DRAM system (stats, energy, power).
    pub fn mem(&self) -> &MemorySystem {
        &self.mem
    }

    /// Mutable DRAM system access (attach sinks, configure epochs).
    pub fn mem_mut(&mut self) -> &mut MemorySystem {
        &mut self.mem
    }

    /// The cache hierarchy (stats).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    /// Mutable hierarchy access (attach sinks).
    pub fn hierarchy_mut(&mut self) -> &mut CacheHierarchy {
        &mut self.hierarchy
    }

    /// Takes the system apart, keeping its cache hierarchy (whose buffers
    /// a later run may reuse).
    pub fn into_hierarchy(self) -> CacheHierarchy {
        self.hierarchy
    }

    /// Per-core stats.
    pub fn cores(&self) -> &[Core] {
        &self.cores
    }

    /// Elapsed CPU cycles.
    pub fn cpu_cycle(&self) -> u64 {
        self.cpu_cycle
    }

    /// Runs until every core retires its instruction target (or
    /// `max_cpu_cycles` elapse), then lets DRAM drain. Returns per-core
    /// results.
    ///
    /// # Panics
    ///
    /// Panics on a DRAM protocol or liveness violation; use
    /// [`Self::try_run`] to observe it as an error instead.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade; try_run is the fallible API"
    )]
    pub fn run(&mut self, max_cpu_cycles: u64) -> RunOutcome {
        self.try_run(max_cpu_cycles)
            .unwrap_or_else(|e| panic!("DRAM {e}"))
    }

    /// Fallible variant of [`Self::run`]: a protocol-checker rejection or a
    /// tripped liveness watchdog surfaces as a [`dram_sim::TickError`]
    /// instead of a panic (the campaign harness classifies the latter as a
    /// hung run).
    ///
    /// # Errors
    ///
    /// Returns the first [`dram_sim::TickError`] the memory system raises.
    pub fn try_run(&mut self, max_cpu_cycles: u64) -> Result<RunOutcome, dram_sim::TickError> {
        self.try_run_with_checkpoints(max_cpu_cycles, 0, |_, _| true)
    }

    /// [`Self::try_run`] with a periodic checkpoint hook.
    ///
    /// Every `every_mem_cycles` DRAM cycles (`0` disables the hook), right
    /// after the memory tick on that boundary completes and its read
    /// completions have been delivered to the cores, `on_checkpoint` is
    /// called with the system and the current DRAM cycle — a consistent
    /// point to serialise the full machine state (and, with the mutable
    /// borrow, to emit a checkpoint trace event). Returning `false` aborts
    /// the run immediately: no DRAM drain, no observability finalisation,
    /// `timed_out` set in the outcome. That models a crash for kill-resume
    /// tests; a checkpoint policy that only writes snapshots returns `true`.
    ///
    /// # Errors
    ///
    /// Returns the first [`dram_sim::TickError`] the memory system raises.
    pub fn try_run_with_checkpoints<F>(
        &mut self,
        max_cpu_cycles: u64,
        every_mem_cycles: u64,
        mut on_checkpoint: F,
    ) -> Result<RunOutcome, dram_sim::TickError>
    where
        F: FnMut(&mut CpuSystem, u64) -> bool,
    {
        let every_cpu = every_mem_cycles.saturating_mul(self.config.cpu_per_mem_clock);
        let mut timed_out = false;
        while self.cores.iter().any(|c| !c.finished()) {
            if self.cpu_cycle >= max_cpu_cycles {
                timed_out = true;
                break;
            }
            self.try_advance(max_cpu_cycles)?;
            if every_cpu > 0 && self.cpu_cycle.is_multiple_of(every_cpu) {
                self.settle_all();
                let mem_cycle = self.mem.cycle();
                if !on_checkpoint(self, mem_cycle) {
                    return Ok(self.outcome(true));
                }
            }
        }
        self.settle_all();
        // Drain outstanding DRAM work so energy accounting closes out.
        let spare = max_cpu_cycles.saturating_sub(self.cpu_cycle) / self.config.cpu_per_mem_clock;
        self.mem.try_run_until_idle(spare.max(100_000))?;
        self.finalize_observability();
        Ok(self.outcome(timed_out))
    }

    fn outcome(&self, timed_out: bool) -> RunOutcome {
        let per_core = self
            .cores
            .iter()
            .map(|c| CoreResult {
                instructions: c.stats.retired.min(c.target),
                cycles: c.finished_at.unwrap_or(self.cpu_cycle).max(1),
            })
            .collect();
        RunOutcome {
            per_core,
            cpu_cycles: self.cpu_cycle,
            timed_out,
        }
    }

    /// Advances one CPU cycle (and the DRAM clock on its divisor), with
    /// every core's counters settled afterwards.
    ///
    /// # Panics
    ///
    /// Panics on a DRAM protocol or liveness violation.
    #[cfg(test)]
    pub(crate) fn tick_cpu_cycle(&mut self) {
        self.try_advance(self.cpu_cycle + 1)
            .unwrap_or_else(|e| panic!("DRAM {e}"));
        self.settle_all();
    }

    /// Runs the next CPU cycle in which a core wakes, ticking the awake
    /// cores, or, when every core sleeps, jumps to the earliest wake-up,
    /// capped by the next memory tick and by `limit`. On a memory-tick
    /// boundary the DRAM then advances one memory cycle and its read
    /// completions wake the cores they belong to.
    ///
    /// # Errors
    ///
    /// Returns the [`dram_sim::TickError`] raised by the memory system's
    /// protocol checker or liveness watchdogs, if any.
    fn try_advance(&mut self, limit: u64) -> Result<(), dram_sim::TickError> {
        let now = self.cpu_cycle;
        let next_wake = self.sleeps.iter().map(|s| s.wake).min().unwrap_or(0);
        if next_wake > now {
            let to = next_wake.min(self.next_mem_tick()).min(limit);
            // The hierarchy's clock is serialized: leave it where the
            // skipped cycles would have left it.
            self.hierarchy.set_now(to - 1);
            self.cpu_cycle = to;
        } else {
            self.hierarchy.set_now(now);
            for idx in 0..self.cores.len() {
                if self.sleeps[idx].wake > now {
                    continue;
                }
                self.settle(idx, now);
                let (stop, wb_refused) = self.tick_core(idx);
                self.sleeps[idx] = self.sleep_after_tick(idx, stop, wb_refused);
            }
            self.cpu_cycle += 1;
        }
        if self.cpu_cycle.is_multiple_of(self.config.cpu_per_mem_clock) {
            if self.mem.epoch_closes_next_tick() {
                // Fold cache and core counters into the registry before the
                // memory system seals the epoch, so their deltas land in the
                // same snapshot as the DRAM counters.
                self.settle_all();
                self.publish_cpu_metrics();
            }
            let next = self.cpu_cycle;
            for &(id, core) in self.mem.try_tick()? {
                self.cores[core].complete_request(id);
                let wake = &mut self.sleeps[core].wake;
                *wake = (*wake).min(next);
            }
        }
        Ok(())
    }

    /// Whether core `idx`, just ticked at the current cycle, is quiet and
    /// until when. It is quiet when its next tick would only add one cycle
    /// to one stall counter: it is finished, ROB-blocked, waiting on a full
    /// load queue, store buffer or read queue, and its writeback buffer is
    /// empty or had its front refused by the write queue this tick.
    /// Writebacks appended after the drain have not been offered yet, so
    /// they keep the core awake, as does a stall that would open a new
    /// trace episode.
    fn sleep_after_tick(&self, idx: usize, stop: Option<Stop>, wb_refused: bool) -> Sleep {
        let core = &self.cores[idx];
        if !wb_refused && !core.pending_writebacks.is_empty() {
            return Sleep::AWAKE;
        }
        // The order of `tick_core`'s own checks.
        let kind = if core.pending_writebacks.len() >= core.config.stq {
            Some(StallKind::StoreBuffer)
        } else if core.finished() {
            None
        } else {
            match stop {
                None => return Sleep::AWAKE,
                Some(Stop::Blocked(kind) | Stop::Refused(kind)) => Some(kind),
            }
        };
        if self.sink.tracing() && self.stall_runs[idx].map(|run| run.kind) != kind {
            return Sleep::AWAKE;
        }
        let mut wake = core.next_timed_done();
        if wb_refused || matches!(stop, Some(Stop::Refused(_))) {
            // The DRAM queues only drain on a memory tick.
            wake = wake.min(self.next_mem_tick());
        }
        Sleep {
            wake,
            since: self.cpu_cycle.saturating_add(1),
            kind,
        }
    }

    /// The first CPU cycle after the next memory tick.
    fn next_mem_tick(&self) -> u64 {
        let per_mem = self.config.cpu_per_mem_clock;
        (self.cpu_cycle / per_mem + 1) * per_mem
    }

    /// Adds the cycles core `idx` skipped before `now` to its stall counter
    /// and, when tracing, to its open stall episode (of the same kind, or
    /// the core would not have slept).
    fn settle(&mut self, idx: usize, now: u64) {
        let sleep = &mut self.sleeps[idx];
        if now <= sleep.since {
            return;
        }
        let skipped = now - sleep.since;
        sleep.since = now;
        if let Some(kind) = sleep.kind {
            self.cores[idx].stats.add_stall(kind, skipped);
        }
        if self.sink.tracing() {
            if let Some(run) = &mut self.stall_runs[idx] {
                debug_assert_eq!(Some(run.kind), sleep.kind);
                run.len += skipped;
            }
        }
    }

    /// Settles every core up to the current cycle, so the counters, stall
    /// episodes and snapshots read what the cycle-by-cycle ticks would
    /// have left.
    fn settle_all(&mut self) {
        for idx in 0..self.cores.len() {
            self.settle(idx, self.cpu_cycle);
        }
    }

    /// Records the cycle a core just executed, given the stall it counted
    /// (`None` when it retired something or counted no stall): a stall
    /// cycle extends (or opens) an episode; progress or a stall-kind change
    /// closes the open episode as one [`TraceEvent::CoreStall`].
    fn track_stall(&mut self, idx: usize, kind: Option<StallKind>) {
        let now = self.cpu_cycle;
        match (self.stall_runs[idx], kind) {
            (Some(run), Some(k)) if run.kind == k => {
                self.stall_runs[idx] = Some(StallRun {
                    len: run.len + 1,
                    ..run
                });
            }
            (Some(run), k) => {
                self.emit_stall(idx, run);
                self.stall_runs[idx] = k.map(|kind| StallRun {
                    kind,
                    start: now,
                    len: 1,
                });
            }
            (None, Some(k)) => {
                self.stall_runs[idx] = Some(StallRun {
                    kind: k,
                    start: now,
                    len: 1,
                });
            }
            (None, None) => {}
        }
    }

    fn emit_stall(&mut self, idx: usize, run: StallRun) {
        self.sink.emit(|| TraceEvent::CoreStall {
            cycle: run.start,
            core: idx as u8,
            reason: run.kind,
            cycles: run.len,
        });
    }

    /// Publishes `cache.*` and `cpu.*` counters into the memory system's
    /// metrics registry. Called at epoch boundaries and at end of run.
    fn publish_cpu_metrics(&mut self) {
        let mut retired = 0u64;
        let mut stores = 0u64;
        let mut loads = [0u64; 3];
        let mut stalls = [0u64; 3]; // rob, ldq, store buffer
        for c in &self.cores {
            retired += c.stats.retired;
            stores += c.stats.stores;
            for (total, lvl) in loads.iter_mut().zip(c.stats.loads_by_level) {
                *total += lvl;
            }
            stalls[0] += c.stats.rob_stall_cycles;
            stalls[1] += c.stats.ldq_stall_cycles;
            stalls[2] += c.stats.store_stall_cycles;
        }
        let cpu_cycle = self.cpu_cycle;
        self.hierarchy
            .publish_metrics(&mut self.mem.observer_mut().registry);
        let reg = &mut self.mem.observer_mut().registry;
        let mut set = |name: &str, value: u64| {
            let id = reg.counter(name);
            reg.set_counter(id, value);
        };
        set("cpu.cycles", cpu_cycle);
        set("cpu.retired", retired);
        set("cpu.stores", stores);
        set("cpu.loads.l1", loads[0]);
        set("cpu.loads.l2", loads[1]);
        set("cpu.loads.memory", loads[2]);
        set("cpu.stall_cycles.rob", stalls[0]);
        set("cpu.stall_cycles.ldq", stalls[1]);
        set("cpu.stall_cycles.store_buffer", stalls[2]);
    }

    /// Closes any open stall episodes, publishes final `cache.*`/`cpu.*`
    /// counters and seals the last (partial) metrics epoch. Called
    /// automatically at the end of [`run`](Self::run); harmless to repeat.
    pub fn finalize_observability(&mut self) {
        for idx in 0..self.cores.len() {
            if let Some(run) = self.stall_runs[idx].take() {
                self.emit_stall(idx, run);
            }
        }
        self.publish_cpu_metrics();
        self.mem.finish_observability();
    }

    /// Runs core `idx` for the current cycle and, when tracing, records the
    /// cycle's stall. Returns where it stopped before using its issue width
    /// or finishing, if it did, and whether the write queue refused its
    /// front writeback.
    fn tick_core(&mut self, idx: usize) -> (Option<Stop>, bool) {
        let now = self.cpu_cycle;
        self.cores[idx].complete_ready(now);
        let wb_refused = self.drain_writebacks(idx);
        let width = u64::from(self.cores[idx].config.width);
        let mut slots = width;
        let stop = self.issue_ops(idx, now, &mut slots).err();
        if self.sink.tracing() {
            // The stall counted by a tick that retired nothing.
            let stall = match stop {
                Some(Stop::Blocked(kind) | Stop::Refused(kind)) if slots == width => Some(kind),
                _ => None,
            };
            self.track_stall(idx, stall);
        }
        (stop, wb_refused)
    }

    /// Issues core `idx`'s ops until it has used its `slots` or finished;
    /// returns where it blocked instead.
    fn issue_ops(&mut self, idx: usize, now: u64, slots: &mut u64) -> Result<(), Stop> {
        let core = &mut self.cores[idx];
        if core.pending_writebacks.len() >= core.config.stq {
            core.stats.add_stall(StallKind::StoreBuffer, 1);
            return Err(Stop::Blocked(StallKind::StoreBuffer));
        }
        let width = *slots;
        while *slots > 0 && !self.cores[idx].finished() {
            let core = &mut self.cores[idx];
            if core.rob_blocked() {
                if *slots == width {
                    core.stats.add_stall(StallKind::Rob, 1);
                }
                return Err(Stop::Blocked(StallKind::Rob));
            }
            // Compute backlog first.
            if core.pending_compute > 0 {
                let n = (*slots).min(core.pending_compute);
                core.pending_compute -= n;
                core.retire(n, now);
                *slots -= n;
                continue;
            }
            let op = match core.deferred.take() {
                Some(Deferred::Reads {
                    prefetch,
                    fill,
                    store,
                }) => {
                    self.issue_miss_reads(idx, prefetch, fill, store, now, slots)?;
                    continue;
                }
                Some(Deferred::Op(op)) => op,
                None => self.sources[idx].next_op(),
            };
            match op {
                Op::Compute(n) => self.cores[idx].pending_compute = u64::from(n),
                Op::Load(addr) => self.issue_load(idx, addr, now, slots)?,
                Op::Store(addr, mask) => self.issue_store(idx, addr, mask, now, slots)?,
            }
        }
        Ok(())
    }

    /// Offers core `idx`'s pending writebacks to the DRAM write queue,
    /// oldest first, until it refuses one. Returns whether it refused.
    fn drain_writebacks(&mut self, idx: usize) -> bool {
        while let Some(&(addr, mask)) = self.cores[idx].pending_writebacks.front() {
            let req = MemRequest::write(self.next_req_id, addr, mask).with_core(idx);
            if self.mem.try_enqueue(req).is_err() {
                return true;
            }
            self.next_req_id += 1;
            self.cores[idx].pending_writebacks.pop_front();
        }
        false
    }

    /// Issues a load; on a full load queue the op is deferred, on a full
    /// read queue its DRAM reads.
    fn issue_load(
        &mut self,
        idx: usize,
        addr: PhysAddr,
        now: u64,
        slots: &mut u64,
    ) -> Result<(), Stop> {
        let core = &mut self.cores[idx];
        if core.loads_in_flight() >= core.config.ldq {
            core.deferred = Some(Deferred::Op(Op::Load(addr)));
            core.stats.add_stall(StallKind::Ldq, 1);
            return Err(Stop::Blocked(StallKind::Ldq));
        }
        let writebacks = &mut self.cores[idx].pending_writebacks;
        let access = self.hierarchy.access_into(idx, addr, None, writebacks);
        if let Some(fill) = access.fill_read {
            return self.issue_miss_reads(idx, access.prefetch_read, fill, false, now, slots);
        }
        let (_, l2_lat) = self.hierarchy.latencies();
        let core = &mut self.cores[idx];
        if access.level == HitLevel::L2 {
            core.stats.loads_by_level[1] += 1;
            let retired = core.stats.retired;
            core.push_outstanding(Outstanding {
                done_at: Some(now + l2_lat),
                req_id: None,
                issued_at_retired: retired,
                blocking: true,
            });
        } else {
            // L1 hits are fully hidden by the OoO window.
            core.stats.loads_by_level[0] += 1;
        }
        core.retire(1, now);
        *slots -= 1;
        Ok(())
    }

    /// Issues a store; on a full store buffer the op is deferred, on a full
    /// read queue its DRAM reads.
    fn issue_store(
        &mut self,
        idx: usize,
        addr: PhysAddr,
        mask: WordMask,
        now: u64,
        slots: &mut u64,
    ) -> Result<(), Stop> {
        let core = &mut self.cores[idx];
        if core.store_fills_in_flight() >= core.config.stq {
            core.deferred = Some(Deferred::Op(Op::Store(addr, mask)));
            core.stats.add_stall(StallKind::StoreBuffer, 1);
            return Err(Stop::Blocked(StallKind::StoreBuffer));
        }
        let writebacks = &mut self.cores[idx].pending_writebacks;
        let access = self
            .hierarchy
            .access_into(idx, addr, Some(mask), writebacks);
        if let Some(fill) = access.fill_read {
            // Write-allocate: the line must be fetched, but the store buffer
            // hides the latency (non-blocking fill).
            return self.issue_miss_reads(idx, access.prefetch_read, fill, true, now, slots);
        }
        let core = &mut self.cores[idx];
        core.stats.stores += 1;
        core.retire(1, now);
        *slots -= 1;
        Ok(())
    }

    /// Enqueues the DRAM reads of a load or store that missed both caches,
    /// the prefetch first, then retires the instruction. The read the read
    /// queue refuses and those after it are deferred, counting a load-queue
    /// stall cycle for a load and a store-buffer one for a store: their
    /// retry repeats neither the cache access nor the reads enqueued.
    fn issue_miss_reads(
        &mut self,
        idx: usize,
        prefetch: Option<PhysAddr>,
        fill: PhysAddr,
        store: bool,
        now: u64,
        slots: &mut u64,
    ) -> Result<(), Stop> {
        let prefetched = prefetch.is_none_or(|line| self.issue_read(idx, line, false));
        if !prefetched || !self.issue_read(idx, fill, !store) {
            let kind = if store {
                StallKind::StoreBuffer
            } else {
                StallKind::Ldq
            };
            let core = &mut self.cores[idx];
            core.deferred = Some(Deferred::Reads {
                prefetch: prefetch.filter(|_| !prefetched),
                fill,
                store,
            });
            core.stats.add_stall(kind, 1);
            return Err(Stop::Refused(kind));
        }
        let core = &mut self.cores[idx];
        if store {
            core.stats.stores += 1;
        } else {
            core.stats.loads_by_level[2] += 1;
        }
        core.retire(1, now);
        *slots -= 1;
        Ok(())
    }

    /// The one way a core's read reaches DRAM: enqueues a read of `line`
    /// tagged with core `idx` and tracks it until its completion, which
    /// [`MemorySystem::try_tick`] hands back with the core. A `blocking`
    /// read (a demand load's) holds the ROB window. Returns `false`,
    /// changing nothing, when the read queue refuses it.
    fn issue_read(&mut self, idx: usize, line: PhysAddr, blocking: bool) -> bool {
        let id = self.next_req_id;
        let req = MemRequest::read(id, line).with_core(idx);
        if self.mem.try_enqueue(req).is_err() {
            return false;
        }
        self.next_req_id += 1;
        let core = &mut self.cores[idx];
        let issued_at_retired = core.stats.retired;
        core.push_outstanding(Outstanding {
            done_at: None,
            req_id: Some(id),
            issued_at_retired,
            blocking,
        });
        true
    }
}

fn save_stall_run(w: &mut sim_snap::SnapWriter, run: &StallRun) {
    let tag: u8 = match run.kind {
        StallKind::Rob => 0,
        StallKind::Ldq => 1,
        StallKind::StoreBuffer => 2,
    };
    w.u8(tag);
    w.u64(run.start);
    w.u64(run.len);
}

fn load_stall_run(r: &mut sim_snap::SnapReader<'_>) -> Result<StallRun, sim_snap::SnapError> {
    let kind = match r.u8()? {
        0 => StallKind::Rob,
        1 => StallKind::Ldq,
        2 => StallKind::StoreBuffer,
        tag => {
            return Err(sim_snap::SnapError::Decode(format!(
                "unknown stall kind tag {tag}"
            )))
        }
    };
    Ok(StallRun {
        kind,
        start: r.u64()?,
        len: r.u64()?,
    })
}

impl sim_snap::SnapState for CpuSystem {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        // `config` is a construction parameter (container config digest
        // covers it); the trace `sink` is a runtime attachment the restoring
        // caller re-establishes.
        w.section("cpu-system");
        w.u64(self.cpu_cycle);
        w.u64(self.next_req_id);
        w.seq(self.cores.len());
        for core in &self.cores {
            core.snap_save(w);
        }
        // One entry per core, in core order (sources.len() == cores.len()).
        for source in &self.sources {
            source.snap_save_state(w);
        }
        w.seq(self.stall_runs.len());
        for run in &self.stall_runs {
            w.bool(run.is_some());
            if let Some(run) = run {
                save_stall_run(w, run);
            }
        }
        self.hierarchy.snap_save(w);
        self.mem.snap_save(w);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("cpu-system")?;
        self.cpu_cycle = r.u64()?;
        self.next_req_id = r.u64()?;
        let n = r.seq()?;
        if n != self.cores.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "core count mismatch: snapshot has {n}, system has {}",
                self.cores.len()
            )));
        }
        for core in &mut self.cores {
            core.snap_load(r)?;
        }
        for source in &mut self.sources {
            source.snap_load_state(r)?;
        }
        let n = r.seq()?;
        if n != self.stall_runs.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "stall-run count mismatch: snapshot has {n}, system has {}",
                self.stall_runs.len()
            )));
        }
        for run in &mut self.stall_runs {
            *run = if r.bool()? {
                Some(load_stall_run(r)?)
            } else {
                None
            };
        }
        self.sleeps.fill(Sleep::AWAKE);
        self.hierarchy.snap_load(r)?;
        self.mem.snap_load(r)?;
        // A read's completion goes to the core it names.
        if let Some(core) = self.mem.read_cores().find(|&c| c >= self.cores.len()) {
            return Err(sim_snap::SnapError::Decode(format!(
                "read for core {core} out of range ({} cores)",
                self.cores.len()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::HierarchyConfig;
    use dram_sim::{DramConfig, PagePolicy, SchemeBehavior};
    use mem_model::{PhysAddr, WordMask};

    /// A source that streams loads over a configurable footprint.
    struct StreamLoads {
        next: u64,
        wrap: u64,
        compute: u32,
        toggle: bool,
    }

    impl InstructionSource for StreamLoads {
        fn next_op(&mut self) -> Op {
            self.toggle = !self.toggle;
            if self.toggle && self.compute > 0 {
                return Op::Compute(self.compute);
            }
            let a = PhysAddr::new((self.next * 64) % self.wrap);
            self.next += 1;
            Op::Load(a)
        }

        fn snap_save_state(&self, w: &mut sim_snap::SnapWriter) {
            w.u64(self.next);
            w.bool(self.toggle);
        }

        fn snap_load_state(
            &mut self,
            r: &mut sim_snap::SnapReader<'_>,
        ) -> Result<(), sim_snap::SnapError> {
            self.next = r.u64()?;
            self.toggle = r.bool()?;
            Ok(())
        }
    }

    /// A source that streams stores.
    struct StreamStores {
        next: u64,
        wrap: u64,
    }

    impl InstructionSource for StreamStores {
        fn next_op(&mut self) -> Op {
            let a = PhysAddr::new((self.next * 64) % self.wrap);
            self.next += 1;
            Op::Store(a, WordMask::single((self.next % 8) as u8))
        }
    }

    fn build(sources: Vec<Box<dyn InstructionSource>>, insts: u64) -> CpuSystem {
        let cores = sources.len();
        let hierarchy = CacheHierarchy::new(HierarchyConfig::paper(cores));
        let mem = MemorySystem::new(DramConfig::paper_baseline(
            PagePolicy::RelaxedClosePage,
            SchemeBehavior::baseline(),
        ));
        CpuSystem::new(SystemConfig::paper(), hierarchy, mem, sources, insts)
    }

    /// Same system with deliberately tiny caches so short tests exercise
    /// LLC evictions.
    fn build_tiny_caches(sources: Vec<Box<dyn InstructionSource>>, insts: u64) -> CpuSystem {
        use cache_sim::CacheConfig;
        let cores = sources.len();
        let hierarchy = CacheHierarchy::new(HierarchyConfig {
            l1: CacheConfig {
                size_bytes: 1024,
                ways: 2,
                latency_cycles: 2,
            },
            l2: CacheConfig {
                size_bytes: 8 * 1024,
                ways: 4,
                latency_cycles: 20,
            },
            cores,
            dbi: false,
            prefetch_next_line: false,
        });
        let mem = MemorySystem::new(DramConfig::paper_baseline(
            PagePolicy::RelaxedClosePage,
            SchemeBehavior::baseline(),
        ));
        CpuSystem::new(SystemConfig::paper(), hierarchy, mem, sources, insts)
    }

    #[test]
    fn pure_compute_runs_at_full_width() {
        struct AllCompute;
        impl InstructionSource for AllCompute {
            fn next_op(&mut self) -> Op {
                Op::Compute(100)
            }
        }
        let mut sys = build(vec![Box::new(AllCompute)], 10_000);
        let out = sys.run(1_000_000);
        assert!(!out.timed_out);
        let ipc = out.per_core[0].ipc();
        assert!(
            (ipc - 4.0).abs() < 0.1,
            "compute-bound IPC {ipc} should be ~width"
        );
    }

    #[test]
    fn cache_resident_loads_stay_fast() {
        // 16 KB footprint fits L1.
        let src = StreamLoads {
            next: 0,
            wrap: 16 * 1024,
            compute: 0,
            toggle: false,
        };
        let mut sys = build(vec![Box::new(src)], 100_000);
        let out = sys.run(10_000_000);
        assert!(!out.timed_out);
        let ipc = out.per_core[0].ipc();
        assert!(
            ipc > 3.0,
            "L1-resident loads should sustain near-width IPC, got {ipc}"
        );
        let loads = sys.cores()[0].stats.loads_by_level;
        assert!(loads[0] > loads[1] + loads[2], "mostly L1 hits: {loads:?}");
    }

    #[test]
    fn memory_bound_loads_stall_the_core() {
        // 64 MB footprint with a large stride defeats both cache levels.
        let src = StreamLoads {
            next: 0,
            wrap: 64 * 1024 * 1024,
            compute: 0,
            toggle: false,
        };
        let mut sys = build(vec![Box::new(src)], 20_000);
        let out = sys.run(50_000_000);
        assert!(!out.timed_out);
        let ipc = out.per_core[0].ipc();
        assert!(ipc < 2.0, "memory-bound IPC should collapse, got {ipc}");
        let stats = sys.cores()[0].stats;
        assert!(
            stats.rob_stall_cycles + stats.ldq_stall_cycles > 0,
            "a memory-bound core must stall on the ROB window or load queue"
        );
        assert!(sys.mem().stats().reads_completed > 100);
    }

    #[test]
    fn stores_generate_dram_writebacks() {
        let src = StreamStores {
            next: 0,
            wrap: 64 * 1024 * 1024,
        };
        let mut sys = build_tiny_caches(vec![Box::new(src)], 40_000);
        let out = sys.run(100_000_000);
        assert!(!out.timed_out);
        assert!(
            sys.mem().stats().writes_completed > 100,
            "store stream must push writebacks to DRAM, got {}",
            sys.mem().stats().writes_completed
        );
        // Write-allocate also produces fill reads.
        assert!(sys.mem().stats().reads_completed > 100);
    }

    #[test]
    fn ldq_limits_outstanding_loads() {
        // Random loads defeat caches; the core can never have more than
        // `ldq` blocking loads in flight.
        struct RandomLoads(u64);
        impl InstructionSource for RandomLoads {
            fn next_op(&mut self) -> Op {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
                Op::Load(PhysAddr::new((self.0 >> 16) % (1 << 31)))
            }
        }
        let mut sys = build(vec![Box::new(RandomLoads(9))], 3_000);
        // Step manually and sample the invariant.
        for _ in 0..200_000 {
            if sys.cores()[0].finished() {
                break;
            }
            sys.tick_cpu_cycle();
            let in_flight = sys.cores()[0].loads_in_flight();
            assert!(
                in_flight <= sys.cores()[0].config.ldq,
                "LDQ overflow: {in_flight}"
            );
        }
        assert!(
            sys.cores()[0].stats.loads_by_level[2] > 0,
            "loads reached memory"
        );
    }

    #[test]
    fn a_refused_demand_read_is_retried_not_turned_into_a_cache_hit() {
        // Two read-queue slots per channel against a 32-entry load queue:
        // the read queue refuses demand reads all the time. A refused read
        // is retried as a read; the load must not hit the L1 it already
        // filled and skip DRAM.
        struct RandomLoads(u64);
        impl InstructionSource for RandomLoads {
            fn next_op(&mut self) -> Op {
                self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
                Op::Load(PhysAddr::new((self.0 >> 16) % (1 << 31)))
            }
        }
        let mut dram =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline());
        dram.queues.read_capacity = 2;
        let hierarchy = CacheHierarchy::new(HierarchyConfig::paper(1));
        assert!(!hierarchy.config().prefetch_next_line);
        let mem = MemorySystem::new(dram);
        let sources: Vec<Box<dyn InstructionSource>> = vec![Box::new(RandomLoads(3))];
        let mut sys = CpuSystem::new(SystemConfig::paper(), hierarchy, mem, sources, 4_000);
        let mut refusals = 0;
        while !sys.cores()[0].finished() {
            sys.tick_cpu_cycle();
            if matches!(sys.cores()[0].deferred, Some(Deferred::Reads { .. })) {
                refusals += 1;
            }
        }
        let out = sys.run(50_000_000);
        assert!(!out.timed_out);
        let misses = sys.hierarchy().stats().l2_misses;
        assert!(misses > 100);
        assert_eq!(sys.cores()[0].stats.loads_by_level[2], misses);
        assert_eq!(sys.mem().stats().reads_completed, misses);
        assert!(refusals > 0, "the read queue must refuse some reads");
    }

    #[test]
    fn store_buffer_backpressure_stalls_instead_of_dropping() {
        // A pure store stream over tiny caches floods the DRAM write queue;
        // the core must stall (store_stall_cycles) but never lose writebacks.
        let src = StreamStores {
            next: 0,
            wrap: 64 * 1024 * 1024,
        };
        let mut sys = build_tiny_caches(vec![Box::new(src)], 60_000);
        let out = sys.run(100_000_000);
        assert!(!out.timed_out);
        let stats = sys.cores()[0].stats;
        assert!(
            stats.store_stall_cycles > 0,
            "write-queue pressure must stall the core"
        );
        // Every line dirtied in steady state eventually reaches DRAM: the
        // write count tracks the L2 eviction count exactly.
        assert_eq!(
            sys.mem().stats().writes_completed,
            sys.hierarchy().stats().writebacks - sys.cores()[0].pending_writebacks.len() as u64,
        );
    }

    #[test]
    fn finished_cores_drain_without_fetching() {
        let src = StreamLoads {
            next: 0,
            wrap: 64 * 1024 * 1024,
            compute: 0,
            toggle: false,
        };
        let mut sys = build(vec![Box::new(src)], 1_000);
        let out = sys.run(10_000_000);
        assert!(!out.timed_out);
        // Retired may overshoot the target by at most one issue width.
        let retired = sys.cores()[0].stats.retired;
        assert!(retired >= 1_000);
        assert!(retired < 1_000 + 8, "no fetching after finish: {retired}");
    }

    #[test]
    fn stall_episodes_and_cpu_counters_reach_the_observability_layer() {
        use sim_obs::{RingSink, TraceEvent};
        use std::cell::RefCell;
        use std::rc::Rc;

        let src = StreamLoads {
            next: 0,
            wrap: 64 * 1024 * 1024,
            compute: 0,
            toggle: false,
        };
        let mut sys = build(vec![Box::new(src)], 20_000);
        let ring = Rc::new(RefCell::new(RingSink::new(1 << 17)));
        sys.set_trace_sink(Box::new(Rc::clone(&ring)));
        sys.mem_mut().set_metrics_epochs(2_000, None);
        let out = sys.run(50_000_000);
        assert!(!out.timed_out);

        // Stall episodes cover fully-stalled cycles: each accounted cycle
        // corresponds to a stall-counter increment with no retirement, so
        // the episode total is positive and never exceeds the raw counters.
        let stats = sys.cores()[0].stats;
        let episode_cycles: u64 = ring
            .borrow()
            .events()
            .filter_map(|e| match e {
                TraceEvent::CoreStall { cycles, .. } => Some(*cycles),
                _ => None,
            })
            .sum();
        let raw = stats.rob_stall_cycles + stats.ldq_stall_cycles + stats.store_stall_cycles;
        assert!(
            episode_cycles > 0,
            "a memory-bound stream must produce stall episodes"
        );
        assert!(
            episode_cycles <= raw,
            "episodes ({episode_cycles}) cannot exceed raw stall counters ({raw})"
        );

        // cpu.* counters land in the DRAM-side registry…
        let reg = &sys.mem().observer().registry;
        assert_eq!(reg.counter_value("cpu.retired"), Some(stats.retired));
        assert_eq!(reg.counter_value("cpu.stores"), Some(stats.stores));
        assert_eq!(
            reg.counter_value("cpu.loads.memory"),
            Some(stats.loads_by_level[2])
        );
        assert_eq!(reg.counter_value("cpu.cycles"), Some(sys.cpu_cycle()));
        assert!(reg.counter_value("cache.l1.misses").is_some());

        // …and their epoch deltas sum back to the end-of-run totals.
        let delta_sum: u64 = sys
            .mem()
            .observer()
            .snapshots()
            .iter()
            .flat_map(|s| s.counters.iter())
            .filter(|(name, _)| name == "cpu.retired")
            .map(|(_, delta)| *delta)
            .sum();
        assert_eq!(delta_sum, stats.retired);
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically_multicore() {
        use sim_snap::SnapState;
        let mk = |next: u64, toggle: bool| -> Box<dyn InstructionSource> {
            Box::new(StreamLoads {
                next,
                wrap: 64 * 1024 * 1024,
                compute: 2,
                toggle,
            })
        };
        let mut live = build(vec![mk(0, false), mk(0, false)], 1_000_000);
        for _ in 0..40_000 {
            live.tick_cpu_cycle();
        }
        let mut w = sim_snap::SnapWriter::new();
        live.snap_save(&mut w);
        let bytes = w.into_bytes();

        // The fresh system gets deliberately skewed sources: the overlay
        // must replace their positions, or the streams diverge immediately.
        let mut fresh = build(vec![mk(7_777, true), mk(7_777, true)], 1_000_000);
        let mut r = sim_snap::SnapReader::new(&bytes);
        fresh.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(fresh.cpu_cycle(), live.cpu_cycle());

        for _ in 0..40_000 {
            live.tick_cpu_cycle();
            fresh.tick_cpu_cycle();
        }
        for core in 0..2 {
            assert_eq!(
                format!("{:?}", live.cores()[core].stats),
                format!("{:?}", fresh.cores()[core].stats),
                "core {core} stats diverged after restore"
            );
        }
        assert_eq!(
            live.mem().stats().reads_completed,
            fresh.mem().stats().reads_completed
        );
        assert_eq!(
            live.mem().stats().writes_completed,
            fresh.mem().stats().writes_completed
        );
        assert_eq!(
            live.mem().stats().activations,
            fresh.mem().stats().activations
        );
        assert_eq!(
            live.mem().energy().total().to_bits(),
            fresh.mem().energy().total().to_bits()
        );
    }

    #[test]
    fn checkpoint_crash_resume_matches_uninterrupted_run() {
        use sim_snap::SnapState;
        let mk = |next: u64| -> Box<dyn InstructionSource> {
            Box::new(StreamLoads {
                next,
                wrap: 64 * 1024 * 1024,
                compute: 0,
                toggle: false,
            })
        };
        let mut reference = build(vec![mk(0)], 20_000);
        let ref_out = reference.try_run(50_000_000).unwrap();
        assert!(!ref_out.timed_out);

        // Crash after the third checkpoint: snapshots are taken on DRAM
        // cycle boundaries, then the run aborts mid-flight.
        let mut crashing = build(vec![mk(0)], 20_000);
        let mut snaps: Vec<(u64, Vec<u8>)> = Vec::new();
        let out = crashing
            .try_run_with_checkpoints(50_000_000, 2_000, |sys, mem_cycle| {
                let mut w = sim_snap::SnapWriter::new();
                sys.snap_save(&mut w);
                snaps.push((mem_cycle, w.into_bytes()));
                snaps.len() < 3
            })
            .unwrap();
        assert!(
            out.timed_out,
            "an aborted run reports the timeout-style stop"
        );
        assert_eq!(snaps.len(), 3);
        let (snap_cycle, bytes) = snaps.last().unwrap();
        assert!(*snap_cycle > 0);

        // Resume on a fresh system with a skewed source and finish the run.
        let mut resumed = build(vec![mk(9_999)], 20_000);
        let mut r = sim_snap::SnapReader::new(bytes);
        resumed.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        let res_out = resumed.try_run(50_000_000).unwrap();

        assert!(!res_out.timed_out);
        assert_eq!(res_out.cpu_cycles, ref_out.cpu_cycles);
        assert_eq!(
            res_out.per_core[0].instructions,
            ref_out.per_core[0].instructions
        );
        assert_eq!(res_out.per_core[0].cycles, ref_out.per_core[0].cycles);
        assert_eq!(
            resumed.mem().stats().reads_completed,
            reference.mem().stats().reads_completed
        );
        assert_eq!(
            resumed.mem().stats().activations,
            reference.mem().stats().activations
        );
        assert_eq!(
            resumed.mem().energy().total().to_bits(),
            reference.mem().energy().total().to_bits()
        );
    }

    #[test]
    fn restoring_an_in_flight_read_for_a_missing_core_is_a_decode_error() {
        use sim_snap::SnapState;
        /// One load, then compute only: the run's one DRAM read.
        struct OneLoad(bool);
        impl InstructionSource for OneLoad {
            fn next_op(&mut self) -> Op {
                if std::mem::replace(&mut self.0, true) {
                    Op::Compute(100)
                } else {
                    Op::Load(PhysAddr::new(0x4000))
                }
            }
        }
        // A request id whose eight bytes occur nowhere else in the image.
        const ID: u64 = 0x5eed_f00d_cafe_d00d;
        let mut sys = build(vec![Box::new(OneLoad(false))], 1_000_000);
        sys.next_req_id = ID;
        // The image taken on the cycle before the read completes has it in
        // flight.
        let mut image = Vec::new();
        while sys.mem().stats().reads_completed == 0 {
            let mut w = sim_snap::SnapWriter::new();
            sys.snap_save(&mut w);
            image = w.into_bytes();
            sys.tick_cpu_cycle();
        }
        // The id is in the core's outstanding list, then in the DRAM
        // channel's in-flight reads, written as its id and then its core.
        let id = ID.to_le_bytes();
        assert_eq!(image.windows(8).filter(|w| *w == id).count(), 2);
        let at = image.windows(8).rposition(|w| w == id).unwrap() + 8;
        assert_eq!(image[at..at + 8], 0u64.to_le_bytes());
        image[at..at + 8].copy_from_slice(&1u64.to_le_bytes());
        let mut fresh = build(vec![Box::new(OneLoad(false))], 1_000_000);
        let err = fresh
            .snap_load(&mut sim_snap::SnapReader::new(&image))
            .unwrap_err();
        assert!(
            matches!(&err, sim_snap::SnapError::Decode(m) if m.contains("core 1 out of range")),
            "{err}"
        );
    }

    #[test]
    fn four_cores_share_the_hierarchy() {
        let mk = || -> Box<dyn InstructionSource> {
            Box::new(StreamLoads {
                next: 0,
                wrap: 32 * 1024 * 1024,
                compute: 2,
                toggle: false,
            })
        };
        let mut sys = build(vec![mk(), mk(), mk(), mk()], 5_000);
        let out = sys.run(50_000_000);
        assert!(!out.timed_out);
        assert_eq!(out.per_core.len(), 4);
        for r in &out.per_core {
            assert!(r.instructions >= 5_000);
            assert!(r.ipc() > 0.0);
        }
    }
}
