//! The simplified out-of-order core model.
//!
//! This is the substitution for gem5's detailed O3 pipeline (see DESIGN.md):
//! an event-consuming core with the resource limits that matter to memory
//! studies — a reorder-buffer window bounding how far execution runs ahead
//! of the oldest outstanding load, a load-queue bound on memory-level
//! parallelism, and a store buffer that drains writebacks to the DRAM write
//! queue with back-pressure.

use std::collections::VecDeque;

use mem_model::{PhysAddr, RequestId, WordMask};
use sim_obs::StallKind;

/// One event in a core's dynamic instruction stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `0` is allowed and simply fetches the next op.
    Compute(u32),
    /// A load from the given address.
    Load(PhysAddr),
    /// A store dirtying the masked words of the addressed line.
    Store(PhysAddr, WordMask),
}

/// An infinite dynamic instruction stream feeding one core.
///
/// Implemented by the workload generators; the stream never ends — the
/// system stops fetching once the core reaches its instruction target.
pub trait InstructionSource {
    /// Produces the next operation.
    fn next_op(&mut self) -> Op;

    /// Serialises the source's mutable position into a snapshot.
    ///
    /// The default writes nothing: a stateless source (or one whose stream
    /// is a pure function of construction parameters) restores for free.
    /// Stateful sources (generators with RNG state, trace replayers with a
    /// cursor) must override both hooks symmetrically, or a restored run
    /// will diverge from the uninterrupted one.
    fn snap_save_state(&self, w: &mut sim_snap::SnapWriter) {
        let _ = w;
    }

    /// Restores the source's mutable position from a snapshot, overlaying
    /// onto a freshly constructed (same-configuration) source.
    ///
    /// # Errors
    ///
    /// Returns a [`sim_snap::SnapError`] when the payload does not match
    /// what [`Self::snap_save_state`] wrote.
    fn snap_load_state(
        &mut self,
        r: &mut sim_snap::SnapReader<'_>,
    ) -> Result<(), sim_snap::SnapError> {
        let _ = r;
        Ok(())
    }
}

/// What a core holds back because a resource was full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deferred {
    /// An op fetched but not yet issued; it is issued from the start.
    Op(Op),
    /// The DRAM reads of a load or store that missed both caches, from the
    /// first one the read queue refused. The cache access already happened,
    /// so only these reads are retried; the instruction retires once its
    /// fill is enqueued.
    Reads {
        /// The next-line prefetch, when it is still to be issued.
        prefetch: Option<PhysAddr>,
        /// The accessed line's fill.
        fill: PhysAddr,
        /// Whether the access is a store, whose fill does not block the ROB.
        store: bool,
    },
}

/// Static core parameters (paper Table 3: 8-way superscalar,
/// LDQ/STQ/ROB = 32/32/192, 3.2 GHz).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreConfig {
    /// Instructions retired per CPU cycle when nothing stalls.
    pub width: u32,
    /// Instructions that may retire past the oldest outstanding load.
    pub rob: u64,
    /// Maximum outstanding demand loads (memory-level parallelism bound).
    pub ldq: usize,
    /// Store-buffer depth: pending writebacks plus outstanding store fills
    /// beyond this stall the core.
    pub stq: usize,
}

impl CoreConfig {
    /// The paper's core, with an effective width of 4 (8-wide fetch rarely
    /// sustains more than half its width on memory-intensive code).
    pub const fn paper() -> Self {
        CoreConfig {
            width: 4,
            rob: 192,
            ldq: 32,
            stq: 32,
        }
    }
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig::paper()
    }
}

/// An outstanding memory operation the core tracks.
#[derive(Debug, Clone, Copy)]
pub struct Outstanding {
    /// Completion by time (L2 hits) or by DRAM callback (reads).
    pub done_at: Option<u64>,
    /// DRAM request id, when the operation went to memory.
    pub req_id: Option<RequestId>,
    /// Retired-instruction count at issue, for the ROB window check.
    pub issued_at_retired: u64,
    /// `true` for demand loads (ROB-blocking), `false` for store fills and
    /// prefetches.
    pub blocking: bool,
}

/// Per-core stall and progress counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreStats {
    /// Retired instructions.
    pub retired: u64,
    /// Cycles fully stalled on the ROB window.
    pub rob_stall_cycles: u64,
    /// Cycles fully stalled on the load queue.
    pub ldq_stall_cycles: u64,
    /// Cycles fully stalled on the store buffer.
    pub store_stall_cycles: u64,
    /// Loads issued, by serving level: [L1, L2, memory].
    pub loads_by_level: [u64; 3],
    /// Stores executed.
    pub stores: u64,
}

impl CoreStats {
    /// Adds `cycles` fully stalled cycles to the counter of `kind`.
    pub fn add_stall(&mut self, kind: StallKind, cycles: u64) {
        match kind {
            StallKind::Rob => self.rob_stall_cycles += cycles,
            StallKind::Ldq => self.ldq_stall_cycles += cycles,
            StallKind::StoreBuffer => self.store_stall_cycles += cycles,
        }
    }
}

/// Architectural state of one core.
///
/// The core is driven by [`crate::CpuSystem`]; it exposes its state so tests
/// can poke at individual transitions.
#[derive(Debug)]
pub struct Core {
    /// Configuration.
    pub config: CoreConfig,
    /// In-flight memory operations, in issue order. Private so that
    /// `next_timed_done` cannot go stale: pushes go through
    /// [`Core::push_outstanding`] and a restore recomputes it.
    outstanding: Vec<Outstanding>,
    /// A lower bound on the earliest `done_at` in `outstanding`
    /// (`u64::MAX` when nothing is timed): until then no timed operation
    /// can complete.
    next_timed_done: u64,
    /// Writebacks awaiting space in the DRAM write queue:
    /// `(line, dirty mask)`.
    pub pending_writebacks: VecDeque<(PhysAddr, WordMask)>,
    /// Non-memory instructions remaining from the current [`Op::Compute`].
    pub pending_compute: u64,
    /// An op or DRAM read held back because a resource was full.
    pub deferred: Option<Deferred>,
    /// Instruction count at which the core stops fetching.
    pub target: u64,
    /// Counters.
    pub stats: CoreStats,
    /// CPU cycle at which the target was reached.
    pub finished_at: Option<u64>,
}

impl Core {
    /// Creates a core that will retire `target` instructions.
    pub fn new(config: CoreConfig, target: u64) -> Self {
        Core {
            config,
            outstanding: Vec::new(),
            next_timed_done: u64::MAX,
            pending_writebacks: VecDeque::new(),
            pending_compute: 0,
            deferred: None,
            target,
            stats: CoreStats::default(),
            finished_at: None,
        }
    }

    /// `true` once the instruction target has been retired.
    pub fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Tracks a newly issued memory operation. Operations must be pushed
    /// in issue order: `issued_at_retired` never decreases, which is what
    /// lets [`Core::rob_blocked`] read only the first blocking entry.
    pub fn push_outstanding(&mut self, op: Outstanding) {
        debug_assert!(
            self.outstanding
                .last()
                .is_none_or(|last| last.issued_at_retired <= op.issued_at_retired),
            "outstanding operations pushed out of issue order"
        );
        if let Some(t) = op.done_at {
            self.next_timed_done = self.next_timed_done.min(t);
        }
        self.outstanding.push(op);
    }

    /// Retires time-based operations whose completion time has come.
    pub fn complete_ready(&mut self, now: u64) {
        if now < self.next_timed_done {
            return;
        }
        self.outstanding.retain(|o| match o.done_at {
            Some(t) => t > now,
            None => true,
        });
        self.next_timed_done = self.earliest_timed_done();
    }

    /// A lower bound on the earliest cycle a timed operation completes
    /// (`u64::MAX` when none is in flight).
    pub fn next_timed_done(&self) -> u64 {
        self.next_timed_done
    }

    fn earliest_timed_done(&self) -> u64 {
        self.outstanding
            .iter()
            .filter_map(|o| o.done_at)
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Marks the operation with `req_id` complete.
    pub fn complete_request(&mut self, req_id: RequestId) {
        self.outstanding.retain(|o| o.req_id != Some(req_id));
    }

    /// The ROB gate: `true` when the window behind the oldest outstanding
    /// blocking load is exhausted. Entries sit in issue order, so the first
    /// blocking one is the oldest.
    pub fn rob_blocked(&self) -> bool {
        self.outstanding
            .iter()
            .find(|o| o.blocking)
            .is_some_and(|oldest| self.stats.retired >= oldest.issued_at_retired + self.config.rob)
    }

    /// Outstanding blocking loads.
    pub fn loads_in_flight(&self) -> usize {
        self.outstanding.iter().filter(|o| o.blocking).count()
    }

    /// Outstanding store fills.
    pub fn store_fills_in_flight(&self) -> usize {
        self.outstanding.iter().filter(|o| !o.blocking).count()
    }

    /// Retires `n` instructions, recording the finish cycle when the target
    /// is crossed.
    pub fn retire(&mut self, n: u64, now: u64) {
        self.stats.retired += n;
        if self.finished_at.is_none() && self.stats.retired >= self.target {
            self.finished_at = Some(now);
        }
    }
}

/// Tag of [`Deferred::Reads`], after the three [`Op`] tags.
const DEFERRED_READS_TAG: u8 = 3;

/// Writes a [`Deferred`] with a leading tag byte: 0–2 for an op's kind, 3
/// for a miss's reads.
fn save_deferred(w: &mut sim_snap::SnapWriter, deferred: Deferred) {
    match deferred {
        Deferred::Op(Op::Compute(n)) => {
            w.u8(0);
            w.u32(n);
        }
        Deferred::Op(Op::Load(a)) => {
            w.u8(1);
            w.u64(a.raw());
        }
        Deferred::Op(Op::Store(a, m)) => {
            w.u8(2);
            w.u64(a.raw());
            w.u8(m.bits());
        }
        Deferred::Reads {
            prefetch,
            fill,
            store,
        } => {
            w.u8(DEFERRED_READS_TAG);
            w.opt_u64(prefetch.map(PhysAddr::raw));
            w.u64(fill.raw());
            w.bool(store);
        }
    }
}

/// Reads one [`Deferred`] written by [`save_deferred`].
fn load_deferred(r: &mut sim_snap::SnapReader<'_>) -> Result<Deferred, sim_snap::SnapError> {
    let op = match r.u8()? {
        0 => Op::Compute(r.u32()?),
        1 => Op::Load(PhysAddr::new(r.u64()?)),
        2 => {
            let addr = PhysAddr::new(r.u64()?);
            let mask = WordMask::from_bits(r.u8()?);
            Op::Store(addr, mask)
        }
        DEFERRED_READS_TAG => {
            return Ok(Deferred::Reads {
                prefetch: r.opt_u64()?.map(PhysAddr::new),
                fill: PhysAddr::new(r.u64()?),
                store: r.bool()?,
            })
        }
        tag => return Err(sim_snap::SnapError::Decode(format!("unknown op tag {tag}"))),
    };
    Ok(Deferred::Op(op))
}

impl sim_snap::SnapState for Core {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        // `config` and `target` are construction parameters, covered by the
        // container's config digest.
        w.seq(self.outstanding.len());
        for o in &self.outstanding {
            w.opt_u64(o.done_at);
            w.opt_u64(o.req_id);
            w.u64(o.issued_at_retired);
            w.bool(o.blocking);
        }
        w.seq(self.pending_writebacks.len());
        for &(addr, mask) in &self.pending_writebacks {
            w.u64(addr.raw());
            w.u8(mask.bits());
        }
        w.u64(self.pending_compute);
        w.bool(self.deferred.is_some());
        if let Some(deferred) = self.deferred {
            save_deferred(w, deferred);
        }
        w.u64(self.stats.retired);
        w.u64(self.stats.rob_stall_cycles);
        w.u64(self.stats.ldq_stall_cycles);
        w.u64(self.stats.store_stall_cycles);
        for level in self.stats.loads_by_level {
            w.u64(level);
        }
        w.u64(self.stats.stores);
        w.opt_u64(self.finished_at);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        let n = r.seq()?;
        self.outstanding.clear();
        for _ in 0..n {
            self.outstanding.push(Outstanding {
                done_at: r.opt_u64()?,
                req_id: r.opt_u64()?,
                issued_at_retired: r.u64()?,
                blocking: r.bool()?,
            });
        }
        self.next_timed_done = self.earliest_timed_done();
        let n = r.seq()?;
        self.pending_writebacks.clear();
        for _ in 0..n {
            let addr = PhysAddr::new(r.u64()?);
            let mask = WordMask::from_bits(r.u8()?);
            self.pending_writebacks.push_back((addr, mask));
        }
        self.pending_compute = r.u64()?;
        self.deferred = if r.bool()? {
            Some(load_deferred(r)?)
        } else {
            None
        };
        self.stats.retired = r.u64()?;
        self.stats.rob_stall_cycles = r.u64()?;
        self.stats.ldq_stall_cycles = r.u64()?;
        self.stats.store_stall_cycles = r.u64()?;
        for level in &mut self.stats.loads_by_level {
            *level = r.u64()?;
        }
        self.stats.stores = r.u64()?;
        self.finished_at = r.opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rob_gate_engages_at_window() {
        let mut c = Core::new(
            CoreConfig {
                width: 4,
                rob: 8,
                ldq: 4,
                stq: 4,
            },
            1000,
        );
        assert!(!c.rob_blocked());
        c.push_outstanding(Outstanding {
            done_at: None,
            req_id: Some(1),
            issued_at_retired: 0,
            blocking: true,
        });
        c.retire(7, 0);
        assert!(!c.rob_blocked());
        c.retire(1, 0);
        assert!(c.rob_blocked());
        c.complete_request(1);
        assert!(!c.rob_blocked());
    }

    #[test]
    fn store_fills_do_not_block_rob() {
        let mut c = Core::new(
            CoreConfig {
                width: 4,
                rob: 8,
                ldq: 4,
                stq: 4,
            },
            1000,
        );
        c.push_outstanding(Outstanding {
            done_at: None,
            req_id: Some(1),
            issued_at_retired: 0,
            blocking: false,
        });
        c.retire(100, 0);
        assert!(!c.rob_blocked(), "store fills never gate retirement");
        assert_eq!(c.store_fills_in_flight(), 1);
        assert_eq!(c.loads_in_flight(), 0);
    }

    #[test]
    fn timed_completions_expire() {
        let mut c = Core::new(CoreConfig::paper(), 1000);
        c.push_outstanding(Outstanding {
            done_at: Some(20),
            req_id: None,
            issued_at_retired: 0,
            blocking: true,
        });
        c.complete_ready(19);
        assert_eq!(c.loads_in_flight(), 1);
        c.complete_ready(20);
        assert_eq!(c.loads_in_flight(), 0);
    }

    #[test]
    fn deferred_ops_and_reads_survive_a_snapshot() {
        use sim_snap::SnapState;
        for deferred in [
            Deferred::Op(Op::Store(PhysAddr::new(64), WordMask::single(3))),
            Deferred::Reads {
                prefetch: Some(PhysAddr::new(0x1280)),
                fill: PhysAddr::new(0x1240),
                store: true,
            },
            Deferred::Reads {
                prefetch: None,
                fill: PhysAddr::new(0x1240),
                store: false,
            },
        ] {
            let mut c = Core::new(CoreConfig::paper(), 10);
            c.deferred = Some(deferred);
            let mut w = sim_snap::SnapWriter::new();
            c.snap_save(&mut w);
            let bytes = w.into_bytes();
            let mut restored = Core::new(CoreConfig::paper(), 10);
            let mut r = sim_snap::SnapReader::new(&bytes);
            restored.snap_load(&mut r).unwrap();
            r.finish().unwrap();
            assert_eq!(restored.deferred, Some(deferred));
        }
    }

    #[test]
    fn finish_records_cycle() {
        let mut c = Core::new(CoreConfig::paper(), 10);
        c.retire(9, 5);
        assert!(!c.finished());
        c.retire(3, 7);
        assert_eq!(c.finished_at, Some(7));
        // Further retires do not move the finish cycle.
        c.retire(5, 9);
        assert_eq!(c.finished_at, Some(7));
    }
}
