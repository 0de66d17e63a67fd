//! Per-bank state: open row, partial coverage, and timing fences.

use mem_model::WordMask;

use crate::timing::TimingParams;

/// The row a bank currently holds in its sense amplifiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenRow {
    /// Row index.
    pub row: u32,
    /// Words of any line in this row that the (possibly partial) activation
    /// made accessible. [`WordMask::FULL`] for conventional activations.
    pub coverage: WordMask,
    /// MATs the activation drove (for statistics).
    pub mats: u32,
    /// Column accesses served from this open row so far (fairness cap).
    pub hits_served: u32,
    /// Cycle of the activate that opened the row.
    pub opened_at: u64,
}

/// One DRAM bank, modelled as an open-row record plus timing fences.
///
/// Instead of an explicit state machine, the bank tracks the earliest cycle
/// each command class becomes legal; the scheduler compares fences against
/// the current cycle. `open == None` with `ready_for_activate_at` in the
/// future represents "precharging"; `open == Some` with
/// `ready_for_column_at` in the future represents "activating".
#[derive(Debug, Clone)]
pub struct Bank {
    /// Open row, if any.
    pub open: Option<OpenRow>,
    /// Earliest cycle a column command may issue (set by ACT + tRCD, plus
    /// PRA's extra mask-delivery cycle for partial activations).
    pub ready_for_column_at: u64,
    /// Earliest cycle a precharge may issue (tRAS after ACT, raised by
    /// column accesses: tRTP after reads, WL+burst+tWR after writes).
    pub ready_for_precharge_at: u64,
    /// Earliest cycle an activate may issue (tRP after the last precharge).
    pub ready_for_activate_at: u64,
    /// If set, the bank auto-precharges itself at this cycle (restricted
    /// close-page issues every column command with auto-precharge).
    pub auto_precharge_at: Option<u64>,
}

impl Bank {
    /// A bank with no open row and every command legal immediately.
    pub fn new() -> Self {
        Bank {
            open: None,
            ready_for_column_at: 0,
            ready_for_precharge_at: 0,
            ready_for_activate_at: 0,
            auto_precharge_at: None,
        }
    }

    /// `true` if the bank has an open row (including one still activating).
    pub fn is_open(&self) -> bool {
        self.open.is_some()
    }

    /// Applies an activate command issued at `now`.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is already open or still precharging —
    /// the scheduler must never issue an illegal ACT.
    pub fn activate(
        &mut self,
        now: u64,
        row: u32,
        coverage: WordMask,
        mats: u32,
        extra_cycles: u64,
        t: &TimingParams,
    ) {
        debug_assert!(self.open.is_none(), "ACT to an open bank");
        debug_assert!(now >= self.ready_for_activate_at, "ACT during precharge");
        self.open = Some(OpenRow {
            row,
            coverage,
            mats,
            hits_served: 0,
            opened_at: now,
        });
        self.ready_for_column_at = now.saturating_add(t.trcd).saturating_add(extra_cycles);
        self.ready_for_precharge_at = now + t.tras;
        self.auto_precharge_at = None;
    }

    /// Counts a column access against the open row. The scheduler selects
    /// only open banks, and the protocol checker independently rejects a
    /// column command to a closed bank.
    fn count_hit(&mut self) {
        debug_assert!(self.open.is_some(), "column to a closed bank");
        if let Some(open) = self.open.as_mut() {
            open.hits_served += 1;
        }
    }

    /// Applies a read column command issued at `now`; returns the cycle the
    /// data burst completes.
    pub fn column_read(&mut self, now: u64, burst_cycles: u64, t: &TimingParams) -> u64 {
        debug_assert!(now >= self.ready_for_column_at);
        self.count_hit();
        let done = now.saturating_add(t.tcas).saturating_add(burst_cycles);
        self.ready_for_precharge_at = self.ready_for_precharge_at.max(now + t.trtp);
        done
    }

    /// Applies a write column command issued at `now`; returns the cycle the
    /// data burst completes on the bus.
    pub fn column_write(&mut self, now: u64, burst_cycles: u64, t: &TimingParams) -> u64 {
        debug_assert!(now >= self.ready_for_column_at);
        self.count_hit();
        let burst_end = now.saturating_add(t.wl).saturating_add(burst_cycles);
        self.ready_for_precharge_at = self.ready_for_precharge_at.max(burst_end + t.twr);
        burst_end
    }

    /// Schedules an auto-precharge to fire as soon as it becomes legal after
    /// this column access (restricted close-page).
    pub fn arm_auto_precharge(&mut self) {
        self.auto_precharge_at = Some(self.ready_for_precharge_at);
    }

    /// Applies a precharge at `now` (explicit command or auto-precharge);
    /// returns the cycles the row was open.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the bank is closed or precharge timing is not met.
    pub fn precharge(&mut self, now: u64, t: &TimingParams) -> u64 {
        debug_assert!(self.open.is_some(), "PRE to a closed bank");
        debug_assert!(now >= self.ready_for_precharge_at, "PRE too early");
        let opened_at = self.open.take().map_or(now, |open| open.opened_at);
        self.auto_precharge_at = None;
        self.ready_for_activate_at = now + t.trp;
        now - opened_at
    }

    /// Whether an armed auto-precharge may fire at `now`.
    pub fn auto_precharge_due(&self, now: u64) -> bool {
        self.auto_precharge_at
            .is_some_and(|at| now >= at && now >= self.ready_for_precharge_at)
    }

    /// Widens the coverage of the open row (used when a later same-row write
    /// needs more MAT groups and the controller reopens wider; the bank
    /// model itself only stores the result).
    pub fn widen_coverage(&mut self, extra: WordMask) {
        if let Some(open) = self.open.as_mut() {
            open.coverage |= extra;
        }
    }
}

impl Default for Bank {
    fn default() -> Self {
        Bank::new()
    }
}

impl sim_snap::SnapState for Bank {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.bool(self.open.is_some());
        if let Some(open) = &self.open {
            w.u32(open.row);
            w.u8(open.coverage.bits());
            w.u32(open.mats);
            w.u32(open.hits_served);
            w.u64(open.opened_at);
        }
        w.u64(self.ready_for_column_at);
        w.u64(self.ready_for_precharge_at);
        w.u64(self.ready_for_activate_at);
        w.opt_u64(self.auto_precharge_at);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        self.open = if r.bool()? {
            Some(OpenRow {
                row: r.u32()?,
                coverage: WordMask::from_bits(r.u8()?),
                mats: r.u32()?,
                hits_served: r.u32()?,
                opened_at: r.u64()?,
            })
        } else {
            None
        };
        self.ready_for_column_at = r.u64()?;
        self.ready_for_precharge_at = r.u64()?;
        self.ready_for_activate_at = r.u64()?;
        self.auto_precharge_at = r.opt_u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600_table3()
    }

    #[test]
    fn activate_sets_fences() {
        let mut b = Bank::new();
        b.activate(100, 7, WordMask::FULL, 16, 0, &t());
        assert!(b.is_open());
        assert_eq!(b.ready_for_column_at, 111);
        assert_eq!(b.ready_for_precharge_at, 128);
        // PRA partial activation pays the extra mask cycle.
        let mut p = Bank::new();
        p.activate(100, 7, WordMask::single(0), 2, 1, &t());
        assert_eq!(p.ready_for_column_at, 112);
    }

    #[test]
    fn read_then_precharge_honours_trtp() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::FULL, 16, 0, &t());
        let done = b.column_read(11, 4, &t());
        assert_eq!(done, 11 + 11 + 4);
        // tRAS (28) still dominates tRTP here.
        assert_eq!(b.ready_for_precharge_at, 28);
        // A late read pushes the precharge fence.
        b.column_read(40, 4, &t());
        assert_eq!(b.ready_for_precharge_at, 46);
    }

    #[test]
    fn write_recovery_blocks_precharge() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::FULL, 16, 0, &t());
        let burst_end = b.column_write(11, 4, &t());
        assert_eq!(burst_end, 11 + 8 + 4);
        assert_eq!(b.ready_for_precharge_at, burst_end + 12);
    }

    #[test]
    fn precharge_closes_and_fences_activate() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::FULL, 16, 0, &t());
        assert_eq!(b.precharge(28, &t()), 28, "open for cycles 0..28");
        assert!(!b.is_open());
        assert_eq!(b.ready_for_activate_at, 39, "tRC = tRAS + tRP");
    }

    #[test]
    fn auto_precharge_fires_on_time() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::FULL, 16, 0, &t());
        b.column_read(11, 4, &t());
        assert!(!b.auto_precharge_due(28), "not armed");
        b.arm_auto_precharge();
        assert!(!b.auto_precharge_due(27), "tRAS not yet satisfied");
        assert!(b.auto_precharge_due(28));
    }

    #[test]
    fn hits_served_increments() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::FULL, 16, 0, &t());
        b.column_read(11, 4, &t());
        b.column_read(15, 4, &t());
        assert_eq!(b.open.unwrap().hits_served, 2);
    }

    #[test]
    fn widen_coverage_ors() {
        let mut b = Bank::new();
        b.activate(0, 1, WordMask::single(0), 2, 1, &t());
        b.widen_coverage(WordMask::single(5));
        assert_eq!(b.open.unwrap().coverage, WordMask::from_words([0, 5]));
    }
}
