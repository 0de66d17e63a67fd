//! Streaming power telemetry: residency ledgers and windowed power rails.
//!
//! Two pieces turn the post-hoc [`EnergyAccounting`](crate::EnergyAccounting)
//! totals into a live signal:
//!
//! * [`ResidencyLedger`] — per-rank power-state residency cycles (plus
//!   per-bank open-row cycles), fed a run of cycles at a time: the
//!   accountant adds a run of unchanged rank states when a rank changes
//!   state, and the simulator adds a bank's open cycles when it closes.
//!   Conservation invariant: for every rank, the three state counters sum
//!   exactly to the cycles accounted.
//! * [`PowerRail`] — converts the monotonically growing picojoule totals
//!   into epoch-average milliwatts per component by snapshotting the
//!   accumulator at each window close. The rail never keeps a parallel
//!   accumulator: its cumulative view is *the same `f64`s* the post-hoc
//!   breakdown reports, so streaming and post-hoc totals reconcile
//!   bit-identically by construction.

use crate::{EnergyBreakdown, PowerBreakdown, RankPowerState};

/// Upper bound on banks per rank across supported DRAM generations
/// (DDR4 has 16 bank FSMs; DDR3 uses the first 8 slots).
pub const MAX_BANKS: usize = 16;

/// Residency record of one rank: cycles spent in each background power
/// state, and per-bank open-row cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankResidency {
    /// Cycles per state, indexed by [`ResidencyLedger::state_index`]
    /// (0 = active standby, 1 = precharge standby, 2 = power-down).
    pub state_cycles: [u64; 3],
    /// Cycles each bank held an open row (closed cycles are the
    /// complement against the rank's total).
    pub bank_open_cycles: [u64; MAX_BANKS],
}

impl RankResidency {
    fn new() -> Self {
        RankResidency {
            state_cycles: [0; 3],
            bank_open_cycles: [0; MAX_BANKS],
        }
    }

    /// Total cycles this rank has been observed for (sum over states).
    pub fn total_cycles(&self) -> u64 {
        self.state_cycles.iter().sum()
    }

    /// Cycles with at least the given bank's row open, summed over banks
    /// (the bank-open cycle integral).
    pub fn open_bank_cycles(&self) -> u64 {
        self.bank_open_cycles.iter().sum()
    }
}

/// Per-rank power-state residency ledger.
///
/// [`EnergyAccounting`](crate::EnergyAccounting) adds each run of cycles in
/// which no rank changed state through [`ResidencyLedger::add_state_cycles`],
/// and the simulator adds a bank's open-row cycles through
/// [`ResidencyLedger::add_bank_open_cycles`] when the bank closes (with
/// bank-level telemetry on). Epoch publication reads cumulative counters
/// directly and takes per-window deltas through
/// [`ResidencyLedger::close_window`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResidencyLedger {
    ranks: Vec<RankResidency>,
    /// Per-rank state cycles at the last window close.
    window_base: Vec<[u64; 3]>,
}

impl ResidencyLedger {
    /// A ledger for `ranks` total ranks (all counters zero).
    pub fn new(ranks: usize) -> Self {
        ResidencyLedger {
            ranks: vec![RankResidency::new(); ranks],
            window_base: vec![[0; 3]; ranks],
        }
    }

    /// Stable index of a power state into
    /// [`RankResidency::state_cycles`].
    pub fn state_index(state: RankPowerState) -> usize {
        match state {
            RankPowerState::ActiveStandby => 0,
            RankPowerState::PrechargeStandby => 1,
            RankPowerState::PowerDown => 2,
        }
    }

    /// Short lowercase label per state index, used in metric names and
    /// rendered tables (`act_stby`, `pre_stby`, `pdn`).
    pub fn state_labels() -> [&'static str; 3] {
        ["act_stby", "pre_stby", "pdn"]
    }

    /// Accounts `cycles` cycles of `rank` sitting in `state`. Out-of-range
    /// ranks are ignored.
    #[inline]
    pub fn add_state_cycles(&mut self, rank: usize, state: RankPowerState, cycles: u64) {
        if let Some(r) = self.ranks.get_mut(rank) {
            r.state_cycles[Self::state_index(state)] += cycles;
        }
    }

    /// Accounts `cycles` cycles of `bank` of `rank` holding an open row.
    /// Out-of-range ranks and banks are ignored.
    #[inline]
    pub fn add_bank_open_cycles(&mut self, rank: usize, bank: usize, cycles: u64) {
        if let Some(open) = self
            .ranks
            .get_mut(rank)
            .and_then(|r| r.bank_open_cycles.get_mut(bank))
        {
            *open += cycles;
        }
    }

    /// Cumulative residency per rank.
    pub fn ranks(&self) -> &[RankResidency] {
        &self.ranks
    }

    /// Sum of state cycles over every rank — equals
    /// `elapsed cycles x ranks` once every cycle is accounted (the
    /// conservation invariant).
    pub fn total_state_cycles(&self) -> u64 {
        self.ranks.iter().map(RankResidency::total_cycles).sum()
    }

    /// Closes the current window: returns per-rank state-cycle deltas
    /// since the previous close and advances the window base.
    pub fn close_window(&mut self) -> Vec<[u64; 3]> {
        self.ranks
            .iter()
            .zip(self.window_base.iter_mut())
            .map(|(r, base)| {
                let delta = [
                    r.state_cycles[0] - base[0],
                    r.state_cycles[1] - base[1],
                    r.state_cycles[2] - base[2],
                ];
                *base = r.state_cycles;
                delta
            })
            .collect()
    }
}

impl sim_snap::SnapState for ResidencyLedger {
    // The rank count is configuration; restore overlays onto a ledger
    // built for the same geometry, so the lengths must already agree.
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("residency-ledger");
        w.seq(self.ranks.len());
        for (r, base) in self.ranks.iter().zip(&self.window_base) {
            for v in r.state_cycles {
                w.u64(v);
            }
            for v in r.bank_open_cycles {
                w.u64(v);
            }
            for v in base {
                w.u64(*v);
            }
        }
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        r.section("residency-ledger")?;
        let n = r.seq()?;
        if n != self.ranks.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "snapshot holds {n} rank ledgers, this system has {}",
                self.ranks.len()
            )));
        }
        for (rank, base) in self.ranks.iter_mut().zip(&mut self.window_base) {
            for v in &mut rank.state_cycles {
                *v = r.u64()?;
            }
            for v in &mut rank.bank_open_cycles {
                *v = r.u64()?;
            }
            for v in base.iter_mut() {
                *v = r.u64()?;
            }
        }
        Ok(())
    }
}

impl sim_snap::SnapState for PowerRail {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("power-rail");
        let e = self.last;
        for v in [e.act_pre, e.rd, e.wr, e.rd_io, e.wr_io, e.bg, e.refresh] {
            w.f64(v);
        }
        w.f64(self.last_ns);
        w.u64(self.windows);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        r.section("power-rail")?;
        self.last = EnergyBreakdown {
            act_pre: r.f64()?,
            rd: r.f64()?,
            wr: r.f64()?,
            rd_io: r.f64()?,
            wr_io: r.f64()?,
            bg: r.f64()?,
            refresh: r.f64()?,
        };
        self.last_ns = r.f64()?;
        self.windows = r.u64()?;
        Ok(())
    }
}

/// Windowed picojoule-to-milliwatt converter.
///
/// At each window close the rail snapshots the cumulative
/// [`EnergyBreakdown`] and elapsed time, returning the window's delta
/// energy and its average [`PowerBreakdown`]. Because the snapshot *is*
/// the accumulator's own totals, [`PowerRail::cumulative`] after the last
/// close equals the post-hoc breakdown exactly — same bits, no parallel
/// arithmetic.
#[derive(Debug, Clone, Default)]
pub struct PowerRail {
    last: EnergyBreakdown,
    last_ns: f64,
    windows: u64,
}

impl PowerRail {
    /// A rail with no windows closed yet.
    pub fn new() -> Self {
        PowerRail::default()
    }

    /// Closes a window at the cumulative totals `total` / `elapsed_ns`:
    /// returns the window's energy delta (pJ) and average power (mW).
    /// A window with no elapsed time reports zero power.
    pub fn close_window(
        &mut self,
        total: EnergyBreakdown,
        elapsed_ns: f64,
    ) -> (EnergyBreakdown, PowerBreakdown) {
        let delta = EnergyBreakdown {
            act_pre: total.act_pre - self.last.act_pre,
            rd: total.rd - self.last.rd,
            wr: total.wr - self.last.wr,
            rd_io: total.rd_io - self.last.rd_io,
            wr_io: total.wr_io - self.last.wr_io,
            bg: total.bg - self.last.bg,
            refresh: total.refresh - self.last.refresh,
        };
        let dt = elapsed_ns - self.last_ns;
        let power = if dt > 0.0 {
            delta.to_power(dt)
        } else {
            PowerBreakdown::default()
        };
        self.last = total;
        self.last_ns = elapsed_ns;
        self.windows += 1;
        (delta, power)
    }

    /// The cumulative energy totals as of the last window close — the
    /// exact `f64`s passed in, so they compare bit-identically with the
    /// post-hoc accumulator.
    pub fn cumulative(&self) -> EnergyBreakdown {
        self.last
    }

    /// Elapsed simulated nanoseconds as of the last window close.
    pub fn elapsed_ns(&self) -> f64 {
        self.last_ns
    }

    /// Windows closed so far.
    pub fn windows(&self) -> u64 {
        self.windows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_conserves_cycles_per_rank() {
        let mut l = ResidencyLedger::new(2);
        l.add_state_cycles(0, RankPowerState::ActiveStandby, 34);
        l.add_state_cycles(0, RankPowerState::PrechargeStandby, 33);
        l.add_state_cycles(0, RankPowerState::PowerDown, 33);
        l.add_state_cycles(1, RankPowerState::PowerDown, 100);
        assert_eq!(l.ranks()[0].total_cycles(), 100);
        assert_eq!(l.ranks()[1].total_cycles(), 100);
        assert_eq!(l.total_state_cycles(), 200);
        assert_eq!(l.ranks()[1].state_cycles, [0, 0, 100]);
    }

    #[test]
    fn ledger_window_deltas_sum_to_cumulative() {
        let mut l = ResidencyLedger::new(1);
        l.add_state_cycles(0, RankPowerState::ActiveStandby, 10);
        let w0 = l.close_window();
        l.add_state_cycles(0, RankPowerState::PrechargeStandby, 5);
        let w1 = l.close_window();
        assert_eq!(w0[0], [10, 0, 0]);
        assert_eq!(w1[0], [0, 5, 0]);
        assert_eq!(l.ranks()[0].state_cycles, [10, 5, 0]);
    }

    #[test]
    fn ledger_bank_open_cycles_add_per_bank() {
        let mut l = ResidencyLedger::new(1);
        l.add_bank_open_cycles(0, 0, 2);
        l.add_bank_open_cycles(0, 2, 1);
        assert_eq!(l.ranks()[0].bank_open_cycles[0], 2);
        assert_eq!(l.ranks()[0].bank_open_cycles[1], 0);
        assert_eq!(l.ranks()[0].bank_open_cycles[2], 1);
        assert_eq!(l.ranks()[0].open_bank_cycles(), 3);
    }

    #[test]
    fn ledger_ignores_out_of_range_rank_and_bank() {
        let mut l = ResidencyLedger::new(1);
        l.add_state_cycles(7, RankPowerState::PowerDown, 1);
        l.add_bank_open_cycles(7, 0, 1);
        l.add_bank_open_cycles(0, MAX_BANKS, 1);
        assert_eq!(l.total_state_cycles(), 0);
        assert_eq!(l.ranks()[0].open_bank_cycles(), 0);
    }

    #[test]
    fn rail_windows_average_the_delta() {
        let mut rail = PowerRail::new();
        let mut total = EnergyBreakdown {
            act_pre: 1000.0, // 1000 pJ over 100 ns = 10 mW
            ..EnergyBreakdown::default()
        };
        let (delta, power) = rail.close_window(total, 100.0);
        assert_eq!(delta.act_pre, 1000.0);
        assert!((power.act_pre - 10.0).abs() < 1e-12);
        // Second window: another 500 pJ over 50 ns = 10 mW again.
        total.act_pre = 1500.0;
        let (delta, power) = rail.close_window(total, 150.0);
        assert_eq!(delta.act_pre, 500.0);
        assert!((power.act_pre - 10.0).abs() < 1e-12);
        assert_eq!(rail.windows(), 2);
    }

    #[test]
    fn rail_cumulative_is_bit_identical_to_the_last_total() {
        let mut rail = PowerRail::new();
        let total = EnergyBreakdown {
            act_pre: 0.1 + 0.2, // deliberately not exactly 0.3
            rd: 1.0 / 3.0,
            wr: 2.5,
            rd_io: 0.7,
            wr_io: 0.0,
            bg: 123.456,
            refresh: 33600.0,
        };
        rail.close_window(total, 10.0);
        let cum = rail.cumulative();
        assert_eq!(cum.act_pre.to_bits(), total.act_pre.to_bits());
        assert_eq!(cum.rd.to_bits(), total.rd.to_bits());
        assert_eq!(cum.total().to_bits(), total.total().to_bits());
    }

    #[test]
    fn rail_zero_length_window_reports_zero_power() {
        let mut rail = PowerRail::new();
        let total = EnergyBreakdown {
            bg: 10.0,
            ..Default::default()
        };
        rail.close_window(total, 5.0);
        let (delta, power) = rail.close_window(total, 5.0);
        assert_eq!(delta.total(), 0.0);
        assert_eq!(power.total(), 0.0);
    }
}
