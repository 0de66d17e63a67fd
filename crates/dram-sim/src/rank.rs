//! Per-rank state: weighted tRRD/tFAW tracking, refresh and power-down.
//! The rank's banks live in the channel's flat bank array, indexed like
//! its bank bitmasks; the methods that need them take the rank's slice.

use std::collections::VecDeque;

use dram_power::RankPowerState;

use crate::bank::Bank;
use crate::timing::TimingParams;

/// Refresh progress of a rank.
///
/// Refreshes owed but not yet issued are tracked as *debt*
/// ([`Rank::refresh_debt`]); DDR3/DDR4 allow postponing up to eight
/// refreshes, which the controller exploits via
/// [`crate::DramConfig::refresh_postpone_max`]. Whether outstanding debt
/// *forces* the rank closed is the controller's decision, not the rank's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefreshState {
    /// No REF command in flight (debt may still be outstanding).
    Idle,
    /// REF issued; the rank is busy until the stored cycle.
    InProgress {
        /// Cycle at which tRFC elapses.
        until: u64,
    },
}

/// Rank-wide timing and power state of one rank.
#[derive(Debug, Clone)]
pub struct Rank {
    /// Sliding window of (cycle, weight) activations for tFAW. Weights are
    /// fractions of a full-row activation; the window constrains the sum to
    /// four, which degenerates to "four activations" for weight-1 schemes.
    faw_window: VecDeque<(u64, f64)>,
    /// Earliest cycle the next activate may issue (tRRD fence).
    pub next_act_allowed_at: u64,
    /// Cycle the next refresh falls due.
    pub next_refresh_at: u64,
    /// Refreshes owed (due but not yet issued).
    pub refresh_debt: u32,
    /// Refresh progress.
    pub refresh: RefreshState,
    /// Whether the rank sits in precharge power-down.
    pub powered_down: bool,
    /// Earliest cycle any command may issue (power-down exit, refresh).
    pub available_at: u64,
}

impl Rank {
    /// Creates a rank whose first refresh falls due at `first_refresh_at`
    /// (staggered across ranks by the caller).
    pub fn new(first_refresh_at: u64) -> Self {
        Rank {
            faw_window: VecDeque::new(),
            next_act_allowed_at: 0,
            next_refresh_at: first_refresh_at,
            refresh_debt: 0,
            refresh: RefreshState::Idle,
            powered_down: false,
            available_at: 0,
        }
    }

    /// Checks whether an activation of the given weight may issue at `now`
    /// under tRRD and tFAW.
    pub fn can_activate(&self, now: u64, weight: f64, t: &TimingParams) -> bool {
        if now < self.next_act_allowed_at || now < self.available_at {
            return false;
        }
        let in_window: f64 = self
            .faw_window
            .iter()
            .filter(|&&(c, _)| c + t.tfaw > now)
            .map(|&(_, w)| w)
            .sum();
        in_window + weight <= 4.0 + 1e-9
    }

    /// Records an activation issued at `now` with the given weight, updating
    /// tRRD and tFAW bookkeeping. `relaxed` selects granularity-scaled tRRD.
    pub fn record_activation(&mut self, now: u64, weight: f64, relaxed: bool, t: &TimingParams) {
        let spacing = if relaxed {
            t.scaled_trrd(weight)
        } else {
            t.trrd
        };
        self.next_act_allowed_at = now + spacing;
        self.faw_window.push_back((now, weight));
        // Garbage-collect entries that can no longer affect any check.
        while let Some(&(c, _)) = self.faw_window.front() {
            if c + t.tfaw < now {
                self.faw_window.pop_front();
            } else {
                break;
            }
        }
    }

    /// Current background power state; `any_bank_open` says whether any
    /// of the rank's banks holds an open row (the channel tracks that in
    /// its open-bank mask).
    pub fn power_state(&self, any_bank_open: bool) -> RankPowerState {
        if self.powered_down {
            RankPowerState::PowerDown
        } else if any_bank_open || matches!(self.refresh, RefreshState::InProgress { .. }) {
            RankPowerState::ActiveStandby
        } else {
            RankPowerState::PrechargeStandby
        }
    }

    /// Enters precharge power-down. The caller guarantees the rank is idle
    /// (no open bank, no queued work).
    pub fn enter_power_down(&mut self) {
        debug_assert!(matches!(self.refresh, RefreshState::Idle));
        self.powered_down = true;
    }

    /// Leaves power-down at `now`; commands become legal after tXP.
    /// Returns whether the rank was powered down.
    pub fn exit_power_down(&mut self, now: u64, t: &TimingParams) -> bool {
        let woke = self.powered_down;
        if woke {
            self.powered_down = false;
            self.available_at = self.available_at.max(now + t.txp);
        }
        woke
    }

    /// Accrues refresh debt for every elapsed tREFI interval.
    pub fn update_refresh_due(&mut self, now: u64, trefi: u64) {
        while now >= self.next_refresh_at {
            self.refresh_debt += 1;
            self.next_refresh_at += trefi;
        }
    }

    /// `true` when every one of the rank's `banks` is closed and ready for
    /// the REF command.
    pub fn ready_for_refresh(&self, banks: &[Bank], now: u64) -> bool {
        banks
            .iter()
            .all(|b| !b.is_open() && now >= b.ready_for_activate_at)
            && now >= self.available_at
    }

    /// Issues the REF command at `now` to the rank and its `banks`,
    /// repaying one unit of debt.
    pub fn start_refresh(&mut self, banks: &mut [Bank], now: u64, t: &TimingParams) {
        debug_assert!(matches!(self.refresh, RefreshState::Idle));
        debug_assert!(self.refresh_debt > 0, "REF without debt");
        debug_assert!(self.ready_for_refresh(banks, now));
        self.refresh = RefreshState::InProgress {
            until: now + t.trfc,
        };
        for bank in banks {
            bank.ready_for_activate_at = bank.ready_for_activate_at.max(now + t.trfc);
        }
        self.available_at = self.available_at.max(now + t.trfc);
        self.refresh_debt -= 1;
    }

    /// Completes an in-progress refresh whose tRFC elapsed; returns
    /// whether it did.
    pub fn finish_refresh_if_done(&mut self, now: u64) -> bool {
        match self.refresh {
            RefreshState::InProgress { until } if now >= until => {
                self.refresh = RefreshState::Idle;
                true
            }
            _ => false,
        }
    }
}

impl sim_snap::SnapState for Rank {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("rank");
        w.seq(self.faw_window.len());
        for &(cycle, weight) in &self.faw_window {
            w.u64(cycle);
            w.f64(weight);
        }
        w.u64(self.next_act_allowed_at);
        w.u64(self.next_refresh_at);
        w.u32(self.refresh_debt);
        match self.refresh {
            RefreshState::Idle => w.bool(false),
            RefreshState::InProgress { until } => {
                w.bool(true);
                w.u64(until);
            }
        }
        w.bool(self.powered_down);
        w.u64(self.available_at);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("rank")?;
        let faw = r.seq()?;
        self.faw_window.clear();
        for _ in 0..faw {
            let cycle = r.u64()?;
            let weight = r.f64()?;
            self.faw_window.push_back((cycle, weight));
        }
        self.next_act_allowed_at = r.u64()?;
        self.next_refresh_at = r.u64()?;
        self.refresh_debt = r.u32()?;
        self.refresh = if r.bool()? {
            RefreshState::InProgress { until: r.u64()? }
        } else {
            RefreshState::Idle
        };
        self.powered_down = r.bool()?;
        self.available_at = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> TimingParams {
        TimingParams::ddr3_1600_table3()
    }

    fn rank() -> Rank {
        Rank::new(1000)
    }

    #[test]
    fn trrd_spacing_full_weight() {
        let mut r = rank();
        assert!(r.can_activate(0, 1.0, &t()));
        r.record_activation(0, 1.0, false, &t());
        assert!(!r.can_activate(4, 1.0, &t()));
        assert!(r.can_activate(5, 1.0, &t()));
    }

    #[test]
    fn trrd_relaxed_for_partial() {
        let mut r = rank();
        r.record_activation(0, 0.125, true, &t());
        // ceil(5 * 0.125) = 1 cycle spacing.
        assert!(r.can_activate(1, 0.125, &t()));
    }

    #[test]
    fn tfaw_limits_four_full_activations() {
        let mut r = rank();
        let tp = t();
        for i in 0..4u64 {
            let c = i * tp.trrd;
            assert!(r.can_activate(c, 1.0, &tp), "act {i}");
            r.record_activation(c, 1.0, false, &tp);
        }
        // Fifth full activation must wait for the window to slide.
        assert!(!r.can_activate(4 * tp.trrd, 1.0, &tp));
        assert!(r.can_activate(tp.tfaw + 1, 1.0, &tp));
    }

    #[test]
    fn tfaw_admits_many_partial_activations() {
        let mut r = rank();
        let tp = t();
        // Eight 1/8-weight activations sum to one full activation's worth;
        // all fit in one window.
        for i in 0..8u64 {
            assert!(r.can_activate(i, 0.125, &tp), "partial act {i}");
            r.record_activation(i, 0.125, true, &tp);
        }
        assert!(r.can_activate(8, 1.0, &tp), "still room for a full act");
    }

    #[test]
    fn power_states() {
        let mut r = rank();
        assert_eq!(r.power_state(false), RankPowerState::PrechargeStandby);
        assert_eq!(r.power_state(true), RankPowerState::ActiveStandby);
        r.enter_power_down();
        assert_eq!(r.power_state(false), RankPowerState::PowerDown);
        r.exit_power_down(100, &t());
        assert_eq!(r.available_at, 103, "tXP exit latency");
        assert_eq!(r.power_state(false), RankPowerState::PrechargeStandby);
        r.update_refresh_due(1000, t().trefi);
        r.start_refresh(&mut [Bank::new()], 1000, &t());
        assert_eq!(r.power_state(false), RankPowerState::ActiveStandby);
    }

    #[test]
    fn refresh_cycle() {
        let mut r = rank();
        let tp = t();
        r.update_refresh_due(999, tp.trefi);
        assert_eq!(r.refresh_debt, 0);
        r.update_refresh_due(1000, tp.trefi);
        assert_eq!(r.refresh_debt, 1);
        assert_eq!(r.next_refresh_at, 1000 + tp.trefi);
        let mut banks = vec![Bank::new(); 8];
        assert!(r.ready_for_refresh(&banks, 1000));
        r.start_refresh(&mut banks, 1000, &tp);
        assert_eq!(r.refresh_debt, 0);
        assert!(matches!(r.refresh, RefreshState::InProgress { until } if until == 1000 + tp.trfc));
        assert!(banks
            .iter()
            .all(|b| b.ready_for_activate_at == 1000 + tp.trfc));
        assert!(!r.can_activate(1001, 1.0, &tp), "rank busy during tRFC");
        assert!(!r.finish_refresh_if_done(1000 + tp.trfc - 1));
        assert!(r.finish_refresh_if_done(1000 + tp.trfc));
        assert_eq!(r.refresh, RefreshState::Idle);
    }

    #[test]
    fn debt_accrues_across_missed_intervals() {
        let mut r = rank();
        let tp = t();
        // Three intervals elapse unserviced.
        r.update_refresh_due(1000 + 2 * tp.trefi, tp.trefi);
        assert_eq!(r.refresh_debt, 3);
        // Repaying happens one REF at a time.
        r.start_refresh(&mut [Bank::new()], 1000 + 2 * tp.trefi, &tp);
        assert_eq!(r.refresh_debt, 2);
    }
}
