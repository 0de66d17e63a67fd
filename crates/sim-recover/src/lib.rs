//! Recovery pipeline for faulted DRAM commands: detection → bounded
//! retry/replay → graceful degradation.
//!
//! Real DDR4 controllers protect the command/address bus with C/A parity:
//! the DRAM checks a parity bit alongside every command, *blocks* a
//! mismatching command instead of executing it, and asserts the shared
//! `ALERT_n` pin a fixed latency later. The controller then replays the
//! faulted command window, and only falls back to a safe mode when its
//! retry budget is exhausted. This crate models that pipeline for the PRA
//! simulator:
//!
//! * [`RecoveryEngine`] — per-channel alert bookkeeping: which (rank,
//!   bank) is held closed until its replay window opens, how many retries
//!   each faulted (rank, bank, row) has consumed, and linear cycle-domain
//!   backoff between attempts.
//! * [`HealthScoreboard`] — per-bank/per-row standing: rows whose masked
//!   (partial) activations keep faulting are *demoted* to full-row
//!   activations (no mask transfer → nothing left to corrupt) and
//!   re-promoted after a probation window.
//! * [`RecoveryCounts`] — the `recover.*` metrics every layer above
//!   reports: alerts, retries, recoveries, exhaustions, demotions,
//!   promotions.
//!
//! The engine is pure cycle-domain state: it draws no randomness and does
//! nothing unless a fault is reported, so a run with recovery enabled but
//! no faults firing is bit-identical to a run without recovery.
//!
//! # Example
//!
//! ```
//! use sim_recover::{RecoveryConfig, RecoveryEngine, RecoveryVerdict};
//!
//! let mut eng = RecoveryEngine::new(RecoveryConfig::default());
//! // A parity fault on an ACT to (rank 0, bank 2, row 7) at cycle 100:
//! match eng.on_fault(100, 0, 2, 7) {
//!     RecoveryVerdict::Replay { until, attempt } => {
//!         assert_eq!(attempt, 1);
//!         assert!(until > 100, "the bank is held until the alert window elapses");
//!         assert!(eng.is_blocked(100, 0, 2));
//!     }
//!     RecoveryVerdict::Exhausted => unreachable!("budget is fresh"),
//! }
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![deny(missing_docs)]

use core::fmt;
use std::collections::BTreeMap;

use sim_obs::MetricsRegistry;
use sim_snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// Tuning knobs of the recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryConfig {
    /// Memory cycles between a faulted command's issue slot and the
    /// controller observing the ALERT_n-style error signal; the faulted
    /// bank accepts no commands during this window (DDR4 C/A parity
    /// latency, a handful of nCK).
    pub alert_latency: u64,
    /// Replay attempts per faulted command before the terminal fallback
    /// (masked ACT → full-row ACT; dropped command → plain reschedule).
    pub max_retries: u32,
    /// Extra cycles added to the replay window per *prior* failed attempt
    /// (linear cycle-domain backoff: attempt `n` waits
    /// `alert_latency + backoff_cycles * (n - 1)`).
    pub backoff_cycles: u64,
    /// Cycles a demoted row stays on full-row activations before the
    /// scoreboard re-promotes it to partial activation.
    pub probation_cycles: u64,
}

impl RecoveryConfig {
    /// Checks the knobs for consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryError`] naming the offending knob: the alert
    /// latency and the probation window must both be at least one cycle.
    pub fn validate(&self) -> Result<(), RecoveryError> {
        if self.alert_latency == 0 {
            return Err(RecoveryError(
                "alert_latency must be at least 1 cycle".into(),
            ));
        }
        if self.probation_cycles == 0 {
            return Err(RecoveryError(
                "probation_cycles must be at least 1 cycle".into(),
            ));
        }
        Ok(())
    }
}

impl Default for RecoveryConfig {
    /// DDR4-flavoured defaults: a 6-cycle alert latency, 3 retries with
    /// 8-cycle linear backoff, and a 50 000-cycle probation window.
    fn default() -> Self {
        RecoveryConfig {
            alert_latency: 6,
            max_retries: 3,
            backoff_cycles: 8,
            probation_cycles: 50_000,
        }
    }
}

/// An inconsistent [`RecoveryConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryError(String);

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid recovery config: {}", self.0)
    }
}

impl std::error::Error for RecoveryError {}

/// Counters over everything the recovery pipeline did, published as the
/// `recover.*` metric family.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryCounts {
    /// Parity alerts raised (one per detected command fault entering the
    /// pipeline, replays included).
    pub alerts: u64,
    /// Replay attempts scheduled (each consumes one unit of some
    /// command's retry budget).
    pub retries: u64,
    /// Faulted commands that eventually issued successfully within their
    /// retry budget.
    pub recovered: u64,
    /// Retry budgets exhausted — the command took its terminal fallback
    /// (full-row activation, or a plain reschedule for dropped commands).
    pub exhausted: u64,
    /// Rows demoted to full-row activations by the health scoreboard.
    pub demotions: u64,
    /// Demoted rows re-promoted to partial activation after probation.
    pub promotions: u64,
}

impl RecoveryCounts {
    /// Field-wise sum, for aggregating per-channel engines into one
    /// report record.
    #[must_use]
    pub fn merged(self, other: RecoveryCounts) -> RecoveryCounts {
        RecoveryCounts {
            alerts: self.alerts + other.alerts,
            retries: self.retries + other.retries,
            recovered: self.recovered + other.recovered,
            exhausted: self.exhausted + other.exhausted,
            demotions: self.demotions + other.demotions,
            promotions: self.promotions + other.promotions,
        }
    }

    /// `true` when the pipeline ever engaged — the campaign harness
    /// classifies such runs `Recovered` instead of plain `Ok`.
    pub fn engaged(&self) -> bool {
        self.alerts > 0
    }

    /// Mirrors the counters into a metrics registry under the canonical
    /// `recover.*` names.
    pub fn publish_to(&self, registry: &mut MetricsRegistry) {
        let mut set = |name: &str, value: u64| {
            let id = registry.counter(name);
            registry.set_counter(id, value);
        };
        set("recover.alerts", self.alerts);
        set("recover.retries", self.retries);
        set("recover.recovered", self.recovered);
        set("recover.exhausted", self.exhausted);
        set("recover.demotions", self.demotions);
        set("recover.promotions", self.promotions);
    }
}

/// What the engine decided about a freshly reported command fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryVerdict {
    /// Retry budget remains: the bank is held closed and the command
    /// replays once the window opens.
    Replay {
        /// First cycle at which the faulted bank accepts commands again.
        until: u64,
        /// 1-based attempt number this replay consumes.
        attempt: u32,
    },
    /// Budget exhausted: take the terminal fallback now. The per-command
    /// attempt state is cleared so a later fault at the same site starts
    /// a fresh budget.
    Exhausted,
}

/// A row's standing with the health scoreboard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowStanding {
    /// Partial activations allowed.
    Healthy,
    /// Demoted: activations to this row must open the full row.
    Demoted,
    /// Probation just elapsed — this poll re-promoted the row (the caller
    /// should emit the promotion trace event).
    Promoted,
}

/// Per-bank/per-row health: rows with persistent mask faults are demoted
/// to full-row activations and re-promoted after a probation window.
#[derive(Debug, Clone, Default)]
pub struct HealthScoreboard {
    /// Demoted rows, keyed (rank, bank, row) → first cycle at which the
    /// row is eligible for re-promotion.
    demoted: BTreeMap<(u32, u32, u32), u64>,
}

impl HealthScoreboard {
    /// Demotes a row until `now + probation_cycles`. Re-demoting an
    /// already demoted row restarts its probation.
    pub fn demote(&mut self, now: u64, rank: u32, bank: u32, row: u32, probation_cycles: u64) {
        self.demoted
            .insert((rank, bank, row), now.saturating_add(probation_cycles));
    }

    /// The row's current standing. A demoted row whose probation has
    /// elapsed is removed and reported as [`RowStanding::Promoted`]
    /// exactly once.
    pub fn standing(&mut self, now: u64, rank: u32, bank: u32, row: u32) -> RowStanding {
        match self.demoted.get(&(rank, bank, row)) {
            None => RowStanding::Healthy,
            Some(&until) if now < until => RowStanding::Demoted,
            Some(_) => {
                self.demoted.remove(&(rank, bank, row));
                RowStanding::Promoted
            }
        }
    }

    /// Number of currently demoted rows.
    pub fn demoted_rows(&self) -> usize {
        self.demoted.len()
    }
}

/// Per-channel recovery state machine. The memory controller reports
/// detected command faults and successful issues; the engine answers with
/// replay windows, budget verdicts and row standings, and accumulates the
/// `recover.*` counters.
#[derive(Debug, Clone)]
pub struct RecoveryEngine {
    config: RecoveryConfig,
    counts: RecoveryCounts,
    /// (rank, bank) → first cycle at which the bank accepts commands
    /// again after an alert.
    blocked: BTreeMap<(u32, u32), u64>,
    /// (rank, bank, row) → failed attempts consumed so far by the faulted
    /// command parked there.
    attempts: BTreeMap<(u32, u32, u32), u32>,
    scoreboard: HealthScoreboard,
}

impl RecoveryEngine {
    /// An engine with the given knobs and all counters zero.
    pub fn new(config: RecoveryConfig) -> Self {
        RecoveryEngine {
            config,
            counts: RecoveryCounts::default(),
            blocked: BTreeMap::new(),
            attempts: BTreeMap::new(),
            scoreboard: HealthScoreboard::default(),
        }
    }

    /// The knobs this engine runs with.
    pub fn config(&self) -> &RecoveryConfig {
        &self.config
    }

    /// Counters accumulated so far.
    pub fn counts(&self) -> RecoveryCounts {
        self.counts
    }

    /// The health scoreboard (read-only view).
    pub fn scoreboard(&self) -> &HealthScoreboard {
        &self.scoreboard
    }

    /// Reports a detected command fault (parity mismatch) at `(rank,
    /// bank, row)` in cycle `now`. Raises an alert and either schedules a
    /// replay — holding the bank closed until the alert window (plus
    /// linear backoff) elapses — or declares the budget exhausted.
    pub fn on_fault(&mut self, now: u64, rank: u32, bank: u32, row: u32) -> RecoveryVerdict {
        self.counts.alerts += 1;
        let attempts = self.attempts.entry((rank, bank, row)).or_insert(0);
        if *attempts >= self.config.max_retries {
            self.attempts.remove(&(rank, bank, row));
            self.counts.exhausted += 1;
            return RecoveryVerdict::Exhausted;
        }
        *attempts += 1;
        let attempt = *attempts;
        self.counts.retries += 1;
        let until = now
            .saturating_add(self.config.alert_latency)
            .saturating_add(
                self.config
                    .backoff_cycles
                    .saturating_mul(u64::from(attempt - 1)),
            );
        self.blocked.insert((rank, bank), until);
        RecoveryVerdict::Replay { until, attempt }
    }

    /// Reports that a command issued successfully at `(rank, bank, row)`.
    /// Returns `true` when this completed an in-flight recovery (a prior
    /// fault at this site had consumed retry budget).
    pub fn on_success(&mut self, rank: u32, bank: u32, row: u32) -> bool {
        if self.attempts.remove(&(rank, bank, row)).is_some() {
            self.counts.recovered += 1;
            self.blocked.remove(&(rank, bank));
            true
        } else {
            false
        }
    }

    /// Whether `(rank, bank)` is still inside a replay hold-off window at
    /// cycle `now` — the scheduler must not issue commands to it.
    pub fn is_blocked(&self, now: u64, rank: u32, bank: u32) -> bool {
        self.blocked
            .get(&(rank, bank))
            .is_some_and(|&until| now < until)
    }

    /// Demotes `row` on the health scoreboard (terminal fallback of a
    /// masked activation whose budget ran out).
    pub fn demote_row(&mut self, now: u64, rank: u32, bank: u32, row: u32) {
        self.counts.demotions += 1;
        self.scoreboard
            .demote(now, rank, bank, row, self.config.probation_cycles);
    }

    /// Polls the row's standing, counting a promotion when probation has
    /// just elapsed (see [`HealthScoreboard::standing`]).
    pub fn row_standing(&mut self, now: u64, rank: u32, bank: u32, row: u32) -> RowStanding {
        let standing = self.scoreboard.standing(now, rank, bank, row);
        if standing == RowStanding::Promoted {
            self.counts.promotions += 1;
        }
        standing
    }
}

impl SnapState for RecoveryEngine {
    // The config is covered by the snapshot's config digest; the mutable
    // state is the counters, per-bank hold-offs, per-command attempt
    // budgets and the demotion scoreboard — all BTreeMaps, so iteration
    // order is already canonical.
    fn snap_save(&self, w: &mut SnapWriter) {
        w.section("recovery-engine");
        let c = self.counts;
        for v in [
            c.alerts,
            c.retries,
            c.recovered,
            c.exhausted,
            c.demotions,
            c.promotions,
        ] {
            w.u64(v);
        }
        w.seq(self.blocked.len());
        for (&(rank, bank), &until) in &self.blocked {
            w.u32(rank);
            w.u32(bank);
            w.u64(until);
        }
        w.seq(self.attempts.len());
        for (&(rank, bank, row), &tries) in &self.attempts {
            w.u32(rank);
            w.u32(bank);
            w.u32(row);
            w.u32(tries);
        }
        w.seq(self.scoreboard.demoted.len());
        for (&(rank, bank, row), &until) in &self.scoreboard.demoted {
            w.u32(rank);
            w.u32(bank);
            w.u32(row);
            w.u64(until);
        }
    }

    fn snap_load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.section("recovery-engine")?;
        self.counts = RecoveryCounts {
            alerts: r.u64()?,
            retries: r.u64()?,
            recovered: r.u64()?,
            exhausted: r.u64()?,
            demotions: r.u64()?,
            promotions: r.u64()?,
        };
        self.blocked.clear();
        for _ in 0..r.seq()? {
            let key = (r.u32()?, r.u32()?);
            self.blocked.insert(key, r.u64()?);
        }
        self.attempts.clear();
        for _ in 0..r.seq()? {
            let key = (r.u32()?, r.u32()?, r.u32()?);
            self.attempts.insert(key, r.u32()?);
        }
        self.scoreboard.demoted.clear();
        for _ in 0..r.seq()? {
            let key = (r.u32()?, r.u32()?, r.u32()?);
            self.scoreboard.demoted.insert(key, r.u64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> RecoveryConfig {
        RecoveryConfig {
            alert_latency: 6,
            max_retries: 2,
            backoff_cycles: 10,
            probation_cycles: 100,
        }
    }

    #[test]
    fn default_config_validates() {
        RecoveryConfig::default().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_latency_and_probation() {
        let c = RecoveryConfig {
            alert_latency: 0,
            ..RecoveryConfig::default()
        };
        assert!(c.validate().unwrap_err().to_string().contains("alert"));
        let c = RecoveryConfig {
            probation_cycles: 0,
            ..RecoveryConfig::default()
        };
        assert!(c.validate().unwrap_err().to_string().contains("probation"));
    }

    #[test]
    fn replay_windows_apply_linear_backoff() {
        let mut eng = RecoveryEngine::new(config());
        let RecoveryVerdict::Replay { until, attempt } = eng.on_fault(100, 0, 1, 7) else {
            panic!("first fault must replay");
        };
        assert_eq!((until, attempt), (106, 1), "alert latency only");
        assert!(eng.is_blocked(105, 0, 1));
        assert!(!eng.is_blocked(106, 0, 1), "window opens at `until`");
        assert!(!eng.is_blocked(105, 0, 2), "other banks unaffected");
        // Second failure at the same site: +backoff.
        let RecoveryVerdict::Replay { until, attempt } = eng.on_fault(106, 0, 1, 7) else {
            panic!("budget of 2 allows a second replay");
        };
        assert_eq!((until, attempt), (106 + 6 + 10, 2));
        // Third failure exhausts.
        assert_eq!(eng.on_fault(130, 0, 1, 7), RecoveryVerdict::Exhausted);
        let c = eng.counts();
        assert_eq!((c.alerts, c.retries, c.exhausted), (3, 2, 1));
        assert_eq!(c.recovered, 0);
        // The budget reset: a fresh fault at the same site replays again.
        assert!(matches!(
            eng.on_fault(200, 0, 1, 7),
            RecoveryVerdict::Replay { attempt: 1, .. }
        ));
    }

    #[test]
    fn success_after_fault_counts_one_recovery() {
        let mut eng = RecoveryEngine::new(config());
        assert!(!eng.on_success(0, 0, 3), "no fault pending, not a recovery");
        eng.on_fault(10, 0, 0, 3);
        assert!(eng.on_success(0, 0, 3));
        assert_eq!(eng.counts().recovered, 1);
        assert!(!eng.is_blocked(11, 0, 0), "success clears the hold-off");
        assert!(!eng.on_success(0, 0, 3), "recovery completes once");
    }

    #[test]
    fn scoreboard_demotes_and_promotes_after_probation() {
        let mut eng = RecoveryEngine::new(config());
        assert_eq!(eng.row_standing(0, 0, 2, 9), RowStanding::Healthy);
        eng.demote_row(50, 0, 2, 9);
        assert_eq!(eng.scoreboard().demoted_rows(), 1);
        assert_eq!(eng.row_standing(149, 0, 2, 9), RowStanding::Demoted);
        assert_eq!(eng.row_standing(150, 0, 2, 9), RowStanding::Promoted);
        assert_eq!(eng.row_standing(150, 0, 2, 9), RowStanding::Healthy);
        let c = eng.counts();
        assert_eq!((c.demotions, c.promotions), (1, 1));
    }

    #[test]
    fn counts_merge_and_publish_under_recover_names() {
        let a = RecoveryCounts {
            alerts: 4,
            retries: 3,
            recovered: 2,
            exhausted: 1,
            demotions: 1,
            promotions: 0,
        };
        let b = RecoveryCounts {
            alerts: 1,
            promotions: 2,
            ..RecoveryCounts::default()
        };
        let m = a.merged(b);
        assert_eq!(m.alerts, 5);
        assert_eq!(m.promotions, 2);
        assert!(m.engaged());
        assert!(!RecoveryCounts::default().engaged());
        let mut reg = MetricsRegistry::new();
        m.publish_to(&mut reg);
        assert_eq!(reg.counter_value("recover.alerts"), Some(5));
        assert_eq!(reg.counter_value("recover.retries"), Some(3));
        assert_eq!(reg.counter_value("recover.recovered"), Some(2));
        assert_eq!(reg.counter_value("recover.exhausted"), Some(1));
        assert_eq!(reg.counter_value("recover.demotions"), Some(1));
        assert_eq!(reg.counter_value("recover.promotions"), Some(2));
    }

    #[test]
    fn engine_without_faults_is_inert() {
        let mut eng = RecoveryEngine::new(RecoveryConfig::default());
        for bank in 0..8 {
            assert!(!eng.is_blocked(0, 0, bank));
            assert!(!eng.on_success(0, bank, 0));
            assert_eq!(eng.row_standing(0, 0, bank, 0), RowStanding::Healthy);
        }
        assert_eq!(eng.counts(), RecoveryCounts::default());
    }

    #[test]
    fn snapshot_roundtrip_resumes_recovery_state() {
        let mut reference = RecoveryEngine::new(config());
        reference.on_fault(100, 0, 1, 7);
        reference.on_fault(110, 1, 3, 2);
        reference.on_success(1, 3, 2);
        reference.demote_row(120, 0, 1, 7);
        let mut w = SnapWriter::new();
        reference.snap_save(&mut w);
        let payload = w.into_bytes();
        let mut restored = RecoveryEngine::new(config());
        let mut r = SnapReader::new(&payload);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.counts(), reference.counts());
        assert_eq!(
            restored.is_blocked(105, 0, 1),
            reference.is_blocked(105, 0, 1)
        );
        assert_eq!(
            restored.scoreboard().demoted_rows(),
            reference.scoreboard().demoted_rows()
        );
        // Subsequent behaviour is identical: the hold-off, attempt budget
        // and probation deadlines survived the round trip.
        assert_eq!(
            restored.on_fault(130, 0, 1, 7),
            reference.on_fault(130, 0, 1, 7)
        );
        assert_eq!(
            restored.row_standing(220, 0, 1, 7),
            reference.row_standing(220, 0, 1, 7)
        );
        assert_eq!(restored.counts(), reference.counts());
    }

    #[test]
    fn zero_retry_budget_exhausts_immediately() {
        let mut cfg = config();
        cfg.max_retries = 0;
        let mut eng = RecoveryEngine::new(cfg);
        assert_eq!(eng.on_fault(10, 0, 0, 1), RecoveryVerdict::Exhausted);
        assert_eq!(eng.counts().retries, 0);
        assert_eq!(eng.counts().exhausted, 1);
    }
}
