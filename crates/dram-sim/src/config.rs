//! Top-level memory-system configuration.

use core::fmt;

use dram_power::{PowerParams, MAX_BANKS};
use mem_model::{AddressMapping, DramGeometry};

use crate::liveness::LivenessConfig;
use crate::masks::MAX_CHANNEL_BANKS;
use crate::scheme::SchemeBehavior;
use crate::timing::{TimingError, TimingParams};
use sim_recover::RecoveryConfig;

/// A configuration inconsistency, reported with enough context to fix the
/// offending field. Returned by the `validate()` family; the legacy
/// `assert_valid()` wrappers panic with the same message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// DRAM geometry is inconsistent (see [`mem_model::GeometryError`]).
    Geometry(String),
    /// A bank-count knob exceeds what the controller's per-rank (`u16`)
    /// or per-channel (`u64`) bank bitmasks can hold.
    BankLimit {
        /// The offending knob.
        knob: &'static str,
        /// Its configured value.
        value: usize,
        /// The largest supported value.
        max: usize,
    },
    /// Timing parameters are inconsistent.
    Timing(TimingError),
    /// Queue capacities or watermarks are inconsistent.
    Queues(String),
    /// The row-hit cap would starve every row hit.
    RowHitCap,
    /// Liveness watchdog bounds are mutually inconsistent.
    Liveness(String),
    /// Recovery-pipeline parameters are inconsistent.
    Recovery(String),
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Geometry(msg) => write!(f, "geometry: {msg}"),
            ConfigError::BankLimit { knob, value, max } => {
                write!(f, "geometry: {knob} is {value}, at most {max} supported")
            }
            ConfigError::Timing(err) => write!(f, "timing: {err}"),
            ConfigError::Queues(msg) => write!(f, "queues: {msg}"),
            ConfigError::RowHitCap => {
                write!(f, "row hit cap must allow at least one access")
            }
            ConfigError::Liveness(msg) => write!(f, "liveness: {msg}"),
            ConfigError::Recovery(msg) => write!(f, "recovery: {msg}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Whether new configurations verify every issued command against the
/// independent protocol checker: on in debug builds, and forced on in any
/// build when the `PRA_VERIFY_PROTOCOL` environment variable is set (the
/// release-mode CI job uses this).
pub fn verify_protocol_default() -> bool {
    cfg!(debug_assertions) || std::env::var_os("PRA_VERIFY_PROTOCOL").is_some()
}

/// Default starvation-escalation age, in memory cycles. Orders of magnitude
/// above the worst queue residency a full 64-entry queue produces under
/// refresh and write-drain pressure, so only genuinely pathological streams
/// engage escalation.
pub const DEFAULT_ESCALATION_AGE: u64 = 20_000;

/// Row-buffer management policy (Section 5.1.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PagePolicy {
    /// Keep rows open while any queued request can still hit them; close
    /// otherwise and enter precharge power-down when idle. Paired with
    /// row-interleaved mapping in the paper.
    #[default]
    RelaxedClosePage,
    /// Auto-precharge after every column access (every request pays a full
    /// ACT/PRE pair). Paired with line-interleaved mapping in the paper.
    RestrictedClosePage,
    /// Keep rows open until a conflicting request or refresh forces them
    /// closed (no idle close, no precharge power-down). Not evaluated by
    /// the paper; provided as the conventional third point of comparison.
    OpenPage,
}

impl PagePolicy {
    /// Every policy, in declaration order.
    pub const ALL: [PagePolicy; 3] = [
        PagePolicy::RelaxedClosePage,
        PagePolicy::RestrictedClosePage,
        PagePolicy::OpenPage,
    ];

    /// The canonical command-line spelling (`pra run --policy <this>`).
    /// Campaign configuration digests hash it, so it must never change.
    pub fn cli_name(self) -> &'static str {
        match self {
            PagePolicy::RelaxedClosePage => "relaxed",
            PagePolicy::RestrictedClosePage => "restricted",
            PagePolicy::OpenPage => "open",
        }
    }

    /// The address mapping the paper pairs with this policy.
    pub fn paper_mapping(self) -> AddressMapping {
        match self {
            PagePolicy::RelaxedClosePage | PagePolicy::OpenPage => AddressMapping::RowInterleaved,
            PagePolicy::RestrictedClosePage => AddressMapping::LineInterleaved,
        }
    }
}

impl core::str::FromStr for PagePolicy {
    type Err = String;

    /// Case-insensitive, ignoring `-` and `_`; accepts the canonical
    /// spellings and the full names (`relaxed-close-page`, …). The error
    /// lists the valid names.
    fn from_str(name: &str) -> Result<Self, String> {
        match name.to_ascii_lowercase().replace(['-', '_'], "").as_str() {
            "relaxed" | "relaxedclosepage" => Ok(PagePolicy::RelaxedClosePage),
            "restricted" | "restrictedclosepage" => Ok(PagePolicy::RestrictedClosePage),
            "open" | "openpage" => Ok(PagePolicy::OpenPage),
            _ => Err(format!(
                "unknown policy {name:?}; valid: {}",
                PagePolicy::ALL.map(PagePolicy::cli_name).join(", ")
            )),
        }
    }
}

/// Request queue sizing (Table 3: 64/64 entries, 48/16 watermarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueueConfig {
    /// Read queue capacity per channel.
    pub read_capacity: usize,
    /// Write queue capacity per channel.
    pub write_capacity: usize,
    /// Entering write-drain mode at or above this occupancy.
    pub write_high_watermark: usize,
    /// Leaving write-drain mode at or below this occupancy.
    pub write_low_watermark: usize,
}

impl QueueConfig {
    /// The paper's Table 3 queue configuration.
    pub const fn paper_table3() -> Self {
        QueueConfig {
            read_capacity: 64,
            write_capacity: 64,
            write_high_watermark: 48,
            write_low_watermark: 16,
        }
    }

    /// Checks watermark ordering and capacity sanity.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::Queues`] naming the inconsistent field pair.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.read_capacity == 0 || self.write_capacity == 0 {
            return Err(ConfigError::Queues("queues must be non-empty".into()));
        }
        if self.write_low_watermark >= self.write_high_watermark {
            return Err(ConfigError::Queues(format!(
                "low watermark {} must be below high {}",
                self.write_low_watermark, self.write_high_watermark
            )));
        }
        if self.write_high_watermark > self.write_capacity {
            return Err(ConfigError::Queues(format!(
                "high watermark {} exceeds capacity {}",
                self.write_high_watermark, self.write_capacity
            )));
        }
        Ok(())
    }

    /// Panicking wrapper around [`QueueConfig::validate`] for call sites
    /// where a bad configuration is a construction-time bug.
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on any inconsistency.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade over validate(), runs once before simulation"
    )]
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("{e}");
        }
    }
}

impl Default for QueueConfig {
    fn default() -> Self {
        QueueConfig::paper_table3()
    }
}

/// Complete configuration of the simulated memory system.
#[derive(Debug, Clone)]
pub struct DramConfig {
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// Physical address mapping.
    pub mapping: AddressMapping,
    /// Timing parameter set.
    pub timing: TimingParams,
    /// Queue sizing and watermarks.
    pub queues: QueueConfig,
    /// Row-buffer management policy.
    pub policy: PagePolicy,
    /// Maximum consecutive row-buffer hits served while other requests wait
    /// (the paper restricts this to four, citing fairness [15]).
    pub row_hit_cap: u32,
    /// Activation scheme under evaluation.
    pub scheme: SchemeBehavior,
    /// Power parameters for energy accounting.
    pub power: PowerParams,
    /// Re-verify every issued command against the independent
    /// [`ProtocolChecker`](crate::ProtocolChecker) (panics on violation).
    /// Defaults to [`verify_protocol_default`]: on in debug builds — the
    /// whole test suite runs verified — and off in release builds unless
    /// `PRA_VERIFY_PROTOCOL` is set in the environment.
    pub verify_protocol: bool,
    /// Refreshes the controller may postpone while a rank is busy (DDR3/4
    /// permit up to 8). While debt stays at or below this bound, refresh
    /// only happens opportunistically on idle ranks; beyond it the rank is
    /// forcibly closed. 0 (default) reproduces the paper's strict
    /// refresh-on-schedule behaviour.
    pub refresh_postpone_max: u32,
    /// Cycle-domain liveness watchdog bounds (both disabled by default).
    /// See [`LivenessConfig`]; violations surface as
    /// [`LivenessError`](crate::LivenessError) on the `try_tick` path.
    pub liveness: LivenessConfig,
    /// Age (in memory cycles) past which the oldest queued request is
    /// escalated: the scheduler stops serving row-buffer hits that keep its
    /// bank occupied and switches to its queue until it retires, so a
    /// continuous hit stream cannot starve it indefinitely. 0 disables
    /// escalation. The default (20 000 cycles) is far above any age a
    /// healthy FR-FCFS schedule produces, so it only engages on
    /// pathological streams.
    pub starvation_escalation_age: u64,
    /// Optional recovery pipeline for faulted commands: DDR4-style C/A
    /// parity with a delayed ALERT_n signal, bounded command replay with
    /// per-row retry budgets, and a health scoreboard that demotes rows
    /// with persistent mask faults to full-row activation. `None` (the
    /// default) disables detection entirely, reproducing the legacy
    /// inject-and-degrade behaviour.
    pub recovery: Option<RecoveryConfig>,
}

impl DramConfig {
    /// The paper's baseline configuration under the given policy and scheme.
    pub fn paper_baseline(policy: PagePolicy, scheme: SchemeBehavior) -> Self {
        DramConfig {
            geometry: DramGeometry::baseline_ddr3(),
            mapping: policy.paper_mapping(),
            timing: TimingParams::ddr3_1600_table3(),
            queues: QueueConfig::paper_table3(),
            policy,
            row_hit_cap: 4,
            scheme,
            power: PowerParams::paper_table3(),
            verify_protocol: verify_protocol_default(),
            refresh_postpone_max: 0,
            liveness: LivenessConfig::disabled(),
            starvation_escalation_age: DEFAULT_ESCALATION_AGE,
            recovery: None,
        }
    }

    /// A DDR4-2400 configuration (8 Gb x8 chips, 16 banks/rank, 32 GB) with
    /// estimated power parameters — an exploration target beyond the
    /// paper's DDR3 baseline. Bank groups are not modelled; conservative
    /// same-group timings apply (see `TimingParams::ddr4_2400`).
    pub fn ddr4_2400(policy: PagePolicy, scheme: SchemeBehavior) -> Self {
        DramConfig {
            geometry: DramGeometry::ddr4_8gb_x8(),
            mapping: policy.paper_mapping(),
            timing: TimingParams::ddr4_2400(),
            queues: QueueConfig::paper_table3(),
            policy,
            row_hit_cap: 4,
            scheme,
            power: PowerParams::ddr4_2400_estimate(),
            verify_protocol: verify_protocol_default(),
            refresh_postpone_max: 0,
            liveness: LivenessConfig::disabled(),
            starvation_escalation_age: DEFAULT_ESCALATION_AGE,
            recovery: None,
        }
    }

    /// Validates geometry, timing and queues together.
    ///
    /// # Errors
    ///
    /// Returns the first [`ConfigError`] found: inconsistent geometry
    /// (zero or non-power-of-two banks/ranks, bad MAT pairing), timing
    /// (e.g. tRAS < tRCD + CL), queue watermarks above capacity, or a
    /// zero row-hit cap.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.geometry
            .validate()
            .map_err(|e| ConfigError::Geometry(e.to_string()))?;
        let banks = self.geometry.banks_per_rank;
        if banks > MAX_BANKS {
            return Err(ConfigError::BankLimit {
                knob: "banks_per_rank",
                value: banks,
                max: MAX_BANKS,
            });
        }
        let channel_banks = self.geometry.ranks_per_channel.saturating_mul(banks);
        if channel_banks > MAX_CHANNEL_BANKS {
            return Err(ConfigError::BankLimit {
                knob: "ranks_per_channel x banks_per_rank",
                value: channel_banks,
                max: MAX_CHANNEL_BANKS,
            });
        }
        self.timing.validate().map_err(ConfigError::Timing)?;
        self.queues.validate()?;
        if self.row_hit_cap < 1 {
            return Err(ConfigError::RowHitCap);
        }
        if self.liveness.max_queue_age_cycles > 0
            && self.starvation_escalation_age > 0
            && self.liveness.max_queue_age_cycles <= self.starvation_escalation_age
        {
            return Err(ConfigError::Liveness(format!(
                "starvation watchdog bound {} must exceed the escalation age {} \
                 (otherwise the watchdog kills runs escalation would have rescued)",
                self.liveness.max_queue_age_cycles, self.starvation_escalation_age
            )));
        }
        if let Some(rec) = &self.recovery {
            rec.validate()
                .map_err(|e| ConfigError::Recovery(e.to_string()))?;
            // A faulted command can legally sit in the queue for the whole
            // replay ladder; if that window reaches the starvation bound,
            // the watchdog kills exactly the runs recovery exists to save.
            let replay_window = u64::from(rec.max_retries).saturating_mul(rec.backoff_cycles);
            if self.liveness.max_queue_age_cycles > 0
                && replay_window >= self.liveness.max_queue_age_cycles
            {
                return Err(ConfigError::Recovery(format!(
                    "recovery replay window (max_retries {} x backoff_cycles {} = {} cycles) \
                     must stay below the starvation watchdog bound \
                     liveness.max_queue_age_cycles {} — the watchdog would classify a \
                     still-replaying request as starved",
                    rec.max_retries,
                    rec.backoff_cycles,
                    replay_window,
                    self.liveness.max_queue_age_cycles
                )));
            }
        }
        Ok(())
    }

    /// Panicking wrapper around [`DramConfig::validate`].
    ///
    /// # Panics
    ///
    /// Panics with the [`ConfigError`] message on any inconsistency.
    #[expect(
        clippy::panic,
        reason = "documented panicking facade over validate(), runs once before simulation"
    )]
    pub fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid DRAM configuration: {e}");
        }
    }
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::baseline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_baseline_is_valid() {
        DramConfig::default().assert_valid();
        DramConfig::paper_baseline(PagePolicy::RestrictedClosePage, SchemeBehavior::pra())
            .assert_valid();
    }

    #[test]
    fn every_policy_cli_name_parses_back() {
        for p in PagePolicy::ALL {
            assert_eq!(p.cli_name().parse::<PagePolicy>(), Ok(p));
        }
        assert_eq!(
            "Relaxed_Close_Page".parse::<PagePolicy>(),
            Ok(PagePolicy::RelaxedClosePage)
        );
        assert_eq!(
            "lazy".parse::<PagePolicy>(),
            Err("unknown policy \"lazy\"; valid: relaxed, restricted, open".to_string())
        );
    }

    #[test]
    fn ddr4_config_is_valid() {
        DramConfig::ddr4_2400(PagePolicy::RelaxedClosePage, SchemeBehavior::pra()).assert_valid();
    }

    #[test]
    fn policy_mappings_follow_paper() {
        assert_eq!(
            PagePolicy::RelaxedClosePage.paper_mapping(),
            AddressMapping::RowInterleaved
        );
        assert_eq!(
            PagePolicy::RestrictedClosePage.paper_mapping(),
            AddressMapping::LineInterleaved
        );
    }

    #[test]
    #[should_panic(expected = "low watermark")]
    fn bad_watermarks_rejected() {
        let q = QueueConfig {
            read_capacity: 64,
            write_capacity: 64,
            write_high_watermark: 16,
            write_low_watermark: 48,
        };
        q.assert_valid();
    }

    #[test]
    fn validate_rejects_watermark_above_capacity() {
        let mut cfg = DramConfig::default();
        cfg.queues.write_high_watermark = cfg.queues.write_capacity + 1;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Queues(_)));
        assert!(err.to_string().contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn validate_rejects_inverted_watermarks() {
        let mut cfg = DramConfig::default();
        cfg.queues.write_low_watermark = 48;
        cfg.queues.write_high_watermark = 16;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("low watermark"), "{err}");
    }

    #[test]
    fn validate_rejects_empty_queues() {
        let mut cfg = DramConfig::default();
        cfg.queues.read_capacity = 0;
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("non-empty"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_banks() {
        let mut cfg = DramConfig::default();
        cfg.geometry.banks_per_rank = 0;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Geometry(_)));
        assert!(err.to_string().contains("bank"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_ranks() {
        let mut cfg = DramConfig::default();
        cfg.geometry.ranks_per_channel = 0;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Geometry(_)));
        assert!(err.to_string().contains("rank"), "{err}");
    }

    #[test]
    fn validate_rejects_more_than_16_banks_per_rank() {
        let mut cfg = DramConfig::default();
        cfg.geometry.banks_per_rank = 32;
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BankLimit {
                knob: "banks_per_rank",
                value: 32,
                max: 16
            }
        );
        assert!(err.to_string().contains("banks_per_rank is 32"), "{err}");
        cfg.geometry.banks_per_rank = 16;
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_more_than_64_banks_per_channel() {
        let mut cfg = DramConfig::default();
        cfg.geometry.banks_per_rank = 16;
        cfg.geometry.ranks_per_channel = 8;
        let err = cfg.validate().unwrap_err();
        assert_eq!(
            err,
            ConfigError::BankLimit {
                knob: "ranks_per_channel x banks_per_rank",
                value: 128,
                max: 64
            }
        );
        assert!(err.to_string().contains("ranks_per_channel"), "{err}");
        cfg.geometry.ranks_per_channel = 4;
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_short_tras() {
        let mut cfg = DramConfig::default();
        cfg.timing.tras = cfg.timing.trcd + cfg.timing.tcas - 1;
        cfg.timing.trc = cfg.timing.tras + cfg.timing.trp;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Timing(_)));
        assert!(err.to_string().contains("tRAS"), "{err}");
    }

    #[test]
    fn validate_rejects_zero_row_hit_cap() {
        let cfg = DramConfig {
            row_hit_cap: 0,
            ..DramConfig::default()
        };
        assert_eq!(cfg.validate().unwrap_err(), ConfigError::RowHitCap);
    }

    #[test]
    fn validate_rejects_watchdog_bound_below_escalation_age() {
        let mut cfg = DramConfig {
            starvation_escalation_age: 500,
            ..DramConfig::default()
        };
        cfg.liveness.max_queue_age_cycles = 400;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Liveness(_)));
        assert!(err.to_string().contains("escalation age"), "{err}");
        // Disabling escalation (or raising the bound) makes it valid again.
        cfg.starvation_escalation_age = 0;
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_recovery_config() {
        let mut cfg = DramConfig {
            recovery: Some(RecoveryConfig {
                alert_latency: 0,
                ..RecoveryConfig::default()
            }),
            ..DramConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Recovery(_)));
        assert!(err.to_string().contains("alert_latency"), "{err}");
        cfg.recovery = Some(RecoveryConfig::default());
        cfg.validate().unwrap();
    }

    #[test]
    fn validate_rejects_replay_window_at_or_above_starvation_bound() {
        // 5 retries x 200 backoff = 1000 >= a 1000-cycle starvation bound:
        // the watchdog would kill a request that is still mid-replay.
        let mut cfg = DramConfig {
            recovery: Some(RecoveryConfig {
                max_retries: 5,
                backoff_cycles: 200,
                ..RecoveryConfig::default()
            }),
            // Disable escalation so its own (stricter) bound check does not
            // fire first — this test isolates the replay-window rule.
            starvation_escalation_age: 0,
            ..DramConfig::default()
        };
        cfg.liveness.max_queue_age_cycles = 1_000;
        let err = cfg.validate().unwrap_err();
        assert!(matches!(err, ConfigError::Recovery(_)));
        assert!(err.to_string().contains("max_retries 5"), "{err}");
        assert!(err.to_string().contains("backoff_cycles 200"), "{err}");
        assert!(
            err.to_string().contains("max_queue_age_cycles 1000"),
            "{err}"
        );
        // Either disarming the watchdog or shrinking the ladder fixes it.
        cfg.liveness.max_queue_age_cycles = 0;
        cfg.validate().unwrap();
        cfg.liveness.max_queue_age_cycles = 1_000;
        cfg.recovery = Some(RecoveryConfig {
            max_retries: 3,
            backoff_cycles: 8,
            ..RecoveryConfig::default()
        });
        cfg.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "invalid DRAM configuration")]
    fn assert_valid_panics_with_readable_message() {
        let cfg = DramConfig {
            row_hit_cap: 0,
            ..DramConfig::default()
        };
        cfg.assert_valid();
    }
}
