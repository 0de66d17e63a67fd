//! Deterministic fault injection for the PRA simulation stack.
//!
//! The PRA mechanism is only correct if the mask-transfer path and the
//! cache's fine-grained dirty bits never silently lose state. This crate
//! provides the adversarial half of that argument: a seed-driven
//! [`FaultPlan`] describing *what* to perturb and how often, and per-domain
//! [`FaultInjector`]s that the DRAM controller and the cache hierarchy
//! consult behind `Option` hooks — zero branches taken, zero RNG draws,
//! and bit-identical behaviour when no injector is attached.
//!
//! # Fault taxonomy
//!
//! | knob | domain | models |
//! |---|---|---|
//! | `mask_corrupt_rate` | DRAM | a single-bit upset on the PRA mask transfer (Fig. 7a's extra address-bus cycle); detected by the even-parity bit and degraded to a full-row activation |
//! | `mask_escape_rate` | DRAM | the fraction of mask upsets that flip *two* bits — even parity matches and the corruption escapes detection |
//! | `persistent_rate` | DRAM | the fraction of mask upsets that are *persistent*: the (rank, bank, row) site joins a sticky set and every later masked activation there faults deterministically |
//! | `transient_burst_len` | DRAM | transient mask upsets repeat for this many consecutive masked activations of the same site before clearing (1 = single-shot) |
//! | `command_drop_rate` | DRAM | a command lost on the command bus; the scheduler's queue entry survives and the command retries |
//! | `command_stretch_rate` | DRAM | an activation whose mask transfer is retried, adding `command_stretch_cycles` to its activate-to-column delay |
//! | `refresh_interval_divisor` | DRAM | thermal refresh stress: tREFI divided by this factor |
//! | `dirty_flip_rate` | cache | an FGD dirty-bit upset on an L2 eviction; fail-safe direction only (a spurious *set* bit widens the writeback, never loses data) |
//!
//! # Determinism guarantee
//!
//! Each injector owns a private [`mem_model::rng::Rng`] seeded from
//! `plan.seed` XOR a per-[`Domain`] salt, and every injection decision is a
//! pure function of that stream. Two runs of the same configuration and the
//! same plan make identical decisions at identical points, so end-to-end
//! reports (and their `state_digest()`) are byte-identical. Knobs set to
//! zero draw nothing from the stream.
//!
//! # Example
//!
//! ```
//! use sim_fault::{Domain, FaultPlan};
//!
//! let plan = FaultPlan::from_toml_str(
//!     "# stress plan\nseed = 7\nmask_corrupt_rate = 0.25\n",
//! )
//! .unwrap();
//! let mut a = plan.injector(Domain::Dram);
//! let mut b = plan.injector(Domain::Dram);
//! let mask = mem_model::WordMask::single(3);
//! assert_eq!(a.corrupt_mask(mask), b.corrupt_mask(mask));
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(missing_docs)]

use core::fmt;
use std::collections::{BTreeMap, BTreeSet};

use mem_model::rng::Rng;
use mem_model::{WordMask, WORDS_PER_LINE};
use sim_obs::MetricsRegistry;
use sim_snap::codec::kv_lines;
use sim_snap::{SnapError, SnapReader, SnapState, SnapWriter};

/// Even parity of a PRA mask's eight bits — the redundancy bit the
/// controller drives alongside the mask-transfer cycle. A single-bit upset
/// always flips the parity and is therefore always detected; an even number
/// of flips escapes (documented limitation of single-parity protection).
pub fn even_parity(mask: WordMask) -> bool {
    mask.bits().count_ones().is_multiple_of(2)
}

/// Error returned when a fault plan cannot be parsed or is inconsistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanError(String);

impl fmt::Display for PlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

fn plan_err(msg: impl Into<String>) -> PlanError {
    PlanError(msg.into())
}

/// Which simulation layer an injector perturbs. Each domain derives its own
/// RNG stream from the plan seed, so attaching the cache injector cannot
/// shift the DRAM domain's decisions (and vice versa).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Domain {
    /// The DRAM command path (mask transfers, command bus, refresh).
    Dram,
    /// The cache hierarchy (FGD dirty bits).
    Cache,
}

impl Domain {
    const fn salt(self) -> u64 {
        match self {
            Domain::Dram => 0x4452_414D_5F46_4C54,  // "DRAM_FLT"
            Domain::Cache => 0x4341_4348_5F46_4C54, // "CACH_FLT"
        }
    }
}

/// A declarative description of the faults one run injects.
///
/// All rates are per-opportunity probabilities in `[0, 1]`; the
/// [`FaultPlan::disabled`] plan (all zeros, divisor 1) injects nothing.
/// Plans parse from a minimal TOML subset via
/// [`FaultPlan::from_toml_str`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed for the injectors' deterministic RNG streams.
    pub seed: u64,
    /// Probability a partial activation's mask transfer suffers a
    /// single-bit upset.
    pub mask_corrupt_rate: f64,
    /// Fraction of mask upsets that flip two bits instead of one. Even
    /// parity matches, so the chip cannot detect the corruption — the
    /// activation proceeds with the wrong coverage (counted as an escape).
    pub mask_escape_rate: f64,
    /// Fraction of detected mask upsets that are *persistent*: the
    /// faulted (rank, bank, row) site joins a sticky set, and every later
    /// masked activation of that site faults deterministically (retries
    /// cannot succeed until the row is demoted to full-row activations).
    pub persistent_rate: f64,
    /// How many consecutive masked activations of the same site a
    /// *transient* mask upset corrupts before clearing. 1 (the default)
    /// is a single-shot upset — the first retry succeeds.
    pub transient_burst_len: u64,
    /// Probability an issued column/activate command is lost on the bus.
    pub command_drop_rate: f64,
    /// Probability an activation is stretched by
    /// [`command_stretch_cycles`](FaultPlan::command_stretch_cycles).
    pub command_stretch_rate: f64,
    /// Extra activate-to-column cycles a stretched activation pays.
    pub command_stretch_cycles: u64,
    /// Probability an L2 eviction suffers a spurious FGD dirty-bit set.
    pub dirty_flip_rate: f64,
    /// tREFI is divided by this factor (1 = nominal; larger = thermal
    /// refresh stress).
    pub refresh_interval_divisor: u64,
}

impl FaultPlan {
    /// The all-off plan: every rate zero, nominal refresh.
    pub const fn disabled() -> Self {
        FaultPlan {
            seed: 0,
            mask_corrupt_rate: 0.0,
            mask_escape_rate: 0.0,
            persistent_rate: 0.0,
            transient_burst_len: 1,
            command_drop_rate: 0.0,
            command_stretch_rate: 0.0,
            command_stretch_cycles: 0,
            dirty_flip_rate: 0.0,
            refresh_interval_divisor: 1,
        }
    }

    /// `true` when this plan can never inject anything — the caller may
    /// skip attaching injectors entirely, keeping the no-fault fast path
    /// bit-identical to a build without this crate.
    pub fn is_noop(&self) -> bool {
        self.mask_corrupt_rate == 0.0
            && self.command_drop_rate == 0.0
            && self.command_stretch_rate == 0.0
            && self.dirty_flip_rate == 0.0
            && self.refresh_interval_divisor <= 1
    }

    /// Checks rates and factors for consistency.
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the first offending knob: rates must
    /// lie in `[0, 1]`, the refresh divisor must be at least 1, and a
    /// non-zero stretch rate needs a non-zero stretch length.
    pub fn validate(&self) -> Result<(), PlanError> {
        for (name, rate) in [
            ("mask_corrupt_rate", self.mask_corrupt_rate),
            ("mask_escape_rate", self.mask_escape_rate),
            ("persistent_rate", self.persistent_rate),
            ("command_drop_rate", self.command_drop_rate),
            ("command_stretch_rate", self.command_stretch_rate),
            ("dirty_flip_rate", self.dirty_flip_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(plan_err(format!(
                    "{name} must be within [0, 1], got {rate}"
                )));
            }
        }
        if self.refresh_interval_divisor == 0 {
            return Err(plan_err("refresh_interval_divisor must be at least 1"));
        }
        if self.transient_burst_len == 0 {
            return Err(plan_err(
                "transient_burst_len must be at least 1 (1 = single-shot)",
            ));
        }
        if self.command_stretch_rate > 0.0 && self.command_stretch_cycles == 0 {
            return Err(plan_err(
                "command_stretch_rate needs command_stretch_cycles >= 1",
            ));
        }
        Ok(())
    }

    /// Parses a plan from a minimal TOML subset: `key = value` lines, `#`
    /// comments, and an optional `[faults]` section header. Unknown keys
    /// are errors (a typo must not silently disable a fault).
    ///
    /// # Errors
    ///
    /// Returns a [`PlanError`] naming the offending line *and key*: parse
    /// failures, unknown keys/sections, and out-of-range values are all
    /// reported as `line N: <key> ...`. Cross-key inconsistencies (which
    /// have no single offending line) still come from
    /// [`FaultPlan::validate`] without a line number.
    pub fn from_toml_str(text: &str) -> Result<Self, PlanError> {
        let plan = Self::parse_toml(text).map_err(plan_err)?;
        plan.validate()?;
        Ok(plan)
    }

    fn parse_toml(text: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::disabled();
        for kv in kv_lines(text, "[faults]") {
            let kv = kv?;
            // Positive integer: an integer with a per-key lower bound of 1.
            let at_least_1 = || match kv.u64()? {
                0 => Err(kv.error(format_args!(
                    "{} must be at least 1, got {}",
                    kv.key, kv.value
                ))),
                n => Ok(n),
            };
            let rate = || {
                let rate = kv.f64()?;
                if !(0.0..=1.0).contains(&rate) {
                    return Err(kv.error(format_args!(
                        "{} must be within [0, 1], got {}",
                        kv.key, kv.value
                    )));
                }
                Ok(rate)
            };
            match kv.key {
                "seed" => plan.seed = kv.u64()?,
                "mask_corrupt_rate" => plan.mask_corrupt_rate = rate()?,
                "mask_escape_rate" => plan.mask_escape_rate = rate()?,
                "persistent_rate" => plan.persistent_rate = rate()?,
                "transient_burst_len" => plan.transient_burst_len = at_least_1()?,
                "command_drop_rate" => plan.command_drop_rate = rate()?,
                "command_stretch_rate" => plan.command_stretch_rate = rate()?,
                "command_stretch_cycles" => plan.command_stretch_cycles = kv.u64()?,
                "dirty_flip_rate" => plan.dirty_flip_rate = rate()?,
                "refresh_interval_divisor" => plan.refresh_interval_divisor = at_least_1()?,
                other => return Err(kv.error(format_args!("unknown key {other:?}"))),
            }
        }
        Ok(plan)
    }

    /// An injector for one simulation domain, with its own derived RNG
    /// stream.
    pub fn injector(&self, domain: Domain) -> FaultInjector {
        FaultInjector {
            plan: *self,
            rng: Rng::seed_from_u64(self.seed ^ domain.salt()),
            counts: FaultCounts::default(),
            persistent_sites: BTreeSet::new(),
            burst_remaining: BTreeMap::new(),
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

/// Counters over every fault event an injector produced and how the
/// hardened layers responded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultCounts {
    /// Total fault events injected (sum of the specific counters below).
    pub injected: u64,
    /// Injected faults the hardened path *noticed* (parity mismatches).
    pub detected: u64,
    /// Detected faults answered by graceful degradation (full-row
    /// fallback activations).
    pub degraded: u64,
    /// Injected faults that escaped detection entirely (even-flip mask
    /// corruptions whose parity still matched). Always `<= injected`;
    /// `masks_corrupted == detected-mask-faults + escaped` in the
    /// parity-protected model.
    pub escaped: u64,
    /// PRA mask transfers corrupted.
    pub masks_corrupted: u64,
    /// Commands dropped on the command bus.
    pub commands_dropped: u64,
    /// Activations stretched.
    pub commands_stretched: u64,
    /// Spurious FGD dirty bits set.
    pub dirty_bits_flipped: u64,
}

impl FaultCounts {
    /// Field-wise sum, for merging per-domain injector counts into one
    /// report record.
    #[must_use]
    pub fn merged(self, other: FaultCounts) -> FaultCounts {
        FaultCounts {
            injected: self.injected + other.injected,
            detected: self.detected + other.detected,
            degraded: self.degraded + other.degraded,
            escaped: self.escaped + other.escaped,
            masks_corrupted: self.masks_corrupted + other.masks_corrupted,
            commands_dropped: self.commands_dropped + other.commands_dropped,
            commands_stretched: self.commands_stretched + other.commands_stretched,
            dirty_bits_flipped: self.dirty_bits_flipped + other.dirty_bits_flipped,
        }
    }

    /// Mirrors the counts into a metrics registry under
    /// `{prefix}.injected`, `{prefix}.detected`, `{prefix}.degraded` and
    /// the per-kind counters.
    pub fn publish_to(&self, registry: &mut MetricsRegistry, prefix: &str) {
        let mut set = |name: String, value: u64| {
            let id = registry.counter(&name);
            registry.set_counter(id, value);
        };
        set(format!("{prefix}.injected"), self.injected);
        set(format!("{prefix}.detected"), self.detected);
        set(format!("{prefix}.degraded"), self.degraded);
        set(format!("{prefix}.masks_corrupted"), self.masks_corrupted);
        set(format!("{prefix}.commands_dropped"), self.commands_dropped);
        set(
            format!("{prefix}.commands_stretched"),
            self.commands_stretched,
        );
        set(
            format!("{prefix}.dirty_bits_flipped"),
            self.dirty_bits_flipped,
        );
    }
}

/// A DRAM location a fault can stick to, for transient-vs-persistent
/// classification: persistent faults key a sticky set by site, transient
/// bursts count down per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct FaultSite {
    /// Rank within the channel.
    pub rank: u32,
    /// Bank within the rank.
    pub bank: u32,
    /// Row within the bank.
    pub row: u32,
}

/// The outcome of a site-classified mask-transfer fault draw
/// ([`FaultInjector::corrupt_mask_at`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaskFault {
    /// The corrupted mask as the chip receives it.
    pub mask: WordMask,
    /// An even number of bits flipped: the parity bit still matches, so
    /// the chip cannot detect the corruption and the activation proceeds
    /// with the wrong coverage.
    pub escaped: bool,
    /// The site is (now) in the sticky persistent set: every later masked
    /// activation there faults deterministically — a retry cannot succeed.
    pub persistent: bool,
}

/// A per-domain fault source: consult it at each injection opportunity.
///
/// Every method with a zero-rate knob returns without touching the RNG, so
/// a plan that only exercises one fault class perturbs nothing else.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    rng: Rng,
    counts: FaultCounts,
    /// Sites whose mask transfers fault deterministically (persistent
    /// faults); populated by [`FaultInjector::corrupt_mask_at`].
    persistent_sites: BTreeSet<FaultSite>,
    /// Remaining fault repetitions per site for in-flight transient
    /// bursts (`transient_burst_len > 1` plans only).
    burst_remaining: BTreeMap<FaultSite, u64>,
}

impl FaultInjector {
    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Counters accumulated so far.
    pub fn counts(&self) -> FaultCounts {
        self.counts
    }

    /// Mirrors the counters into a metrics registry under `prefix`.
    pub fn publish_to(&self, registry: &mut MetricsRegistry, prefix: &str) {
        self.counts.publish_to(registry, prefix);
    }

    /// A single-bit upset on a PRA mask transfer: returns the corrupted
    /// mask (exactly one bit flipped) when the fault fires, `None`
    /// otherwise. The accompanying parity bit still describes the
    /// *original* mask, so the receiver always detects the flip.
    pub fn corrupt_mask(&mut self, mask: WordMask) -> Option<WordMask> {
        if self.plan.mask_corrupt_rate <= 0.0 || !self.rng.random_bool(self.plan.mask_corrupt_rate)
        {
            return None;
        }
        self.counts.injected += 1;
        self.counts.masks_corrupted += 1;
        let bit = self.rng.bounded_u64(WORDS_PER_LINE as u64) as u8;
        Some(WordMask::from_bits(mask.bits() ^ (1 << bit)))
    }

    /// Site-classified variant of [`FaultInjector::corrupt_mask`]: the
    /// fault decision consults the sticky persistent set and any in-flight
    /// transient burst for `site` before drawing fresh randomness, so
    /// retries of a persistent fault deterministically keep failing while
    /// single-shot transients succeed on replay. Fresh faults are
    /// classified on first fire: escaped (even flip, undetectable) with
    /// probability `mask_escape_rate`, else persistent with probability
    /// `persistent_rate` (the site turns sticky), else transient for
    /// `transient_burst_len` consecutive attempts.
    ///
    /// With the classification knobs at their defaults this draws exactly
    /// the same RNG sequence as [`FaultInjector::corrupt_mask`].
    pub fn corrupt_mask_at(&mut self, site: FaultSite, mask: WordMask) -> Option<MaskFault> {
        let sticky = self.persistent_sites.contains(&site);
        let burst = if sticky {
            0
        } else {
            self.burst_remaining.get(&site).copied().unwrap_or(0)
        };
        let fresh = !sticky && burst == 0;
        let fires = !fresh
            || (self.plan.mask_corrupt_rate > 0.0
                && self.rng.random_bool(self.plan.mask_corrupt_rate));
        if !fires {
            return None;
        }
        if burst > 0 {
            if burst == 1 {
                self.burst_remaining.remove(&site);
            } else {
                self.burst_remaining.insert(site, burst - 1);
            }
        }
        let mut escaped = false;
        let mut persistent = sticky;
        if fresh {
            if self.plan.mask_escape_rate > 0.0 && self.rng.random_bool(self.plan.mask_escape_rate)
            {
                escaped = true;
            } else if self.plan.persistent_rate > 0.0
                && self.rng.random_bool(self.plan.persistent_rate)
            {
                persistent = true;
                self.persistent_sites.insert(site);
            } else if self.plan.transient_burst_len > 1 {
                self.burst_remaining
                    .insert(site, self.plan.transient_burst_len - 1);
            }
        }
        self.counts.injected += 1;
        self.counts.masks_corrupted += 1;
        if escaped {
            self.counts.escaped += 1;
        }
        let bit = self.rng.bounded_u64(WORDS_PER_LINE as u64) as u8;
        let bits = if escaped {
            // Flip a second, distinct bit so the popcount parity of the
            // corruption is even and the parity bit still matches.
            let offset = 1 + self.rng.bounded_u64(WORDS_PER_LINE as u64 - 1) as u8;
            let second = (bit + offset) % WORDS_PER_LINE as u8;
            mask.bits() ^ (1 << bit) ^ (1 << second)
        } else {
            mask.bits() ^ (1 << bit)
        };
        Some(MaskFault {
            mask: WordMask::from_bits(bits),
            escaped,
            persistent,
        })
    }

    /// Whether `site` is currently in the sticky persistent-fault set.
    pub fn is_persistent_site(&self, site: FaultSite) -> bool {
        self.persistent_sites.contains(&site)
    }

    /// Records that a corrupted mask was caught (parity mismatch) and
    /// answered by a full-row fallback activation.
    pub fn record_mask_fault_handled(&mut self) {
        self.counts.detected += 1;
        self.counts.degraded += 1;
    }

    /// Records a detected fault (parity mismatch) *without* an immediate
    /// degradation — the recovery pipeline will retry it first.
    pub fn record_fault_detected(&mut self) {
        self.counts.detected += 1;
    }

    /// Records a terminal graceful degradation (retry budget exhausted,
    /// full-row fallback issued). Pairs with earlier
    /// [`FaultInjector::record_fault_detected`] calls.
    pub fn record_fault_degraded(&mut self) {
        self.counts.degraded += 1;
    }

    /// Whether the command about to issue is lost on the bus.
    pub fn drop_command(&mut self) -> bool {
        if self.plan.command_drop_rate <= 0.0 || !self.rng.random_bool(self.plan.command_drop_rate)
        {
            return false;
        }
        self.counts.injected += 1;
        self.counts.commands_dropped += 1;
        true
    }

    /// Extra activate-to-column cycles the activation about to issue pays
    /// (0 when the fault does not fire).
    pub fn stretch_command(&mut self) -> u64 {
        if self.plan.command_stretch_rate <= 0.0
            || !self.rng.random_bool(self.plan.command_stretch_rate)
        {
            return 0;
        }
        self.counts.injected += 1;
        self.counts.commands_stretched += 1;
        self.plan.command_stretch_cycles
    }

    /// A spurious FGD dirty-bit set on an eviction's merged mask: returns
    /// the widened mask when the fault fires and a clear bit exists.
    /// Fail-safe by construction — bits are only ever *set* (a cleared
    /// dirty bit would be silent data loss, which FGD cannot tolerate
    /// without ECC; see DESIGN.md).
    pub fn flip_dirty_bit(&mut self, mask: WordMask) -> Option<WordMask> {
        if self.plan.dirty_flip_rate <= 0.0 || !self.rng.random_bool(self.plan.dirty_flip_rate) {
            return None;
        }
        let clear: Vec<u8> = (0..WORDS_PER_LINE as u8)
            .filter(|&w| !mask.contains(w))
            .collect();
        if clear.is_empty() {
            return None; // already fully dirty; nothing to widen
        }
        self.counts.injected += 1;
        self.counts.dirty_bits_flipped += 1;
        let pick = clear[self.rng.bounded_u64(clear.len() as u64) as usize];
        Some(mask | WordMask::single(pick))
    }

    /// The refresh interval under stress: `trefi / divisor`, never below
    /// one cycle. Draws nothing from the RNG.
    pub fn effective_trefi(&self, trefi: u64) -> u64 {
        (trefi / self.plan.refresh_interval_divisor).max(1)
    }
}

impl SnapState for FaultInjector {
    // The plan itself is configuration (covered by the snapshot's config
    // digest), so only the mutable fault state travels: the RNG position,
    // the counters, the sticky persistent set and in-flight bursts.
    fn snap_save(&self, w: &mut SnapWriter) {
        w.section("fault-injector");
        for word in self.rng.state() {
            w.u64(word);
        }
        let c = self.counts;
        for v in [
            c.injected,
            c.detected,
            c.degraded,
            c.escaped,
            c.masks_corrupted,
            c.commands_dropped,
            c.commands_stretched,
            c.dirty_bits_flipped,
        ] {
            w.u64(v);
        }
        w.seq(self.persistent_sites.len());
        for site in &self.persistent_sites {
            w.u32(site.rank);
            w.u32(site.bank);
            w.u32(site.row);
        }
        w.seq(self.burst_remaining.len());
        for (site, left) in &self.burst_remaining {
            w.u32(site.rank);
            w.u32(site.bank);
            w.u32(site.row);
            w.u64(*left);
        }
    }

    fn snap_load(&mut self, r: &mut SnapReader) -> Result<(), SnapError> {
        r.section("fault-injector")?;
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.u64()?;
        }
        self.rng.set_state(s);
        self.counts = FaultCounts {
            injected: r.u64()?,
            detected: r.u64()?,
            degraded: r.u64()?,
            escaped: r.u64()?,
            masks_corrupted: r.u64()?,
            commands_dropped: r.u64()?,
            commands_stretched: r.u64()?,
            dirty_bits_flipped: r.u64()?,
        };
        self.persistent_sites.clear();
        for _ in 0..r.seq()? {
            self.persistent_sites.insert(FaultSite {
                rank: r.u32()?,
                bank: r.u32()?,
                row: r.u32()?,
            });
        }
        self.burst_remaining.clear();
        for _ in 0..r.seq()? {
            let site = FaultSite {
                rank: r.u32()?,
                bank: r.u32()?,
                row: r.u32()?,
            };
            self.burst_remaining.insert(site, r.u64()?);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stress_plan() -> FaultPlan {
        FaultPlan {
            seed: 42,
            mask_corrupt_rate: 0.5,
            command_drop_rate: 0.25,
            command_stretch_rate: 0.25,
            command_stretch_cycles: 3,
            dirty_flip_rate: 0.5,
            refresh_interval_divisor: 4,
            ..FaultPlan::disabled()
        }
    }

    fn site(row: u32) -> FaultSite {
        FaultSite {
            rank: 0,
            bank: 0,
            row,
        }
    }

    #[test]
    fn disabled_plan_is_noop_and_valid() {
        let plan = FaultPlan::disabled();
        assert!(plan.is_noop());
        plan.validate().unwrap();
        assert!(!stress_plan().is_noop());
    }

    #[test]
    fn validate_rejects_each_bad_knob() {
        let mut p = FaultPlan::disabled();
        p.mask_corrupt_rate = 1.5;
        assert!(p
            .validate()
            .unwrap_err()
            .to_string()
            .contains("mask_corrupt_rate"));
        let mut p = FaultPlan::disabled();
        p.command_drop_rate = -0.1;
        assert!(p.validate().is_err());
        let mut p = FaultPlan::disabled();
        p.refresh_interval_divisor = 0;
        assert!(p.validate().unwrap_err().to_string().contains("divisor"));
        let mut p = FaultPlan::disabled();
        p.command_stretch_rate = 0.5; // stretch length left at 0
        assert!(p.validate().unwrap_err().to_string().contains("stretch"));
    }

    #[test]
    fn toml_subset_parses_comments_header_and_keys() {
        let plan = FaultPlan::from_toml_str(
            "# stress\n[faults]\nseed = 9\nmask_corrupt_rate = 0.5 # inline\n\ncommand_drop_rate = 0.25\ncommand_stretch_rate = 0.1\ncommand_stretch_cycles = 2\ndirty_flip_rate = 0.01\nrefresh_interval_divisor = 2\n",
        )
        .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.mask_corrupt_rate, 0.5);
        assert_eq!(plan.command_stretch_cycles, 2);
        assert_eq!(plan.refresh_interval_divisor, 2);
    }

    #[test]
    fn toml_rejects_unknown_keys_sections_and_bad_values() {
        let e = FaultPlan::from_toml_str("mask_corupt_rate = 0.5\n").unwrap_err();
        assert!(e.to_string().contains("unknown key"), "{e}");
        let e = FaultPlan::from_toml_str("[refresh]\n").unwrap_err();
        assert!(e.to_string().contains("unknown section"), "{e}");
        let e = FaultPlan::from_toml_str("seed = banana\n").unwrap_err();
        assert!(e.to_string().contains("integer"), "{e}");
        let e = FaultPlan::from_toml_str("just some words\n").unwrap_err();
        assert!(e.to_string().contains("key = value"), "{e}");
        // Out-of-range rates are caught at parse time too.
        let e = FaultPlan::from_toml_str("dirty_flip_rate = 2.0\n").unwrap_err();
        assert!(e.to_string().contains("within [0, 1]"), "{e}");
    }

    #[test]
    fn toml_errors_name_the_offending_line_and_key_per_knob() {
        // One malformed assignment per knob; every error must carry the
        // 1-based line number of the bad assignment and the key name, so a
        // typo deep in a plan file is immediately locatable.
        let cases: &[(&str, &str)] = &[
            ("seed = 1.5", "seed"),
            ("mask_corrupt_rate = 1.01", "mask_corrupt_rate"),
            ("mask_escape_rate = -0.2", "mask_escape_rate"),
            ("persistent_rate = two", "persistent_rate"),
            ("transient_burst_len = 0", "transient_burst_len"),
            ("command_drop_rate = 7", "command_drop_rate"),
            ("command_stretch_rate = nan?", "command_stretch_rate"),
            ("command_stretch_cycles = -3", "command_stretch_cycles"),
            ("dirty_flip_rate = 100", "dirty_flip_rate"),
            ("refresh_interval_divisor = 0", "refresh_interval_divisor"),
        ];
        for (bad_line, key) in cases {
            // Two leading comment lines place the bad assignment on line 3.
            let text = format!("# chaos plan\n[faults]\n{bad_line}\n");
            let e = FaultPlan::from_toml_str(&text).unwrap_err().to_string();
            assert!(e.contains("line 3"), "{key}: missing line number in {e:?}");
            assert!(e.contains(key), "{key}: key not named in {e:?}");
        }
    }

    #[test]
    fn classification_knobs_parse_and_default() {
        let plan = FaultPlan::from_toml_str(
            "mask_corrupt_rate = 0.5\nmask_escape_rate = 0.1\npersistent_rate = 0.25\ntransient_burst_len = 3\n",
        )
        .unwrap();
        assert_eq!(plan.mask_escape_rate, 0.1);
        assert_eq!(plan.persistent_rate, 0.25);
        assert_eq!(plan.transient_burst_len, 3);
        assert_eq!(FaultPlan::disabled().transient_burst_len, 1);
        assert!(!plan.is_noop());
    }

    #[test]
    fn corrupt_mask_at_matches_corrupt_mask_without_classification_knobs() {
        // Same seed, classification knobs at defaults: both entry points
        // draw the same RNG stream and produce identical corruptions.
        let mut plan = FaultPlan::disabled();
        plan.mask_corrupt_rate = 0.5;
        let mut legacy = plan.injector(Domain::Dram);
        let mut classified = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([0, 3]);
        for row in 0..200 {
            let a = legacy.corrupt_mask(mask);
            let b = classified.corrupt_mask_at(site(row), mask);
            assert_eq!(a, b.map(|f| f.mask));
            if let Some(f) = b {
                assert!(!f.escaped);
                assert!(!f.persistent);
            }
        }
        assert_eq!(legacy.counts(), classified.counts());
    }

    #[test]
    fn persistent_sites_stick_and_keep_failing() {
        let mut plan = FaultPlan::disabled();
        plan.mask_corrupt_rate = 1.0;
        plan.persistent_rate = 1.0;
        let mut inj = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([1, 6]);
        let first = inj.corrupt_mask_at(site(9), mask).unwrap();
        assert!(first.persistent);
        assert!(inj.is_persistent_site(site(9)));
        // Every retry at the same site faults deterministically, even if
        // the rate draw would have spared it.
        for _ in 0..20 {
            let again = inj.corrupt_mask_at(site(9), mask).unwrap();
            assert!(again.persistent);
            assert!(!again.escaped);
        }
        assert_eq!(inj.counts().masks_corrupted, 21);
    }

    #[test]
    fn transient_bursts_clear_after_their_length() {
        let mut plan = FaultPlan::disabled();
        plan.mask_corrupt_rate = 1.0;
        plan.transient_burst_len = 3;
        let mut inj = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([2, 5]);
        // First fire opens a burst covering the next 2 attempts...
        assert!(inj.corrupt_mask_at(site(4), mask).is_some());
        assert!(inj.corrupt_mask_at(site(4), mask).is_some());
        assert!(inj.corrupt_mask_at(site(4), mask).is_some());
        assert!(!inj.is_persistent_site(site(4)));
        // ...and the burst state is gone afterwards (the next fire is a
        // fresh rate draw, which at rate 1.0 fires again — so check the
        // internal burst map drained via the Debug rendering instead).
        assert!(
            !format!("{inj:?}").contains("FaultSite { rank: 0, bank: 0, row: 4 }: "),
            "burst entry must be removed once it drains"
        );
    }

    #[test]
    fn escaped_faults_flip_two_bits_and_keep_parity() {
        let mut plan = FaultPlan::disabled();
        plan.mask_corrupt_rate = 1.0;
        plan.mask_escape_rate = 1.0;
        let mut inj = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([1, 6]);
        for row in 0..100 {
            let f = inj.corrupt_mask_at(site(row), mask).unwrap();
            assert!(f.escaped);
            assert_eq!((f.mask.bits() ^ mask.bits()).count_ones(), 2);
            assert_eq!(even_parity(f.mask), even_parity(mask), "parity matches");
            assert_ne!(f.mask, mask);
        }
        assert_eq!(inj.counts().escaped, 100);
        assert_eq!(inj.counts().masks_corrupted, 100);
        assert_eq!(inj.counts().detected, 0, "escapes are never detected");
    }

    #[test]
    fn detection_and_degradation_record_separately() {
        let plan = FaultPlan::disabled();
        let mut inj = plan.injector(Domain::Dram);
        inj.record_fault_detected();
        inj.record_fault_detected();
        inj.record_fault_degraded();
        assert_eq!(inj.counts().detected, 2);
        assert_eq!(inj.counts().degraded, 1);
        let merged = inj.counts().merged(FaultCounts {
            escaped: 3,
            ..FaultCounts::default()
        });
        assert_eq!(merged.escaped, 3);
    }

    #[test]
    fn injectors_are_deterministic_per_domain() {
        let plan = stress_plan();
        let mut a = plan.injector(Domain::Dram);
        let mut b = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([0, 3]);
        for _ in 0..200 {
            assert_eq!(a.corrupt_mask(mask), b.corrupt_mask(mask));
            assert_eq!(a.drop_command(), b.drop_command());
            assert_eq!(a.stretch_command(), b.stretch_command());
        }
        assert_eq!(a.counts(), b.counts());
        // Different domains derive different streams from the same seed.
        let mut c = plan.injector(Domain::Cache);
        let drams: Vec<bool> = (0..64)
            .map(|_| plan.injector(Domain::Dram).drop_command())
            .collect();
        let caches: Vec<bool> = (0..64).map(|_| c.drop_command()).collect();
        assert_ne!(drams, caches);
    }

    #[test]
    fn corrupt_mask_flips_one_bit_and_parity_catches_it() {
        let mut plan = FaultPlan::disabled();
        plan.mask_corrupt_rate = 1.0;
        let mut inj = plan.injector(Domain::Dram);
        let mask = WordMask::from_words([1, 6]);
        for _ in 0..100 {
            let corrupted = inj.corrupt_mask(mask).expect("rate 1.0 always fires");
            assert_eq!((corrupted.bits() ^ mask.bits()).count_ones(), 1);
            assert_ne!(even_parity(corrupted), even_parity(mask));
        }
        assert_eq!(inj.counts().masks_corrupted, 100);
        assert_eq!(inj.counts().injected, 100);
    }

    #[test]
    fn dirty_flip_only_widens_masks() {
        let mut plan = FaultPlan::disabled();
        plan.dirty_flip_rate = 1.0;
        let mut inj = plan.injector(Domain::Cache);
        let mask = WordMask::from_words([0, 2]);
        for _ in 0..50 {
            let widened = inj.flip_dirty_bit(mask).expect("rate 1.0 always fires");
            assert!(mask.is_subset_of(widened), "bits are only ever set");
            assert_eq!(widened.count_words(), mask.count_words() + 1);
        }
        // A fully dirty line has nothing to widen; no fault is recorded.
        let before = inj.counts().dirty_bits_flipped;
        assert_eq!(inj.flip_dirty_bit(WordMask::FULL), None);
        assert_eq!(inj.counts().dirty_bits_flipped, before);
    }

    #[test]
    fn zero_rate_knobs_never_touch_the_rng() {
        let plan = FaultPlan::disabled();
        let mut inj = plan.injector(Domain::Dram);
        let pristine = inj.clone();
        assert_eq!(inj.corrupt_mask(WordMask::single(0)), None);
        assert!(!inj.drop_command());
        assert_eq!(inj.stretch_command(), 0);
        assert_eq!(inj.flip_dirty_bit(WordMask::single(0)), None);
        assert_eq!(inj.effective_trefi(6240), 6240);
        assert_eq!(format!("{inj:?}"), format!("{pristine:?}"));
    }

    #[test]
    fn refresh_stress_divides_trefi() {
        let mut plan = FaultPlan::disabled();
        plan.refresh_interval_divisor = 4;
        let inj = plan.injector(Domain::Dram);
        assert_eq!(inj.effective_trefi(6240), 1560);
        assert_eq!(inj.effective_trefi(2), 1, "never below one cycle");
    }

    #[test]
    fn counts_merge_and_publish() {
        let mut plan = FaultPlan::disabled();
        plan.command_drop_rate = 1.0;
        let mut a = plan.injector(Domain::Dram);
        assert!(a.drop_command());
        let b = FaultCounts {
            detected: 2,
            degraded: 1,
            ..FaultCounts::default()
        };
        let merged = a.counts().merged(b);
        assert_eq!(merged.injected, 1);
        assert_eq!(merged.detected, 2);
        assert_eq!(merged.commands_dropped, 1);
        let mut reg = MetricsRegistry::new();
        merged.publish_to(&mut reg, "fault");
        assert_eq!(reg.counter_value("fault.injected"), Some(1));
        assert_eq!(reg.counter_value("fault.detected"), Some(2));
        assert_eq!(reg.counter_value("fault.degraded"), Some(1));
        assert_eq!(reg.counter_value("fault.commands_dropped"), Some(1));
    }

    #[test]
    fn snapshot_roundtrip_resumes_the_fault_stream() {
        let mut plan = stress_plan();
        plan.persistent_rate = 0.3;
        plan.transient_burst_len = 2;
        let mask = WordMask::from_words([0, 3]);
        let mut reference = plan.injector(Domain::Dram);
        for row in 0..100 {
            let _ = reference.corrupt_mask_at(site(row), mask);
            let _ = reference.drop_command();
        }
        let mut w = SnapWriter::new();
        reference.snap_save(&mut w);
        let payload = w.into_bytes();
        // Restore onto a fresh injector from the same plan, then both must
        // produce the identical remaining stream and counters.
        let mut restored = plan.injector(Domain::Dram);
        let mut r = SnapReader::new(&payload);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.counts(), reference.counts());
        for row in 0..100 {
            assert_eq!(
                reference.corrupt_mask_at(site(row), mask),
                restored.corrupt_mask_at(site(row), mask)
            );
            assert_eq!(reference.drop_command(), restored.drop_command());
        }
        assert_eq!(restored.counts(), reference.counts());
    }

    #[test]
    fn even_parity_tracks_popcount() {
        assert!(even_parity(WordMask::EMPTY));
        assert!(even_parity(WordMask::FULL));
        assert!(!even_parity(WordMask::single(5)));
        assert!(even_parity(WordMask::from_words([1, 4])));
    }
}
