//! DDR3 timing parameters in memory-controller clock cycles.

use core::fmt;

/// DDR3 timing constraints, in command-clock cycles (1.25 ns at DDR3-1600).
///
/// Defaults ([`TimingParams::ddr3_1600_table3`]) follow the paper's Table 3;
/// parameters the paper does not list (`wl`, `trtp`, `twtr`, `txp`, `trtrs`,
/// `trefi`, `trfc`) use standard DDR3-1600 2 Gb values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimingParams {
    /// Activate to internal read/write delay (tRCD).
    pub trcd: u64,
    /// Precharge period (tRP).
    pub trp: u64,
    /// CAS (read) latency (CL).
    pub tcas: u64,
    /// Write latency (CWL).
    pub wl: u64,
    /// Activate to precharge (tRAS).
    pub tras: u64,
    /// Write recovery time (tWR), end of write burst to precharge.
    pub twr: u64,
    /// Column-to-column delay (tCCD).
    pub tccd: u64,
    /// Activate-to-activate, different banks of a rank (tRRD).
    pub trrd: u64,
    /// Four-activation window (tFAW).
    pub tfaw: u64,
    /// Row cycle (tRC = tRAS + tRP).
    pub trc: u64,
    /// Read to precharge (tRTP).
    pub trtp: u64,
    /// Write-to-read turnaround (tWTR), end of write burst to read command.
    pub twtr: u64,
    /// Power-down exit latency (tXP).
    pub txp: u64,
    /// Rank-to-rank switching penalty on the data bus (tRTRS).
    pub trtrs: u64,
    /// Average refresh interval (tREFI).
    pub trefi: u64,
    /// Refresh cycle time (tRFC).
    pub trfc: u64,
    /// Data-bus cycles one BL8 transfer occupies (burst length 8 at double
    /// data rate = 4 clock cycles).
    pub burst_cycles: u64,
}

/// Error returned by [`TimingParams::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimingError(String);

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid timing: {}", self.0)
    }
}

impl std::error::Error for TimingError {}

impl TimingParams {
    /// The paper's Table 3 DDR3-1600 timing set.
    ///
    /// ```
    /// use dram_sim::TimingParams;
    /// let t = TimingParams::ddr3_1600_table3();
    /// assert_eq!(t.trc, t.tras + t.trp);
    /// ```
    pub const fn ddr3_1600_table3() -> Self {
        TimingParams {
            trcd: 11,
            trp: 11,
            tcas: 11,
            wl: 8,
            tras: 28,
            twr: 12,
            tccd: 4,
            trrd: 5,
            tfaw: 24,
            trc: 39,
            trtp: 6,
            twtr: 6,
            txp: 3,
            trtrs: 2,
            trefi: 6240, // 7.8 us / 1.25 ns
            trfc: 128,   // 160 ns / 1.25 ns (2 Gb device)
            burst_cycles: 4,
        }
    }

    /// A DDR4-2400 (8 Gb x8) parameter set, for exploring PRA beyond the
    /// paper's DDR3 baseline. Cycle counts at `tCK = 0.833 ns`; bank groups
    /// are not modelled, so the conservative same-group column spacing
    /// (tCCD_L) and activate spacing (tRRD_L) apply throughout.
    pub const fn ddr4_2400() -> Self {
        TimingParams {
            trcd: 16,
            trp: 16,
            tcas: 16,
            wl: 12,
            tras: 39,
            twr: 18,
            tccd: 6,
            trrd: 6,
            tfaw: 26,
            trc: 55,
            trtp: 9,
            twtr: 9,
            txp: 6,
            trtrs: 2,
            trefi: 9363, // 7.8 us / 0.833 ns
            trfc: 420,   // 350 ns / 0.833 ns (8 Gb device)
            burst_cycles: 4,
        }
    }

    /// The largest value [`validate`](Self::validate) accepts for each
    /// field. Every bound lies far above any DDR3 or DDR4 speed bin, and
    /// together they keep every sum the scheduler and the protocol checker
    /// form (a cycle count plus a few timing fields) far below `u64::MAX`.
    /// The set is itself valid, so a run can be driven at it.
    pub const MAX: TimingParams = TimingParams {
        trcd: 1 << 12,
        trp: 1 << 12,
        tcas: 1 << 12,
        wl: 1 << 12,
        tras: 1 << 13,
        twr: 1 << 12,
        tccd: 1 << 12,
        trrd: 1 << 12,
        tfaw: 1 << 14,
        trc: 3 << 12,
        trtp: 1 << 12,
        twtr: 1 << 12,
        txp: 1 << 12,
        trtrs: 1 << 12,
        trefi: 1 << 16,
        trfc: 1 << 14,
        burst_cycles: 1 << 12,
    };

    /// Checks internal consistency of the parameter set.
    ///
    /// # Errors
    ///
    /// Returns a [`TimingError`] if any parameter exceeds its bound in
    /// [`TimingParams::MAX`], any parameter that must be non-zero is zero,
    /// `tRC != tRAS + tRP`, `tFAW < tRRD` (which would make the FAW window
    /// meaningless), or `tRAS < tRCD + CL` (a row could close before its
    /// first read completes).
    pub fn validate(&self) -> Result<(), TimingError> {
        let max = Self::MAX;
        for (name, v, bound, may_be_zero) in [
            ("tRCD", self.trcd, max.trcd, false),
            ("tRP", self.trp, max.trp, false),
            ("CL", self.tcas, max.tcas, false),
            ("WL", self.wl, max.wl, false),
            ("tRAS", self.tras, max.tras, false),
            ("tWR", self.twr, max.twr, false),
            ("tCCD", self.tccd, max.tccd, false),
            ("tRRD", self.trrd, max.trrd, false),
            ("tFAW", self.tfaw, max.tfaw, false),
            ("tRC", self.trc, max.trc, true),
            ("tRTP", self.trtp, max.trtp, true),
            ("tWTR", self.twtr, max.twtr, true),
            ("tXP", self.txp, max.txp, true),
            ("tRTRS", self.trtrs, max.trtrs, true),
            ("tREFI", self.trefi, max.trefi, false),
            ("tRFC", self.trfc, max.trfc, false),
            ("burst", self.burst_cycles, max.burst_cycles, false),
        ] {
            if v > bound {
                return Err(TimingError(format!(
                    "{name} ({v}) exceeds its bound {bound}"
                )));
            }
            if v == 0 && !may_be_zero {
                return Err(TimingError(format!("{name} must be non-zero")));
            }
        }
        if self.tras.checked_add(self.trp) != Some(self.trc) {
            return Err(TimingError(format!(
                "tRC ({}) must equal tRAS ({}) + tRP ({})",
                self.trc, self.tras, self.trp
            )));
        }
        if self.tfaw < self.trrd {
            return Err(TimingError(format!(
                "tFAW ({}) must be at least tRRD ({})",
                self.tfaw, self.trrd
            )));
        }
        if self
            .trcd
            .checked_add(self.tcas)
            .is_none_or(|first_read| self.tras < first_read)
        {
            return Err(TimingError(format!(
                "tRAS ({}) must cover tRCD ({}) + CL ({}): a read issued at \
                 tRCD must complete before the row can close",
                self.tras, self.trcd, self.tcas
            )));
        }
        Ok(())
    }

    /// tRRD spacing after an activation of the given weight (fraction of a
    /// full-row activation), when the scheme relaxes activation timing.
    /// Proportional scaling, rounded up, never below one cycle.
    pub fn scaled_trrd(&self, weight: f64) -> u64 {
        debug_assert!(weight > 0.0 && weight <= 1.0);
        ((self.trrd as f64 * weight).ceil() as u64).max(1)
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        TimingParams::ddr3_1600_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_validates() {
        TimingParams::ddr3_1600_table3().validate().unwrap();
    }

    #[test]
    fn ddr4_validates() {
        TimingParams::ddr4_2400().validate().unwrap();
    }

    #[test]
    fn trc_consistency_enforced() {
        let mut t = TimingParams::ddr3_1600_table3();
        t.trc = 40;
        assert!(t.validate().is_err());
    }

    #[test]
    fn zero_param_rejected() {
        let mut t = TimingParams::ddr3_1600_table3();
        t.tccd = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn short_tras_rejected() {
        let mut t = TimingParams::ddr3_1600_table3();
        t.tras = t.trcd + t.tcas - 1; // 21 < 11 + 11
        t.trc = t.tras + t.trp;
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("tRAS"), "{err}");
    }

    #[test]
    fn the_bounds_are_a_valid_set() {
        TimingParams::MAX.validate().unwrap();
    }

    #[test]
    fn every_field_above_its_bound_is_rejected() {
        let max = TimingParams::MAX;
        type Field = (&'static str, fn(&mut TimingParams) -> &mut u64);
        let fields: [Field; 17] = [
            ("tRCD", |t| &mut t.trcd),
            ("tRP", |t| &mut t.trp),
            ("CL", |t| &mut t.tcas),
            ("WL", |t| &mut t.wl),
            ("tRAS", |t| &mut t.tras),
            ("tWR", |t| &mut t.twr),
            ("tCCD", |t| &mut t.tccd),
            ("tRRD", |t| &mut t.trrd),
            ("tFAW", |t| &mut t.tfaw),
            ("tRC", |t| &mut t.trc),
            ("tRTP", |t| &mut t.trtp),
            ("tWTR", |t| &mut t.twtr),
            ("tXP", |t| &mut t.txp),
            ("tRTRS", |t| &mut t.trtrs),
            ("tREFI", |t| &mut t.trefi),
            ("tRFC", |t| &mut t.trfc),
            ("burst", |t| &mut t.burst_cycles),
        ];
        for (name, field) in fields {
            let mut t = max;
            let bound = *field(&mut t);
            for v in [bound + 1, u64::MAX] {
                *field(&mut t) = v;
                let err = t.validate().unwrap_err();
                assert!(err.to_string().contains(name), "{name} = {v}: {err}");
            }
        }
    }

    #[test]
    fn wrapping_sums_are_rejected_not_accepted_or_panicking() {
        // tRCD + CL wraps to 1 in release and panics in debug without
        // checked arithmetic.
        let mut t = TimingParams::ddr3_1600_table3();
        t.trcd = u64::MAX;
        t.tcas = 2;
        assert!(t.validate().is_err());
        // tRAS + tRP wraps to 0 = tRC.
        let mut t = TimingParams::ddr3_1600_table3();
        t.tras = u64::MAX;
        t.trp = 1;
        t.trc = 0;
        assert!(t.validate().is_err());
    }

    #[test]
    fn scaled_trrd_bounds() {
        let t = TimingParams::ddr3_1600_table3();
        assert_eq!(t.scaled_trrd(1.0), 5);
        assert_eq!(t.scaled_trrd(0.5), 3); // ceil(2.5)
        assert_eq!(t.scaled_trrd(0.125), 1);
        // Never zero even for vanishing weights.
        assert_eq!(t.scaled_trrd(0.01), 1);
    }
}
