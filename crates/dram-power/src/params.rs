//! Component power parameters (paper Table 3) and the IDD-based derivation
//! of row activation power (paper Equations 1 and 2).

/// Timing values (in nanoseconds) the power model needs.
///
/// These mirror the DDR3-1600 cycle counts of Table 3 at `tCK = 1.25 ns`:
/// `tRAS = 28 cyc = 35 ns`, `tRP = 11 cyc`, `tRC = 39 cyc = 48.75 ns`,
/// `tRFC = 160 ns` (2 Gb device), `tREFI = 7.8 us`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DevicePowerTimings {
    /// Clock period in ns (1.25 for DDR3-1600).
    pub tck_ns: f64,
    /// Row activation time in ns.
    pub tras_ns: f64,
    /// Row cycle (activate-to-activate, same bank) in ns.
    pub trc_ns: f64,
    /// Refresh cycle time in ns.
    pub trfc_ns: f64,
    /// Average refresh interval in ns.
    pub trefi_ns: f64,
    /// Data-bus cycles a BL8 line transfer occupies (4 for DDR3: 8 beats at
    /// two beats per clock).
    pub burst_cycles: u64,
}

impl DevicePowerTimings {
    /// DDR3-1600, 2 Gb device defaults.
    pub const fn ddr3_1600() -> Self {
        DevicePowerTimings {
            tck_ns: 1.25,
            tras_ns: 35.0,
            trc_ns: 48.75,
            trfc_ns: 160.0,
            trefi_ns: 7800.0,
            burst_cycles: 4,
        }
    }
}

impl DevicePowerTimings {
    /// DDR4-2400, 8 Gb device.
    pub const fn ddr4_2400() -> Self {
        DevicePowerTimings {
            tck_ns: 0.833,
            tras_ns: 32.5,
            trc_ns: 45.8,
            trfc_ns: 350.0,
            trefi_ns: 7800.0,
            burst_cycles: 4,
        }
    }
}

impl Default for DevicePowerTimings {
    fn default() -> Self {
        DevicePowerTimings::ddr3_1600()
    }
}

/// IDD currents of the modelled device, feeding Equations (1)/(2).
///
/// The paper does not reprint the datasheet IDD values it plugged into
/// Eq. (1); [`IddParams::calibrated_to_paper`] documents the values chosen
/// here so that `P_ACT` for a full row reproduces the paper's 22.2 mW
/// (Table 3). The structural relationship — activation power is what remains
/// of IDD0 after subtracting the active/idle background currents over a row
/// cycle — is exactly Eq. (1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IddParams {
    /// One-bank activate-precharge current (mA), averaged over `tRC`.
    pub idd0_ma: f64,
    /// Precharge standby current (mA) — all banks idle.
    pub idd2n_ma: f64,
    /// Active standby current (mA) — at least one bank open.
    pub idd3n_ma: f64,
    /// Supply voltage (V).
    pub vdd: f64,
}

impl IddParams {
    /// IDD set calibrated so Eq. (1)/(2) give the paper's
    /// `P_ACT(full) = 22.2 mW` with DDR3-1600 timing.
    pub const fn calibrated_to_paper() -> Self {
        IddParams {
            idd0_ma: 46.42,
            idd2n_ma: 23.0,
            idd3n_ma: 35.0,
            vdd: 1.5,
        }
    }

    /// Equation (1): the pure activation current, i.e. IDD0 minus the
    /// weighted background currents over a row cycle.
    ///
    /// `I_ACT = IDD0 - (IDD3N*tRAS + IDD2N*(tRC - tRAS)) / tRC`
    pub fn i_act_ma(&self, t: &DevicePowerTimings) -> f64 {
        self.idd0_ma
            - (self.idd3n_ma * t.tras_ns + self.idd2n_ma * (t.trc_ns - t.tras_ns)) / t.trc_ns
    }

    /// Equation (2): `P_ACT = VDD * I_ACT`, in mW.
    pub fn p_act_mw(&self, t: &DevicePowerTimings) -> f64 {
        self.vdd * self.i_act_ma(t)
    }
}

impl Default for IddParams {
    fn default() -> Self {
        IddParams::calibrated_to_paper()
    }
}

/// Per-component power parameters (mW), as published in the paper's Table 3.
///
/// All values are **rank-level** operation powers as used by Micron's DDR3
/// system-power methodology: background powers apply per rank per cycle,
/// `rd`/`wr` apply while the data bus moves a line, I/O and termination
/// powers apply during bursts, and `act_by_granularity[k-1]` is the
/// activation(+precharge) power for a `k/8`-row activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerParams {
    /// Precharge standby background power (all banks idle, CKE high).
    pub pre_stby_mw: f64,
    /// Precharge power-down background power.
    pub pre_pdn_mw: f64,
    /// Active standby background power (>=1 bank open).
    pub act_stby_mw: f64,
    /// Refresh power, applied during `tRFC` windows.
    pub ref_mw: f64,
    /// Read burst (core array + datapath) power.
    pub rd_mw: f64,
    /// Write burst power.
    pub wr_mw: f64,
    /// Read I/O (output driver) power.
    pub rd_io_mw: f64,
    /// Write on-die-termination power.
    pub wr_odt_mw: f64,
    /// Read termination power dissipated in the sibling rank.
    pub rd_term_mw: f64,
    /// Write termination power dissipated in the sibling rank.
    pub wr_term_mw: f64,
    /// Row activation power by granularity: index `k-1` holds the power of a
    /// `k/8`-row activation. Index 7 (full row) matches Eq. (1)/(2).
    pub act_by_granularity_mw: [f64; 8],
    /// Models an x72 ECC DIMM (Section 4.2): a ninth chip stores ECC codes
    /// with its PRA# pin strapped high, so it activates a full row on every
    /// access and always moves its data. Adds one-eighth of the full-row
    /// activation energy to every activation and one-eighth to all transfer
    /// energies.
    pub ecc_x72: bool,
    /// Calibration multiplier applied to the I/O-class energies (read I/O,
    /// write ODT, read/write termination). The paper lists per-window I/O
    /// powers but observes an average 14% (max 19%) I/O share of total DRAM
    /// power (Fig. 2), which per-burst-window accounting of the listed
    /// values cannot reach — their calculator evidently includes the
    /// termination dissipated across both populated ranks and the
    /// controller side. This factor is calibrated so the reproduced Fig. 2
    /// matches the paper's I/O share; EXPERIMENTS.md records the check.
    pub io_multiplier: f64,
    /// Timing context used to convert powers into per-event energies.
    pub timings: DevicePowerTimings,
}

impl PowerParams {
    /// The paper's published Table 3 parameter set.
    ///
    /// ```
    /// use dram_power::PowerParams;
    /// let p = PowerParams::paper_table3();
    /// assert_eq!(p.act_power_mw(8), 22.2);
    /// assert_eq!(p.act_power_mw(1), 3.7);
    /// ```
    pub const fn paper_table3() -> Self {
        PowerParams {
            pre_stby_mw: 27.0,
            pre_pdn_mw: 18.0,
            act_stby_mw: 42.0,
            ref_mw: 210.0,
            rd_mw: 78.0,
            wr_mw: 93.0,
            rd_io_mw: 4.6,
            wr_odt_mw: 21.2,
            rd_term_mw: 15.5,
            wr_term_mw: 15.4,
            // Table 3, "ACT full, 7/8, ..., 1/8 row" reversed into ascending
            // granularity order.
            act_by_granularity_mw: [3.7, 6.4, 9.1, 11.6, 14.3, 16.9, 19.6, 22.2],
            ecc_x72: false,
            io_multiplier: 3.0,
            timings: DevicePowerTimings::ddr3_1600(),
        }
    }

    /// The Table 3 set on an x72 ECC DIMM (nine chips per rank).
    pub const fn paper_table3_ecc() -> Self {
        PowerParams {
            ecc_x72: true,
            ..Self::paper_table3()
        }
    }

    /// An **illustrative** DDR4-2400 parameter set: the paper publishes no
    /// DDR4 power numbers, so this scales the Table 3 dynamic powers by the
    /// VDD ratio squared (1.2 V / 1.5 V)^2 = 0.64 and keeps the structural
    /// relationships. Useful for exploring PRA's behaviour on a newer
    /// device; not a datasheet-calibrated model (documented in DESIGN.md).
    pub fn ddr4_2400_estimate() -> Self {
        let scale = |v: f64| v * 0.64;
        let base = PowerParams::paper_table3();
        let mut act = base.act_by_granularity_mw;
        for v in &mut act {
            *v = scale(*v);
        }
        PowerParams {
            pre_stby_mw: scale(base.pre_stby_mw),
            pre_pdn_mw: scale(base.pre_pdn_mw),
            act_stby_mw: scale(base.act_stby_mw),
            ref_mw: scale(base.ref_mw) * 2.0, // 8 Gb refresh moves 4x the rows
            rd_mw: scale(base.rd_mw),
            wr_mw: scale(base.wr_mw),
            rd_io_mw: scale(base.rd_io_mw),
            wr_odt_mw: scale(base.wr_odt_mw),
            rd_term_mw: scale(base.rd_term_mw),
            wr_term_mw: scale(base.wr_term_mw),
            act_by_granularity_mw: act,
            ecc_x72: false,
            io_multiplier: base.io_multiplier,
            timings: DevicePowerTimings::ddr4_2400(),
        }
    }

    /// Activation power (mW) for a `granularity_eighths/8` row activation.
    ///
    /// # Panics
    ///
    /// Panics if `granularity_eighths` is not in `1..=8`.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; callers derive the eighths from 1..=16 MATs"
    )]
    pub fn act_power_mw(&self, granularity_eighths: u32) -> f64 {
        if !(1..=8).contains(&granularity_eighths) {
            panic!("activation granularity must be 1..=8 eighths, got {granularity_eighths}");
        }
        self.act_by_granularity_mw[(granularity_eighths - 1) as usize]
    }

    /// Energy (pJ) of one activation+precharge pair at the given granularity:
    /// `P_ACT(g) * tRC`, plus the ECC chip's always-full ninth share on an
    /// x72 DIMM.
    pub fn act_energy_pj(&self, granularity_eighths: u32) -> f64 {
        let data = self.act_power_mw(granularity_eighths) * self.timings.trc_ns;
        if self.ecc_x72 {
            data + self.act_power_mw(8) * self.timings.trc_ns / 8.0
        } else {
            data
        }
    }

    /// Scaling applied to transfer-class energies for the extra ECC chip.
    fn chip_count_scale(&self) -> f64 {
        if self.ecc_x72 {
            9.0 / 8.0
        } else {
            1.0
        }
    }

    /// Energy (pJ) of moving one full line over the bus for a read, split
    /// into (core, io, sibling-rank termination).
    pub fn read_line_energy_pj(&self) -> (f64, f64, f64) {
        let dur = self.timings.burst_cycles as f64 * self.timings.tck_ns * self.chip_count_scale();
        (
            self.rd_mw * dur,
            self.rd_io_mw * dur * self.io_multiplier,
            self.rd_term_mw * dur * self.io_multiplier,
        )
    }

    /// Energy (pJ) of a write transferring `fraction` of a line's words,
    /// split into (core, odt, sibling-rank termination). The core write
    /// energy is charged in full (the column access happens regardless);
    /// ODT and termination scale with the data actually driven.
    pub fn write_line_energy_pj(&self, fraction: f64) -> (f64, f64, f64) {
        let dur = self.timings.burst_cycles as f64 * self.timings.tck_ns;
        // The ECC chip always transfers its full byte lane, even when PRA
        // masks the data chips down to `fraction`.
        let ecc = if self.ecc_x72 { 1.0 / 8.0 } else { 0.0 };
        (
            self.wr_mw * dur * self.chip_count_scale(),
            self.wr_odt_mw * dur * (fraction + ecc) * self.io_multiplier,
            self.wr_term_mw * dur * (fraction + ecc) * self.io_multiplier,
        )
    }

    /// Energy (pJ) of one all-bank refresh: `P_REF * tRFC`.
    pub fn refresh_energy_pj(&self) -> f64 {
        self.ref_mw * self.timings.trfc_ns
    }
}

impl Default for PowerParams {
    fn default() -> Self {
        PowerParams::paper_table3()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_eq2_reproduce_full_row_act_power() {
        let idd = IddParams::calibrated_to_paper();
        let t = DevicePowerTimings::ddr3_1600();
        let p = idd.p_act_mw(&t);
        assert!(
            (p - 22.2).abs() < 0.1,
            "Eq. (1)/(2) should give the paper's 22.2 mW, got {p:.3}"
        );
    }

    #[test]
    fn i_act_subtracts_background() {
        let idd = IddParams::calibrated_to_paper();
        let t = DevicePowerTimings::ddr3_1600();
        // Background-weighted current must lie between IDD2N and IDD3N.
        let bg = idd.idd0_ma - idd.i_act_ma(&t);
        assert!(bg > idd.idd2n_ma && bg < idd.idd3n_ma);
    }

    #[test]
    fn table3_act_array_is_monotone() {
        let p = PowerParams::paper_table3();
        for g in 1..8 {
            assert!(p.act_power_mw(g) < p.act_power_mw(g + 1));
        }
        assert_eq!(p.act_power_mw(4), 11.6, "half row");
    }

    #[test]
    fn table3_values_close_to_linear_interpolation() {
        // The published array is within ~2% of a straight line between the
        // 1/8 (3.7 mW) and full (22.2 mW) anchors — documented in DESIGN.md.
        let p = PowerParams::paper_table3();
        for g in 1..=8u32 {
            let lin = 3.7 + (22.2 - 3.7) * (g as f64 - 1.0) / 7.0;
            let rel = (p.act_power_mw(g) - lin).abs() / lin;
            assert!(
                rel < 0.03,
                "granularity {g}: {} vs linear {lin}",
                p.act_power_mw(g)
            );
        }
    }

    #[test]
    fn per_event_energies() {
        let p = PowerParams::paper_table3();
        // Full activation: 22.2 mW * 48.75 ns = 1082.25 pJ.
        assert!((p.act_energy_pj(8) - 1082.25).abs() < 1e-9);
        // 1/8 activation is much cheaper.
        assert!(p.act_energy_pj(1) < p.act_energy_pj(8) / 5.0);
        let (rd, rd_io, rd_term) = p.read_line_energy_pj();
        assert!((rd - 78.0 * 5.0).abs() < 1e-9);
        assert!((rd_io - 4.6 * 5.0 * p.io_multiplier).abs() < 1e-9);
        assert!((rd_term - 15.5 * 5.0 * p.io_multiplier).abs() < 1e-9);
        // Write I/O scales with the transferred fraction, core write doesn't.
        let (wr_full, odt_full, term_full) = p.write_line_energy_pj(1.0);
        let (wr_eighth, odt_eighth, term_eighth) = p.write_line_energy_pj(0.125);
        assert_eq!(wr_full, wr_eighth);
        assert!((odt_eighth - odt_full * 0.125).abs() < 1e-9);
        assert!((term_eighth - term_full * 0.125).abs() < 1e-9);
    }

    #[test]
    fn ecc_x72_charges_the_ninth_chip() {
        let plain = PowerParams::paper_table3();
        let ecc = PowerParams::paper_table3_ecc();
        // Full-row activation gains exactly one-eighth.
        assert!((ecc.act_energy_pj(8) - plain.act_energy_pj(8) * 9.0 / 8.0).abs() < 1e-9);
        // A 1/8 partial activation gains a *full-row* eighth (the ECC chip
        // cannot partially activate), so its relative overhead is larger.
        let overhead_full = ecc.act_energy_pj(8) / plain.act_energy_pj(8);
        let overhead_partial = ecc.act_energy_pj(1) / plain.act_energy_pj(1);
        assert!(overhead_partial > overhead_full);
        // Write I/O: the ECC byte lane always transfers.
        let (_, odt_plain, _) = plain.write_line_energy_pj(0.125);
        let (_, odt_ecc, _) = ecc.write_line_energy_pj(0.125);
        assert!(
            (odt_ecc / odt_plain - 2.0).abs() < 1e-9,
            "1/8 data + 1/8 ecc"
        );
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn act_power_rejects_zero() {
        let _ = PowerParams::paper_table3().act_power_mw(0);
    }

    #[test]
    #[should_panic(expected = "granularity")]
    fn act_power_rejects_over_full() {
        let _ = PowerParams::paper_table3().act_power_mw(9);
    }
}
