//! Event-driven energy accumulation fed by the DRAM simulator.

use crate::telemetry::ResidencyLedger;
use crate::{EnergyBreakdown, PowerParams};

/// Number of MAT granularities tracked by the per-granularity activation
/// energy ledger (a full row spans 16 MATs).
pub const MAT_GRANULARITIES: usize = 16;

/// Background power state of one rank during one memory-clock cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RankPowerState {
    /// At least one bank holds an open row (`ACT_STBY`).
    ActiveStandby,
    /// All banks precharged, clock enabled (`PRE_STBY`).
    PrechargeStandby,
    /// Precharge power-down (`PRE_PDN`), entered by the relaxed close-page
    /// policy when the rank is idle.
    PowerDown,
}

/// Accumulates DRAM energy from simulator events.
///
/// The simulator reports five kinds of events; each maps onto Table 3
/// parameters via [`PowerParams`]:
///
/// | event | energy charged |
/// |---|---|
/// | [`activation`](EnergyAccounting::activation) | `P_ACT(g) * tRC` (activation + precharge pair) |
/// | [`read_line`](EnergyAccounting::read_line) | `RD`, `RD I/O`, `RD TERM` over one burst window |
/// | [`write_line`](EnergyAccounting::write_line) | `WR` in full; `WR ODT`/`WR TERM` scaled by the transferred fraction |
/// | [`set_rank_state`](EnergyAccounting::set_rank_state) | per-rank standby/power-down power over `tCK`, for every cycle in that state |
/// | [`refresh`](EnergyAccounting::refresh) | `P_REF * tRFC` |
///
/// Termination energy is only charged when the system has sibling ranks to
/// terminate into (`ranks > 1`), mirroring the dual-rank channel of the
/// paper's baseline.
///
/// Background power is charged per *run*: the cycles since the last rank
/// state change, during which every rank's state is known. A state change
/// (or [`settle`](EnergyAccounting::settle)) charges the run that ends
/// there, one `tCK` of each rank's state power per cycle in cycle-major,
/// rank order — the same `f64` additions in the same order as charging
/// every rank on every cycle, so the totals are bit-identical to that.
#[derive(Debug, Clone)]
pub struct EnergyAccounting {
    params: PowerParams,
    ranks: usize,
    energy: EnergyBreakdown,
    activations: u64,
    reads: u64,
    writes: u64,
    refreshes: u64,
    residency: ResidencyLedger,
    /// Each rank's background state since `run_start`.
    run_states: Vec<RankPowerState>,
    /// First cycle not yet charged to `energy.bg` and the residency ledger.
    run_start: u64,
    /// Activation+precharge energy (pJ) split by MAT count: index `m`
    /// holds the energy of all `(m + 1)`-MAT activations.
    act_by_mats: [f64; MAT_GRANULARITIES],
}

impl EnergyAccounting {
    /// Creates an accumulator for a system with `ranks` total ranks.
    ///
    /// # Panics
    ///
    /// Panics if `ranks == 0`.
    pub fn new(params: PowerParams, ranks: usize) -> Self {
        assert!(ranks > 0, "a DRAM system needs at least one rank");
        EnergyAccounting {
            params,
            ranks,
            energy: EnergyBreakdown::default(),
            activations: 0,
            reads: 0,
            writes: 0,
            refreshes: 0,
            residency: ResidencyLedger::new(ranks),
            run_states: vec![RankPowerState::PrechargeStandby; ranks],
            run_start: 0,
            act_by_mats: [0.0; MAT_GRANULARITIES],
        }
    }

    /// The parameter set in use.
    pub fn params(&self) -> &PowerParams {
        &self.params
    }

    /// Records one activation+precharge pair at `granularity_eighths/8` of a
    /// row.
    ///
    /// # Panics
    ///
    /// Panics if the granularity is outside `1..=8`.
    pub fn activation(&mut self, granularity_eighths: u32) {
        let pj = self.params.act_energy_pj(granularity_eighths);
        self.energy.act_pre += pj;
        self.act_by_mats[granularity_eighths as usize * 2 - 1] += pj;
        self.activations += 1;
    }

    /// Records one activation+precharge pair driving `mats` of the row's 16
    /// MATs.
    ///
    /// Even MAT counts map onto the published Table 3 array
    /// (`mats/2` eighths). Odd MAT counts — which only arise in the combined
    /// Half-DRAM + PRA scheme, where each PRA group is a single halved MAT —
    /// fall back to the CACTI-derived scaling of
    /// [`ActivationEnergyModel`](crate::ActivationEnergyModel) projected onto
    /// the full-row `P_ACT`.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is outside `1..=16`: even counts through
    /// [`PowerParams::act_power_mw`](crate::PowerParams::act_power_mw), odd
    /// ones through
    /// [`ActivationEnergyModel::energy_per_activation_pj`](crate::ActivationEnergyModel::energy_per_activation_pj).
    pub fn activation_mats(&mut self, mats: u32) {
        // The protocol checker independently rejects out-of-range mats.
        debug_assert!((1..=16).contains(&mats), "mats must be 1..=16, got {mats}");
        if mats.is_multiple_of(2) {
            self.activation(mats / 2);
        } else {
            let model = crate::ActivationEnergyModel::paper_table2();
            let p_full = self.params.act_power_mw(8);
            let p = p_full * model.scaling_factor(mats);
            let pj = p * self.params.timings.trc_ns;
            self.energy.act_pre += pj;
            self.act_by_mats[mats as usize - 1] += pj;
            self.activations += 1;
        }
    }

    /// Records one full-line read transfer.
    pub fn read_line(&mut self) {
        let (core, io, term) = self.params.read_line_energy_pj();
        self.energy.rd += core;
        self.energy.rd_io += io;
        if self.ranks > 1 {
            self.energy.rd_io += term;
        }
        self.reads += 1;
    }

    /// Records one write transfer moving `fraction` (0.0..=1.0] of the
    /// line's words. Conventional schemes pass 1.0; PRA passes
    /// `dirty_words / 8`.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is not within `(0.0, 1.0]`.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; callers pass dirty_words/8 with dirty_words in 1..=8"
    )]
    pub fn write_line(&mut self, fraction: f64) {
        if !(fraction > 0.0 && fraction <= 1.0) {
            panic!("write fraction must be in (0, 1], got {fraction}");
        }
        let (core, odt, term) = self.params.write_line_energy_pj(fraction);
        self.energy.wr += core;
        self.energy.wr_io += odt;
        if self.ranks > 1 {
            self.energy.wr_io += term;
        }
        self.writes += 1;
    }

    /// Records that `rank` is in `state` from cycle `now` on. A change
    /// first charges the run of cycles before `now` (see
    /// [`settle`](Self::settle)); an unchanged state costs nothing.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not below the rank count.
    pub fn set_rank_state(&mut self, rank: usize, state: RankPowerState, now: u64) {
        if self.run_states[rank] != state {
            self.settle(now);
            self.run_states[rank] = state;
        }
    }

    /// Charges background energy and residency for every cycle before
    /// `now` not yet charged, with each rank in its current state.
    pub fn settle(&mut self, now: u64) {
        let cycles = now.saturating_sub(self.run_start);
        if cycles == 0 {
            return;
        }
        self.energy.bg = self.background_at(now);
        for (rank, &state) in self.run_states.iter().enumerate() {
            self.residency.add_state_cycles(rank, state, cycles);
        }
        self.run_start = now;
    }

    /// `energy.bg` with the run up to `now` charged, cycle by cycle and
    /// rank by rank.
    fn background_at(&self, now: u64) -> f64 {
        let p = &self.params;
        let pj = [p.act_stby_mw, p.pre_stby_mw, p.pre_pdn_mw].map(|mw| mw * p.timings.tck_ns);
        let mut bg = self.energy.bg;
        for _ in self.run_start..now {
            for &state in &self.run_states {
                bg += pj[ResidencyLedger::state_index(state)];
            }
        }
        bg
    }

    /// The background state `rank` is in as of the last
    /// [`set_rank_state`](Self::set_rank_state).
    pub fn rank_state(&self, rank: usize) -> RankPowerState {
        self.run_states[rank]
    }

    /// Records `cycles` cycles of `bank` of `rank` holding an open row.
    /// Energy-neutral: only the telemetry ledger moves.
    pub fn add_bank_open_cycles(&mut self, rank: usize, bank: usize, cycles: u64) {
        self.residency.add_bank_open_cycles(rank, bank, cycles);
    }

    /// The per-rank power-state residency ledger, as of the last
    /// [`settle`](Self::settle) or rank state change.
    pub fn residency(&self) -> &ResidencyLedger {
        &self.residency
    }

    /// The residency ledger with every cycle before `now` accounted.
    pub fn residency_at(&self, now: u64) -> ResidencyLedger {
        let mut ledger = self.residency.clone();
        let cycles = now.saturating_sub(self.run_start);
        for (rank, &state) in self.run_states.iter().enumerate() {
            ledger.add_state_cycles(rank, state, cycles);
        }
        ledger
    }

    /// Closes the residency window at `now`: per-rank state-cycle deltas
    /// since the previous close (see [`ResidencyLedger::close_window`]).
    pub fn residency_window(&mut self, now: u64) -> Vec<[u64; 3]> {
        self.settle(now);
        self.residency.close_window()
    }

    /// Activation+precharge energy (pJ) by MAT count: index `m` holds the
    /// cumulative energy of all `(m + 1)`-MAT activations; the array sums
    /// to [`EnergyBreakdown::act_pre`].
    pub fn act_energy_by_mats(&self) -> &[f64; MAT_GRANULARITIES] {
        &self.act_by_mats
    }

    /// Records one all-bank refresh of one rank.
    pub fn refresh(&mut self) {
        self.energy.refresh += self.params.refresh_energy_pj();
        self.refreshes += 1;
    }

    /// The accumulated energy breakdown (pJ), background as of the last
    /// [`settle`](Self::settle) or rank state change.
    pub fn breakdown(&self) -> EnergyBreakdown {
        self.energy
    }

    /// The energy breakdown (pJ) with every cycle before `now` charged.
    pub fn breakdown_at(&self, now: u64) -> EnergyBreakdown {
        EnergyBreakdown {
            bg: self.background_at(now),
            ..self.energy
        }
    }

    /// Event counts: (activations, reads, writes, refreshes).
    pub fn event_counts(&self) -> (u64, u64, u64, u64) {
        (self.activations, self.reads, self.writes, self.refreshes)
    }
}

impl sim_snap::SnapState for EnergyAccounting {
    // Parameters and rank count are configuration; everything that
    // accumulates (energies bit-exact via f64 bits, event counts, the
    // residency ledger) travels, and so does the run not yet charged.
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("energy-accounting");
        let e = self.energy;
        for v in [e.act_pre, e.rd, e.wr, e.rd_io, e.wr_io, e.bg, e.refresh] {
            w.f64(v);
        }
        for v in [self.activations, self.reads, self.writes, self.refreshes] {
            w.u64(v);
        }
        for v in self.act_by_mats {
            w.f64(v);
        }
        self.residency.snap_save(w);
        w.u64(self.run_start);
        w.seq(self.run_states.len());
        for &state in &self.run_states {
            w.u8(ResidencyLedger::state_index(state) as u8);
        }
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        r.section("energy-accounting")?;
        self.energy = EnergyBreakdown {
            act_pre: r.f64()?,
            rd: r.f64()?,
            wr: r.f64()?,
            rd_io: r.f64()?,
            wr_io: r.f64()?,
            bg: r.f64()?,
            refresh: r.f64()?,
        };
        self.activations = r.u64()?;
        self.reads = r.u64()?;
        self.writes = r.u64()?;
        self.refreshes = r.u64()?;
        for v in &mut self.act_by_mats {
            *v = r.f64()?;
        }
        self.residency.snap_load(r)?;
        self.run_start = r.u64()?;
        let ranks = r.seq()?;
        if ranks != self.run_states.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "snapshot holds {ranks} rank power states, this system has {}",
                self.run_states.len()
            )));
        }
        for state in &mut self.run_states {
            *state = match r.u8()? {
                0 => RankPowerState::ActiveStandby,
                1 => RankPowerState::PrechargeStandby,
                2 => RankPowerState::PowerDown,
                tag => {
                    return Err(sim_snap::SnapError::Decode(format!(
                        "unknown rank power state tag {tag}"
                    )))
                }
            };
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc(ranks: usize) -> EnergyAccounting {
        EnergyAccounting::new(PowerParams::paper_table3(), ranks)
    }

    #[test]
    fn activation_energy_scales_with_granularity() {
        let mut a = acc(4);
        a.activation(8);
        let full = a.breakdown().act_pre;
        let mut a = acc(4);
        a.activation(1);
        let eighth = a.breakdown().act_pre;
        assert!((full / eighth - 22.2 / 3.7).abs() < 1e-9);
    }

    #[test]
    fn pra_write_reduces_io_not_core() {
        let mut full = acc(4);
        full.write_line(1.0);
        let mut partial = acc(4);
        partial.write_line(0.125);
        assert_eq!(full.breakdown().wr, partial.breakdown().wr);
        assert!((partial.breakdown().wr_io - full.breakdown().wr_io * 0.125).abs() < 1e-9);
    }

    #[test]
    fn single_rank_has_no_termination() {
        let mut single = acc(1);
        single.read_line();
        let mut dual = acc(2);
        dual.read_line();
        // Dual-rank charges read termination on the sibling rank.
        assert!(dual.breakdown().rd_io > single.breakdown().rd_io);
        let t = PowerParams::paper_table3();
        let dur = t.timings.burst_cycles as f64 * t.timings.tck_ns;
        let term = t.rd_term_mw * dur * t.io_multiplier;
        assert!((dual.breakdown().rd_io - single.breakdown().rd_io - term).abs() < 1e-9);
    }

    #[test]
    fn background_states_ordered() {
        let states = [
            RankPowerState::PowerDown,
            RankPowerState::PrechargeStandby,
            RankPowerState::ActiveStandby,
        ];
        let energies: Vec<f64> = states
            .iter()
            .map(|&s| {
                let mut a = acc(2);
                a.set_rank_state(0, s, 0);
                a.set_rank_state(1, RankPowerState::PowerDown, 0);
                a.breakdown_at(1).bg
            })
            .collect();
        assert!(energies[0] < energies[1] && energies[1] < energies[2]);
    }

    #[test]
    fn activation_mats_matches_table_for_even_counts() {
        for eighths in 1..=8u32 {
            let mut by_mats = acc(2);
            by_mats.activation_mats(eighths * 2);
            let mut by_eighths = acc(2);
            by_eighths.activation(eighths);
            assert_eq!(by_mats.breakdown().act_pre, by_eighths.breakdown().act_pre);
        }
    }

    #[test]
    fn activation_mats_odd_interpolates_between_neighbours() {
        // A 1-MAT activation (combined Half-DRAM + PRA minimum) costs less
        // than the published 2-MAT value but is still positive.
        let mut a = acc(2);
        a.activation_mats(1);
        let one = a.breakdown().act_pre;
        let mut b = acc(2);
        b.activation_mats(2);
        let two = b.breakdown().act_pre;
        assert!(one > 0.0 && one < two);
        // And 15 MATs cost between 14 and 16.
        let energy = |m: u32| {
            let mut x = acc(2);
            x.activation_mats(m);
            x.breakdown().act_pre
        };
        assert!(energy(15) > energy(14) && energy(15) < energy(16));
    }

    #[test]
    fn refresh_energy() {
        let mut a = acc(2);
        a.refresh();
        assert!((a.breakdown().refresh - 210.0 * 160.0).abs() < 1e-9);
    }

    #[test]
    fn counts() {
        let mut a = acc(2);
        a.activation(8);
        a.read_line();
        a.write_line(1.0);
        a.refresh();
        assert_eq!(a.event_counts(), (1, 1, 1, 1));
    }

    #[test]
    #[should_panic(expected = "write fraction")]
    fn zero_fraction_rejected() {
        acc(2).write_line(0.0);
    }

    #[test]
    fn residency_tracks_background_cycles_per_rank() {
        let mut a = acc(2);
        a.set_rank_state(0, RankPowerState::ActiveStandby, 0);
        a.set_rank_state(1, RankPowerState::PowerDown, 0);
        a.set_rank_state(1, RankPowerState::PrechargeStandby, 10);
        assert_eq!(a.residency().ranks()[1].state_cycles, [0, 0, 10]);
        let r = a.residency_at(11);
        assert_eq!(r.ranks()[0].state_cycles, [11, 0, 0]);
        assert_eq!(r.ranks()[1].state_cycles, [0, 1, 10]);
        assert_eq!(r.total_state_cycles(), 22);
        a.settle(11);
        assert_eq!(a.residency(), &r);
    }

    #[test]
    fn background_runs_charge_the_same_bits_as_every_cycle() {
        // Charging a run at once must add the same f64s in the same order
        // as charging every rank on every cycle. DDR4's tCK makes the
        // per-cycle energies inexact in binary, so a reordered or
        // multiplied-out sum would change the bits.
        let p = PowerParams::ddr4_2400_estimate();
        let pj = |s| match s {
            RankPowerState::ActiveStandby => p.act_stby_mw * p.timings.tck_ns,
            RankPowerState::PrechargeStandby => p.pre_stby_mw * p.timings.tck_ns,
            RankPowerState::PowerDown => p.pre_pdn_mw * p.timings.tck_ns,
        };
        let plan = [
            (0, RankPowerState::ActiveStandby, 3),
            (2, RankPowerState::PowerDown, 3),
            (1, RankPowerState::ActiveStandby, 17),
            (0, RankPowerState::PowerDown, 40),
            (0, RankPowerState::PowerDown, 41),
        ];
        let mut a = EnergyAccounting::new(p, 3);
        let mut states = [RankPowerState::PrechargeStandby; 3];
        let mut bg = 0.0;
        let mut cycle = 0;
        for (rank, state, at) in plan {
            while cycle < at {
                for s in states {
                    bg += pj(s);
                }
                cycle += 1;
            }
            a.set_rank_state(rank, state, at);
            states[rank] = state;
        }
        // The last entry changes nothing, so nothing was charged for it.
        assert_ne!(a.breakdown().bg.to_bits(), bg.to_bits());
        assert_eq!(a.breakdown_at(41).bg.to_bits(), bg.to_bits());
        for s in states {
            bg += pj(s);
        }
        assert_eq!(a.breakdown_at(42).bg.to_bits(), bg.to_bits());
    }

    #[test]
    fn act_energy_by_mats_partitions_act_pre() {
        let mut a = acc(2);
        a.activation_mats(16); // full row -> index 15
        a.activation_mats(2); // one MAT pair -> index 1
        a.activation_mats(3); // odd path -> index 2
        let by_mats = a.act_energy_by_mats();
        assert!(by_mats[15] > 0.0 && by_mats[1] > 0.0 && by_mats[2] > 0.0);
        assert_eq!(by_mats[0], 0.0);
        let sum: f64 = by_mats.iter().sum();
        assert!((sum - a.breakdown().act_pre).abs() < 1e-9);
    }

    #[test]
    fn bank_open_cycles_are_energy_neutral() {
        let mut a = acc(2);
        a.add_bank_open_cycles(0, 1, 2);
        assert_eq!(a.breakdown().total(), 0.0);
        assert_eq!(a.residency().ranks()[0].open_bank_cycles(), 2);
    }
}
