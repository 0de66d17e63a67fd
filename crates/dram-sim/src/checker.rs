//! An independent DRAM command-protocol checker.
//!
//! The scheduler in [`crate::MemorySystem`] is supposed to respect every
//! JEDEC-style timing constraint; this module re-verifies that claim from
//! the *outside*, by watching the command stream the controller issues and
//! re-deriving legality from its own per-bank/per-rank state. It shares no
//! code with the scheduler's fences, so a bookkeeping bug in one is caught
//! by the other (defence in depth, as DRAMSim-class simulators do with
//! their command-trace verifiers).
//!
//! The checker is wired into the channel behind
//! [`crate::DramConfig::verify_protocol`], which defaults to on in debug
//! builds (so the entire test suite runs verified) and off in release
//! builds (figure regeneration speed).

use core::fmt;
use std::collections::{BTreeMap, VecDeque};

use crate::scheme::FULL_ROW_MATS;
use crate::timing::TimingParams;

/// A DRAM command as seen on the command bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramCommand {
    /// Row activation of `mats` MATs (16 = conventional full row) taking
    /// `extra_cycles` of additional activate-to-column delay (PRA mask
    /// transfer).
    Activate {
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
        /// Row index.
        row: u32,
        /// MATs driven.
        mats: u32,
        /// Extra activate-to-column cycles.
        extra_cycles: u64,
    },
    /// Column read (BL8 of `burst_cycles` on the bus).
    Read {
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
    },
    /// Column write.
    Write {
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
    },
    /// Bank precharge (explicit or auto).
    Precharge {
        /// Target rank.
        rank: u32,
        /// Target bank.
        bank: u32,
    },
    /// All-bank refresh.
    Refresh {
        /// Target rank.
        rank: u32,
    },
}

/// A violated protocol rule.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolError {
    /// Cycle at which the illegal command was issued.
    pub cycle: u64,
    /// The offending command.
    pub command: DramCommand,
    /// Which rule was broken.
    pub rule: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cycle {}: {:?} violates {}",
            self.cycle, self.command, self.rule
        )
    }
}

impl std::error::Error for ProtocolError {}

#[derive(Debug, Clone)]
struct BankCheck {
    open_row: Option<u32>,
    act_at: u64,
    act_extra: u64,
    last_read_at: Option<u64>,
    last_write_at: Option<u64>,
    pre_at: Option<u64>,
    busy_until: u64, // refresh
}

impl BankCheck {
    fn new() -> Self {
        BankCheck {
            open_row: None,
            act_at: 0,
            act_extra: 0,
            last_read_at: None,
            last_write_at: None,
            pre_at: None,
            busy_until: 0,
        }
    }
}

#[derive(Debug, Clone)]
struct RankCheck {
    banks: Vec<BankCheck>,
    acts: VecDeque<(u64, f64)>,
    last_act_at: Option<(u64, f64)>,
}

/// Replays the observed command stream against independently tracked state.
#[derive(Debug, Clone)]
pub struct ProtocolChecker {
    timing: TimingParams,
    ranks: Vec<RankCheck>,
    last_col_at: Option<u64>,
    /// Previous data burst: `(end_cycle, was_read, rank)`. Drives the
    /// bus-level tWTR / tRTRS / overlap rules.
    last_burst: Option<(u64, bool, u32)>,
    /// Data-bus cycles one column burst occupies (the scheme's effective
    /// burst: `timing.burst_cycles * burst_multiplier` for FGA).
    burst_cycles: u64,
    /// Whether partial activations relax tRRD/tFAW proportionally (the
    /// scheme under test declares its own contract).
    relaxed_act_timing: bool,
    /// Replay hold-offs announced by the recovery pipeline:
    /// `(rank, bank)` → first cycle the bank accepts commands again.
    alert_holds: BTreeMap<(u32, u32), u64>,
    commands_checked: u64,
}

impl ProtocolChecker {
    /// A checker for `ranks` ranks of `banks` banks under `timing`.
    /// `burst_cycles` is the effective data-bus occupancy of one column
    /// burst (the raw `timing.burst_cycles` times any scheme multiplier).
    pub fn new(
        timing: TimingParams,
        ranks: usize,
        banks: usize,
        relaxed_act_timing: bool,
        burst_cycles: u64,
    ) -> Self {
        ProtocolChecker {
            timing,
            ranks: (0..ranks)
                .map(|_| RankCheck {
                    banks: (0..banks).map(|_| BankCheck::new()).collect(),
                    acts: VecDeque::new(),
                    last_act_at: None,
                })
                .collect(),
            last_col_at: None,
            last_burst: None,
            burst_cycles,
            relaxed_act_timing,
            alert_holds: BTreeMap::new(),
            commands_checked: 0,
        }
    }

    /// Announces an ALERT_n replay hold: the recovery pipeline promised
    /// not to re-issue the faulted command window on `(rank, bank)` before
    /// cycle `until`. Observing an Activate/Read/Write there earlier is a
    /// violation. Precharge and Refresh are exempt — the alert parks the
    /// faulted command, not bank maintenance.
    pub fn record_alert(&mut self, rank: u32, bank: u32, until: u64) {
        self.alert_holds.insert((rank, bank), until);
    }

    /// Commands observed so far.
    pub fn commands_checked(&self) -> u64 {
        self.commands_checked
    }

    fn weight(&self, mats: u32) -> f64 {
        if self.relaxed_act_timing {
            f64::from(mats) / f64::from(FULL_ROW_MATS)
        } else {
            1.0
        }
    }

    fn err(cycle: u64, command: DramCommand, rule: impl Into<String>) -> ProtocolError {
        ProtocolError {
            cycle,
            command,
            rule: rule.into(),
        }
    }

    /// Observes one command at `cycle`.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule, naming it.
    pub fn observe(&mut self, cycle: u64, command: DramCommand) -> Result<(), ProtocolError> {
        self.commands_checked += 1;
        if let DramCommand::Activate { rank, bank, .. }
        | DramCommand::Read { rank, bank }
        | DramCommand::Write { rank, bank } = command
        {
            if let Some(&until) = self.alert_holds.get(&(rank, bank)) {
                if cycle < until {
                    return Err(Self::err(
                        cycle,
                        command,
                        format!("replay before alert window elapsed (hold until {until})"),
                    ));
                }
                self.alert_holds.remove(&(rank, bank));
            }
        }
        let t = self.timing;
        match command {
            DramCommand::Activate {
                rank,
                bank,
                row,
                mats,
                extra_cycles,
            } => {
                if mats == 0 || mats > FULL_ROW_MATS {
                    return Err(Self::err(cycle, command, "mats out of range"));
                }
                let weight = self.weight(mats);
                let r = &mut self.ranks[rank as usize];
                // tRRD against the previous activation in this rank.
                if let Some((prev, prev_w)) = r.last_act_at {
                    let spacing = if self.relaxed_act_timing {
                        t.scaled_trrd(prev_w)
                    } else {
                        t.trrd
                    };
                    if cycle < prev + spacing {
                        return Err(Self::err(cycle, command, format!("tRRD ({spacing})")));
                    }
                }
                // Weighted tFAW.
                let in_window: f64 = r
                    .acts
                    .iter()
                    .filter(|&&(c, _)| c + t.tfaw > cycle)
                    .map(|&(_, w)| w)
                    .sum();
                if in_window + weight > 4.0 + 1e-9 {
                    return Err(Self::err(
                        cycle,
                        command,
                        format!("tFAW (window weight {in_window:.3} + {weight:.3} > 4)"),
                    ));
                }
                let b = &mut r.banks[bank as usize];
                if b.open_row.is_some() {
                    return Err(Self::err(cycle, command, "ACT to an open bank"));
                }
                if let Some(pre_at) = b.pre_at {
                    if cycle < pre_at + t.trp {
                        return Err(Self::err(cycle, command, "tRP"));
                    }
                }
                if cycle < b.busy_until {
                    return Err(Self::err(cycle, command, "tRFC (rank refreshing)"));
                }
                b.open_row = Some(row);
                b.act_at = cycle;
                b.act_extra = extra_cycles;
                b.last_read_at = None;
                b.last_write_at = None;
                r.last_act_at = Some((cycle, weight));
                r.acts.push_back((cycle, weight));
                while let Some(&(c, _)) = r.acts.front() {
                    if c + t.tfaw <= cycle {
                        r.acts.pop_front();
                    } else {
                        break;
                    }
                }
            }
            DramCommand::Read { rank, bank } | DramCommand::Write { rank, bank } => {
                let is_read = matches!(command, DramCommand::Read { .. });
                if let Some(last) = self.last_col_at {
                    if cycle < last + t.tccd {
                        return Err(Self::err(cycle, command, "tCCD"));
                    }
                }
                let b = &mut self.ranks[rank as usize].banks[bank as usize];
                if b.open_row.is_none() {
                    return Err(Self::err(cycle, command, "column to a closed bank"));
                }
                if cycle < b.act_at + t.trcd + b.act_extra {
                    return Err(Self::err(cycle, command, "tRCD (+PRA mask cycle)"));
                }
                // Bus-level rules, mirroring the shared-data-bus model the
                // scheduler's DataBus implements: a burst starts CL (reads)
                // or WL (writes) after its column command, must not overlap
                // the previous burst, and pays tWTR on a direction change
                // plus tRTRS on a rank change.
                let start = cycle.saturating_add(if is_read { t.tcas } else { t.wl });
                if let Some((prev_end, prev_read, prev_rank)) = self.last_burst {
                    let turnaround = prev_read != is_read;
                    let rank_switch = prev_rank != rank;
                    let mut min_start = prev_end;
                    if turnaround {
                        min_start += t.twtr;
                    }
                    if rank_switch {
                        min_start += t.trtrs;
                    }
                    if start < min_start {
                        let rule = match (turnaround, rank_switch) {
                            (true, true) => "tWTR+tRTRS (bus turnaround and rank switch)",
                            (true, false) => "tWTR (bus turnaround)",
                            (false, true) => "tRTRS (rank-to-rank switch)",
                            (false, false) => "data-bus overlap",
                        };
                        return Err(Self::err(cycle, command, rule));
                    }
                }
                self.last_burst = Some((start.saturating_add(self.burst_cycles), is_read, rank));
                if is_read {
                    b.last_read_at = Some(cycle);
                } else {
                    b.last_write_at = Some(cycle);
                }
                self.last_col_at = Some(cycle);
            }
            DramCommand::Precharge { rank, bank } => {
                let b = &mut self.ranks[rank as usize].banks[bank as usize];
                if b.open_row.is_none() {
                    return Err(Self::err(cycle, command, "PRE to a closed bank"));
                }
                if cycle < b.act_at + t.tras {
                    return Err(Self::err(cycle, command, "tRAS"));
                }
                if let Some(rd) = b.last_read_at {
                    if cycle < rd + t.trtp {
                        return Err(Self::err(cycle, command, "tRTP"));
                    }
                }
                if let Some(wr) = b.last_write_at {
                    let wr_done = wr
                        .saturating_add(t.wl)
                        .saturating_add(self.burst_cycles)
                        .saturating_add(t.twr);
                    if cycle < wr_done {
                        return Err(Self::err(cycle, command, "tWR"));
                    }
                }
                b.open_row = None;
                b.pre_at = Some(cycle);
            }
            DramCommand::Refresh { rank } => {
                let r = &mut self.ranks[rank as usize];
                for (i, b) in r.banks.iter().enumerate() {
                    if b.open_row.is_some() {
                        return Err(Self::err(cycle, command, format!("REF with bank {i} open")));
                    }
                    if let Some(pre_at) = b.pre_at {
                        if cycle < pre_at + t.trp {
                            return Err(Self::err(cycle, command, "tRP before REF"));
                        }
                    }
                }
                for b in &mut r.banks {
                    b.busy_until = cycle.saturating_add(t.trfc);
                }
            }
        }
        Ok(())
    }
}

impl sim_snap::SnapState for ProtocolChecker {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("protocol-checker");
        // timing / burst_cycles / relaxed_act_timing are configuration,
        // rebuilt from the run config and covered by the header digest.
        w.seq(self.ranks.len());
        for rank in &self.ranks {
            w.seq(rank.banks.len());
            for b in &rank.banks {
                w.bool(b.open_row.is_some());
                if let Some(row) = b.open_row {
                    w.u32(row);
                }
                w.u64(b.act_at);
                w.u64(b.act_extra);
                w.opt_u64(b.last_read_at);
                w.opt_u64(b.last_write_at);
                w.opt_u64(b.pre_at);
                w.u64(b.busy_until);
            }
            w.seq(rank.acts.len());
            for &(c, weight) in &rank.acts {
                w.u64(c);
                w.f64(weight);
            }
            w.bool(rank.last_act_at.is_some());
            if let Some((c, weight)) = rank.last_act_at {
                w.u64(c);
                w.f64(weight);
            }
        }
        w.opt_u64(self.last_col_at);
        w.bool(self.last_burst.is_some());
        if let Some((end, was_read, rank)) = self.last_burst {
            w.u64(end);
            w.bool(was_read);
            w.u32(rank);
        }
        // BTreeMap iterates in key order, so the encoding is canonical.
        w.seq(self.alert_holds.len());
        for (&(rank, bank), &until) in &self.alert_holds {
            w.u32(rank);
            w.u32(bank);
            w.u64(until);
        }
        w.u64(self.commands_checked);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("protocol-checker")?;
        let ranks = r.seq()?;
        if ranks != self.ranks.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "checker rank count mismatch: snapshot has {ranks}, config has {}",
                self.ranks.len()
            )));
        }
        for rank in &mut self.ranks {
            let banks = r.seq()?;
            if banks != rank.banks.len() {
                return Err(sim_snap::SnapError::Decode(format!(
                    "checker bank count mismatch: snapshot has {banks}, config has {}",
                    rank.banks.len()
                )));
            }
            for b in &mut rank.banks {
                b.open_row = if r.bool()? { Some(r.u32()?) } else { None };
                b.act_at = r.u64()?;
                b.act_extra = r.u64()?;
                b.last_read_at = r.opt_u64()?;
                b.last_write_at = r.opt_u64()?;
                b.pre_at = r.opt_u64()?;
                b.busy_until = r.u64()?;
            }
            let acts = r.seq()?;
            rank.acts.clear();
            for _ in 0..acts {
                let c = r.u64()?;
                let weight = r.f64()?;
                rank.acts.push_back((c, weight));
            }
            rank.last_act_at = if r.bool()? {
                Some((r.u64()?, r.f64()?))
            } else {
                None
            };
        }
        self.last_col_at = r.opt_u64()?;
        self.last_burst = if r.bool()? {
            Some((r.u64()?, r.bool()?, r.u32()?))
        } else {
            None
        };
        self.alert_holds.clear();
        let holds = r.seq()?;
        for _ in 0..holds {
            let rank = r.u32()?;
            let bank = r.u32()?;
            let until = r.u64()?;
            self.alert_holds.insert((rank, bank), until);
        }
        self.commands_checked = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> ProtocolChecker {
        let t = TimingParams::ddr3_1600_table3();
        ProtocolChecker::new(t, 2, 8, false, t.burst_cycles)
    }

    fn act(rank: u32, bank: u32, row: u32) -> DramCommand {
        DramCommand::Activate {
            rank,
            bank,
            row,
            mats: 16,
            extra_cycles: 0,
        }
    }

    #[test]
    fn legal_sequence_passes() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
        c.observe(28, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
        c.observe(39, act(0, 0, 6)).unwrap();
        assert_eq!(c.commands_checked(), 4);
    }

    #[test]
    fn trcd_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        let err = c
            .observe(10, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tRCD"), "{err}");
    }

    #[test]
    fn tras_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        let err = c
            .observe(27, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tRAS"), "{err}");
    }

    #[test]
    fn trp_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(28, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
        let err = c.observe(38, act(0, 0, 6)).unwrap_err();
        assert!(err.rule.contains("tRP"), "{err}");
    }

    #[test]
    fn trrd_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        let err = c.observe(4, act(0, 1, 5)).unwrap_err();
        assert!(err.rule.contains("tRRD"), "{err}");
    }

    #[test]
    fn tfaw_violation_detected() {
        let mut c = checker();
        for (i, cycle) in [0u64, 5, 10, 15].iter().enumerate() {
            c.observe(*cycle, act(0, i as u32, 1)).unwrap();
        }
        let err = c.observe(20, act(0, 4, 1)).unwrap_err();
        assert!(err.rule.contains("tFAW"), "{err}");
        // After the window slides, the fifth activation is legal.
        let mut c2 = checker();
        for (i, cycle) in [0u64, 5, 10, 15].iter().enumerate() {
            c2.observe(*cycle, act(0, i as u32, 1)).unwrap();
        }
        c2.observe(25, act(0, 4, 1)).unwrap();
    }

    #[test]
    fn relaxed_partial_activations_pass_tfaw() {
        let t = TimingParams::ddr3_1600_table3();
        let mut c = ProtocolChecker::new(t, 2, 8, true, t.burst_cycles);
        // Eight 2-MAT activations inside one tFAW window: weight 8 * 1/8 = 1.
        for i in 0..8u32 {
            let cmd = DramCommand::Activate {
                rank: 0,
                bank: i,
                row: 1,
                mats: 2,
                extra_cycles: 1,
            };
            c.observe(u64::from(i) * 2, cmd).unwrap();
        }
    }

    #[test]
    fn pra_extra_cycle_enforced() {
        let mut c = checker();
        c.observe(
            0,
            DramCommand::Activate {
                rank: 0,
                bank: 0,
                row: 5,
                mats: 2,
                extra_cycles: 1,
            },
        )
        .unwrap();
        let err = c
            .observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tRCD"), "{err}");
        c.observe(12, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn twr_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        // Write burst ends at 11 + WL(8) + 4 = 23; tWR ends at 35 > tRAS.
        let err = c
            .observe(34, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tWR"), "{err}");
        let mut c2 = checker();
        c2.observe(0, act(0, 0, 5)).unwrap();
        c2.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        c2.observe(35, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn twr_counts_from_the_end_of_the_effective_burst() {
        // An FGA-style doubled burst ends at 11 + WL(8) + 8 = 27, so tWR
        // (12) holds the precharge until 39.
        let t = TimingParams::ddr3_1600_table3();
        let mut c = ProtocolChecker::new(t, 2, 8, false, 2 * t.burst_cycles);
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        let err = c
            .observe(38, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tWR"), "{err}");
        let mut c2 = ProtocolChecker::new(t, 2, 8, false, 2 * t.burst_cycles);
        c2.observe(0, act(0, 0, 5)).unwrap();
        c2.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        c2.observe(39, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn refresh_rules() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        let err = c.observe(5, DramCommand::Refresh { rank: 0 }).unwrap_err();
        assert!(err.rule.contains("open"), "{err}");
        c.observe(28, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
        c.observe(39, DramCommand::Refresh { rank: 0 }).unwrap();
        // ACT during tRFC is illegal.
        let err = c.observe(100, act(0, 0, 5)).unwrap_err();
        assert!(err.rule.contains("tRFC"), "{err}");
        c.observe(39 + 128, act(0, 0, 5)).unwrap();
    }

    #[test]
    fn twtr_violation_detected() {
        // Write burst: issued at 11, starts 11+WL(8)=19, ends 19+4=23. A
        // read burst must start at 23+tWTR(6)=29, i.e. the RD command may
        // not issue before 29-CL(11)=18.
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        let err = c
            .observe(16, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tWTR"), "{err}");
        let mut c2 = checker();
        c2.observe(0, act(0, 0, 5)).unwrap();
        c2.observe(11, DramCommand::Write { rank: 0, bank: 0 })
            .unwrap();
        c2.observe(18, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn trtrs_violation_detected() {
        // Read burst from rank 0 ends at 11+CL(11)+4=26; a rank-1 burst
        // must start at 26+tRTRS(2)=28, so its RD may not issue before 17.
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(5, act(1, 0, 5)).unwrap();
        c.observe(11, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
        let err = c
            .observe(16, DramCommand::Read { rank: 1, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tRTRS"), "{err}");
        let mut c2 = checker();
        c2.observe(0, act(0, 0, 5)).unwrap();
        c2.observe(5, act(1, 0, 5)).unwrap();
        c2.observe(11, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
        c2.observe(17, DramCommand::Read { rank: 1, bank: 0 })
            .unwrap();
    }

    #[test]
    fn data_bus_overlap_detected_with_effective_burst() {
        // With an FGA-style burst multiplier the effective burst is 8
        // cycles: a read at 11 occupies the bus 22..30, so a same-rank
        // same-direction read at 16 (tCCD-legal) would overlap.
        let t = TimingParams::ddr3_1600_table3();
        let mut c = ProtocolChecker::new(t, 2, 8, false, 2 * t.burst_cycles);
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
        let err = c
            .observe(16, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("data-bus overlap"), "{err}");
        c.observe(19, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn replay_hold_rejects_early_reissue() {
        let mut c = checker();
        c.record_alert(0, 0, 40);
        let err = c.observe(30, act(0, 0, 5)).unwrap_err();
        assert!(err.rule.contains("replay before alert window"), "{err}");
        // Other banks are unaffected.
        c.observe(31, act(0, 1, 5)).unwrap();
        // Once the window opens, the replay is legal and the hold clears.
        let mut c2 = checker();
        c2.record_alert(0, 0, 40);
        c2.observe(40, act(0, 0, 5)).unwrap();
        c2.observe(51, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
    }

    #[test]
    fn replay_hold_exempts_precharge() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.record_alert(0, 0, 100);
        // Bank maintenance may proceed during the hold...
        c.observe(28, DramCommand::Precharge { rank: 0, bank: 0 })
            .unwrap();
        // ...but re-issuing the faulted command window may not.
        let err = c.observe(50, act(0, 0, 6)).unwrap_err();
        assert!(err.rule.contains("replay"), "{err}");
        c.observe(100, act(0, 0, 6)).unwrap();
    }

    #[test]
    fn tccd_violation_detected() {
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(0, act(0, 1, 5)).unwrap_err(); // also tRRD, but check columns:
        let mut c = checker();
        c.observe(0, act(0, 0, 5)).unwrap();
        c.observe(11, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap();
        let err = c
            .observe(14, DramCommand::Read { rank: 0, bank: 0 })
            .unwrap_err();
        assert!(err.rule.contains("tCCD"), "{err}");
    }
}
