//! Per-channel memory controller: FR-FCFS scheduling, write drain,
//! refresh, page policies and the PRA command path.

use dram_power::EnergyAccounting;
use mem_model::{Location, MemRequest, ReqKind, RequestId, WordMask};
use sim_fault::{FaultInjector, FaultSite};
use sim_obs::TraceEvent;
use sim_recover::{RecoveryEngine, RecoveryVerdict, RowStanding};

use crate::bank::Bank;
use crate::checker::{DramCommand, ProtocolChecker, ProtocolError};
use crate::config::{DramConfig, PagePolicy};
use crate::liveness::RequestTrail;
use crate::masks::{bits, BankMasks};
use crate::obs::DramObs;
use crate::rank::{Rank, RefreshState};
use crate::stats::DramStats;

/// A queued request together with its decoded coordinates.
#[derive(Debug, Clone)]
pub(crate) struct QueueEntry {
    pub req: MemRequest,
    pub loc: Location,
    pub enqueued_at: u64,
    /// Whether the hit/miss outcome has been recorded (once per request).
    pub classified: bool,
}

/// Data-bus direction, for turnaround penalties.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    Read,
    Write,
}

/// Shared data-bus occupancy tracking.
#[derive(Debug, Clone)]
struct DataBus {
    busy_until: u64,
    last_dir: Option<Dir>,
    last_rank: Option<u32>,
}

impl DataBus {
    fn new() -> Self {
        DataBus {
            busy_until: 0,
            last_dir: None,
            last_rank: None,
        }
    }

    /// Earliest cycle a burst of `dir` from `rank` may start.
    fn earliest_start(&self, dir: Dir, rank: u32, turnaround: u64, rank_switch: u64) -> u64 {
        let mut start = self.busy_until;
        if let Some(last) = self.last_dir {
            if last != dir {
                start += turnaround;
            }
        }
        if let Some(last) = self.last_rank {
            if last != rank {
                start += rank_switch;
            }
        }
        start
    }

    /// The banks, as `masks` bits, on ranks whose burst of `dir` could
    /// start by cycle `by`: the last rank on the bus from `earliest_start`
    /// on, every other rank once the rank-switch gap has passed too.
    fn ready_banks(
        &self,
        dir: Dir,
        by: u64,
        turnaround: u64,
        rank_switch: u64,
        masks: &BankMasks,
    ) -> u64 {
        let last = self.last_rank.unwrap_or(0);
        let start = self.earliest_start(dir, last, turnaround, rank_switch);
        let switch = if self.last_rank.is_some() {
            rank_switch
        } else {
            0
        };
        banks_if(by >= start + switch, u64::MAX)
            | banks_if(by >= start, masks.rank_bits(last as usize))
    }

    fn reserve(&mut self, start: u64, end: u64, dir: Dir, rank: u32) {
        debug_assert!(start >= self.busy_until, "data bus double-booked");
        self.busy_until = end;
        self.last_dir = Some(dir);
        self.last_rank = Some(rank);
    }
}

/// `banks` when `cond` holds, else none; without a branch, since the
/// readiness conditions flip unpredictably from cycle to cycle.
fn banks_if(cond: bool, banks: u64) -> u64 {
    u64::from(cond).wrapping_neg() & banks
}

/// An issued read waiting for its data burst to finish.
#[derive(Debug, Clone, Copy)]
struct InflightRead {
    id: RequestId,
    /// The core that issued it, handed back with its completion.
    core: usize,
    done_at: u64,
    enqueued_at: u64,
}

/// The rank-level conditions of the FR-FCFS passes at one cycle, as bank
/// masks over the channel (a rank's condition sets all its banks' bits).
/// Derived at most once per tick, by the first pass after the refresh pass
/// that has candidate banks, and shared by the passes after it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Readiness {
    /// The cycle the masks hold for; `u64::MAX` once a command issued in
    /// that cycle moved the bus or rank state they derive from.
    at: u64,
    /// Banks on ranks past their availability fence (power-down exit,
    /// refresh).
    available: u64,
    /// Banks on available ranks whose read (`[0]`) or write (`[1]`) burst,
    /// issued now, would find the data bus free.
    column: [u64; 2],
    /// Banks on available, refresh-idle ranks that refresh debt does not
    /// force closed and that are past tRRD.
    activate: u64,
}

impl Readiness {
    const STALE: Readiness = Readiness {
        at: u64::MAX,
        available: 0,
        column: [0; 2],
        activate: 0,
    };
}

/// One channel's controller, ranks and queues.
#[derive(Debug)]
pub(crate) struct Channel {
    /// This channel's index, stamped into every trace event it emits.
    index: u8,
    ranks: Vec<Rank>,
    /// Every bank of the channel at its `BankMasks` flat index,
    /// `rank * banks_per_rank + bank`.
    banks: Vec<Bank>,
    read_q: Vec<QueueEntry>,
    write_q: Vec<QueueEntry>,
    inflight_reads: Vec<InflightRead>,
    inflight_write_ends: Vec<u64>,
    /// The earliest `done_at` or write end in flight (`u64::MAX` when
    /// none): until then no transfer completes. A cache of the two lists,
    /// recomputed on restore and never serialized.
    next_transfer_done: u64,
    drain_mode: bool,
    bus: DataBus,
    next_col_allowed: u64,
    checker: Option<ProtocolChecker>,
    /// Age-based starvation escalation: when the oldest queued request's
    /// age exceeds `cfg.starvation_escalation_age`, the scheduler pins the
    /// active queue to that request's queue and stops serving row-buffer
    /// hits that keep its bank occupied until it retires. `(is_write,
    /// location)` of the escalated entry; recomputed every cycle.
    escalated: Option<(bool, Location)>,
    /// Recovery pipeline for detected command faults (C/A parity, replay,
    /// health scoreboard). `None` reproduces the legacy behaviour:
    /// dropped commands are silently lost and mask faults degrade to
    /// full-row activations immediately.
    recovery: Option<RecoveryEngine>,
    /// Open-bank, queued-work and row-hit bitmasks plus each queue's
    /// packed targets: a cache of `banks`, `read_q` and `write_q`, rebuilt
    /// on restore and never serialized.
    masks: BankMasks,
    /// The rank-level readiness of the last tick that needed it; never
    /// serialized.
    ready: Readiness,
    /// The `(bank, row)` targets the activate pass has tried this cycle:
    /// scratch space, kept to reuse its allocation.
    tried: Vec<u64>,
}

impl Channel {
    pub fn new(cfg: &DramConfig, channel_index: usize) -> Self {
        let nranks = cfg.geometry.ranks_per_channel;
        let stagger = cfg.timing.trefi / (nranks as u64).max(1);
        let ranks = (0..nranks)
            .map(|r| {
                // Stagger refreshes across ranks and channels so they do not
                // all stall the system simultaneously.
                let offset = (r as u64 + channel_index as u64) * stagger / 2 + cfg.timing.trefi;
                Rank::new(offset)
            })
            .collect();
        Channel {
            index: channel_index as u8,
            ranks,
            banks: vec![Bank::new(); nranks * cfg.geometry.banks_per_rank],
            read_q: Vec::with_capacity(cfg.queues.read_capacity),
            write_q: Vec::with_capacity(cfg.queues.write_capacity),
            inflight_reads: Vec::new(),
            inflight_write_ends: Vec::new(),
            next_transfer_done: u64::MAX,
            drain_mode: false,
            bus: DataBus::new(),
            next_col_allowed: 0,
            escalated: None,
            recovery: cfg.recovery.map(RecoveryEngine::new),
            masks: BankMasks::new(nranks, cfg.geometry.banks_per_rank),
            ready: Readiness::STALE,
            tried: Vec::new(),
            checker: cfg.verify_protocol.then(|| {
                ProtocolChecker::new(
                    cfg.timing,
                    cfg.geometry.ranks_per_channel,
                    cfg.geometry.banks_per_rank,
                    cfg.scheme.relaxed_act_timing,
                    cfg.timing
                        .burst_cycles
                        .saturating_mul(cfg.scheme.burst_multiplier),
                )
            }),
        }
    }

    /// Feeds the protocol checker; a violation is a simulator bug, surfaced
    /// to the caller as an error rather than a panic so embedders (and the
    /// fault-injection harness) can decide how to react.
    fn verify_cmd(
        checker: &mut Option<ProtocolChecker>,
        now: u64,
        command: DramCommand,
    ) -> Result<(), ProtocolError> {
        match checker {
            Some(checker) => {
                let _prof = sim_prof::span!("dram.checker");
                checker.observe(now, command)
            }
            None => Ok(()),
        }
    }

    /// Recovery counters accumulated by this channel's engine (zero when
    /// recovery is disabled).
    pub(crate) fn recovery_counts(&self) -> sim_recover::RecoveryCounts {
        self.recovery
            .as_ref()
            .map(|r| r.counts())
            .unwrap_or_default()
    }

    /// Runs a detected (C/A-parity) command fault at `loc` through the
    /// recovery engine. Returns `true` when a replay was scheduled — the
    /// bank is held closed until the alert window elapses and the queue
    /// entry retries afterwards — and `false` when the retry budget is
    /// exhausted and the caller must take its terminal fallback. Only
    /// called with recovery enabled.
    fn recover_detected_fault(&mut self, now: u64, loc: Location, o: &mut DramObs) -> bool {
        let Some(rec) = self.recovery.as_mut() else {
            return false;
        };
        let ch = self.index;
        match rec.on_fault(now, loc.rank, loc.bank, loc.row) {
            RecoveryVerdict::Replay { until, attempt } => {
                o.obs.emit(|| TraceEvent::ParityAlert {
                    cycle: now,
                    channel: ch,
                    rank: loc.rank as u8,
                    bank: loc.bank as u8,
                });
                o.obs.emit(|| TraceEvent::CommandReplay {
                    cycle: now,
                    channel: ch,
                    rank: loc.rank as u8,
                    bank: loc.bank as u8,
                    attempt,
                });
                // Tell the independent checker about the hold so it can
                // reject a premature replay as a protocol violation.
                if let Some(checker) = self.checker.as_mut() {
                    checker.record_alert(loc.rank, loc.bank, until);
                }
                true
            }
            RecoveryVerdict::Exhausted => {
                o.obs.emit(|| TraceEvent::RecoveryExhausted {
                    cycle: now,
                    channel: ch,
                    rank: loc.rank as u8,
                    bank: loc.bank as u8,
                    row: loc.row,
                });
                false
            }
        }
    }

    /// Whether a request of this kind can currently be accepted.
    pub fn can_accept(&self, kind: ReqKind, cfg: &DramConfig) -> bool {
        match kind {
            ReqKind::Read => self.read_q.len() < cfg.queues.read_capacity,
            ReqKind::Write => self.write_q.len() < cfg.queues.write_capacity,
        }
    }

    /// Enqueues a decoded request; the caller has checked `can_accept`.
    pub fn enqueue(
        &mut self,
        req: MemRequest,
        loc: Location,
        now: u64,
        cfg: &DramConfig,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) {
        let ch = self.index;
        // CKE is a dedicated pin: arriving work wakes the rank without
        // consuming a command-bus slot, paying tXP before the first command.
        let r = loc.rank as usize;
        if self.ranks[r].exit_power_down(now, &cfg.timing) {
            o.obs.emit(|| TraceEvent::PowerUp {
                cycle: now,
                channel: ch,
                rank: loc.rank as u8,
            });
            self.update_power_state(r, now, energy);
        }
        let entry = QueueEntry {
            req,
            loc,
            enqueued_at: now,
            classified: false,
        };
        self.masks.push(matches!(req.kind, ReqKind::Write), &loc);
        match req.kind {
            ReqKind::Read => {
                self.read_q.push(entry);
                o.obs
                    .registry
                    .observe(o.read_q_occupancy, self.read_q.len() as u64);
            }
            ReqKind::Write => {
                self.write_q.push(entry);
                o.obs
                    .registry
                    .observe(o.write_q_occupancy, self.write_q.len() as u64);
            }
        }
    }

    /// The issuing core of every read queued or in flight.
    pub fn read_cores(&self) -> impl Iterator<Item = usize> + '_ {
        let queued = self.read_q.iter().map(|e| e.req.core);
        queued.chain(self.inflight_reads.iter().map(|f| f.core))
    }

    /// Number of requests queued or in flight (including write bursts still
    /// on the data bus).
    pub fn pending(&self) -> usize {
        self.read_q.len()
            + self.write_q.len()
            + self.inflight_reads.len()
            + self.inflight_write_ends.len()
    }

    /// Global (channel-major) index of this channel's first rank, the
    /// index the energy accountant and its residency ledger use.
    fn rank_base(&self) -> usize {
        self.ranks.len() * self.index as usize
    }

    /// Positions of rank `r`'s banks in `banks`.
    fn rank_banks(&self, r: usize) -> std::ops::Range<usize> {
        let per_rank = self.banks.len() / self.ranks.len();
        r * per_rank..(r + 1) * per_rank
    }

    /// Records rank `r`'s background power state from cycle `now` on.
    /// Called wherever the state can change: a bank opening or closing, a
    /// refresh starting or finishing, power-down entry and exit.
    fn update_power_state(&self, r: usize, now: u64, energy: &mut EnergyAccounting) {
        let any_open = self.masks.rank_field(self.masks.open(), r) != 0;
        energy.set_rank_state(
            self.rank_base() + r,
            self.ranks[r].power_state(any_open),
            now,
        );
    }

    /// Each open row as `(global rank, bank, cycles open before now)`:
    /// the residency its precharge has not yet added to the ledger.
    pub(crate) fn open_rows(&self, now: u64) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        bits(self.masks.open()).filter_map(move |flat| {
            let (r, b) = self.masks.split(flat);
            let open = self.banks[flat as usize].open?;
            Some((self.rank_base() + r, b, now - open.opened_at))
        })
    }

    /// Advances the channel one memory cycle. Each completed read is pushed
    /// onto `completed` as its id and issuing core. `faults` is the
    /// optional injector shared by all channels; `None` (the default)
    /// leaves every decision untouched.
    ///
    /// Returns `Err` if the protocol checker (when enabled) rejects a command
    /// the scheduler issued this cycle — always a simulator bug.
    #[expect(
        clippy::too_many_arguments,
        reason = "each argument is a disjoint borrow of a MemorySystem field; bundling them would need a struct rebuilt every memory cycle"
    )]
    pub fn tick(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
        completed: &mut Vec<(RequestId, usize)>,
        faults: &mut Option<FaultInjector>,
    ) -> Result<(), ProtocolError> {
        // Refresh stress shortens the effective refresh interval.
        let trefi = faults
            .as_ref()
            .map_or(cfg.timing.trefi, |f| f.effective_trefi(cfg.timing.trefi));
        // 1. Housekeeping: refresh expiry, auto-precharges, data completions.
        for r in 0..self.ranks.len() {
            if self.ranks[r].finish_refresh_if_done(now) {
                self.update_power_state(r, now, energy);
            }
            self.ranks[r].update_refresh_due(now, trefi);
        }
        // Only banks whose column command armed an auto-precharge (which
        // only restricted close-page does) can fire one, so visiting them
        // in (rank, bank) order fires the same precharges in the same order
        // as visiting every open bank.
        for flat in bits(self.masks.armed()) {
            if self.banks[flat as usize].auto_precharge_due(now) {
                self.close_bank(flat as usize, now, cfg, stats, energy, o)?;
            }
        }
        self.complete_transfers(now, stats, o, completed);

        // 2. Write-drain hysteresis (48/16 watermarks) plus opportunistic
        //    draining when no reads are waiting.
        if !self.drain_mode && self.write_q.len() >= cfg.queues.write_high_watermark {
            self.drain_mode = true;
            stats.drain_entries += 1;
            let ch = self.index;
            o.obs.emit(|| TraceEvent::DrainEnter {
                cycle: now,
                channel: ch,
            });
        } else if self.drain_mode && self.write_q.len() <= cfg.queues.write_low_watermark {
            self.drain_mode = false;
        }

        // 2b. Age-based starvation escalation (recomputed every cycle so it
        //     clears as soon as the starved request retires).
        self.update_escalation(now, cfg);

        // 3. One command-bus slot per cycle, in priority order.
        if self.may_issue(cfg) && !self.refresh_commands(now, cfg, stats, energy, o)? {
            let _issued = self.issue_column(now, cfg, stats, energy, o, faults)?
                || self.issue_activate(now, cfg, stats, energy, o, faults)?
                || self.issue_precharge_for_pending(now, cfg, stats, energy, o)?
                || self.issue_idle_close(now, cfg, stats, energy, o)?;
        }

        // 4. Power-down entry for idle ranks (relaxed policy only; CKE is
        //    not a command-bus command).
        if matches!(cfg.policy, PagePolicy::RelaxedClosePage) {
            self.enter_power_down_where_idle(now, energy, o);
        }

        if now < self.bus.busy_until {
            stats.bus_busy_cycles += 1;
        }
        Ok(())
    }

    /// Whether any command pass could issue this cycle: work is queued, a
    /// rank owes a refresh, or (relaxed close-page) a bank is open for the
    /// idle close. Otherwise every pass would find nothing, so an idle
    /// channel skips them.
    fn may_issue(&self, cfg: &DramConfig) -> bool {
        !self.read_q.is_empty()
            || !self.write_q.is_empty()
            || (self.masks.open() != 0 && matches!(cfg.policy, PagePolicy::RelaxedClosePage))
            || self.ranks.iter().any(|rank| rank.refresh_debt > 0)
    }

    /// This cycle's readiness masks, derived on first use. Only the passes
    /// after the refresh pass, which can wake a rank, call it.
    fn ready(&mut self, now: u64, cfg: &DramConfig) -> Readiness {
        if self.ready.at != now {
            self.ready = self.readiness(now, cfg);
        }
        self.ready
    }

    /// The rank-level readiness masks at `now` (see [`Readiness`]).
    fn readiness(&self, now: u64, cfg: &DramConfig) -> Readiness {
        let (mut available, mut activate) = (0, 0);
        for (r, rank) in self.ranks.iter().enumerate() {
            let banks = self.masks.rank_bits(r);
            let up = now >= rank.available_at;
            available |= banks_if(up, banks);
            let act = up
                & matches!(rank.refresh, RefreshState::Idle)
                & (now >= rank.next_act_allowed_at)
                & !self.refresh_forced(r, cfg);
            activate |= banks_if(act, banks);
        }
        let t = &cfg.timing;
        let bus = |dir, lat| {
            available
                & self
                    .bus
                    .ready_banks(dir, now + lat, t.twtr, t.trtrs, &self.masks)
        };
        Readiness {
            at: now,
            available,
            column: [bus(Dir::Read, t.tcas), bus(Dir::Write, t.wl)],
            activate,
        }
    }

    /// The banks of `candidates` whose `fence` has passed at `now`.
    fn past(&self, candidates: u64, now: u64, fence: impl Fn(&Bank) -> u64) -> u64 {
        bits(candidates).fold(0, |mask, flat| {
            mask | banks_if(now >= fence(&self.banks[flat as usize]), 1 << flat)
        })
    }

    /// `banks` less those the recovery engine holds in a replay hold-off
    /// window at `now`.
    fn unblocked(&self, banks: u64, now: u64) -> u64 {
        let Some(rec) = &self.recovery else {
            return banks;
        };
        bits(banks)
            .filter(|&flat| {
                let (r, b) = self.masks.split(flat);
                !rec.is_blocked(now, r as u32, b as u32)
            })
            .fold(0, |mask, flat| mask | 1 << flat)
    }

    /// Precharges bank `flat` at `now` (explicit command or
    /// auto-precharge) and books it: bank masks, the rank's power state,
    /// the row's open cycles (with telemetry on), the command count, the
    /// trace and the protocol checker.
    fn close_bank(
        &mut self,
        flat: usize,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) -> Result<(), ProtocolError> {
        let (r, b) = self.masks.split(flat as u32);
        let open_cycles = self.banks[flat].precharge(now, &cfg.timing);
        self.masks.set_closed(r as u32, b as u32);
        if o.power_telemetry {
            energy.add_bank_open_cycles(self.rank_base() + r, b, open_cycles);
        }
        self.update_power_state(r, now, energy);
        stats.precharges += 1;
        let ch = self.index;
        o.obs.emit(|| TraceEvent::Precharge {
            cycle: now,
            channel: ch,
            rank: r as u8,
            bank: b as u8,
        });
        Self::verify_cmd(
            &mut self.checker,
            now,
            DramCommand::Precharge {
                rank: r as u32,
                bank: b as u32,
            },
        )
    }

    fn complete_transfers(
        &mut self,
        now: u64,
        stats: &mut DramStats,
        o: &mut DramObs,
        completed: &mut Vec<(RequestId, usize)>,
    ) {
        if now < self.next_transfer_done {
            return;
        }
        let ch = self.index;
        let mut i = 0;
        while i < self.inflight_reads.len() {
            if self.inflight_reads[i].done_at <= now {
                let fin = self.inflight_reads.swap_remove(i);
                let latency = fin.done_at - fin.enqueued_at;
                stats.reads_completed += 1;
                stats.read_latency_sum += latency;
                o.obs.registry.observe(o.read_latency, latency);
                o.obs.emit(|| TraceEvent::ReadComplete {
                    cycle: now,
                    channel: ch,
                    latency,
                });
                completed.push((fin.id, fin.core));
            } else {
                i += 1;
            }
        }
        let before = self.inflight_write_ends.len();
        self.inflight_write_ends.retain(|&end| end > now);
        stats.writes_completed += (before - self.inflight_write_ends.len()) as u64;
        self.next_transfer_done = self.earliest_transfer_done();
    }

    fn earliest_transfer_done(&self) -> u64 {
        let reads = self.inflight_reads.iter().map(|f| f.done_at);
        reads
            .chain(self.inflight_write_ends.iter().copied())
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Whether any queued request targets rank `r`.
    fn rank_has_queued_work(&self, r: usize) -> bool {
        self.masks.any_queued() & self.masks.rank_bits(r) != 0
    }

    /// Whether outstanding refresh debt must forcibly close rank `r` now
    /// (debt beyond the postpone allowance).
    fn refresh_forced(&self, r: usize, cfg: &DramConfig) -> bool {
        self.ranks[r].refresh_debt > cfg.refresh_postpone_max
    }

    /// Refresh handling. Debt beyond the postpone allowance forcibly closes
    /// the rank; smaller debt is repaid opportunistically whenever the rank
    /// has no queued work.
    fn refresh_commands(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) -> Result<bool, ProtocolError> {
        let ch = self.index;
        for r in 0..self.ranks.len() {
            if self.ranks[r].refresh_debt == 0
                || !matches!(self.ranks[r].refresh, RefreshState::Idle)
            {
                continue;
            }
            let forced = self.refresh_forced(r, cfg);
            let opportunistic = !forced && !self.rank_has_queued_work(r);
            if !forced && !opportunistic {
                continue;
            }
            if self.ranks[r].exit_power_down(now, &cfg.timing) {
                o.obs.emit(|| TraceEvent::PowerUp {
                    cycle: now,
                    channel: ch,
                    rank: r as u8,
                });
                self.update_power_state(r, now, energy);
            }
            if now < self.ranks[r].available_at {
                continue;
            }
            let banks = self.rank_banks(r);
            if self.ranks[r].ready_for_refresh(&self.banks[banks.clone()], now) {
                self.ranks[r].start_refresh(&mut self.banks[banks], now, &cfg.timing);
                self.update_power_state(r, now, energy);
                stats.refreshes += 1;
                energy.refresh();
                o.obs.emit(|| TraceEvent::Refresh {
                    cycle: now,
                    channel: ch,
                    rank: r as u8,
                });
                Self::verify_cmd(
                    &mut self.checker,
                    now,
                    DramCommand::Refresh { rank: r as u32 },
                )?;
                return Ok(true);
            }
            if forced {
                // Close one open bank whose precharge is legal.
                let closable = banks.clone().find(|&flat| {
                    let bank = &self.banks[flat];
                    bank.is_open() && now >= bank.ready_for_precharge_at
                });
                if let Some(flat) = closable {
                    self.close_bank(flat, now, cfg, stats, energy, o)?;
                    return Ok(true);
                }
            }
        }
        Ok(false)
    }

    /// The oldest entry across both queues, if any. Queues are
    /// order-preserving `Vec`s, so each queue's front is its oldest entry.
    fn oldest_entry(&self) -> Option<(bool, &QueueEntry)> {
        match (self.read_q.first(), self.write_q.first()) {
            (Some(r), Some(w)) => {
                if r.enqueued_at <= w.enqueued_at {
                    Some((false, r))
                } else {
                    Some((true, w))
                }
            }
            (Some(r), None) => Some((false, r)),
            (None, Some(w)) => Some((true, w)),
            (None, None) => None,
        }
    }

    /// The bank `loc` targets.
    fn bank(&self, loc: &Location) -> &Bank {
        &self.banks[self.masks.flat(loc.rank, loc.bank)]
    }

    /// Address/bank trail of the oldest queued request, for liveness
    /// diagnostics.
    pub(crate) fn oldest_trail(&self, channel: u32) -> Option<RequestTrail> {
        self.oldest_entry().map(|(is_write, e)| RequestTrail {
            channel,
            rank: e.loc.rank,
            bank: e.loc.bank,
            row: e.loc.row,
            addr: e.req.addr.raw(),
            is_write,
            enqueued_at: e.enqueued_at,
            open_row: self.bank(&e.loc).open.map(|o| o.row),
        })
    }

    /// Recomputes the escalation slot: the oldest queued request, when its
    /// age exceeds the configured bound. Cleared automatically once the
    /// request retires (it leaves its queue and a younger entry becomes the
    /// oldest).
    fn update_escalation(&mut self, now: u64, cfg: &DramConfig) {
        self.escalated = None;
        let bound = cfg.starvation_escalation_age;
        if bound == 0 {
            return;
        }
        if let Some((is_write, e)) = self.oldest_entry() {
            if now.saturating_sub(e.enqueued_at) > bound {
                self.escalated = Some((is_write, e.loc));
            }
        }
    }

    /// Queue the scheduler currently serves: writes in drain mode or when no
    /// reads wait; reads otherwise. An escalated (starved) request overrides
    /// both rules: its queue stays active until it retires.
    fn active_is_write(&self) -> bool {
        if let Some((is_write, _)) = self.escalated {
            return is_write;
        }
        self.drain_mode || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    fn active_queue(&self, is_write: bool) -> &[QueueEntry] {
        if is_write {
            &self.write_q
        } else {
            &self.read_q
        }
    }

    /// Whether another request in the *currently served* queue waits for
    /// `bank` with a different row (drives the row-hit fairness cap). Only
    /// the active queue counts: a conflict that cannot be scheduled this
    /// phase must not be able to stall the bank forever.
    fn conflict_waiting(&self, loc: &Location, open_row: u32, in_writes: bool) -> bool {
        self.active_queue(in_writes)
            .iter()
            .any(|e| e.loc.rank == loc.rank && e.loc.bank == loc.bank && e.loc.row != open_row)
    }

    /// FR-FCFS step one: serve the oldest request that hits an open row —
    /// from the active queue first, then opportunistically from the other
    /// queue (a row already open for a drained write is cheapest to finish
    /// now rather than re-activate later).
    fn issue_column(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
        faults: &mut Option<FaultInjector>,
    ) -> Result<bool, ProtocolError> {
        let active_is_write = self.active_is_write();
        Ok(
            self.issue_column_from(now, cfg, stats, energy, o, faults, active_is_write)?
                || self.issue_column_from(now, cfg, stats, energy, o, faults, !active_is_write)?,
        )
    }

    #[expect(
        clippy::too_many_arguments,
        reason = "one scheduler step threads the channel's shared cycle state through"
    )]
    fn issue_column_from(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
        faults: &mut Option<FaultInjector>,
        is_write: bool,
    ) -> Result<bool, ProtocolError> {
        if now < self.next_col_allowed || self.masks.hits(is_write) == 0 {
            return Ok(false);
        }
        // Banks that could take a column command at all: open, with work in
        // this queue on the open row, on an available rank whose data burst
        // would find the bus free, past tRCD, and not held for a replay.
        let candidates =
            self.masks.hits(is_write) & self.ready(now, cfg).column[usize::from(is_write)];
        let ready = self.unblocked(
            self.past(candidates, now, |bank| bank.ready_for_column_at),
            now,
        );
        if ready == 0 {
            return Ok(false);
        }
        let burst = cfg
            .timing
            .burst_cycles
            .saturating_mul(cfg.scheme.burst_multiplier);
        let queue = self.active_queue(is_write);
        let mut chosen: Option<usize> = None;
        for i in self.masks.entries_in(is_write, ready) {
            let entry = &queue[i];
            let Some(open) = self.bank(&entry.loc).open else {
                continue;
            };
            if open.row != entry.loc.row {
                continue;
            }
            let covered = if is_write {
                entry.req.mask.is_subset_of(open.coverage)
            } else {
                open.coverage.is_full()
            };
            if !covered {
                continue;
            }
            if open.hits_served >= cfg.row_hit_cap
                && self.conflict_waiting(&entry.loc, open.row, is_write)
            {
                continue; // fairness cap: let the precharge path reclaim the bank
            }
            // Escalation: a starved request owns its bank — stop feeding it
            // row hits (from either queue) so the precharge path can reclaim
            // it. The row-hit cap alone cannot guarantee this because its
            // conflict check only sees the active queue.
            if let Some((_, starved)) = self.escalated {
                if starved.rank == entry.loc.rank
                    && starved.bank == entry.loc.bank
                    && starved.row != open.row
                {
                    continue;
                }
            }
            chosen = Some(i);
            break;
        }
        let Some(i) = chosen else { return Ok(false) };
        let fault_loc = self.active_queue(is_write)[i].loc;
        // Injected bus fault: the command is lost. The queue entry survives
        // and retries on a later cycle; the command-bus slot is consumed.
        if let Some(inj) = faults.as_mut() {
            if inj.drop_command() {
                if self.recovery.is_some() {
                    // C/A parity catches the loss: the DRAM blocks the
                    // command and asserts ALERT_n after the alert latency.
                    // Exhausted budgets fall back to a plain reschedule —
                    // the entry stays queued either way.
                    inj.record_fault_detected();
                    let _ = self.recover_detected_fault(now, fault_loc, o);
                }
                return Ok(true);
            }
        }
        let mut entry = if is_write {
            self.write_q.remove(i)
        } else {
            self.read_q.remove(i)
        };
        self.masks.remove(is_write, i);
        let bank = &mut self.banks[self.masks.flat(entry.loc.rank, entry.loc.bank)];
        if !entry.classified {
            entry.classified = true;
            if is_write {
                stats.write.hits += 1;
            } else {
                stats.read.hits += 1;
            }
        }
        let ch = self.index;
        let loc = entry.loc;
        if is_write {
            let end = bank.column_write(now, burst, &cfg.timing);
            self.bus
                .reserve(now + cfg.timing.wl, end, Dir::Write, entry.loc.rank);
            energy.write_line(cfg.scheme.write_io_fraction(entry.req.mask));
            self.inflight_write_ends.push(end);
            self.next_transfer_done = self.next_transfer_done.min(end);
            o.obs.emit(|| TraceEvent::Write {
                cycle: now,
                channel: ch,
                rank: loc.rank as u8,
                bank: loc.bank as u8,
                row: loc.row,
            });
            Self::verify_cmd(
                &mut self.checker,
                now,
                DramCommand::Write {
                    rank: entry.loc.rank,
                    bank: entry.loc.bank,
                },
            )?;
        } else {
            let end = bank.column_read(now, burst, &cfg.timing);
            self.bus
                .reserve(now + cfg.timing.tcas, end, Dir::Read, entry.loc.rank);
            energy.read_line();
            self.inflight_reads.push(InflightRead {
                id: entry.req.id,
                core: entry.req.core,
                done_at: end,
                enqueued_at: entry.enqueued_at,
            });
            self.next_transfer_done = self.next_transfer_done.min(end);
            o.obs.emit(|| TraceEvent::Read {
                cycle: now,
                channel: ch,
                rank: loc.rank as u8,
                bank: loc.bank as u8,
                row: loc.row,
            });
            Self::verify_cmd(
                &mut self.checker,
                now,
                DramCommand::Read {
                    rank: entry.loc.rank,
                    bank: entry.loc.bank,
                },
            )?;
        }
        // The data bus moved: this cycle's readiness masks no longer hold.
        self.ready.at = u64::MAX;
        if matches!(cfg.policy, PagePolicy::RestrictedClosePage) {
            self.banks[self.masks.flat(loc.rank, loc.bank)].arm_auto_precharge();
            self.masks.set_armed(loc.rank, loc.bank);
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.on_success(loc.rank, loc.bank, loc.row);
        }
        self.next_col_allowed = now + cfg.timing.tccd.max(burst);
        Ok(true)
    }

    /// The PRA mask for activating `loc.row` for queued writes — the OR of
    /// all queued same-row write masks, widened to full if any queued read
    /// also wants the row — and the row's queued read and write counts
    /// (see [`BankMasks::row_hits`]), from one pass over each queue.
    fn gather_write_mask(&self, loc: &Location) -> (WordMask, [u32; 2]) {
        let reads = self.masks.entries_on_row(false, loc).count() as u32;
        let (mask, writes) = self
            .masks
            .entries_on_row(true, loc)
            .fold((WordMask::EMPTY, 0), |(m, n), i| {
                (m | self.write_q[i].req.mask, n + 1)
            });
        let mask = if reads > 0 { WordMask::FULL } else { mask };
        (mask, [reads, writes])
    }

    /// FR-FCFS step two: activate for the oldest request whose bank is closed.
    fn issue_activate(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
        faults: &mut Option<FaultInjector>,
    ) -> Result<bool, ProtocolError> {
        let is_write = self.active_is_write();
        // Banks that could take an activate at all: closed, with work in the
        // active queue, on a refresh-idle, unforced rank past its
        // availability and tRRD fences, past tRP, and not held for a replay.
        let closed = self.masks.queued(is_write) & !self.masks.open();
        if closed == 0 {
            return Ok(false);
        }
        let candidates = closed & self.ready(now, cfg).activate;
        let ready = self.unblocked(
            self.past(candidates, now, |bank| bank.ready_for_activate_at),
            now,
        );
        if ready == 0 {
            return Ok(false);
        }
        let queue = if is_write {
            &self.write_q
        } else {
            &self.read_q
        };
        let mut chosen: Option<(usize, WordMask, u32, Option<[u32; 2]>)> = None;
        self.tried.clear();
        for i in self.masks.entries_in(is_write, ready) {
            // Entries on one (bank, row) share the activation mask and so
            // the verdict below: try each target once.
            let key = self.masks.key_at(is_write, i);
            if self.tried.contains(&key) {
                continue;
            }
            self.tried.push(key);
            let entry = &queue[i];
            let rank = &self.ranks[entry.loc.rank as usize];
            let (coverage, mats, hits) = if is_write {
                let (mask, hits) = self.gather_write_mask(&entry.loc);
                debug_assert!(!mask.is_empty());
                let mats = cfg.scheme.write_act_mats(mask);
                if mask.is_full() {
                    // Covers queued reads too; activate at read granularity.
                    let mats = cfg.scheme.read_act_mats.max(mats);
                    (WordMask::FULL, mats, Some(hits))
                } else {
                    (cfg.scheme.write_coverage(mask), mats, Some(hits))
                }
            } else {
                (WordMask::FULL, cfg.scheme.read_act_mats, None)
            };
            let weight = cfg.scheme.act_timing_weight(mats);
            if !rank.can_activate(now, weight, &cfg.timing) {
                continue;
            }
            chosen = Some((i, coverage, mats, hits));
            break;
        }
        let Some((i, mut coverage, mut mats, hits)) = chosen else {
            return Ok(false);
        };
        let loc = self.active_queue(is_write)[i].loc;
        let full_mats = cfg
            .scheme
            .read_act_mats
            .max(cfg.scheme.write_act_mats(WordMask::FULL));
        // Health scoreboard: a demoted row must open the full row (a
        // full-row ACT carries no mask, so there is nothing left to
        // corrupt); an elapsed probation re-promotes the row.
        if !coverage.is_full() && self.recovery.is_some() {
            let standing = self.recovery.as_mut().map_or(RowStanding::Healthy, |rec| {
                rec.row_standing(now, loc.rank, loc.bank, loc.row)
            });
            match standing {
                RowStanding::Demoted => {
                    coverage = WordMask::FULL;
                    mats = full_mats;
                    // The wider activation carries more timing weight; if
                    // it is no longer legal this cycle, give the slot up
                    // and retry.
                    let weight = cfg.scheme.act_timing_weight(mats);
                    if !self.ranks[loc.rank as usize].can_activate(now, weight, &cfg.timing) {
                        return Ok(true);
                    }
                }
                RowStanding::Promoted => {
                    let ch = self.index;
                    o.obs.emit(|| TraceEvent::RowPromote {
                        cycle: now,
                        channel: ch,
                        rank: loc.rank as u8,
                        bank: loc.bank as u8,
                        row: loc.row,
                    });
                }
                RowStanding::Healthy => {}
            }
        }
        // The mask-transfer cycle is paid for the coverage the controller
        // *sent*, before any fault handling — a corrupted transfer still
        // cost its cycle.
        let extra_base = cfg.scheme.act_extra_cycles(coverage);
        if let Some(inj) = faults.as_mut() {
            // Injected bus fault: the ACT is lost; retry on a later cycle.
            if inj.drop_command() {
                if self.recovery.is_some() {
                    // Detected by C/A parity: replay after the alert window
                    // (exhausted budgets reschedule like the legacy path).
                    inj.record_fault_detected();
                    let _ = self.recover_detected_fault(now, loc, o);
                }
                return Ok(true);
            }
            // Injected mask-transfer upset (partial activations only — a
            // full-row ACT carries no mask). A single-bit flip trips the
            // chip's parity check; an even number of flips escapes it.
            if !coverage.is_full() {
                let site = FaultSite {
                    rank: loc.rank,
                    bank: loc.bank,
                    row: loc.row,
                };
                if let Some(fault) = inj.corrupt_mask_at(site, coverage) {
                    if fault.escaped {
                        // Parity still matches: the chip cannot detect the
                        // upset and activates with silently wrong coverage.
                        // (An empty corrupted mask cannot activate at all;
                        // keep the sent coverage but still count the escape.)
                        stats.parity_escapes += 1;
                        let ch = self.index;
                        o.obs.emit(|| TraceEvent::ParityEscape {
                            cycle: now,
                            channel: ch,
                            rank: loc.rank as u8,
                            bank: loc.bank as u8,
                            row: loc.row,
                        });
                        if !fault.mask.is_empty() {
                            coverage = fault.mask;
                            mats = cfg.scheme.write_act_mats(fault.mask);
                            let weight = cfg.scheme.act_timing_weight(mats);
                            if !self.ranks[loc.rank as usize].can_activate(now, weight, &cfg.timing)
                            {
                                return Ok(true);
                            }
                        }
                    } else if self.recovery.is_some() {
                        // Detected: the chip blocks the ACT and alerts. The
                        // engine either schedules a replay (the entry stays
                        // queued and the bank is held) or declares the
                        // budget exhausted.
                        inj.record_fault_detected();
                        if self.recover_detected_fault(now, loc, o) {
                            return Ok(true);
                        }
                        // Terminal fallback: a fail-safe full-row ACT now,
                        // and a scoreboard demotion so later activations of
                        // this row skip the mask transfer entirely.
                        inj.record_fault_degraded();
                        stats.degraded_activations += 1;
                        if let Some(rec) = self.recovery.as_mut() {
                            rec.demote_row(now, loc.rank, loc.bank, loc.row);
                        }
                        let ch = self.index;
                        o.obs.emit(|| TraceEvent::RowDemote {
                            cycle: now,
                            channel: ch,
                            rank: loc.rank as u8,
                            bank: loc.bank as u8,
                            row: loc.row,
                        });
                        coverage = WordMask::FULL;
                        mats = full_mats;
                        let weight = cfg.scheme.act_timing_weight(mats);
                        if !self.ranks[loc.rank as usize].can_activate(now, weight, &cfg.timing) {
                            return Ok(true);
                        }
                    } else {
                        // Legacy pipeline (recovery off): the parity check
                        // catches the flip and the controller degrades to a
                        // fail-safe full-row activation immediately rather
                        // than trusting either mask (see
                        // core::pra::MaskTransfer for the chip-side model).
                        inj.record_mask_fault_handled();
                        stats.degraded_activations += 1;
                        coverage = WordMask::FULL;
                        mats = full_mats;
                        let weight = cfg.scheme.act_timing_weight(mats);
                        if !self.ranks[loc.rank as usize].can_activate(now, weight, &cfg.timing) {
                            return Ok(true);
                        }
                    }
                }
            }
        }
        let queue = if is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        let entry = &mut queue[i];
        if !entry.classified {
            entry.classified = true;
            if is_write {
                stats.write.misses += 1;
            } else {
                stats.read.misses += 1;
            }
        }
        let stretch = faults.as_mut().map_or(0, FaultInjector::stretch_command);
        let extra = extra_base + stretch;
        let weight = cfg.scheme.act_timing_weight(mats);
        let r = loc.rank as usize;
        self.banks[self.masks.flat(loc.rank, loc.bank)].activate(
            now,
            loc.row,
            coverage,
            mats,
            extra,
            &cfg.timing,
        );
        let hits = hits.unwrap_or_else(|| self.masks.row_hits(&loc));
        self.masks.set_open(&loc, hits);
        self.ranks[r].record_activation(now, weight, cfg.scheme.relaxed_act_timing, &cfg.timing);
        // The tRRD fence moved: this cycle's readiness masks no longer hold.
        self.ready.at = u64::MAX;
        self.update_power_state(r, now, energy);
        stats.record_activation(mats, !is_write);
        energy.activation_mats(mats);
        o.obs.registry.observe(o.act_mats, mats as u64);
        let ch = self.index;
        o.obs.emit(|| TraceEvent::Activate {
            cycle: now,
            channel: ch,
            rank: loc.rank as u8,
            bank: loc.bank as u8,
            row: loc.row,
            mats,
            mask: coverage.bits(),
        });
        Self::verify_cmd(
            &mut self.checker,
            now,
            DramCommand::Activate {
                rank: loc.rank,
                bank: loc.bank,
                row: loc.row,
                mats,
                extra_cycles: extra,
            },
        )?;
        if let Some(rec) = self.recovery.as_mut() {
            rec.on_success(loc.rank, loc.bank, loc.row);
        }
        Ok(true)
    }

    /// FR-FCFS step three: precharge a bank blocking the oldest conflicting
    /// or falsely-hitting request.
    fn issue_precharge_for_pending(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) -> Result<bool, ProtocolError> {
        let is_write = self.active_is_write();
        // Banks that could take a precharge at all: open, with work in the
        // active queue, on an available rank, past tRAS/tWR/tRTP.
        let open = self.masks.open() & self.masks.queued(is_write);
        if open == 0 {
            return Ok(false);
        }
        let candidates = open & self.ready(now, cfg).available;
        let ready = self.past(candidates, now, |bank| bank.ready_for_precharge_at);
        if ready == 0 {
            return Ok(false);
        }
        let queue = self.active_queue(is_write);
        let mut chosen: Option<(usize, bool, bool)> = None; // (idx, false_hit, capped)
        for i in self.masks.entries_in(is_write, ready) {
            let entry = &queue[i];
            let Some(open) = self.bank(&entry.loc).open else {
                continue;
            };
            if open.row != entry.loc.row {
                chosen = Some((i, false, open.hits_served >= cfg.row_hit_cap));
                break;
            }
            // Same row: a precharge is only warranted on insufficient
            // coverage (a PRA false row-buffer hit).
            let covered = if is_write {
                entry.req.mask.is_subset_of(open.coverage)
            } else {
                open.coverage.is_full()
            };
            if !covered {
                chosen = Some((i, true, false));
                break;
            }
        }
        let Some((i, false_hit, capped)) = chosen else {
            return Ok(false);
        };
        let queue = if is_write {
            &mut self.write_q
        } else {
            &mut self.read_q
        };
        let entry = &mut queue[i];
        if !entry.classified {
            entry.classified = true;
            let counters = if is_write {
                &mut stats.write
            } else {
                &mut stats.read
            };
            counters.misses += 1;
            if false_hit {
                counters.false_hits += 1;
            }
        }
        if capped {
            stats.hit_cap_precharges += 1;
        }
        let flat = self.masks.flat(entry.loc.rank, entry.loc.bank);
        self.close_bank(flat, now, cfg, stats, energy, o)?;
        Ok(true)
    }

    /// Relaxed close-page: close rows no queued request can still hit.
    fn issue_idle_close(
        &mut self,
        now: u64,
        cfg: &DramConfig,
        stats: &mut DramStats,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) -> Result<bool, ProtocolError> {
        if !matches!(cfg.policy, PagePolicy::RelaxedClosePage) {
            return Ok(false);
        }
        // The first open bank in (rank, bank) order whose open row no queued
        // entry wants and whose precharge is legal.
        let unwanted = self.masks.open() & !self.masks.any_hits();
        if unwanted == 0 {
            return Ok(false);
        }
        let candidates = unwanted & self.ready(now, cfg).available;
        let ready = self.past(candidates, now, |bank| bank.ready_for_precharge_at);
        let Some(flat) = bits(ready).next() else {
            return Ok(false);
        };
        self.close_bank(flat as usize, now, cfg, stats, energy, o)?;
        Ok(true)
    }

    fn enter_power_down_where_idle(
        &mut self,
        now: u64,
        energy: &mut EnergyAccounting,
        o: &mut DramObs,
    ) {
        let ch = self.index;
        // A rank with an open bank or queued work stays up.
        let busy = self.masks.open() | self.masks.any_queued();
        for r in 0..self.ranks.len() {
            let rank = &self.ranks[r];
            if rank.powered_down
                || busy & self.masks.rank_bits(r) != 0
                || !matches!(rank.refresh, RefreshState::Idle)
                || rank.refresh_debt > 0
            {
                continue;
            }
            self.ranks[r].enter_power_down();
            self.update_power_state(r, now, energy);
            o.obs.emit(|| TraceEvent::PowerDown {
                cycle: now,
                channel: ch,
                rank: r as u8,
            });
        }
    }

    /// Whether every cache this channel keeps equals a fresh rebuild from
    /// the state it caches, right after the tick of cycle `now`: the
    /// bitmasks, the earliest transfer end, the readiness masks (unless a
    /// command of that tick moved their inputs, or the tick derived none)
    /// and each rank's state in `energy`'s pending background run.
    #[cfg(test)]
    pub(crate) fn caches_consistent(
        &self,
        now: u64,
        cfg: &DramConfig,
        energy: &EnergyAccounting,
    ) -> bool {
        let open = self.masks.open();
        let power_states = (0..self.ranks.len()).all(|r| {
            let state = self.ranks[r].power_state(self.masks.rank_field(open, r) != 0);
            energy.rank_state(self.rank_base() + r) == state
        });
        self.masks == BankMasks::rebuild(self.ranks.len(), &self.banks, &self.read_q, &self.write_q)
            && self.next_transfer_done == self.earliest_transfer_done()
            && (self.ready.at != now || self.ready == self.readiness(now, cfg))
            && power_states
    }
}

fn save_queue_entry(w: &mut sim_snap::SnapWriter, e: &QueueEntry) {
    w.u64(e.req.id);
    w.bool(e.req.kind.is_read());
    w.u64(e.req.addr.raw());
    w.u8(e.req.mask.bits());
    w.usize(e.req.core);
    w.u32(e.loc.channel);
    w.u32(e.loc.rank);
    w.u32(e.loc.bank);
    w.u32(e.loc.row);
    w.u32(e.loc.column);
    w.u64(e.enqueued_at);
    w.bool(e.classified);
}

fn load_queue_entry(r: &mut sim_snap::SnapReader<'_>) -> Result<QueueEntry, sim_snap::SnapError> {
    let id = r.u64()?;
    let is_read = r.bool()?;
    let addr = mem_model::PhysAddr::new(r.u64()?);
    let mask = WordMask::from_bits(r.u8()?);
    let core = r.usize()?;
    let req = MemRequest {
        id,
        kind: if is_read {
            ReqKind::Read
        } else {
            ReqKind::Write
        },
        addr,
        mask,
        core,
    };
    let loc = Location {
        channel: r.u32()?,
        rank: r.u32()?,
        bank: r.u32()?,
        row: r.u32()?,
        column: r.u32()?,
    };
    Ok(QueueEntry {
        req,
        loc,
        enqueued_at: r.u64()?,
        classified: r.bool()?,
    })
}

impl sim_snap::SnapState for Channel {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("channel");
        w.seq(self.ranks.len());
        for rank in &self.ranks {
            rank.snap_save(w);
        }
        w.seq(self.banks.len());
        for bank in &self.banks {
            bank.snap_save(w);
        }
        w.seq(self.read_q.len());
        for e in &self.read_q {
            save_queue_entry(w, e);
        }
        w.seq(self.write_q.len());
        for e in &self.write_q {
            save_queue_entry(w, e);
        }
        w.seq(self.inflight_reads.len());
        for f in &self.inflight_reads {
            w.u64(f.id);
            w.usize(f.core);
            w.u64(f.done_at);
            w.u64(f.enqueued_at);
        }
        w.seq(self.inflight_write_ends.len());
        for &end in &self.inflight_write_ends {
            w.u64(end);
        }
        w.bool(self.drain_mode);
        w.u64(self.bus.busy_until);
        w.u8(match self.bus.last_dir {
            None => 0,
            Some(Dir::Read) => 1,
            Some(Dir::Write) => 2,
        });
        w.bool(self.bus.last_rank.is_some());
        if let Some(rank) = self.bus.last_rank {
            w.u32(rank);
        }
        w.u64(self.next_col_allowed);
        // `escalated` and `ready` are recomputed in every tick before any
        // scheduling decision reads them, and `masks` is rebuilt on load
        // from the banks and queues, so none of them is serialized.
        w.bool(self.checker.is_some());
        if let Some(checker) = &self.checker {
            checker.snap_save(w);
        }
        w.bool(self.recovery.is_some());
        if let Some(rec) = &self.recovery {
            rec.snap_save(w);
        }
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("channel")?;
        let ranks = r.seq()?;
        if ranks != self.ranks.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "channel rank count mismatch: snapshot has {ranks}, config has {}",
                self.ranks.len()
            )));
        }
        for rank in &mut self.ranks {
            rank.snap_load(r)?;
        }
        let banks = r.seq()?;
        if banks != self.banks.len() {
            return Err(sim_snap::SnapError::Decode(format!(
                "channel bank count mismatch: snapshot has {banks}, config has {}",
                self.banks.len()
            )));
        }
        for bank in &mut self.banks {
            bank.snap_load(r)?;
        }
        let reads = r.seq()?;
        self.read_q.clear();
        for _ in 0..reads {
            let e = load_queue_entry(r)?;
            self.read_q.push(e);
        }
        let writes = r.seq()?;
        self.write_q.clear();
        for _ in 0..writes {
            let e = load_queue_entry(r)?;
            self.write_q.push(e);
        }
        let inflight = r.seq()?;
        self.inflight_reads.clear();
        for _ in 0..inflight {
            self.inflight_reads.push(InflightRead {
                id: r.u64()?,
                core: r.usize()?,
                done_at: r.u64()?,
                enqueued_at: r.u64()?,
            });
        }
        let wends = r.seq()?;
        self.inflight_write_ends.clear();
        for _ in 0..wends {
            let end = r.u64()?;
            self.inflight_write_ends.push(end);
        }
        self.next_transfer_done = self.earliest_transfer_done();
        self.drain_mode = r.bool()?;
        self.bus.busy_until = r.u64()?;
        self.bus.last_dir = match r.u8()? {
            0 => None,
            1 => Some(Dir::Read),
            2 => Some(Dir::Write),
            tag => {
                return Err(sim_snap::SnapError::Decode(format!(
                    "unknown data-bus direction tag {tag}"
                )))
            }
        };
        self.bus.last_rank = if r.bool()? { Some(r.u32()?) } else { None };
        self.next_col_allowed = r.u64()?;
        self.escalated = None;
        self.ready = Readiness::STALE;
        self.masks = BankMasks::rebuild(self.ranks.len(), &self.banks, &self.read_q, &self.write_q);
        let has_checker = r.bool()?;
        if has_checker != self.checker.is_some() {
            return Err(sim_snap::SnapError::Decode(format!(
                "protocol-checker presence mismatch: snapshot has {has_checker}, config has {}",
                self.checker.is_some()
            )));
        }
        if let Some(checker) = self.checker.as_mut() {
            checker.snap_load(r)?;
        }
        let has_recovery = r.bool()?;
        if has_recovery != self.recovery.is_some() {
            return Err(sim_snap::SnapError::Decode(format!(
                "recovery-engine presence mismatch: snapshot has {has_recovery}, config has {}",
                self.recovery.is_some()
            )));
        }
        if let Some(rec) = self.recovery.as_mut() {
            rec.snap_load(r)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_ready_banks_match_earliest_start_per_rank() {
        let masks = BankMasks::new(4, 8);
        let (turnaround, rank_switch) = (6, 2);
        for last_dir in [None, Some(Dir::Read), Some(Dir::Write)] {
            for last_rank in [None, Some(0), Some(3)] {
                let bus = DataBus {
                    busy_until: 100,
                    last_dir,
                    last_rank,
                };
                for dir in [Dir::Read, Dir::Write] {
                    for by in 95..115 {
                        let expected = (0..4u32)
                            .filter(|&r| by >= bus.earliest_start(dir, r, turnaround, rank_switch))
                            .fold(0, |m, r| m | masks.rank_bits(r as usize));
                        let ready = bus.ready_banks(dir, by, turnaround, rank_switch, &masks);
                        // Four ranks of eight banks use the low 32 bits.
                        assert_eq!(
                            ready & (u64::MAX >> 32),
                            expected,
                            "{last_dir:?} {last_rank:?} {dir:?} by {by}"
                        );
                    }
                }
            }
        }
    }
}
