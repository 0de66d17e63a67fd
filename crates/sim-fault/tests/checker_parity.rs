//! Differential test: the scheduler and the protocol checker each enforce
//! every `TimingParams` field, checked one side at a time.
//!
//! * Scheduler side: with one field tripled in `DramConfig::timing` (and
//!   the fields `TimingParams::validate` ties to it raised to match), a
//!   stress run under the protocol checker stays clean. The checker is
//!   built from the same timing, so a scheduler fence that ignored the
//!   field would issue commands the checker rejects.
//! * Checker side: a nominal stress run's command stream, read back from
//!   its trace, replays clean into a checker built with nominal timing and
//!   is flagged by one built with the field tripled. A checker rule that
//!   ignored the field would let the stream through.
//!
//! Both sides run under `Baseline` and under `Pra`, whose partial
//! activations pay the mask-transfer cycle and count against tRRD/tFAW by
//! their weight; under `Pra` the mask-transfer cycle is tripled the same
//! way. The fields the checker legitimately ignores are listed with the
//! reason; their tripled replay must stay clean, so the list cannot go
//! stale.

use std::cell::RefCell;
use std::rc::Rc;

use dram_sim::{
    DramCommand, DramConfig, MemorySystem, PagePolicy, ProtocolChecker, ProtocolError,
    SchemeBehavior, TimingParams,
};
use mem_model::{MemRequest, PhysAddr, WordMask};
use sim_obs::{RingSink, TraceEvent};

/// Fields only the scheduler enforces, and why the checker need not.
const ONE_SIDED: [(&str, &str); 3] = [
    (
        "trc",
        "a derived band (tRC = tRAS + tRP) that TimingParams::validate holds; \
         the checker enforces tRAS and tRP individually",
    ),
    (
        "txp",
        "CKE is a dedicated pin, not a command-bus command; the scheduler folds \
         tXP into rank availability, which the per-command rules then cover",
    ),
    (
        "trefi",
        "refresh scheduling policy (when to refresh), not per-command legality; \
         the checker verifies tRFC around each REF it sees",
    ),
];

const REQUESTS: u64 = 2_000;

/// Every `TimingParams` field by name. The pattern has no `..`, so a new
/// field does not compile until it is listed here.
fn fields(t: &mut TimingParams) -> [(&'static str, &mut u64); 17] {
    let TimingParams {
        trcd,
        trp,
        tcas,
        wl,
        tras,
        twr,
        tccd,
        trrd,
        tfaw,
        trc,
        trtp,
        twtr,
        txp,
        trtrs,
        trefi,
        trfc,
        burst_cycles,
    } = t;
    [
        ("trcd", trcd),
        ("trp", trp),
        ("tcas", tcas),
        ("wl", wl),
        ("tras", tras),
        ("twr", twr),
        ("tccd", tccd),
        ("trrd", trrd),
        ("tfaw", tfaw),
        ("trc", trc),
        ("trtp", trtp),
        ("twtr", twtr),
        ("txp", txp),
        ("trtrs", trtrs),
        ("trefi", trefi),
        ("trfc", trfc),
        ("burst_cycles", burst_cycles),
    ]
}

/// Nominal DDR3-1600 timing with field `index` tripled; returns its name.
fn tripled(index: usize) -> (&'static str, TimingParams) {
    let mut t = TimingParams::ddr3_1600_table3();
    let (name, value) = fields(&mut t).into_iter().nth(index).expect("a field");
    *value *= 3;
    (name, t)
}

/// `t` with the fields `validate` ties together raised to match.
fn consistent(mut t: TimingParams) -> TimingParams {
    t.tras = t.tras.max(t.trcd + t.tcas);
    t.trc = t.tras + t.trp;
    t.tfaw = t.tfaw.max(t.trrd);
    t
}

fn schemes() -> [SchemeBehavior; 2] {
    [SchemeBehavior::baseline(), SchemeBehavior::pra()]
}

/// `scheme` with PRA's mask-transfer cycle tripled.
fn slow_mask_transfer(mut scheme: SchemeBehavior) -> SchemeBehavior {
    scheme.partial_act_extra_cycles *= 3;
    scheme
}

fn config(scheme: SchemeBehavior, timing: TimingParams) -> DramConfig {
    let mut cfg = DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, scheme);
    cfg.timing = timing;
    cfg.verify_protocol = true;
    cfg
}

/// Deterministic xorshift, so the stress mix needs no external RNG.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

/// A bursty mix of reads and partial-mask writes over hot rows and cold
/// lines, under the protocol checker; returns the run's trace.
fn stress(cfg: DramConfig) -> Result<Vec<TraceEvent>, String> {
    let mut mem = MemorySystem::try_new(cfg).map_err(|e| e.to_string())?;
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 17)));
    mem.set_trace_sink(Box::new(Rc::clone(&ring)));
    let mut rng = Rng(0x5eed_0001);
    let mut issued = 0u64;
    while issued < REQUESTS {
        for _ in 0..rng.next() % 4 {
            let r = rng.next();
            let line = if r.is_multiple_of(5) {
                r % 512
            } else {
                r % (1 << 24)
            };
            let addr = PhysAddr::from_line_number(line);
            let req = if r.is_multiple_of(3) {
                MemRequest::write(issued, addr, WordMask::from_bits(((r >> 8) as u8).max(1)))
            } else {
                MemRequest::read(issued, addr)
            };
            if mem.try_enqueue(req).is_ok() {
                issued += 1;
            }
        }
        let idle = if rng.next().is_multiple_of(7) {
            rng.next() % 64
        } else {
            1
        };
        for _ in 0..idle {
            mem.try_tick().map_err(|e| e.to_string())?;
        }
    }
    if !mem
        .try_run_until_idle(1_000_000)
        .map_err(|e| e.to_string())?
    {
        return Err("the stress run did not drain".into());
    }
    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "the ring keeps the whole run");
    Ok(ring.events().copied().collect())
}

/// Replays the DRAM commands in `trace` into one checker per channel built
/// for `scheme` with `timing`; returns how many commands it checked.
fn replay(
    trace: &[TraceEvent],
    scheme: SchemeBehavior,
    timing: TimingParams,
) -> Result<u64, ProtocolError> {
    let geometry = config(scheme, timing).geometry;
    let mut checkers: Vec<ProtocolChecker> = (0..geometry.channels)
        .map(|_| {
            ProtocolChecker::new(
                timing,
                geometry.ranks_per_channel,
                geometry.banks_per_rank,
                scheme.relaxed_act_timing,
                timing.burst_cycles * scheme.burst_multiplier,
            )
        })
        .collect();
    for event in trace {
        let (channel, cycle, command) = match *event {
            TraceEvent::Activate {
                cycle,
                channel,
                rank,
                bank,
                row,
                mats,
                mask,
            } => (
                channel,
                cycle,
                DramCommand::Activate {
                    rank: rank.into(),
                    bank: bank.into(),
                    row,
                    mats,
                    extra_cycles: scheme.act_extra_cycles(WordMask::from_bits(mask)),
                },
            ),
            TraceEvent::Read {
                cycle,
                channel,
                rank,
                bank,
                ..
            } => (
                channel,
                cycle,
                DramCommand::Read {
                    rank: rank.into(),
                    bank: bank.into(),
                },
            ),
            TraceEvent::Write {
                cycle,
                channel,
                rank,
                bank,
                ..
            } => (
                channel,
                cycle,
                DramCommand::Write {
                    rank: rank.into(),
                    bank: bank.into(),
                },
            ),
            TraceEvent::Precharge {
                cycle,
                channel,
                rank,
                bank,
            } => (
                channel,
                cycle,
                DramCommand::Precharge {
                    rank: rank.into(),
                    bank: bank.into(),
                },
            ),
            TraceEvent::Refresh {
                cycle,
                channel,
                rank,
            } => (channel, cycle, DramCommand::Refresh { rank: rank.into() }),
            _ => continue,
        };
        checkers[usize::from(channel)].observe(cycle, command)?;
    }
    Ok(checkers.iter().map(ProtocolChecker::commands_checked).sum())
}

#[test]
fn the_scheduler_honours_every_timing_field() {
    let mut problems = Vec::new();
    for scheme in schemes() {
        for index in 0..17 {
            let (name, timing) = tripled(index);
            if let Err(e) = stress(config(scheme, consistent(timing))) {
                problems.push(format!("{}: {name} tripled: {e}", scheme.name));
            }
        }
        if let Err(e) = stress(config(slow_mask_transfer(scheme), TimingParams::default())) {
            problems.push(format!("{}: mask-transfer cycle tripled: {e}", scheme.name));
        }
    }
    assert!(
        problems.is_empty(),
        "the scheduler ignores timing the checker enforces:\n  {}",
        problems.join("\n  ")
    );
}

#[test]
fn the_checker_enforces_every_two_sided_timing_field() {
    let mut problems = Vec::new();
    for scheme in schemes() {
        let nominal = TimingParams::ddr3_1600_table3();
        let trace = stress(config(scheme, nominal)).expect("the nominal run is clean");
        let checked = replay(&trace, scheme, nominal).expect("the nominal replay is clean");
        assert!(
            checked > REQUESTS,
            "{}: only {checked} commands",
            scheme.name
        );
        for index in 0..17 {
            let (name, timing) = tripled(index);
            let one_sided = ONE_SIDED.iter().find(|(n, _)| *n == name);
            match (replay(&trace, scheme, timing), one_sided) {
                (Ok(_), None) => problems.push(format!(
                    "{}: the checker ignores {name}: the nominal stream replays clean with it tripled",
                    scheme.name
                )),
                (Err(e), Some((_, reason))) => problems.push(format!(
                    "{}: {name} is listed as one-sided ({reason}) but the checker enforces it: {e}",
                    scheme.name
                )),
                _ => {}
            }
        }
        let slow = slow_mask_transfer(scheme);
        if slow.partial_act_extra_cycles > 0 && replay(&trace, slow, nominal).is_ok() {
            problems.push(format!(
                "{}: the checker ignores the mask-transfer cycle",
                scheme.name
            ));
        }
    }
    assert!(
        problems.is_empty(),
        "the checker misses timing the scheduler enforces:\n  {}",
        problems.join("\n  ")
    );
}
