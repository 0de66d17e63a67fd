//! Timing edge cases: bus turnaround, rank switching, power-down exit,
//! mixed-weight tFAW windows, and PRA-specific command timing.

use dram_sim::{DramConfig, MemorySystem, PagePolicy, SchemeBehavior, TimingParams};
use mem_model::{AddressMapping, DramGeometry, Location, MemRequest, PhysAddr, WordMask};

fn addr(loc: Location) -> PhysAddr {
    AddressMapping::RowInterleaved.encode(loc, &DramGeometry::baseline_ddr3())
}

fn loc(rank: u32, bank: u32, row: u32, column: u32) -> Location {
    Location {
        channel: 0,
        rank,
        bank,
        row,
        column,
    }
}

fn system(scheme: SchemeBehavior) -> MemorySystem {
    MemorySystem::new(DramConfig::paper_baseline(
        PagePolicy::RelaxedClosePage,
        scheme,
    ))
}

fn drain_cycles(mem: &mut MemorySystem) -> u64 {
    let start = mem.cycle();
    assert!(mem.run_until_idle(1_000_000));
    mem.cycle() - start
}

#[test]
fn write_to_read_turnaround_slows_the_pair() {
    // Same bank, same row: write then read must pay the bus turnaround.
    let mut wr_rd = system(SchemeBehavior::baseline());
    wr_rd
        .try_enqueue(MemRequest::write(1, addr(loc(0, 0, 1, 0)), WordMask::FULL))
        .unwrap();
    wr_rd
        .try_enqueue(MemRequest::read(2, addr(loc(0, 0, 1, 1))))
        .unwrap();
    let mixed = drain_cycles(&mut wr_rd);

    let mut rd_rd = system(SchemeBehavior::baseline());
    rd_rd
        .try_enqueue(MemRequest::read(1, addr(loc(0, 0, 1, 0))))
        .unwrap();
    rd_rd
        .try_enqueue(MemRequest::read(2, addr(loc(0, 0, 1, 1))))
        .unwrap();
    let same_dir = drain_cycles(&mut rd_rd);

    assert!(
        mixed > same_dir,
        "write->read ({mixed} cycles) must be slower than read->read ({same_dir})"
    );
}

#[test]
fn rank_switch_pays_trtrs() {
    // Two reads to different ranks vs the same rank (different banks, so
    // bank timing does not dominate).
    let mut cross = system(SchemeBehavior::baseline());
    cross
        .try_enqueue(MemRequest::read(1, addr(loc(0, 0, 1, 0))))
        .unwrap();
    cross
        .try_enqueue(MemRequest::read(2, addr(loc(1, 1, 1, 0))))
        .unwrap();
    let cross_cycles = drain_cycles(&mut cross);

    let mut same = system(SchemeBehavior::baseline());
    same.try_enqueue(MemRequest::read(1, addr(loc(0, 0, 1, 0))))
        .unwrap();
    same.try_enqueue(MemRequest::read(2, addr(loc(0, 1, 1, 0))))
        .unwrap();
    let same_cycles = drain_cycles(&mut same);

    assert!(
        cross_cycles >= same_cycles,
        "rank switch ({cross_cycles}) cannot be faster than same-rank ({same_cycles})"
    );
}

#[test]
fn power_down_exit_adds_txp() {
    let t = TimingParams::ddr3_1600_table3();
    // Let the system idle into power-down first.
    let mut mem = system(SchemeBehavior::baseline());
    for _ in 0..200 {
        mem.tick();
    }
    mem.try_enqueue(MemRequest::read(1, addr(loc(0, 0, 1, 0))))
        .unwrap();
    let mut latency = 0;
    for c in 0..200u64 {
        if !mem.tick().is_empty() {
            latency = c;
            break;
        }
    }
    // Cold access from idle: ACT at tXP, data at tXP + tRCD + CL + burst.
    let expected = t.txp + t.trcd + t.tcas + t.burst_cycles;
    assert_eq!(latency, expected, "power-down exit must add tXP cycles");
}

#[test]
fn pra_partial_write_pays_one_extra_cycle() {
    // Identical lone writes; PRA's partial activation defers the column
    // command by exactly one cycle relative to the baseline.
    let run = |scheme: SchemeBehavior, mask: WordMask| {
        let mut mem = system(scheme);
        mem.try_enqueue(MemRequest::write(1, addr(loc(0, 0, 1, 0)), mask))
            .unwrap();
        drain_cycles(&mut mem)
    };
    let base = run(SchemeBehavior::baseline(), WordMask::single(0));
    let pra_partial = run(SchemeBehavior::pra(), WordMask::single(0));
    let pra_full = run(SchemeBehavior::pra(), WordMask::FULL);
    assert_eq!(pra_partial, base + 1, "partial activation costs tRCD + tCK");
    assert_eq!(
        pra_full, base,
        "full-mask PRA writes have conventional timing"
    );
}

#[test]
fn pra_partial_activations_relax_tfaw() {
    // Five writes to five banks of one rank: the baseline must stall on
    // tFAW for the fifth activation; PRA's 1/8-weight activations must not.
    let stream = |mem: &mut MemorySystem| {
        for b in 0..5u32 {
            mem.try_enqueue(MemRequest::write(
                u64::from(b) + 1,
                addr(loc(0, b % 8, 3, 0)),
                WordMask::single(0),
            ))
            .unwrap();
        }
        drain_cycles(mem)
    };
    let mut base = system(SchemeBehavior::baseline());
    let base_cycles = stream(&mut base);
    let mut pra = system(SchemeBehavior::pra());
    let pra_cycles = stream(&mut pra);
    assert!(
        pra_cycles < base_cycles,
        "PRA ({pra_cycles}) should finish the activation burst faster than baseline ({base_cycles})"
    );
}

#[test]
fn refresh_blocks_and_releases_a_rank() {
    let t = TimingParams::ddr3_1600_table3();
    let mut mem = system(SchemeBehavior::baseline());
    // Run straight into the first refresh window and a bit beyond.
    for _ in 0..(t.trefi + 2 * t.trfc) {
        mem.tick();
    }
    assert!(mem.stats().refreshes >= 1, "first refresh must have fired");
    // The system still serves requests afterwards.
    mem.try_enqueue(MemRequest::read(99, addr(loc(0, 0, 7, 0))))
        .unwrap();
    assert!(mem.run_until_idle(10_000));
    assert_eq!(mem.stats().reads_completed, 1);
}

#[test]
fn tccd_spaces_row_hits() {
    let t = TimingParams::ddr3_1600_table3();
    // Four reads hitting one open row complete tCCD apart.
    let mut mem = system(SchemeBehavior::baseline());
    for i in 0..4u64 {
        mem.try_enqueue(MemRequest::read(i + 1, addr(loc(0, 0, 1, i as u32))))
            .unwrap();
    }
    let mut completions = Vec::new();
    for c in 0..200u64 {
        if !mem.tick().is_empty() {
            completions.push(c);
        }
        if completions.len() == 4 {
            break;
        }
    }
    assert_eq!(completions.len(), 4);
    for pair in completions.windows(2) {
        assert_eq!(pair[1] - pair[0], t.tccd, "row hits pipeline at tCCD");
    }
}

#[test]
fn a_run_at_the_timing_bounds_finishes_without_overflow() {
    // Every field at the largest value `TimingParams::validate` accepts.
    // Test builds keep overflow checks on, so any cycle-plus-timing sum in
    // the scheduler or the protocol checker that wrapped would panic here.
    let max = TimingParams::MAX;
    let schemes = [
        SchemeBehavior::baseline(),
        SchemeBehavior::fga_half(),
        SchemeBehavior::pra(),
    ];
    for (scheme, policy) in schemes.into_iter().zip(PagePolicy::ALL) {
        let mut cfg = DramConfig::paper_baseline(policy, scheme);
        cfg.timing = max;
        let mut mem = MemorySystem::try_new(cfg).expect("the bounds are a valid timing set");
        // Two batches of row hits, row conflicts, rank switches and
        // read/write turnarounds, with an idle gap between them long enough
        // for power-down and a refresh.
        for batch in 0..2u64 {
            for i in 0..6u64 {
                let l = loc((i % 2) as u32, (i % 3) as u32, (i / 3) as u32, i as u32);
                let id = batch * 6 + i;
                let req = if i % 2 == 0 {
                    MemRequest::read(id, addr(l))
                } else {
                    MemRequest::write(id, addr(l), WordMask::single(i as u8))
                };
                mem.try_enqueue(req).unwrap();
            }
            assert_eq!(mem.try_run_until_idle(1_000_000), Ok(true));
            for _ in 0..max.trefi + max.trfc {
                mem.try_tick().unwrap();
            }
        }
        let stats = mem.stats();
        assert_eq!(stats.reads_completed + stats.writes_completed, 12);
        assert!(stats.refreshes >= 1, "a refresh ran at tRFC = {}", max.trfc);
    }
}
