//! Event-driven cores: `CpuSystem` ticks a core only when something can
//! change it, and jumps over cycles in which every core is quiet. None of
//! that may be observable. Per-memory-cycle core counters, the final state
//! digest, the epoch deltas, the stall episodes a trace sink records and the
//! bytes of mid-run checkpoints must all match the values pinned here, which
//! were computed with the cycle-by-cycle loop.
//!
//! Each run goes through `try_run_with_checkpoints(cap, 1, ..)`, whose hook
//! sees the system after every memory cycle, so the counters are compared at
//! every boundary rather than only at the end of the run.

use std::cell::RefCell;
use std::rc::Rc;

use pra_repro::cache_sim::{CacheConfig, CacheHierarchy, HierarchyConfig};
use pra_repro::cpu_sim::{CpuSystem, InstructionSource, Op, RunOutcome, SystemConfig};
use pra_repro::dram_sim::{DramConfig, MemorySystem};
use pra_repro::workloads::{BenchProfile, WorkloadGen};
use pra_repro::{PagePolicy, PhysAddr, Report, Scheme, WordMask};
use sim_obs::{RingSink, TraceEvent};
use sim_snap::SnapState as _;

const INSTRUCTIONS: u64 = 10_000;
const WARMUP_MEM_OPS: u64 = 20_000;
const SEED: u64 = 1;
const EPOCH_MEM_CYCLES: u64 = 2_000;
const CAP: u64 = 20_000_000;

/// What one run is checked on: FNV-1a of every memory cycle's
/// `(cpu_cycle, per-core CoreStats)`, the report's `state_digest`, and
/// FNV-1a of its epoch snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Observed {
    cycles: u64,
    digest: u64,
    epochs: u64,
}

const MIX2_PRA: Observed = Observed {
    cycles: 0x20b3a3f49798b67e,
    digest: 0x02bdb19c4a5f674d,
    epochs: 0x9c0d910d89dbabfb,
};
const BZIP2X4_BASELINE: Observed = Observed {
    cycles: 0x7409980d22cdd800,
    digest: 0x3de32e7fcfa45d66,
    epochs: 0x8955e5aadae9ffec,
};
const MIX2_PREFETCH: Observed = Observed {
    cycles: 0x55f0f87bcc6e6ba5,
    digest: 0xe288d76219754afb,
    epochs: 0x600ee6ac30481033,
};
const TINY_CACHE_STORES: Observed = Observed {
    cycles: 0xe884f8014ddeaffa,
    digest: 0x86481a10e1909d0e,
    epochs: 0xa35d0fef0988be70,
};
/// FNV-1a of the `CoreStall` events the MIX2 PRA run emits.
const MIX2_PRA_STALL_EPISODES: u64 = 0xf84cb4e5b557ce78;
/// FNV-1a of the three checkpoints the MIX2 PRA run takes (one every
/// `CHECKPOINT_MEM_CYCLES`) before it is aborted.
const MIX2_PRA_CHECKPOINTS: [u64; 2] = [0x1e39b5fd8a7663a7, 0xdb788654f8b023d6];
const CHECKPOINT_MEM_CYCLES: u64 = 1_500;

fn mix2() -> [BenchProfile; 4] {
    pra_repro::workloads::all_mixes()
        .into_iter()
        .find(|m| m.name == "MIX2")
        .expect("MIX2 is a Table 4 mix")
        .apps
}

/// A system assembled as `SimBuilder` assembles it: per-core generator
/// seeds and address slices, functional warm-up, then statistics reset.
fn profile_system(apps: &[BenchProfile], scheme: Scheme, prefetch: bool, warmup: u64) -> CpuSystem {
    let dram = DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, scheme.behavior());
    let config = HierarchyConfig {
        dbi: scheme.uses_dbi(),
        prefetch_next_line: prefetch,
        ..HierarchyConfig::paper(apps.len())
    };
    let mut hierarchy = CacheHierarchy::with_dram_view(config, dram.geometry, dram.mapping);
    let mut sources: Vec<Box<dyn InstructionSource>> = apps
        .iter()
        .enumerate()
        .map(|(core, &app)| {
            Box::new(WorkloadGen::new(
                app,
                SEED.wrapping_add(core as u64 * 0x1234_5678),
                (core as u64) << 31,
            )) as Box<dyn InstructionSource>
        })
        .collect();
    for (core, source) in sources.iter_mut().enumerate() {
        let mut mem_ops = 0;
        while mem_ops < warmup {
            match source.next_op() {
                Op::Compute(_) => continue,
                Op::Load(a) => hierarchy.access(core, a, None),
                Op::Store(a, mask) => hierarchy.access(core, a, Some(mask)),
            };
            mem_ops += 1;
        }
    }
    hierarchy.reset_stats();
    assemble(hierarchy, dram, sources)
}

fn assemble(
    hierarchy: CacheHierarchy,
    dram: DramConfig,
    sources: Vec<Box<dyn InstructionSource>>,
) -> CpuSystem {
    let mut mem = MemorySystem::new(dram);
    mem.set_metrics_epochs(EPOCH_MEM_CYCLES, None);
    CpuSystem::new(SystemConfig::paper(), hierarchy, mem, sources, INSTRUCTIONS)
}

/// Streams single-word stores over 64 MB, core `base` apart.
struct StreamStores {
    next: u64,
    base: u64,
}

impl InstructionSource for StreamStores {
    fn next_op(&mut self) -> Op {
        let a = PhysAddr::new(self.base + (self.next * 64) % (64 << 20));
        self.next += 1;
        Op::Store(a, WordMask::single((self.next % 8) as u8))
    }
}

/// Two store-streaming cores over 1 KB L1s and an 8 KB L2: nearly every
/// store evicts a dirty line, so the DRAM write queue back-pressures the
/// store buffers.
fn tiny_cache_store_system() -> CpuSystem {
    let hierarchy = CacheHierarchy::new(HierarchyConfig {
        l1: CacheConfig {
            size_bytes: 1024,
            ways: 2,
            latency_cycles: 2,
        },
        l2: CacheConfig {
            size_bytes: 8 * 1024,
            ways: 4,
            latency_cycles: 20,
        },
        cores: 2,
        dbi: false,
        prefetch_next_line: false,
    });
    let sources = (0..2)
        .map(|core| {
            Box::new(StreamStores {
                next: 0,
                base: core << 31,
            }) as Box<dyn InstructionSource>
        })
        .collect();
    assemble(
        hierarchy,
        DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, Scheme::Baseline.behavior()),
        sources,
    )
}

/// Appends `(cpu_cycle, per-core CoreStats)` to `w`.
fn record_cycle(w: &mut sim_snap::SnapWriter, sys: &CpuSystem) {
    w.u64(sys.cpu_cycle());
    for core in sys.cores() {
        let s = core.stats;
        for v in [
            s.retired,
            s.rob_stall_cycles,
            s.ldq_stall_cycles,
            s.store_stall_cycles,
            s.loads_by_level[0],
            s.loads_by_level[1],
            s.loads_by_level[2],
            s.stores,
        ] {
            w.u64(v);
        }
    }
}

fn report(sys: &CpuSystem, outcome: &RunOutcome) -> Report {
    let mem = sys.mem();
    Report {
        workload: "event-cores".to_string(),
        scheme: String::new(),
        ipc: outcome.per_core.iter().map(|r| r.ipc()).collect(),
        cpu_cycles: outcome.cpu_cycles,
        runtime_ns: mem.elapsed_ns(),
        energy: mem.energy(),
        power: mem.power(),
        dram: mem.stats().clone(),
        cache: sys.hierarchy().stats().clone(),
        metrics: mem.observer().snapshots().to_vec(),
        faults: mem.fault_counts().merged(sys.hierarchy().fault_counts()),
        recovery: mem.recovery_counts(),
        timed_out: outcome.timed_out,
    }
}

fn observe(sys: &CpuSystem, outcome: &RunOutcome, cycles: sim_snap::SnapWriter) -> Observed {
    assert!(!outcome.timed_out, "the run must finish");
    let report = report(sys, outcome);
    Observed {
        cycles: sim_snap::codec::fnv1a_64(&cycles.into_bytes()),
        digest: report.state_digest(),
        epochs: sim_snap::codec::fnv1a_64(format!("{:?}", report.metrics).as_bytes()),
    }
}

/// Runs `sys` to completion, recording every memory cycle.
fn run(mut sys: CpuSystem) -> (Observed, CpuSystem) {
    let mut w = sim_snap::SnapWriter::new();
    let outcome = sys
        .try_run_with_checkpoints(CAP, 1, |sys, _| {
            record_cycle(&mut w, sys);
            true
        })
        .expect("no DRAM error");
    (observe(&sys, &outcome, w), sys)
}

fn assert_pinned(name: &str, observed: Observed, pinned: Observed) {
    assert_eq!(
        observed, pinned,
        "{name} moved; observed {{ cycles: 0x{:016x}, digest: 0x{:016x}, epochs: 0x{:016x} }}",
        observed.cycles, observed.digest, observed.epochs
    );
}

#[test]
fn mix2_under_pra_matches_the_cycle_by_cycle_loop() {
    let (observed, _) = run(profile_system(&mix2(), Scheme::Pra, false, WARMUP_MEM_OPS));
    assert_pinned("MIX2 PRA", observed, MIX2_PRA);
}

#[test]
fn bzip2_x4_on_baseline_matches_the_cycle_by_cycle_loop() {
    let bzip2 = pra_repro::workloads::bzip2();
    let (observed, _) = run(profile_system(
        &[bzip2; 4],
        Scheme::Baseline,
        false,
        WARMUP_MEM_OPS,
    ));
    assert_pinned("bzip2 x4 baseline", observed, BZIP2X4_BASELINE);
}

#[test]
fn next_line_prefetch_matches_the_cycle_by_cycle_loop() {
    let (observed, sys) = run(profile_system(
        &mix2(),
        Scheme::Baseline,
        true,
        WARMUP_MEM_OPS,
    ));
    assert!(sys.hierarchy().stats().prefetches > 0, "prefetches issued");
    assert_pinned("MIX2 prefetch", observed, MIX2_PREFETCH);
}

#[test]
fn store_buffer_stalls_match_the_cycle_by_cycle_loop() {
    let (observed, sys) = run(tiny_cache_store_system());
    for (i, core) in sys.cores().iter().enumerate() {
        assert!(
            core.stats.store_stall_cycles > 0,
            "core {i} must stall on its store buffer"
        );
    }
    assert_pinned("tiny-cache stores", observed, TINY_CACHE_STORES);
}

#[test]
fn a_refused_store_fill_or_prefetch_is_retried_not_dropped() {
    // A read queue of two entries per channel refuses write-allocate fills
    // and prefetches all the time. A refused read must be retried: the
    // cache already holds its line, so a dropped one is never read.
    for prefetch in [false, true] {
        let mut dram =
            DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, Scheme::Baseline.behavior());
        dram.queues.read_capacity = 2;
        let hierarchy = CacheHierarchy::new(HierarchyConfig {
            prefetch_next_line: prefetch,
            ..HierarchyConfig::paper(1)
        });
        let sources =
            vec![Box::new(StreamStores { next: 0, base: 0 }) as Box<dyn InstructionSource>];
        let (_, sys) = run(assemble(hierarchy, dram, sources));
        let cache = sys.hierarchy().stats();
        assert!(cache.l2_misses > 1_000, "the stream misses the L2");
        assert_eq!(cache.prefetches > 0, prefetch);
        assert_eq!(
            sys.mem().stats().reads_completed,
            cache.l2_misses + cache.prefetches,
            "prefetch {prefetch}: every L2 store miss and prefetch reads DRAM"
        );
    }
}

#[test]
fn stall_episodes_match_the_cycle_by_cycle_loop() {
    let mut sys = profile_system(&mix2(), Scheme::Pra, false, WARMUP_MEM_OPS);
    let ring = Rc::new(RefCell::new(RingSink::new(1 << 20)));
    sys.set_trace_sink(Box::new(Rc::clone(&ring)));
    let (observed, sys) = run(sys);
    assert_pinned("traced MIX2 PRA", observed, MIX2_PRA);
    let ring = ring.borrow();
    assert_eq!(ring.dropped(), 0, "the ring holds every episode");
    let mut w = sim_snap::SnapWriter::new();
    let mut episode_cycles = 0;
    for event in ring.events() {
        let TraceEvent::CoreStall {
            cycle,
            core,
            reason,
            cycles,
        } = *event
        else {
            panic!("only the cores emit into this sink: {event:?}");
        };
        w.u64(cycle);
        w.u8(core);
        w.str(&format!("{reason:?}"));
        w.u64(cycles);
        episode_cycles += cycles;
    }
    let stalls: u64 = sys
        .cores()
        .iter()
        .map(|c| c.stats.rob_stall_cycles + c.stats.ldq_stall_cycles + c.stats.store_stall_cycles)
        .sum();
    assert!(episode_cycles > 0 && episode_cycles <= stalls);
    let hash = sim_snap::codec::fnv1a_64(&w.into_bytes());
    assert_eq!(
        hash, MIX2_PRA_STALL_EPISODES,
        "stall episodes moved: 0x{hash:016x}"
    );
}

#[test]
fn checkpoint_and_resume_end_on_the_uninterrupted_digest() {
    // Crash at the third checkpoint, keeping every memory cycle's counters
    // up to it.
    let mut crashing = profile_system(&mix2(), Scheme::Pra, false, WARMUP_MEM_OPS);
    let mut w = sim_snap::SnapWriter::new();
    let mut images: Vec<Vec<u8>> = Vec::new();
    let out = crashing
        .try_run_with_checkpoints(CAP, 1, |sys, mem_cycle| {
            record_cycle(&mut w, sys);
            if mem_cycle.is_multiple_of(CHECKPOINT_MEM_CYCLES) {
                let mut image = sim_snap::SnapWriter::new();
                sys.snap_save(&mut image);
                images.push(image.into_bytes());
            }
            images.len() < 3
        })
        .expect("no DRAM error");
    assert!(out.timed_out, "the hook aborted the run");
    let hash = sim_snap::codec::fnv1a_64(&images.concat());
    assert_eq!(
        hash,
        MIX2_PRA_CHECKPOINTS[usize::from(pra_repro::dram_sim::verify_protocol_default())],
        "checkpoint bytes moved: 0x{hash:016x}"
    );

    // Resume on a system that never warmed up: the image carries the
    // caches, the generators' positions and the memory system.
    let mut resumed = profile_system(&mix2(), Scheme::Pra, false, 0);
    let image = images.last().expect("three checkpoints");
    let mut r = sim_snap::SnapReader::new(image);
    resumed.snap_load(&mut r).expect("the image loads");
    r.finish().expect("the image is consumed");
    let outcome = resumed
        .try_run_with_checkpoints(CAP, 1, |sys, _| {
            record_cycle(&mut w, sys);
            true
        })
        .expect("no DRAM error");
    assert_pinned("resumed MIX2 PRA", observe(&resumed, &outcome, w), MIX2_PRA);
}
