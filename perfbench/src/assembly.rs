//! The traced run's simulations: each is assembled from the crates' public
//! APIs the way `SimBuilder::try_run` assembles it, with a span around
//! every phase (build, warm-up, loop, drain, report). Its report must equal
//! the untraced `SimBuilder` report exactly, which the caller checks by
//! state digest.

use std::time::Instant;

use cache_sim::{CacheHierarchy, HierarchyConfig};
use cpu_sim::{CpuSystem, InstructionSource, Op, SystemConfig};
use dram_sim::{DramConfig, MemorySystem};
use pra_core::{Report, Scheme};
use sim_snap::SnapState as _;
use workloads::WorkloadGen;

use crate::tracer::Tracer;
use crate::workload::SimSpec;

/// Names of the phase spans; together they should cover the traced pass.
pub const PHASES: [&str; 5] = [
    "core.build",
    "core.warmup",
    "cpu_sim.loop",
    "cpu_sim.drain",
    "core.report",
];

/// One traced simulation and what its loop did.
pub struct Traced {
    pub scheme: Scheme,
    pub report: Report,
    pub loop_ns: u64,
    pub loop_mem_cycles: u64,
    /// Stall cycles summed over cores: ROB, load queue, store buffer.
    pub stalls: [u64; 3],
}

/// `SimBuilder`'s per-core generator seed and address-space base.
pub fn generator(spec: &SimSpec, core: usize) -> WorkloadGen {
    WorkloadGen::new(
        spec.apps[core],
        spec.seed.wrapping_add(core as u64 * 0x1234_5678),
        (core as u64) << 31,
    )
}

pub fn hierarchy(spec: &SimSpec) -> CacheHierarchy {
    let dram = dram_config(spec);
    let config = HierarchyConfig {
        dbi: spec.scheme.uses_dbi(),
        ..HierarchyConfig::paper(spec.cores())
    };
    CacheHierarchy::with_dram_view(config, dram.geometry, dram.mapping)
}

pub fn dram_config(spec: &SimSpec) -> DramConfig {
    DramConfig::paper_baseline(spec.policy, spec.scheme.behavior())
}

/// Plays each core's warm-up prefix through the caches, core by core, as
/// `SimBuilder` does, calling `access` for every memory op.
pub fn warm_up(
    spec: &SimSpec,
    generators: &mut [Box<dyn InstructionSource>],
    mut access: impl FnMut(usize, Op),
) {
    let ops = spec.warmup_ops();
    for (core, generator) in generators.iter_mut().enumerate() {
        let mut mem_ops = 0;
        while mem_ops < ops {
            let op = generator.next_op();
            if !matches!(op, Op::Compute(_)) {
                access(core, op);
                mem_ops += 1;
            }
        }
    }
}

/// Performs a load or store op on the hierarchy.
pub fn access(h: &mut CacheHierarchy, core: usize, op: Op) -> Option<cache_sim::Access> {
    match op {
        Op::Compute(_) => None,
        Op::Load(a) => Some(h.access(core, a, None)),
        Op::Store(a, mask) => Some(h.access(core, a, Some(mask))),
    }
}

/// A system built and warmed up exactly like `SimBuilder`'s, not yet run.
pub fn warm_system(spec: &SimSpec, tracer: &mut Tracer) -> Result<CpuSystem, String> {
    let (mut h, mem, mut generators) = tracer.span("core.build", |_| {
        let mem = MemorySystem::try_new(dram_config(spec)).map_err(|e| e.to_string())?;
        let generators: Vec<Box<dyn InstructionSource>> = (0..spec.cores())
            .map(|core| Box::new(generator(spec, core)) as Box<dyn InstructionSource>)
            .collect();
        Ok::<_, String>((hierarchy(spec), mem, generators))
    })?;
    tracer.span("core.warmup", |_| {
        warm_up(spec, &mut generators, |core, op| {
            access(&mut h, core, op);
        });
        h.reset_stats();
    });
    Ok(tracer.span("core.build", |_| {
        CpuSystem::new(SystemConfig::paper(), h, mem, generators, spec.instructions)
    }))
}

/// Runs one simulation with a span around each phase.
pub fn run(spec: &SimSpec, tracer: &mut Tracer) -> Result<Traced, String> {
    tracer.span("core.sim", |t| {
        let mut system = warm_system(spec, t)?;
        let cap = spec.instructions.saturating_mul(2000).max(10_000_000);
        // The checkpoint hook fires after every memory cycle of the loop
        // and never after it, so its last timestamp ends the loop and
        // starts the drain.
        let start = Instant::now();
        let mut last = (start, 0u64);
        let outcome = system
            .try_run_with_checkpoints(cap, 1, |_, cycle| {
                last = (Instant::now(), cycle);
                true
            })
            .map_err(|e| e.to_string())?;
        let end = Instant::now();
        t.record("cpu_sim.loop", start, last.0);
        t.record("cpu_sim.drain", last.0, end);
        if let Some(short) = outcome
            .per_core
            .iter()
            .find(|c| c.instructions < spec.instructions)
        {
            return Err(format!(
                "a core retired {} of {} instructions",
                short.instructions, spec.instructions
            ));
        }
        let report = t.span("core.report", |_| {
            let mem = system.mem();
            let report = Report {
                workload: spec.workload_name(),
                scheme: spec.scheme.name().to_string(),
                ipc: outcome.per_core.iter().map(|r| r.ipc()).collect(),
                cpu_cycles: outcome.cpu_cycles,
                runtime_ns: mem.elapsed_ns(),
                energy: mem.energy(),
                power: mem.power(),
                dram: mem.stats().clone(),
                cache: system.hierarchy().stats().clone(),
                metrics: mem.observer().snapshots().to_vec(),
                faults: mem.fault_counts().merged(system.hierarchy().fault_counts()),
                recovery: mem.recovery_counts(),
                timed_out: outcome.timed_out,
            };
            std::hint::black_box(report.state_digest());
            report
        });
        let mut stalls = [0; 3];
        for core in system.cores() {
            stalls[0] += core.stats.rob_stall_cycles;
            stalls[1] += core.stats.ldq_stall_cycles;
            stalls[2] += core.stats.store_stall_cycles;
        }
        Ok(Traced {
            scheme: spec.scheme,
            report,
            loop_ns: last.0.duration_since(start).as_nanos() as u64,
            loop_mem_cycles: last.1,
            stalls,
        })
    })
}

/// Save and load times (ms, medians of `reps`) and size of a `CpuSystem`
/// image taken after warm-up. Fails if the loaded image does not save back
/// to the same bytes.
pub fn snapshot_roundtrip(spec: &SimSpec, reps: usize) -> Result<(f64, f64, usize), String> {
    let mut scratch = Tracer::new();
    let warmed = warm_system(spec, &mut scratch)?;
    let mut fresh = warm_system(
        &SimSpec {
            warmup: Some(0),
            ..spec.clone()
        },
        &mut scratch,
    )?;
    let (mut save_ms, mut load_ms) = (Vec::new(), Vec::new());
    let mut image = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut w = sim_snap::SnapWriter::new();
        warmed.snap_save(&mut w);
        image = w.into_bytes();
        save_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        let mut r = sim_snap::SnapReader::new(&image);
        fresh.snap_load(&mut r).map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        load_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    let mut w = sim_snap::SnapWriter::new();
    fresh.snap_save(&mut w);
    if w.into_bytes() != image {
        return Err("a loaded snapshot does not save back to the same image".into());
    }
    Ok((
        crate::metrics::median(&save_ms),
        crate::metrics::median(&load_ms),
        image.len(),
    ))
}
