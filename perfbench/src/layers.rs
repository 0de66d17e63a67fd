//! Per-layer measurements, each timed from the benchmark's own code around
//! calls into one crate: workload generation, cache accesses by hit level,
//! DRAM ticks per scheme, and the profiler's own cost.

use std::hint::black_box;
use std::time::Instant;

use cache_sim::HitLevel;
use cpu_sim::{InstructionSource, Op};
use dram_sim::{DramConfig, MemorySystem, SchemeBehavior};
use mem_model::MemRequest;

use crate::assembly;
use crate::metrics::ratio;
use crate::workload::SimSpec;

/// Cost of one back-to-back pair of clock reads, subtracted from each
/// per-access timing.
fn timer_pair_ns() -> f64 {
    const N: u32 = 100_000;
    let mut total = 0u128;
    for _ in 0..N {
        let a = Instant::now();
        let b = Instant::now();
        total += b.duration_since(a).as_nanos();
    }
    total as f64 / f64::from(N)
}

/// Nanoseconds per `next_op` call and the share of ops that touch memory,
/// over `ops` ops from each core's generator of each spec.
pub fn workload_gen(specs: &[&SimSpec], ops: u64) -> (f64, f64) {
    let (mut ns, mut total, mut mem) = (0u128, 0u64, 0u64);
    for spec in specs {
        for core in 0..spec.cores() {
            let mut g = assembly::generator(spec, core);
            let t = Instant::now();
            for _ in 0..ops {
                if !matches!(black_box(g.next_op()), Op::Compute(_)) {
                    mem += 1;
                }
            }
            ns += t.elapsed().as_nanos();
            total += ops;
        }
    }
    (
        ratio(ns as f64, total as f64),
        ratio(mem as f64, total as f64),
    )
}

/// What replaying the warm-up streams through fresh hierarchies measured,
/// and the post-cache DRAM request stream that follows each warm-up.
pub struct CacheReplay {
    /// Mean ns per access at L1 hit, L2 hit and miss.
    pub access_ns: [f64; 3],
    pub l1_hit_ratio: f64,
    pub l2_hit_ratio: f64,
    pub writebacks_per_kaccess: f64,
    pub requests: Vec<Vec<MemRequest>>,
}

/// Replays each spec's warm-up stream through `CacheHierarchy::access`,
/// timing every access, then plays the next ops of the same generators
/// through the warmed caches and keeps up to `max_requests` of the DRAM
/// requests they cause (demand and store fills as reads, evictions as
/// masked writes).
pub fn cache_replay(specs: &[&SimSpec], max_requests: usize) -> CacheReplay {
    let pair_ns = timer_pair_ns();
    let (mut ns, mut count) = ([0f64; 3], [0u64; 3]);
    let (mut l1, mut l2, mut wb) = ([0u64; 2], [0u64; 2], 0u64);
    let mut requests = Vec::new();
    for spec in specs {
        let mut generators: Vec<Box<dyn InstructionSource>> = (0..spec.cores())
            .map(|core| Box::new(assembly::generator(spec, core)) as Box<dyn InstructionSource>)
            .collect();
        let mut stream = Vec::new();
        assembly::warm_up(spec, &mut generators, |core, op| stream.push((core, op)));
        let mut h = assembly::hierarchy(spec);
        for (core, op) in stream {
            let t = Instant::now();
            let a = assembly::access(&mut h, core, op);
            let dt = t.elapsed().as_nanos() as f64 - pair_ns / 2.0;
            if let Some(a) = a {
                let level = match a.level {
                    HitLevel::L1 => 0,
                    HitLevel::L2 => 1,
                    HitLevel::Memory => 2,
                };
                ns[level] += dt.max(0.0);
                count[level] += 1;
            }
        }
        let s = h.stats();
        l1[0] += s.l1_hits;
        l1[1] += s.l1_misses;
        l2[0] += s.l2_hits;
        l2[1] += s.l2_misses;
        wb += s.writebacks + s.dbi_writebacks;

        let mut reqs = Vec::with_capacity(max_requests);
        let mut id = 0u64;
        'stream: loop {
            for (core, g) in generators.iter_mut().enumerate() {
                let Some(a) = assembly::access(&mut h, core, g.next_op()) else {
                    continue;
                };
                let reads = a
                    .fill_read
                    .into_iter()
                    .map(|line| MemRequest::read(0, line));
                let writes = a
                    .writebacks
                    .iter()
                    .map(|&(line, mask)| MemRequest::write(0, line, mask));
                for req in reads.chain(writes) {
                    id += 1;
                    reqs.push(MemRequest {
                        id,
                        ..req.with_core(core)
                    });
                    if reqs.len() == max_requests {
                        break 'stream;
                    }
                }
            }
        }
        requests.push(reqs);
    }
    let accesses: u64 = count.iter().sum();
    CacheReplay {
        access_ns: [0, 1, 2].map(|i| ratio(ns[i], count[i] as f64)),
        l1_hit_ratio: ratio(l1[0] as f64, (l1[0] + l1[1]) as f64),
        l2_hit_ratio: ratio(l2[0] as f64, (l2[0] + l2[1]) as f64),
        writebacks_per_kaccess: ratio(wb as f64 * 1000.0, accesses as f64),
        requests,
    }
}

/// A scheme whose DRAM tick is measured, with its metric names.
pub struct TickScheme {
    pub name: &'static str,
    pub idle_metric: &'static str,
    pub loaded_metric: &'static str,
    pub behavior: fn() -> SchemeBehavior,
}

pub static TICK_SCHEMES: [TickScheme; 3] = [
    TickScheme {
        name: "baseline",
        idle_metric: "dram_sim.tick_ns.idle.baseline",
        loaded_metric: "dram_sim.tick_ns.loaded.baseline",
        behavior: SchemeBehavior::baseline,
    },
    TickScheme {
        name: "pra",
        idle_metric: "dram_sim.tick_ns.idle.pra",
        loaded_metric: "dram_sim.tick_ns.loaded.pra",
        behavior: SchemeBehavior::pra,
    },
    TickScheme {
        name: "half_dram",
        idle_metric: "dram_sim.tick_ns.idle.half_dram",
        loaded_metric: "dram_sim.tick_ns.loaded.half_dram",
        behavior: SchemeBehavior::half_dram,
    },
];

/// Standalone `MemorySystem` costs for one scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct DramCost {
    pub idle_ns: f64,
    pub loaded_ns: f64,
    /// Host time a request adds on top of idle ticks.
    pub per_request_ns: f64,
    pub rejects: u64,
}

/// Ticks an empty memory system `idle_cycles` times, then feeds each
/// request stream through `try_enqueue`, retrying a rejected request on
/// the next cycle, and ticks until every request has completed.
pub fn dram_costs(
    config: impl Fn(SchemeBehavior) -> DramConfig,
    streams: &[Vec<MemRequest>],
    idle_cycles: u64,
) -> Result<Vec<(&'static TickScheme, DramCost)>, String> {
    let mut out = Vec::new();
    for scheme in &TICK_SCHEMES {
        let name = scheme.name;
        let new = || MemorySystem::try_new(config((scheme.behavior)())).map_err(|e| e.to_string());
        let mut mem = new()?;
        let t = Instant::now();
        for _ in 0..idle_cycles {
            black_box(mem.try_tick().map_err(|e| e.to_string())?.len());
        }
        let idle_ns = ratio(t.elapsed().as_nanos() as f64, idle_cycles as f64);

        let (mut ns, mut cycles, mut rejects, mut sent) = (0u128, 0u64, 0u64, 0usize);
        for stream in streams {
            let mut mem = new()?;
            let mut next = stream.iter().copied().peekable();
            let t = Instant::now();
            while next.peek().is_some() || mem.pending() > 0 {
                while let Some(&req) = next.peek() {
                    if mem.try_enqueue(req).is_err() {
                        rejects += 1;
                        break;
                    }
                    next.next();
                }
                black_box(mem.try_tick().map_err(|e| e.to_string())?.len());
                cycles += 1;
            }
            ns += t.elapsed().as_nanos();
            let done = mem.stats().reads_completed + mem.stats().writes_completed;
            if done != stream.len() as u64 {
                return Err(format!(
                    "{name}: {} requests fed, {done} completed",
                    stream.len()
                ));
            }
            sent += stream.len();
        }
        let loaded_ns = ratio(ns as f64, cycles as f64);
        let per_request_ns = ratio(ns as f64 - idle_ns * cycles as f64, sent as f64).max(0.0);
        let cost = DramCost {
            idle_ns,
            loaded_ns,
            per_request_ns,
            rejects,
        };
        out.push((scheme, cost));
    }
    Ok(out)
}

/// Nanoseconds one enabled, empty profiler span costs.
pub fn prof_empty_span_ns(spans: u32) -> f64 {
    sim_prof::reset();
    sim_prof::enable();
    let t = Instant::now();
    for _ in 0..spans {
        let _span = sim_prof::span!("bench.empty");
    }
    let ns = t.elapsed().as_nanos() as f64;
    sim_prof::disable();
    sim_prof::reset();
    ns / f64::from(spans)
}
