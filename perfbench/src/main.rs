//! Host-performance benchmark of the PRA simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig12_sweep --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process and one thread run the named workload in a closed loop:
//! each simulation starts when the previous one returns. `--trace 0`
//! measures the end-to-end metrics; `--trace 1` rebuilds the same
//! simulations from the crates' public APIs with a span around every phase
//! and measures each layer. The last line of standard output is the
//! result as one JSON object. See `perfbench/README.md`.

mod assembly;
mod check;
mod layers;
mod metrics;
mod tracer;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use check::Checker;
use metrics::{median, ratio, END_TO_END, PER_LAYER};
use pra_core::experiments::ComparisonRow;
use pra_core::{Report, Scheme};
use tracer::Tracer;
use workload::{format_key, pra_means, Pass, Plan, Scale, SimSpec, Workload};

/// Paper values of the model metrics (EXPERIMENTS.md, Figures 12/13).
const PAPER_PRA_POWER_NORM: f64 = 0.77;
const PAPER_PRA_WS_NORM: f64 = 0.992;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&names.join(" | "))
                })?);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => {
                let s = value.parse().ok().filter(|&s| s > 0);
                seconds = Some(s.ok_or_else(|| bad("a positive integer"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]"
            );
            std::process::exit(2);
        }
    };
    println!(
        "perfbench: workload={} seed={} seconds={} trace={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("host: {}", host_line());
    let plan = Plan::new(args.workload, Scale::Full, args.seed);
    let budget = Duration::from_secs(args.seconds);
    let (defs, result) = if args.trace {
        let spans = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        (PER_LAYER, traced(&plan, budget, Some(&spans)))
    } else {
        (END_TO_END, untraced(&plan, budget))
    };
    println!("{}", metrics::table(defs, &result.values));
    let line = metrics::result_line(
        result.correct,
        result.checker.attempted,
        result.checker.failed,
        defs,
        &result.values,
    );
    match line {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// CPU model and the parallelism available to this process, recorded with
/// every result.
fn host_line() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("cpu=\"{cpu}\" nproc={nproc} threads=1 clients=1 loop=closed")
}

/// Peak resident set of this process, from `VmHWM` in `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

struct RunResult {
    correct: bool,
    checker: Checker,
    values: BTreeMap<&'static str, f64>,
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

fn check_pass(checker: &mut Checker, pass: &Pass) {
    for (key, cores, outcome) in &pass.reports {
        checker.check(key, *cores, outcome.as_ref().map_err(Clone::clone));
    }
}

/// Sum of per-core IPC averaged over the pass's reports, and DRAM energy
/// per thousand simulated instructions over the same reports.
fn model_metrics(pass: &Pass, instructions_per_core: u64) -> (f64, f64) {
    let reports: Vec<&Report> = pass
        .reports
        .iter()
        .filter_map(|r| r.2.as_ref().ok())
        .collect();
    let ipc: f64 = reports.iter().map(|r| r.ipc_sum()).sum();
    let energy_nj: f64 = reports.iter().map(|r| r.energy.total() / 1e3).sum();
    let kinstr: f64 = reports
        .iter()
        .map(|r| (r.ipc.len() as u64 * instructions_per_core) as f64 / 1e3)
        .sum();
    (ratio(ipc, reports.len() as f64), ratio(energy_nj, kinstr))
}

/// The fastest of `samples`. A pass is deterministic work, so no pass can
/// run faster than its cost; other tenants of the machine slow passes by
/// up to twice, for seconds to minutes at a time, and the fastest pass of a
/// run is the reading they disturb least. (Across runs the pipeline takes
/// the median.)
fn fastest(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

fn seconds_list(values: &[f64]) -> String {
    let shown: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
    shown.join(" ")
}

/// The untraced run: full passes for `budget`, each followed by set-up
/// probes taking about a quarter of the pass's time, so both see the same
/// machine conditions.
fn untraced(plan: &Plan, budget: Duration) -> RunResult {
    let mut checker = Checker::default();
    let probe = plan.setup_probe();
    let (mut walls, mut setups) = (Vec::new(), Vec::new());
    let mut last = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed() < budget {
        let (pass, wall) = timed(|| plan.run());
        check_pass(&mut checker, &pass);
        walls.push(wall);
        let mut probing = 0.0;
        while probing < wall / 4.0 {
            let (probe_pass, s) = timed(|| probe.run());
            check_pass(&mut checker, &probe_pass);
            setups.push(s);
            probing += s;
        }
        last = Some(pass);
    }
    let pass = last.expect("at least one pass ran");
    let (ipc_sum, nj_per_kinstr) = model_metrics(&pass, plan.instructions);
    let wall = fastest(&walls);
    let mut values = BTreeMap::new();
    values.insert("wall_s", wall);
    values.insert("setup_s", fastest(&setups));
    values.insert("sim_minstr_per_s", pass.instructions as f64 / wall / 1e6);
    values.insert("peak_rss_mb", peak_rss_mb().unwrap_or(f64::NAN));
    values.insert("sim_ipc_sum", ipc_sum);
    values.insert("dram_energy_nj_per_kinstr", nj_per_kinstr);
    println!("wall_s per pass: {}", seconds_list(&walls));
    println!("setup_s per probe: {}", seconds_list(&setups));
    print_model(plan.workload, &pass.rows, &values);
    RunResult {
        correct: checker.failed == 0,
        checker,
        values,
    }
}

/// Prints each model metric with the paper's value and the gap. The model
/// is checked against the paper's shape only; there is no hardware
/// reference.
fn print_model(workload: Workload, rows: &[ComparisonRow], values: &BTreeMap<&str, f64>) {
    println!(
        "model metrics (simulated; checked against the paper's shape only, no hardware reference):"
    );
    if workload == Workload::Fig12Sweep {
        if let Some((power, ws)) = pra_means(rows) {
            for (name, model, paper) in [
                ("pra_power_norm", power, PAPER_PRA_POWER_NORM),
                ("pra_ws_norm", ws, PAPER_PRA_WS_NORM),
            ] {
                println!(
                    "  {name:<28} {model:.4}  paper {paper}  gap {:+.1}%",
                    (model / paper - 1.0) * 100.0
                );
            }
        }
    }
    for name in ["sim_ipc_sum", "dram_energy_nj_per_kinstr"] {
        if let Some(v) = values.get(name) {
            println!("  {name:<28} {v:.4}  paper: no reported value");
        }
    }
}

/// The traced run: untraced and traced passes alternate for `budget`, the
/// traced pass is checked against the untraced one report by report, then
/// each layer is measured on the same workload's streams.
fn traced(plan: &Plan, budget: Duration, spans_out: Option<&Path>) -> RunResult {
    let mut checker = Checker::default();
    let mut tracer = Tracer::new();
    let specs = plan.specs();
    let mut mismatches = Vec::new();
    let mut last: Vec<assembly::Traced> = Vec::new();
    let mut reps = 0u32;
    let start = Instant::now();
    while reps == 0 || start.elapsed() < budget {
        let pass = tracer.span("bench.untraced_pass", |_| plan.run());
        check_pass(&mut checker, &pass);
        // Each traced report is checked under the untraced report's key, so
        // the digest check also proves the reproduction exact.
        let traced: Vec<assembly::Traced> = tracer.span("bench.traced_pass", |t| {
            specs
                .iter()
                .filter_map(|spec| {
                    let outcome = assembly::run(spec, t);
                    let report = outcome.as_ref().map(|o| &o.report).map_err(Clone::clone);
                    checker.check(&spec.key(), spec.cores(), report);
                    outcome.ok()
                })
                .collect()
        });
        if plan.workload == Workload::Fig12Sweep {
            mismatches.extend(compare_rows(&specs, &traced, &pass.rows));
        }
        last = traced;
        reps += 1;
    }
    for m in &mismatches {
        eprintln!("perfbench: traced reproduction differs: {m}");
    }
    let mut correct = mismatches.is_empty() && last.len() == specs.len();

    let mut values = BTreeMap::new();
    let totals = tracer.totals();
    let per_pass_ms = |name: &str| {
        totals
            .get(name)
            .map_or(0.0, |t| t.total_ns as f64 / 1e6 / f64::from(reps))
    };
    for (metric, span) in [
        ("core.build_ms", "core.build"),
        ("core.warmup_ms", "core.warmup"),
        ("core.report_ms", "core.report"),
        ("cpu_sim.loop_ms", "cpu_sim.loop"),
        ("cpu_sim.drain_ms", "cpu_sim.drain"),
    ] {
        values.insert(metric, per_pass_ms(span));
    }
    let phases: f64 = assembly::PHASES.iter().map(|p| per_pass_ms(p)).sum();
    let traced_ms = per_pass_ms("bench.traced_pass");
    values.insert("bench.phase_coverage", ratio(phases, traced_ms));
    values.insert(
        "bench.trace_overhead_ratio",
        ratio(traced_ms, per_pass_ms("bench.untraced_pass")),
    );
    values.insert("core.sims", specs.len() as f64);
    let distinct: std::collections::BTreeSet<String> =
        specs.iter().map(SimSpec::warm_key).collect();
    values.insert(
        "core.warmup_distinct_share",
        distinct.len() as f64 / specs.len() as f64,
    );

    // The layers are measured on the streams of the workload's four-core
    // simulations of its first scheme (for the sweep, its 14 baselines).
    let layer_specs: Vec<&SimSpec> = specs
        .iter()
        .filter(|s| s.cores() == 4 && s.scheme == specs[0].scheme)
        .collect();
    correct &= measure_layers(&layer_specs, &last, &mut tracer, &mut values);

    println!(
        "traced passes: {reps}; phase coverage {:.3}",
        values["bench.phase_coverage"]
    );
    println!(
        "{:<34} {:>12} {:>12} {:>9}",
        "span", "total_ms", "self_ms", "calls"
    );
    for (name, t) in tracer.totals() {
        println!(
            "{name:<34} {:>12.3} {:>12.3} {:>9}",
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6,
            t.calls
        );
    }
    if let Some(path) = spans_out {
        if let Err(e) = tracer.write_jsonl(path) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    RunResult {
        correct: correct && checker.failed == 0,
        checker,
        values,
    }
}

/// Measures each layer on `specs`' streams and derives the loop's counts
/// and cost split from the traced simulations `sims`. Returns whether every
/// self-check held.
fn measure_layers(
    specs: &[&SimSpec],
    sims: &[assembly::Traced],
    tracer: &mut Tracer,
    values: &mut BTreeMap<&'static str, f64>,
) -> bool {
    let mut correct = true;
    let sets = specs.len() as u64;

    let (next_op_ns, mem_share) = tracer.span("layers.workloads", |_| {
        layers::workload_gen(specs, 500_000 / sets)
    });
    values.insert("workloads.next_op_ns", next_op_ns);
    values.insert("workloads.mem_op_share", mem_share);

    let replay = tracer.span("layers.cache_sim", |_| {
        layers::cache_replay(specs, (40_000 / sets) as usize)
    });
    for (name, ns) in [
        "cache_sim.access_ns.l1_hit",
        "cache_sim.access_ns.l2_hit",
        "cache_sim.access_ns.miss",
    ]
    .into_iter()
    .zip(replay.access_ns)
    {
        values.insert(name, ns);
    }
    values.insert("cache_sim.l1_hit_ratio", replay.l1_hit_ratio);
    values.insert("cache_sim.l2_hit_ratio", replay.l2_hit_ratio);
    values.insert(
        "cache_sim.writebacks_per_kaccess",
        replay.writebacks_per_kaccess,
    );

    let policy = specs[0].policy;
    let costs = tracer.span("layers.dram_sim", |_| {
        layers::dram_costs(
            |b| dram_sim::DramConfig::paper_baseline(policy, b),
            &replay.requests,
            200_000,
        )
    });
    let costs = costs.unwrap_or_else(|e| {
        eprintln!("perfbench: standalone DRAM feed failed: {e}");
        correct = false;
        Vec::new()
    });
    for (scheme, cost) in &costs {
        values.insert(scheme.idle_metric, cost.idle_ns);
        values.insert(scheme.loaded_metric, cost.loaded_ns);
    }
    values.insert(
        "dram_sim.enqueue_rejects",
        costs.iter().map(|(_, c)| c.rejects as f64).sum(),
    );
    insert_sim_counts(values, sims, &replay.access_ns, &costs);

    match tracer.span("layers.sim_snap", |_| {
        assembly::snapshot_roundtrip(specs[0], 5)
    }) {
        Ok((save, load, bytes)) => {
            values.insert("sim_snap.save_ms", save);
            values.insert("sim_snap.load_ms", load);
            values.insert("sim_snap.bytes", bytes as f64);
        }
        Err(e) => {
            eprintln!("perfbench: snapshot round trip failed: {e}");
            correct = false;
        }
    }

    let (overhead, same) = tracer.span("layers.sim_prof", |_| prof_overhead(specs[0]));
    if !same {
        eprintln!("perfbench: profiling changed a state digest");
        correct = false;
    }
    values.insert("sim_prof.overhead_ratio", overhead);
    values.insert(
        "sim_prof.empty_span_ns",
        layers::prof_empty_span_ns(1_000_000),
    );
    correct
}

/// Simulated counts of the last traced pass and the loop's host cost.
fn insert_sim_counts(
    values: &mut BTreeMap<&'static str, f64>,
    sims: &[assembly::Traced],
    access_ns: &[f64; 3],
    costs: &[(&layers::TickScheme, layers::DramCost)],
) {
    let sum = |f: &dyn Fn(&assembly::Traced) -> f64| sims.iter().map(f).sum::<f64>();
    let dram = |f: &dyn Fn(&dram_sim::DramStats) -> u64| sum(&|s| f(&s.report.dram) as f64);
    let requests = dram(&|d| d.read.total() + d.write.total());
    let mats = dram(&|d| {
        let weighted = d.act_histogram.iter().enumerate();
        weighted.map(|(i, &c)| (i as u64 + 1) * c).sum()
    });
    values.insert(
        "dram_sim.row_hit_ratio",
        ratio(dram(&|d| d.read.hits + d.write.hits), requests),
    );
    values.insert(
        "dram_sim.false_hit_ratio",
        ratio(dram(&|d| d.read.false_hits + d.write.false_hits), requests),
    );
    values.insert(
        "dram_sim.mean_act_mats",
        ratio(mats, dram(&|d| d.activations)),
    );
    values.insert(
        "dram_sim.read_latency_cycles",
        ratio(dram(&|d| d.read_latency_sum), dram(&|d| d.reads_completed)),
    );

    let loop_ns = sum(&|s| s.loop_ns as f64);
    let cpu_cycles = sum(&|s| s.report.cpu_cycles as f64);
    let core_cycles = sum(&|s| (s.report.cpu_cycles * s.report.ipc.len() as u64) as f64);
    let mem_cycles = sum(&|s| s.loop_mem_cycles as f64);
    values.insert("cpu_sim.loop_ns_per_cpu_cycle", ratio(loop_ns, cpu_cycles));
    values.insert(
        "cpu_sim.loop_mem_cycles_per_s",
        ratio(mem_cycles, loop_ns / 1e9),
    );
    for (i, name) in [
        "cpu_sim.stall_cycles.rob",
        "cpu_sim.stall_cycles.ldq",
        "cpu_sim.stall_cycles.store_buffer",
    ]
    .into_iter()
    .enumerate()
    {
        values.insert(name, sum(&|s| s.stalls[i] as f64));
    }
    let stalls = sum(&|s| s.stalls.iter().sum::<u64>() as f64);
    values.insert("cpu_sim.blocked_share", ratio(stalls, core_cycles));

    // An estimate: the loop's time less its memory cycles at the idle tick
    // cost, its requests at their measured extra cost and its cache
    // accesses at their per-level cost. FGA is charged Half-DRAM's costs.
    let others = sum(&|s| {
        let scheme = match s.scheme {
            Scheme::Pra | Scheme::DbiPra => "pra",
            Scheme::HalfDram | Scheme::HalfDramPra | Scheme::Fga => "half_dram",
            Scheme::Baseline | Scheme::Dbi => "baseline",
        };
        let cost = costs
            .iter()
            .find(|(t, _)| t.name == scheme)
            .map(|(_, c)| *c)
            .unwrap_or_default();
        let (d, c) = (&s.report.dram, &s.report.cache);
        let dram = s.loop_mem_cycles as f64 * cost.idle_ns
            + (d.reads_completed + d.writes_completed) as f64 * cost.per_request_ns;
        let cache = c.l1_hits as f64 * access_ns[0]
            + c.l2_hits as f64 * access_ns[1]
            + c.l2_misses as f64 * access_ns[2];
        dram + cache
    });
    values.insert(
        "cpu_sim.self_ns_per_cpu_cycle_est",
        ratio((loop_ns - others).max(0.0), cpu_cycles),
    );
}

/// Recomputes the Figure 12/13 rows from the traced reports and compares
/// them with the untraced rows bit for bit.
fn compare_rows(
    specs: &[SimSpec],
    traced: &[assembly::Traced],
    rows: &[ComparisonRow],
) -> Vec<String> {
    if traced.len() != specs.len() {
        return vec![format!(
            "{} of {} simulations traced",
            traced.len(),
            specs.len()
        )];
    }
    let by_key: BTreeMap<String, &Report> = specs
        .iter()
        .zip(traced)
        .map(|(s, t)| (s.key(), &t.report))
        .collect();
    let alone = |app: &str| -> f64 {
        specs
            .iter()
            .zip(traced)
            .find(|(s, _)| s.cores() == 1 && s.apps[0].name == app)
            .map_or(f64::NAN, |(_, t)| t.report.ipc[0])
    };
    let (instructions, seed) = (specs[0].instructions, specs[0].seed);
    let key = |name: &str, scheme: &str| format_key(name, scheme, 4, instructions, seed);
    let mut out = Vec::new();
    for (name, apps) in workloads::all_workloads() {
        let alone_ipc: Vec<f64> = apps.iter().map(|a| alone(a.name)).collect();
        let ws = |r: &Report| r.weighted_speedup(&alone_ipc).unwrap_or(f64::NAN);
        let Some(base) = by_key.get(&key(&name, Scheme::Baseline.name())) else {
            out.push(format!("{name}: no traced baseline"));
            continue;
        };
        for row in rows.iter().filter(|r| r.workload == name) {
            let Some(r) = by_key.get(&key(&name, &row.scheme)) else {
                out.push(format!("{name}/{}: not traced", row.scheme));
                continue;
            };
            let power = r.power.total() / base.power.total();
            let perf = ws(r) / ws(base);
            if power.to_bits() != row.norm_total_power.to_bits()
                || perf.to_bits() != row.norm_performance.to_bits()
            {
                out.push(format!(
                    "{name}/{}: power {power} vs {}, performance {perf} vs {}",
                    row.scheme, row.norm_total_power, row.norm_performance
                ));
            }
        }
    }
    out
}

/// Profiled over unprofiled wall time of one simulation (capped at 50k
/// instructions per core), medians of three alternating runs, and whether
/// profiling left the state digest alone.
fn prof_overhead(spec: &SimSpec) -> (f64, bool) {
    let spec = SimSpec {
        instructions: spec.instructions.min(50_000),
        ..spec.clone()
    };
    let builder = spec.builder();
    let (mut plain, mut profiled, mut same) = (Vec::new(), Vec::new(), true);
    for _ in 0..3 {
        let (a, t) = timed(|| builder.try_run());
        plain.push(t);
        sim_prof::reset();
        sim_prof::enable();
        let (b, tp) = timed(|| builder.try_run());
        sim_prof::disable();
        sim_prof::reset();
        profiled.push(tp);
        same &= matches!((a, b), (Ok(a), Ok(b)) if a.state_digest() == b.state_digest());
    }
    (ratio(median(&profiled), median(&plain)), same)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arguments_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload membound_mix2 --seed 9 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::MemboundMix2);
        assert_eq!((a.seed, a.seconds, a.trace), (9, 3, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload fig12_sweep --trace 2").is_err());
        assert!(parse("--workload fig12_sweep --seconds 0").is_err());
        assert!(parse("--seed 1").is_err());
    }

    #[test]
    fn tiny_smoke_run_of_each_workload() {
        for w in Workload::ALL {
            let plan = Plan::new(w, Scale::Tiny, 3);
            let r = untraced(&plan, Duration::ZERO);
            assert!(r.correct, "{}: untraced run incorrect", w.name());
            assert_eq!(r.checker.failed, 0);
            assert!(r.checker.attempted >= 1);
            metrics::result_line(true, 1, 0, END_TO_END, &r.values).unwrap();
            assert!(r.values.values().all(|&v| v > 0.0), "{:?}", r.values);

            let t = traced(&plan, Duration::ZERO, None);
            assert!(t.correct, "{}: traced reproduction incorrect", w.name());
            metrics::result_line(true, 1, 0, PER_LAYER, &t.values).unwrap();
            assert!(t.values["bench.phase_coverage"] > 0.5);
        }
    }
}
