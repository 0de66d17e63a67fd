//! Implementation of the `pra` command-line tool: argument parsing and the
//! run/compare/trace/list subcommands. Lives in a library so the logic is
//! unit-testable; `main.rs` is a thin shim.

#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt::Write as _;
use std::str::FromStr;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, PoisonError};

use dram_sim::PagePolicy;
use pra_core::{Report, Scheme, SimBuilder, SimError};
use sim_fault::FaultPlan;
use sim_harness::{load_journal, run_campaign, Campaign, CampaignOptions, RunStatus};
use workloads::Workload;

/// Failure category, mapped one-to-one onto the process exit code so
/// scripts can branch on *why* `pra` failed without parsing messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad options, unknown names, unreadable inputs — exit 2.
    Config,
    /// A protocol or liveness violation stopped a simulation — exit 3.
    Liveness,
    /// A campaign ran to completion but journaled failed, hung or
    /// nondeterministic runs — exit 4.
    CampaignFailures,
}

impl ErrorKind {
    /// The process exit code for this category.
    pub fn exit_code(self) -> i32 {
        match self {
            ErrorKind::Config => 2,
            ErrorKind::Liveness => 3,
            ErrorKind::CampaignFailures => 4,
        }
    }
}

/// Errors surfaced to the user with a non-zero exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// The user-facing message.
    pub message: String,
    /// Which exit code the process should use.
    pub kind: ErrorKind,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        let kind = match &e {
            SimError::Protocol(_) | SimError::Liveness(_) => ErrorKind::Liveness,
            _ => ErrorKind::Config,
        };
        CliError {
            message: e.to_string(),
            kind,
        }
    }
}

fn err(msg: impl Into<String>) -> CliError {
    CliError {
        message: msg.into(),
        kind: ErrorKind::Config,
    }
}

/// Flags that take no value; `--flag` alone sets them.
const BOOLEAN_FLAGS: &[&str] = &["verify-determinism", "recovery"];

/// Parsed `--key value` options plus positional arguments.
#[derive(Debug, Default, Clone)]
pub struct Options {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    flags: HashMap<String, String>,
}

impl Options {
    /// Parses an argument list (after the subcommand).
    ///
    /// # Errors
    ///
    /// Rejects a trailing `--key` with no value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, CliError> {
        let mut out = Options::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            if let Some(key) = arg.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&key) {
                    out.flags.insert(key.to_string(), "true".to_string());
                    continue;
                }
                let value = iter
                    .next()
                    .ok_or_else(|| err(format!("--{key} needs a value")))?;
                out.flags.insert(key.to_string(), value);
            } else {
                out.positional.push(arg);
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// Whether a boolean flag (see [`BOOLEAN_FLAGS`]) was given.
    pub fn get_bool(&self, key: &str) -> bool {
        BOOLEAN_FLAGS.contains(&key) && self.flags.contains_key(key)
    }

    /// A named value (scheme, policy, workload) parsed with its `FromStr`,
    /// with a default.
    ///
    /// # Errors
    ///
    /// The parser's message, which lists the valid names.
    fn get_parsed<T: FromStr<Err = String>>(
        &self,
        key: &str,
        default: &str,
    ) -> Result<T, CliError> {
        self.get(key).unwrap_or(default).parse().map_err(err)
    }

    /// A parsed numeric option with a default.
    ///
    /// # Errors
    ///
    /// Reports unparseable values with the flag name.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.flags.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| err(format!("--{key}: invalid number {v:?}"))),
        }
    }
}

fn build(opts: &Options, scheme: Scheme) -> Result<SimBuilder, CliError> {
    let cores = opts.get_u64("cores", 4)? as usize;
    if cores == 0 || cores > 4 {
        return Err(err(
            "--cores must be 1..=4 (the 8 GB space is split per core)",
        ));
    }
    let workload: Workload = opts.get_parsed("workload", "GUPS")?;
    let policy: PagePolicy = opts.get_parsed("policy", "relaxed")?;
    let mut builder = SimBuilder::new()
        .workload(&workload, cores)
        .scheme(scheme)
        .policy(policy)
        .instructions(opts.get_u64("instructions", 100_000)?)
        .seed(opts.get_u64("seed", 1)?);
    if let Some(w) = opts.get("warmup") {
        let w = w
            .parse()
            .map_err(|_| err(format!("--warmup: invalid number {w:?}")))?;
        builder = builder.warmup_mem_ops(w);
    }
    match opts.get("prefetch") {
        None | Some("off") => {}
        Some("on") => builder = builder.prefetch_next_line(true),
        Some(other) => return Err(err(format!("--prefetch must be on|off, got {other:?}"))),
    }
    if let Some(path) = opts.get("faults") {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read fault plan {path}: {e}")))?;
        let plan = FaultPlan::from_toml_str(&text).map_err(|e| err(format!("{path}: {e}")))?;
        builder = builder.faults(plan);
    }
    if opts.get_bool("recovery") {
        builder = builder.recovery(pra_core::RecoveryConfig::default());
    }
    let no_retire = opts.get_u64("watchdog-no-retire", 0)?;
    let queue_age = opts.get_u64("watchdog-queue-age", 0)?;
    if no_retire > 0 || queue_age > 0 {
        builder = builder.liveness_watchdog(no_retire, queue_age);
    }
    let every = opts.get_u64("checkpoint-every", 0)?;
    if every > 0 {
        builder = builder.checkpoint_every(every);
    }
    if let Some(dir) = opts.get("checkpoint-dir") {
        builder = builder.checkpoint_dir(dir);
    }
    if let Some(snap) = opts.get("restore") {
        builder = builder.restore(snap);
    }
    Ok(builder)
}

fn render_report(report: &Report) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  scheme {}",
        report.workload, report.scheme
    );
    let _ = writeln!(
        out,
        "IPC {:.3} (per core: {})",
        report.ipc_sum(),
        report
            .ipc
            .iter()
            .map(|i| format!("{i:.3}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        out,
        "runtime {:.1} us   energy {:.3} mJ   EDP {:.3e}",
        report.runtime_ns / 1000.0,
        report.energy_mj(),
        report.edp()
    );
    let _ = writeln!(out, "\n{}", report.power);
    let d = &report.dram;
    let _ = writeln!(
        out,
        "\nrow buffer: rd {:.1}% wr {:.1}% hit | false hits rd {} wr {}",
        d.read.hit_rate() * 100.0,
        d.write.hit_rate() * 100.0,
        d.read.false_hits,
        d.write.false_hits
    );
    let p = d.granularity_proportions();
    let _ = writeln!(
        out,
        "activation granularity (1/8..full): {}",
        p.iter()
            .map(|v| format!("{:.1}%", v * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    );
    let f = &report.faults;
    if f.injected > 0 {
        let _ = writeln!(
            out,
            "faults: {} injected ({} mask, {} dropped, {} stretched, {} dirty flips), {} detected, {} degraded to full row",
            f.injected,
            f.masks_corrupted,
            f.commands_dropped,
            f.commands_stretched,
            f.dirty_bits_flipped,
            f.detected,
            f.degraded
        );
    }
    if f.escaped > 0 {
        let _ = writeln!(
            out,
            "parity escapes: {} corrupted masks activated undetected",
            f.escaped
        );
    }
    let r = &report.recovery;
    if r.engaged() {
        let _ = writeln!(
            out,
            "recovery: {} alerts, {} replays, {} recovered, {} exhausted (degraded), {} rows demoted, {} re-promoted",
            r.alerts, r.retries, r.recovered, r.exhausted, r.demotions, r.promotions
        );
    }
    let _ = writeln!(out, "state digest {:016x}", report.state_digest());
    out
}

/// `pra run`: one simulation, full report.
///
/// # Errors
///
/// Propagates option and name resolution errors.
pub fn cmd_run(opts: &Options) -> Result<String, CliError> {
    let scheme: Scheme = opts.get_parsed("scheme", "pra")?;
    let builder = build(opts, scheme)?;
    if opts.get_bool("verify-determinism") {
        let report = builder.try_run()?;
        builder.try_verify(&report)?;
        let mut out = render_report(&report);
        let _ = writeln!(out, "determinism verified: two runs, identical digests");
        Ok(out)
    } else {
        let (report, snap) = builder.try_run_snap()?;
        let mut out = render_report(&report);
        if let Some(cycle) = snap.restored_from_cycle {
            let _ = writeln!(out, "restored from checkpoint at cycle {cycle}");
        }
        if snap.checkpoints_written > 0 {
            let _ = writeln!(
                out,
                "{} checkpoint(s) written, last at cycle {}",
                snap.checkpoints_written,
                snap.last_checkpoint_cycle.unwrap_or(0)
            );
        }
        if snap.write_errors > 0 {
            let _ = writeln!(
                out,
                "warning: {} checkpoint write failure(s); the run continued uncheckpointed",
                snap.write_errors
            );
        }
        Ok(out)
    }
}

/// `pra compare`: every scheme on one workload, normalised table.
///
/// # Errors
///
/// Propagates option and name resolution errors.
pub fn cmd_compare(opts: &Options) -> Result<String, CliError> {
    let schemes = [
        Scheme::Baseline,
        Scheme::Fga,
        Scheme::HalfDram,
        Scheme::Pra,
        Scheme::HalfDramPra,
        Scheme::Dbi,
        Scheme::DbiPra,
    ];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<15} {:>10} {:>9} {:>9} {:>9} {:>9}",
        "scheme", "power mW", "norm", "IPC sum", "energy", "EDP"
    );
    let mut base: Option<Report> = None;
    for scheme in schemes {
        let builder = build(opts, scheme)?;
        let report = builder.try_run()?;
        let (norm_p, norm_e, norm_edp) = match &base {
            Some(b) => (
                report.power.total() / b.power.total(),
                report.energy.total() / b.energy.total(),
                report.edp() / b.edp(),
            ),
            None => (1.0, 1.0, 1.0),
        };
        let _ = writeln!(
            out,
            "{:<15} {:>10.1} {:>9.3} {:>9.2} {:>9.3} {:>9.3}",
            report.scheme,
            report.power.total(),
            norm_p,
            report.ipc_sum(),
            norm_e,
            norm_edp
        );
        if base.is_none() {
            base = Some(report);
        }
    }
    let _ = writeln!(
        out,
        "\n(norm/energy/EDP columns are relative to the baseline row)"
    );
    Ok(out)
}

/// `pra list`: available workloads, schemes and policies.
pub fn cmd_list() -> String {
    let mut out = String::new();
    let _ = writeln!(out, "benchmarks:");
    for b in workloads::all_benchmarks() {
        let _ = writeln!(
            out,
            "  {:<12} {:>3} compute/mem, {:>4.0}% stores, {:>5.2} dirty words/store",
            b.name,
            b.compute_per_mem,
            b.store_fraction * 100.0,
            b.expected_dirty_words()
        );
    }
    let _ = writeln!(out, "mixes:");
    for m in workloads::all_mixes() {
        let names: Vec<&str> = m.apps.iter().map(|a| a.name).collect();
        let _ = writeln!(out, "  {:<6} {}", m.name, names.join(" + "));
    }
    let schemes: Vec<&str> = Scheme::ALL.iter().map(|s| s.cli_name()).collect();
    let _ = writeln!(out, "schemes: {}", schemes.join(", "));
    let policies: Vec<String> = PagePolicy::ALL
        .iter()
        .map(|&p| {
            let default = if p == PagePolicy::default() {
                " (default)"
            } else {
                ""
            };
            format!("{}{default}", p.cli_name())
        })
        .collect();
    let _ = writeln!(out, "policies: {}", policies.join(", "));
    out
}

/// `pra trace <run|record|info>`: event tracing and workload trace tooling.
///
/// # Errors
///
/// Propagates option errors and I/O failures (as messages).
pub fn cmd_trace(opts: &Options) -> Result<String, CliError> {
    match opts.positional.first().map(String::as_str) {
        Some("run") => {
            let scheme: Scheme = opts.get_parsed("scheme", "pra")?;
            let mut builder = build(opts, scheme)?;
            let trace_path = opts
                .get("trace-out")
                .ok_or_else(|| err("trace run needs --trace-out <file>"))?;
            // Validate output paths up front so a bad path is a clean CLI
            // error instead of a panic mid-run.
            std::fs::File::create(trace_path)
                .map_err(|e| err(format!("cannot create {trace_path}: {e}")))?;
            let ring_cap = opts.get_u64("ring", 0)? as usize;
            let ring = if ring_cap > 0 {
                let ring = Arc::new(Mutex::new(sim_obs::RingSink::new(ring_cap)));
                builder = builder.trace_ring(Arc::clone(&ring));
                Some(ring)
            } else {
                builder = builder.trace_out(trace_path);
                None
            };
            let epoch = opts.get_u64("metrics-epoch", 0)?;
            if epoch > 0 {
                builder = builder.metrics_epoch(epoch);
            }
            if let Some(metrics_path) = opts.get("metrics-out") {
                std::fs::File::create(metrics_path)
                    .map_err(|e| err(format!("cannot create {metrics_path}: {e}")))?;
                builder = builder.metrics_out(metrics_path);
            }
            let report = builder.try_run()?;
            let mut out = render_report(&report);
            if let Some(ring) = &ring {
                let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
                let mut text = String::new();
                for ev in ring.events() {
                    ev.write_json(&mut text);
                    text.push('\n');
                }
                std::fs::write(trace_path, &text)
                    .map_err(|e| err(format!("cannot write {trace_path}: {e}")))?;
                let _ = writeln!(
                    out,
                    "\n{} trace events written to {trace_path} (flight recorder, last {} of {} emitted)",
                    ring.events().count(),
                    ring.events().count(),
                    ring.total_emitted()
                );
                if ring.dropped() > 0 {
                    let _ = writeln!(
                        out,
                        "warning: trace ring dropped {} events; \
                         raise --ring or drop it to stream the full trace",
                        ring.dropped()
                    );
                }
            } else {
                let events = std::fs::read_to_string(trace_path)
                    .map(|t| t.lines().count())
                    .unwrap_or(0);
                let _ = writeln!(out, "\n{events} trace events written to {trace_path}");
            }
            if !report.metrics.is_empty() {
                let effective_epoch = if epoch > 0 { epoch } else { 100_000 };
                let _ = writeln!(
                    out,
                    "{} epoch snapshots (epoch {effective_epoch} memory cycles){}",
                    report.metrics.len(),
                    opts.get("metrics-out")
                        .map(|p| format!(", streamed to {p}"))
                        .unwrap_or_default()
                );
            }
            Ok(out)
        }
        Some("record") => {
            let workload: Workload = opts.get_parsed("workload", "GUPS")?;
            let ops = opts.get_u64("ops", 100_000)? as usize;
            let path = opts
                .get("out")
                .ok_or_else(|| err("trace record needs --out <file>"))?;
            let app = workload.apps(1)[0];
            let mut generator = workloads::WorkloadGen::new(app, opts.get_u64("seed", 1)?, 0);
            let trace = workloads::Trace::record(&mut generator, ops);
            let file = std::fs::File::create(path)
                .map_err(|e| err(format!("cannot create {path}: {e}")))?;
            trace
                .save(std::io::BufWriter::new(file))
                .map_err(|e| err(format!("write failed: {e}")))?;
            Ok(format!(
                "recorded {} ops ({} memory ops) of {} to {path}\n",
                trace.len(),
                trace.memory_ops(),
                workload.name()
            ))
        }
        Some("info") => {
            let path = opts
                .positional
                .get(1)
                .ok_or_else(|| err("trace info needs a file argument"))?;
            let file =
                std::fs::File::open(path).map_err(|e| err(format!("cannot open {path}: {e}")))?;
            let trace = workloads::Trace::load(std::io::BufReader::new(file))
                .map_err(|e| err(format!("parse failed: {e}")))?;
            let mut replay = trace.replay();
            let summary = workloads::analysis::analyze(&mut replay, trace.len() as u64);
            Ok(render_summary(path, &summary))
        }
        Some("export-perfetto") => {
            let out_path = opts
                .get("out")
                .ok_or_else(|| err("trace export-perfetto needs --out <file>"))?;
            let mut trace = sim_prof::PerfettoTrace::new();
            let mut out = String::new();
            if let Some(input) = opts.get("in") {
                // Convert mode: an existing JSONL trace becomes per-bank
                // simulated command tracks (no host spans — the run that
                // produced the file is long gone).
                let text = std::fs::read_to_string(input)
                    .map_err(|e| err(format!("cannot read {input}: {e}")))?;
                let (mut parsed, mut skipped) = (0u64, 0u64);
                for line in text.lines() {
                    match sim_obs::TraceEvent::parse_json(line) {
                        Some(ev) => {
                            trace.add_sim_event(&ev);
                            parsed += 1;
                        }
                        None => skipped += 1,
                    }
                }
                let _ = writeln!(out, "converted {parsed} events from {input}");
                if skipped > 0 {
                    let _ = writeln!(out, "{skipped} malformed line(s) skipped");
                }
            } else {
                // Run mode: simulate with a flight-recorder ring and the
                // host-time profiler, then export both clock domains.
                let scheme: Scheme = opts.get_parsed("scheme", "pra")?;
                let mut builder = build(opts, scheme)?;
                let capacity = opts.get_u64("ring", 65_536)? as usize;
                if capacity == 0 {
                    return Err(err("--ring must be positive"));
                }
                let ring = Arc::new(Mutex::new(sim_obs::RingSink::new(capacity)));
                builder = builder.trace_ring(Arc::clone(&ring));
                sim_prof::reset();
                sim_prof::set_timeline_capacity(capacity);
                sim_prof::enable();
                let result = builder.try_run();
                sim_prof::disable();
                let timeline = sim_prof::take_timeline();
                sim_prof::reset();
                sim_prof::set_timeline_capacity(0);
                let report = result?;
                trace.add_host_spans(&timeline.spans);
                let ring = ring.lock().unwrap_or_else(PoisonError::into_inner);
                trace.add_sim_events(ring.events());
                let _ = writeln!(
                    out,
                    "workload {} scheme {}: {} retained sim events, {} host spans",
                    report.workload,
                    report.scheme,
                    ring.events().count(),
                    timeline.spans.len()
                );
                if ring.dropped() > 0 {
                    let _ = writeln!(
                        out,
                        "warning: trace ring dropped {} events; \
                         the timeline shows only the tail of the run — raise --ring to keep more",
                        ring.dropped()
                    );
                }
                if timeline.dropped > 0 {
                    let _ = writeln!(
                        out,
                        "note: {} host spans beyond the timeline capacity were not recorded",
                        timeline.dropped
                    );
                }
            }
            std::fs::write(out_path, trace.to_json())
                .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
            let _ = writeln!(
                out,
                "{} Perfetto events written to {out_path} (open in https://ui.perfetto.dev \
                 or chrome://tracing)",
                trace.event_count()
            );
            Ok(out)
        }
        other => Err(err(format!(
            "trace needs a subcommand (run | record | info | export-perfetto), got {other:?}"
        ))),
    }
}

/// `pra prof run`: one simulation with the host-time profiler enabled,
/// reporting where host time went (`domain.name` spans ranked by self
/// time) alongside the usual report.
///
/// # Errors
///
/// Propagates option and name resolution errors.
pub fn cmd_prof(opts: &Options) -> Result<String, CliError> {
    match opts.positional.first().map(String::as_str) {
        Some("run") => {
            let scheme: Scheme = opts.get_parsed("scheme", "pra")?;
            let builder = build(opts, scheme)?;
            let top = opts.get_u64("top", 10)? as usize;
            sim_prof::reset();
            sim_prof::enable();
            let result = builder.try_run();
            sim_prof::disable();
            let profile = sim_prof::take_report();
            let report = result?;
            let mut out = render_report(&report);
            let mut reg = sim_obs::MetricsRegistry::new();
            profile.publish_to(&mut reg);
            let _ = writeln!(
                out,
                "\nhost-time profile: {} spans, {} calls (top {} by self time)",
                reg.counter_value("prof.spans").unwrap_or(0),
                reg.counter_value("prof.span_calls").unwrap_or(0),
                top.min(profile.spans.len())
            );
            let trimmed = sim_prof::ProfileReport {
                spans: profile.top(top).into_iter().cloned().collect(),
            };
            out.push_str(&trimmed.render());
            Ok(out)
        }
        other => Err(err(format!("prof needs a subcommand (run), got {other:?}"))),
    }
}

fn render_summary(label: &str, s: &workloads::analysis::StreamSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{label}: {} ops = {} compute instructions + {} loads + {} stores",
        s.ops, s.compute_instructions, s.loads, s.stores
    );
    let _ = writeln!(
        out,
        "store fraction {:.1}%   compute/mem {:.1}   dirty words/store {:.2}",
        s.store_fraction() * 100.0,
        s.compute_per_mem(),
        s.avg_dirty_words()
    );
    let _ = writeln!(
        out,
        "footprint {} lines ({:.1} MB)   sequential {:.1}%   reuse {:.1}%",
        s.footprint_lines,
        s.footprint_lines as f64 * 64.0 / 1e6,
        s.sequential_fraction * 100.0,
        s.reuse_fraction * 100.0
    );
    out
}

fn render_journal_report(journal: &str, loaded: &sim_harness::LoadedJournal) -> String {
    let mut out = String::new();
    let count = |status: RunStatus| loaded.records.iter().filter(|r| r.status == status).count();
    let host_nanos: u64 = loaded.records.iter().map(|r| r.host_nanos).sum();
    let _ = writeln!(
        out,
        "{journal}: {} journaled runs ({} ok, {} recovered, {} failed, {} hung), {:.2} s host time",
        loaded.records.len(),
        count(RunStatus::Ok),
        count(RunStatus::Recovered),
        count(RunStatus::Failed),
        count(RunStatus::Hung),
        host_nanos as f64 / 1e9,
    );
    if loaded.dropped_lines > 0 {
        let _ = writeln!(
            out,
            "{} malformed line(s) dropped (their runs will re-execute on resume)",
            loaded.dropped_lines
        );
    }
    // Aggregate DRAM energy across completed runs; journals written before
    // power telemetry existed parse with energy_pj 0 and are skipped.
    let energy_pj: u64 = loaded.records.iter().map(|r| r.energy_pj).sum();
    let completed = count(RunStatus::Ok) + count(RunStatus::Recovered);
    if energy_pj > 0 && completed > 0 {
        let peak_mw = loaded.records.iter().map(|r| r.avg_power_mw).max();
        let _ = writeln!(
            out,
            "dram energy: {:.3} mJ across {} completed run(s), peak per-run average power {} mW",
            energy_pj as f64 / 1e9,
            completed,
            peak_mw.unwrap_or(0),
        );
    }
    // The slowest-runs table; journals written before host timing existed
    // parse with host_nanos 0 and simply rank last.
    let mut by_time: Vec<&sim_harness::JournalRecord> = loaded.records.iter().collect();
    by_time.sort_by_key(|r| std::cmp::Reverse(r.host_nanos));
    by_time.truncate(sim_harness::SLOWEST_KEPT);
    if by_time.first().is_some_and(|r| r.host_nanos > 0) {
        let _ = writeln!(out, "slowest {} runs:", by_time.len());
        for r in by_time {
            let _ = writeln!(out, "{}", r.timing_line());
        }
    }
    for r in &loaded.records {
        if !matches!(r.status, RunStatus::Ok | RunStatus::Recovered) {
            let _ = writeln!(out, "{}", r.failure_lines());
        }
    }
    out
}

/// `pra campaign <run|resume|report>`: batch experiment campaigns over a
/// scheme × workload × seed matrix, with a JSONL journal for resumability.
///
/// `run` executes a matrix file, `resume` continues an interrupted journal
/// (skipping completed runs), `report` summarises a journal without
/// running anything. A campaign that completes but journaled failures
/// returns its summary as a [`ErrorKind::CampaignFailures`] error (exit 4).
///
/// # Errors
///
/// Option/matrix/journal problems as [`ErrorKind::Config`]; journaled run
/// failures as [`ErrorKind::CampaignFailures`].
pub fn cmd_campaign(opts: &Options) -> Result<String, CliError> {
    match opts.positional.first().map(String::as_str) {
        Some(verb @ ("run" | "resume")) => {
            let matrix = opts
                .get("matrix")
                .ok_or_else(|| err(format!("campaign {verb} needs --matrix <file>")))?;
            let text = std::fs::read_to_string(matrix)
                .map_err(|e| err(format!("cannot read campaign matrix {matrix}: {e}")))?;
            let campaign =
                Campaign::from_toml_str(&text).map_err(|e| err(format!("{matrix}: {e}")))?;
            let journal = opts
                .get("journal")
                .ok_or_else(|| err(format!("campaign {verb} needs --journal <file>")))?;
            let options = CampaignOptions {
                jobs: opts.get_u64("jobs", 0)? as usize,
                journal: PathBuf::from(journal),
                resume: verb == "resume",
            };
            let summary = run_campaign(&campaign, &options).map_err(|e| err(e.to_string()))?;
            let rendered = format!("{}\n", summary.render());
            if summary.has_failures() {
                // The campaign itself completed: the summary goes to
                // stdout, the exit code says "with failures".
                Err(CliError {
                    message: rendered,
                    kind: ErrorKind::CampaignFailures,
                })
            } else {
                Ok(rendered)
            }
        }
        Some("report") => {
            let journal = opts
                .get("journal")
                .ok_or_else(|| err("campaign report needs --journal <file>"))?;
            let loaded = load_journal(Path::new(journal))
                .map_err(|e| err(format!("cannot read journal {journal}: {e}")))?;
            Ok(render_journal_report(journal, &loaded))
        }
        other => Err(err(format!(
            "campaign needs a subcommand (run | resume | report), got {other:?}"
        ))),
    }
}

/// `pra analyze`: emergent characteristics of a workload's stream.
///
/// # Errors
///
/// Propagates option and name resolution errors.
pub fn cmd_analyze(opts: &Options) -> Result<String, CliError> {
    let workload: Workload = opts.get_parsed("workload", "GUPS")?;
    let ops = opts.get_u64("ops", 200_000)?;
    let app = workload.apps(1)[0];
    let mut generator = workloads::WorkloadGen::new(app, opts.get_u64("seed", 1)?, 0);
    let summary = workloads::analysis::analyze(&mut generator, ops);
    Ok(render_summary(workload.name(), &summary))
}

/// `pra power run`: one simulation with live power telemetry — an
/// epoch-resolved power-rail table, a streaming-vs-post-hoc energy
/// reconciliation line and a savings line against the baseline scheme.
///
/// # Errors
///
/// Propagates option and name resolution errors.
pub fn cmd_power(opts: &Options) -> Result<String, CliError> {
    match opts.positional.first().map(String::as_str) {
        Some("run") => {}
        other => {
            return Err(err(format!(
                "power needs a subcommand (run), got {other:?}"
            )))
        }
    }
    let scheme: Scheme = opts.get_parsed("scheme", "pra")?;
    let epoch = opts.get_u64("epoch", 20_000)?;
    if epoch == 0 {
        return Err(err("--epoch must be a positive cycle count"));
    }
    let builder = build(opts, scheme)?;
    let report = builder.metrics_epoch(epoch).try_run()?;

    let gauge = |s: &sim_obs::EpochSnapshot, name: &str| -> f64 {
        s.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |&(_, v)| v)
    };
    let counter = |s: &sim_obs::EpochSnapshot, name: &str| -> u64 {
        s.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    };

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {}  scheme {}  epoch {} mem cycles",
        report.workload, report.scheme, epoch
    );
    let _ = writeln!(
        out,
        "\n{:>5} {:>10} {:>9} {:>8} {:>8} {:>8} {:>8} {:>8} {:>9} {:>12}",
        "epoch", "cycles", "act-pre", "rd", "wr", "io", "bg", "ref", "total mW", "energy pJ"
    );
    let mut streamed_pj = 0u64;
    for s in &report.metrics {
        let epoch_pj = counter(s, "energy.total_pj");
        streamed_pj += epoch_pj;
        let _ = writeln!(
            out,
            "{:>5} {:>10} {:>9.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>8.1} {:>9.1} {:>12}",
            s.index,
            s.end_cycle - s.start_cycle,
            gauge(s, "power.act_pre_mw"),
            gauge(s, "power.rd_mw"),
            gauge(s, "power.wr_mw"),
            gauge(s, "power.rd_io_mw") + gauge(s, "power.wr_io_mw"),
            gauge(s, "power.bg_mw"),
            gauge(s, "power.refresh_mw"),
            gauge(s, "power.total_mw"),
            epoch_pj
        );
    }
    let posthoc_pj = report.energy.total().round() as u64;
    let _ = writeln!(
        out,
        "\nstreaming energy {streamed_pj} pJ over {} epochs; post-hoc accounting {posthoc_pj} pJ ({})",
        report.metrics.len(),
        if streamed_pj == posthoc_pj {
            "reconciled"
        } else {
            "MISMATCH"
        }
    );
    let _ = writeln!(
        out,
        "average power {:.1} mW over {:.1} us",
        report.power.total(),
        report.runtime_ns / 1000.0
    );
    if scheme != Scheme::Baseline {
        let base_builder = build(opts, Scheme::Baseline)?;
        let base = base_builder.try_run()?;
        let _ = writeln!(
            out,
            "vs baseline: power {:.1} mW -> {:.1} mW ({:+.1}%), energy {:+.1}%",
            base.power.total(),
            report.power.total(),
            (report.power.total() / base.power.total() - 1.0) * 100.0,
            (report.energy.total() / base.energy.total() - 1.0) * 100.0
        );
    }
    if streamed_pj != posthoc_pj {
        return Err(err(format!(
            "power telemetry reconciliation failed: streamed {streamed_pj} pJ != post-hoc {posthoc_pj} pJ"
        )));
    }
    Ok(out)
}

/// Usage text.
pub fn usage() -> String {
    "pra — Partial Row Activation DRAM simulator\n\
     \n\
     usage:\n\
     \x20 pra run     [--workload NAME] [--scheme S] [--policy P] [--cores N]\n\
     \x20             [--instructions N] [--seed N] [--warmup N]\n\
     \x20             [--faults PLAN.toml] [--recovery] [--verify-determinism]\n\
     \x20             [--watchdog-no-retire N] [--watchdog-queue-age N]\n\
     \x20             [--checkpoint-every N --checkpoint-dir D] [--restore SNAP]\n\
     \x20             inject deterministic faults / run twice and compare digests\n\
     \x20             --recovery arms parity-alert replay with full-row fallback\n\
     \x20             / stop livelocked runs after N quiet memory cycles\n\
     \x20             checkpoint the full simulator state every N memory cycles\n\
     \x20             into D (snap-*.snap), or resume a run from one snapshot;\n\
     \x20             a restored run finishes with the same state digest as an\n\
     \x20             uninterrupted one\n\
     \x20 pra compare [same options]         compare all schemes on one workload\n\
     \x20 pra list                           available workloads/schemes/policies\n\
     \x20 pra campaign run    --matrix M.toml --journal J.jsonl [--jobs N]\n\
     \x20 pra campaign resume --matrix M.toml --journal J.jsonl [--jobs N]\n\
     \x20 pra campaign report --journal J.jsonl\n\
     \x20                run a batch campaign on a worker pool; every run is\n\
     \x20                journaled, panics are isolated, resume skips done runs\n\
     \x20                exit codes: 0 ok, 2 config, 3 protocol/liveness,\n\
     \x20                4 campaign finished with failures\n\
     \x20 pra trace run  [run options] --trace-out FILE [--ring N]\n\
     \x20                [--metrics-epoch N] [--metrics-out FILE]\n\
     \x20                run with JSONL event tracing / epoch metric snapshots;\n\
     \x20                --ring keeps only the last N events (flight recorder)\n\
     \x20                and warns when the ring overflowed\n\
     \x20 pra trace record --workload NAME --ops N --out FILE [--seed N]\n\
     \x20 pra trace info FILE\n\
     \x20 pra trace export-perfetto [run options] --out FILE [--ring N]\n\
     \x20 pra trace export-perfetto --in TRACE.jsonl --out FILE\n\
     \x20                export a Perfetto/chrome://tracing timeline: per-bank\n\
     \x20                DRAM command tracks (row + PRA mats/mask args) plus\n\
     \x20                host-time profiler spans (run mode only)\n\
     \x20 pra power run [run options] [--epoch N]\n\
     \x20                epoch-resolved power rails (mW per component) and\n\
     \x20                energy counters (pJ), a streaming-vs-post-hoc\n\
     \x20                reconciliation check, and savings vs the baseline\n\
     \x20 pra prof run [run options] [--top N]\n\
     \x20                profile where host time goes (span self/total time,\n\
     \x20                call counts) while running one simulation\n"
        .to_string()
}

/// Dispatches a full argument list (without argv[0]).
///
/// # Errors
///
/// Returns a user-facing message for unknown commands or bad options.
pub fn dispatch(args: Vec<String>) -> Result<String, CliError> {
    let Some((command, rest)) = args.split_first() else {
        return Ok(usage());
    };
    let opts = Options::parse(rest.to_vec())?;
    match command.as_str() {
        "run" => cmd_run(&opts),
        "compare" => cmd_compare(&opts),
        "list" => Ok(cmd_list()),
        "trace" => cmd_trace(&opts),
        "power" => cmd_power(&opts),
        "prof" => cmd_prof(&opts),
        "campaign" => cmd_campaign(&opts),
        "analyze" => cmd_analyze(&opts),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(err(format!("unknown command {other:?}\n\n{}", usage()))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type TestResult = Result<(), Box<dyn std::error::Error>>;

    #[test]
    fn options_parse_flags_and_positionals() -> TestResult {
        let o = Options::parse(["record", "--ops", "5", "file.txt"].map(String::from))?;
        assert_eq!(o.positional, vec!["record", "file.txt"]);
        assert_eq!(o.get("ops"), Some("5"));
        assert_eq!(o.get_u64("ops", 0)?, 5);
        assert_eq!(o.get_u64("missing", 7)?, 7);
        Ok(())
    }

    #[test]
    fn options_reject_dangling_flag() {
        assert!(Options::parse(["--seed"].map(String::from)).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() -> TestResult {
        let o = Options::parse(["--verify-determinism", "--seed", "3"].map(String::from))?;
        assert!(o.get_bool("verify-determinism"));
        assert_eq!(o.get_u64("seed", 0)?, 3);
        assert!(!o.get_bool("seed"), "valued flags are not boolean");
        Ok(())
    }

    #[test]
    fn scheme_policy_and_workload_names() -> TestResult {
        let opts = |args: &[&str]| Options::parse(args.iter().map(|a| a.to_string()));
        let mix = opts(&["--workload", "mix3", "--policy", "Open"])?;
        let canonical = opts(&["--workload", "MIX3", "--policy", "open"])?;
        assert_eq!(
            build(&mix, Scheme::Pra)?.config_digest(),
            build(&canonical, Scheme::Pra)?.config_digest()
        );
        for (flag, bad, want) in [
            ("--scheme", "x", "unknown scheme \"x\"; valid: baseline,"),
            ("--policy", "x", "unknown policy \"x\"; valid: relaxed,"),
            ("--workload", "x", "unknown workload \"x\"; valid: bzip2,"),
        ] {
            let e = cmd_run(&opts(&[flag, bad])?).expect_err("bad name must error");
            assert!(e.message.starts_with(want), "{}", e.message);
            assert_eq!(e.kind, ErrorKind::Config);
        }
        Ok(())
    }

    #[test]
    fn run_command_end_to_end() -> TestResult {
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
            ]
            .map(String::from),
        )?;
        let out = cmd_run(&opts)?;
        assert!(out.contains("scheme PRA"), "{out}");
        assert!(out.contains("ACT-PRE"), "{out}");
        assert!(out.contains("state digest"), "{out}");
        Ok(())
    }

    #[test]
    fn power_run_renders_rails_and_reconciles() -> TestResult {
        let opts = Options::parse(
            [
                "run",
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
                "--epoch",
                "10000",
            ]
            .map(String::from),
        )?;
        let out = cmd_power(&opts)?;
        assert!(out.contains("total mW"), "{out}");
        assert!(out.contains("energy pJ"), "{out}");
        assert!(out.contains("reconciled"), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        assert!(out.contains("vs baseline:"), "{out}");
        Ok(())
    }

    #[test]
    fn power_needs_a_subcommand() -> TestResult {
        let opts = Options::parse(Vec::<String>::new())?;
        let e = cmd_power(&opts).expect_err("bare power must be rejected");
        assert!(e.message.contains("power needs a subcommand"), "{e}");
        Ok(())
    }

    #[test]
    fn verify_determinism_runs_twice_and_passes() -> TestResult {
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--cores",
                "1",
                "--instructions",
                "2000",
                "--verify-determinism",
            ]
            .map(String::from),
        )?;
        let out = cmd_run(&opts)?;
        assert!(out.contains("determinism verified"), "{out}");
        Ok(())
    }

    #[test]
    fn fault_plan_file_drives_injection() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let plan = dir.join("plan.toml");
        std::fs::write(
            &plan,
            "[faults]\nseed = 7\nmask_corrupt_rate = 1.0\ncommand_drop_rate = 0.1\n",
        )?;
        let path = plan.to_str().ok_or("non-utf8 temp path")?;
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--faults",
                path,
                "--verify-determinism",
            ]
            .map(String::from),
        )?;
        let out = cmd_run(&opts)?;
        assert!(out.contains("faults:"), "{out}");
        assert!(out.contains("determinism verified"), "{out}");
        std::fs::remove_file(plan).ok();
        Ok(())
    }

    #[test]
    fn recovery_flag_reports_replay_counters() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let plan = dir.join("recovery-plan.toml");
        std::fs::write(
            &plan,
            "[faults]\nseed = 9\nmask_corrupt_rate = 0.5\npersistent_rate = 0.1\n",
        )?;
        let path = plan.to_str().ok_or("non-utf8 temp path")?;
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--faults",
                path,
                "--recovery",
                "--verify-determinism",
            ]
            .map(String::from),
        )?;
        let out = cmd_run(&opts)?;
        assert!(out.contains("recovery:"), "{out}");
        assert!(out.contains("alerts"), "{out}");
        assert!(out.contains("determinism verified"), "{out}");
        std::fs::remove_file(plan).ok();
        Ok(())
    }

    #[test]
    fn bad_fault_plan_is_a_clean_error() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let plan = dir.join("bad-plan.toml");
        std::fs::write(&plan, "mask_corrupt_rate = 2.0\n")?;
        let path = plan.to_str().ok_or("non-utf8 temp path")?;
        let opts = Options::parse(["--faults", path].map(String::from))?;
        let e = cmd_run(&opts).expect_err("out-of-range rate must be rejected");
        assert!(e.message.contains("invalid fault plan"), "{e}");
        assert_eq!(e.kind.exit_code(), 2);
        let missing = Options::parse(["--faults", "/no/such/plan.toml"].map(String::from))?;
        let e = cmd_run(&missing).expect_err("missing plan file must be rejected");
        assert!(e.message.contains("cannot read fault plan"), "{e}");
        std::fs::remove_file(plan).ok();
        Ok(())
    }

    #[test]
    fn trace_record_and_info_roundtrip() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("t.trace");
        let path_str = path.to_str().ok_or("non-utf8 temp path")?;
        let record = Options::parse(
            [
                "record",
                "--workload",
                "gups",
                "--ops",
                "200",
                "--out",
                path_str,
            ]
            .map(String::from),
        )?;
        let out = cmd_trace(&record)?;
        assert!(out.contains("recorded 200 ops"), "{out}");
        let info = Options::parse(["info".to_string(), path_str.to_string()])?;
        let out = cmd_trace(&info)?;
        assert!(out.contains("200 ops"), "{out}");
        std::fs::remove_file(path).ok();
        Ok(())
    }

    #[test]
    fn trace_run_writes_event_log_and_snapshots() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let trace = dir.join("run.jsonl");
        let metrics = dir.join("metrics.jsonl");
        let opts = Options::parse(
            [
                "run",
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
                "--trace-out",
                trace.to_str().ok_or("non-utf8 temp path")?,
                "--metrics-epoch",
                "500",
                "--metrics-out",
                metrics.to_str().ok_or("non-utf8 temp path")?,
            ]
            .map(String::from),
        )?;
        let out = cmd_trace(&opts)?;
        assert!(out.contains("trace events written"), "{out}");
        assert!(
            out.contains("epoch snapshots (epoch 500 memory cycles)"),
            "{out}"
        );
        let text = std::fs::read_to_string(&trace)?;
        assert!(text.lines().count() > 0);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(std::fs::read_to_string(&metrics)?.contains("dram.activations"));
        std::fs::remove_file(trace).ok();
        std::fs::remove_file(metrics).ok();
        Ok(())
    }

    #[test]
    fn trace_run_ring_mode_warns_on_overflow() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let trace = dir.join("ring.jsonl");
        let opts = Options::parse(
            [
                "run",
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
                "--ring",
                "16",
                "--trace-out",
                trace.to_str().ok_or("non-utf8 temp path")?,
            ]
            .map(String::from),
        )?;
        let out = cmd_trace(&opts)?;
        assert!(out.contains("flight recorder"), "{out}");
        assert!(
            out.contains("warning: trace ring dropped"),
            "a 16-event ring must overflow: {out}"
        );
        assert!(out.contains("raise --ring"), "{out}");
        let text = std::fs::read_to_string(&trace)?;
        assert_eq!(text.lines().count(), 16, "the file holds the retained tail");
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        std::fs::remove_file(trace).ok();
        Ok(())
    }

    #[test]
    fn trace_export_perfetto_run_mode_combines_clock_domains() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join("timeline.json");
        let opts = Options::parse(
            [
                "export-perfetto",
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
                "--out",
                path.to_str().ok_or("non-utf8 temp path")?,
            ]
            .map(String::from),
        )?;
        let out = cmd_trace(&opts)?;
        assert!(out.contains("Perfetto events written"), "{out}");
        let json = std::fs::read_to_string(&path)?;
        assert!(json.starts_with("{\"traceEvents\":["), "{}", &json[..60]);
        // Simulated per-bank command tracks with activation args. (Reads
        // activate full rows even under PRA — the partial-activation arg
        // rendering itself is covered by the convert-mode test below.)
        assert!(
            json.contains("\"name\":\"ACT\""),
            "activation events present"
        );
        assert!(
            json.contains("\"mats\":"),
            "activation args carry mat count"
        );
        assert!(
            json.contains("\"mask\":"),
            "activation args carry word mask"
        );
        assert!(json.contains("rank0/bank"), "per-bank track names");
        // ...alongside host-time profiler spans.
        assert!(json.contains("\"name\":\"sim.run\""), "host spans present");
        assert!(json.contains("host profiler"), "host process named");
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced JSON"
        );
        std::fs::remove_file(path).ok();
        Ok(())
    }

    #[test]
    fn trace_export_perfetto_converts_existing_jsonl() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let input = dir.join("convert-in.jsonl");
        let output = dir.join("convert-out.json");
        std::fs::write(
            &input,
            "{\"kind\":\"PARTIAL_ACT\",\"cycle\":42,\"ch\":0,\"rank\":0,\"bank\":3,\
             \"row\":77,\"mats\":4,\"mask\":15}\n\
             {\"kind\":\"RD\",\"cycle\":50,\"ch\":0,\"rank\":0,\"bank\":3,\"row\":77}\n\
             not json at all\n",
        )?;
        let opts = Options::parse(
            [
                "export-perfetto",
                "--in",
                input.to_str().ok_or("non-utf8 temp path")?,
                "--out",
                output.to_str().ok_or("non-utf8 temp path")?,
            ]
            .map(String::from),
        )?;
        let out = cmd_trace(&opts)?;
        assert!(out.contains("converted 2 events"), "{out}");
        assert!(out.contains("1 malformed line(s) skipped"), "{out}");
        let json = std::fs::read_to_string(&output)?;
        assert!(json.contains("\"row\":77,\"mats\":4,\"mask\":15"), "{json}");
        std::fs::remove_file(input).ok();
        std::fs::remove_file(output).ok();
        Ok(())
    }

    #[test]
    fn prof_run_reports_span_table() -> TestResult {
        let opts = Options::parse(
            [
                "run",
                "--workload",
                "gups",
                "--scheme",
                "pra",
                "--cores",
                "1",
                "--instructions",
                "5000",
                "--warmup",
                "20000",
                "--top",
                "2",
            ]
            .map(String::from),
        )?;
        let out = cmd_prof(&opts)?;
        assert!(out.contains("state digest"), "{out}");
        assert!(out.contains("host-time profile"), "{out}");
        // --top 2 trims the table to a header plus two data rows. The spans
        // are the two phases plus, with the protocol checker on,
        // `dram.checker`, a small part of the run phase.
        let rows: Vec<&str> = out
            .lines()
            .skip_while(|l| !l.starts_with("span"))
            .skip(1)
            .filter(|l| !l.trim().is_empty())
            .collect();
        assert_eq!(rows.len(), 2, "{out}");
        assert!(rows.iter().any(|l| l.contains("sim.run")), "{out}");
        Ok(())
    }

    #[test]
    fn dispatch_unknown_command_errors() -> TestResult {
        let e = dispatch(vec!["frobnicate".into()]).expect_err("unknown command must error");
        assert!(e.message.contains("unknown command"));
        assert_eq!(e.kind, ErrorKind::Config);
        assert!(dispatch(vec![])?.contains("usage"));
        Ok(())
    }

    #[test]
    fn tight_watchdog_maps_to_the_liveness_exit_code() -> TestResult {
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--cores",
                "1",
                "--instructions",
                "2000",
                "--watchdog-no-retire",
                "20",
            ]
            .map(String::from),
        )?;
        let e = cmd_run(&opts).expect_err("a 20-cycle bound must trip");
        assert_eq!(e.kind, ErrorKind::Liveness);
        assert_eq!(e.kind.exit_code(), 3);
        assert!(e.message.contains("liveness violation"), "{e}");
        Ok(())
    }

    #[test]
    fn campaign_run_report_and_failure_exit_code() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-test");
        std::fs::create_dir_all(&dir)?;
        let matrix = dir.join("campaign.toml");
        std::fs::write(
            &matrix,
            "[campaign]\nschemes = [\"baseline\"]\nworkloads = [\"GUPS\"]\nseeds = [1, 2]\n\
             instructions = 300\nwarmup = 1000\ninclude_hang_fixture = true\n",
        )?;
        let journal = dir.join("campaign.jsonl");
        let _ = std::fs::remove_file(&journal);
        let args = |verb: &str| {
            Options::parse(
                [
                    verb,
                    "--matrix",
                    matrix.to_str().unwrap(),
                    "--journal",
                    journal.to_str().unwrap(),
                    "--jobs",
                    "2",
                ]
                .map(String::from),
            )
        };
        // The hang fixture makes the campaign "complete with failures".
        let e = cmd_campaign(&args("run")?).expect_err("hang fixture must surface as exit 4");
        assert_eq!(e.kind, ErrorKind::CampaignFailures);
        assert_eq!(e.kind.exit_code(), 4);
        assert!(e.message.contains("3 runs"), "{e}");
        assert!(e.message.contains("1 hung"), "{e}");
        assert!(e.message.contains("repro:"), "{e}");
        assert!(e.message.contains("host time:"), "{e}");
        assert!(e.message.contains("slowest 3 runs:"), "{e}");
        assert!(e.message.contains("cycles/s"), "{e}");
        // Resume skips everything journaled — including the hung run — so
        // it exits clean.
        let out = cmd_campaign(&args("resume")?)?;
        assert!(out.contains("3 skipped"), "{out}");
        // Report reads the journal without running anything.
        let report = cmd_campaign(&Options::parse(
            ["report", "--journal", journal.to_str().unwrap()].map(String::from),
        )?)?;
        assert!(report.contains("3 journaled runs"), "{report}");
        assert!(report.contains("1 hung"), "{report}");
        assert!(report.contains("repro:"), "{report}");
        assert!(report.contains("s host time"), "{report}");
        assert!(report.contains("slowest 3 runs:"), "{report}");
        // Resume without a journal is a plain config error.
        let _ = std::fs::remove_file(&journal);
        let e = cmd_campaign(&args("resume")?).expect_err("resume needs a journal");
        assert_eq!(e.kind, ErrorKind::Config);
        assert!(e.message.contains("cannot resume"), "{e}");
        std::fs::remove_file(matrix).ok();
        Ok(())
    }

    #[test]
    fn every_journaled_repro_line_reproduces_its_state_digest() -> TestResult {
        // A benchmark on two cores and on one, and a mix: `pra run` of each
        // journaled repro line must end on the journaled state digest.
        let dir = std::env::temp_dir().join("pra-cli-repro-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let mut records = Vec::new();
        for (cores, workloads) in [(2, "\"GUPS\", \"MIX2\""), (1, "\"GUPS\"")] {
            let campaign = Campaign::from_toml_str(&format!(
                "schemes = [\"pra\"]\nworkloads = [{workloads}]\nseeds = [1]\ncores = {cores}\n\
                 instructions = 3000\nwarmup = 2000\n"
            ))?;
            let journal = dir.join(format!("cores{cores}.jsonl"));
            let options = CampaignOptions {
                jobs: 1,
                journal: journal.clone(),
                resume: false,
            };
            run_campaign(&campaign, &options)?;
            records.extend(load_journal(&journal)?.records);
        }
        assert_eq!(records.len(), 3);
        for record in records {
            let digest = record.state_digest.ok_or("the run did not complete")?;
            let args = record
                .repro
                .strip_prefix("pra run ")
                .ok_or("the repro line is not a `pra run`")?;
            let out = cmd_run(&Options::parse(args.split_whitespace().map(String::from))?)?;
            assert!(
                out.contains(&format!("state digest {digest:016x}")),
                "{}:\n{out}",
                record.repro
            );
        }
        std::fs::remove_dir_all(&dir).ok();
        Ok(())
    }

    #[test]
    fn run_checkpoint_restore_digest_identity() -> TestResult {
        let dir = std::env::temp_dir().join("pra-cli-snap-test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        let snap_dir = dir.join("snaps");
        let base = [
            "--workload",
            "gups",
            "--scheme",
            "pra",
            "--cores",
            "1",
            "--instructions",
            "6000",
            "--warmup",
            "60000",
        ]
        .map(String::from);

        // Reference: uninterrupted run.
        let reference = cmd_run(&Options::parse(base.clone())?)?;
        let digest_line = |out: &str| -> String {
            out.lines()
                .find(|l| l.starts_with("state digest"))
                .unwrap_or_default()
                .to_string()
        };

        // Checkpointing run: same workload, must checkpoint and match.
        let mut with_ckpt = base.to_vec();
        with_ckpt.extend(
            [
                "--checkpoint-every",
                "1000",
                "--checkpoint-dir",
                snap_dir.to_str().ok_or("non-utf8 temp path")?,
            ]
            .map(String::from),
        );
        let out = cmd_run(&Options::parse(with_ckpt)?)?;
        assert!(out.contains("checkpoint(s) written"), "{out}");
        assert_eq!(digest_line(&out), digest_line(&reference), "{out}");

        // Restore from the newest snapshot and finish: digest identical.
        let mut snaps: Vec<PathBuf> = std::fs::read_dir(&snap_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        snaps.sort();
        let last = snaps.last().ok_or("no snapshots written")?;
        let mut with_restore = base.to_vec();
        with_restore.extend([
            "--restore".to_string(),
            last.to_str().ok_or("bad path")?.to_string(),
        ]);
        let out = cmd_run(&Options::parse(with_restore)?)?;
        assert!(out.contains("restored from checkpoint at cycle"), "{out}");
        assert_eq!(digest_line(&out), digest_line(&reference), "{out}");

        // Restoring under a different configuration is a config error.
        let mut wrong = base.to_vec();
        wrong[3] = "baseline".to_string();
        wrong.extend([
            "--restore".to_string(),
            last.to_str().ok_or("bad path")?.to_string(),
        ]);
        let e = cmd_run(&Options::parse(wrong)?).expect_err("config mismatch must be rejected");
        assert_eq!(e.kind.exit_code(), 2);
        assert!(e.message.contains("cannot restore"), "{e}");

        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }

    #[test]
    fn half_configured_checkpointing_is_exit_2() -> TestResult {
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--cores",
                "1",
                "--instructions",
                "1000",
                "--checkpoint-every",
                "5000",
            ]
            .map(String::from),
        )?;
        let e = cmd_run(&opts).expect_err("interval without directory must be rejected");
        assert_eq!(e.kind, ErrorKind::Config);
        assert_eq!(e.kind.exit_code(), 2);
        assert!(e.message.contains("checkpoint"), "{e}");
        Ok(())
    }

    #[test]
    fn restoring_a_missing_snapshot_is_exit_2() -> TestResult {
        let opts = Options::parse(
            [
                "--workload",
                "gups",
                "--cores",
                "1",
                "--instructions",
                "1000",
                "--restore",
                "/no/such/file.snap",
            ]
            .map(String::from),
        )?;
        let e = cmd_run(&opts).expect_err("missing snapshot must be rejected");
        assert_eq!(e.kind.exit_code(), 2);
        assert!(e.message.contains("cannot restore"), "{e}");
        Ok(())
    }

    #[test]
    fn list_names_everything() {
        let out = cmd_list();
        for name in ["bzip2", "GUPS", "MIX6", "half-dram-pra", "restricted"] {
            assert!(out.contains(name), "missing {name} in\n{out}");
        }
    }
}
