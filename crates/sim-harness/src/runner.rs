//! The panic-isolated parallel campaign executor.

use std::collections::VecDeque;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

use pra_core::{Report, SimBuilder, SimError, SnapOutcome};
use sim_obs::MetricsRegistry;

use crate::digest::config_digest;
use crate::journal::{load_journal, JournalRecord, JournalWriter, LoadedJournal, RunStatus};
use crate::matrix::{Campaign, Fixture, RunSpec};

/// Error starting or finishing a campaign (the individual runs inside it
/// never error the campaign — they journal as failed/hung instead).
#[derive(Debug)]
pub struct HarnessError(String);

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign: {}", self.0)
    }
}

impl std::error::Error for HarnessError {}

fn harness_err(msg: impl Into<String>) -> HarnessError {
    HarnessError(msg.into())
}

/// How to execute a campaign.
#[derive(Debug, Clone)]
pub struct CampaignOptions {
    /// Worker threads; 0 means one per available CPU.
    pub jobs: usize,
    /// Journal path (created when missing unless `resume` is set).
    pub journal: PathBuf,
    /// Resume mode: the journal must already exist, and journaled
    /// (config, seed) pairs are skipped. A plain run against an existing
    /// journal also skips completed pairs — resume merely refuses to start
    /// from scratch by accident.
    pub resume: bool,
}

/// One failed or hung run, with everything needed to triage it.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// Final status ([`RunStatus::Failed`] or [`RunStatus::Hung`]).
    pub status: RunStatus,
    /// Scheme name.
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Workload RNG seed.
    pub seed: u64,
    /// Config digest (seed excluded), the journal's resume key.
    pub config_digest: u64,
    /// Panic payload, liveness trail or error message.
    pub detail: String,
    /// Copy-pasteable reproduction command.
    pub repro: String,
}

/// Host timing of one executed run, kept for the "slowest runs" trail.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// Scheme name.
    pub scheme: String,
    /// Workload name.
    pub workload: String,
    /// Workload RNG seed.
    pub seed: u64,
    /// Final status.
    pub status: RunStatus,
    /// Host wall-clock nanoseconds the run took.
    pub host_nanos: u64,
    /// CPU cycles the run simulated (0 for failed/hung runs).
    pub cycles: u64,
}

impl RunTiming {
    /// Simulated CPU cycles per host second (0 when nothing was timed).
    pub fn cycles_per_sec(&self) -> f64 {
        if self.host_nanos == 0 {
            return 0.0;
        }
        self.cycles as f64 * 1e9 / self.host_nanos as f64
    }
}

/// Slowest runs kept in the summary trail.
pub const SLOWEST_KEPT: usize = 5;

/// What a campaign did: counters, failures and the per-run metrics.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Runs in the expanded matrix.
    pub total: usize,
    /// Runs that completed with a report and no recovery activity.
    pub ok: usize,
    /// Runs that completed, but only via the recovery pipeline (at least
    /// one parity alert was replayed or degraded). Success, not failure.
    pub recovered: usize,
    /// Runs that panicked or errored.
    pub failed: usize,
    /// Runs a liveness watchdog (or the protocol checker) stopped.
    pub hung: usize,
    /// Runs skipped because the journal already had their key.
    pub skipped: usize,
    /// Runs executed twice for the determinism spot-check.
    pub determinism_checked: usize,
    /// Spot-checked runs whose two state digests differed.
    pub determinism_mismatches: usize,
    /// Runs that completed after restoring from a mid-run checkpoint (a
    /// previous attempt was killed or failed after making progress).
    pub resumed: usize,
    /// Wall-clock duration of the execution phase, in milliseconds.
    pub elapsed_ms: u64,
    /// Worker threads used.
    pub jobs: usize,
    /// Every failed or hung run, in completion order.
    pub failures: Vec<RunFailure>,
    /// The [`SLOWEST_KEPT`] slowest executed runs by host time, slowest
    /// first.
    pub slowest: Vec<RunTiming>,
    /// Campaign counters and the per-run cycle histogram.
    pub metrics: MetricsRegistry,
}

impl CampaignSummary {
    /// `true` when at least one run failed, hung or mismatched — the
    /// condition behind the CLI's campaign-with-failures exit code.
    pub fn has_failures(&self) -> bool {
        self.failed > 0 || self.hung > 0 || self.determinism_mismatches > 0
    }

    /// Renders the human-readable campaign report.
    pub fn render(&self) -> String {
        let mut out = format!(
            "campaign: {} runs ({} ok, {} recovered, {} failed, {} hung, {} skipped) in {} ms on {} worker{}",
            self.total,
            self.ok,
            self.recovered,
            self.failed,
            self.hung,
            self.skipped,
            self.elapsed_ms,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
        );
        if self.determinism_checked > 0 {
            out.push_str(&format!(
                "\ndeterminism: {} spot-checked, {} mismatch{}",
                self.determinism_checked,
                self.determinism_mismatches,
                if self.determinism_mismatches == 1 {
                    ""
                } else {
                    "es"
                },
            ));
        }
        if self.resumed > 0 {
            out.push_str(&format!(
                "\ncheckpoint recovery: {} run{} resumed from a mid-run snapshot",
                self.resumed,
                if self.resumed == 1 { "" } else { "s" },
            ));
        }
        if let Some(skipped_lines) = self.metrics.counter_value("campaign.journal_skipped_lines") {
            if skipped_lines > 0 {
                out.push_str(&format!(
                    "\njournal: {skipped_lines} malformed line{} skipped \
                     (campaign.journal_skipped_lines={skipped_lines})",
                    if skipped_lines == 1 { "" } else { "s" },
                ));
            }
        }
        if let Some(hist) = self.metrics.histogram_value("campaign.run_cycles") {
            if hist.count() > 0 {
                out.push_str(&format!(
                    "\nrun cycles: p50 {} p95 {} max {}",
                    hist.p50(),
                    hist.p95(),
                    hist.max()
                ));
            }
        }
        let executed = self.ok + self.recovered + self.failed + self.hung;
        if let Some(energy_pj) = self.metrics.counter_value("campaign.energy_pj") {
            let completed = self.ok + self.recovered;
            if energy_pj > 0 && completed > 0 {
                out.push_str(&format!(
                    "\ndram energy: {:.3} mJ across {} completed run{}",
                    energy_pj as f64 / 1e9,
                    completed,
                    if completed == 1 { "" } else { "s" },
                ));
            }
        }
        if let Some(host_nanos) = self.metrics.counter_value("campaign.host_nanos") {
            if host_nanos > 0 {
                out.push_str(&format!(
                    "\nhost time: {:.2} s of simulation across {} executed run{}",
                    host_nanos as f64 / 1e9,
                    executed,
                    if executed == 1 { "" } else { "s" },
                ));
            }
        }
        if !self.slowest.is_empty() {
            out.push_str(&format!("\nslowest {} runs:", self.slowest.len()));
            for t in &self.slowest {
                out.push_str(&format!(
                    "\n  {:>9.3} s  [{}] {}/{} seed {} ({:.0} cycles/s)",
                    t.host_nanos as f64 / 1e9,
                    t.status,
                    t.scheme,
                    t.workload,
                    t.seed,
                    t.cycles_per_sec(),
                ));
            }
        }
        for failure in &self.failures {
            out.push_str(&format!(
                "\n[{}] {}/{} seed {} (config {:016x}): {}\n  repro: {}",
                failure.status,
                failure.scheme,
                failure.workload,
                failure.seed,
                failure.config_digest,
                failure.detail,
                failure.repro,
            ));
        }
        out
    }
}

/// Builds the simulator for one spec and runs it (optionally twice, for
/// the determinism spot-check). Runs on a worker thread inside
/// `catch_unwind`; panics (including the synthetic fixture's) unwind to
/// the isolation boundary in [`execute_spec`].
///
/// With checkpointing configured, the run writes snapshots into the spec's
/// private subdirectory and — when a previous attempt (killed campaign,
/// failed run) left a valid snapshot behind — restores from the newest one
/// instead of repeating the simulated prefix. The restore contract
/// guarantees the final state digest is unchanged either way.
fn run_spec(spec: &RunSpec, verify: bool) -> Result<(Report, SnapOutcome), SimError> {
    if spec.fixture == Fixture::Panic {
        panic!(
            "synthetic panic fixture: poisoned configuration for {}",
            spec.workload
        );
    }
    let mut builder = SimBuilder::new()
        .scheme(spec.scheme)
        .policy(spec.policy)
        .instructions(spec.instructions)
        .seed(spec.seed)
        .warmup_mem_ops(spec.warmup)
        .liveness_watchdog(spec.watchdog_no_retire, spec.watchdog_queue_age);
    let workload: workloads::Workload = spec
        .workload
        .parse()
        .unwrap_or_else(|_| panic!("workload {:?} vanished after validation", spec.workload));
    builder = match workload {
        workloads::Workload::Mix(mix) => builder.name(mix.name).mix(mix.apps),
        workloads::Workload::Bench(profile) => builder.homogeneous(profile, spec.cores),
    };
    if let Some(path) = &spec.fault_plan {
        let text = std::fs::read_to_string(path).map_err(|e| SimError::Io {
            path: PathBuf::from(path),
            source: e,
        })?;
        let plan = sim_fault::FaultPlan::from_toml_str(&text)?;
        builder = builder.faults(plan);
    }
    if spec.recovery {
        builder = builder.recovery(pra_core::RecoveryConfig::default());
    }
    if let Some(subdir) = spec.checkpoint_subdir() {
        builder = builder
            .checkpoint_every(spec.checkpoint_every)
            .checkpoint_dir(&subdir);
        // Torn or mismatched snapshots are skipped by latest_valid; the
        // run simply starts further back (or from cycle 0).
        if let Ok(Some(found)) = sim_snap::latest_valid(&subdir, Some(builder.config_digest())) {
            builder = builder.restore(found.path);
        }
    }
    let (report, snap) = builder.try_run_snap()?;
    if verify {
        let (second, _) = builder.try_run_snap()?;
        let (a, b) = (report.state_digest(), second.state_digest());
        if a != b {
            return Err(SimError::Nondeterministic {
                first: a,
                second: b,
            });
        }
    }
    Ok((report, snap))
}

/// The cycle of the newest valid snapshot in the spec's checkpoint
/// subdirectory, or `None` when checkpointing is off or no valid snapshot
/// exists. Used to detect whether a failed attempt made checkpoint
/// progress (and a retry is therefore worth starting).
fn newest_checkpoint_cycle(spec: &RunSpec) -> Option<u64> {
    let subdir = spec.checkpoint_subdir()?;
    sim_snap::latest_valid(&subdir, None)
        .ok()
        .flatten()
        .map(|found| found.header.cycle)
}

fn panic_payload(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The raw result of one attempt: panic payload or simulation outcome.
type AttemptOutcome =
    Result<Result<(Report, SnapOutcome), SimError>, Box<dyn std::any::Any + Send>>;

/// Classifies one attempt's outcome into the journal record. Returns
/// whether the attempt exposed a determinism mismatch.
fn classify_attempt(record: &mut JournalRecord, outcome: AttemptOutcome) -> bool {
    match outcome {
        Ok(Ok((report, snap))) => {
            // A completed run that needed the recovery pipeline is journaled
            // distinctly so fault campaigns can assert it engaged.
            record.status = if report.recovery.engaged() {
                RunStatus::Recovered
            } else {
                RunStatus::Ok
            };
            record.cycles = report.cpu_cycles;
            record.energy_pj = report.energy.total().round() as u64;
            record.avg_power_mw = report.power.total().round() as u64;
            record.resumed_from_cycle = snap.restored_from_cycle.unwrap_or(0);
            record.state_digest = Some(report.state_digest());
            record.detail = String::new();
            false
        }
        Ok(Err(e @ (SimError::Liveness(_) | SimError::Protocol(_)))) => {
            record.status = RunStatus::Hung;
            record.detail = e.to_string();
            false
        }
        Ok(Err(e)) => {
            record.status = RunStatus::Failed;
            record.detail = e.to_string();
            matches!(e, SimError::Nondeterministic { .. })
        }
        Err(payload) => {
            record.status = RunStatus::Failed;
            record.detail = format!("panicked: {}", panic_payload(payload));
            false
        }
    }
}

/// Executes one spec behind the panic-isolation boundary and classifies
/// the outcome into a journal record. Never panics, never errors.
///
/// With checkpointing configured, a failed or hung attempt that made
/// checkpoint progress (its newest valid snapshot advanced past whatever
/// was on disk before the attempt) is retried exactly once; the retry
/// restores from that snapshot instead of starting over. Deterministic
/// failures fail again quickly — the retry resumes just before the failure
/// point — while host-level flukes (and runs re-executed after a killed
/// campaign) complete with `resumed_from_cycle` journaled.
fn execute_spec(spec: &RunSpec, verify: bool) -> (JournalRecord, bool) {
    let digest = config_digest(spec);
    let mut record = JournalRecord {
        config_digest: digest,
        seed: spec.seed,
        status: RunStatus::Failed,
        scheme: spec.scheme.name().to_string(),
        workload: spec.workload.clone(),
        cycles: 0,
        host_nanos: 0,
        energy_pj: 0,
        avg_power_mw: 0,
        resumed_from_cycle: 0,
        state_digest: None,
        detail: String::new(),
        repro: spec.repro_line(),
    };
    #[expect(
        clippy::disallowed_methods,
        reason = "the host time of one run is journaled as host_nanos and never fed into simulator state"
    )]
    let started = Instant::now();
    let before = newest_checkpoint_cycle(spec);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_spec(spec, verify)));
    let mut mismatch = classify_attempt(&mut record, outcome);
    if !matches!(record.status, RunStatus::Ok | RunStatus::Recovered)
        && newest_checkpoint_cycle(spec) > before
    {
        let first_detail = std::mem::take(&mut record.detail);
        let retry = catch_unwind(AssertUnwindSafe(|| run_spec(spec, verify)));
        mismatch = classify_attempt(&mut record, retry);
        if !matches!(record.status, RunStatus::Ok | RunStatus::Recovered) {
            record.detail = format!(
                "{} (retry from checkpoint; first attempt: {first_detail})",
                record.detail
            );
        }
    }
    record.host_nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (record, mismatch)
}

/// Expands the campaign, skips journaled runs, and executes the rest on a
/// worker pool, journaling each result as it lands.
///
/// # Errors
///
/// [`HarnessError`] when the matrix is inconsistent, resume is requested
/// without an existing journal, or the journal cannot be read or written.
/// Individual run failures do *not* error — they are journaled and
/// reported in the summary (see [`CampaignSummary::has_failures`]).
pub fn run_campaign(
    campaign: &Campaign,
    options: &CampaignOptions,
) -> Result<CampaignSummary, HarnessError> {
    campaign
        .validate()
        .map_err(|e| harness_err(e.to_string()))?;
    let specs = campaign.expand();

    let journal_exists = options.journal.exists();
    if options.resume && !journal_exists {
        return Err(harness_err(format!(
            "cannot resume: journal {} does not exist (use `campaign run` to start one)",
            options.journal.display()
        )));
    }
    let loaded = if journal_exists {
        load_journal(&options.journal)
            .map_err(|e| harness_err(format!("reading {}: {e}", options.journal.display())))?
    } else {
        LoadedJournal::default()
    };
    if options.resume {
        // Refuse to resume against a journal another campaign wrote: every
        // journaled config digest must be producible by the re-expanded
        // matrix, else "skip completed runs" would silently skip runs of a
        // *different* experiment.
        let expected: std::collections::HashSet<u64> = specs.iter().map(config_digest).collect();
        if let Some(alien) = loaded
            .records
            .iter()
            .find(|r| !expected.contains(&r.config_digest))
        {
            return Err(harness_err(format!(
                "cannot resume: journal {} was written by a different campaign — \
                 record {}/{} seed {} has config digest {:016x}, which the \
                 re-expanded matrix does not produce (did the matrix file change?)",
                options.journal.display(),
                alien.scheme,
                alien.workload,
                alien.seed,
                alien.config_digest,
            )));
        }
    }
    let completed = loaded.completed_keys();

    let mut todo: Vec<(RunSpec, bool)> = Vec::new();
    let mut skipped = 0usize;
    for spec in &specs {
        if completed.contains(&(config_digest(spec), spec.seed)) {
            skipped += 1;
        } else {
            let sample = campaign.determinism_sample;
            let verify = sample > 0
                && spec.fixture == Fixture::None
                && (todo.len() as u64 + 1).is_multiple_of(sample);
            todo.push((spec.clone(), verify));
        }
    }

    let mut writer = JournalWriter::open_append(&options.journal)
        .map_err(|e| harness_err(format!("opening {}: {e}", options.journal.display())))?;

    let jobs = if options.jobs == 0 {
        std::thread::available_parallelism().map_or(1, usize::from)
    } else {
        options.jobs
    }
    .min(todo.len().max(1));

    let mut summary = CampaignSummary {
        total: specs.len(),
        ok: 0,
        recovered: 0,
        failed: 0,
        hung: 0,
        skipped,
        determinism_checked: todo.iter().filter(|(_, v)| *v).count(),
        determinism_mismatches: 0,
        resumed: 0,
        elapsed_ms: 0,
        jobs,
        failures: Vec::new(),
        slowest: Vec::new(),
        metrics: MetricsRegistry::new(),
    };
    let ok_id = summary.metrics.counter("campaign.runs_ok");
    let recovered_id = summary.metrics.counter("campaign.runs_recovered");
    let failed_id = summary.metrics.counter("campaign.runs_failed");
    let hung_id = summary.metrics.counter("campaign.runs_hung");
    let skipped_id = summary.metrics.counter("campaign.runs_skipped");
    let mismatch_id = summary.metrics.counter("campaign.determinism_mismatches");
    let host_id = summary.metrics.counter("campaign.host_nanos");
    let energy_id = summary.metrics.counter("campaign.energy_pj");
    let resumed_id = summary.metrics.counter("campaign.runs_resumed");
    let journal_skipped_id = summary.metrics.counter("campaign.journal_skipped_lines");
    let cycles_id = summary.metrics.histogram("campaign.run_cycles");
    summary.metrics.add(skipped_id, skipped as u64);
    summary
        .metrics
        .add(journal_skipped_id, loaded.dropped_lines as u64);

    #[expect(
        clippy::disallowed_methods,
        reason = "campaign wall time is reported to the user, never fed into simulator state"
    )]
    let started = Instant::now();
    let pending = todo.len();
    let queue = Mutex::new(todo.into_iter().collect::<VecDeque<_>>());
    let (tx, rx) = mpsc::channel::<(JournalRecord, bool)>();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let tx = tx.clone();
            let queue = &queue;
            scope.spawn(move || loop {
                let job = queue.lock().map(|mut q| q.pop_front());
                match job {
                    Ok(Some((spec, verify))) => {
                        if tx.send(execute_spec(&spec, verify)).is_err() {
                            return;
                        }
                    }
                    // Queue empty or poisoned (a sibling panicked while
                    // holding the lock — impossible with pop_front alone,
                    // but stop cleanly rather than spin).
                    _ => return,
                }
            });
        }
        drop(tx);
        for done in 1..=pending {
            let Ok((record, mismatch)) = rx.recv() else {
                break;
            };
            match record.status {
                RunStatus::Ok => {
                    summary.ok += 1;
                    summary.metrics.add(ok_id, 1);
                    summary.metrics.observe(cycles_id, record.cycles);
                }
                RunStatus::Recovered => {
                    summary.recovered += 1;
                    summary.metrics.add(recovered_id, 1);
                    summary.metrics.observe(cycles_id, record.cycles);
                }
                RunStatus::Failed => {
                    summary.failed += 1;
                    summary.metrics.add(failed_id, 1);
                }
                RunStatus::Hung => {
                    summary.hung += 1;
                    summary.metrics.add(hung_id, 1);
                }
            }
            if mismatch {
                summary.determinism_mismatches += 1;
                summary.metrics.add(mismatch_id, 1);
            }
            if record.resumed_from_cycle > 0 {
                summary.resumed += 1;
                summary.metrics.add(resumed_id, 1);
            }
            summary.metrics.add(host_id, record.host_nanos);
            summary.metrics.add(energy_id, record.energy_pj);
            let timing = RunTiming {
                scheme: record.scheme.clone(),
                workload: record.workload.clone(),
                seed: record.seed,
                status: record.status,
                host_nanos: record.host_nanos,
                cycles: record.cycles,
            };
            // Per-run heartbeat, so a long campaign is observable while it
            // runs (stderr: the report itself goes to stdout).
            eprintln!(
                "[campaign {done}/{pending}] {}/{} seed {}: {} in {:.2} s ({:.0} cycles/s) | {} ok {} recovered {} failed {} hung",
                timing.scheme,
                timing.workload,
                timing.seed,
                timing.status,
                timing.host_nanos as f64 / 1e9,
                timing.cycles_per_sec(),
                summary.ok,
                summary.recovered,
                summary.failed,
                summary.hung,
            );
            summary.slowest.push(timing);
            summary
                .slowest
                .sort_by_key(|t| std::cmp::Reverse(t.host_nanos));
            summary.slowest.truncate(SLOWEST_KEPT);
            if !matches!(record.status, RunStatus::Ok | RunStatus::Recovered) {
                summary.failures.push(RunFailure {
                    status: record.status,
                    scheme: record.scheme.clone(),
                    workload: record.workload.clone(),
                    seed: record.seed,
                    config_digest: record.config_digest,
                    detail: record.detail.clone(),
                    repro: record.repro.clone(),
                });
            }
            if let Err(e) = writer.append(&record) {
                return Err(harness_err(format!(
                    "writing {}: {e}",
                    options.journal.display()
                )));
            }
        }
        Ok(())
    })?;
    summary.elapsed_ms = started.elapsed().as_millis() as u64;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_core::Scheme;

    fn tiny_spec(fixture: Fixture) -> RunSpec {
        RunSpec {
            scheme: Scheme::Baseline,
            workload: "GUPS".to_string(),
            policy: dram_sim::PagePolicy::RelaxedClosePage,
            cores: 1,
            instructions: 300,
            warmup: 1_000,
            seed: 1,
            watchdog_no_retire: if fixture == Fixture::Hang { 20 } else { 0 },
            watchdog_queue_age: 0,
            fault_plan: None,
            recovery: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            fixture,
        }
    }

    /// A fresh (pre-cleaned) checkpoint root for one test.
    fn snap_root(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("sim_harness_snap_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn panic_fixture_is_isolated_and_classified_failed() {
        let (record, mismatch) = execute_spec(&tiny_spec(Fixture::Panic), false);
        assert_eq!(record.status, RunStatus::Failed);
        assert!(
            record.detail.contains("synthetic panic fixture"),
            "{}",
            record.detail
        );
        assert!(record.repro.starts_with('#'));
        assert!(!mismatch);
    }

    #[test]
    fn hang_fixture_is_classified_hung_with_trail() {
        let (record, _) = execute_spec(&tiny_spec(Fixture::Hang), false);
        assert_eq!(record.status, RunStatus::Hung);
        assert!(
            record.detail.contains("liveness violation"),
            "{}",
            record.detail
        );
        assert!(
            record.repro.contains("--watchdog-no-retire 20"),
            "{}",
            record.repro
        );
    }

    #[test]
    fn normal_spec_reports_cycles_and_digest() {
        let (record, _) = execute_spec(&tiny_spec(Fixture::None), true);
        assert_eq!(record.status, RunStatus::Ok, "{}", record.detail);
        assert!(record.cycles > 0);
        assert!(record.state_digest.is_some());
        assert!(record.detail.is_empty());
    }

    #[test]
    fn faulted_run_with_recovery_classifies_recovered() {
        let dir = std::env::temp_dir().join("sim_harness_recovery_test");
        std::fs::create_dir_all(&dir).unwrap();
        let plan = dir.join("storm.toml");
        std::fs::write(
            &plan,
            "[faults]\nseed = 4\nmask_corrupt_rate = 0.5\ncommand_drop_rate = 0.1\n\
             persistent_rate = 0.1\ntransient_burst_len = 2\n",
        )
        .unwrap();
        let mut spec = tiny_spec(Fixture::None);
        spec.scheme = Scheme::Pra;
        spec.instructions = 3_000;
        spec.fault_plan = Some(plan.to_str().unwrap().to_string());
        spec.recovery = true;
        let (record, mismatch) = execute_spec(&spec, true);
        assert_eq!(record.status, RunStatus::Recovered, "{}", record.detail);
        assert!(!mismatch, "recovery must stay digest-deterministic");
        assert!(record.state_digest.is_some());
        assert!(record.repro.ends_with("--recovery"), "{}", record.repro);
        // Same spec without recovery still completes (legacy degrade path)
        // and journals plain ok.
        spec.recovery = false;
        let (record, _) = execute_spec(&spec, false);
        assert_eq!(record.status, RunStatus::Ok, "{}", record.detail);
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn missing_fault_plan_file_fails_cleanly() {
        let mut spec = tiny_spec(Fixture::None);
        spec.fault_plan = Some("/no/such/plan.toml".to_string());
        let (record, _) = execute_spec(&spec, false);
        assert_eq!(record.status, RunStatus::Failed);
        assert!(
            record.detail.contains("/no/such/plan.toml"),
            "{}",
            record.detail
        );
        assert!(record.repro.contains("--faults /no/such/plan.toml"));
    }

    #[test]
    fn reexecuted_run_resumes_from_leftover_checkpoints_with_identical_digest() {
        // Models a campaign killed after this run's checkpoints hit disk
        // but before its journal record did: the run re-executes, finds its
        // own snapshots, resumes mid-flight, and must finish bit-identical.
        let root = snap_root("reexec");
        let mut spec = tiny_spec(Fixture::None);
        spec.instructions = 4_000;
        spec.warmup = 2_000;
        spec.checkpoint_every = 300;
        spec.checkpoint_dir = Some(root.to_str().unwrap().to_string());
        let (first, _) = execute_spec(&spec, false);
        assert_eq!(first.status, RunStatus::Ok, "{}", first.detail);
        assert_eq!(first.resumed_from_cycle, 0, "first run starts at cycle 0");
        let subdir = spec.checkpoint_subdir().unwrap();
        assert!(
            std::fs::read_dir(&subdir).unwrap().count() > 0,
            "checkpoints must have been written"
        );
        let (second, _) = execute_spec(&spec, false);
        assert_eq!(second.status, RunStatus::Ok, "{}", second.detail);
        assert!(
            second.resumed_from_cycle > 0,
            "re-execution must resume from a snapshot"
        );
        assert_eq!(
            second.state_digest, first.state_digest,
            "a resumed run must finish bit-identical to an uninterrupted one"
        );
        assert!(
            second.repro.contains("--checkpoint-every 300"),
            "{}",
            second.repro
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn failed_run_without_checkpoint_progress_is_not_retried() {
        // The fault-plan file is missing, so the attempt fails before
        // simulating anything: no checkpoint progress, no retry — the
        // detail carries a single failure, not a retry trail.
        let root = snap_root("noretry");
        let mut spec = tiny_spec(Fixture::None);
        spec.fault_plan = Some("/no/such/plan.toml".to_string());
        spec.checkpoint_every = 300;
        spec.checkpoint_dir = Some(root.to_str().unwrap().to_string());
        let (record, _) = execute_spec(&spec, false);
        assert_eq!(record.status, RunStatus::Failed);
        assert!(
            !record.detail.contains("retry from checkpoint"),
            "{}",
            record.detail
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn hung_run_with_checkpoint_progress_is_retried_once_from_snapshot() {
        // A 20-cycle no-retire watchdog trips shortly into the measured
        // phase, after the 10-cycle checkpoint cadence has written at least
        // one snapshot. The retry resumes from it, deterministically hangs
        // again, and the detail records both attempts.
        let root = snap_root("hungretry");
        let mut spec = tiny_spec(Fixture::Hang);
        spec.checkpoint_every = 10;
        spec.checkpoint_dir = Some(root.to_str().unwrap().to_string());
        let (record, _) = execute_spec(&spec, false);
        assert_eq!(record.status, RunStatus::Hung, "{}", record.detail);
        assert!(
            record.detail.contains("retry from checkpoint"),
            "progress was made, so a retry must have happened: {}",
            record.detail
        );
        assert!(
            record.detail.contains("first attempt:"),
            "{}",
            record.detail
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn campaign_with_checkpointing_survives_and_resumes() {
        let root = snap_root("campaign");
        let journal = root.join("journal.jsonl");
        let matrix = format!(
            "schemes = [\"baseline\", \"pra\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\n\
             instructions = 4000\nwarmup = 2000\ncheckpoint_every = 300\n\
             checkpoint_dir = \"{}\"\n",
            root.join("snaps").display()
        );
        let campaign = Campaign::from_toml_str(&matrix).unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: false,
        };
        let summary = run_campaign(&campaign, &options).unwrap();
        assert_eq!(summary.ok, 2, "{}", summary.render());
        assert_eq!(summary.resumed, 0, "fresh runs start at cycle 0");
        // Drop one journal record (as if the campaign died before writing
        // it); its checkpoints remain. The resumed campaign re-executes
        // exactly that run, restoring mid-flight.
        let text = std::fs::read_to_string(&journal).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        let dropped_line = lines.pop().unwrap().to_string();
        let dropped = JournalRecord::parse(&dropped_line).unwrap();
        std::fs::write(&journal, format!("{}\n", lines.join("\n"))).unwrap();
        let resume_options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: true,
        };
        let summary = run_campaign(&campaign, &resume_options).unwrap();
        assert_eq!(summary.skipped, 1, "{}", summary.render());
        assert_eq!(summary.ok, 1, "{}", summary.render());
        assert_eq!(summary.resumed, 1, "{}", summary.render());
        assert!(
            summary
                .render()
                .contains("checkpoint recovery: 1 run resumed"),
            "{}",
            summary.render()
        );
        // The re-executed run's digest matches the killed attempt's.
        let reloaded = load_journal(&journal).unwrap();
        let rerun = reloaded
            .records
            .iter()
            .find(|r| r.key() == dropped.key())
            .unwrap();
        assert!(rerun.resumed_from_cycle > 0);
        assert_eq!(rerun.state_digest, dropped.state_digest);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_campaign() {
        let root = snap_root("alienresume");
        let journal = root.join("journal.jsonl");
        let matrix_a = "schemes = [\"baseline\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\n\
                        instructions = 300\nwarmup = 1000\n";
        let campaign_a = Campaign::from_toml_str(matrix_a).unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: false,
        };
        run_campaign(&campaign_a, &options).unwrap();
        // Same journal, different instruction count: every journaled digest
        // is now alien to the re-expanded matrix.
        let matrix_b = matrix_a.replace("instructions = 300", "instructions = 500");
        let campaign_b = Campaign::from_toml_str(&matrix_b).unwrap();
        let resume_options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: true,
        };
        let e = run_campaign(&campaign_b, &resume_options).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");
        assert!(e.to_string().contains("config digest"), "{e}");
        // The original campaign still resumes cleanly (everything skipped).
        let summary = run_campaign(&campaign_a, &resume_options).unwrap();
        assert_eq!(summary.skipped, 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_journal_lines_are_counted_in_campaign_metrics() {
        let root = snap_root("skiplines");
        let journal = root.join("journal.jsonl");
        std::fs::write(&journal, "this is not a journal line\n{\"torn\":\n").unwrap();
        let campaign = Campaign::from_toml_str(
            "schemes = [\"baseline\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\n\
             instructions = 300\nwarmup = 1000\n",
        )
        .unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: true,
        };
        let summary = run_campaign(&campaign, &options).unwrap();
        assert_eq!(
            summary
                .metrics
                .counter_value("campaign.journal_skipped_lines"),
            Some(2),
            "{}",
            summary.render()
        );
        assert!(
            summary.render().contains("2 malformed lines skipped"),
            "{}",
            summary.render()
        );
        assert_eq!(summary.ok, 1, "the run itself executes normally");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_without_journal_is_an_error() {
        let campaign = Campaign::from_toml_str(
            "schemes = [\"baseline\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\n",
        )
        .unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: std::env::temp_dir().join("sim_harness_no_such_journal.jsonl"),
            resume: true,
        };
        let e = run_campaign(&campaign, &options).unwrap_err();
        assert!(e.to_string().contains("cannot resume"), "{e}");
    }
}
