//! The panic-isolated parallel campaign executor.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use pra_core::experiments::run_pool;
use pra_core::{Report, SimError, SnapOutcome, WarmSlot};
use sim_obs::MetricsRegistry;

use crate::journal::{load_journal, JournalRecord, JournalWriter, LoadedJournal, RunStatus};
use crate::matrix::{Campaign, Job};

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
    /// Resume mode: the journal must already exist, and journaled runs
    /// (by config digest) are skipped. A plain run against an existing
    /// journal also skips completed runs — resume merely refuses to start
    /// from scratch by accident.
    pub resume: bool,
}

/// Slowest runs kept in the summary trail.
pub const SLOWEST_KEPT: usize = 5;

/// What a campaign did: counters, failures and the per-run metrics.
#[derive(Debug, Default)]
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
    /// Cold warm-ups the workers' warm slots did (the spot-check's cold
    /// second runs are not counted); every other run forked one.
    pub warmups: usize,
    /// Every failed or hung run, in completion order.
    pub failures: Vec<JournalRecord>,
    /// The [`SLOWEST_KEPT`] slowest executed runs by host time, slowest
    /// first.
    pub slowest: Vec<JournalRecord>,
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
            "campaign: {} runs ({} ok, {} recovered, {} failed, {} hung, {} skipped) in {} ms on {} worker{}, {} warm-up{}",
            self.total,
            self.ok,
            self.recovered,
            self.failed,
            self.hung,
            self.skipped,
            self.elapsed_ms,
            self.jobs,
            if self.jobs == 1 { "" } else { "s" },
            self.warmups,
            if self.warmups == 1 { "" } else { "s" },
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
            for record in &self.slowest {
                out.push('\n');
                out.push_str(&record.timing_line());
            }
        }
        for record in &self.failures {
            out.push('\n');
            out.push_str(&record.failure_lines());
        }
        out
    }
}

/// Runs one job from the worker's warm slot (for the determinism
/// spot-check, once more warmed up cold). Runs inside `catch_unwind`;
/// panics (including the synthetic fixture's) unwind to the isolation
/// boundary in [`execute_job`].
///
/// With checkpointing configured, the run writes snapshots into the job's
/// private directory and — when a previous attempt (killed campaign, failed
/// run) left a valid snapshot behind — restores from the newest one instead
/// of repeating the simulated prefix. The restore contract guarantees the
/// final state digest is unchanged either way.
fn run_job(
    job: &Job,
    verify: bool,
    slot: &mut WarmSlot,
) -> Result<(Report, SnapOutcome), SimError> {
    if job.panics {
        panic!(
            "synthetic panic fixture: poisoned configuration for {}",
            job.record.workload
        );
    }
    let mut builder = job.builder.clone();
    if let Some(dir) = &job.checkpoints {
        // Torn or mismatched snapshots are skipped by latest_valid; the
        // run simply starts further back (or from cycle 0).
        if let Ok(Some(found)) = sim_snap::latest_valid(dir, Some(job.record.config_digest)) {
            builder = builder.restore(found.path);
        }
    }
    let (report, snap) = builder.try_run_warm(slot)?;
    if verify {
        builder.try_verify(&report)?;
    }
    Ok((report, snap))
}

/// The cycle of the newest valid snapshot in the job's checkpoint
/// directory, or `None` when checkpointing is off or no valid snapshot
/// exists. Used to detect whether a failed attempt made checkpoint
/// progress (and a retry is therefore worth starting).
fn newest_checkpoint_cycle(job: &Job) -> Option<u64> {
    let dir = job.checkpoints.as_ref()?;
    sim_snap::latest_valid(dir, None)
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

/// Executes one job behind the panic-isolation boundary and classifies
/// the outcome into a journal record. Never panics, never errors.
///
/// With checkpointing configured, a failed or hung attempt that made
/// checkpoint progress (its newest valid snapshot advanced past whatever
/// was on disk before the attempt) is retried exactly once; the retry
/// restores from that snapshot instead of starting over. Deterministic
/// failures fail again quickly — the retry resumes just before the failure
/// point — while host-level flukes (and runs re-executed after a killed
/// campaign) complete with `resumed_from_cycle` journaled.
fn execute_job(job: &Job, verify: bool, slot: &mut WarmSlot) -> (JournalRecord, bool) {
    let mut record = job.record.clone();
    #[expect(
        clippy::disallowed_methods,
        reason = "the host time of one run is journaled as host_nanos and never fed into simulator state"
    )]
    let started = Instant::now();
    let before = newest_checkpoint_cycle(job);
    let outcome = catch_unwind(AssertUnwindSafe(|| run_job(job, verify, slot)));
    let mut mismatch = classify_attempt(&mut record, outcome);
    if !matches!(record.status, RunStatus::Ok | RunStatus::Recovered)
        && newest_checkpoint_cycle(job) > before
    {
        let first_detail = std::mem::take(&mut record.detail);
        let retry = catch_unwind(AssertUnwindSafe(|| run_job(job, verify, slot)));
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

/// Expands the campaign, skips journaled runs, and executes the rest on
/// [`run_pool`], journaling each result as it lands.
///
/// # Errors
///
/// [`HarnessError`] when the matrix is inconsistent, a fault-plan file
/// cannot be read or parsed, resume is requested without an existing
/// journal, the journal holds a run this matrix does not produce, or the
/// journal cannot be read or written.
/// Individual run failures do *not* error — they are journaled and
/// reported in the summary (see [`CampaignSummary::has_failures`]).
pub fn run_campaign(
    campaign: &Campaign,
    options: &CampaignOptions,
) -> Result<CampaignSummary, HarnessError> {
    let jobs = campaign.expand().map_err(|e| harness_err(e.to_string()))?;
    let total = jobs.len();

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
    // Refuse a journal another campaign (or an older journal format)
    // wrote, whether resuming or running: every journaled config digest
    // must be producible by the expanded matrix. Otherwise "skip completed
    // runs" would silently skip runs of a *different* experiment, and a
    // fresh run would append to a journal no later resume accepts.
    let expected: std::collections::HashSet<u64> =
        jobs.iter().map(|j| j.record.config_digest).collect();
    if let Some(alien) = loaded
        .records
        .iter()
        .find(|r| !expected.contains(&r.config_digest))
    {
        return Err(harness_err(format!(
            "cannot {}: journal {} was written by a different campaign — \
             record {}/{} seed {} has config digest {:016x}, which the \
             expanded matrix does not produce (did the matrix file change, \
             or does the journal predate the current journal format, which \
             keys each run on the simulator's config digest?)",
            if options.resume { "resume" } else { "run" },
            options.journal.display(),
            alien.scheme,
            alien.workload,
            alien.seed,
            alien.config_digest,
        )));
    }
    let completed = loaded.completed_keys();

    let mut todo: Vec<(Job, bool)> = Vec::new();
    for job in jobs {
        if !completed.contains(&job.record.config_digest) {
            let sample = campaign.determinism_sample;
            let verify =
                sample > 0 && !job.panics && (todo.len() as u64 + 1).is_multiple_of(sample);
            todo.push((job, verify));
        }
    }

    let mut writer = JournalWriter::open_append(&options.journal)
        .map_err(|e| harness_err(format!("opening {}: {e}", options.journal.display())))?;

    let mut summary = CampaignSummary {
        total,
        skipped: total - todo.len(),
        determinism_checked: todo.iter().filter(|(_, v)| *v).count(),
        ..CampaignSummary::default()
    };
    let cycles_id = summary.metrics.histogram("campaign.run_cycles");
    let (mut host_nanos, mut energy_pj) = (0, 0);

    #[expect(
        clippy::disallowed_methods,
        reason = "campaign wall time is reported to the user, never fed into simulator state"
    )]
    let started = Instant::now();
    let pending = todo.len();
    let mut slot = WarmSlot::default();
    let record_done = |_: &(Job, bool), (record, mismatch): (JournalRecord, bool)| {
        let count = match record.status {
            RunStatus::Ok => &mut summary.ok,
            RunStatus::Recovered => &mut summary.recovered,
            RunStatus::Failed => &mut summary.failed,
            RunStatus::Hung => &mut summary.hung,
        };
        *count += 1;
        if matches!(record.status, RunStatus::Ok | RunStatus::Recovered) {
            summary.metrics.observe(cycles_id, record.cycles);
        } else {
            summary.failures.push(record.clone());
        }
        summary.determinism_mismatches += usize::from(mismatch);
        summary.resumed += usize::from(record.resumed_from_cycle > 0);
        host_nanos += record.host_nanos;
        energy_pj += record.energy_pj;
        // Per-run heartbeat, so a long campaign is observable while it
        // runs (stderr: the report itself goes to stdout).
        eprintln!(
            "[campaign {}/{pending}] {}/{} seed {}: {} in {:.2} s ({:.0} cycles/s) | {} ok {} recovered {} failed {} hung",
            summary.ok + summary.recovered + summary.failed + summary.hung,
            record.scheme,
            record.workload,
            record.seed,
            record.status,
            record.host_nanos as f64 / 1e9,
            record.cycles_per_sec(),
            summary.ok,
            summary.recovered,
            summary.failed,
            summary.hung,
        );
        summary.slowest.push(record.clone());
        summary
            .slowest
            .sort_by_key(|r| std::cmp::Reverse(r.host_nanos));
        summary.slowest.truncate(SLOWEST_KEPT);
        writer
            .append(&record)
            .map_err(|e| harness_err(format!("writing {}: {e}", options.journal.display())))
    };
    summary.jobs = run_pool(
        &todo,
        |(job, _)| &job.builder,
        options.jobs,
        &mut slot,
        |(job, verify), slot| execute_job(job, *verify, slot),
        record_done,
    )?;
    summary.elapsed_ms = started.elapsed().as_millis() as u64;
    summary.warmups = slot.warmups();
    for (name, value) in [
        ("campaign.runs_ok", summary.ok as u64),
        ("campaign.runs_recovered", summary.recovered as u64),
        ("campaign.runs_failed", summary.failed as u64),
        ("campaign.runs_hung", summary.hung as u64),
        ("campaign.runs_skipped", summary.skipped as u64),
        (
            "campaign.determinism_mismatches",
            summary.determinism_mismatches as u64,
        ),
        ("campaign.runs_resumed", summary.resumed as u64),
        (
            "campaign.journal_skipped_lines",
            loaded.dropped_lines as u64,
        ),
        ("campaign.warmups", summary.warmups as u64),
        ("campaign.host_nanos", host_nanos),
        ("campaign.energy_pj", energy_pj),
    ] {
        let id = summary.metrics.counter(name);
        summary.metrics.add(id, value);
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;

    const TINY: &str = "schemes = [\"baseline\"]\nworkloads = [\"GUPS\"]\nseeds = [1]\n\
                        instructions = 300\nwarmup = 1000\nwatchdog_no_retire = 0\n";

    /// The last job of the tiny matrix plus `extra` lines (the fixtures
    /// come last when enabled).
    fn tiny_job(extra: &str) -> Job {
        let campaign = Campaign::from_toml_str(&format!("{TINY}{extra}")).unwrap();
        campaign.expand().unwrap().pop().unwrap()
    }

    /// [`execute_job`] from a fresh warm slot: a cold warm-up.
    fn execute_cold(job: &Job, verify: bool) -> (JournalRecord, bool) {
        execute_job(job, verify, &mut WarmSlot::default())
    }

    /// `checkpoint_every` and `checkpoint_dir` lines for a checkpoint root.
    fn checkpointing(every: u64, root: &std::path::Path) -> String {
        format!(
            "checkpoint_every = {every}\ncheckpoint_dir = \"{}\"\n",
            root.display()
        )
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
        let (record, mismatch) = execute_cold(&tiny_job("include_panic_fixture = true\n"), false);
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
        let (record, _) = execute_cold(&tiny_job("include_hang_fixture = true\n"), false);
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
    fn normal_job_reports_cycles_and_digest() {
        let (record, _) = execute_cold(&tiny_job(""), true);
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
        // Later lines override the tiny matrix's; the faulted cell comes
        // after the bare one.
        let faulted = |recovery: bool| {
            tiny_job(&format!(
                "schemes = [\"pra\"]\ninstructions = 3000\nfault_plans = [\"{}\"]\n\
                 recovery = {recovery}\n",
                plan.display()
            ))
        };
        let job = faulted(true);
        let (record, mismatch) = execute_cold(&job, true);
        assert_eq!(record.status, RunStatus::Recovered, "{}", record.detail);
        assert!(!mismatch, "recovery must stay digest-deterministic");
        assert!(record.state_digest.is_some());
        assert!(record.repro.ends_with("--recovery"), "{}", record.repro);
        // The same run without recovery still completes (legacy degrade
        // path) and journals plain ok.
        let (record, _) = execute_cold(&faulted(false), false);
        assert_eq!(record.status, RunStatus::Ok, "{}", record.detail);
        std::fs::remove_file(&plan).ok();
    }

    #[test]
    fn reexecuted_run_resumes_from_leftover_checkpoints_with_identical_digest() {
        // Models a campaign killed after this run's checkpoints hit disk
        // but before its journal record did: the run re-executes, finds its
        // own snapshots, resumes mid-flight, and must finish bit-identical.
        let root = snap_root("reexec");
        let job = tiny_job(&format!(
            "instructions = 4000\nwarmup = 2000\n{}",
            checkpointing(300, &root)
        ));
        let (first, _) = execute_cold(&job, false);
        assert_eq!(first.status, RunStatus::Ok, "{}", first.detail);
        assert_eq!(first.resumed_from_cycle, 0, "first run starts at cycle 0");
        let subdir = job.checkpoints.clone().unwrap();
        assert!(
            std::fs::read_dir(&subdir).unwrap().count() > 0,
            "checkpoints must have been written"
        );
        let (second, _) = execute_cold(&job, false);
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
        // Zero instructions: the measured phase ends before its first
        // memory cycle, so the attempt fails (`NoElapsedTime`) before
        // simulating anything. No checkpoint progress, no retry: the detail
        // carries a single failure, not a retry trail.
        let root = snap_root("noretry");
        let job = tiny_job(&format!("instructions = 0\n{}", checkpointing(300, &root)));
        let (record, _) = execute_cold(&job, false);
        assert_eq!(record.status, RunStatus::Failed);
        assert!(
            record.detail.contains("before one memory cycle"),
            "{}",
            record.detail
        );
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
        let job = tiny_job(&format!(
            "include_hang_fixture = true\n{}",
            checkpointing(10, &root)
        ));
        let (record, _) = execute_cold(&job, false);
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
             instructions = 4000\nwarmup = 2000\n{}",
            checkpointing(300, &root.join("snaps"))
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
            .find(|r| r.config_digest == dropped.config_digest)
            .unwrap();
        assert!(rerun.resumed_from_cycle > 0);
        assert_eq!(rerun.state_digest, dropped.state_digest);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_rejects_a_journal_from_a_different_campaign() {
        let root = snap_root("alienresume");
        let journal = root.join("journal.jsonl");
        let campaign_a = Campaign::from_toml_str(TINY).unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: false,
        };
        run_campaign(&campaign_a, &options).unwrap();
        // Same journal, different instruction count: every journaled digest
        // is now alien to the re-expanded matrix.
        let campaign_b = Campaign::from_toml_str(&format!("{TINY}instructions = 500\n")).unwrap();
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
    fn run_into_a_journal_from_a_different_campaign_fails_and_leaves_it_unchanged() {
        let root = snap_root("alienrun");
        let journal = root.join("journal.jsonl");
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: false,
        };
        run_campaign(&Campaign::from_toml_str(TINY).unwrap(), &options).unwrap();
        let before = std::fs::read(&journal).unwrap();
        let other = Campaign::from_toml_str(&format!("{TINY}instructions = 500\n")).unwrap();
        let e = run_campaign(&other, &options).unwrap_err();
        assert!(e.to_string().contains("cannot run:"), "{e}");
        assert!(e.to_string().contains("different campaign"), "{e}");
        assert_eq!(
            std::fs::read(&journal).unwrap(),
            before,
            "journal untouched"
        );
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn resume_rejects_a_journal_in_the_old_format() {
        // A record as journaled before runs were keyed by the simulator's
        // config digest, by this very matrix (with its default watchdog).
        let root = snap_root("oldformat");
        let journal = root.join("journal.jsonl");
        std::fs::write(
            &journal,
            "{\"config\":\"48e923c465448227\",\"seed\":1,\"status\":\"ok\",\
             \"scheme\":\"baseline\",\"workload\":\"GUPS\",\"cycles\":295,\
             \"host_nanos\":1018249,\"energy_pj\":62346,\"avg_power_mw\":361,\
             \"resumed_from_cycle\":0,\"state_digest\":\"81850763d3ee4f7c\",\
             \"detail\":\"\",\"repro\":\"pra run --scheme baseline --workload GUPS\"}\n",
        )
        .unwrap();
        let matrix = TINY.replace("watchdog_no_retire = 0\n", "");
        let campaign = Campaign::from_toml_str(&matrix).unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: journal.clone(),
            resume: true,
        };
        let e = run_campaign(&campaign, &options).unwrap_err();
        assert!(e.to_string().contains("different campaign"), "{e}");
        assert!(e.to_string().contains("journal format"), "{e}");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn malformed_journal_lines_are_counted_in_campaign_metrics() {
        let root = snap_root("skiplines");
        let journal = root.join("journal.jsonl");
        std::fs::write(&journal, "this is not a journal line\n{\"torn\":\n").unwrap();
        let campaign = Campaign::from_toml_str(TINY).unwrap();
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
    fn pooled_campaign_journals_what_cold_runs_produce_and_warms_each_key_once() {
        // Three schemes share each (workload, seed) warm key: 12 cells over
        // 4 keys, plus the fixtures, which share the first cell's key.
        let campaign = Campaign::from_toml_str(
            "schemes = [\"baseline\", \"pra\", \"half-dram\"]\nworkloads = [\"GUPS\", \"lbm\"]\n\
             seeds = [1, 2]\ninstructions = 300\nwarmup = 1000\ndeterminism_sample = 5\n\
             include_panic_fixture = true\ninclude_hang_fixture = true\n",
        )
        .unwrap();
        let outcome = |record: &JournalRecord| (record.status, record.state_digest);
        let cold: HashMap<u64, _> = campaign
            .expand()
            .unwrap()
            .iter()
            .map(|job| {
                let (record, _) = execute_cold(job, false);
                (record.config_digest, outcome(&record))
            })
            .collect();
        assert_eq!(cold.len(), 14);
        for jobs in [1, 2] {
            let root = snap_root(&format!("pooled{jobs}"));
            let options = CampaignOptions {
                jobs,
                journal: root.join("journal.jsonl"),
                resume: false,
            };
            let summary = run_campaign(&campaign, &options).unwrap();
            assert_eq!(summary.warmups, 4, "jobs = {jobs}: {}", summary.render());
            assert_eq!(summary.metrics.counter_value("campaign.warmups"), Some(4));
            assert!(
                summary.render().contains(", 4 warm-ups"),
                "{}",
                summary.render()
            );
            assert_eq!(
                summary.determinism_mismatches, 0,
                "forked and cold runs agree"
            );
            let pooled: HashMap<u64, _> = load_journal(&options.journal)
                .unwrap()
                .records
                .iter()
                .map(|record| (record.config_digest, outcome(record)))
                .collect();
            assert_eq!(pooled, cold, "jobs = {jobs}");
            let _ = std::fs::remove_dir_all(&root);
        }
    }

    #[test]
    fn resume_without_journal_is_an_error() {
        let campaign = Campaign::from_toml_str(TINY).unwrap();
        let options = CampaignOptions {
            jobs: 1,
            journal: std::env::temp_dir().join("sim_harness_no_such_journal.jsonl"),
            resume: true,
        };
        let e = run_campaign(&campaign, &options).unwrap_err();
        assert!(e.to_string().contains("cannot resume"), "{e}");
    }
}
