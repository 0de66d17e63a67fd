//! The experiment matrix: a TOML-subset campaign description and its
//! expansion into one [`SimBuilder`] per run.

use core::fmt;

use std::path::{Path, PathBuf};

use dram_sim::PagePolicy;
use pra_core::{Scheme, SimBuilder};
use sim_fault::FaultPlan;
use sim_snap::codec::{kv_lines, KvLine};
use workloads::Workload;

use crate::journal::JournalRecord;

/// Error parsing or validating a campaign matrix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatrixError(String);

impl fmt::Display for MatrixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid campaign matrix: {}", self.0)
    }
}

impl std::error::Error for MatrixError {}

fn matrix_err(msg: impl Into<String>) -> MatrixError {
    MatrixError(msg.into())
}

/// The report name that sets the synthetic panic fixture's config digest
/// apart from the real cell it copies.
const PANIC_FIXTURE: &str = "synthetic panic fixture";

/// One run of an expanded campaign.
#[derive(Debug, Clone)]
pub struct Job {
    /// The simulation. Its [`SimBuilder::config_digest`] is the run's
    /// journal key.
    pub builder: SimBuilder,
    /// The run's identity (config digest, seed, scheme, workload) and its
    /// `pra run` repro line; the runner fills in the outcome.
    pub record: JournalRecord,
    /// The run's private checkpoint directory,
    /// `<checkpoint_dir>/<config_digest:016x>`, when checkpointing is on.
    /// Concurrent runs never share one, and a re-executed run finds exactly
    /// its own snapshots.
    pub checkpoints: Option<PathBuf>,
    /// The synthetic panic fixture: panics instead of simulating.
    pub panics: bool,
}

/// One matrix cell before it becomes a [`Job`]: the axis values that both
/// its builder and its repro line are rendered from.
#[derive(Clone, Copy)]
struct Cell<'a> {
    scheme: Scheme,
    workload: &'a Workload,
    plan: Option<&'a (String, FaultPlan)>,
    seed: u64,
    /// (no-retire, queue-age) liveness bounds in memory cycles.
    watchdog: (u64, u64),
    panics: bool,
}

/// A campaign description: the axes of the experiment matrix plus the knobs
/// shared by every run. Parses from a minimal TOML subset
/// ([`Campaign::from_toml_str`]) and expands to the full cross product
/// ([`Campaign::expand`]).
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Schemes axis (at least one).
    pub schemes: Vec<Scheme>,
    /// Workloads axis (at least one).
    pub workloads: Vec<Workload>,
    /// Seeds axis (at least one).
    pub seeds: Vec<u64>,
    /// Page policy shared by every run.
    pub policy: PagePolicy,
    /// Cores for benchmark workloads (mixes always use 4).
    pub cores: usize,
    /// Instructions each core retires.
    pub instructions: u64,
    /// Functional-warmup memory operations per core.
    pub warmup: u64,
    /// No-retire liveness bound for every run (memory cycles, 0 disables).
    pub watchdog_no_retire: u64,
    /// Queue-age liveness bound for every run (memory cycles, 0 disables).
    pub watchdog_queue_age: u64,
    /// Re-run every Nth run twice and compare state digests (0 disables).
    pub determinism_sample: u64,
    /// Fault-plan files: each becomes an extra matrix axis value (a run
    /// without a plan is always included).
    pub fault_plans: Vec<String>,
    /// Arm the controller recovery pipeline on every run (detected faults
    /// replay instead of degrading immediately; completed runs that needed
    /// it journal as `recovered`).
    pub recovery: bool,
    /// Checkpoint every run's full simulator state at this memory-cycle
    /// interval (0 disables). A run that fails, hangs, or is killed
    /// mid-flight re-executes from its last valid checkpoint instead of
    /// cycle 0 — the restored run finishes with an identical state digest.
    pub checkpoint_every: u64,
    /// Root directory for per-run checkpoint subdirectories. Required
    /// exactly when `checkpoint_every > 0`.
    pub checkpoint_dir: Option<String>,
    /// Append one synthetic panicking run (harness self-test).
    pub include_panic_fixture: bool,
    /// Append one synthetic hanging run (harness self-test).
    pub include_hang_fixture: bool,
}

impl Campaign {
    /// Parses a campaign from a minimal TOML subset: `key = value` lines,
    /// `#` comments, string/integer arrays in `[...]`, and an optional
    /// `[campaign]` section header. Unknown keys are errors (a typo must
    /// not silently shrink the matrix).
    ///
    /// # Errors
    ///
    /// [`MatrixError`] naming the offending line, unknown scheme/workload
    /// names, or a missing required axis.
    pub fn from_toml_str(text: &str) -> Result<Self, MatrixError> {
        let campaign = Self::parse_toml(text).map_err(matrix_err)?;
        campaign.validate()?;
        Ok(campaign)
    }

    fn parse_toml(text: &str) -> Result<Self, String> {
        let mut schemes: Option<Vec<Scheme>> = None;
        let mut workloads: Option<Vec<Workload>> = None;
        let mut seeds: Option<Vec<u64>> = None;
        let mut policy = PagePolicy::RelaxedClosePage;
        let mut cores = 1usize;
        let mut instructions = 5_000u64;
        let mut warmup = 10_000u64;
        let mut watchdog_no_retire = 1_000_000u64;
        let mut watchdog_queue_age = 0u64;
        let mut determinism_sample = 0u64;
        let mut fault_plans = Vec::new();
        let mut recovery = false;
        let mut checkpoint_every = 0u64;
        let mut checkpoint_dir: Option<String> = None;
        let mut include_panic_fixture = false;
        let mut include_hang_fixture = false;

        for kv in kv_lines(text, "[campaign]") {
            let kv = kv?;
            match kv.key {
                "schemes" => {
                    schemes = Some(
                        string_items(kv)?
                            .into_iter()
                            .map(str::parse)
                            .collect::<Result<_, _>>()?,
                    );
                }
                "workloads" => {
                    workloads = Some(
                        string_items(kv)?
                            .into_iter()
                            .map(str::parse)
                            .collect::<Result<_, _>>()?,
                    );
                }
                "seeds" => {
                    seeds = Some(
                        array_items(kv)?
                            .into_iter()
                            .map(|value| KvLine { value, ..kv }.u64())
                            .collect::<Result<_, _>>()?,
                    );
                }
                "policy" => policy = kv.value.trim_matches('"').parse()?,
                "cores" => cores = kv.u64()? as usize,
                "instructions" => instructions = kv.u64()?,
                "warmup" => warmup = kv.u64()?,
                "watchdog_no_retire" => watchdog_no_retire = kv.u64()?,
                "watchdog_queue_age" => watchdog_queue_age = kv.u64()?,
                "determinism_sample" => determinism_sample = kv.u64()?,
                "fault_plans" => {
                    fault_plans = string_items(kv)?.into_iter().map(String::from).collect();
                }
                "recovery" => recovery = kv.bool()?,
                "checkpoint_every" => checkpoint_every = kv.u64()?,
                "checkpoint_dir" => {
                    let dir = kv.value.trim_matches('"');
                    if dir.is_empty() {
                        return Err(kv.error("checkpoint_dir wants a non-empty quoted path"));
                    }
                    checkpoint_dir = Some(dir.to_string());
                }
                "include_panic_fixture" => include_panic_fixture = kv.bool()?,
                "include_hang_fixture" => include_hang_fixture = kv.bool()?,
                other => return Err(kv.error(format_args!("unknown key {other:?}"))),
            }
        }
        Ok(Campaign {
            schemes: schemes.ok_or("missing required axis `schemes`")?,
            workloads: workloads.ok_or("missing required axis `workloads`")?,
            seeds: seeds.ok_or("missing required axis `seeds`")?,
            policy,
            cores,
            instructions,
            warmup,
            watchdog_no_retire,
            watchdog_queue_age,
            determinism_sample,
            fault_plans,
            recovery,
            checkpoint_every,
            checkpoint_dir,
            include_panic_fixture,
            include_hang_fixture,
        })
    }

    /// Checks the campaign for consistency.
    ///
    /// # Errors
    ///
    /// [`MatrixError`] when an axis is empty or `cores` is outside 1..=4.
    pub fn validate(&self) -> Result<(), MatrixError> {
        if self.schemes.is_empty() {
            return Err(matrix_err("schemes axis must not be empty"));
        }
        if self.workloads.is_empty() {
            return Err(matrix_err("workloads axis must not be empty"));
        }
        if self.seeds.is_empty() {
            return Err(matrix_err("seeds axis must not be empty"));
        }
        if self.cores == 0 || self.cores > 4 {
            return Err(matrix_err(format!(
                "cores must be 1..=4, got {}",
                self.cores
            )));
        }
        match (self.checkpoint_every, &self.checkpoint_dir) {
            (0, Some(_)) => {
                return Err(matrix_err(
                    "checkpoint_dir is set but checkpoint_every is 0; \
                     add `checkpoint_every = <memory cycles>`",
                ));
            }
            (n, None) if n > 0 => {
                return Err(matrix_err(
                    "checkpoint_every is set but checkpoint_dir is missing; \
                     add `checkpoint_dir = \"<directory>\"`",
                ));
            }
            _ => {}
        }
        Ok(())
    }

    /// Expands the matrix into the full, deterministically-ordered run
    /// list: scheme-major, then workload, then fault plan, then seed, with
    /// the synthetic fixtures (when enabled) appended last. Each fault-plan
    /// file is read and parsed once, here.
    ///
    /// # Errors
    ///
    /// [`MatrixError`] when the campaign is inconsistent or a fault-plan
    /// file cannot be read or parsed.
    pub fn expand(&self) -> Result<Vec<Job>, MatrixError> {
        self.validate()?;
        let mut plans = Vec::new();
        for path in &self.fault_plans {
            let text = std::fs::read_to_string(path)
                .map_err(|e| matrix_err(format!("cannot read fault plan {path}: {e}")))?;
            let plan =
                FaultPlan::from_toml_str(&text).map_err(|e| matrix_err(format!("{path}: {e}")))?;
            plans.push((path.clone(), plan));
        }
        let first = Cell {
            scheme: self.schemes[0],
            workload: &self.workloads[0],
            plan: None,
            seed: self.seeds[0],
            watchdog: (self.watchdog_no_retire, self.watchdog_queue_age),
            panics: false,
        };
        let mut jobs = Vec::new();
        for &scheme in &self.schemes {
            for workload in &self.workloads {
                for plan in std::iter::once(None).chain(plans.iter().map(Some)) {
                    for &seed in &self.seeds {
                        jobs.push(self.job(Cell {
                            scheme,
                            workload,
                            plan,
                            seed,
                            ..first
                        }));
                    }
                }
            }
        }
        if self.include_panic_fixture {
            jobs.push(self.job(Cell {
                panics: true,
                ..first
            }));
        }
        if self.include_hang_fixture {
            // A 20-cycle no-retire bound is below a single read's
            // latency: the run is guaranteed to classify as hung.
            jobs.push(self.job(Cell {
                watchdog: (20, 0),
                ..first
            }));
        }
        Ok(jobs)
    }

    /// The builder, checkpoint directory and repro line of one cell.
    fn job(&self, cell: Cell<'_>) -> Job {
        let (no_retire, queue_age) = cell.watchdog;
        let mut builder = SimBuilder::new()
            .workload(cell.workload, self.cores)
            .scheme(cell.scheme)
            .policy(self.policy)
            .instructions(self.instructions)
            .seed(cell.seed)
            .warmup_mem_ops(self.warmup)
            .liveness_watchdog(no_retire, queue_age);
        if let Some((_, plan)) = cell.plan {
            builder = builder.faults(*plan);
        }
        if self.recovery {
            builder = builder.recovery(pra_core::RecoveryConfig::default());
        }
        if cell.panics {
            builder = builder.name(PANIC_FIXTURE);
        }
        let digest = builder.config_digest();
        let checkpoints = self
            .checkpoint_dir
            .as_ref()
            .map(|dir| Path::new(dir).join(format!("{digest:016x}")));
        if let Some(dir) = &checkpoints {
            builder = builder
                .checkpoint_every(self.checkpoint_every)
                .checkpoint_dir(dir);
        }
        let repro = if cell.panics {
            "# synthetic panic fixture (harness self-test; no CLI equivalent)".to_string()
        } else {
            self.repro_line(&cell, checkpoints.as_deref())
        };
        Job {
            builder,
            record: JournalRecord {
                config_digest: digest,
                seed: cell.seed,
                scheme: cell.scheme.name().to_string(),
                workload: cell.workload.name().to_string(),
                repro,
                ..JournalRecord::default()
            },
            checkpoints,
            panics: cell.panics,
        }
    }

    /// A copy-pasteable `pra run` invocation reproducing `cell` outside
    /// the campaign harness.
    fn repro_line(&self, cell: &Cell<'_>, checkpoints: Option<&Path>) -> String {
        let mut line = format!(
            "pra run --scheme {} --workload {} --policy {} --cores {} --instructions {} --warmup {} --seed {}",
            cell.scheme.cli_name(),
            cell.workload.name(),
            self.policy.cli_name(),
            self.cores,
            self.instructions,
            self.warmup,
            cell.seed,
        );
        let (no_retire, queue_age) = cell.watchdog;
        if no_retire > 0 {
            line.push_str(&format!(" --watchdog-no-retire {no_retire}"));
        }
        if queue_age > 0 {
            line.push_str(&format!(" --watchdog-queue-age {queue_age}"));
        }
        if let Some((path, _)) = cell.plan {
            line.push_str(&format!(" --faults {path}"));
        }
        if self.recovery {
            line.push_str(" --recovery");
        }
        if let Some(dir) = checkpoints {
            line.push_str(&format!(
                " --checkpoint-every {} --checkpoint-dir {}",
                self.checkpoint_every,
                dir.display()
            ));
        }
        line
    }
}

/// The items of a `[a, b, ...]` value, trimmed, empty items dropped.
fn array_items(kv: KvLine<'_>) -> Result<Vec<&str>, String> {
    let inner = kv
        .value
        .strip_prefix('[')
        .and_then(|v| v.strip_suffix(']'))
        .ok_or_else(|| kv.wants("an array `[...]`"))?;
    Ok(inner
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect())
}

/// The items of a `["a", "b", ...]` value, unquoted.
fn string_items(kv: KvLine<'_>) -> Result<Vec<&str>, String> {
    array_items(kv)?
        .into_iter()
        .map(|item| {
            item.strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or_else(|| KvLine { value: item, ..kv }.wants("quoted strings"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MINIMAL: &str = r#"
        # demo campaign
        [campaign]
        schemes = ["baseline", "pra"]
        workloads = ["GUPS", "lbm", "MIX1"]
        seeds = [1, 2]
    "#;

    fn names(c: &Campaign) -> Vec<&str> {
        c.workloads.iter().map(Workload::name).collect()
    }

    #[test]
    fn minimal_matrix_parses_with_defaults() {
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        assert_eq!(c.schemes, vec![Scheme::Baseline, Scheme::Pra]);
        assert_eq!(names(&c), vec!["GUPS", "lbm", "MIX1"]);
        assert_eq!(c.seeds, vec![1, 2]);
        assert_eq!(c.policy, PagePolicy::RelaxedClosePage);
        assert_eq!(c.cores, 1);
        assert_eq!(c.watchdog_no_retire, 1_000_000);
        assert_eq!(c.expand().unwrap().len(), 2 * 3 * 2);
    }

    #[test]
    fn every_run_has_its_own_config_digest() {
        // The digest covers the seed, so it alone keys the journal.
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        let jobs = c.expand().unwrap();
        let digests: std::collections::HashSet<u64> =
            jobs.iter().map(|j| j.record.config_digest).collect();
        assert_eq!(digests.len(), jobs.len());
        for job in &jobs {
            assert_eq!(job.record.config_digest, job.builder.config_digest());
        }
    }

    fn plan_file(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sim_harness_matrix_{tag}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("stress.toml");
        std::fs::write(&path, "[faults]\nseed = 4\nmask_corrupt_rate = 0.5\n").unwrap();
        path
    }

    #[test]
    fn fixtures_and_fault_plans_extend_the_matrix() {
        let plan = plan_file("fixtures");
        let text = format!(
            "{MINIMAL}\nfault_plans = [\"{}\"]\n\
             include_panic_fixture = true\ninclude_hang_fixture = true\n",
            plan.display()
        );
        let c = Campaign::from_toml_str(&text).unwrap();
        let jobs = c.expand().unwrap();
        // Each (scheme, workload, seed) runs once bare and once faulted.
        assert_eq!(jobs.len(), 2 * 3 * 2 * 2 + 2);
        assert!(jobs[2].record.repro.contains("--faults"));
        assert!(!jobs[0].record.repro.contains("--faults"));
        let panic_job = &jobs[jobs.len() - 2];
        let hang_job = &jobs[jobs.len() - 1];
        assert!(panic_job.panics);
        assert!(panic_job.record.repro.starts_with('#'));
        // Both fixtures copy the first cell, yet neither shares its key.
        assert_ne!(panic_job.record.config_digest, jobs[0].record.config_digest);
        assert!(!hang_job.panics);
        assert_ne!(hang_job.record.config_digest, jobs[0].record.config_digest);
        assert!(
            hang_job.record.repro.contains("--watchdog-no-retire 20"),
            "{}",
            hang_job.record.repro
        );
        let _ = std::fs::remove_file(plan);
    }

    #[test]
    fn unreadable_or_invalid_fault_plans_fail_the_expansion() {
        let text = format!("{MINIMAL}\nfault_plans = [\"/no/such/plan.toml\"]\n");
        let e = Campaign::from_toml_str(&text)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(e.to_string().contains("/no/such/plan.toml"), "{e}");
        let plan = plan_file("invalid");
        std::fs::write(&plan, "[faults]\nmask_corrupt_rate = 2.0\n").unwrap();
        let text = format!("{MINIMAL}\nfault_plans = [\"{}\"]\n", plan.display());
        let e = Campaign::from_toml_str(&text)
            .unwrap()
            .expand()
            .unwrap_err();
        assert!(e.to_string().contains("mask_corrupt_rate"), "{e}");
        let _ = std::fs::remove_file(plan);
    }

    #[test]
    fn unknown_names_are_rejected_with_suggestions() {
        let bad_scheme = MINIMAL.replace("\"pra\"", "\"sra\"");
        let e = Campaign::from_toml_str(&bad_scheme).unwrap_err();
        assert!(e.to_string().contains("unknown scheme"), "{e}");
        let bad_workload = MINIMAL.replace("\"lbm\"", "\"lbn\"");
        let e = Campaign::from_toml_str(&bad_workload).unwrap_err();
        assert!(e.to_string().contains("unknown workload"), "{e}");
        let e = Campaign::from_toml_str("schemes = [\"pra\"]\nseeds = [1]").unwrap_err();
        assert!(e.to_string().contains("workloads"), "{e}");
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ntypo = 3")).unwrap_err();
        assert!(e.to_string().contains("unknown key"), "{e}");
    }

    #[test]
    fn workload_names_are_canonicalised() {
        let text = MINIMAL
            .replace("\"GUPS\"", "\"gups\"")
            .replace("\"MIX1\"", "\"mix1\"");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert_eq!(names(&c), vec!["GUPS", "lbm", "MIX1"]);
        let jobs = c.expand().unwrap();
        assert_eq!(jobs[0].record.workload, "GUPS");
        assert!(jobs[0].record.repro.contains("--workload GUPS"));
    }

    #[test]
    fn recovery_knob_flows_into_builders_and_repro() {
        let text = format!("{MINIMAL}\nrecovery = true\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert!(c.recovery);
        let jobs = c.expand().unwrap();
        assert!(jobs.iter().all(|j| j.record.repro.ends_with("--recovery")));
        let plain = Campaign::from_toml_str(MINIMAL).unwrap();
        assert!(!plain.recovery, "recovery defaults off");
        let plain_jobs = plain.expand().unwrap();
        assert!(!plain_jobs[0].record.repro.contains("--recovery"));
        assert_ne!(
            jobs[0].record.config_digest,
            plain_jobs[0].record.config_digest
        );
    }

    #[test]
    fn checkpoint_knobs_parse_and_flow_into_jobs() {
        let text = format!("{MINIMAL}\ncheckpoint_every = 5000\ncheckpoint_dir = \"/tmp/snaps\"\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert_eq!(c.checkpoint_every, 5_000);
        assert_eq!(c.checkpoint_dir.as_deref(), Some("/tmp/snaps"));
        let jobs = c.expand().unwrap();
        let job = &jobs[0];
        // <checkpoint_dir>/<config_digest:016x>
        let subdir = job.checkpoints.clone().unwrap();
        assert_eq!(
            subdir,
            Path::new("/tmp/snaps").join(format!("{:016x}", job.record.config_digest))
        );
        // Different seeds get different subdirectories.
        let other = jobs
            .iter()
            .find(|j| j.record.seed != job.record.seed)
            .unwrap();
        assert_ne!(Some(subdir.clone()), other.checkpoints);
        let line = &job.record.repro;
        assert!(line.contains("--checkpoint-every 5000"), "{line}");
        assert!(
            line.contains(&format!("--checkpoint-dir {}", subdir.display())),
            "{line}"
        );
        // The checkpoint knobs leave the journal key alone.
        let plain = Campaign::from_toml_str(MINIMAL).unwrap().expand().unwrap();
        assert_eq!(plain[0].record.config_digest, job.record.config_digest);
        // Off by default: no flags, no subdir.
        assert!(plain[0].checkpoints.is_none());
        assert!(
            !plain[0].record.repro.contains("--checkpoint"),
            "{}",
            plain[0].record.repro
        );
    }

    #[test]
    fn half_configured_checkpointing_is_rejected() {
        let e =
            Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_every = 5000\n")).unwrap_err();
        assert!(e.to_string().contains("checkpoint_dir is missing"), "{e}");
        let e = Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_dir = \"/tmp/snaps\"\n"))
            .unwrap_err();
        assert!(e.to_string().contains("checkpoint_every is 0"), "{e}");
        let e =
            Campaign::from_toml_str(&format!("{MINIMAL}\ncheckpoint_dir = \"\"\n")).unwrap_err();
        assert!(e.to_string().contains("non-empty"), "{e}");
    }

    #[test]
    fn repro_line_is_cli_shaped() {
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        let line = &c.expand().unwrap()[0].record.repro;
        assert!(
            line.starts_with("pra run --scheme baseline --workload GUPS"),
            "{line}"
        );
        assert!(line.contains("--seed 1"), "{line}");
        assert!(line.contains("--watchdog-no-retire 1000000"), "{line}");
    }
}
