//! The experiment matrix: a TOML-subset campaign description and its
//! expansion into individual run specifications.

use core::fmt;

use dram_sim::PagePolicy;
use pra_core::Scheme;
use sim_snap::codec::{kv_lines, KvLine};
use workloads::Workload;

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

/// Synthetic run kinds a campaign can inject to exercise the harness's
/// failure paths end to end (used by CI and the demo campaign).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Fixture {
    /// A normal simulation run.
    #[default]
    None,
    /// Panics instead of simulating — proves panic isolation.
    Panic,
    /// Runs with an impossibly tight no-retire watchdog — trips a
    /// [`dram_sim::LivenessError`] and is classified hung.
    Hang,
}

/// One fully-resolved simulation the campaign will execute.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Activation scheme under test.
    pub scheme: Scheme,
    /// Workload name (a benchmark or `MIX1`..`MIX6`).
    pub workload: String,
    /// Page policy.
    pub policy: PagePolicy,
    /// Cores for benchmark workloads (mixes always use 4).
    pub cores: usize,
    /// Instructions each core retires.
    pub instructions: u64,
    /// Functional-warmup memory operations per core.
    pub warmup: u64,
    /// Workload RNG seed.
    pub seed: u64,
    /// No-retire liveness bound in memory cycles (0 disables).
    pub watchdog_no_retire: u64,
    /// Queue-age (starvation) liveness bound in memory cycles (0 disables).
    pub watchdog_queue_age: u64,
    /// Optional fault-plan file injected into the run.
    pub fault_plan: Option<String>,
    /// Arm the controller recovery pipeline (parity-alert replay with
    /// full-row fallback) for this run.
    pub recovery: bool,
    /// Checkpoint interval in memory cycles (0 disables checkpointing).
    pub checkpoint_every: u64,
    /// Root checkpoint directory; each run writes snapshots into its own
    /// `<config_digest:016x>-<seed>` subdirectory so parallel runs never
    /// collide. Required exactly when `checkpoint_every > 0`.
    pub checkpoint_dir: Option<String>,
    /// Synthetic-fixture kind, [`Fixture::None`] for real runs.
    pub fixture: Fixture,
}

/// A campaign description: the axes of the experiment matrix plus the knobs
/// shared by every run. Parses from a minimal TOML subset
/// ([`Campaign::from_toml_str`]) and expands to the full cross product
/// ([`Campaign::expand`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Campaign {
    /// Schemes axis (at least one).
    pub schemes: Vec<Scheme>,
    /// Workloads axis, canonical names (at least one).
    pub workloads: Vec<String>,
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
        let mut workload_names: Option<Vec<String>> = None;
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
                    workload_names = Some(
                        string_items(kv)?
                            .into_iter()
                            .map(|n| n.parse::<Workload>().map(|w| w.name().to_string()))
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
            workloads: workload_names.ok_or("missing required axis `workloads`")?,
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
    /// the synthetic fixtures (when enabled) appended last.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut specs = Vec::new();
        let mut plans: Vec<Option<String>> = vec![None];
        plans.extend(self.fault_plans.iter().cloned().map(Some));
        for &scheme in &self.schemes {
            for workload in &self.workloads {
                for plan in &plans {
                    for &seed in &self.seeds {
                        specs.push(RunSpec {
                            scheme,
                            workload: workload.clone(),
                            policy: self.policy,
                            cores: self.cores,
                            instructions: self.instructions,
                            warmup: self.warmup,
                            seed,
                            watchdog_no_retire: self.watchdog_no_retire,
                            watchdog_queue_age: self.watchdog_queue_age,
                            fault_plan: plan.clone(),
                            recovery: self.recovery,
                            checkpoint_every: self.checkpoint_every,
                            checkpoint_dir: self.checkpoint_dir.clone(),
                            fixture: Fixture::None,
                        });
                    }
                }
            }
        }
        let template = specs.first().cloned();
        if let Some(first) = template {
            if self.include_panic_fixture {
                specs.push(RunSpec {
                    fixture: Fixture::Panic,
                    fault_plan: None,
                    ..first.clone()
                });
            }
            if self.include_hang_fixture {
                // A 20-cycle no-retire bound is below a single read's
                // latency: the run is guaranteed to classify as hung.
                specs.push(RunSpec {
                    fixture: Fixture::Hang,
                    watchdog_no_retire: 20,
                    watchdog_queue_age: 0,
                    fault_plan: None,
                    ..first
                });
            }
        }
        specs
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

impl RunSpec {
    /// A copy-pasteable `pra run` invocation reproducing this run outside
    /// the campaign harness (the panic fixture has no CLI equivalent and
    /// renders as a comment).
    pub fn repro_line(&self) -> String {
        if self.fixture == Fixture::Panic {
            return "# synthetic panic fixture (harness self-test; no CLI equivalent)".to_string();
        }
        let mut line = format!(
            "pra run --scheme {} --workload {} --policy {} --cores {} --instructions {} --warmup {} --seed {}",
            self.scheme.cli_name(),
            self.workload,
            self.policy.cli_name(),
            self.cores,
            self.instructions,
            self.warmup,
            self.seed,
        );
        if self.watchdog_no_retire > 0 {
            line.push_str(&format!(
                " --watchdog-no-retire {}",
                self.watchdog_no_retire
            ));
        }
        if self.watchdog_queue_age > 0 {
            line.push_str(&format!(
                " --watchdog-queue-age {}",
                self.watchdog_queue_age
            ));
        }
        if let Some(plan) = &self.fault_plan {
            line.push_str(&format!(" --faults {plan}"));
        }
        if self.recovery {
            line.push_str(" --recovery");
        }
        if let Some(subdir) = self.checkpoint_subdir() {
            line.push_str(&format!(
                " --checkpoint-every {} --checkpoint-dir {}",
                self.checkpoint_every,
                subdir.display()
            ));
        }
        line
    }

    /// This run's private checkpoint directory —
    /// `<checkpoint_dir>/<config_digest:016x>-<seed>` — or `None` when
    /// checkpointing is off. The digest/seed pair is the journal's resume
    /// key, so concurrent runs of one campaign never share a directory and
    /// a re-executed run finds exactly its own snapshots.
    pub fn checkpoint_subdir(&self) -> Option<std::path::PathBuf> {
        let dir = self.checkpoint_dir.as_ref()?;
        if self.checkpoint_every == 0 {
            return None;
        }
        Some(std::path::Path::new(dir).join(format!(
            "{:016x}-{}",
            crate::digest::config_digest(self),
            self.seed
        )))
    }
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

    #[test]
    fn minimal_matrix_parses_with_defaults() {
        let c = Campaign::from_toml_str(MINIMAL).unwrap();
        assert_eq!(c.schemes, vec![Scheme::Baseline, Scheme::Pra]);
        assert_eq!(c.workloads, vec!["GUPS", "lbm", "MIX1"]);
        assert_eq!(c.seeds, vec![1, 2]);
        assert_eq!(c.policy, PagePolicy::RelaxedClosePage);
        assert_eq!(c.cores, 1);
        assert_eq!(c.watchdog_no_retire, 1_000_000);
        assert_eq!(c.expand().len(), 2 * 3 * 2);
    }

    #[test]
    fn fixtures_and_fault_plans_extend_the_matrix() {
        let text = format!(
            "{MINIMAL}\nfault_plans = [\"plans/stress.toml\"]\n\
             include_panic_fixture = true\ninclude_hang_fixture = true\n"
        );
        let c = Campaign::from_toml_str(&text).unwrap();
        let specs = c.expand();
        // Each (scheme, workload, seed) runs once bare and once faulted.
        assert_eq!(specs.len(), 2 * 3 * 2 * 2 + 2);
        let panic_spec = &specs[specs.len() - 2];
        let hang_spec = &specs[specs.len() - 1];
        assert_eq!(panic_spec.fixture, Fixture::Panic);
        assert!(panic_spec.repro_line().starts_with('#'));
        assert_eq!(hang_spec.fixture, Fixture::Hang);
        assert_eq!(hang_spec.watchdog_no_retire, 20);
        assert!(hang_spec.repro_line().contains("--watchdog-no-retire 20"));
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
        assert_eq!(c.workloads[0], "GUPS");
        assert_eq!(c.workloads[2], "MIX1");
    }

    #[test]
    fn recovery_knob_flows_into_specs_and_repro() {
        let text = format!("{MINIMAL}\nrecovery = true\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert!(c.recovery);
        let specs = c.expand();
        assert!(specs.iter().all(|s| s.recovery));
        assert!(specs[0].repro_line().ends_with("--recovery"));
        let plain = Campaign::from_toml_str(MINIMAL).unwrap();
        assert!(!plain.recovery, "recovery defaults off");
        assert!(!plain.expand()[0].repro_line().contains("--recovery"));
    }

    #[test]
    fn checkpoint_knobs_parse_and_flow_into_specs() {
        let text = format!("{MINIMAL}\ncheckpoint_every = 5000\ncheckpoint_dir = \"/tmp/snaps\"\n");
        let c = Campaign::from_toml_str(&text).unwrap();
        assert_eq!(c.checkpoint_every, 5_000);
        assert_eq!(c.checkpoint_dir.as_deref(), Some("/tmp/snaps"));
        let specs = c.expand();
        let spec = &specs[0];
        assert_eq!(spec.checkpoint_every, 5_000);
        let subdir = spec.checkpoint_subdir().unwrap();
        let name = subdir.file_name().unwrap().to_str().unwrap();
        // <config_digest:016x>-<seed>
        let (digest_part, seed_part) = name.split_once('-').unwrap();
        assert_eq!(digest_part.len(), 16, "{name}");
        assert_eq!(
            u64::from_str_radix(digest_part, 16).unwrap(),
            crate::digest::config_digest(spec)
        );
        assert_eq!(seed_part, spec.seed.to_string());
        // Different seeds get different subdirectories.
        let other = specs.iter().find(|s| s.seed != spec.seed).unwrap();
        assert_ne!(subdir, other.checkpoint_subdir().unwrap());
        let line = spec.repro_line();
        assert!(line.contains("--checkpoint-every 5000"), "{line}");
        assert!(
            line.contains(&format!("--checkpoint-dir {}", subdir.display())),
            "{line}"
        );
        // Off by default: no flags, no subdir.
        let plain = Campaign::from_toml_str(MINIMAL).unwrap();
        let spec = &plain.expand()[0];
        assert!(spec.checkpoint_subdir().is_none());
        assert!(
            !spec.repro_line().contains("--checkpoint"),
            "{}",
            spec.repro_line()
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
        let spec = &c.expand()[0];
        let line = spec.repro_line();
        assert!(
            line.starts_with("pra run --scheme baseline --workload GUPS"),
            "{line}"
        );
        assert!(line.contains("--seed 1"), "{line}");
        assert!(line.contains("--watchdog-no-retire 1000000"), "{line}");
    }
}
