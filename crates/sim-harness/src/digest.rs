//! Deterministic configuration digests.
//!
//! The journal keys resumability on `(config_digest, seed)`: the digest
//! covers every field of a [`RunSpec`] *except* the seed, so one matrix row
//! shares a digest across its seed axis and a resumed campaign can tell
//! exactly which (row, seed) pairs already ran. Everything here must stay a
//! pure function of the spec — clippy's `disallowed_methods` keeps host
//! clock reads out; only the runner's two campaign timers carry an
//! `#[expect]` for it.

use crate::matrix::{Fixture, RunSpec};

/// Digest of a run's configuration, excluding its seed. Two specs collide
/// exactly when they would simulate the same system on the same workload —
/// the identity the journal's resume logic needs.
///
/// Checkpoint knobs (`checkpoint_every`, `checkpoint_dir`) are deliberately
/// excluded: checkpointing is observational — a checkpointed or restored
/// run finishes with the same state digest as an uninterrupted one — so
/// changing the cadence between `campaign run` and `campaign resume` must
/// not force completed runs to re-execute.
pub fn config_digest(spec: &RunSpec) -> u64 {
    let fixture = match spec.fixture {
        Fixture::None => "none",
        Fixture::Panic => "panic",
        Fixture::Hang => "hang",
    };
    let canonical = format!(
        "scheme={};workload={};policy={};cores={};instructions={};warmup={};\
         no_retire={};queue_age={};faults={};recovery={};fixture={}",
        spec.scheme.cli_name(),
        spec.workload,
        spec.policy.cli_name(),
        spec.cores,
        spec.instructions,
        spec.warmup,
        spec.watchdog_no_retire,
        spec.watchdog_queue_age,
        spec.fault_plan.as_deref().unwrap_or("-"),
        spec.recovery,
        fixture,
    );
    sim_snap::codec::fnv1a_64(canonical.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pra_core::Scheme;

    fn spec() -> RunSpec {
        RunSpec {
            scheme: Scheme::Pra,
            workload: "GUPS".to_string(),
            policy: dram_sim::PagePolicy::RelaxedClosePage,
            cores: 1,
            instructions: 5_000,
            warmup: 10_000,
            seed: 1,
            watchdog_no_retire: 1_000_000,
            watchdog_queue_age: 0,
            fault_plan: None,
            recovery: false,
            checkpoint_every: 0,
            checkpoint_dir: None,
            fixture: Fixture::None,
        }
    }

    #[test]
    fn digest_ignores_seed_but_not_config() {
        let base = spec();
        let mut reseeded = spec();
        reseeded.seed = 99;
        assert_eq!(config_digest(&base), config_digest(&reseeded));
        let mut other_scheme = spec();
        other_scheme.scheme = Scheme::Baseline;
        assert_ne!(config_digest(&base), config_digest(&other_scheme));
        let mut other_fixture = spec();
        other_fixture.fixture = Fixture::Panic;
        assert_ne!(config_digest(&base), config_digest(&other_fixture));
        let mut recovered = spec();
        recovered.recovery = true;
        assert_ne!(config_digest(&base), config_digest(&recovered));
    }

    #[test]
    fn digest_ignores_checkpoint_knobs() {
        // Checkpointing never changes what a run computes (the restore
        // contract guarantees digest identity), so resuming a campaign with
        // a different cadence must still skip its completed runs.
        let base = spec();
        let mut checkpointed = spec();
        checkpointed.checkpoint_every = 5_000;
        checkpointed.checkpoint_dir = Some("/tmp/snaps".to_string());
        assert_eq!(config_digest(&base), config_digest(&checkpointed));
    }

    #[test]
    fn digest_is_pinned_so_old_journals_still_resume() {
        // The canonical string is the journal's resume key. This value was
        // taken before the scheme and policy spellings moved to
        // `Scheme::cli_name` and `PagePolicy::cli_name`; older journals
        // resume only while it holds.
        assert_eq!(config_digest(&spec()), 0x9bfc_3218_30ba_c7e7);
    }
}
