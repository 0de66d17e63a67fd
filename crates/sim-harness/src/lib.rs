//! Panic-isolated parallel campaign runner for the PRA simulation stack.
//!
//! A *campaign* is a batch of simulations over an experiment matrix —
//! scheme × workload × seed (× optional fault plan) — expanded into one
//! [`pra_core::SimBuilder`] per run ([`Campaign::expand`]) and executed on
//! the figure suite's warm-key pool ([`pra_core::experiments::run_pool`]),
//! which warms each key's caches up once (once per worker that runs it,
//! when there are fewer keys than workers) and forks the rest. The harness
//! is built for overnight sweeps that must survive individual bad runs:
//!
//! * **Panic isolation** — each run executes behind `catch_unwind`, so a
//!   poisoned configuration produces a structured failure record (panic
//!   payload, config digest, copy-pasteable repro command) instead of
//!   aborting the whole campaign.
//! * **Liveness classification** — runs that trip the DRAM scheduler's
//!   cycle-domain watchdogs ([`dram_sim::LivenessError`]) are classified
//!   [`RunStatus::Hung`], carrying the starved request's address/bank trail.
//! * **Journaled resume** — every completed run is appended to a JSONL
//!   journal as it finishes; an interrupted campaign resumes by skipping
//!   runs whose [`pra_core::SimBuilder::config_digest`] is already
//!   journaled. A truncated trailing line (the classic kill-mid-write
//!   artifact) is tolerated and re-run.
//! * **Determinism spot-checks** — an optional sampled fraction of runs is
//!   executed twice and the two [`pra_core::Report::state_digest`]s
//!   compared. The second run warms up cold, so the check also compares a
//!   forked start against a cold one.
//!
//! Campaign counters (`campaign.*`, declared in `docs/metrics.md`) route
//! through the summary's [`sim_obs::MetricsRegistry`]. Each completed run
//! also prints a stderr heartbeat (`[campaign done/total] …`), and the
//! summary keeps the [`SLOWEST_KEPT`] slowest runs for its "slowest runs"
//! table.
//!
//! The `pra campaign run|resume|report` subcommands are thin wrappers over
//! [`run_campaign`] and [`load_journal`].

#![warn(missing_docs)]

mod journal;
mod matrix;
mod runner;

pub use journal::{load_journal, JournalRecord, JournalWriter, LoadedJournal, RunStatus};
pub use matrix::{Campaign, Job, MatrixError};
pub use runner::{run_campaign, CampaignOptions, CampaignSummary, HarnessError, SLOWEST_KEPT};
