//! Panic-isolated parallel campaign runner for the PRA simulation stack.
//!
//! A *campaign* is a batch of simulations over an experiment matrix —
//! scheme × workload × seed (× optional fault plan) — expanded into one
//! [`pra_core::SimBuilder`] per run ([`Campaign::expand`]) and executed by a
//! pool of worker threads. The harness is built for overnight sweeps that must
//! survive individual bad runs:
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
//!   compared.
//!
//! Per-run counters route through [`sim_obs::MetricsRegistry`]
//! (`campaign.runs_ok`, `campaign.runs_recovered`, `campaign.runs_failed`, `campaign.runs_hung`,
//! `campaign.runs_skipped`, `campaign.determinism_mismatches`,
//! `campaign.host_nanos`) plus a `campaign.run_cycles` histogram over
//! successful runs. Each completed run also prints a stderr heartbeat
//! (`[campaign done/total] …`) with its host time and simulated
//! cycles-per-second, and the summary keeps the [`SLOWEST_KEPT`] slowest
//! runs for the report's "slowest runs" table.
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
