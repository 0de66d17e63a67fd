//! # pra-repro
//!
//! A from-scratch Rust reproduction of **“Partial Row Activation for
//! Low-Power DRAM System”** (Lee, Kim, Hong, Kim — HPCA 2017).
//!
//! PRA attacks DRAM's *row overfetching* problem asymmetrically: reads keep
//! activating full rows (preserving the n-bit prefetch and full bandwidth),
//! while writes activate only the MAT groups holding the cache line's dirty
//! words — from one-eighth of a row up to a full row — and drive only those
//! words on the bus.
//!
//! This crate is a facade re-exporting the whole workspace:
//!
//! | crate | role |
//! |---|---|
//! | [`mem_model`] | addresses, DRAM geometry, address mappings, word masks, requests |
//! | [`dram_power`] | IDD power model (Table 3), CACTI-style activation energy (Table 2/Fig. 9), energy accounting |
//! | [`dram_sim`] | cycle-level DDR3 memory system with pluggable activation schemes |
//! | [`cache_sim`] | L1/L2 hierarchy with fine-grained dirty bits (FGD) and the Dirty-Block Index |
//! | [`cpu_sim`] | simplified OoO multi-core model, IPC and weighted speedup |
//! | [`workloads`] | synthetic benchmarks calibrated to the paper's Table 1 / Figure 3 |
//! | [`sim_fault`] | deterministic fault injection: mask corruption, command drop/stretch, dirty-bit flips, refresh stress |
//! | [`pra_core`] | the PRA mechanism, scheme composition, [`SimBuilder`] and per-figure experiments |
//!
//! # Quickstart
//!
//! ```
//! use pra_repro::{Scheme, SimBuilder};
//!
//! let baseline = SimBuilder::new()
//!     .app(pra_repro::workloads::gups())
//!     .scheme(Scheme::Baseline)
//!     .instructions(20_000)
//!     .warmup_mem_ops(400_000)
//!     .run();
//! let pra = SimBuilder::new()
//!     .app(pra_repro::workloads::gups())
//!     .scheme(Scheme::Pra)
//!     .instructions(20_000)
//!     .warmup_mem_ops(400_000)
//!     .run();
//! assert!(pra.power.total() < baseline.power.total());
//! ```
//!
//! Every table and figure of the paper's evaluation regenerates via the
//! `bench` crate's binaries (`cargo run -p bench --release --bin fig12`);
//! see `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for
//! measured-vs-paper results.

#![warn(missing_docs)]

pub use cache_sim;
pub use cpu_sim;
pub use dram_power;
pub use dram_sim;
pub use mem_model;
pub use pra_core;
pub use sim_fault;
pub use workloads;

pub use dram_sim::{PagePolicy, SchemeBehavior};
pub use mem_model::{PhysAddr, WordMask};
pub use pra_core::{Report, Scheme, SimBuilder, SimError};
pub use sim_fault::{FaultCounts, FaultPlan};
