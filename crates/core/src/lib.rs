//! Partial Row Activation (PRA): the primary contribution of *Partial Row
//! Activation for Low-Power DRAM System* (HPCA 2017), reproduced in Rust.
//!
//! PRA attacks DRAM's *row overfetching* problem asymmetrically: memory
//! **reads** keep activating full rows (preserving the n-bit prefetch and
//! full bandwidth), while memory **writes** activate only the MAT groups
//! holding the cache line's *dirty* words — from one-eighth of a row up to
//! a full row — and transfer only those words on the bus. The paper reports
//! 34% average row-activation power saving, 45% write-I/O power saving and
//! 23% average total DRAM power saving at a 0.8% average performance cost.
//!
//! This crate ties the workspace together:
//!
//! * [`PraChip`]/[`PraLatch`]/[`ControllerPraState`] — the chip- and
//!   controller-side hardware mechanism (Section 4.1/4.2), including the
//!   ECC-strapped-chip mode.
//! * [`Scheme`] — the evaluated schemes (baseline, FGA, Half-DRAM, PRA) and
//!   the case-study combinations (Half-DRAM+PRA, DBI, DBI+PRA).
//! * [`SimBuilder`]/[`Report`] — one-call full-system simulation: cores,
//!   FGD cache hierarchy, cycle-level DDR3 and the power model.
//! * [`experiments`] — one function per table/figure of the evaluation.
//!
//! # Quickstart
//!
//! ```
//! use pra_core::{Scheme, SimBuilder};
//!
//! let baseline = SimBuilder::new()
//!     .app(workloads::gups())
//!     .scheme(Scheme::Baseline)
//!     .instructions(20_000)
//!     .run();
//! let pra = SimBuilder::new()
//!     .app(workloads::gups())
//!     .scheme(Scheme::Pra)
//!     .instructions(20_000)
//!     .run();
//! assert!(pra.power.total() < baseline.power.total());
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::let_underscore_must_use,
        clippy::unused_result_ok
    )
)]
#![warn(missing_docs)]

mod error;
pub mod experiments;
mod pra;
mod report;
mod scheme;
pub mod sds;
mod system;
pub mod timing_diagram;

pub use dram_sim::{RecoveryConfig, RecoveryCounts};
pub use error::SimError;
pub use pra::{
    ChipActivation, ControllerPraState, GuardedActivation, MaskFault, MaskTransfer, PraChip,
    PraLatch, PraPin,
};
pub use report::Report;
pub use scheme::Scheme;
pub use system::{DramGeneration, SimBuilder, SnapOutcome};
