//! Shared vocabulary types for the Partial Row Activation (PRA) reproduction.
//!
//! This crate defines the data types every other crate in the workspace speaks
//! in terms of:
//!
//! * [`PhysAddr`] — a physical byte address in the simulated machine.
//! * [`DramGeometry`] — the shape of the DRAM system (channels, ranks, banks,
//!   rows, columns, chips, sub-arrays, MATs), defaulting to the paper's
//!   baseline of an 8 GB, 2-channel, 2-rank/channel system built from
//!   2 Gb x8 DDR3-1600 chips.
//! * [`AddressMapping`] — row-interleaved and line-interleaved physical
//!   address decompositions into `(channel, rank, bank, row, column)`.
//! * [`WordMask`] — the 8-bit word-granularity dirty/PRA mask at the heart of
//!   the paper's mechanism.
//! * [`MemRequest`] — a read or write request as seen by the memory
//!   controller.
//!
//! # Example
//!
//! ```
//! use mem_model::{AddressMapping, DramGeometry, PhysAddr, WordMask};
//!
//! let geometry = DramGeometry::baseline_ddr3();
//! let mapping = AddressMapping::RowInterleaved;
//! let loc = mapping.decode(PhysAddr::new(0x1234_5678), &geometry);
//! assert!(loc.bank < geometry.banks_per_rank as u32);
//!
//! let mask = WordMask::from_words([0, 7]);
//! assert_eq!(mask.count_words(), 2);
//! assert_eq!(format!("{mask}"), "10000001b");
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

mod addr;
mod geometry;
mod mapping;
mod mask;
mod request;
pub mod rng;

pub use addr::PhysAddr;
pub use geometry::{DramGeometry, GeometryError};
pub use mapping::{AddressMapping, Location};
pub use mask::{WordMask, WORDS_PER_LINE};
pub use request::{MemRequest, ReqKind, RequestId};

/// Bytes in a cache line throughout the simulated system.
pub const LINE_BYTES: u64 = 64;

/// Bytes in one word (the dirty-tracking granularity of the paper's FGD).
pub const WORD_BYTES: u64 = 8;
