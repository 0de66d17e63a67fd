//! Cache hierarchy with fine-grained dirty bits (FGD) for the PRA
//! reproduction.
//!
//! Implements the cache support PRA needs (paper Section 4.1.4):
//!
//! * [`Cache`] — a set-associative, true-LRU, writeback cache whose lines
//!   carry an 8-bit per-word dirty mask instead of a single dirty bit.
//! * [`CacheHierarchy`] — per-core L1 data caches over a shared inclusive
//!   L2. Stores dirty individual words in L1; evicted L1 lines OR their
//!   masks into L2; evicted dirty L2 lines surface as writebacks carrying
//!   the accumulated mask, which the memory controller uses as the PRA
//!   mask. The hierarchy also records the dirty-word distribution of LLC
//!   evictions (the paper's Figure 3).
//! * [`Dbi`] — the Dirty-Block Index used in the Section 5.2.3 case study:
//!   when a dirty line leaves the LLC, all other dirty lines of the same
//!   DRAM row are proactively written back (cleaned in place).
//!
//! # Example
//!
//! ```
//! use cache_sim::{CacheHierarchy, HierarchyConfig};
//! use mem_model::{PhysAddr, WordMask};
//!
//! let mut caches = CacheHierarchy::new(HierarchyConfig::paper(4));
//! caches.access(0, PhysAddr::new(0x1000), Some(WordMask::single(0)));
//! let writebacks = caches.flush();
//! assert_eq!(writebacks[0].1, WordMask::single(0));
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

mod cache;
mod dbi;
mod hierarchy;

pub use cache::{AddrSpanError, Cache, CacheConfig, Evicted, LineMeta};
pub use dbi::Dbi;
pub use hierarchy::{
    Access, CacheHierarchy, HierarchyConfig, HierarchyStats, HitLevel, Served, Writeback,
};
