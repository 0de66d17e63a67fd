//! Simplified multi-core CPU model driving the cache hierarchy and DRAM
//! simulator.
//!
//! This crate stands in for gem5 in the paper's methodology (the
//! substitution is documented in DESIGN.md). Each [`Core`] consumes an
//! [`InstructionSource`] — a dynamic stream of compute blocks, loads and
//! stores — under the resource limits that shape memory behaviour:
//!
//! * a **ROB window** (192 instructions) bounding how far execution runs
//!   ahead of the oldest outstanding load,
//! * a **load queue** (32) bounding memory-level parallelism,
//! * a **store buffer** (32) that makes stores non-blocking but applies
//!   back-pressure when DRAM write queues fill.
//!
//! [`CpuSystem`] couples N cores to a shared [`cache_sim::CacheHierarchy`]
//! and a [`dram_sim::MemorySystem`] at the paper's 4:1 CPU:DRAM clock ratio
//! and produces per-core IPC plus the weighted-speedup metric of Equation 3.
//!
//! # Example
//!
//! ```
//! use cpu_sim::{CpuSystem, InstructionSource, Op, SystemConfig};
//! use cache_sim::{CacheHierarchy, HierarchyConfig};
//! use dram_sim::{DramConfig, MemorySystem, PagePolicy, SchemeBehavior};
//! use mem_model::PhysAddr;
//!
//! struct Pointer(u64);
//! impl InstructionSource for Pointer {
//!     fn next_op(&mut self) -> Op {
//!         self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1);
//!         Op::Load(PhysAddr::new(self.0 % (1 << 26)))
//!     }
//! }
//!
//! let hierarchy = CacheHierarchy::new(HierarchyConfig::paper(1));
//! let mem = MemorySystem::new(DramConfig::paper_baseline(
//!     PagePolicy::RelaxedClosePage,
//!     SchemeBehavior::baseline(),
//! ));
//! let mut sys = CpuSystem::new(SystemConfig::paper(), hierarchy, mem, vec![Box::new(Pointer(1))], 2_000);
//! let out = sys.run(10_000_000);
//! assert!(out.per_core[0].ipc() > 0.0);
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

mod core;
mod metrics;
mod system;

pub use crate::core::{
    Core, CoreConfig, CoreStats, InstructionSource, Op, Outstanding, StallReason,
};
pub use metrics::{energy_delay_product, weighted_speedup, CoreResult, SpeedupError};
pub use system::{CpuSystem, RunOutcome, SystemConfig};
