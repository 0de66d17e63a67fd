//! A cycle-level DDR3 memory-system simulator with pluggable activation
//! schemes, built from scratch for the PRA reproduction (the role DRAMSim2
//! plays in the paper's methodology).
//!
//! The simulator models, per channel: FR-FCFS scheduling with a row-hit
//! fairness cap, separate watermarked read/write queues with write-drain
//! hysteresis, per-bank timing fences for every Table 3 constraint
//! (tRCD/tRP/CL/tRAS/tWR/tCCD/tRRD/tFAW), a shared data bus with turnaround
//! and rank-switch penalties, all-bank refresh, relaxed and restricted
//! close-page policies, and precharge power-down.
//!
//! Activation *schemes* — conventional, FGA, Half-DRAM, PRA, and the
//! combined Half-DRAM + PRA — are expressed as [`SchemeBehavior`]
//! descriptors: how many MATs an activation drives, which words the open
//! row then covers, burst-occupancy multipliers, write-I/O scaling, and
//! granularity-proportional tRRD/tFAW weights. PRA-specific mechanics
//! (mask ORing across queued writes, the extra mask-delivery cycle, false
//! row-buffer hits) live in the scheduler itself.
//!
//! Energy is accounted event-by-event into a
//! [`dram_power::EnergyAccounting`], yielding the ACT-PRE / RD / WR /
//! RD I/O / WR I/O / BG / REF breakdown of the paper's Figures 2 and 12.
//!
//! # Example
//!
//! ```
//! use dram_sim::{DramConfig, MemorySystem, PagePolicy, SchemeBehavior};
//! use mem_model::{MemRequest, PhysAddr, WordMask};
//!
//! let cfg = DramConfig::paper_baseline(PagePolicy::RelaxedClosePage, SchemeBehavior::pra());
//! let mut mem = MemorySystem::new(cfg);
//! // A one-word writeback only activates 2 of the row's 16 MATs.
//! mem.try_enqueue(MemRequest::write(1, PhysAddr::new(0x1000), WordMask::single(3)))?;
//! mem.run_until_idle(10_000);
//! assert_eq!(mem.stats().act_histogram[1], 1);
//! # Ok::<(), dram_sim::QueueFull>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bank;
mod channel;
mod checker;
mod config;
mod liveness;
mod masks;
mod memory_system;
mod obs;
mod rank;
mod scheme;
mod stats;
mod timing;

pub use bank::{Bank, OpenRow};
pub use checker::{DramCommand, ProtocolChecker, ProtocolError};
pub use config::{
    verify_protocol_default, ConfigError, DramConfig, PagePolicy, QueueConfig,
    DEFAULT_ESCALATION_AGE,
};
pub use liveness::{
    LivenessConfig, LivenessError, LivenessKind, RequestTrail, TickError, STARVATION_SCAN_INTERVAL,
};
pub use memory_system::{MemorySystem, QueueFull};
pub use rank::{Rank, RefreshState};
pub use scheme::{SchemeBehavior, WriteActPolicy, FULL_ROW_MATS};
pub use sim_recover::{RecoveryConfig, RecoveryCounts};
pub use stats::{DramStats, HitCounters};
pub use timing::{TimingError, TimingParams};
