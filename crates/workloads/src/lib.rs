//! Synthetic workload generators standing in for the paper's SPEC CPU2006 /
//! Olden / microbenchmark traces.
//!
//! The paper drives its simulations with 200M-instruction SimPoint regions
//! of bzip2, lbm, libquantum, mcf, omnetpp (SPEC CPU2006), em3d (Olden),
//! GUPS and LinkedList. Those traces are not redistributable, so this crate
//! provides deterministic synthetic generators whose *aggregate memory
//! characteristics* — the only thing the DRAM-level evaluation consumes —
//! are calibrated to the paper's Table 1 (row-buffer hit rates, read/write
//! traffic and activation shares) and Figure 3 (dirty words per evicted
//! line). See DESIGN.md for the substitution argument and EXPERIMENTS.md
//! for measured-vs-paper calibration numbers.
//!
//! # Example
//!
//! ```
//! use workloads::{all_workloads, WorkloadGen};
//! use cpu_sim::InstructionSource;
//!
//! let suite = all_workloads();
//! assert_eq!(suite.len(), 14); // 8 homogeneous + 6 mixes
//! let (name, apps) = &suite[0];
//! assert_eq!(name, "bzip2");
//! let mut gen = WorkloadGen::new(apps[0], 1, 0);
//! let _op = gen.next_op();
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod benches;
mod generator;
mod profile;
mod trace;

pub use benches::{
    all_benchmarks, all_mixes, all_workloads, by_name, bzip2, em3d, gups, lbm, libquantum,
    linked_list, mcf, omnetpp, Mix, Workload,
};
pub use generator::WorkloadGen;
pub use profile::{AccessPattern, BenchProfile};
pub use trace::{Trace, TraceReplay};
