//! Typed errors for the simulation-building and experiment paths.

use core::fmt;
use std::path::PathBuf;

/// An error building or running a full-system simulation. Replaces the
/// panic paths on config/CLI/experiment inputs: callers get an actionable
/// message and a nonzero exit instead of an unwind.
#[derive(Debug)]
pub enum SimError {
    /// [`SimBuilder`](crate::SimBuilder) has no application to run.
    NoApplications,
    /// The DRAM configuration is inconsistent.
    Config(dram_sim::ConfigError),
    /// The fault plan is inconsistent.
    FaultPlan(sim_fault::PlanError),
    /// An output file (trace or metrics) could not be created or written.
    Io {
        /// Path that failed.
        path: PathBuf,
        /// Underlying I/O error.
        source: std::io::Error,
    },
    /// Two identically-configured runs produced different state digests
    /// (`pra run --verify-determinism`).
    Nondeterministic {
        /// Digest of the first run.
        first: u64,
        /// Digest of the second run.
        second: u64,
    },
    /// The protocol checker rejected a command mid-run — always a simulator
    /// bug, never a workload property.
    Protocol(dram_sim::ProtocolError),
    /// A liveness watchdog tripped: the memory system stopped retiring
    /// requests, or starved one queued request past its bound. Carries the
    /// victim's address/bank trail.
    Liveness(dram_sim::LivenessError),
    /// A checkpoint could not be restored: the file is missing, torn,
    /// corrupt, from another schema version, or from a run with a
    /// different configuration.
    Snapshot {
        /// Snapshot file that failed to restore.
        path: PathBuf,
        /// Underlying snapshot error.
        source: sim_snap::SnapError,
    },
    /// Checkpointing was half-configured (an interval without a directory,
    /// or a directory without an interval).
    CheckpointConfig(String),
    /// The measured phase ended before one memory cycle elapsed, so there
    /// is no time to average power over.
    NoElapsedTime {
        /// Instructions each core was asked to retire.
        instructions: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::NoApplications => {
                write!(f, "add at least one application before running")
            }
            SimError::Config(e) => write!(f, "invalid DRAM configuration: {e}"),
            SimError::FaultPlan(e) => write!(f, "{e}"),
            SimError::Io { path, source } => {
                write!(f, "cannot create or write {}: {source}", path.display())
            }
            SimError::Nondeterministic { first, second } => write!(
                f,
                "nondeterminism detected: run digests {first:016x} and {second:016x} differ"
            ),
            SimError::Protocol(e) => write!(f, "protocol violation: {e}"),
            SimError::Liveness(e) => write!(f, "liveness violation: {e}"),
            SimError::Snapshot { path, source } => {
                write!(f, "cannot restore {}: {source}", path.display())
            }
            SimError::CheckpointConfig(msg) => write!(f, "{msg}"),
            SimError::NoElapsedTime { instructions } => write!(
                f,
                "the measured phase of {instructions} instructions per core ended before \
                 one memory cycle: run more instructions"
            ),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Config(e) => Some(e),
            SimError::FaultPlan(e) => Some(e),
            SimError::Io { source, .. } => Some(source),
            SimError::Protocol(e) => Some(e),
            SimError::Liveness(e) => Some(e),
            SimError::Snapshot { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<dram_sim::ConfigError> for SimError {
    fn from(e: dram_sim::ConfigError) -> Self {
        SimError::Config(e)
    }
}

impl From<sim_fault::PlanError> for SimError {
    fn from(e: sim_fault::PlanError) -> Self {
        SimError::FaultPlan(e)
    }
}

impl From<dram_sim::TickError> for SimError {
    fn from(e: dram_sim::TickError) -> Self {
        match e {
            dram_sim::TickError::Protocol(p) => SimError::Protocol(p),
            dram_sim::TickError::Liveness(l) => SimError::Liveness(l),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        assert_eq!(
            SimError::NoApplications.to_string(),
            "add at least one application before running"
        );
        let nd = SimError::Nondeterministic {
            first: 0xdead,
            second: 0xbeef,
        };
        assert!(nd.to_string().contains("000000000000dead"), "{nd}");
        let io = SimError::Io {
            path: PathBuf::from("/no/such/dir/out.jsonl"),
            source: std::io::Error::new(std::io::ErrorKind::NotFound, "nope"),
        };
        assert!(io.to_string().contains("/no/such/dir/out.jsonl"), "{io}");
    }
}
