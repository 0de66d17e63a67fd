//! Cycle-domain liveness watchdogs.
//!
//! Batch campaigns need to distinguish "still simulating" from "livelocked":
//! a scheduler bug (or a hostile fault plan) can leave the memory system
//! ticking forever without retiring a single request. The watchdogs here are
//! pure functions of the memory-cycle counter and queue state — no wall
//! clock, so seeded runs stay bit-reproducible (clippy's
//! `disallowed_methods` forbids host clock reads here).
//!
//! Two independent bounds, both measured in memory cycles and both disabled
//! when zero:
//!
//! * **No-retire**: trips when requests are pending but none has retired
//!   for more than [`LivenessConfig::max_no_retire_cycles`] cycles.
//! * **Starvation**: trips when the oldest queued request's age exceeds
//!   [`LivenessConfig::max_queue_age_cycles`] (scanned every
//!   [`STARVATION_SCAN_INTERVAL`] cycles to keep the hot path cheap).
//!
//! A trip surfaces as a [`LivenessError`] carrying the offending request's
//! address/bank trail, routed through [`TickError`] on the `try_tick` path
//! next to the existing protocol-checker errors.

use core::fmt;

use crate::checker::ProtocolError;

/// How often (in memory cycles) the starvation watchdog scans queue ages.
pub const STARVATION_SCAN_INTERVAL: u64 = 64;

/// Watchdog bounds, in memory cycles. A zero bound disables that watchdog;
/// both default to zero so existing configurations are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LivenessConfig {
    /// Maximum cycles without any request retiring while work is pending.
    pub max_no_retire_cycles: u64,
    /// Maximum age (enqueue-to-now) of any queued request.
    pub max_queue_age_cycles: u64,
}

impl LivenessConfig {
    /// Both watchdogs off.
    pub const fn disabled() -> Self {
        LivenessConfig {
            max_no_retire_cycles: 0,
            max_queue_age_cycles: 0,
        }
    }

    /// `true` if at least one watchdog is armed.
    pub fn enabled(&self) -> bool {
        self.max_no_retire_cycles > 0 || self.max_queue_age_cycles > 0
    }
}

/// Address/bank trail of the request a watchdog singled out: where it maps,
/// how long it has been queued, and what row its bank currently holds open.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestTrail {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
    /// Row the request wants.
    pub row: u32,
    /// Raw physical byte address.
    pub addr: u64,
    /// `true` for a write, `false` for a read.
    pub is_write: bool,
    /// Memory cycle at which the request entered its queue.
    pub enqueued_at: u64,
    /// Row currently open in the request's bank, if any.
    pub open_row: Option<u32>,
}

impl fmt::Display for RequestTrail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} 0x{:08x} ch{}/rk{}/bk{} row {} (queued at cycle {}, bank {})",
            if self.is_write { "write" } else { "read" },
            self.addr,
            self.channel,
            self.rank,
            self.bank,
            self.row,
            self.enqueued_at,
            match self.open_row {
                Some(row) => format!("open on row {row}"),
                None => "closed".to_string(),
            }
        )
    }
}

/// Which watchdog tripped, with the measurement that tripped it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LivenessKind {
    /// No request retired for `stalled_for` cycles while work was pending.
    NoRetire {
        /// Cycles since the last retirement (or since the queues last
        /// drained).
        stalled_for: u64,
    },
    /// The oldest queued request's age exceeded the starvation bound.
    Starvation {
        /// Age of the starved request, in cycles.
        age: u64,
        /// The configured bound it exceeded.
        bound: u64,
    },
}

/// A liveness watchdog fired: the memory system is making no forward
/// progress (or is starving one request) under a configured bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LivenessError {
    /// Memory cycle at which the watchdog tripped.
    pub cycle: u64,
    /// Which bound was violated and by how much.
    pub kind: LivenessKind,
    /// Trail of the oldest pending request, when one was queued.
    pub victim: Option<RequestTrail>,
}

impl fmt::Display for LivenessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            LivenessKind::NoRetire { stalled_for } => write!(
                f,
                "cycle {}: no request retired for {} cycles with work pending",
                self.cycle, stalled_for
            )?,
            LivenessKind::Starvation { age, bound } => write!(
                f,
                "cycle {}: queued request aged {} cycles (bound {})",
                self.cycle, age, bound
            )?,
        }
        if let Some(victim) = &self.victim {
            write!(f, "; oldest pending: {victim}")?;
        }
        Ok(())
    }
}

impl std::error::Error for LivenessError {}

/// Error type of the fallible tick path: either the protocol checker
/// rejected a command, or a liveness watchdog tripped.
#[derive(Debug, Clone, PartialEq)]
pub enum TickError {
    /// A DDR3 timing/state rule was violated.
    Protocol(ProtocolError),
    /// A liveness watchdog fired.
    Liveness(LivenessError),
}

impl fmt::Display for TickError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TickError::Protocol(e) => write!(f, "protocol violation: {e}"),
            TickError::Liveness(e) => write!(f, "liveness violation: {e}"),
        }
    }
}

impl std::error::Error for TickError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TickError::Protocol(e) => Some(e),
            TickError::Liveness(e) => Some(e),
        }
    }
}

impl From<ProtocolError> for TickError {
    fn from(e: ProtocolError) -> Self {
        TickError::Protocol(e)
    }
}

impl From<LivenessError> for TickError {
    fn from(e: LivenessError) -> Self {
        TickError::Liveness(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_config_reports_disabled() {
        assert!(!LivenessConfig::disabled().enabled());
        assert!(LivenessConfig {
            max_no_retire_cycles: 1,
            ..LivenessConfig::disabled()
        }
        .enabled());
    }

    #[test]
    fn display_includes_trail() {
        let e = LivenessError {
            cycle: 512,
            kind: LivenessKind::Starvation {
                age: 501,
                bound: 500,
            },
            victim: Some(RequestTrail {
                channel: 0,
                rank: 0,
                bank: 3,
                row: 9,
                addr: 0x1234_5678,
                is_write: true,
                enqueued_at: 11,
                open_row: Some(5),
            }),
        };
        let s = e.to_string();
        assert!(s.contains("cycle 512"), "{s}");
        assert!(s.contains("bk3"), "{s}");
        assert!(s.contains("row 9"), "{s}");
        assert!(s.contains("open on row 5"), "{s}");
        let t: TickError = e.into();
        assert!(t.to_string().starts_with("liveness violation:"));
    }
}
