//! The profiler's single window onto the host monotonic clock.
//!
//! The workspace forbids wall-clock and monotonic time everywhere the
//! simulator's behaviour could observe it (clippy's `disallowed_methods`,
//! configured in the root `clippy.toml`), so that results stay a pure
//! function of configuration and seed. Host-time *profiling* is the
//! sanctioned exception, and this module is the only place in `sim-prof`
//! that reads the clock, under one reasoned `#[expect]`.

use std::time::Instant;

thread_local! {
    /// Per-thread anchor; all span timestamps are nanoseconds since the
    /// first clock read on this thread.
    #[expect(
        clippy::disallowed_methods,
        reason = "host-time profiling is the sanctioned wall-clock read; spans never feed simulator state"
    )]
    static ANCHOR: Instant = Instant::now();
}

/// Monotonic nanoseconds since this thread first read the clock.
pub(crate) fn now_nanos() -> u64 {
    ANCHOR.with(|anchor| {
        let nanos = anchor.elapsed().as_nanos();
        u64::try_from(nanos).unwrap_or(u64::MAX)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_is_monotonic() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a, "monotonic clock went backwards: {a} -> {b}");
    }
}
