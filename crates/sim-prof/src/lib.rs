//! Performance observability for the PRA simulation stack.
//!
//! Two halves, both zero-dependency:
//!
//! * **Host-time profiler** — scoped spans created with [`span!`] nest on
//!   a thread-local stack and roll up into a [`ProfileReport`] with
//!   per-span call counts and self/child time attribution. Span names
//!   follow the same `domain.name` convention as docs/metrics.md. The
//!   simulator opens them around its phases (`sim.warmup`, `sim.run`) and
//!   its protocol checks (`dram.checker`), not per cycle or per access,
//!   where a span would cost as much as the work it times. Profiling is
//!   off by default; while off a span site costs one thread-local read
//!   and never touches the clock, so simulation state cannot depend on
//!   it.
//! * **Perfetto exporter** — [`PerfettoTrace`] serializes profiler span
//!   timelines and sim-obs DRAM/CPU trace events into one Chrome
//!   trace-event JSON file with the two clock domains on separate
//!   process tracks.
//!
//! # Example
//!
//! ```
//! sim_prof::enable();
//! {
//!     let _run = sim_prof::span!("sim.run");
//!     // ... phase work, possibly opening nested spans ...
//! }
//! let report = sim_prof::take_report();
//! assert_eq!(report.spans[0].name, "sim.run");
//! sim_prof::disable();
//! ```

#![deny(missing_docs)]

mod clock;
mod perfetto;
mod profiler;
mod report;

pub use perfetto::{PerfettoTrace, CPU_PID, DRAM_PID_BASE, HOST_PID};
pub use profiler::{
    disable, enable, is_enabled, report, reset, set_timeline_capacity, span, take_report,
    take_timeline, SpanGuard, SpanRecord, Timeline,
};
pub use report::{ProfileReport, SpanStat};

/// Opens a profiling span for the enclosing scope; bind the guard to keep
/// it alive: `let _span = sim_prof::span!("sim.run");`.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
