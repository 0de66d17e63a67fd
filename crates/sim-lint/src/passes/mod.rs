//! The lint passes. Each pass walks the analyzed workspace and appends
//! [`Diagnostic`]s; suppression is applied afterwards by the driver.
//!
//! Only checks the toolchain cannot express live here. `unsafe`, wall-clock
//! reads, lexical panics in the hot crates and discarded `Result`s are
//! enforced by rustc and clippy through the workspace lint table (see
//! docs/lints.md).

pub mod cycle_arith;
pub mod metrics;
pub mod panic_reach;
pub mod parity;

use crate::diag::Diagnostic;
use crate::Analysis;

/// A lint pass.
pub trait Pass {
    /// Lint name used in diagnostics and `allow(...)` pragmas.
    fn name(&self) -> &'static str;
    /// Runs the pass over the analyzed workspace.
    fn run(&self, a: &Analysis, out: &mut Vec<Diagnostic>);
}

/// All shipped passes, in reporting order.
pub fn all_passes() -> Vec<Box<dyn Pass>> {
    vec![
        Box::new(panic_reach::PanicReachability),
        Box::new(parity::CheckerParity),
        Box::new(metrics::MetricRegistry),
        Box::new(cycle_arith::CycleArith),
    ]
}

/// Names of every lint a pragma may reference (the `pragma` meta lint is
/// always on and cannot be suppressed).
pub const LINT_NAMES: &[&str] = &[
    "panic-reachability",
    "checker-parity",
    "metric-registry",
    "cycle-arith",
];
