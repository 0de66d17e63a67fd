//! The figure suite: one function per table, figure and extension study of
//! the PRA paper's evaluation (see DESIGN.md's experiment index). Each
//! renders the files it writes: its text report, and for the charted
//! figures their SVGs. Each also declares the runs it reads, so a driver
//! simulates the union of the selected figures' runs once, on several
//! threads ([`ReportStore::run_all`]), and then renders every figure from
//! the shared [`ReportStore`] without simulating anything.
//!
//! The `figures` binary writes every report to `results/<name>.txt` and
//! every SVG next to it:
//!
//! ```bash
//! cargo run -p bench --release --bin figures                    # all, 200k instructions/core
//! cargo run -p bench --release --bin figures -- --only fig12,fig13 --jobs 1 100000 7
//! ```

#![warn(missing_docs)]

use std::fmt::{self, Write};

pub mod chart;
mod figures;
mod studies;
pub mod timing;

use pra_core::experiments as exp;
use pra_core::SimBuilder;

pub use pra_core::experiments::{ExperimentConfig, ReportStore};

/// Every file a figure writes into `results/`, as `(name, contents)`, its
/// `.txt` report first.
pub type Rendered = Result<Vec<(&'static str, String)>, fmt::Error>;

/// Renders one figure, drawing its simulations from the store.
pub type Render = fn(&mut ReportStore, &ExperimentConfig) -> Rendered;

/// The runs a figure reads from the store.
pub type Runs = fn(&ExperimentConfig) -> Vec<SimBuilder>;

/// A figure: the name that selects it (and names its text report), the
/// runs it reads and its renderer.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Selects the figure and names its text report.
    pub name: &'static str,
    /// Every run [`render`](Self::render) reads; rendering after
    /// [`ReportStore::run_all`] of these simulates nothing.
    pub runs: Runs,
    /// Writes the figure's files.
    pub render: Render,
}

const fn figure(name: &'static str, runs: Runs, render: Render) -> Figure {
    Figure { name, runs, render }
}

/// The runs of a figure that simulates nothing.
fn no_runs(_: &ExperimentConfig) -> Vec<SimBuilder> {
    Vec::new()
}

/// Every figure, in the order a full run renders them.
pub const FIGURES: [Figure; 19] = [
    figure("table1", exp::motivation_builders, figures::table1),
    figure("table2", no_runs, figures::table2),
    figure("table3", no_runs, figures::table3),
    figure("fig02", exp::motivation_builders, figures::fig02),
    figure("fig03", exp::motivation_builders, figures::fig03),
    figure("fig07", no_runs, figures::fig07),
    figure("fig09", no_runs, figures::fig09),
    figure("fig10", figures::fig10_runs, figures::fig10),
    figure("fig11", figures::fig11_runs, figures::fig11),
    figure("fig12", exp::fig12_13_builders, figures::fig12),
    figure("fig13", exp::fig12_13_builders, figures::fig13),
    figure("fig14", exp::fig14_builders, figures::fig14),
    figure("fig15", exp::fig15_builders, figures::fig15),
    figure("ablation", studies::ablation_runs, studies::ablation),
    figure(
        "policy_study",
        studies::policy_study_runs,
        studies::policy_study,
    ),
    figure("related_sds", no_runs, studies::related_sds),
    figure(
        "sweep_dirty",
        studies::sweep_dirty_runs,
        studies::sweep_dirty,
    ),
    figure(
        "sweep_footprint",
        studies::sweep_footprint_runs,
        studies::sweep_footprint,
    ),
    figure(
        "ddr4_outlook",
        studies::ddr4_outlook_runs,
        studies::ddr4_outlook,
    ),
];

/// A parsed `figures` command line.
#[derive(Debug)]
pub struct Args {
    /// Run length and seed.
    pub cfg: ExperimentConfig,
    /// The selected figures, in [`FIGURES`] order.
    pub figures: Vec<Figure>,
    /// Simulation threads; 0 means one per available CPU.
    pub jobs: usize,
}

/// Parses `[--only NAME,NAME,...] [--jobs N] [instructions] [seed]`,
/// defaulting to every figure at [`ExperimentConfig::figure`] on one
/// thread per available CPU. The selected figures keep [`FIGURES`] order.
///
/// # Errors
///
/// A message naming the bad argument: a malformed or zero instruction
/// count, a malformed seed, an unknown figure name (the message lists the
/// valid ones), a missing `--only` list, a missing, malformed or zero
/// `--jobs` count, or a surplus argument.
pub fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut cfg = ExperimentConfig::figure();
    let mut only: Option<Vec<&str>> = None;
    let mut jobs = 0;
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--only" {
            let list = args
                .next()
                .ok_or("--only needs a comma-separated list of figures")?;
            only = Some(list.split(',').collect());
        } else if arg == "--jobs" {
            jobs = args
                .next()
                .and_then(|n| n.parse().ok())
                .filter(|&n| n > 0)
                .ok_or("--jobs needs a positive number of threads")?;
        } else {
            positional.push(arg);
        }
    }
    let mut positional = positional.into_iter();
    if let Some(n) = positional.next() {
        cfg.instructions = n.parse().ok().filter(|&n| n > 0).ok_or_else(|| {
            format!("invalid instruction count {n:?}: expected a positive integer")
        })?;
    }
    if let Some(s) = positional.next() {
        cfg.seed = s
            .parse()
            .map_err(|_| format!("invalid seed {s:?}: expected an unsigned integer"))?;
    }
    if let Some(extra) = positional.next() {
        return Err(format!("unexpected argument {extra:?}"));
    }
    let figures = match only {
        None => FIGURES.to_vec(),
        Some(only) => {
            if let Some(unknown) = only.iter().find(|n| FIGURES.iter().all(|f| f.name != **n)) {
                let valid: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
                return Err(format!(
                    "unknown figure {unknown:?}; valid: {}",
                    valid.join(", ")
                ));
            }
            FIGURES
                .into_iter()
                .filter(|f| only.contains(&f.name))
                .collect()
        }
    };
    Ok(Args { cfg, figures, jobs })
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Writes a horizontal rule sized to a header line.
fn rule(out: &mut String, header: &str) -> fmt::Result {
    writeln!(out, "{}", "-".repeat(header.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats() {
        assert_eq!(pct(0.254), "25.4%");
        assert_eq!(pct(1.0), "100.0%");
    }
}
