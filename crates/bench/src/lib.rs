//! The figure suite: one function per table, figure and extension study of
//! the PRA paper's evaluation (see DESIGN.md's experiment index). Each
//! renders the files it writes: its text report, and for the charted
//! figures their SVGs. Simulated figures draw their runs from one shared
//! [`ReportStore`], so a run that several figures need simulates once.
//!
//! The `figures` binary writes every report to `results/<name>.txt` and
//! every SVG next to it:
//!
//! ```bash
//! cargo run -p bench --release --bin figures                    # all, 200k instructions/core
//! cargo run -p bench --release --bin figures -- --only fig12,fig13 100000 7
//! ```

#![warn(missing_docs)]

use std::fmt::{self, Write};

pub mod chart;
mod figures;
mod studies;
pub mod timing;

pub use pra_core::experiments::{ExperimentConfig, ReportStore};

/// Every file a figure writes into `results/`, as `(name, contents)`, its
/// `.txt` report first.
pub type Rendered = Result<Vec<(&'static str, String)>, fmt::Error>;

/// Renders one figure, drawing its simulations from the store.
pub type Render = fn(&mut ReportStore, &ExperimentConfig) -> Rendered;

/// A figure: the name that selects it (and names its text report) and its
/// renderer.
pub type Figure = (&'static str, Render);

/// Every figure, in the order a full run renders them.
pub const FIGURES: [Figure; 19] = [
    ("table1", figures::table1),
    ("table2", figures::table2),
    ("table3", figures::table3),
    ("fig02", figures::fig02),
    ("fig03", figures::fig03),
    ("fig07", figures::fig07),
    ("fig09", figures::fig09),
    ("fig10", figures::fig10),
    ("fig11", figures::fig11),
    ("fig12", figures::fig12),
    ("fig13", figures::fig13),
    ("fig14", figures::fig14),
    ("fig15", figures::fig15),
    ("ablation", studies::ablation),
    ("policy_study", studies::policy_study),
    ("related_sds", studies::related_sds),
    ("sweep_dirty", studies::sweep_dirty),
    ("sweep_footprint", studies::sweep_footprint),
    ("ddr4_outlook", studies::ddr4_outlook),
];

/// Parses `[--only NAME,NAME,...] [instructions] [seed]`, defaulting to
/// every figure at [`ExperimentConfig::figure`]. The selected figures keep
/// [`FIGURES`] order.
///
/// # Errors
///
/// A message naming the bad argument: a malformed or zero instruction
/// count, a malformed seed, an unknown figure name (the message lists the
/// valid ones), a missing `--only` list, or a surplus argument.
pub fn parse_args(args: &[String]) -> Result<(ExperimentConfig, Vec<Figure>), String> {
    let mut cfg = ExperimentConfig::figure();
    let mut only: Option<Vec<&str>> = None;
    let mut positional = Vec::new();
    let mut args = args.iter();
    while let Some(arg) = args.next() {
        if arg == "--only" {
            let list = args
                .next()
                .ok_or("--only needs a comma-separated list of figures")?;
            only = Some(list.split(',').collect());
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
    let Some(only) = only else {
        return Ok((cfg, FIGURES.to_vec()));
    };
    if let Some(unknown) = only.iter().find(|n| FIGURES.iter().all(|(f, _)| f != *n)) {
        let valid: Vec<&str> = FIGURES.iter().map(|(f, _)| *f).collect();
        return Err(format!(
            "unknown figure {unknown:?}; valid: {}",
            valid.join(", ")
        ));
    }
    Ok((
        cfg,
        FIGURES
            .into_iter()
            .filter(|(f, _)| only.contains(f))
            .collect(),
    ))
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
