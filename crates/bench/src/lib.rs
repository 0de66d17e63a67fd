//! Shared helpers for the benchmark harness binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md's experiment index). All binaries accept the run
//! length as their first CLI argument (instructions per core) and a seed as
//! the second, defaulting to [`ExperimentConfig::figure`].
//!
//! ```bash
//! cargo run -p bench --release --bin table1            # default length
//! cargo run -p bench --release --bin fig12 -- 100000   # quicker
//! ```

#![warn(missing_docs)]

pub mod chart;
pub mod timing;

pub use pra_core::experiments::ExperimentConfig;

/// Parses `[instructions] [seed]` from the command line.
pub fn config_from_args() -> ExperimentConfig {
    let mut cfg = ExperimentConfig::figure();
    let mut args = std::env::args().skip(1);
    if let Some(n) = args.next().and_then(|a| a.parse().ok()) {
        cfg.instructions = n;
    }
    if let Some(s) = args.next().and_then(|a| a.parse().ok()) {
        cfg.seed = s;
    }
    cfg
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Prints a horizontal rule sized to a header line.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}

/// Prints a normalised-metric table (workload rows x scheme columns) for a
/// scheme-comparison result, one metric at a time, followed by the mean.
pub fn print_comparison_metric(
    title: &str,
    rows: &[pra_core::experiments::ComparisonRow],
    metric: fn(&pra_core::experiments::ComparisonRow) -> f64,
    paper_note: &str,
) {
    use std::collections::BTreeSet;
    let schemes: Vec<String> = {
        let mut seen = BTreeSet::new();
        rows.iter()
            .filter(|r| seen.insert(r.scheme.clone()))
            .map(|r| r.scheme.clone())
            .collect()
    };
    let workloads: Vec<String> = {
        let mut seen = BTreeSet::new();
        rows.iter()
            .filter(|r| seen.insert(r.workload.clone()))
            .map(|r| r.workload.clone())
            .collect()
    };
    println!("=== {title} (normalised to baseline) ===");
    let header = {
        let mut h = format!("{:<12}", "workload");
        for s in &schemes {
            h.push_str(&format!(" {s:>14}"));
        }
        h
    };
    println!("{header}");
    rule(&header);
    let mut sums = vec![0.0f64; schemes.len()];
    for w in &workloads {
        let mut line = format!("{w:<12}");
        for (i, s) in schemes.iter().enumerate() {
            let v = rows
                .iter()
                .find(|r| &r.workload == w && &r.scheme == s)
                .map(metric)
                .unwrap_or(f64::NAN);
            sums[i] += v / workloads.len() as f64;
            line.push_str(&format!(" {v:>14.3}"));
        }
        println!("{line}");
    }
    rule(&header);
    let mut line = format!("{:<12}", "average");
    for s in &sums {
        line.push_str(&format!(" {s:>14.3}"));
    }
    println!("{line}");
    println!("{paper_note}");
    println!();
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
