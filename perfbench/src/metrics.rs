//! The metric catalogue, summary statistics and the result line.
//!
//! `BENCHMARK.json` at the repository root lists the same metrics; a test
//! keeps the two in step.

use std::collections::BTreeMap;

/// One metric: its name, unit and which direction is better.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// Printed by an untraced run (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("wall_s", "s", Lower),
    m("setup_s", "s", Lower),
    m("sim_minstr_per_s", "Minstr/s", Higher),
    m("peak_rss_mb", "MB", Lower),
    m("sim_ipc_sum", "instr/cycle", Higher),
    m("dram_energy_nj_per_kinstr", "nJ/kinstr", Lower),
];

/// Printed by a traced run (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.next_op_ns", "ns", Lower),
    m("workloads.mem_op_share", "ratio", Higher),
    m("cache_sim.access_ns.l1_hit", "ns", Lower),
    m("cache_sim.access_ns.l2_hit", "ns", Lower),
    m("cache_sim.access_ns.miss", "ns", Lower),
    m("cache_sim.l1_hit_ratio", "ratio", Higher),
    m("cache_sim.l2_hit_ratio", "ratio", Higher),
    m("cache_sim.writebacks_per_kaccess", "1/kaccess", Lower),
    m("dram_sim.tick_ns.idle.baseline", "ns", Lower),
    m("dram_sim.tick_ns.loaded.baseline", "ns", Lower),
    m("dram_sim.tick_ns.idle.pra", "ns", Lower),
    m("dram_sim.tick_ns.loaded.pra", "ns", Lower),
    m("dram_sim.tick_ns.idle.half_dram", "ns", Lower),
    m("dram_sim.tick_ns.loaded.half_dram", "ns", Lower),
    m("dram_sim.enqueue_rejects", "count", Lower),
    m("dram_sim.row_hit_ratio", "ratio", Higher),
    m("dram_sim.false_hit_ratio", "ratio", Lower),
    m("dram_sim.mean_act_mats", "MATs", Lower),
    m("dram_sim.read_latency_cycles", "mem-cycles", Lower),
    m("cpu_sim.loop_ms", "ms", Lower),
    m("cpu_sim.loop_ns_per_cpu_cycle", "ns", Lower),
    m("cpu_sim.loop_mem_cycles_per_s", "1/s", Higher),
    m("cpu_sim.self_ns_per_cpu_cycle_est", "ns", Lower),
    m("cpu_sim.drain_ms", "ms", Lower),
    m("cpu_sim.blocked_share", "ratio", Lower),
    m("cpu_sim.stall_cycles.rob", "cycles", Lower),
    m("cpu_sim.stall_cycles.ldq", "cycles", Lower),
    m("cpu_sim.stall_cycles.store_buffer", "cycles", Lower),
    m("core.build_ms", "ms", Lower),
    m("core.warmup_ms", "ms", Lower),
    m("core.report_ms", "ms", Lower),
    m("core.sims", "count", Lower),
    m("core.warmup_distinct_share", "ratio", Higher),
    m("sim_snap.save_ms", "ms", Lower),
    m("sim_snap.load_ms", "ms", Lower),
    m("sim_snap.bytes", "bytes", Lower),
    m("sim_prof.overhead_ratio", "ratio", Lower),
    m("sim_prof.empty_span_ns", "ns", Lower),
    m("bench.trace_overhead_ratio", "ratio", Lower),
    m("bench.phase_coverage", "ratio", Higher),
];

/// Median of `values` (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice: every caller measures at least once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0 (an empty denominator means no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One line per metric: name, value, unit and which direction is better.
pub fn table(defs: &[MetricDef], values: &BTreeMap<&'static str, f64>) -> String {
    let lines: Vec<String> = defs
        .iter()
        .map(|d| {
            let value = values.get(d.name).copied().unwrap_or(f64::NAN);
            format!(
                "  {:<36} {value:>16.6} {:<11} ({} is better)",
                d.name,
                d.unit,
                d.better.as_str()
            )
        })
        .collect();
    lines.join("\n")
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `defs`, in catalogue order.
///
/// # Errors
///
/// Names the first catalogued metric missing from `values` or not finite.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    defs: &[MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for def in defs {
        let value = *values
            .get(def.name)
            .ok_or_else(|| format!("metric {} was not measured", def.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", def.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            def.name, def.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                valid_unit(def.unit),
                "bad unit {:?} of {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "metric {} listed twice", def.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    fn benchmark_json_lists_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                def.name,
                def.unit,
                def.better.as_str()
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn result_line_has_every_metric_or_fails() {
        let defs = &END_TO_END[..2];
        let mut values = BTreeMap::new();
        values.insert("wall_s", 1.25);
        assert!(result_line(true, 1, 0, defs, &values).is_err());
        values.insert("setup_s", 0.5);
        let line = result_line(true, 3, 1, defs, &values).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": \
             {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        values.insert("wall_s", f64::NAN);
        assert!(result_line(true, 1, 0, defs, &values).is_err());
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
