//! The paper's tables and figures, each rendered in the paper's layout
//! next to the published numbers.

use std::fmt::Write;

use dram_power::PowerBreakdown;
use dram_sim::{PagePolicy, TimingParams};
use pra_core::experiments::{self, mean_by_scheme, ComparisonRow};
use pra_core::timing_diagram::{read_timeline, render, write_latencies, write_timeline};
use pra_core::SimBuilder;

use crate::chart::{BarChart, BarGroup, LineChart};
use crate::{pct, rule, ExperimentConfig, Rendered, ReportStore};

/// The paper's published Table 1, for side-by-side comparison:
/// (name, rb_hit_rd, rb_hit_wr, traffic_rd, traffic_wr, act_rd, act_wr) in %.
const TABLE1_PAPER: [(&str, f64, f64, f64, f64, f64, f64); 8] = [
    ("bzip2", 32.0, 1.0, 69.0, 31.0, 60.0, 40.0),
    ("lbm", 29.0, 18.0, 57.0, 43.0, 54.0, 46.0),
    ("libquantum", 73.0, 48.0, 66.0, 34.0, 50.0, 50.0),
    ("mcf", 18.0, 1.0, 79.0, 21.0, 76.0, 24.0),
    ("omnetpp", 47.0, 2.0, 71.0, 29.0, 57.0, 43.0),
    ("em3d", 5.0, 1.0, 51.0, 49.0, 50.0, 50.0),
    ("GUPS", 3.0, 1.0, 53.0, 47.0, 52.0, 48.0),
    ("LinkedList", 4.0, 1.0, 65.0, 35.0, 64.0, 36.0),
];

/// Each value as a percentage right-aligned in `width`, each preceded by a
/// space.
fn pcts(values: &[f64], width: usize) -> String {
    values
        .iter()
        .map(|v| format!(" {:>width$}", pct(*v)))
        .collect()
}

/// Column means of `rows`, accumulated as the sum of `value / rows.len()`.
fn column_means<const N: usize>(rows: &[[f64; N]]) -> [f64; N] {
    let mut means = [0.0; N];
    for row in rows {
        for (m, v) in means.iter_mut().zip(row) {
            *m += v / rows.len() as f64;
        }
    }
    means
}

/// **Table 1**: per-benchmark memory characteristics (row-buffer hit
/// rates, memory traffic split, row-activation split) on the single-core
/// baseline with the relaxed close-page policy.
pub fn table1(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let rows = experiments::table1(store, cfg);
    let values: Vec<[f64; 6]> = rows
        .iter()
        .map(|r| {
            let (h, t, a) = (r.rb_hit, r.traffic, r.activations);
            [h.0, h.1, t.0, t.1, a.0, a.1]
        })
        .collect();
    let line = |label: &str, v: &[f64; 6], paper: &str| {
        let (hit, traffic, act) = (pcts(&v[..2], 8), pcts(&v[2..4], 8), pcts(&v[4..], 8));
        format!("{label:<12} |{hit} |{traffic} |{act} | {paper}")
    };
    let header = format!(
        "{:<12} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8} | paper: hit rd/wr, traffic rd/wr, act rd/wr",
        "benchmark", "hit rd", "hit wr", "traf rd", "traf wr", "act rd", "act wr"
    );
    writeln!(out, "{header}")?;
    rule(&mut out, &header)?;
    for (row, v) in rows.iter().zip(&values) {
        let paper = TABLE1_PAPER.iter().find(|p| p.0 == row.name);
        let paper = paper.map_or(String::new(), |p| {
            format!("{}/{}, {}/{}, {}/{}", p.1, p.2, p.3, p.4, p.5, p.6)
        });
        writeln!(out, "{}", line(&row.name, v, &paper))?;
    }
    rule(&mut out, &header)?;
    let average = column_means(&values);
    writeln!(out, "{}", line("average", &average, "26/9, 64/36, 58/42"))?;
    Ok(vec![("table1.txt", out)])
}

/// **Table 2**: die area and row-activation energy breakdown of the 2 Gb
/// x8 DDR3-1600 chip. Pure model output — no simulation.
pub fn table2(_: &mut ReportStore, _: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let (energy, area) = experiments::table2();
    let sections = [
        (
            "Area (mm^2)                       paper",
            vec![
                ("DRAM cell", area.dram_cell_mm2, "4.677"),
                ("Sense amplifier", area.sense_amplifier_mm2, "1.909"),
                ("Row predecoder", area.row_predecoder_mm2, "0.067"),
                (
                    "Local wordline driver",
                    area.local_wordline_driver_mm2,
                    "1.617",
                ),
                ("Total die area", area.total_mm2, "11.884"),
            ],
        ),
        (
            "Energy per MAT (pJ)",
            vec![
                ("Local bitline", energy.local_bitline_pj, "15.583"),
                ("Local sense amplifier", energy.local_sense_amp_pj, "1.257"),
                ("Local wordline", energy.local_wordline_pj, "0.046"),
                ("Row decoder", energy.row_decoder_pj, "0.035"),
                ("Total per MAT", energy.per_mat_energy_pj(), "16.921"),
            ],
        ),
        (
            "Energy per bank (pJ)",
            vec![
                ("Row activation bus", energy.activation_bus_pj, "17.944"),
                ("Row predecoder", energy.row_predecoder_pj, "0.072"),
                (
                    "Total per activation",
                    energy.full_row_energy_pj(),
                    "288.752",
                ),
            ],
        ),
    ];
    writeln!(
        out,
        "Table 2: DRAM die area and row activation energy (2 Gb x8 DDR3-1600)"
    )?;
    for (title, rows) in sections {
        writeln!(out, "\n{title}")?;
        for (label, value, paper) in rows {
            writeln!(out, "  {label:<22} {value:>7.3}  {paper}")?;
        }
    }
    Ok(vec![("table2.txt", out)])
}

/// **Table 3**'s power rows: the per-granularity row-activation powers,
/// the Eq. (1)/(2) derivation, and every other component power parameter.
/// Pure model output — no simulation.
pub fn table3(_: &mut ReportStore, _: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let data = experiments::table3();
    let p = &data.params;
    writeln!(out, "Table 3: DRAM chip power parameters (mW)\n")?;
    writeln!(
        out,
        "  PRE STBY {:>6.1}   PRE PDN {:>6.1}   ACT STBY {:>6.1}   REF {:>6.1}",
        p.pre_stby_mw, p.pre_pdn_mw, p.act_stby_mw, p.ref_mw
    )?;
    writeln!(
        out,
        "  RD       {:>6.1}   WR      {:>6.1}   RD I/O   {:>6.1}",
        p.rd_mw, p.wr_mw, p.rd_io_mw
    )?;
    writeln!(
        out,
        "  WR ODT   {:>6.1}   RD TERM {:>6.1}   WR TERM  {:>6.1}",
        p.wr_odt_mw, p.rd_term_mw, p.wr_term_mw
    )?;
    writeln!(out, "\nRow activation power by granularity:")?;
    writeln!(
        out,
        "{:>10} {:>12} {:>16}",
        "rows", "published", "CACTI-projected"
    )?;
    let labels = ["1/8", "2/8", "3/8", "4/8", "5/8", "6/8", "7/8", "full"];
    for (i, label) in labels.iter().enumerate() {
        let (published, cacti) = (data.published_act_mw[i], data.cacti_projected_mw[i]);
        writeln!(out, "{label:>10} {published:>12.1} {cacti:>16.2}")?;
    }
    writeln!(
        out,
        "\nEq. (1)/(2) check: P_ACT(full) = {:.2} mW (paper: 22.2 mW) with \
         IDD0/IDD2N/IDD3N calibrated as documented in dram-power.",
        data.eq12_full_row_mw
    )?;
    Ok(vec![("table3.txt", out)])
}

/// **Figure 2**: baseline DRAM power-consumption breakdown (ACT-PRE, RD,
/// WR, RD I/O, WR I/O, BG, REF) per benchmark, single-core, relaxed
/// close-page. Draws `fig02.svg`.
pub fn fig02(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let runs = experiments::motivation_runs(store, cfg);
    let labels = PowerBreakdown::component_labels();
    let mut header = format!("{:<12} {:>9} |", "benchmark", "total mW");
    for label in labels {
        write!(header, " {label:>8}")?;
    }
    writeln!(out, "{header}")?;
    rule(&mut out, &header)?;
    let mut groups = Vec::new();
    for r in &runs {
        let total = r.power.total();
        let shares = r.power.components().map(|c| c / total);
        writeln!(out, "{:<12} {total:>9.1} |{}", r.workload, pcts(&shares, 8))?;
        groups.push(BarGroup {
            label: r.workload.clone(),
            values: shares.to_vec(),
        });
    }
    rule(&mut out, &header)?;
    let act_shares: Vec<f64> = runs.iter().map(|r| r.power.act_pre_share()).collect();
    let io_shares: Vec<f64> = runs.iter().map(|r| r.power.io_share()).collect();
    let avg = |v: &[f64]| pct(v.iter().sum::<f64>() / v.len() as f64);
    let max = |v: &[f64]| pct(v.iter().cloned().fold(0.0, f64::max));
    writeln!(
        out,
        "ACT-PRE share: avg {} (paper ~25%), max {} (paper ~33%)",
        avg(&act_shares),
        max(&act_shares)
    )?;
    writeln!(
        out,
        "I/O share:     avg {} (paper ~14%), max {} (paper ~19%)",
        avg(&io_shares),
        max(&io_shares)
    )?;
    let chart = BarChart {
        title: "Figure 2: baseline DRAM power breakdown".into(),
        y_label: "share of total power".into(),
        series: labels.iter().map(|s| s.to_string()).collect(),
        groups,
        reference: None,
    };
    Ok(vec![("fig02.txt", out), ("fig02.svg", chart.to_svg())])
}

/// **Figure 3**: the proportion of dirty words in a cache line when the
/// line is evicted from the LLC, per benchmark (single-core baseline).
pub fn fig03(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let runs = experiments::motivation_runs(store, cfg);
    let dists: Vec<[f64; 8]> = runs
        .iter()
        .map(|r| r.cache.dirty_word_proportions())
        .collect();
    let line = |label: &str, dist: &[f64; 8]| {
        let words: f64 = (1..=8).zip(dist).map(|(k, p)| f64::from(k) * p).sum();
        format!("{label:<12} |{} | {words:>6.2}", pcts(dist, 7))
    };
    let header = format!(
        "{:<12} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} | avg words",
        "benchmark", "1w", "2w", "3w", "4w", "5w", "6w", "7w", "8w"
    );
    writeln!(out, "{header}")?;
    rule(&mut out, &header)?;
    for (r, dist) in runs.iter().zip(&dists) {
        writeln!(out, "{}", line(&r.workload, dist))?;
    }
    rule(&mut out, &header)?;
    writeln!(out, "{}", line("average", &column_means(&dists)))?;
    writeln!(
        out,
        "(paper: single-word-dominated with a small fully-dirty mode; write \
         activation granularity averages 1/8 for ~36-39% of activations)"
    )?;
    Ok(vec![("fig03.txt", out)])
}

/// **Figure 7**: partial-row-activation timing versus conventional
/// full-row-activation timing, as ASCII command/data-bus diagrams derived
/// from the Table 3 parameters.
pub fn fig07(_: &mut ReportStore, _: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let t = TimingParams::ddr3_1600_table3();
    for (partial, title, wr_at) in [
        (
            true,
            "(a): partial row activation (write, PRA# pulled low)",
            "tRCD+tCK",
        ),
        (
            false,
            "(b): full row activation (write, PRA# pulled high)",
            "tRCD",
        ),
    ] {
        writeln!(out, "Figure 7{title}\n")?;
        out.push_str(&render(&write_timeline(&t, partial)));
        let (wr, data, pre) = write_latencies(&t, partial);
        writeln!(
            out,
            "  -> WR at {wr_at} = {wr}, data at +WL = {data}, PRE at {pre}\n"
        )?;
    }
    writeln!(out, "read path (always full activation, full bandwidth):\n")?;
    out.push_str(&render(&read_timeline(&t)));
    writeln!(
        out,
        "\nthe one-cycle PRA mask transfer is the entire timing cost of a \
         partial activation; reads never pay it."
    )?;
    Ok(vec![("fig07.txt", out)])
}

/// **Figure 9**: row activation energy as a function of the number of
/// MATs activated. Pure model output — no simulation. Draws `fig09.svg`.
pub fn fig09(_: &mut ReportStore, _: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let points = experiments::fig9();
    writeln!(
        out,
        "Figure 9: activation energy vs MATs activated (2 Gb x8 DDR3, 20 nm)"
    )?;
    writeln!(out, "{:>5} {:>12} {:>10}", "MATs", "energy (pJ)", "vs full")?;
    for p in &points {
        writeln!(
            out,
            "{:>5} {:>12.3} {:>10}",
            p.mats,
            p.energy_pj,
            pct(p.ratio)
        )?;
    }
    writeln!(
        out,
        "\npaper's observation: halving the MATs does not halve energy because \
         the activation bus and row predecoder are shared (8-MAT ratio stays \
         above 50%)."
    )?;
    let chart = LineChart {
        title: "Figure 9: row activation energy vs MATs activated".into(),
        x_label: "MATs activated".into(),
        y_label: "energy (pJ)".into(),
        points: points
            .iter()
            .map(|p| (f64::from(p.mats), p.energy_pj))
            .collect(),
    };
    Ok(vec![("fig09.txt", out), ("fig09.svg", chart.to_svg())])
}

/// The runs of [`fig10`].
pub fn fig10_runs(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    experiments::pra_builders(cfg, PagePolicy::RelaxedClosePage)
}

/// The runs of [`fig11`]: PRA under both close-page policies.
pub fn fig11_runs(cfg: &ExperimentConfig) -> Vec<SimBuilder> {
    let mut runs = experiments::pra_builders(cfg, PagePolicy::RestrictedClosePage);
    runs.extend(experiments::pra_builders(cfg, PagePolicy::RelaxedClosePage));
    runs
}

/// **Figure 10**: PRA's impact on row-buffer read, write and total hit
/// rates (false row-buffer hits counted as misses), across the 14
/// four-core workloads, relaxed close-page.
pub fn fig10(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let rows = experiments::fig10(store, cfg);
    let header = format!(
        "{:<12} | {:>8} {:>8} {:>8} | {:>9} {:>9} | {:>9} {:>9}",
        "workload", "hit rd", "hit wr", "hit tot", "false rd", "false wr", "conv rd", "conv wr"
    );
    writeln!(out, "{header}")?;
    rule(&mut out, &header)?;
    let mut values = Vec::new();
    for r in &rows {
        let v = [
            r.hit_rates.0,
            r.hit_rates.1,
            r.hit_rates.2,
            r.false_rates.0,
            r.false_rates.1,
        ];
        let conventional = pcts(&[r.conventional.0, r.conventional.1], 9);
        let (hits, false_hits) = (pcts(&v[..3], 8), pcts(&v[3..], 9));
        writeln!(out, "{:<12} |{hits} |{false_hits} |{conventional}", r.name)?;
        values.push(v);
    }
    rule(&mut out, &header)?;
    let average = column_means(&values);
    let (hits, false_hits) = (pcts(&average[..3], 8), pcts(&average[3..], 9));
    writeln!(out, "{:<12} |{hits} |{false_hits} |", "average")?;
    writeln!(
        out,
        "\npaper: read false hits are rare (max 0.26%, avg 0.04%); total hit \
         rate drops only ~0.1% (from 11.2% to 11.1%)."
    )?;
    Ok(vec![("fig10.txt", out)])
}

/// **Figure 11**: the proportion of row-activation granularities under
/// PRA, for both the restricted and the relaxed close-page policies,
/// across the 14 four-core workloads. Draws `fig11.svg` (relaxed).
pub fn fig11(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let mut relaxed = Vec::new();
    for (name, policy, paper_avg) in [
        (
            "restricted close-page",
            PagePolicy::RestrictedClosePage,
            [0.36, 0.023, 0.004, 0.012, 0.0004, 0.0004, 0.0002, 0.60],
        ),
        (
            "relaxed close-page",
            PagePolicy::RelaxedClosePage,
            [0.39, 0.02, 0.0043, 0.0045, 0.0005, 0.0005, 0.0002, 0.58],
        ),
    ] {
        let rows = experiments::fig11(store, cfg, policy);
        writeln!(out, "=== {name} ===")?;
        let header = format!(
            "{:<12} | {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
            "workload", "1/8", "2/8", "3/8", "4/8", "5/8", "6/8", "7/8", "full"
        );
        writeln!(out, "{header}")?;
        rule(&mut out, &header)?;
        for (workload, dist) in &rows {
            writeln!(out, "{workload:<12} |{}", pcts(dist, 7))?;
        }
        rule(&mut out, &header)?;
        writeln!(out, "{:<12} |{}\n", "paper avg", pcts(&paper_avg, 7))?;
        relaxed = rows;
    }
    let chart = BarChart {
        title: "Figure 11: PRA activation granularities (relaxed close-page)".into(),
        y_label: "proportion of activations".into(),
        series: (1..=8).map(|k| format!("{k}/8")).collect(),
        groups: relaxed
            .into_iter()
            .map(|(label, dist)| BarGroup {
                label,
                values: dist.to_vec(),
            })
            .collect(),
        reference: None,
    };
    Ok(vec![("fig11.txt", out), ("fig11.svg", chart.to_svg())])
}

/// One normalised metric of a scheme comparison: its title, the field it
/// reads, and the paper's numbers.
type Metric = (&'static str, Field, &'static str);

/// The normalised field of a comparison row that a metric or chart reads.
type Field = fn(&ComparisonRow) -> f64;

/// **Figure 12**: normalised DRAM row-activation, I/O and total power of
/// FGA, Half-DRAM and PRA, across the 14 four-core workloads, relaxed
/// close-page. Draws `fig12_total_power.svg`.
pub fn fig12(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let metrics: [Metric; 3] = [
        (
            "Figure 12(a): row activation power",
            |r| r.norm_act_power,
            "paper: PRA up to -43%, avg -34%; FGA/Half-DRAM save more (half rows on all traffic)",
        ),
        (
            "Figure 12(b): I/O power",
            |r| r.norm_io_power,
            "paper: PRA up to -58%, avg -45%; Half-DRAM unchanged; FGA only via longer runtime",
        ),
        (
            "Figure 12(c): total DRAM power",
            |r| r.norm_total_power,
            "paper: PRA up to -32%, avg -23%; FGA avg -15%; Half-DRAM avg -11%",
        ),
    ];
    let charts = [(
        "fig12_total_power.svg",
        "Figure 12(c): total DRAM power",
        metrics[2].1,
    )];
    fig12_13(store, cfg, "fig12.txt", &metrics, &charts)
}

/// **Figure 13**: normalised performance (weighted speedup), DRAM energy
/// and energy-delay product of FGA, Half-DRAM and PRA, across the 14
/// four-core workloads, relaxed close-page. Draws `fig13_performance.svg`
/// and `fig13_edp.svg`.
pub fn fig13(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let metrics: [Metric; 3] = [
        (
            "Figure 13(a): performance (weighted speedup)",
            |r| r.norm_performance,
            "paper: PRA -0.8% avg (max -4.8%); Half-DRAM +0.3% avg; FGA -14% avg (max -18%)",
        ),
        (
            "Figure 13(b): DRAM energy",
            |r| r.norm_energy,
            "paper: PRA up to -34%, avg -23%",
        ),
        (
            "Figure 13(c): energy-delay product",
            |r| r.norm_edp,
            "paper: PRA up to -32%, avg -22%",
        ),
    ];
    let charts = [
        (
            "fig13_performance.svg",
            "Figure 13(a): weighted speedup",
            metrics[0].1,
        ),
        (
            "fig13_edp.svg",
            "Figure 13(c): energy-delay product",
            metrics[2].1,
        ),
    ];
    fig12_13(store, cfg, "fig13.txt", &metrics, &charts)
}

/// Renders `metrics` of the Figure 12/13 comparison as tables into the
/// text file `txt`, and `charts` as `(file, title, metric)` grouped-bar
/// SVGs.
fn fig12_13(
    store: &mut ReportStore,
    cfg: &ExperimentConfig,
    txt: &'static str,
    metrics: &[Metric],
    charts: &[(&'static str, &str, Field)],
) -> Rendered {
    let mut out = String::new();
    let rows = experiments::fig12_13_with(store, cfg);
    let (schemes, workloads) = schemes_and_workloads(&rows);
    for (title, metric, paper_note) in metrics {
        writeln!(out, "=== {title} (normalised to baseline) ===")?;
        let mut header = format!("{:<12}", "workload");
        for s in &schemes {
            write!(header, " {s:>14}")?;
        }
        writeln!(out, "{header}")?;
        rule(&mut out, &header)?;
        let mut sums = vec![0.0f64; schemes.len()];
        for w in &workloads {
            write!(out, "{w:<12}")?;
            for (sum, s) in sums.iter_mut().zip(&schemes) {
                let v = rows
                    .iter()
                    .find(|r| r.workload == *w && r.scheme == *s)
                    .map_or(f64::NAN, metric);
                *sum += v / workloads.len() as f64;
                write!(out, " {v:>14.3}")?;
            }
            writeln!(out)?;
        }
        rule(&mut out, &header)?;
        write!(out, "{:<12}", "average")?;
        for s in &sums {
            write!(out, " {s:>14.3}")?;
        }
        writeln!(out, "\n{paper_note}\n")?;
    }
    let mut files = vec![(txt, out)];
    for &(file, title, metric) in charts {
        let chart = BarChart {
            title: title.to_string(),
            y_label: "normalised to baseline".to_string(),
            series: schemes.iter().map(|s| s.to_string()).collect(),
            groups: workloads
                .iter()
                .map(|w| BarGroup {
                    label: w.to_string(),
                    values: rows
                        .iter()
                        .filter(|r| r.workload == *w)
                        .map(metric)
                        .collect(),
                })
                .collect(),
            reference: Some(1.0),
        };
        files.push((file, chart.to_svg()));
    }
    Ok(files)
}

/// Schemes, then workloads, each in first-appearance order.
fn schemes_and_workloads(rows: &[ComparisonRow]) -> (Vec<&str>, Vec<&str>) {
    let mut schemes: Vec<&str> = Vec::new();
    let mut workloads: Vec<&str> = Vec::new();
    for r in rows {
        if !schemes.contains(&r.scheme.as_str()) {
            schemes.push(&r.scheme);
        }
        if !workloads.contains(&r.workload.as_str()) {
            workloads.push(&r.workload);
        }
    }
    (schemes, workloads)
}

/// **Figure 14**: Half-DRAM vs PRA vs the combined Half-DRAM + PRA scheme
/// under the restricted close-page policy (the paper reports 14-workload
/// means).
pub fn fig14(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let rows = experiments::fig14(store, cfg);
    writeln!(
        out,
        "Figure 14: 14-workload means, normalised to restricted-close-page baseline"
    )?;
    writeln!(
        out,
        "{:<15} {:>10} {:>10} {:>10} {:>10}",
        "scheme", "power", "perf", "energy", "EDP"
    )?;
    // m = [act, io, total power, perf, energy, edp]
    for (scheme, m) in mean_by_scheme(&rows) {
        writeln!(
            out,
            "{scheme:<15} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            m[2], m[3], m[4], m[5]
        )?;
    }
    writeln!(
        out,
        "\npaper: the combined scheme beats both components on power/energy/EDP \
         and shows the best performance (timing relaxation matters most under \
         restricted close-page)."
    )?;
    Ok(vec![("fig14.txt", out)])
}

/// **Figure 15**: DBI vs PRA vs the combined DBI + PRA scheme. The paper
/// shows bzip2, GUPS and em3d individually plus the 14-workload mean.
pub fn fig15(store: &mut ReportStore, cfg: &ExperimentConfig) -> Rendered {
    let mut out = String::new();
    let rows = experiments::fig15(store, cfg);
    let line = |scheme: &str, m: [f64; 4]| {
        format!(
            "{scheme:<10} power {:>7.3}  perf {:>7.3}  energy {:>7.3}  EDP {:>7.3}",
            m[0], m[1], m[2], m[3]
        )
    };
    writeln!(
        out,
        "Figure 15: DBI vs PRA vs DBI+PRA, normalised to baseline\n"
    )?;
    for w in ["bzip2", "GUPS", "em3d"] {
        writeln!(out, "--- {w} ---")?;
        for r in rows.iter().filter(|r| r.workload == w) {
            let m = [
                r.norm_total_power,
                r.norm_performance,
                r.norm_energy,
                r.norm_edp,
            ];
            writeln!(out, "{}", line(&r.scheme, m))?;
        }
        writeln!(out)?;
    }
    writeln!(out, "--- MEAN (all 14 workloads) ---")?;
    for (scheme, m) in mean_by_scheme(&rows) {
        writeln!(out, "{}", line(&scheme, [m[2], m[3], m[4], m[5]]))?;
    }
    writeln!(
        out,
        "\npaper: DBI helps performance, PRA helps power; the combination beats \
         DBI alone on power but trails PRA alone (extra false row-buffer hits \
         from DBI's write bursts)."
    )?;
    Ok(vec![("fig15.txt", out)])
}
