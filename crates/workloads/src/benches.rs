//! The paper's benchmark suite, as calibrated synthetic profiles, plus the
//! Table 4 multiprogrammed mixes.
//!
//! Calibration targets come from the paper's Table 1 (row-buffer hit rates,
//! read/write traffic and activation shares) and Figure 3 (dirty words per
//! evicted line); EXPERIMENTS.md records measured-vs-paper numbers for the
//! shipped constants.

use crate::profile::{AccessPattern, BenchProfile};

const KB_LINES: u64 = 1024 / 64; // lines per KB
const MB_LINES: u64 = 1024 * KB_LINES;

/// bzip2 (SPEC CPU2006): the compute-bound outlier. Moderate read
/// streaming over a small working set; writes show almost no row locality.
pub fn bzip2() -> BenchProfile {
    BenchProfile {
        name: "bzip2",
        compute_per_mem: 60,
        store_fraction: 0.28,
        rmw_prob: 0.15,
        pattern: AccessPattern::Streamed {
            streams: 4,
            stream_prob: 0.45,
            burst: 4,
        },
        stores_stream: false,
        footprint_lines: 16 * MB_LINES,
        dirty_words_dist: [0.72, 0.15, 0.05, 0.03, 0.01, 0.01, 0.01, 0.02],
    }
}

/// lbm (SPEC CPU2006): a streaming stencil. High memory intensity, heavy
/// write traffic with real row locality and many fully-dirty lines.
pub fn lbm() -> BenchProfile {
    BenchProfile {
        name: "lbm",
        compute_per_mem: 10,
        store_fraction: 0.52,
        rmw_prob: 0.3,
        pattern: AccessPattern::Streamed {
            streams: 8,
            stream_prob: 0.30,
            burst: 2,
        },
        stores_stream: true,
        footprint_lines: 64 * MB_LINES,
        dirty_words_dist: [0.55, 0.20, 0.08, 0.05, 0.03, 0.02, 0.02, 0.05],
    }
}

/// libquantum (SPEC CPU2006): near-perfect streaming over a large array
/// with single-field updates — the highest row-buffer locality of the
/// suite, for reads and writes alike.
pub fn libquantum() -> BenchProfile {
    BenchProfile {
        name: "libquantum",
        compute_per_mem: 12,
        store_fraction: 0.30,
        rmw_prob: 0.6,
        pattern: AccessPattern::Streamed {
            streams: 2,
            stream_prob: 0.85,
            burst: 2,
        },
        stores_stream: true,
        footprint_lines: 32 * MB_LINES,
        dirty_words_dist: [0.90, 0.06, 0.02, 0.01, 0.005, 0.0025, 0.0025, 0.0],
    }
}

/// mcf (SPEC CPU2006): pointer chasing over a huge graph; read-dominated,
/// poor locality everywhere.
pub fn mcf() -> BenchProfile {
    BenchProfile {
        name: "mcf",
        compute_per_mem: 15,
        store_fraction: 0.20,
        rmw_prob: 0.3,
        pattern: AccessPattern::Streamed {
            streams: 2,
            stream_prob: 0.18,
            burst: 2,
        },
        stores_stream: false,
        footprint_lines: 128 * MB_LINES,
        dirty_words_dist: [0.90, 0.07, 0.02, 0.01, 0.0, 0.0, 0.0, 0.0],
    }
}

/// omnetpp (SPEC CPU2006): discrete-event simulation; moderate read
/// locality from event queues, scattered small writes.
pub fn omnetpp() -> BenchProfile {
    BenchProfile {
        name: "omnetpp",
        compute_per_mem: 22,
        store_fraction: 0.26,
        rmw_prob: 0.2,
        pattern: AccessPattern::Streamed {
            streams: 4,
            stream_prob: 0.60,
            burst: 4,
        },
        stores_stream: false,
        footprint_lines: 32 * MB_LINES,
        dirty_words_dist: [0.80, 0.12, 0.04, 0.02, 0.01, 0.005, 0.005, 0.0],
    }
}

/// em3d (Olden): irregular electromagnetic solver; random node updates,
/// nearly half the traffic is writes.
pub fn em3d() -> BenchProfile {
    BenchProfile {
        name: "em3d",
        compute_per_mem: 10,
        store_fraction: 0.49,
        rmw_prob: 0.92,
        pattern: AccessPattern::Random,
        stores_stream: false,
        footprint_lines: 64 * MB_LINES,
        dirty_words_dist: [0.95, 0.04, 0.01, 0.0, 0.0, 0.0, 0.0, 0.0],
    }
}

/// GUPS: random read-modify-write of single 8-byte words over a giant
/// table — the canonical worst case for row locality.
pub fn gups() -> BenchProfile {
    BenchProfile {
        name: "GUPS",
        compute_per_mem: 8,
        store_fraction: 0.47,
        rmw_prob: 0.97,
        pattern: AccessPattern::Random,
        stores_stream: false,
        footprint_lines: 256 * MB_LINES,
        dirty_words_dist: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    }
}

/// LinkedList: pointer chasing with occasional next-pointer updates.
pub fn linked_list() -> BenchProfile {
    BenchProfile {
        name: "LinkedList",
        compute_per_mem: 12,
        store_fraction: 0.33,
        rmw_prob: 0.9,
        pattern: AccessPattern::Random,
        stores_stream: false,
        footprint_lines: 64 * MB_LINES,
        dirty_words_dist: [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    }
}

/// All eight single-application benchmarks, in the paper's Table 1 order.
pub fn all_benchmarks() -> Vec<BenchProfile> {
    vec![
        bzip2(),
        lbm(),
        libquantum(),
        mcf(),
        omnetpp(),
        em3d(),
        gups(),
        linked_list(),
    ]
}

/// Looks a benchmark up by its paper name (case-insensitive).
pub fn by_name(name: &str) -> Option<BenchProfile> {
    all_benchmarks()
        .into_iter()
        .find(|b| b.name.eq_ignore_ascii_case(name))
}

/// A named 4-application mix (paper Table 4).
#[derive(Debug, Clone)]
pub struct Mix {
    /// Mix name (`MIX1`..`MIX6`).
    pub name: &'static str,
    /// The four applications, one per core.
    pub apps: [BenchProfile; 4],
}

/// The six Table 4 mixes.
pub fn all_mixes() -> Vec<Mix> {
    vec![
        Mix {
            name: "MIX1",
            apps: [bzip2(), lbm(), libquantum(), omnetpp()],
        },
        Mix {
            name: "MIX2",
            apps: [mcf(), em3d(), gups(), linked_list()],
        },
        Mix {
            name: "MIX3",
            apps: [bzip2(), mcf(), lbm(), em3d()],
        },
        Mix {
            name: "MIX4",
            apps: [libquantum(), gups(), omnetpp(), linked_list()],
        },
        Mix {
            name: "MIX5",
            apps: [bzip2(), linked_list(), lbm(), gups()],
        },
        Mix {
            name: "MIX6",
            apps: [libquantum(), em3d(), omnetpp(), mcf()],
        },
    ]
}

/// A workload by name: one benchmark run on every core, or one of the
/// Table 4 mixes.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A single-application benchmark.
    Bench(BenchProfile),
    /// A 4-application mix.
    Mix(Box<Mix>),
}

impl Workload {
    /// The paper's 14-workload evaluation set: the eight benchmarks, then
    /// the six mixes.
    pub fn suite() -> Vec<Workload> {
        all_benchmarks()
            .into_iter()
            .map(Workload::Bench)
            .chain(all_mixes().into_iter().map(|m| Workload::Mix(Box::new(m))))
            .collect()
    }

    /// The canonical name (`GUPS`, `MIX3`, ...).
    pub fn name(&self) -> &'static str {
        match self {
            Workload::Bench(profile) => profile.name,
            Workload::Mix(mix) => mix.name,
        }
    }

    /// One application per core: `cores` copies of a benchmark, or a mix's
    /// four applications whatever `cores` is.
    pub fn apps(&self, cores: usize) -> Vec<BenchProfile> {
        match self {
            Workload::Bench(profile) => vec![*profile; cores],
            Workload::Mix(mix) => mix.apps.to_vec(),
        }
    }
}

impl core::str::FromStr for Workload {
    type Err = String;

    /// Case-insensitive benchmark or mix name. The error lists the valid
    /// names.
    fn from_str(name: &str) -> Result<Self, String> {
        if let Some(mix) = all_mixes()
            .into_iter()
            .find(|m| m.name.eq_ignore_ascii_case(name))
        {
            return Ok(Workload::Mix(Box::new(mix)));
        }
        if let Some(profile) = by_name(name) {
            return Ok(Workload::Bench(profile));
        }
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        Err(format!(
            "unknown workload {name:?}; valid: {} or MIX1..MIX6",
            names.join(", ")
        ))
    }
}

/// The paper's full 14-workload evaluation set: each application run as
/// four identical instances, plus the six mixes. Returns `(name, apps)`
/// pairs with four profiles each.
pub fn all_workloads() -> Vec<(String, [BenchProfile; 4])> {
    Workload::suite()
        .into_iter()
        .map(|w| {
            let apps = match &w {
                Workload::Bench(b) => [*b; 4],
                Workload::Mix(m) => m.apps,
            };
            (w.name().to_string(), apps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_resolve_case_insensitively() {
        let gups: Workload = "gups".parse().unwrap();
        assert_eq!(gups.name(), "GUPS");
        assert_eq!(gups.apps(4).len(), 4);
        let mix: Workload = "mix3".parse().unwrap();
        assert_eq!(mix.name(), "MIX3");
        assert_eq!(mix.apps(1).len(), 4, "mixes are always four apps");
        let e = "dhrystone".parse::<Workload>().unwrap_err();
        assert!(
            e.starts_with("unknown workload \"dhrystone\"; valid: bzip2,"),
            "{e}"
        );
        for (name, _) in all_workloads() {
            assert_eq!(name.parse::<Workload>().unwrap().name(), name);
        }
    }

    #[test]
    fn all_profiles_valid() {
        for b in all_benchmarks() {
            b.assert_valid();
        }
    }

    #[test]
    fn suite_covers_paper_table1() {
        let names: Vec<&str> = all_benchmarks().iter().map(|b| b.name).collect();
        assert_eq!(
            names,
            [
                "bzip2",
                "lbm",
                "libquantum",
                "mcf",
                "omnetpp",
                "em3d",
                "GUPS",
                "LinkedList"
            ]
        );
    }

    #[test]
    fn mixes_match_table4() {
        let mixes = all_mixes();
        assert_eq!(mixes.len(), 6);
        assert_eq!(
            mixes[0].apps.iter().map(|b| b.name).collect::<Vec<_>>(),
            ["bzip2", "lbm", "libquantum", "omnetpp"]
        );
        assert_eq!(
            mixes[5].apps.iter().map(|b| b.name).collect::<Vec<_>>(),
            ["libquantum", "em3d", "omnetpp", "mcf"]
        );
        for m in &mixes {
            for app in &m.apps {
                app.assert_valid();
            }
        }
    }

    #[test]
    fn fourteen_workloads() {
        assert_eq!(all_workloads().len(), 14);
    }

    #[test]
    fn by_name_lookup() {
        assert_eq!(by_name("gups").unwrap().name, "GUPS");
        assert_eq!(by_name("LBM").unwrap().name, "lbm");
        assert!(by_name("dhrystone").is_none());
    }

    #[test]
    fn locality_ordering_matches_paper() {
        // Table 1: libquantum has the best read locality, GUPS/LinkedList/
        // em3d the worst. The profile proxies: stream_prob ordering.
        let streamy = |b: &BenchProfile| match b.pattern {
            AccessPattern::Streamed { stream_prob, .. } => stream_prob,
            AccessPattern::Random => 0.0,
        };
        assert!(streamy(&libquantum()) > streamy(&bzip2()));
        assert!(streamy(&bzip2()) > streamy(&mcf()));
        assert_eq!(streamy(&gups()), 0.0);
    }

    #[test]
    fn write_intensity_ordering_matches_paper() {
        // Table 1 traffic: em3d/GUPS near 50% writes, mcf the least.
        assert!(em3d().store_fraction > mcf().store_fraction);
        assert!(gups().store_fraction > bzip2().store_fraction);
    }
}
