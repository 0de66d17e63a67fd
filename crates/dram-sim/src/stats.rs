//! Counters collected by the simulator, feeding Table 1 and Figures 10/11.

use crate::scheme::FULL_ROW_MATS;

/// Row-buffer outcome counters for one request kind (read or write).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HitCounters {
    /// Requests served from an already-open row with sufficient coverage.
    pub hits: u64,
    /// Requests that matched the open row but found insufficient partial
    /// coverage (PRA's *false row buffer hits*, Section 5.2.1). Counted as
    /// misses in hit rates; also included in `misses`.
    pub false_hits: u64,
    /// Requests that needed an activation (row closed or conflicting row,
    /// plus false hits).
    pub misses: u64,
}

impl HitCounters {
    /// Total classified requests.
    pub fn total(&self) -> u64 {
        self.hits + self.misses
    }

    /// Row-buffer hit rate with false hits counted as misses (the paper's
    /// Figure 10 accounting).
    pub fn hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.hits as f64 / self.total() as f64
        }
    }

    /// Hypothetical conventional hit rate: what the rate would have been if
    /// false hits had been real hits.
    pub fn conventional_hit_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            (self.hits + self.false_hits) as f64 / self.total() as f64
        }
    }
}

/// All statistics the memory system collects during a run.
#[derive(Debug, Clone)]
pub struct DramStats {
    /// Memory-clock cycles simulated.
    pub cycles: u64,
    /// Read request outcomes.
    pub read: HitCounters,
    /// Write request outcomes.
    pub write: HitCounters,
    /// Completed read requests (data returned).
    pub reads_completed: u64,
    /// Completed write requests (data written to the array).
    pub writes_completed: u64,
    /// Sum of read latencies (enqueue to data completion) in cycles.
    pub read_latency_sum: u64,
    /// Activations histogram indexed by MATs driven minus one (0..16).
    /// `act_histogram[15]` counts full-row activations.
    pub act_histogram: [u64; FULL_ROW_MATS as usize],
    /// Activations triggered by reads, same indexing.
    pub act_histogram_reads: [u64; FULL_ROW_MATS as usize],
    /// Activation commands issued (including refresh-forced reopens).
    pub activations: u64,
    /// Precharge commands issued (explicit plus auto-precharge).
    pub precharges: u64,
    /// All-bank refresh commands issued.
    pub refreshes: u64,
    /// Cycles the data bus carried read or write bursts.
    pub bus_busy_cycles: u64,
    /// Row-hit streaks cut short by the fairness cap.
    pub hit_cap_precharges: u64,
    /// Write-drain mode entries.
    pub drain_entries: u64,
    /// Partial activations widened to full rows after a detected
    /// mask-transfer fault (fault injection only; always 0 otherwise).
    pub degraded_activations: u64,
    /// Injected mask faults that escaped C/A parity detection (an even
    /// number of flipped mask bits leaves the parity intact), so the
    /// activation proceeded with silently wrong coverage. Fault injection
    /// only; always 0 otherwise.
    pub parity_escapes: u64,
}

impl Default for DramStats {
    fn default() -> Self {
        DramStats {
            cycles: 0,
            read: HitCounters::default(),
            write: HitCounters::default(),
            reads_completed: 0,
            writes_completed: 0,
            read_latency_sum: 0,
            act_histogram: [0; FULL_ROW_MATS as usize],
            act_histogram_reads: [0; FULL_ROW_MATS as usize],
            activations: 0,
            precharges: 0,
            refreshes: 0,
            bus_busy_cycles: 0,
            hit_cap_precharges: 0,
            drain_entries: 0,
            degraded_activations: 0,
            parity_escapes: 0,
        }
    }
}

impl DramStats {
    /// Records an activation of `mats` MATs, attributed to a read or write.
    ///
    /// # Panics
    ///
    /// Panics if `mats` is outside `1..=16`.
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract; the protocol checker independently rejects out-of-range mats"
    )]
    pub fn record_activation(&mut self, mats: u32, for_read: bool) {
        if !(1..=FULL_ROW_MATS).contains(&mats) {
            panic!("mats {mats} out of range");
        }
        self.activations += 1;
        self.act_histogram[(mats - 1) as usize] += 1;
        if for_read {
            self.act_histogram_reads[(mats - 1) as usize] += 1;
        }
    }

    /// Combined row-buffer hit rate over reads and writes.
    pub fn total_hit_rate(&self) -> f64 {
        let total = self.read.total() + self.write.total();
        if total == 0 {
            0.0
        } else {
            (self.read.hits + self.write.hits) as f64 / total as f64
        }
    }

    /// Average read latency in memory cycles.
    pub fn avg_read_latency(&self) -> f64 {
        if self.reads_completed == 0 {
            0.0
        } else {
            self.read_latency_sum as f64 / self.reads_completed as f64
        }
    }

    /// Share of activations caused by writes (Table 1's "Row activation"
    /// split).
    pub fn write_activation_share(&self) -> f64 {
        let reads: u64 = self.act_histogram_reads.iter().sum();
        if self.activations == 0 {
            0.0
        } else {
            (self.activations - reads) as f64 / self.activations as f64
        }
    }

    /// Proportion of activations at each eighth-of-a-row granularity
    /// (Figure 11): index `k` holds the share of `(k+1)/8`-row activations.
    /// Sub-eighth (odd-MAT) activations from the combined scheme round up.
    pub fn granularity_proportions(&self) -> [f64; 8] {
        let mut out = [0.0; 8];
        let total: u64 = self.act_histogram.iter().sum();
        if total == 0 {
            return out;
        }
        for (i, &count) in self.act_histogram.iter().enumerate() {
            let mats = i as u32 + 1;
            let eighth = mats.div_ceil(2); // 1..=8
            out[(eighth - 1) as usize] += count as f64 / total as f64;
        }
        out
    }

    /// Mirrors every counter into `reg` under canonical `dram.*` names, so
    /// epoch snapshots and metric dumps see the same numbers the public
    /// accessors report. Registration is idempotent; call this whenever the
    /// registry needs to be brought up to date (epoch boundaries, end of
    /// run).
    pub fn publish_to(&self, reg: &mut sim_obs::MetricsRegistry) {
        let mut set = |name: &str, value: u64| {
            let id = reg.counter(name);
            reg.set_counter(id, value);
        };
        set("dram.cycles", self.cycles);
        set("dram.read.hits", self.read.hits);
        set("dram.read.false_hits", self.read.false_hits);
        set("dram.read.misses", self.read.misses);
        set("dram.write.hits", self.write.hits);
        set("dram.write.false_hits", self.write.false_hits);
        set("dram.write.misses", self.write.misses);
        set("dram.reads_completed", self.reads_completed);
        set("dram.writes_completed", self.writes_completed);
        set("dram.read_latency_sum", self.read_latency_sum);
        set("dram.activations", self.activations);
        let partial: u64 = self.act_histogram[..FULL_ROW_MATS as usize - 1]
            .iter()
            .sum();
        set("dram.activations.partial", partial);
        set(
            "dram.activations.for_reads",
            self.act_histogram_reads.iter().sum(),
        );
        set("dram.precharges", self.precharges);
        set("dram.refreshes", self.refreshes);
        set("dram.bus_busy_cycles", self.bus_busy_cycles);
        set("dram.hit_cap_precharges", self.hit_cap_precharges);
        set("dram.drain_entries", self.drain_entries);
        set("dram.degraded_activations", self.degraded_activations);
        set("fault.dram.escaped", self.parity_escapes);
    }

    /// Average activation granularity as a fraction of a full row; the
    /// paper's "reduces average row activation granularity by 42%" metric is
    /// `1.0 - this`.
    pub fn avg_activation_fraction(&self) -> f64 {
        let total: u64 = self.act_histogram.iter().sum();
        if total == 0 {
            return 1.0;
        }
        let weighted: f64 = self
            .act_histogram
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 + 1.0) / FULL_ROW_MATS as f64 * c as f64)
            .sum();
        weighted / total as f64
    }
}

impl sim_snap::SnapState for HitCounters {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.u64(self.hits);
        w.u64(self.false_hits);
        w.u64(self.misses);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        self.hits = r.u64()?;
        self.false_hits = r.u64()?;
        self.misses = r.u64()?;
        Ok(())
    }
}

impl sim_snap::SnapState for DramStats {
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("dram-stats");
        w.u64(self.cycles);
        self.read.snap_save(w);
        self.write.snap_save(w);
        w.u64(self.reads_completed);
        w.u64(self.writes_completed);
        w.u64(self.read_latency_sum);
        for c in self.act_histogram {
            w.u64(c);
        }
        for c in self.act_histogram_reads {
            w.u64(c);
        }
        w.u64(self.activations);
        w.u64(self.precharges);
        w.u64(self.refreshes);
        w.u64(self.bus_busy_cycles);
        w.u64(self.hit_cap_precharges);
        w.u64(self.drain_entries);
        w.u64(self.degraded_activations);
        w.u64(self.parity_escapes);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader<'_>) -> Result<(), sim_snap::SnapError> {
        r.section("dram-stats")?;
        self.cycles = r.u64()?;
        self.read.snap_load(r)?;
        self.write.snap_load(r)?;
        self.reads_completed = r.u64()?;
        self.writes_completed = r.u64()?;
        self.read_latency_sum = r.u64()?;
        for c in &mut self.act_histogram {
            *c = r.u64()?;
        }
        for c in &mut self.act_histogram_reads {
            *c = r.u64()?;
        }
        self.activations = r.u64()?;
        self.precharges = r.u64()?;
        self.refreshes = r.u64()?;
        self.bus_busy_cycles = r.u64()?;
        self.hit_cap_precharges = r.u64()?;
        self.drain_entries = r.u64()?;
        self.degraded_activations = r.u64()?;
        self.parity_escapes = r.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_with_false_hits() {
        let h = HitCounters {
            hits: 6,
            false_hits: 2,
            misses: 4,
        };
        assert!((h.hit_rate() - 0.6).abs() < 1e-12);
        assert!((h.conventional_hit_rate() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn empty_counters_are_zero() {
        let h = HitCounters::default();
        assert_eq!(h.hit_rate(), 0.0);
        assert_eq!(h.conventional_hit_rate(), 0.0);
        let s = DramStats::default();
        assert_eq!(s.total_hit_rate(), 0.0);
        assert_eq!(s.avg_read_latency(), 0.0);
        assert_eq!(s.avg_activation_fraction(), 1.0);
    }

    #[test]
    fn granularity_proportions_sum_to_one() {
        let mut s = DramStats::default();
        s.record_activation(16, true);
        s.record_activation(16, true);
        s.record_activation(2, false);
        s.record_activation(4, false);
        let p = s.granularity_proportions();
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((p[7] - 0.5).abs() < 1e-12, "full-row share");
        assert!((p[0] - 0.25).abs() < 1e-12, "1/8 share");
        assert!((p[1] - 0.25).abs() < 1e-12, "2/8 share");
    }

    #[test]
    fn odd_mats_round_up_to_next_eighth() {
        let mut s = DramStats::default();
        s.record_activation(1, false); // halved single group -> 1/8 bucket
        s.record_activation(3, false); // 1.5 groups -> 2/8 bucket
        let p = s.granularity_proportions();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn avg_activation_fraction_weighted() {
        let mut s = DramStats::default();
        s.record_activation(16, true);
        s.record_activation(2, false);
        // (1.0 + 0.125) / 2
        assert!((s.avg_activation_fraction() - 0.5625).abs() < 1e-12);
        assert!((s.write_activation_share() - 0.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn activation_rejects_zero_mats() {
        DramStats::default().record_activation(0, true);
    }

    #[test]
    fn false_hits_are_counted_inside_misses() {
        // A false hit is recorded by incrementing BOTH false_hits and
        // misses, so totals never double-count and false_hits <= misses.
        let mut h = HitCounters::default();
        for _ in 0..3 {
            h.hits += 1;
        }
        for _ in 0..2 {
            h.misses += 1; // plain conflict misses
        }
        for _ in 0..2 {
            h.false_hits += 1; // PRA false row-buffer hits...
            h.misses += 1; // ...always counted as misses too
        }
        assert_eq!(h.total(), 7, "false hits must not inflate the total");
        assert!(h.false_hits <= h.misses);
        assert!((h.hit_rate() - 3.0 / 7.0).abs() < 1e-12);
        assert!((h.conventional_hit_rate() - 5.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn conventional_hit_rate_never_below_hit_rate() {
        for hits in 0..6u64 {
            for false_hits in 0..6u64 {
                for extra_misses in 0..6u64 {
                    let h = HitCounters {
                        hits,
                        false_hits,
                        misses: false_hits + extra_misses,
                    };
                    assert!(
                        h.conventional_hit_rate() >= h.hit_rate() - 1e-12,
                        "{h:?}: conventional rate must dominate"
                    );
                    assert!(h.hit_rate() <= 1.0 && h.conventional_hit_rate() <= 1.0);
                }
            }
        }
    }

    #[test]
    fn publish_mirrors_counters_into_registry() {
        let mut s = DramStats {
            cycles: 1000,
            read: HitCounters {
                hits: 5,
                false_hits: 1,
                misses: 3,
            },
            ..DramStats::default()
        };
        s.record_activation(2, false);
        s.record_activation(16, true);
        s.refreshes = 4;
        let mut reg = sim_obs::MetricsRegistry::new();
        s.publish_to(&mut reg);
        assert_eq!(reg.counter_value("dram.cycles"), Some(1000));
        assert_eq!(reg.counter_value("dram.read.hits"), Some(5));
        assert_eq!(reg.counter_value("dram.read.false_hits"), Some(1));
        assert_eq!(reg.counter_value("dram.activations"), Some(2));
        assert_eq!(reg.counter_value("dram.activations.partial"), Some(1));
        assert_eq!(reg.counter_value("dram.activations.for_reads"), Some(1));
        assert_eq!(reg.counter_value("dram.refreshes"), Some(4));
        // Publishing again with advanced counters is fine (monotone).
        s.refreshes = 6;
        s.publish_to(&mut reg);
        assert_eq!(reg.counter_value("dram.refreshes"), Some(6));
    }
}
