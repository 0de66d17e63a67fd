//! The metrics registry: named counters, gauges and histograms with
//! epoch-delta snapshots.
//!
//! Names follow a dotted `component.noun[.qualifier]` convention
//! (`dram.activations`, `cache.l1_hits`, `dram.read_latency`). Registration
//! returns a copyable [`MetricId`]; the hot path updates by id (a vector
//! index), never by name.
//!
//! Counters are monotonically non-decreasing totals; [`MetricsRegistry::
//! epoch_snapshot`] reports the *delta* since the previous snapshot, so
//! summing a run's epoch records reproduces its end-of-run aggregates
//! exactly. Gauges snapshot their current value; histograms report delta
//! count/sum plus cumulative quantile estimates.

use std::collections::HashMap;
use std::fmt::Write as _;

use crate::hist::Log2Histogram;

/// Handle to a registered metric (index into the registry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MetricId(usize);

#[derive(Debug, Clone)]
enum Slot {
    Counter {
        value: u64,
        prev: u64,
    },
    Gauge {
        value: f64,
    },
    Histogram {
        hist: Box<Log2Histogram>,
        prev_count: u64,
        prev_sum: u64,
    },
}

impl Slot {
    fn kind_name(&self) -> &'static str {
        match self {
            Slot::Counter { .. } => "counter",
            Slot::Gauge { .. } => "gauge",
            Slot::Histogram { .. } => "histogram",
        }
    }
}

/// Per-histogram entry in an [`EpochSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramDelta {
    /// Samples recorded during the epoch.
    pub count: u64,
    /// Sum of samples recorded during the epoch.
    pub sum: u64,
    /// Cumulative (run-so-far) median estimate.
    pub p50: u64,
    /// Cumulative 95th-percentile estimate.
    pub p95: u64,
    /// Cumulative 99th-percentile estimate.
    pub p99: u64,
}

/// One serialized epoch: counter deltas, gauge values and histogram deltas
/// between two points of simulated time.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochSnapshot {
    /// Zero-based epoch number.
    pub index: u64,
    /// First cycle covered (inclusive).
    pub start_cycle: u64,
    /// Last cycle covered (exclusive).
    pub end_cycle: u64,
    /// `(name, delta)` for every registered counter, in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge, in name order.
    pub gauges: Vec<(String, f64)>,
    /// `(name, delta)` for every registered histogram, in name order.
    pub histograms: Vec<(String, HistogramDelta)>,
}

impl EpochSnapshot {
    /// Serializes the snapshot as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{{\"epoch\":{},\"start_cycle\":{},\"end_cycle\":{},\"counters\":{{",
            self.index, self.start_cycle, self.end_cycle
        );
        for (i, (name, delta)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{delta}");
        }
        s.push_str("},\"gauges\":{");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\"{name}\":{value}");
        }
        s.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                s,
                "{sep}\"{name}\":{{\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
                h.count, h.sum, h.p50, h.p95, h.p99
            );
        }
        s.push_str("}}");
        s
    }
}

/// A registry of named metrics. See the module docs for conventions.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    slots: Vec<(String, Slot)>,
    index: HashMap<String, MetricId>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    #[expect(
        clippy::panic,
        reason = "documented # Panics contract of counter/gauge/histogram: one name has one kind"
    )]
    fn register(&mut self, name: &str, slot: Slot) -> MetricId {
        if let Some(&id) = self.index.get(name) {
            let existing = self.slots[id.0].1.kind_name();
            if existing != slot.kind_name() {
                panic!("metric `{name}` already registered as a {existing}");
            }
            return id;
        }
        let id = MetricId(self.slots.len());
        self.slots.push((name.to_string(), slot));
        self.index.insert(name.to_string(), id);
        id
    }

    /// Registers (or looks up) a monotonic counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a different kind.
    pub fn counter(&mut self, name: &str) -> MetricId {
        self.register(name, Slot::Counter { value: 0, prev: 0 })
    }

    /// Registers (or looks up) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a different kind.
    pub fn gauge(&mut self, name: &str) -> MetricId {
        self.register(name, Slot::Gauge { value: 0.0 })
    }

    /// Registers (or looks up) a log2 histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is registered with a different kind.
    pub fn histogram(&mut self, name: &str) -> MetricId {
        self.register(
            name,
            Slot::Histogram {
                hist: Box::new(Log2Histogram::new()),
                prev_count: 0,
                prev_sum: 0,
            },
        )
    }

    /// Adds `delta` to a counter.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a counter.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "a MetricId is minted only by this registry, with the kind its call site asked for"
    )]
    pub fn add(&mut self, id: MetricId, delta: u64) {
        match &mut self.slots[id.0].1 {
            Slot::Counter { value, .. } => *value += delta,
            other => panic!("add on a {}", other.kind_name()),
        }
    }

    /// Publishes an absolute counter total (used to mirror externally
    /// maintained aggregates like `DramStats` fields).
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a counter or `total` would move it backwards.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "documented # Panics contract: publishers mirror monotonic ledgers through counter ids this registry minted"
    )]
    pub fn set_counter(&mut self, id: MetricId, total: u64) {
        match &mut self.slots[id.0].1 {
            Slot::Counter { value, .. } => {
                if total < *value {
                    panic!("counter moving backwards: {total} < {value}");
                }
                *value = total;
            }
            other => panic!("set_counter on a {}", other.kind_name()),
        }
    }

    /// Sets a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a gauge.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "a MetricId is minted only by this registry, with the kind its call site asked for"
    )]
    pub fn set_gauge(&mut self, id: MetricId, value: f64) {
        match &mut self.slots[id.0].1 {
            Slot::Gauge { value: v } => *v = value,
            other => panic!("set_gauge on a {}", other.kind_name()),
        }
    }

    /// Records a histogram sample.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a histogram.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "a MetricId is minted only by this registry, with the kind its call site asked for"
    )]
    pub fn observe(&mut self, id: MetricId, sample: u64) {
        match &mut self.slots[id.0].1 {
            Slot::Histogram { hist, .. } => hist.record(sample),
            other => panic!("observe on a {}", other.kind_name()),
        }
    }

    /// Current total of a counter by name.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.index.get(name).map(|id| &self.slots[id.0].1) {
            Some(Slot::Counter { value, .. }) => Some(*value),
            _ => None,
        }
    }

    /// Current value of a gauge by name.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.index.get(name).map(|id| &self.slots[id.0].1) {
            Some(Slot::Gauge { value }) => Some(*value),
            _ => None,
        }
    }

    /// Read access to a histogram by name.
    pub fn histogram_value(&self, name: &str) -> Option<&Log2Histogram> {
        match self.index.get(name).map(|id| &self.slots[id.0].1) {
            Some(Slot::Histogram { hist, .. }) => Some(hist),
            _ => None,
        }
    }

    /// All registered metric names with their kinds, in name order.
    pub fn names(&self) -> Vec<(String, &'static str)> {
        let mut out: Vec<(String, &'static str)> = self
            .slots
            .iter()
            .map(|(n, s)| (n.clone(), s.kind_name()))
            .collect();
        out.sort();
        out
    }

    /// Takes an epoch snapshot covering `[start_cycle, end_cycle)`:
    /// counters and histograms report deltas since the previous snapshot
    /// (and advance their baseline), gauges report current values.
    pub fn epoch_snapshot(
        &mut self,
        index: u64,
        start_cycle: u64,
        end_cycle: u64,
    ) -> EpochSnapshot {
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, slot) in &mut self.slots {
            match slot {
                Slot::Counter { value, prev } => {
                    counters.push((name.clone(), *value - *prev));
                    *prev = *value;
                }
                Slot::Gauge { value } => gauges.push((name.clone(), *value)),
                Slot::Histogram {
                    hist,
                    prev_count,
                    prev_sum,
                } => {
                    histograms.push((
                        name.clone(),
                        HistogramDelta {
                            count: hist.count() - *prev_count,
                            sum: hist.sum() - *prev_sum,
                            p50: hist.p50(),
                            p95: hist.p95(),
                            p99: hist.p99(),
                        },
                    ));
                    *prev_count = hist.count();
                    *prev_sum = hist.sum();
                }
            }
        }
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        EpochSnapshot {
            index,
            start_cycle,
            end_cycle,
            counters,
            gauges,
            histograms,
        }
    }
}

impl sim_snap::SnapState for MetricsRegistry {
    // Slots travel in registration order, which is the deterministic
    // construction order of the instrumented components — so a restore
    // rebuilds the identical slot vector and every `MetricId` minted by
    // the rebuilt components still indexes its own metric.
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("metrics-registry");
        w.seq(self.slots.len());
        for (name, slot) in &self.slots {
            w.str(name);
            match slot {
                Slot::Counter { value, prev } => {
                    w.u8(0);
                    w.u64(*value);
                    w.u64(*prev);
                }
                Slot::Gauge { value } => {
                    w.u8(1);
                    w.f64(*value);
                }
                Slot::Histogram {
                    hist,
                    prev_count,
                    prev_sum,
                } => {
                    w.u8(2);
                    hist.snap_save(w);
                    w.u64(*prev_count);
                    w.u64(*prev_sum);
                }
            }
        }
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        r.section("metrics-registry")?;
        self.slots.clear();
        self.index.clear();
        for _ in 0..r.seq()? {
            let name = r.str()?;
            let slot = match r.u8()? {
                0 => Slot::Counter {
                    value: r.u64()?,
                    prev: r.u64()?,
                },
                1 => Slot::Gauge { value: r.f64()? },
                2 => {
                    let mut hist = Box::new(Log2Histogram::new());
                    hist.snap_load(r)?;
                    Slot::Histogram {
                        hist,
                        prev_count: r.u64()?,
                        prev_sum: r.u64()?,
                    }
                }
                other => {
                    return Err(sim_snap::SnapError::Decode(format!(
                        "unknown metric slot kind tag {other}"
                    )))
                }
            };
            let id = MetricId(self.slots.len());
            self.index.insert(name.clone(), id);
            self.slots.push((name, slot));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_snapshot_deltas() {
        let mut r = MetricsRegistry::new();
        let acts = r.counter("dram.activations");
        r.add(acts, 3);
        let s0 = r.epoch_snapshot(0, 0, 100);
        r.add(acts, 5);
        let s1 = r.epoch_snapshot(1, 100, 200);
        assert_eq!(s0.counters, vec![("dram.activations".to_string(), 3)]);
        assert_eq!(s1.counters, vec![("dram.activations".to_string(), 5)]);
        assert_eq!(r.counter_value("dram.activations"), Some(8));
        // Deltas sum to the aggregate.
        let summed: u64 = s0.counters[0].1 + s1.counters[0].1;
        assert_eq!(summed, 8);
    }

    #[test]
    fn set_counter_mirrors_external_totals() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("dram.reads");
        r.set_counter(c, 10);
        let s0 = r.epoch_snapshot(0, 0, 1);
        r.set_counter(c, 25);
        let s1 = r.epoch_snapshot(1, 1, 2);
        assert_eq!(s0.counters[0].1, 10);
        assert_eq!(s1.counters[0].1, 15);
    }

    #[test]
    #[should_panic(expected = "moving backwards")]
    fn counters_are_monotonic() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("x");
        r.set_counter(c, 5);
        r.set_counter(c, 4);
    }

    #[test]
    fn registration_is_idempotent_but_kind_checked() {
        let mut r = MetricsRegistry::new();
        let a = r.counter("dram.acts");
        let b = r.counter("dram.acts");
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_panic() {
        let mut r = MetricsRegistry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_epoch_deltas() {
        let mut r = MetricsRegistry::new();
        let h = r.histogram("dram.read_latency");
        r.observe(h, 10);
        r.observe(h, 20);
        let s0 = r.epoch_snapshot(0, 0, 50);
        r.observe(h, 40);
        let s1 = r.epoch_snapshot(1, 50, 100);
        assert_eq!(s0.histograms[0].1.count, 2);
        assert_eq!(s0.histograms[0].1.sum, 30);
        assert_eq!(s1.histograms[0].1.count, 1);
        assert_eq!(s1.histograms[0].1.sum, 40);
        let total: u64 = s0.histograms[0].1.count + s1.histograms[0].1.count;
        assert_eq!(
            total,
            r.histogram_value("dram.read_latency").unwrap().count()
        );
    }

    #[test]
    fn gauges_report_current_value() {
        let mut r = MetricsRegistry::new();
        let g = r.gauge("dram.read_queue_depth");
        r.set_gauge(g, 7.5);
        let s = r.epoch_snapshot(0, 0, 1);
        assert_eq!(s.gauges, vec![("dram.read_queue_depth".to_string(), 7.5)]);
    }

    #[test]
    fn snapshot_json_is_well_formed() {
        let mut r = MetricsRegistry::new();
        let c = r.counter("dram.acts");
        let g = r.gauge("q.depth");
        let h = r.histogram("lat");
        r.add(c, 2);
        r.set_gauge(g, 1.5);
        r.observe(h, 9);
        let json = r.epoch_snapshot(3, 100, 200).to_json();
        assert_eq!(
            json,
            "{\"epoch\":3,\"start_cycle\":100,\"end_cycle\":200,\
             \"counters\":{\"dram.acts\":2},\"gauges\":{\"q.depth\":1.5},\
             \"histograms\":{\"lat\":{\"count\":1,\"sum\":9,\"p50\":9,\"p95\":9,\"p99\":9}}}"
        );
    }
}
