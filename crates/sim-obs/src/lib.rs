//! Observability layer for the PRA simulation stack.
//!
//! Three pieces, designed to cost nothing when switched off:
//!
//! * **Event tracing** — typed [`TraceEvent`]s (DRAM commands with cycle,
//!   channel/rank/bank, row and PRA mat-mask; cache fills/writebacks; core
//!   stalls) flow through a [`TraceSink`]: [`NullSink`] (default, disabled),
//!   [`RingSink`] (in-memory flight recorder) or [`JsonlSink`] (JSON Lines
//!   file).
//! * **Metrics registry** — [`MetricsRegistry`] holds named counters,
//!   gauges and [`Log2Histogram`]s (read-latency p50/p95/p99, queue
//!   occupancy, activation granularity) under a dotted naming convention.
//! * **Epoch snapshots** — every N cycles the [`Observer`] serializes a
//!   delta record ([`EpochSnapshot`]); counter deltas across a run sum to
//!   its end-of-run aggregates, giving a time series chartable by the
//!   `bench` crate and inspectable via `pra trace`.
//!
//! # Example
//!
//! ```
//! use sim_obs::{Observer, RingSink, TraceEvent};
//! use std::cell::RefCell;
//! use std::rc::Rc;
//!
//! let ring = Rc::new(RefCell::new(RingSink::new(1024)));
//! let mut obs = Observer::disabled();
//! obs.set_sink(Box::new(Rc::clone(&ring)));
//! obs.set_epochs(1000, None);
//!
//! let acts = obs.registry.counter("dram.activations");
//! obs.registry.add(acts, 1);
//! obs.emit(|| TraceEvent::Activate {
//!     cycle: 12, channel: 0, rank: 0, bank: 2, row: 40, mats: 4, mask: 0x0F,
//! });
//! obs.end_epoch(1000);
//! assert_eq!(ring.borrow().total_emitted(), 1);
//! assert_eq!(obs.snapshots()[0].counters[0], ("dram.activations".into(), 1));
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]
#![deny(missing_docs)]

mod event;
mod hist;
mod registry;
mod sink;

pub use event::{StallKind, TraceEvent, FULL_ROW_MATS};
pub use hist::Log2Histogram;
pub use registry::{EpochSnapshot, HistogramDelta, MetricId, MetricsRegistry};
pub use sink::{JsonlSink, NullSink, RingSink, SinkHandle, TraceSink};

use std::fmt;
use std::io::Write;

/// A component's complete observability state: one trace sink, one metrics
/// registry, and the epoch-snapshot machinery.
///
/// The default ([`Observer::disabled`]) traces nothing and snapshots
/// nothing; the registry still exists so instrumentation code never has to
/// branch, but with no epochs and no sink the per-event cost is one branch.
pub struct Observer {
    sink: SinkHandle,
    /// The metrics registry. Public: instrumentation registers ids at
    /// construction time and updates through them on the hot path.
    pub registry: MetricsRegistry,
    epoch_cycles: u64,
    metrics_out: Option<Box<dyn Write>>,
    metrics_error: Option<std::io::Error>,
    snapshots: Vec<EpochSnapshot>,
    epoch_index: u64,
    epoch_start: u64,
}

impl Observer {
    /// An observer with a [`NullSink`] and epoch snapshots off.
    pub fn disabled() -> Self {
        Observer {
            sink: SinkHandle::disabled(),
            registry: MetricsRegistry::new(),
            epoch_cycles: 0,
            metrics_out: None,
            metrics_error: None,
            snapshots: Vec::new(),
            epoch_index: 0,
            epoch_start: 0,
        }
    }

    /// Attaches a trace sink (replacing the current one).
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink = SinkHandle::new(sink);
    }

    /// Enables epoch snapshots every `cycles` cycles (0 disables), with an
    /// optional JSONL writer receiving one record per epoch. Snapshots are
    /// always also retained in memory (see [`Observer::snapshots`]). A
    /// write failure stops further writes without aborting the run; see
    /// [`Observer::take_metrics_error`].
    pub fn set_epochs(&mut self, cycles: u64, out: Option<Box<dyn Write>>) {
        self.epoch_cycles = cycles;
        self.metrics_out = out;
        self.metrics_error = None;
    }

    /// Takes the first error the metrics writer returned, if any.
    pub fn take_metrics_error(&mut self) -> Option<std::io::Error> {
        self.metrics_error.take()
    }

    /// Whether a sink is recording events.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.sink.tracing()
    }

    /// Emits the event produced by `build` if tracing is enabled;
    /// otherwise `build` is never called.
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        self.sink.emit(build);
    }

    /// Epoch length in cycles (0 = snapshots disabled).
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// `true` when the cycle just completed closes an epoch. Call with the
    /// count of *completed* cycles.
    #[inline]
    pub fn epoch_due(&self, completed_cycles: u64) -> bool {
        self.epoch_cycles != 0 && completed_cycles.is_multiple_of(self.epoch_cycles)
    }

    /// Closes the current epoch at `end_cycle`: takes a delta snapshot,
    /// retains it and writes it to the metrics writer (if any).
    pub fn end_epoch(&mut self, end_cycle: u64) {
        let snap = self
            .registry
            .epoch_snapshot(self.epoch_index, self.epoch_start, end_cycle);
        if self.metrics_error.is_none() {
            if let Some(out) = &mut self.metrics_out {
                let mut line = snap.to_json();
                line.push('\n');
                self.metrics_error = out.write_all(line.as_bytes()).err();
            }
        }
        self.snapshots.push(snap);
        self.epoch_index += 1;
        self.epoch_start = end_cycle;
    }

    /// Finishes observation at `end_cycle`: closes a final partial epoch if
    /// snapshots are enabled and any cycles elapsed since the last one,
    /// then flushes the sink and the metrics writer.
    pub fn finish(&mut self, end_cycle: u64) {
        if self.epoch_cycles != 0 && end_cycle > self.epoch_start {
            self.end_epoch(end_cycle);
        }
        self.sink.flush();
        if self.metrics_error.is_none() {
            if let Some(out) = &mut self.metrics_out {
                self.metrics_error = out.flush().err();
            }
        }
    }

    /// Epoch snapshots taken so far, oldest first.
    pub fn snapshots(&self) -> &[EpochSnapshot] {
        &self.snapshots
    }

    /// Index of the next epoch to close (= epochs closed so far).
    pub fn epoch_index(&self) -> u64 {
        self.epoch_index
    }
}

impl sim_snap::SnapState for Observer {
    // Mutable observation state only: the registry contents, the retained
    // epoch snapshots and the epoch cursor. The sink, the metrics writer
    // and `epoch_cycles` are configuration — the restore path rebuilds
    // them from the same builder, and trace/metrics *output* deliberately
    // restarts at the restore point (documented in DESIGN.md §11).
    fn snap_save(&self, w: &mut sim_snap::SnapWriter) {
        w.section("observer");
        self.registry.snap_save(w);
        w.seq(self.snapshots.len());
        for snap in &self.snapshots {
            w.u64(snap.index);
            w.u64(snap.start_cycle);
            w.u64(snap.end_cycle);
            w.seq(snap.counters.len());
            for (name, delta) in &snap.counters {
                w.str(name);
                w.u64(*delta);
            }
            w.seq(snap.gauges.len());
            for (name, value) in &snap.gauges {
                w.str(name);
                w.f64(*value);
            }
            w.seq(snap.histograms.len());
            for (name, h) in &snap.histograms {
                w.str(name);
                w.u64(h.count);
                w.u64(h.sum);
                w.u64(h.p50);
                w.u64(h.p95);
                w.u64(h.p99);
            }
        }
        w.u64(self.epoch_index);
        w.u64(self.epoch_start);
    }

    fn snap_load(&mut self, r: &mut sim_snap::SnapReader) -> Result<(), sim_snap::SnapError> {
        r.section("observer")?;
        self.registry.snap_load(r)?;
        self.snapshots.clear();
        for _ in 0..r.seq()? {
            let index = r.u64()?;
            let start_cycle = r.u64()?;
            let end_cycle = r.u64()?;
            let mut counters = Vec::new();
            for _ in 0..r.seq()? {
                let name = r.str()?;
                counters.push((name, r.u64()?));
            }
            let mut gauges = Vec::new();
            for _ in 0..r.seq()? {
                let name = r.str()?;
                gauges.push((name, r.f64()?));
            }
            let mut histograms = Vec::new();
            for _ in 0..r.seq()? {
                let name = r.str()?;
                histograms.push((
                    name,
                    HistogramDelta {
                        count: r.u64()?,
                        sum: r.u64()?,
                        p50: r.u64()?,
                        p95: r.u64()?,
                        p99: r.u64()?,
                    },
                ));
            }
            self.snapshots.push(EpochSnapshot {
                index,
                start_cycle,
                end_cycle,
                counters,
                gauges,
                histograms,
            });
        }
        self.epoch_index = r.u64()?;
        self.epoch_start = r.u64()?;
        Ok(())
    }
}

impl Default for Observer {
    fn default() -> Self {
        Observer::disabled()
    }
}

impl fmt::Debug for Observer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Observer")
            .field("tracing", &self.tracing())
            .field("epoch_cycles", &self.epoch_cycles)
            .field("epochs_taken", &self.epoch_index)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_observer_emits_nothing() {
        let mut obs = Observer::disabled();
        let mut built = false;
        obs.emit(|| {
            built = true;
            TraceEvent::DrainEnter {
                cycle: 0,
                channel: 0,
            }
        });
        assert!(!built);
        assert!(!obs.tracing());
        assert!(!obs.epoch_due(1000));
    }

    #[test]
    fn epoch_cadence_and_final_partial_epoch() {
        let mut obs = Observer::disabled();
        obs.set_epochs(100, None);
        let c = obs.registry.counter("x");
        assert!(obs.epoch_due(100));
        assert!(!obs.epoch_due(150));
        obs.registry.add(c, 1);
        obs.end_epoch(100);
        obs.registry.add(c, 2);
        obs.finish(150); // partial epoch [100, 150)
        let snaps = obs.snapshots();
        assert_eq!(snaps.len(), 2);
        assert_eq!((snaps[0].start_cycle, snaps[0].end_cycle), (0, 100));
        assert_eq!((snaps[1].start_cycle, snaps[1].end_cycle), (100, 150));
        let total: u64 = snaps.iter().map(|s| s.counters[0].1).sum();
        assert_eq!(total, 3, "epoch deltas sum to the aggregate");
    }

    #[test]
    fn finish_without_epochs_is_a_noop_snapshotwise() {
        let mut obs = Observer::disabled();
        obs.finish(500);
        assert!(obs.snapshots().is_empty());
    }

    #[test]
    fn observer_snapshot_roundtrip_restores_registry_and_epochs() {
        use sim_snap::{SnapReader, SnapState, SnapWriter};

        let mut reference = Observer::disabled();
        reference.set_epochs(100, None);
        let c = reference.registry.counter("dram.acts");
        let g = reference.registry.gauge("q.depth");
        let h = reference.registry.histogram("lat");
        reference.registry.add(c, 7);
        reference.registry.set_gauge(g, 2.5);
        reference.registry.observe(h, 40);
        reference.end_epoch(100);
        reference.registry.add(c, 3);

        let mut w = SnapWriter::new();
        reference.snap_save(&mut w);
        let payload = w.into_bytes();

        // Restore onto a freshly-built observer whose registry already
        // holds the construction-time registrations (the overlay path).
        let mut restored = Observer::disabled();
        restored.set_epochs(100, None);
        restored.registry.counter("dram.acts");
        restored.registry.gauge("q.depth");
        restored.registry.histogram("lat");
        let mut r = SnapReader::new(&payload);
        restored.snap_load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.registry.counter_value("dram.acts"), Some(10));
        assert_eq!(restored.registry.gauge_value("q.depth"), Some(2.5));
        assert_eq!(restored.snapshots(), reference.snapshots());
        assert_eq!(restored.epoch_index(), 1);
        // The rebuilt index maps the old ids onto the same slots, and the
        // next epoch continues the delta chain exactly.
        let c2 = restored.registry.counter("dram.acts");
        restored.registry.add(c2, 1);
        reference.registry.add(c, 1);
        restored.end_epoch(200);
        reference.end_epoch(200);
        assert_eq!(restored.snapshots(), reference.snapshots());
    }

    #[test]
    fn metrics_writer_receives_jsonl() {
        use std::cell::RefCell;
        use std::rc::Rc;

        // A tiny Rc-backed writer so the test can inspect what was written.
        #[derive(Clone)]
        struct Shared(Rc<RefCell<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.borrow_mut().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let store = Rc::new(RefCell::new(Vec::new()));
        let mut obs = Observer::disabled();
        obs.set_epochs(10, Some(Box::new(Shared(Rc::clone(&store)))));
        let c = obs.registry.counter("dram.acts");
        obs.registry.add(c, 4);
        obs.end_epoch(10);
        obs.finish(10);
        let text = String::from_utf8(store.borrow().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"dram.acts\":4"), "{}", lines[0]);
        assert!(obs.take_metrics_error().is_none());
    }

    #[test]
    fn metrics_write_error_is_kept_and_the_run_continues() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
                Err(std::io::ErrorKind::StorageFull.into())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let mut obs = Observer::disabled();
        obs.set_epochs(10, Some(Box::new(Full)));
        obs.end_epoch(10);
        obs.end_epoch(20);
        obs.finish(25);
        assert_eq!(obs.snapshots().len(), 3, "snapshots are still retained");
        let err = obs.take_metrics_error().expect("the failed write is kept");
        assert_eq!(err.kind(), std::io::ErrorKind::StorageFull);
    }
}
