//! Trace sinks: where emitted events go.
//!
//! The simulators hold a [`SinkHandle`] and call [`SinkHandle::emit`] with a
//! closure; when the handle wraps a [`NullSink`] the closure is never run,
//! so a disabled trace costs one predictable branch per would-be event.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::rc::Rc;

use crate::event::TraceEvent;

/// A consumer of trace events.
pub trait TraceSink {
    /// Receives one event.
    fn emit(&mut self, event: &TraceEvent);

    /// Whether emitting is worthwhile at all. [`SinkHandle`] caches this at
    /// attach time, so it must be constant for the sink's lifetime.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output.
    fn flush(&mut self) {}
}

/// Discards everything; reports itself disabled so event construction is
/// skipped entirely.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&mut self, _event: &TraceEvent) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Keeps the most recent `capacity` events in memory — the "flight
/// recorder" used by tests and interactive debugging.
#[derive(Debug, Clone)]
pub struct RingSink {
    buf: VecDeque<TraceEvent>,
    capacity: usize,
    total: u64,
}

impl RingSink {
    /// A ring holding at most `capacity` events (oldest dropped first).
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be positive");
        RingSink {
            buf: VecDeque::with_capacity(capacity),
            capacity,
            total: 0,
        }
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Events emitted over the sink's lifetime (retained or not).
    pub fn total_emitted(&self) -> u64 {
        self.total
    }

    /// Events that fell off the ring.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }
}

impl TraceSink for RingSink {
    fn emit(&mut self, event: &TraceEvent) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(*event);
        self.total += 1;
    }
}

/// Streams events as JSON Lines to any writer (one object per line).
///
/// A write failure does not abort the simulation: the sink keeps the first
/// [`io::Error`], stops writing, and hands the error over through
/// [`JsonlSink::take_error`] once the run is over.
pub struct JsonlSink<W: Write> {
    out: W,
    line: String,
    count: u64,
    error: Option<io::Error>,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the file cannot be created.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(BufWriter::new(File::create(path)?)))
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(out: W) -> Self {
        JsonlSink {
            out,
            line: String::with_capacity(128),
            count: 0,
            error: None,
        }
    }

    /// Events written so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Takes the first write or flush error, if any occurred.
    pub fn take_error(&mut self) -> Option<io::Error> {
        self.error.take()
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn emit(&mut self, event: &TraceEvent) {
        self.line.clear();
        event.write_json(&mut self.line);
        self.line.push('\n');
        if self.error.is_none() {
            self.error = self.out.write_all(self.line.as_bytes()).err();
        }
        self.count += 1;
    }

    fn flush(&mut self) {
        if self.error.is_none() {
            self.error = self.out.flush().err();
        }
    }
}

impl<W: Write> Drop for JsonlSink<W> {
    fn drop(&mut self) {
        // Drop cannot report; callers that care flush first and read
        // `take_error`.
        let _ = self.out.flush();
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("count", &self.count)
            .finish_non_exhaustive()
    }
}

/// Sharing adapter: lets several components (memory system, cache
/// hierarchy, CPU) feed one sink. Clone the `Rc` and hand each component
/// its own boxed copy.
impl<S: TraceSink> TraceSink for Rc<RefCell<S>> {
    fn emit(&mut self, event: &TraceEvent) {
        self.borrow_mut().emit(event);
    }

    fn enabled(&self) -> bool {
        self.borrow().enabled()
    }

    fn flush(&mut self) {
        self.borrow_mut().flush();
    }
}

/// A component's handle on its (possibly absent) trace sink.
///
/// The `enabled` flag is cached at attach time so the per-event fast path
/// is a single branch; event construction happens inside a closure that is
/// skipped when disabled.
pub struct SinkHandle {
    sink: Box<dyn TraceSink>,
    enabled: bool,
}

impl SinkHandle {
    /// A handle that drops everything at zero cost.
    pub fn disabled() -> Self {
        SinkHandle {
            sink: Box::new(NullSink),
            enabled: false,
        }
    }

    /// Wraps a sink, caching its `enabled` state.
    pub fn new(sink: Box<dyn TraceSink>) -> Self {
        let enabled = sink.enabled();
        SinkHandle { sink, enabled }
    }

    /// Whether events will actually be recorded.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.enabled
    }

    /// Emits the event produced by `build`, or does nothing when disabled
    /// (in which case `build` is never called).
    #[inline]
    pub fn emit(&mut self, build: impl FnOnce() -> TraceEvent) {
        if self.enabled {
            self.sink.emit(&build());
        }
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) {
        self.sink.flush();
    }
}

impl Default for SinkHandle {
    fn default() -> Self {
        SinkHandle::disabled()
    }
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.enabled)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn act(cycle: u64) -> TraceEvent {
        TraceEvent::Activate {
            cycle,
            channel: 0,
            rank: 0,
            bank: 0,
            row: 1,
            mats: 16,
            mask: 0xFF,
        }
    }

    #[test]
    fn null_sink_reports_disabled_and_skips_closure() {
        let mut handle = SinkHandle::disabled();
        let mut called = false;
        handle.emit(|| {
            called = true;
            act(0)
        });
        assert!(!handle.tracing());
        assert!(!called, "disabled handle must not build events");
    }

    #[test]
    fn ring_sink_caps_and_counts() {
        let mut ring = RingSink::new(3);
        for c in 0..5 {
            ring.emit(&act(c));
        }
        assert_eq!(ring.total_emitted(), 5);
        assert_eq!(ring.dropped(), 2);
        let cycles: Vec<u64> = ring.events().map(TraceEvent::cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4], "oldest events dropped first");
    }

    #[test]
    fn jsonl_sink_keeps_the_first_write_error() {
        struct Failing(u32);
        impl Write for Failing {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                self.0 += 1;
                Err(io::Error::other(format!("write {}", self.0)))
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut sink = JsonlSink::new(Failing(0));
        sink.emit(&act(1));
        sink.emit(&act(2));
        sink.flush();
        let err = sink.take_error().expect("the failed write is kept");
        assert_eq!(
            err.to_string(),
            "write 1",
            "first error wins, later writes skipped"
        );
        assert!(sink.take_error().is_none());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.emit(&act(9));
        sink.emit(&TraceEvent::Refresh {
            cycle: 10,
            channel: 1,
            rank: 0,
        });
        assert_eq!(sink.count(), 2);
        let text = String::from_utf8(sink.out.clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"kind\":\"ACT\""));
        assert!(lines[1].contains("\"kind\":\"REF\""));
    }

    #[test]
    fn shared_sink_feeds_one_ring() {
        let ring = Rc::new(RefCell::new(RingSink::new(8)));
        let mut a = SinkHandle::new(Box::new(Rc::clone(&ring)));
        let mut b = SinkHandle::new(Box::new(Rc::clone(&ring)));
        a.emit(|| act(1));
        b.emit(|| act(2));
        assert_eq!(ring.borrow().total_emitted(), 2);
    }
}
