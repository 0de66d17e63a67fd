//! In-memory spans recorded around calls into the simulator's crates.
//!
//! Each span has a name, a start, an end and the span that caused it.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines. A span's self time is its duration minus the time its children
//! cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Total and self time, in nanoseconds, and the call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpanTotals {
    pub total_ns: u64,
    pub self_ns: u64,
    pub calls: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.ns(Instant::now());
        out
    }

    /// Records an already finished interval as a child of the innermost
    /// open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
        };
        self.spans.push(span);
    }

    /// Per-name totals over every recorded span.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                child_ns[p] += span.end_ns - span.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (span, child) in self.spans.iter().zip(child_ns) {
            let t = out.entry(span.name).or_default();
            let dur = span.end_ns - span.start_ns;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
            t.calls += 1;
        }
        out
    }

    /// Writes every span as one JSON line: id, name, start, end, parent.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let totals = t.totals();
        let (outer, inner) = (totals["outer"], totals["inner"]);
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert!(inner.total_ns >= 5_000_000);
        assert_eq!(outer.self_ns, outer.total_ns - inner.total_ns);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
