//! Spans recorded by the traced run around each public layer call the
//! benchmark makes. Spans stay in memory (one [`Trace`] per client
//! thread) and are written once, at the end, as Chrome trace-event JSON.
//!
//! A span's layer is its name up to the first `.` (`xml.parse_reader` is
//! in layer `xml`). Its self time is its duration minus that of its
//! direct children; the per-layer metrics are medians of self times.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span in the same [`Trace`].
    parent: Option<usize>,
    /// The operation (request, document, cycle) the span belongs to.
    op: u64,
}

/// A counter sample, shown as a counter track in the trace viewer.
#[derive(Debug, Clone)]
struct Counter {
    name: &'static str,
    ts_ns: u64,
    values: Vec<(&'static str, f64)>,
}

/// The spans of one thread.
pub struct Trace {
    epoch: Instant,
    tid: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: Vec<Counter>,
    op: u64,
}

impl Trace {
    /// An empty trace whose timestamps count from `epoch` (shared by all
    /// threads of a run so their timelines line up).
    pub fn new(epoch: Instant, tid: u32) -> Trace {
        Trace {
            epoch,
            tid,
            spans: Vec::new(),
            open: Vec::new(),
            counters: Vec::new(),
            op: 0,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Start operation `op`: opens its root span `bench.op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
        self.enter("bench.op");
    }

    /// Record a finished operation's root span from timestamps the caller
    /// took; returns its id, for children added with
    /// [`record_in`](Trace::record_in).
    pub fn record_op(&mut self, op: u64, start: Instant, end: Instant) -> usize {
        self.op = op;
        self.record_in(None, "bench.op", start, end);
        self.spans.len() - 1
    }

    /// Close the current operation's root span.
    pub fn end_op(&mut self) {
        self.exit();
    }

    /// Open a span, nested in the innermost open one; returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.ns(Instant::now());
        let idx = self.open.pop().expect("span exit without a matching enter");
        self.spans[idx].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Record an interval measured elsewhere (timestamps taken by the
    /// caller, or a phase duration a call reports about itself) as a
    /// child of span `parent` (an id from [`enter`](Trace::enter) or
    /// [`record_op`](Trace::record_op)), which may already be closed.
    pub fn record_in(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            op: self.op,
        });
    }

    /// Attach a counter sample at the current time.
    pub fn counter(&mut self, name: &'static str, values: &[(&'static str, f64)]) {
        let ts_ns = self.ns(Instant::now());
        self.counters.push(Counter {
            name,
            ts_ns,
            values: values.to_vec(),
        });
    }

    /// Self time of every span, in nanoseconds, indexed like `spans`.
    fn self_times_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self
            .spans
            .iter()
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns.saturating_sub(s.start_ns));
            }
        }
        own
    }
}

/// Self times in milliseconds, grouped by span name, over all traces.
pub fn self_times_ms(traces: &[&Trace]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for t in traces {
        for (span, own) in t.spans.iter().zip(t.self_times_ns()) {
            out.entry(span.name).or_default().push(own as f64 / 1e6);
        }
    }
    out
}

/// Durations (not self times) in milliseconds of every span named
/// `name`, over all traces.
pub fn durations_ms(traces: &[&Trace], name: &str) -> Vec<f64> {
    traces
        .iter()
        .flat_map(|t| t.spans.iter())
        .filter(|s| s.name == name)
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e6)
        .collect()
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Write `traces` as Chrome trace-event JSON (`chrome://tracing`,
/// Perfetto): one complete event per span with its op id and parent,
/// plus counter events.
pub fn write_chrome(path: &Path, traces: &[&Trace]) -> std::io::Result<()> {
    let mut out = String::from("{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
    };
    for t in traces {
        for (i, s) in t.spans.iter().enumerate() {
            sep(&mut out);
            let parent = s
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"op\": {}, \"id\": {i}, \"parent\": {parent}}}}}",
                s.name,
                layer(s.name),
                t.tid,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.op,
            );
        }
        for c in &t.counters {
            sep(&mut out);
            let args: Vec<String> = c
                .values
                .iter()
                .map(|(k, v)| format!("\"{k}\": {v}"))
                .collect();
            let _ = write!(
                out,
                "{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"C\", \"pid\": 1, \"tid\": {}, \
                 \"ts\": {:.3}, \"args\": {{{}}}}}",
                c.name,
                layer(c.name),
                t.tid,
                c.ts_ns as f64 / 1e3,
                args.join(", ")
            );
        }
    }
    out.push_str("\n]}\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let epoch = Instant::now();
        let mut t = Trace::new(epoch, 0);
        t.begin_op(7);
        let a = epoch + Duration::from_millis(1);
        t.record_in(Some(0), "x.child", a, a + Duration::from_millis(2));
        t.end_op();
        // Force the root's interval so the arithmetic is exact.
        t.spans[0].start_ns = 0;
        t.spans[0].end_ns = 5_000_000;
        let own = self_times_ms(&[&t]);
        assert_eq!(own["bench.op"], vec![3.0]);
        assert_eq!(own["x.child"], vec![2.0]);
        assert_eq!(t.spans[1].op, 7);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
