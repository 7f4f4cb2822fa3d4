//! In-memory spans for the traced run.
//!
//! A span is a name, a start and end (nanoseconds since the tracer's
//! epoch), its parent span and the request it belongs to. Spans are only
//! appended while the workload runs; everything derived from them (self
//! times, per-name summaries, the JSON dump) is computed after the run.
//! With tracing off every call is a branch on a bool and records nothing.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call this span wraps, e.g. `session.solve`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request (or iteration) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once; the parts
/// of children outside the parent's interval do not count).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered.min(s.duration_ns())
        })
        .collect()
}

/// Handle of an open span (`None` when tracing is off).
pub type SpanId = Option<usize>;

/// Per-name aggregate of recorded spans.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanStats {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under it.
    pub count: usize,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Median duration.
    pub median_ns: f64,
}

/// A span recorder; one per thread, merged after the run.
#[derive(Debug, Clone)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder that records only when `on`.
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recorder for another thread, sharing this one's epoch.
    pub fn fork(&self) -> Self {
        Self {
            on: self.on,
            epoch: self.epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> SpanId {
        if !self.on {
            return None;
        }
        let id = self.spans.len();
        let now = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close `id` (and any span left open inside it).
    pub fn end(&mut self, id: SpanId) {
        let Some(id) = id else { return };
        let now = self.ns(Instant::now());
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Record a span whose bounds were measured elsewhere (e.g. a client
    /// request timed on its own clock), nested in the innermost open span.
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let span = Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent: self.open.last().copied(),
            request,
        };
        self.spans.push(span);
    }

    /// Append another recorder's spans (re-indexing their parents).
    pub fn merge(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Every recorded span, in the order opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Each span's self time (see [`self_times`]).
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Durations of every span named `name`, in nanoseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Per-name aggregates, sorted by name.
    pub fn summary(&self) -> Vec<SpanStats> {
        let self_ns = self.self_times();
        let mut by: BTreeMap<&'static str, (Vec<f64>, u64, u64)> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let e = by.entry(s.name).or_default();
            e.0.push(s.duration_ns() as f64);
            e.1 += s.duration_ns();
            e.2 += own;
        }
        by.into_iter()
            .map(|(name, (durs, total_ns, self_ns))| SpanStats {
                name,
                count: durs.len(),
                total_ns,
                self_ns,
                median_ns: crate::stats::median(&durs),
            })
            .collect()
    }

    /// The spans as a JSON array (written out when the run ends).
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]\n");
        out
    }
}
