//! Spans recorded around each call the benchmark makes into a layer.
//!
//! A span has a name, a start, an end, the span that caused it and the
//! operation it belongs to. Spans are kept in memory, one [`Tracer`] per
//! thread, and summarised (total, per-call p50 and self time) or written
//! out when the run ends. A disabled tracer records nothing, so the
//! untraced run pays one branch per call site.

use crate::stats;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary the span wraps (`certify`, `serve.handle`, ...).
    pub name: &'static str,
    /// Nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same tracer.
    pub parent: Option<usize>,
    /// Operation (sweep case or serve request) the span belongs to.
    pub op: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Handle returned by [`Tracer::begin`]; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer measuring from `epoch`; records only when `enabled`.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            op: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags the spans that follow with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes `open` (spans close innermost first).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(idx), "spans must close innermost first");
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves `other`'s spans into this tracer, re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Per-name totals over a set of spans.
#[derive(Clone, Debug, Default)]
pub struct SpanSummary {
    /// Sum of durations, ms.
    pub total_ms: f64,
    /// Sum of durations minus the time covered by direct children, ms.
    pub self_ms: f64,
    /// Per-call durations, ms.
    pub calls: Vec<f64>,
}

impl SpanSummary {
    /// Median per-call duration, ms (0 without calls).
    pub fn p50(&self) -> f64 {
        stats::quantile(&self.calls, 0.5)
    }
}

/// Summarises spans by name. Children of one span run one after the
/// other on one thread, so self time is the duration minus the sum of
/// the direct children's durations.
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, SpanSummary> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out: BTreeMap<&'static str, SpanSummary> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let e = out.entry(s.name).or_default();
        e.total_ms += s.ms();
        e.self_ms += s.ms() - child_ms[i];
        e.calls.push(s.ms());
    }
    out
}

/// Renders spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
/// `op`).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::with_capacity(spans.len() * 80);
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_owned(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op\":{}}}\n",
            s.name, s.start_ns, s.end_ns, s.op
        ));
    }
    out
}
