//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A span is `(name, start_ns, end_ns, parent, request)`. A span stack gives
//! the parent: whatever span is open when a new one starts caused it, so a
//! `sched.pick` recorded by [`TimedScheduler`](crate::timed_sched) nests under
//! the `advance` (or `submit`) the drive loop had open at the time. `request`
//! is the arrival index the drive loop was serving. Spans stay in memory
//! until the run ends; the program's own telemetry stays off.
//!
//! Self time of a span is its duration minus the part its children cover.
//! On one thread with stack discipline children never overlap, so that part
//! is the sum of the children's durations.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use crate::measure::median_f64;

/// "No parent" / "no request" marker in [`Span`].
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u32,
    /// Arrival index being served, or [`NONE`].
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// What the drive loop calls at each boundary. The untraced loop uses `()`,
/// whose methods are empty and inline away, so end-to-end timings carry no
/// probe cost at all.
pub trait Probe {
    fn enter(&mut self, name: &'static str, request: u32);
    fn exit(&mut self);
}

impl Probe for () {
    #[inline(always)]
    fn enter(&mut self, _name: &'static str, _request: u32) {}
    #[inline(always)]
    fn exit(&mut self) {}
}

/// The recording probe.
pub struct SpanRecorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        Self::new()
    }
}

impl SpanRecorder {
    pub fn new() -> Self {
        SpanRecorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under whatever span is currently open. A span opened
    /// with `request == NONE` inherits its parent's request.
    pub fn enter(&mut self, name: &'static str, request: u32) {
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let request = if request == NONE && parent != NONE {
            self.spans[parent as usize].request
        } else {
            request
        };
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.stack.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        let idx = self.stack.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = end_ns;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// A recorder shared between the drive loop and the scheduler decorator the
/// dispatcher owns.
pub type SharedRecorder = Rc<RefCell<SpanRecorder>>;

impl Probe for SharedRecorder {
    fn enter(&mut self, name: &'static str, request: u32) {
        self.borrow_mut().enter(name, request);
    }
    fn exit(&mut self) {
        self.borrow_mut().exit();
    }
}

/// Per-span self time: duration minus the time covered by direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if s.parent != NONE {
            let p = &mut own[s.parent as usize];
            *p = p.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Totals for one span name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub median_ns: f64,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let own = self_times(spans);
    let mut durations: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (s, &own_ns) in spans.iter().zip(&own) {
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.duration_ns();
        e.self_ns += own_ns;
        durations
            .entry(s.name)
            .or_default()
            .push(s.duration_ns() as f64);
    }
    for (name, mut d) in durations {
        out.get_mut(name).expect("same keys").median_ns = median_f64(&mut d);
    }
    out
}

/// Spans written to a trace file at most; aggregates always cover all of
/// them. A launch-bound traced rep records millions of scheduler spans and
/// nobody reads a gigabyte of JSON.
pub const MAX_SPANS_WRITTEN: usize = 50_000;

/// Writes the trace file: a header plus the first [`MAX_SPANS_WRITTEN`]
/// spans, one JSON object per span.
pub fn write_trace(
    path: &std::path::Path,
    workload: &str,
    seed: u64,
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(MAX_SPANS_WRITTEN);
    write!(
        w,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"clock\":\"host ns since recorder start\",\
         \"spans_total\":{},\"spans_written\":{written},\"spans\":[",
        spans.len()
    )?;
    for (i, s) in spans[..written].iter().enumerate() {
        let sep = if i == 0 { "\n" } else { ",\n" };
        let opt = |v: u32| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        write!(
            w,
            "{sep}{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.parent),
            opt(s.request)
        )?;
    }
    writeln!(w, "\n]}}")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: NONE,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // advance [0,100] ⊃ pick [10,30] ⊃ inner [12,20]; advance ⊃ update [40,45].
        let spans = [
            span("advance", 0, 100, NONE),
            span("pick", 10, 30, 0),
            span("inner", 12, 20, 1),
            span("update", 40, 45, 0),
        ];
        assert_eq!(self_times(&spans), vec![75, 12, 8, 5]);
        let own: u64 = self_times(&spans).iter().sum();
        assert_eq!(own, 100, "self times partition the root span");
    }

    #[test]
    fn aggregates_by_name_with_medians() {
        let spans = [
            span("a", 0, 10, NONE),
            span("a", 10, 40, NONE),
            span("a", 40, 60, NONE),
            span("b", 41, 45, 2),
        ];
        let agg = by_name(&spans);
        assert_eq!(agg["a"].count, 3);
        assert_eq!(agg["a"].total_ns, 60);
        assert_eq!(agg["a"].self_ns, 56);
        assert_eq!(agg["a"].median_ns, 20.0);
        assert_eq!(agg["b"].median_ns, 4.0);
    }

    #[test]
    fn recorder_nests_and_inherits_request() {
        let mut r = SpanRecorder::new();
        r.enter("advance", 7);
        r.enter("sched.pick", NONE);
        r.exit();
        r.exit();
        r.enter("submit", 8);
        r.exit();
        let s = r.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].parent, s[0].request), (NONE, 7));
        assert_eq!((s[1].parent, s[1].request), (0, 7), "child inherits");
        assert_eq!((s[2].parent, s[2].request), (NONE, 8));
        assert!(s[1].start_ns >= s[0].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
