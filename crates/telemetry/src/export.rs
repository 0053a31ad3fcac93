//! Chrome-trace JSON export and the plain-text run summary.
//!
//! The exporter renders a [`TraceLog`] in the Chrome trace-event *array*
//! format (a JSON array of event objects), openable in `chrome://tracing`
//! or Perfetto:
//!
//! * **pid 0 — dispatcher**: per-core host-op slices, scheduler-decision and
//!   flow-control instants, notification/doorbell instants, per-job async
//!   spans (submission → client-visible), and counter tracks.
//! * **pid 1 — gpu**: one track per SM with block-group execution slices
//!   (overlapping groups fan out into extra lanes), hardware-queue instants.
//! * **flow arrows** (`s`/`t`/`f`, id = job) connect each job's kernel
//!   dispatches to their first placement on an SM.
//!
//! Everything here renders the word-level view of the log
//! ([`TraceLog::expanded`]): a recorded run shows as the per-group spans and
//! per-word instants it stands for.
//!
//! Determinism: all output is derived from virtual timestamps and positions
//! in the log; timestamps are formatted with integer arithmetic; all
//! grouping uses ordered maps. Identical logs produce identical bytes.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Write as _};

use paella_sim::SimTime;

use crate::event::{JobBegin, JobJourney, RouteDecision, TraceEvent};
use crate::metrics::MetricsSnapshot;
use crate::tracer::{TraceLog, TracedEvent};

/// A paired per-SM execution span reconstructed from
/// [`TraceEvent::SmSpanBegin`]/[`TraceEvent::SmSpanEnd`].
#[derive(Clone, PartialEq, Debug)]
pub struct SmSpan {
    /// Owning kernel uid.
    pub kernel: u64,
    /// Wave index within the kernel.
    pub wave: u32,
    /// The SM the group ran on.
    pub sm: u32,
    /// Blocks in the group.
    pub blocks: u32,
    /// Kernel name (shared with the kernel).
    pub name: std::sync::Arc<String>,
    /// Placement time.
    pub start: SimTime,
    /// Completion time.
    pub end: SimTime,
    /// Position of the begin event in the word-level log (stable tiebreak).
    pub pos: usize,
}

/// Pairs SM begin/end events into spans, ordered by `(start, pos)`.
///
/// A log may be one window of a run ([`Tracer::take`](crate::Tracer::take)
/// leaves the tracer recording), so a span can straddle its edges: an end
/// whose begin fell in an earlier window is skipped, as is a begin still
/// open at the tail.
pub fn sm_spans(log: &TraceLog) -> Vec<SmSpan> {
    pair_sm_spans(&log.expanded()).0
}

/// [`sm_spans`] of an expanded log, plus the number of ends skipped for want
/// of a begin.
fn pair_sm_spans(log: &TraceLog) -> (Vec<SmSpan>, u64) {
    // (kernel, wave, sm) -> (blocks, name, start, pos) of the open span.
    type OpenSpans = BTreeMap<(u64, u32, u32), (u32, std::sync::Arc<String>, SimTime, usize)>;
    let mut open: OpenSpans = BTreeMap::new();
    let mut spans = Vec::new();
    let mut orphan_ends = 0u64;
    for (pos, e) in log.events.iter().enumerate() {
        match &e.event {
            TraceEvent::SmSpanBegin {
                kernel,
                wave,
                sm,
                blocks,
                name,
            } => {
                open.insert((*kernel, *wave, *sm), (*blocks, name.clone(), e.at, pos));
            }
            TraceEvent::SmSpanEnd {
                kernel, wave, sm, ..
            } => {
                let Some((blocks, name, start, pos)) = open.remove(&(*kernel, *wave, *sm)) else {
                    orphan_ends += 1;
                    continue;
                };
                spans.push(SmSpan {
                    kernel: *kernel,
                    wave: *wave,
                    sm: *sm,
                    blocks,
                    name,
                    start,
                    end: e.at,
                    pos,
                });
            }
            _ => {}
        }
    }
    spans.sort_by_key(|s| (s.start, s.pos));
    (spans, orphan_ends)
}

/// Formats nanoseconds as the microsecond `ts` field, using integer
/// arithmetic only so output is byte-stable.
fn ts(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A track: `(pid, tid)`. pid 0 is the dispatcher process.
type Track = (u32, u32);

/// Where events with no thread of their own are drawn.
const PROCESS_ROW: Track = (0, 0);

const GPU_PID: u32 = 1;
/// Fewest tids an SM's lanes are spaced by (overlapping groups fan out into
/// lanes `sm * stride + lane`); the stride grows to the widest SM's lane
/// count when that is larger.
const SM_LANES: u32 = 16;
/// tid offset of hardware-queue tracks within the GPU process.
const HWQ_TID_BASE: u32 = 1_000_000;
/// Dispatcher-process tids for instant tracks.
const SCHED_TID: u32 = 90;
const NOTIF_TID: u32 = 91;
const DISPATCH_TID: u32 = 92;
const ROUTER_TID: u32 = 93;
const FAULTS_TID: u32 = 94;
const LLM_TID: u32 = 95;

/// The thread track an event is drawn on — the one place that decides it:
/// the track-name metadata names exactly the tracks this returns. `None` for
/// an event with no thread of its own: job spans, journeys and counters sit
/// on the dispatcher's process row, the halves of an SM span are drawn as
/// one paired slice, and a run or a tick is what an expanded log holds the
/// word-level events of.
fn place(event: &TraceEvent) -> Option<Track> {
    match event {
        TraceEvent::HostOp { core, .. } => Some((0, *core)),
        TraceEvent::SchedDecision { .. } | TraceEvent::OccupancyHold { .. } => Some((0, SCHED_TID)),
        TraceEvent::NotifBatch { .. } | TraceEvent::DoorbellWake { .. } => Some((0, NOTIF_TID)),
        TraceEvent::KernelDispatched { .. } | TraceEvent::KernelCompleted { .. } => {
            Some((0, DISPATCH_TID))
        }
        TraceEvent::RouteDecision(_) => Some((0, ROUTER_TID)),
        TraceEvent::KernelFault { .. }
        | TraceEvent::RetryBackoff { .. }
        | TraceEvent::FailoverHop { .. }
        | TraceEvent::JobCancelled { .. }
        | TraceEvent::RequestShed { .. }
        | TraceEvent::NodeCrash { .. }
        | TraceEvent::NodeRecover { .. } => Some((0, FAULTS_TID)),
        TraceEvent::PrefillStart { .. }
        | TraceEvent::DecodeStep { .. }
        | TraceEvent::KvAlloc { .. } => Some((0, LLM_TID)),
        TraceEvent::KernelQueued { hw_queue, .. } | TraceEvent::HwQueueStall { hw_queue, .. } => {
            Some((GPU_PID, HWQ_TID_BASE + hw_queue))
        }
        TraceEvent::JobBegin(_)
        | TraceEvent::JobJourney(_)
        | TraceEvent::CounterSample { .. }
        | TraceEvent::SmSpanBegin { .. }
        | TraceEvent::SmSpanEnd { .. }
        | TraceEvent::SmWaveBegin { .. }
        | TraceEvent::SmWaveEnd { .. }
        | TraceEvent::NotifRun { .. }
        | TraceEvent::CounterTick { .. } => None,
    }
}

/// Display name of a thread track: one [`place`] returns, or an SM lane
/// (`sm * stride + lane`).
fn track_name((pid, tid): Track, stride: u32) -> String {
    match (pid, tid) {
        (0, SCHED_TID) => "scheduler".into(),
        (0, NOTIF_TID) => "notifications".into(),
        (0, DISPATCH_TID) => "kernel dispatch".into(),
        (0, ROUTER_TID) => "cluster router".into(),
        (0, FAULTS_TID) => "faults".into(),
        (0, LLM_TID) => "llm engine".into(),
        (0, core) => format!("core {core}"),
        (_, tid) if tid >= HWQ_TID_BASE => format!("hw queue {}", tid - HWQ_TID_BASE),
        (_, tid) if tid % stride == 0 => format!("SM {}", tid / stride),
        (_, tid) => format!("SM {} (+{})", tid / stride, tid % stride),
    }
}

/// A string argument: prints quoted and escaped.
struct Quoted<'a>(&'a str);

impl fmt::Display for Quoted<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "\"{}\"", esc(self.0))
    }
}

/// The `args` object of an event: `(key, value)` pairs in print order.
type Args<'a> = &'a [(&'a str, &'a dyn fmt::Display)];

/// Arguments that are fields printed under their own names.
macro_rules! args {
    ($($field:ident),*) => {
        &[$((stringify!($field), &$field as &dyn fmt::Display)),*]
    };
}

fn args_json(args: Args) -> String {
    let pairs: Vec<String> = args.iter().map(|(k, v)| format!(r#""{k}":{v}"#)).collect();
    format!("{{{}}}", pairs.join(","))
}

// One function per object shape of the trace-event format; every line of the
// export is built by one of them.

fn metadata(name: &str, (pid, tid): Track, args: Args) -> String {
    format!(
        r#"{{"ph":"M","name":"{name}","pid":{pid},"tid":{tid},"ts":"0.000","args":{}}}"#,
        args_json(args)
    )
}

fn slice(
    name: &str,
    cat: &str,
    (pid, tid): Track,
    start: SimTime,
    end: SimTime,
    args: Args,
) -> String {
    format!(
        r#"{{"ph":"X","name":"{}","cat":"{cat}","pid":{pid},"tid":{tid},"ts":"{}","dur":"{}","args":{}}}"#,
        esc(name),
        ts(start.as_nanos()),
        ts(end.saturating_since(start).as_nanos()),
        args_json(args)
    )
}

fn instant(name: &str, cat: &str, (pid, tid): Track, at: SimTime, args: Args) -> String {
    format!(
        r#"{{"ph":"i","name":"{name}","cat":"{cat}","s":"t","pid":{pid},"tid":{tid},"ts":"{}","args":{}}}"#,
        ts(at.as_nanos()),
        args_json(args)
    )
}

fn async_begin(job: u64, model: &str, at: SimTime, args: Args) -> String {
    format!(
        r#"{{"ph":"b","cat":"job","id":{job},"name":"job {job} ({})","pid":0,"tid":0,"ts":"{}","args":{}}}"#,
        esc(model),
        ts(at.as_nanos()),
        args_json(args)
    )
}

fn async_end(job: u64, at: SimTime, args: Args) -> String {
    format!(
        r#"{{"ph":"e","cat":"job","id":{job},"name":"job {job}","pid":0,"tid":0,"ts":"{}","args":{}}}"#,
        ts(at.as_nanos()),
        args_json(args)
    )
}

fn counter(name: &str, at: SimTime, value: u64) -> String {
    format!(
        r#"{{"ph":"C","name":"{name}","pid":0,"tid":0,"ts":"{}","args":{{"{name}":{value}}}}}"#,
        ts(at.as_nanos())
    )
}

fn flow(ph: &str, job: u64, (pid, tid): Track, at_ns: u64) -> String {
    let bp = if ph == "f" { r#","bp":"e""# } else { "" };
    format!(
        r#"{{"ph":"{ph}","name":"job {job}","cat":"flow","id":{job},"pid":{pid},"tid":{tid},"ts":"{}"{bp}}}"#,
        ts(at_ns)
    )
}

/// Renders the log as Chrome-trace JSON (array-of-events form).
pub fn chrome_trace_json(log: &TraceLog) -> String {
    let log = &log.expanded();
    // Stable global order: by instant, then position in the log. `expanded()`
    // sorts only a concatenation; one tracer's take expands in recording
    // order, which is not time order (`LlmEngine::submit` records each
    // `JobBegin` at its `submitted_at`, ahead of the engine's clock).
    let mut events: Vec<(usize, &TracedEvent)> = log.events.iter().enumerate().collect();
    events.sort_by_key(|&(pos, e)| (e.at, pos));

    let spans = pair_sm_spans(log).0;

    // Greedy interval partitioning per SM: a span takes the first lane
    // whose previous span ended at or before its start.
    let mut lanes: BTreeMap<u32, Vec<SimTime>> = BTreeMap::new();
    let lane_of: Vec<u32> = (spans.iter())
        .map(|s| {
            let ends = lanes.entry(s.sm).or_default();
            let lane = (ends.iter().position(|&e| e <= s.start)).unwrap_or(ends.len());
            match ends.get_mut(lane) {
                Some(end) => *end = s.end,
                None => ends.push(s.end),
            }
            lane as u32
        })
        .collect();
    // Every SM's lanes get tids of their own, however many it has.
    let widest = lanes.values().map(|ends| ends.len() as u32).max();
    let stride = widest.unwrap_or(0).max(SM_LANES);
    let span_track = |i: usize| (GPU_PID, spans[i].sm * stride + lane_of[i]);

    // Job async spans are rendered only when this log holds both ends: in a
    // windowed log a span may open before it or close after it, and a lone
    // "b" or "e" is an invalid trace (and an infinite bar in Perfetto).
    // `if let`, not `match … _ => {}`: this fn holds the rendering match
    // below, so paella-check R5 allows no wildcard arm anywhere in it.
    let mut begun_jobs: BTreeSet<u64> = BTreeSet::new();
    let mut closed_jobs: BTreeSet<u64> = BTreeSet::new();
    for (_, e) in &events {
        if let TraceEvent::JobBegin(b) = &e.event {
            begun_jobs.insert(b.job);
        } else if let TraceEvent::JobJourney(journey) = &e.event {
            closed_jobs.insert(journey.job);
        } else if let TraceEvent::JobCancelled { job, .. } = e.event {
            closed_jobs.insert(job);
        }
    }
    let whole_jobs: BTreeSet<u64> = begun_jobs.intersection(&closed_jobs).copied().collect();

    // Flow anchors per job: every kernel-dispatch instant plus the first SM
    // placement of each dispatched kernel, as (ts_ns, pos, track); the
    // position keeps same-instant anchors stable.
    let mut first_span_of_kernel: BTreeMap<u64, usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        first_span_of_kernel.entry(s.kernel).or_insert(i);
    }
    let mut anchors: BTreeMap<u64, Vec<(u64, usize, Track)>> = BTreeMap::new();
    for &(pos, e) in &events {
        let (TraceEvent::KernelDispatched { job, kernel, .. }, Some(track)) =
            (&e.event, place(&e.event))
        else {
            continue;
        };
        let list = anchors.entry(*job).or_default();
        list.push((e.at.as_nanos(), pos, track));
        if let Some(&i) = first_span_of_kernel.get(kernel) {
            list.push((spans[i].start.as_nanos(), spans[i].pos, span_track(i)));
        }
    }

    // One object per line; each is followed by a separator, the last one's
    // taken back at the end (the two process names are always there).
    let mut out = String::from("[\n");
    let mut push = |line: String| {
        out.push(' ');
        out.push_str(&line);
        out.push_str(",\n");
    };

    // -- metadata: process names, then every track's name in (pid, tid) order
    for (pid, name) in [(0, "dispatcher"), (GPU_PID, "gpu")] {
        push(metadata(
            "process_name",
            (pid, 0),
            &[("name", &Quoted(name))],
        ));
    }
    // The three that are always named, every track an event is placed on,
    // and every SM lane a slice is drawn on.
    let mut tracks: BTreeSet<Track> = BTreeSet::new();
    tracks.extend([SCHED_TID, NOTIF_TID, DISPATCH_TID].map(|tid| (0, tid)));
    tracks.extend(events.iter().filter_map(|(_, e)| place(&e.event)));
    tracks.extend((0..spans.len()).map(span_track));
    for &track in &tracks {
        let name = track_name(track, stride);
        push(metadata("thread_name", track, &[("name", &Quoted(&name))]));
        let (pid, tid) = track;
        if pid == GPU_PID && tid < HWQ_TID_BASE {
            push(metadata(
                "thread_sort_index",
                track,
                &[("sort_index", &tid)],
            ));
        }
    }

    // -- SM execution slices (complete events) ------------------------------
    for (i, s) in spans.iter().enumerate() {
        let SmSpan {
            kernel,
            wave,
            blocks,
            ..
        } = s;
        let name = format!("{} #{kernel} w{wave} ({blocks}b)", s.name);
        let args = args![kernel, wave, blocks];
        push(slice(&name, "sm", span_track(i), s.start, s.end, args));
    }

    // -- everything else, in global time order -------------------------------
    for (_, e) in &events {
        let at = e.at;
        let track = place(&e.event).unwrap_or(PROCESS_ROW);
        // An instant on the event's track: category, name, then the fields
        // that are its arguments.
        macro_rules! instant {
            ($cat:literal, $name:literal $(, $field:ident)*) => {
                instant(&format!($name), $cat, track, at, args![$($field),*])
            };
        }
        let line = match &e.event {
            TraceEvent::JobBegin(begin) => {
                let JobBegin {
                    job,
                    client,
                    model,
                    submitted_at,
                } = &**begin;
                if !whole_jobs.contains(job) {
                    continue;
                }
                async_begin(*job, model, *submitted_at, args![client])
            }
            TraceEvent::JobJourney(journey) => {
                let JobJourney {
                    job,
                    client,
                    jct_ns,
                    client_send_recv_ns,
                    communication_ns,
                    framework_ns,
                    device_ns,
                    retry_backoff_ns,
                    queue_dep_ns,
                    queue_occupancy_ns,
                    queue_hol_ns,
                    device_prefill_ns,
                    device_decode_ns,
                } = **journey;
                // The journey closes the job's async span, in the paper's
                // five categories, when this log opened it.
                if whole_jobs.contains(&job) {
                    let queuing_scheduling_ns = journey.queuing_scheduling_ns();
                    push(async_end(
                        job,
                        at,
                        args![
                            client,
                            jct_ns,
                            client_send_recv_ns,
                            communication_ns,
                            queuing_scheduling_ns,
                            framework_ns,
                            device_ns
                        ],
                    ));
                }
                instant!(
                    "journey",
                    "journey job {job}",
                    client,
                    jct_ns,
                    client_send_recv_ns,
                    communication_ns,
                    framework_ns,
                    device_ns,
                    retry_backoff_ns,
                    queue_dep_ns,
                    queue_occupancy_ns,
                    queue_hol_ns,
                    device_prefill_ns,
                    device_decode_ns
                )
            }
            TraceEvent::HostOp { kind, start, .. } => {
                slice(kind.as_str(), "host", track, *start, at, &[])
            }
            TraceEvent::SchedDecision {
                job,
                policy,
                rationale,
                ready,
            } => {
                let (policy, rationale) = (Quoted(policy), Quoted(rationale.as_str()));
                instant!("sched", "pick job {job}", policy, rationale, ready)
            }
            TraceEvent::OccupancyHold { job, reason } => {
                let reason = Quoted(reason.as_str());
                instant!("sched", "hold job {job}", reason)
            }
            TraceEvent::KernelQueued { kernel, stream, .. } => {
                instant!("hwq", "enqueue #{kernel}", stream)
            }
            TraceEvent::HwQueueStall { kernel, .. } => instant!("hwq", "HoL stall #{kernel}"),
            TraceEvent::KernelDispatched {
                job,
                kernel,
                stream,
                grid_blocks,
            } => instant!(
                "dispatch",
                "dispatch #{kernel} (job {job})",
                stream,
                grid_blocks
            ),
            TraceEvent::KernelCompleted { kernel } => instant!("dispatch", "complete #{kernel}"),
            TraceEvent::NotifBatch {
                kernel,
                sm,
                placement,
                blocks,
            } => {
                let what = if *placement { "place" } else { "done" };
                instant!("notif", "notif {what} #{kernel}", sm, blocks)
            }
            TraceEvent::DoorbellWake { job } => instant!("notif", "doorbell job {job}"),
            TraceEvent::RouteDecision(route) => {
                let RouteDecision {
                    model,
                    node,
                    policy,
                    outstanding,
                    candidates,
                } = **route;
                let policy = Quoted(policy);
                instant!(
                    "route",
                    "route model {model} -> node {node}",
                    policy,
                    outstanding,
                    candidates
                )
            }
            TraceEvent::KernelFault {
                job,
                kernel,
                attempt,
            } => instant!("fault", "fault #{kernel} (job {job})", attempt),
            TraceEvent::RetryBackoff {
                job,
                kernel,
                attempt,
                backoff_ns,
            } => instant!(
                "fault",
                "backoff #{kernel} (job {job})",
                attempt,
                backoff_ns
            ),
            TraceEvent::FailoverHop {
                client,
                model,
                attempt,
            } => instant!("fault", "failover client {client}", model, attempt),
            TraceEvent::JobCancelled { job, reason } => {
                let reason = Quoted(reason);
                let cancel = instant!("fault", "cancel job {job}", reason);
                // Close the job's async span: a cancelled job gets no
                // journey. Only when this log opened the span — partial
                // logs may carry the cancel alone.
                if !whole_jobs.contains(job) {
                    cancel
                } else {
                    push(cancel);
                    async_end(*job, at, &[("cancelled", &reason)])
                }
            }
            TraceEvent::RequestShed { client, model } => {
                instant!("fault", "shed client {client}", model)
            }
            TraceEvent::NodeCrash { node } => instant!("fault", "crash node {node}"),
            TraceEvent::NodeRecover { node } => instant!("fault", "recover node {node}"),
            TraceEvent::PrefillStart { job, prompt_tokens } => {
                instant!("llm", "prefill job {job}", prompt_tokens)
            }
            TraceEvent::DecodeStep {
                iter,
                batch,
                tokens,
            } => instant!("llm", "decode iter {iter}", batch, tokens),
            TraceEvent::KvAlloc {
                job,
                pages,
                freed,
                resident,
            } => {
                let what = if *freed { "free" } else { "alloc" };
                instant!("llm", "kv {what} job {job}", pages, resident)
            }
            TraceEvent::CounterSample { name, value } => counter(name, at, *value),
            // Rendered above as paired "X" slices.
            TraceEvent::SmSpanBegin { .. } | TraceEvent::SmSpanEnd { .. } => continue,
            // Runs and ticks: an expanded log holds what they stand for.
            TraceEvent::SmWaveBegin { .. }
            | TraceEvent::SmWaveEnd { .. }
            | TraceEvent::NotifRun { .. }
            | TraceEvent::CounterTick { .. } => continue,
        };
        push(line);
    }

    // -- per-job flow arrows -------------------------------------------------
    for (&job, list) in &mut anchors {
        if list.len() < 2 {
            continue;
        }
        list.sort();
        let last = list.len() - 1;
        for (i, &(at_ns, _, track)) in list.iter().enumerate() {
            let ph = if i == 0 {
                "s"
            } else if i == last {
                "f"
            } else {
                "t"
            };
            push(flow(ph, job, track, at_ns));
        }
    }

    out.truncate(out.len() - ",\n".len());
    out.push_str("\n]\n");
    out
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// Minimal JSON scanner used by [`validate_chrome_trace`].
struct Scan<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Scan<'a> {
    fn new(s: &'a str) -> Self {
        Scan {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        let found = self.peek();
        if found == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                c as char,
                self.pos,
                found.map(|b| b as char)
            ))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.bytes.get(self.pos) {
                        Some(b'u') => {
                            self.pos += 5; // \uXXXX
                            out.push('?');
                        }
                        Some(&c) => {
                            self.pos += 1;
                            out.push(c as char);
                        }
                        None => return Err("dangling escape".into()),
                    }
                }
                Some(&c) => {
                    self.pos += 1;
                    out.push(c as char);
                }
            }
        }
    }

    /// Consumes one scalar literal (number / true / false / null), returning
    /// its raw text.
    fn literal(&mut self) -> String {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| {
            b.is_ascii_alphanumeric() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned()
    }

    /// Parses any value, returning the top-level `(key, value)` pairs when
    /// it is an object. String and literal values come back as their text;
    /// nested objects/arrays are validated but reported as `""`.
    fn value(&mut self) -> Result<Option<Vec<(String, String)>>, String> {
        match self.peek() {
            Some(b'{') => {
                self.eat(b'{')?;
                let mut keys = Vec::new();
                if self.peek() == Some(b'}') {
                    self.eat(b'}')?;
                    return Ok(Some(keys));
                }
                loop {
                    let key = self.string()?;
                    self.eat(b':')?;
                    let val = match self.peek() {
                        Some(b'"') => self.string()?,
                        Some(c) if c == b'-' || c.is_ascii_digit() => self.literal(),
                        Some(b't') | Some(b'f') | Some(b'n') => self.literal(),
                        _ => {
                            self.value()?;
                            String::new()
                        }
                    };
                    keys.push((key, val));
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        Some(b'}') => {
                            self.eat(b'}')?;
                            return Ok(Some(keys));
                        }
                        _ => return Err(format!("bad object at byte {}", self.pos)),
                    }
                }
            }
            Some(b'[') => {
                self.eat(b'[')?;
                if self.peek() == Some(b']') {
                    self.eat(b']')?;
                    return Ok(None);
                }
                loop {
                    self.value()?;
                    match self.peek() {
                        Some(b',') => self.eat(b',')?,
                        Some(b']') => {
                            self.eat(b']')?;
                            return Ok(None);
                        }
                        _ => return Err(format!("bad array at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => {
                self.string()?;
                Ok(None)
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                while self.bytes.get(self.pos).is_some_and(|b| {
                    b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E')
                }) {
                    self.pos += 1;
                }
                Ok(None)
            }
            Some(b't') | Some(b'f') | Some(b'n') => {
                while self
                    .bytes
                    .get(self.pos)
                    .is_some_and(u8::is_ascii_alphabetic)
                {
                    self.pos += 1;
                }
                Ok(None)
            }
            other => Err(format!("unexpected {:?} at byte {}", other, self.pos)),
        }
    }
}

/// Parses the exporter's microsecond `ts`/`dur` format (`"123.456"`) back
/// to nanoseconds.
fn parse_ts_ns(s: &str) -> Result<u64, String> {
    let (us, frac) = match s.split_once('.') {
        Some((us, frac)) => (us, frac),
        None => (s, ""),
    };
    if frac.len() > 3 || !frac.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("bad ts fraction in {s:?}"));
    }
    let us: u64 = us.parse().map_err(|e| format!("bad ts {s:?}: {e}"))?;
    let mut ns = 0u64;
    for (i, b) in frac.bytes().enumerate() {
        ns += u64::from(b - b'0') * 10u64.pow(2 - i as u32);
    }
    Ok(us * 1_000 + ns)
}

/// Validates that `json` is a Chrome-trace array of event objects, each with
/// `ph`, `pid`, `tid`, and `ts` fields, and that the spans it describes are
/// well-formed:
///
/// * async `"b"`/`"e"` pairs (per `cat` + `id`) must balance — every end has
///   a begin on its pid, never before the begin, and none left open;
/// * an async span that opened *inside* a still-open span of the same
///   `cat`+`id` group (a cross-track child) must close before its parent —
///   a child interval exceeding the parent's is rejected;
/// * complete `"X"` slices on one `(pid, tid)` track may nest but never
///   partially overlap.
///
/// Returns the event count.
pub fn validate_chrome_trace(json: &str) -> Result<usize, String> {
    let mut s = Scan::new(json);
    s.eat(b'[')?;
    let mut count = 0usize;
    // (cat, id) -> stack of open async spans as (pid, begin_ts_ns).
    let mut open_async: BTreeMap<(String, String), Vec<(String, u64)>> = BTreeMap::new();
    // (pid, tid) -> X slices as (start_ns, end_ns).
    let mut slices: BTreeMap<(String, String), Vec<(u64, u64)>> = BTreeMap::new();
    if s.peek() == Some(b']') {
        s.eat(b']')?;
        return Ok(0);
    }
    loop {
        let keys = s
            .value()?
            .ok_or_else(|| format!("trace element {count} is not an object"))?;
        for required in ["ph", "pid", "tid", "ts"] {
            if !keys.iter().any(|(k, _)| k == required) {
                return Err(format!("trace element {count} missing key {required:?}"));
            }
        }
        let field = |name: &str| {
            keys.iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.as_str())
        };
        // invariant: the loop above proved ph/pid/tid/ts are present.
        let ph = field("ph").expect("checked");
        let ts_ns = parse_ts_ns(field("ts").expect("checked"))
            .map_err(|e| format!("trace element {count}: {e}"))?;
        match ph {
            "b" | "e" => {
                let cat = field("cat").unwrap_or("").to_string();
                let id = field("id")
                    .ok_or_else(|| format!("async span at element {count} missing id"))?
                    .to_string();
                let pid = field("pid").expect("checked").to_string();
                let stack = open_async.entry((cat, id)).or_default();
                if ph == "b" {
                    stack.push((pid, ts_ns));
                } else {
                    let k = stack.iter().rposition(|(p, _)| *p == pid).ok_or_else(|| {
                        format!("unbalanced async span: 'e' without open 'b' at element {count}")
                    })?;
                    if stack[k].1 > ts_ns {
                        return Err(format!(
                            "async span at element {count} ends at {ts_ns} before its begin {}",
                            stack[k].1
                        ));
                    }
                    if k != stack.len() - 1 {
                        return Err(format!(
                            "cross-track child span outlives its parent (element {count}: \
                             {} span(s) opened inside are still open)",
                            stack.len() - 1 - k
                        ));
                    }
                    stack.pop();
                }
            }
            "X" => {
                let dur_ns = parse_ts_ns(field("dur").unwrap_or("0.000"))
                    .map_err(|e| format!("trace element {count}: {e}"))?;
                let pid = field("pid").expect("checked").to_string();
                let tid = field("tid").expect("checked").to_string();
                slices
                    .entry((pid, tid))
                    .or_default()
                    .push((ts_ns, ts_ns + dur_ns));
            }
            _ => {}
        }
        count += 1;
        match s.peek() {
            Some(b',') => s.eat(b',')?,
            Some(b']') => {
                s.eat(b']')?;
                break;
            }
            _ => return Err("bad trace array".into()),
        }
    }
    s.skip_ws();
    if s.pos != s.bytes.len() {
        return Err("trailing bytes after trace array".into());
    }
    for ((cat, id), stack) in &open_async {
        if !stack.is_empty() {
            return Err(format!(
                "unbalanced async span: {} open 'b' without 'e' for cat={cat:?} id={id}",
                stack.len()
            ));
        }
    }
    // Per-track X slices: sort by (start asc, end desc) and sweep with a
    // containment stack — an interval reaching past the enclosing one is a
    // partial overlap.
    for ((pid, tid), list) in &mut slices {
        list.sort_by(|a, b| a.0.cmp(&b.0).then(b.1.cmp(&a.1)));
        let mut active: Vec<u64> = Vec::new();
        for &(start, end) in list.iter() {
            while active.last().is_some_and(|&e| e <= start) {
                active.pop();
            }
            if let Some(&enclosing_end) = active.last() {
                if end > enclosing_end {
                    return Err(format!(
                        "partially overlapping X slices on pid={pid} tid={tid}: \
                         [{start},{end}) vs one ending at {enclosing_end}"
                    ));
                }
            }
            active.push(end);
        }
    }
    Ok(count)
}

// ---------------------------------------------------------------------------
// Text summary
// ---------------------------------------------------------------------------

/// Renders a human-readable run summary: event counts, the busiest SMs, and
/// (when provided) the metrics snapshot, followed by each counter series'
/// sample count and peak from the log's [`TraceEvent::CounterSample`]s.
pub fn text_summary(log: &TraceLog, metrics: Option<&MetricsSnapshot>) -> String {
    let log = &log.expanded();
    let mut out = String::new();
    let mut kinds: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut t_min = SimTime::MAX;
    let mut t_max = SimTime::ZERO;
    for e in &log.events {
        *kinds.entry(e.event.kind()).or_insert(0) += 1;
        t_min = t_min.min(e.at);
        t_max = t_max.max(e.at);
    }
    let _ = writeln!(out, "trace: {} events", log.len());
    if !log.is_empty() {
        let _ = writeln!(
            out,
            "span: {:.3} us .. {:.3} us",
            t_min.as_micros_f64(),
            t_max.as_micros_f64()
        );
    }
    for (kind, n) in &kinds {
        let _ = writeln!(out, "  {kind:<20} {n}");
    }

    let (spans, orphan_ends) = pair_sm_spans(log);
    if orphan_ends > 0 {
        let _ = writeln!(
            out,
            "skipped {orphan_ends} SM span end(s) whose begin precedes this log"
        );
    }
    if !spans.is_empty() {
        let mut busy: BTreeMap<u32, u64> = BTreeMap::new();
        for s in &spans {
            *busy.entry(s.sm).or_insert(0) += s.end.saturating_since(s.start).as_nanos();
        }
        let span_ns = t_max.saturating_since(t_min).as_nanos().max(1);
        let _ = writeln!(out, "per-SM busy time ({} spans):", spans.len());
        for (sm, ns) in &busy {
            let _ = writeln!(
                out,
                "  SM {sm:<3} {:>10.1} us  ({:>5.1}%)",
                *ns as f64 / 1_000.0,
                100.0 * *ns as f64 / span_ns as f64
            );
        }
    }

    if let Some(m) = metrics {
        let _ = writeln!(out, "counters:");
        for (k, v) in &m.counters {
            let _ = writeln!(out, "  {k:<28} {v}");
        }
        if !m.histograms.is_empty() {
            let _ = writeln!(out, "histograms:");
            for (k, h) in &m.histograms {
                let _ = writeln!(
                    out,
                    "  {k:<28} n={} mean={:.1} min={} p50<={} p99<={} max={}",
                    h.count, h.mean, h.min, h.p50_bound, h.p99_bound, h.max
                );
            }
        }
        // Counted from the log's samples, but printed only beside a snapshot,
        // so the pinned `text_summary(&log, None)` digests and `trace_dump`'s
        // stdout keep their bytes.
        let mut series: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for e in &log.events {
            if let TraceEvent::CounterSample { name, value } = e.event {
                let (samples, peak) = series.entry(name).or_default();
                *samples += 1;
                *peak = (*peak).max(value);
            }
        }
        if !series.is_empty() {
            let _ = writeln!(out, "series:");
            for (k, (samples, peak)) in &series {
                let _ = writeln!(out, "  {k:<28} {samples} samples, peak {peak}");
            }
        }
        if !m.tenant_slo.is_empty() {
            let _ = writeln!(out, "tenant SLO:");
            for (t, s) in &m.tenant_slo {
                let _ = writeln!(
                    out,
                    "  tenant {t:<4} completed={} ok={} miss={} burn_ns={} attainment_bp={}",
                    s.completed,
                    s.slo_ok,
                    s.slo_miss,
                    s.burn_ns,
                    s.attainment_bp()
                );
                for (r, n) in &s.failures {
                    let _ = writeln!(out, "    fail {r:<24} {n}");
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{HoldReason, HostOpKind, PickRationale};
    use crate::tracer::Tracer;

    fn sample_log() -> TraceLog {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(1), || {
            TraceEvent::JobBegin(Box::new(JobBegin {
                job: 1,
                client: 0,
                model: "m".into(),
                submitted_at: SimTime::ZERO,
            }))
        });
        t.record_with(SimTime::from_micros(2), || TraceEvent::HostOp {
            kind: HostOpKind::Ingest,
            core: 0,
            start: SimTime::from_micros(1),
        });
        t.record_with(SimTime::from_micros(3), || TraceEvent::SchedDecision {
            job: 1,
            policy: "srpt",
            rationale: PickRationale::ShortestRemaining,
            ready: 1,
        });
        t.record_with(SimTime::from_micros(3), || TraceEvent::KernelDispatched {
            job: 1,
            kernel: 7,
            stream: 1,
            grid_blocks: 2,
        });
        t.record_with(SimTime::from_micros(4), || TraceEvent::SmSpanBegin {
            kernel: 7,
            wave: 0,
            sm: 3,
            blocks: 2,
            name: std::sync::Arc::new("k\"x".into()),
        });
        t.record_with(SimTime::from_micros(5), || TraceEvent::OccupancyHold {
            job: 2,
            reason: HoldReason::OccupancyBudget,
        });
        t.record_with(SimTime::from_micros(9), || TraceEvent::SmSpanEnd {
            kernel: 7,
            wave: 0,
            sm: 3,
            blocks: 2,
        });
        t.record_with(SimTime::from_micros(10), || {
            TraceEvent::JobJourney(Box::new(JobJourney {
                job: 1,
                client: 0,
                jct_ns: 10_000,
                client_send_recv_ns: 1_000,
                communication_ns: 1_000,
                framework_ns: 1_000,
                device_ns: 5_000,
                retry_backoff_ns: 0,
                queue_dep_ns: 500,
                queue_occupancy_ns: 500,
                queue_hol_ns: 1_000,
                device_prefill_ns: 5_000,
                device_decode_ns: 0,
            }))
        });
        t.take()
    }

    #[test]
    fn export_is_valid_and_deterministic() {
        let log = sample_log();
        let a = chrome_trace_json(&log);
        let b = chrome_trace_json(&log);
        assert_eq!(a, b);
        let n = validate_chrome_trace(&a).expect("valid trace");
        assert!(n > 8, "metadata + events expected, got {n}");
        assert!(a.contains(r#""name":"SM 3""#));
        assert!(a.contains(r#""ph":"X""#));
        assert!(a.contains(r#"\"x"#), "kernel name must be escaped");
    }

    #[test]
    fn sm_spans_pair_up() {
        let spans = sm_spans(&sample_log());
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].sm, 3);
        assert_eq!(
            spans[0].end.saturating_since(spans[0].start),
            paella_sim::SimDuration::from_micros(5)
        );
    }

    #[test]
    fn overlapping_spans_get_distinct_lanes() {
        let mut t = Tracer::enabled();
        for k in 0..2u64 {
            t.record_with(SimTime::from_micros(1), || TraceEvent::SmSpanBegin {
                kernel: k,
                wave: 0,
                sm: 0,
                blocks: 1,
                name: std::sync::Arc::new("k".into()),
            });
        }
        for k in 0..2u64 {
            t.record_with(SimTime::from_micros(5), || TraceEvent::SmSpanEnd {
                kernel: k,
                wave: 0,
                sm: 0,
                blocks: 1,
            });
        }
        let json = chrome_trace_json(&t.take());
        assert!(json.contains(r#""name":"SM 0""#));
        assert!(json.contains(r#""name":"SM 0 (+1)""#), "second lane used");
    }

    /// `tesla_p100` has 32 block slots per SM; lanes past the 16th used to
    /// fold onto the 16th, where staggered groups partially overlap.
    #[test]
    fn an_sm_with_more_lanes_than_the_minimum_stride_stays_valid() {
        let mut t = Tracer::enabled();
        let name = std::sync::Arc::new(String::from("k"));
        let groups = (0..18u64).map(|k| (k, 0)).chain([(18, 1)]);
        for (k, sm) in groups.clone() {
            t.record_with(SimTime::from_micros(1 + k), || TraceEvent::SmSpanBegin {
                kernel: k,
                wave: 0,
                sm,
                blocks: 1,
                name: name.clone(),
            });
        }
        for (k, sm) in groups {
            t.record_with(SimTime::from_micros(100 + k), || TraceEvent::SmSpanEnd {
                kernel: k,
                wave: 0,
                sm,
                blocks: 1,
            });
        }
        let json = chrome_trace_json(&t.take());
        validate_chrome_trace(&json).expect("every lane has a tid of its own");
        assert!(json.contains(r#""tid":17,"ts":"0.000","args":{"name":"SM 0 (+17)"}"#));
        assert!(json.contains(r#""tid":18,"ts":"0.000","args":{"name":"SM 1"}"#));
    }

    #[test]
    fn fault_events_render_on_the_faults_track() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(1), || TraceEvent::KernelFault {
            job: 1,
            kernel: 7,
            attempt: 2,
        });
        t.record_with(SimTime::from_micros(2), || TraceEvent::JobCancelled {
            job: 1,
            reason: "deadline-exceeded",
        });
        t.record_with(SimTime::from_micros(3), || TraceEvent::RequestShed {
            client: 4,
            model: 0,
        });
        t.record_with(SimTime::from_micros(4), || TraceEvent::NodeCrash {
            node: 2,
        });
        t.record_with(SimTime::from_micros(5), || TraceEvent::NodeRecover {
            node: 2,
        });
        let json = chrome_trace_json(&t.take());
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains(r#""name":"faults""#), "faults thread named");
        assert!(json.contains("fault #7 (job 1)"));
        assert!(json.contains("cancel job 1"));
        assert!(json.contains("shed client 4"));
        assert!(json.contains("crash node 2"));
        assert!(json.contains("recover node 2"));
        // A fault-free log must not declare the track.
        let plain = chrome_trace_json(&sample_log());
        assert!(!plain.contains(r#""name":"faults""#));
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("[1,2]").is_err());
        assert!(validate_chrome_trace(r#"[{"ph":"X"}]"#).is_err());
        assert_eq!(validate_chrome_trace("[]"), Ok(0));
        assert_eq!(
            validate_chrome_trace(
                r#"[{"ph":"X","pid":0,"tid":1,"ts":"0.000","args":{"a":[1,true,null]}}]"#
            ),
            Ok(1)
        );
    }

    #[test]
    fn validator_rejects_unbalanced_async_spans() {
        // "e" without any "b".
        let dangling_end = r#"[
 {"ph":"e","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"5.000"}
]"#;
        let err = validate_chrome_trace(dangling_end).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");

        // "b" never closed.
        let dangling_begin = r#"[
 {"ph":"b","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"1.000"}
]"#;
        let err = validate_chrome_trace(dangling_begin).unwrap_err();
        assert!(err.contains("unbalanced"), "{err}");

        // End before begin.
        let time_travel = r#"[
 {"ph":"b","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"9.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"2.000"}
]"#;
        let err = validate_chrome_trace(time_travel).unwrap_err();
        assert!(err.contains("before its begin"), "{err}");

        // A balanced pair passes.
        let ok = r#"[
 {"ph":"b","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"1.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"9.000"}
]"#;
        assert_eq!(validate_chrome_trace(ok), Ok(2));
    }

    #[test]
    fn validator_rejects_cross_track_child_exceeding_parent() {
        // The child (pid 1) opens inside the parent (pid 0) span of the
        // same cat+id group but is still open when the parent closes: its
        // interval exceeds the parent's.
        let bad = r#"[
 {"ph":"b","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"1.000"},
 {"ph":"b","cat":"job","id":1,"name":"job 1 child","pid":1,"tid":0,"ts":"2.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"5.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1 child","pid":1,"tid":0,"ts":"9.000"}
]"#;
        let err = validate_chrome_trace(bad).unwrap_err();
        assert!(err.contains("cross-track child"), "{err}");

        // Properly nested child passes.
        let ok = r#"[
 {"ph":"b","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"1.000"},
 {"ph":"b","cat":"job","id":1,"name":"job 1 child","pid":1,"tid":0,"ts":"2.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1 child","pid":1,"tid":0,"ts":"4.000"},
 {"ph":"e","cat":"job","id":1,"name":"job 1","pid":0,"tid":0,"ts":"5.000"}
]"#;
        assert_eq!(validate_chrome_trace(ok), Ok(4));
    }

    #[test]
    fn validator_rejects_partially_overlapping_slices() {
        let partial = r#"[
 {"ph":"X","name":"a","pid":0,"tid":3,"ts":"1.000","dur":"4.000"},
 {"ph":"X","name":"b","pid":0,"tid":3,"ts":"3.000","dur":"4.000"}
]"#;
        let err = validate_chrome_trace(partial).unwrap_err();
        assert!(err.contains("overlapping"), "{err}");

        // Containment is fine (a nested sub-slice).
        let nested = r#"[
 {"ph":"X","name":"a","pid":0,"tid":3,"ts":"1.000","dur":"8.000"},
 {"ph":"X","name":"b","pid":0,"tid":3,"ts":"3.000","dur":"2.000"}
]"#;
        assert_eq!(validate_chrome_trace(nested), Ok(2));

        // Same intervals on different tracks are fine.
        let tracks = r#"[
 {"ph":"X","name":"a","pid":0,"tid":3,"ts":"1.000","dur":"4.000"},
 {"ph":"X","name":"b","pid":0,"tid":4,"ts":"3.000","dur":"4.000"}
]"#;
        assert_eq!(validate_chrome_trace(tracks), Ok(2));

        // Back-to-back slices sharing an endpoint are fine.
        let adjacent = r#"[
 {"ph":"X","name":"a","pid":0,"tid":3,"ts":"1.000","dur":"2.000"},
 {"ph":"X","name":"b","pid":0,"tid":3,"ts":"3.000","dur":"2.000"}
]"#;
        assert_eq!(validate_chrome_trace(adjacent), Ok(2));
    }

    #[test]
    fn cancelled_jobs_close_their_spans() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(1), || {
            TraceEvent::JobBegin(Box::new(JobBegin {
                job: 5,
                client: 0,
                model: "m".into(),
                submitted_at: SimTime::ZERO,
            }))
        });
        t.record_with(SimTime::from_micros(4), || TraceEvent::JobCancelled {
            job: 5,
            reason: "retry-budget-exhausted",
        });
        let json = chrome_trace_json(&t.take());
        validate_chrome_trace(&json).expect("cancel closes the span");
        assert!(json.contains(r#""cancelled":"retry-budget-exhausted""#));
    }

    #[test]
    fn journey_and_failover_events_render() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(2), || TraceEvent::RetryBackoff {
            job: 1,
            kernel: 9,
            attempt: 1,
            backoff_ns: 20_000,
        });
        t.record_with(SimTime::from_micros(3), || TraceEvent::FailoverHop {
            client: 6,
            model: 0,
            attempt: 2,
        });
        t.record_with(SimTime::from_micros(8), || {
            TraceEvent::JobJourney(Box::new(JobJourney {
                job: 1,
                client: 6,
                jct_ns: 8_000,
                client_send_recv_ns: 1_000,
                communication_ns: 500,
                framework_ns: 500,
                device_ns: 3_000,
                retry_backoff_ns: 2_000,
                queue_dep_ns: 400,
                queue_occupancy_ns: 300,
                queue_hol_ns: 300,
                device_prefill_ns: 3_000,
                device_decode_ns: 0,
            }))
        });
        let json = chrome_trace_json(&t.take());
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains("backoff #9 (job 1)"));
        assert!(json.contains("failover client 6"));
        assert!(json.contains(r#""name":"journey job 1""#));
        assert!(json.contains(r#""retry_backoff_ns":2000"#));
        let s = text_summary(
            &TraceLog::from(vec![crate::tracer::TracedEvent {
                at: SimTime::ZERO,
                event: TraceEvent::FailoverHop {
                    client: 6,
                    model: 0,
                    attempt: 2,
                },
            }]),
            None,
        );
        assert!(s.contains("failover-hop"));
    }

    #[test]
    fn llm_events_render_on_the_llm_track() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(1), || TraceEvent::PrefillStart {
            job: 3,
            prompt_tokens: 128,
        });
        t.record_with(SimTime::from_micros(2), || TraceEvent::KvAlloc {
            job: 3,
            pages: 8,
            freed: false,
            resident: 8,
        });
        t.record_with(SimTime::from_micros(3), || TraceEvent::DecodeStep {
            iter: 0,
            batch: 1,
            tokens: 1,
        });
        t.record_with(SimTime::from_micros(4), || TraceEvent::KvAlloc {
            job: 3,
            pages: 8,
            freed: true,
            resident: 0,
        });
        let json = chrome_trace_json(&t.take());
        validate_chrome_trace(&json).expect("valid trace");
        assert!(json.contains(r#""name":"llm engine""#), "llm track named");
        assert!(json.contains("prefill job 3"));
        assert!(json.contains("decode iter 0"));
        assert!(json.contains("kv alloc job 3"));
        assert!(json.contains("kv free job 3"));
        // An LLM-free log must not declare the track.
        let plain = chrome_trace_json(&sample_log());
        assert!(!plain.contains(r#""name":"llm engine""#));
    }

    #[test]
    fn ts_formats_with_integer_math() {
        assert_eq!(ts(0), "0.000");
        assert_eq!(ts(1_234), "1.234");
        assert_eq!(ts(1_000_007), "1000.007");
    }

    #[test]
    fn summary_mentions_counts() {
        let s = text_summary(&sample_log(), None);
        assert!(s.contains("job-begin"));
        assert!(s.contains("SM 3"));
    }
}
