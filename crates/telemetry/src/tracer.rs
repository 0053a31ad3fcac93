//! The event sink: a [`Tracer`] that costs one branch when disabled.

use paella_sim::SimTime;

use crate::event::{HostOpKind, NotifRun, TraceEvent};

/// One recorded event with its virtual timestamp and intra-source sequence
/// number (the determinism tiebreak for same-instant events).
#[derive(Clone, PartialEq, Debug)]
pub struct TracedEvent {
    /// Virtual time of the observation; of a run, of its first word.
    pub at: SimTime,
    /// Recording order within the source tracer, counted in word-level
    /// events: a run takes as many numbers as it stands for events.
    pub seq: u64,
    /// The observation.
    pub event: TraceEvent,
}

impl TracedEvent {
    /// Sort key of the event's first word among the events being merged:
    /// its instant, then (`seq` holding it during a merge) its position.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }

    /// Appends the word-level events this one stands for — itself, unless it
    /// is a run — numbered from `self.seq`.
    fn expand_into(&self, out: &mut Vec<TracedEvent>) {
        let mut seq = self.seq;
        let mut push = |at, event| {
            out.push(TracedEvent { at, seq, event });
            seq += 1;
        };
        match &self.event {
            TraceEvent::SmWaveBegin(w) => {
                for &(sm, blocks) in w.groups.iter() {
                    let (kernel, wave, name) = (w.kernel, w.wave, w.name.clone());
                    push(
                        self.at,
                        TraceEvent::SmSpanBegin {
                            kernel,
                            wave,
                            sm,
                            blocks,
                            name,
                        },
                    );
                }
            }
            TraceEvent::SmWaveEnd(w) => {
                for &(sm, blocks) in w.groups.iter() {
                    let (kernel, wave) = (w.kernel, w.wave);
                    push(
                        self.at,
                        TraceEvent::SmSpanEnd {
                            kernel,
                            wave,
                            sm,
                            blocks,
                        },
                    );
                }
            }
            TraceEvent::NotifRun(run) => {
                let mut start = run.start;
                for &(sm, blocks) in &run.words {
                    let done = start + run.cost;
                    let (kind, core) = (HostOpKind::Notif, run.core);
                    push(done, TraceEvent::HostOp { kind, core, start });
                    let (kernel, placement) = (run.kernel, run.placement);
                    push(
                        done,
                        TraceEvent::NotifBatch {
                            kernel,
                            sm,
                            placement,
                            blocks,
                        },
                    );
                    start = done;
                }
            }
            plain => push(self.at, plain.clone()),
        }
    }

    /// Cuts a run before its first word whose key is not below `bound`,
    /// returning the cut-off words as an event of their own, at their own
    /// first instant and with this event's `seq`. `None` when every word
    /// sorts below `bound`; always so for events of one instant.
    fn split_before(&mut self, bound: (SimTime, u64)) -> Option<TracedEvent> {
        let TraceEvent::NotifRun(run) = &mut self.event else {
            return None;
        };
        let (start, cost, seq) = (run.start, run.cost, self.seq);
        let done = |word: usize| start + cost * (word as u64 + 1);
        if (done(run.words.len().saturating_sub(1)), seq) < bound {
            return None;
        }
        let keep = (1..run.words.len()).find(|&word| (done(word), seq) >= bound)?;
        let tail = NotifRun {
            start: done(keep - 1),
            words: run.words.split_off(keep),
            ..**run
        };
        Some(TracedEvent {
            at: tail.start + cost,
            seq,
            event: TraceEvent::NotifRun(Box::new(tail)),
        })
    }
}

/// An ordered batch of recorded events.
#[derive(Clone, Default, Debug)]
pub struct TraceLog {
    /// Events in `(at, source, seq)` order.
    pub events: Vec<TracedEvent>,
}

impl TraceLog {
    /// Merges per-component logs into one deterministic timeline. Events are
    /// ordered by timestamp; ties break first on the position of the source
    /// log in `sources` (callers must pass sources in a fixed order), then
    /// on recording order within the source.
    ///
    /// Each source must hold its events in recording (`seq`) order, as
    /// [`Tracer::take`] and `merged` itself produce them.
    ///
    /// That order is defined on the word-level events (see
    /// [`expanded`](Self::expanded)), and merging commutes with expanding:
    /// `merged(sources).expanded()` is `merged` of the expanded sources. A
    /// run's words have instants of their own, so an event of another source
    /// — or of the same one, recorded earlier with a later `at` — can fall
    /// between two of them; the run is cut there, and each piece is a run.
    pub fn merged(sources: Vec<TraceLog>) -> TraceLog {
        let mut sources = sources.into_iter();
        let mut events = sources.next().map(|log| log.events).unwrap_or_default();
        for mut log in sources {
            events.append(&mut log.events);
        }
        // Until the renumbering below, `seq` is the position in source
        // order: with the instant, what words that tie are ordered by.
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
        }
        events.sort_by_key(|e| e.at);
        // `events` is now ordered by first word. Take events in key order,
        // each up to the key of what follows it; what that cuts off a run
        // waits in `cut` (latest first — a handful, one per dispatcher core
        // at most, since a core's runs do not overlap).
        let mut merged = Vec::with_capacity(events.len());
        let mut whole = events.into_iter().peekable();
        let mut cut: Vec<TracedEvent> = Vec::new();
        let mut seq = 0;
        loop {
            let from_cut = match (cut.last(), whole.peek()) {
                (Some(c), Some(w)) => c.key() < w.key(),
                (c, _) => c.is_some(),
            };
            let Some(mut e) = (if from_cut { cut.pop() } else { whole.next() }) else {
                break;
            };
            let next = [cut.last(), whole.peek()]
                .into_iter()
                .flatten()
                .map(TracedEvent::key)
                .min();
            if let Some(tail) = next.and_then(|bound| e.split_before(bound)) {
                let behind = cut.partition_point(|c| c.key() > tail.key());
                cut.insert(behind, tail);
            }
            e.seq = seq;
            seq += e.event.expanded_len() as u64;
            merged.push(e);
        }
        TraceLog { events: merged }
    }

    /// The word-level log: every run replaced, in place, by the per-word
    /// events it stands for — one [`TraceEvent::SmSpanBegin`] /
    /// [`TraceEvent::SmSpanEnd`] per group of a wave, one
    /// [`HostOpKind::Notif`] host op and one [`TraceEvent::NotifBatch`] per
    /// notification word — each at its own instant and numbered on from the
    /// run's `seq`. The exporters, the text summary and the flight recorder
    /// read this view; journeys, blame, the SLO ledger and counts by
    /// [`kind`](TraceEvent::kind) read the log as recorded.
    pub fn expanded(&self) -> TraceLog {
        let len = self.events.iter().map(|e| e.event.expanded_len()).sum();
        let mut events = Vec::with_capacity(len);
        for e in &self.events {
            e.expand_into(&mut events);
        }
        TraceLog { events }
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

#[derive(Default, Debug)]
struct Inner {
    events: Vec<TracedEvent>,
    next_seq: u64,
    /// Flight recorder: the last `flight_cap` word-level events recorded
    /// since arming, kept even as `take` drains the main log. They are the
    /// tail of `events[flight_start..]` expanded, preceded by `flight_carry`
    /// — the tail saved from drained logs — so recording an event costs the
    /// recorder nothing.
    flight_carry: Vec<TracedEvent>,
    flight_start: usize,
    flight_cap: usize,
}

impl Inner {
    /// Out of line: every instrumented site inlines `record_with`, and with
    /// telemetry off all that should sit in its hot code is the branch.
    #[inline(never)]
    fn push(&mut self, at: SimTime, event: TraceEvent) {
        let seq = self.next_seq;
        self.next_seq += event.expanded_len() as u64;
        self.events.push(TracedEvent { at, seq, event });
    }

    fn flight_tail(&self) -> Vec<TracedEvent> {
        // The shortest suffix of the live events that stands for at least
        // `flight_cap` word-level ones (all of them if they fall short).
        let live = &self.events[self.flight_start..];
        let (mut from, mut from_live) = (live.len(), 0);
        while from > 0 && from_live < self.flight_cap {
            from -= 1;
            from_live += live[from].event.expanded_len();
        }
        let from_carry = self
            .flight_cap
            .saturating_sub(from_live)
            .min(self.flight_carry.len());
        let mut tail = self.flight_carry[self.flight_carry.len() - from_carry..].to_vec();
        for e in &live[from..] {
            e.expand_into(&mut tail);
        }
        // The first live event taken may be a run that overshoots.
        tail.drain(..tail.len().saturating_sub(self.flight_cap));
        tail
    }
}

/// A typed, virtual-time event sink.
///
/// Disabled (the default), [`record_with`](Tracer::record_with) is a single
/// `Option` check and the event-constructing closure never runs — hot paths
/// pay nothing for instrumentation they don't use.
#[derive(Default, Debug)]
pub struct Tracer(Option<Box<Inner>>);

impl Tracer {
    /// A sink that drops everything (the default).
    pub fn disabled() -> Self {
        Tracer(None)
    }

    /// A sink that records.
    pub fn enabled() -> Self {
        Tracer(Some(Box::default()))
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records the event built by `f` at virtual time `at`. When disabled,
    /// `f` is never called.
    #[inline]
    pub fn record_with(&mut self, at: SimTime, f: impl FnOnce() -> TraceEvent) {
        if let Some(inner) = self.0.as_mut() {
            inner.push(at, f());
        }
    }

    /// Arms the flight recorder: the tracer keeps the last `n` word-level
    /// events (see [`TraceLog::expanded`]) recorded from now on available
    /// through [`flight_snapshot`](Tracer::flight_snapshot) even after
    /// [`take`](Tracer::take) drains the main log. `n = 0` disarms it. No-op
    /// when disabled.
    pub fn set_flight_capacity(&mut self, n: usize) {
        if let Some(inner) = self.0.as_mut() {
            inner.flight_carry.clear();
            inner.flight_start = inner.events.len();
            inner.flight_cap = n;
        }
    }

    /// The flight recorder's contents, oldest first. Empty when it is
    /// disarmed or the tracer is disabled.
    pub fn flight_snapshot(&self) -> Vec<TracedEvent> {
        self.0
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.flight_tail())
    }

    /// Takes everything recorded so far, leaving the tracer enabled (or a
    /// no-op if it never was).
    pub fn take(&mut self) -> TraceLog {
        match self.0.as_mut() {
            Some(inner) => {
                inner.flight_carry = inner.flight_tail();
                inner.flight_start = 0;
                TraceLog {
                    events: std::mem::take(&mut inner.events),
                }
            }
            None => TraceLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_never_runs_closure() {
        let mut t = Tracer::disabled();
        t.record_with(SimTime::ZERO, || panic!("must not be constructed"));
        assert!(!t.is_enabled());
        assert!(t.take().is_empty());
    }

    #[test]
    fn enabled_records_in_order() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::from_micros(2), || TraceEvent::KernelCompleted {
            kernel: 1,
        });
        t.record_with(SimTime::from_micros(1), || TraceEvent::KernelCompleted {
            kernel: 2,
        });
        let log = t.take();
        assert_eq!(log.len(), 2);
        assert_eq!(log.events[0].seq, 0);
        assert_eq!(log.events[1].seq, 1);
        assert!(t.is_enabled(), "take leaves recording on");
    }

    #[test]
    fn merged_orders_by_time_then_source() {
        let mut a = Tracer::enabled();
        let mut b = Tracer::enabled();
        a.record_with(SimTime::from_micros(5), || TraceEvent::KernelCompleted {
            kernel: 10,
        });
        b.record_with(SimTime::from_micros(5), || TraceEvent::KernelCompleted {
            kernel: 20,
        });
        b.record_with(SimTime::from_micros(1), || TraceEvent::KernelCompleted {
            kernel: 21,
        });
        let log = TraceLog::merged(vec![a.take(), b.take()]);
        let kernels: Vec<u64> = log
            .events
            .iter()
            .map(|e| match e.event {
                TraceEvent::KernelCompleted { kernel } => kernel,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kernels, vec![21, 10, 20], "time first, then source order");
        let seqs: Vec<u64> = log.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2], "merged log is re-sequenced");
    }

    #[test]
    fn flight_ring_keeps_last_n_across_takes() {
        let mut t = Tracer::enabled();
        t.set_flight_capacity(3);
        for k in 0..5u64 {
            t.record_with(SimTime::from_micros(k), || TraceEvent::KernelCompleted {
                kernel: k,
            });
        }
        let _ = t.take();
        // Record one more after the drain: the ring must still be armed.
        t.record_with(SimTime::from_micros(9), || TraceEvent::KernelCompleted {
            kernel: 9,
        });
        let flight = t.flight_snapshot();
        let kernels: Vec<u64> = flight
            .iter()
            .map(|e| match e.event {
                TraceEvent::KernelCompleted { kernel } => kernel,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kernels, vec![3, 4, 9], "last 3, oldest first");
    }

    #[test]
    fn flight_ring_disarmed_or_disabled_is_empty() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::ZERO, || TraceEvent::KernelCompleted { kernel: 1 });
        assert!(t.flight_snapshot().is_empty(), "ring off by default");
        // Arming starts the recorder from here: earlier events stay out.
        t.set_flight_capacity(8);
        t.record_with(SimTime::ZERO, || TraceEvent::KernelCompleted { kernel: 2 });
        let armed = t.flight_snapshot();
        assert_eq!(armed.len(), 1);
        assert_eq!(armed[0].event, TraceEvent::KernelCompleted { kernel: 2 });
        let mut d = Tracer::disabled();
        d.set_flight_capacity(8);
        assert!(d.flight_snapshot().is_empty());
    }
}
