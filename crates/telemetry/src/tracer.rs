//! The event sink: a [`Tracer`] that costs one branch when disabled.

use paella_sim::SimTime;

use crate::event::{HostOpKind, TraceEvent, WordRange, TICK_COUNTERS};

/// One recorded event with its virtual timestamp. Its sequence number, the
/// determinism tiebreak for same-instant events, is not stored: the log that
/// holds the event derives it (see [`TraceLog::numbered`]).
#[derive(Clone, PartialEq, Debug)]
pub struct TracedEvent {
    /// Virtual time of the observation; of a run, of its first word.
    pub at: SimTime,
    /// The observation.
    pub event: TraceEvent,
}

impl TracedEvent {
    /// Appends the word-level events this one stands for — itself, unless it
    /// is a run or a tick. `pool` is the word pool of the log or tracer that
    /// holds the event.
    fn expand_into(&self, pool: &[(u8, u16)], out: &mut Vec<TracedEvent>) {
        let mut push = |at, event| out.push(TracedEvent { at, event });
        let words = |range: &WordRange| {
            (range.of(pool).iter()).map(|&(sm, n)| (u32::from(sm), u32::from(n)))
        };
        match &self.event {
            TraceEvent::SmWaveBegin {
                kernel,
                wave,
                name,
                range,
            } => {
                for (sm, blocks) in words(range) {
                    let (kernel, wave, name) = (*kernel, *wave, name.clone());
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
            TraceEvent::SmWaveEnd {
                kernel,
                wave,
                range,
            } => {
                for (sm, blocks) in words(range) {
                    let (kernel, wave) = (*kernel, *wave);
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
            TraceEvent::NotifRun {
                kernel,
                start,
                core,
                placement,
                range,
            } => {
                let cost = self.at - *start;
                let mut start = *start;
                for (sm, blocks) in words(range) {
                    let done = start + cost;
                    let (kind, core) = (HostOpKind::Notif, *core);
                    push(done, TraceEvent::HostOp { kind, core, start });
                    let (kernel, placement) = (*kernel, *placement);
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
            TraceEvent::CounterTick { values } => {
                for (name, &value) in TICK_COUNTERS.into_iter().zip(values) {
                    let value = u64::from(value);
                    push(self.at, TraceEvent::CounterSample { name, value });
                }
            }
            plain => push(self.at, plain.clone()),
        }
    }
}

/// A batch of recorded events.
#[derive(Clone, Default, Debug)]
pub struct TraceLog {
    /// Events in recording order; in a [`concat`](Self::concat)enation,
    /// each source's in turn.
    pub events: Vec<TracedEvent>,
    /// The sequence number of the first event: how many word-level events
    /// its tracer recorded before this log's window opened; 0 for a
    /// concatenation. Each later event's is the one before it plus that
    /// event's [`expanded_len`](TraceEvent::expanded_len) (see
    /// [`numbered`](Self::numbered)).
    pub first_seq: u64,
    /// The word pool: the `(sm, blocks)` entries of every run's words and
    /// every wave's groups, which those events hold ranges into. A wave's
    /// begin and end may hold the same range.
    words: Vec<(u8, u16)>,
    /// Whether the log is a concatenation, whose word-level view is sorted
    /// on instant.
    concatenated: bool,
}

/// A log of events that hold no words, as [`TraceLog::expanded`] and the
/// flight recorder yield them, numbered from 0.
impl From<Vec<TracedEvent>> for TraceLog {
    fn from(events: Vec<TracedEvent>) -> Self {
        debug_assert!(events.iter().all(|e| e.event.range().is_none()));
        TraceLog {
            events,
            ..TraceLog::default()
        }
    }
}

impl TraceLog {
    /// Puts per-component logs end to end, numbered from 0: the sources'
    /// events in the order of `sources` (callers must pass them in a fixed
    /// order), and the later sources' word pools after the first one's, their
    /// events' ranges moved to match. Both buffers are shrunk to fit, so no
    /// tracer's reserved pool rides along. Nothing is sorted here: only
    /// [`expanded`](Self::expanded) is, stably on instant, so its events come
    /// in `(at, source, seq)` order, also when a concatenation is a source in
    /// turn.
    pub fn concat(sources: Vec<TraceLog>) -> TraceLog {
        let len: usize = sources.iter().map(TraceLog::len).sum();
        let pool: usize = sources.iter().map(|log| log.words.len()).sum();
        let mut sources = sources.into_iter();
        let TraceLog {
            mut events,
            mut words,
            ..
        } = sources.next().unwrap_or_default();
        events.reserve_exact(len - events.len());
        words.reserve_exact(pool - words.len());
        for mut log in sources {
            let base = words.len();
            words.extend_from_slice(&log.words);
            // Freed before the append below touches fresh pages, so at its
            // peak the take holds two copies of a source's events, one of its
            // words.
            drop(log.words);
            for e in &mut log.events {
                if let Some(range) = e.event.range_mut() {
                    *range = range.rebased(base);
                }
            }
            events.append(&mut log.events);
        }
        events.shrink_to_fit();
        words.shrink_to_fit();
        TraceLog {
            events,
            first_seq: 0,
            words,
            concatenated: true,
        }
    }

    /// Every event with its sequence number: its recording order within the
    /// source tracer, counted in word-level events — a run or a tick takes
    /// as many numbers as it stands for events. In the word-level view
    /// ([`expanded`](Self::expanded)) the numbers are consecutive.
    pub fn numbered(&self) -> impl Iterator<Item = (u64, &TracedEvent)> {
        self.events.iter().scan(self.first_seq, |seq, e| {
            let at = *seq;
            *seq += e.event.expanded_len() as u64;
            Some((at, e))
        })
    }

    /// The word-level log: every run replaced, in place, by the per-word
    /// events it stands for — one [`TraceEvent::SmSpanBegin`] /
    /// [`TraceEvent::SmSpanEnd`] per group of a wave, one
    /// [`HostOpKind::Notif`] host op and one [`TraceEvent::NotifBatch`] per
    /// notification word — each at its own instant and numbered on from the
    /// run's sequence number. A [`concat`](Self::concat)enation's view is
    /// then sorted stably on instant. The exporters, the text summary and the
    /// flight recorder read this view; journeys, blame, the SLO ledger and
    /// counts by [`kind`](TraceEvent::kind) read the log as recorded.
    pub fn expanded(&self) -> TraceLog {
        let len = self.events.iter().map(|e| e.event.expanded_len()).sum();
        let mut events = Vec::with_capacity(len);
        for e in &self.events {
            e.expand_into(&self.words, &mut events);
        }
        if self.concatenated {
            events.sort_by_key(|e| e.at);
        }
        TraceLog {
            first_seq: self.first_seq,
            ..TraceLog::from(events)
        }
    }

    /// The `(sm, blocks)` entries of `event`, one of this log's: a run's
    /// words or a wave's groups, in order. Empty unless it is a run.
    pub fn words(&self, event: &TraceEvent) -> &[(u8, u16)] {
        event.range().map_or(&[], |range| range.of(&self.words))
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

/// Entries a tracer's word pool makes room for when it takes its first: 16 MB
/// of address space, which the kernel backs only as entries are written. A
/// pool grown by doubling from empty was copied into fresh pages at every
/// step, and those page faults cost more host time than the allocations the
/// pool replaced.
const POOL_ROOM: usize = 1 << 22;

#[derive(Default, Debug)]
struct Inner {
    events: Vec<TracedEvent>,
    /// The word pool `events` hold ranges into (see [`TraceLog`]).
    words: Vec<(u8, u16)>,
    /// The sequence number of `events[0]`: the word-level events recorded
    /// in the windows already taken.
    first_seq: u64,
    /// Flight recorder: the last `flight_cap` word-level events recorded
    /// since arming, kept even as `take` drains the main log. They are the
    /// tail of `events[flight_start..]` expanded, preceded by `flight_carry`
    /// — the tail saved from drained logs, which ends where `events` starts —
    /// so recording an event costs the recorder nothing.
    flight_carry: Vec<TracedEvent>,
    flight_start: usize,
    flight_cap: usize,
}

impl Inner {
    /// Out of line: every instrumented site inlines `record_with`, and with
    /// telemetry off all that should sit in its hot code is the branch.
    #[inline(never)]
    fn push(&mut self, at: SimTime, event: TraceEvent) {
        self.events.push(TracedEvent { at, event });
    }

    /// [`push`](Self::push) of a run or a wave, its entries first; out of
    /// line for the same reason. Returns the range the entries took.
    #[inline(never)]
    fn push_words(
        &mut self,
        at: SimTime,
        words: impl IntoIterator<Item = (u8, u16)>,
        f: impl FnOnce(WordRange) -> TraceEvent,
    ) -> WordRange {
        if self.words.capacity() == 0 {
            self.words.reserve_exact(POOL_ROOM);
        }
        let from = self.words.len();
        self.words.extend(words);
        let range = WordRange::new(from, self.words.len());
        self.push(at, f(range));
        range
    }

    /// The flight recorder's contents, numbered.
    fn flight_tail(&self) -> TraceLog {
        if self.flight_cap == 0 {
            return TraceLog::default();
        }
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
            e.expand_into(&self.words, &mut tail);
        }
        // The first live event taken may be a run that overshoots.
        let over = tail.len().saturating_sub(self.flight_cap);
        tail.drain(..over);
        // The carry is taken from only when every live event is, and ends
        // where they start.
        let before = self.events[..self.flight_start + from].iter();
        let seq = before.fold(self.first_seq, |seq, e| seq + e.event.expanded_len() as u64);
        TraceLog {
            first_seq: seq - from_carry as u64 + over as u64,
            ..TraceLog::from(tail)
        }
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

    /// Records a run or a wave: pushes `words` to the word pool, then the
    /// event `f` builds around the range they took, at virtual time `at`.
    /// Returns that range, for [`record_range`](Tracer::record_range); when
    /// disabled, `None`, and neither `words` nor `f` is consumed.
    #[inline]
    pub fn record_words(
        &mut self,
        at: SimTime,
        words: impl IntoIterator<Item = (u8, u16)>,
        f: impl FnOnce(WordRange) -> TraceEvent,
    ) -> Option<WordRange> {
        self.0.as_mut().map(|inner| inner.push_words(at, words, f))
    }

    /// Records the event `f` builds around `range` at virtual time `at`,
    /// pushing no entry: `range` must be one that
    /// [`record_words`](Tracer::record_words) of this tracer returned since
    /// its last [`take`](Tracer::take), so the entries are in its pool — a
    /// wave's end naming the groups its begin pushed. When disabled, `f` is
    /// never called.
    #[inline]
    pub fn record_range(
        &mut self,
        at: SimTime,
        range: WordRange,
        f: impl FnOnce(WordRange) -> TraceEvent,
    ) {
        if let Some(inner) = self.0.as_mut() {
            debug_assert!(
                range.end() <= inner.words.len(),
                "{range:?} lies outside the word pool of {} entries",
                inner.words.len()
            );
            inner.push(at, f(range));
        }
    }

    /// Records one sampling tick of the [`TICK_COUNTERS`] at virtual time
    /// `at`: a [`TraceEvent::CounterTick`], or when a value does not fit its
    /// `u32`, the six [`TraceEvent::CounterSample`]s it stands for.
    pub fn record_tick(&mut self, at: SimTime, values: [u64; 6]) {
        let Some(inner) = self.0.as_mut() else {
            return;
        };
        if values.iter().all(|&v| v <= u64::from(u32::MAX)) {
            let values = values.map(|v| v as u32);
            inner.push(at, TraceEvent::CounterTick { values });
        } else {
            for (name, value) in TICK_COUNTERS.into_iter().zip(values) {
                inner.push(at, TraceEvent::CounterSample { name, value });
            }
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

    /// The flight recorder's contents, oldest first, as a word-level log
    /// numbered as the tracer numbered them. Empty when it is disarmed or
    /// the tracer is disabled.
    pub fn flight_snapshot(&self) -> TraceLog {
        self.0
            .as_ref()
            .map_or_else(TraceLog::default, |inner| inner.flight_tail())
    }

    /// Takes everything recorded so far, leaving the tracer enabled (or a
    /// no-op if it never was). Every range [`record_words`](Tracer::record_words)
    /// returned goes with the log.
    pub fn take(&mut self) -> TraceLog {
        match self.0.as_mut() {
            Some(inner) => {
                inner.flight_carry = inner.flight_tail().events;
                inner.flight_start = 0;
                let events = std::mem::take(&mut inner.events);
                let first_seq = inner.first_seq;
                let taken = events.iter().map(|e| e.event.expanded_len() as u64);
                inner.first_seq += taken.sum::<u64>();
                TraceLog {
                    events,
                    first_seq,
                    words: std::mem::take(&mut inner.words),
                    concatenated: false,
                }
            }
            None => TraceLog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;

    /// What records a `KernelCompleted` of `kernel`.
    fn done(kernel: u64) -> impl FnOnce() -> TraceEvent {
        move || TraceEvent::KernelCompleted { kernel }
    }

    /// `(seq, kernel)` of each of `log`'s events, all `KernelCompleted`.
    fn kernels(log: &TraceLog) -> Vec<(u64, u64)> {
        (log.numbered())
            .map(|(seq, e)| match e.event {
                TraceEvent::KernelCompleted { kernel } => (seq, kernel),
                _ => unreachable!(),
            })
            .collect()
    }

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
        t.record_with(SimTime::from_micros(2), done(1));
        t.record_with(SimTime::from_micros(1), done(2));
        let log = t.take();
        assert_eq!(log.len(), 2);
        let seqs: Vec<u64> = log.numbered().map(|(seq, _)| seq).collect();
        assert_eq!(seqs, [0, 1]);
        assert!(t.is_enabled(), "take leaves recording on");
        // The next window numbers on from the last.
        t.record_tick(SimTime::from_micros(3), [0; 6]);
        t.record_with(SimTime::from_micros(3), done(3));
        let log = t.take();
        let seqs: Vec<u64> = log.numbered().map(|(seq, _)| seq).collect();
        assert_eq!((log.first_seq, seqs), (2, vec![2, 8]));
    }

    /// The recorded log is the sources end to end; the word-level view is
    /// ordered by time, then source.
    #[test]
    fn concat_keeps_source_order_and_its_word_view_sorts() {
        let (mut a, mut b) = (Tracer::enabled(), Tracer::enabled());
        a.record_with(SimTime::from_micros(5), done(10));
        b.record_with(SimTime::from_micros(5), done(20));
        b.record_with(SimTime::from_micros(1), done(21));
        let log = TraceLog::concat(vec![a.take(), b.take()]);
        assert_eq!(kernels(&log), [(0, 10), (1, 20), (2, 21)], "part order");
        assert_eq!(
            kernels(&log.expanded()),
            [(0, 21), (1, 10), (2, 20)],
            "time first, then source order"
        );
    }

    #[test]
    fn a_tick_is_one_record_unless_a_value_overflows_u32() {
        let mut t = Tracer::enabled();
        let big = u64::from(u32::MAX) + 1;
        t.record_tick(SimTime::from_micros(1), [1, 2, 3, 4, 5, 6]);
        t.record_tick(SimTime::from_micros(2), [1, 2, 3, 4, big, 6]);
        let log = t.take();
        let kinds: Vec<&str> = log.events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds[..2], ["counter-tick", "counter-sample"]);
        assert_eq!(log.len(), 7);
        let words = log.expanded();
        let samples: Vec<(u64, u64, &str, u64)> = (words.numbered())
            .map(|(seq, e)| match e.event {
                TraceEvent::CounterSample { name, value } => (e.at.as_nanos(), seq, name, value),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(samples.len(), 12);
        assert_eq!(samples[0], (1_000, 0, "ready_jobs", 1));
        assert_eq!(samples[5], (1_000, 5, "occupancy_pct", 6));
        assert_eq!(samples[10], (2_000, 10, "resident_blocks", big));
        let mut off = Tracer::disabled();
        off.record_tick(SimTime::ZERO, [0; 6]);
        assert!(off.take().is_empty());
    }

    /// A concatenation holds exactly what it keeps: no tracer's reserved
    /// pool or spare event room rides along.
    #[test]
    fn concat_capacity_equals_its_length() {
        let (mut host, mut device) = (Tracer::enabled(), Tracer::enabled());
        for k in 0..500u64 {
            let at = SimTime::from_nanos(k);
            host.record_words(at, [(0, 1); 8], |range| TraceEvent::NotifRun {
                kernel: k,
                start: at,
                core: 0,
                placement: true,
                range,
            });
            device.record_with(at, done(k));
        }
        device.record_words(SimTime::ZERO, [(1, 2); 100], |range| {
            TraceEvent::SmWaveEnd {
                kernel: 0,
                wave: 0,
                range,
            }
        });
        let log = TraceLog::concat(vec![host.take(), device.take()]);
        assert_eq!((log.len(), log.events.capacity()), (1_001, 1_001));
        assert_eq!((log.words.len(), log.words.capacity()), (4_100, 4_100));
        assert_eq!(log.words(&log.events[499].event), [(0, 1); 8]);
        assert_eq!(log.words(&log.events[1_000].event), [(1, 2); 100]);
    }

    /// A wave's end recorded around its begin's range pushes no entry, and
    /// both expand to the same groups.
    #[test]
    fn a_wave_end_can_name_its_begins_groups() {
        let mut t = Tracer::enabled();
        let name = Arc::new(String::from("k"));
        let begin = |range| TraceEvent::SmWaveBegin {
            kernel: 1,
            wave: 0,
            name,
            range,
        };
        let range = t.record_words(SimTime::ZERO, [(0, 2), (1, 3)], begin);
        let range = range.expect("enabled");
        let end = |range| TraceEvent::SmWaveEnd {
            kernel: 1,
            wave: 0,
            range,
        };
        t.record_range(SimTime::from_micros(1), range, end);
        let log = t.take();
        assert_eq!(log.words.len(), 2, "the groups sit in the pool once");
        assert_eq!(log.words(&log.events[1].event), [(0, 2), (1, 3)]);
        let spans: Vec<(&str, u64)> = (log.expanded().numbered())
            .map(|(seq, e)| (e.event.kind(), seq))
            .collect();
        assert_eq!(
            spans,
            [
                ("sm-span-begin", 0),
                ("sm-span-begin", 1),
                ("sm-span-end", 2),
                ("sm-span-end", 3)
            ]
        );
        let mut off = Tracer::disabled();
        assert_eq!(off.record_words(SimTime::ZERO, [(0, 1)], end), None);
    }

    #[test]
    fn flight_ring_keeps_last_n_across_takes() {
        let mut t = Tracer::enabled();
        t.set_flight_capacity(3);
        for k in 0..5u64 {
            t.record_with(SimTime::from_micros(k), done(k));
        }
        let _ = t.take();
        // Record one more after the drain: the ring must still be armed.
        t.record_with(SimTime::from_micros(9), done(9));
        let last_3 = [(3, 3), (4, 4), (5, 9)];
        assert_eq!(kernels(&t.flight_snapshot()), last_3, "oldest first");
    }

    #[test]
    fn flight_ring_disarmed_or_disabled_is_empty() {
        let mut t = Tracer::enabled();
        t.record_with(SimTime::ZERO, done(1));
        assert!(t.flight_snapshot().is_empty(), "ring off by default");
        // Arming starts the recorder from here: earlier events stay out.
        t.set_flight_capacity(8);
        t.record_with(SimTime::ZERO, done(2));
        let armed = t.flight_snapshot();
        assert_eq!((armed.len(), armed.first_seq), (1, 1));
        assert_eq!(
            armed.events[0].event,
            TraceEvent::KernelCompleted { kernel: 2 }
        );
        let mut d = Tracer::disabled();
        d.set_flight_capacity(8);
        assert!(d.flight_snapshot().is_empty());
    }
}
