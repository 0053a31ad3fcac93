//! The event sink: a [`Tracer`] that costs one branch when disabled.

use paella_sim::SimTime;

use crate::event::TraceEvent;

/// One recorded event with its virtual timestamp and intra-source sequence
/// number (the determinism tiebreak for same-instant events).
#[derive(Clone, PartialEq, Debug)]
pub struct TracedEvent {
    /// Virtual time of the observation.
    pub at: SimTime,
    /// Recording order within the source tracer.
    pub seq: u64,
    /// The observation.
    pub event: TraceEvent,
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
    /// [`Tracer::take`] and `merged` itself produce them: concatenating the
    /// sources and stably sorting on `at` alone then *is* `(at, source, seq)`
    /// order, in place — a tagged copy beside a log of hundreds of megabytes
    /// doubled the peak.
    pub fn merged(sources: Vec<TraceLog>) -> TraceLog {
        let mut sources = sources.into_iter();
        let mut events = sources.next().map(|log| log.events).unwrap_or_default();
        for mut log in sources {
            events.append(&mut log.events);
        }
        events.sort_by_key(|e| e.at);
        for (i, e) in events.iter_mut().enumerate() {
            e.seq = i as u64;
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
    /// Flight recorder: the last `flight_cap` events recorded since arming,
    /// kept even as `take` drains the main log. They are the tail of
    /// `events[flight_start..]`, preceded by `flight_carry` — the tail saved
    /// from drained logs — so recording an event costs the recorder nothing.
    flight_carry: Vec<TracedEvent>,
    flight_start: usize,
    flight_cap: usize,
}

impl Inner {
    fn flight_tail(&self) -> Vec<TracedEvent> {
        let live = &self.events[self.flight_start..];
        let from_live = live.len().min(self.flight_cap);
        let from_carry = (self.flight_cap - from_live).min(self.flight_carry.len());
        let mut tail = Vec::with_capacity(from_carry + from_live);
        tail.extend_from_slice(&self.flight_carry[self.flight_carry.len() - from_carry..]);
        tail.extend_from_slice(&live[live.len() - from_live..]);
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
            let seq = inner.next_seq;
            inner.next_seq += 1;
            inner.events.push(TracedEvent {
                at,
                seq,
                event: f(),
            });
        }
    }

    /// Arms the flight recorder: the tracer keeps the last `n` events
    /// recorded from now on available through [`flight_snapshot`]
    /// (Tracer::flight_snapshot) even after [`take`](Tracer::take) drains
    /// the main log. `n = 0` disarms it. No-op when disabled.
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
