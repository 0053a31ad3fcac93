//! Property-based tests for the telemetry crate.

use proptest::prelude::*;

use std::sync::Arc;

use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{TraceEvent, TraceLog, TracedEvent, Tracer};

/// `(at, shape, len, cost)` of one recorded event: a counter tick, a plain
/// event, a wave of `len` groups whose end pushes them again, one whose end
/// names its begin's, or a run of `len` words `cost` ns apart (0: all at
/// once) that starts at `at`. A wave's end is recorded `cost` ns after its
/// begin. Instants are drawn from a dozen values so that words collide with
/// events of other sources and of their own.
type Spec = (u64, u8, usize, u64);

fn specs(max: usize) -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec((0u64..12, 0u8..5, 1usize..5, 0u64..3), 0..max)
}

/// Records `specs` in order; `id` names the source.
fn record(t: &mut Tracer, id: u64, specs: &[Spec]) {
    for (i, &(at, shape, len, cost)) in specs.iter().enumerate() {
        let kernel = id << 32 | i as u64;
        let at = SimTime::from_nanos(at);
        let pairs = (0..len as u8).map(|g| (g, u16::from(g) + 1));
        match shape {
            0 => t.record_tick(at, [kernel, 1, 2, 3, 4, len as u64]),
            1 => t.record_with(at, || TraceEvent::KernelCompleted { kernel }),
            2 | 3 => {
                let wave = i as u32;
                let begun = t.record_words(at, pairs.clone(), |range| TraceEvent::SmWaveBegin {
                    kernel,
                    wave,
                    name: Arc::new("k".to_string()),
                    range,
                });
                let end = |range| TraceEvent::SmWaveEnd {
                    kernel,
                    wave,
                    range,
                };
                let at = at + SimDuration::from_nanos(cost);
                match begun {
                    Some(range) if shape == 3 => t.record_range(at, range, end),
                    _ => _ = t.record_words(at, pairs, end),
                }
            }
            _ => {
                let cost = SimDuration::from_nanos(cost);
                t.record_words(at + cost, pairs, |range| TraceEvent::NotifRun {
                    kernel,
                    start: at,
                    core: id as u32,
                    placement: i % 2 == 0,
                    range,
                });
            }
        }
    }
}

/// An event with its words: a run's or a wave's, in order; none otherwise.
type Owned = (TracedEvent, Vec<(u8, u16)>);

/// `log`'s events, each with its words.
fn owned(log: &TraceLog) -> Vec<Owned> {
    let words = |e: &TracedEvent| log.words(&e.event).to_vec();
    log.events.iter().map(|e| (e.clone(), words(e))).collect()
}

/// What two logs must agree on: instants, numbering from `first_seq`, and
/// every event as what it records — a run with its words, not where they
/// sit in its log's pool.
fn lines(first_seq: u64, events: &[Owned]) -> Vec<String> {
    let mut seq = first_seq;
    let mut line = |owned: &Owned| {
        let (e, words) = owned;
        let event = match &e.event {
            TraceEvent::SmWaveBegin {
                kernel, wave, name, ..
            } => format!("SmWaveBegin {kernel} {wave} {name}"),
            TraceEvent::SmWaveEnd { kernel, wave, .. } => format!("SmWaveEnd {kernel} {wave}"),
            TraceEvent::NotifRun {
                kernel,
                start,
                core,
                placement,
                ..
            } => format!("NotifRun {kernel} {start:?} {core} {placement}"),
            other => format!("{other:?}"),
        };
        let line = format!("{} {seq} {event} {words:?}", e.at.as_nanos());
        seq += e.event.expanded_len() as u64;
        line
    };
    events.iter().map(&mut line).collect()
}

/// [`lines`] of a log.
fn log_lines(log: &TraceLog) -> Vec<String> {
    lines(log.first_seq, &owned(log))
}

/// The word-level view of `events`, each with its words, as a tracer that
/// recorded them in this order expands them, numbered from 0. An event with
/// words is a run or a wave; it is recorded around them.
fn expand(events: &[Owned]) -> TraceLog {
    let mut t = Tracer::enabled();
    for (e, words) in events {
        if words.is_empty() {
            t.record_with(e.at, || e.event.clone());
            continue;
        }
        t.record_words(e.at, words.iter().copied(), |range| match e.event.clone() {
            TraceEvent::SmWaveBegin {
                kernel, wave, name, ..
            } => TraceEvent::SmWaveBegin {
                kernel,
                wave,
                name,
                range,
            },
            TraceEvent::SmWaveEnd { kernel, wave, .. } => TraceEvent::SmWaveEnd {
                kernel,
                wave,
                range,
            },
            TraceEvent::NotifRun {
                kernel,
                start,
                core,
                placement,
                ..
            } => TraceEvent::NotifRun {
                kernel,
                start,
                core,
                placement,
                range,
            },
            other => unreachable!("{other:?} holds no words"),
        });
    }
    t.take().expanded()
}

/// `TraceLog::merged` as it was when it cut runs into a second vector and a
/// run owned its words: concatenate, stable-sort on `at`, then push every
/// event and every cut-off tail into a new `Vec`. Verbatim but for
/// `TracedEvent`'s two private helpers, which are free functions here, each
/// event's words, which ride beside it, and its position in source order,
/// the tie key, which rides beside both. It is the reference the merge in
/// one buffer and one pool had to equal, and what a concatenation's
/// word-level view must expand to; its events are numbered from 0.
mod reference {
    use super::Owned;
    use paella_sim::SimTime;
    use paella_telemetry::{TraceEvent, TraceLog};

    /// An event with its words and its position in source order.
    type Placed = (Owned, usize);

    fn key(((e, _), pos): &Placed) -> (SimTime, usize) {
        (e.at, *pos)
    }

    fn split_before(((e, words), pos): &mut Placed, bound: (SimTime, usize)) -> Option<Placed> {
        let TraceEvent::NotifRun { start, .. } = &e.event else {
            return None;
        };
        let (start, cost, pos) = (*start, e.at - *start, *pos);
        let done = |word: usize| start + cost * (word as u64 + 1);
        if (done(words.len().saturating_sub(1)), pos) < bound {
            return None;
        }
        let keep = (1..words.len()).find(|&word| (done(word), pos) >= bound)?;
        let mut tail = e.clone();
        if let TraceEvent::NotifRun { start, .. } = &mut tail.event {
            *start = done(keep - 1);
        }
        tail.at = done(keep);
        Some(((tail, words.split_off(keep)), pos))
    }

    pub fn merged(sources: Vec<TraceLog>) -> Vec<Owned> {
        let mut sources = sources.iter().map(super::owned);
        let mut events = sources.next().unwrap_or_default();
        for mut log in sources {
            events.append(&mut log);
        }
        let mut events: Vec<Placed> = events.into_iter().zip(0..).collect();
        events.sort_by_key(|((e, _), _)| e.at);
        let mut merged = Vec::with_capacity(events.len());
        let mut whole = events.into_iter().peekable();
        let mut cut: Vec<Placed> = Vec::new();
        loop {
            let from_cut = match (cut.last(), whole.peek()) {
                (Some(c), Some(w)) => key(c) < key(w),
                (c, _) => c.is_some(),
            };
            let Some(mut e) = (if from_cut { cut.pop() } else { whole.next() }) else {
                break;
            };
            let next = [cut.last(), whole.peek()]
                .into_iter()
                .flatten()
                .map(key)
                .min();
            if let Some(tail) = next.and_then(|bound| split_before(&mut e, bound)) {
                let behind = cut.partition_point(|c| key(c) > key(&tail));
                cut.insert(behind, tail);
            }
            merged.push(e.0);
        }
        merged
    }
}

/// `sources` recorded by one tracer each and taken.
fn taken(sources: &[Vec<Spec>]) -> Vec<TraceLog> {
    (sources.iter().enumerate())
        .map(|(id, specs)| {
            let mut t = Tracer::enabled();
            record(&mut t, id as u64, specs);
            t.take()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The word-level view of a concatenation is its sources' word-level
    /// events, each tagged `(at, part, seq)` and sorted on the tag — on logs
    /// with duplicate timestamps across and within sources, `at` out of
    /// order inside a source, and runs whose words interleave with other
    /// events.
    #[test]
    fn concat_word_view_is_the_at_part_seq_sort(sources in proptest::collection::vec(specs(12), 0..5)) {
        let mut tagged: Vec<(SimTime, usize, u64, TraceEvent)> = Vec::new();
        for (part, log) in taken(&sources).iter().enumerate() {
            for (seq, e) in log.expanded().numbered() {
                tagged.push((e.at, part, seq, e.event.clone()));
            }
        }
        tagged.sort_by_key(|t| (t.0, t.1, t.2));

        let words = TraceLog::concat(taken(&sources)).expanded();
        prop_assert_eq!(words.len(), tagged.len());
        for (i, ((seq, got), want)) in words.numbered().zip(&tagged).enumerate() {
            prop_assert_eq!(seq, i as u64, "the word view is numbered from 0");
            prop_assert_eq!(got.at, want.0);
            prop_assert_eq!(&got.event, &want.3);
        }
    }

    /// Runs are expanded for the exporters only, so concatenating the
    /// recorded logs must give the word-level view that concatenating their
    /// word-level views gives, however the sources are grouped. The recorded
    /// log is the sources end to end, numbered from 0.
    #[test]
    fn expansion_commutes_with_concat(
        sources in proptest::collection::vec(specs(12), 0..5),
        split in 0usize..5,
    ) {
        let logs = || taken(&sources);
        let word_level = TraceLog::concat(logs().iter().map(TraceLog::expanded).collect());
        let joined = TraceLog::concat(logs());
        prop_assert_eq!(log_lines(&joined.expanded()), log_lines(&word_level.expanded()));

        let end_to_end: Vec<Owned> = logs().iter().flat_map(owned).collect();
        prop_assert_eq!(log_lines(&joined), lines(0, &end_to_end));

        // A concatenation can be a source in turn: concatenating in two
        // steps changes nothing.
        let mut head = logs();
        let tail = head.split_off(split.min(head.len()));
        let nested = TraceLog::concat(vec![TraceLog::concat(head), TraceLog::concat(tail)]);
        prop_assert_eq!(log_lines(&nested.expanded()), log_lines(&word_level.expanded()));
    }

    /// A concatenation's word-level view is the word-level view of what the
    /// two-buffer merge made of the same sources: the same word-level events
    /// at the same instants with the same numbers, on a host and a device
    /// log whose runs that merge cut.
    #[test]
    fn concat_expands_to_the_reference_merge(
        host in specs(40),
        device in specs(40),
    ) {
        let logs = || taken(&[host.clone(), device.clone()]);
        let want = expand(&reference::merged(logs()));
        let got = TraceLog::concat(logs()).expanded();
        prop_assert_eq!(log_lines(&got), log_lines(&want));
    }

    /// The flight recorder holds the last N *word-level* events recorded
    /// since arming, whatever was drained in between: post-mortems print
    /// words, not runs.
    #[test]
    fn flight_tail_is_the_tail_of_the_expanded_log(
        before in specs(20),
        after in specs(20),
        cap in 0usize..24,
    ) {
        let mut t = Tracer::enabled();
        t.set_flight_capacity(cap);
        record(&mut t, 0, &before);
        let mut all = t.take().expanded().events;
        record(&mut t, 1, &after);
        let snapshot = t.flight_snapshot();
        all.extend(t.take().expanded().events);
        let mut tail = TraceLog::from(all.split_off(all.len().saturating_sub(cap)));
        tail.first_seq = all.len() as u64;
        prop_assert_eq!(log_lines(&snapshot), log_lines(&tail));
    }
}
