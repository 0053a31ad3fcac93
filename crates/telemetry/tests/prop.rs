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

/// How many word-level events `e` stands for, counted on the words beside
/// it: the range a cut-off piece of the reference holds is its whole run's.
fn width((e, words): &Owned) -> u64 {
    match e.event {
        TraceEvent::NotifRun { .. } => 2 * words.len() as u64,
        ref other => other.expanded_len() as u64,
    }
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
        seq += width(owned);
        line
    };
    events.iter().map(&mut line).collect()
}

/// [`lines`] of a log.
fn log_lines(log: &TraceLog) -> Vec<String> {
    lines(log.first_seq, &owned(log))
}

/// `TraceLog::merged` as it was when it cut runs into a second vector and a
/// run owned its words: concatenate, stable-sort on `at`, then push every
/// event and every cut-off tail into a new `Vec`. Verbatim but for
/// `TracedEvent`'s two private helpers, which are free functions here, each
/// event's words, which ride beside it, and its position in source order,
/// the tie key, which rides beside both. It is the reference the merge in
/// one buffer and one pool must equal; its events are numbered from 0.
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `TraceLog::merged` (concatenate, stable sort on `at`) equals the
    /// reference it replaced — tag every event with `(at, source, seq)` and
    /// sort on the tag — on logs with duplicate timestamps across and within
    /// sources and with `at` out of order inside a source.
    #[test]
    fn merged_is_the_at_source_seq_sort(
        sources in proptest::collection::vec(proptest::collection::vec(0u64..8, 0..40), 0..5),
    ) {
        let logs: Vec<TraceLog> = sources
            .iter()
            .enumerate()
            .map(|(src, ats)| {
                let mut t = Tracer::enabled();
                for (i, &at) in ats.iter().enumerate() {
                    // The kernel id names the event: source and recording order.
                    t.record_with(SimTime::from_nanos(at), || TraceEvent::KernelCompleted {
                        kernel: (src as u64) << 32 | i as u64,
                    });
                }
                t.take()
            })
            .collect();

        let mut tagged: Vec<(SimTime, usize, u64, TraceEvent)> = Vec::new();
        for (src, log) in logs.iter().enumerate() {
            for (seq, e) in log.numbered() {
                tagged.push((e.at, src, seq, e.event.clone()));
            }
        }
        tagged.sort_by_key(|t| (t.0, t.1, t.2));

        let merged = TraceLog::merged(logs);
        prop_assert_eq!(merged.len(), tagged.len());
        for (i, ((seq, got), want)) in merged.numbered().zip(&tagged).enumerate() {
            prop_assert_eq!(seq, i as u64, "merged log is re-sequenced");
            prop_assert_eq!(got.at, want.0);
            prop_assert_eq!(&got.event, &want.3);
        }
    }

    /// Runs are expanded for the exporters only, so merging the recorded
    /// logs must give what merging their word-level views gives: a run is
    /// cut wherever an event of another source, or an earlier-recorded one
    /// of its own, sorts between two of its words.
    #[test]
    fn expansion_commutes_with_merge(
        sources in proptest::collection::vec(specs(12), 0..5),
        split in 0usize..5,
    ) {
        let logs = || -> Vec<TraceLog> {
            (sources.iter().enumerate())
                .map(|(id, specs)| {
                    let mut t = Tracer::enabled();
                    record(&mut t, id as u64, specs);
                    t.take()
                })
                .collect()
        };
        let word_level = TraceLog::merged(logs().iter().map(TraceLog::expanded).collect());
        let merged = TraceLog::merged(logs());
        prop_assert_eq!(log_lines(&merged.expanded()), log_lines(&word_level));

        // The merged log is itself in recording order: sorted on the first
        // word, numbered in word-level events from 0, every piece of a run a
        // run.
        prop_assert_eq!(merged.first_seq, 0);
        for e in &merged.events {
            if e.event.kind() == "notif-run" {
                prop_assert!(!merged.words(&e.event).is_empty(), "a piece holds a word");
            }
        }
        prop_assert!(merged.events.windows(2).all(|w| w[0].at <= w[1].at));

        // So it can be a source in turn: merging in two steps changes nothing.
        let mut head = logs();
        let tail = head.split_off(split.min(head.len()));
        let nested = TraceLog::merged(vec![TraceLog::merged(head), TraceLog::merged(tail)]);
        prop_assert_eq!(log_lines(&nested.expanded()), log_lines(&word_level));
    }

    /// The merge gives what the two-buffer reference gives — the same events
    /// with the same words at the same instants with the same numbers, so the
    /// same word-level view — on a host and a device log whose runs get cut.
    #[test]
    fn merged_equals_the_two_buffer_reference(
        host in specs(40),
        device in specs(40),
    ) {
        let logs = || -> Vec<TraceLog> {
            [&host, &device]
                .into_iter()
                .enumerate()
                .map(|(id, specs)| {
                    let mut t = Tracer::enabled();
                    record(&mut t, id as u64, specs);
                    t.take()
                })
                .collect()
        };
        let want = reference::merged(logs());
        let got = TraceLog::merged(logs());
        prop_assert_eq!(log_lines(&got), lines(0, &want));
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

/// The comparison above cuts runs: eight words 1 ns apart, with a device
/// event at every word's instant, come out as eight one-word runs.
#[test]
fn a_run_interleaved_word_by_word_is_cut_at_every_word() {
    let logs = || {
        let mut host = Tracer::enabled();
        record(&mut host, 0, &[(0, 4, 8, 1)]);
        let mut device = Tracer::enabled();
        let instants: Vec<Spec> = (1..=8).map(|at| (at, 1, 1, 0)).collect();
        record(&mut device, 1, &instants);
        vec![host.take(), device.take()]
    };
    let got = TraceLog::merged(logs());
    assert_eq!(log_lines(&got), lines(0, &reference::merged(logs())));
    let runs = got.events.iter().filter(|e| e.event.kind() == "notif-run");
    assert!(runs.map(|e| got.words(&e.event).len()).all(|len| len == 1));
    assert_eq!(got.len(), 16);
}
