//! Property-based tests for the telemetry crate.

use proptest::prelude::*;

use std::sync::Arc;

use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{NotifRun, SmWave, TraceEvent, TraceLog, TracedEvent, Tracer};

/// `(at, shape, len, cost)` of one recorded event: a plain event, a wave of
/// `len` groups, or a run of `len` words `cost` ns apart (0: all at once)
/// that starts at `at`. Instants are drawn from a dozen values so that words
/// collide with events of other sources and of their own.
type Spec = (u64, u8, usize, u64);

fn specs(max: usize) -> impl Strategy<Value = Vec<Spec>> {
    proptest::collection::vec((0u64..12, 0u8..4, 1usize..5, 0u64..3), 0..max)
}

/// Records `specs` in order; `id` names the source.
fn record(t: &mut Tracer, id: u64, specs: &[Spec]) {
    for (i, &(at, shape, len, cost)) in specs.iter().enumerate() {
        let kernel = id << 32 | i as u64;
        let at = SimTime::from_nanos(at);
        let pairs = (0..len as u32).map(|g| (g, g + 1));
        match shape {
            0 | 1 => t.record_with(at, || TraceEvent::KernelCompleted { kernel }),
            2 => {
                let wave = Arc::new(SmWave {
                    kernel,
                    wave: i as u32,
                    name: Arc::new("k".to_string()),
                    groups: pairs.collect(),
                });
                t.record_with(at, || TraceEvent::SmWaveBegin(wave.clone()));
                t.record_with(at, || TraceEvent::SmWaveEnd(wave));
            }
            _ => {
                let cost = SimDuration::from_nanos(cost);
                t.record_with(at + cost, || {
                    TraceEvent::NotifRun(Box::new(NotifRun {
                        kernel,
                        placement: i % 2 == 0,
                        core: id as u32,
                        start: at,
                        cost,
                        words: pairs.collect(),
                    }))
                });
            }
        }
    }
}

/// What two logs must agree on: instants, numbering and rendering.
fn lines(log: &TraceLog) -> Vec<String> {
    let line = |e: &TracedEvent| format!("{} {} {:?}", e.at.as_nanos(), e.seq, e.event);
    log.events.iter().map(line).collect()
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
            for e in &log.events {
                tagged.push((e.at, src, e.seq, e.event.clone()));
            }
        }
        tagged.sort_by_key(|t| (t.0, t.1, t.2));

        let merged = TraceLog::merged(logs);
        prop_assert_eq!(merged.len(), tagged.len());
        for (i, (got, want)) in merged.events.iter().zip(&tagged).enumerate() {
            prop_assert_eq!(got.seq, i as u64, "merged log is re-sequenced");
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
        prop_assert_eq!(lines(&merged.expanded()), lines(&word_level));

        // The merged log is itself in recording order: sorted on the first
        // word, numbered in word-level events, every piece of a run a run.
        let mut seq = 0;
        for e in &merged.events {
            prop_assert_eq!(e.seq, seq);
            seq += e.event.expanded_len() as u64;
            if let TraceEvent::NotifRun(run) = &e.event {
                prop_assert_eq!(e.at, run.start + run.cost);
            }
        }
        prop_assert!(merged.events.windows(2).all(|w| w[0].at <= w[1].at));

        // So it can be a source in turn: merging in two steps changes nothing.
        let mut head = logs();
        let tail = head.split_off(split.min(head.len()));
        let nested = TraceLog::merged(vec![TraceLog::merged(head), TraceLog::merged(tail)]);
        prop_assert_eq!(lines(&nested.expanded()), lines(&word_level));
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
        let tail = all.split_off(all.len().saturating_sub(cap));
        prop_assert_eq!(lines(&TraceLog { events: snapshot }), lines(&TraceLog { events: tail }));
    }
}
