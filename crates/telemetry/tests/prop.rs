//! Property-based tests for the telemetry crate.

use proptest::prelude::*;

use paella_sim::SimTime;
use paella_telemetry::{TraceEvent, TraceLog, Tracer};

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
}
