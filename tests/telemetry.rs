//! Cross-crate telemetry integration tests: trace integrity, determinism of
//! the Chrome-trace export, and the pay-for-use guarantee when telemetry is
//! disabled.

use paella_core::{
    Dispatcher, DispatcherConfig, InferenceRequest, LatencyBreakdown, ServingSystem,
    SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{
    chrome_trace_json, export::sm_spans, flight, text_summary, validate_chrome_trace, JobEnd,
    JobJourney, MetricsRegistry, TraceEvent, TraceLog, TracedEvent, Tracer, TICK_COUNTERS,
};
use paella_workload::{generate, run_trace, Arrival, Mix, RunStats, WorkloadSpec};

fn dispatcher(seed: u64) -> Dispatcher {
    Dispatcher::new(
        DeviceConfig::tesla_t4(),
        paella_channels::ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        seed,
    )
}

/// A small contended two-model workload, long enough to exercise queuing.
fn workload(seed: u64, telemetry: bool) -> (Dispatcher, Vec<Arrival>) {
    let mut sys = dispatcher(seed);
    if telemetry {
        sys.enable_telemetry();
    }
    let a = sys.register_model(&synthetic::fig2_job());
    let b = sys.register_model(&synthetic::uniform_job(
        "small",
        2,
        SimDuration::from_micros(40),
        4,
    ));
    let spec = WorkloadSpec {
        clients: 8,
        ..WorkloadSpec::steady(8_000.0, 80)
    };
    let arrivals = generate(&spec, &Mix::uniform(&[a, b]));
    (sys, arrivals)
}

fn run(seed: u64, telemetry: bool) -> RunStats {
    let (mut sys, arrivals) = workload(seed, telemetry);
    run_trace(&mut sys, &arrivals, 0)
}

fn trace_of(stats: &RunStats) -> &TraceLog {
    stats.trace.as_ref().expect("telemetry enabled")
}

#[test]
fn trace_spans_pair_and_time_is_monotone() {
    let stats = run(7, true);
    let log = trace_of(&stats);
    assert!(!log.is_empty());

    // The word-level view of the host + device concatenation is globally
    // ordered on virtual time; the log as recorded is its sources end to
    // end. Both are numbered from 0, every record standing for an event.
    let words = log.expanded();
    for w in words.events.windows(2) {
        assert!(w[0].at <= w[1].at, "word-level view out of order");
    }
    for view in [log, &words] {
        let seqs: Vec<u64> = view.numbered().map(|(seq, _)| seq).collect();
        assert!(
            seqs.windows(2).all(|w| w[0] < w[1]),
            "a record stands for no event"
        );
    }
    assert_eq!(log.first_seq, 0, "a concatenation is numbered from 0");

    // Every SM span begin has exactly one matching end, at or after it.
    // Spans are the word-level view of what is recorded, a wave at a time.
    let spans = sm_spans(log);
    let begins = words
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::SmSpanBegin { .. }))
        .count();
    let ends = words
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::SmSpanEnd { .. }))
        .count();
    assert_eq!(begins, ends, "unbalanced SM span events");
    assert_eq!(spans.len(), begins, "every begin paired");
    let groups_of = |kind: &str| -> usize {
        (log.events.iter().filter(|e| e.event.kind() == kind))
            .map(|e| e.event.expanded_len())
            .sum()
    };
    assert_eq!(groups_of("sm-wave-begin"), begins);
    assert_eq!(groups_of("sm-wave-end"), ends);
    for s in &spans {
        assert!(s.end >= s.start, "span ends before it starts");
        assert!(s.blocks > 0);
    }

    // Per SM, span starts arrive in nondecreasing virtual time.
    let mut last_start_per_sm = std::collections::HashMap::new();
    for s in &spans {
        let prev = last_start_per_sm.entry(s.sm).or_insert(s.start);
        assert!(s.start >= *prev, "SM {} span starts regressed", s.sm);
        *prev = s.start;
    }

    // Job spans: one JobBegin and one JobEnd per completed job.
    let begins = log
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::JobBegin(_)))
        .count();
    let ends = log
        .events
        .iter()
        .filter(|e| matches!(e.event, TraceEvent::JobEnd(_)))
        .count();
    assert_eq!(begins, stats.completions.len());
    assert_eq!(ends, stats.completions.len());
}

#[test]
fn job_end_breakdown_sums_to_jct() {
    let stats = run(7, true);
    let log = trace_of(&stats);
    let mut checked = 0;
    for e in &log.events {
        if let TraceEvent::JobEnd(end) = &e.event {
            let JobEnd {
                jct_ns,
                client_send_recv_ns,
                communication_ns,
                queuing_scheduling_ns,
                framework_ns,
                device_ns,
                ..
            } = **end;
            assert_eq!(
                client_send_recv_ns
                    + communication_ns
                    + queuing_scheduling_ns
                    + framework_ns
                    + device_ns,
                jct_ns,
                "breakdown must sum to end-to-end JCT"
            );
            checked += 1;
        }
    }
    assert_eq!(checked, stats.completions.len());

    // And the trace agrees with the completions' own breakdowns.
    for c in &stats.completions {
        let LatencyBreakdown {
            client_send_recv,
            communication,
            queuing_scheduling,
            framework,
            device,
        } = c.breakdown;
        assert_eq!(
            client_send_recv + communication + queuing_scheduling + framework + device,
            c.jct(),
        );
    }
}

#[test]
fn journeys_cover_every_completion_and_conserve_exactly() {
    let stats = run(7, true);
    let log = trace_of(&stats);

    // The journey layer refines the JobEnd breakdown: one JobJourney per
    // completion, phases summing *exactly* to the JCT — zero slack — and
    // matching the JCT the client observed.
    let journeys = paella_telemetry::extract_journeys(log);
    assert_eq!(journeys.len(), stats.completions.len());
    let by_job: std::collections::HashMap<u64, _> =
        journeys.iter().map(|j| (j.job, j.breakdown)).collect();
    for c in &stats.completions {
        let b = by_job.get(&c.job.0).expect("journey for completion");
        b.check_conservation().expect("exact phase conservation");
        assert_eq!(b.jct_ns, c.jct().as_nanos(), "trace and API agree");
    }
    // The full oracle (first- and second-level conservation, one-to-one
    // JobEnd pairing) agrees.
    assert_eq!(
        paella_check::check_journeys(log),
        Ok(stats.completions.len())
    );

    // A fault-free, deadline-free run leaves the failure phases empty and
    // the SLO ledger all-green.
    for j in &journeys {
        assert_eq!(j.breakdown.retry_backoff_ns, 0);
    }
    let m = stats.metrics.as_ref().expect("metrics on");
    let (completed, misses): (u64, u64) = m
        .tenant_slo
        .iter()
        .fold((0, 0), |(c, s), (_, t)| (c + t.completed, s + t.slo_miss));
    assert_eq!(completed, stats.completions.len() as u64);
    assert_eq!(misses, 0, "no deadlines configured");
    assert!(m.tenant_slo.iter().all(|(_, t)| t.failures.is_empty()));
}

#[test]
fn same_seed_exports_identical_bytes() {
    let a = run(13, true);
    let b = run(13, true);
    let ja = chrome_trace_json(trace_of(&a));
    let jb = chrome_trace_json(trace_of(&b));
    let n = validate_chrome_trace(&ja).expect("valid Chrome trace");
    assert!(n > 100, "expected a substantive trace, got {n} events");
    assert_eq!(ja, jb, "same seed must export byte-identical traces");

    // A different seed must not (the workload generator is seed-driven).
    let c = run(14, true);
    assert_ne!(ja, chrome_trace_json(trace_of(&c)));
}

#[test]
fn disabled_telemetry_changes_nothing_and_records_nothing() {
    let on = run(21, true);
    let off = run(21, false);
    assert!(off.trace.is_none());
    assert!(off.metrics.is_none());
    assert_eq!(on.completions.len(), off.completions.len());
    for (x, y) in on.completions.iter().zip(off.completions.iter()) {
        assert_eq!(x.job, y.job);
        assert_eq!(
            x.client_visible_at, y.client_visible_at,
            "telemetry must be pay-for-use"
        );
        assert_eq!(x.breakdown, y.breakdown);
    }

    let m = on.metrics.as_ref().expect("metrics on");
    assert_eq!(m.counter("jobs_completed"), on.completions.len() as u64);
    assert_eq!(m.counter("jobs_ingested"), on.completions.len() as u64);
    assert!(m.counter("kernels_dispatched") > 0);

    // The sampling tick lives only in the trace: one per 50 µs grid
    // instant from time zero, none skipped or doubled.
    let ticks: Vec<SimTime> = (trace_of(&on).events.iter())
        .filter(|e| matches!(e.event, TraceEvent::CounterTick { .. }))
        .map(|e| e.at)
        .collect();
    assert!(ticks.len() > 1, "a contended run spans several ticks");
    for (i, &at) in ticks.iter().enumerate() {
        assert_eq!(at, SimTime::from_micros(50 * i as u64));
    }
}

/// `text_summary`'s `series:` block counts the trace's counter samples, one
/// line per counter: a tick whose values all fit `u32` and one that fell
/// back to six `CounterSample`s count alike.
#[test]
fn summary_series_count_and_peak_every_tick_shape() {
    let mut t = Tracer::enabled();
    t.record_tick(SimTime::ZERO, [1, 2, 3, 4, 5, 6]);
    t.record_tick(SimTime::from_micros(50), [9, 1, 1 << 32, 0, 7, 2]);
    t.record_tick(SimTime::from_micros(100), [3, 3, 3, 3, 3, 3]);
    let log = t.take();
    let ticks = log
        .events
        .iter()
        .filter(|e| e.event.kind() == "counter-tick");
    assert_eq!(
        ticks.count(),
        2,
        "the middle tick must fall back to samples"
    );
    let snap = MetricsRegistry::new().snapshot();
    let summary = text_summary(&log, Some(&snap));
    let series: Vec<&str> = (summary.lines())
        .skip_while(|l| *l != "series:")
        .skip(1)
        .take_while(|l| l.starts_with("  "))
        .collect();
    let expected = [
        ("inflight_jobs", 3),
        ("notifq_backlog", 4),
        ("occupancy_pct", 6),
        ("ready_jobs", 9),
        ("resident_blocks", 7),
        ("stream_waiters", 1 << 32),
    ]
    .map(|(k, peak): (&str, u64)| format!("  {k:<28} 3 samples, peak {peak}"));
    assert_eq!(series, expected);
}

/// The deterministic gate on bytes per recorded event (DESIGN §8): recording
/// cost is proportional to them, so a new wide variant must go out of line
/// rather than widen every event.
#[test]
fn trace_events_stay_inside_the_size_budget() {
    assert!(std::mem::size_of::<TraceEvent>() <= 32);
    assert!(std::mem::size_of::<TracedEvent>() <= 40);
}

/// The taken log of a burst of 12 Table 2 jobs (684 kernels): many-block
/// kernels whose words interleave with other events in the word-level view.
fn zoo_burst_log() -> TraceLog {
    let mut zoo = paella_models::ModelZoo::new(DeviceConfig::tesla_t4());
    let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
    let mut sys = dispatcher(5);
    sys.enable_telemetry();
    let ids = models.each_ref().map(|m| sys.register_model(m));
    for i in 0..12u32 {
        sys.submit(InferenceRequest {
            client: paella_core::ClientId(i % 4),
            model: ids[i as usize % ids.len()],
            submitted_at: SimTime::from_micros(u64::from(i) * 200),
        });
    }
    sys.run_to_idle();
    assert_eq!(sys.drain_completions().len(), 12);
    sys.take_trace_log().expect("telemetry on")
}

/// The deterministic gate on events per kernel: the device and the
/// dispatcher record a wave, a charged stretch of words and a sampling tick
/// as one event each, and only the exporters' view pays per word. Pinned on a burst of Table 2
/// jobs (many-block kernels, so every wave posts a run of words); going back
/// to per-word recording moves the first number to the second.
#[test]
fn recording_is_per_run_not_per_word() {
    let log = zoo_burst_log();
    let kernels = (log.events.iter())
        .filter(|e| e.event.kind() == "kernel-dispatched")
        .count();
    let (recorded, words) = (log.len(), log.expanded().len());
    // 42.8 events recorded per kernel, 710 in the word-level view. A
    // sampling tick is one record of its six counters.
    assert_eq!((kernels, recorded, words), (684, 29_301, 485_661));
    assert!(
        recorded * 8 <= words,
        "{recorded} events recorded for {words} word-level ones"
    );
    for kind in [
        "sm-span-begin",
        "sm-span-end",
        "notif-batch",
        "counter-sample",
    ] {
        assert!(
            log.events.iter().all(|e| e.event.kind() != kind),
            "{kind} is a view, nothing records it"
        );
    }
}

/// What the exporters make of a host + device concatenation whose runs
/// interleave with other events, byte for byte:
/// the Chrome export, the text summary and the word-level event count.
#[test]
fn zoo_burst_exports_are_pinned() {
    let log = zoo_burst_log();
    let digests = (
        fnv(chrome_trace_json(&log).as_bytes()),
        fnv(text_summary(&log, None).as_bytes()),
        log.expanded().len(),
    );
    assert_eq!(
        digests,
        (0x089e_b78c_1878_8482, 0xd197_78b8_050e_b140, 485_661)
    );
}

/// The flight recorder prints events with `{:?}` and its dump is a
/// byte-stable output: out-of-line payloads must print as the inline struct
/// variants they replaced.
#[test]
fn flight_dump_lines_for_boxed_payloads_are_pinned() {
    let mut log = TraceLog::from(vec![
        TracedEvent {
            at: SimTime::from_micros(8),
            event: TraceEvent::JobEnd(Box::new(JobEnd {
                job: 1,
                client: 6,
                jct_ns: 8_000,
                client_send_recv_ns: 1_000,
                communication_ns: 500,
                queuing_scheduling_ns: 3_000,
                framework_ns: 500,
                device_ns: 3_000,
            })),
        },
        TracedEvent {
            at: SimTime::from_micros(8),
            event: TraceEvent::JobJourney(Box::new(JobJourney {
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
            })),
        },
    ]);
    log.first_seq = 41;
    let dump = flight::render("test", SimTime::from_micros(8), &[], &log);
    flight::validate_dump(&dump).expect("dump parses");
    let lines: Vec<&str> = dump.lines().filter(|l| l.starts_with("event: ")).collect();
    assert_eq!(
        lines,
        [
            "event: at_ns=8000 seq=41 kind=job-end JobEnd { job: 1, client: 6, jct_ns: 8000, \
             client_send_recv_ns: 1000, communication_ns: 500, queuing_scheduling_ns: 3000, \
             framework_ns: 500, device_ns: 3000 }",
            "event: at_ns=8000 seq=42 kind=job-journey JobJourney { job: 1, client: 6, \
             jct_ns: 8000, client_send_recv_ns: 1000, communication_ns: 500, framework_ns: 500, \
             device_ns: 3000, retry_backoff_ns: 2000, queue_dep_ns: 400, queue_occupancy_ns: 300, \
             queue_hol_ns: 300, device_prefill_ns: 3000, device_decode_ns: 0 }",
        ]
    );
}

/// `take_trace_log` leaves the tracer recording, so a log may be one window
/// of a run and spans may straddle its edges. The exporter must render each
/// window on its own (it used to panic on an SM span end whose begin fell in
/// the previous window).
#[test]
fn windowed_logs_export_without_their_straddling_spans() {
    let (mut sys, arrivals) = workload(7, true);
    let (head, tail) = arrivals.split_at(arrivals.len() / 2);
    let submit = |sys: &mut Dispatcher, batch: &[Arrival]| {
        for a in batch {
            while let Some(t) = sys.next_event_time().filter(|&t| t <= a.at) {
                sys.advance_until(t);
            }
            sys.submit(InferenceRequest {
                client: a.client,
                model: a.model,
                submitted_at: a.at,
            });
        }
    };
    submit(&mut sys, head);
    let mid_run = sys.take_trace_log().expect("telemetry on");
    submit(&mut sys, tail);
    sys.run_to_idle();
    let at_idle = sys.take_trace_log().expect("telemetry on");

    // Spans are counted in the word-level view, as the exporter pairs them.
    let count = |log: &TraceLog, kind: &str| {
        let words = log.expanded();
        words
            .events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count()
    };
    let straddling = count(&mid_run, "sm-span-begin") - count(&mid_run, "sm-span-end");
    assert!(
        straddling > 0,
        "the first window must cut through running kernels"
    );
    assert_eq!(
        count(&at_idle, "sm-span-end") - count(&at_idle, "sm-span-begin"),
        straddling,
        "their ends land in the second window"
    );
    assert!(
        count(&mid_run, "job-begin") > count(&mid_run, "job-end"),
        "and through running jobs"
    );

    for log in [&mid_run, &at_idle] {
        validate_chrome_trace(&chrome_trace_json(log)).expect("each window is a valid trace");
    }
    assert_eq!(
        sm_spans(&mid_run).len() + sm_spans(&at_idle).len() + straddling,
        count(&mid_run, "sm-span-begin") + count(&at_idle, "sm-span-begin"),
        "exactly the straddling spans are dropped"
    );
    let skipped = format!("skipped {straddling} SM span end(s)");
    assert!(text_summary(&at_idle, None).contains(&skipped));
    assert!(!text_summary(&mid_run, None).contains("skipped"));
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One synthetic log holding every `TraceEvent` variant — `trace_dump`'s
/// golden has no cluster, fault, LLM or cancelled-job event — including the
/// cases the exporter treats specially: a whole job span, a `JobBegin` whose
/// end falls outside the window, a `JobCancelled` that closes a span and one
/// that arrives alone, a `JobEnd` without its begin, two dispatcher cores,
/// overlapping groups on one SM, a kernel name that needs escaping, a job with
/// three flow anchors, and the three run variants beside their word-level
/// views. The match is wildcard-free, so a new variant fails to compile here
/// until it is added to the log.
fn every_variant_log() -> TraceLog {
    use paella_telemetry::{
        HoldReason, HostOpKind, JobBegin, PickRationale, RouteDecision, Tracer,
    };
    use std::sync::Arc;

    let us = SimTime::from_micros;
    let mut t = Tracer::enabled();
    let rec = |t: &mut Tracer, at: u64, e: TraceEvent| t.record_with(us(at), || e);
    let begin = |job: u64, client: u32, model: &str, at: u64| {
        TraceEvent::JobBegin(Box::new(JobBegin {
            job,
            client,
            model: model.into(),
            submitted_at: us(at),
        }))
    };
    let host = |kind, core, start: u64| TraceEvent::HostOp {
        kind,
        core,
        start: us(start),
    };
    let groups = [(0, 2), (1, 4)];

    rec(&mut t, 1, begin(1, 0, "resnet\"18", 0));
    rec(&mut t, 2, host(HostOpKind::Ingest, 0, 1));
    rec(&mut t, 2, begin(2, 1, "open-ended", 1));
    rec(&mut t, 3, begin(3, 2, "cancelled", 2));
    rec(
        &mut t,
        3,
        TraceEvent::RouteDecision(Box::new(RouteDecision {
            model: 4,
            node: 2,
            policy: "least-remaining-work",
            outstanding: 9,
            candidates: 3,
        })),
    );
    rec(
        &mut t,
        4,
        TraceEvent::SchedDecision {
            job: 1,
            policy: "srpt+deficit",
            rationale: PickRationale::DeficitOverride,
            ready: 3,
        },
    );
    rec(&mut t, 5, host(HostOpKind::Sched, 1, 4));
    for reason in [
        HoldReason::OccupancyBudget,
        HoldReason::NotifqBackpressure,
        HoldReason::StreamPool,
        HoldReason::DepWait,
    ] {
        rec(&mut t, 5, TraceEvent::OccupancyHold { job: 2, reason });
    }
    for kernel in [7, 8, 9] {
        rec(
            &mut t,
            6,
            TraceEvent::KernelDispatched {
                job: 1,
                kernel,
                stream: 3,
                grid_blocks: 6,
            },
        );
    }
    rec(
        &mut t,
        7,
        TraceEvent::KernelQueued {
            kernel: 7,
            stream: 3,
            hw_queue: 1,
        },
    );
    rec(
        &mut t,
        7,
        TraceEvent::HwQueueStall {
            hw_queue: 5,
            kernel: 8,
        },
    );
    t.record_words(us(8), groups, |range| TraceEvent::SmWaveBegin {
        kernel: 7,
        wave: 0,
        name: Arc::new("conv\"1\\x\n".into()),
        range,
    });
    // Word-level spans beside the run: kernel 8 overlaps kernel 7 on SM 0
    // (a second lane), kernel 9 follows it on the first.
    let name = Arc::new(String::from("gemm"));
    let span = |kernel, sm| TraceEvent::SmSpanBegin {
        kernel,
        wave: 1,
        sm,
        blocks: 3,
        name: name.clone(),
    };
    let span_end = |kernel, sm| TraceEvent::SmSpanEnd {
        kernel,
        wave: 1,
        sm,
        blocks: 3,
    };
    rec(&mut t, 9, span(8, 0));
    // Two words 400 ns apart from 9 µs: recorded at the first one's end.
    let ns = SimTime::from_nanos;
    t.record_words(ns(9_400), groups, |range| TraceEvent::NotifRun {
        kernel: 7,
        start: us(9),
        core: 1,
        placement: true,
        range,
    });
    rec(
        &mut t,
        11,
        TraceEvent::NotifBatch {
            kernel: 8,
            sm: 0,
            placement: false,
            blocks: 3,
        },
    );
    rec(&mut t, 11, host(HostOpKind::Notif, 0, 10));
    t.record_words(us(12), groups, |range| TraceEvent::SmWaveEnd {
        kernel: 7,
        wave: 0,
        range,
    });
    rec(&mut t, 13, span(9, 0));
    rec(&mut t, 14, span_end(8, 0));
    rec(&mut t, 15, span_end(9, 0));
    // An end whose begin precedes the window.
    rec(&mut t, 15, span_end(6, 2));
    rec(&mut t, 16, TraceEvent::KernelCompleted { kernel: 7 });
    rec(&mut t, 16, TraceEvent::DoorbellWake { job: 1 });
    rec(
        &mut t,
        17,
        TraceEvent::KernelFault {
            job: 3,
            kernel: 10,
            attempt: 1,
        },
    );
    rec(
        &mut t,
        17,
        TraceEvent::RetryBackoff {
            job: 3,
            kernel: 10,
            attempt: 1,
            backoff_ns: 20_000,
        },
    );
    rec(
        &mut t,
        18,
        TraceEvent::FailoverHop {
            client: 2,
            model: 4,
            attempt: 2,
        },
    );
    rec(
        &mut t,
        19,
        TraceEvent::JobCancelled {
            job: 3,
            reason: "retry-budget-exhausted",
        },
    );
    rec(
        &mut t,
        19,
        TraceEvent::JobCancelled {
            job: 4,
            reason: "node-crash",
        },
    );
    rec(
        &mut t,
        20,
        TraceEvent::RequestShed {
            client: 5,
            model: 4,
        },
    );
    rec(&mut t, 20, TraceEvent::NodeCrash { node: 2 });
    rec(&mut t, 21, TraceEvent::NodeRecover { node: 2 });
    rec(
        &mut t,
        22,
        TraceEvent::PrefillStart {
            job: 6,
            prompt_tokens: 128,
        },
    );
    for (at, freed, resident) in [(22, false, 8), (24, true, 0)] {
        rec(
            &mut t,
            at,
            TraceEvent::KvAlloc {
                job: 6,
                pages: 8,
                freed,
                resident,
            },
        );
    }
    rec(
        &mut t,
        23,
        TraceEvent::DecodeStep {
            iter: 0,
            batch: 2,
            tokens: 2,
        },
    );
    rec(
        &mut t,
        25,
        TraceEvent::CounterSample {
            name: "inflight_jobs",
            value: 3,
        },
    );
    rec(
        &mut t,
        25,
        TraceEvent::CounterTick {
            values: [2, 3, 0, 41, 96, 60],
        },
    );
    rec(&mut t, 26, host(HostOpKind::Completion, 0, 25));
    for job in [1, 5] {
        rec(
            &mut t,
            27,
            TraceEvent::JobEnd(Box::new(JobEnd {
                job,
                client: 0,
                jct_ns: 27_000,
                client_send_recv_ns: 1_000,
                communication_ns: 2_000,
                queuing_scheduling_ns: 9_000,
                framework_ns: 3_000,
                device_ns: 12_000,
            })),
        );
    }
    rec(
        &mut t,
        27,
        TraceEvent::JobJourney(Box::new(JobJourney {
            job: 1,
            client: 0,
            jct_ns: 27_000,
            client_send_recv_ns: 1_000,
            communication_ns: 2_000,
            framework_ns: 3_000,
            device_ns: 12_000,
            retry_backoff_ns: 4_000,
            queue_dep_ns: 3_000,
            queue_occupancy_ns: 1_500,
            queue_hol_ns: 500,
            device_prefill_ns: 7_000,
            device_decode_ns: 5_000,
        })),
    );
    let log = t.take();

    let mut seen = std::collections::BTreeSet::new();
    for e in log.events.iter().chain(&log.expanded().events) {
        seen.insert(match e.event {
            TraceEvent::JobBegin(_) => 0,
            TraceEvent::JobEnd(_) => 1,
            TraceEvent::JobJourney(_) => 2,
            TraceEvent::HostOp { .. } => 3,
            TraceEvent::SchedDecision { .. } => 4,
            TraceEvent::OccupancyHold { .. } => 5,
            TraceEvent::KernelQueued { .. } => 6,
            TraceEvent::HwQueueStall { .. } => 7,
            TraceEvent::KernelDispatched { .. } => 8,
            TraceEvent::KernelCompleted { .. } => 9,
            TraceEvent::SmWaveBegin { .. } => 10,
            TraceEvent::SmWaveEnd { .. } => 11,
            TraceEvent::NotifRun { .. } => 12,
            TraceEvent::SmSpanBegin { .. } => 13,
            TraceEvent::SmSpanEnd { .. } => 14,
            TraceEvent::NotifBatch { .. } => 15,
            TraceEvent::DoorbellWake { .. } => 16,
            TraceEvent::RouteDecision(_) => 17,
            TraceEvent::KernelFault { .. } => 18,
            TraceEvent::RetryBackoff { .. } => 19,
            TraceEvent::FailoverHop { .. } => 20,
            TraceEvent::JobCancelled { .. } => 21,
            TraceEvent::RequestShed { .. } => 22,
            TraceEvent::NodeCrash { .. } => 23,
            TraceEvent::NodeRecover { .. } => 24,
            TraceEvent::PrefillStart { .. } => 25,
            TraceEvent::DecodeStep { .. } => 26,
            TraceEvent::KvAlloc { .. } => 27,
            TraceEvent::CounterSample { .. } => 28,
            TraceEvent::CounterTick { .. } => 29,
        });
    }
    assert_eq!(seen.len(), 30, "the log must hold every variant");
    log
}

/// `log` with every tick recorded as the six samples it stands for. The runs
/// stay as they are, so their words do too.
fn ticks_as_samples(log: &TraceLog) -> TraceLog {
    let mut events = Vec::new();
    for e in &log.events {
        let TraceEvent::CounterTick { values } = e.event else {
            events.push(e.clone());
            continue;
        };
        let samples = TICK_COUNTERS.into_iter().zip(values);
        events.extend(samples.map(|(name, value)| TracedEvent {
            at: e.at,
            event: TraceEvent::CounterSample {
                name,
                value: u64::from(value),
            },
        }));
    }
    let mut samples = log.clone();
    samples.events = events;
    samples
}

/// The three renderings of [`every_variant_log`], byte for byte: the Chrome
/// export, the text summary (both of the word-level view), and a flight dump
/// of the log as recorded, which prints `kind()` and `{:?}` of every variant.
/// A tick renders as the six samples it replaced. The dump prints a run as
/// the range it holds into the word pool; the exports print its words.
#[test]
fn every_variant_renders_to_pinned_bytes() {
    let log = every_variant_log();
    let json = chrome_trace_json(&log);
    validate_chrome_trace(&json).expect("valid trace");
    let summary = text_summary(&log, None);
    let samples = ticks_as_samples(&log);
    assert!(samples.len() > log.len());
    assert_eq!(json, chrome_trace_json(&samples));
    assert_eq!(summary, text_summary(&samples, None));
    let at = SimTime::from_micros(27);
    assert_eq!(
        flight::render("tick", at, &[], &log.expanded()),
        flight::render("tick", at, &[], &samples.expanded())
    );
    let dump = flight::render(
        "every-variant",
        SimTime::from_micros(27),
        &[("jobs_inflight", 2)],
        &log,
    );
    flight::validate_dump(&dump).expect("dump parses");
    assert_eq!(
        (
            fnv(json.as_bytes()),
            fnv(summary.as_bytes()),
            fnv(dump.as_bytes())
        ),
        (
            0x7f46_5c4d_99f7_cba0,
            0x19a2_f688_a947_49a0,
            0xc52a_8f46_ec72_f5b9
        ),
        "\n{json}\n{summary}\n{dump}"
    );
}
