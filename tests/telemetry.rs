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
    JobJourney, TraceEvent, TraceLog, TracedEvent,
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

    // The merged log is globally ordered on virtual time — as recorded (a
    // run sorts at its first word) and in the word-level view.
    let words = log.expanded();
    for view in [log, &words] {
        for w in view.events.windows(2) {
            assert!(w[0].at <= w[1].at, "merged log out of order");
            assert!(w[0].seq < w[1].seq, "merged log not re-sequenced");
        }
    }

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
    assert!(m.series("inflight_jobs").is_some());
}

/// The deterministic gate on bytes per recorded event (DESIGN §8): recording
/// cost is proportional to them, so a new wide variant must go out of line
/// rather than widen every event.
#[test]
fn trace_events_stay_inside_the_size_budget() {
    assert!(std::mem::size_of::<TraceEvent>() <= 32);
    assert!(std::mem::size_of::<TracedEvent>() <= 48);
}

/// The deterministic gate on events per kernel: the device and the
/// dispatcher record a wave and a charged stretch of words as one event each,
/// and only the exporters' view pays per word. Pinned on a burst of Table 2
/// jobs (many-block kernels, so every wave posts a run of words); going back
/// to per-word recording moves the first number to the second.
#[test]
fn recording_is_per_run_not_per_word() {
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

    let log = sys.take_trace_log().expect("telemetry on");
    let kernels = (log.events.iter())
        .filter(|e| e.event.kind() == "kernel-dispatched")
        .count();
    let (recorded, words) = (log.len(), log.expanded().len());
    // 54.9 events recorded per kernel, 710 in the word-level view.
    assert_eq!((kernels, recorded, words), (684, 37_523, 485_661));
    assert!(
        recorded * 8 <= words,
        "{recorded} events recorded for {words} word-level ones"
    );
    for kind in ["sm-span-begin", "sm-span-end", "notif-batch"] {
        assert!(
            log.events.iter().all(|e| e.event.kind() != kind),
            "{kind} is a view, nothing records it"
        );
    }
}

/// The flight recorder prints events with `{:?}` and its dump is a
/// byte-stable output: out-of-line payloads must print as the inline struct
/// variants they replaced.
#[test]
fn flight_dump_lines_for_boxed_payloads_are_pinned() {
    let events = [
        TracedEvent {
            at: SimTime::from_micros(8),
            seq: 41,
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
            seq: 42,
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
    ];
    let dump = flight::render("test", SimTime::from_micros(8), &[], &events);
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
        HoldReason, HostOpKind, JobBegin, NotifRun, PickRationale, RouteDecision, SmWave, Tracer,
    };
    use std::sync::Arc;

    let us = SimTime::from_micros;
    let mut t = Tracer::enabled();
    let mut rec = |at: u64, e: TraceEvent| t.record_with(us(at), || e);
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
    let wave = Arc::new(SmWave {
        kernel: 7,
        wave: 0,
        name: Arc::new("conv\"1\\x\n".into()),
        groups: vec![(0, 2), (1, 4)].into(),
    });

    rec(1, begin(1, 0, "resnet\"18", 0));
    rec(2, host(HostOpKind::Ingest, 0, 1));
    rec(2, begin(2, 1, "open-ended", 1));
    rec(3, begin(3, 2, "cancelled", 2));
    rec(
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
        4,
        TraceEvent::SchedDecision {
            job: 1,
            policy: "srpt+deficit",
            rationale: PickRationale::DeficitOverride,
            ready: 3,
        },
    );
    rec(5, host(HostOpKind::Sched, 1, 4));
    for reason in [
        HoldReason::OccupancyBudget,
        HoldReason::NotifqBackpressure,
        HoldReason::StreamPool,
        HoldReason::DepWait,
    ] {
        rec(5, TraceEvent::OccupancyHold { job: 2, reason });
    }
    for kernel in [7, 8, 9] {
        rec(
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
        7,
        TraceEvent::KernelQueued {
            kernel: 7,
            stream: 3,
            hw_queue: 1,
        },
    );
    rec(
        7,
        TraceEvent::HwQueueStall {
            hw_queue: 5,
            kernel: 8,
        },
    );
    rec(8, TraceEvent::SmWaveBegin(wave.clone()));
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
    rec(9, span(8, 0));
    rec(
        10,
        TraceEvent::NotifRun(Box::new(NotifRun {
            kernel: 7,
            placement: true,
            core: 1,
            start: us(9),
            cost: SimDuration::from_nanos(400),
            words: vec![(0, 2), (1, 4)],
        })),
    );
    rec(
        11,
        TraceEvent::NotifBatch {
            kernel: 8,
            sm: 0,
            placement: false,
            blocks: 3,
        },
    );
    rec(11, host(HostOpKind::Notif, 0, 10));
    rec(12, TraceEvent::SmWaveEnd(wave));
    rec(13, span(9, 0));
    rec(14, span_end(8, 0));
    rec(15, span_end(9, 0));
    // An end whose begin precedes the window.
    rec(15, span_end(6, 2));
    rec(16, TraceEvent::KernelCompleted { kernel: 7 });
    rec(16, TraceEvent::DoorbellWake { job: 1 });
    rec(
        17,
        TraceEvent::KernelFault {
            job: 3,
            kernel: 10,
            attempt: 1,
        },
    );
    rec(
        17,
        TraceEvent::RetryBackoff {
            job: 3,
            kernel: 10,
            attempt: 1,
            backoff_ns: 20_000,
        },
    );
    rec(
        18,
        TraceEvent::FailoverHop {
            client: 2,
            model: 4,
            attempt: 2,
        },
    );
    rec(
        19,
        TraceEvent::JobCancelled {
            job: 3,
            reason: "retry-budget-exhausted",
        },
    );
    rec(
        19,
        TraceEvent::JobCancelled {
            job: 4,
            reason: "node-crash",
        },
    );
    rec(
        20,
        TraceEvent::RequestShed {
            client: 5,
            model: 4,
        },
    );
    rec(20, TraceEvent::NodeCrash { node: 2 });
    rec(21, TraceEvent::NodeRecover { node: 2 });
    rec(
        22,
        TraceEvent::PrefillStart {
            job: 6,
            prompt_tokens: 128,
        },
    );
    for (at, freed, resident) in [(22, false, 8), (24, true, 0)] {
        rec(
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
        23,
        TraceEvent::DecodeStep {
            iter: 0,
            batch: 2,
            tokens: 2,
        },
    );
    rec(
        25,
        TraceEvent::CounterSample {
            name: "inflight_jobs",
            value: 3,
        },
    );
    rec(26, host(HostOpKind::Completion, 0, 25));
    for job in [1, 5] {
        rec(
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
            TraceEvent::SmWaveBegin(_) => 10,
            TraceEvent::SmWaveEnd(_) => 11,
            TraceEvent::NotifRun(_) => 12,
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
        });
    }
    assert_eq!(seen.len(), 29, "the log must hold every variant");
    log
}

/// The three renderings of [`every_variant_log`], byte for byte: the Chrome
/// export, the text summary (both of the word-level view), and a flight dump
/// of the log as recorded, which prints `kind()` and `{:?}` of every variant.
#[test]
fn every_variant_renders_to_pinned_bytes() {
    let log = every_variant_log();
    let json = chrome_trace_json(&log);
    validate_chrome_trace(&json).expect("valid trace");
    let summary = text_summary(&log, None);
    let dump = flight::render(
        "every-variant",
        SimTime::from_micros(27),
        &[("jobs_inflight", 2)],
        &log.events,
    );
    flight::validate_dump(&dump).expect("dump parses");
    assert_eq!(
        (
            fnv(json.as_bytes()),
            fnv(summary.as_bytes()),
            fnv(dump.as_bytes())
        ),
        (
            0x5711_9831_1c82_3cd5,
            0x397f_edcf_c3df_b560,
            0x7f27_926e_5b70_08b2
        ),
        "\n{json}\n{summary}\n{dump}"
    );
}
