//! Cross-crate integration tests: the full pipeline from graph IR through
//! compilation, calibration, serving, and metrics, for every system in
//! Table 3.

use paella_channels::ChannelConfig;
use paella_core::ServingSystem;
use paella_gpu::DeviceConfig;
use paella_models::{synthetic, ModelZoo};
use paella_sim::SimDuration;
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

fn device() -> DeviceConfig {
    DeviceConfig::tesla_t4()
}

/// A fresh full-Paella dispatcher, for the systems that wrap one.
fn paella_dispatcher(cfg: paella_core::DispatcherConfig, seed: u64) -> paella_core::Dispatcher {
    paella_core::Dispatcher::new(
        device(),
        ChannelConfig::default(),
        Box::new(paella_core::SrptDeficitScheduler::new(Some(
            SystemKey::DEFAULT_FAIRNESS,
        ))),
        cfg,
        seed,
    )
}

#[test]
fn no_system_loses_or_duplicates_jobs() {
    let mut zoo = ModelZoo::new(device());
    let r18 = zoo.get("resnet18").clone();
    for key in SystemKey::ALL {
        let name = key.key();
        let mut sys = make_system(key, device(), 5);
        let id = sys.register_model(&r18);
        let spec = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::bursty(300.0, 120)
        };
        let arrivals = generate(&spec, &Mix::single(id));
        let stats = run_trace(sys.as_mut(), &arrivals, 0);
        assert_eq!(stats.completions.len(), 120, "{name}");
        // Each request comes back exactly once, and so does each job id.
        let mut requests: Vec<(u32, u64)> = stats
            .completions
            .iter()
            .map(|c| (c.request.client.0, c.request.submitted_at.as_nanos()))
            .collect();
        requests.sort_unstable();
        let mut submitted: Vec<(u32, u64)> = arrivals
            .iter()
            .map(|a| (a.client.0, a.at.as_nanos()))
            .collect();
        submitted.sort_unstable();
        assert_eq!(requests, submitted, "{name} lost or duplicated a request");
        let mut jobs: Vec<u64> = stats.completions.iter().map(|c| c.job.0).collect();
        jobs.sort_unstable();
        jobs.dedup();
        assert_eq!(jobs.len(), 120, "{name} duplicated completions");
        // Completion timestamps never precede submission.
        for c in &stats.completions {
            assert_eq!(c.request.model, id, "{name}");
            assert!(c.client_visible_at >= c.request.submitted_at, "{name}");
        }
    }
}

/// Every front end returns what its inner system returns — failures as well
/// as completions, under the ids and submission times the caller used — and
/// shows the load it is holding.
#[test]
fn no_wrapper_loses_a_request_or_hides_load() {
    use paella_cluster::{Cluster, ClusterConfig, MigServing, RoutingPolicy};
    use paella_core::{
        ClientId, DispatcherConfig, InferenceRequest, ModelId, SrptDeficitScheduler,
    };
    use paella_sim::SimTime;
    let model = synthetic::uniform_job("w", 4, SimDuration::from_micros(150), 64);
    let srpt = || -> Box<dyn paella_core::Scheduler> {
        Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS)))
    };
    let mig = |cfg| MigServing::new(&device(), &[20, 20], cfg, srpt, 7);
    // Forty requests 5 µs apart from four clients, spread over `ids`.
    let burst = |sys: &mut dyn ServingSystem, ids: &[ModelId]| -> Vec<(u32, u32, u64)> {
        (0..40u64)
            .map(|i| {
                let req = InferenceRequest {
                    client: ClientId((i % 4) as u32),
                    model: ids[i as usize % ids.len()],
                    submitted_at: SimTime::from_micros(i * 5),
                };
                sys.submit(req);
                (req.client.0, req.model.0, req.submitted_at.as_nanos())
            })
            .collect()
    };

    // 1. An inner system that sheds above two outstanding requests and
    // cancels on a deadline: every request still comes back exactly once.
    let tight = DispatcherConfig {
        shed_watermark: Some(2),
        deadline_factor: Some(4.0),
        ..DispatcherConfig::paella()
    };
    // The cluster tier charges the remote client's network crossings
    // (`RpcNetModel`) on its way in and out.
    let cluster = ClusterConfig {
        dispatcher: tight,
        ..ClusterConfig::with_policy(RoutingPolicy::LeastRemainingWork)
    };
    let mut wrappers: [(&str, &mut dyn ServingSystem, usize); 2] = [
        ("mig", &mut mig(tight), 2),
        ("cluster", &mut Cluster::new(device(), 2, cluster), 2),
    ];
    for (name, sys, models) in &mut wrappers {
        let ids: Vec<ModelId> = (0..*models).map(|_| sys.register_model(&model)).collect();
        let mut submitted = burst(*sys, &ids);
        sys.run_to_idle();
        let (done, failed) = (sys.drain_completions(), sys.drain_failures());
        assert!(!done.is_empty() && !failed.is_empty(), "{name}: both paths");
        let mut returned: Vec<(u32, u32, u64)> = done
            .iter()
            .map(|c| c.request)
            .chain(failed.iter().map(|f| f.request))
            .map(|r| (r.client.0, r.model.0, r.submitted_at.as_nanos()))
            .collect();
        returned.sort_unstable();
        submitted.sort_unstable();
        assert_eq!(
            returned, submitted,
            "{name}: every request, once, as submitted"
        );
        assert_eq!(sys.load_signal().outstanding(), 0, "{name}");
    }

    // 2. Load, traces, metrics and post-mortems reach the caller through
    // every front end.
    let roomy = DispatcherConfig::paella();
    let baseline = |key| make_system(key, device(), 5);
    let systems: [(&str, Box<dyn ServingSystem>); 4] = [
        ("mig", Box::new(mig(roomy))),
        ("CUDA-MS", baseline(SystemKey::CudaMs)),
        ("Triton", baseline(SystemKey::Triton)),
        ("Clockwork", baseline(SystemKey::Clockwork)),
    ];
    for (name, mut sys) in systems {
        sys.enable_telemetry();
        let id = sys.register_model(&model);
        burst(sys.as_mut(), &[id]);
        assert_eq!(sys.load_signal().outstanding(), 40, "{name}: queued load");
        sys.run_to_idle();
        assert_eq!(sys.load_signal().outstanding(), 0, "{name}: idle");
        assert_eq!(sys.drain_completions().len(), 40, "{name}");
        let trace = sys.take_trace_log().expect(name);
        assert!(
            trace.events.iter().any(|e| e.event.kind() == "job-begin"),
            "{name}: inner events surface"
        );
        let snap = sys.metrics_snapshot().expect(name);
        assert!(snap.counter("jobs_completed") > 0, "{name}");
        assert!(sys.take_postmortems().is_empty(), "{name}: nothing failed");
    }
}

#[test]
fn full_runs_are_deterministic_across_repeats() {
    let run = || {
        let mut zoo = ModelZoo::new(device());
        let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
        let mut sys = make_system(SystemKey::Paella, device(), 99);
        let ids: Vec<_> = models.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::bursty(200.0, 150)
        };
        let arrivals = generate(&spec, &Mix::uniform(&ids));
        let stats = run_trace(sys.as_mut(), &arrivals, 0);
        stats
            .completions
            .iter()
            .map(|c| (c.job.0, c.client_visible_at.as_nanos()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(), run(), "same seed must give bit-identical timelines");
}

#[test]
fn instrumentation_tracks_ground_truth_occupancy() {
    // The dispatcher's mirror drains exactly when the device does.
    let mut sys = make_system(SystemKey::Paella, device(), 5);
    let id = sys.register_model(&synthetic::uniform_job(
        "probe",
        6,
        SimDuration::from_micros(150),
        64,
    ));
    let spec = WorkloadSpec {
        clients: 2,
        ..WorkloadSpec::steady(2_000.0, 60)
    };
    let arrivals = generate(&spec, &Mix::single(id));
    let stats = run_trace(sys.as_mut(), &arrivals, 0);
    assert_eq!(stats.completions.len(), 60);
}

#[test]
fn hybrid_wakeup_fires_before_completion() {
    let mut sys = make_system(SystemKey::Paella, device(), 5);
    let id = sys.register_model(&synthetic::fig2_job());
    let spec = WorkloadSpec {
        clients: 1,
        ..WorkloadSpec::steady(100.0, 20)
    };
    let arrivals = generate(&spec, &Mix::single(id));
    let stats = run_trace(sys.as_mut(), &arrivals, 0);
    for c in &stats.completions {
        let wake = c.almost_finished_at.expect("almost-finished must fire");
        assert!(
            wake <= c.client_visible_at,
            "wakeup at {wake} after visibility {}",
            c.client_visible_at
        );
    }
}

// -- paper claims -------------------------------------------------------------
//
// Each scenario is built once, in `paella_bench::claims`; these tests assert
// one claim each. `every_paper_claim_holds` (`crates/bench/tests/claims.rs`)
// asserts the whole list.

/// Asserts that the claim with this id in `paella_bench::claims::all` holds.
fn assert_claim(id: &str) {
    let claim = paella_bench::claims::all()
        .into_iter()
        .find(|c| c.id == id)
        .unwrap_or_else(|| panic!("no paper claim has id {id}"));
    let verdict = (claim.check)();
    assert!(verdict.ok, "{id}: {} ({})", claim.text, verdict.detail);
}

#[test]
fn every_table2_model_calibrates_within_two_percent() {
    assert_claim("table2");
}

#[test]
fn paella_dominates_triton_on_tail_latency_under_load() {
    assert_claim("fig11");
}

#[test]
fn srpt_scheduling_protects_short_jobs() {
    assert_claim("fig12.s5");
}

#[test]
fn trends_hold_on_tesla_p100() {
    assert_claim("p100");
}

// -- default-path golden ----------------------------------------------------

/// FNV-1a, one 64-bit word at a time.
fn fold(h: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Drives `sys` through `arrivals` and digests both terminal streams in the
/// order the system emitted them: `(request, client_visible_at ns)` per
/// completion, `(request, reason, at ns)` per failure, where a request's id
/// is its index in the arrival trace. Returns `(digest, completed, failed)`.
fn golden_digest(
    sys: &mut dyn paella_core::ServingSystem,
    arrivals: &[paella_workload::Arrival],
) -> (u64, usize, usize) {
    use paella_core::{FailureReason, InferenceRequest};
    let mut index = std::collections::HashMap::new();
    for (i, a) in arrivals.iter().enumerate() {
        let clash = index.insert((a.client.0, a.at.as_nanos()), i as u64);
        assert!(clash.is_none(), "arrival {i} is not unique per client/time");
    }
    let request_id = |r: &InferenceRequest| index[&(r.client.0, r.submitted_at.as_nanos())];
    let (mut done, mut failed) = (Vec::new(), Vec::new());
    for a in arrivals {
        while let Some(t) = sys.next_event_time().filter(|&t| t <= a.at) {
            sys.advance_until(t);
        }
        sys.submit(InferenceRequest {
            client: a.client,
            model: a.model,
            submitted_at: a.at,
        });
        done.append(&mut sys.drain_completions());
        failed.append(&mut sys.drain_failures());
    }
    sys.run_to_idle();
    done.append(&mut sys.drain_completions());
    failed.append(&mut sys.drain_failures());
    assert_eq!(done.len() + failed.len(), arrivals.len(), "lost requests");

    let mut h = 0xcbf2_9ce4_8422_2325;
    for c in &done {
        h = fold(h, request_id(&c.request));
        h = fold(h, c.client_visible_at.as_nanos());
    }
    for f in &failed {
        h = fold(h, request_id(&f.request));
        h = fold(
            h,
            match f.reason {
                FailureReason::DeadlineExceeded => 1,
                FailureReason::Shed => 2,
                FailureReason::Disconnected => 3,
                FailureReason::RetryBudgetExhausted => 4,
                FailureReason::NodeCrash => 5,
            },
        );
        h = fold(h, f.at.as_nanos());
    }
    (h, done.len(), failed.len())
}

/// GoogleNet with its inception branches on four virtual streams — the
/// `examples/intra_job_parallelism.rs` graph.
fn googlenet_4_streams() -> paella_compiler::CompiledModel {
    paella_compiler::compile_parallel(
        "googlenet-par4",
        &paella_models::zoo::googlenet(),
        &paella_compiler::CostModel::default(),
        1.0,
        4,
    )
}

/// Pins the virtual-time behaviour of the shipped dispatch path: any change
/// to which op activates when, what the scheduler is told, or how failures
/// unwind moves at least one of these digests. Refactors of the dispatcher
/// must leave the constants alone; a change that means to move virtual time
/// re-records them and says so.
#[test]
fn default_path_golden_digests() {
    use paella_core::DispatcherConfig;
    let paella = paella_dispatcher;

    // 1. The bursty Table 2 zoo mix under the full system.
    let mut zoo = ModelZoo::new(device());
    let table2 = zoo.table2();
    let mut sys = paella(DispatcherConfig::paella(), 5);
    let ids: Vec<_> = table2.iter().map(|m| sys.register_model(m)).collect();
    let arrivals = generate(&WorkloadSpec::bursty(150.0, 200), &Mix::uniform(&ids));
    let zoo_mix = golden_digest(&mut sys, &arrivals);

    // 2. A 4-stream model under contention: cross-stream joins, pipelined
    // release on placement, several jobs ready at once.
    let mut sys = paella(DispatcherConfig::paella(), 21);
    let par = sys.register_model(&googlenet_4_streams());
    let arrivals = generate(&WorkloadSpec::bursty(900.0, 96), &Mix::single(par));
    let multi_stream = golden_digest(&mut sys, &arrivals);

    // 3. Job granularity: whole jobs pushed to the device, scheduled models
    // run as one sequential stream.
    let mut sys = make_system(SystemKey::PaellaMsJbj, device(), 5);
    let ids = [
        sys.register_model(zoo.get("resnet18")),
        sys.register_model(&googlenet_4_streams()),
    ];
    let arrivals = generate(&WorkloadSpec::bursty(300.0, 120), &Mix::uniform(&ids));
    let job_by_job = golden_digest(sys.as_mut(), &arrivals);

    // 4. Kernel faults with retry, and deadlines that cancel mid-flight.
    let mut sys = paella(
        DispatcherConfig {
            kernel_fault_rate: 0.02,
            deadline_factor: Some(25.0),
            ..DispatcherConfig::paella()
        },
        7,
    );
    let ids = [
        sys.register_model(zoo.get("resnet18")),
        sys.register_model(&googlenet_4_streams()),
    ];
    let arrivals = generate(&WorkloadSpec::bursty(600.0, 160), &Mix::uniform(&ids));
    let faults = golden_digest(&mut sys, &arrivals);

    assert_eq!(
        [zoo_mix, multi_stream, job_by_job, faults],
        [
            (0x489b_0324_dd6a_f24d, 200, 0),
            (0x97d9_067e_ca13_a3e7, 96, 0),
            (0xe9f2_7a24_ac08_6e84, 120, 0),
            (0xa656_e901_3788_0bbd, 134, 26),
        ],
        "(digest, completed, failed) of: zoo mix, 4-stream contention, job-by-job, faults + deadlines"
    );
}

/// Pins the virtual-time behaviour of the baselines of Table 3 — among them
/// the front ends that drive a backend through their own event queue: when
/// a front-end event and backend work fall on the same instant, which one
/// steps first; how a completion is translated on the way out. Recorded with
/// each system running its own hand-written event loop; the shared driver
/// must reproduce them.
#[test]
fn front_end_golden_digests() {
    let mut zoo = ModelZoo::new(device());
    let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
    // The bursty two-model mix.
    let two_models = |sys: &mut dyn ServingSystem| {
        let ids: Vec<_> = models.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::bursty(200.0, 120)
        };
        golden_digest(sys, &generate(&spec, &Mix::uniform(&ids)))
    };
    let keyed = [
        SystemKey::Triton,
        SystemKey::Clockwork,
        SystemKey::CudaMs,
        SystemKey::Mps,
    ]
    .map(|key| two_models(make_system(key, device(), 5).as_mut()));

    assert_eq!(
        keyed,
        [
            (0x9feb_f3f9_f25a_d93d, 120, 0),
            (0x5f35_b616_8580_8d13, 120, 0),
            (0xe75c_86e5_06b5_31a7, 120, 0),
            (0x4b57_c731_7cc7_bb74, 120, 0),
        ],
        "(digest, completed, failed) of: Triton, Clockwork, CUDA-MS, MPS"
    );
}

/// Pins the MIG facade: two 20-SM partitions, each behind its own dispatcher,
/// with shedding and deadlines on, so failures as well as completions cross
/// the facade's model-id translation on the way out.
#[test]
fn mig_golden_digest() {
    use paella_cluster::MigServing;
    use paella_core::{DispatcherConfig, Scheduler, SrptDeficitScheduler};
    let mut zoo = ModelZoo::new(device());
    let cfg = DispatcherConfig {
        shed_watermark: Some(8),
        deadline_factor: Some(6.0),
        ..DispatcherConfig::paella()
    };
    let srpt = || -> Box<dyn Scheduler> {
        Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS)))
    };
    let mut sys = MigServing::new(&device(), &[20, 20], cfg, srpt, 7);
    let ids = [
        sys.register_model(zoo.get("resnet18")),
        sys.register_model(zoo.get("googlenet")),
    ];
    let spec = WorkloadSpec {
        clients: 4,
        ..WorkloadSpec::bursty(600.0, 160)
    };
    let mig = golden_digest(&mut sys, &generate(&spec, &Mix::uniform(&ids)));
    assert_eq!(
        mig,
        (0x81bb_0c4a_b4f6_befb, 73, 87),
        "(digest, completed, failed) of MigServing over two 20-SM partitions"
    );
}

/// Pins the dispatcher's stream pool under pressure: a `Pool(4)` that one
/// 4-stream job drains alone, so jobs park as stream waiters, are handed the
/// streams a retiring job returns in waiter order, and some hit their deadline
/// while still parked. The 1-stream model keeps its input resident on the
/// device (no input copy), so a parked job's first op is a kernel: it is ready
/// in the scheduler, and its pick is held for the pool. (A parked job whose
/// first op is a copy waits on that copy, so the pool hold never fires for it.)
#[test]
fn stream_pool_golden_digest() {
    use paella_core::{DispatcherConfig, StreamPolicy};
    use paella_telemetry::{HoldReason, TraceEvent};
    let mut zoo = ModelZoo::new(device());
    let mut resident_input = zoo.get("resnet18").clone();
    resident_input.ops.remove(0);
    let mut sys = paella_dispatcher(
        DispatcherConfig {
            streams: StreamPolicy::Pool(4),
            deadline_factor: Some(8.0),
            ..DispatcherConfig::paella()
        },
        17,
    );
    sys.enable_telemetry();
    let ids = [
        sys.register_model(&googlenet_4_streams()),
        sys.register_model(&resident_input),
    ];
    let spec = WorkloadSpec {
        clients: 4,
        ..WorkloadSpec::bursty(200.0, 120)
    };
    let pool = golden_digest(&mut sys, &generate(&spec, &Mix::uniform(&ids)));

    let log = sys.take_trace_log().expect("telemetry is on");
    let (mut pool_held, mut dispatched, mut cancelled) = (Vec::new(), Vec::new(), Vec::new());
    for e in &log.events {
        match e.event {
            TraceEvent::OccupancyHold {
                job,
                reason: HoldReason::StreamPool,
            } => pool_held.push(job),
            TraceEvent::KernelDispatched { job, .. } => dispatched.push(job),
            TraceEvent::JobCancelled { job, .. } => cancelled.push(job),
            _ => {}
        }
    }
    // Held for the pool and cancelled before its first kernel left.
    let cancelled_parked = cancelled
        .iter()
        .filter(|j| pool_held.contains(j) && !dispatched.contains(j))
        .count();
    assert!(!pool_held.is_empty(), "no job was held for the pool");
    assert!(cancelled_parked > 0, "no job was cancelled while parked");
    assert_eq!(
        pool,
        (0x1ccf_dd24_d274_47bc, 100, 20),
        "(digest, completed, failed) under Pool(4) with deadlines"
    );
}

// -- notification-path golden -------------------------------------------------

/// Digest of a whole trace log: every event's instant, sequence number and
/// `Debug` rendering, in log order.
fn trace_digest(log: &paella_telemetry::TraceLog) -> (u64, usize) {
    let digest = log.numbered().fold(0xcbf2_9ce4_8422_2325, |h, (seq, e)| {
        let h = fold(fold(h, e.at.as_nanos()), seq);
        format!("{:?}", e.event)
            .bytes()
            .fold(h, |h, b| fold(h, u64::from(b)))
    });
    (digest, log.len())
}

/// Pins the dispatcher's notification path with telemetry on — the instant
/// and order of every `HostOp` / `NotifBatch` pair, the `DoorbellWake` of a
/// pinned-output job and the events of a pipelined release between the words
/// they follow — on a device that loses words, where the mirror clamps, the
/// notifQ reservation is only partly consumed and a kernel may never be seen
/// fully placed. Recorded with one word handled, and one event pair written,
/// at a time; handling a wave's words as one run, and recording each charged
/// stretch of them as one event, must reproduce both the completions and —
/// expanded — the log.
#[test]
fn notification_path_golden_digests() {
    use paella_core::DispatcherConfig;
    let mut zoo = ModelZoo::new(device());
    // Pinned output (the last op is a kernel) with many-word waves, so the
    // wake-up lands between the first and second word of a run.
    let mut pinned =
        synthetic::tiny_model_pinned(SimDuration::from_micros(80), SimDuration::from_micros(20));
    for op in &mut pinned.ops {
        if let paella_compiler::DeviceOp::Kernel(k) = op {
            k.grid_blocks = 300;
        }
    }
    let models = [zoo.get("resnet18").clone(), googlenet_4_streams(), pinned];
    let run = |drop_rate: f64, cfg: DispatcherConfig| {
        let lossy = DeviceConfig {
            notif_drop_rate: drop_rate,
            ..device()
        };
        let mut sys = paella_core::Dispatcher::new(
            lossy,
            ChannelConfig::default(),
            Box::new(paella_core::SrptDeficitScheduler::new(Some(
                SystemKey::DEFAULT_FAIRNESS,
            ))),
            cfg,
            11,
        );
        sys.enable_telemetry();
        let ids: Vec<_> = models.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            clients: 5,
            ..WorkloadSpec::bursty(900.0, 20)
        };
        let completions = golden_digest(&mut sys, &generate(&spec, &Mix::uniform(&ids)));
        let log = sys.take_trace_log().expect("telemetry is on");
        let notifs = sys
            .metrics_snapshot()
            .expect("telemetry is on")
            .counter("notifs_processed");
        (completions, trace_digest(&log.expanded()), notifs)
    };
    let two_shards = DispatcherConfig {
        dispatcher_cores: 2,
        ..DispatcherConfig::paella()
    };
    assert_eq!(
        [
            run(0.03, two_shards),
            run(0.03, DispatcherConfig::paella()),
            run(0.0, DispatcherConfig::paella()),
        ],
        [
            (
                (0x1f0e_cfe1_91b6_4dad, 20, 0),
                (0x58b5_3da6_cd55_8b57, 529_650),
                169_803
            ),
            (
                (0x28a6_1b9e_7800_4241, 20, 0),
                (0xc088_89d9_2756_cf9f, 514_401),
                164_836
            ),
            (
                (0x7e26_168c_f814_0b94, 20, 0),
                (0x7c90_ceaf_a193_ec80, 536_938),
                173_912
            ),
        ],
        "((digest, completed, failed), (trace digest, events), words handled) of: 3 % loss on \
         two shards, 3 % loss on the default config, the default config"
    );
}

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h: u64, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Pins the trace of a system whose taken log is built from other taken
/// logs: a 2-node cluster (the router's log, then each node's host + device
/// log) and a 2-partition MIG facade (each partition's host + device log),
/// each under a small fixed-seed burst with telemetry on. Both the word-level
/// view and the Chrome export are pinned, so how the sources are put
/// together may change only if neither moves.
#[test]
fn nested_trace_golden_digests() {
    use paella_cluster::{Cluster, ClusterConfig, MigServing, RoutingPolicy};
    use paella_core::{DispatcherConfig, Scheduler, SrptDeficitScheduler};
    let mut zoo = ModelZoo::new(device());
    let models = [zoo.get("resnet18").clone(), googlenet_4_streams()];
    let run = |sys: &mut dyn ServingSystem| {
        sys.enable_telemetry();
        let ids: Vec<_> = models.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::bursty(800.0, 24)
        };
        golden_digest(sys, &generate(&spec, &Mix::uniform(&ids)));
        let log = sys.take_trace_log().expect("telemetry is on");
        let chrome = paella_telemetry::chrome_trace_json(&log);
        (trace_digest(&log.expanded()), fnv(chrome.as_bytes()))
    };
    let cluster = run(&mut Cluster::new(
        device(),
        2,
        ClusterConfig {
            seed: 17,
            ..ClusterConfig::with_policy(RoutingPolicy::LeastRemainingWork)
        },
    ));
    let srpt = || -> Box<dyn Scheduler> {
        Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS)))
    };
    let cfg = DispatcherConfig::paella();
    let mig = run(&mut MigServing::new(&device(), &[20, 20], cfg, srpt, 17));
    assert_eq!(
        [cluster, mig],
        [
            ((0x503e_9e3f_ccde_75b8, 814_143), 0x691d_2915_bc0e_4c34),
            ((0xcdd1_743f_f325_2977, 1_199_294), 0x3c63_fded_f52c_0e9c),
        ],
        "((word-level digest, events), Chrome JSON FNV) of: a 2-node cluster, \
         MigServing over two 20-SM partitions"
    );
}

// -- engine-output golden ---------------------------------------------------

#[path = "common/contended.rs"]
mod contended;

/// Digest of a bare device's whole host-visible output stream — every
/// notification word, kernel completion and copy completion with its
/// timestamp, in emission order — under [`contended::run`].
fn engine_output_digest(cfg: DeviceConfig) -> (u64, usize) {
    use paella_gpu::{GpuOutput, GpuSim};
    let out = contended::run(&mut GpuSim::new(cfg, 0x5eed));
    let completed = out
        .iter()
        .filter(|o| matches!(o, GpuOutput::KernelCompleted { .. }))
        .count();
    assert_eq!(completed, contended::KERNELS as usize);
    let digest = out.iter().fold(0xcbf2_9ce4_8422_2325, |h, o| {
        let (tag, what, at) = match *o {
            GpuOutput::Notif { n, at } => (1, n.encode(), at),
            GpuOutput::KernelCompleted { uid, at } => (2, u64::from(uid), at),
            GpuOutput::MemcpyCompleted { uid, at } => (3, uid.0, at),
        };
        fold(fold(fold(h, tag), what), at.as_nanos())
    });
    (digest, out.len())
}

/// Pins what the block scheduler places where and when on a saturated
/// device: which queue and SM each round-robin cursor points at on every
/// pass, the order of RNG draws (one duration per wave, one `chance` per word
/// under `notif_drop_rate`), and the order of outputs. The constants were
/// recorded before `SmPool` existed; a change to the placement arithmetic
/// must leave them alone.
#[test]
fn engine_output_golden_digests() {
    use paella_gpu::Microarch;
    let lossy = DeviceConfig {
        notif_drop_rate: 0.03,
        ..DeviceConfig::tesla_t4()
    };
    assert_eq!(
        [
            engine_output_digest(DeviceConfig::tesla_t4()),
            engine_output_digest(DeviceConfig::tiny(8, 1, Microarch::Fermi)),
            engine_output_digest(lossy),
        ],
        [
            (0x8dfd_e5c8_625a_cde7, 392_144),
            (0xb8e9_2fb2_f43b_2e99, 305_980),
            (0xc52e_5e1c_134a_8f90, 380_926),
        ],
        "(digest, outputs) on: tesla_t4, tiny(8 SMs, 1 queue, Fermi), tesla_t4 dropping 3 % of words"
    );
}
