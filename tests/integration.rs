//! Cross-crate integration tests: the full pipeline from graph IR through
//! compilation, calibration, serving, and metrics, for every system in
//! Table 3.

use paella_channels::ChannelConfig;
use paella_core::ServingSystem;
use paella_gpu::DeviceConfig;
use paella_models::{measure_uncontended, registry, synthetic, ModelZoo};
use paella_sim::SimDuration;
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

fn device() -> DeviceConfig {
    DeviceConfig::tesla_t4()
}

#[test]
fn every_table2_model_calibrates_within_two_percent() {
    let mut zoo = ModelZoo::new(device());
    for e in registry().into_iter().filter(|e| e.in_table2) {
        let m = zoo.get(e.name).clone();
        let measured = measure_uncontended(&m, &device());
        let err = (measured.as_nanos() as f64 - e.target_exec.as_nanos() as f64).abs()
            / e.target_exec.as_nanos() as f64;
        assert!(
            err < 0.02,
            "{}: measured {measured} vs Table 2 {}",
            e.name,
            e.target_exec
        );
    }
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

/// Triton with its dynamic batcher on (the `BatchTimeout` path).
fn triton_batch4(seed: u64) -> Box<dyn ServingSystem> {
    let cfg = paella_baselines::TritonConfig {
        max_batch: 4,
        ..Default::default()
    };
    Box::new(paella_baselines::Triton::new(
        device(),
        ChannelConfig::default(),
        cfg,
        seed,
    ))
}

#[test]
fn no_system_loses_or_duplicates_jobs() {
    use paella_core::{BatchPolicy, DispatcherConfig, RemoteGateway, RpcNetModel};
    let mut zoo = ModelZoo::new(device());
    let r18 = zoo.get("resnet18").clone();
    // `(name, system, shares job ids)`: a batching system reports one inner
    // job per batch, so its members share that job's id.
    let mut systems: Vec<(String, Box<dyn ServingSystem>, bool)> = SystemKey::ALL
        .iter()
        .map(|&key| {
            let sys = make_system(key, device(), ChannelConfig::default(), 5);
            (key.key().to_string(), sys, false)
        })
        .collect();
    let inner = || paella_dispatcher(DispatcherConfig::paella(), 5);
    systems.push(("Triton b4".into(), triton_batch4(5), true));
    systems.push((
        "remote".into(),
        Box::new(RemoteGateway::new(inner(), RpcNetModel::default())),
        false,
    ));
    systems.push((
        "batched".into(),
        Box::new(paella_core::SaturationBatcher::new(
            inner(),
            BatchPolicy::default(),
        )),
        true,
    ));
    for (name, mut sys, shares_job_ids) in systems {
        let id = sys.register_model(&r18);
        let spec = WorkloadSpec {
            clients: 4,
            ..WorkloadSpec::bursty(300.0, 120)
        };
        let arrivals = generate(&spec, &Mix::single(id));
        let stats = run_trace(sys.as_mut(), &arrivals, 0);
        assert_eq!(stats.completions.len(), 120, "{name}");
        // Each request comes back exactly once, and (where jobs are not
        // shared) so does each job id.
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
        if !shares_job_ids {
            let mut jobs: Vec<u64> = stats.completions.iter().map(|c| c.job.0).collect();
            jobs.sort_unstable();
            jobs.dedup();
            assert_eq!(jobs.len(), 120, "{name} duplicated completions");
        }
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
    use paella_core::{
        BatchPolicy, ClientId, DispatcherConfig, InferenceRequest, MigServing, ModelId,
        RemoteGateway, RpcNetModel, SaturationBatcher, SrptDeficitScheduler,
    };
    use paella_sim::SimTime;
    let model = synthetic::uniform_job("w", 4, SimDuration::from_micros(150), 64);
    let srpt = || -> Box<dyn paella_core::Scheduler> {
        Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS)))
    };
    let mig = |cfg| MigServing::new(&device(), &[20, 20], ChannelConfig::default(), cfg, srpt, 7);
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
    let eager = BatchPolicy {
        saturation_threshold: 2,
        max_batch: 4,
        ..BatchPolicy::default()
    };
    let mut wrappers: [(&str, &mut dyn ServingSystem, usize); 3] = [
        ("mig", &mut mig(tight), 2),
        (
            "remote",
            &mut RemoteGateway::new(paella_dispatcher(tight, 5), RpcNetModel::default()),
            1,
        ),
        (
            "batched",
            &mut SaturationBatcher::new(paella_dispatcher(tight, 5), eager),
            1,
        ),
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
        if *name == "batched" {
            // A failed submission frees its slot in the batcher's window of
            // four: that many used to park the saturated path for good, with
            // the rest of the burst still queued behind it.
            assert!(failed.len() > 4, "{} failed", failed.len());
        }
    }

    // 2. Load, traces, metrics and post-mortems reach the caller through
    // every front end.
    let roomy = DispatcherConfig::paella();
    let baseline = |key| make_system(key, device(), ChannelConfig::default(), 5);
    let systems: [(&str, Box<dyn ServingSystem>); 6] = [
        ("mig", Box::new(mig(roomy))),
        (
            "remote",
            Box::new(RemoteGateway::new(
                paella_dispatcher(roomy, 5),
                RpcNetModel::default(),
            )),
        ),
        (
            "batched",
            Box::new(SaturationBatcher::new(paella_dispatcher(roomy, 5), eager)),
        ),
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
        let mut sys = make_system(SystemKey::Paella, device(), ChannelConfig::default(), 99);
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
fn paella_dominates_triton_on_tail_latency_under_load() {
    // The headline comparison at a load Triton cannot sustain.
    let mut zoo = ModelZoo::new(device());
    let table2 = zoo.table2();
    let mut results = Vec::new();
    for key in [SystemKey::Triton, SystemKey::Paella] {
        let mut sys = make_system(key, device(), ChannelConfig::default(), 5);
        let ids: Vec<_> = table2.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            clients: 8,
            ..WorkloadSpec::bursty(150.0, 300)
        };
        let arrivals = generate(&spec, &Mix::uniform(&ids));
        let mut stats = run_trace(sys.as_mut(), &arrivals, 30);
        results.push((key, stats.throughput, stats.p99_us()));
    }
    let (_, triton_tput, triton_p99) = results[0];
    let (_, paella_tput, paella_p99) = results[1];
    assert!(
        paella_tput > triton_tput,
        "Paella throughput {paella_tput} must exceed Triton {triton_tput}"
    );
    assert!(
        paella_p99 < triton_p99,
        "Paella p99 {paella_p99} must beat Triton {triton_p99}"
    );
}

#[test]
fn srpt_scheduling_protects_short_jobs() {
    // Fig. 12's phenomenon end to end: ResNet-18 tail latency under a mixed
    // load improves by multiples under Paella vs CUDA-MS.
    let mut zoo = ModelZoo::new(device());
    let short = zoo.get("resnet18").clone();
    let long = zoo.get("inceptionv3").clone();
    let mut p99 = Vec::new();
    for key in [SystemKey::CudaMs, SystemKey::Paella] {
        let mut sys = make_system(key, device(), ChannelConfig::default(), 5);
        let s = sys.register_model(&short);
        let l = sys.register_model(&long);
        let spec = WorkloadSpec {
            clients: 8,
            ..WorkloadSpec::steady(200.0, 400)
        };
        let arrivals = generate(&spec, &Mix::weighted(vec![(s, 19.7), (l, 1.0)]));
        let mut stats = run_trace(sys.as_mut(), &arrivals, 40);
        p99.push(stats.model_p99_us(s).expect("short jobs completed"));
    }
    assert!(
        p99[1] * 3.0 < p99[0],
        "short-job p99 must improve ≥3x: CUDA-MS {} vs Paella {}",
        p99[0],
        p99[1]
    );
}

#[test]
fn instrumentation_tracks_ground_truth_occupancy() {
    // The dispatcher's mirror drains exactly when the device does.
    let mut sys = make_system(SystemKey::Paella, device(), ChannelConfig::default(), 5);
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
    let mut sys = make_system(SystemKey::Paella, device(), ChannelConfig::default(), 5);
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

#[test]
fn trends_hold_on_tesla_p100() {
    // §7 Methodology: "We also evaluated our system on a Tesla P100 but
    // omitted those results as the trends were identical." Check the two
    // headline trends on the Pascal part: Paella beats job-by-job submission
    // on the HoL workload, and SRPT protects short jobs.
    let p100 = DeviceConfig::tesla_p100();

    let makespan = |key: SystemKey| {
        let mut sys = make_system(key, p100.clone(), ChannelConfig::default(), 11);
        let id = sys.register_model(&synthetic::fig2_job());
        for j in 0..256u32 {
            sys.submit(paella_core::InferenceRequest {
                client: paella_core::ClientId(j % 8),
                model: id,
                submitted_at: paella_sim::SimTime::ZERO,
            });
        }
        sys.run_to_idle();
        let done = sys.drain_completions();
        assert_eq!(done.len(), 256);
        done.iter().map(|c| c.client_visible_at).max().unwrap()
    };
    let jbj = makespan(SystemKey::PaellaMsJbj);
    let paella = makespan(SystemKey::Paella);
    assert!(
        paella < jbj,
        "P100: Paella {paella} must beat job-by-job {jbj} on the HoL workload"
    );

    let mut zoo = ModelZoo::new(p100.clone());
    let short = zoo.get("resnet18").clone();
    let long = zoo.get("inceptionv3").clone();
    let mut p99 = Vec::new();
    for key in [SystemKey::CudaMs, SystemKey::Paella] {
        let mut sys = make_system(key, p100.clone(), ChannelConfig::default(), 11);
        let s = sys.register_model(&short);
        let l = sys.register_model(&long);
        let spec = WorkloadSpec {
            clients: 8,
            ..WorkloadSpec::steady(200.0, 300)
        };
        let arrivals = generate(&spec, &Mix::weighted(vec![(s, 19.7), (l, 1.0)]));
        let mut stats = run_trace(sys.as_mut(), &arrivals, 30);
        p99.push(stats.model_p99_us(s).expect("short jobs completed"));
    }
    assert!(
        p99[1] < p99[0],
        "P100: SRPT must still protect short jobs ({} vs {})",
        p99[0],
        p99[1]
    );
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
    let cfg = DispatcherConfig::paella();
    assert!(cfg.release_on_placement);
    let mut sys = paella(cfg, 21);
    let par = sys.register_model(&googlenet_4_streams());
    let arrivals = generate(&WorkloadSpec::bursty(900.0, 96), &Mix::single(par));
    let multi_stream = golden_digest(&mut sys, &arrivals);

    // 3. Job granularity: whole jobs pushed to the device, scheduled models
    // run as one sequential stream.
    let mut sys = make_system(
        SystemKey::PaellaMsJbj,
        device(),
        ChannelConfig::default(),
        5,
    );
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

/// Pins the virtual-time behaviour of every front end that drives an inner
/// system through its own event queue — the baselines of Table 3 and the §8
/// wrappers: when a front-end event and inner work fall on the same instant,
/// which one steps first; when a batch window closes; how a completion is
/// translated on the way out. Recorded with each system running its own
/// hand-written event loop; the shared driver must reproduce them.
#[test]
fn front_end_golden_digests() {
    use paella_core::{BatchPolicy, DispatcherConfig, RemoteGateway, RpcNetModel};
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
    .map(|key| two_models(make_system(key, device(), ChannelConfig::default(), 5).as_mut()));
    let triton_b4 = two_models(triton_batch4(5).as_mut());
    let remote = two_models(&mut RemoteGateway::new(
        paella_dispatcher(DispatcherConfig::paella(), 5),
        RpcNetModel::default(),
    ));

    // A burst far beyond one device's capacity, so the saturation detector
    // engages and batches of every size up to the cap are in flight at once.
    let mut sys = paella_core::SaturationBatcher::new(
        paella_dispatcher(DispatcherConfig::paella(), 13),
        BatchPolicy::default(),
    );
    let id = sys.register_model(&models[0]);
    let spec = WorkloadSpec {
        clients: 4,
        ..WorkloadSpec::bursty(4_000.0, 96)
    };
    let batched = golden_digest(&mut sys, &generate(&spec, &Mix::single(id)));

    assert_eq!(
        [keyed[0], keyed[1], keyed[2], keyed[3], triton_b4, remote, batched],
        [
            (0x9feb_f3f9_f25a_d93d, 120, 0),
            (0x5f35_b616_8580_8d13, 120, 0),
            (0xe75c_86e5_06b5_31a7, 120, 0),
            (0x4b57_c731_7cc7_bb74, 120, 0),
            (0x1cfe_ed9a_753f_6410, 120, 0),
            (0xfcf4_fb93_cdfb_0ccf, 120, 0),
            (0xa4a8_55fa_4084_a432, 96, 0),
        ],
        "(digest, completed, failed) of: Triton, Clockwork, CUDA-MS, MPS, Triton max_batch 4, \
         RemoteGateway<Dispatcher>, SaturationBatcher<Dispatcher> under a saturating burst"
    );
}

// -- notification-path golden -------------------------------------------------

/// Digest of a whole trace log: every event's instant, sequence number and
/// `Debug` rendering, in log order.
fn trace_digest(log: &paella_telemetry::TraceLog) -> (u64, usize) {
    let digest = log.events.iter().fold(0xcbf2_9ce4_8422_2325, |h, e| {
        let h = fold(fold(h, e.at.as_nanos()), e.seq);
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
        release_on_placement: false,
        online_profiling: false,
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
                (0x5844_06dc_901b_9f13, 20, 0),
                (0x9943_256f_c150_0b32, 535_563),
                171_708
            ),
            (
                (0x28a6_1b9e_7800_4241, 20, 0),
                (0xf017_fa42_35d8_0e6c, 514_421),
                164_836
            ),
            (
                (0x7e26_168c_f814_0b94, 20, 0),
                (0x160b_bfee_697e_60d9, 536_958),
                173_912
            ),
        ],
        "((digest, completed, failed), (trace digest, events), words handled) of: 3 % loss on \
         two shards without pipelined release or online profiling, 3 % loss on the default \
         config, the default config"
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

/// Runs the `paella-check` source rules (R1–R9) over this workspace, so the
/// tier-1 `cargo test -q` enforces them and not only the CI `check` job.
#[test]
fn workspace_passes_the_source_rules() {
    let findings = paella_check::analyze(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace walk");
    assert!(findings.ok(), "{findings}");
}
