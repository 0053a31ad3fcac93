//! End-to-end tests of the dispatcher over the simulated GPU.

use paella_channels::ChannelConfig;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, FailureReason, FifoScheduler, InferenceRequest,
    JobCompletion, ModelId, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};

fn paella(device: DeviceConfig) -> Dispatcher {
    Dispatcher::new(
        device,
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        42,
    )
}

fn submit_n(
    d: &mut Dispatcher,
    model: ModelId,
    n: usize,
    gap: SimDuration,
    client: u32,
) -> Vec<SimTime> {
    let mut at = SimTime::ZERO;
    let mut times = Vec::new();
    for _ in 0..n {
        d.submit(InferenceRequest {
            client: ClientId(client),
            model,
            submitted_at: at,
        });
        times.push(at);
        at += gap;
    }
    times
}

fn run(d: &mut Dispatcher) -> Vec<JobCompletion> {
    d.run_to_idle();
    let mut c = d.drain_completions();
    c.sort_by_key(|x| x.client_visible_at);
    c
}

#[test]
fn single_request_completes_with_small_overhead() {
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 1, SimDuration::ZERO, 0);
    let done = run(&mut d);
    assert_eq!(done.len(), 1);
    let c = &done[0];
    // 8 dependent kernels × ~300 µs ≈ 2.4 ms device time.
    assert!(
        c.breakdown.device >= SimDuration::from_micros(2_200),
        "device {}",
        c.breakdown.device
    );
    // Overhead must stay far below the device time (the paper's whole point).
    assert!(
        c.breakdown.overhead() < SimDuration::from_micros(300),
        "overhead {} too high",
        c.breakdown.overhead()
    );
    assert!(c.jct() >= c.breakdown.device);
    assert!(c.almost_finished_at.is_some(), "hybrid wakeup must fire");
}

#[test]
fn deterministic_given_seed() {
    let jct = |seed: u64| {
        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            seed,
        );
        let model = d.register_model(&synthetic::fig2_job());
        submit_n(&mut d, model, 20, SimDuration::from_micros(100), 0);
        run(&mut d)
            .iter()
            .map(|c| c.jct().as_nanos())
            .collect::<Vec<_>>()
    };
    assert_eq!(jct(7), jct(7), "same seed, same timeline");
}

#[test]
fn all_jobs_complete_under_burst() {
    let mut d = paella(DeviceConfig::gtx_1660_super());
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 64, SimDuration::ZERO, 0);
    let done = run(&mut d);
    assert_eq!(done.len(), 64, "no job may be lost");
    assert_eq!(d.inflight(), 0);
}

#[test]
fn paella_beats_job_by_job_on_hol_workload() {
    // The Fig. 2 situation: 64 single-block-kernel chains flood the 32
    // hardware queues under job-by-job submission; Paella's occupancy-aware
    // dispatch interleaves instead.
    let makespan = |cfg: DispatcherConfig| {
        let mut d = Dispatcher::new(
            DeviceConfig::gtx_1660_super(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(500.0))),
            cfg,
            1,
        );
        let model = d.register_model(&synthetic::fig2_job());
        submit_n(&mut d, model, 128, SimDuration::ZERO, 0);
        let done = run(&mut d);
        assert_eq!(done.len(), 128);
        done.iter().map(|c| c.client_visible_at).max().unwrap()
    };
    let jbj = makespan(DispatcherConfig::paella_ms_jbj());
    let paella = makespan(DispatcherConfig::paella());
    // 128 jobs × 8 kernels × 1 block: capacity is 176 concurrent blocks but
    // job-by-job can only keep ≤32 queues busy → Paella is far faster.
    assert!(
        paella.as_nanos() * 3 < jbj.as_nanos() * 2,
        "paella {paella} vs jbj {jbj}: expected ≥1.5× makespan win"
    );
}

#[test]
fn srpt_prioritizes_short_jobs_under_contention() {
    let mut d = paella(DeviceConfig::tesla_t4());
    let long = d.register_model(&synthetic::uniform_job(
        "long",
        40,
        SimDuration::from_micros(200),
        64,
    ));
    let short = d.register_model(&synthetic::uniform_job(
        "short",
        8,
        SimDuration::from_micros(200),
        64,
    ));
    // Saturate with long jobs, then one short job arrives.
    for i in 0..12 {
        d.submit(InferenceRequest {
            client: ClientId(0),
            model: long,
            submitted_at: SimTime::from_micros(i),
        });
    }
    d.submit(InferenceRequest {
        client: ClientId(1),
        model: short,
        submitted_at: SimTime::from_micros(50),
    });
    let done = run(&mut d);
    let short_done = done.iter().find(|c| c.request.model == short).unwrap();
    let longs_done: Vec<&JobCompletion> = done.iter().filter(|c| c.request.model == long).collect();
    let longs_after = longs_done
        .iter()
        .filter(|c| c.client_visible_at > short_done.client_visible_at)
        .count();
    assert!(
        longs_after >= 8,
        "short job should finish before most longs ({longs_after} after)"
    );
}

#[test]
fn fifo_ablation_completes_in_order() {
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(FifoScheduler::new()),
        DispatcherConfig::paella_ss(),
        3,
    );
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 10, SimDuration::from_micros(10), 0);
    let done = run(&mut d);
    assert_eq!(done.len(), 10);
    let ids: Vec<u64> = done.iter().map(|c| c.job.0).collect();
    let mut sorted = ids.clone();
    sorted.sort_unstable();
    assert_eq!(ids, sorted, "single-stream FIFO completes in order");
}

#[test]
fn injected_delay_reduces_throughput() {
    let throughput = |delay_us: u64| {
        let mut cfg = DispatcherConfig::paella();
        cfg.injected_delay = SimDuration::from_micros(delay_us);
        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            5,
        );
        let model = d.register_model(&synthetic::tiny_model(SimDuration::from_micros(5)));
        submit_n(&mut d, model, 500, SimDuration::ZERO, 0);
        let done = run(&mut d);
        let last = done.iter().map(|c| c.client_visible_at).max().unwrap();
        500.0 / last.as_secs_f64()
    };
    let fast = throughput(0);
    let slow = throughput(100);
    assert!(
        fast > slow * 3.0,
        "100 µs scheduling delay must crush throughput: {fast} vs {slow}"
    );
}

#[test]
fn breakdown_components_sum_to_total() {
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 5, SimDuration::from_millis(5), 0);
    for c in run(&mut d) {
        let total = c.jct();
        let sum = c.breakdown.total();
        assert_eq!(sum, total, "breakdown must be exhaustive");
    }
}

#[test]
fn online_profiling_converges_toward_observed_runtime() {
    // Under contention, kernels take longer than the bootstrap profile
    // assumes; the online refinement must pull the estimate upward.
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::uniform_job(
        "probe",
        6,
        SimDuration::from_micros(200),
        320, // a full device fill per kernel: concurrent jobs queue waves
    ));
    let before = d.profile_estimate(model);
    for i in 0..40 {
        d.submit(InferenceRequest {
            client: ClientId(i % 4),
            model,
            submitted_at: SimTime::from_micros(i as u64 * 20),
        });
    }
    let done = run(&mut d);
    assert_eq!(done.len(), 40);
    let after = d.profile_estimate(model);
    assert!(
        after > before,
        "contended runs must raise the estimate: {before} -> {after}"
    );
}

#[test]
fn online_profiling_can_be_disabled() {
    let mut cfg = DispatcherConfig::paella();
    cfg.online_profiling = false;
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        42,
    );
    let model = d.register_model(&synthetic::uniform_job(
        "probe",
        6,
        SimDuration::from_micros(200),
        320,
    ));
    let before = d.profile_estimate(model);
    for i in 0..20 {
        d.submit(InferenceRequest {
            client: ClientId(0),
            model,
            submitted_at: SimTime::from_micros(i as u64 * 20),
        });
    }
    run(&mut d);
    assert_eq!(
        d.profile_estimate(model),
        before,
        "no refinement when disabled"
    );
}

#[test]
fn notifq_flow_control_throttles_but_loses_nothing() {
    // A tiny notifQ forces the dispatcher to hold kernels back; everything
    // must still complete, just later than with a large ring.
    let makespan = |cap: u64| {
        let mut cfg = DispatcherConfig::paella();
        cfg.notifq_capacity = cap;
        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            42,
        );
        let model = d.register_model(&synthetic::uniform_job(
            "fc",
            4,
            SimDuration::from_micros(100),
            64,
        ));
        for i in 0..32 {
            d.submit(InferenceRequest {
                client: ClientId(i % 4),
                model,
                submitted_at: SimTime::ZERO,
            });
        }
        let done = run(&mut d);
        assert_eq!(done.len(), 32, "flow control must not lose jobs");
        done.iter().map(|c| c.client_visible_at).max().unwrap()
    };
    let large = makespan(65_536);
    let tiny = makespan(256); // two 64-block kernels' worth of reservations
    assert!(
        tiny >= large,
        "a starved notifQ cannot be faster: {tiny} vs {large}"
    );
}

#[test]
fn parallel_schedule_speeds_up_branchy_models() {
    // An inception-style model with four independent branches: the
    // multi-stream schedule must beat the sequential lowering on an idle
    // device, and both must complete correctly.
    use paella_compiler::{compile, compile_parallel, CostModel, Graph, Op, Shape};

    // Two branches sized so both fit on the device simultaneously
    // (~100 blocks each vs the ~200-block shmem-limited capacity):
    // parallel streams let them co-reside instead of running back to back.
    let mut g = Graph::new();
    let x = g.input(Shape::chw(256, 14, 14));
    let mut branches = Vec::new();
    for k in [3u32, 3] {
        let c = g
            .add(
                Op::Conv2d {
                    out_channels: 65,
                    kernel: k,
                    stride: 1,
                    pad: k / 2,
                },
                &[x],
            )
            .unwrap();
        branches.push(c);
    }
    g.add(Op::Concat, &branches).unwrap();

    let run = |model: &paella_compiler::CompiledModel| {
        let mut d = paella(DeviceConfig::tesla_t4());
        let id = d.register_model(model);
        d.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        let done = run(&mut d);
        assert_eq!(done.len(), 1);
        done[0].jct()
    };
    let cm = CostModel::default();
    let seq = run(&compile("seq", &g, &cm, 1.0));
    let par = run(&compile_parallel("par", &g, &cm, 1.0, 4));
    assert!(
        par.as_nanos() * 5 < seq.as_nanos() * 4,
        "co-resident branches should cut JCT ≥20%: seq {seq} vs par {par}"
    );
}

#[test]
fn sharding_the_dispatcher_raises_saturation_throughput() {
    // §4.2: "it can be parallelized by sharding jobs across threads."
    // On a CPU-bound workload (tiny jobs, huge offered load), two shards
    // should lift throughput well above one.
    let throughput = |cores: u32| {
        let mut cfg = DispatcherConfig::paella();
        cfg.dispatcher_cores = cores;
        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            42,
        );
        let model = d.register_model(&synthetic::tiny_model(SimDuration::from_micros(5)));
        for i in 0..1_000u32 {
            d.submit(InferenceRequest {
                client: ClientId(i % 8),
                model,
                submitted_at: SimTime::ZERO,
            });
        }
        let done = run(&mut d);
        assert_eq!(done.len(), 1_000);
        let last = done.iter().map(|c| c.client_visible_at).max().unwrap();
        1_000.0 / last.as_secs_f64()
    };
    let one = throughput(1);
    let two = throughput(2);
    assert!(
        two > one * 1.5,
        "two dispatcher cores should lift CPU-bound throughput ≥1.5x: {one} vs {two}"
    );
}

#[test]
fn survives_notification_loss() {
    // Fault injection: 25% of notification words never reach the host.
    // Occupancy reconciliation on runtime-observed completions must keep
    // the dispatcher live (no wedge, no lost jobs), at degraded efficiency.
    let mut device = DeviceConfig::tesla_t4();
    device.notif_drop_rate = 0.25;
    let mut d = paella(device);
    let model = d.register_model(&synthetic::uniform_job(
        "lossy",
        6,
        SimDuration::from_micros(150),
        160,
    ));
    for i in 0..200u32 {
        d.submit(InferenceRequest {
            client: ClientId(i % 8),
            model,
            submitted_at: SimTime::from_micros(u64::from(i) * 100),
        });
    }
    let done = run(&mut d);
    assert_eq!(
        done.len(),
        200,
        "no job may be lost under notification loss"
    );
    assert_eq!(d.inflight(), 0);
}

#[test]
fn wakeup_modes_order_client_visibility() {
    // Polling sees results fastest; the hybrid (with the almost-finished
    // interrupt pre-arming the poll) matches it; the socket path pays the
    // syscall wakeup.
    let visible = |mode: paella_core::WakeupMode| {
        let mut cfg = DispatcherConfig::paella();
        cfg.wakeup = mode;
        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            42,
        );
        let model = d.register_model(&synthetic::tiny_model_pinned(
            SimDuration::from_micros(80),
            SimDuration::from_micros(20),
        ));
        d.submit(InferenceRequest {
            client: ClientId(0),
            model,
            submitted_at: SimTime::ZERO,
        });
        let done = run(&mut d);
        done[0].client_visible_at
    };
    let poll = visible(paella_core::WakeupMode::Polling);
    let hybrid = visible(paella_core::WakeupMode::Hybrid);
    let socket = visible(paella_core::WakeupMode::Socket);
    assert_eq!(poll, hybrid, "pre-armed hybrid matches polling latency");
    assert!(socket > poll, "socket wakeup pays the syscall path");
}

#[test]
fn srpt_prefers_partially_completed_jobs() {
    // §6: scheduling "based on remaining job execution time" — a job that
    // has already run most of its kernels outranks an identical fresh job,
    // so under SRPT the first-arrived job of a same-size pair always
    // finishes first (no convoy interleaving at the tail).
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::uniform_job(
        "same",
        12,
        SimDuration::from_micros(400),
        320, // device-filling kernels: jobs contend for every slot
    ));
    for i in 0..6u64 {
        d.submit(InferenceRequest {
            client: ClientId(0),
            model,
            submitted_at: SimTime::from_micros(i * 50),
        });
    }
    let done = run(&mut d);
    assert_eq!(done.len(), 6);
    let order: Vec<u64> = done.iter().map(|c| c.job.0).collect();
    let mut sorted = order.clone();
    sorted.sort_unstable();
    assert_eq!(
        order, sorted,
        "same-size jobs complete in arrival order under SRPT (remaining time \
         strictly decreases as kernels finish)"
    );
}

#[test]
fn copy_only_job_completes() {
    // Degenerate adaptor: set_input + get_output with no kernels (e.g. an
    // identity model). The release and completion paths must still work.
    use paella_compiler::{CompiledModel, DeviceOp};
    let model = CompiledModel {
        name: "identity".to_string().into(),
        ops: vec![
            DeviceOp::InputCopy { bytes: 1 << 20 },
            DeviceOp::OutputCopy { bytes: 1 << 20 },
        ],
        schedule: None,
        input_bytes: 1 << 20,
        output_bytes: 1 << 20,
        weight_bytes: 0,
        flops: 0,
    };
    let mut d = paella(DeviceConfig::tesla_t4());
    let id = d.register_model(&model);
    d.submit(InferenceRequest {
        client: ClientId(0),
        model: id,
        submitted_at: SimTime::ZERO,
    });
    let done = run(&mut d);
    assert_eq!(done.len(), 1);
    // Two 1 MiB copies at 12 GB/s ≈ 175 µs of device time.
    assert!(
        done[0].jct() >= SimDuration::from_micros(170),
        "jct {}",
        done[0].jct()
    );
    assert!(done[0].almost_finished_at.is_some());
}

// -- failure handling (DESIGN §11) ------------------------------------------

fn paella_with(cfg: DispatcherConfig, seed: u64) -> Dispatcher {
    Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        seed,
    )
}

#[test]
fn deadline_cancels_stragglers_and_reclaims_resources() {
    // A deadline barely above the uncontended runtime: under a heavy burst
    // most jobs can't make it and must be cancelled, not completed late.
    let mut cfg = DispatcherConfig::paella();
    cfg.deadline_factor = Some(1.5);
    cfg.deadline_floor = SimDuration::from_micros(100);
    let mut d = paella_with(cfg, 42);
    let model = d.register_model(&synthetic::uniform_job(
        "dl",
        8,
        SimDuration::from_micros(300),
        320, // device-filling: queued jobs stack up way past 1.5× solo time
    ));
    for i in 0..24u32 {
        d.submit(InferenceRequest {
            client: ClientId(i % 4),
            model,
            submitted_at: SimTime::ZERO,
        });
    }
    d.run_to_idle();
    let done = d.drain_completions();
    let failed = d.drain_failures();
    assert_eq!(done.len() + failed.len(), 24, "every request accounted for");
    assert!(!failed.is_empty(), "burst must blow some deadlines");
    assert!(failed
        .iter()
        .all(|f| f.reason == FailureReason::DeadlineExceeded));
    // Completions that did land honored the deadline budget.
    let budget = d.profile_estimate(model).mul_f64(1.5);
    for c in &done {
        assert!(c.jct() <= budget + SimDuration::from_micros(1));
    }
    assert_eq!(d.inflight(), 0);
    assert_eq!(d.occupancy_tracked_kernels(), 0, "mirror fully reconciled");
    assert_eq!(d.occupancy_resident_blocks(), 0, "no leaked residency");
    let sig = d.load_signal();
    assert_eq!(sig.outstanding(), 0, "load signal drains to zero");
}

#[test]
fn shed_watermark_bounds_admission() {
    let mut cfg = DispatcherConfig::paella();
    cfg.shed_watermark = Some(8);
    let mut d = paella_with(cfg, 42);
    let model = d.register_model(&synthetic::fig2_job());
    // One burst at t=0: everything past the watermark is shed immediately.
    for i in 0..40u32 {
        d.submit(InferenceRequest {
            client: ClientId(i % 4),
            model,
            submitted_at: SimTime::ZERO,
        });
    }
    d.run_to_idle();
    let done = d.drain_completions();
    let failed = d.drain_failures();
    assert_eq!(done.len(), 8, "exactly the watermark's worth admitted");
    assert_eq!(failed.len(), 32);
    assert!(failed.iter().all(|f| f.reason == FailureReason::Shed));
    assert!(
        failed.iter().all(|f| f.at == SimTime::ZERO),
        "shedding is decided at submit time, not queued"
    );
}

#[test]
fn client_disconnect_cancels_in_flight_and_refuses_later() {
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::fig2_job());
    for c in 0..2u32 {
        for _ in 0..4 {
            d.submit(InferenceRequest {
                client: ClientId(c),
                model,
                submitted_at: SimTime::ZERO,
            });
        }
    }
    // Let the work get mid-flight, then client 0 drops.
    d.advance_until(SimTime::from_micros(500));
    d.cancel_client(ClientId(0), SimTime::from_micros(500));
    // A post-disconnect submission is refused outright.
    d.submit(InferenceRequest {
        client: ClientId(0),
        model,
        submitted_at: SimTime::from_micros(600),
    });
    d.run_to_idle();
    let done = d.drain_completions();
    let failed = d.drain_failures();
    assert!(
        done.iter().all(|c| c.request.client == ClientId(1)),
        "no completion for the disconnected client"
    );
    assert_eq!(done.len(), 4, "the surviving client is unaffected");
    assert_eq!(failed.len(), 5);
    assert!(failed
        .iter()
        .all(|f| f.reason == FailureReason::Disconnected && f.request.client == ClientId(0)));
    assert_eq!(d.inflight(), 0);
    assert_eq!(d.occupancy_tracked_kernels(), 0);
}

#[test]
fn every_terminal_request_is_booked_in_the_slo_ledger_once() {
    // The refusal of a disconnected client at `submit` was the one terminal
    // failure that never reached the ledger.
    let mut d = paella(DeviceConfig::tesla_t4());
    d.enable_telemetry();
    let model = d.register_model(&synthetic::fig2_job());
    d.cancel_client(ClientId(3), SimTime::ZERO);
    submit_n(&mut d, model, 1, SimDuration::ZERO, 3);
    let failed = d.drain_failures();
    assert_eq!(failed.len(), 1);
    assert_eq!(failed[0].reason, FailureReason::Disconnected);
    let snap = d.metrics_snapshot().expect("telemetry on");
    assert_eq!(snap.slo_failures(), 1, "the refusal is booked");

    // Every way a request can end, in one run: kernel faults past the retry
    // budget, deadlines, shedding, and a disconnect that catches jobs in
    // flight, requests on the ring, and later submissions.
    let mut d = paella_with(
        DispatcherConfig {
            kernel_fault_rate: 0.15,
            retry_budget: 0,
            deadline_factor: Some(3.0),
            shed_watermark: Some(10),
            ..DispatcherConfig::paella()
        },
        17,
    );
    d.enable_telemetry();
    // Device-filling kernels: ten jobs in flight miss a 3x deadline.
    let model = d.register_model(&synthetic::uniform_job(
        "big",
        4,
        SimDuration::from_micros(300),
        320,
    ));
    for i in 0..48u64 {
        let at = SimTime::from_micros(i * 150);
        d.advance_until(at);
        if i == 20 {
            d.cancel_client(ClientId(2), at);
        }
        d.submit(InferenceRequest {
            client: ClientId((i % 4) as u32),
            model,
            submitted_at: at,
        });
    }
    d.run_to_idle();
    let (done, failed) = (d.drain_completions(), d.drain_failures());
    assert_eq!(done.len() + failed.len(), 48, "every request ends once");
    let mut reasons: Vec<&str> = failed.iter().map(|f| f.reason.as_str()).collect();
    reasons.sort_unstable();
    reasons.dedup();
    assert_eq!(reasons.len(), 4, "every failure path: {reasons:?}");
    assert!(!done.is_empty());
    let snap = d.metrics_snapshot().expect("telemetry on");
    assert_eq!(snap.slo_failures(), failed.len() as u64);
    assert_eq!(snap.slo_completed(), done.len() as u64);
    assert_eq!(snap.counter("accounting_underflow"), 0);
}

#[test]
fn kernel_faults_retry_transparently() {
    // A 10% per-kernel fault rate with budget to spare: everything still
    // completes, just slower than the fault-free run. Job-by-job submission
    // has the whole chain on the device already, so the ops behind a faulted
    // one complete — and release — before its retry does.
    for mut cfg in [
        DispatcherConfig::paella(),
        DispatcherConfig::paella_ms_jbj(),
    ] {
        cfg.kernel_fault_rate = 0.10;
        cfg.retry_budget = 10;
        let mut d = paella_with(cfg, 42);
        let model = d.register_model(&synthetic::fig2_job());
        submit_n(&mut d, model, 32, SimDuration::from_micros(50), 0);
        d.run_to_idle();
        let done = d.drain_completions();
        let failed = d.drain_failures();
        assert_eq!(done.len(), 32, "retries must mask faults: {failed:?}");
        assert!(failed.is_empty());
        assert_eq!(d.inflight(), 0);
        assert_eq!(d.occupancy_tracked_kernels(), 0);
    }
}

#[test]
fn retry_budget_exhaustion_fails_the_job() {
    // Every kernel execution faults: after 1 + retry_budget attempts on the
    // first kernel the job must fail terminally, never hang.
    let mut cfg = DispatcherConfig::paella();
    cfg.kernel_fault_rate = 1.0;
    cfg.retry_budget = 2;
    let mut d = paella_with(cfg, 42);
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 4, SimDuration::ZERO, 0);
    d.run_to_idle();
    assert!(d.drain_completions().is_empty());
    let failed = d.drain_failures();
    assert_eq!(failed.len(), 4);
    assert!(failed
        .iter()
        .all(|f| f.reason == FailureReason::RetryBudgetExhausted));
    assert_eq!(d.inflight(), 0);
    assert_eq!(d.occupancy_tracked_kernels(), 0);
    assert_eq!(d.occupancy_resident_blocks(), 0);
}

#[test]
fn fault_injection_is_deterministic() {
    let timeline = |seed: u64| {
        let mut cfg = DispatcherConfig::paella();
        cfg.kernel_fault_rate = 0.15;
        cfg.retry_budget = 3;
        cfg.deadline_factor = Some(8.0);
        let mut d = paella_with(cfg, seed);
        let model = d.register_model(&synthetic::fig2_job());
        submit_n(&mut d, model, 24, SimDuration::from_micros(80), 0);
        d.run_to_idle();
        let done: Vec<(u64, u64)> = d
            .drain_completions()
            .iter()
            .map(|c| (c.job.0, c.client_visible_at.as_nanos()))
            .collect();
        let failed: Vec<(u64, &'static str)> = d
            .drain_failures()
            .iter()
            .map(|f| (f.at.as_nanos(), f.reason.as_str()))
            .collect();
        (done, failed)
    };
    assert_eq!(timeline(9), timeline(9), "same seed, same faults");
    assert_ne!(timeline(9), timeline(10), "faults follow the seed");
}

#[test]
fn cancel_all_fails_everything_without_leaks() {
    let mut d = paella(DeviceConfig::tesla_t4());
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 16, SimDuration::from_micros(10), 0);
    // Mid-flight crash: some jobs ingested and running, some still queued.
    d.advance_until(SimTime::from_micros(400));
    d.cancel_all(SimTime::from_micros(400), FailureReason::NodeCrash);
    let failed = d.drain_failures();
    assert_eq!(failed.len(), 16, "queued and in-flight alike are failed");
    assert!(failed.iter().all(|f| f.reason == FailureReason::NodeCrash));
    assert_eq!(d.inflight(), 0);
    assert_eq!(d.load_signal().outstanding(), 0);
    // Already-placed kernels run out on the device; their late outputs must
    // not resurrect anything or corrupt the mirror.
    d.run_to_idle();
    assert!(d.drain_completions().is_empty());
    assert_eq!(d.occupancy_tracked_kernels(), 0);
    assert_eq!(d.occupancy_resident_blocks(), 0);
}

#[test]
fn cancel_all_before_ingest_zeroes_the_queued_load() {
    let mut d = paella(DeviceConfig::tesla_t4());
    d.enable_telemetry();
    let model = d.register_model(&synthetic::fig2_job());
    submit_n(&mut d, model, 8, SimDuration::from_micros(10), 0);
    let sig = d.load_signal();
    assert_eq!((sig.queued, sig.inflight), (8, 0), "nothing ingested yet");
    assert!(sig.remaining_work > SimDuration::ZERO);
    // The ring's contents are lost before the dispatcher polled any of it.
    d.cancel_all(SimTime::ZERO, FailureReason::NodeCrash);
    d.run_to_idle();
    assert_eq!(d.drain_failures().len(), 8);
    let sig = d.load_signal();
    assert_eq!(sig.queued, 0);
    assert_eq!(sig.remaining_work, SimDuration::ZERO);
    let snap = d.metrics_snapshot().expect("telemetry on");
    assert_eq!(snap.counter("accounting_underflow"), 0);
}

#[test]
fn late_outputs_for_retired_kernels_fall_through() {
    use paella_telemetry::TraceEvent;
    // In-flight kernels live in a uid-indexed window. Words and completions
    // the device delivers for a kernel whose job is already gone must miss
    // it both ways — as a hole inside the window and below its base —
    // without touching any accounting. FIFO keeps uids in submission order.
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(FifoScheduler::new()),
        DispatcherConfig::paella(),
        42,
    );
    d.enable_telemetry();
    let long = d.register_model(&synthetic::uniform_job(
        "long",
        2,
        SimDuration::from_micros(2_000),
        8,
    ));
    let short = d.register_model(&synthetic::uniform_job(
        "short",
        2,
        SimDuration::from_micros(300),
        8,
    ));
    let us = SimTime::from_micros;
    let submit = |d: &mut Dispatcher, client: u32, model: ModelId, at: SimTime| {
        d.submit(InferenceRequest {
            client: ClientId(client),
            model,
            submitted_at: at,
        });
    };
    submit(&mut d, 0, long, us(0)); // job 1: kernel uid 1 runs until ~2 ms
    submit(&mut d, 1, short, us(20)); // job 2: uid 2
    submit(&mut d, 0, short, us(40)); // job 3: uid 3
    d.advance_until(us(100));
    // Job 2 goes while uids 1 and 3 stay live: uid 2 is a hole inside the
    // window when its completion words and KernelCompleted land (~320 µs).
    d.cancel_client(ClientId(1), us(100));
    d.advance_until(us(340));
    // The node crashes with uid 1 still on the device; a fresh job then
    // moves the window past every retired uid before uid 1's outputs land.
    d.cancel_all(us(340), FailureReason::NodeCrash);
    submit(&mut d, 2, long, us(500)); // job 4
    d.run_to_idle();

    // Word by word: a word's instant is what the test asks about.
    let log = d.take_trace_log().expect("telemetry on").expanded();
    let dispatched = |kernel: u64| {
        log.events.iter().find_map(|e| match e.event {
            TraceEvent::KernelDispatched { job, kernel: k, .. } if k == kernel => Some((job, e.at)),
            _ => None,
        })
    };
    let words_after = |kernel: u64, after: SimTime| {
        log.events
            .iter()
            .filter(|e| {
                e.at > after
                    && matches!(e.event, TraceEvent::NotifBatch { kernel: k, .. } if k == kernel)
            })
            .count()
    };
    for uid in 1..=3 {
        let (job, at) = dispatched(uid).expect("dispatched");
        assert!(
            job == uid && at < us(100),
            "uid {uid} is job {job}'s first kernel"
        );
    }
    let (job, at) = dispatched(4).expect("the fresh job's first kernel");
    assert!(
        job == 4 && at < us(1_000),
        "window re-based at uid 4 before uid 1 finishes"
    );
    assert!(
        words_after(2, us(100)) > 0,
        "uid 2 reported after its job went"
    );
    assert!(
        words_after(1, us(1_000)) > 0,
        "uid 1 reported after the crash"
    );

    let done = d.drain_completions();
    assert_eq!(done.len(), 1, "only the fresh job completes");
    assert_eq!(done[0].job.0, 4);
    let reasons: Vec<_> = d.drain_failures().iter().map(|f| f.reason).collect();
    assert_eq!(
        reasons,
        [
            FailureReason::Disconnected,
            FailureReason::NodeCrash,
            FailureReason::NodeCrash
        ]
    );
    assert_eq!(d.inflight(), 0);
    assert_eq!(d.occupancy_tracked_kernels(), 0);
    assert_eq!(d.occupancy_resident_blocks(), 0);
    assert_eq!(d.load_signal().outstanding(), 0);
    assert_eq!(d.notifq_outstanding(), 0, "no leaked notifQ slots");
    let snap = d.metrics_snapshot().expect("telemetry on");
    assert_eq!(snap.counter("accounting_underflow"), 0);
}

/// A single-stream model whose first op waits on its second: the in-stream
/// edge plus the forward dependency close a wait cycle.
fn cyclic_model() -> paella_compiler::CompiledModel {
    let mut m = synthetic::uniform_job("cyclic", 2, SimDuration::from_micros(5), 1);
    m.schedule = Some(paella_compiler::JobSchedule {
        streams: vec![1; m.ops.len()],
        deps: (0..m.ops.len())
            .map(|t| if t == 0 { vec![1] } else { Vec::new() })
            .collect(),
    });
    m
}

#[test]
#[should_panic(expected = "unschedulable stream plan")]
fn register_model_rejects_a_wait_cycle() {
    paella(DeviceConfig::tesla_t4()).register_model(&cyclic_model());
}

#[test]
#[should_panic(expected = "unschedulable stream plan")]
fn register_model_rejects_a_wait_cycle_at_job_granularity() {
    // Job mode would run the model sequentially, but the artifact is still
    // malformed and is still refused.
    paella_with(DispatcherConfig::paella_ms_jbj(), 1).register_model(&cyclic_model());
}
