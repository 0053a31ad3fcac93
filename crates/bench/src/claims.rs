//! One home per paper claim.
//!
//! Every measured cell of the reproduced §7 results is one function here,
//! taking its seed and sizes as arguments: the figure binary sweeps it at
//! full scale, and a [`Claim`] runs it at a reduced size to check the
//! paper's *direction* and print its *margin*. [`all`] lists the claims;
//! `validate` prints them and the `claims` test fails on any that does not
//! hold, so no scenario is built in two places. Nothing here reads the
//! environment: only the binaries scale their sizes.

use paella_baselines::{batched_model, Triton};
use paella_channels::{ChannelConfig, CudaRuntimeModel};
use paella_compiler::CompiledModel;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ModelId, ServingSystem,
    SrptDeficitScheduler, WakeupMode,
};
use paella_gpu::{
    blocks_per_sm, BlockFootprint, DeviceConfig, GpuOutput, GpuSim, InstrumentationSpec,
    KernelLaunch, SmLimits, StreamId,
};
use paella_models::{measure_uncontended, registry, synthetic, ModelZoo, ZooEntry};
use paella_sim::{Percentiles, SimDuration, SimTime};
use paella_workload::systems::make_paella_with_delay;
use paella_workload::{
    average_breakdown, client_utilization, generate, make_system, run_trace, BreakdownUs, Mix,
    RunStats, SystemKey, WorkloadSpec,
};

use crate::device;

/// §2.1: how many of Fig. 2's 128-thread, 9-register blocks the 22 Turing
/// SMs of a GTX 1660 SUPER hold at once.
pub fn sec21_capacity() -> u32 {
    let fp = BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    };
    blocks_per_sm(&fp, &SmLimits::TURING) * 22
}

/// Table 2: `entry` calibrated for the evaluation device, its uncontended
/// execution time, and that time's relative error against the paper's.
pub fn table2(entry: &ZooEntry) -> (CompiledModel, SimDuration, f64) {
    let model = ModelZoo::new(device()).get(entry.name).clone();
    let measured = measure_uncontended(&model, &device());
    let target_ms = entry.target_exec.as_millis_f64();
    let err = (measured.as_millis_f64() - target_ms).abs() / target_ms;
    (model, measured, err)
}

/// Fig. 2: `n` HoL jobs (8 dependent one-block kernels each) from 16 clients
/// at `rate` jobs/s on a GTX 1660 SUPER, served by `key`.
pub fn fig02(key: SystemKey, rate: f64, n: usize, seed: u64) -> RunStats {
    let mut sys = make_system(key, DeviceConfig::gtx_1660_super(), seed);
    let m = sys.register_model(&synthetic::fig2_job());
    let spec = WorkloadSpec {
        clients: 16,
        ..WorkloadSpec::steady(rate, n)
    };
    run_trace(sys.as_mut(), &generate(&spec, &Mix::single(m)), n / 10)
}

/// The models of Fig. 3, in the figure's order.
pub const FIG03_MODELS: [&str; 7] = [
    "densenet",
    "googlenet",
    "gpt2",
    "mobilenetv2",
    "resnet50",
    "vgg16",
    "yolov5",
];

/// Fig. 3: Triton's serving overhead for one pre-formed batch of `batch`
/// requests to `model`, in percent of the CUDA execution time.
pub fn fig03(model: &str, batch: usize, seed: u64) -> f64 {
    let model = ModelZoo::new(device()).get(model).clone();
    // The paper submits the entire batch immediately (one pre-formed
    // batch-`b` tensor) to elide the dynamic batcher's configurable wait.
    let mut triton = Triton::new(device(), seed);
    let id = triton.register_model(&batched_model(&model, batch));
    triton.submit(InferenceRequest {
        client: ClientId(0),
        model: id,
        submitted_at: SimTime::ZERO,
    });
    triton.run_to_idle();
    let done = triton.drain_completions();
    assert_eq!(done.len(), 1);
    // Overhead = end-to-end latency minus CUDA work, relative to CUDA work.
    let device_us = done[0].breakdown.device.as_micros_f64();
    (done[0].jct().as_micros_f64() - device_us) / device_us * 100.0
}

/// The stream counts of Fig. 4.
pub const FIG04_STREAMS: [u32; 11] = [1, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20];

/// Fig. 4, a host-serialized synchronization method: every kernel plays
/// through the device, then each pays the launch and `per_kernel_host` on
/// one runtime thread (which is exactly why these APIs scale so poorly).
pub fn fig04_host_sync(
    streams: u32,
    per_kernel_host: SimDuration,
    kernels_per_stream: usize,
    seed: u64,
) -> SimDuration {
    let kernels = kernels_per_stream * streams as usize;
    let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), seed);
    let mut uid = 0;
    for s in 0..streams {
        for _ in 0..kernels_per_stream {
            uid += 1;
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(s + 1),
                    desc: synthetic::empty_kernel(4, None),
                },
            );
        }
    }
    let mut out = Vec::new();
    let mut device_done = SimTime::ZERO;
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
        device_done = t;
    }
    // Host work serializes on the runtime thread and cannot finish before
    // the device does.
    let host =
        CudaRuntimeModel::LAUNCH_OVERHEAD * kernels as u64 + per_kernel_host * kernels as u64;
    device_done.saturating_since(SimTime::ZERO).max(host)
}

/// Fig. 4, the Paella dispatcher: one job of `kernels_per_stream` empty
/// kernels per stream, all submitted at once; returns the makespan.
pub fn fig04_paella(streams: u32, kernels_per_stream: usize, seed: u64) -> SimDuration {
    let mut sys = make_system(SystemKey::Paella, DeviceConfig::tesla_t4(), seed);
    let m = sys.register_model(&synthetic::uniform_job(
        "empty",
        kernels_per_stream as u32,
        SimDuration::from_micros(2),
        4,
    ));
    for c in 0..streams {
        sys.submit(InferenceRequest {
            client: ClientId(c),
            model: m,
            submitted_at: SimTime::ZERO,
        });
    }
    sys.run_to_idle();
    let done = sys.drain_completions();
    assert_eq!(done.len(), streams as usize);
    done.iter()
        .map(|c| c.client_visible_at)
        .max()
        .unwrap()
        .saturating_since(SimTime::ZERO)
}

/// Fig. 9: Paella's throughput on the MNIST-scale model with `delay_us`
/// injected into every scheduling decision, offered far more load (`n`
/// requests at 100,000 req/s) than it can take.
pub fn fig09(delay_us: f64, n: usize, seed: u64) -> f64 {
    let model = ModelZoo::new(device()).get("mnist").clone();
    let mut sys = make_paella_with_delay(device(), SimDuration::from_micros_f64(delay_us), seed);
    let id = sys.register_model(&model);
    let spec = WorkloadSpec {
        clients: 16,
        ..WorkloadSpec::steady(100_000.0, n)
    };
    run_trace(sys.as_mut(), &generate(&spec, &Mix::single(id)), n / 10).throughput
}

/// Fig. 10: `key`'s overhead breakdown averaged over `requests` isolated
/// MobileNetV2 requests, spaced 50 ms apart so none queues behind another.
pub fn fig10(key: SystemKey, requests: u64, seed: u64) -> BreakdownUs {
    let model = ModelZoo::new(device()).get("mobilenetv2").clone();
    let mut sys = make_system(key, device(), seed);
    let id = sys.register_model(&model);
    for i in 0..requests {
        sys.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::from_millis(i * 50),
        });
    }
    sys.run_to_idle();
    let done = sys.drain_completions();
    assert_eq!(done.len() as u64, requests, "{}", key.key());
    average_breakdown(&done)
}

/// Fig. 11: `n` requests, a uniform mix of the eight Table 2 models from 8
/// clients at `rate` req/s with lognormal burstiness `sigma`, served by
/// `key`. Also returns the models' ids, in Table 2 order.
pub fn fig11(
    key: SystemKey,
    sigma: f64,
    rate: f64,
    n: usize,
    seed: u64,
) -> (RunStats, Vec<ModelId>) {
    let mut sys = make_system(key, device(), seed);
    let ids: Vec<_> = ModelZoo::new(device())
        .table2()
        .iter()
        .map(|m| sys.register_model(m))
        .collect();
    let spec = WorkloadSpec {
        sigma,
        clients: 8,
        ..WorkloadSpec::steady(rate, n)
    };
    let stats = run_trace(sys.as_mut(), &generate(&spec, &Mix::uniform(&ids)), n / 10);
    (stats, ids)
}

/// Fig. 12: `n` requests of ResNet-18 (short) and InceptionV3 (long), the
/// short ones `short_weight` times as frequent, at `rate` req/s with
/// burstiness `sigma` on `device`, served by `key` (MPS with 7 client
/// processes, the most it supports, others with 8). Also returns the short
/// and long models' ids.
pub fn fig12(
    device: DeviceConfig,
    key: SystemKey,
    sigma: f64,
    rate: f64,
    n: usize,
    short_weight: f64,
    seed: u64,
) -> (RunStats, [ModelId; 2]) {
    let mut zoo = ModelZoo::new(device.clone());
    let mut sys = make_system(key, device, seed);
    let short = sys.register_model(zoo.get("resnet18"));
    let long = sys.register_model(zoo.get("inceptionv3"));
    let spec = WorkloadSpec {
        sigma,
        clients: if key == SystemKey::Mps { 7 } else { 8 },
        ..WorkloadSpec::steady(rate, n)
    };
    let mix = Mix::weighted(vec![(short, short_weight), (long, 1.0)]);
    let stats = run_trace(sys.as_mut(), &generate(&spec, &mix), n / 10);
    (stats, [short, long])
}

/// Fig. 14: one client submitting `n` small jobs at 6,700 req/s, the
/// paper's upper bound on client load, with results delivered by `mode`.
/// Returns the client's CPU utilization (a fraction) and the mean latency
/// in µs.
pub fn fig14(mode: WakeupMode, n: usize, seed: u64) -> (f64, f64) {
    let mut cfg = DispatcherConfig::paella();
    cfg.wakeup = mode;
    let mut sys = Dispatcher::new(
        device(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        seed,
    );
    // The pinned-output model's last operator is ~22% of the job, the
    // fraction the hybrid client's polling window (and thus CPU share)
    // tracks.
    let m = sys.register_model(&synthetic::tiny_model_pinned(
        SimDuration::from_micros(94),
        SimDuration::from_micros(26),
    ));
    let spec = WorkloadSpec {
        clients: 1,
        ..WorkloadSpec::steady(6_700.0, n)
    };
    let stats = run_trace(&mut sys, &generate(&spec, &Mix::single(m)), n / 10);
    (
        client_utilization(&stats.completions, mode),
        stats.mean_us(),
    )
}

/// Fig. 15: host-observed execution times (launch initiation to
/// synchronization return, µs) of `runs` back-to-back empty kernels of
/// `blocks` blocks, instrumented by `instr`.
pub fn fig15(
    blocks: u32,
    instr: Option<InstrumentationSpec>,
    runs: usize,
    seed: u64,
) -> Percentiles {
    let mut p = Percentiles::new();
    let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), seed);
    let mut out = Vec::new();
    let mut t = SimTime::ZERO;
    for uid in 1..=runs as u32 {
        gpu.launch_kernel(
            t,
            KernelLaunch {
                uid,
                stream: StreamId(1),
                desc: synthetic::empty_kernel(blocks, instr),
            },
        );
        // Drain until this kernel completes.
        let mut done_at = t;
        while let Some(next) = gpu.next_time() {
            out.clear();
            gpu.advance_until(next, &mut out);
            if out
                .iter()
                .any(|o| matches!(o, GpuOutput::KernelCompleted { uid: u, .. } if *u == uid))
            {
                done_at = next;
                break;
            }
        }
        let host_us = (CudaRuntimeModel::LAUNCH_OVERHEAD + CudaRuntimeModel::STREAM_SYNCHRONIZE)
            .as_micros_f64();
        p.push(done_at.saturating_since(t).as_micros_f64() + host_us);
        t = done_at + SimDuration::from_micros(5);
    }
    p
}

/// Whether a claim holds, and its margin in words.
pub struct Verdict {
    /// The claim holds.
    pub ok: bool,
    /// The measured numbers the verdict rests on.
    pub detail: String,
}

/// One qualitative result of the paper, checked at reduced scale.
pub struct Claim {
    /// Short id (`fig12`), printed first and named by a failing test.
    pub id: &'static str,
    /// The claim, in the paper's terms.
    pub text: &'static str,
    /// Runs the claim's cells.
    pub check: fn() -> Verdict,
}

/// Every claim, in the paper's order: §2.1, Table 2, the figures, then the
/// §7 P100 trends.
pub fn all() -> Vec<Claim> {
    vec![
        Claim {
            id: "sec2.1",
            text: "GTX 1660 SUPER holds 176 synthetic blocks; 32 queues = 18% worst case",
            check: sec21_claim,
        },
        Claim {
            id: "table2",
            text: "all 8 models calibrate to the paper's exec times",
            check: table2_claim,
        },
        Claim {
            id: "fig02",
            text: "Paella dispatching beats job-by-job goodput under HoL blocking",
            check: fig02_claim,
        },
        Claim {
            id: "fig03",
            text: "MobileNetV2 has the worst batch-1 Triton overhead",
            check: fig03_claim,
        },
        Claim {
            id: "fig04",
            text: "AddCallback > StreamSynchronize > Paella at every stream count",
            check: fig04_claim,
        },
        Claim {
            id: "fig09",
            text: "per-decision delay ≥100 µs collapses dispatcher throughput",
            check: fig09_claim,
        },
        Claim {
            id: "fig10",
            text: "Paella's serving overhead is a fraction of Triton's",
            check: fig10_claim,
        },
        Claim {
            id: "fig11",
            text: "Paella beats Triton on throughput and p99 under bursty 8-model load",
            check: fig11_claim,
        },
        Claim {
            id: "fig12",
            text: "ResNet-18 p99 improves ≥3x under Paella vs CUDA-MS",
            check: || fig12_claim(29, 600),
        },
        Claim {
            id: "fig12.s5",
            text: "ResNet-18 p99 improves ≥3x under Paella vs CUDA-MS (seed 5, 400 requests)",
            check: || fig12_claim(5, 400),
        },
        Claim {
            id: "fig14",
            text: "hybrid client CPU sits between socket and polling extremes",
            check: fig14_claim,
        },
        Claim {
            id: "fig15",
            text: "aggregation costs more device time but fewer notifications",
            check: fig15_claim,
        },
        Claim {
            id: "p100",
            text: "on a Tesla P100 Paella still beats job-by-job and SRPT protects short jobs",
            check: p100_claim,
        },
    ]
}

// §2.1 arithmetic: the 176-block bound and the 18% HoL worst case.
fn sec21_claim() -> Verdict {
    let cap = sec21_capacity();
    Verdict {
        ok: cap == 176,
        detail: format!(
            "capacity = {cap}, 32/{cap} = {:.0}%",
            32.0 / f64::from(cap) * 100.0
        ),
    }
}

// Table 2: every model calibrates within 2%.
fn table2_claim() -> Verdict {
    let worst = registry()
        .iter()
        .filter(|e| e.in_table2)
        .map(|e| table2(e).2)
        .fold(0.0, f64::max);
    Verdict {
        ok: worst < 0.02,
        detail: format!("worst relative error {:.2}%", worst * 100.0),
    }
}

// Fig. 2: Paella sustains more HoL-workload goodput than job-by-job.
fn fig02_claim() -> Verdict {
    let jbj = fig02(SystemKey::PaellaMsJbj, 25_000.0, 1_500, 7).throughput;
    let paella = fig02(SystemKey::Paella, 25_000.0, 1_500, 7).throughput;
    Verdict {
        ok: paella > jbj * 1.3,
        detail: format!("paella {paella:.0} vs job-by-job {jbj:.0} jobs/s"),
    }
}

// Fig. 3: the framework overhead of a single small request hurts the
// fastest model most.
fn fig03_claim() -> Verdict {
    let mut pct = FIG03_MODELS.map(|m| (fig03(m, 1, 3), m));
    pct.sort_by(|a, b| b.0.total_cmp(&a.0));
    let [(worst, model), (next, next_model), ..] = pct;
    Verdict {
        ok: model == "mobilenetv2",
        detail: format!(
            "{model} {worst:.1}% vs {next:.1}% for {next_model}, the next worst ({:.1}x)",
            worst / next
        ),
    }
}

// Fig. 4: synchronizing through the runtime costs more than the notifQ, and
// a callback more than a synchronize, at every stream count.
fn fig04_claim() -> Verdict {
    const KERNELS_PER_STREAM: usize = 50;
    let (mut cb_over_sync, mut sync_over_paella) = (f64::INFINITY, f64::INFINITY);
    for streams in FIG04_STREAMS {
        let ms = |per_kernel| {
            fig04_host_sync(streams, per_kernel, KERNELS_PER_STREAM, 5).as_millis_f64()
        };
        let callback = ms(CudaRuntimeModel::STREAM_CALLBACK);
        let sync = ms(CudaRuntimeModel::STREAM_SYNCHRONIZE);
        let paella = fig04_paella(streams, KERNELS_PER_STREAM, 5).as_millis_f64();
        cb_over_sync = cb_over_sync.min(callback / sync);
        sync_over_paella = sync_over_paella.min(sync / paella);
    }
    Verdict {
        ok: cb_over_sync > 1.0 && sync_over_paella > 1.0,
        detail: format!(
            "{KERNELS_PER_STREAM} kernels per stream: AddCallback ≥ {cb_over_sync:.2}x StreamSynchronize ≥ {sync_over_paella:.2}x Paella"
        ),
    }
}

// Fig. 9: injected scheduling delay collapses throughput.
fn fig09_claim() -> Verdict {
    let fast = fig09(0.1, 800, 13);
    let slow = fig09(100.0, 800, 13);
    Verdict {
        ok: fast > slow * 5.0,
        detail: format!("{fast:.0} req/s at 0.1 µs vs {slow:.0} at 100 µs"),
    }
}

// Fig. 10: Paella's single-request overhead ≪ Triton's.
fn fig10_claim() -> Verdict {
    let triton = fig10(SystemKey::Triton, 1, 17).overhead();
    let paella = fig10(SystemKey::Paella, 1, 17).overhead();
    Verdict {
        ok: paella * 2.0 < triton,
        detail: format!("paella {paella:.0} µs vs triton {triton:.0} µs"),
    }
}

// Fig. 11: at a load Triton cannot sustain, Paella serves more, faster.
fn fig11_claim() -> Verdict {
    let run = |key| {
        let (mut stats, _) = fig11(key, 2.0, 150.0, 300, 5);
        (stats.throughput, stats.p99_us() / 1_000.0)
    };
    let (triton, triton_p99) = run(SystemKey::Triton);
    let (paella, paella_p99) = run(SystemKey::Paella);
    Verdict {
        ok: paella > triton && paella_p99 < triton_p99,
        detail: format!(
            "paella {paella:.1} req/s, p99 {paella_p99:.1} ms vs triton {triton:.1} req/s, p99 {triton_p99:.1} ms"
        ),
    }
}

// Fig. 12: SRPT protects short jobs in a short/long mix.
fn fig12_claim(seed: u64, n: usize) -> Verdict {
    let cuda_ms = short_p99_ms(&device(), SystemKey::CudaMs, n, seed);
    let paella = short_p99_ms(&device(), SystemKey::Paella, n, seed);
    Verdict {
        ok: paella * 3.0 < cuda_ms,
        detail: format!("CUDA-MS {cuda_ms:.1} ms vs Paella {paella:.1} ms"),
    }
}

// ResNet-18's p99 in ms in the Fig. 12 mix at 200 req/s, σ = 1.5.
fn short_p99_ms(device: &DeviceConfig, key: SystemKey, n: usize, seed: u64) -> f64 {
    let (mut stats, [short, _]) = fig12(device.clone(), key, 1.5, 200.0, n, 19.7, seed);
    stats.model_p99_us(short).unwrap_or(f64::NAN) / 1_000.0
}

// Fig. 14: hybrid wakeup sits between socket and polling CPU use.
fn fig14_claim() -> Verdict {
    let [socket, poll, hybrid] = [WakeupMode::Socket, WakeupMode::Polling, WakeupMode::Hybrid]
        .map(|m| fig14(m, 1_500, 37).0);
    Verdict {
        ok: socket < hybrid && hybrid < poll && poll > 0.5 && hybrid < 0.4,
        detail: format!(
            "socket {:.1}%, hybrid {:.1}%, polling {:.1}%",
            socket * 100.0,
            hybrid * 100.0,
            poll * 100.0
        ),
    }
}

// Fig. 15: instrumentation overhead ordering (no-agg < agg device time).
fn fig15_claim() -> Verdict {
    let [agg, noagg] = [
        InstrumentationSpec::default(),
        InstrumentationSpec::without_aggregation(),
    ];
    let (agg_cost, noagg_cost) = (agg.kernel_overhead(160), noagg.kernel_overhead(160));
    let (agg_words, noagg_words) = (agg.notifications_for(160), noagg.notifications_for(160));
    Verdict {
        ok: agg_cost > noagg_cost && agg_words < noagg_words,
        detail: format!(
            "agg {agg_cost} vs no-agg {noagg_cost}; {agg_words} vs {noagg_words} words/phase"
        ),
    }
}

// §7 Methodology: "We also evaluated our system on a Tesla P100 but omitted
// those results as the trends were identical." The two headline trends on
// the Pascal part: Paella beats job-by-job submission on a burst of HoL
// jobs, and SRPT protects short jobs.
fn p100_claim() -> Verdict {
    let p100 = DeviceConfig::tesla_p100();
    let makespan = |key| {
        let mut sys = make_system(key, p100.clone(), 11);
        let id = sys.register_model(&synthetic::fig2_job());
        for j in 0..256u32 {
            sys.submit(InferenceRequest {
                client: ClientId(j % 8),
                model: id,
                submitted_at: SimTime::ZERO,
            });
        }
        sys.run_to_idle();
        let done = sys.drain_completions();
        assert_eq!(done.len(), 256);
        let end = done.iter().map(|c| c.client_visible_at).max().unwrap();
        end.saturating_since(SimTime::ZERO).as_millis_f64()
    };
    let (jbj, paella) = (
        makespan(SystemKey::PaellaMsJbj),
        makespan(SystemKey::Paella),
    );
    let cuda_ms_p99 = short_p99_ms(&p100, SystemKey::CudaMs, 300, 11);
    let paella_p99 = short_p99_ms(&p100, SystemKey::Paella, 300, 11);
    Verdict {
        ok: paella < jbj && paella_p99 < cuda_ms_p99,
        detail: format!(
            "HoL makespan paella {paella:.2} ms vs job-by-job {jbj:.2} ms; \
             ResNet-18 p99 CUDA-MS {cuda_ms_p99:.1} ms vs Paella {paella_p99:.1} ms"
        ),
    }
}
