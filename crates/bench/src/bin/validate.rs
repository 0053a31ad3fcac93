//! Artifact-evaluation entry point: re-checks the paper's key qualitative
//! claims at reduced scale and prints PASS/FAIL for each, exiting non-zero
//! if anything regressed. The full figure binaries (`fig01`…`fig15`,
//! `table2`) regenerate the complete data; this is the five-minute smoke
//! pass. Checks are independent simulation cells, so they run on the
//! sweep harness (`PAELLA_BENCH_THREADS`) with output in fixed order.
//!
//! Run with: `./target/release/validate`

use paella_bench::{channels, device, zoo};
use paella_core::{ClientId, InferenceRequest, ServingSystem};
use paella_gpu::{blocks_per_sm, BlockFootprint, DeviceConfig, SmLimits};
use paella_models::{measure_uncontended, registry, synthetic};
use paella_sim::{SimDuration, SimTime};
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

struct Check {
    id: &'static str,
    claim: &'static str,
    ok: bool,
    detail: String,
}

// §2.1 arithmetic: the 176-block bound and the 18% HoL worst case.
fn check_sec21() -> Check {
    let fp = BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    };
    let cap = blocks_per_sm(&fp, &SmLimits::TURING) * 22;
    Check {
        id: "sec2.1",
        claim: "GTX 1660 SUPER holds 176 synthetic blocks; 32 queues = 18% worst case",
        ok: cap == 176,
        detail: format!(
            "capacity = {cap}, 32/{cap} = {:.0}%",
            32.0 / f64::from(cap) * 100.0
        ),
    }
}

// Table 2: calibration within 2%.
fn check_table2() -> Check {
    let mut zoo = zoo();
    let mut worst = 0.0f64;
    for e in registry().into_iter().filter(|e| e.in_table2) {
        let m = zoo.get(e.name).clone();
        let t = measure_uncontended(&m, &device());
        let err = (t.as_nanos() as f64 - e.target_exec.as_nanos() as f64).abs()
            / e.target_exec.as_nanos() as f64;
        worst = worst.max(err);
    }
    Check {
        id: "table2",
        claim: "all 8 models calibrate to the paper's exec times",
        ok: worst < 0.02,
        detail: format!("worst relative error {:.2}%", worst * 100.0),
    }
}

// Fig. 2: Paella sustains more HoL-workload goodput than job-by-job.
fn check_fig02() -> Check {
    let goodput = |key: SystemKey| {
        let mut sys = make_system(key, DeviceConfig::gtx_1660_super(), channels(), 7);
        let m = sys.register_model(&synthetic::fig2_job());
        let spec = WorkloadSpec {
            clients: 16,
            ..WorkloadSpec::steady(25_000.0, 1_500)
        };
        let arrivals = generate(&spec, &Mix::single(m));
        run_trace(sys.as_mut(), &arrivals, 150).throughput
    };
    let jbj = goodput(SystemKey::PaellaMsJbj);
    let paella = goodput(SystemKey::Paella);
    Check {
        id: "fig02",
        claim: "Paella dispatching beats job-by-job goodput under HoL blocking",
        ok: paella > jbj * 1.3,
        detail: format!("paella {paella:.0} vs job-by-job {jbj:.0} jobs/s"),
    }
}

// Fig. 9: injected scheduling delay collapses throughput.
fn check_fig09() -> Check {
    let mut zoo = zoo();
    let mnist = zoo.get("mnist").clone();
    let tput_at = |delay_us: f64| {
        let mut sys = paella_workload::systems::make_paella_with_delay(
            device(),
            channels(),
            SimDuration::from_micros_f64(delay_us),
            13,
        );
        let id = sys.register_model(&mnist);
        let spec = WorkloadSpec {
            clients: 16,
            ..WorkloadSpec::steady(100_000.0, 800)
        };
        let arrivals = generate(&spec, &Mix::single(id));
        run_trace(sys.as_mut(), &arrivals, 80).throughput
    };
    let fast = tput_at(0.1);
    let slow = tput_at(100.0);
    Check {
        id: "fig09",
        claim: "per-decision delay ≥100 µs collapses dispatcher throughput",
        ok: fast > slow * 5.0,
        detail: format!("{fast:.0} req/s at 0.1 µs vs {slow:.0} at 100 µs"),
    }
}

// Fig. 10: Paella's single-request overhead ≪ Triton's.
fn check_fig10() -> Check {
    let mut zoo = zoo();
    let mobilenet = zoo.get("mobilenetv2").clone();
    let overhead = |key: SystemKey| {
        let mut sys = make_system(key, device(), channels(), 17);
        let id = sys.register_model(&mobilenet);
        sys.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        sys.run_to_idle();
        let done = sys.drain_completions();
        done[0].breakdown.overhead().as_micros_f64()
    };
    let triton = overhead(SystemKey::Triton);
    let paella_oh = overhead(SystemKey::Paella);
    Check {
        id: "fig10",
        claim: "Paella's serving overhead is a fraction of Triton's",
        ok: paella_oh * 2.0 < triton,
        detail: format!("paella {paella_oh:.0} µs vs triton {triton:.0} µs"),
    }
}

// Fig. 12: SRPT protects short jobs in a short/long mix.
fn check_fig12() -> Check {
    let mut zoo = zoo();
    let short = zoo.get("resnet18").clone();
    let long = zoo.get("inceptionv3").clone();
    let r18_p99 = |key: SystemKey| {
        let mut sys = make_system(key, device(), channels(), 29);
        let s = sys.register_model(&short);
        let l = sys.register_model(&long);
        let spec = WorkloadSpec {
            sigma: 1.5,
            clients: 8,
            ..WorkloadSpec::steady(200.0, 600)
        };
        let arrivals = generate(&spec, &Mix::weighted(vec![(s, 19.7), (l, 1.0)]));
        let mut stats = run_trace(sys.as_mut(), &arrivals, 60);
        stats.model_p99_us(s).unwrap_or(f64::NAN)
    };
    let cuda_ms = r18_p99(SystemKey::CudaMs);
    let paella_r18 = r18_p99(SystemKey::Paella);
    Check {
        id: "fig12",
        claim: "ResNet-18 p99 improves ≥3x under Paella vs CUDA-MS",
        ok: paella_r18 * 3.0 < cuda_ms,
        detail: format!(
            "CUDA-MS {:.1} ms vs Paella {:.1} ms",
            cuda_ms / 1_000.0,
            paella_r18 / 1_000.0
        ),
    }
}

// Fig. 14: hybrid wakeup sits between socket and polling CPU use.
fn check_fig14() -> Check {
    use paella_core::{Dispatcher, DispatcherConfig, SrptDeficitScheduler, WakeupMode};
    use paella_workload::client_utilization;
    let util = |mode: WakeupMode| {
        let mut cfg = DispatcherConfig::paella();
        cfg.wakeup = mode;
        let mut sys = Dispatcher::new(
            device(),
            channels(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            37,
        );
        let m = sys.register_model(&synthetic::tiny_model_pinned(
            SimDuration::from_micros(94),
            SimDuration::from_micros(26),
        ));
        let spec = WorkloadSpec {
            clients: 1,
            ..WorkloadSpec::steady(6_700.0, 1_500)
        };
        let arrivals = generate(&spec, &Mix::single(m));
        let stats = run_trace(&mut sys, &arrivals, 150);
        client_utilization(&stats.completions, mode, channels().socket.send_syscall)
    };
    let socket = util(WakeupMode::Socket);
    let poll = util(WakeupMode::Polling);
    let hybrid = util(WakeupMode::Hybrid);
    Check {
        id: "fig14",
        claim: "hybrid client CPU sits between socket and polling extremes",
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
fn check_fig15() -> Check {
    use paella_gpu::InstrumentationSpec;
    let agg = InstrumentationSpec::default().kernel_overhead(160);
    let noagg = InstrumentationSpec::without_aggregation().kernel_overhead(160);
    Check {
        id: "fig15",
        claim: "aggregation costs more device time but fewer notifications",
        ok: agg > noagg
            && InstrumentationSpec::default().notifications_for(160)
                < InstrumentationSpec::without_aggregation().notifications_for(160),
        detail: format!(
            "agg {} vs no-agg {}; {} vs {} words/phase",
            agg,
            noagg,
            InstrumentationSpec::default().notifications_for(160),
            InstrumentationSpec::without_aggregation().notifications_for(160)
        ),
    }
}

fn main() {
    let checks: [fn() -> Check; 8] = [
        check_sec21,
        check_table2,
        check_fig02,
        check_fig09,
        check_fig10,
        check_fig12,
        check_fig14,
        check_fig15,
    ];
    let results = paella_bench::sweep::run_grid(checks.len(), |i| checks[i]());
    let mut failures = 0u32;
    for c in &results {
        let verdict = if c.ok { "PASS" } else { "FAIL" };
        println!("[{verdict}] {:8} {}\n         {}", c.id, c.claim, c.detail);
        if !c.ok {
            failures += 1;
        }
    }

    println!();
    if failures == 0 {
        println!("all checks passed");
    } else {
        println!("{failures} check(s) FAILED");
        std::process::exit(1);
    }
}
