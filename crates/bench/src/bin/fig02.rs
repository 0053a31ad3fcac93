//! Figure 2: HoL blocking under job-by-job submission vs Paella dispatching
//! on a GTX 1660 SUPER (22 SMs, 32 hardware queues). Jobs are 8 kernels of
//! one 128-thread / 9-register block each (~300 µs per kernel): up to 176
//! independent blocks could run, but job-by-job submission fills the 32
//! queues with dependent chains and uses only 32/176 = 18 % of the device.

use paella_bench::{channels, f, header, row, scaled};
use paella_core::ServingSystem;

use paella_gpu::{blocks_per_sm, BlockFootprint, DeviceConfig, SmLimits};
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

fn main() {
    header(
        "Figure 2",
        "p99 JCT vs goodput: job-by-job submission vs Paella dispatching (GTX 1660 SUPER)",
    );
    // Sanity-check the §2.1 arithmetic before running anything.
    let fp = BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    };
    let per_sm = blocks_per_sm(&fp, &SmLimits::TURING);
    assert_eq!(per_sm * 22, 176, "paper's concurrency bound");
    println!(
        "# concurrency bound: {} blocks; worst-case HoL utilization 32/176 = 18%",
        per_sm * 22
    );

    row(&[
        "system".into(),
        "offered_jobs_per_s".into(),
        "goodput_jobs_per_s".into(),
        "p99_jct_us".into(),
    ]);
    let n = scaled(3_000);
    let rates = [
        2_000.0, 5_000.0, 8_000.0, 11_000.0, 13_000.0, 16_000.0, 20_000.0, 25_000.0, 30_000.0,
        35_000.0,
    ];
    let keys = [SystemKey::PaellaMsJbj, SystemKey::Paella];
    // Grid: system × offered rate, one self-contained sim per cell.
    let grid = paella_bench::sweep::run_grid(keys.len() * rates.len(), |i| {
        let key = keys[i / rates.len()];
        let rate = rates[i % rates.len()];
        let label = match key {
            SystemKey::PaellaMsJbj => "job-by-job",
            _ => "paella",
        };
        let mut sys = make_system(key, DeviceConfig::gtx_1660_super(), channels(), 7);
        let m = sys.register_model(&synthetic::fig2_job());
        let spec = WorkloadSpec {
            clients: 16,
            ..WorkloadSpec::steady(rate, n)
        };
        let arrivals = generate(&spec, &Mix::single(m));
        let mut stats = run_trace(sys.as_mut(), &arrivals, n / 10);
        [
            label.to_string(),
            f(rate),
            f(stats.throughput),
            f(stats.p99_us()),
        ]
    });
    for r in &grid {
        row(r);
    }

    // Ablation (DESIGN.md): the §6 lookahead slack B. With single-block
    // kernels the fit-based predicate alone keeps the queues primed, so the
    // sweep uses device-filling multi-block kernels — the regime where too
    // little slack starves the device during the notification round trip.
    println!("\n# ablation: lookahead slack B (6x 320-block kernels per job, T4, overload)");
    row(&[
        "B_blocks".into(),
        "goodput_jobs_per_s".into(),
        "p99_jct_us".into(),
    ]);
    let big = synthetic::uniform_job("b-sweep", 6, SimDuration::from_micros(150), 320);
    let slacks = [0u64, 8, 24, 88, 320, 640];
    let ablation = paella_bench::sweep::run_grid(slacks.len(), |i| {
        let b = slacks[i];
        let mut cfg = paella_core::DispatcherConfig::paella();
        cfg.lookahead_blocks = b;
        let mut sys = paella_core::Dispatcher::new(
            DeviceConfig::tesla_t4(),
            channels(),
            Box::new(paella_core::SrptDeficitScheduler::new(Some(2_000.0))),
            cfg,
            7,
        );
        let m = sys.register_model(&big);
        let spec = WorkloadSpec {
            clients: 16,
            ..WorkloadSpec::steady(3_000.0, n / 2)
        };
        let arrivals = generate(&spec, &Mix::single(m));
        let mut stats = run_trace(&mut sys, &arrivals, n / 20);
        [b.to_string(), f(stats.throughput), f(stats.p99_us())]
    });
    for r in &ablation {
        row(r);
    }
}
