//! Serve the full Table 2 model mix under bursty lognormal load and compare
//! Paella against a Triton-like baseline — a miniature of the Fig. 11
//! experiment.
//!
//! Run with: `cargo run --release --example serve_mix`

use paella_gpu::DeviceConfig;
use paella_models::ModelZoo;
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

fn main() {
    println!("calibrating the Table 2 model zoo against the simulated T4...");
    let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
    let table2 = zoo.table2();
    for m in &table2 {
        println!("  {:15} {} kernels", m.name, m.kernel_count());
    }

    let rate = 120.0; // requests/second, uniform mix, σ = 2 (bursty)
    let n = 600;
    println!("\nserving {n} requests at {rate} req/s (lognormal σ=2):\n");
    println!(
        "{:14} {:>12} {:>12} {:>12} {:>14}",
        "system", "tput (r/s)", "p50 (ms)", "p99 (ms)", "p99 resnet18"
    );
    for key in [SystemKey::Triton, SystemKey::CudaMs, SystemKey::Paella] {
        let mut sys = make_system(key, DeviceConfig::tesla_t4(), 7);
        let ids: Vec<_> = table2.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            sigma: 2.0,
            clients: 8,
            ..WorkloadSpec::steady(rate, n)
        };
        let arrivals = generate(&spec, &Mix::uniform(&ids));
        let mut stats = run_trace(sys.as_mut(), &arrivals, n / 10);
        let p50 = stats.jct_us.p50().unwrap_or(f64::NAN) / 1_000.0;
        let p99 = stats.p99_us() / 1_000.0;
        let r18 = stats.model_p99_us(ids[0]).unwrap_or(f64::NAN) / 1_000.0;
        println!(
            "{:14} {:>12.1} {:>12.2} {:>12.1} {:>14.1}",
            key.key(),
            stats.throughput,
            p50,
            p99,
            r18
        );
    }
    println!(
        "\nPaella's software-defined scheduling keeps short-job tails low even\n\
         while the GPU is heavily shared; Triton pays gRPC + wrapper overheads\n\
         and serializes executions through its TF-wrapped backend."
    );
}
