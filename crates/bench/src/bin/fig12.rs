//! Figure 12: short vs long jobs — a mix of ResNet-18 and InceptionV3 with
//! the short:long request ratio inversely proportional to job size, under
//! both lognormal burstiness settings, including the MPS baseline. Paella's
//! SRPT-like policy improves short-job p99 latency substantially.

use paella_bench::{device, f, header, row, scaled, zoo};
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

fn main() {
    header(
        "Figure 12",
        "throughput vs p99 latency for a ResNet-18 + InceptionV3 mix (short:long inversely proportional to size)",
    );
    row(&[
        "sigma".into(),
        "system".into(),
        "model".into(),
        "offered_req_per_s".into(),
        "throughput_req_per_s".into(),
        "p99_ms".into(),
    ]);
    let mut zoo = zoo();
    let short_model = zoo.get("resnet18").clone();
    let long_model = zoo.get("inceptionv3").clone();
    // Inverse-size ratio: 31.2 ms : 1.58 ms ≈ 19.7 : 1 short : long.
    let ratio = 31.2 / 1.58;
    let systems = [
        SystemKey::CudaSs,
        SystemKey::CudaMs,
        SystemKey::Mps,
        SystemKey::PaellaSs,
        SystemKey::PaellaMsJbj,
        SystemKey::PaellaMsKbk,
        SystemKey::PaellaSjf,
        SystemKey::PaellaRr,
        SystemKey::Paella,
    ];
    let n = scaled(1_500);
    let rates = [50.0, 100.0, 150.0, 225.0, 300.0, 400.0];
    let sigmas = [1.5, 2.0];
    // Grid: sigma × system × rate; each cell returns its full row block.
    let cells = sigmas.len() * systems.len() * rates.len();
    let grid = paella_bench::sweep::run_grid(cells, |i| {
        let sigma = sigmas[i / (systems.len() * rates.len())];
        let key = systems[(i / rates.len()) % systems.len()];
        let rate = rates[i % rates.len()];
        let mut sys = make_system(key, device(), 29);
        let short = sys.register_model(&short_model);
        let long = sys.register_model(&long_model);
        let mix = Mix::weighted(vec![(short, ratio), (long, 1.0)]);
        // MPS supports only a handful of client processes (§7 note).
        let clients = if key == SystemKey::Mps { 7 } else { 8 };
        let spec = WorkloadSpec {
            sigma,
            clients,
            ..WorkloadSpec::steady(rate, n)
        };
        let arrivals = generate(&spec, &mix);
        let mut stats = run_trace(sys.as_mut(), &arrivals, n / 10);
        let labelled = [
            ("All".to_string(), Some(stats.p99_us())),
            ("ResNet-18".to_string(), stats.model_p99_us(short)),
            ("InceptionV3".to_string(), stats.model_p99_us(long)),
        ];
        let mut rows = Vec::new();
        for (label, p99) in labelled {
            if let Some(p99) = p99 {
                rows.push([
                    f(sigma),
                    key.key().to_string(),
                    label,
                    f(rate),
                    f(stats.throughput),
                    f(p99 / 1_000.0),
                ]);
            }
        }
        rows
    });
    for block in &grid {
        for r in block {
            row(r);
        }
    }
}
