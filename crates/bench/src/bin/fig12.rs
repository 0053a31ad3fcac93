//! Figure 12: short vs long jobs — a mix of ResNet-18 and InceptionV3 with
//! the short:long request ratio inversely proportional to job size, under
//! both lognormal burstiness settings, including the MPS baseline. Paella's
//! SRPT-like policy improves short-job p99 latency substantially.

use paella_bench::claims::fig12;
use paella_bench::{device, f, header, row, scaled};
use paella_workload::SystemKey;

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
        let (mut stats, [short, long]) = fig12(device(), key, sigma, rate, n, ratio, 29);
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
