//! Figure 11: average throughput versus p99 latency for a uniform mix of
//! all eight Table 2 models, under bursty (σ = 2) and less-bursty (σ = 1.5)
//! lognormal arrivals, across every compared system. Per-model p99 curves
//! come from the same mixed runs.

use paella_bench::claims::fig11;
use paella_bench::{f, header, row, scaled};
use paella_models::registry;
use paella_workload::SystemKey;

fn main() {
    header(
        "Figure 11",
        "throughput vs p99 latency, uniform 8-model mix, sigma in {2, 1.5}",
    );
    row(&[
        "sigma".into(),
        "system".into(),
        "model".into(),
        "offered_req_per_s".into(),
        "throughput_req_per_s".into(),
        "p99_ms".into(),
    ]);
    let names: Vec<_> = registry()
        .into_iter()
        .filter(|e| e.in_table2)
        .map(|e| e.name)
        .collect();
    let systems = [
        SystemKey::CudaSs,
        SystemKey::CudaMs,
        SystemKey::Triton,
        SystemKey::PaellaSs,
        SystemKey::PaellaMsJbj,
        SystemKey::PaellaMsKbk,
        SystemKey::PaellaSjf,
        SystemKey::PaellaRr,
        SystemKey::Paella,
    ];
    let n = scaled(1_200);
    let rates = [25.0, 50.0, 100.0, 150.0, 225.0, 300.0, 400.0];
    let sigmas = [2.0, 1.5];
    // Grid: sigma × system × rate; each cell returns its whole row block
    // (the "All" aggregate plus every per-model breakout) so printing stays
    // in grid order.
    let cells = sigmas.len() * systems.len() * rates.len();
    let grid = paella_bench::sweep::run_grid(cells, |i| {
        let sigma = sigmas[i / (systems.len() * rates.len())];
        let key = systems[(i / rates.len()) % systems.len()];
        let rate = rates[i % rates.len()];
        let (mut stats, ids) = fig11(key, sigma, rate, n, 23);
        let mut rows = vec![[
            f(sigma),
            key.key().to_string(),
            "All".to_string(),
            f(rate),
            f(stats.throughput),
            f(stats.p99_us() / 1_000.0),
        ]];
        for (id, name) in ids.iter().zip(&names) {
            if let Some(p99) = stats.model_p99_us(*id) {
                rows.push([
                    f(sigma),
                    key.key().to_string(),
                    name.to_string(),
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
