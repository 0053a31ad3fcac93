//! Figure 11: average throughput versus p99 latency for a uniform mix of
//! all eight Table 2 models, under bursty (σ = 2) and less-bursty (σ = 1.5)
//! lognormal arrivals, across every compared system. Per-model p99 curves
//! come from the same mixed runs.

use paella_bench::{device, f, header, row, scaled, zoo};
use paella_workload::{generate, make_system, run_trace, Mix, SystemKey, WorkloadSpec};

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
    let mut zoo = zoo();
    let table2 = zoo.table2();
    let names: Vec<std::sync::Arc<str>> = table2.iter().map(|m| m.name.clone()).collect();
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
        let mut sys = make_system(key, device(), 23);
        let ids: Vec<_> = table2.iter().map(|m| sys.register_model(m)).collect();
        let spec = WorkloadSpec {
            sigma,
            clients: 8,
            ..WorkloadSpec::steady(rate, n)
        };
        let arrivals = generate(&spec, &Mix::uniform(&ids));
        let mut stats = run_trace(sys.as_mut(), &arrivals, n / 10);
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
