//! Figure 9: the impact of scheduling complexity on Paella's throughput.
//! Synthetic delay is injected into every scheduling decision while serving
//! the MNIST-scale model at saturation; throughput holds until the
//! per-decision cost reaches the ~10 µs range, then collapses.

use paella_bench::{device, f, header, row, scaled, zoo};
use paella_sim::SimDuration;
use paella_workload::systems::make_paella_with_delay;
use paella_workload::{generate, run_trace, Mix, WorkloadSpec};

fn main() {
    header(
        "Figure 9",
        "throughput vs injected per-decision scheduling delay (MNIST-scale model)",
    );
    row(&["delay_us".into(), "throughput_req_per_s".into()]);
    let mut zoo = zoo();
    let model = zoo.get("mnist").clone();
    let n = scaled(4_000);
    let delays = [0.0f64, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0];
    // One saturation run per injected-delay point.
    let grid = paella_bench::sweep::run_grid(delays.len(), |i| {
        let delay_us = delays[i];
        let mut sys = make_paella_with_delay(device(), SimDuration::from_micros_f64(delay_us), 13);
        let id = sys.register_model(&model);
        // Offer far more load than the dispatcher can take so the measured
        // throughput is the saturation point.
        let spec = WorkloadSpec {
            clients: 16,
            ..WorkloadSpec::steady(100_000.0, n)
        };
        let arrivals = generate(&spec, &Mix::single(id));
        let stats = run_trace(sys.as_mut(), &arrivals, n / 10);
        stats.throughput
    });
    let mut series = Vec::new();
    for (&delay_us, &throughput) in delays.iter().zip(&grid) {
        row(&[f(delay_us), f(throughput)]);
        series.push((delay_us.max(0.01).log10(), throughput));
    }
    println!();
    paella_bench::chart::print_xy_chart(
        "throughput (req/s) vs log10(delay_us)",
        &[("paella", &series)],
        60,
        12,
        false,
    );
}
