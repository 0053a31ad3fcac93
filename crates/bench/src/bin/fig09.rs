//! Figure 9: the impact of scheduling complexity on Paella's throughput.
//! Synthetic delay is injected into every scheduling decision while serving
//! the MNIST-scale model at saturation; throughput holds until the
//! per-decision cost reaches the ~10 µs range, then collapses.

use paella_bench::claims::fig09;
use paella_bench::{f, header, row, scaled};

fn main() {
    header(
        "Figure 9",
        "throughput vs injected per-decision scheduling delay (MNIST-scale model)",
    );
    row(&["delay_us".into(), "throughput_req_per_s".into()]);
    let n = scaled(4_000);
    let delays = [0.0f64, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0];
    // One saturation run per injected-delay point.
    let grid = paella_bench::sweep::run_grid(delays.len(), |i| fig09(delays[i], n, 13));
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
