//! Figure 13: the effect of the §6 fairness threshold. Two job types, the
//! long one with 5x the kernels of the short one, served under heavy load.
//! Lowering the threshold (more fair) trades short-job latency for long-job
//! latency; as it approaches zero the system emulates Paella-SS behaviour.

use paella_bench::{device, f, header, row, scaled};
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_workload::systems::make_paella_with_fairness;
use paella_workload::{generate, run_trace, Mix, WorkloadSpec};

fn main() {
    header(
        "Figure 13",
        "mean latency vs fairness threshold for short and long jobs (long = 5x kernels)",
    );
    row(&[
        "fairness_threshold".into(),
        "short_mean_ms".into(),
        "long_mean_ms".into(),
    ]);
    let short = synthetic::uniform_job("short-5k", 8, SimDuration::from_micros(250), 88);
    let long = synthetic::uniform_job("long-5k", 40, SimDuration::from_micros(250), 88);
    let n = scaled(1_500);
    let thresholds = [
        500.0, 400.0, 300.0, 200.0, 150.0, 125.0, 100.0, 90.0, 80.0, 70.0, 60.0, 50.0, 30.0, 10.0,
        0.5,
    ];
    // One contended run per fairness-threshold point.
    let grid = paella_bench::sweep::run_grid(thresholds.len(), |i| {
        let threshold = thresholds[i];
        let mut sys = make_paella_with_fairness(device(), Some(threshold), 31);
        let s = sys.register_model(&short);
        let l = sys.register_model(&long);
        // Every client issues both job types: with SRPT the per-client
        // deficits stay nearly balanced, so a high threshold means fairness
        // almost never overrides SRPT (long jobs starve), while a near-zero
        // threshold lets any imbalance force oldest-job service — emulating
        // Paella-SS, exactly as §7.2 describes.
        let spec = WorkloadSpec {
            clients: 8,
            ..WorkloadSpec::steady(900.0, n)
        };
        let mix = Mix::weighted(vec![(s, 1.0), (l, 1.0)]);
        let arrivals = generate(&spec, &mix);
        let stats = run_trace(sys.as_mut(), &arrivals, n / 10);
        let short_mean = stats.model_mean_us(s).unwrap_or(f64::NAN) / 1_000.0;
        let long_mean = stats.model_mean_us(l).unwrap_or(f64::NAN) / 1_000.0;
        (short_mean, long_mean)
    });
    let mut short_series = Vec::new();
    let mut long_series = Vec::new();
    for (&threshold, &(short_mean, long_mean)) in thresholds.iter().zip(&grid) {
        row(&[f(threshold), f(short_mean), f(long_mean)]);
        // The paper draws the axis reversed (less fair on the left); negate
        // so the chart reads the same way.
        short_series.push((-threshold, short_mean));
        long_series.push((-threshold, long_mean));
    }
    println!();
    paella_bench::chart::print_xy_chart(
        "mean latency (ms) vs fairness threshold (less fair -> more fair)",
        &[("short", &short_series), ("long", &long_series)],
        60,
        12,
        false,
    );
}
