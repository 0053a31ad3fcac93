//! Figure 14: client CPU utilization under the three §5.3 result-delivery
//! protocols — plain Unix-socket IPC, unmitigated polling, and Paella's
//! hybrid interrupt-then-poll — while submitting a stream of small jobs.

use paella_bench::{device, f, header, row, scaled};
use paella_channels::ChannelConfig;
use paella_core::{Dispatcher, DispatcherConfig, ServingSystem, SrptDeficitScheduler, WakeupMode};
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_workload::{client_utilization, generate, run_trace, Mix, WorkloadSpec};

fn run(mode: WakeupMode) -> (f64, f64) {
    let mut cfg = DispatcherConfig::paella();
    cfg.wakeup = mode;
    let mut sys = Dispatcher::new(
        device(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        37,
    );
    // "A small synthetic model" at ~6,700 requests per second from one
    // client — the paper's upper bound on client load. The pinned-output
    // model's last operator is ~22% of the job, the fraction the hybrid
    // client's polling window (and thus CPU share) tracks.
    let m = sys.register_model(&synthetic::tiny_model_pinned(
        SimDuration::from_micros(94),
        SimDuration::from_micros(26),
    ));
    let n = scaled(6_700);
    let spec = WorkloadSpec {
        clients: 1,
        ..WorkloadSpec::steady(6_700.0, n)
    };
    let arrivals = generate(&spec, &Mix::single(m));
    let stats = run_trace(&mut sys, &arrivals, n / 10);
    let util = client_utilization(&stats.completions, mode);
    (util * 100.0, stats.mean_us())
}

fn main() {
    header(
        "Figure 14",
        "client CPU utilization under socket / polling / hybrid result delivery (~6,700 req/s of small jobs)",
    );
    row(&[
        "protocol".into(),
        "cpu_utilization_pct".into(),
        "mean_latency_us".into(),
    ]);
    // One run per delivery protocol.
    let modes = [WakeupMode::Socket, WakeupMode::Polling, WakeupMode::Hybrid];
    let grid = paella_bench::sweep::run_grid(modes.len(), |i| run(modes[i]));
    let labels = ["baseline-socket", "polling", "paella-hybrid"];
    for (label, &(util, lat)) in labels.iter().zip(&grid) {
        row(&[label.to_string(), f(util), f(lat)]);
    }
    println!(
        "# paper: socket and polling sit at the extremes; hybrid averages ~23% \
         and sacrifices no appreciable latency vs polling, while the socket \
         baseline is ~10% slower"
    );
}
