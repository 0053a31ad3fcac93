//! Telemetry demo: runs a small Fig. 2-style contended workload with
//! structured tracing enabled and writes a Chrome-trace JSON file
//! (`results/trace_dump.json`) openable in `chrome://tracing` or Perfetto,
//! plus a text summary on stdout.
//!
//! Everything is stamped on virtual time: re-running with the same seed
//! produces a byte-identical trace file.

use std::fs;

use paella_bench::{channels, header};
use paella_core::{Dispatcher, DispatcherConfig, ServingSystem, SrptDeficitScheduler};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_telemetry::{chrome_trace_json, text_summary, validate_chrome_trace};
use paella_workload::{generate, run_trace, Mix, WorkloadSpec};

fn main() {
    header(
        "Trace dump",
        "Chrome-trace export of a small contended workload (fixed seed)",
    );

    // A single cell on the sweep harness — the output contract (same seed ⇒
    // byte-identical trace) is the same one every grid cell satisfies.
    let mut grid = paella_bench::sweep::run_grid(1, |_| {
        let mut sys = Dispatcher::new(
            DeviceConfig::gtx_1660_super(),
            channels(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            7,
        );
        sys.enable_telemetry();

        // Two model classes sharing the device: the paper's Fig. 2 job (eight
        // dependent ~300 µs kernels) against a small latency-sensitive job, so
        // the trace shows queuing, deficit overrides, and occupancy holds.
        let big = sys.register_model(&synthetic::fig2_job());
        let small = sys.register_model(&synthetic::uniform_job(
            "small",
            2,
            SimDuration::from_micros(40),
            4,
        ));
        let spec = WorkloadSpec {
            clients: 8,
            ..WorkloadSpec::steady(9_000.0, 120)
        };
        let arrivals = generate(&spec, &Mix::uniform(&[big, small]));
        run_trace(&mut sys, &arrivals, 0)
    });
    let stats = grid.pop().expect("one cell");

    let trace = stats.trace.as_ref().expect("telemetry was enabled");
    let json = chrome_trace_json(trace);
    let n = validate_chrome_trace(&json).expect("exporter emits valid Chrome-trace JSON");

    fs::create_dir_all("results").expect("create results/");
    let path = "results/trace_dump.json";
    fs::write(path, &json).expect("write trace file");

    print!("{}", text_summary(trace, stats.metrics.as_ref()));
    println!(
        "jobs: {} completed, throughput {:.0}/s",
        stats.completions.len(),
        stats.throughput
    );
    println!("wrote {path}: {n} events ({} bytes)", json.len());
    println!("open in chrome://tracing or https://ui.perfetto.dev");
}
