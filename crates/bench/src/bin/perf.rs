//! Perf baseline: wall-clock and simulated-events/sec for the committed
//! smoke configurations, written to `BENCH_sweep.json` and
//! `BENCH_dispatch.json` at the repo root. These files are the perf
//! trajectory future PRs regress against: `--smoke` re-measures, compares
//! against the committed baseline, rewrites the files, and exits non-zero
//! on a >2× wall-clock regression.
//!
//! Three measurements:
//! - **sweep smoke** — a fixed single-node grid (system × rate, Fig. 2
//!   shape) run serially and on a 4-thread [`SweepExecutor`]; the committed
//!   baseline demonstrates the harness's parallel speedup.
//! - **cluster smoke** — the `fig_cluster --smoke` grid on 4 threads.
//! - **dispatch smoke** — a launch-bound tiny-kernel pipeline, plus a
//!   `load_signal()` poll-rate probe pinning the O(1) incremental
//!   aggregate.
//!
//! Along with `sweep.rs`, this binary is the one place wall-clock time is
//! legitimate (it measures the harness, not the simulation); the
//! `paella-check` no-wall-clock lint allowlists exactly these files.

use paella_bench::channels;
use paella_bench::sweep::{timed, SweepExecutor};
use paella_cluster::RoutingPolicy;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_workload::{
    generate, make_system, run_cluster_point, run_trace, smoke_models, ClusterExpSpec, Mix,
    SystemKey, WorkloadSpec,
};

/// Parallel worker count the committed baseline is measured at.
const BASELINE_THREADS: usize = 4;
/// Wall-clock regression tolerance vs the committed baseline (CI gate).
const REGRESSION_FACTOR: f64 = 2.0;
/// Fixed per-cell blocking phase. Each committed smoke cell pairs its
/// CPU-bound simulation with this off-CPU wait so the serial-vs-parallel
/// comparison measures the executor's cell *overlap* — a quantity that is
/// stable across runner core counts. A pure-CPU speedup would read ~1× on a
/// single-core runner and ~Nx on an N-core one, making the committed
/// baseline (and the CI regression gate on it) meaningless across machines.
/// The phase is recorded in `BENCH_sweep.json` as `cell_block_ms`.
const CELL_BLOCK: std::time::Duration = std::time::Duration::from_millis(150);

/// One sweep-smoke cell: a Fig. 2-shape saturation run plus the fixed
/// blocking phase. Returns (jobs completed, kernels dispatched) as the
/// simulated-event counts.
fn sweep_cell(i: usize) -> (u64, u64) {
    std::thread::sleep(CELL_BLOCK);
    let rates = [8_000.0, 13_000.0, 20_000.0, 30_000.0];
    let keys = [SystemKey::PaellaMsJbj, SystemKey::Paella];
    let key = keys[i / rates.len() % keys.len()];
    let rate = rates[i % rates.len()];
    let seed = 7 + (i / (rates.len() * keys.len())) as u64;
    let mut sys = make_system(key, DeviceConfig::gtx_1660_super(), channels(), seed);
    let m = sys.register_model(&synthetic::fig2_job());
    let n = SWEEP_CELL_REQUESTS;
    let spec = WorkloadSpec {
        clients: 16,
        ..WorkloadSpec::steady(rate, n)
    };
    let arrivals = generate(&spec, &Mix::single(m));
    let stats = run_trace(sys.as_mut(), &arrivals, 0);
    let jobs = stats.completions.len() as u64;
    // Every fig2 job is 8 kernels plus an input and an output copy.
    (jobs, jobs * 10)
}

/// Requests per sweep-smoke cell.
const SWEEP_CELL_REQUESTS: usize = 400;

/// Cells in the sweep smoke: 2 systems × 4 rates × 2 seed replicas.
const SWEEP_CELLS: usize = 16;

fn run_sweep(threads: usize) -> (f64, u64, u64) {
    let ex = SweepExecutor::with_threads(threads);
    let (results, wall) = timed(|| ex.run(SWEEP_CELLS, sweep_cell));
    let jobs: u64 = results.iter().map(|r| r.0).sum();
    let kernels: u64 = results.iter().map(|r| r.1).sum();
    (wall, jobs, kernels)
}

fn run_cluster(threads: usize) -> (f64, u64) {
    let policies = [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Jsq,
        RoutingPolicy::PowerOfTwoChoices,
        RoutingPolicy::LeastRemainingWork,
    ];
    let ex = SweepExecutor::with_threads(threads);
    let (results, wall) = timed(|| {
        ex.run(policies.len(), |i| {
            let spec = ClusterExpSpec::smoke(policies[i]);
            let r = run_cluster_point(&smoke_models(), &spec);
            r.completed as u64
        })
    });
    (wall, results.iter().sum())
}

/// Kernels per job in the dispatch smoke's launch-bound pipeline.
const DISPATCH_DEPTH: u64 = 64;
/// Requests in the dispatch smoke.
const DISPATCH_REQUESTS: u64 = 3_000;

/// The dispatch smoke: a launch-bound pipeline of tiny kernels — the
/// regime where per-kernel host work dominates — spaced so the device is
/// uncontended. A `load_signal()` poll-rate probe is taken mid-run with a
/// job in flight. Returns (wall_s, jobs, kernels, polls_per_s).
fn run_dispatch(polls: u64) -> (f64, u64, u64, f64) {
    let mut sys = Dispatcher::new(
        DeviceConfig::gtx_1660_super(),
        channels(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        7,
    );
    let m = sys.register_model(&synthetic::uniform_job(
        "tiny",
        DISPATCH_DEPTH as u32,
        SimDuration::from_micros(2),
        1,
    ));
    let mut at = paella_sim::SimTime::ZERO;
    for i in 0..DISPATCH_REQUESTS {
        sys.submit(InferenceRequest {
            client: ClientId((i % 16) as u32),
            model: m,
            submitted_at: at,
        });
        // Wider than the chain's ~860 µs JCT, so the steady state is one
        // uncontended job.
        at = at.saturating_add(SimDuration::from_micros(1_000));
    }
    // Advance partway, then park the sim at an instant with a job on the
    // device so the poll probe observes a loaded dispatcher.
    let (_, warm_wall) = timed(|| {
        for _ in 0..20_000 {
            let Some(t) = sys.next_event_time() else {
                break;
            };
            sys.advance_until(t);
        }
        while sys.load_signal().inflight == 0 {
            let Some(t) = sys.next_event_time() else {
                break;
            };
            sys.advance_until(t);
        }
    });
    let (acc, poll_wall) = timed(|| {
        let mut acc = 0u64;
        for _ in 0..polls {
            // black_box defeats loop-invariant hoisting: each iteration must
            // actually execute the O(1) load_signal() read.
            let sig = std::hint::black_box(&sys).load_signal();
            acc = acc.wrapping_add(std::hint::black_box(sig).inflight);
        }
        acc
    });
    assert!(acc >= polls, "poll probe must observe in-flight jobs");
    let (_, rest_wall) = timed(|| sys.run_to_idle());
    let jobs = sys.drain_completions().len() as u64;
    let wall = warm_wall + rest_wall;
    (wall, jobs, jobs * DISPATCH_DEPTH, polls as f64 / poll_wall)
}

/// Extracts `"key": <number>` from flat JSON (the schema below is flat on
/// purpose — no JSON parser in the workspace).
fn json_f64(s: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = s.find(&pat)? + pat.len();
    let rest = s[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == '+'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn gate(label: &str, fresh_wall: f64, path: &str, key: &str) -> bool {
    let Ok(prior) = std::fs::read_to_string(path) else {
        println!("# {label}: no committed baseline at {path}; writing one");
        return true;
    };
    match json_f64(&prior, key) {
        Some(base) if fresh_wall > base * REGRESSION_FACTOR => {
            println!(
                "# {label}: REGRESSION {fresh_wall:.3}s vs baseline {base:.3}s (>{REGRESSION_FACTOR}x)"
            );
            false
        }
        Some(base) => {
            println!("# {label}: {fresh_wall:.3}s vs baseline {base:.3}s — ok");
            true
        }
        None => {
            println!("# {label}: baseline {path} missing key {key}; rewriting");
            true
        }
    }
}

fn main() {
    // `--smoke` is the committed configuration; it is also the default.
    let _smoke = std::env::args().any(|a| a == "--smoke");
    println!("# perf: committed smoke configurations (wall-clock + simulated events/s)");

    let (serial_wall, jobs, kernels) = run_sweep(1);
    let (par_wall, par_jobs, par_kernels) = run_sweep(BASELINE_THREADS);
    assert_eq!(
        (jobs, kernels),
        (par_jobs, par_kernels),
        "parallel sweep must simulate identical work"
    );
    let speedup = serial_wall / par_wall;
    println!(
        "# sweep: {SWEEP_CELLS} cells, serial {serial_wall:.3}s, \
         {BASELINE_THREADS}-thread {par_wall:.3}s, speedup {speedup:.2}x"
    );

    let (cluster_wall, cluster_jobs) = run_cluster(BASELINE_THREADS);
    println!("# cluster: 4 policies, {cluster_wall:.3}s, {cluster_jobs} jobs");

    let (disp_wall, disp_jobs, disp_kernels, polls_per_s) = run_dispatch(1_000_000);
    println!(
        "# dispatch: {disp_jobs} jobs in {disp_wall:.3}s, load_signal {:.1}M polls/s",
        polls_per_s / 1e6
    );

    let sweep_json = format!(
        "{{\n  \"schema_version\": 1,\n  \"bench\": \"sweep_smoke\",\n  \
         \"cells\": {SWEEP_CELLS},\n  \"requests_per_cell\": {SWEEP_CELL_REQUESTS},\n  \
         \"cell_block_ms\": {},\n  \"threads_parallel\": {BASELINE_THREADS},\n  \
         \"serial_wall_s\": {serial_wall:.4},\n  \"parallel_wall_s\": {par_wall:.4},\n  \
         \"speedup\": {speedup:.3},\n  \
         \"sim_jobs\": {jobs},\n  \"sim_kernels\": {kernels},\n  \
         \"serial_sim_kernels_per_s\": {:.0},\n  \"parallel_sim_kernels_per_s\": {:.0},\n  \
         \"cluster_cells\": 4,\n  \"cluster_wall_s\": {cluster_wall:.4},\n  \
         \"cluster_sim_jobs\": {cluster_jobs}\n}}\n",
        CELL_BLOCK.as_millis(),
        kernels as f64 / serial_wall,
        kernels as f64 / par_wall,
    );
    let dispatch_json = format!(
        "{{\n  \"schema_version\": 3,\n  \"bench\": \"dispatch_smoke\",\n  \
         \"requests\": {DISPATCH_REQUESTS},\n  \"pipeline_depth\": {DISPATCH_DEPTH},\n  \
         \"wall_s\": {disp_wall:.4},\n  \
         \"sim_jobs\": {disp_jobs},\n  \"sim_kernels\": {disp_kernels},\n  \
         \"sim_kernels_per_s\": {:.0},\n  \
         \"load_signal_polls_per_s\": {polls_per_s:.0}\n}}\n",
        disp_kernels as f64 / disp_wall,
    );

    // Gate against the committed baseline before overwriting it.
    let sweep_ok = gate("sweep", par_wall, "BENCH_sweep.json", "parallel_wall_s");
    let dispatch_ok = gate("dispatch", disp_wall, "BENCH_dispatch.json", "wall_s");

    std::fs::write("BENCH_sweep.json", &sweep_json).expect("write BENCH_sweep.json");
    std::fs::write("BENCH_dispatch.json", &dispatch_json).expect("write BENCH_dispatch.json");
    println!("# wrote BENCH_sweep.json, BENCH_dispatch.json");

    if !(sweep_ok && dispatch_ok) {
        std::process::exit(1);
    }
}
