//! Fig. G: p99 tail-latency blame across systems (DESIGN §12).
//!
//! Runs the same contended Fig. 2-style workload through the CUDA-SS and
//! CUDA-MS baselines and two Paella configurations (fault-free, and with
//! injected kernel faults + deadlines), decomposes every completed
//! request's JCT into the eight-phase journey taxonomy, and reports which
//! phase dominates the p99 tail of each system. The paper's qualitative
//! claim, made quantitative: the direct-submission baselines blame the
//! *queue* (head-of-line wait behind long kernels), while Paella's SRPT +
//! deficit scheduler shifts the blame to the *device* — the tail request is
//! actually computing, not waiting.
//!
//! Every journey is conservation-checked inline (phases must sum exactly
//! to the JCT; any slack aborts the run), and the faulted Paella cell also
//! prints the per-tenant SLO ledger with its failure-reason breakdown.
//!
//! `--smoke` runs a fixed small grid whose output is committed to
//! EXPERIMENTS.md; CI replays it and the determinism test re-runs it at
//! several thread counts expecting byte-identical stdout.

use paella_bench::{device, header, scaled};
use paella_channels::ChannelConfig;
use paella_core::{Dispatcher, DispatcherConfig, ServingSystem, SrptDeficitScheduler};
use paella_models::synthetic;
use paella_sim::SimDuration;
use paella_telemetry::{extract_journeys, p99_blame, MetricsSnapshot};
use paella_workload::{generate, make_system, Mix, RunStats, SystemKey, WorkloadSpec};

const SEED: u64 = 19;
const RATE: f64 = 22_000.0;

/// The compared cells, in report order.
const CELLS: [&str; 4] = ["CUDA-SS", "CUDA-MS", "Paella", "Paella+faults"];

fn build(i: usize) -> Box<dyn ServingSystem> {
    match CELLS[i] {
        "CUDA-SS" => make_system(SystemKey::CudaSs, device(), SEED),
        "CUDA-MS" => make_system(SystemKey::CudaMs, device(), SEED),
        "Paella" => make_system(SystemKey::Paella, device(), SEED),
        _ => {
            // Paella under fire: injected kernel faults exercise the
            // retry-backoff phase, deadlines exercise the SLO ledger's
            // miss/failure paths.
            let mut cfg = DispatcherConfig::paella();
            cfg.kernel_fault_rate = 0.08;
            cfg.retry_budget = 2;
            cfg.deadline_factor = Some(1.6);
            Box::new(Dispatcher::new(
                device(),
                ChannelConfig::default(),
                Box::new(SrptDeficitScheduler::new(Some(SystemKey::DEFAULT_FAIRNESS))),
                cfg,
                SEED,
            ))
        }
    }
}

fn run_cell(i: usize, requests: usize) -> RunStats {
    let mut sys = build(i);
    sys.enable_telemetry();
    let big = sys.register_model(&synthetic::fig2_job());
    let small = sys.register_model(&synthetic::uniform_job(
        "small",
        2,
        SimDuration::from_micros(40),
        4,
    ));
    let spec = WorkloadSpec {
        clients: 6,
        seed: SEED,
        ..WorkloadSpec::steady(RATE, requests)
    };
    let arrivals = generate(&spec, &Mix::uniform(&[big, small]));
    paella_workload::run_trace(sys.as_mut(), &arrivals, 0)
}

/// Renders one tenant's SLO ledger row, failure reasons inlined.
fn slo_row(tenant: u32, s: &paella_telemetry::TenantSloSummary) -> String {
    let failures = if s.failures.is_empty() {
        "-".to_string()
    } else {
        s.failures
            .iter()
            .map(|(r, n)| format!("{r}:{n}"))
            .collect::<Vec<_>>()
            .join(";")
    };
    format!(
        "{},{},{},{},{},{},{}",
        tenant,
        s.completed,
        s.slo_ok,
        s.slo_miss,
        s.burn_ns,
        s.attainment_bp(),
        failures
    )
}

fn blame_and_slo(name: &str, stats: &RunStats) -> (String, Vec<String>) {
    let trace = stats.trace.as_ref().expect("telemetry was enabled");
    let journeys = extract_journeys(trace);
    // The oracle in miniature: every journey conserves exactly, and there
    // is one journey per observed completion — no sampled, no dropped.
    for j in &journeys {
        j.breakdown
            .check_conservation()
            .unwrap_or_else(|e| panic!("{name} job {}: {e}", j.job));
    }
    assert_eq!(
        journeys.len(),
        stats.completions.len(),
        "{name}: one journey per completion"
    );
    let report = p99_blame(&journeys).expect("non-empty run");
    let metrics: &MetricsSnapshot = stats.metrics.as_ref().expect("metrics were enabled");
    let slo = metrics
        .tenant_slo
        .iter()
        .map(|(t, s)| slo_row(*t, s))
        .collect();
    (format!("{name},{}", report.row()), slo)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Fig. G",
        "p99 tail-latency blame: which journey phase dominates the tail",
    );
    let requests = if smoke { 240 } else { scaled(2_000) };

    let cells = paella_bench::sweep::run_grid(CELLS.len(), |i| {
        let stats = run_cell(i, requests);
        blame_and_slo(CELLS[i], &stats)
    });

    println!(
        "system,requests,tail,p99_jct_ns,dominant,{}",
        paella_telemetry::PHASES
            .map(|p| format!("{p}_bp"))
            .join(",")
    );
    for (blame, _) in &cells {
        println!("{blame}");
    }

    // The SLO ledger for the faulted cell: per-tenant deadline attainment,
    // error-budget burn, and the failure-reason breakdown.
    println!("# per-tenant SLO ledger (Paella+faults)");
    println!("tenant,completed,slo_ok,slo_miss,burn_ns,attainment_bp,failures");
    for line in &cells.last().expect("grid ran").1 {
        println!("{line}");
    }
}
