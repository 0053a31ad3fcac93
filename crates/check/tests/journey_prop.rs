//! Lockstep property tests for the journey-conservation oracle: a *real*
//! telemetry-enabled dispatcher — faults off and on — and a *real* LLM
//! engine (both policies, loose and tight KV pools) versus
//! [`paella_check::check_journeys`].
//!
//! The oracle demands exactness: every completed request's eight journey
//! phases must sum to its JCT with zero slack, the second-level queue split
//! must conserve the first-level queuing number, and journeys must match the
//! completions the harness observed one-for-one. Any rounding bug, any
//! double-counted wait interval, any missed emission path shows up here.

use std::collections::HashMap;

use proptest::prelude::*;

use paella_check::check_journeys;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};

/// Cheap deterministic stream of choices derived from one generated seed.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

struct RunOut {
    log: paella_telemetry::TraceLog,
    completed: Vec<(u64, u64)>, // (job id, jct ns)
    failed: usize,
}

/// Runs a seeded contended workload on a real Paella dispatcher with
/// telemetry on, returning the trace and the harness-side ground truth.
fn run_once(seed: u64, n: usize, fault_rate: f64, deadlines: bool) -> RunOut {
    let mut cfg = DispatcherConfig::paella();
    cfg.kernel_fault_rate = fault_rate;
    cfg.retry_budget = 2;
    if deadlines {
        cfg.deadline_factor = Some(30.0);
    }
    let mut sys = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        paella_channels::ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        seed,
    );
    sys.enable_telemetry();
    let a = sys.register_model(&synthetic::fig2_job());
    let b = sys.register_model(&synthetic::uniform_job(
        "small",
        2,
        SimDuration::from_micros(40),
        4,
    ));
    let mut s = seed ^ 0x9E3779B97F4A7C15;
    let mut at = 0u64;
    for _ in 0..n {
        at += 20_000 + nx(&mut s) % 150_000; // 20–170 µs inter-arrival
        let model = if nx(&mut s).is_multiple_of(2) { a } else { b };
        sys.submit(InferenceRequest {
            client: ClientId((nx(&mut s) % 6) as u32),
            model,
            submitted_at: SimTime::from_nanos(at),
        });
    }
    sys.run_to_idle();
    let completed = sys
        .drain_completions()
        .into_iter()
        .map(|c| (c.job.0, c.jct().as_nanos()))
        .collect();
    let failed = sys.drain_failures().len();
    RunOut {
        log: sys.take_trace_log().expect("telemetry on"),
        completed,
        failed,
    }
}

fn assert_lockstep(out: &RunOut, n: usize) -> Result<(), TestCaseError> {
    // The oracle checks every journey; its count must equal the harness's.
    let checked = check_journeys(&out.log).map_err(|e| TestCaseError::fail(e.clone()))?;
    prop_assert_eq!(checked, out.completed.len(), "journey coverage");
    prop_assert_eq!(
        out.completed.len() + out.failed,
        n,
        "every request completes or fails"
    );
    // Cross-check: each journey's JCT equals the JobCompletion the client
    // actually observed — the trace and the API tell one story.
    let by_job: HashMap<u64, u64> = paella_telemetry::extract_journeys(&out.log)
        .into_iter()
        .map(|j| (j.job, j.breakdown.jct_ns))
        .collect();
    for &(job, jct) in &out.completed {
        prop_assert_eq!(by_job.get(&job).copied(), Some(jct), "job {} jct", job);
    }
    Ok(())
}

/// Same lockstep, LLM tier: a real [`paella_llm::LlmEngine`] under a tight
/// KV pool (admission blocking and recompute preemption both fire), checked
/// for zero-slack journey conservation *plus* the prefill/decode device
/// sub-split the autoregressive tier introduces.
fn run_llm_once(seed: u64, n: usize, policy: paella_llm::LlmPolicy, pages: u64) -> RunOut {
    use paella_core::types::ModelId;
    let mut cfg = paella_llm::LlmEngineConfig::new(policy);
    cfg.kv_pages_total = pages;
    cfg.seed = seed;
    let mut sys = paella_llm::LlmEngine::new(cfg);
    sys.enable_telemetry();
    sys.add_model(paella_llm::LlmModelSpec::chat("chat-7b", 96.0, 24.0));
    let mut s = seed ^ 0x9E3779B97F4A7C15;
    let mut at = 0u64;
    for _ in 0..n {
        at += 10_000 + nx(&mut s) % 80_000; // 10–90 µs inter-arrival
        sys.submit(InferenceRequest {
            client: ClientId((nx(&mut s) % 6) as u32),
            model: ModelId(0),
            submitted_at: SimTime::from_nanos(at),
        });
    }
    sys.run_to_idle();
    let completed = sys
        .drain_completions()
        .into_iter()
        .map(|c| (c.job.0, c.jct().as_nanos()))
        .collect();
    let failed = sys.drain_failures().len();
    RunOut {
        log: sys.take_trace_log().expect("telemetry on"),
        completed,
        failed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn journeys_conserve_exactly_fault_free(seed in 0u64..1_000_000, n in 10usize..50) {
        let out = run_once(seed, n, 0.0, false);
        prop_assert_eq!(out.failed, 0, "no faults configured");
        assert_lockstep(&out, n)?;
    }

    #[test]
    fn journeys_conserve_exactly_under_faults(seed in 0u64..1_000_000, n in 10usize..50) {
        // Kernel faults inject retry backoff (and some terminal
        // cancellations); deadlines add the other cancel path. Survivors'
        // journeys must stay exact regardless.
        let out = run_once(seed, n, 0.08, true);
        assert_lockstep(&out, n)?;
    }

    #[test]
    fn llm_journeys_conserve_exactly(
        seed in 0u64..1_000_000,
        n in 10usize..40,
        cb in any::<bool>(),
        tight in any::<bool>(),
    ) {
        // `check_journeys` also enforces `check_device_split` on every
        // journey, so prefill + decode attribution must be exact even
        // across KV stalls and recompute preemptions (tight pool).
        let policy = if cb {
            paella_llm::LlmPolicy::ContinuousBatching
        } else {
            paella_llm::LlmPolicy::SrptDeficit
        };
        let pages = if tight { 64 } else { 4096 };
        let out = run_llm_once(seed, n, policy, pages);
        assert_lockstep(&out, n)?;
    }
}
