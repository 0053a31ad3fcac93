//! The LLM experiment: autoregressive chat traffic with a Zipf-skewed
//! tenant mix over a [`paella_llm::LlmEngine`], reduced to the two numbers
//! LLM serving is judged on — TTFT (time to first token: how fast the
//! stream starts) and TPOT (time per output token: how smoothly it flows).
//!
//! The comparison this harness pins down is the paper's dispatcher policy
//! versus iteration-level continuous batching. SRPT-with-deficit ranks
//! *jobs* and runs them one step at a time, so every concurrent decode
//! stream pays the full fixed decode cost (weight streaming) per token;
//! continuous batching co-schedules all decode streams each iteration and
//! amortizes that fixed cost across the batch. The committed smoke
//! configuration shows the effect: continuous batching wins TPOT p99 by a
//! wide margin while holding TTFT p99 in the same band.

use paella_core::ModelId;
use paella_llm::{LlmEngine, LlmEngineConfig, LlmModelSpec, LlmPolicy};
use paella_sim::dist::{Distribution, LogNormal};
use paella_sim::{SimDuration, SimTime, Xoshiro256pp};

use crate::gen::Arrival;
use crate::runner::run_trace;

/// One LLM experiment point.
#[derive(Clone, Copy, Debug)]
pub struct LlmExpSpec {
    /// Iteration-formation policy under test.
    pub policy: LlmPolicy,
    /// Offered load, requests per second.
    pub rate_per_sec: f64,
    /// Requests to generate.
    pub requests: usize,
    /// Completions excluded from statistics while the system warms up.
    pub warmup: usize,
    /// Distinct tenants (clients).
    pub clients: u32,
    /// Zipf exponent of the tenant skew: tenant `i` submits with weight
    /// `1/(i+1)^s`, so one hot tenant dominates like real multi-tenant
    /// serving.
    pub tenant_skew: f64,
    /// KV pool size, pages. Sized so bursts contend (admission blocks and
    /// recompute preemption fires) without collapsing throughput.
    pub kv_pages: u64,
    /// Seed for the engine (length sampling) and the arrival trace.
    pub seed: u64,
}

impl LlmExpSpec {
    /// The committed smoke configuration: one chat model (~128-token
    /// prompts, ~32-token outputs), 8 Zipf(1.1) tenants, offered load set
    /// to ~70% of the SRPT baseline's serial decode capacity — high enough
    /// that the batch-of-1 fixed-cost penalty dominates its inter-token
    /// gaps, low enough that both policies finish every request.
    pub fn smoke(policy: LlmPolicy) -> Self {
        LlmExpSpec {
            policy,
            rate_per_sec: 350.0,
            requests: 600,
            warmup: 100,
            clients: 8,
            tenant_skew: 1.1,
            // ~9 mean-sized sequences: bursts contend (recompute
            // preemption fires) but the heaviest legal prompt still fits,
            // so nothing is shed.
            kv_pages: 96,
            seed: 0x11A_5EED,
        }
    }
}

/// Reduced metrics from one LLM experiment point.
#[derive(Clone, Copy, Debug)]
pub struct LlmExpResult {
    /// Offered load, req/s.
    pub offered: f64,
    /// p99 time-to-first-token over post-warmup completions, µs.
    pub ttft_p99_us: f64,
    /// Mean time-to-first-token, µs.
    pub ttft_mean_us: f64,
    /// p99 time-per-output-token (multi-token completions), µs.
    pub tpot_p99_us: f64,
    /// Mean time-per-output-token, µs.
    pub tpot_mean_us: f64,
    /// Recompute preemptions across the whole run.
    pub preemptions: u64,
    /// Completions observed (including warmup).
    pub completed: usize,
    /// Requests that failed (shed or cancelled).
    pub failed: usize,
}

impl LlmExpResult {
    /// One stable CSV row:
    /// `ttft_p99_us,ttft_mean_us,tpot_p99_us,tpot_mean_us,preempt,done,failed`.
    /// Fixed precision so identical runs print identical bytes.
    pub fn row(&self) -> String {
        format!(
            "{:.1},{:.1},{:.1},{:.1},{},{},{}",
            self.ttft_p99_us,
            self.ttft_mean_us,
            self.tpot_p99_us,
            self.tpot_mean_us,
            self.preemptions,
            self.completed,
            self.failed
        )
    }
}

/// The smoke experiment's model: chat-shaped traffic around 128-token
/// prompts and 32-token outputs (lognormal / geometric tails).
pub fn smoke_llm_model() -> LlmModelSpec {
    LlmModelSpec::chat("chat-7b", 128.0, 32.0)
}

/// Generates the Zipf-tenant arrival trace: lognormal inter-arrivals (σ =
/// 1.5, as in the paper's steady workloads) with each request's tenant
/// drawn from the skewed weights.
pub fn generate_llm_trace(spec: &LlmExpSpec) -> Vec<Arrival> {
    assert!(spec.rate_per_sec > 0.0, "rate must be positive");
    assert!(spec.clients > 0, "need at least one tenant");
    assert!(
        spec.tenant_skew >= 0.0,
        "zipf exponent must be non-negative"
    );
    let weights: Vec<f64> = (0..spec.clients)
        .map(|i| 1.0 / f64::from(i + 1).powf(spec.tenant_skew))
        .collect();
    let total: f64 = weights.iter().sum();
    let gap = LogNormal::with_mean(1.0e6 / spec.rate_per_sec, 1.5);
    let mut rng = Xoshiro256pp::seed_from_u64(spec.seed ^ 0x7E_AA_17);
    let mut t = SimTime::ZERO;
    let mut out = Vec::with_capacity(spec.requests);
    for _ in 0..spec.requests {
        t = t.saturating_add(SimDuration::from_micros_f64(gap.sample(&mut rng)));
        let mut x = rng.next_f64() * total;
        let mut tenant = spec.clients - 1;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                tenant = i as u32;
                break;
            }
            x -= w;
        }
        out.push(Arrival {
            at: t,
            model: ModelId(0),
            client: paella_core::ClientId(tenant),
        });
    }
    out
}

/// Index of the p99 element in a sorted sample of `len` values.
fn p99_idx(len: usize) -> usize {
    ((len - 1) * 99) / 100
}

/// Runs one LLM experiment point: builds a fresh engine with the spec's
/// policy and KV budget, replays the Zipf-tenant trace, and reduces the
/// post-warmup completions to TTFT/TPOT statistics.
pub fn run_llm_point(spec: &LlmExpSpec) -> LlmExpResult {
    let mut cfg = LlmEngineConfig::new(spec.policy);
    cfg.kv_pages_total = spec.kv_pages;
    cfg.seed = spec.seed;
    let mut eng = LlmEngine::new(cfg);
    let model = eng.add_model(smoke_llm_model());
    assert_eq!(model.0, 0, "trace targets model 0");
    let arrivals = generate_llm_trace(spec);
    let stats = run_trace(&mut eng, &arrivals, spec.warmup);

    let mut llm = eng.drain_llm_completions();
    llm.sort_by_key(|c| (c.finished_at, c.job.0));
    let mut ttft_ns: Vec<u64> = Vec::new();
    let mut tpot_ns: Vec<u64> = Vec::new();
    let mut preemptions = 0u64;
    for c in llm.iter().skip(spec.warmup) {
        ttft_ns.push(c.ttft().as_nanos());
        if c.output_tokens > 1 {
            tpot_ns.push(c.tpot_ns());
        }
        preemptions += u64::from(c.preemptions);
    }
    ttft_ns.sort_unstable();
    tpot_ns.sort_unstable();
    let us = |ns: u64| ns as f64 / 1_000.0;
    let mean_us = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            us(xs.iter().sum::<u64>() / xs.len() as u64)
        }
    };
    let p99_us = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            us(xs[p99_idx(xs.len())])
        }
    };
    LlmExpResult {
        offered: spec.rate_per_sec,
        ttft_p99_us: p99_us(&ttft_ns),
        ttft_mean_us: mean_us(&ttft_ns),
        tpot_p99_us: p99_us(&tpot_ns),
        tpot_mean_us: mean_us(&tpot_ns),
        preemptions,
        completed: stats.completions.len(),
        failed: stats.failures.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_tenants_skew_toward_the_head() {
        let spec = LlmExpSpec::smoke(LlmPolicy::ContinuousBatching);
        let arrivals = generate_llm_trace(&spec);
        let head = arrivals.iter().filter(|a| a.client.0 == 0).count();
        let tail = arrivals.iter().filter(|a| a.client.0 == 7).count();
        assert!(
            head > 2 * tail,
            "zipf(1.1) head tenant {head} must dominate tail {tail}"
        );
        for w in arrivals.windows(2) {
            assert!(w[0].at <= w[1].at, "arrivals sorted");
        }
    }

    #[test]
    fn smoke_point_completes_everything() {
        let spec = LlmExpSpec {
            requests: 150,
            warmup: 30,
            ..LlmExpSpec::smoke(LlmPolicy::ContinuousBatching)
        };
        let r = run_llm_point(&spec);
        assert_eq!(r.completed + r.failed, 150);
        assert_eq!(r.failed, 0, "smoke pool must not shed");
        assert!(r.ttft_p99_us >= r.ttft_mean_us * 0.5);
        assert!(r.tpot_p99_us > 0.0);
    }

    #[test]
    fn continuous_batching_beats_srpt_on_tpot() {
        // The headline ordering the committed smoke grid pins: co-batched
        // decode amortizes the fixed per-step cost, so CB's inter-token
        // gaps collapse relative to SRPT's batch-of-1.
        let shrink = |p: LlmPolicy| LlmExpSpec {
            requests: 250,
            warmup: 50,
            ..LlmExpSpec::smoke(p)
        };
        let cb = run_llm_point(&shrink(LlmPolicy::ContinuousBatching));
        let srpt = run_llm_point(&shrink(LlmPolicy::SrptDeficit));
        assert!(
            cb.tpot_p99_us < srpt.tpot_p99_us,
            "CB tpot p99 {} must beat SRPT {}",
            cb.tpot_p99_us,
            srpt.tpot_p99_us
        );
    }
}
