//! The cluster experiment: a skewed-popularity model mix over a
//! [`paella_cluster::Cluster`], reduced to goodput and tail latency per
//! routing policy.
//!
//! Real serving traffic is Zipf-skewed — a few hot models take most of the
//! requests while a long tail stays resident — which is exactly the regime
//! where routing policy matters: load-oblivious round-robin keeps slamming
//! the replica that happens to hold the slow tail model, while
//! load-aware policies (JSQ, power-of-two, least-remaining-work) steer
//! around it. The committed smoke configuration pins that ordering in an
//! integration test.

use paella_cluster::{Cluster, ClusterConfig, RoutingPolicy};
use paella_compiler::CompiledModel;
use paella_core::{ModelId, ServingSystem};
use paella_gpu::DeviceConfig;
use paella_models::{measure_uncontended, synthetic};
use paella_sim::SimDuration;

use crate::gen::{generate, Mix, WorkloadSpec};
use crate::runner::run_trace;

/// One cluster experiment point.
#[derive(Clone, Copy, Debug)]
pub struct ClusterExpSpec {
    /// Nodes in the (fixed-size) fleet.
    pub nodes: usize,
    /// Routing policy under test.
    pub policy: RoutingPolicy,
    /// Offered load, requests per second across the whole cluster.
    pub rate_per_sec: f64,
    /// Requests to generate.
    pub requests: usize,
    /// Completions excluded from statistics while the system warms up.
    pub warmup: usize,
    /// Zipf exponent of the popularity skew.
    pub skew: f64,
    /// A request is "good" if its JCT is within `slo_factor` × the model's
    /// uncontended execution time.
    pub slo_factor: f64,
    /// Seed for the cluster (dispatchers, router RNG) and the trace.
    pub seed: u64,
}

impl ClusterExpSpec {
    /// The committed smoke configuration: 4 nodes, a 4-model skewed mix,
    /// ~75% of fleet capacity offered. Small enough for CI, loaded enough
    /// that routing policy separates.
    pub fn smoke(policy: RoutingPolicy) -> Self {
        ClusterExpSpec {
            nodes: 4,
            policy,
            rate_per_sec: 5_200.0,
            requests: 700,
            warmup: 100,
            skew: 1.1,
            slo_factor: 8.0,
            seed: 0xC1_0C5,
        }
    }
}

/// Reduced metrics from one cluster experiment point.
#[derive(Clone, Copy, Debug)]
pub struct ClusterExpResult {
    /// Offered load, req/s.
    pub offered: f64,
    /// Achieved throughput, req/s.
    pub throughput: f64,
    /// SLO-attaining completions per second (the serving-tier headline).
    pub goodput: f64,
    /// p99 JCT over post-warmup completions, µs.
    pub p99_us: f64,
    /// Mean JCT over post-warmup completions, µs.
    pub mean_us: f64,
    /// Completions observed (all of them, including warmup).
    pub completed: usize,
}

impl ClusterExpResult {
    /// One stable CSV row: `throughput,goodput,p99_us,mean_us`. Fixed
    /// precision so identical runs print identical bytes.
    pub fn row(&self) -> String {
        format!(
            "{:.1},{:.1},{:.1},{:.1}",
            self.throughput, self.goodput, self.p99_us, self.mean_us
        )
    }
}

/// The smoke experiment's heterogeneous model set: four synthetic models
/// spanning ~10× in work, with weight sizes set so the placement manager
/// has real bytes to budget. Popularity skew routes most traffic to the
/// cheap end; the rare heavy model is what load-oblivious routing trips
/// over.
pub fn smoke_models() -> Vec<CompiledModel> {
    let mut hot = synthetic::uniform_job("hot-small", 4, SimDuration::from_micros(150), 64);
    hot.weight_bytes = 75 << 20;
    let mut mid = synthetic::uniform_job("mid", 8, SimDuration::from_micros(200), 64);
    mid.weight_bytes = 100 << 20;
    let mut deep = synthetic::uniform_job("deep", 16, SimDuration::from_micros(250), 64);
    deep.weight_bytes = 170 << 20;
    let mut rare = synthetic::uniform_job("rare-big", 32, SimDuration::from_micros(300), 128);
    rare.weight_bytes = 528 << 20;
    vec![hot, mid, deep, rare]
}

/// Runs one cluster experiment point: builds a fresh cluster, registers
/// `models`, generates the Zipf-skewed trace, and reduces the completions.
pub fn run_cluster_point(models: &[CompiledModel], spec: &ClusterExpSpec) -> ClusterExpResult {
    let device = DeviceConfig::tesla_t4();
    let mut cluster = Cluster::new(
        device.clone(),
        spec.nodes,
        ClusterConfig {
            seed: spec.seed,
            ..ClusterConfig::with_policy(spec.policy)
        },
    );
    let ids: Vec<ModelId> = models.iter().map(|m| cluster.register_model(m)).collect();
    // Per-model SLO targets from the uncontended execution time (the same
    // ground truth the goodput definition in the paper's §7 rests on).
    let slo: Vec<SimDuration> = models
        .iter()
        .map(|m| measure_uncontended(m, &device).mul_f64(spec.slo_factor))
        .collect();
    let mix = Mix::zipf(&ids, spec.skew);
    let arrivals = generate(
        &WorkloadSpec {
            rate_per_sec: spec.rate_per_sec,
            sigma: 1.5,
            requests: spec.requests,
            clients: 8,
            seed: spec.seed ^ 0x7ACE,
        },
        &mix,
    );
    let mut stats = run_trace(&mut cluster, &arrivals, spec.warmup);

    let measured = stats.completions.iter().skip(spec.warmup);
    let good = measured
        .filter(|c| c.jct() <= slo[c.request.model.0 as usize])
        .count();
    let span_s = stats.span.as_secs_f64();
    let goodput = if span_s > 0.0 {
        good as f64 / span_s
    } else {
        0.0
    };
    ClusterExpResult {
        offered: spec.rate_per_sec,
        throughput: stats.throughput,
        goodput,
        p99_us: stats.p99_us(),
        mean_us: stats.mean_us(),
        completed: stats.completions.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_point_completes_everything() {
        let spec = ClusterExpSpec {
            requests: 120,
            warmup: 20,
            ..ClusterExpSpec::smoke(RoutingPolicy::Jsq)
        };
        let r = run_cluster_point(&smoke_models(), &spec);
        assert_eq!(r.completed, 120);
        assert!(r.throughput > 0.0);
        assert!(r.goodput <= r.throughput + 1e-9);
        assert!(r.p99_us >= r.mean_us * 0.5);
    }

    #[test]
    fn zipf_mix_skews_toward_the_head() {
        let ids: Vec<ModelId> = (0..4).map(ModelId).collect();
        let mix = Mix::zipf(&ids, 1.1);
        let mut rng = paella_sim::Xoshiro256pp::seed_from_u64(3);
        let n = 20_000;
        let head = (0..n).filter(|_| mix.sample(&mut rng) == ids[0]).count();
        let tail = (0..n).filter(|_| mix.sample(&mut rng) == ids[3]).count();
        assert!(
            head > 3 * tail,
            "zipf(1.1) head {head} must dominate tail {tail}"
        );
    }
}
