//! The cluster experiment: a skewed-popularity model mix over a
//! [`paella_cluster::Cluster`], reduced to goodput and tail latency per
//! routing policy — fault-free, or under a seeded failure model.
//!
//! Real serving traffic is Zipf-skewed — a few hot models take most of the
//! requests while a long tail stays resident — which is exactly the regime
//! where routing policy matters: load-oblivious round-robin keeps slamming
//! the replica that happens to hold the slow tail model, while
//! load-aware policies (JSQ, power-of-two, least-remaining-work) steer
//! around it. The committed smoke configuration pins that ordering in an
//! integration test.
//!
//! With a [`FailureModel`] the same workload runs under deadlines, admission
//! shedding and an injected [`FaultSpec`] scenario (kernel faults, node
//! crashes, recoveries), and the metrics that matter when things break come
//! out beside the others: goodput and tail latency of the requests that
//! *succeeded*, and the fraction of admitted requests that completed within
//! their deadline. Everything stays deterministic: the fault plan expands
//! from the seed before the run starts, kernel faults roll on each
//! dispatcher's own seeded RNG in DES order, and the cluster advances in
//! lockstep on virtual time — so one `(spec, seed)` pair names one exact
//! execution, failures included.

use paella_cluster::{Cluster, ClusterConfig, RoutingPolicy};
use paella_compiler::CompiledModel;
use paella_core::{FailureReason, ModelId, ServingSystem};
use paella_gpu::DeviceConfig;
use paella_models::{measure_uncontended, synthetic};
use paella_sim::{FaultSpec, SimDuration, SimTime};

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
    /// Seed for the cluster (dispatchers, router RNG), the trace, and the
    /// fault plan.
    pub seed: u64,
    /// The failure model in force; `None` runs fault-free on the cluster's
    /// default failure handling (no deadlines, no shedding).
    pub failure: Option<FailureModel>,
}

/// How requests may fail and what is injected to make them: the
/// failure-handling knobs of every node plus the fault scenario.
#[derive(Clone, Copy, Debug)]
pub struct FailureModel {
    /// Per-request deadline as a multiple of the model's profiled estimate
    /// (requests past it are cancelled and their resources reclaimed).
    pub deadline_factor: f64,
    /// Per-node admission watermark; arrivals at a node whose outstanding
    /// load is at or above it are shed.
    pub shed_watermark: u64,
    /// How many times the frontend re-routes a request lost to a crash.
    pub crash_retries: u32,
    /// The fault scenario, expanded under the spec's seed into a concrete
    /// plan.
    pub faults: FaultSpec,
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
            failure: None,
        }
    }

    /// The committed deterministic fault scenario: the smoke workload with
    /// kernel faults *and* a mid-run node crash (with recovery) injected.
    /// Small enough for CI; faulty enough that the failure paths all
    /// execute.
    pub fn fault_smoke(policy: RoutingPolicy) -> Self {
        ClusterExpSpec {
            seed: 0xFA_175,
            failure: Some(FailureModel {
                deadline_factor: 40.0,
                shed_watermark: 96,
                crash_retries: 3,
                faults: FaultSpec {
                    kernel_fault_rate: 0.02,
                    node_crashes: 1,
                    nodes: 4,
                    window_start: SimTime::from_millis(20),
                    window_end: SimTime::from_millis(60),
                    recovery_after: Some(SimDuration::from_millis(25)),
                    client_disconnects: 0,
                    clients: 8,
                },
            }),
            ..Self::smoke(policy)
        }
    }
}

/// Reduced metrics from one cluster experiment point. Failures are broken
/// out by kind so the headline ratio — admitted requests that finished
/// within deadline — is computable without the raw completion lists.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClusterExpResult {
    /// Offered load, req/s.
    pub offered: f64,
    /// Achieved throughput, req/s.
    pub throughput: f64,
    /// SLO-attaining successful completions per second, post-warmup (the
    /// serving-tier headline).
    pub goodput: f64,
    /// p99 JCT over post-warmup *successful* requests, µs.
    pub p99_us: f64,
    /// Mean JCT over post-warmup successful requests, µs.
    pub mean_us: f64,
    /// Successful completions (all of them, including warmup).
    pub completed: usize,
    /// Requests refused by admission control.
    pub shed: usize,
    /// Requests that failed for any other reason (deadline, crash budget,
    /// retry budget, disconnect).
    pub failed: usize,
    /// `completed / (submitted - shed)`: of the requests the cluster
    /// admitted, the fraction it finished within deadline.
    pub within_deadline: f64,
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

/// Runs one cluster experiment point: builds a fresh cluster (with the
/// spec's failure-handling knobs, if any), registers `models`, arms the
/// expanded fault plan, drives the Zipf-skewed trace, and reduces successes
/// and failures separately.
pub fn run_cluster_point(models: &[CompiledModel], spec: &ClusterExpSpec) -> ClusterExpResult {
    let device = DeviceConfig::tesla_t4();
    let mut cfg = ClusterConfig {
        seed: spec.seed,
        ..ClusterConfig::with_policy(spec.policy)
    };
    if let Some(f) = &spec.failure {
        cfg.crash_retries = f.crash_retries;
        cfg.dispatcher.deadline_factor = Some(f.deadline_factor);
        cfg.dispatcher.shed_watermark = Some(f.shed_watermark);
    }
    let mut cluster = Cluster::new(device.clone(), spec.nodes, cfg);
    let ids: Vec<ModelId> = models.iter().map(|m| cluster.register_model(m)).collect();
    // Per-model SLO targets from the uncontended execution time (the same
    // ground truth the goodput definition in the paper's §7 rests on).
    let slo: Vec<SimDuration> = models
        .iter()
        .map(|m| measure_uncontended(m, &device).mul_f64(spec.slo_factor))
        .collect();
    if let Some(f) = &spec.failure {
        cluster.inject(&f.faults.generate(spec.seed));
    }
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
    let shed = stats
        .failures
        .iter()
        .filter(|f| f.reason == FailureReason::Shed)
        .count();

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
    let admitted = arrivals.len() - shed;
    let within_deadline = if admitted > 0 {
        stats.completions.len() as f64 / admitted as f64
    } else {
        1.0
    };
    ClusterExpResult {
        offered: spec.rate_per_sec,
        throughput: stats.throughput,
        goodput,
        p99_us: stats.p99_us(),
        mean_us: stats.mean_us(),
        completed: stats.completions.len(),
        shed,
        failed: stats.failures.len() - shed,
        within_deadline,
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
        assert_eq!((r.completed, r.shed, r.failed), (120, 0, 0));
        assert!(r.throughput > 0.0);
        assert!(r.goodput <= r.throughput + 1e-9);
        assert!(r.p99_us >= r.mean_us * 0.5);
    }

    #[test]
    fn fault_point_accounts_for_every_request() {
        let spec = ClusterExpSpec {
            requests: 200,
            warmup: 40,
            ..ClusterExpSpec::fault_smoke(RoutingPolicy::LeastRemainingWork)
        };
        let r = run_cluster_point(&smoke_models(), &spec);
        assert_eq!(
            r.completed + r.shed + r.failed,
            200,
            "success + shed + failed must cover the trace"
        );
        assert!(r.completed > 0 && r.goodput > 0.0);
        assert!(r.within_deadline > 0.5, "got {}", r.within_deadline);
    }

    #[test]
    fn committed_fault_scenario_holds_its_deadline_bar() {
        // The acceptance bar for the committed fault scenario: with kernel
        // faults and a node crash injected, at least 95% of the admitted
        // (non-shed) requests still complete within deadline.
        let r = run_cluster_point(
            &smoke_models(),
            &ClusterExpSpec::fault_smoke(RoutingPolicy::LeastRemainingWork),
        );
        assert!(
            r.within_deadline >= 0.95,
            "within-deadline fraction {} under the committed fault scenario",
            r.within_deadline
        );
    }

    #[test]
    fn fault_point_is_deterministic() {
        let spec = ClusterExpSpec {
            requests: 150,
            warmup: 30,
            ..ClusterExpSpec::fault_smoke(RoutingPolicy::Jsq)
        };
        let a = run_cluster_point(&smoke_models(), &spec);
        let b = run_cluster_point(&smoke_models(), &spec);
        assert_eq!(a, b, "same spec must reduce to identical results");
    }

    #[test]
    fn harder_faults_hurt() {
        let base = ClusterExpSpec {
            requests: 200,
            warmup: 40,
            ..ClusterExpSpec::fault_smoke(RoutingPolicy::LeastRemainingWork)
        };
        let with_faults = |edit: fn(FaultSpec) -> FaultSpec| {
            let failure = base.failure.map(|f| FailureModel {
                faults: edit(f.faults),
                ..f
            });
            run_cluster_point(&smoke_models(), &ClusterExpSpec { failure, ..base })
        };
        let calm = with_faults(|faults| FaultSpec {
            kernel_fault_rate: 0.0,
            node_crashes: 0,
            ..faults
        });
        let stormy = with_faults(|faults| FaultSpec {
            kernel_fault_rate: 0.3,
            node_crashes: 3,
            recovery_after: None,
            ..faults
        });
        assert!(
            stormy.completed < calm.completed || stormy.p99_us > calm.p99_us,
            "a fault storm must cost something: calm {:?} vs stormy {:?}",
            calm,
            stormy
        );
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
