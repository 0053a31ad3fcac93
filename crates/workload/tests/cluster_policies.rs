//! Cluster-tier acceptance tests over the committed smoke configuration:
//! the exact experiment `fig_cluster --smoke` prints must be bit-for-bit
//! reproducible, and on the skewed model-popularity mix at 4 nodes the
//! load-aware policies must beat load-oblivious round-robin on tail
//! latency.

use paella_cluster::RoutingPolicy;
use paella_workload::{run_cluster_point, smoke_models, ClusterExpSpec};

#[test]
fn smoke_run_is_bit_deterministic() {
    let models = smoke_models();
    for policy in [
        RoutingPolicy::RoundRobin,
        RoutingPolicy::Jsq,
        RoutingPolicy::PowerOfTwoChoices,
        RoutingPolicy::LeastRemainingWork,
    ] {
        let spec = ClusterExpSpec {
            requests: 200,
            warmup: 40,
            ..ClusterExpSpec::smoke(policy)
        };
        let a = run_cluster_point(&models, &spec);
        let b = run_cluster_point(&models, &spec);
        assert_eq!(
            a, b,
            "{policy:?}: same seed must reduce to identical results"
        );
    }
}

#[test]
fn load_aware_routing_beats_round_robin_on_p99() {
    // 4 nodes, Zipf-skewed 4-model mix, offered high but below saturation
    // (4000 req/s): round-robin keeps hitting the replica that happens to
    // be grinding through a rare-big job; policies that see per-node load
    // (queue depth or Paella's remaining-work signal) steer around it. The
    // comparison runs below the smoke rate deliberately — in deep overload
    // every node's queue saturates and the tail measures the backlog, not
    // the policy (fair round-robin ties or wins there).
    let models = smoke_models();
    let p99 = |policy| {
        let spec = ClusterExpSpec {
            rate_per_sec: 4_000.0,
            ..ClusterExpSpec::smoke(policy)
        };
        let r = run_cluster_point(&models, &spec);
        assert_eq!(
            r.completed, spec.requests,
            "{policy:?} must complete the whole trace"
        );
        r.p99_us
    };
    let rr = p99(RoutingPolicy::RoundRobin);
    let po2 = p99(RoutingPolicy::PowerOfTwoChoices);
    let lrw = p99(RoutingPolicy::LeastRemainingWork);
    assert!(
        lrw < rr,
        "least-remaining-work p99 {lrw:.0}µs must beat round-robin {rr:.0}µs"
    );
    assert!(
        po2 < rr,
        "power-of-two p99 {po2:.0}µs must beat round-robin {rr:.0}µs"
    );
}
