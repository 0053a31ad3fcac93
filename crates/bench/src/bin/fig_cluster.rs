//! Cluster figure: goodput and tail latency per routing policy over the
//! multi-node serving tier, swept across offered load and fleet size on a
//! Zipf-skewed model mix.
//!
//! `--smoke` runs exactly the committed smoke configuration (the one the
//! integration tests pin): 4 nodes, 4 models, ~75% of fleet capacity, all
//! four policies. Same seed ⇒ bit-identical output.

use paella_bench::{header, row, scaled};
use paella_cluster::RoutingPolicy;
use paella_workload::{run_cluster_point, smoke_models, ClusterExpSpec};

const POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::RoundRobin,
    RoutingPolicy::Jsq,
    RoutingPolicy::PowerOfTwoChoices,
    RoutingPolicy::LeastRemainingWork,
];

fn point_row(nodes: usize, policy: RoutingPolicy, spec: &ClusterExpSpec) -> [String; 4] {
    let r = run_cluster_point(&smoke_models(), spec);
    [
        nodes.to_string(),
        policy.as_str().to_string(),
        format!("{:.0}", r.offered),
        // Fixed precision so identical runs print identical bytes.
        format!(
            "{:.1},{:.1},{:.1},{:.1}",
            r.throughput, r.goodput, r.p99_us, r.mean_us
        ),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Figure C (cluster)",
        "goodput and p99 JCT per routing policy, Zipf-skewed 4-model mix",
    );
    row(&[
        "nodes".into(),
        "policy".into(),
        "offered_req_per_s".into(),
        "throughput_req_per_s,goodput_req_per_s,p99_us,mean_us".into(),
    ]);
    if smoke {
        // The committed configuration, verbatim — CI checks this output is
        // deterministic and the tests assert the policy ordering on it.
        let grid = paella_bench::sweep::run_grid(POLICIES.len(), |i| {
            let policy = POLICIES[i];
            let spec = ClusterExpSpec::smoke(policy);
            point_row(spec.nodes, policy, &spec)
        });
        for r in &grid {
            row(r);
        }
        return;
    }
    // Full sweep: fleet size x offered load (per node, so the x-axis is
    // comparable across fleet sizes) x policy.
    let requests = scaled(700);
    let fleets = [2usize, 4, 8];
    let rates = [800.0, 1_100.0, 1_300.0, 1_450.0];
    let cells = fleets.len() * rates.len() * POLICIES.len();
    let grid = paella_bench::sweep::run_grid(cells, |i| {
        let nodes = fleets[i / (rates.len() * POLICIES.len())];
        let rate_per_node = rates[(i / POLICIES.len()) % rates.len()];
        let policy = POLICIES[i % POLICIES.len()];
        let spec = ClusterExpSpec {
            nodes,
            rate_per_sec: rate_per_node * nodes as f64,
            requests,
            warmup: requests / 7,
            ..ClusterExpSpec::smoke(policy)
        };
        point_row(nodes, policy, &spec)
    });
    for r in &grid {
        row(r);
    }
}
