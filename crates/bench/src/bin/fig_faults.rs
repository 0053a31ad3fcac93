//! Faults figure: goodput, successful-request tail latency, and the
//! within-deadline fraction under deterministic fault injection — kernel
//! faults, node crashes, and recoveries over the cluster serving tier.
//!
//! `--smoke` runs exactly the committed fault scenario (the one the
//! integration tests pin): the 4-node smoke workload with 2% kernel faults
//! and one mid-run node crash plus recovery, all four routing policies.
//! Same seed ⇒ bit-identical output.

use paella_bench::{header, row, scaled};
use paella_cluster::RoutingPolicy;
use paella_sim::FaultSpec;
use paella_workload::{run_cluster_point, smoke_models, ClusterExpSpec, FailureModel};

const POLICIES: [RoutingPolicy; 4] = [
    RoutingPolicy::RoundRobin,
    RoutingPolicy::Jsq,
    RoutingPolicy::PowerOfTwoChoices,
    RoutingPolicy::LeastRemainingWork,
];

fn point_row(scenario: &str, policy: RoutingPolicy, spec: &ClusterExpSpec) -> [String; 4] {
    let r = run_cluster_point(&smoke_models(), spec);
    [
        scenario.to_string(),
        policy.as_str().to_string(),
        format!("{:.0}", r.offered),
        // Fixed precision so identical runs print identical bytes.
        format!(
            "{:.1},{:.1},{:.1},{},{},{},{:.4}",
            r.goodput, r.p99_us, r.mean_us, r.completed, r.shed, r.failed, r.within_deadline
        ),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(
        "Figure F (faults)",
        "goodput and successful-request p99 under injected faults, per routing policy",
    );
    row(&[
        "scenario".into(),
        "policy".into(),
        "offered_req_per_s".into(),
        "goodput_req_per_s,p99_us,mean_us,completed,shed,failed,within_deadline".into(),
    ]);
    if smoke {
        // The committed fault scenario, verbatim — CI checks this output is
        // deterministic and the tests assert its within-deadline bar.
        let grid = paella_bench::sweep::run_grid(POLICIES.len(), |i| {
            let policy = POLICIES[i];
            point_row(
                "crash+kfaults",
                policy,
                &ClusterExpSpec::fault_smoke(policy),
            )
        });
        for r in &grid {
            row(r);
        }
        return;
    }
    // Full sweep: fault severity x policy. Severity ramps along both axes at
    // once — kernel-fault rate and crash count — from fault-free to a storm
    // that takes out most of the fleet without recovery.
    let requests = scaled(700);
    let severities: [(&str, f64, u32, bool); 4] = [
        ("none", 0.0, 0, true),
        ("kfaults", 0.02, 0, true),
        ("crash+kfaults", 0.02, 1, true),
        ("storm", 0.10, 3, false),
    ];
    let cells = severities.len() * POLICIES.len();
    let grid = paella_bench::sweep::run_grid(cells, |i| {
        let (name, kernel_fault_rate, node_crashes, recovers) = severities[i / POLICIES.len()];
        let policy = POLICIES[i % POLICIES.len()];
        let base = ClusterExpSpec::fault_smoke(policy);
        let spec = ClusterExpSpec {
            requests,
            warmup: requests / 7,
            failure: base.failure.map(|f| FailureModel {
                faults: FaultSpec {
                    kernel_fault_rate,
                    node_crashes,
                    recovery_after: f.faults.recovery_after.filter(|_| recovers),
                    ..f.faults
                },
                ..f
            }),
            ..base
        };
        point_row(name, policy, &spec)
    });
    for r in &grid {
        row(r);
    }
}
