//! Flight-recorder demo: crashes the sole replica of a one-node cluster
//! and prints the resulting post-mortem dumps (DESIGN §12).
//!
//! Every terminal failure snapshots the flight ring — the last N trace
//! events plus the queue/occupancy state at the moment of loss — into a
//! deterministic text dump. This binary stages the worst case from the
//! failure-handling tests (a `NodeCrash` with no surviving replica, so
//! every in-flight request dies terminally), validates each dump against
//! the recorder's grammar, and prints them. Virtual time only: re-running
//! with the same seed prints identical bytes, which is exactly how CI
//! checks it (run twice, `cmp`).

use paella_bench::header;
use paella_cluster::{Cluster, ClusterConfig, RoutingPolicy};
use paella_core::{ClientId, InferenceRequest, ServingSystem};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{FaultEvent, FaultKind, FaultPlan, SimDuration, SimTime};
use paella_telemetry::flight;

fn main() {
    header(
        "Flight recorder",
        "post-mortem dumps from a sole-replica node crash (fixed seed)",
    );

    let mut c = Cluster::new(
        DeviceConfig::tesla_t4(),
        1,
        ClusterConfig {
            seed: 11,
            ..ClusterConfig::with_policy(RoutingPolicy::RoundRobin)
        },
    );
    let m = synthetic::uniform_job("solo", 4, SimDuration::from_micros(150), 64);
    let id = c.register_model(&m);
    c.enable_telemetry();
    for i in 0..20u64 {
        c.submit(InferenceRequest {
            client: ClientId((i % 4) as u32),
            model: id,
            submitted_at: SimTime::from_micros(i * 50),
        });
    }
    // One replica, one crash, no failover target: every request that has
    // not already completed fails terminally with `NodeCrash`.
    c.inject(&FaultPlan {
        kernel_fault_rate: 0.0,
        events: vec![FaultEvent {
            at: SimTime::from_micros(300),
            kind: FaultKind::NodeCrash(0),
        }],
    });
    c.run_to_idle();

    let done = c.drain_completions().len();
    let failed = c.drain_failures().len();
    let dumps = c.take_postmortems();
    assert_eq!(done + failed, 20, "every request accounted for");
    assert_eq!(dumps.len(), failed, "one dump per terminal failure");
    for d in &dumps {
        flight::validate_dump(d).expect("dump parses");
    }

    println!(
        "completed {done}, failed {failed}, post-mortem dumps {}",
        dumps.len()
    );
    for d in &dumps {
        print!("{d}");
    }
}
