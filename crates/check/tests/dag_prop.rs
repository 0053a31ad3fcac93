//! Lockstep proofs for release by predecessor counting (DESIGN §15).
//!
//! Two layers:
//!
//! * **Structure** — for random stream plans and release orders, the
//!   [`KernelDag`]'s predecessor-count activation rule is replayed in
//!   lockstep against the brute-force [`StreamOracle`]: it may never
//!   activate an op before or after the oracle does, and every op releases
//!   exactly once. (`Waitlist` vs `StreamOracle` lives in `oracle_prop.rs`,
//!   so the three agree pairwise.)
//! * **Behavior** — a real dispatcher serves bursty arrivals of a random
//!   multi-stream plan: every kernel of every job is dispatched once, only
//!   after all of its DAG predecessors, and completes once; and the
//!   journey-conservation oracle balances.

use std::collections::HashMap;

use proptest::prelude::*;

use paella_check::{check_journeys, StreamOracle};
use paella_compiler::{CompiledModel, DeviceOp, JobSchedule, KernelDag};
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
    StreamKind,
};
use paella_gpu::{DeviceConfig, KernelDesc};
use paella_sim::SimTime;
use paella_telemetry::TraceEvent;

/// Cheap deterministic stream of choices derived from one generated seed.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Stream id → kind. The `KernelDag` treats every non-zero stream as
/// blocking (CUDA's default), so the oracle must too.
fn kind_of(stream: u32) -> StreamKind {
    if stream == 0 {
        StreamKind::Default
    } else {
        StreamKind::Blocking
    }
}

/// Expands a generated `(stream, dep count)` plan into per-op streams and
/// explicit backward dependencies (op index == token), drawing the dep
/// targets from `s`.
fn expand_plan(plan: &[(u32, usize)], s: &mut u64) -> (Vec<u32>, Vec<Vec<usize>>) {
    let mut streams = Vec::with_capacity(plan.len());
    let mut deps = Vec::with_capacity(plan.len());
    for (i, &(st, nd)) in plan.iter().enumerate() {
        streams.push(st);
        let mut d: Vec<usize> = Vec::new();
        for _ in 0..nd.min(i) {
            let j = (nx(s) as usize) % i;
            if !d.contains(&j) {
                d.push(j);
            }
        }
        deps.push(d);
    }
    (streams, deps)
}

/// An all-kernel model with the given stream plan. Op `i` launches `i + 1`
/// blocks, so a dispatch trace event identifies its op by grid size.
fn plan_model(streams: &[u32], deps: &[Vec<usize>]) -> CompiledModel {
    CompiledModel {
        name: "dag-prop".into(),
        ops: (0..streams.len())
            .map(|i| DeviceOp::Kernel(KernelDesc::empty(&format!("k{i}"), i as u32 + 1)))
            .collect(),
        schedule: Some(JobSchedule {
            streams: streams.to_vec(),
            deps: deps.to_vec(),
        }),
        input_bytes: 0,
        output_bytes: 0,
        weight_bytes: 0,
        flops: 0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Predecessor counting never violates a stream-order edge: for random
    /// stream plans and release orders, the pred-count activation rule and
    /// the brute-force oracle agree on every activation, and every op
    /// releases exactly once.
    #[test]
    fn kernel_dag_matches_stream_oracle(
        plan in proptest::collection::vec((0u32..4, 0usize..3), 1..40),
        drive in any::<u64>(),
    ) {
        let n = plan.len();
        let mut s = drive ^ 0x9E37_79B9_7F4A_7C15;
        let (streams, deps) = expand_plan(&plan, &mut s);
        let dag = KernelDag::build(&plan_model(&streams, &deps))
            .expect("backward deps are acyclic");
        prop_assert_eq!(dag.len(), n);

        let mut oracle = StreamOracle::new();
        let mut preds: Vec<u32> = dag.pred_counts().to_vec();
        for i in 0..n {
            let d64: Vec<u64> = deps[i].iter().map(|&j| j as u64).collect();
            oracle
                .push(streams[i], kind_of(streams[i]), i as u64, &d64)
                .expect("acyclic by construction");
        }

        // The DAG's roots are exactly the initially-active frontier.
        let mut active: Vec<u64> = dag.roots().map(|t| t as u64).collect();
        let mut oracle_active = oracle.active();
        oracle_active.sort_unstable();
        prop_assert_eq!(&active, &oracle_active, "initial frontier diverges");

        let mut released = 0usize;
        while !active.is_empty() {
            let pick = active.remove((nx(&mut s) as usize) % active.len());
            let o_newly = oracle.release(pick);
            let mut d_newly: Vec<u64> = Vec::new();
            for &succ in dag.successors(pick as usize) {
                let left = &mut preds[succ as usize];
                prop_assert!(*left > 0, "predecessor count underflow at op {}", succ);
                *left -= 1;
                if *left == 0 {
                    d_newly.push(u64::from(succ));
                }
            }
            d_newly.sort_unstable_by_key(|&t| dag.node(t as usize).vstream);
            prop_assert_eq!(
                &d_newly, &o_newly,
                "DAG edge violated releasing op {}", pick
            );
            oracle.retire(pick);
            released += 1;
            active.extend(d_newly);
        }
        prop_assert_eq!(released, n, "ops never activated");
        prop_assert!(oracle.is_empty(), "oracle still tracks ops");
        prop_assert!(preds.iter().all(|&p| p == 0), "unreleased predecessors remain");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A real dispatcher under bursty arrivals of a random multi-stream
    /// plan dispatches every kernel of every job once, after all of the
    /// op's DAG predecessors, completes each once, and keeps the journey
    /// ledger exact.
    #[test]
    fn dispatcher_serves_random_plans_in_dag_order(
        plan in proptest::collection::vec((0u32..4, 0usize..3), 2..24),
        drive in any::<u64>(),
    ) {
        let n = plan.len();
        let mut s = drive ^ 0x5851_F42D_4C95_7F2D;
        let (streams, deps) = expand_plan(&plan, &mut s);
        let model = plan_model(&streams, &deps);
        let dag = KernelDag::build(&model).expect("backward deps are acyclic");
        let mut preds_of: Vec<Vec<usize>> = vec![Vec::new(); n];
        for t in 0..n {
            for &succ in dag.successors(t) {
                preds_of[succ as usize].push(t);
            }
        }

        let mut d = Dispatcher::new(
            DeviceConfig::tesla_t4(),
            paella_channels::ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            drive,
        );
        d.enable_telemetry();
        let id = d.register_model(&model);
        // Bursts of back-to-back submissions separated by idle gaps.
        let jobs = 10usize;
        let mut at = 0u64;
        for i in 0..jobs {
            d.submit(InferenceRequest {
                client: ClientId((i % 4) as u32),
                model: id,
                submitted_at: SimTime::from_nanos(at),
            });
            at += if nx(&mut s).is_multiple_of(3) { 400_000 } else { 2_000 };
        }
        d.run_to_idle();
        prop_assert_eq!(d.drain_completions().len(), jobs, "jobs lost");

        let log = d.take_trace_log().expect("telemetry on");
        let mut dispatched: HashMap<u64, Vec<bool>> = HashMap::new();
        let mut completions: HashMap<u64, u32> = HashMap::new();
        for te in &log.events {
            match te.event {
                TraceEvent::KernelDispatched { job, kernel, grid_blocks, .. } => {
                    let token = grid_blocks as usize - 1;
                    let seen = dispatched.entry(job).or_insert_with(|| vec![false; n]);
                    prop_assert!(!seen[token], "job {} op {} dispatched twice", job, token);
                    for &p in &preds_of[token] {
                        prop_assert!(
                            seen[p],
                            "job {} op {} dispatched before its predecessor {}", job, token, p
                        );
                    }
                    seen[token] = true;
                    completions.entry(kernel).or_insert(0);
                }
                TraceEvent::KernelCompleted { kernel } => {
                    *completions.entry(kernel).or_insert(0) += 1;
                }
                _ => {}
            }
        }
        prop_assert_eq!(dispatched.len(), jobs);
        prop_assert!(
            dispatched.values().all(|seen| seen.iter().all(|&b| b)),
            "some op was never dispatched"
        );
        prop_assert_eq!(completions.len(), jobs * n);
        prop_assert!(
            completions.values().all(|&c| c == 1),
            "a kernel did not complete exactly once"
        );
        check_journeys(&log).expect("journey conservation");
    }
}
