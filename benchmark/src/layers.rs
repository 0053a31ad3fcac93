//! Isolated replay drivers: each one feeds a bare layer, through its public
//! functions only, the operations the workload makes it do, and reports host
//! nanoseconds per operation.
//!
//! They are estimates of what a layer costs when nothing else touches the
//! caches, not a partition of the end-to-end time; the traced run prints the
//! part of `host_ns_per_kernel` they leave unexplained as
//! `core.dispatcher.residual_ns_per_kernel`. Every timing is the fastest of
//! [`BATCHES`] batches, for the same reason the end-to-end host time is a
//! minimum (see [`measure`](crate::measure)).

use std::hint::black_box;
use std::time::Instant;

use paella_channels::{notif_queue, ring, Doorbell, Notification};
use paella_cluster::router::NodeLoad;
use paella_cluster::{ClusterRouter, RoutingPolicy};
use paella_compiler::{compile, instrumented, CompiledModel, CostModel, DeviceOp};
use paella_core::{OccupancyTracker, ServingSystem, VStream, Waitlist};
use paella_gpu::{
    BlockFootprint, CopyDir, DeviceConfig, GpuOutput, GpuSim, InstrumentationSpec, KernelLaunch,
    MemcpyOp, MemcpyUid, StreamId,
};
use paella_llm::KvPool;
use paella_models::{registry, ModelZoo};
use paella_sim::{EventQueue, SimDuration, SimTime};
use paella_telemetry::{MetricsRegistry, TraceEvent, Tracer};
use paella_workload::{generate, Arrival, Mix, WorkloadSpec};

use crate::workloads::{Prepared, System};

const BATCHES: usize = 3;

/// Fastest of [`BATCHES`] runs of `batch`, which performs `ops` operations;
/// nanoseconds per operation.
fn per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut best = u64::MAX;
    for _ in 0..BATCHES {
        let t = Instant::now();
        batch();
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best as f64 / ops.max(1) as f64
}

/// A cheap deterministic stream of pseudo-random offsets.
fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    *state >> 33
}

/// `sim.event.hold_*`: the classic hold model — pop the earliest event and
/// schedule one a random distance ahead — at a steady queue depth.
pub fn event_hold_ns(depth: usize) -> f64 {
    const HOLDS: u64 = 200_000;
    per_op(HOLDS, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut rnd = 0x5EED;
        for i in 0..depth as u64 {
            q.schedule_at(SimTime::from_nanos(1 + lcg(&mut rnd) % 10_000), i);
        }
        for _ in 0..HOLDS {
            let (at, payload) = q.pop().expect("steady depth");
            let ahead = SimDuration::from_nanos(1 + lcg(&mut rnd) % 10_000);
            q.schedule_at(at + ahead, black_box(payload));
        }
        black_box(q.len());
    })
}

/// `sim.event.cancel_ns`: schedule a timeout far ahead and cancel it, over
/// a live depth of 64, compaction passes included.
pub fn event_cancel_ns() -> f64 {
    const CANCELS: u64 = 200_000;
    per_op(CANCELS, || {
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..64 {
            q.schedule_at(SimTime::from_nanos(1 + i), i);
        }
        for i in 0..CANCELS {
            let id = q.schedule_at(SimTime::from_nanos(1_000_000_000 + i), i);
            black_box(q.cancel(id));
        }
        black_box(q.compactions());
    })
}

/// What the GPU replay saw, kept for the occupancy replay.
pub struct GpuReplay {
    pub kernel_ns: f64,
    pub block_ns: f64,
    pub outputs_per_kernel: f64,
    kernels: Vec<KernelRecord>,
}

struct KernelRecord {
    uid: u32,
    footprint: BlockFootprint,
    blocks: u32,
    notifs: Vec<Notification>,
}

/// The request sample the replay drivers walk: the head of the trace, cut
/// where it reaches `max_kernels`.
fn sample<'a>(p: &'a Prepared, models: &[CompiledModel], max_kernels: u64) -> &'a [Arrival] {
    let mut kernels = 0;
    let mut n = 0;
    for a in &p.arrivals {
        if kernels >= max_kernels {
            break;
        }
        kernels += models[a.model.0 as usize].kernel_count() as u64;
        n += 1;
    }
    &p.arrivals[..n]
}

/// `gpu.engine.*`: every op of every sampled request, one request at a time
/// on one stream of a bare `GpuSim`, instrumented as the dispatcher
/// instruments them, pumped to idle with `advance_until`.
pub fn gpu_replay(p: &Prepared, models: &[CompiledModel], device: &DeviceConfig) -> GpuReplay {
    let instrumented: Vec<CompiledModel> = models
        .iter()
        .map(|m| instrumented(m, InstrumentationSpec::default()))
        .collect();
    let requests = sample(p, models, 20_000);
    let mut records: Vec<KernelRecord> = Vec::new();
    let mut outputs = 0u64;
    let mut best = u64::MAX;
    for batch in 0..BATCHES {
        let record = batch == 0;
        let mut sink: Vec<GpuOutput> = Vec::new();
        let t = Instant::now();
        let mut gpu = GpuSim::new(device.clone(), 0xCA11B);
        let (mut kuid, mut muid) = (0u32, 0u64);
        let mut now = SimTime::ZERO;
        for a in requests {
            let first = records.len();
            for op in &instrumented[a.model.0 as usize].ops {
                match op {
                    DeviceOp::Kernel(k) => {
                        kuid += 1;
                        if record {
                            records.push(KernelRecord {
                                uid: kuid,
                                footprint: k.footprint,
                                blocks: k.grid_blocks,
                                notifs: Vec::new(),
                            });
                        }
                        gpu.launch_kernel(
                            now,
                            KernelLaunch {
                                uid: kuid,
                                stream: StreamId(1),
                                desc: k.clone(),
                            },
                        );
                    }
                    DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => {
                        muid += 1;
                        let dir = if matches!(op, DeviceOp::InputCopy { .. }) {
                            CopyDir::HostToDevice
                        } else {
                            CopyDir::DeviceToHost
                        };
                        gpu.enqueue_memcpy(
                            now,
                            MemcpyOp {
                                uid: MemcpyUid(muid),
                                stream: StreamId(1),
                                bytes: *bytes,
                                dir,
                            },
                        );
                    }
                }
            }
            while let Some(next) = gpu.next_time() {
                gpu.advance_until(next, &mut sink);
                now = next;
            }
            if record {
                outputs += sink.len() as u64;
                let base = records[first..].first().map_or(0, |r| r.uid);
                for o in &sink {
                    if let GpuOutput::Notif { n, .. } = o {
                        records[first + (n.kernel - base) as usize].notifs.push(*n);
                    }
                }
            }
            sink.clear();
        }
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    let kernels = records.len().max(1) as f64;
    let blocks: u64 = records.iter().map(|r| u64::from(r.blocks)).sum();
    GpuReplay {
        kernel_ns: best as f64 / kernels,
        block_ns: best as f64 / blocks.max(1) as f64,
        outputs_per_kernel: outputs as f64 / kernels,
        kernels: records,
    }
}

pub struct OccupancyCost {
    /// Dispatch test + launch + its notifications + completion, per kernel.
    pub kernel_ns: f64,
    pub notify_ns: f64,
    pub should_dispatch_ns: f64,
}

/// `core.occupancy.*`: the launches, notifications and completions the GPU
/// replay produced, folded into a bare `OccupancyTracker` in the same order.
/// The two per-call figures are timed on their own, around the calls alone.
pub fn occupancy_replay(gpu: &GpuReplay, device: &DeviceConfig) -> OccupancyCost {
    /// The dispatcher's default lookahead slack `B`.
    const LOOKAHEAD: u64 = 320;
    let kernels = gpu.kernels.len() as u64;
    let notifs: u64 = gpu.kernels.iter().map(|k| k.notifs.len() as u64).sum();
    // One pass over the replay; with `split`, the two per-call figures are
    // clocked inside it (and the clock reads make its total useless).
    let pass = |split: bool| {
        let mut occ = OccupancyTracker::new(device.num_sms, device.sm_limits);
        let (mut in_notify, mut in_test) = (0u64, 0u64);
        let started = Instant::now();
        for k in &gpu.kernels {
            let t = split.then(Instant::now);
            black_box(occ.should_dispatch(&k.footprint, LOOKAHEAD));
            in_test += t.map_or(0, |t| t.elapsed().as_nanos() as u64);
            occ.on_launch(k.uid, k.footprint, k.blocks);
            let t = split.then(Instant::now);
            for n in &k.notifs {
                occ.on_notification(*n);
            }
            in_notify += t.map_or(0, |t| t.elapsed().as_nanos() as u64);
            occ.on_kernel_completed(k.uid);
        }
        black_box(occ.resident_blocks());
        (started.elapsed().as_nanos() as u64, in_notify, in_test)
    };
    let (mut whole, mut notify, mut test) = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..BATCHES {
        whole = whole.min(pass(false).0);
        let (_, in_notify, in_test) = pass(true);
        notify = notify.min(in_notify);
        test = test.min(in_test);
    }
    OccupancyCost {
        kernel_ns: whole as f64 / kernels.max(1) as f64,
        notify_ns: notify as f64 / notifs.max(1) as f64,
        should_dispatch_ns: test as f64 / kernels.max(1) as f64,
    }
}

pub struct WaitlistCost {
    /// `push_prevalidated` + `release` + `retire`, per op.
    pub op_ns: f64,
    /// All of one job's pushes (what ingest pays).
    pub ingest_ns_per_job: f64,
    /// `drain` of a fully pushed job, per op (what cancellation pays).
    pub drain_ns: f64,
    /// `op_ns` scaled to the sample's ops per kernel.
    pub ns_per_kernel: f64,
}

/// `core.waitlist.*`: each sampled request's schedule pushed the way ingest
/// pushes it, then released and retired in token order.
pub fn waitlist_replay(p: &Prepared, models: &[CompiledModel]) -> WaitlistCost {
    let requests = sample(p, models, 20_000);
    // (stream, deps) per op, per model, as `Dispatcher` derives them.
    let plans: Vec<Vec<(u32, Vec<u64>)>> = models
        .iter()
        .map(|m| {
            (0..m.ops.len())
                .map(|token| match &m.schedule {
                    Some(s) => (
                        s.streams[token],
                        s.deps[token].iter().map(|&d| d as u64).collect(),
                    ),
                    None => (1, Vec::new()),
                })
                .collect()
        })
        .collect();
    let plan_of = |a: &Arrival| &plans[a.model.0 as usize];
    let ops: u64 = requests.iter().map(|a| plan_of(a).len() as u64).sum();
    let kernels: u64 = requests
        .iter()
        .map(|a| models[a.model.0 as usize].kernel_count() as u64)
        .sum();
    let push_all = |plan: &[(u32, Vec<u64>)]| {
        let mut w = Waitlist::new();
        for (token, (vs, deps)) in plan.iter().enumerate() {
            black_box(w.push_prevalidated(VStream(*vs), token as u64, deps));
        }
        w
    };
    let ingest_ns_per_job = per_op(requests.len() as u64, || {
        for a in requests {
            black_box(push_all(plan_of(a)).len());
        }
    });
    let op_ns = per_op(ops, || {
        for a in requests {
            let mut w = push_all(plan_of(a));
            for (token, (vs, _)) in plan_of(a).iter().enumerate() {
                black_box(w.release(VStream(*vs), token as u64));
                w.retire(VStream(*vs), token as u64);
            }
        }
    });
    let mut drain = u64::MAX;
    for _ in 0..BATCHES {
        let mut spent = 0u64;
        for a in requests {
            let mut w = push_all(plan_of(a));
            let t = Instant::now();
            black_box(w.drain());
            spent += t.elapsed().as_nanos() as u64;
        }
        drain = drain.min(spent);
    }
    WaitlistCost {
        op_ns,
        ingest_ns_per_job,
        drain_ns: drain as f64 / ops.max(1) as f64,
        ns_per_kernel: op_ns * ops as f64 / kernels.max(1) as f64,
    }
}

/// `core.dispatcher.load_signal_ns`: one poll of a system holding work.
pub fn load_signal_ns(mut p: Prepared) -> f64 {
    const POLLS: u64 = 1_000_000;
    let sys = p.sys.serving();
    for a in p.arrivals.iter().take(64) {
        sys.submit(paella_core::InferenceRequest {
            client: a.client,
            model: a.model,
            submitted_at: a.at,
        });
    }
    // Park the simulation at an instant with work in flight.
    while sys.load_signal().inflight == 0 {
        let Some(t) = sys.next_event_time() else {
            break;
        };
        sys.advance_until(t);
    }
    let sys: &dyn ServingSystem = sys;
    per_op(POLLS, || {
        let mut acc = 0u64;
        for _ in 0..POLLS {
            acc = acc.wrapping_add(black_box(sys).load_signal().outstanding());
        }
        black_box(acc);
    })
}

/// `core.dispatcher.register_model_ms`: milliseconds per `register_model`
/// over the workload's models, on a fresh system each batch.
pub fn register_model_ms(mut fresh: impl FnMut() -> System, models: &[CompiledModel]) -> f64 {
    if models.is_empty() {
        return 0.0;
    }
    let mut best = u64::MAX;
    for _ in 0..BATCHES {
        let mut sys = fresh();
        let t = Instant::now();
        for m in models {
            black_box(sys.serving().register_model(m));
        }
        best = best.min(t.elapsed().as_nanos() as u64);
    }
    best as f64 / 1e6 / models.len() as f64
}

/// `compiler.compile_ms`: milliseconds per `compile` over the Table 2 graphs.
pub fn compile_ms() -> f64 {
    let entries: Vec<_> = registry().into_iter().filter(|e| e.in_table2).collect();
    let cost = CostModel::default();
    per_op(entries.len() as u64, || {
        for e in &entries {
            black_box(compile(e.name, &(e.build)(), &cost, 1.0));
        }
    }) / 1e6
}

/// `models.zoo_build_ms`: building, compiling and calibrating all of Table 2.
pub fn zoo_build_ms(device: &DeviceConfig) -> f64 {
    per_op(1, || {
        black_box(ModelZoo::new(device.clone()).table2());
    }) / 1e6
}

/// `workload.gen.arrival_ns`: the program's trace generator, per arrival.
pub fn gen_arrival_ns() -> f64 {
    const N: usize = 100_000;
    let ids: Vec<_> = (0..8).map(paella_core::ModelId).collect();
    let mix = Mix::uniform(&ids);
    per_op(N as u64, || {
        black_box(generate(&WorkloadSpec::bursty(100.0, N), &mix));
    })
}

/// `cluster.router.pick_ns`: one least-remaining-work decision over four
/// replicas whose loads keep changing.
pub fn router_pick_ns() -> f64 {
    const PICKS: u64 = 1_000_000;
    let candidates = [0usize, 1, 2, 3];
    per_op(PICKS, || {
        let mut router = ClusterRouter::new(RoutingPolicy::LeastRemainingWork, 7);
        let mut rnd = 0xC1A5;
        let mut loads = [NodeLoad {
            outstanding: 0,
            remaining_work: SimDuration::ZERO,
            kv_pressure_bp: 0,
        }; 4];
        for _ in 0..PICKS {
            let i = (lcg(&mut rnd) % 4) as usize;
            loads[i].outstanding = lcg(&mut rnd) % 64;
            loads[i].remaining_work = SimDuration::from_nanos(lcg(&mut rnd) % 1_000_000);
            black_box(router.pick(&candidates, &loads));
        }
    })
}

/// `channels.*`: one push and one pop on one thread.
pub fn notifq_ns() -> f64 {
    const N: u64 = 1_000_000;
    per_op(N, || {
        let (tx, mut rx) = notif_queue(1024);
        for i in 0..N {
            tx.post(Notification::placement(3, i as u32, 16));
            black_box(rx.poll());
        }
    })
}

pub fn spsc_ns() -> f64 {
    const N: u64 = 1_000_000;
    per_op(N, || {
        let (mut tx, mut rx) = ring::<u64>(1024);
        for i in 0..N {
            tx.push(i).expect("ring has room");
            black_box(rx.pop().expect("just pushed"));
        }
    })
}

pub fn doorbell_ns() -> f64 {
    const N: u64 = 1_000_000;
    per_op(N, || {
        let bell = Doorbell::new();
        for _ in 0..N {
            bell.ring();
            black_box(bell.epoch());
        }
    })
}

/// `llm.kv.op_ns`: one `try_alloc` and its `free`.
pub fn kv_op_ns() -> f64 {
    const N: u64 = 2_000_000;
    per_op(N, || {
        let mut pool = KvPool::new(16, 96);
        let mut rnd = 0x11A;
        for _ in 0..N {
            let pages = 1 + lcg(&mut rnd) % 8;
            if pool.try_alloc(pages) {
                pool.free(pages);
            }
        }
        black_box(pool.lifetime());
    })
}

/// `telemetry.record_ns`: one `Tracer::record_with` on an enabled tracer.
pub fn telemetry_record_ns() -> f64 {
    const N: u64 = 1_000_000;
    per_op(N, || {
        let mut tracer = Tracer::enabled();
        for i in 0..N {
            tracer.record_with(SimTime::from_nanos(i), || TraceEvent::KernelCompleted {
                kernel: i,
            });
        }
        black_box(tracer.take().len());
    })
}

/// `telemetry.inc_ns`: one `MetricsRegistry::inc`.
pub fn telemetry_inc_ns() -> f64 {
    const N: u64 = 2_000_000;
    per_op(N, || {
        let mut m = MetricsRegistry::new();
        for i in 0..N {
            m.inc(
                if i % 2 == 0 {
                    "sched_picks"
                } else {
                    "notifs_processed"
                },
                1,
            );
        }
        black_box(m.counter("sched_picks"));
    })
}

/// Host cost of opening and closing an empty span, and the part of it that
/// lands inside the recorded duration.
pub fn span_cost_ns() -> (f64, f64) {
    const N: u64 = 200_000;
    let mut inside = 0.0;
    let outside = per_op(N, || {
        let mut rec = crate::spans::SpanRecorder::new();
        for _ in 0..N {
            rec.enter("empty", crate::spans::NONE);
            rec.exit();
        }
        inside = crate::spans::by_name(rec.spans())["empty"].median_ns;
    });
    (outside, inside)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{models_of, prepare, Spec, Workload};

    #[test]
    fn replays_walk_the_workloads_own_ops() {
        let spec = Spec {
            requests: 40,
            warmup: 0,
            rate: 3_600.0,
        };
        let p = prepare(Workload::Cluster4, 23, spec, None);
        let (models, device) = models_of(Workload::Cluster4);
        let gpu = gpu_replay(&p, &models, &device);
        let kernels: usize = p
            .arrivals
            .iter()
            .map(|a| models[a.model.0 as usize].kernel_count())
            .sum();
        assert_eq!(gpu.kernels.len(), kernels, "one record per kernel launched");
        assert!(
            gpu.kernels.iter().all(|k| k.notifs.len() >= 2),
            "instrumented kernels post placement and completion words"
        );
        assert!(gpu.outputs_per_kernel >= 3.0);
        let occ = occupancy_replay(&gpu, &device);
        assert!(occ.kernel_ns > 0.0 && occ.notify_ns > 0.0);
        let wl = waitlist_replay(&p, &models);
        assert!(wl.op_ns > 0.0 && wl.ingest_ns_per_job > 0.0);
    }
}
