//! The Paella dispatcher (§5): a single-core serving loop that ingests
//! requests from client shared-memory rings, activates each job's ops in
//! CUDA stream order by predecessor counting over the model's op graph,
//! dispatches kernels per the configured scheduler and occupancy budget,
//! folds device notifications into the occupancy mirror, and returns
//! results through the hybrid wake-up channel.
//!
//! The same component, reconfigured, implements every Paella ablation of
//! Table 3 (Paella-SS, Paella-MS-jbj, Paella-MS-kbk, Paella-SJF, Paella-RR)
//! and serves as the submission engine for the direct-CUDA baselines.
//!
//! One file per seam, each the only place its decisions are made:
//!
//! * `config` — [`DispatcherConfig`], its enums, the fixed host costs and
//!   the Table 3 presets.
//! * `ingest` — model registration, admission, and a request becoming a job.
//! * `dispatch` — what leaves for the device and when: the kernel loop under
//!   the scheduler, the one hold path, and the host cost of a launch.
//! * `feedback` — device outputs: notification runs, op release and
//!   completion, a finished job's wake-up and journey, and the retire path.
//! * `failure` — injected faults, retries and cancellation.
//! * `ops` — the record table of dispatched ops and their notifQ slots.
//! * `streams` — the stream pool.
//! * `load` — the load book behind [`load_signal`](ServingSystem::load_signal).
//!
//! This file holds the state, the event loop, the host CPU table and the
//! test hooks.

mod config;
mod dispatch;
mod failure;
mod feedback;
mod ingest;
mod load;
mod ops;
mod streams;

use std::collections::{BTreeMap, BTreeSet};

use paella_channels::ChannelConfig;
use paella_compiler::CompiledModel;
use paella_gpu::{DeviceConfig, GpuRuns, GpuSim};
use paella_sim::{EventQueue, IdMap, SimDuration, SimTime, Xoshiro256pp};
use paella_telemetry::{HostOpKind, MetricsSnapshot, TraceEvent, TraceLog};

pub use config::{DispatcherConfig, Granularity, StreamPolicy, WakeupMode};

use config::SAMPLE_INTERVAL;
use ingest::{Job, RegisteredModel};
use load::LoadBook;
use ops::OpRecords;
use streams::StreamPool;

use crate::occupancy::OccupancyTracker;
use crate::sched::Scheduler;
use crate::serve::{earliest, EngineCore, ServingSystem};
use crate::types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LoadSignal,
    ModelId,
};

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A request finished crossing the client→dispatcher ring. Carries the
    /// work estimate charged to the load book at submit time so the exact
    /// amount is released at ingest even if the profile refines in between.
    Ingest(InferenceRequest, SimDuration),
    /// The job's deadline passed; cancel it if still in flight. Stale
    /// deadlines (job already finished) are harmless: job ids never reuse.
    Deadline(JobId),
    /// Re-dispatch op `token` of a job whose kernel faulted, after backoff.
    Retry(JobId, u64),
}

/// The dispatcher plus the device it drives.
pub struct Dispatcher {
    cfg: DispatcherConfig,
    gpu: GpuSim,
    scheduler: Box<dyn Scheduler>,
    models: Vec<RegisteredModel>,
    /// In-flight jobs, indexed by job id. Boxed so a slot of the id window
    /// a straggler holds open costs a pointer, not a whole `Job`.
    jobs: IdMap<Box<Job>>,
    next_job: u64,
    events: EventQueue<Ev>,
    streams: StreamPool,
    occupancy: OccupancyTracker,
    ops: OpRecords,
    /// When each host CPU core, indexed by core id, is next free.
    cpu_free_at: Vec<SimTime>,
    load: LoadBook,
    gpu_out: GpuRuns,
    /// Ops one release activated, before they join the job's queue.
    newly_active: Vec<u32>,
    /// Jobs in flight per client (for deficit resets on idle).
    client_inflight: BTreeMap<ClientId, u64>,
    now: SimTime,
    /// Bernoulli source for injected kernel faults, independent of the GPU's
    /// own RNG so enabling faults never perturbs device timing draws.
    fault_rng: Xoshiro256pp,
    /// Clients that disconnected: their in-flight jobs were cancelled and
    /// later submissions are refused.
    disconnected: BTreeSet<ClientId>,
    /// Host-side telemetry, the completion / failure / post-mortem outboxes
    /// and the accounting debit.
    core: EngineCore,
    /// Next virtual-time series sample instant.
    next_sample: SimTime,
}

impl ServingSystem for Dispatcher {
    /// Registers a model, applying the instrumentation pass if configured,
    /// and bootstrapping its profile ("a series of simple profiling runs").
    ///
    /// # Panics
    ///
    /// Panics if the model's multi-stream schedule is malformed or contains
    /// a stream/dependency wait cycle, or if it needs more streams than a
    /// [`StreamPolicy::Pool`] holds: every job of such a model would wedge
    /// at ingest, so the bad artifact is rejected once, here, where the
    /// failure names the model.
    fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        self.register(model)
    }

    /// Submits an inference request (the client's `paella.predict`). The
    /// request crosses the shared-memory ring and is ingested when the
    /// dispatcher polls it.
    fn submit(&mut self, req: InferenceRequest) {
        self.admit(req);
    }

    /// Earliest pending work (GPU or dispatcher).
    fn next_event_time(&mut self) -> Option<SimTime> {
        earliest(self.gpu.next_time(), self.events.peek_time())
    }

    /// Processes all work with timestamp ≤ `t`. The device steps first when
    /// it and a host event fall on the same instant.
    fn advance_until(&mut self, t: SimTime) {
        loop {
            let tg = self.gpu.next_time();
            let Some(next) = earliest(tg, self.events.peek_time()).filter(|&next| next <= t) else {
                break;
            };
            self.now = next.max(self.now);
            self.maybe_sample();
            if tg == Some(next) {
                let mut buf = std::mem::take(&mut self.gpu_out);
                self.gpu.advance_until_runs(next, &mut buf);
                for (out, words) in buf.iter() {
                    self.handle_gpu_output(out, words);
                }
                self.gpu_out = buf;
            } else {
                // invariant: `next` is the earlier of the two peeks and not
                // the device's, and nothing pops between peek and here.
                let (at, ev) = self.events.pop().expect("peeked event");
                self.now = self.now.max(at);
                match ev {
                    Ev::Ingest(req, est) => self.ingest(at, req, est),
                    Ev::Deadline(id) => self.cancel_job(id, at, FailureReason::DeadlineExceeded),
                    Ev::Retry(id, token) => self.retry_kernel(id, token, at),
                }
            }
            self.try_dispatch();
        }
        self.now = self.now.max(t);
    }

    fn drain_completions(&mut self) -> Vec<JobCompletion> {
        self.core.take_completions()
    }

    fn drain_failures(&mut self) -> Vec<JobFailure> {
        self.core.take_failures()
    }

    fn name(&self) -> String {
        format!("dispatcher[{}]", self.scheduler.name())
    }

    /// Turns on structured telemetry: the dispatcher and its device record
    /// typed events, and a metrics registry starts counting. Costs nothing
    /// until called — the default sinks are no-ops.
    fn enable_telemetry(&mut self) {
        self.core.enable_telemetry();
        self.gpu.set_tracer(paella_telemetry::Tracer::enabled());
    }

    /// Takes the host + device trace recorded so far, concatenated in that
    /// order: in the word-level view dispatcher events sort before device
    /// events at equal timestamps, so output is deterministic.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        (self.core.tracer.is_enabled())
            .then(|| TraceLog::concat(vec![self.core.tracer.take(), self.gpu.take_trace_log()]))
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.core.metrics_snapshot()
    }

    /// Flight-recorder dumps rendered on terminal failures so far (empty
    /// unless telemetry is enabled and a retry budget ran out).
    fn take_postmortems(&mut self) -> Vec<String> {
        self.core.take_postmortems()
    }

    /// The dispatcher's ground-truth load: queued + in-flight request counts
    /// and the SRPT estimated-remaining-time summed over all of them. This is
    /// the same per-job `profile.remaining(done_counts)` quantity the
    /// scheduler ranks on, so a cluster router reading it routes on exactly
    /// what the node's scheduler will see. O(1): the load book keeps the sum
    /// as work arrives, dispatches and retires — this sits on the cluster
    /// router's per-poll path.
    fn load_signal(&self) -> LoadSignal {
        self.load.signal(self.jobs.len() as u64)
    }
}

impl Dispatcher {
    /// Creates a dispatcher over a fresh device. The channel argument is
    /// inert: every channel cost is a constant of `paella_channels::latency`.
    pub fn new(
        device: DeviceConfig,
        _channels: ChannelConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: DispatcherConfig,
        seed: u64,
    ) -> Self {
        Dispatcher {
            cfg,
            occupancy: OccupancyTracker::new(device.num_sms, device.sm_limits),
            gpu: GpuSim::new(device, seed),
            scheduler,
            models: Vec::new(),
            jobs: IdMap::new(),
            next_job: 1,
            events: EventQueue::new(),
            streams: StreamPool::new(cfg.streams),
            ops: OpRecords::new(cfg.instrument),
            cpu_free_at: Vec::new(),
            load: LoadBook::default(),
            gpu_out: GpuRuns::default(),
            newly_active: Vec::new(),
            client_inflight: BTreeMap::new(),
            now: SimTime::ZERO,
            fault_rng: Xoshiro256pp::seed_from_u64(seed ^ 0xFA_0175),
            disconnected: BTreeSet::new(),
            core: EngineCore::default(),
            next_sample: SimTime::ZERO,
        }
    }

    /// Adjusts the injected per-kernel fault probability at runtime (the
    /// cluster tier applies a [`FaultPlan`](paella_sim::FaultPlan)'s rate to
    /// nodes built before the plan existed).
    pub fn set_kernel_fault_rate(&mut self, rate: f64) {
        self.cfg.kernel_fault_rate = rate;
    }

    /// The current profiled total-time estimate for a model (bootstrap plus
    /// any online refinement).
    ///
    /// # Panics
    ///
    /// Panics if `model` is unknown.
    pub fn profile_estimate(&self, model: ModelId) -> SimDuration {
        self.models[model.0 as usize].profile.total_estimate()
    }

    /// Number of jobs in flight.
    pub fn inflight(&self) -> usize {
        self.jobs.len()
    }

    /// Kernels the occupancy mirror still tracks (conservation test hook).
    #[doc(hidden)]
    pub fn occupancy_tracked_kernels(&self) -> usize {
        self.occupancy.tracked_kernels()
    }

    /// Blocks the occupancy mirror counts resident (conservation test hook).
    #[doc(hidden)]
    pub fn occupancy_resident_blocks(&self) -> u64 {
        self.occupancy.resident_blocks()
    }

    /// notifQ slots still reserved by in-flight kernels (conservation test
    /// hook).
    #[doc(hidden)]
    pub fn notifq_outstanding(&self) -> u64 {
        self.ops.notifq_outstanding
    }

    /// In-flight job `id`.
    fn job(&self, id: JobId) -> &Job {
        // invariant: callers pass an id they just found in (or inserted
        // into) self.jobs, and jobs leave only through `retire`.
        self.jobs.get(id.0).expect("job in flight")
    }

    fn job_mut(&mut self, id: JobId) -> &mut Job {
        // invariant: as for `job`.
        self.jobs.get_mut(id.0).expect("job in flight")
    }

    /// The registered model in-flight job `id` runs.
    fn model_of(&self, id: JobId) -> &RegisteredModel {
        &self.models[self.job(id).request.model.0 as usize]
    }

    /// Charges `cost` of `client`'s CPU work that can start no earlier than
    /// `at` to the core it lands on: `(core, start, done)`. Central mode
    /// shards jobs across the dispatcher cores by client; in direct mode each
    /// client submits on a core of its own.
    fn charge(
        &mut self,
        client: ClientId,
        at: SimTime,
        cost: SimDuration,
    ) -> (u32, SimTime, SimTime) {
        let core = match (self.cfg.central_cpu, self.cfg.dispatcher_cores) {
            (true, 0 | 1) => 0,
            (true, cores) => client.0 % cores,
            (false, _) => client.0,
        };
        let i = core as usize;
        if i >= self.cpu_free_at.len() {
            self.cpu_free_at.resize(i + 1, SimTime::ZERO);
        }
        let start = at.max(self.cpu_free_at[i]);
        self.cpu_free_at[i] = start + cost;
        (core, start, start + cost)
    }

    /// [`charge`](Self::charge), recording the span as a telemetry
    /// [`HostOp`](TraceEvent::HostOp) on the charged core's track; returns
    /// the completion instant of that work.
    fn host_op(
        &mut self,
        kind: HostOpKind,
        client: ClientId,
        at: SimTime,
        cost: SimDuration,
    ) -> SimTime {
        let (core, start, done) = self.charge(client, at, cost);
        self.core
            .trace(done, || TraceEvent::HostOp { kind, core, start });
        done
    }

    /// Emits periodic virtual-time metric samples (and a matching counter
    /// trace record) on a fixed grid, so series are seed-stable.
    fn maybe_sample(&mut self) {
        if !self.core.metrics_enabled() {
            return;
        }
        let capacity = u64::from(self.gpu.config().num_sms)
            * u64::from(self.gpu.config().sm_limits.max_blocks);
        while self.next_sample <= self.now {
            let at = self.next_sample;
            self.next_sample = at + SAMPLE_INTERVAL;
            let ready = self.scheduler.ready_len() as u64;
            let inflight = self.jobs.len() as u64;
            let waiters = self.streams.waiters.len() as u64;
            let backlog = self.ops.notifq_outstanding;
            let resident = self.gpu.resident_blocks();
            let occupancy_pct = resident * 100 / capacity.max(1);
            // In `TICK_COUNTERS` order.
            let values = [ready, inflight, waiters, backlog, resident, occupancy_pct];
            self.core.tick(at, values);
        }
    }
}
