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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use paella_channels::{ChannelConfig, KernelUid, NotifKind, SmId};
use paella_compiler::{
    bootstrap_profile, instrumented, measure_uncontended, CompiledModel, DagResources, KernelDag,
    ModelProfile,
};
use paella_gpu::{
    CopyDir, DeviceConfig, GpuRunOutput, GpuRuns, GpuSim, InstrumentationSpec, KernelDesc,
    KernelLaunch, MemcpyOp, MemcpyUid, StreamId,
};
use paella_sim::{EventQueue, IdMap, SimDuration, SimTime, Xoshiro256pp};
use paella_telemetry::{
    HoldReason, HostOpKind, JobBegin, JobJourney, MetricsSnapshot, NotifRun, TraceEvent, TraceLog,
};

use crate::occupancy::OccupancyTracker;
use crate::sched::{JobInfo, Scheduler};
use crate::serve::{earliest, split, EngineCore, ServingSystem};
use crate::types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LoadSignal,
    ModelId,
};

/// Dispatch granularity (Table 3's "Dispatch" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// One kernel at a time, gated by the scheduler and occupancy budget.
    Kernel,
    /// The whole job's op sequence at submission time (job-by-job).
    Job,
}

/// Stream assignment policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamPolicy {
    /// All jobs share one stream (single-stream systems).
    Single,
    /// Every job gets a fresh stream id; ids beyond the hardware queue count
    /// alias queues — the CUDA-MS behaviour.
    PerJobUnbounded,
    /// A pool of up to N real streams, reused so that no two live jobs share
    /// a hardware queue — Paella's virtual-stream replacement (§5.2).
    Pool(u32),
}

/// How results reach the client (Fig. 14's three client protocols).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeupMode {
    /// Hybrid interrupt-then-poll (Paella's default, §5.3).
    Hybrid,
    /// Client polls shared memory continuously.
    Polling,
    /// Plain Unix-socket notification.
    Socket,
}

/// Maximum expected predecessor runtime for pipelined release. Covers typical
/// inference kernels (tens of µs) so intra-job boundaries are gap-hidden;
/// long synthetic kernels (hundreds of µs) stay completion-released to avoid
/// parking dep-blocked kernels at hardware-queue heads.
const PIPELINE_WINDOW: SimDuration = SimDuration::from_micros(100);
/// CPU cost of one scheduling decision.
const SCHED_COST: SimDuration = SimDuration::from_nanos(300);
/// CPU cost to process one notification.
const NOTIF_COST: SimDuration = SimDuration::from_nanos(120);
/// CPU cost to process a completion and post the result.
const COMPLETION_COST: SimDuration = SimDuration::from_nanos(700);
/// Base backoff before a faulted kernel's first retry; doubles per
/// subsequent fault of the same op (exponential backoff).
const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(20);
/// Lower bound on a deadline budget, so tiny models are not cancelled on
/// queueing noise.
const DEADLINE_FLOOR: SimDuration = SimDuration::from_micros(500);

/// Dispatcher configuration. Defaults reproduce the full Paella system.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    /// Dispatch granularity.
    pub granularity: Granularity,
    /// The §6 lookahead slack `B`, in blocks.
    pub lookahead_blocks: u64,
    /// Release a job's next op when its predecessor is *fully placed*
    /// (pipelined, requires instrumentation) instead of completed. Only
    /// applied when the predecessor's expected runtime is within
    /// `PIPELINE_WINDOW`, so a dependent kernel is dispatched only when it
    /// can be placed "soon" (§3) rather than parking at a hardware-queue
    /// head.
    pub release_on_placement: bool,
    /// Gate kernel dispatch on the occupancy mirror. When `false`, active
    /// kernels dispatch immediately (the -kbk ablation).
    pub hold_for_occupancy: bool,
    /// Instrument kernels with the compiler pass.
    pub instrument: bool,
    /// Stream assignment.
    pub streams: StreamPolicy,
    /// Client wake-up protocol.
    pub wakeup: WakeupMode,
    /// Injected per-decision scheduling delay (Fig. 9's sweep variable).
    pub injected_delay: SimDuration,
    /// CPU cost to ingest one request from the client ring.
    pub ingest_cost: SimDuration,
    /// Whether host-side costs serialize on one dispatcher core (serving
    /// systems) or per client (direct CUDA submission).
    pub central_cpu: bool,
    /// Refine per-kernel profiles online from observed placement→completion
    /// spans (§6: "these profiles can be further refined online").
    pub online_profiling: bool,
    /// Capacity of the device→host notifQ in slots. The ring does not detect
    /// overruns, so the dispatcher reserves slots at kernel dispatch and
    /// delays dispatches that would exceed the capacity (§5.2 flow control).
    pub notifq_capacity: u64,
    /// Dispatcher threads in central-CPU mode (§4.2: "it can be parallelized
    /// by sharding jobs across threads"). Jobs shard by client id; each
    /// shard gets its own notifQ (§5.2: "a single notifQ for each dispatcher
    /// thread").
    pub dispatcher_cores: u32,
    /// Injected per-kernel fault probability (DESIGN §11): each kernel
    /// completion is independently declared a fault with this probability,
    /// rolled on the dispatcher's own seeded RNG in DES order so same-seed
    /// runs fault identically. `0.0` disables injection.
    pub kernel_fault_rate: f64,
    /// How many times a faulted kernel is re-dispatched before the whole job
    /// fails with [`FailureReason::RetryBudgetExhausted`].
    pub retry_budget: u32,
    /// Per-request deadline as a multiple of the model's profiled total
    /// estimate (never less than `DEADLINE_FLOOR`), anchored at
    /// `submitted_at`; the job is cancelled and its resources reclaimed when
    /// it passes. `None` disables deadlines.
    pub deadline_factor: Option<f64>,
    /// Admission-control watermark: a request arriving while
    /// `load_signal().outstanding()` is at or above this is shed instead of
    /// queued. `None` disables shedding.
    pub shed_watermark: Option<u64>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            granularity: Granularity::Kernel,
            // One device fill of slack (T4: 40 SMs x ~8 blocks): enough
            // queued work to ride out notification latency without deep
            // hardware queues. The Criterion lookahead ablation sweeps this.
            lookahead_blocks: 320,
            release_on_placement: true,
            hold_for_occupancy: true,
            instrument: true,
            // Virtual streams bound to real streams at launch (§5.2): the
            // pool is large because Paella's occupancy gating ensures queued
            // kernels place promptly, making hardware-queue sharing benign.
            streams: StreamPolicy::Pool(512),
            wakeup: WakeupMode::Hybrid,
            injected_delay: SimDuration::ZERO,
            ingest_cost: SimDuration::from_nanos(800),
            central_cpu: true,
            online_profiling: true,
            notifq_capacity: 65_536,
            dispatcher_cores: 1,
            kernel_fault_rate: 0.0,
            retry_budget: 3,
            deadline_factor: None,
            shed_watermark: None,
        }
    }
}

impl DispatcherConfig {
    /// The full Paella system (default scheduler supplied separately).
    pub fn paella() -> Self {
        Self::default()
    }

    /// Paella-SS: Paella's frontend, single stream, job-by-job FIFO.
    pub fn paella_ss() -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams: StreamPolicy::Single,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Paella-MS-jbj: job-by-job to a unique stream; the GPU schedules.
    pub fn paella_ms_jbj() -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams: StreamPolicy::PerJobUnbounded,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Paella-MS-kbk: kernel-by-kernel, dispatched as soon as active.
    pub fn paella_ms_kbk() -> Self {
        DispatcherConfig {
            granularity: Granularity::Kernel,
            streams: StreamPolicy::PerJobUnbounded,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: true,
            ..Self::default()
        }
    }

    /// Direct CUDA submission (no serving system): per-client CPUs, no
    /// ingest path, job-by-job.
    pub fn direct(streams: StreamPolicy) -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            streams,
            release_on_placement: false,
            hold_for_occupancy: false,
            instrument: false,
            central_cpu: false,
            ingest_cost: SimDuration::ZERO,
            ..Self::default()
        }
    }
}

/// A model registered with the dispatcher.
struct RegisteredModel {
    name: std::sync::Arc<str>,
    profile: ModelProfile,
    /// Uncontended device execution time (for breakdown reporting).
    uncontended: SimDuration,
    /// Per-kernel-location `Σ_jobs max(0, C̄_i − done_i)` over this model's
    /// in-flight jobs — the expected executions still owed to the device.
    /// Maintained at ingest / kernel dispatch / job retire so the
    /// [`LoadSignal`](crate::types::LoadSignal) remaining-work aggregate
    /// updates in O(1) per event instead of rescanning every job per poll.
    left: Vec<f64>,
    /// The op graph this dispatcher executes (DESIGN §15), validated once at
    /// registration: each node carries its op's virtual stream and
    /// resources, and an op activates when its predecessor count reaches
    /// zero. Kernel granularity runs the model's stream plan; job
    /// granularity the sequential single-stream chain.
    dag: KernelDag,
    /// The distinct virtual streams of `dag`, sorted: a job's i-th real
    /// stream backs the i-th entry.
    vstreams: Vec<u32>,
    /// Kernel descriptors indexed by kernel location, for O(1) lookup on
    /// the dispatch hot path (`model.kernels().nth(loc)` is O(K)).
    kernel_descs: Vec<KernelDesc>,
}

impl RegisteredModel {
    /// What dispatching op `token` costs the device.
    fn op(&self, token: u64) -> DagResources {
        self.dag.node(token as usize).resources
    }

    fn is_kernel(&self, token: u64) -> bool {
        matches!(self.op(token), DagResources::Kernel { .. })
    }

    /// Index into a job's real streams of the one backing op `token`.
    fn stream_slot(&self, token: u64) -> usize {
        // invariant: vstreams is the sorted dedup of this same dag's node
        // vstreams, built beside it in register_model.
        self.vstreams
            .binary_search(&self.dag.node(token as usize).vstream)
            .expect("vstream registered")
    }
}

/// What a released op's [`Job::preds_left`] slot holds.
const RELEASED: u32 = u32::MAX;

struct Job {
    request: InferenceRequest,
    /// Tokens currently active (released predecessors) and not dispatched.
    active_undispatched: VecDeque<u64>,
    /// Ops dispatched but not completed.
    outstanding: u64,
    /// Ops completed.
    completed: usize,
    /// Per-kernel-location dispatch counts (for remaining-time estimates).
    done_counts: Vec<u32>,
    /// Real CUDA streams backing this job's virtual streams, in vstream
    /// order (index i backs the i-th distinct vstream). Empty until a pool
    /// stream is available.
    streams: Vec<StreamId>,
    total_estimate: SimDuration,
    almost_finished_at: Option<SimTime>,
    ingested_at: SimTime,
    /// Whether the last op has been dispatched.
    last_dispatched: bool,
    /// Accumulated framework CPU time attributed to this job.
    framework: SimDuration,
    /// Per-op unreleased-predecessor counts over the model's [`KernelDag`].
    /// An op activates exactly when its count hits zero. Once the op itself
    /// is released its count has no reader left, so the slot holds
    /// [`RELEASED`] from then on and doubles as the release-idempotency
    /// mark.
    preds_left: Vec<u32>,
    /// Deadline instant, when a deadline factor is configured (SLO ledger).
    deadline_at: Option<SimTime>,
    /// -- journey accumulators (DESIGN §12): raw per-cause wait time, -----
    /// -- clamped into the queuing remainder at completion ----------------
    /// Nanoseconds parked in retry backoff after injected kernel faults.
    backoff_ns: u64,
    /// When the job's frontier became dependency-blocked (open interval).
    /// While it is set the job is not ready in the scheduler
    /// (`update_readiness`).
    dep_since: Option<SimTime>,
    /// Accumulated dependency-blocked nanoseconds.
    dep_wait_ns: u64,
    /// When the job was first held by flow control (open interval).
    occ_since: Option<SimTime>,
    /// Accumulated flow-control hold nanoseconds.
    occ_wait_ns: u64,
    /// Fault count per op, for retry budgeting and backoff doubling. Empty
    /// (and unallocated) unless a kernel of this job faulted.
    attempts: BTreeMap<u64, u32>,
}

/// A dispatched kernel the device has not yet reported complete: everything
/// the notification path needs, under the kernel's uid, so one word costs
/// one index instead of a probe per question. Dropped at completion, or
/// with its job at cancellation — late words for a cancelled kernel find no
/// record and fall through.
struct InflightKernel {
    job: JobId,
    token: u64,
    /// The owning job's client (the dispatcher shard that polls its notifQ).
    client: ClientId,
    /// Whether this is the job's final op (pinned-output wakeup).
    is_last: bool,
    /// First-placement time (online profiling).
    started: Option<SimTime>,
    /// notifQ slots reserved at dispatch and not yet consumed by a word;
    /// the rest is released at completion (flow control).
    notifq_reserved: u64,
}

impl Job {
    /// Whether real streams have been assigned.
    fn has_streams(&self) -> bool {
        !self.streams.is_empty()
    }

    fn next_active(&self) -> Option<u64> {
        self.active_undispatched.front().copied()
    }
}

#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A request finished crossing the client→dispatcher ring. Carries the
    /// work estimate charged to `queued_work` at submit time so the exact
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
    channels: ChannelConfig,
    gpu: GpuSim,
    scheduler: Box<dyn Scheduler>,
    models: Vec<RegisteredModel>,
    /// In-flight jobs, indexed by job id. Boxed so a slot of the id window
    /// a straggler holds open costs a pointer, not a whole `Job`.
    jobs: IdMap<Box<Job>>,
    events: EventQueue<Ev>,
    /// Jobs waiting for a free pool stream.
    stream_waiters: VecDeque<JobId>,
    free_streams: Vec<StreamId>,
    next_stream: u32,
    occupancy: OccupancyTracker,
    /// Dispatched, uncompleted kernels, indexed by kernel uid.
    kernels: IdMap<InflightKernel>,
    /// `(job, token)` of each outstanding memcpy, indexed by memcpy uid.
    memcpy_to_job: IdMap<(JobId, u64)>,
    next_kernel_uid: KernelUid,
    next_memcpy_uid: u64,
    next_job: u64,
    /// Single-core CPU availability (central mode).
    cpu_free_at: Vec<SimTime>,
    /// Per-client CPU availability (direct mode).
    client_cpu_free_at: BTreeMap<ClientId, SimTime>,
    gpu_out: GpuRuns,
    /// Ops one release activated, before they join the job's queue.
    newly_active: Vec<u32>,
    /// Jobs in flight per client (for deficit resets on idle).
    client_inflight: BTreeMap<ClientId, u64>,
    /// notifQ slots reserved by in-flight kernels minus consumed
    /// notifications (flow control): the sum of the records'
    /// `notifq_reserved`.
    notifq_outstanding: u64,
    /// Requests submitted but not yet ingested off the ring, with the sum of
    /// their profiled total estimates (the queued half of [`LoadSignal`]).
    queued_ingest: u64,
    queued_work: SimDuration,
    /// The in-flight half of [`LoadSignal`]: `Σ_jobs Σ_i max(0, C̄_i −
    /// done_i) · T̄_i` in microseconds, maintained incrementally alongside
    /// each model's `left` vector (invariant: `inflight_work_us = Σ_models
    /// Σ_i left_i · T̄_i`). Updated at ingest (+fresh estimate), kernel
    /// dispatch (−one execution), online profile refinement (±left·ΔT̄),
    /// and job retire (−residual), so `load_signal()` is O(1) instead of
    /// O(in-flight jobs) per router poll.
    inflight_work_us: f64,
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
    /// `(core, start)` of the most recent CPU charge (telemetry span data).
    last_charge: (u32, SimTime),
}

/// Virtual-time spacing of periodic metric samples.
const SAMPLE_INTERVAL: SimDuration = SimDuration::from_micros(50);

impl ServingSystem for Dispatcher {
    /// Registers a model, applying the instrumentation pass if configured,
    /// and bootstrapping its profile ("a series of simple profiling runs").
    ///
    /// # Panics
    ///
    /// Panics if the model's multi-stream schedule is malformed or contains
    /// a stream/dependency wait cycle: every job of such a model would wedge
    /// at ingest, so the bad artifact is rejected once, here, where the
    /// failure names the model.
    fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        let mut compiled = if self.cfg.instrument {
            instrumented(model, InstrumentationSpec::default())
        } else {
            model.clone()
        };
        // Shape-, range- and cycle-checked once here, so every per-job use
        // (pred-count copies at ingest, successor walks at release) can
        // trust it unconditionally.
        let build = |m: &CompiledModel| match KernelDag::build(m) {
            Ok(d) => d,
            Err(e) => panic!("model {:?}: unschedulable stream plan: {e}", m.name),
        };
        let mut dag = build(&compiled);
        if self.cfg.granularity == Granularity::Job && compiled.schedule.is_some() {
            // Cross-stream joins need the kernel-granularity dispatcher
            // (there is no device-side event in job-by-job submission), so
            // job-mode configs run scheduled models sequentially.
            compiled.schedule = None;
            dag = build(&compiled);
        }
        let mut vstreams: Vec<u32> = (0..dag.len()).map(|t| dag.node(t).vstream).collect();
        vstreams.sort_unstable();
        vstreams.dedup();
        let kernel_descs: Vec<KernelDesc> = compiled.kernels().cloned().collect();
        let profile = bootstrap_profile(model);
        let uncontended = measure_uncontended(&compiled, self.gpu.config());
        let id = ModelId(self.models.len() as u32);
        let left = vec![0.0; profile.kernels.len()];
        self.models.push(RegisteredModel {
            name: compiled.name,
            profile,
            uncontended,
            left,
            dag,
            vstreams,
            kernel_descs,
        });
        id
    }

    /// Submits an inference request (the client's `paella.predict`). The
    /// request crosses the shared-memory ring and is ingested when the
    /// dispatcher polls it.
    fn submit(&mut self, req: InferenceRequest) {
        if self.disconnected.contains(&req.client) {
            self.core
                .fail(req, FailureReason::Disconnected, req.submitted_at);
            return;
        }
        if let Some(w) = self.cfg.shed_watermark {
            if self.load_signal().outstanding() >= w {
                self.core
                    .trace(req.submitted_at, || TraceEvent::RequestShed {
                        client: req.client.0,
                        model: req.model.0,
                    });
                self.core.inc("requests_shed", 1);
                self.core.fail(req, FailureReason::Shed, req.submitted_at);
                return;
            }
        }
        let arrive = req
            .submitted_at
            .saturating_add(self.channel_submit_latency())
            .max(self.events.now());
        let est = self
            .models
            .get(req.model.0 as usize)
            .map_or(SimDuration::ZERO, |m| m.profile.total_estimate());
        self.queued_ingest += 1;
        self.queued_work += est;
        self.events.schedule_at(arrive, Ev::Ingest(req, est));
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
        format!("dispatcher[{}]", self.scheduler_name())
    }

    /// Turns on structured telemetry: the dispatcher and its device record
    /// typed events, and a metrics registry starts counting. Costs nothing
    /// until called — the default sinks are no-ops.
    fn enable_telemetry(&mut self) {
        self.core.enable_telemetry();
        self.gpu.set_tracer(paella_telemetry::Tracer::enabled());
    }

    /// Takes the merged host + device trace recorded so far. Merge order is
    /// fixed — dispatcher events sort before device events at equal
    /// timestamps — so output is deterministic.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.telemetry_enabled()
            .then(|| TraceLog::merged(vec![self.core.tracer.take(), self.gpu.take_trace_log()]))
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
    /// what the node's scheduler will see.
    /// O(1): the remaining-work sum is maintained incrementally (see
    /// `inflight_work_us`) rather than recomputed by scanning every
    /// in-flight job — this sits on the cluster router's per-poll path.
    fn load_signal(&self) -> LoadSignal {
        LoadSignal {
            queued: self.queued_ingest,
            inflight: self.jobs.len() as u64,
            remaining_work: self.queued_work
                + SimDuration::from_micros_f64(self.inflight_work_us.max(0.0)),
            // Fixed-trace serving has no KV budget; the LLM tier reports one.
            kv_pages_used: 0,
            kv_pages_total: 0,
        }
    }
}

impl Dispatcher {
    /// Creates a dispatcher over a fresh device.
    pub fn new(
        device: DeviceConfig,
        channels: ChannelConfig,
        scheduler: Box<dyn Scheduler>,
        cfg: DispatcherConfig,
        seed: u64,
    ) -> Self {
        let occupancy = OccupancyTracker::new(device.num_sms, device.sm_limits);
        let free_streams = match cfg.streams {
            StreamPolicy::Pool(n) => (1..=n).map(StreamId).collect(),
            _ => Vec::new(),
        };
        Dispatcher {
            cfg,
            channels,
            gpu: GpuSim::new(device, seed),
            scheduler,
            models: Vec::new(),
            jobs: IdMap::new(),
            events: EventQueue::new(),
            stream_waiters: VecDeque::new(),
            free_streams,
            next_stream: 1,
            occupancy,
            kernels: IdMap::new(),
            memcpy_to_job: IdMap::new(),
            next_kernel_uid: 1,
            next_memcpy_uid: 1,
            next_job: 1,
            cpu_free_at: vec![SimTime::ZERO; cfg.dispatcher_cores.max(1) as usize],
            client_cpu_free_at: BTreeMap::new(),
            gpu_out: GpuRuns::default(),
            newly_active: Vec::new(),
            client_inflight: BTreeMap::new(),
            notifq_outstanding: 0,
            queued_ingest: 0,
            queued_work: SimDuration::ZERO,
            inflight_work_us: 0.0,
            now: SimTime::ZERO,
            fault_rng: Xoshiro256pp::seed_from_u64(seed ^ 0xFA_0175),
            disconnected: BTreeSet::new(),
            core: EngineCore::default(),
            next_sample: SimTime::ZERO,
            last_charge: (0, SimTime::ZERO),
        }
    }

    /// Whether telemetry is currently recording.
    pub fn telemetry_enabled(&self) -> bool {
        self.core.tracer.is_enabled()
    }

    /// The scheduler in use (diagnostics).
    pub fn scheduler_name(&self) -> &'static str {
        self.scheduler.name()
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

    /// From-scratch recomputation of the in-flight remaining-work sum, in
    /// microseconds: the O(in-flight jobs) scan `load_signal` used to do.
    /// Kept as the verification oracle for the incremental aggregate (the
    /// two are equal up to float-summation-order rounding). Summed in
    /// job-id order, the order `jobs` iterates in: float addition doesn't
    /// commute exactly, so any other order would make the oracle itself
    /// vary (R6).
    #[doc(hidden)]
    pub fn inflight_work_scratch_us(&self) -> f64 {
        self.jobs
            .iter()
            .map(|(_, job)| {
                let idx = job.request.model.0 as usize;
                self.models[idx]
                    .profile
                    .remaining(&job.done_counts)
                    .as_micros_f64()
            })
            .sum()
    }

    /// The incrementally-maintained in-flight remaining-work sum, in
    /// microseconds (verification hook for tests).
    #[doc(hidden)]
    pub fn inflight_work_incremental_us(&self) -> f64 {
        self.inflight_work_us
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
        self.notifq_outstanding
    }

    // -- incremental LoadSignal maintenance ---------------------------------

    /// Takes one request, charged `est` at submit, off the queued half of
    /// the load signal (it was ingested, or lost with the ring).
    fn load_dequeue(&mut self, est: SimDuration) {
        self.core
            .debit(&mut self.queued_ingest, 1, "queued requests");
        self.core
            .debit_work(&mut self.queued_work, est, "queued work");
    }

    /// Credits a freshly ingested job of `model_idx`: every kernel location
    /// still owes its full expected executions.
    fn load_add_job(&mut self, model_idx: usize) {
        let rm = &mut self.models[model_idx];
        for loc in 0..rm.profile.kernels.len() {
            let kp = &rm.profile.kernels[loc];
            let owed = kp.count.mean().max(0.0);
            let t = kp.time_us.mean();
            rm.left[loc] += owed;
            self.inflight_work_us += owed * t;
        }
    }

    /// Debits one dispatched execution of kernel `loc`: `done` is the
    /// pre-dispatch count, so the clamped expected-executions delta is
    /// `max(0, C̄−done) − max(0, C̄−done−1)`.
    fn load_on_kernel_dispatch(&mut self, model_idx: usize, loc: usize, done: u32) {
        let rm = &mut self.models[model_idx];
        let kp = &rm.profile.kernels[loc];
        let cbar = kp.count.mean();
        let d = (cbar - f64::from(done)).max(0.0) - (cbar - f64::from(done + 1)).max(0.0);
        let t = kp.time_us.mean();
        // sub: f64 estimate; `d` is part of what ingest credited, `d ≥ 0`.
        rm.left[loc] -= d;
        self.inflight_work_us -= d * t; // sub: f64, the same delta in µs
    }

    /// Debits a retired job's residual (usually zero: every kernel has
    /// dispatched by completion) and, once the dispatcher is fully idle,
    /// snaps the aggregate back to exactly zero so float rounding from one
    /// burst can never drift into the next.
    fn load_remove_job(&mut self, model_idx: usize, done_counts: &[u32]) {
        let rm = &mut self.models[model_idx];
        for (loc, &done) in done_counts.iter().enumerate() {
            let kp = &rm.profile.kernels[loc];
            let d = (kp.count.mean() - f64::from(done)).max(0.0);
            let t = kp.time_us.mean();
            // sub: f64 estimate; the residual ingest credited and no
            // dispatch debited, snapped to zero below once idle.
            rm.left[loc] -= d;
            self.inflight_work_us -= d * t; // sub: f64, the same delta in µs
        }
        if self.jobs.is_empty() {
            self.inflight_work_us = 0.0;
            for rm in &mut self.models {
                rm.left.fill(0.0);
            }
        }
    }

    /// Reprices `left[loc]` executions after an online profile refinement
    /// moved kernel `loc`'s mean time from `old_us` to its current value.
    fn load_on_profile_refined(&mut self, model_idx: usize, loc: usize, old_us: f64) {
        let rm = &self.models[model_idx];
        let new_us = rm.profile.kernels[loc].time_us.mean();
        self.inflight_work_us += rm.left[loc] * (new_us - old_us);
    }

    fn channel_submit_latency(&self) -> SimDuration {
        if self.cfg.central_cpu {
            self.channels.shm.one_way()
        } else {
            SimDuration::ZERO // direct submission: no serving channel
        }
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
            let waiters = self.stream_waiters.len() as u64;
            let backlog = self.notifq_outstanding;
            let resident = self.gpu.resident_blocks();
            let occupancy_pct = resident * 100 / capacity.max(1);
            // In `TICK_COUNTERS` order.
            let values = [ready, inflight, waiters, backlog, resident, occupancy_pct];
            self.core.tick(at, values);
        }
    }

    // -- CPU accounting -----------------------------------------------------

    /// Charges `cost` of CPU work that can start no earlier than `ready`;
    /// returns the completion instant of that work.
    fn charge_cpu(&mut self, client: ClientId, ready: SimTime, cost: SimDuration) -> SimTime {
        let (core, free) = if self.cfg.central_cpu {
            // Central mode: jobs shard across dispatcher cores by client.
            let shard = match self.cpu_free_at.len() {
                1 => 0,
                cores => client.0 as usize % cores,
            };
            (shard as u32, &mut self.cpu_free_at[shard])
        } else {
            (
                client.0,
                self.client_cpu_free_at
                    .entry(client)
                    .or_insert(SimTime::ZERO),
            )
        };
        let start = ready.max(*free);
        let done = start + cost;
        *free = done;
        self.last_charge = (core, start);
        done
    }

    /// Like [`charge_cpu`](Self::charge_cpu), also recording the span as a
    /// telemetry [`HostOp`](TraceEvent::HostOp) on the charged core's track.
    fn charge_cpu_traced(
        &mut self,
        client: ClientId,
        ready: SimTime,
        cost: SimDuration,
        kind: HostOpKind,
    ) -> SimTime {
        let done = self.charge_cpu(client, ready, cost);
        let (core, start) = self.last_charge;
        self.core
            .trace(done, || TraceEvent::HostOp { kind, core, start });
        done
    }

    // -- ingest & job construction ------------------------------------------

    fn ingest(&mut self, at: SimTime, req: InferenceRequest, charged: SimDuration) {
        self.load_dequeue(charged);
        // A request queued on the ring when its client disconnected fails
        // here, without ever becoming a job.
        if self.disconnected.contains(&req.client) {
            self.core.fail(req, FailureReason::Disconnected, at);
            return;
        }
        let t_ingested =
            self.charge_cpu_traced(req.client, at, self.cfg.ingest_cost, HostOpKind::Ingest);
        *self.client_inflight.entry(req.client).or_insert(0) += 1;
        let model_idx = req.model.0 as usize;
        assert!(
            model_idx < self.models.len(),
            "unknown model {:?}",
            req.model
        );
        let id = JobId(self.next_job);
        self.next_job += 1;
        if self.core.tracer.is_enabled() {
            let model = self.models[model_idx].name.clone();
            let (job, client, submitted_at) = (id.0, req.client.0, req.submitted_at);
            self.core.trace(t_ingested, || {
                TraceEvent::JobBegin(Box::new(JobBegin {
                    job,
                    client,
                    model,
                    submitted_at,
                }))
            });
        }
        self.core.inc("jobs_ingested", 1);

        // The adaptor's run() issues every CUDA call up front (the coroutine
        // yields at the final sync), so the whole op graph is known here:
        // the job starts with the model's predecessor counts and its roots
        // active.
        let rm = &self.models[model_idx];
        let total_estimate = rm.profile.total_estimate();
        let job = Job {
            request: req,
            active_undispatched: rm.dag.roots().map(|t| t as u64).collect(),
            outstanding: 0,
            completed: 0,
            done_counts: vec![0; rm.kernel_descs.len()],
            streams: Vec::new(),
            total_estimate,
            almost_finished_at: None,
            ingested_at: t_ingested,
            last_dispatched: false,
            framework: self.cfg.ingest_cost,
            preds_left: rm.dag.pred_counts().to_vec(),
            deadline_at: None,
            backoff_ns: 0,
            dep_since: None,
            dep_wait_ns: 0,
            occ_since: None,
            occ_wait_ns: 0,
            attempts: BTreeMap::new(),
        };
        self.jobs.insert(id.0, Box::new(job));
        self.load_add_job(model_idx);
        self.assign_stream(id);
        if let Some(f) = self.cfg.deadline_factor {
            let budget = total_estimate.mul_f64(f).max(DEADLINE_FLOOR);
            let deadline = req.submitted_at.saturating_add(budget);
            self.job_mut(id).deadline_at = Some(deadline);
            self.events
                .schedule_at(deadline.max(self.events.now()), Ev::Deadline(id));
        }

        match self.cfg.granularity {
            Granularity::Job => self.dispatch_whole_job(id, t_ingested),
            Granularity::Kernel => {
                self.dispatch_auto_ops(id, t_ingested);
                self.update_readiness(id);
            }
        }
    }

    fn assign_stream(&mut self, id: JobId) {
        let want = self.model_of(id).vstreams.len().max(1);
        let streams: Vec<StreamId> = match self.cfg.streams {
            // A single shared stream backs every virtual stream (correct but
            // serialized — deps still hold because dispatch order respects
            // the op graph).
            StreamPolicy::Single => vec![StreamId(1); want],
            StreamPolicy::PerJobUnbounded => (0..want)
                .map(|_| {
                    let s = StreamId(self.next_stream);
                    self.next_stream += 1;
                    s
                })
                .collect(),
            StreamPolicy::Pool(_) => {
                if self.free_streams.len() >= want {
                    // invariant: the len() >= want guard above bounds the
                    // number of pops.
                    (0..want)
                        .map(|_| self.free_streams.pop().expect("checked"))
                        .collect()
                } else {
                    self.stream_waiters.push_back(id);
                    Vec::new()
                }
            }
        };
        self.job_mut(id).streams = streams;
    }

    // -- dispatch paths -----------------------------------------------------

    /// Job-granularity: push the entire op sequence to the device at once.
    fn dispatch_whole_job(&mut self, id: JobId, ready: SimTime) {
        for token in 0..self.model_of(id).dag.len() as u64 {
            // In job mode every op is "released" logically; stream ordering
            // on the device enforces execution order.
            self.dispatch_op(id, token, ready, true);
        }
        let j = self.job_mut(id);
        j.active_undispatched.clear();
        j.last_dispatched = true;
    }

    /// Dispatches any active non-kernel ops (memcpys run on copy engines and
    /// are not scheduled).
    fn dispatch_auto_ops(&mut self, id: JobId, ready: SimTime) {
        loop {
            let Some(j) = self.jobs.get(id.0) else { return };
            if !j.has_streams() {
                return; // waiting for pool streams
            }
            let Some(token) = j.next_active() else { return };
            if self.models[j.request.model.0 as usize].is_kernel(token) {
                return;
            }
            self.job_mut(id).active_undispatched.pop_front();
            self.dispatch_op(id, token, ready, false);
        }
    }

    /// Dispatches one op to the device, charging host costs.
    fn dispatch_op(&mut self, id: JobId, token: u64, ready: SimTime, whole_job: bool) {
        let j = self.job_mut(id);
        // Close any open flow-control hold interval: the op is leaving now,
        // so everything since the first hold was occupancy wait.
        if let Some(s) = j.occ_since.take() {
            j.occ_wait_ns += ready.saturating_since(s).as_nanos();
        }
        assert!(j.has_streams(), "dispatch without streams");
        let (model_idx, client) = (j.request.model.0 as usize, j.request.client);
        let rm = &self.models[model_idx];
        let (kind, last) = (rm.op(token), token as usize + 1 == rm.dag.len());
        let stream = self.job(id).streams[rm.stream_slot(token)];
        match kind {
            DagResources::H2D(bytes) | DagResources::D2H(bytes) => {
                let dir = if matches!(kind, DagResources::H2D(_)) {
                    CopyDir::HostToDevice
                } else {
                    CopyDir::DeviceToHost
                };
                // Almost-finished: fired before the final D2H (§4.2).
                if matches!(kind, DagResources::D2H(_)) && last {
                    self.fire_almost_finished(id, ready);
                }
                let overhead = self.channels.cuda.memcpy_overhead;
                let done = self.charge_cpu(client, ready, overhead);
                let uid = MemcpyUid(self.next_memcpy_uid);
                self.next_memcpy_uid += 1;
                self.memcpy_to_job.insert(uid.0, (id, token));
                let at = done.max(self.now);
                self.gpu.enqueue_memcpy(
                    at,
                    MemcpyOp {
                        uid,
                        stream,
                        bytes,
                        dir,
                    },
                );
                let j = self.job_mut(id);
                j.outstanding += 1;
                j.framework += overhead;
                j.last_dispatched |= last;
            }
            DagResources::Kernel { loc, .. } => {
                let loc = loc as usize;
                let cost = if whole_job {
                    self.channels.cuda.launch_overhead
                } else {
                    SCHED_COST + self.cfg.injected_delay + self.channels.cuda.launch_overhead
                };
                let done = self.charge_cpu_traced(client, ready, cost, HostOpKind::Sched);
                let uid = self.next_kernel_uid;
                self.next_kernel_uid += 1;
                // The dag numbered `loc` by enumerating this same model's
                // kernels, and models are append-only.
                let desc = self.models[model_idx].kernel_descs[loc].clone();
                {
                    let grid_blocks = desc.grid_blocks;
                    self.core.trace(done, || TraceEvent::KernelDispatched {
                        job: id.0,
                        kernel: u64::from(uid),
                        stream: stream.0,
                        grid_blocks,
                    });
                }
                self.core.inc("kernels_dispatched", 1);
                // The occupancy mirror only works when instrumented kernels
                // report back; without instrumentation there is nothing to
                // clean the tracker up, so skip it entirely.
                let mut notifq_reserved = 0;
                if self.cfg.instrument {
                    self.occupancy
                        .on_launch(uid, desc.footprint, desc.grid_blocks);
                    // Reserve worst-case notifQ slots: two phases, at most
                    // one word per block per phase.
                    notifq_reserved = 2 * u64::from(desc.grid_blocks);
                    self.notifq_outstanding += notifq_reserved;
                }
                self.kernels.insert(
                    u64::from(uid),
                    InflightKernel {
                        job: id,
                        token,
                        client,
                        is_last: last,
                        started: None,
                        notifq_reserved,
                    },
                );
                let at = (done + self.channels.cuda.launch_latency).max(self.now);
                self.gpu
                    .launch_kernel(at, KernelLaunch { uid, stream, desc });
                let j = self.job_mut(id);
                let done_before = j.done_counts[loc];
                j.outstanding += 1;
                j.done_counts[loc] += 1;
                j.framework += cost;
                j.last_dispatched |= last;
                // Debit the load aggregate with the pre-dispatch count.
                self.load_on_kernel_dispatch(model_idx, loc, done_before);
                // Pinned-output jobs (last op is a kernel) fire the
                // almost-finished wakeup when that kernel *starts*
                // (placement notification) — see `handle_gpu_output`.
                // Without instrumentation there is no placement signal,
                // so fall back to firing at launch.
                if last && !self.cfg.instrument {
                    self.fire_almost_finished(id, done);
                }
            }
        }
    }

    /// In-flight job `id`.
    fn job(&self, id: JobId) -> &Job {
        // invariant: callers pass an id they just found in (or inserted
        // into) self.jobs, and jobs leave only through finish_job/cancel_job.
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

    fn fire_almost_finished(&mut self, id: JobId, at: SimTime) {
        let wake = at + self.channels.socket.one_way();
        if let Some(j) = self.jobs.get_mut(id.0) {
            if j.almost_finished_at.is_none() {
                j.almost_finished_at = Some(wake);
                self.core
                    .trace(wake, || TraceEvent::DoorbellWake { job: id.0 });
            }
        }
    }

    /// The kernel-granularity dispatch loop (§6's overall strategy).
    fn try_dispatch(&mut self) {
        if self.cfg.granularity != Granularity::Kernel {
            return;
        }
        let mut spin_guard = 0u64;
        // Asked after every event, the loop usually finds nothing ready; it
        // then costs a length check, not a pick.
        while self.scheduler.ready_len() > 0 {
            let Some((job, rationale)) = self.scheduler.pick_next_explained() else {
                break;
            };
            spin_guard += 1;
            debug_assert!(spin_guard < 10_000_000, "try_dispatch spinning on {job:?}");
            let Some(token) = self.jobs.get(job.0).and_then(|j| j.next_active()) else {
                // Stale readiness; clear and retry.
                self.scheduler.job_blocked(job);
                continue;
            };
            let DagResources::Kernel {
                grid_blocks,
                footprint,
                ..
            } = self.model_of(job).op(token)
            else {
                // Non-kernel ops auto-dispatch.
                self.dispatch_auto_ops(job, self.now);
                self.update_readiness(job);
                continue;
            };
            if !self.job(job).has_streams() {
                // Waiting for pool streams; skip until they free.
                self.core.trace(self.now, || TraceEvent::OccupancyHold {
                    job: job.0,
                    reason: HoldReason::StreamPool,
                });
                self.mark_occ_hold(job);
                self.scheduler.job_blocked(job);
                continue;
            }
            if self.cfg.hold_for_occupancy {
                if !self
                    .occupancy
                    .should_dispatch(&footprint, self.cfg.lookahead_blocks)
                {
                    self.core.trace(self.now, || TraceEvent::OccupancyHold {
                        job: job.0,
                        reason: HoldReason::OccupancyBudget,
                    });
                    self.core.inc("occupancy_holds", 1);
                    self.mark_occ_hold(job);
                    break;
                }
                // notifQ flow control: never reserve past the ring capacity.
                if self.cfg.instrument
                    && self.notifq_outstanding + 2 * u64::from(grid_blocks)
                        > self.cfg.notifq_capacity
                {
                    self.core.trace(self.now, || TraceEvent::OccupancyHold {
                        job: job.0,
                        reason: HoldReason::NotifqBackpressure,
                    });
                    self.core.inc("notifq_holds", 1);
                    self.mark_occ_hold(job);
                    break;
                }
            }
            if self.core.tracer.is_enabled() {
                let policy = self.scheduler.name();
                let ready = self.scheduler.ready_len() as u32;
                self.core.trace(self.now, || TraceEvent::SchedDecision {
                    job: job.0,
                    policy,
                    rationale,
                    ready,
                });
            }
            self.core.inc("sched_picks", 1);
            self.scheduler.on_dispatched(job);
            self.job_mut(job).active_undispatched.pop_front();
            self.dispatch_op(job, token, self.now, false);
            self.dispatch_auto_ops(job, self.now);
            self.update_readiness(job);
        }
    }

    /// Syncs a job's readiness with the scheduler, closing/opening the
    /// dependency-wait interval on the transition.
    fn update_readiness(&mut self, id: JobId) {
        let Some(j) = self.jobs.get_mut(id.0) else {
            self.scheduler.job_blocked(id);
            return;
        };
        let m = &self.models[j.request.model.0 as usize];
        let ready = j.next_active().is_some_and(|t| m.is_kernel(t));
        if ready {
            if let Some(s) = j.dep_since.take() {
                j.dep_wait_ns += self.now.saturating_since(s).as_nanos();
            }
            self.scheduler.job_ready(JobInfo {
                job: id,
                client: j.request.client,
                arrival: j.ingested_at,
                total_estimate: j.total_estimate,
                remaining_estimate: m.profile.remaining(&j.done_counts),
            });
        } else if j.dep_since.is_none() {
            // Only on the transition: the branch above is the one caller of
            // `job_ready` and takes `dep_since` first, so while `dep_since`
            // is set the job is already blocked in the scheduler.
            j.dep_since = Some(self.now);
            self.scheduler.job_blocked(id);
            self.core.trace(self.now, || TraceEvent::OccupancyHold {
                job: id.0,
                reason: HoldReason::DepWait,
            });
        }
    }

    /// Opens the flow-control hold interval for a held job, if not already
    /// open. Closed (and accumulated) when the op finally dispatches.
    fn mark_occ_hold(&mut self, id: JobId) {
        if let Some(j) = self.jobs.get_mut(id.0) {
            if j.occ_since.is_none() {
                j.occ_since = Some(self.now);
            }
        }
    }

    // -- device feedback ----------------------------------------------------

    fn handle_gpu_output(&mut self, out: GpuRunOutput, words: &[(SmId, u16)]) {
        match out {
            GpuRunOutput::Notifs {
                kernel, kind, at, ..
            } => self.handle_notif_run(kernel, kind, at, words),
            GpuRunOutput::KernelCompleted(uid, at) => {
                // Reconcile the occupancy mirror: if any of this kernel's
                // notifications were lost, its leaked accounting would
                // otherwise wedge the dispatch gate.
                if self.cfg.instrument {
                    self.occupancy.on_kernel_completed(uid);
                }
                let Some(k) = self.kernels.remove(u64::from(uid)) else {
                    return; // reclaimed when its job was cancelled
                };
                self.core.debit(
                    &mut self.notifq_outstanding,
                    k.notifq_reserved,
                    "notifq_outstanding",
                );
                // Injected kernel fault (DESIGN §11): the execution's
                // results are discarded and the op is retried with
                // backoff. Rolled per completion in DES order, so same
                // seed ⇒ identical fault sets.
                if self.cfg.kernel_fault_rate > 0.0
                    && self.fault_rng.chance(self.cfg.kernel_fault_rate)
                {
                    self.on_kernel_fault(k.job, k.token, uid, at);
                    return;
                }
                // Online profile refinement from the observed span.
                if let Some(started) = k.started {
                    let model = self.job(k.job).request.model.0 as usize;
                    if let DagResources::Kernel { loc, .. } = self.models[model].op(k.token) {
                        let loc = loc as usize;
                        let old_us = self.models[model].profile.kernels[loc].time_us.mean();
                        self.models[model]
                            .profile
                            .observe_kernel(loc, at.saturating_since(started));
                        // The refined mean reprices everyone's still-owed
                        // executions of this kernel in the load aggregate.
                        self.load_on_profile_refined(model, loc, old_us);
                    }
                }
                self.complete_op(k.job, k.token, at);
            }
            GpuRunOutput::MemcpyCompleted(uid, at) => {
                if let Some((job, token)) = self.memcpy_to_job.remove(uid.0) {
                    self.complete_op(job, token, at);
                }
            }
        }
    }

    /// Handles a wave's words (§5.2) as the one event they are: one record
    /// lookup, one notifQ debit, one mirror update. The words became visible
    /// together and their shard handles them back to back, so one CPU charge
    /// covers every stretch of words that nothing else interrupts.
    fn handle_notif_run(
        &mut self,
        kernel: KernelUid,
        kind: NotifKind,
        at: SimTime,
        words: &[(SmId, u16)],
    ) {
        let placement = kind == NotifKind::Placement;
        // The one lookup a run costs here: the owner shard, the last-op
        // test and the notifQ reservation all come from the kernel's record.
        // Each dispatcher thread polls its own notifQ (§5.2), so the
        // processing cost lands on the owning job's shard.
        let (mut owner, mut placing) = (ClientId(0), None);
        if let Some(k) = self.kernels.get_mut(u64::from(kernel)) {
            // First placement starts the online-profiling clock.
            if placement && self.cfg.online_profiling {
                k.started.get_or_insert(at);
            }
            let slots = k.notifq_reserved.min(words.len() as u64);
            k.notifq_reserved -= slots; // sub: `slots ≤ notifq_reserved` by the `min`
            self.core
                .debit(&mut self.notifq_outstanding, slots, "notifq_outstanding");
            owner = k.client;
            placing = placement.then_some((k.job, k.token, k.is_last));
        }
        self.core.inc("notifs_processed", words.len() as u64);
        let full_at = self.occupancy.on_run(kernel, kind, words);
        // What a placement word of a live kernel (not one whose job was
        // cancelled) can set off. The first: the pinned-output wakeup, the
        // job's final kernel having started. The one that completes
        // placement: the pipelined release of the successor — but only for
        // kernels that will finish "soon", otherwise a dependent successor
        // would park at a hardware-queue head for the predecessor's whole
        // runtime.
        let wake = placing.is_some_and(|(.., is_last)| is_last);
        let release_at = full_at.filter(|_| {
            placing.is_some_and(|(job, token, _)| {
                self.cfg.release_on_placement
                    && self.kernel_expected_runtime(job, token) <= PIPELINE_WINDOW
            })
        });
        let mut from = 0;
        while from < words.len() {
            // Charge up to and including the next word that sets something
            // off, so that what it sets off sees `self.now` as of that word.
            let to = match release_at {
                _ if wake && from == 0 => 1,
                Some(i) if i >= from => i + 1,
                _ => words.len(),
            };
            let done = self.charge_cpu(owner, at, NOTIF_COST * (to - from) as u64);
            self.now = self.now.max(done);
            // One event per charge, at its first word's end; the host op and
            // the notification of each word are its expansion.
            let (core, start) = self.last_charge;
            self.core.trace(start + NOTIF_COST, || {
                TraceEvent::NotifRun(Box::new(NotifRun {
                    kernel: u64::from(kernel),
                    placement,
                    core,
                    start,
                    cost: NOTIF_COST,
                    words: (words[from..to].iter())
                        .map(|&(sm, group)| (u32::from(sm), u32::from(group)))
                        .collect(),
                }))
            });
            if let Some((job, token, _)) = placing {
                if wake && from == 0 {
                    self.fire_almost_finished(job, at);
                }
                if release_at.is_some_and(|i| i + 1 == to) {
                    self.release_op(job, token);
                }
            }
            from = to;
        }
    }

    /// Expected runtime of a dispatched kernel op, from the model profile.
    fn kernel_expected_runtime(&self, id: JobId, token: u64) -> SimDuration {
        let Some(j) = self.jobs.get(id.0) else {
            return SimDuration::ZERO;
        };
        let m = &self.models[j.request.model.0 as usize];
        let DagResources::Kernel { loc, .. } = m.op(token) else {
            return SimDuration::ZERO;
        };
        SimDuration::from_micros_f64(m.profile.kernels[loc as usize].time_us.mean())
    }

    /// Marks `token` released and walks its successors in the model's
    /// [`KernelDag`], appending every op whose predecessor count reaches
    /// zero to the job's dispatch queue. Returns whether the op was actually
    /// released (`false` = already released, idempotent no-op).
    fn apply_release(&mut self, id: JobId, token: u64) -> bool {
        let Some(j) = self.jobs.get_mut(id.0) else {
            return false;
        };
        if j.preds_left[token as usize] == RELEASED {
            return false;
        }
        let dag = &self.models[j.request.model.0 as usize].dag;
        let newly = &mut self.newly_active;
        for &s in dag.successors(token as usize) {
            let left = &mut j.preds_left[s as usize];
            // Job-by-job submission runs ahead of a faulted op's retry, so a
            // successor can complete (and release) before this op does.
            if *left == RELEASED {
                continue;
            }
            debug_assert!(*left > 0, "KernelDag predecessor count underflow");
            *left -= 1;
            if *left == 0 {
                newly.push(s);
            }
        }
        // Stream semantics report newly-active ops in stream-id order (at
        // most one activation per stream per release).
        newly.sort_unstable_by_key(|&t| dag.node(t as usize).vstream);
        j.preds_left[token as usize] = RELEASED;
        j.active_undispatched.extend(newly.drain(..).map(u64::from));
        true
    }

    /// Releases an op and dispatches what that activated (idempotent per op).
    fn release_op(&mut self, id: JobId, token: u64) {
        if !self.apply_release(id, token) {
            return;
        }
        if self.cfg.granularity == Granularity::Kernel {
            self.dispatch_auto_ops(id, self.now);
            self.update_readiness(id);
        }
    }

    fn complete_op(&mut self, id: JobId, token: u64, at: SimTime) {
        self.apply_release(id, token);
        {
            let Some(j) = self.jobs.get_mut(id.0) else {
                return;
            };
            // A completion without a dispatch would underflow here.
            self.core.debit(&mut j.outstanding, 1, "job outstanding");
            j.completed += 1;
        }
        if self.cfg.granularity == Granularity::Kernel {
            self.dispatch_auto_ops(id, self.now);
            self.update_readiness(id);
        }
        if self.job(id).completed == self.model_of(id).dag.len() {
            self.finish_job(id, at);
        }
    }

    fn finish_job(&mut self, id: JobId, device_done: SimTime) {
        // invariant: the only caller just indexed self.job(id) to test
        // done(), and jobs are removed nowhere else.
        let j = self.jobs.remove(id.0).expect("finishing unknown job");
        self.load_remove_job(j.request.model.0 as usize, &j.done_counts);
        self.retire_from_scheduler(id, j.request.client);
        self.return_streams(&j, device_done);

        // Completion path: dispatcher posts the result, client picks it up.
        let t_posted = self.charge_cpu_traced(
            j.request.client,
            device_done,
            COMPLETION_COST,
            HostOpKind::Completion,
        );
        let ring = self.channels.shm.one_way();
        let client_visible = match self.cfg.wakeup {
            WakeupMode::Polling => t_posted + ring,
            WakeupMode::Hybrid => {
                // If the almost-finished interrupt landed in time the client
                // is already polling; otherwise it eats a socket wakeup.
                match j.almost_finished_at {
                    Some(w) if w <= t_posted => t_posted + ring,
                    _ => t_posted + self.channels.socket.one_way() + ring,
                }
            }
            WakeupMode::Socket => t_posted + self.channels.socket.one_way() + ring,
        };

        let model = &self.models[j.request.model.0 as usize];
        let total = client_visible.saturating_since(j.request.submitted_at);
        // Normalize the breakdown so the categories always sum to the total
        // JCT: device time first, then the host costs (which may have
        // overlapped device execution under pipelined dispatch), and
        // queuing is what remains.
        let communication = self.channels.cuda.launch_latency
            + self.gpu.config().notif_visibility
            + match self.cfg.wakeup {
                WakeupMode::Socket => self.channels.socket.one_way(),
                _ => SimDuration::ZERO,
            };
        let ([device, client_send_recv, communication, framework], queuing) = split(
            total,
            [
                model.uncontended,
                self.channel_submit_latency() + ring,
                communication,
                j.framework + COMPLETION_COST,
            ],
        );
        // Second-level decomposition (DESIGN §12): split the queuing
        // remainder by cause the same way, so the eight journey phases still
        // sum exactly to the JCT. Attribution is best-effort under overlap;
        // conservation is exact by construction.
        let ([retry_backoff_ns, queue_dep_ns, queue_occupancy_ns], queue_hol_ns) = split(
            queuing.as_nanos(),
            [j.backoff_ns, j.dep_wait_ns, j.occ_wait_ns],
        );
        self.core.inc("jobs_completed", 1);
        self.core.complete(
            JobJourney {
                job: id.0,
                client: j.request.client.0,
                jct_ns: total.as_nanos(),
                client_send_recv_ns: client_send_recv.as_nanos(),
                communication_ns: communication.as_nanos(),
                framework_ns: framework.as_nanos(),
                device_ns: device.as_nanos(),
                retry_backoff_ns,
                queue_dep_ns,
                queue_occupancy_ns,
                queue_hol_ns,
                // Fixed-trace jobs: the whole device pass is the degenerate
                // "prefill"; decode time is an LLM-tier concept.
                device_prefill_ns: device.as_nanos(),
                device_decode_ns: 0,
            },
            j.request,
            j.almost_finished_at,
            device_done,
            client_visible,
            j.deadline_at,
        );
    }

    /// Tells the scheduler a job of `client` retired (completed or was
    /// cancelled), and that the client went idle if it was its last.
    fn retire_from_scheduler(&mut self, id: JobId, client: ClientId) {
        self.scheduler.job_done(id);
        if let Some(n) = self.client_inflight.get_mut(&client) {
            self.core.debit(n, 1, "client_inflight");
            if *n == 0 {
                self.client_inflight.remove(&client);
                self.scheduler.client_idle(client);
            }
        }
    }

    /// Returns a retiring job's pool streams and re-kicks waiters, oldest
    /// first. Shared by the completion and cancellation paths.
    fn return_streams(&mut self, j: &Job, ready: SimTime) {
        if matches!(self.cfg.streams, StreamPolicy::Pool(_)) && j.has_streams() {
            self.free_streams.extend(j.streams.iter().copied());
            while let Some(&waiter) = self.stream_waiters.front() {
                let Some(w) = self.jobs.get(waiter.0) else {
                    self.stream_waiters.pop_front();
                    continue;
                };
                let want = self.models[w.request.model.0 as usize]
                    .vstreams
                    .len()
                    .max(1);
                if self.free_streams.len() < want {
                    break;
                }
                self.stream_waiters.pop_front();
                // invariant: the len() < want break above bounds the pops.
                let streams: Vec<StreamId> = (0..want)
                    .map(|_| self.free_streams.pop().expect("checked"))
                    .collect();
                if let Some(w) = self.jobs.get_mut(waiter.0) {
                    w.streams = streams;
                }
                // Kick the waiter's pending ops now that it can run.
                self.dispatch_auto_ops(waiter, ready);
                self.update_readiness(waiter);
            }
        }
    }

    // -- failure handling (DESIGN §11) --------------------------------------

    /// A dispatched kernel's execution faulted: schedule a backoff retry, or
    /// give the whole job up once the retry budget is spent.
    fn on_kernel_fault(&mut self, id: JobId, token: u64, uid: KernelUid, at: SimTime) {
        let attempt = {
            // invariant: the faulted kernel's record was live, and cancel_job
            // drops a job's records together with the job.
            let j = self.jobs.get_mut(id.0).expect("faulted kernel's job");
            let e = j.attempts.entry(token).or_insert(0);
            *e += 1;
            *e
        };
        self.core.trace(at, || TraceEvent::KernelFault {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
        });
        self.core.inc("kernel_faults", 1);
        if attempt > self.cfg.retry_budget {
            self.cancel_job(id, at, FailureReason::RetryBudgetExhausted);
            return;
        }
        self.core.inc("kernel_retries", 1);
        // Exponential backoff, shift-capped so the doubling can't overflow.
        let backoff = RETRY_BACKOFF * (1u64 << (attempt - 1).min(16));
        let backoff_ns = backoff.as_nanos();
        self.core.trace(at, || TraceEvent::RetryBackoff {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
            backoff_ns,
        });
        if let Some(j) = self.jobs.get_mut(id.0) {
            j.backoff_ns += backoff_ns;
        }
        self.events.schedule_at(
            at.saturating_add(backoff).max(self.events.now()),
            Ev::Retry(id, token),
        );
    }

    /// Re-dispatches a faulted op after its backoff elapsed.
    fn retry_kernel(&mut self, id: JobId, token: u64, at: SimTime) {
        if self.jobs.get(id.0).is_none() {
            return; // cancelled while backing off
        }
        // dispatch_op re-increments `outstanding` and the per-location done
        // count, but the faulted attempt never decremented `outstanding`
        // (its completion was discarded), so compensate here. The done-count
        // over-increment is harmless: every consumer clamps remaining work
        // with max(0, C̄ − done).
        self.dispatch_op(id, token, at, false);
        if let Some(j) = self.jobs.get_mut(id.0) {
            self.core.debit(&mut j.outstanding, 1, "job outstanding");
        }
    }

    /// Cancels one in-flight job and reclaims everything it holds: queued
    /// ops, scheduler state, stream-pool slots, notifQ reservations,
    /// and the occupancy mirror's accounting for its in-flight kernels. The
    /// device runs already-placed kernels to completion, but their outputs no
    /// longer map to a job, so late notifications and completions fall
    /// through the uid lookups harmlessly.
    fn cancel_job(&mut self, id: JobId, at: SimTime, reason: FailureReason) {
        let Some(j) = self.jobs.remove(id.0) else {
            return; // already finished or cancelled (e.g. a stale deadline)
        };
        self.load_remove_job(j.request.model.0 as usize, &j.done_counts);
        self.retire_from_scheduler(id, j.request.client);
        // Reclaim its in-flight kernels, in ascending uid order.
        let mut released = 0;
        self.kernels.retain(|uid, k| {
            if k.job != id {
                return true;
            }
            released += k.notifq_reserved;
            if self.cfg.instrument {
                // Keys are widened KernelUids.
                self.occupancy.on_kernel_completed(uid as KernelUid);
            }
            false
        });
        self.core
            .debit(&mut self.notifq_outstanding, released, "notifq_outstanding");
        self.memcpy_to_job.retain(|_, &mut (job, _)| job != id);
        self.return_streams(&j, at);
        let reason_str = reason.as_str();
        self.core.trace(at, || TraceEvent::JobCancelled {
            job: id.0,
            reason: reason_str,
        });
        self.core.inc("jobs_cancelled", 1);
        // A spent retry budget is a terminal, single-node failure: snapshot
        // the flight-recorder ring and a fixed-order view of queue state into
        // a post-mortem dump (DESIGN §12).
        if reason == FailureReason::RetryBudgetExhausted {
            let state = [
                ("jobs_inflight", self.jobs.len() as u64),
                ("queued_ingest", self.queued_ingest),
                ("notifq_outstanding", self.notifq_outstanding),
                ("stream_waiters", self.stream_waiters.len() as u64),
                ("free_streams", self.free_streams.len() as u64),
            ];
            self.core.postmortem("retry-budget-exhausted", at, &state);
        }
        self.core.fail(j.request, reason, at);
    }

    /// A client disconnected: cancel its in-flight jobs and refuse its later
    /// submissions (including requests already queued on its ring).
    pub fn cancel_client(&mut self, client: ClientId, at: SimTime) {
        self.disconnected.insert(client);
        let ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| j.request.client == client)
            .map(|(id, _)| JobId(id))
            .collect();
        for id in ids {
            self.cancel_job(id, at, FailureReason::Disconnected);
        }
    }

    /// Fails everything the dispatcher holds — queued ingests and in-flight
    /// jobs alike — with the given reason. The cluster tier calls this when
    /// the node crashes, then drains the failures for re-routing.
    pub fn cancel_all(&mut self, at: SimTime, reason: FailureReason) {
        // Pending host events: queued ingests become failures (the ring's
        // contents are lost with the node); stale deadlines/retries are moot.
        for (_, ev) in self.events.drain() {
            if let Ev::Ingest(req, est) = ev {
                self.load_dequeue(est);
                self.core.fail(req, reason, at);
            }
        }
        let ids: Vec<JobId> = self.jobs.iter().map(|(id, _)| JobId(id)).collect();
        for id in ids {
            self.cancel_job(id, at, reason);
        }
    }
}
