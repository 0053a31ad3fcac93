//! Ingest: registering a model, admitting a request onto the client ring,
//! and turning an ingested request into a job with its streams.

use std::collections::{BTreeMap, VecDeque};

use paella_channels::ShmRingModel;
use paella_compiler::{
    bootstrap_profile, instrumented, measure_uncontended, CompiledModel, DagResources, KernelDag,
    ModelProfile,
};
use paella_gpu::{InstrumentationSpec, KernelDesc, StreamId};
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{HostOpKind, JobBegin, TraceEvent};

use super::config::{Granularity, StreamPolicy, DEADLINE_FLOOR};
use super::{Dispatcher, Ev};
use crate::serve::ServingSystem;
use crate::types::{FailureReason, InferenceRequest, JobId, ModelId};

/// A model registered with the dispatcher.
pub(super) struct RegisteredModel {
    pub(super) name: std::sync::Arc<str>,
    pub(super) profile: ModelProfile,
    /// Uncontended device execution time (for breakdown reporting).
    pub(super) uncontended: SimDuration,
    /// The op graph this dispatcher executes (DESIGN §15), validated once at
    /// registration: each node carries its op's virtual stream and
    /// resources, and an op activates when its predecessor count reaches
    /// zero. Kernel granularity runs the model's stream plan; job
    /// granularity the sequential single-stream chain.
    pub(super) dag: KernelDag,
    /// The distinct virtual streams of `dag`, sorted: a job's i-th real
    /// stream backs the i-th entry.
    vstreams: Vec<u32>,
    /// Kernel descriptors indexed by kernel location, for O(1) lookup on
    /// the dispatch hot path (`model.kernels().nth(loc)` is O(K)).
    pub(super) kernel_descs: Vec<KernelDesc>,
}

impl RegisteredModel {
    /// What dispatching op `token` costs the device.
    pub(super) fn op(&self, token: u64) -> DagResources {
        self.dag.node(token as usize).resources
    }

    /// Real streams a job of this model needs.
    pub(super) fn streams_wanted(&self) -> usize {
        self.vstreams.len().max(1)
    }

    /// Index into a job's real streams of the one backing op `token`.
    pub(super) fn stream_slot(&self, token: u64) -> usize {
        // invariant: vstreams is the sorted dedup of this same dag's node
        // vstreams, built beside it in register.
        self.vstreams
            .binary_search(&self.dag.node(token as usize).vstream)
            .expect("vstream registered")
    }
}

/// What a released op's [`Job::preds_left`] slot holds.
pub(super) const RELEASED: u32 = u32::MAX;

pub(super) struct Job {
    pub(super) request: InferenceRequest,
    /// Tokens currently active (released predecessors) and not dispatched.
    pub(super) active_undispatched: VecDeque<u64>,
    /// Ops dispatched but not completed.
    pub(super) outstanding: u64,
    /// Ops completed.
    pub(super) completed: usize,
    /// Per-kernel-location dispatch counts (for remaining-time estimates).
    pub(super) done_counts: Vec<u32>,
    /// Real CUDA streams backing this job's virtual streams, in vstream
    /// order (index i backs the i-th distinct vstream). Empty until a pool
    /// stream is available.
    pub(super) streams: Vec<StreamId>,
    pub(super) total_estimate: SimDuration,
    pub(super) almost_finished_at: Option<SimTime>,
    pub(super) ingested_at: SimTime,
    /// Accumulated framework CPU time attributed to this job.
    pub(super) framework: SimDuration,
    /// Per-op unreleased-predecessor counts over the model's [`KernelDag`].
    /// An op activates exactly when its count hits zero. Once the op itself
    /// is released its count has no reader left, so the slot holds
    /// [`RELEASED`] from then on and doubles as the release-idempotency
    /// mark.
    pub(super) preds_left: Vec<u32>,
    /// Deadline instant, when a deadline factor is configured (SLO ledger).
    pub(super) deadline_at: Option<SimTime>,
    /// -- journey accumulators (DESIGN §12): raw per-cause wait time, -----
    /// -- clamped into the queuing remainder at completion ----------------
    /// Nanoseconds parked in retry backoff after injected kernel faults.
    pub(super) backoff_ns: u64,
    /// When the job's frontier became dependency-blocked (open interval).
    /// While it is set the job is not ready in the scheduler
    /// (`update_readiness`).
    pub(super) dep_since: Option<SimTime>,
    /// Accumulated dependency-blocked nanoseconds.
    pub(super) dep_wait_ns: u64,
    /// When the job was first held by flow control (open interval).
    pub(super) occ_since: Option<SimTime>,
    /// Accumulated flow-control hold nanoseconds.
    pub(super) occ_wait_ns: u64,
    /// Fault count per op, for retry budgeting and backoff doubling. Empty
    /// (and unallocated) unless a kernel of this job faulted.
    pub(super) attempts: BTreeMap<u64, u32>,
}

impl Job {
    pub(super) fn next_active(&self) -> Option<u64> {
        self.active_undispatched.front().copied()
    }
}

impl Dispatcher {
    /// [`ServingSystem::register_model`](crate::ServingSystem::register_model).
    pub(super) fn register(&mut self, model: &CompiledModel) -> ModelId {
        let mut compiled = if self.cfg.instrument {
            instrumented(model, InstrumentationSpec::default())
        } else {
            model.clone()
        };
        // Shape-, range- and cycle-checked once here, so every per-job use
        // (pred-count copies at ingest, successor walks at release) can
        // trust it unconditionally.
        let build = |m: &CompiledModel| {
            KernelDag::build(m)
                .unwrap_or_else(|e| panic!("model {:?}: unschedulable stream plan: {e}", m.name))
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
        if let StreamPolicy::Pool(n) = self.cfg.streams {
            // Its jobs could never be handed their streams, and the first
            // one parked would block every waiter queued behind it.
            let want = vstreams.len().max(1);
            assert!(
                want <= n as usize,
                "model {:?}: {want} virtual streams exceed the stream pool of {n}",
                compiled.name
            );
        }
        let kernel_descs: Vec<KernelDesc> = compiled.kernels().cloned().collect();
        let profile = bootstrap_profile(model);
        let uncontended = measure_uncontended(&compiled, self.gpu.config());
        let id = ModelId(self.models.len() as u32);
        self.load.add_model(profile.kernels.len());
        self.models.push(RegisteredModel {
            name: compiled.name,
            profile,
            uncontended,
            dag,
            vstreams,
            kernel_descs,
        });
        id
    }

    /// [`ServingSystem::submit`](crate::ServingSystem::submit): refuses a
    /// disconnected client, sheds above the watermark, and otherwise puts
    /// the request on the ring.
    pub(super) fn admit(&mut self, req: InferenceRequest) {
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
        self.load.enqueue(est);
        self.events.schedule_at(arrive, Ev::Ingest(req, est));
    }

    /// The client→dispatcher ring crossing.
    pub(super) fn channel_submit_latency(&self) -> SimDuration {
        if self.cfg.central_cpu {
            ShmRingModel::one_way()
        } else {
            SimDuration::ZERO // direct submission: no serving channel
        }
    }

    pub(super) fn ingest(&mut self, at: SimTime, req: InferenceRequest, charged: SimDuration) {
        self.load.dequeue(&mut self.core, charged);
        // A request queued on the ring when its client disconnected fails
        // here, without ever becoming a job.
        if self.disconnected.contains(&req.client) {
            self.core.fail(req, FailureReason::Disconnected, at);
            return;
        }
        let t_ingested = self.host_op(HostOpKind::Ingest, req.client, at, self.cfg.ingest_cost);
        *self.client_inflight.entry(req.client).or_insert(0) += 1;
        let model_idx = req.model.0 as usize;
        assert!(
            model_idx < self.models.len(),
            "unknown model {:?}",
            req.model
        );
        let id = JobId(self.next_job);
        self.next_job += 1;
        let rm = &self.models[model_idx];
        self.core.trace(t_ingested, || {
            TraceEvent::JobBegin(Box::new(JobBegin {
                job: id.0,
                client: req.client.0,
                model: rm.name.clone(),
                submitted_at: req.submitted_at,
            }))
        });
        self.core.inc("jobs_ingested", 1);

        // The adaptor's run() issues every CUDA call up front (the coroutine
        // yields at the final sync), so the whole op graph is known here:
        // the job starts with the model's predecessor counts and its roots
        // active, and with its streams unless the pool makes it wait.
        let total_estimate = rm.profile.total_estimate();
        let deadline_at = self.cfg.deadline_factor.map(|f| {
            let budget = total_estimate.mul_f64(f).max(DEADLINE_FLOOR);
            req.submitted_at.saturating_add(budget)
        });
        let streams = self.streams.take(rm.streams_wanted());
        let job = Job {
            request: req,
            active_undispatched: rm.dag.roots().map(|t| t as u64).collect(),
            outstanding: 0,
            completed: 0,
            done_counts: vec![0; rm.kernel_descs.len()],
            streams: streams.unwrap_or_default(),
            total_estimate,
            almost_finished_at: None,
            ingested_at: t_ingested,
            framework: self.cfg.ingest_cost,
            preds_left: rm.dag.pred_counts().to_vec(),
            deadline_at,
            backoff_ns: 0,
            dep_since: None,
            dep_wait_ns: 0,
            occ_since: None,
            occ_wait_ns: 0,
            attempts: BTreeMap::new(),
        };
        self.load.add_job(model_idx, &rm.profile);
        if job.streams.is_empty() {
            self.streams.waiters.push_back(id);
        }
        self.jobs.insert(id.0, Box::new(job));
        if let Some(deadline) = deadline_at {
            let at = deadline.max(self.events.now());
            self.events.schedule_at(at, Ev::Deadline(id));
        }
        match self.cfg.granularity {
            Granularity::Job => self.dispatch_whole_job(id, t_ingested),
            Granularity::Kernel => self.kick(id, t_ingested),
        }
    }
}
