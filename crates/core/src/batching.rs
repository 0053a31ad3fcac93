//! Saturation-aware dynamic batching — the §8 "Dynamic batching" item.
//!
//! The paper argues dynamic batching hurts critical-path latency (waiting +
//! marshalling) but concedes that "at high loads where throughput
//! bottlenecks contribute to latency, the efficiency gains may make batching
//! worth performing. Paella can be extended to detect saturation and batch
//! in these cases." [`SaturationBatcher`] is that extension: a front end
//! over any [`ServingSystem`] that passes requests straight through while
//! the system keeps up, and coalesces same-model requests into batched
//! executions only once the backlog crosses a threshold.

use std::collections::VecDeque;

use paella_compiler::{CompiledModel, DeviceOp};
use paella_sim::{SimDuration, SimTime};

use crate::serve::{Front, Layered, ServingSystem, Tier};
use crate::types::{InferenceRequest, JobCompletion, JobFailure, ModelId};

/// Batching policy knobs.
#[derive(Clone, Copy, Debug)]
pub struct BatchPolicy {
    /// Per-model backlog (queued + unacknowledged) above which batching
    /// engages — the saturation detector.
    pub saturation_threshold: usize,
    /// Maximum batch size.
    pub max_batch: usize,
    /// Per-request cost of forming the batched input (copying into the
    /// batch tensor).
    pub gather_cost: SimDuration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            saturation_threshold: 8,
            max_batch: 8,
            gather_cost: SimDuration::from_micros(4),
        }
    }
}

/// Builds the batch-`b` variant of a model: kernels do `b`× the work at
/// sub-linear cost, copies scale linearly. Batch-`b` kernels amortize fixed
/// per-kernel costs; an effective scale of 0.35 + 0.65·b matches the usual
/// ~35 % fixed fraction of small-batch inference kernels.
pub fn batched_model(model: &CompiledModel, b: usize) -> CompiledModel {
    if b <= 1 {
        return model.clone();
    }
    let scale = 0.35 + 0.65 * b as f64;
    let mut m = model.clone();
    m.name = format!("{}@b{b}", m.name).into();
    for op in &mut m.ops {
        match op {
            DeviceOp::Kernel(k) => k.duration.base = k.duration.base.mul_f64(scale),
            DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => *bytes *= b,
        }
    }
    m.input_bytes *= b;
    m.output_bytes *= b;
    m
}

struct ModelState {
    /// Queued requests not yet handed to the inner system.
    queue: VecDeque<InferenceRequest>,
    /// Requests inside in-flight submissions (singleton or batch), in
    /// submission order, keyed by the inner submission's `submitted_at`.
    inflight: VecDeque<(SimTime, Vec<InferenceRequest>)>,
    /// Inner model ids per batch size: `variants[b-1]`, registered lazily.
    variants: Vec<Option<ModelId>>,
    model: CompiledModel,
}

/// The saturation-batching front end. It adds no latency while the system
/// is unsaturated: arrivals pass straight through at their submission time.
pub struct SaturationBatcher {
    policy: BatchPolicy,
    models: Vec<ModelState>,
    /// Total batched executions formed (diagnostics).
    batches_formed: u64,
}

impl SaturationBatcher {
    /// Puts the batcher in front of `inner` with the given policy.
    pub fn new<S: ServingSystem>(inner: S, policy: BatchPolicy) -> Layered<Self, S> {
        let tier = SaturationBatcher {
            policy,
            models: Vec::new(),
            batches_formed: 0,
        };
        Layered::new(tier, inner)
    }

    /// Number of batched executions formed so far.
    pub fn batches_formed(&self) -> u64 {
        self.batches_formed
    }

    fn variant<S: ServingSystem>(&mut self, inner: &mut S, model: usize, b: usize) -> ModelId {
        let st = &mut self.models[model];
        if st.variants.len() < b {
            st.variants.resize(b, None);
        }
        *st.variants[b - 1]
            .get_or_insert_with(|| inner.register_model(&batched_model(&st.model, b)))
    }

    /// Feeds the inner system: singletons while unsaturated, full batches
    /// through a bounded submission window once the backlog crosses the
    /// threshold.
    fn pump<S: ServingSystem>(&mut self, inner: &mut S, model: usize, now: SimTime) {
        loop {
            let st = &self.models[model];
            if st.queue.is_empty() {
                return;
            }
            let inflight_reqs: usize = st.inflight.iter().map(|(_, v)| v.len()).sum();
            let backlog = st.queue.len() + inflight_reqs;
            let saturated = backlog > self.policy.saturation_threshold;
            let b = if saturated {
                // Keep at most a few batched submissions in flight so the
                // queue accumulates into full batches instead of trickling.
                if st.inflight.len() >= 4 {
                    return;
                }
                st.queue.len().min(self.policy.max_batch)
            } else {
                1
            };
            let batch: Vec<InferenceRequest> = self.models[model].queue.drain(..b).collect();
            if b > 1 {
                self.batches_formed += 1;
            }
            let inner_id = self.variant(inner, model, b);
            // Batch formation: gather each request's input into the batch
            // tensor; submitted when the gather finishes.
            let submit_at = now + self.policy.gather_cost * b as u64;
            inner.submit(InferenceRequest {
                client: batch[0].client,
                model: inner_id,
                submitted_at: submit_at,
            });
            self.models[model].inflight.push_back((submit_at, batch));
        }
    }

    /// Takes the in-flight submission a result from the inner system
    /// answers, freeing its window slot: `(owning model, member requests)`.
    fn settle(&mut self, echoed: &InferenceRequest) -> (usize, Vec<InferenceRequest>) {
        // invariant: the inner system only reports requests this tier
        // submitted, each under a variant id `variant` registered.
        let model = self
            .models
            .iter()
            .position(|st| st.variants.contains(&Some(echoed.model)))
            .expect("result for unknown variant");
        // Pair with the right in-flight submission: the inner system may
        // finish different-sized batches out of order (SRPT favours the
        // small ones), so match on the submission timestamp it echoes back.
        let inflight = &mut self.models[model].inflight;
        let pos = inflight
            .iter()
            .position(|&(at, _)| at == echoed.submitted_at)
            .unwrap_or(0);
        // invariant: every submission pushed its members onto `inflight`,
        // and each is answered exactly once.
        let (_, batch) = inflight
            .remove(pos)
            .expect("result without in-flight batch");
        (model, batch)
    }
}

impl<S: ServingSystem> Tier<S> for SaturationBatcher {
    /// An arrival.
    type Ev = InferenceRequest;

    /// An arrival joins its queue before the inner system moves past it.
    const INNER_FIRST: bool = false;

    fn name(&self, inner: &S) -> String {
        format!("batched[{}]", inner.name())
    }

    fn register_model(&mut self, _inner: &mut S, model: &CompiledModel) -> ModelId {
        self.models.push(ModelState {
            queue: VecDeque::new(),
            inflight: VecDeque::new(),
            variants: Vec::new(),
            model: model.clone(),
        });
        ModelId(self.models.len() as u32 - 1)
    }

    fn submit(&mut self, req: InferenceRequest) -> (SimTime, InferenceRequest) {
        (req.submitted_at, req)
    }

    fn on_event(
        &mut self,
        front: &mut Front<S, InferenceRequest>,
        at: SimTime,
        req: InferenceRequest,
    ) {
        let model = req.model.0 as usize;
        self.models[model].queue.push_back(req);
        self.pump(&mut front.inner, model, at);
    }

    fn on_completion(&mut self, front: &mut Front<S, InferenceRequest>, c: JobCompletion) {
        let (model, batch) = self.settle(&c.request);
        for request in batch {
            front.deliver(JobCompletion {
                request,
                // The batch scatter on the way out mirrors the gather.
                client_visible_at: c.client_visible_at + self.policy.gather_cost,
                ..c
            });
        }
        self.pump(&mut front.inner, model, c.client_visible_at);
    }

    /// A failed submission fails every member, and frees its window slot
    /// like a completion does.
    fn on_failure(&mut self, front: &mut Front<S, InferenceRequest>, f: JobFailure) {
        let (model, batch) = self.settle(&f.request);
        for request in batch {
            front.deliver_failure(JobFailure { request, ..f });
        }
        self.pump(&mut front.inner, model, f.at);
    }

    fn parked(&self) -> u64 {
        self.models.iter().map(|st| st.queue.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatcher::{Dispatcher, DispatcherConfig};
    use crate::sched::SrptDeficitScheduler;
    use crate::types::ClientId;
    use paella_channels::ChannelConfig;
    use paella_gpu::DeviceConfig;

    fn paella() -> Dispatcher {
        Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            13,
        )
    }

    fn model() -> CompiledModel {
        use paella_gpu::{BlockFootprint, DurationModel, KernelDesc};
        let kernel = KernelDesc {
            name: "bt_op".to_string().into(),
            grid_blocks: 200, // a device-filling kernel: batching pays off
            footprint: BlockFootprint {
                threads: 128,
                regs_per_thread: 16,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(400)),
            instrumentation: None,
        };
        CompiledModel {
            name: "bt".to_string().into(),
            ops: vec![
                DeviceOp::InputCopy { bytes: 4096 },
                DeviceOp::Kernel(kernel.clone()),
                DeviceOp::Kernel(kernel.clone()),
                DeviceOp::Kernel(kernel.clone()),
                DeviceOp::Kernel(kernel),
                DeviceOp::OutputCopy { bytes: 4096 },
            ],
            schedule: None,
            input_bytes: 4096,
            output_bytes: 4096,
            weight_bytes: 0,
            flops: 0,
        }
    }

    #[test]
    fn unsaturated_requests_pass_through_unbatched() {
        let mut b = SaturationBatcher::new(paella(), BatchPolicy::default());
        let id = b.register_model(&model());
        for i in 0..5 {
            b.submit(InferenceRequest {
                client: ClientId(0),
                model: id,
                submitted_at: SimTime::from_millis(i * 10), // far apart
            });
        }
        b.run_to_idle();
        assert_eq!(b.drain_completions().len(), 5);
        assert_eq!(b.tier().batches_formed(), 0, "no batching below saturation");
    }

    #[test]
    fn saturation_triggers_batching_and_raises_throughput() {
        // A burst far beyond capacity: the batcher must engage and finish
        // sooner than the unbatched system.
        let burst = 96u64;
        let makespan = |batch: bool| {
            let policy = BatchPolicy {
                saturation_threshold: if batch { 8 } else { usize::MAX },
                ..BatchPolicy::default()
            };
            let mut b = SaturationBatcher::new(paella(), policy);
            let id = b.register_model(&model());
            for i in 0..burst {
                b.submit(InferenceRequest {
                    client: ClientId((i % 4) as u32),
                    model: id,
                    submitted_at: SimTime::from_micros(i),
                });
            }
            b.run_to_idle();
            let done = b.drain_completions();
            assert_eq!(done.len(), burst as usize);
            (
                done.iter().map(|c| c.client_visible_at).max().unwrap(),
                b.tier().batches_formed(),
            )
        };
        let (t_plain, n0) = makespan(false);
        let (t_batched, n1) = makespan(true);
        assert_eq!(n0, 0);
        assert!(n1 > 0, "saturation must form batches");
        // Batch-8 kernels cost 0.35 + 0.65·8 = 5.55× a single, so the ideal
        // gain is 1 − 5.55/8 ≈ 31%; the unbatched ramp-up eats a little.
        assert!(
            t_batched.as_nanos() * 5 < t_plain.as_nanos() * 4,
            "batching should cut the burst makespan ≥20%: {t_plain} vs {t_batched}"
        );
    }

    #[test]
    fn telemetry_passes_through_the_batcher() {
        let mut b = SaturationBatcher::new(paella(), BatchPolicy::default());
        b.enable_telemetry();
        let id = b.register_model(&model());
        b.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        b.run_to_idle();
        let trace = b.take_trace_log().expect("inner tracer must be reachable");
        assert!(
            trace.events.iter().any(|e| e.event.kind() == "job-begin"),
            "inner dispatcher events must surface through the wrapper"
        );
        let snap = b.metrics_snapshot().expect("inner metrics must surface");
        assert!(snap.counter("jobs_completed") >= 1);
    }

    #[test]
    fn batching_disengages_when_backlog_drains() {
        // Hysteresis: a saturating burst engages batching, but once the
        // backlog drains below the threshold, later requests pass through
        // unbatched again — no sticky batching mode.
        let mut b = SaturationBatcher::new(paella(), BatchPolicy::default());
        let id = b.register_model(&model());
        let burst = 40u64;
        for i in 0..burst {
            b.submit(InferenceRequest {
                client: ClientId((i % 4) as u32),
                model: id,
                submitted_at: SimTime::from_micros(i),
            });
        }
        // A trickle long after the burst has drained, spaced far apart.
        let tail = 6u64;
        for i in 0..tail {
            b.submit(InferenceRequest {
                client: ClientId(0),
                model: id,
                submitted_at: SimTime::from_millis(400 + i * 20),
            });
        }
        // Run past the burst; it is far over capacity so batching engages.
        b.advance_until(SimTime::from_millis(390));
        let formed_during_burst = b.tier().batches_formed();
        assert!(formed_during_burst > 0, "burst must engage batching");
        assert_eq!(b.drain_completions().len(), burst as usize);
        // The trickle phase must not form a single new batch.
        b.run_to_idle();
        assert_eq!(
            b.tier().batches_formed(),
            formed_during_burst,
            "batching must disengage once the backlog drains"
        );
        assert_eq!(b.drain_completions().len(), tail as usize);
    }

    #[test]
    fn every_request_in_a_batch_completes_once() {
        let mut b = SaturationBatcher::new(
            paella(),
            BatchPolicy {
                saturation_threshold: 2,
                max_batch: 4,
                ..BatchPolicy::default()
            },
        );
        let id = b.register_model(&model());
        for i in 0..20u64 {
            b.submit(InferenceRequest {
                client: ClientId((i % 3) as u32),
                model: id,
                submitted_at: SimTime::from_micros(i * 5),
            });
        }
        b.run_to_idle();
        let done = b.drain_completions();
        assert_eq!(done.len(), 20);
        for c in &done {
            assert!(c.client_visible_at > c.request.submitted_at);
        }
    }
}
