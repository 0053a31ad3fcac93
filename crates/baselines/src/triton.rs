//! A Triton-like inference server (Table 3's reference state of the art).
//!
//! Architecture modelled after the paper's description and measurement
//! setup (§2.2, §7): clients reach the server over gRPC (marshal +
//! HTTP/2 per-message costs, per-byte serialization of tensor payloads);
//! each model has one backend *instance* that executes requests one job at a
//! time on its own stream; an optional dynamic batcher groups queued
//! requests for the same model.

use std::collections::VecDeque;

use paella_channels::ChannelConfig;
use paella_compiler::CompiledModel;
use paella_core::{
    batched_model, split, Dispatcher, DispatcherConfig, FifoScheduler, Front, InferenceRequest,
    JobCompletion, LatencyBreakdown, Layered, ModelId, ServingSystem, StreamPolicy, Tier,
};
use paella_gpu::DeviceConfig;
use paella_sim::{SimDuration, SimTime};

/// Triton configuration.
#[derive(Clone, Copy, Debug)]
pub struct TritonConfig {
    /// Maximum dynamic batch size (1 disables batching).
    pub max_batch: usize,
    /// How long the batcher waits for more requests before launching a
    /// partial batch.
    pub batch_timeout: SimDuration,
    /// Server-side per-request dispatch bookkeeping cost.
    pub dispatch_cost: SimDuration,
    /// Per-execution CPU cost of the TVM-in-TensorFlow wrapper the paper had
    /// to build (§7 Baselines): SavedModel invocation, tensor hand-off, and
    /// output copies, serialized on the backend.
    pub wrapper_cost: SimDuration,
}

impl Default for TritonConfig {
    fn default() -> Self {
        TritonConfig {
            max_batch: 1,
            batch_timeout: SimDuration::from_micros(100),
            dispatch_cost: SimDuration::from_micros(15),
            wrapper_cost: SimDuration::from_micros(1_400),
        }
    }
}

struct ModelState {
    model: CompiledModel,
    /// Requests that cleared RPC ingress, waiting for the instance.
    queue: VecDeque<InferenceRequest>,
    /// Whether the single backend instance is busy.
    busy: bool,
    /// Requests inside the currently executing batch.
    executing: Vec<InferenceRequest>,
}

/// A front-end event of the Triton-like server.
#[derive(Clone, Copy, Debug)]
pub enum TritonEv {
    /// A request finished gRPC ingress.
    Ingress(InferenceRequest),
    /// Batch window expired for a model.
    BatchTimeout(u32),
}

/// The Triton-like serving system's front end; the backend is a dispatcher.
pub struct Triton {
    cfg: TritonConfig,
    channels: ChannelConfig,
    models: Vec<ModelState>,
    /// Maps backend model ids (one per (model, batch-size) pair) back to
    /// the public model id. Index = backend ModelId.0.
    backend_models: Vec<(u32, usize)>,
}

type TritonFront = Front<Dispatcher, TritonEv>;

impl Triton {
    /// Creates a Triton-like server over a fresh device.
    pub fn new(
        device: DeviceConfig,
        channels: ChannelConfig,
        cfg: TritonConfig,
        seed: u64,
    ) -> Layered<Self, Dispatcher> {
        // The TVM-in-TensorFlow backend funnels every execution through
        // TensorFlow's single compute stream, and the wrapper's per-call CPU
        // serializes on the server process.
        let mut bcfg = DispatcherConfig::direct(StreamPolicy::Single);
        bcfg.central_cpu = true;
        bcfg.ingest_cost = cfg.wrapper_cost;
        let backend = Dispatcher::new(device, channels, Box::new(FifoScheduler::new()), bcfg, seed);
        let tier = Triton {
            cfg,
            channels,
            models: Vec::new(),
            backend_models: Vec::new(),
        };
        Layered::new(tier, backend)
    }

    fn rpc_in(&self, model: usize) -> SimDuration {
        self.channels
            .rpc
            .one_way(self.models[model].model.input_bytes)
    }

    fn rpc_out(&self, model: usize) -> SimDuration {
        self.channels
            .rpc
            .one_way(self.models[model].model.output_bytes)
    }

    fn try_launch(&mut self, front: &mut TritonFront, model_idx: usize, now: SimTime) {
        let st = &self.models[model_idx];
        let Some(oldest) = st.queue.front().filter(|_| !st.busy) else {
            return;
        };
        let want = self.cfg.max_batch.max(1);
        let have = st.queue.len();
        if have < want {
            // Wait for more requests unless the batch window expired; arm a
            // timeout on first queued request.
            let deadline = oldest.submitted_at + self.rpc_in(model_idx) + self.cfg.batch_timeout;
            if now < deadline {
                front
                    .events
                    .schedule_at(deadline, TritonEv::BatchTimeout(model_idx as u32));
                return;
            }
        }
        let b = have.min(want);
        // Register (or reuse) the backend variant for this batch size.
        let backend_id = self.backend_model_for(&mut front.inner, model_idx, b);
        let st = &mut self.models[model_idx];
        st.busy = true;
        st.executing = st.queue.drain(..b).collect();
        // Dispatch bookkeeping (+ batch formation cost per request).
        let submit_at = now + self.cfg.dispatch_cost + SimDuration::from_nanos(500) * b as u64;
        front.inner.submit(InferenceRequest {
            client: st.executing[0].client,
            model: backend_id,
            submitted_at: submit_at,
        });
    }

    fn backend_model_for(
        &mut self,
        backend: &mut Dispatcher,
        model_idx: usize,
        b: usize,
    ) -> ModelId {
        if let Some(pos) = self
            .backend_models
            .iter()
            .position(|&(m, bb)| m == model_idx as u32 && bb == b)
        {
            return ModelId(pos as u32);
        }
        let variant = batched_model(&self.models[model_idx].model, b);
        let id = backend.register_model(&variant);
        debug_assert_eq!(id.0 as usize, self.backend_models.len());
        self.backend_models.push((model_idx as u32, b));
        id
    }
}

impl Tier<Dispatcher> for Triton {
    type Ev = TritonEv;

    /// The server re-examines a model's queue on every backend completion,
    /// before it looks at requests landing at the same instant.
    const INNER_FIRST: bool = true;

    fn name(&self, _backend: &Dispatcher) -> String {
        "Triton".to_string()
    }

    fn register_model(&mut self, _backend: &mut Dispatcher, model: &CompiledModel) -> ModelId {
        self.models.push(ModelState {
            model: model.clone(),
            queue: VecDeque::new(),
            busy: false,
            executing: Vec::new(),
        });
        ModelId(self.models.len() as u32 - 1)
    }

    fn submit(&mut self, req: InferenceRequest) -> (SimTime, TritonEv) {
        let m = req.model.0 as usize;
        assert!(m < self.models.len(), "unknown model");
        (req.submitted_at + self.rpc_in(m), TritonEv::Ingress(req))
    }

    fn on_event(&mut self, front: &mut TritonFront, at: SimTime, ev: TritonEv) {
        match ev {
            TritonEv::Ingress(req) => {
                let m = req.model.0 as usize;
                self.models[m].queue.push_back(req);
                self.try_launch(front, m, at);
            }
            TritonEv::BatchTimeout(m) => self.try_launch(front, m as usize, at),
        }
    }

    fn on_completion(&mut self, front: &mut TritonFront, c: JobCompletion) {
        let model_idx = self.backend_models[c.request.model.0 as usize].0 as usize;
        let (rpc_in, rpc_out) = (self.rpc_in(model_idx), self.rpc_out(model_idx));
        let st = &mut self.models[model_idx];
        st.busy = false;
        for request in std::mem::take(&mut st.executing) {
            let visible = c.client_visible_at + rpc_out;
            let ([device, client_send_recv, framework, communication], queuing) = split(
                visible.saturating_since(request.submitted_at),
                [
                    c.breakdown.device,
                    rpc_in + rpc_out,
                    self.cfg.dispatch_cost + c.breakdown.framework,
                    self.channels.cuda.launch_latency * 2,
                ],
            );
            front.deliver(JobCompletion {
                request,
                almost_finished_at: None,
                client_visible_at: visible,
                breakdown: LatencyBreakdown {
                    client_send_recv,
                    communication,
                    queuing_scheduling: queuing,
                    framework,
                    device,
                },
                ..c
            });
        }
        self.try_launch(front, model_idx, c.client_visible_at);
    }

    fn parked(&self) -> u64 {
        self.models.iter().map(|st| st.queue.len() as u64).sum()
    }
}

/// Boost-Asio style ingress of the Clockwork-like system: cheaper than gRPC,
/// pricier than shm.
const CLOCKWORK_INGRESS: SimDuration = SimDuration::from_micros(25);

/// A Clockwork-like system (§9 related work; Table 3): a controller that
/// runs exactly one model execution on the GPU at a time, prioritizing
/// predictability. Controller↔worker coordination costs (Boost Asio) apply
/// per request.
pub struct Clockwork {
    channels: ChannelConfig,
    queue: VecDeque<InferenceRequest>,
    busy: Option<InferenceRequest>,
    /// Controller→worker action + result RPC costs.
    controller_cost: SimDuration,
}

type ClockworkFront = Front<Dispatcher, InferenceRequest>;

impl Clockwork {
    /// Creates a Clockwork-like server over a fresh device.
    pub fn new(
        device: DeviceConfig,
        channels: ChannelConfig,
        seed: u64,
    ) -> Layered<Self, Dispatcher> {
        let bcfg = DispatcherConfig::direct(StreamPolicy::Single);
        let backend = Dispatcher::new(device, channels, Box::new(FifoScheduler::new()), bcfg, seed);
        let tier = Clockwork {
            channels,
            queue: VecDeque::new(),
            busy: None,
            controller_cost: SimDuration::from_micros(45),
        };
        Layered::new(tier, backend)
    }

    fn try_launch(&mut self, front: &mut ClockworkFront, now: SimTime) {
        if self.busy.is_some() {
            return;
        }
        let Some(req) = self.queue.pop_front() else {
            return;
        };
        self.busy = Some(req);
        front.inner.submit(InferenceRequest {
            submitted_at: now + self.controller_cost,
            ..req
        });
    }
}

impl Tier<Dispatcher> for Clockwork {
    /// A request that finished ingress.
    type Ev = InferenceRequest;

    /// The controller starts the next queued action on a worker's result
    /// before it looks at requests landing at the same instant.
    const INNER_FIRST: bool = true;

    fn name(&self, _backend: &Dispatcher) -> String {
        "Clockwork".to_string()
    }

    fn register_model(&mut self, backend: &mut Dispatcher, model: &CompiledModel) -> ModelId {
        backend.register_model(model)
    }

    fn submit(&mut self, req: InferenceRequest) -> (SimTime, InferenceRequest) {
        (req.submitted_at + CLOCKWORK_INGRESS, req)
    }

    fn on_event(&mut self, front: &mut ClockworkFront, at: SimTime, req: InferenceRequest) {
        self.queue.push_back(req);
        self.try_launch(front, at);
    }

    fn on_completion(&mut self, front: &mut ClockworkFront, c: JobCompletion) {
        // invariant: the controller submits one request at a time and holds
        // it in `busy` until the worker answers.
        let request = self.busy.take().expect("completion without busy job");
        let visible = c.client_visible_at + self.controller_cost;
        let ([device, client_send_recv, framework, communication], queuing) = split(
            visible.saturating_since(request.submitted_at),
            [
                c.breakdown.device,
                CLOCKWORK_INGRESS,
                self.controller_cost * 2 + c.breakdown.framework,
                self.channels.cuda.launch_latency * 2,
            ],
        );
        front.deliver(JobCompletion {
            request,
            almost_finished_at: None,
            client_visible_at: visible,
            breakdown: LatencyBreakdown {
                client_send_recv,
                communication,
                queuing_scheduling: queuing,
                framework,
                device,
            },
            ..c
        });
        self.try_launch(front, c.client_visible_at);
    }

    fn parked(&self) -> u64 {
        self.queue.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_core::ClientId;
    use paella_models::synthetic;

    fn req(model: ModelId, at_us: u64) -> InferenceRequest {
        InferenceRequest {
            client: ClientId(0),
            model,
            submitted_at: SimTime::from_micros(at_us),
        }
    }

    #[test]
    fn triton_single_request_pays_rpc_overhead() {
        let mut t = Triton::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            TritonConfig::default(),
            1,
        );
        let m = t.register_model(&synthetic::tiny_model(SimDuration::from_micros(100)));
        t.submit(req(m, 0));
        t.run_to_idle();
        let done = t.drain_completions();
        assert_eq!(done.len(), 1);
        let c = &done[0];
        // gRPC both ways ≈ 400 µs ≫ exec 100 µs: overhead dominates (Fig. 3).
        assert!(
            c.breakdown.overhead() >= SimDuration::from_micros(300),
            "overhead {}",
            c.breakdown.overhead()
        );
        assert!(c.jct() >= SimDuration::from_micros(450));
    }

    #[test]
    fn triton_instance_serializes_same_model() {
        let mut t = Triton::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            TritonConfig::default(),
            1,
        );
        let m = t.register_model(&synthetic::uniform_job(
            "u",
            4,
            SimDuration::from_micros(500),
            8,
        ));
        for _ in 0..3 {
            t.submit(req(m, 0));
        }
        t.run_to_idle();
        let mut done = t.drain_completions();
        done.sort_by_key(|c| c.client_visible_at);
        assert_eq!(done.len(), 3);
        // One instance: each ~2 ms job waits for the previous.
        let last = done.last().unwrap().jct();
        assert!(last >= SimDuration::from_micros(5_500), "last jct {last}");
    }

    #[test]
    fn triton_tf_backend_serializes_across_models() {
        // The TVM-in-TensorFlow wrapper funnels every model through one
        // compute stream, so even different models execute back to back.
        let mut t = Triton::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            TritonConfig::default(),
            1,
        );
        let a = t.register_model(&synthetic::uniform_job(
            "a",
            4,
            SimDuration::from_micros(500),
            8,
        ));
        let b = t.register_model(&synthetic::uniform_job(
            "b",
            4,
            SimDuration::from_micros(500),
            8,
        ));
        t.submit(req(a, 0));
        t.submit(req(b, 0));
        t.run_to_idle();
        let done = t.drain_completions();
        assert_eq!(done.len(), 2);
        let last = done.iter().map(|c| c.client_visible_at).max().unwrap();
        // Two ~2 ms jobs on one stream plus wrapper CPU: well beyond one
        // job's latency.
        assert!(last >= SimTime::from_micros(4_000), "last = {last}");
    }

    #[test]
    fn triton_dynamic_batching_coalesces() {
        let cfg = TritonConfig {
            max_batch: 4,
            ..TritonConfig::default()
        };
        let mut t = Triton::new(DeviceConfig::tesla_t4(), ChannelConfig::default(), cfg, 1);
        let m = t.register_model(&synthetic::uniform_job(
            "u",
            4,
            SimDuration::from_micros(500),
            8,
        ));
        for _ in 0..4 {
            t.submit(req(m, 0));
        }
        t.run_to_idle();
        let done = t.drain_completions();
        assert_eq!(done.len(), 4);
        // All four share one execution: completion times equal.
        let times: Vec<SimTime> = done.iter().map(|c| c.client_visible_at).collect();
        assert!(
            times.windows(2).all(|w| w[0] == w[1]),
            "batched together: {times:?}"
        );
    }

    #[test]
    fn clockwork_runs_one_at_a_time() {
        let mut cw = Clockwork::new(DeviceConfig::tesla_t4(), ChannelConfig::default(), 1);
        let m = cw.register_model(&synthetic::uniform_job(
            "u",
            4,
            SimDuration::from_micros(500),
            8,
        ));
        for _ in 0..3 {
            cw.submit(req(m, 0));
        }
        cw.run_to_idle();
        let mut done = cw.drain_completions();
        done.sort_by_key(|c| c.client_visible_at);
        assert_eq!(done.len(), 3);
        let last = done.last().unwrap().jct();
        assert!(
            last >= SimDuration::from_micros(6_000),
            "exclusive execution"
        );
    }
}
