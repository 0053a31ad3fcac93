//! A Triton-like inference server (Table 3's reference state of the art).
//!
//! Architecture modelled after the paper's description and measurement
//! setup (§2.2, §7): clients reach the server over gRPC (marshal +
//! HTTP/2 per-message costs, per-byte serialization of tensor payloads);
//! each model has one backend *instance* that executes requests one job at a
//! time on its own stream, one request per execution.

use std::collections::VecDeque;

use paella_channels::{ChannelConfig, CudaRuntimeModel, RpcModel};
use paella_compiler::CompiledModel;
use paella_core::{
    split, Dispatcher, DispatcherConfig, FifoScheduler, InferenceRequest, JobCompletion,
    LatencyBreakdown, ModelId, ServingSystem, StreamPolicy,
};
use paella_gpu::DeviceConfig;
use paella_sim::{SimDuration, SimTime};

use crate::layered::{Front, Layered, Tier};

/// Server-side per-request dispatch bookkeeping cost.
const DISPATCH_COST: SimDuration = SimDuration::from_micros(15);
/// Server-side cost of forming a request's input tensor for the backend.
const FORM_COST: SimDuration = SimDuration::from_nanos(500);
/// Per-execution CPU cost of the TVM-in-TensorFlow wrapper the paper had to
/// build (§7 Baselines): SavedModel invocation, tensor hand-off, and output
/// copies, serialized on the backend.
const WRAPPER_COST: SimDuration = SimDuration::from_micros(1_400);

struct ModelState {
    /// gRPC one-way cost of the model's input and of its output.
    rpc_in: SimDuration,
    rpc_out: SimDuration,
    /// Requests that cleared RPC ingress, waiting for the instance.
    queue: VecDeque<InferenceRequest>,
    /// The request the single backend instance is executing, if any.
    executing: Option<InferenceRequest>,
}

/// The Triton-like serving system's front end; the backend is a dispatcher.
pub struct Triton {
    models: Vec<ModelState>,
}

type TritonFront = Front<InferenceRequest>;

impl Triton {
    /// Creates a Triton-like server over a fresh device.
    pub fn new(device: DeviceConfig, seed: u64) -> Layered<Self> {
        // The TVM-in-TensorFlow backend funnels every execution through
        // TensorFlow's single compute stream, and the wrapper's per-call CPU
        // serializes on the server process.
        let mut bcfg = DispatcherConfig::direct(StreamPolicy::Single);
        bcfg.central_cpu = true;
        bcfg.ingest_cost = WRAPPER_COST;
        let backend = Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(FifoScheduler::new()),
            bcfg,
            seed,
        );
        Layered::new(Triton { models: Vec::new() }, backend)
    }

    fn try_launch(&mut self, front: &mut TritonFront, model_idx: usize, now: SimTime) {
        let st = &mut self.models[model_idx];
        if st.executing.is_some() {
            return;
        }
        let Some(req) = st.queue.pop_front() else {
            return;
        };
        st.executing = Some(req);
        front.inner.submit(InferenceRequest {
            submitted_at: now + DISPATCH_COST + FORM_COST,
            ..req
        });
    }
}

impl Tier for Triton {
    /// A request that finished gRPC ingress.
    type Ev = InferenceRequest;

    fn name(&self) -> String {
        "Triton".to_string()
    }

    fn register_model(&mut self, backend: &mut Dispatcher, model: &CompiledModel) -> ModelId {
        let id = backend.register_model(model);
        // The backend's ids index `models`: Triton is its only registrant.
        assert_eq!(id.0 as usize, self.models.len(), "backend ids are dense");
        self.models.push(ModelState {
            rpc_in: RpcModel::one_way(model.input_bytes),
            rpc_out: RpcModel::one_way(model.output_bytes),
            queue: VecDeque::new(),
            executing: None,
        });
        id
    }

    fn submit(&mut self, req: InferenceRequest) -> (SimTime, InferenceRequest) {
        let m = req.model.0 as usize;
        assert!(m < self.models.len(), "unknown model");
        (req.submitted_at + self.models[m].rpc_in, req)
    }

    fn on_event(&mut self, front: &mut TritonFront, at: SimTime, req: InferenceRequest) {
        let m = req.model.0 as usize;
        self.models[m].queue.push_back(req);
        self.try_launch(front, m, at);
    }

    fn on_completion(&mut self, front: &mut TritonFront, c: JobCompletion) {
        let model_idx = c.request.model.0 as usize;
        let st = &mut self.models[model_idx];
        // invariant: the instance submits one request at a time and holds it
        // in `executing` until the backend answers.
        let request = st.executing.take().expect("no job executing");
        let visible = c.client_visible_at + st.rpc_out;
        let ([device, client_send_recv, framework, communication], queuing) = split(
            visible.saturating_since(request.submitted_at),
            [
                c.breakdown.device,
                st.rpc_in + st.rpc_out,
                DISPATCH_COST + c.breakdown.framework,
                CudaRuntimeModel::LAUNCH_LATENCY * 2,
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
        self.try_launch(front, model_idx, c.client_visible_at);
    }

    fn parked(&self) -> u64 {
        self.models.iter().map(|st| st.queue.len() as u64).sum()
    }
}

/// Boost-Asio style ingress of the Clockwork-like system: cheaper than gRPC,
/// pricier than shm.
const CLOCKWORK_INGRESS: SimDuration = SimDuration::from_micros(25);
/// Controller→worker action + result RPC costs, each way.
const CLOCKWORK_CONTROLLER_COST: SimDuration = SimDuration::from_micros(45);

/// A Clockwork-like system (§9 related work; Table 3): a controller that
/// runs exactly one model execution on the GPU at a time, prioritizing
/// predictability. Controller↔worker coordination costs (Boost Asio) apply
/// per request.
pub struct Clockwork {
    queue: VecDeque<InferenceRequest>,
    busy: Option<InferenceRequest>,
}

type ClockworkFront = Front<InferenceRequest>;

impl Clockwork {
    /// Creates a Clockwork-like server over a fresh device.
    pub fn new(device: DeviceConfig, seed: u64) -> Layered<Self> {
        let bcfg = DispatcherConfig::direct(StreamPolicy::Single);
        let backend = Dispatcher::new(
            device,
            ChannelConfig::default(),
            Box::new(FifoScheduler::new()),
            bcfg,
            seed,
        );
        let tier = Clockwork {
            queue: VecDeque::new(),
            busy: None,
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
            submitted_at: now + CLOCKWORK_CONTROLLER_COST,
            ..req
        });
    }
}

impl Tier for Clockwork {
    /// A request that finished ingress.
    type Ev = InferenceRequest;

    fn name(&self) -> String {
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
        let visible = c.client_visible_at + CLOCKWORK_CONTROLLER_COST;
        let ([device, client_send_recv, framework, communication], queuing) = split(
            visible.saturating_since(request.submitted_at),
            [
                c.breakdown.device,
                CLOCKWORK_INGRESS,
                CLOCKWORK_CONTROLLER_COST * 2 + c.breakdown.framework,
                CudaRuntimeModel::LAUNCH_LATENCY * 2,
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
        let mut t = Triton::new(DeviceConfig::tesla_t4(), 1);
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
        let mut t = Triton::new(DeviceConfig::tesla_t4(), 1);
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
        let mut t = Triton::new(DeviceConfig::tesla_t4(), 1);
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
    fn clockwork_runs_one_at_a_time() {
        let mut cw = Clockwork::new(DeviceConfig::tesla_t4(), 1);
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
