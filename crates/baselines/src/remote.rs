//! Remote inference (§5.1 "Remote inference").
//!
//! Paella handles remote requests by running a local client that acts as an
//! RPC server for remote callers, transparently forwarding messages between
//! the remote client and the shared-memory protocol, with both ends using
//! kernel-bypass networking (the paper cites eRPC). [`RemoteGateway`] wraps
//! any [`ServingSystem`] and adds exactly those costs, as
//! [`RpcNetModel`] prices them: a per-message kernel-bypass RPC latency plus
//! line-rate payload serialization on each direction, and a gateway CPU cost
//! on the forwarding client.

use paella_compiler::CompiledModel;
use paella_core::{
    InferenceRequest, JobCompletion, JobFailure, ModelId, RpcNetModel, ServingSystem,
};
use paella_sim::{SimDuration, SimTime};

use crate::layered::{Front, Layered, Tier};

/// A remote-inference front end over any serving system.
pub struct RemoteGateway {
    /// Input/output payload sizes per registered model.
    payloads: Vec<(usize, usize)>,
}

impl RemoteGateway {
    /// Puts `inner` behind the network.
    pub fn new<S: ServingSystem>(inner: S) -> Layered<Self, S> {
        let payloads = Vec::new();
        Layered::new(RemoteGateway { payloads }, inner)
    }

    /// Request and response crossing costs of `model`.
    fn crossings(&self, model: ModelId) -> (SimDuration, SimDuration) {
        let (input, output) = self.payloads[model.0 as usize];
        (RpcNetModel::transfer(input), RpcNetModel::transfer(output))
    }
}

impl<S: ServingSystem> Tier<S> for RemoteGateway {
    /// A request in flight over the ingress network.
    type Ev = InferenceRequest;

    /// The gateway hands a landed request over before the inner system
    /// moves past its arrival.
    const INNER_FIRST: bool = false;

    fn name(&self, inner: &S) -> String {
        format!("remote[{}]", inner.name())
    }

    fn register_model(&mut self, inner: &mut S, model: &CompiledModel) -> ModelId {
        let id = inner.register_model(model);
        debug_assert_eq!(id.0 as usize, self.payloads.len());
        self.payloads.push((model.input_bytes, model.output_bytes));
        id
    }

    fn submit(&mut self, req: InferenceRequest) -> (SimTime, InferenceRequest) {
        (req.submitted_at + self.crossings(req.model).0, req)
    }

    /// The gateway's local client re-submits through the shared-memory
    /// protocol; the ingress delay is charged by shifting the submission
    /// time the inner system sees.
    fn on_event(
        &mut self,
        front: &mut Front<S, InferenceRequest>,
        at: SimTime,
        req: InferenceRequest,
    ) {
        front.inner.submit(InferenceRequest {
            submitted_at: at,
            ..req
        });
    }

    /// Adds the egress network and restores the remote client's original
    /// submission time.
    fn on_completion(&mut self, front: &mut Front<S, InferenceRequest>, mut c: JobCompletion) {
        let (ingress, egress) = self.crossings(c.request.model);
        c.client_visible_at += egress;
        c.request.submitted_at = RpcNetModel::origin(c.request.submitted_at, ingress);
        c.breakdown.communication += ingress + egress;
        front.deliver(c);
    }

    fn on_failure(&mut self, front: &mut Front<S, InferenceRequest>, mut f: JobFailure) {
        let (ingress, _) = self.crossings(f.request.model);
        f.request.submitted_at = RpcNetModel::origin(f.request.submitted_at, ingress);
        front.deliver_failure(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_channels::ChannelConfig;
    use paella_core::{ClientId, Dispatcher, DispatcherConfig, SrptDeficitScheduler};
    use paella_gpu::{BlockFootprint, DeviceConfig, DurationModel, KernelDesc};

    fn model(input: usize) -> CompiledModel {
        let kernel = KernelDesc {
            name: "r".to_string().into(),
            grid_blocks: 16,
            footprint: BlockFootprint {
                threads: 128,
                regs_per_thread: 16,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(200)),
            instrumentation: None,
        };
        CompiledModel {
            name: "remote-test".to_string().into(),
            ops: vec![
                paella_compiler::DeviceOp::InputCopy { bytes: input },
                paella_compiler::DeviceOp::Kernel(kernel),
                paella_compiler::DeviceOp::OutputCopy { bytes: 4_000 },
            ],
            schedule: None,
            input_bytes: input,
            output_bytes: 4_000,
            weight_bytes: 0,
            flops: 0,
        }
    }

    fn local() -> Dispatcher {
        Dispatcher::new(
            DeviceConfig::tesla_t4(),
            ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            DispatcherConfig::paella(),
            3,
        )
    }

    #[test]
    fn remote_adds_two_network_crossings() {
        let m = model(600_000);
        let jct_local = {
            let mut d = local();
            let id = d.register_model(&m);
            d.submit(InferenceRequest {
                client: ClientId(0),
                model: id,
                submitted_at: SimTime::ZERO,
            });
            d.run_to_idle();
            d.drain_completions()[0].jct()
        };
        let mut g = RemoteGateway::new(local());
        let id = g.register_model(&m);
        g.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        g.run_to_idle();
        let done = g.drain_completions();
        assert_eq!(done.len(), 1);
        let jct_remote = done[0].jct();
        let expected_extra = RpcNetModel::transfer(600_000) + RpcNetModel::transfer(4_000);
        let extra = jct_remote.saturating_sub(jct_local);
        // Within a microsecond of the modelled crossings (scheduling noise).
        assert!(
            extra >= expected_extra.saturating_sub(SimDuration::from_micros(1))
                && extra <= expected_extra + SimDuration::from_micros(5),
            "extra {extra} vs expected {expected_extra}"
        );
    }

    #[test]
    fn telemetry_passes_through_the_gateway() {
        let m = model(10_000);
        let mut g = RemoteGateway::new(local());
        g.enable_telemetry();
        let id = g.register_model(&m);
        g.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        g.run_to_idle();
        let trace = g.take_trace_log().expect("inner tracer must be reachable");
        assert!(
            trace.events.iter().any(|e| e.event.kind() == "job-begin"),
            "inner dispatcher events must surface through the wrapper"
        );
        let snap = g.metrics_snapshot().expect("inner metrics must surface");
        assert!(snap.counter("jobs_completed") >= 1);
    }

    #[test]
    fn remote_preserves_ordering_and_counts() {
        let m = model(10_000);
        let mut g = RemoteGateway::new(local());
        let id = g.register_model(&m);
        for i in 0..20 {
            g.submit(InferenceRequest {
                client: ClientId(i % 4),
                model: id,
                submitted_at: SimTime::from_micros(u64::from(i) * 50),
            });
        }
        g.run_to_idle();
        let done = g.drain_completions();
        assert_eq!(done.len(), 20);
        for c in &done {
            assert!(c.client_visible_at > c.request.submitted_at);
        }
    }
}
