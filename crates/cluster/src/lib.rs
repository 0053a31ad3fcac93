//! The cluster serving tier: N Paella nodes behind a software-defined
//! router, on one deterministic virtual clock.
//!
//! The paper stops at one GPU behind one dispatcher; this crate builds the
//! layer above it. Each node is a full Paella [`Dispatcher`] over its own
//! simulated device, reached through the same [`RpcNetModel`] cost model
//! remote inference uses. A [`ClusterRouter`] balances requests across each
//! model's replica set — round-robin, JSQ, power-of-two-choices, or the
//! Paella-native least-remaining-work policy fed by every node's SRPT load
//! signal — and a [`PlacementManager`] pins models to replica sets under a
//! per-node memory budget. The fleet is fixed at construction; a node that
//! crashes and recovers pays a modelled cold start (its weights over PCIe)
//! before it is online again.
//!
//! [`MigServing`] is the same idea one level down (§8): static MIG
//! partitions of one device, each behind its own dispatcher. A cluster node
//! and a partition keep their models in one per-node table that maps public
//! ids to dispatcher-local ones and back by index.
//!
//! Determinism: all nodes advance in lockstep on the shared DES clock. The
//! cluster's `advance_until` repeatedly processes the globally earliest
//! event (router arrival, node ingress, or node-internal work); ties break
//! router-first, then by node index, and the only randomness (power-of-two
//! sampling) comes from a seeded [`Xoshiro256pp`], so the same seed replays
//! the same execution bit for bit.

#![warn(missing_docs)]

mod host;
pub mod mig;
pub mod placement;
pub mod router;

pub use mig::{partition_device, MigServing};
pub use placement::PlacementManager;
pub use router::{ClusterRouter, NodeLoad, RoutingPolicy};

use std::collections::BTreeMap;

use paella_channels::ChannelConfig;
use paella_compiler::CompiledModel;
use paella_core::dispatcher::{Dispatcher, DispatcherConfig};
use paella_core::remote::RpcNetModel;
use paella_core::sched::SrptDeficitScheduler;
use paella_core::serve::{earliest, EngineCore, ServingSystem};
use paella_core::types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, LoadSignal, ModelId,
};
use paella_gpu::DeviceConfig;
use paella_sim::{EventQueue, FaultKind, FaultPlan, SimDuration, SimTime, Xoshiro256pp};
use paella_telemetry::{MetricsSnapshot, RouteDecision, TraceEvent, TraceLog};

use host::Host;

/// Cluster-wide knobs. Client↔router and router↔node crossings cost an
/// [`RpcNetModel`] transfer each; placement replicates every model twice
/// under a 16 GB per-node budget.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Balancing policy.
    pub policy: RoutingPolicy,
    /// Configuration for every node's dispatcher (deadlines, shedding, and
    /// retry knobs included — DESIGN §11).
    pub dispatcher: DispatcherConfig,
    /// How many times the frontend re-routes a request lost to a node crash
    /// before reporting it failed (per-request budget).
    pub crash_retries: u32,
    /// Seed for node dispatchers and the router's RNG.
    pub seed: u64,
}

impl ClusterConfig {
    /// Defaults with the given policy: the Paella dispatcher on every node
    /// and up to 3 crash re-routes per request.
    pub fn with_policy(policy: RoutingPolicy) -> Self {
        ClusterConfig {
            policy,
            dispatcher: DispatcherConfig::paella(),
            crash_retries: 3,
            seed: 0,
        }
    }
}

/// Node lifecycle. Requests route only to `Online` nodes (with a fallback
/// to cold-starting replicas if a model has no online replica at all).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeState {
    /// Reloading its weights after a crash; becomes `Online` at the stored
    /// time.
    ColdStarting {
        /// When the node finishes warming.
        ready_at: SimTime,
    },
    /// Serving.
    Online,
    /// Crashed by fault injection: its device memory is gone, and it takes
    /// no request until a recovery event starts a cold start.
    Crashed,
}

struct Node {
    /// The node's dispatcher and the table of models replicated here.
    host: Host,
    state: NodeState,
    /// Requests crossing the router→node link, with the work estimate the
    /// router charged them (`(request-with-public-id, estimate)`).
    ingress: EventQueue<(InferenceRequest, SimDuration)>,
    /// Count and estimated work of requests still in the network.
    in_network: u64,
    in_network_work: SimDuration,
    /// Routed minus completed — the JSQ signal.
    outstanding: u64,
}

impl Node {
    /// An online node with nothing registered and nothing routed to it.
    fn new(dispatcher: Dispatcher) -> Self {
        Node {
            host: Host::new(dispatcher),
            state: NodeState::Online,
            ingress: EventQueue::new(),
            in_network: 0,
            in_network_work: SimDuration::ZERO,
            outstanding: 0,
        }
    }

    fn load(&self) -> NodeLoad {
        let s = self.host.dispatcher.load_signal();
        NodeLoad {
            outstanding: self.outstanding,
            remaining_work: s.remaining_work + self.in_network_work,
            kv_pressure_bp: s.kv_pressure_bp(),
        }
    }
}

struct ClusterModel {
    model: CompiledModel,
    replicas: Vec<usize>,
    /// Bootstrap total-time estimate, used to account for requests the
    /// target node has not seen yet (in-network work).
    estimate: SimDuration,
}

enum FrontEv {
    /// A request reached the router.
    Arrive(InferenceRequest),
    /// A request lost to a node crash re-enters routing. Unlike `Arrive`,
    /// `submitted_at` is the request's *original* submission time, preserved
    /// across re-routes so deadlines and reported latency stay anchored to
    /// when the client actually called predict.
    Reroute(InferenceRequest),
    /// A cold-starting node finished warming, at the event's instant.
    NodeReady(usize),
    /// An injected fault fires (node crash/recovery, client disconnect).
    Fault(FaultKind),
}

/// A multi-GPU Paella deployment: N dispatcher nodes behind one router, all
/// on the shared virtual clock. Implements [`ServingSystem`] so every
/// harness that drives a single node drives a cluster unchanged.
pub struct Cluster {
    device: DeviceConfig,
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    models: Vec<ClusterModel>,
    placement: PlacementManager,
    router: ClusterRouter,
    frontend: EventQueue<FrontEv>,
    /// Crash re-routes consumed per request, keyed by
    /// `(client, public model, original submitted_at ns)`.
    reroutes: BTreeMap<(u32, u32, u64), u32>,
    /// The router tier's telemetry (routing decisions and counters, the
    /// failure ledger), its outboxes — results carry public ids
    /// and original submission times — and the accounting debit.
    core: EngineCore,
}

impl Cluster {
    /// A cluster of `nodes` identical devices with the Paella dispatcher
    /// configuration (SRPT + deficit) on every node.
    pub fn new(device: DeviceConfig, nodes: usize, cfg: ClusterConfig) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let node_vec = (0..nodes)
            .map(|i| Node::new(make_dispatcher(&device, &cfg, i as u64)))
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0xC1A5_7E2D);
        let router_seed = rng.next_u64();
        Cluster {
            device,
            placement: PlacementManager::new(nodes),
            router: ClusterRouter::new(cfg.policy, router_seed),
            cfg,
            nodes: node_vec,
            models: Vec::new(),
            frontend: EventQueue::new(),
            reroutes: BTreeMap::new(),
            core: EngineCore::default(),
        }
    }

    /// Nodes currently serving.
    pub fn nodes_online(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.state == NodeState::Online)
            .count()
    }

    /// Lifecycle state of `node`.
    pub fn node_state(&self, node: usize) -> NodeState {
        self.nodes[node].state
    }

    /// The replica set a model was pinned to.
    pub fn replicas(&self, model: ModelId) -> &[usize] {
        &self.models[model.0 as usize].replicas
    }

    /// Requests anywhere in the cluster (in-network, queued, in-flight).
    fn total_outstanding(&self) -> u64 {
        self.nodes.iter().map(|n| n.outstanding).sum()
    }

    // -- event handlers -----------------------------------------------------

    /// The routable replica subset of a model: its online members, else its
    /// cold-starting ones. A cold-starting node's dispatcher is not told it
    /// is cold, so it serves a request as soon as the request lands, even
    /// before `ready_at`. Crashed nodes never qualify — routing to one would
    /// lose the request again. Empty means every replica is currently
    /// crashed.
    fn route_candidates(&self, public: usize) -> Vec<usize> {
        let all = &self.models[public].replicas;
        let online: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].state == NodeState::Online)
            .collect();
        if !online.is_empty() {
            return online;
        }
        all.iter()
            .copied()
            .filter(|&i| !self.node_crashed(i))
            .collect()
    }

    /// Routes a request (public ids) to one node and puts it on the wire.
    /// `anchor` carries a re-routed request's original submission time; a
    /// fresh arrival anchors at its ingress landing instead. If every
    /// replica has crashed the request fails terminally.
    fn dispatch_to_node(&mut self, at: SimTime, req: InferenceRequest, anchor: Option<SimTime>) {
        let public = req.model.0 as usize;
        assert!(public < self.models.len(), "unknown model {:?}", req.model);
        let candidates = self.route_candidates(public);
        if candidates.is_empty() {
            self.fail_terminal(req, at, FailureReason::NodeCrash);
            return;
        }
        let loads: Vec<NodeLoad> = candidates.iter().map(|&i| self.nodes[i].load()).collect();
        let pos = self.router.pick(&candidates, &loads);
        let chosen = candidates[pos];
        let outstanding = loads[pos].outstanding;
        if self.core.tracer.is_enabled() {
            let (model, node, policy, n_cand) = (
                public as u32,
                chosen as u32,
                self.router.policy().as_str(),
                candidates.len() as u32,
            );
            self.core.trace(at, || {
                TraceEvent::RouteDecision(Box::new(RouteDecision {
                    model,
                    node,
                    policy,
                    outstanding,
                    candidates: n_cand,
                }))
            });
        }
        self.core.inc("requests_routed", 1);
        let est = self.models[public].estimate;
        let hop = RpcNetModel::transfer(self.models[public].model.input_bytes);
        let node = &mut self.nodes[chosen];
        node.outstanding += 1;
        node.in_network += 1;
        node.in_network_work += est;
        let arrive = (at + hop).max(node.ingress.now());
        // The node-facing submission time embeds the two ingress crossings
        // `collect_completions`/`collect_failures` subtract back out, so a
        // re-routed request's reconstructed origin stays its *original*
        // submission no matter how many routing rounds it took.
        let submitted = anchor.map_or(arrive, |orig| orig + hop * 2);
        node.ingress.schedule_at(
            arrive,
            (
                InferenceRequest {
                    submitted_at: submitted,
                    ..req
                },
                est,
            ),
        );
    }

    fn on_arrive(&mut self, at: SimTime, req: InferenceRequest) {
        self.dispatch_to_node(at, req, None);
    }

    fn on_reroute(&mut self, at: SimTime, req: InferenceRequest) {
        let orig = req.submitted_at;
        self.dispatch_to_node(at, req, Some(orig));
    }

    /// Records a terminal failure (public ids, original submission time) and
    /// retires any re-route budget the request consumed.
    fn fail_terminal(&mut self, req: InferenceRequest, at: SimTime, reason: FailureReason) {
        self.reroutes
            .remove(&(req.client.0, req.model.0, req.submitted_at.as_nanos()));
        self.core.inc("requests_failed", 1);
        // Losing a request to a crash with no surviving replica (or a spent
        // crash budget) is the cluster's terminal failure: snapshot the
        // router tier's flight ring and fixed-order cluster state into a
        // post-mortem dump (DESIGN §12).
        if reason == FailureReason::NodeCrash {
            let crashed = self.nodes.iter().filter(|n| n.state == NodeState::Crashed);
            let crashed = crashed.count() as u64;
            let state = [
                ("frontend_queued", self.frontend.len() as u64),
                ("nodes_online", self.nodes_online() as u64),
                ("nodes_crashed", crashed),
                ("outstanding", self.total_outstanding()),
                ("failures", self.core.failures_pending() as u64),
            ];
            self.core.postmortem("replica-loss", at, &state);
        }
        self.core.fail(req, reason, at);
    }

    /// A request lost to a node crash: re-enter routing if its per-request
    /// budget allows, otherwise fail it terminally. `req` carries public ids
    /// and the *original* submission time.
    fn try_reroute(&mut self, at: SimTime, req: InferenceRequest) {
        let key = (req.client.0, req.model.0, req.submitted_at.as_nanos());
        let used = self.reroutes.get(&key).copied().unwrap_or(0);
        if used >= self.cfg.crash_retries {
            self.fail_terminal(req, at, FailureReason::NodeCrash);
            return;
        }
        self.reroutes.insert(key, used + 1);
        let (client, model, attempt) = (req.client.0, req.model.0, used + 1);
        self.core.trace(at, || TraceEvent::FailoverHop {
            client,
            model,
            attempt,
        });
        self.core.inc("requests_rerouted", 1);
        self.frontend
            .schedule_at(at.max(self.frontend.now()), FrontEv::Reroute(req));
    }

    fn on_fault(&mut self, at: SimTime, kind: FaultKind) {
        match kind {
            FaultKind::NodeCrash(i) => self.on_node_crash(at, i as usize),
            FaultKind::NodeRecover(i) => self.on_node_recover(at, i as usize),
            FaultKind::ClientDisconnect(c) => self.on_client_disconnect(at, ClientId(c)),
        }
    }

    /// A node crash: results already produced survive, everything else on
    /// the node — queued ingress, queued jobs, in-flight kernels — is lost
    /// and re-enters routing under the per-request crash budget. The node
    /// goes `Crashed`, so the router skips it until a recovery event lands.
    fn on_node_crash(&mut self, at: SimTime, i: usize) {
        if i >= self.nodes.len() || self.node_crashed(i) {
            return;
        }
        self.core
            .trace(at, || TraceEvent::NodeCrash { node: i as u32 });
        self.core.inc("node_crashes", 1);
        self.collect_completions(i);
        self.nodes[i].state = NodeState::Crashed;
        self.nodes[i]
            .host
            .dispatcher
            .cancel_all(at, FailureReason::NodeCrash);
        self.collect_failures(i);
        // Requests still crossing the wire to the crashed node are lost too.
        for (_, (req, _est)) in self.nodes[i].ingress.drain() {
            self.settle(i, 1);
            let submitted_at =
                RpcNetModel::origin(req.submitted_at, self.ingress(req.model.0 as usize));
            self.try_reroute(
                at,
                InferenceRequest {
                    submitted_at,
                    ..req
                },
            );
        }
        // Completions, failures, and the drained ingress must account for
        // every request the router charged to this node.
        let n = &mut self.nodes[i];
        n.in_network = 0;
        n.in_network_work = SimDuration::ZERO;
        debug_assert_eq!(n.outstanding, 0, "node {i} crash accounting out of balance");
        if n.outstanding != 0 {
            n.outstanding = 0;
            self.core.inc("accounting_underflow", 1);
        }
    }

    /// Recovery from a crash pays a full cold start — every replicated
    /// model's weights back over one PCIe copy engine — because the crash
    /// dropped the node's device memory.
    fn on_node_recover(&mut self, at: SimTime, i: usize) {
        if i >= self.nodes.len() || !self.node_crashed(i) {
            return;
        }
        self.core
            .trace(at, || TraceEvent::NodeRecover { node: i as u32 });
        self.core.inc("node_recoveries", 1);
        let weight: u64 = self
            .models
            .iter()
            .enumerate()
            .filter(|&(p, _)| self.nodes[i].host.local(ModelId(p as u32)).is_some())
            .map(|(_, m)| m.model.weight_bytes)
            .sum();
        let copy_us = weight as f64 / self.device.pcie_bytes_per_sec * 1e6;
        let ready_at = at + SimDuration::from_micros_f64(copy_us);
        self.nodes[i].state = NodeState::ColdStarting { ready_at };
        self.frontend.schedule_at(ready_at, FrontEv::NodeReady(i));
    }

    /// A client disconnect: every node cancels the client's queued and
    /// in-flight jobs now; anything of theirs still crossing the network is
    /// refused at node ingress by the dispatcher's disconnect set.
    fn on_client_disconnect(&mut self, at: SimTime, client: ClientId) {
        self.core.inc("client_disconnects", 1);
        for i in 0..self.nodes.len() {
            self.nodes[i].host.dispatcher.cancel_client(client, at);
            self.collect_failures(i);
        }
    }

    /// Node `i`'s cold start due `at` finished. A crash since then made
    /// the event stale: the node is crashed, or cold-starting toward a later
    /// instant, and stays so.
    fn on_node_ready(&mut self, at: SimTime, i: usize) {
        if self.nodes[i].state == (NodeState::ColdStarting { ready_at: at }) {
            self.nodes[i].state = NodeState::Online;
        }
    }

    /// The two ingress crossings (client→router, router→node) folded into
    /// the submission time a node sees for public model `public`.
    fn ingress(&self, public: usize) -> SimDuration {
        RpcNetModel::transfer(self.models[public].model.input_bytes) * 2
    }

    /// Translates a request node `i` echoes back to the cluster's public
    /// model id and the client's original submission time (both crossings
    /// are deterministic per model, so they subtract back out exactly).
    /// Returns the public model index and the ingress subtracted.
    fn restore(&self, i: usize, req: &mut InferenceRequest) -> (usize, SimDuration) {
        req.model = self.nodes[i].host.public(req.model);
        let public = req.model.0 as usize;
        let ingress = self.ingress(public);
        req.submitted_at = RpcNetModel::origin(req.submitted_at, ingress);
        (public, ingress)
    }

    /// Node `i` answered `n` of the requests routed to it.
    fn settle(&mut self, i: usize, n: u64) {
        self.core
            .debit(&mut self.nodes[i].outstanding, n, "node outstanding");
    }

    /// Drains completions from node `i`, translating them back to the
    /// cluster's public ids and times. The nodes' own ledgers booked them;
    /// the router tier's books failures only.
    fn collect_completions(&mut self, i: usize) {
        let drained = self.nodes[i].host.dispatcher.drain_completions();
        if drained.is_empty() {
            return;
        }
        self.settle(i, drained.len() as u64);
        for mut c in drained {
            let (public, ingress) = self.restore(i, &mut c.request);
            let egress = RpcNetModel::transfer(self.models[public].model.output_bytes);
            c.client_visible_at += egress;
            c.breakdown.communication += ingress + egress;
            // A completed request retires whatever re-route budget it used.
            self.reroutes.remove(&(
                c.request.client.0,
                c.request.model.0,
                c.request.submitted_at.as_nanos(),
            ));
            self.core.forward(c);
        }
    }

    /// Drains failures from node `i`, translating them back to public ids
    /// and original submission times. Crash-reason failures re-enter routing
    /// under the per-request budget; everything else is terminal.
    fn collect_failures(&mut self, i: usize) {
        for mut f in self.nodes[i].host.dispatcher.drain_failures() {
            self.restore(i, &mut f.request);
            self.settle(i, 1);
            if f.reason == FailureReason::NodeCrash {
                self.try_reroute(f.at, f.request);
            } else {
                self.fail_terminal(f.request, f.at, f.reason);
            }
        }
    }

    /// Whether node `i` is currently crashed.
    pub fn node_crashed(&self, i: usize) -> bool {
        self.nodes[i].state == NodeState::Crashed
    }

    /// Arms a deterministic fault plan: the kernel-fault rate reaches every
    /// node's dispatcher and each timed event is scheduled on the frontend
    /// clock, where it interleaves deterministically with workload events.
    pub fn inject(&mut self, plan: &FaultPlan) {
        for n in &mut self.nodes {
            n.host
                .dispatcher
                .set_kernel_fault_rate(plan.kernel_fault_rate);
        }
        for e in &plan.events {
            self.frontend
                .schedule_at(e.at.max(self.frontend.now()), FrontEv::Fault(e.kind));
        }
    }
}

fn make_dispatcher(device: &DeviceConfig, cfg: &ClusterConfig, node: u64) -> Dispatcher {
    Dispatcher::new(
        device.clone(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg.dispatcher,
        cfg.seed
            .wrapping_add(node)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15),
    )
}

impl ServingSystem for Cluster {
    /// Registers `model` on its replica set (chosen by the placement
    /// manager) and returns the cluster-public id.
    fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        let public = ModelId(self.models.len() as u32);
        let replicas = self.placement.place(model);
        let mut estimate = SimDuration::ZERO;
        for &i in &replicas {
            let host = &mut self.nodes[i].host;
            let local = host.register(public, model);
            estimate = host.dispatcher.profile_estimate(local);
        }
        self.models.push(ClusterModel {
            model: model.clone(),
            replicas,
            estimate,
        });
        public
    }

    fn submit(&mut self, req: InferenceRequest) {
        let input = self.models[req.model.0 as usize].model.input_bytes;
        let arrive = (req.submitted_at + RpcNetModel::transfer(input)).max(self.frontend.now());
        self.frontend.schedule_at(arrive, FrontEv::Arrive(req));
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let mut t = self.frontend.peek_time();
        for n in &mut self.nodes {
            t = earliest(t, n.ingress.peek_time());
            t = earliest(t, n.host.dispatcher.next_event_time());
        }
        t
    }

    /// Lockstep advance: repeatedly process the globally earliest event at
    /// or before `t`. Ties break router-first, then node ingress by index,
    /// then node-internal work by index — a fixed order, so runs are
    /// deterministic.
    fn advance_until(&mut self, t: SimTime) {
        loop {
            let tf = self.frontend.peek_time();
            let mut ti: Option<(SimTime, usize)> = None;
            let mut tn: Option<(SimTime, usize)> = None;
            for (i, n) in self.nodes.iter_mut().enumerate() {
                if let Some(a) = n.ingress.peek_time() {
                    if ti.is_none_or(|(b, _)| a < b) {
                        ti = Some((a, i));
                    }
                }
                if let Some(a) = n.host.dispatcher.next_event_time() {
                    if tn.is_none_or(|(b, _)| a < b) {
                        tn = Some((a, i));
                    }
                }
            }
            let next = earliest(tf, earliest(ti.map(|(a, _)| a), tn.map(|(a, _)| a)));
            let Some(next) = next.filter(|&next| next <= t) else {
                break;
            };
            if tf == Some(next) {
                // invariant: peek_time returned Some(next), so pop succeeds.
                let (at, ev) = self.frontend.pop().expect("peeked");
                match ev {
                    FrontEv::Arrive(req) => self.on_arrive(at, req),
                    FrontEv::Reroute(req) => self.on_reroute(at, req),
                    FrontEv::NodeReady(i) => self.on_node_ready(at, i),
                    FrontEv::Fault(kind) => self.on_fault(at, kind),
                }
            } else if let Some((_, i)) = ti.filter(|&(a, _)| a == next) {
                let n = &mut self.nodes[i];
                // invariant: peek_time returned Some(next), so pop succeeds.
                let (_, (req, est)) = n.ingress.pop().expect("peeked");
                self.core.debit(&mut n.in_network, 1, "in-network requests");
                self.core
                    .debit_work(&mut n.in_network_work, est, "in-network work");
                let local = n.host.local(req.model).unwrap_or_else(|| {
                    panic!("request routed to node {i} without model {:?}", req.model)
                });
                n.host.dispatcher.submit(InferenceRequest {
                    model: local,
                    ..req
                });
                // Ingress-time refusals (shed, disconnected client) surface
                // here, not on the device clock — collect them promptly so a
                // node with no device work cannot strand `outstanding`.
                self.collect_failures(i);
            } else if let Some((a, i)) = tn {
                self.nodes[i].host.dispatcher.advance_until(a);
                self.collect_completions(i);
                self.collect_failures(i);
            }
        }
    }

    fn drain_completions(&mut self) -> Vec<JobCompletion> {
        self.core.take_completions()
    }

    fn drain_failures(&mut self) -> Vec<JobFailure> {
        self.core.take_failures()
    }

    fn name(&self) -> String {
        format!(
            "cluster[{}x{}]",
            self.nodes.len(),
            self.router.policy().as_str()
        )
    }

    /// Enables the router's own telemetry and forwards the call to every
    /// node's dispatcher.
    fn enable_telemetry(&mut self) {
        self.core.enable_telemetry();
        for n in &mut self.nodes {
            n.host.dispatcher.enable_telemetry();
        }
    }

    /// The router's trace, then every node's host+device trace, concatenated.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        if !self.core.tracer.is_enabled() {
            return None;
        }
        let mut sources = vec![self.core.tracer.take()];
        for n in &mut self.nodes {
            sources.extend(n.host.dispatcher.take_trace_log());
        }
        Some(TraceLog::concat(sources))
    }

    /// The cluster-level registry (routing counters, the SLO ledger).
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.core.metrics_snapshot()
    }

    /// Router-tier dumps first, then each node's, in node order.
    fn take_postmortems(&mut self) -> Vec<String> {
        let mut out = self.core.take_postmortems();
        for n in &mut self.nodes {
            out.extend(n.host.dispatcher.take_postmortems());
        }
        out
    }

    /// Aggregate over all nodes plus requests still inside the router tier.
    fn load_signal(&self) -> LoadSignal {
        let mut s = LoadSignal {
            queued: self.frontend.len() as u64,
            ..LoadSignal::default()
        };
        for n in &self.nodes {
            s = s + n.host.dispatcher.load_signal();
            s.queued += n.in_network;
            s.remaining_work += n.in_network_work;
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_core::types::ClientId;
    use paella_models::synthetic;

    fn cluster(nodes: usize, policy: RoutingPolicy) -> Cluster {
        Cluster::new(
            DeviceConfig::tesla_t4(),
            nodes,
            ClusterConfig {
                seed: 11,
                ..ClusterConfig::with_policy(policy)
            },
        )
    }

    fn submit_n(c: &mut Cluster, id: ModelId, n: u64, gap_us: u64) {
        for i in 0..n {
            c.submit(InferenceRequest {
                client: ClientId((i % 4) as u32),
                model: id,
                submitted_at: SimTime::from_micros(i * gap_us),
            });
        }
    }

    #[test]
    fn requests_complete_across_nodes() {
        let mut c = cluster(4, RoutingPolicy::Jsq);
        let m = synthetic::uniform_job("cl", 4, SimDuration::from_micros(150), 64);
        let id = c.register_model(&m);
        assert_eq!(c.replicas(id).len(), 2, "default 2x replication");
        submit_n(&mut c, id, 40, 100);
        c.run_to_idle();
        let done = c.drain_completions();
        assert_eq!(done.len(), 40);
        for d in &done {
            assert_eq!(d.request.model, id, "public id restored");
            assert!(d.client_visible_at > d.request.submitted_at);
        }
    }

    #[test]
    fn cluster_runs_are_bit_deterministic() {
        let run = |policy| {
            let mut c = cluster(4, policy);
            let m = synthetic::uniform_job("det", 6, SimDuration::from_micros(200), 64);
            let id = c.register_model(&m);
            submit_n(&mut c, id, 60, 40);
            c.run_to_idle();
            let mut done = c.drain_completions();
            done.sort_by_key(|d| (d.request.submitted_at, d.client_visible_at));
            done.iter()
                .map(|d| format!("{}:{}", d.request.submitted_at, d.client_visible_at))
                .collect::<Vec<_>>()
        };
        for policy in [
            RoutingPolicy::RoundRobin,
            RoutingPolicy::Jsq,
            RoutingPolicy::PowerOfTwoChoices,
            RoutingPolicy::LeastRemainingWork,
        ] {
            assert_eq!(run(policy), run(policy), "{policy:?} must replay exactly");
        }
    }

    #[test]
    fn network_crossings_are_charged() {
        // One idle node, one request: the cluster JCT must exceed a bare
        // dispatcher's by roughly three crossings (two in, one out).
        let m = synthetic::uniform_job("net", 4, SimDuration::from_micros(150), 64);
        let mut solo = make_dispatcher(
            &DeviceConfig::tesla_t4(),
            &ClusterConfig {
                seed: 11,
                ..ClusterConfig::with_policy(RoutingPolicy::RoundRobin)
            },
            0,
        );
        let sid = solo.register_model(&m);
        solo.submit(InferenceRequest {
            client: ClientId(0),
            model: sid,
            submitted_at: SimTime::ZERO,
        });
        solo.run_to_idle();
        let jct_solo = solo.drain_completions()[0].jct();

        let mut c = cluster(1, RoutingPolicy::RoundRobin);
        let id = c.register_model(&m);
        c.submit(InferenceRequest {
            client: ClientId(0),
            model: id,
            submitted_at: SimTime::ZERO,
        });
        c.run_to_idle();
        let done = c.drain_completions();
        let expected =
            RpcNetModel::transfer(m.input_bytes) * 2 + RpcNetModel::transfer(m.output_bytes);
        let extra = done[0].jct().saturating_sub(jct_solo);
        assert!(
            extra >= expected.saturating_sub(SimDuration::from_micros(2))
                && extra <= expected + SimDuration::from_micros(10),
            "extra {extra} vs expected {expected}"
        );
        assert!(done[0].breakdown.communication >= expected);
    }

    #[test]
    fn telemetry_passthrough_reaches_nodes_and_router() {
        let mut c = cluster(2, RoutingPolicy::LeastRemainingWork);
        let m = synthetic::uniform_job("tel", 4, SimDuration::from_micros(100), 32);
        let id = c.register_model(&m);
        c.enable_telemetry();
        submit_n(&mut c, id, 8, 50);
        c.run_to_idle();
        let trace = c.take_trace_log().expect("telemetry enabled");
        assert!(!trace.is_empty());
        let kinds: Vec<&str> = trace.events.iter().map(|e| e.event.kind()).collect();
        assert!(
            kinds.contains(&"route-decision"),
            "router events must be traced"
        );
        assert!(
            kinds.contains(&"job-begin"),
            "node dispatcher events must be forwarded"
        );
        let to_node0 = |e: &TraceEvent| matches!(e, TraceEvent::RouteDecision(r) if r.node == 0);
        assert!(
            trace.events.iter().any(|e| to_node0(&e.event)),
            "the trace must name node 0's routing"
        );
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("requests_routed"), 8);
    }

    #[test]
    fn node_crash_reroutes_to_surviving_replica() {
        use paella_sim::FaultEvent;
        let mut c = cluster(2, RoutingPolicy::Jsq);
        let m = synthetic::uniform_job("fx", 4, SimDuration::from_micros(150), 64);
        let id = c.register_model(&m);
        assert_eq!(c.replicas(id).len(), 2);
        c.enable_telemetry();
        submit_n(&mut c, id, 30, 50);
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events: vec![FaultEvent {
                at: SimTime::from_micros(400),
                kind: FaultKind::NodeCrash(0),
            }],
        });
        c.run_to_idle();
        let done = c.drain_completions();
        let failed = c.drain_failures();
        assert_eq!(done.len() + failed.len(), 30, "every request accounted");
        assert!(
            failed.is_empty(),
            "a surviving replica absorbs everything: {failed:?}"
        );
        assert!(c.node_crashed(0));
        assert_eq!(c.node_state(0), NodeState::Crashed);
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("node_crashes"), 1);
        assert!(
            snap.counter("requests_rerouted") > 0,
            "the crash must have stranded work mid-run"
        );
        assert_eq!(snap.counter("accounting_underflow"), 0);
    }

    #[test]
    fn crash_of_sole_replica_fails_requests_terminally() {
        use paella_sim::FaultEvent;
        let mut c = cluster(1, RoutingPolicy::RoundRobin);
        let m = synthetic::uniform_job("solo", 4, SimDuration::from_micros(150), 64);
        let id = c.register_model(&m);
        c.enable_telemetry();
        submit_n(&mut c, id, 20, 50);
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events: vec![FaultEvent {
                at: SimTime::from_micros(300),
                kind: FaultKind::NodeCrash(0),
            }],
        });
        c.run_to_idle();
        let done = c.drain_completions();
        let failed = c.drain_failures();
        assert_eq!(done.len() + failed.len(), 20, "every request accounted");
        assert!(!failed.is_empty(), "no replica left to absorb the crash");
        for f in &failed {
            assert_eq!(f.reason, FailureReason::NodeCrash);
            assert_eq!(f.request.model, id, "public id restored on failures");
        }
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("requests_failed"), failed.len() as u64);
        assert_eq!(snap.counter("accounting_underflow"), 0);
        // Per-tenant SLO ledger: every lost request is booked against its
        // tenant under the node-crash reason.
        let crash_fails: u64 = snap
            .tenant_slo
            .iter()
            .flat_map(|(_, s)| s.failures.iter())
            .filter(|(r, _)| r == FailureReason::NodeCrash.as_str())
            .map(|&(_, n)| n)
            .sum();
        assert_eq!(crash_fails, failed.len() as u64);
        // Each terminal loss snapshots the router's flight ring into a
        // parseable post-mortem dump.
        let dumps = c.take_postmortems();
        assert_eq!(dumps.len(), failed.len());
        for d in &dumps {
            paella_telemetry::flight::validate_dump(d).expect("dump parses");
            assert!(d.contains("trigger: replica-loss"), "{d}");
            assert!(d.contains("event:"), "ring must hold recent events: {d}");
        }
        assert!(c.take_postmortems().is_empty(), "dumps drain on take");
    }

    #[test]
    fn crashed_node_recovers_through_a_full_cold_start() {
        use paella_sim::FaultEvent;
        let mut c = cluster(2, RoutingPolicy::Jsq);
        let m = CompiledModel {
            weight_bytes: 1_200_000_000,
            ..synthetic::uniform_job("rec", 4, SimDuration::from_micros(150), 64)
        };
        let id = c.register_model(&m);
        c.enable_telemetry();
        submit_n(&mut c, id, 24, 100);
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events: vec![
                FaultEvent {
                    at: SimTime::from_micros(300),
                    kind: FaultKind::NodeCrash(1),
                },
                FaultEvent {
                    at: SimTime::from_micros(700),
                    kind: FaultKind::NodeRecover(1),
                },
            ],
        });
        c.advance_until(SimTime::from_micros(700));
        // 1.2 GB of weights over the T4's 12 GB/s PCIe is 100 ms, and that
        // is the whole cold start.
        assert_eq!(
            c.node_state(1),
            NodeState::ColdStarting {
                ready_at: SimTime::from_micros(100_700)
            },
            "recovery reloads the weights over PCIe"
        );
        c.run_to_idle();
        let done = c.drain_completions();
        let failed = c.drain_failures();
        assert_eq!(done.len() + failed.len(), 24);
        assert!(failed.is_empty(), "replica + recovery lose nothing");
        assert!(!c.node_crashed(1), "recovery clears the crash flag");
        assert_eq!(
            c.node_state(1),
            NodeState::Online,
            "recovered node warms back to serving"
        );
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("node_crashes"), 1);
        assert_eq!(snap.counter("node_recoveries"), 1);
        assert_eq!(snap.counter("accounting_underflow"), 0);
    }

    #[test]
    fn a_stale_ready_event_leaves_a_later_cold_start_running() {
        use paella_sim::FaultEvent;
        let mut c = cluster(2, RoutingPolicy::Jsq);
        let m = CompiledModel {
            weight_bytes: 1_200_000_000,
            ..synthetic::uniform_job("stale", 4, SimDuration::from_micros(150), 64)
        };
        c.register_model(&m);
        // Two crash/recover cycles on node 1; the first cold start's ready
        // event (100.2 ms) fires inside the second (ready at 100.4 ms).
        let events = [(100, true), (200, false), (300, true), (400, false)]
            .map(|(us, crash)| FaultEvent {
                at: SimTime::from_micros(us),
                kind: if crash {
                    FaultKind::NodeCrash(1)
                } else {
                    FaultKind::NodeRecover(1)
                },
            })
            .to_vec();
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events,
        });
        let second = NodeState::ColdStarting {
            ready_at: SimTime::from_micros(100_400),
        };
        c.advance_until(SimTime::from_micros(100_300));
        assert_eq!(
            c.node_state(1),
            second,
            "the first cold start's event is stale"
        );
        c.advance_until(SimTime::from_micros(100_400));
        assert_eq!(c.node_state(1), NodeState::Online);
    }

    #[test]
    fn sole_replica_refuses_while_crashed_and_serves_while_cold_starting() {
        use paella_sim::FaultEvent;
        let mut c = cluster(1, RoutingPolicy::RoundRobin);
        let m = CompiledModel {
            weight_bytes: 1_200_000_000,
            ..synthetic::uniform_job("cold", 4, SimDuration::from_micros(150), 64)
        };
        let id = c.register_model(&m);
        // Crashed from 100 to 200 us, then cold-starting until 100.2 ms.
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events: vec![
                FaultEvent {
                    at: SimTime::from_micros(100),
                    kind: FaultKind::NodeCrash(0),
                },
                FaultEvent {
                    at: SimTime::from_micros(200),
                    kind: FaultKind::NodeRecover(0),
                },
            ],
        });
        for us in [150, 1_000] {
            c.submit(InferenceRequest {
                client: ClientId(0),
                model: id,
                submitted_at: SimTime::from_micros(us),
            });
        }
        c.run_to_idle();
        let failed = c.drain_failures();
        assert_eq!(failed.len(), 1, "{failed:?}");
        assert_eq!(failed[0].reason, FailureReason::NodeCrash);
        assert_eq!(failed[0].request.submitted_at, SimTime::from_micros(150));
        let done = c.drain_completions();
        assert_eq!(done.len(), 1, "a cold-starting replica still takes work");
        assert_eq!(done[0].request.submitted_at, SimTime::from_micros(1_000));
    }

    #[test]
    fn client_disconnect_cancels_cluster_wide() {
        use paella_sim::FaultEvent;
        let mut c = cluster(2, RoutingPolicy::Jsq);
        let m = synthetic::uniform_job("dc", 4, SimDuration::from_micros(150), 64);
        let id = c.register_model(&m);
        c.enable_telemetry();
        // submit_n spreads clients 0..4 round-robin over 32 requests.
        submit_n(&mut c, id, 32, 100);
        c.inject(&FaultPlan {
            kernel_fault_rate: 0.0,
            events: vec![FaultEvent {
                at: SimTime::from_micros(500),
                kind: FaultKind::ClientDisconnect(2),
            }],
        });
        c.run_to_idle();
        let done = c.drain_completions();
        let failed = c.drain_failures();
        assert_eq!(done.len() + failed.len(), 32, "every request accounted");
        assert!(
            !failed.is_empty(),
            "mid-run disconnect must cancel something"
        );
        for f in &failed {
            assert_eq!(f.reason, FailureReason::Disconnected);
            assert_eq!(f.request.client, ClientId(2));
        }
        for d in &done {
            assert!(
                !(d.request.client == ClientId(2)
                    && d.request.submitted_at >= SimTime::from_micros(500)),
                "post-disconnect submissions from the client must be refused"
            );
        }
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("client_disconnects"), 1);
        assert_eq!(snap.counter("accounting_underflow"), 0);
    }

    #[test]
    fn every_terminal_failure_is_booked_in_the_router_ledger_once() {
        // Deadlines, shedding, kernel faults, a crash and a disconnect in one
        // run: whatever the reason and whichever tier decided it, a failure
        // the cluster returns is in the router tier's ledger exactly once
        // (which books failures only — completions stay in the nodes').
        use paella_sim::FaultSpec;
        let mut dispatcher = DispatcherConfig::paella();
        dispatcher.deadline_factor = Some(3.0);
        dispatcher.shed_watermark = Some(6);
        dispatcher.retry_budget = 0;
        let mut c = Cluster::new(
            DeviceConfig::tesla_t4(),
            2,
            ClusterConfig {
                seed: 21,
                dispatcher,
                ..ClusterConfig::with_policy(RoutingPolicy::LeastRemainingWork)
            },
        );
        c.enable_telemetry();
        let m = synthetic::uniform_job("mix", 4, SimDuration::from_micros(300), 320);
        let id = c.register_model(&m);
        submit_n(&mut c, id, 80, 60);
        c.inject(
            &FaultSpec {
                kernel_fault_rate: 0.1,
                node_crashes: 1,
                nodes: 2,
                window_start: SimTime::from_micros(500),
                window_end: SimTime::from_micros(3_000),
                recovery_after: Some(SimDuration::from_micros(1_000)),
                client_disconnects: 1,
                clients: 4,
            }
            .generate(7),
        );
        c.run_to_idle();
        let (done, failed) = (c.drain_completions(), c.drain_failures());
        assert_eq!(done.len() + failed.len(), 80, "every request accounted");
        let mut reasons: Vec<&str> = failed.iter().map(|f| f.reason.as_str()).collect();
        reasons.sort_unstable();
        reasons.dedup();
        assert!(reasons.len() >= 3, "a mix of failure paths: {reasons:?}");
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.slo_failures(), failed.len() as u64);
        assert_eq!(snap.slo_completed(), 0);
        assert_eq!(snap.counter("requests_failed"), failed.len() as u64);
        assert_eq!(snap.counter("accounting_underflow"), 0);
    }

    #[test]
    fn fault_injection_replays_bit_for_bit() {
        use paella_sim::FaultSpec;
        let run = |fault_seed: u64| {
            let mut c = Cluster::new(
                DeviceConfig::tesla_t4(),
                3,
                ClusterConfig {
                    seed: 21,
                    ..ClusterConfig::with_policy(RoutingPolicy::LeastRemainingWork)
                },
            );
            let m = synthetic::uniform_job("det", 5, SimDuration::from_micros(180), 64);
            let id = c.register_model(&m);
            submit_n(&mut c, id, 80, 30);
            let plan = FaultSpec {
                kernel_fault_rate: 0.05,
                node_crashes: 1,
                nodes: 3,
                window_start: SimTime::from_micros(200),
                window_end: SimTime::from_micros(1_500),
                recovery_after: Some(SimDuration::from_micros(800)),
                client_disconnects: 1,
                clients: 4,
            }
            .generate(fault_seed);
            c.inject(&plan);
            c.run_to_idle();
            let mut lines: Vec<String> = c
                .drain_completions()
                .iter()
                .map(|d| format!("ok {}:{}", d.request.submitted_at, d.client_visible_at))
                .chain(c.drain_failures().iter().map(|f| {
                    format!(
                        "fail {}:{}:{}",
                        f.request.submitted_at,
                        f.at,
                        f.reason.as_str()
                    )
                }))
                .collect();
            lines.sort();
            lines
        };
        assert_eq!(run(7), run(7), "same fault seed must replay exactly");
        assert_ne!(run(7), run(8), "different fault seed must differ");
    }

    #[test]
    fn load_signal_aggregates_and_empties() {
        let mut c = cluster(2, RoutingPolicy::Jsq);
        let m = synthetic::uniform_job("ls", 4, SimDuration::from_micros(100), 32);
        let id = c.register_model(&m);
        submit_n(&mut c, id, 10, 1);
        let s = c.load_signal();
        assert_eq!(s.outstanding(), 10, "all submitted requests visible");
        c.run_to_idle();
        let s = c.load_signal();
        assert_eq!(s.outstanding(), 0);
        assert_eq!(s.remaining_work, SimDuration::ZERO);
    }
}
