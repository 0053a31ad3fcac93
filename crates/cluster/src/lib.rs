//! The cluster serving tier: N Paella nodes behind a software-defined
//! router, on one deterministic virtual clock.
//!
//! The paper stops at one GPU behind one dispatcher; this crate builds the
//! layer above it. Each node is a full Paella [`Dispatcher`] over its own
//! simulated device, reached through the same [`RpcNetModel`] cost model
//! remote inference uses. A [`ClusterRouter`] balances requests across each
//! model's replica set — round-robin, JSQ, power-of-two-choices, or the
//! Paella-native least-remaining-work policy fed by every node's SRPT load
//! signal — a [`PlacementManager`] pins models to replica sets under a
//! per-node memory budget, and an optional [`Autoscaler`] grows and drains
//! the fleet on sustained backlog, paying a modelled cold-start (weights
//! over PCIe) for every node it adds.
//!
//! Determinism: all nodes advance in lockstep on the shared DES clock. The
//! cluster's `advance_until` repeatedly processes the globally earliest
//! event (router arrival, node ingress, or node-internal work); ties break
//! router-first, then by node index, and the only randomness (power-of-two
//! sampling) comes from a seeded [`Xoshiro256pp`], so the same seed replays
//! the same execution bit for bit.

#![warn(missing_docs)]

pub mod autoscaler;
pub mod placement;
pub mod router;

pub use autoscaler::{AutoscaleConfig, Autoscaler, ScaleDecision};
pub use placement::{PlacementConfig, PlacementManager};
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

/// Cluster-wide knobs.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Client↔router and router↔node network cost model.
    pub net: RpcNetModel,
    /// Balancing policy.
    pub policy: RoutingPolicy,
    /// Replication factor and per-node memory budget.
    pub placement: PlacementConfig,
    /// Autoscaling; `None` pins the fleet at its initial size.
    pub autoscale: Option<AutoscaleConfig>,
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
    /// Defaults with the given policy: eRPC-style network, 2× replication
    /// under a 16 GB budget, no autoscaling, the Paella dispatcher on every
    /// node, and up to 3 crash re-routes per request.
    pub fn with_policy(policy: RoutingPolicy) -> Self {
        ClusterConfig {
            net: RpcNetModel::default(),
            policy,
            placement: PlacementConfig::default(),
            autoscale: None,
            dispatcher: DispatcherConfig::paella(),
            crash_retries: 3,
            seed: 0,
        }
    }
}

/// Node lifecycle. Requests route only to `Online` nodes (with a fallback
/// to warming/draining replicas if a model has no online replica at all).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeState {
    /// Activating and loading weights; becomes `Online` at the stored time.
    ColdStarting {
        /// When the node finishes warming.
        ready_at: SimTime,
    },
    /// Serving.
    Online,
    /// Excluded from routing; finishing its outstanding requests.
    Draining,
    /// Drained; retains its (warm) weights and can be reactivated cheaply.
    Offline,
}

struct Node {
    dispatcher: Dispatcher,
    state: NodeState,
    /// Crashed by fault injection: `Offline` but *not* reactivatable until a
    /// recovery event lands (a crash drops the node's device memory, so even
    /// the autoscaler must treat it as gone, not warm).
    crashed: bool,
    /// Public model id → node-local id (`None` if not replicated here).
    local_ids: Vec<Option<ModelId>>,
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
    fn load(&self) -> NodeLoad {
        let s = self.dispatcher.load_signal();
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
    /// A cold-starting node finished warming.
    NodeReady(usize),
    /// Periodic autoscaler evaluation.
    ScaleTick,
    /// An injected fault fires (node crash/recovery, client disconnect).
    Fault(FaultKind),
}

/// Per-node outstanding-depth series names (the metrics registry requires
/// `'static` keys, so the first 16 nodes get named series).
const NODE_DEPTH: [&str; 16] = [
    "node0_outstanding",
    "node1_outstanding",
    "node2_outstanding",
    "node3_outstanding",
    "node4_outstanding",
    "node5_outstanding",
    "node6_outstanding",
    "node7_outstanding",
    "node8_outstanding",
    "node9_outstanding",
    "node10_outstanding",
    "node11_outstanding",
    "node12_outstanding",
    "node13_outstanding",
    "node14_outstanding",
    "node15_outstanding",
];

/// A multi-GPU Paella deployment: N dispatcher nodes behind one router, all
/// on the shared virtual clock. Implements [`ServingSystem`] so every
/// harness that drives a single node drives a cluster unchanged.
pub struct Cluster {
    device: DeviceConfig,
    channels: ChannelConfig,
    cfg: ClusterConfig,
    nodes: Vec<Node>,
    models: Vec<ClusterModel>,
    placement: PlacementManager,
    router: ClusterRouter,
    autoscaler: Option<Autoscaler>,
    frontend: EventQueue<FrontEv>,
    /// Whether a ScaleTick is already scheduled (one in flight at a time).
    tick_scheduled: bool,
    /// Crash re-routes consumed per request, keyed by
    /// `(client, public model, original submitted_at ns)`.
    reroutes: BTreeMap<(u32, u32, u64), u32>,
    /// The router tier's telemetry (routing counters, per-node depth
    /// series, the failure ledger), its outboxes — results carry public ids
    /// and original submission times — and the accounting debit.
    core: EngineCore,
    scale_ups: u64,
    scale_downs: u64,
}

impl Cluster {
    /// A cluster of `nodes` identical devices with the Paella dispatcher
    /// configuration (SRPT + deficit) on every node.
    pub fn new(device: DeviceConfig, nodes: usize, cfg: ClusterConfig) -> Self {
        assert!(nodes > 0, "a cluster needs at least one node");
        let channels = ChannelConfig::default();
        let node_vec = (0..nodes)
            .map(|i| Node {
                dispatcher: make_dispatcher(&device, channels, &cfg, i as u64),
                state: NodeState::Online,
                crashed: false,
                local_ids: Vec::new(),
                ingress: EventQueue::new(),
                in_network: 0,
                in_network_work: SimDuration::ZERO,
                outstanding: 0,
            })
            .collect();
        let mut rng = Xoshiro256pp::seed_from_u64(cfg.seed ^ 0xC1A5_7E2D);
        let router_seed = rng.next_u64();
        Cluster {
            device,
            channels,
            placement: PlacementManager::new(cfg.placement, nodes),
            router: ClusterRouter::new(cfg.policy, router_seed),
            autoscaler: cfg.autoscale.map(Autoscaler::new),
            cfg,
            nodes: node_vec,
            models: Vec::new(),
            frontend: EventQueue::new(),
            tick_scheduled: false,
            reroutes: BTreeMap::new(),
            core: EngineCore::default(),
            scale_ups: 0,
            scale_downs: 0,
        }
    }

    /// Total nodes (any state).
    pub fn nodes_total(&self) -> usize {
        self.nodes.len()
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

    /// `(scale-ups, scale-downs)` performed so far.
    pub fn scale_events(&self) -> (u64, u64) {
        (self.scale_ups, self.scale_downs)
    }

    /// Cold-start cost of a node holding `weight_bytes` of models: fixed
    /// activation plus the weights over one PCIe copy engine.
    fn cold_start_cost(&self, weight_bytes: u64) -> SimDuration {
        let activation = self
            .cfg
            .autoscale
            .map_or(SimDuration::ZERO, |a| a.activation);
        let copy_us = weight_bytes as f64 / self.device.pcie_bytes_per_sec * 1e6;
        activation + SimDuration::from_micros_f64(copy_us)
    }

    fn schedule_tick_after(&mut self, t: SimTime) {
        if self.autoscaler.is_none() || self.tick_scheduled {
            return;
        }
        // invariant: autoscaler.is_none() was just checked above.
        let interval = self.autoscaler.as_ref().expect("checked").config().interval;
        self.frontend
            .schedule_at(t.max(self.frontend.now()) + interval, FrontEv::ScaleTick);
        self.tick_scheduled = true;
    }

    /// Requests anywhere in the cluster (in-network, queued, in-flight).
    fn total_outstanding(&self) -> u64 {
        self.nodes.iter().map(|n| n.outstanding).sum()
    }

    // -- event handlers -----------------------------------------------------

    /// The routable replica subset of a model: online members first, then
    /// warming/draining members (the request waits in the node's
    /// ingress/queue rather than being dropped), then warm-offline members.
    /// Crashed nodes never qualify — routing to one would lose the request
    /// again. Empty means every replica is currently crashed.
    fn route_candidates(&self, public: usize) -> Vec<usize> {
        let all = &self.models[public].replicas;
        let mut candidates: Vec<usize> = all
            .iter()
            .copied()
            .filter(|&i| self.nodes[i].state == NodeState::Online)
            .collect();
        if candidates.is_empty() {
            candidates = all
                .iter()
                .copied()
                .filter(|&i| self.nodes[i].state != NodeState::Offline)
                .collect();
        }
        if candidates.is_empty() {
            candidates = all
                .iter()
                .copied()
                .filter(|&i| !self.nodes[i].crashed)
                .collect();
        }
        candidates
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
        if let Some(name) = NODE_DEPTH.get(chosen) {
            self.core.gauge(name, outstanding + 1);
            self.core.sample(name, at, outstanding + 1);
        }
        let est = self.models[public].estimate;
        let hop = self.cfg.net.transfer(self.models[public].model.input_bytes);
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
            let crashed = self.nodes.iter().filter(|n| n.crashed).count() as u64;
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
    /// goes `Offline` with `crashed` set, so neither the router nor the
    /// autoscaler touches it until a recovery event lands.
    fn on_node_crash(&mut self, at: SimTime, i: usize) {
        if i >= self.nodes.len() || self.nodes[i].crashed {
            return;
        }
        self.core
            .trace(at, || TraceEvent::NodeCrash { node: i as u32 });
        self.core.inc("node_crashes", 1);
        self.collect_completions(i);
        self.nodes[i].crashed = true;
        self.nodes[i].state = NodeState::Offline;
        self.nodes[i]
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

    /// Recovery from a crash pays a *full* cold start — activation plus all
    /// replicated weights back over PCIe — because the crash dropped the
    /// node's device memory (unlike a drained node, which stays warm).
    fn on_node_recover(&mut self, at: SimTime, i: usize) {
        if i >= self.nodes.len() || !self.nodes[i].crashed {
            return;
        }
        self.core
            .trace(at, || TraceEvent::NodeRecover { node: i as u32 });
        self.core.inc("node_recoveries", 1);
        self.nodes[i].crashed = false;
        let weight: u64 = self
            .models
            .iter()
            .enumerate()
            .filter(|(p, _)| self.nodes[i].local_ids.get(*p).is_some_and(|l| l.is_some()))
            .map(|(_, m)| m.model.weight_bytes)
            .sum();
        let ready_at = at + self.cold_start_cost(weight);
        self.nodes[i].state = NodeState::ColdStarting { ready_at };
        self.frontend.schedule_at(ready_at, FrontEv::NodeReady(i));
    }

    /// A client disconnect: every node cancels the client's queued and
    /// in-flight jobs now; anything of theirs still crossing the network is
    /// refused at node ingress by the dispatcher's disconnect set.
    fn on_client_disconnect(&mut self, at: SimTime, client: ClientId) {
        self.core.inc("client_disconnects", 1);
        for i in 0..self.nodes.len() {
            self.nodes[i].dispatcher.cancel_client(client, at);
            self.collect_failures(i);
        }
    }

    fn on_node_ready(&mut self, node: usize) {
        if matches!(self.nodes[node].state, NodeState::ColdStarting { .. }) {
            self.nodes[node].state = NodeState::Online;
        }
    }

    fn on_scale_tick(&mut self, at: SimTime) {
        self.tick_scheduled = false;
        let outstanding = self.total_outstanding();
        let online = self.nodes_online();
        let active = self
            .nodes
            .iter()
            .filter(|n| matches!(n.state, NodeState::Online | NodeState::ColdStarting { .. }))
            .count();
        let decision = match self.autoscaler.as_mut() {
            Some(a) => a.observe(at, outstanding, online, active),
            None => ScaleDecision::Hold,
        };
        match decision {
            ScaleDecision::Up => self.scale_up(at),
            ScaleDecision::Down => self.drain_one(),
            ScaleDecision::Hold => {}
        }
        // Keep ticking while there is anything to watch — outstanding work,
        // pending arrivals, or an over-provisioned fleet that still needs to
        // drain down to `min_nodes`. Going quiet once all three clear is
        // what lets `run_to_idle` terminate.
        let min_nodes = self.autoscaler.as_ref().map_or(0, |a| a.config().min_nodes);
        if outstanding > 0 || !self.frontend.is_empty() || self.nodes_online() > min_nodes {
            self.schedule_tick_after(at);
        }
    }

    fn scale_up(&mut self, at: SimTime) {
        self.scale_ups += 1;
        self.core.inc("scale_ups", 1);
        // Prefer re-activating a warm offline node: weights are resident,
        // only the activation delay applies. Crashed nodes are *not* warm —
        // the crash dropped their device memory — so they are skipped until
        // a recovery event brings them back.
        if let Some(i) = self
            .nodes
            .iter()
            .position(|n| n.state == NodeState::Offline && !n.crashed)
        {
            let ready_at = at + self.cold_start_cost(0);
            self.nodes[i].state = NodeState::ColdStarting { ready_at };
            self.frontend.schedule_at(ready_at, FrontEv::NodeReady(i));
            return;
        }
        // Fresh node: register every model that fits (public-id order) and
        // pay for its weights over PCIe.
        let i = self.placement.add_node();
        let mut node = Node {
            dispatcher: make_dispatcher(&self.device, self.channels, &self.cfg, i as u64),
            state: NodeState::Online, // overwritten below
            crashed: false,
            local_ids: vec![None; self.models.len()],
            ingress: EventQueue::new(),
            in_network: 0,
            in_network_work: SimDuration::ZERO,
            outstanding: 0,
        };
        let compiled: Vec<CompiledModel> = self.models.iter().map(|m| m.model.clone()).collect();
        let placed = self.placement.fill_node(i, &compiled);
        let mut weight = 0u64;
        for idx in placed {
            let local = node.dispatcher.register_model(&compiled[idx]);
            node.local_ids[idx] = Some(local);
            weight += compiled[idx].weight_bytes;
            self.models[idx].replicas.push(i);
        }
        let ready_at = at + self.cold_start_cost(weight);
        node.state = NodeState::ColdStarting { ready_at };
        self.nodes.push(node);
        self.frontend.schedule_at(ready_at, FrontEv::NodeReady(i));
    }

    fn drain_one(&mut self) {
        // Drain the least-loaded online node, highest index on ties, so the
        // fleet shrinks from the most recently added capacity.
        let victim = self
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.state == NodeState::Online)
            .min_by_key(|(i, n)| (n.outstanding, usize::MAX - i))
            .map(|(i, _)| i);
        if let Some(i) = victim {
            self.scale_downs += 1;
            self.core.inc("scale_downs", 1);
            self.nodes[i].state = if self.nodes[i].outstanding == 0 {
                NodeState::Offline
            } else {
                NodeState::Draining
            };
        }
    }

    /// The two ingress crossings (client→router, router→node) folded into
    /// the submission time a node sees for public model `public`.
    fn ingress(&self, public: usize) -> SimDuration {
        self.cfg.net.transfer(self.models[public].model.input_bytes) * 2
    }

    /// Translates a request node `i` echoes back to the cluster's public
    /// model id and the client's original submission time (both crossings
    /// are deterministic per model, so they subtract back out exactly).
    /// Returns the public model index and the ingress subtracted.
    fn restore(&self, i: usize, req: &mut InferenceRequest) -> (usize, SimDuration) {
        let local = Some(req.model);
        let public = self.nodes[i].local_ids.iter().position(|&l| l == local);
        let public = public
            .unwrap_or_else(|| panic!("node {i} reported unknown local model {:?}", req.model));
        req.model = ModelId(public as u32);
        let ingress = self.ingress(public);
        req.submitted_at = RpcNetModel::origin(req.submitted_at, ingress);
        (public, ingress)
    }

    /// Node `i` answered `n` of the requests routed to it; a draining node
    /// that answered its last goes offline.
    fn settle(&mut self, i: usize, n: u64) {
        let node = &mut self.nodes[i];
        self.core
            .debit(&mut node.outstanding, n, "node outstanding");
        if node.state == NodeState::Draining && node.outstanding == 0 {
            node.state = NodeState::Offline;
        }
    }

    /// Drains completions from node `i`, translating them back to the
    /// cluster's public ids and times. The nodes' own ledgers booked them;
    /// the router tier's books failures only.
    fn collect_completions(&mut self, i: usize) {
        let drained = self.nodes[i].dispatcher.drain_completions();
        if drained.is_empty() {
            return;
        }
        self.settle(i, drained.len() as u64);
        for mut c in drained {
            let (public, ingress) = self.restore(i, &mut c.request);
            let egress = self
                .cfg
                .net
                .transfer(self.models[public].model.output_bytes);
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
        for mut f in self.nodes[i].dispatcher.drain_failures() {
            self.restore(i, &mut f.request);
            self.settle(i, 1);
            if f.reason == FailureReason::NodeCrash {
                self.try_reroute(f.at, f.request);
            } else {
                self.fail_terminal(f.request, f.at, f.reason);
            }
        }
    }

    /// Whether node `i` is currently crashed (offline and not warm).
    pub fn node_crashed(&self, i: usize) -> bool {
        self.nodes[i].crashed
    }

    /// Arms a deterministic fault plan: the kernel-fault rate reaches every
    /// node's dispatcher (current and future — future nodes inherit it via
    /// the stored config) and each timed event is scheduled on the frontend
    /// clock, where it interleaves deterministically with workload events.
    pub fn inject(&mut self, plan: &FaultPlan) {
        self.cfg.dispatcher.kernel_fault_rate = plan.kernel_fault_rate;
        for n in &mut self.nodes {
            n.dispatcher.set_kernel_fault_rate(plan.kernel_fault_rate);
        }
        for e in &plan.events {
            self.frontend
                .schedule_at(e.at.max(self.frontend.now()), FrontEv::Fault(e.kind));
        }
    }
}

fn make_dispatcher(
    device: &DeviceConfig,
    channels: ChannelConfig,
    cfg: &ClusterConfig,
    node: u64,
) -> Dispatcher {
    Dispatcher::new(
        device.clone(),
        channels,
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
            let local = self.nodes[i].dispatcher.register_model(model);
            while self.nodes[i].local_ids.len() < public.0 as usize {
                self.nodes[i].local_ids.push(None);
            }
            self.nodes[i].local_ids.push(Some(local));
            estimate = self.nodes[i].dispatcher.profile_estimate(local);
        }
        // Non-replica nodes still need the id column to stay aligned.
        for n in &mut self.nodes {
            while n.local_ids.len() < public.0 as usize + 1 {
                n.local_ids.push(None);
            }
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
        let arrive = (req.submitted_at + self.cfg.net.transfer(input)).max(self.frontend.now());
        self.frontend.schedule_at(arrive, FrontEv::Arrive(req));
        self.schedule_tick_after(arrive);
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        let mut t = self.frontend.peek_time();
        for n in &mut self.nodes {
            t = earliest(t, n.ingress.peek_time());
            t = earliest(t, n.dispatcher.next_event_time());
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
                if let Some(a) = n.dispatcher.next_event_time() {
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
                    FrontEv::NodeReady(i) => self.on_node_ready(i),
                    FrontEv::ScaleTick => self.on_scale_tick(at),
                    FrontEv::Fault(kind) => self.on_fault(at, kind),
                }
            } else if let Some((_, i)) = ti.filter(|&(a, _)| a == next) {
                let n = &mut self.nodes[i];
                // invariant: peek_time returned Some(next), so pop succeeds.
                let (_, (req, est)) = n.ingress.pop().expect("peeked");
                self.core.debit(&mut n.in_network, 1, "in-network requests");
                self.core
                    .debit_work(&mut n.in_network_work, est, "in-network work");
                let local = n.local_ids[req.model.0 as usize].unwrap_or_else(|| {
                    panic!("request routed to node {i} without model {:?}", req.model)
                });
                n.dispatcher.submit(InferenceRequest {
                    model: local,
                    ..req
                });
                // Ingress-time refusals (shed, disconnected client) surface
                // here, not on the device clock — collect them promptly so a
                // node with no device work cannot strand `outstanding`.
                self.collect_failures(i);
            } else if let Some((a, i)) = tn {
                self.nodes[i].dispatcher.advance_until(a);
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
            n.dispatcher.enable_telemetry();
        }
    }

    /// The router's trace merged with every node's host+device trace.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        if !self.core.tracer.is_enabled() {
            return None;
        }
        let mut sources = vec![self.core.tracer.take()];
        for n in &mut self.nodes {
            sources.extend(n.dispatcher.take_trace_log());
        }
        Some(TraceLog::merged(sources))
    }

    /// The cluster-level registry (routing counters, per-node depth series).
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.core.metrics_snapshot()
    }

    /// Router-tier dumps first, then each node's, in node order.
    fn take_postmortems(&mut self) -> Vec<String> {
        let mut out = self.core.take_postmortems();
        for n in &mut self.nodes {
            out.extend(n.dispatcher.take_postmortems());
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
            s = s + n.dispatcher.load_signal();
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
            ChannelConfig::default(),
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
        let net = RpcNetModel::default();
        let expected = net.transfer(m.input_bytes) * 2 + net.transfer(m.output_bytes);
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
        let snap = c.metrics_snapshot().expect("metrics enabled");
        assert_eq!(snap.counter("requests_routed"), 8);
        assert!(snap.series("node0_outstanding").is_some());
    }

    #[test]
    fn autoscaler_grows_on_sustained_backlog_and_drains_after() {
        let mut c = Cluster::new(
            DeviceConfig::tesla_t4(),
            1,
            ClusterConfig {
                seed: 5,
                autoscale: Some(AutoscaleConfig {
                    min_nodes: 1,
                    max_nodes: 3,
                    high_watermark: 6.0,
                    low_watermark: 1.0,
                    sustain: SimDuration::from_micros(400),
                    interval: SimDuration::from_micros(200),
                    activation: SimDuration::from_micros(300),
                }),
                ..ClusterConfig::with_policy(RoutingPolicy::Jsq)
            },
        );
        let m = synthetic::uniform_job("as", 8, SimDuration::from_micros(300), 128);
        let id = c.register_model(&m);
        // A heavy burst, then silence: the cluster must grow, then shrink.
        submit_n(&mut c, id, 120, 10);
        c.run_to_idle();
        let done = c.drain_completions();
        assert_eq!(done.len(), 120, "scaling must not lose requests");
        let (ups, downs) = c.scale_events();
        assert!(ups >= 1, "sustained backlog must add capacity");
        assert!(downs >= 1, "idle fleet must drain back");
        assert!(c.nodes_total() > 1, "a node was added");
        assert_eq!(c.nodes_online(), 1, "drained back to min_nodes");
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
        assert_eq!(c.node_state(0), NodeState::Offline);
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
        let m = synthetic::uniform_job("rec", 4, SimDuration::from_micros(150), 64);
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
