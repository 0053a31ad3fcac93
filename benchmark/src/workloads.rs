//! The six workloads: what each one builds, submits and is judged by.
//!
//! A workload is a fixed traffic pattern: its arrival process, model mix and
//! fault plan are drawn once from constants below, because the bursts a
//! lognormal σ = 2 trace happens to contain move p99 by 3× from one draw to
//! the next and would bury any change to the system. `--seed` draws the
//! *replicate*: the system's own random streams (device timing jitter, router,
//! LLM lengths, which kernels fault) and a small jitter on every arrival
//! instant. The program only ever sees the generated `Arrival`s,
//! `CompiledModel`s and `FaultPlan`.
//!
//! All workloads are open-loop in *virtual* time — a request is timed from its
//! scheduled `submitted_at` whether or not the system had caught up, so
//! generator lateness is zero by construction.

use paella_channels::ChannelConfig;
use paella_cluster::{Cluster, ClusterConfig, RoutingPolicy};
use paella_compiler::CompiledModel;
use paella_core::{
    Dispatcher, DispatcherConfig, ModelId, Scheduler, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_llm::{LlmEngine, LlmEngineConfig, LlmPolicy};
use paella_models::{measure_uncontended, synthetic, ModelZoo};
use paella_sim::{
    FaultEvent, FaultKind, FaultPlan, FaultSpec, SimDuration, SimTime, SplitMix64, Xoshiro256pp,
};
use paella_workload::{
    generate, generate_llm_trace, smoke_llm_model, smoke_models, Arrival, LlmExpSpec, Mix,
    WorkloadSpec,
};

/// A latency limit is this multiple of the model's uncontended execution
/// time (the repo's `slo_factor`).
pub const SLO_FACTOR: f64 = 8.0;
/// `llm_chat` limit on time to first token.
pub const TTFT_LIMIT: SimDuration = SimDuration::from_micros(2_000);
/// `llm_chat` limit on time per output token.
pub const TPOT_LIMIT: SimDuration = SimDuration::from_micros(200);
/// Fairness threshold every SRPT+deficit scheduler in the repo ships with.
const FAIRNESS: f64 = 2_000.0;
/// Draws every workload's canonical arrival process and mix.
const TRACE_SEED: u64 = 0x7ACE;
/// Draws `fault_storm`'s canonical fault plan.
const FAULT_SEED: u64 = 0xFA17;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    LaunchBound,
    ZooMix,
    ZooMixTelemetry,
    Cluster4,
    FaultStorm,
    LlmChat,
}

/// Trace size and offered load of one run of a workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub requests: usize,
    /// Completions excluded from latency statistics.
    pub warmup: usize,
    /// Offered load, requests per second of virtual time.
    pub rate: f64,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::LaunchBound,
        Workload::ZooMix,
        Workload::ZooMixTelemetry,
        Workload::Cluster4,
        Workload::FaultStorm,
        Workload::LlmChat,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LaunchBound => "launch_bound",
            Workload::ZooMix => "zoo_mix",
            Workload::ZooMixTelemetry => "zoo_mix_telemetry",
            Workload::Cluster4 => "cluster4",
            Workload::FaultStorm => "fault_storm",
            Workload::LlmChat => "llm_chat",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured configuration. A rep is kept short — one or two seconds of
    /// host time — so that a run holds many of them and every trace slice has
    /// many chances to be measured undisturbed. Every workload but the two
    /// zoo ones still has at least 1,000 measured completions (ten samples
    /// beyond p99); at ~4 ms of host time per request `zoo_mix` affords 500,
    /// which reach p98.
    pub fn spec(self) -> Spec {
        match self {
            Workload::LaunchBound => Spec {
                requests: 4_000,
                warmup: 100,
                rate: 1_000.0,
            },
            Workload::ZooMix => Spec {
                requests: 550,
                warmup: 50,
                rate: 100.0,
            },
            Workload::ZooMixTelemetry => Spec {
                requests: 60,
                warmup: 0,
                rate: 100.0,
            },
            Workload::Cluster4 => Spec {
                requests: 8_000,
                warmup: 800,
                rate: 3_600.0,
            },
            // Twice `cluster4`'s trace: its tail is made of the few requests
            // a crash re-routes, and a short trace has too few of them.
            Workload::FaultStorm => Spec {
                requests: 16_000,
                warmup: 800,
                rate: 3_600.0,
            },
            Workload::LlmChat => Spec {
                requests: 120_000,
                warmup: 1_000,
                rate: 350.0,
            },
        }
    }

    /// The fixed three-rate ladder `sim.max_rate_in_slo_rps` climbs, if the
    /// workload has one.
    pub fn ladder(self) -> Option<[f64; 3]> {
        match self {
            Workload::ZooMix => Some([50.0, 100.0, 150.0]),
            Workload::Cluster4 => Some([2_600.0, 3_600.0, 4_400.0]),
            Workload::LlmChat => Some([250.0, 350.0, 450.0]),
            _ => None,
        }
    }

    /// Whether the program's own telemetry is switched on for the run.
    pub fn telemetry(self) -> bool {
        self == Workload::ZooMixTelemetry
    }
}

/// The system under test. The drive loop only ever sees it as a
/// `dyn ServingSystem`; the variants exist for the checks that need the
/// concrete type afterwards (KV conservation, LLM completions).
pub enum System {
    Single(Box<Dispatcher>),
    Cluster(Box<Cluster>),
    Llm(Box<LlmEngine>),
}

impl System {
    pub fn serving(&mut self) -> &mut dyn ServingSystem {
        match self {
            System::Single(d) => d.as_mut(),
            System::Cluster(c) => c.as_mut(),
            System::Llm(e) => e.as_mut(),
        }
    }
}

/// What a request must meet to count toward goodput.
pub enum Limits {
    /// Per-model JCT limit, indexed by public model id.
    Jct(Vec<SimDuration>),
    /// Token-level limits (`llm_chat`).
    Tokens {
        ttft: SimDuration,
        tpot: SimDuration,
    },
}

/// A built system plus the inputs it is about to be driven with. Building
/// one is exactly what `setup_s` times.
pub struct Prepared {
    pub sys: System,
    pub arrivals: Vec<Arrival>,
    /// Kernels per request of each model, by public model id (empty for
    /// `llm_chat`, whose unit of device work is the generated token).
    pub kernels_per_model: Vec<u64>,
    pub limits: Limits,
    pub spec: Spec,
}

/// Wraps the scheduler of a single-dispatcher workload (the traced run passes
/// [`TimedScheduler`](crate::timed_sched::TimedScheduler) here).
pub type SchedWrap<'a> = &'a dyn Fn(Box<dyn Scheduler>) -> Box<dyn Scheduler>;

/// Independent sub-seeds for the system's random streams and the arrival
/// jitter.
struct Seeds {
    system: u64,
    jitter: u64,
}

fn seeds(seed: u64) -> Seeds {
    let mut mix = SplitMix64::new(seed);
    Seeds {
        system: mix.next_u64(),
        jitter: mix.next_u64(),
    }
}

/// Moves every arrival instant by a uniform draw in ±`share` of the mean gap
/// (1 % everywhere but on `launch_bound`) and restores time order.
fn jitter(arrivals: &mut [Arrival], rate: f64, share: f64, seed: u64) {
    let half_ns = (share * 1e9 / rate) as u64;
    if half_ns == 0 {
        return;
    }
    let mut rng = Xoshiro256pp::seed_from_u64(seed);
    for a in arrivals.iter_mut() {
        let shifted = a.at.as_nanos() + rng.next_below(2 * half_ns + 1);
        a.at = SimTime::from_nanos(shifted.saturating_sub(half_ns));
    }
    arrivals.sort_by_key(|a| a.at);
}

fn scheduler(wrap: Option<SchedWrap>) -> Box<dyn Scheduler> {
    let inner: Box<dyn Scheduler> = Box::new(SrptDeficitScheduler::new(Some(FAIRNESS)));
    match wrap {
        Some(w) => w(inner),
        None => inner,
    }
}

/// The compiled models a workload serves (empty for `llm_chat`). For the zoo
/// workloads this builds, compiles and calibrates the eight Table 2 models.
pub fn models_of(w: Workload) -> (Vec<CompiledModel>, DeviceConfig) {
    match w {
        Workload::LaunchBound => (
            vec![synthetic::uniform_job(
                "tiny",
                64,
                SimDuration::from_micros(2),
                1,
            )],
            DeviceConfig::gtx_1660_super(),
        ),
        Workload::ZooMix | Workload::ZooMixTelemetry => {
            let device = DeviceConfig::tesla_t4();
            (ModelZoo::new(device.clone()).table2(), device)
        }
        Workload::Cluster4 | Workload::FaultStorm => (smoke_models(), DeviceConfig::tesla_t4()),
        Workload::LlmChat => (Vec::new(), DeviceConfig::tesla_t4()),
    }
}

fn single(
    models: &[CompiledModel],
    device: &DeviceConfig,
    seed: u64,
    wrap: Option<SchedWrap>,
) -> (Dispatcher, Vec<ModelId>) {
    // `DispatcherConfig::paella()` unchanged: the shipped default.
    let mut d = Dispatcher::new(
        device.clone(),
        ChannelConfig::default(),
        scheduler(wrap),
        DispatcherConfig::paella(),
        seed,
    );
    let ids = models.iter().map(|m| d.register_model(m)).collect();
    (d, ids)
}

/// The fault plan of `fault_storm`, spread over the whole trace:
/// kernel faults at 2 %, one node crash (with recovery 25 ms later) in each
/// of eight equal segments, and one client disconnect in the last tenth.
pub fn fault_plan(seed: u64, span: SimDuration) -> FaultPlan {
    const SEGMENTS: u64 = 8;
    let at = |frac: f64| SimTime::ZERO + span.mul_f64(frac);
    let mut events: Vec<FaultEvent> = Vec::new();
    for seg in 0..SEGMENTS {
        let lo = seg as f64 / SEGMENTS as f64;
        let crash = FaultSpec {
            kernel_fault_rate: 0.0,
            node_crashes: 1,
            nodes: 4,
            // The first half of the segment, so the node is back (recovery
            // plus cold start) before the next segment's crash.
            window_start: at(lo + 0.1 / SEGMENTS as f64),
            window_end: at(lo + 0.5 / SEGMENTS as f64),
            recovery_after: Some(SimDuration::from_millis(25)),
            client_disconnects: 0,
            clients: 8,
        };
        events.extend(crash.generate(seed.wrapping_add(seg)).events);
    }
    let disconnect = FaultSpec {
        kernel_fault_rate: 0.0,
        node_crashes: 0,
        nodes: 4,
        window_start: at(0.9),
        window_end: at(0.98),
        recovery_after: None,
        client_disconnects: 1,
        clients: 8,
    };
    events.extend(disconnect.generate(seed ^ 0xD15C).events);
    events.sort_by_key(|e| e.at);
    debug_assert!(
        events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash(_)))
            .count()
            >= 8
    );
    FaultPlan {
        kernel_fault_rate: 0.02,
        events,
    }
}

/// A prepared workload that serves compiled models: limits and kernel counts
/// follow from the models.
fn compiled(
    sys: System,
    arrivals: Vec<Arrival>,
    models: &[CompiledModel],
    device: &DeviceConfig,
    spec: Spec,
) -> Prepared {
    Prepared {
        sys,
        arrivals,
        kernels_per_model: models.iter().map(|m| m.kernel_count() as u64).collect(),
        limits: Limits::Jct(
            models
                .iter()
                .map(|m| measure_uncontended(m, device).mul_f64(SLO_FACTOR))
                .collect(),
        ),
        spec,
    }
}

/// The cluster workloads' trace: `smoke_models()` under Zipf-1.1 popularity,
/// σ = 1.5 arrivals, 8 clients.
fn cluster_trace(ids: &[ModelId], spec: Spec, jitter_seed: u64) -> Vec<Arrival> {
    let mut arrivals = generate(
        &WorkloadSpec {
            rate_per_sec: spec.rate,
            sigma: 1.5,
            requests: spec.requests,
            clients: 8,
            seed: TRACE_SEED,
        },
        &Mix::zipf(ids, 1.1),
    );
    jitter(&mut arrivals, spec.rate, 0.01, jitter_seed);
    arrivals
}

/// Builds the system, registers its models and generates the trace.
pub fn prepare(w: Workload, seed: u64, spec: Spec, wrap: Option<SchedWrap>) -> Prepared {
    let s = seeds(seed);
    let (models, device) = models_of(w);
    match w {
        Workload::LaunchBound => {
            let (d, ids) = single(&models, &device, s.system, wrap);
            // One arrival per 1/rate, 16 clients: wider than the chain's JCT,
            // so the steady state is a single uncontended job and the device
            // does almost nothing. `launch_bound` arrivals are evenly spaced,
            // so its simulated latencies would be the same number on every
            // seed; ±15 % of the gap lets about one arrival in fifty catch the
            // tail of the job before it, which is what its p99 then reports.
            let gap = SimDuration::from_secs_f64(1.0 / spec.rate);
            let mut arrivals: Vec<Arrival> = (1..=spec.requests)
                .map(|i| Arrival {
                    at: SimTime::ZERO + gap * i as u64,
                    model: ids[0],
                    client: paella_core::ClientId(i as u32 % 16),
                })
                .collect();
            jitter(&mut arrivals, spec.rate, 0.15, s.jitter);
            compiled(
                System::Single(Box::new(d)),
                arrivals,
                &models,
                &device,
                spec,
            )
        }
        Workload::ZooMix | Workload::ZooMixTelemetry => {
            let (mut d, ids) = single(&models, &device, s.system, wrap);
            if w.telemetry() {
                d.enable_telemetry();
            }
            // The Fig. 11 Paella cell: uniform mix, bursty σ = 2, 8 clients.
            let mut arrivals = generate(
                &WorkloadSpec {
                    clients: 8,
                    seed: TRACE_SEED,
                    ..WorkloadSpec::bursty(spec.rate, spec.requests)
                },
                &Mix::uniform(&ids),
            );
            jitter(&mut arrivals, spec.rate, 0.01, s.jitter);
            compiled(
                System::Single(Box::new(d)),
                arrivals,
                &models,
                &device,
                spec,
            )
        }
        Workload::Cluster4 | Workload::FaultStorm => {
            let storm = w == Workload::FaultStorm;
            let dispatcher = if storm {
                DispatcherConfig {
                    deadline_factor: Some(40.0),
                    shed_watermark: Some(96),
                    ..DispatcherConfig::paella()
                }
            } else {
                DispatcherConfig::paella()
            };
            let mut c = Cluster::new(
                device.clone(),
                4,
                ClusterConfig {
                    seed: s.system,
                    crash_retries: 3,
                    dispatcher,
                    ..ClusterConfig::with_policy(RoutingPolicy::LeastRemainingWork)
                },
            );
            let ids: Vec<ModelId> = models.iter().map(|m| c.register_model(m)).collect();
            let arrivals = cluster_trace(&ids, spec, s.jitter);
            if storm {
                let span = arrivals
                    .last()
                    .map_or(SimDuration::ZERO, |a| a.at.saturating_since(SimTime::ZERO));
                c.inject(&fault_plan(FAULT_SEED, span));
            }
            compiled(
                System::Cluster(Box::new(c)),
                arrivals,
                &models,
                &device,
                spec,
            )
        }
        Workload::LlmChat => {
            let mut cfg = LlmEngineConfig::new(LlmPolicy::ContinuousBatching);
            cfg.kv_pages_total = 96;
            cfg.seed = s.system;
            let mut e = LlmEngine::new(cfg);
            let model = e.add_model(smoke_llm_model());
            assert_eq!(model.0, 0, "the chat trace targets model 0");
            let mut arrivals = generate_llm_trace(&LlmExpSpec {
                rate_per_sec: spec.rate,
                requests: spec.requests,
                warmup: spec.warmup,
                seed: TRACE_SEED,
                ..LlmExpSpec::smoke(LlmPolicy::ContinuousBatching)
            });
            jitter(&mut arrivals, spec.rate, 0.01, s.jitter);
            Prepared {
                sys: System::Llm(Box::new(e)),
                arrivals,
                kernels_per_model: Vec::new(),
                limits: Limits::Tokens {
                    ttft: TTFT_LIMIT,
                    tpot: TPOT_LIMIT,
                },
                spec,
            }
        }
    }
}

/// `cluster4`'s mix at a quarter of its rate on one dispatcher: the
/// denominator of `cluster.tier_overhead_ratio`, and the only place the
/// cluster workloads' scheduler can be timed (a `Cluster` builds its own).
pub fn prepare_quarter_node(seed: u64, spec: Spec, wrap: Option<SchedWrap>) -> Prepared {
    let s = seeds(seed);
    let spec = Spec {
        requests: spec.requests / 4,
        warmup: spec.warmup / 4,
        rate: spec.rate / 4.0,
    };
    let (models, device) = models_of(Workload::Cluster4);
    let (d, ids) = single(&models, &device, s.system, wrap);
    let arrivals = cluster_trace(&ids, spec, s.jitter);
    compiled(
        System::Single(Box::new(d)),
        arrivals,
        &models,
        &device,
        spec,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace_key(p: &Prepared) -> Vec<(u64, u32, u32)> {
        p.arrivals
            .iter()
            .map(|a| (a.at.as_nanos(), a.model.0, a.client.0))
            .collect()
    }

    #[test]
    fn same_seed_same_trace_different_seed_different_trace() {
        for w in [Workload::LaunchBound, Workload::Cluster4, Workload::LlmChat] {
            let spec = Spec {
                requests: 200,
                warmup: 0,
                ..w.spec()
            };
            let a = trace_key(&prepare(w, 23, spec, None));
            let b = trace_key(&prepare(w, 23, spec, None));
            let c = trace_key(&prepare(w, 101, spec, None));
            assert_eq!(a, b, "{}: same seed must give the same trace", w.name());
            assert_ne!(a, c, "{}: seeds must differ", w.name());
            assert_eq!(a.len(), 200);
        }
    }

    #[test]
    fn fault_plan_is_seeded_and_spread() {
        let span = SimDuration::from_millis(8_000);
        let a = fault_plan(7, span);
        let b = fault_plan(7, span);
        let c = fault_plan(8, span);
        assert_eq!(a.events, b.events);
        assert_ne!(a.events, c.events);
        let crashes: Vec<SimTime> = a
            .events
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::NodeCrash(_)))
            .map(|e| e.at)
            .collect();
        assert_eq!(crashes.len(), 8);
        assert!(crashes[0] < SimTime::from_millis(1_000));
        assert!(*crashes.last().unwrap() > SimTime::from_millis(7_000));
        assert!(a
            .events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::ClientDisconnect(_))));
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::from_name(w.name()), Some(w));
        }
        assert_eq!(Workload::from_name("nope"), None);
    }
}
