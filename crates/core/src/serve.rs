//! The common interface every serving system under test implements —
//! Paella, its ablations, and the baselines of Table 3 — so the experiment
//! harness can drive them interchangeably, and the two pieces every
//! implementation shares (DESIGN "Serving skeleton"): [`EngineCore`], the
//! one place a request becomes terminal, and [`Layered`], the one driver of
//! a front end over an inner system.

use paella_compiler::CompiledModel;
use paella_sim::{EventQueue, SimDuration, SimTime};
use paella_telemetry::{
    JobEnd, JobJourney, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceLog, Tracer,
};

use crate::types::{
    FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LatencyBreakdown,
    LoadSignal, ModelId,
};

/// A model-serving system running on simulated time.
pub trait ServingSystem {
    /// Registers a model and returns its id for requests.
    fn register_model(&mut self, model: &CompiledModel) -> ModelId;

    /// Submits a request (open-loop: the harness controls `submitted_at`).
    fn submit(&mut self, req: InferenceRequest);

    /// Earliest pending internal work.
    fn next_event_time(&mut self) -> Option<SimTime>;

    /// Processes all internal work with timestamp ≤ `t`.
    fn advance_until(&mut self, t: SimTime);

    /// Takes completions recorded so far.
    fn drain_completions(&mut self) -> Vec<JobCompletion>;

    /// Takes terminal failures (shed, deadline, disconnect, crash loss)
    /// recorded so far. Systems without a failure path never produce any.
    fn drain_failures(&mut self) -> Vec<JobFailure> {
        Vec::new()
    }

    /// Runs until all in-flight work drains.
    fn run_to_idle(&mut self) {
        while let Some(t) = self.next_event_time() {
            self.advance_until(t);
        }
    }

    /// Display name (Table 3's "Key" column).
    fn name(&self) -> String;

    /// Turns on structured telemetry. Systems without instrumentation
    /// ignore the call and keep returning `None` from the getters below.
    fn enable_telemetry(&mut self) {}

    /// Takes the trace recorded since the last call, if this system records
    /// one.
    fn take_trace_log(&mut self) -> Option<TraceLog> {
        None
    }

    /// A frozen copy of the metrics registry, if this system keeps one.
    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        None
    }

    /// Takes the flight-recorder post-mortem dumps rendered on terminal
    /// failures so far. Systems without a flight recorder never produce any.
    fn take_postmortems(&mut self) -> Vec<String> {
        Vec::new()
    }

    /// Current load as seen by layers above (routers, autoscalers).
    /// Systems that don't track load return the zero signal.
    fn load_signal(&self) -> LoadSignal {
        LoadSignal::default()
    }
}

/// The earlier of two optional instants: the merge step of every loop that
/// advances two event sources on one clock.
#[inline]
pub fn earliest(a: Option<SimTime>, b: Option<SimTime>) -> Option<SimTime> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Splits `total` over `parts` in order, each taking at most what the parts
/// before it left, and returns what each took plus the remainder — so the
/// pieces sum to `total` exactly. Every latency breakdown uses it: device
/// time is taken first (the paper defines overhead as end-to-end latency
/// minus the CUDA work), and host costs that overlapped device execution
/// are clamped to whatever critical-path time remains.
#[inline]
pub fn split<T, const N: usize>(total: T, parts: [T; N]) -> ([T; N], T)
where
    T: Ord + Copy + std::ops::SubAssign,
{
    let mut rest = total;
    let taken = parts.map(|want| {
        let take = want.min(rest);
        rest -= take; // sub: `take ≤ rest` by the `min` above
        take
    });
    (taken, rest)
}

/// Flight-recorder ring depth: the last N traced events kept for post-mortem
/// dumps on terminal failures.
const FLIGHT_CAPACITY: usize = 64;

/// What every engine tier owns besides its own step function: the telemetry
/// sinks, the terminal-state funnel ([`complete`](Self::complete) and
/// [`fail`](Self::fail) are the only places a request becomes terminal, and
/// each books the SLO ledger exactly once), the post-mortem outbox, and the
/// underflow-checked [`debit`](Self::debit) every accounting subtraction
/// goes through. It deliberately owns neither the event loop nor the job
/// table: those differ in kind between tiers.
#[derive(Default)]
pub struct EngineCore {
    /// Structured telemetry sink (a no-op until
    /// [`enable_telemetry`](Self::enable_telemetry)).
    pub tracer: Tracer,
    /// Metrics registry, allocated only when telemetry is enabled.
    metrics: Option<Box<MetricsRegistry>>,
    completions: Vec<JobCompletion>,
    failures: Vec<JobFailure>,
    postmortems: Vec<String>,
}

impl EngineCore {
    /// Starts recording typed events (with the flight recorder armed) and
    /// counting metrics. Costs nothing until called.
    pub fn enable_telemetry(&mut self) {
        self.tracer = Tracer::enabled();
        self.tracer.set_flight_capacity(FLIGHT_CAPACITY);
        self.metrics = Some(Box::default());
    }

    /// Whether a metrics registry is counting.
    #[inline]
    pub fn metrics_enabled(&self) -> bool {
        self.metrics.is_some()
    }

    /// A frozen copy of the metrics registry, if telemetry is enabled.
    pub fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.metrics.as_ref().map(|m| m.snapshot())
    }

    /// Records the event built by `f` at virtual time `at`; with telemetry
    /// off `f` is never called.
    #[inline]
    pub fn trace(&mut self, at: SimTime, f: impl FnOnce() -> TraceEvent) {
        self.tracer.record_with(at, f);
    }

    /// Adds `n` to a counter (no-op with telemetry off).
    #[inline]
    pub fn inc(&mut self, name: &'static str, n: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.inc(name, n);
        }
    }

    /// Adds one histogram observation (no-op with telemetry off).
    #[inline]
    pub fn observe(&mut self, name: &'static str, value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.observe(name, value);
        }
    }

    /// Sets a gauge (no-op with telemetry off).
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.gauge(name, value);
        }
    }

    /// Appends a virtual-time series sample (no-op with telemetry off).
    #[inline]
    pub fn sample(&mut self, name: &'static str, at: SimTime, value: u64) {
        if let Some(m) = self.metrics.as_mut() {
            m.sample(name, at, value);
        }
    }

    /// A request completed, its JCT decomposed as `journey` — the one record
    /// an engine builds. Everything else that reports the completion is
    /// derived from it here: the `JobEnd` and `JobJourney` events at
    /// `client_visible_at`, the `jct_ns` histogram, the tenant's SLO ledger
    /// entry — met unless it became visible after `deadline` — and the queued
    /// [`JobCompletion`] with its [`LatencyBreakdown`].
    pub fn complete(
        &mut self,
        journey: JobJourney,
        request: InferenceRequest,
        almost_finished_at: Option<SimTime>,
        device_done_at: SimTime,
        client_visible_at: SimTime,
        deadline: Option<SimTime>,
    ) {
        self.trace(client_visible_at, || {
            TraceEvent::JobEnd(Box::new(JobEnd::from(&journey)))
        });
        self.trace(client_visible_at, || {
            TraceEvent::JobJourney(Box::new(journey))
        });
        if let Some(m) = self.metrics.as_mut() {
            m.observe("jct_ns", journey.jct_ns);
            let burn_ns = deadline.map_or(0, |d| client_visible_at.saturating_since(d).as_nanos());
            m.slo_complete(journey.client, burn_ns == 0, burn_ns);
        }
        self.completions.push(JobCompletion {
            job: JobId(journey.job),
            request,
            almost_finished_at,
            device_done_at,
            client_visible_at,
            breakdown: LatencyBreakdown::from(&journey),
        });
    }

    /// Queues a completion a tier below already booked in its own ledger.
    pub fn forward(&mut self, c: JobCompletion) {
        self.completions.push(c);
    }

    /// A request failed terminally: books it in its tenant's SLO ledger and
    /// queues the failure.
    pub fn fail(&mut self, request: InferenceRequest, reason: FailureReason, at: SimTime) {
        if let Some(m) = self.metrics.as_mut() {
            m.slo_fail(request.client.0, reason.as_str());
        }
        self.failures.push(JobFailure {
            request,
            reason,
            at,
        });
    }

    /// Failures queued and not yet taken (post-mortem state).
    pub fn failures_pending(&self) -> usize {
        self.failures.len()
    }

    /// Renders the flight-recorder ring plus the caller's fixed-order state
    /// snapshot into a deterministic post-mortem dump (DESIGN §12). No-op
    /// with telemetry off.
    pub fn postmortem(&mut self, trigger: &str, at: SimTime, state: &[(&str, u64)]) {
        if self.tracer.is_enabled() {
            let events = self.tracer.flight_snapshot();
            self.postmortems.push(paella_telemetry::flight::render(
                trigger, at, state, &events,
            ));
        }
    }

    /// Takes the completions queued so far.
    pub fn take_completions(&mut self) -> Vec<JobCompletion> {
        std::mem::take(&mut self.completions)
    }

    /// Takes the failures queued so far.
    pub fn take_failures(&mut self) -> Vec<JobFailure> {
        std::mem::take(&mut self.failures)
    }

    /// Takes the post-mortem dumps rendered so far.
    pub fn take_postmortems(&mut self) -> Vec<String> {
        std::mem::take(&mut self.postmortems)
    }

    /// Subtracts `n` from the accounting counter `counter`. Going below zero
    /// is a bookkeeping bug, never load: it fails a debug build, and a
    /// release build clamps to zero and counts it in `accounting_underflow`
    /// instead of wrapping or masking it.
    #[inline]
    pub fn debit(&mut self, counter: &mut u64, n: u64, what: &'static str) {
        *counter = self.settle(counter.checked_sub(n), what);
    }

    /// [`debit`](Self::debit) for an accounted amount of work.
    #[inline]
    pub fn debit_work(&mut self, work: &mut SimDuration, d: SimDuration, what: &'static str) {
        *work = self.settle(work.checked_sub(d), what);
    }

    #[inline]
    fn settle<T: Default>(&mut self, left: Option<T>, what: &'static str) -> T {
        debug_assert!(left.is_some(), "{what} underflow");
        if left.is_none() {
            self.inc("accounting_underflow", 1);
        }
        left.unwrap_or_default()
    }
}

/// What a [`Tier`]'s callbacks work on besides the tier's own state.
pub struct Front<S, E> {
    /// The wrapped system.
    pub inner: S,
    /// Front-end events not yet due.
    pub events: EventQueue<E>,
    /// Results translated back to what the caller submitted.
    out: EngineCore,
}

impl<S, E> Front<S, E> {
    /// Hands the caller a completion (booked by the inner system).
    pub fn deliver(&mut self, c: JobCompletion) {
        self.out.forward(c);
    }

    /// Hands the caller a failure (booked by the inner system; the outbox
    /// keeps no ledger of its own).
    pub fn deliver_failure(&mut self, f: JobFailure) {
        self.out.fail(f.request, f.reason, f.at);
    }
}

/// A front end over an inner serving system: what it costs a request to
/// reach the inner system, what it holds back, and how results translate on
/// the way out. [`Layered`] supplies everything else.
pub trait Tier<S: ServingSystem> {
    /// A front-end event.
    type Ev;

    /// Which side steps first when a front-end event and inner work fall on
    /// the same instant. A server that re-examines its queues on every
    /// backend completion steps the inner system first; a pass-through that
    /// must hand a request over before the inner system moves past its
    /// arrival steps the front end first.
    const INNER_FIRST: bool;

    /// Display name.
    fn name(&self, inner: &S) -> String;

    /// Registers a model; returns the id callers submit under.
    fn register_model(&mut self, inner: &mut S, model: &CompiledModel) -> ModelId;

    /// Accepts a request: the instant it reaches the front end and the
    /// event that fires then.
    fn submit(&mut self, req: InferenceRequest) -> (SimTime, Self::Ev);

    /// A front-end event came due.
    fn on_event(&mut self, front: &mut Front<S, Self::Ev>, at: SimTime, ev: Self::Ev);

    /// The inner system completed a job this tier submitted.
    fn on_completion(&mut self, front: &mut Front<S, Self::Ev>, c: JobCompletion) {
        front.deliver(c);
    }

    /// The inner system failed a request this tier submitted.
    fn on_failure(&mut self, front: &mut Front<S, Self::Ev>, f: JobFailure) {
        front.deliver_failure(f);
    }

    /// Requests the tier holds that neither the front-end queue nor the
    /// inner system counts.
    fn parked(&self) -> u64 {
        0
    }
}

/// The one driver of a front end over an inner system: merges the two event
/// sources on one clock under the tier's tie rule, hands inner completions
/// and failures to the tier, and forwards telemetry, post-mortems and load.
pub struct Layered<T: Tier<S>, S: ServingSystem> {
    tier: T,
    front: Front<S, T::Ev>,
}

impl<T: Tier<S>, S: ServingSystem> Layered<T, S> {
    /// Puts `tier` in front of `inner`.
    pub fn new(tier: T, inner: S) -> Self {
        Layered {
            tier,
            front: Front {
                inner,
                events: EventQueue::new(),
                out: EngineCore::default(),
            },
        }
    }

    /// The front end.
    pub fn tier(&self) -> &T {
        &self.tier
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.front.inner
    }
}

impl<T: Tier<S>, S: ServingSystem> ServingSystem for Layered<T, S> {
    fn register_model(&mut self, model: &CompiledModel) -> ModelId {
        self.tier.register_model(&mut self.front.inner, model)
    }

    fn submit(&mut self, req: InferenceRequest) {
        let (at, ev) = self.tier.submit(req);
        let events = &mut self.front.events;
        events.schedule_at(at.max(events.now()), ev);
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        earliest(
            self.front.inner.next_event_time(),
            self.front.events.peek_time(),
        )
    }

    fn advance_until(&mut self, t: SimTime) {
        let (tier, front) = (&mut self.tier, &mut self.front);
        loop {
            let ti = front.inner.next_event_time();
            let te = front.events.peek_time();
            let Some(next) = earliest(ti, te).filter(|&next| next <= t) else {
                break;
            };
            let inner_turn = if T::INNER_FIRST {
                ti == Some(next)
            } else {
                te != Some(next)
            };
            if inner_turn {
                front.inner.advance_until(next);
            } else {
                // invariant: `next` is the earlier of the two peeks and it is
                // not the inner system's turn, so peek_time returned it.
                let (at, ev) = front.events.pop().expect("peeked event");
                tier.on_event(front, at, ev);
            }
            // A callback may submit inward, and a submission the inner system
            // refuses fails on the spot: drain until nothing new comes back.
            loop {
                let done = front.inner.drain_completions();
                let failed = front.inner.drain_failures();
                if done.is_empty() && failed.is_empty() {
                    break;
                }
                for c in done {
                    tier.on_completion(front, c);
                }
                for f in failed {
                    tier.on_failure(front, f);
                }
            }
        }
    }

    fn drain_completions(&mut self) -> Vec<JobCompletion> {
        self.front.out.take_completions()
    }

    fn drain_failures(&mut self) -> Vec<JobFailure> {
        self.front.out.take_failures()
    }

    fn name(&self) -> String {
        self.tier.name(&self.front.inner)
    }

    fn enable_telemetry(&mut self) {
        self.front.inner.enable_telemetry();
    }

    fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.front.inner.take_trace_log()
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.front.inner.metrics_snapshot()
    }

    fn take_postmortems(&mut self) -> Vec<String> {
        self.front.inner.take_postmortems()
    }

    fn load_signal(&self) -> LoadSignal {
        // Requests the front end still holds are load the inner system
        // cannot see yet; the node is committed to them all the same.
        let mut s = self.front.inner.load_signal();
        s.queued += self.front.events.len() as u64 + self.tier.parked();
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_takes_in_order_and_conserves_the_total() {
        assert_eq!(split(10u64, [4, 3, 2]), ([4, 3, 2], 1));
        // Later parts get only what earlier ones left.
        assert_eq!(split(10u64, [7, 5, 2]), ([7, 3, 0], 0));
        let us = SimDuration::from_micros;
        assert_eq!(split(us(5), [us(9)]), ([us(5)], SimDuration::ZERO));
    }

    #[test]
    fn earliest_ignores_an_idle_source() {
        let t = |us| Some(SimTime::from_micros(us));
        assert_eq!(earliest(t(3), t(2)), t(2));
        assert_eq!(earliest(None, t(2)), t(2));
        assert_eq!(earliest(t(3), None), t(3));
        assert_eq!(earliest(None, None), None);
    }

    #[test]
    fn debit_subtracts_and_counts_nothing_when_the_books_balance() {
        let mut core = EngineCore::default();
        core.enable_telemetry();
        let (mut n, mut work) = (3u64, SimDuration::from_micros(5));
        core.debit(&mut n, 3, "n");
        core.debit_work(&mut work, SimDuration::from_micros(2), "work");
        assert_eq!((n, work), (0, SimDuration::from_micros(3)));
        let snap = core.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("accounting_underflow"), 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "node outstanding underflow")]
    fn debit_below_zero_fails_a_debug_build() {
        EngineCore::default().debit(&mut 1, 2, "node outstanding");
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn debit_below_zero_clamps_and_counts_in_a_release_build() {
        let mut core = EngineCore::default();
        core.enable_telemetry();
        let mut n = 1u64;
        core.debit(&mut n, 2, "node outstanding");
        assert_eq!(n, 0);
        let snap = core.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.counter("accounting_underflow"), 1);
    }
}
