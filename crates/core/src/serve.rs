//! The common interface every serving system under test implements —
//! Paella, its ablations, and the baselines of Table 3 — so the experiment
//! harness can drive them interchangeably, and the piece every engine
//! shares (DESIGN "Serving skeleton"): [`EngineCore`], the one place a
//! request becomes terminal. The driver of a front end over an inner system
//! lives with the front ends, in `paella-baselines`.

use paella_compiler::CompiledModel;
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{
    JobJourney, MetricsRegistry, MetricsSnapshot, TraceEvent, TraceLog, Tracer,
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

    /// Current load as seen by layers above (routers, wrapping tiers).
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

    /// A request completed, its JCT decomposed as `journey` — the one record
    /// an engine builds. Everything that reports the completion comes from
    /// it here: the `JobJourney` event at `client_visible_at`, the `jct_ns` histogram, the tenant's SLO ledger
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
