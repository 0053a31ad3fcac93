//! The one driver of a front end over an inner serving system (DESIGN
//! "Serving skeleton"): a [`Tier`] says what a request costs to reach the
//! inner system, what it holds back and how results translate on the way
//! out, and [`Layered`] supplies everything else.

use paella_compiler::CompiledModel;
use paella_core::types::LoadSignal;
use paella_core::{
    earliest, EngineCore, InferenceRequest, JobCompletion, JobFailure, ModelId, ServingSystem,
};
use paella_sim::{EventQueue, SimTime};
use paella_telemetry::{MetricsSnapshot, TraceLog};

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
