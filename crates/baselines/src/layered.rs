//! The one driver of a front end over a backend dispatcher (DESIGN
//! "Serving skeleton"): a [`Tier`] says what a request costs to reach the
//! backend, what it holds back and how completions translate on the way
//! out, and [`Layered`] supplies everything else.

use paella_compiler::CompiledModel;
use paella_core::types::LoadSignal;
use paella_core::{
    earliest, Dispatcher, EngineCore, InferenceRequest, JobCompletion, JobFailure, ModelId,
    ServingSystem,
};
use paella_sim::{EventQueue, SimTime};
use paella_telemetry::{MetricsSnapshot, TraceLog};

/// What a [`Tier`]'s callbacks work on besides the tier's own state.
pub struct Front<E> {
    /// The backend.
    pub inner: Dispatcher,
    /// Front-end events not yet due.
    pub events: EventQueue<E>,
    /// Results translated back to what the caller submitted.
    out: EngineCore,
}

impl<E> Front<E> {
    /// Hands the caller a completion (booked by the backend).
    pub fn deliver(&mut self, c: JobCompletion) {
        self.out.forward(c);
    }
}

/// A front end over a backend dispatcher: what it costs a request to reach
/// the backend, what it holds back, and how completions translate on the
/// way out. [`Layered`] supplies everything else, failures included: they
/// reach the caller as the backend reports them.
pub trait Tier {
    /// A front-end event.
    type Ev;

    /// Display name.
    fn name(&self) -> String;

    /// Registers a model; returns the id callers submit under.
    fn register_model(&mut self, backend: &mut Dispatcher, model: &CompiledModel) -> ModelId;

    /// Accepts a request: the instant it reaches the front end and the
    /// event that fires then.
    fn submit(&mut self, req: InferenceRequest) -> (SimTime, Self::Ev);

    /// A front-end event came due.
    fn on_event(&mut self, front: &mut Front<Self::Ev>, at: SimTime, ev: Self::Ev);

    /// The backend completed a job this tier submitted.
    fn on_completion(&mut self, front: &mut Front<Self::Ev>, c: JobCompletion);

    /// Requests the tier holds that neither the front-end queue nor the
    /// backend counts.
    fn parked(&self) -> u64;
}

/// The one driver of a front end over a backend dispatcher: merges the two
/// event sources on one clock, hands backend completions to the tier and
/// failures to the caller, and forwards telemetry, post-mortems and load.
pub struct Layered<T: Tier> {
    tier: T,
    front: Front<T::Ev>,
}

impl<T: Tier> Layered<T> {
    /// Puts `tier` in front of `backend`.
    pub fn new(tier: T, backend: Dispatcher) -> Self {
        Layered {
            tier,
            front: Front {
                inner: backend,
                events: EventQueue::new(),
                out: EngineCore::default(),
            },
        }
    }
}

impl<T: Tier> ServingSystem for Layered<T> {
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
            let backend = front.inner.next_event_time();
            let Some(next) = earliest(backend, front.events.peek_time()).filter(|&next| next <= t)
            else {
                break;
            };
            // On a tie the backend steps first: a server re-examines its
            // queues on every backend completion before it looks at
            // requests landing at the same instant.
            if backend == Some(next) {
                front.inner.advance_until(next);
            } else {
                // invariant: `next` is the earlier of the two peeks and not
                // the backend's, so peek_time returned it.
                let (at, ev) = front.events.pop().expect("peeked event");
                tier.on_event(front, at, ev);
            }
            // A callback may submit inward, and a submission the backend
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
                // Booked by the backend; the outbox keeps no ledger of its
                // own.
                for f in failed {
                    front.out.fail(f.request, f.reason, f.at);
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
        self.tier.name()
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
        // Requests the front end still holds are load the backend cannot see
        // yet; the node is committed to them all the same.
        let mut s = self.front.inner.load_signal();
        s.queued += self.front.events.len() as u64 + self.tier.parked();
        s
    }
}
