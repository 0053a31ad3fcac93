//! The load book: the dispatcher's [`LoadSignal`], kept incrementally so a
//! router's poll costs O(1), and the from-scratch sum that checks it.

use paella_compiler::ModelProfile;
use paella_sim::SimDuration;

use super::Dispatcher;
use crate::serve::EngineCore;
use crate::types::LoadSignal;

/// Queued and in-flight work. Every float sum here is compared across nodes
/// by the cluster router, so the order of the operations is part of the
/// behaviour.
#[derive(Default)]
pub(super) struct LoadBook {
    /// Requests submitted but not yet ingested off the ring, with the sum of
    /// their profiled total estimates (the queued half of [`LoadSignal`]).
    pub(super) queued: u64,
    queued_work: SimDuration,
    /// The in-flight half of [`LoadSignal`]: `Σ_jobs Σ_i max(0, C̄_i −
    /// done_i) · T̄_i` in microseconds, maintained alongside `left`
    /// (invariant: `inflight_us = Σ_models Σ_i left_i · T̄_i`). Updated at
    /// ingest (+fresh estimate), kernel dispatch (−one execution), online
    /// profile refinement (±left·ΔT̄), and job retire (−residual).
    inflight_us: f64,
    /// Per registered model, per kernel location: `Σ_jobs max(0, C̄_i −
    /// done_i)` over the model's in-flight jobs — the expected executions
    /// still owed to the device.
    left: Vec<Vec<f64>>,
}

impl LoadBook {
    /// Opens the books of a newly registered model with `kernels` locations.
    pub(super) fn add_model(&mut self, kernels: usize) {
        self.left.push(vec![0.0; kernels]);
    }

    /// A request charged `est` was submitted onto the ring.
    pub(super) fn enqueue(&mut self, est: SimDuration) {
        self.queued += 1;
        self.queued_work += est;
    }

    /// Takes one request, charged `est` at submit, off the queued half (it
    /// was ingested, or lost with the ring).
    pub(super) fn dequeue(&mut self, core: &mut EngineCore, est: SimDuration) {
        core.debit(&mut self.queued, 1, "queued requests");
        core.debit_work(&mut self.queued_work, est, "queued work");
    }

    /// Credits a freshly ingested job of model `m`: every kernel location
    /// still owes its full expected executions.
    pub(super) fn add_job(&mut self, m: usize, profile: &ModelProfile) {
        let left = &mut self.left[m];
        for (loc, kp) in profile.kernels.iter().enumerate() {
            let owed = kp.count.mean().max(0.0);
            let t = kp.time_us.mean();
            left[loc] += owed;
            self.inflight_us += owed * t;
        }
    }

    /// Debits one dispatched execution of model `m`'s kernel `loc`: `done`
    /// is the pre-dispatch count, so the clamped expected-executions delta
    /// is `max(0, C̄−done) − max(0, C̄−done−1)`.
    pub(super) fn on_dispatch(&mut self, m: usize, profile: &ModelProfile, loc: usize, done: u32) {
        let kp = &profile.kernels[loc];
        let cbar = kp.count.mean();
        let d = (cbar - f64::from(done)).max(0.0) - (cbar - f64::from(done + 1)).max(0.0);
        let t = kp.time_us.mean();
        // sub: f64 estimate; `d` is part of what ingest credited, `d ≥ 0`.
        self.left[m][loc] -= d;
        self.inflight_us -= d * t; // sub: f64, the same delta in µs
    }

    /// Debits the residual of a retired job with per-location dispatch
    /// `counts` (usually zero: every kernel has dispatched by completion) and, once the dispatcher is `idle`, snaps
    /// the books back to exactly zero so float rounding from one burst can
    /// never drift into the next.
    pub(super) fn retire(&mut self, m: usize, profile: &ModelProfile, counts: &[u32], idle: bool) {
        for (loc, &done) in counts.iter().enumerate() {
            let kp = &profile.kernels[loc];
            let d = (kp.count.mean() - f64::from(done)).max(0.0);
            let t = kp.time_us.mean();
            // sub: f64 estimate; the residual ingest credited and no
            // dispatch debited, snapped to zero below once idle.
            self.left[m][loc] -= d;
            self.inflight_us -= d * t; // sub: f64, the same delta in µs
        }
        if idle {
            self.inflight_us = 0.0;
            for left in &mut self.left {
                left.fill(0.0);
            }
        }
    }

    /// Reprices the still-owed executions of model `m`'s kernel `loc` after
    /// an online profile refinement moved its mean time from `old_us` to the
    /// profile's current value.
    pub(super) fn reprice(&mut self, m: usize, profile: &ModelProfile, loc: usize, old_us: f64) {
        let new_us = profile.kernels[loc].time_us.mean();
        self.inflight_us += self.left[m][loc] * (new_us - old_us);
    }

    /// The signal with `inflight` jobs in flight.
    pub(super) fn signal(&self, inflight: u64) -> LoadSignal {
        // Fixed-trace serving has no KV budget; the LLM tier reports one.
        LoadSignal {
            queued: self.queued,
            inflight,
            remaining_work: self.queued_work
                + SimDuration::from_micros_f64(self.inflight_us.max(0.0)),
            ..LoadSignal::default()
        }
    }
}

impl Dispatcher {
    /// From-scratch recomputation of the in-flight remaining-work sum, in
    /// microseconds: the O(in-flight jobs) scan `load_signal` used to do.
    /// Kept as the verification oracle for the incremental aggregate (the
    /// two are equal up to float-summation-order rounding). Summed in
    /// job-id order, the order `jobs` iterates in: float addition doesn't
    /// commute exactly, so any other order would make the oracle itself
    /// vary (R6).
    #[doc(hidden)]
    pub fn inflight_work_scratch_us(&self) -> f64 {
        self.jobs
            .iter()
            .map(|(_, job)| {
                let idx = job.request.model.0 as usize;
                self.models[idx]
                    .profile
                    .remaining(&job.done_counts)
                    .as_micros_f64()
            })
            .sum()
    }

    /// The incrementally-maintained in-flight remaining-work sum, in
    /// microseconds (verification hook for tests).
    #[doc(hidden)]
    pub fn inflight_work_incremental_us(&self) -> f64 {
        self.load.inflight_us
    }
}
