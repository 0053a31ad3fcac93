//! Failure handling (DESIGN §11): injected kernel faults and their retries,
//! and cancellation — of one job, of a client's jobs, or of everything the
//! dispatcher holds.

use paella_channels::KernelUid;
use paella_sim::SimTime;
use paella_telemetry::TraceEvent;

use super::config::RETRY_BACKOFF;
use super::{Dispatcher, Ev};
use crate::types::{ClientId, FailureReason, JobId};

impl Dispatcher {
    /// A dispatched kernel's execution faulted: schedule a backoff retry, or
    /// give the whole job up once the retry budget is spent.
    pub(super) fn on_kernel_fault(&mut self, id: JobId, token: u64, uid: KernelUid, at: SimTime) {
        // invariant: the faulted kernel's record was live, and cancel_job
        // drops a job's records together with the job.
        let j = self.jobs.get_mut(id.0).expect("faulted kernel's job");
        let attempt = *j.attempts.entry(token).and_modify(|n| *n += 1).or_insert(1);
        self.core.trace(at, || TraceEvent::KernelFault {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
        });
        self.core.inc("kernel_faults", 1);
        if attempt > self.cfg.retry_budget {
            self.cancel_job(id, at, FailureReason::RetryBudgetExhausted);
            return;
        }
        self.core.inc("kernel_retries", 1);
        // Exponential backoff, shift-capped so the doubling can't overflow.
        let backoff = RETRY_BACKOFF * (1u64 << (attempt - 1).min(16));
        let backoff_ns = backoff.as_nanos();
        self.core.trace(at, || TraceEvent::RetryBackoff {
            job: id.0,
            kernel: u64::from(uid),
            attempt,
            backoff_ns,
        });
        self.job_mut(id).backoff_ns += backoff_ns;
        self.events.schedule_at(
            at.saturating_add(backoff).max(self.events.now()),
            Ev::Retry(id, token),
        );
    }

    /// Re-dispatches a faulted op after its backoff elapsed.
    pub(super) fn retry_kernel(&mut self, id: JobId, token: u64, at: SimTime) {
        if self.jobs.get(id.0).is_none() {
            return; // cancelled while backing off
        }
        // dispatch_op re-increments `outstanding` and the per-location done
        // count, but the faulted attempt never decremented `outstanding`
        // (its completion was discarded), so compensate here. The done-count
        // over-increment is harmless: every consumer clamps remaining work
        // with max(0, C̄ − done).
        self.dispatch_op(id, token, at, false);
        if let Some(j) = self.jobs.get_mut(id.0) {
            self.core.debit(&mut j.outstanding, 1, "job outstanding");
        }
    }

    /// Cancels one in-flight job and reclaims everything it holds: queued
    /// ops, scheduler state, stream-pool slots, notifQ reservations,
    /// and the occupancy mirror's accounting for its in-flight kernels. The
    /// device runs already-placed kernels to completion, but their outputs no
    /// longer map to a job, so late notifications and completions fall
    /// through the uid lookups harmlessly.
    pub(super) fn cancel_job(&mut self, id: JobId, at: SimTime, reason: FailureReason) {
        let Some(j) = self.retire(id, at) else {
            return; // already finished or cancelled (e.g. a stale deadline)
        };
        let occupancy = &mut self.occupancy;
        self.ops
            .reclaim(&mut self.core, id, |uid| occupancy.on_kernel_completed(uid));
        let reason_str = reason.as_str();
        self.core.trace(at, || TraceEvent::JobCancelled {
            job: id.0,
            reason: reason_str,
        });
        self.core.inc("jobs_cancelled", 1);
        // A spent retry budget is a terminal, single-node failure: snapshot
        // the flight-recorder ring and a fixed-order view of queue state into
        // a post-mortem dump (DESIGN §12).
        if reason == FailureReason::RetryBudgetExhausted {
            let state = [
                ("jobs_inflight", self.jobs.len() as u64),
                ("queued_ingest", self.load.queued),
                ("notifq_outstanding", self.ops.notifq_outstanding),
                ("stream_waiters", self.streams.waiters.len() as u64),
                ("free_streams", self.streams.free_len() as u64),
            ];
            self.core.postmortem("retry-budget-exhausted", at, &state);
        }
        self.core.fail(j.request, reason, at);
    }

    /// A client disconnected: cancel its in-flight jobs and refuse its later
    /// submissions (including requests already queued on its ring).
    pub fn cancel_client(&mut self, client: ClientId, at: SimTime) {
        self.disconnected.insert(client);
        self.cancel_where(at, FailureReason::Disconnected, |c| c == client);
    }

    /// Fails everything the dispatcher holds — queued ingests and in-flight
    /// jobs alike — with the given reason. The cluster tier calls this when
    /// the node crashes, then drains the failures for re-routing.
    pub fn cancel_all(&mut self, at: SimTime, reason: FailureReason) {
        // Pending host events: queued ingests become failures (the ring's
        // contents are lost with the node); stale deadlines/retries are moot.
        for (_, ev) in self.events.drain() {
            if let Ev::Ingest(req, est) = ev {
                self.load.dequeue(&mut self.core, est);
                self.core.fail(req, reason, at);
            }
        }
        self.cancel_where(at, reason, |_| true);
    }

    /// Cancels, in job-id order, every in-flight job whose client `hit`
    /// accepts.
    fn cancel_where(&mut self, at: SimTime, reason: FailureReason, hit: impl Fn(ClientId) -> bool) {
        let ids: Vec<JobId> = self
            .jobs
            .iter()
            .filter(|(_, j)| hit(j.request.client))
            .map(|(id, _)| JobId(id))
            .collect();
        for id in ids {
            self.cancel_job(id, at, reason);
        }
    }
}
