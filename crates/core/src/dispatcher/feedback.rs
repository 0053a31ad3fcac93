//! Device feedback: notification runs folded into the occupancy mirror, op
//! completions releasing successors, a finished job's wake-up and journey,
//! and the one retire path a job leaves the dispatcher by.

use paella_channels::{
    CudaRuntimeModel, KernelUid, NotifKind, ShmRingModel, SmId, UnixSocketModel,
};
use paella_gpu::{GpuRunOutput, StreamId};
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::{HostOpKind, JobJourney, TraceEvent};

use super::config::{Granularity, WakeupMode, COMPLETION_COST, NOTIF_COST, PIPELINE_WINDOW};
use super::ingest::{Job, RELEASED};
use super::Dispatcher;
use crate::serve::split;
use crate::types::{ClientId, JobId};

impl Dispatcher {
    pub(super) fn handle_gpu_output(&mut self, out: GpuRunOutput, words: &[(SmId, u16)]) {
        match out {
            GpuRunOutput::Notifs {
                kernel, kind, at, ..
            } => self.notif_run(kernel, kind, at, words),
            GpuRunOutput::KernelCompleted(uid, at) => {
                // Reconcile the occupancy mirror: if any of this kernel's
                // notifications were lost, its leaked accounting would
                // otherwise wedge the dispatch gate. (Without instrumentation
                // the mirror tracks nothing, and this finds nothing.)
                self.occupancy.on_kernel_completed(uid);
                let Some(k) = self.ops.complete(&mut self.core, uid) else {
                    return; // reclaimed when its job was cancelled
                };
                // Injected kernel fault (DESIGN §11): the execution's
                // results are discarded and the op is retried with
                // backoff. Rolled per completion in DES order, so same
                // seed ⇒ identical fault sets.
                if self.cfg.kernel_fault_rate > 0.0
                    && self.fault_rng.chance(self.cfg.kernel_fault_rate)
                {
                    self.on_kernel_fault(k.job, k.token, uid, at);
                    return;
                }
                // Online profile refinement from the observed span.
                if let Some(started) = k.started {
                    let profile = &mut self.models[k.model].profile;
                    let old_us = profile.kernels[k.loc].time_us.mean();
                    profile.observe_kernel(k.loc, at.saturating_since(started));
                    // The refined mean reprices everyone's still-owed
                    // executions of this kernel in the load book.
                    self.load.reprice(k.model, profile, k.loc, old_us);
                }
                self.complete_op(k.job, k.token, at);
            }
            GpuRunOutput::MemcpyCompleted(uid, at) => {
                if let Some((job, token)) = self.ops.complete_copy(uid) {
                    self.complete_op(job, token, at);
                }
            }
        }
    }

    /// Handles a wave's words (§5.2) as the one event they are: one record
    /// lookup, one notifQ debit, one mirror update. The words became visible
    /// together and their shard handles them back to back, so one CPU charge
    /// covers every stretch of words that nothing else interrupts.
    fn notif_run(&mut self, uid: KernelUid, kind: NotifKind, at: SimTime, words: &[(SmId, u16)]) {
        let placement = kind == NotifKind::Placement;
        // The one lookup a run costs here: the owner shard, the last-op
        // test and the notifQ reservation all come from the kernel's record.
        // The processing cost lands on the owning job's shard's core. First
        // placement starts the online-profiling clock (§6).
        let placed_at = placement.then_some(at);
        let n = words.len() as u64;
        let live = self.ops.on_run(&mut self.core, uid, n, placed_at);
        let owner = live.map_or(ClientId(0), |k| k.client);
        let placing = live.filter(|_| placement);
        self.core.inc("notifs_processed", n);
        let full_at = self.occupancy.on_run(uid, kind, words);
        // What a placement word of a live kernel (not one whose job was
        // cancelled) can set off. The first: the pinned-output wakeup, the
        // job's final kernel having started. The one that completes
        // placement: with `hold_for_occupancy` on, the pipelined release of
        // the successor — but only for kernels that will finish "soon",
        // otherwise a dependent successor would park at a hardware-queue head
        // for the predecessor's whole runtime.
        let wake = placing.is_some_and(|k| k.is_last);
        let release_at = full_at.filter(|_| {
            placing.is_some_and(|k| {
                let expected_us = self.models[k.model].profile.kernels[k.loc].time_us.mean();
                self.cfg.hold_for_occupancy
                    && SimDuration::from_micros_f64(expected_us) <= PIPELINE_WINDOW
            })
        });
        let mut from = 0;
        while from < words.len() {
            // Charge up to and including the next word that sets something
            // off, so that what it sets off sees `self.now` as of that word.
            let to = match release_at {
                _ if wake && from == 0 => 1,
                Some(i) if i >= from => i + 1,
                _ => words.len(),
            };
            let (core, start, done) = self.charge(owner, at, NOTIF_COST * (to - from) as u64);
            self.now = self.now.max(done);
            // One event per charge, at its first word's end; the host op and
            // the notification of each word are its expansion.
            let charged = words[from..to].iter().copied();
            let tracer = &mut self.core.tracer;
            tracer.record_words(start + NOTIF_COST, charged, |range| TraceEvent::NotifRun {
                kernel: u64::from(uid),
                start,
                core,
                placement,
                range,
            });
            if let Some(k) = placing {
                if wake && from == 0 {
                    self.fire_almost_finished(k.job, at);
                }
                if release_at.is_some_and(|i| i + 1 == to) {
                    self.release_op(k.job, k.token);
                }
            }
            from = to;
        }
    }

    /// Marks `token` released and walks its successors in the model's
    /// [`KernelDag`](paella_compiler::KernelDag), appending every op whose
    /// predecessor count reaches zero to the job's dispatch queue. Returns
    /// whether the op was actually released (`false` = already released,
    /// idempotent no-op).
    fn apply_release(&mut self, id: JobId, token: u64) -> bool {
        let Some(j) = self.jobs.get_mut(id.0) else {
            return false;
        };
        if j.preds_left[token as usize] == RELEASED {
            return false;
        }
        let dag = &self.models[j.request.model.0 as usize].dag;
        let newly = &mut self.newly_active;
        for &s in dag.successors(token as usize) {
            let left = &mut j.preds_left[s as usize];
            // Job-by-job submission runs ahead of a faulted op's retry, so a
            // successor can complete (and release) before this op does.
            if *left == RELEASED {
                continue;
            }
            debug_assert!(*left > 0, "KernelDag predecessor count underflow");
            *left -= 1;
            if *left == 0 {
                newly.push(s);
            }
        }
        // Stream semantics report newly-active ops in stream-id order (at
        // most one activation per stream per release).
        newly.sort_unstable_by_key(|&t| dag.node(t as usize).vstream);
        j.preds_left[token as usize] = RELEASED;
        j.active_undispatched.extend(newly.drain(..).map(u64::from));
        true
    }

    /// Releases an op and dispatches what that activated (idempotent per op).
    fn release_op(&mut self, id: JobId, token: u64) {
        if self.apply_release(id, token) {
            self.kick(id, self.now);
        }
    }

    fn complete_op(&mut self, id: JobId, token: u64, at: SimTime) {
        self.apply_release(id, token);
        let Some(j) = self.jobs.get_mut(id.0) else {
            return;
        };
        // A completion without a dispatch would underflow here.
        self.core.debit(&mut j.outstanding, 1, "job outstanding");
        j.completed += 1;
        let done = j.completed == self.models[j.request.model.0 as usize].dag.len();
        self.kick(id, self.now);
        if done {
            self.finish_job(id, at);
        }
    }

    /// At kernel granularity, dispatches the copies that became active in
    /// job `id` and tells the scheduler whether a kernel is next. (Job
    /// granularity pushed everything at ingest.)
    pub(super) fn kick(&mut self, id: JobId, ready: SimTime) {
        if self.cfg.granularity == Granularity::Kernel {
            self.dispatch_auto_ops(id, ready);
            self.update_readiness(id);
        }
    }

    /// Rings the client's almost-finished doorbell (§4.2), once per job.
    pub(super) fn fire_almost_finished(&mut self, id: JobId, at: SimTime) {
        let wake = at + UnixSocketModel::one_way();
        let Some(j) = self.jobs.get_mut(id.0) else {
            return;
        };
        if j.almost_finished_at.is_none() {
            j.almost_finished_at = Some(wake);
            self.core
                .trace(wake, || TraceEvent::DoorbellWake { job: id.0 });
        }
    }

    fn finish_job(&mut self, id: JobId, device_done: SimTime) {
        // invariant: the only caller just indexed self.job(id) to test
        // done(), and jobs are removed nowhere else.
        let j = self.retire(id, device_done).expect("finishing unknown job");

        // Completion path: dispatcher posts the result, client picks it up.
        let client = j.request.client;
        let t_posted = self.host_op(HostOpKind::Completion, client, device_done, COMPLETION_COST);
        let ring = ShmRingModel::one_way();
        let socket = UnixSocketModel::one_way();
        // A hybrid client the almost-finished interrupt reached in time is
        // already polling; otherwise it eats a socket wakeup.
        let wake = match (self.cfg.wakeup, j.almost_finished_at) {
            (WakeupMode::Polling, _) => SimDuration::ZERO,
            (WakeupMode::Hybrid, Some(w)) if w <= t_posted => SimDuration::ZERO,
            _ => socket,
        };
        let client_visible = t_posted + wake + ring;

        let model = &self.models[j.request.model.0 as usize];
        let total = client_visible.saturating_since(j.request.submitted_at);
        // Normalize the breakdown so the categories always sum to the total
        // JCT: device time first, then the host costs (which may have
        // overlapped device execution under pipelined dispatch), and
        // queuing is what remains.
        let communication = CudaRuntimeModel::LAUNCH_LATENCY
            + self.gpu.config().notif_visibility
            + match self.cfg.wakeup {
                WakeupMode::Socket => socket,
                _ => SimDuration::ZERO,
            };
        let ([device, client_send_recv, communication, framework], queuing) = split(
            total,
            [
                model.uncontended,
                self.channel_submit_latency() + ring,
                communication,
                j.framework + COMPLETION_COST,
            ],
        );
        // Second-level decomposition (DESIGN §12): split the queuing
        // remainder by cause the same way, so the eight journey phases still
        // sum exactly to the JCT. Attribution is best-effort under overlap;
        // conservation is exact by construction.
        let ([retry_backoff_ns, queue_dep_ns, queue_occupancy_ns], queue_hol_ns) = split(
            queuing.as_nanos(),
            [j.backoff_ns, j.dep_wait_ns, j.occ_wait_ns],
        );
        self.core.inc("jobs_completed", 1);
        self.core.complete(
            JobJourney {
                job: id.0,
                client: j.request.client.0,
                jct_ns: total.as_nanos(),
                client_send_recv_ns: client_send_recv.as_nanos(),
                communication_ns: communication.as_nanos(),
                framework_ns: framework.as_nanos(),
                device_ns: device.as_nanos(),
                retry_backoff_ns,
                queue_dep_ns,
                queue_occupancy_ns,
                queue_hol_ns,
                // Fixed-trace jobs: the whole device pass is the degenerate
                // "prefill"; decode time is an LLM-tier concept.
                device_prefill_ns: device.as_nanos(),
                device_decode_ns: 0,
            },
            j.request,
            j.almost_finished_at,
            device_done,
            client_visible,
            j.deadline_at,
        );
    }

    /// The one way a job leaves, completed or cancelled, at `at`: removes it,
    /// debits its residual from the load book, tells the scheduler it retired
    /// — and that its client went idle if it was the client's last — and
    /// hands its pool streams on. `None` if it already left.
    pub(super) fn retire(&mut self, id: JobId, at: SimTime) -> Option<Box<Job>> {
        let j = self.jobs.remove(id.0)?;
        let (m, idle) = (j.request.model.0 as usize, self.jobs.is_empty());
        self.load
            .retire(m, &self.models[m].profile, &j.done_counts, idle);
        self.scheduler.job_done(id);
        let client = j.request.client;
        if let Some(n) = self.client_inflight.get_mut(&client) {
            self.core.debit(n, 1, "client_inflight");
            if *n == 0 {
                self.client_inflight.remove(&client);
                self.scheduler.client_idle(client);
            }
        }
        self.return_streams(&j.streams, at);
        Some(j)
    }

    /// Returns a retiring job's pool streams and hands them on to waiters,
    /// oldest first, kicking each served waiter's pending ops.
    fn return_streams(&mut self, streams: &[StreamId], ready: SimTime) {
        if !self.streams.give_back(streams) {
            return;
        }
        while let Some(&waiter) = self.streams.waiters.front() {
            let Some(w) = self.jobs.get(waiter.0) else {
                self.streams.waiters.pop_front();
                continue;
            };
            let want = self.models[w.request.model.0 as usize].streams_wanted();
            let Some(streams) = self.streams.take(want) else {
                break;
            };
            self.streams.waiters.pop_front();
            self.job_mut(waiter).streams = streams;
            self.kick(waiter, ready);
        }
    }
}
