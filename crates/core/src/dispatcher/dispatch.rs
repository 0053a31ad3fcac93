//! Dispatch: what leaves for the device and when. The kernel-granularity
//! loop asks the scheduler for a job, holds its pick at the one gate (pool
//! streams, the §6 occupancy budget, notifQ flow control), and otherwise
//! launches the kernel and whatever copies it unblocks.

use paella_channels::CudaRuntimeModel;
use paella_compiler::DagResources;
use paella_gpu::{BlockFootprint, CopyDir, KernelLaunch, MemcpyOp};
use paella_sim::SimTime;
use paella_telemetry::{HoldReason, HostOpKind, TraceEvent};

use super::config::{Granularity, SCHED_COST};
use super::ops::Kernel;
use super::Dispatcher;
use crate::sched::JobInfo;
use crate::types::JobId;

impl Dispatcher {
    /// Job-granularity: push the entire op sequence to the device at once.
    pub(super) fn dispatch_whole_job(&mut self, id: JobId, ready: SimTime) {
        for token in 0..self.model_of(id).dag.len() as u64 {
            // In job mode every op is "released" logically; stream ordering
            // on the device enforces execution order.
            self.dispatch_op(id, token, ready, true);
        }
        self.job_mut(id).active_undispatched.clear();
    }

    /// Dispatches any active non-kernel ops (memcpys run on copy engines and
    /// are not scheduled).
    pub(super) fn dispatch_auto_ops(&mut self, id: JobId, ready: SimTime) {
        loop {
            let Some(j) = self.jobs.get(id.0) else { return };
            if j.streams.is_empty() {
                return; // waiting for pool streams
            }
            let Some(token) = j.next_active() else { return };
            if let DagResources::Kernel { .. } = self.models[j.request.model.0 as usize].op(token) {
                return;
            }
            self.job_mut(id).active_undispatched.pop_front();
            self.dispatch_op(id, token, ready, false);
        }
    }

    /// Dispatches one op to the device, charging host costs.
    pub(super) fn dispatch_op(&mut self, id: JobId, token: u64, ready: SimTime, whole_job: bool) {
        let j = self.job_mut(id);
        // Close any open flow-control hold interval: the op is leaving now,
        // so everything since the first hold was occupancy wait.
        if let Some(s) = j.occ_since.take() {
            j.occ_wait_ns += ready.saturating_since(s).as_nanos();
        }
        assert!(!j.streams.is_empty(), "dispatch without streams");
        let (model_idx, client) = (j.request.model.0 as usize, j.request.client);
        let rm = &self.models[model_idx];
        let (kind, last) = (rm.op(token), token as usize + 1 == rm.dag.len());
        let stream = self.job(id).streams[rm.stream_slot(token)];
        let cost = match kind {
            DagResources::H2D(bytes) | DagResources::D2H(bytes) => {
                let dir = if matches!(kind, DagResources::H2D(_)) {
                    CopyDir::HostToDevice
                } else {
                    CopyDir::DeviceToHost
                };
                // Almost-finished: fired before the final D2H (§4.2).
                if matches!(kind, DagResources::D2H(_)) && last {
                    self.fire_almost_finished(id, ready);
                }
                let overhead = CudaRuntimeModel::MEMCPY_OVERHEAD;
                let (.., done) = self.charge(client, ready, overhead);
                let uid = self.ops.copy(id, token);
                let op = MemcpyOp {
                    uid,
                    stream,
                    bytes,
                    dir,
                };
                self.gpu.enqueue_memcpy(done.max(self.now), op);
                overhead
            }
            DagResources::Kernel { loc, .. } => {
                let loc = loc as usize;
                let cost = if whole_job {
                    CudaRuntimeModel::LAUNCH_OVERHEAD
                } else {
                    SCHED_COST + self.cfg.injected_delay + CudaRuntimeModel::LAUNCH_OVERHEAD
                };
                let done = self.host_op(HostOpKind::Sched, client, ready, cost);
                // The dag numbered `loc` by enumerating this same model's
                // kernels, and models are append-only.
                let desc = self.models[model_idx].kernel_descs[loc].clone();
                let record = Kernel {
                    job: id,
                    token,
                    model: model_idx,
                    loc,
                    client,
                    is_last: last,
                    started: None,
                    notifq_reserved: 0,
                };
                let uid = self.ops.launch(record, desc.grid_blocks);
                self.core.trace(done, || TraceEvent::KernelDispatched {
                    job: id.0,
                    kernel: u64::from(uid),
                    stream: stream.0,
                    grid_blocks: desc.grid_blocks,
                });
                self.core.inc("kernels_dispatched", 1);
                // The occupancy mirror only works when instrumented kernels
                // report back; without instrumentation there is nothing to
                // clean the tracker up, so it tracks nothing.
                if self.cfg.instrument {
                    self.occupancy
                        .on_launch(uid, desc.footprint, desc.grid_blocks);
                }
                let at = (done + CudaRuntimeModel::LAUNCH_LATENCY).max(self.now);
                self.gpu
                    .launch_kernel(at, KernelLaunch { uid, stream, desc });
                let j = self.job_mut(id);
                let done_before = j.done_counts[loc];
                j.done_counts[loc] += 1;
                // Debit the load book with the pre-dispatch count.
                let rm = &self.models[model_idx];
                self.load
                    .on_dispatch(model_idx, &rm.profile, loc, done_before);
                // Pinned-output jobs (last op is a kernel) fire the
                // almost-finished wakeup when that kernel *starts*
                // (placement notification) — see `notif_run`.
                // Without instrumentation there is no placement signal,
                // so fall back to firing at launch.
                if last && !self.cfg.instrument {
                    self.fire_almost_finished(id, done);
                }
                cost
            }
        };
        let j = self.job_mut(id);
        j.outstanding += 1;
        j.framework += cost;
    }

    /// The kernel-granularity dispatch loop (§6's overall strategy).
    pub(super) fn try_dispatch(&mut self) {
        if self.cfg.granularity != Granularity::Kernel {
            return;
        }
        let mut spin_guard = 0u64;
        // Asked after every event, the loop usually finds nothing ready; it
        // then costs a length check, not a pick.
        while self.scheduler.ready_len() > 0 {
            let Some((job, rationale)) = self.scheduler.pick_next_explained() else {
                break;
            };
            spin_guard += 1;
            debug_assert!(spin_guard < 10_000_000, "try_dispatch spinning on {job:?}");
            let Some(token) = self.jobs.get(job.0).and_then(|j| j.next_active()) else {
                // Stale readiness; clear and retry.
                self.scheduler.job_blocked(job);
                continue;
            };
            let DagResources::Kernel {
                grid_blocks,
                footprint,
                ..
            } = self.model_of(job).op(token)
            else {
                // Non-kernel ops auto-dispatch.
                self.kick(job, self.now);
                continue;
            };
            if let Some(reason) = self.gate(job, grid_blocks, footprint) {
                self.hold(job, reason);
                if reason != HoldReason::StreamPool {
                    break;
                }
                // Skip it until a retiring job hands it streams; the pick
                // after it may have them.
                self.scheduler.job_blocked(job);
                continue;
            }
            self.core.trace(self.now, || TraceEvent::SchedDecision {
                job: job.0,
                policy: self.scheduler.name(),
                rationale,
                ready: self.scheduler.ready_len() as u32,
            });
            self.core.inc("sched_picks", 1);
            self.scheduler.on_dispatched(job);
            self.job_mut(job).active_undispatched.pop_front();
            self.dispatch_op(job, token, self.now, false);
            self.kick(job, self.now);
        }
    }

    /// Why the picked kernel of `job` may not leave yet, if it may not.
    fn gate(&self, job: JobId, grid_blocks: u32, footprint: BlockFootprint) -> Option<HoldReason> {
        let lookahead = self.cfg.lookahead_blocks;
        if self.job(job).streams.is_empty() {
            Some(HoldReason::StreamPool)
        } else if !self.cfg.hold_for_occupancy {
            None
        } else if !self.occupancy.should_dispatch(&footprint, lookahead) {
            Some(HoldReason::OccupancyBudget)
        } else if self.ops.notifq_full(grid_blocks, self.cfg.notifq_capacity) {
            Some(HoldReason::NotifqBackpressure)
        } else {
            None
        }
    }

    /// The one hold path: traces the hold, bumps its reason's counter (the
    /// pool has none), and opens the job's flow-control hold interval if it
    /// is not already open. The interval closes when the op finally
    /// dispatches.
    fn hold(&mut self, job: JobId, reason: HoldReason) {
        self.core.trace(self.now, || TraceEvent::OccupancyHold {
            job: job.0,
            reason,
        });
        match reason {
            HoldReason::OccupancyBudget => self.core.inc("occupancy_holds", 1),
            HoldReason::NotifqBackpressure => self.core.inc("notifq_holds", 1),
            HoldReason::StreamPool | HoldReason::DepWait => {}
        }
        if let Some(j) = self.jobs.get_mut(job.0) {
            j.occ_since.get_or_insert(self.now);
        }
    }

    /// Syncs a job's readiness with the scheduler, closing/opening the
    /// dependency-wait interval on the transition.
    pub(super) fn update_readiness(&mut self, id: JobId) {
        let Some(j) = self.jobs.get_mut(id.0) else {
            self.scheduler.job_blocked(id);
            return;
        };
        let m = &self.models[j.request.model.0 as usize];
        let ready = j
            .next_active()
            .is_some_and(|t| matches!(m.op(t), DagResources::Kernel { .. }));
        if ready {
            if let Some(s) = j.dep_since.take() {
                j.dep_wait_ns += self.now.saturating_since(s).as_nanos();
            }
            self.scheduler.job_ready(JobInfo {
                job: id,
                client: j.request.client,
                arrival: j.ingested_at,
                total_estimate: j.total_estimate,
                remaining_estimate: m.profile.remaining(&j.done_counts),
            });
        } else if j.dep_since.is_none() {
            // Only on the transition: the branch above is the one caller of
            // `job_ready` and takes `dep_since` first, so while `dep_since`
            // is set the job is already blocked in the scheduler.
            j.dep_since = Some(self.now);
            self.scheduler.job_blocked(id);
            self.core.trace(self.now, || TraceEvent::OccupancyHold {
                job: id.0,
                reason: HoldReason::DepWait,
            });
        }
    }
}
