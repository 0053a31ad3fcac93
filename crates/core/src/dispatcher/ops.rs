//! The record table of dispatched ops: what the device has been handed and
//! not yet reported back, and the notifQ slots those kernels hold (§5.2 flow
//! control).

use paella_channels::KernelUid;
use paella_gpu::MemcpyUid;
use paella_sim::{IdMap, SimTime};

use crate::serve::EngineCore;
use crate::types::{ClientId, JobId};

/// A dispatched kernel the device has not yet reported complete: everything
/// the notification and completion paths need, under the kernel's uid, so a
/// run costs one index instead of a probe per question. Dropped at
/// completion, or with its job at cancellation — late words for a cancelled
/// kernel find no record and fall through.
#[derive(Clone, Copy)]
pub(super) struct Kernel {
    pub(super) job: JobId,
    pub(super) token: u64,
    /// The owning job's model index and the kernel's location in it.
    pub(super) model: usize,
    pub(super) loc: usize,
    /// The owning job's client (the dispatcher shard that polls its notifQ).
    pub(super) client: ClientId,
    /// Whether this is the job's final op (pinned-output wakeup).
    pub(super) is_last: bool,
    /// First-placement time (online profiling).
    pub(super) started: Option<SimTime>,
    /// notifQ slots reserved at dispatch and not yet consumed by a word;
    /// the rest is released at completion.
    pub(super) notifq_reserved: u64,
}

/// Mints op uids, keeps a record per outstanding op, and books the notifQ
/// reservations: reserved at launch, debited per run of words, released at
/// completion or when a cancelled job's records are reclaimed.
#[derive(Default)]
pub(super) struct OpRecords {
    /// Whether kernels are instrumented. Without instrumentation there are
    /// no words, so nothing is reserved.
    instrumented: bool,
    /// Dispatched, uncompleted kernels, indexed by kernel uid.
    kernels: IdMap<Kernel>,
    /// `(job, token)` of each outstanding memcpy, indexed by memcpy uid.
    copies: IdMap<(JobId, u64)>,
    /// The last uids minted (uids start at 1).
    last_kernel: KernelUid,
    last_copy: u64,
    /// notifQ slots reserved by in-flight kernels minus consumed words: the
    /// sum of the records' `notifq_reserved`.
    pub(super) notifq_outstanding: u64,
}

impl OpRecords {
    pub(super) fn new(instrumented: bool) -> Self {
        OpRecords {
            instrumented,
            ..OpRecords::default()
        }
    }

    /// Worst-case notifQ slots a kernel of `grid_blocks` blocks reserves: two
    /// phases, at most one word per block per phase.
    fn slots(&self, grid_blocks: u32) -> u64 {
        if self.instrumented {
            2 * u64::from(grid_blocks)
        } else {
            0
        }
    }

    /// Whether reserving a `grid_blocks`-block kernel's slots would overrun
    /// a ring of `capacity`. With nothing reserved the answer is no: no
    /// completion would ever free room, and a kernel wider than the ring
    /// would wait forever.
    pub(super) fn notifq_full(&self, grid_blocks: u32, capacity: u64) -> bool {
        let slots = self.slots(grid_blocks);
        self.notifq_outstanding > 0 && self.notifq_outstanding + slots > capacity
    }

    /// Records a dispatched kernel of `grid_blocks` blocks under a fresh
    /// uid, reserving its slots.
    pub(super) fn launch(&mut self, mut kernel: Kernel, grid_blocks: u32) -> KernelUid {
        kernel.notifq_reserved = self.slots(grid_blocks);
        self.last_kernel += 1;
        self.notifq_outstanding += kernel.notifq_reserved;
        self.kernels.insert(u64::from(self.last_kernel), kernel);
        self.last_kernel
    }

    /// Records a dispatched copy of op `token` of `job` under a fresh uid.
    pub(super) fn copy(&mut self, job: JobId, token: u64) -> MemcpyUid {
        self.last_copy += 1;
        self.copies.insert(self.last_copy, (job, token));
        MemcpyUid(self.last_copy)
    }

    /// A run of `words` words of kernel `uid` was handled: debits them from
    /// its reservation and, given `placed_at`, starts its online-profiling
    /// clock. The record as it now stands, or `None` for a kernel whose job
    /// was cancelled.
    pub(super) fn on_run(
        &mut self,
        core: &mut EngineCore,
        uid: KernelUid,
        words: u64,
        placed_at: Option<SimTime>,
    ) -> Option<Kernel> {
        let k = self.kernels.get_mut(u64::from(uid))?;
        if let Some(at) = placed_at {
            k.started.get_or_insert(at);
        }
        let slots = k.notifq_reserved.min(words);
        k.notifq_reserved -= slots; // sub: `slots ≤ notifq_reserved` by the `min`
        core.debit(&mut self.notifq_outstanding, slots, "notifq_outstanding");
        Some(*k)
    }

    /// Drops the record of completed kernel `uid`, releasing what it still
    /// reserves. `None` for a kernel whose job was cancelled.
    pub(super) fn complete(&mut self, core: &mut EngineCore, uid: KernelUid) -> Option<Kernel> {
        let k = self.kernels.remove(u64::from(uid))?;
        self.release(core, k.notifq_reserved);
        Some(k)
    }

    /// Drops the record of completed copy `uid`: its `(job, token)`.
    pub(super) fn complete_copy(&mut self, uid: MemcpyUid) -> Option<(JobId, u64)> {
        self.copies.remove(uid.0)
    }

    /// Drops every record of cancelled `job` and releases what its kernels
    /// reserve, calling `f` with each of their uids in ascending order.
    pub(super) fn reclaim(
        &mut self,
        core: &mut EngineCore,
        job: JobId,
        mut f: impl FnMut(KernelUid),
    ) {
        let mut released = 0;
        self.kernels.retain(|uid, k| {
            if k.job != job {
                return true;
            }
            released += k.notifq_reserved;
            // Keys are widened KernelUids.
            f(uid as KernelUid);
            false
        });
        self.release(core, released);
        self.copies.retain(|_, &mut (j, _)| j != job);
    }

    /// Returns the `slots` a dropped record still reserved to the ring.
    fn release(&mut self, core: &mut EngineCore, slots: u64) {
        core.debit(&mut self.notifq_outstanding, slots, "notifq_outstanding");
    }
}
