//! Brute-force invariant oracles for the dispatcher's bookkeeping.
//!
//! The production structures ([`Waitlist`], [`OccupancyTracker`]) maintain
//! their answers *incrementally* — sorted unreleased-sequence sets, cached
//! counters, per-SM mirrors. Each oracle here re-derives the same answer by
//! the most naive computation possible (full rescans, O(n²) edge
//! enumeration, Kahn's algorithm instead of targeted DFS) so that a
//! property test disagreeing between the two implementations pinpoints a
//! bookkeeping bug rather than a shared blind spot.
//!
//! * [`StreamOracle`] — CUDA stream-ordering semantics (Fig. 7, §4.2):
//!   in-stream FIFO, default↔blocking serialization, explicit
//!   `cudaStreamWaitEvent` deps, and issue-time deadlock (wait-cycle)
//!   rejection.
//! * [`ConservationOracle`] — Table-1 block conservation: every launched
//!   block is exactly one of unplaced / resident / completed, and no SM ever
//!   exceeds its static limits.
//! * [`KvOracle`] — the LLM tier's KV-page conservation, replayed from
//!   `KvAlloc` trace events: per-job and pool-wide residency re-derived
//!   from scratch, with double-free and leak detection.
//!
//! [`Waitlist`]: paella_core::Waitlist
//! [`OccupancyTracker`]: paella_core::OccupancyTracker

use std::collections::HashMap;
use std::collections::HashSet;

use paella_core::{OccupancyTracker, StreamKind};
use paella_gpu::{BlockFootprint, SmLimits, SmUsage};

/// One recorded operation in the [`StreamOracle`].
#[derive(Clone, Debug)]
struct Op {
    stream: u32,
    kind: StreamKind,
    token: u64,
    seq: usize,
    deps: Vec<u64>,
    released: bool,
    retired: bool,
}

/// Brute-force reference implementation of CUDA stream semantics.
///
/// Mirrors the [`paella_core::Waitlist`] API closely enough for lockstep
/// property testing, but recomputes the active set and the wait graph from
/// scratch on every query.
#[derive(Default, Debug)]
pub struct StreamOracle {
    ops: Vec<Op>,
    released_tokens: HashSet<u64>,
}

impl StreamOracle {
    /// Creates an empty oracle.
    pub fn new() -> Self {
        StreamOracle::default()
    }

    /// Records an op issued on `stream` (of declared `kind`) with explicit
    /// dependencies `deps`. Returns whether the op is immediately active, or
    /// `Err(token)` if admitting it would close a wait cycle — in which case
    /// the oracle state is unchanged.
    pub fn push(
        &mut self,
        stream: u32,
        kind: StreamKind,
        token: u64,
        deps: &[u64],
    ) -> Result<bool, u64> {
        let seq = self.ops.len();
        self.ops.push(Op {
            stream,
            kind,
            token,
            seq,
            deps: deps.to_vec(),
            released: false,
            retired: false,
        });
        if self.has_wait_cycle() {
            self.ops.pop();
            return Err(token);
        }
        Ok(self.is_active(self.ops.len() - 1))
    }

    /// Every unreleased op index that op `i` waits on — all edges of the
    /// waits-on relation, with no transitivity shortcuts:
    ///
    /// * every earlier unreleased op on the same stream (FIFO);
    /// * every earlier unreleased op across the default↔blocking
    ///   serialization;
    /// * every unsatisfied explicit dep that currently names an unreleased
    ///   op (last push wins for duplicate tokens, incl. a self-loop for a
    ///   self-dependency).
    fn waits_on(&self, i: usize) -> Vec<usize> {
        let op = &self.ops[i];
        let mut out = Vec::new();
        let mut by_token: HashMap<u64, usize> = HashMap::new();
        for (j, o) in self.ops.iter().enumerate() {
            if !o.released {
                by_token.insert(o.token, j);
            }
        }
        for (j, o) in self.ops.iter().enumerate() {
            if j == i || o.released || o.seq >= op.seq {
                continue;
            }
            if o.stream == op.stream {
                out.push(j);
                continue;
            }
            let serialized = matches!(
                (op.kind, o.kind),
                (StreamKind::Default, StreamKind::Blocking)
                    | (StreamKind::Blocking, StreamKind::Default)
            );
            if serialized {
                out.push(j);
            }
        }
        for d in &op.deps {
            if self.released_tokens.contains(d) {
                continue;
            }
            if let Some(&j) = by_token.get(d) {
                if !out.contains(&j) {
                    out.push(j);
                }
            }
        }
        out
    }

    /// Whether the waits-on graph over unreleased ops has any cycle, by
    /// Kahn's algorithm. Since every push is checked, the pre-push state is
    /// acyclic, so any cycle found passes through the newest op.
    fn has_wait_cycle(&self) -> bool {
        let live: Vec<usize> = (0..self.ops.len())
            .filter(|&i| !self.ops[i].released)
            .collect();
        let mut indeg: HashMap<usize, usize> = live.iter().map(|&i| (i, 0)).collect();
        let mut waiters: HashMap<usize, Vec<usize>> = HashMap::new();
        for &i in &live {
            for j in self.waits_on(i) {
                *indeg.get_mut(&i).expect("live index") += 1;
                waiters.entry(j).or_default().push(i);
            }
        }
        let mut queue: Vec<usize> = live.iter().copied().filter(|i| indeg[i] == 0).collect();
        let mut removed = 0usize;
        while let Some(j) = queue.pop() {
            removed += 1;
            for &i in waiters.get(&j).into_iter().flatten() {
                let d = indeg.get_mut(&i).expect("live index");
                *d -= 1;
                if *d == 0 {
                    queue.push(i);
                }
            }
        }
        removed != live.len()
    }

    fn is_active(&self, i: usize) -> bool {
        !self.ops[i].released
            && self.waits_on(i).is_empty()
            && self.ops[i]
                .deps
                .iter()
                .all(|d| self.released_tokens.contains(d))
    }

    /// The active token set, in stream-id order (matching
    /// [`paella_core::Waitlist::active`]).
    pub fn active(&self) -> Vec<u64> {
        let mut streams: Vec<u32> = self
            .ops
            .iter()
            .filter(|o| !o.retired)
            .map(|o| o.stream)
            .collect();
        streams.sort_unstable();
        streams.dedup();
        let mut out = Vec::new();
        for s in streams {
            let front = (0..self.ops.len())
                .filter(|&i| self.ops[i].stream == s && !self.ops[i].released)
                .min_by_key(|&i| self.ops[i].seq);
            if let Some(i) = front {
                if self.is_active(i) {
                    out.push(self.ops[i].token);
                }
            }
        }
        out
    }

    /// Releases the front unreleased op holding `token`, returning tokens
    /// that became active as a result.
    ///
    /// # Panics
    ///
    /// Panics if no unreleased op holds `token`.
    pub fn release(&mut self, token: u64) -> Vec<u64> {
        let before = self.active();
        let i = (0..self.ops.len())
            .filter(|&i| !self.ops[i].released && self.ops[i].token == token)
            .min_by_key(|&i| self.ops[i].seq)
            .expect("oracle: release of unknown token");
        self.ops[i].released = true;
        self.released_tokens.insert(token);
        self.active()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect()
    }

    /// Retires a previously released op holding `token`.
    ///
    /// # Panics
    ///
    /// Panics if no released-but-unretired op holds `token`.
    pub fn retire(&mut self, token: u64) {
        let i = (0..self.ops.len())
            .filter(|&i| self.ops[i].released && !self.ops[i].retired && self.ops[i].token == token)
            .min_by_key(|&i| self.ops[i].seq)
            .expect("oracle: retire of unknown token");
        self.ops[i].retired = true;
    }

    /// Releases and retires in one step, mirroring
    /// [`paella_core::Waitlist::complete`].
    pub fn complete(&mut self, token: u64) -> Vec<u64> {
        let newly = self.release(token);
        self.retire(token);
        newly
    }

    /// Ops still tracked (released-but-running included).
    pub fn len(&self) -> usize {
        self.ops.iter().filter(|o| !o.retired).count()
    }

    /// Whether no tracked ops remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Ground truth for one launched kernel in the [`ConservationOracle`].
#[derive(Clone, Debug)]
struct OKernel {
    footprint: BlockFootprint,
    total: u32,
    placed: u32,
    completed: u32,
    per_sm: HashMap<u8, u32>,
}

/// Ground-truth block accounting for [`OccupancyTracker`] under a
/// *well-formed* event stream (placements fit, completions only complete
/// placed blocks). Feeding it a malformed event panics — the oracle defines
/// what the hardware could legally report, while the tracker must merely
/// stay safe (see [`ConservationOracle::check_safety`]) when reports are
/// lost or corrupted.
#[derive(Debug)]
pub struct ConservationOracle {
    num_sms: u32,
    limits: SmLimits,
    kernels: HashMap<u32, OKernel>,
}

impl ConservationOracle {
    /// Creates an oracle for a device with `num_sms` SMs of the given limits.
    pub fn new(num_sms: u32, limits: SmLimits) -> Self {
        ConservationOracle {
            num_sms,
            limits,
            kernels: HashMap::new(),
        }
    }

    /// Records a kernel launch.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate uid.
    pub fn on_launch(&mut self, uid: u32, footprint: BlockFootprint, blocks: u32) {
        let prev = self.kernels.insert(
            uid,
            OKernel {
                footprint,
                total: blocks,
                placed: 0,
                completed: 0,
                per_sm: HashMap::new(),
            },
        );
        assert!(prev.is_none(), "oracle: kernel {uid} launched twice");
    }

    /// Records `g` blocks of `uid` being placed on `sm`.
    ///
    /// # Panics
    ///
    /// Panics if the placement is malformed: unknown kernel, more blocks
    /// than remain unplaced, or more than fit on the SM.
    pub fn on_placement(&mut self, sm: u8, uid: u32, g: u16) {
        let usage = self.sm_usage(sm);
        let k = self
            .kernels
            .get_mut(&uid)
            .expect("oracle: placement for unknown kernel");
        let g = u32::from(g);
        assert!(
            g <= k.total - k.placed,
            "oracle: placing {g} blocks but only {} unplaced",
            k.total - k.placed
        );
        assert!(
            g <= usage.fit_count(&k.footprint, &self.limits),
            "oracle: placement exceeds SM {sm} capacity"
        );
        k.placed += g;
        *k.per_sm.entry(sm).or_insert(0) += g;
    }

    /// Records `g` blocks of `uid` finishing on `sm`. The kernel is dropped
    /// once all its blocks completed, mirroring the tracker.
    ///
    /// # Panics
    ///
    /// Panics if more blocks complete on `sm` than were placed there.
    pub fn on_completion(&mut self, sm: u8, uid: u32, g: u16) {
        let k = self
            .kernels
            .get_mut(&uid)
            .expect("oracle: completion for unknown kernel");
        let g = u32::from(g);
        let on_sm = k.per_sm.entry(sm).or_insert(0);
        assert!(
            g <= *on_sm,
            "oracle: completing {g} blocks on SM {sm} but only {on_sm} resident"
        );
        *on_sm -= g;
        k.completed += g;
        if k.completed == k.total {
            self.kernels.remove(&uid);
        }
    }

    /// Records the host-side kernel-completed reconciliation: everything the
    /// kernel still holds is gone.
    pub fn on_kernel_completed(&mut self, uid: u32) {
        self.kernels.remove(&uid);
    }

    /// Ground-truth launched-but-unplaced block count.
    pub fn unplaced(&self) -> u64 {
        self.kernels
            .values()
            .map(|k| u64::from(k.total - k.placed))
            .sum()
    }

    /// Ground-truth resident block count.
    pub fn resident(&self) -> u64 {
        self.kernels
            .values()
            .flat_map(|k| k.per_sm.values())
            .map(|&n| u64::from(n))
            .sum()
    }

    /// Ground-truth usage of one SM, summed over all live kernels.
    pub fn sm_usage(&self, sm: u8) -> SmUsage {
        let mut u = SmUsage::default();
        for k in self.kernels.values() {
            let n = k.per_sm.get(&sm).copied().unwrap_or(0);
            if n > 0 {
                u.blocks += n;
                u.threads += n * k.footprint.threads;
                u.registers += n * k.footprint.registers();
                u.shmem += n * k.footprint.shmem;
            }
        }
        u
    }

    /// Compares the tracker's mirror against ground truth, field by field.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence found.
    pub fn verify(&self, t: &OccupancyTracker) -> Result<(), String> {
        if t.unplaced_blocks() != self.unplaced() {
            return Err(format!(
                "unplaced: tracker {} != oracle {}",
                t.unplaced_blocks(),
                self.unplaced()
            ));
        }
        if t.resident_blocks() != self.resident() {
            return Err(format!(
                "resident: tracker {} != oracle {}",
                t.resident_blocks(),
                self.resident()
            ));
        }
        if t.tracked_kernels() != self.kernels.len() {
            return Err(format!(
                "tracked kernels: tracker {} != oracle {}",
                t.tracked_kernels(),
                self.kernels.len()
            ));
        }
        for sm in 0..self.num_sms {
            let (got, want) = (t.sm_usage(sm as u8), self.sm_usage(sm as u8));
            if got != want {
                return Err(format!("SM {sm} usage: tracker {got:?} != oracle {want:?}"));
            }
        }
        for (&uid, k) in &self.kernels {
            if t.fully_placed(uid) != (k.placed == k.total) {
                return Err(format!(
                    "fully_placed({uid}): tracker {} != oracle {}",
                    t.fully_placed(uid),
                    k.placed == k.total
                ));
            }
        }
        Self::check_safety(t, self.num_sms, &self.limits)
    }

    /// Safety bounds that must hold for *any* input, including lost,
    /// duplicated, or garbage notifications: no SM exceeds its static
    /// limits, and residency equals the per-SM block sum.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated bound.
    pub fn check_safety(
        t: &OccupancyTracker,
        num_sms: u32,
        limits: &SmLimits,
    ) -> Result<(), String> {
        let mut total_blocks = 0u64;
        for sm in 0..num_sms {
            let u = t.sm_usage(sm as u8);
            if u.blocks > limits.max_blocks
                || u.threads > limits.max_threads
                || u.registers > limits.max_registers
                || u.shmem > limits.max_shmem
            {
                return Err(format!("SM {sm} exceeds Table-1 limits: {u:?}"));
            }
            total_blocks += u64::from(u.blocks);
        }
        if total_blocks != t.resident_blocks() {
            return Err(format!(
                "residency desync: per-SM sum {total_blocks} != resident {}",
                t.resident_blocks()
            ));
        }
        Ok(())
    }
}

/// The journey-conservation oracle (DESIGN §12): re-checks, from the raw
/// trace, that every [`JobJourney`] event is internally exact and consistent
/// with its job's [`JobEnd`] — the naive transcription of the phase
/// decomposition's contract, with no tolerance:
///
/// * the eight journey phases sum *exactly* to the journey's JCT;
/// * a `JobEnd` exists for the same job, with identical JCT and identical
///   first-level phases (client, communication, framework, device);
/// * the four queue sub-phases sum exactly to `JobEnd`'s
///   `queuing_scheduling_ns` — the second-level split conserves the first;
/// * every ended job has exactly one journey, and vice versa.
///
/// Returns the number of journeys checked.
///
/// # Errors
///
/// Returns a description of the first violation found.
///
/// [`JobJourney`]: paella_telemetry::TraceEvent::JobJourney
/// [`JobEnd`]: paella_telemetry::TraceEvent::JobEnd
pub fn check_journeys(log: &paella_telemetry::TraceLog) -> Result<usize, String> {
    use paella_telemetry::{JobEnd, TraceEvent};
    let mut ends: HashMap<u64, JobEnd> = HashMap::new();
    for e in &log.events {
        if let TraceEvent::JobEnd(end) = &e.event {
            if ends.insert(end.job, **end).is_some() {
                return Err(format!("job {}: duplicate JobEnd", end.job));
            }
        }
    }
    let mut checked = 0usize;
    for j in paella_telemetry::extract_journeys(log) {
        let b = j.breakdown;
        b.check_conservation()
            .map_err(|e| format!("job {}: {e}", j.job))?;
        b.check_device_split()
            .map_err(|e| format!("job {}: {e}", j.job))?;
        let Some(end) = ends.remove(&j.job) else {
            return Err(format!("job {}: journey without a JobEnd", j.job));
        };
        if b.jct_ns != end.jct_ns {
            return Err(format!(
                "job {}: journey jct {} != JobEnd {}",
                j.job, b.jct_ns, end.jct_ns
            ));
        }
        let first_level = [
            (
                "client_send_recv",
                b.client_send_recv_ns,
                end.client_send_recv_ns,
            ),
            ("communication", b.communication_ns, end.communication_ns),
            ("framework", b.framework_ns, end.framework_ns),
            ("device", b.device_ns, end.device_ns),
        ];
        for (name, got, want) in first_level {
            if got != want {
                return Err(format!(
                    "job {}: journey {name} {got} != JobEnd {want}",
                    j.job
                ));
            }
        }
        let queue_sum = b.retry_backoff_ns + b.queue_dep_ns + b.queue_occupancy_ns + b.queue_hol_ns;
        if queue_sum != end.queuing_scheduling_ns {
            return Err(format!(
                "job {}: queue sub-phases sum {queue_sum} != JobEnd queuing {}",
                j.job, end.queuing_scheduling_ns
            ));
        }
        checked += 1;
    }
    if let Some(&job) = ends.keys().min() {
        return Err(format!("job {job}: JobEnd without a journey"));
    }
    Ok(checked)
}

/// Independent ledger for the LLM tier's paged KV-cache, replayed from
/// [`KvAlloc`] events. The production [`KvPool`] maintains its counters
/// incrementally; this oracle re-derives residency per job and pool-wide
/// from nothing but the event stream, so a divergence pinpoints which side
/// lost a page:
///
/// * every event's reported pool-wide `resident` must equal the ledger's;
/// * a free may never exceed the job's held pages (double-free / over-free
///   on cancel or preempt);
/// * lifetime conservation: `allocated == freed + resident` at every step.
///
/// [`KvAlloc`]: paella_telemetry::TraceEvent::KvAlloc
/// [`KvPool`]: https://docs.rs/paella-llm
#[derive(Default, Debug)]
pub struct KvOracle {
    held: HashMap<u64, u64>,
    resident: u64,
    allocated: u64,
    freed: u64,
}

impl KvOracle {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        KvOracle::default()
    }

    /// Replays one [`KvAlloc`](paella_telemetry::TraceEvent::KvAlloc)
    /// event.
    ///
    /// # Errors
    ///
    /// Returns a description of the divergence: over-free of `job`, or the
    /// reported pool-wide residency disagreeing with the ledger.
    pub fn on_event(
        &mut self,
        job: u64,
        pages: u64,
        freed: bool,
        reported_resident: u64,
    ) -> Result<(), String> {
        if freed {
            let held = self.held.get(&job).copied().unwrap_or(0);
            if pages > held {
                return Err(format!(
                    "job {job}: freeing {pages} KV pages but only {held} held (double-free)"
                ));
            }
            if pages == held {
                self.held.remove(&job);
            } else {
                *self.held.get_mut(&job).expect("held > 0") -= pages;
            }
            self.resident -= pages;
            self.freed += pages;
        } else {
            *self.held.entry(job).or_insert(0) += pages;
            self.resident += pages;
            self.allocated += pages;
        }
        if reported_resident != self.resident {
            return Err(format!(
                "job {job}: pool reports {reported_resident} resident pages, ledger says {}",
                self.resident
            ));
        }
        if self.allocated != self.freed + self.resident {
            return Err(format!(
                "KV conservation violated in ledger: allocated {} != freed {} + resident {}",
                self.allocated, self.freed, self.resident
            ));
        }
        Ok(())
    }

    /// Pool-wide resident pages per the ledger.
    pub fn resident(&self) -> u64 {
        self.resident
    }

    /// Lifetime `(allocated, freed)` totals per the ledger — compare with
    /// the production pool's.
    pub fn lifetime(&self) -> (u64, u64) {
        (self.allocated, self.freed)
    }

    /// Checks that every page went home: no job holds KV and the pool is
    /// empty. Holds after any run that completed, failed, or cancelled all
    /// its requests.
    ///
    /// # Errors
    ///
    /// Returns the first job still holding pages, or the residual count.
    pub fn check_drained(&self) -> Result<(), String> {
        if let Some((&job, &pages)) = self.held.iter().min() {
            return Err(format!("job {job}: {pages} KV pages leaked"));
        }
        if self.resident != 0 {
            return Err(format!("{} KV pages resident with no owner", self.resident));
        }
        Ok(())
    }
}

/// Replays every [`KvAlloc`] event in `log` through a fresh [`KvOracle`]
/// and checks that the stream drains. Returns the number of events
/// replayed.
///
/// # Errors
///
/// Returns the first per-event divergence or the final leak.
///
/// [`KvAlloc`]: paella_telemetry::TraceEvent::KvAlloc
pub fn check_kv(log: &paella_telemetry::TraceLog) -> Result<usize, String> {
    use paella_telemetry::TraceEvent;
    let mut oracle = KvOracle::new();
    let mut replayed = 0usize;
    for e in &log.events {
        if let TraceEvent::KvAlloc {
            job,
            pages,
            freed,
            resident,
        } = e.event
        {
            oracle.on_event(job, pages, freed, resident)?;
            replayed += 1;
        }
    }
    oracle.check_drained()?;
    Ok(replayed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_channels::Notification;
    use paella_core::{VStream, Waitlist};

    fn fp() -> BlockFootprint {
        BlockFootprint {
            threads: 128,
            regs_per_thread: 9,
            shmem: 0,
        }
    }

    #[test]
    fn oracle_reproduces_default_stream_serialization() {
        let mut o = StreamOracle::new();
        assert!(o.push(0, StreamKind::Default, 1, &[]).unwrap());
        assert!(!o.push(1, StreamKind::Blocking, 2, &[]).unwrap());
        assert_eq!(o.active(), vec![1]);
        assert_eq!(o.complete(1), vec![2]);
    }

    #[test]
    fn oracle_nonblocking_ignores_default() {
        let mut o = StreamOracle::new();
        assert!(o.push(0, StreamKind::Default, 1, &[]).unwrap());
        assert!(o.push(7, StreamKind::NonBlocking, 2, &[]).unwrap());
        assert_eq!(o.active(), vec![1, 2]);
    }

    #[test]
    fn oracle_rejects_two_op_cycle() {
        let mut o = StreamOracle::new();
        assert!(!o.push(1, StreamKind::Blocking, 1, &[2]).unwrap());
        assert_eq!(o.push(2, StreamKind::Blocking, 2, &[1]), Err(2));
        assert_eq!(o.len(), 1, "rejected op leaves no trace");
        assert_eq!(o.push(2, StreamKind::Blocking, 2, &[]), Ok(true));
    }

    #[test]
    fn oracle_rejects_self_dependency() {
        let mut o = StreamOracle::new();
        assert_eq!(o.push(1, StreamKind::Blocking, 7, &[7]), Err(7));
        assert!(o.is_empty());
    }

    #[test]
    fn oracle_agrees_with_waitlist_on_scripted_scenario() {
        // The Fig. 7 composite: blocking, default, blocking, plus a
        // cross-stream join — drained in activation order, both sides in
        // lockstep.
        let mut w = Waitlist::new();
        let mut o = StreamOracle::new();
        let script: [(u32, StreamKind, u64, &[u64]); 4] = [
            (1, StreamKind::Blocking, 1, &[]),
            (0, StreamKind::Default, 2, &[]),
            (2, StreamKind::Blocking, 3, &[]),
            (3, StreamKind::Blocking, 4, &[1, 3]),
        ];
        for &(s, kind, tok, deps) in &script {
            w.declare_stream(VStream(s), kind);
            let got = w.push_with_deps(VStream(s), tok, deps).unwrap();
            let want = o.push(s, kind, tok, deps).unwrap();
            assert_eq!(got, want, "push({tok}) activity");
            assert_eq!(w.active(), o.active());
        }
        for tok in [1u64, 2, 3, 4] {
            let s = VStream(script[tok as usize - 1].0);
            assert_eq!(w.complete(s, tok), o.complete(tok), "complete({tok})");
            assert_eq!(w.active(), o.active());
        }
        assert!(w.is_empty() && o.is_empty());
    }

    #[test]
    fn conservation_oracle_agrees_with_tracker() {
        let mut t = OccupancyTracker::new(4, SmLimits::TURING);
        let mut o = ConservationOracle::new(4, SmLimits::TURING);
        t.on_launch(1, fp(), 16);
        o.on_launch(1, fp(), 16);
        o.verify(&t).unwrap();
        for sm in 0..2u8 {
            t.on_notification(Notification::placement(sm, 1, 8));
            o.on_placement(sm, 1, 8);
            o.verify(&t).unwrap();
        }
        t.on_notification(Notification::completion(0, 1, 8));
        o.on_completion(0, 1, 8);
        o.verify(&t).unwrap();
        t.on_kernel_completed(1);
        o.on_kernel_completed(1);
        o.verify(&t).unwrap();
        assert_eq!(o.resident(), 0);
    }

    fn journey_log(queue_split: [u64; 4]) -> paella_telemetry::TraceLog {
        use paella_sim::SimTime;
        use paella_telemetry::{JobEnd, JobJourney, TraceEvent, TracedEvent};
        let queuing: u64 = queue_split.iter().sum();
        paella_telemetry::TraceLog {
            events: vec![
                TracedEvent {
                    at: SimTime::from_micros(5),
                    seq: 0,
                    event: TraceEvent::JobEnd(Box::new(JobEnd {
                        job: 1,
                        client: 0,
                        jct_ns: 1_000 + queuing,
                        client_send_recv_ns: 100,
                        communication_ns: 200,
                        queuing_scheduling_ns: queuing,
                        framework_ns: 300,
                        device_ns: 400,
                    })),
                },
                TracedEvent {
                    at: SimTime::from_micros(5),
                    seq: 1,
                    event: TraceEvent::JobJourney(Box::new(JobJourney {
                        job: 1,
                        client: 0,
                        jct_ns: 1_000 + queuing,
                        client_send_recv_ns: 100,
                        communication_ns: 200,
                        framework_ns: 300,
                        device_ns: 400,
                        retry_backoff_ns: queue_split[0],
                        queue_dep_ns: queue_split[1],
                        queue_occupancy_ns: queue_split[2],
                        queue_hol_ns: queue_split[3],
                        device_prefill_ns: 400,
                        device_decode_ns: 0,
                    })),
                },
            ],
        }
    }

    #[test]
    fn journey_oracle_accepts_exact_and_rejects_slack() {
        let good = journey_log([10, 20, 30, 40]);
        assert_eq!(check_journeys(&good), Ok(1));

        // Inflate one queue sub-phase: conservation breaks with no slack
        // allowed, and the error names the delta.
        let mut bad = journey_log([10, 20, 30, 40]);
        if let paella_telemetry::TraceEvent::JobJourney(j) = &mut bad.events[1].event {
            j.queue_hol_ns += 1;
        }
        let err = check_journeys(&bad).unwrap_err();
        assert!(err.contains("delta"), "{err}");

        // A journey without its JobEnd is an orphan.
        let mut orphan = journey_log([0, 0, 0, 0]);
        orphan.events.remove(0);
        assert!(check_journeys(&orphan)
            .unwrap_err()
            .contains("without a JobEnd"));

        // And a JobEnd without its journey is a hole in coverage.
        let mut hole = journey_log([0, 0, 0, 0]);
        hole.events.remove(1);
        assert!(check_journeys(&hole)
            .unwrap_err()
            .contains("without a journey"));
    }

    #[test]
    fn conservation_oracle_rejects_malformed_placement() {
        let mut o = ConservationOracle::new(1, SmLimits::TURING);
        o.on_launch(1, fp(), 4);
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            o.on_placement(0, 1, 5);
        }));
        assert!(err.is_err(), "over-placement must panic");
    }
}
