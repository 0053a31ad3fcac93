//! Job schedulers (§6).
//!
//! The dispatcher asks its scheduler one question, repeatedly: *which ready
//! job's next kernel should be dispatched now?* Because scheduling runs on
//! the dispatcher's critical path at per-kernel granularity, implementations
//! must be cheap (Fig. 9 shows throughput collapsing once per-decision cost
//! grows past ~10 µs).
//!
//! Provided policies (Table 3):
//!
//! * [`FifoScheduler`] — job arrival order (Paella-SS/jbj ablations).
//! * [`SjfScheduler`] — shortest *total* estimated job time first.
//! * [`RrScheduler`] — round-robin over ready jobs.
//! * [`SrptDeficitScheduler`] — the default: shortest *remaining* processing
//!   time, bounded by per-client deficit counters for fairness.

use std::collections::{BTreeMap, VecDeque};

use paella_sim::{IdMap, SimDuration, SimTime};
pub use paella_telemetry::PickRationale;

use crate::types::{ClientId, JobId};

/// Everything a policy may consider about a ready job.
#[derive(Clone, Copy, Debug)]
pub struct JobInfo {
    /// The job. Ids are expected to be minted densely — from a counter, as
    /// `Dispatcher` and `LlmEngine` do — because the provided policies index
    /// ready jobs in an [`IdMap`], whose window spans oldest to newest
    /// ready id.
    pub job: JobId,
    /// Submitting client (for fairness accounting).
    pub client: ClientId,
    /// Arrival time at the dispatcher.
    pub arrival: SimTime,
    /// Estimated total processing time of the whole job (at arrival).
    pub total_estimate: SimDuration,
    /// Estimated remaining processing time right now.
    pub remaining_estimate: SimDuration,
}

/// A job-selection policy.
///
/// Contract: between [`job_ready`](Scheduler::job_ready) and
/// [`job_blocked`](Scheduler::job_blocked)/[`job_done`](Scheduler::job_done),
/// a job is *ready* and may be returned by
/// [`pick_next`](Scheduler::pick_next). `remaining_changed` informs the
/// policy of estimate updates for a currently-ready job.
pub trait Scheduler {
    /// A job became ready (its next kernel may be dispatched).
    fn job_ready(&mut self, info: JobInfo);

    /// A ready job became blocked (its kernel was dispatched; the next one
    /// is not yet eligible) or was removed.
    fn job_blocked(&mut self, job: JobId);

    /// A job finished entirely.
    fn job_done(&mut self, job: JobId) {
        self.job_blocked(job);
    }

    /// A ready job's remaining-time estimate changed.
    fn remaining_changed(&mut self, job: JobId, remaining: SimDuration);

    /// A kernel of `job` was dispatched (fairness accounting hook). The job
    /// is still ready at the time of the call.
    fn on_dispatched(&mut self, _job: JobId) {}

    /// A client has no jobs left in the system (deficit-round-robin style
    /// bookkeeping resets its credit so stale imbalance cannot accumulate).
    fn client_idle(&mut self, _client: ClientId) {}

    /// Picks the next job to dispatch a kernel for, without removing it.
    fn pick_next(&mut self) -> Option<JobId>;

    /// Like [`pick_next`](Scheduler::pick_next), but also says *why* the job
    /// won — the rationale recorded on telemetry
    /// [`SchedDecision`](paella_telemetry::TraceEvent::SchedDecision) events.
    /// The default maps the policy name to its single rationale; policies
    /// with more than one pick path (e.g. deficit overrides) override this.
    fn pick_next_explained(&mut self) -> Option<(JobId, PickRationale)> {
        let rationale = match self.name() {
            "fifo" => PickRationale::ArrivalOrder,
            "sjf" => PickRationale::ShortestTotal,
            "rr" => PickRationale::RoundRobin,
            _ => PickRationale::ShortestRemaining,
        };
        self.pick_next().map(|job| (job, rationale))
    }

    /// Number of currently ready jobs.
    fn ready_len(&self) -> usize;

    /// Policy name, for reports.
    fn name(&self) -> &'static str;
}

// ---------------------------------------------------------------------------
// FIFO, SJF, SRPT: one ready-set under three ranks
// ---------------------------------------------------------------------------

// What a [`RankedScheduler`] orders its ready jobs by (plain `u8`s: a const
// generic cannot be an enum on stable Rust).
const ARRIVAL: u8 = 0;
const TOTAL: u8 = 1;
const REMAINING: u8 = 2;

/// First-come-first-served over job arrival times.
pub type FifoScheduler = RankedScheduler<ARRIVAL>;

/// Shortest (total) job first; ties break on arrival.
pub type SjfScheduler = RankedScheduler<TOTAL>;

/// The §6 default policy: shortest remaining time first, bounded by
/// per-client deficit counters when built with a fairness threshold.
///
/// Dispatching a kernel charges the picked client `1 − 1/#clients` and
/// credits every other client `1/#clients` — realized O(1) by shifting a
/// global baseline instead of touching every counter. When a client's
/// deficit exceeds the threshold, its *oldest* ready job is picked instead
/// of the SRPT winner.
pub type SrptDeficitScheduler = RankedScheduler<REMAINING>;

/// The ready jobs in rank order; the pick is the first of them.
///
/// Arbitration is "which ready job next" (SET, PAPERS.md), so FIFO, SJF and
/// SRPT are one ordered set and differ only in the key it is ordered by —
/// `(arrival, 0)`, `(total, arrival)` and `(remaining, 0)`, ties on the job
/// id. Deficit fairness rides on top of the SRPT rank only.
#[derive(Debug, Default)]
pub struct RankedScheduler<const BY: u8> {
    /// Ready jobs by [`key`](Self::key) of the `JobInfo` recorded in `jobs`,
    /// so a job's entry here is always derivable from there.
    order: ReadyHeap<(u64, u64), IN_ORDER>,
    /// The ready jobs, by id (minted densely, see [`JobInfo::job`]).
    jobs: IdMap<Ready>,
    /// Deficit state; only an SRPT scheduler built with a threshold has it.
    fairness: Option<Fairness>,
}

/// A ready job and where it sits in the two heaps that hold it.
#[derive(Debug)]
struct Ready {
    info: JobInfo,
    /// Its index in `order` (`at[IN_ORDER]`) and in its client's `ready`
    /// heap (`at[IN_CLIENT]`, unused without fairness).
    at: [usize; 2],
}

const IN_ORDER: usize = 0;
const IN_CLIENT: usize = 1;

/// A binary min-heap of `(key, job)` that writes each entry's index into
/// `at[SLOT]` of the job's [`Ready`] record, so any job — not only the
/// minimum — leaves in O(log n). Entries are unique (a job is in a heap at
/// most once), so the minimum is the first element of the same total order
/// an ordered set would keep. Emptying it keeps its capacity: a lone job
/// cycling through ready and blocked allocates nothing.
#[derive(Debug)]
struct ReadyHeap<K, const SLOT: usize> {
    heap: Vec<(K, JobId)>,
}

impl<K, const SLOT: usize> Default for ReadyHeap<K, SLOT> {
    fn default() -> Self {
        ReadyHeap { heap: Vec::new() }
    }
}

impl<K: Ord + Copy, const SLOT: usize> ReadyHeap<K, SLOT> {
    fn first(&self) -> Option<JobId> {
        self.heap.first().map(|&(_, job)| job)
    }

    fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Adds `job`, whose record must already be in `jobs`.
    fn push(&mut self, key: K, job: JobId, jobs: &mut IdMap<Ready>) {
        self.heap.push((key, job));
        self.sift_up(self.heap.len() - 1, jobs);
    }

    /// Removes the entry at index `i` (a record's `at[SLOT]`).
    fn remove(&mut self, i: usize, jobs: &mut IdMap<Ready>) {
        // invariant: `i` is the index of a live entry.
        let last = self.heap.pop().expect("heap holds entry i");
        if i < self.heap.len() {
            self.heap[i] = last;
            self.restore(i, jobs);
        }
    }

    /// Gives the entry at index `i` a new key.
    fn rekey(&mut self, i: usize, key: K, jobs: &mut IdMap<Ready>) {
        self.heap[i].0 = key;
        self.restore(i, jobs);
    }

    /// Moves the entry at `i` up or down to where its key belongs.
    fn restore(&mut self, i: usize, jobs: &mut IdMap<Ready>) {
        if i > 0 && self.heap[i] < self.heap[(i - 1) / 2] {
            self.sift_up(i, jobs);
        } else {
            self.sift_down(i, jobs);
        }
    }

    fn sift_up(&mut self, mut i: usize, jobs: &mut IdMap<Ready>) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent] < entry {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.place(i, jobs);
            i = parent;
        }
        self.heap[i] = entry;
        self.place(i, jobs);
    }

    fn sift_down(&mut self, mut i: usize, jobs: &mut IdMap<Ready>) {
        let entry = self.heap[i];
        let n = self.heap.len();
        loop {
            let left = 2 * i + 1;
            if left >= n {
                break;
            }
            let right = left + 1;
            let child = if right < n && self.heap[right] < self.heap[left] {
                right
            } else {
                left
            };
            if entry < self.heap[child] {
                break;
            }
            self.heap[i] = self.heap[child];
            self.place(i, jobs);
            i = child;
        }
        self.heap[i] = entry;
        self.place(i, jobs);
    }

    /// Records in the job's record that its entry is now at index `i`.
    fn place(&self, i: usize, jobs: &mut IdMap<Ready>) {
        let job = self.heap[i].1;
        // invariant: a job is in a heap only while its record is in `jobs`.
        jobs.get_mut(job.0).expect("heaped job has a record").at[SLOT] = i;
    }
}

/// Per-client deficit counters and the threshold that bounds them.
#[derive(Debug, Default)]
struct Fairness {
    /// Fairness threshold (µs-equivalent units of deficit).
    threshold: f64,
    /// Per-client state. A `BTreeMap` so the fairness argmax walks clients
    /// in client-id order and same-seed runs agree across processes.
    /// Entries are never removed: a client that went idle keeps its (reset)
    /// counter.
    clients: BTreeMap<ClientId, ClientState>,
    /// How many `clients` have at least one ready job: the `#clients` a
    /// charge divides by, kept on each client's empty ↔ non-empty change.
    ready_clients: usize,
    /// Global deficit baseline: true_deficit(c) = raw(c) − baseline.
    baseline: f64,
}

#[derive(Debug, Default)]
struct ClientState {
    raw_deficit: f64,
    /// Ready jobs of this client, oldest first.
    ready: ReadyHeap<SimTime, IN_CLIENT>,
}

impl Fairness {
    /// The oldest ready job of the client currently over the threshold with
    /// the highest deficit, if any. `clients` is walked in id order and a
    /// later client must be strictly higher to win, so exact-deficit ties
    /// break on the lower client id whatever order clients arrived in.
    fn override_pick(&self) -> Option<JobId> {
        let mut best: Option<(f64, &ClientState)> = None;
        for s in self.clients.values() {
            let d = s.raw_deficit - self.baseline;
            if !s.ready.is_empty() && d > self.threshold && best.is_none_or(|(bd, _)| d > bd) {
                best = Some((d, s));
            }
        }
        let (_, starved) = best?;
        starved.ready.first()
    }

    /// Charges `client` for one dispatched kernel.
    fn charge(&mut self, client: ClientId) {
        let n = self.ready_clients.max(1) as f64;
        // Charged client: −(1 − 1/n); everyone else: +1/n. Realized as
        // raw[c] −= 1 and baseline −= 1/n (an O(1) global credit).
        if let Some(s) = self.clients.get_mut(&client) {
            s.raw_deficit -= 1.0; // sub: f64 deficit, signed by design
        }
        // sub: f64 credit, negative by design; rebased below.
        self.baseline -= 1.0 / n;
        // Periodically rebase to avoid unbounded drift.
        if self.baseline < -1e12 {
            for s in self.clients.values_mut() {
                s.raw_deficit -= self.baseline; // sub: f64 rebase, `baseline < 0` here
            }
            self.baseline = 0.0;
        }
    }
}

impl FifoScheduler {
    /// Creates an empty FIFO scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SjfScheduler {
    /// Creates an empty SJF scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl SrptDeficitScheduler {
    /// Creates the default scheduler with the given fairness threshold
    /// (µs-equivalent units of deficit); `None` disables fairness.
    pub fn new(threshold: Option<f64>) -> Self {
        RankedScheduler {
            fairness: threshold.map(|threshold| Fairness {
                threshold,
                ..Fairness::default()
            }),
            ..Self::default()
        }
    }

    /// Pure SRPT (no fairness bound).
    pub fn srpt_only() -> Self {
        Self::new(None)
    }

    /// Current deficit of a client (test/diagnostic hook).
    pub fn deficit(&self, client: ClientId) -> f64 {
        self.fairness
            .as_ref()
            .and_then(|f| Some(f.clients.get(&client)?.raw_deficit - f.baseline))
            .unwrap_or(0.0)
    }

    /// Records that a kernel of `job` was dispatched, charging fairness
    /// deficits: [`Scheduler::on_dispatched`] under the name callers holding
    /// the concrete type use (the dispatcher goes through the trait).
    pub fn charge(&mut self, job: JobId) {
        self.on_dispatched(job);
    }
}

impl<const BY: u8> RankedScheduler<BY> {
    /// The rank of a job; ties break on its id, the heap entry's second half.
    fn key(info: &JobInfo) -> (u64, u64) {
        match BY {
            ARRIVAL => (info.arrival.as_nanos(), 0),
            TOTAL => (info.total_estimate.as_nanos(), info.arrival.as_nanos()),
            _ => (info.remaining_estimate.as_nanos(), 0),
        }
    }
}

impl<const BY: u8> Scheduler for RankedScheduler<BY> {
    fn job_ready(&mut self, info: JobInfo) {
        // Re-readying with a different remaining-time key must not leave a
        // stale heap entry behind, or `job_blocked` can no longer remove it.
        self.job_blocked(info.job);
        self.jobs.insert(info.job.0, Ready { info, at: [0; 2] });
        self.order.push(Self::key(&info), info.job, &mut self.jobs);
        if let Some(f) = &mut self.fairness {
            // A client seen for the first time starts at raw 0.0, not at
            // the baseline (DESIGN §4b records what that means for late
            // arrivals; changing it moves pick digests).
            let client = f.clients.entry(info.client).or_default();
            if client.ready.is_empty() {
                f.ready_clients += 1;
            }
            client.ready.push(info.arrival, info.job, &mut self.jobs);
        }
    }

    fn job_blocked(&mut self, job: JobId) {
        let Some(Ready { info, at }) = self.jobs.remove(job.0) else {
            return;
        };
        self.order.remove(at[IN_ORDER], &mut self.jobs);
        if let Some(f) = &mut self.fairness {
            if let Some(client) = f.clients.get_mut(&info.client) {
                client.ready.remove(at[IN_CLIENT], &mut self.jobs);
                if client.ready.is_empty() {
                    assert!(f.ready_clients > 0, "census counts this client");
                    f.ready_clients -= 1;
                }
            }
        }
    }

    fn remaining_changed(&mut self, job: JobId, remaining: SimDuration) {
        if let Some(r) = self.jobs.get_mut(job.0) {
            let old = Self::key(&r.info);
            r.info.remaining_estimate = remaining;
            let new = Self::key(&r.info);
            // Only the SRPT rank reads the remaining estimate.
            if new != old {
                let at = r.at[IN_ORDER];
                self.order.rekey(at, new, &mut self.jobs);
            }
        }
    }

    fn on_dispatched(&mut self, job: JobId) {
        if let (Some(f), Some(r)) = (&mut self.fairness, self.jobs.get(job.0)) {
            f.charge(r.info.client);
        }
    }

    fn client_idle(&mut self, client: ClientId) {
        // DRR semantics: an idle client's credit resets, so deficits only
        // reflect *current* contention, not history.
        if let Some(f) = &mut self.fairness {
            if let Some(c) = f.clients.get_mut(&client) {
                c.raw_deficit = f.baseline;
            }
        }
    }

    fn pick_next(&mut self) -> Option<JobId> {
        self.pick_next_explained().map(|(job, _)| job)
    }

    fn pick_next_explained(&mut self) -> Option<(JobId, PickRationale)> {
        if self.jobs.is_empty() {
            // Nothing is ready, so no client is either: skip the argmax.
            return None;
        }
        if let Some(job) = self.fairness.as_ref().and_then(Fairness::override_pick) {
            return Some((job, PickRationale::DeficitOverride));
        }
        let rationale = match BY {
            ARRIVAL => PickRationale::ArrivalOrder,
            TOTAL => PickRationale::ShortestTotal,
            _ => PickRationale::ShortestRemaining,
        };
        self.order.first().map(|job| (job, rationale))
    }

    fn ready_len(&self) -> usize {
        self.jobs.len()
    }

    fn name(&self) -> &'static str {
        match BY {
            ARRIVAL => "fifo",
            TOTAL => "sjf",
            _ if self.fairness.is_some() => "srpt+deficit",
            _ => "srpt",
        }
    }
}

// ---------------------------------------------------------------------------
// Round-robin
// ---------------------------------------------------------------------------

/// Round-robin over ready jobs: each pick rotates the job to the back.
///
/// A job holds at most one slot in the queue. Blocking it leaves the slot
/// where it is, and re-readying it while the slot is still queued reuses
/// that slot; a blocked job's slot is dropped when it reaches the front.
#[derive(Debug, Default)]
pub struct RrScheduler {
    queue: VecDeque<JobId>,
    /// The jobs holding a slot in `queue`, and whether each is ready.
    queued: IdMap<bool>,
    /// How many of `queued` are ready.
    ready: usize,
}

impl RrScheduler {
    /// Creates an empty round-robin scheduler.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Scheduler for RrScheduler {
    fn job_ready(&mut self, info: JobInfo) {
        match self.queued.get_mut(info.job.0) {
            Some(true) => {}
            Some(is_ready) => {
                *is_ready = true;
                self.ready += 1;
            }
            None => {
                self.queued.insert(info.job.0, true);
                self.queue.push_back(info.job);
                self.ready += 1;
            }
        }
    }

    fn job_blocked(&mut self, job: JobId) {
        if let Some(is_ready) = self.queued.get_mut(job.0).filter(|r| **r) {
            *is_ready = false;
            self.ready -= 1; // sub: the job was counted in `ready` until now
        }
    }

    fn remaining_changed(&mut self, _job: JobId, _remaining: SimDuration) {}

    fn pick_next(&mut self) -> Option<JobId> {
        // Drop the slots of jobs no longer ready.
        while let Some(&front) = self.queue.front() {
            if self.queued.get(front.0) == Some(&true) {
                // Rotate so the next pick favours a different job.
                self.queue.rotate_left(1);
                return Some(front);
            }
            self.queue.pop_front();
            self.queued.remove(front.0);
        }
        None
    }

    fn ready_len(&self) -> usize {
        self.ready
    }

    fn name(&self) -> &'static str {
        "rr"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(job: u64, client: u32, arrival_us: u64, total_us: u64, remaining_us: u64) -> JobInfo {
        JobInfo {
            job: JobId(job),
            client: ClientId(client),
            arrival: SimTime::from_micros(arrival_us),
            total_estimate: SimDuration::from_micros(total_us),
            remaining_estimate: SimDuration::from_micros(remaining_us),
        }
    }

    #[test]
    fn fifo_orders_by_arrival() {
        let mut s = FifoScheduler::new();
        s.job_ready(info(2, 0, 20, 5, 5));
        s.job_ready(info(1, 0, 10, 50, 50));
        assert_eq!(s.pick_next(), Some(JobId(1)));
        s.job_blocked(JobId(1));
        assert_eq!(s.pick_next(), Some(JobId(2)));
        s.job_done(JobId(2));
        assert_eq!(s.pick_next(), None);
        assert_eq!(s.ready_len(), 0);
    }

    #[test]
    fn sjf_orders_by_total_estimate() {
        let mut s = SjfScheduler::new();
        s.job_ready(info(1, 0, 10, 100, 100));
        s.job_ready(info(2, 0, 20, 5, 5));
        assert_eq!(s.pick_next(), Some(JobId(2)), "shorter job first");
        // SJF ignores remaining-time updates.
        s.remaining_changed(JobId(1), SimDuration::from_micros(1));
        assert_eq!(s.pick_next(), Some(JobId(2)));
    }

    #[test]
    fn rr_rotates() {
        let mut s = RrScheduler::new();
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(2, 0, 0, 10, 10));
        s.job_ready(info(3, 0, 0, 10, 10));
        let picks: Vec<JobId> = (0..6).map(|_| s.pick_next().unwrap()).collect();
        assert_eq!(
            picks,
            [1, 2, 3, 1, 2, 3].map(JobId).to_vec(),
            "each job served in turn"
        );
        // After six picks the queue is back to [1, 2, 3]; blocking job 2
        // leaves the rotation alternating between jobs 1 and 3.
        s.job_blocked(JobId(2));
        let picks: Vec<JobId> = (0..4).map(|_| s.pick_next().unwrap()).collect();
        assert_eq!(picks, [1, 3, 1, 3].map(JobId).to_vec());
    }

    #[test]
    fn rr_alternates_when_picked_jobs_block_and_come_back() {
        // The dispatcher's cycle: pick a job, block it (its kernel went
        // out), ready it again (the next kernel was released). Each job
        // keeps one queue slot, so two jobs strictly alternate; re-queueing
        // on every re-ready gave 1,2,1,1,2,2,1,1,1,1,2,2 and 14 slots.
        let mut s = RrScheduler::new();
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(2, 0, 0, 10, 10));
        let mut picks = Vec::new();
        for _ in 0..12 {
            let j = s.pick_next().unwrap();
            picks.push(j.0);
            s.job_blocked(j);
            s.job_ready(info(j.0, 0, 0, 10, 10));
            assert!(s.queue.len() <= 2, "queue grew to {}", s.queue.len());
        }
        assert_eq!(picks, [1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2]);
        assert_eq!(s.ready_len(), 2);
    }

    #[test]
    fn rr_duplicate_ready_ignored() {
        let mut s = RrScheduler::new();
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(1, 0, 0, 10, 10));
        assert_eq!(s.ready_len(), 1);
        s.job_blocked(JobId(1));
        assert_eq!(s.pick_next(), None);
    }

    #[test]
    fn srpt_prefers_least_remaining() {
        let mut s = SrptDeficitScheduler::srpt_only();
        s.job_ready(info(1, 0, 0, 100, 80));
        s.job_ready(info(2, 1, 5, 200, 10));
        assert_eq!(s.pick_next(), Some(JobId(2)));
        // Job 1 progresses below job 2.
        s.remaining_changed(JobId(1), SimDuration::from_micros(5));
        assert_eq!(s.pick_next(), Some(JobId(1)));
    }

    #[test]
    fn srpt_tie_breaks_deterministically() {
        let mut s = SrptDeficitScheduler::srpt_only();
        s.job_ready(info(7, 0, 0, 10, 10));
        s.job_ready(info(3, 1, 0, 10, 10));
        assert_eq!(s.pick_next(), Some(JobId(3)), "lower job id wins ties");
    }

    #[test]
    fn deficit_override_tie_breaks_on_lower_client_id() {
        // Both clients sit at deficit 0, over a (pathological) negative
        // threshold, so the override argmax sees an exact tie. It must pick
        // the lower client id, never HashMap iteration order: that order is
        // seeded per process and would break same-seed reproducibility.
        let mut s = SrptDeficitScheduler::new(Some(-0.5));
        s.job_ready(info(1, 7, 10, 100, 100));
        s.job_ready(info(2, 3, 20, 200, 5));
        // SRPT alone would pick job 2 (5 µs remaining); the tied override
        // must pick client 3's oldest job — job 2 belongs to client 3, so
        // give client 3 an older job too.
        s.job_ready(info(4, 3, 5, 300, 300));
        assert_eq!(s.pick_next(), Some(JobId(4)), "client 3's oldest job");
    }

    #[test]
    fn deficit_override_is_insertion_order_invariant() {
        // The R6 regression for the BTreeMap conversion: the override argmax
        // walks `clients`, so build the same three-way exact tie with every
        // permutation of client arrival order and demand identical picks.
        // With seeded-hash storage this disagreed across processes; a
        // BTreeMap walk cannot.
        let perms: [[u32; 3]; 6] = [
            [2, 5, 9],
            [2, 9, 5],
            [5, 2, 9],
            [5, 9, 2],
            [9, 2, 5],
            [9, 5, 2],
        ];
        let mut picks = Vec::new();
        for perm in perms {
            let mut s = SrptDeficitScheduler::new(Some(-0.5));
            for (i, &client) in perm.iter().enumerate() {
                // Job id = client id so the pick identifies the client; all
                // jobs identical otherwise.
                s.job_ready(info(u64::from(client), client, 10 + i as u64, 100, 100));
            }
            picks.push(s.pick_next());
        }
        assert!(
            picks.iter().all(|&p| p == Some(JobId(2))),
            "tied override must pick the lowest client id under every \
             insertion order, got {picks:?}"
        );
    }

    #[test]
    fn deficit_triggers_starved_client() {
        // Client 0 monopolizes via tiny jobs; client 1's long job must be
        // picked once client 1's deficit exceeds the threshold.
        let mut s = SrptDeficitScheduler::new(Some(3.0));
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(2, 1, 0, 1_000, 1_000));
        let mut picked_long = false;
        for _ in 0..20 {
            let j = s.pick_next().unwrap();
            if j == JobId(2) {
                picked_long = true;
                break;
            }
            // Dispatch a kernel of the short job; its remaining stays lowest.
            s.charge(j);
        }
        assert!(picked_long, "deficit must eventually force the long job");
        assert!(s.deficit(ClientId(1)) > 3.0);
    }

    #[test]
    fn zero_threshold_emulates_immediate_fairness() {
        // As the threshold approaches zero the scheduler alternates —
        // the paper notes the system then emulates Paella-SS behaviour.
        let mut s = SrptDeficitScheduler::new(Some(0.4));
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(2, 1, 0, 1_000, 1_000));
        let mut longs = 0;
        for _ in 0..10 {
            let j = s.pick_next().unwrap();
            if j == JobId(2) {
                longs += 1;
            }
            s.charge(j);
        }
        assert!(longs >= 4, "near-zero threshold interleaves, got {longs}");
    }

    #[test]
    fn re_ready_with_new_remaining_leaves_no_ghost() {
        // Regression: a job re-readied with a different remaining estimate
        // must be fully removable; a stale tree entry would make pick_next
        // return it forever.
        let policies: [Box<dyn Scheduler>; 5] = [
            Box::new(FifoScheduler::new()),
            Box::new(SjfScheduler::new()),
            Box::new(RrScheduler::new()),
            Box::new(SrptDeficitScheduler::srpt_only()),
            Box::new(SrptDeficitScheduler::new(Some(100.0))),
        ];
        for mut s in policies {
            s.job_ready(info(1, 0, 0, 100, 100));
            s.job_ready(info(1, 0, 0, 100, 40)); // same job, new remaining
            assert_eq!(s.ready_len(), 1, "{}", s.name());
            s.job_blocked(JobId(1));
            assert_eq!(s.pick_next(), None, "{}: a ghost survived", s.name());
            assert_eq!(s.ready_len(), 0, "{}", s.name());
        }
    }

    #[test]
    fn blocked_client_does_not_trigger_fairness() {
        let mut s = SrptDeficitScheduler::new(Some(1.0));
        s.job_ready(info(1, 0, 0, 10, 10));
        s.job_ready(info(2, 1, 0, 1_000, 1_000));
        for _ in 0..5 {
            s.charge(JobId(1));
        }
        // Client 1's job goes away (blocked): SRPT winner is client 0 again.
        s.job_blocked(JobId(2));
        assert_eq!(s.pick_next(), Some(JobId(1)));
    }
}
