//! The kernel waitlist (Fig. 7, §4.2): the executable model of CUDA stream
//! semantics.
//!
//! The waitlist replaces the CUDA runtime's stream machinery: it tracks
//! which of a job's intercepted operations are *active* (schedulable now)
//! versus *inactive* (waiting on stream ordering), reproducing CUDA stream
//! semantics:
//!
//! * within one stream, operations run in issue order, one at a time;
//! * the **default stream** (stream 0) is serialized against all *blocking*
//!   streams: a stream-0 op waits for earlier-issued in-flight
//!   blocking-stream work, and blocking-stream ops wait for earlier-issued
//!   in-flight stream-0 work;
//! * *non-blocking* streams (`cudaStreamNonBlocking`) ignore stream 0.
//!
//! Completion of an operation (or, in Paella's pipelined mode, its full
//! placement) *releases* it, activating successors.
//!
//! `cudaStreamWaitEvent`-style cross-stream joins can express circular waits
//! (op A waits for op B which — through dependency or stream-ordering edges
//! — waits for op A). On real CUDA such a schedule hangs the device; here it
//! would wedge the job forever with no active ops. [`Waitlist::push`] and
//! [`Waitlist::push_with_deps`] therefore reject any op that would close a
//! wait cycle with [`WaitlistError::DepCycle`] instead of admitting a
//! guaranteed deadlock.
//!
//! The dispatcher does not hold one of these per job: a registered model's
//! op list is fixed, so it compiles these rules into a `KernelDag` edge set
//! once and activates ops by predecessor counting (DESIGN §15). The
//! waitlist is the general form — ops issued dynamically, non-blocking
//! streams, forward dependencies — that the edge set is proven against
//! (`paella-check`'s lockstep proptests) and that the repo benchmark
//! replays as its own layer.

use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

/// How a (virtual) stream interacts with the default stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamKind {
    /// The legacy default stream (id 0).
    Default,
    /// A stream that synchronizes with the default stream.
    Blocking,
    /// A `cudaStreamNonBlocking` stream.
    NonBlocking,
}

/// A virtual stream id, job-local.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct VStream(pub u32);

impl VStream {
    /// The default stream.
    pub const DEFAULT: VStream = VStream(0);
}

/// An opaque operation token supplied by the caller.
pub type OpToken = u64;

/// Why the waitlist refused an operation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WaitlistError {
    /// Admitting the op would close a wait cycle (through explicit
    /// dependencies and/or stream-ordering edges): no order of releases
    /// could ever activate it, so the job would deadlock at issue time.
    DepCycle {
        /// The token whose push completed the cycle.
        token: OpToken,
    },
}

impl fmt::Display for WaitlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WaitlistError::DepCycle { token } => write!(
                f,
                "op {token} closes a stream/dependency wait cycle (guaranteed deadlock)"
            ),
        }
    }
}

impl std::error::Error for WaitlistError {}

#[derive(Clone, Debug)]
struct Entry {
    token: OpToken,
    seq: u64,
    released: bool,
    /// Tokens that must be *released* before this op may start —
    /// `cudaStreamWaitEvent`-style cross-stream joins.
    deps: Vec<OpToken>,
}

/// The waitlist of one job's intercepted ops.
///
/// # Examples
///
/// ```
/// use paella_core::{VStream, Waitlist};
///
/// let mut w = Waitlist::new();
/// let s = VStream(1);
/// assert!(w.push(s, 0).unwrap(), "first op on a stream is active");
/// assert!(!w.push(s, 1).unwrap(), "second waits behind it");
/// assert_eq!(w.complete(s, 0), vec![1], "completion activates the next");
/// ```
#[derive(Debug, Default)]
pub struct Waitlist {
    streams: HashMap<VStream, VecDeque<Entry>>,
    kinds: HashMap<VStream, StreamKind>,
    /// Issue sequence numbers of un-released stream-0 ops.
    default_unreleased: BTreeSet<u64>,
    /// Issue sequence numbers of un-released blocking-stream ops.
    blocking_unreleased: BTreeSet<u64>,
    /// Tokens released so far (for cross-stream dependency checks).
    released_tokens: HashSet<OpToken>,
    next_seq: u64,
    len: usize,
}

impl Waitlist {
    /// Creates an empty waitlist.
    pub fn new() -> Self {
        Waitlist::default()
    }

    /// Declares a stream's kind before use. Stream 0 is always
    /// [`StreamKind::Default`]; undeclared non-zero streams default to
    /// [`StreamKind::Blocking`] (CUDA's default).
    pub fn declare_stream(&mut self, s: VStream, kind: StreamKind) {
        if s == VStream::DEFAULT {
            debug_assert_eq!(kind, StreamKind::Default, "stream 0 is the default stream");
            return;
        }
        self.kinds.insert(s, kind);
    }

    fn kind(&self, s: VStream) -> StreamKind {
        if s == VStream::DEFAULT {
            StreamKind::Default
        } else {
            self.kinds.get(&s).copied().unwrap_or(StreamKind::Blocking)
        }
    }

    /// Intercepts an operation issued on stream `s` (Fig. 7's
    /// `kernelLaunch`). Returns whether the op is immediately *active*.
    ///
    /// # Errors
    ///
    /// [`WaitlistError::DepCycle`] if admitting the op would close a wait
    /// cycle — possible even without explicit deps, when an earlier op holds
    /// a forward dependency on this token (see
    /// [`push_with_deps`](Self::push_with_deps)); the op is not admitted.
    pub fn push(&mut self, s: VStream, token: OpToken) -> Result<bool, WaitlistError> {
        self.push_with_deps(s, token, &[])
    }

    /// Like [`push`](Self::push), but the op additionally waits for every
    /// token in `deps` to be *released* before becoming active — the
    /// `cudaStreamWaitEvent` pattern for cross-stream joins. A dep naming a
    /// token not pushed yet is a *forward* dependency: it stays unsatisfied
    /// until that token is pushed and released.
    ///
    /// # Errors
    ///
    /// [`WaitlistError::DepCycle`] if the op would close a wait cycle
    /// through dependency and/or stream-ordering edges; the waitlist is left
    /// exactly as it was before the call.
    pub fn push_with_deps(
        &mut self,
        s: VStream,
        token: OpToken,
        deps: &[OpToken],
    ) -> Result<bool, WaitlistError> {
        let (kind, seq, pos) = self.admit(s, token, deps);
        if self.closes_wait_cycle(token) {
            // Roll the insertion back so the waitlist state is untouched.
            let q = self.streams.get_mut(&s).expect("stream inserted above");
            q.pop_back();
            if q.is_empty() {
                self.streams.remove(&s);
            }
            match kind {
                StreamKind::Default => {
                    self.default_unreleased.remove(&seq);
                }
                StreamKind::Blocking => {
                    self.blocking_unreleased.remove(&seq);
                }
                StreamKind::NonBlocking => {}
            }
            debug_assert!(
                self.len >= 1 && self.next_seq >= 1,
                "waitlist len/next_seq underflow rolling back a cyclic push"
            );
            self.len -= 1;
            self.next_seq -= 1;
            return Err(WaitlistError::DepCycle { token });
        }
        Ok(self.entry_active(s, pos))
    }

    /// Like [`push_with_deps`](Self::push_with_deps), for schedules whose
    /// admissibility is already proven (a model that passed
    /// `register_model`'s `KernelDag` validation has no wait cycle, so a
    /// replay of its schedule cannot close one). The O(n²) cycle search per
    /// push makes replaying a schedule cubic in pipeline depth; release
    /// builds skip it, debug builds keep it as an assertion.
    ///
    /// # Panics
    ///
    /// Debug builds panic if the push does close a wait cycle (the caller
    /// broke the pre-validation contract).
    pub fn push_prevalidated(&mut self, s: VStream, token: OpToken, deps: &[OpToken]) -> bool {
        let (_, _, pos) = self.admit(s, token, deps);
        debug_assert!(
            !self.closes_wait_cycle(token),
            "pre-validated schedule closed a wait cycle at token {token}"
        );
        self.entry_active(s, pos)
    }

    /// Inserts one entry and its ordering bookkeeping, without checking for
    /// wait cycles. Returns `(stream kind, seq, position in the stream)`.
    fn admit(&mut self, s: VStream, token: OpToken, deps: &[OpToken]) -> (StreamKind, u64, usize) {
        let kind = self.kind(s);
        let seq = self.next_seq;
        self.next_seq += 1;
        match kind {
            StreamKind::Default => {
                self.default_unreleased.insert(seq);
            }
            StreamKind::Blocking => {
                self.blocking_unreleased.insert(seq);
            }
            StreamKind::NonBlocking => {}
        }
        let q = self.streams.entry(s).or_default();
        q.push_back(Entry {
            token,
            seq,
            released: false,
            deps: deps.to_vec(),
        });
        self.len += 1;
        (kind, seq, q.len() - 1)
    }

    /// Whether the just-pushed `new_token` sits on a wait cycle.
    ///
    /// Builds the waits-on graph over all *unreleased* entries — in-stream
    /// predecessor edges, unsatisfied explicit deps, and the
    /// default↔blocking serialization edges — and searches for a path from
    /// the new entry back to itself. Every push is checked, so any cycle
    /// must pass through the newest node; O(n²) in tracked ops, which is
    /// per-job small.
    fn closes_wait_cycle(&self, new_token: OpToken) -> bool {
        struct Node {
            stream: VStream,
            seq: u64,
            deps: Vec<OpToken>,
        }
        let mut nodes: Vec<Node> = Vec::new();
        let mut by_token: HashMap<OpToken, usize> = HashMap::new();
        for (&s, q) in &self.streams {
            for e in q {
                if !e.released {
                    // Duplicate tokens: last push wins, matching the newest
                    // entry (the one under test).
                    by_token.insert(e.token, nodes.len());
                    nodes.push(Node {
                        stream: s,
                        seq: e.seq,
                        deps: e.deps.clone(),
                    });
                }
            }
        }
        let start = by_token[&new_token];
        let successors = |i: usize| -> Vec<usize> {
            let n = &nodes[i];
            let mut out = Vec::new();
            // In-stream: waits on the immediately preceding unreleased op
            // (whose own predecessor edge covers the rest of the chain).
            let mut prev: Option<usize> = None;
            for (j, m) in nodes.iter().enumerate() {
                if j != i
                    && m.stream == n.stream
                    && m.seq < n.seq
                    && prev.is_none_or(|p| nodes[p].seq < m.seq)
                {
                    prev = Some(j);
                }
            }
            if let Some(p) = prev {
                out.push(p);
            }
            for d in &n.deps {
                if !self.released_tokens.contains(d) {
                    if let Some(&j) = by_token.get(d) {
                        out.push(j);
                    }
                }
            }
            match self.kind(n.stream) {
                StreamKind::Default => {
                    for (j, m) in nodes.iter().enumerate() {
                        if m.seq < n.seq && self.kind(m.stream) == StreamKind::Blocking {
                            out.push(j);
                        }
                    }
                }
                StreamKind::Blocking => {
                    for (j, m) in nodes.iter().enumerate() {
                        if m.seq < n.seq && self.kind(m.stream) == StreamKind::Default {
                            out.push(j);
                        }
                    }
                }
                StreamKind::NonBlocking => {}
            }
            out
        };
        let mut visited = vec![false; nodes.len()];
        let mut stack = successors(start);
        while let Some(i) = stack.pop() {
            if i == start {
                return true;
            }
            if visited[i] {
                continue;
            }
            visited[i] = true;
            stack.extend(successors(i));
        }
        false
    }

    fn entry_active(&self, s: VStream, pos: usize) -> bool {
        let q = &self.streams[&s];
        // Must be the stream's earliest un-released op.
        if q.iter().position(|e| !e.released) != Some(pos) {
            return false;
        }
        let e = &q[pos];
        if !e.deps.iter().all(|d| self.released_tokens.contains(d)) {
            return false;
        }
        match self.kind(s) {
            // A stream-0 op waits on earlier-issued blocking work.
            StreamKind::Default => self
                .blocking_unreleased
                .first()
                .is_none_or(|&first| first > e.seq),
            // A blocking-stream op waits on earlier-issued stream-0 work.
            StreamKind::Blocking => self
                .default_unreleased
                .first()
                .is_none_or(|&first| first > e.seq),
            StreamKind::NonBlocking => true,
        }
    }

    /// The set of currently active (schedulable) op tokens, in stream-id
    /// order.
    pub fn active(&self) -> Vec<OpToken> {
        let mut streams: Vec<VStream> = self.streams.keys().copied().collect();
        streams.sort();
        let mut out = Vec::new();
        for s in streams {
            let q = &self.streams[&s];
            if let Some(pos) = q.iter().position(|e| !e.released) {
                if self.entry_active(s, pos) {
                    out.push(q[pos].token);
                }
            }
        }
        out
    }

    /// Releases an op (it completed, or — pipelined mode — fully placed),
    /// unblocking successors. Returns the tokens that became active as a
    /// result (i.e. are active now but were not before the release).
    ///
    /// # Panics
    ///
    /// Panics if `token` is not the front unreleased op of `s` (stream
    /// semantics guarantee in-order release) or the stream is unknown.
    pub fn release(&mut self, s: VStream, token: OpToken) -> Vec<OpToken> {
        let before = self.active();
        let kind = self.kind(s);
        let q = self.streams.get_mut(&s).expect("release on unknown stream");
        let pos = q
            .iter()
            .position(|e| !e.released)
            .expect("stream has no unreleased ops");
        assert_eq!(q[pos].token, token, "out-of-order release on stream {s:?}");
        q[pos].released = true;
        let seq = q[pos].seq;
        self.released_tokens.insert(token);
        match kind {
            StreamKind::Default => {
                self.default_unreleased.remove(&seq);
            }
            StreamKind::Blocking => {
                self.blocking_unreleased.remove(&seq);
            }
            StreamKind::NonBlocking => {}
        }
        self.active()
            .into_iter()
            .filter(|t| !before.contains(t))
            .collect()
    }

    /// Retires a released op entirely (its resources are gone); used when a
    /// released-but-running op finally completes.
    ///
    /// # Panics
    ///
    /// Panics if the op was not previously released.
    pub fn retire(&mut self, s: VStream, token: OpToken) {
        let q = self.streams.get_mut(&s).expect("retire on unknown stream");
        let pos = q
            .iter()
            .position(|e| e.released && e.token == token)
            .expect("retiring an op that was not released");
        q.remove(pos);
        debug_assert!(self.len >= 1, "waitlist len underflow on retire");
        self.len -= 1;
        if q.is_empty() {
            self.streams.remove(&s);
        }
    }

    /// Releases and retires in one step (non-pipelined completion).
    pub fn complete(&mut self, s: VStream, token: OpToken) -> Vec<OpToken> {
        let newly = self.release(s, token);
        self.retire(s, token);
        newly
    }

    /// Cancels every tracked op at once (job cancellation: deadline,
    /// disconnect, node crash). Returns the drained `(stream, token)` pairs
    /// in deterministic order — streams ascending, issue order within each —
    /// and leaves the waitlist empty with all ordering state (unreleased
    /// sets, dependency bookkeeping) rolled back, so `len() == 0` and a
    /// subsequent push sees a clean slate.
    pub fn drain(&mut self) -> Vec<(VStream, OpToken)> {
        let mut streams: Vec<VStream> = self.streams.keys().copied().collect();
        streams.sort();
        let mut out = Vec::with_capacity(self.len);
        for s in streams {
            if let Some(q) = self.streams.remove(&s) {
                for e in q {
                    out.push((s, e.token));
                }
            }
        }
        self.default_unreleased.clear();
        self.blocking_unreleased.clear();
        self.len = 0;
        out
    }

    /// Number of ops still tracked (released-but-running included).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Fig. 7's `deviceSynchronize` predicate: no tracked ops remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `push` that must not cycle, for tests exercising ordering only.
    fn push(w: &mut Waitlist, s: VStream, t: OpToken) -> bool {
        w.push(s, t).unwrap()
    }

    #[test]
    fn single_stream_fifo() {
        let mut w = Waitlist::new();
        let s = VStream(1);
        assert!(push(&mut w, s, 10), "first op active");
        assert!(!push(&mut w, s, 11), "second op inactive behind first");
        assert!(!push(&mut w, s, 12));
        assert_eq!(w.active(), vec![10]);
        assert_eq!(w.complete(s, 10), vec![11]);
        assert_eq!(w.complete(s, 11), vec![12]);
        assert_eq!(w.complete(s, 12), Vec::<OpToken>::new());
        assert!(w.is_empty());
    }

    #[test]
    fn push_prevalidated_matches_checked_push() {
        // The unchecked push and the checked push must agree on activation
        // verdicts and produce identical waitlists for an acyclic schedule
        // (here: two cross-joined streams plus a stream-0 barrier).
        let plan: &[(u32, OpToken, &[OpToken])] = &[
            (1, 0, &[]),
            (2, 1, &[]),
            (1, 2, &[1]),
            (2, 3, &[0]),
            (0, 4, &[2, 3]),
            (1, 5, &[]),
        ];
        let mut checked = Waitlist::new();
        let mut fast = Waitlist::new();
        for &(s, t, deps) in plan {
            let a = checked.push_with_deps(VStream(s), t, deps).unwrap();
            let b = fast.push_prevalidated(VStream(s), t, deps);
            assert_eq!(a, b, "activation verdict for token {t}");
        }
        assert_eq!(checked.active(), fast.active());
        assert_eq!(checked.len(), fast.len());
        // Releasing in a valid order keeps them in lockstep to empty.
        for t in [0u64, 1, 2, 3, 4, 5] {
            let s = VStream(plan[t as usize].0);
            assert_eq!(checked.complete(s, t), fast.complete(s, t));
        }
        assert!(fast.is_empty());
    }

    #[test]
    fn independent_blocking_streams_are_concurrent() {
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream(1), 1));
        assert!(push(&mut w, VStream(2), 2));
        assert_eq!(w.active(), vec![1, 2]);
    }

    #[test]
    fn default_stream_blocks_blocking_streams() {
        // Fig. 7 line 4: a blocking-stream launch is inactive while stream 0
        // has earlier kernels.
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream::DEFAULT, 1));
        assert!(!push(&mut w, VStream(1), 2), "blocked behind stream 0");
        assert_eq!(w.active(), vec![1]);
        assert_eq!(w.complete(VStream::DEFAULT, 1), vec![2]);
    }

    #[test]
    fn blocking_streams_block_default_stream() {
        // Fig. 7 line 2: a stream-0 launch is inactive while blocking
        // streams have earlier kernels.
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream(1), 1));
        assert!(!push(&mut w, VStream::DEFAULT, 2), "stream 0 blocked");
        assert_eq!(w.complete(VStream(1), 1), vec![2]);
    }

    #[test]
    fn nonblocking_stream_ignores_default() {
        let mut w = Waitlist::new();
        w.declare_stream(VStream(7), StreamKind::NonBlocking);
        assert!(push(&mut w, VStream::DEFAULT, 1));
        assert!(
            push(&mut w, VStream(7), 2),
            "non-blocking stream unaffected"
        );
        // And stream 0 is likewise unaffected by the non-blocking stream.
        let mut w2 = Waitlist::new();
        w2.declare_stream(VStream(7), StreamKind::NonBlocking);
        assert!(push(&mut w2, VStream(7), 1));
        assert!(push(&mut w2, VStream::DEFAULT, 2));
    }

    #[test]
    fn release_pipelines_successor_while_running() {
        let mut w = Waitlist::new();
        let s = VStream(1);
        push(&mut w, s, 1);
        push(&mut w, s, 2);
        // Release (placement seen) without retiring: successor activates,
        // but the op still counts toward len().
        assert_eq!(w.release(s, 1), vec![2]);
        assert_eq!(w.len(), 2);
        assert!(!w.is_empty(), "deviceSynchronize would still wait");
        w.retire(s, 1);
        assert_eq!(w.complete(s, 2), Vec::<OpToken>::new());
        assert!(w.is_empty());
    }

    #[test]
    #[should_panic(expected = "out-of-order release")]
    fn out_of_order_release_panics() {
        let mut w = Waitlist::new();
        let s = VStream(1);
        push(&mut w, s, 1);
        push(&mut w, s, 2);
        let _ = w.release(s, 2);
    }

    #[test]
    #[should_panic(expected = "was not released")]
    fn retire_before_release_panics() {
        let mut w = Waitlist::new();
        push(&mut w, VStream(1), 1);
        w.retire(VStream(1), 1);
    }

    #[test]
    fn multi_stream_interleaving() {
        let mut w = Waitlist::new();
        for (s, t) in [(1, 10), (1, 11), (2, 20), (2, 21)] {
            push(&mut w, VStream(s), t);
        }
        assert_eq!(w.active(), vec![10, 20]);
        w.complete(VStream(1), 10);
        assert_eq!(w.active(), vec![11, 20]);
        w.complete(VStream(2), 20);
        w.complete(VStream(2), 21);
        assert_eq!(w.active(), vec![11]);
    }

    #[test]
    fn default_stream_only_waits_on_earlier_issued_work() {
        // Issue order: blocking op 1, stream-0 op 2, blocking op 3.
        // Op 2 waits only on op 1; op 3 waits on op 2.
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream(1), 1));
        assert!(!push(&mut w, VStream::DEFAULT, 2));
        assert!(
            !push(&mut w, VStream(2), 3),
            "issued after a default-stream op"
        );
        // Completing op 1 activates op 2 but not op 3.
        assert_eq!(w.complete(VStream(1), 1), vec![2]);
        assert_eq!(w.active(), vec![2]);
        // Completing op 2 activates op 3.
        assert_eq!(w.complete(VStream::DEFAULT, 2), vec![3]);
    }

    #[test]
    fn later_blocking_work_does_not_block_default() {
        // Stream-0 op issued first is active even though blocking work was
        // issued afterwards.
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream::DEFAULT, 1));
        assert!(!push(&mut w, VStream(1), 2));
        assert_eq!(w.active(), vec![1]);
    }

    #[test]
    fn cross_stream_dependency_gates_activation() {
        // Branch-join: ops 1 and 2 on parallel streams; op 3 on stream 3
        // waits for both (cudaStreamWaitEvent-style).
        let mut w = Waitlist::new();
        assert!(push(&mut w, VStream(1), 1));
        assert!(push(&mut w, VStream(2), 2));
        assert!(
            !w.push_with_deps(VStream(3), 3, &[1, 2]).unwrap(),
            "join waits for both"
        );
        assert_eq!(w.complete(VStream(1), 1), Vec::<OpToken>::new());
        assert!(!w.active().contains(&3), "one producer is not enough");
        assert_eq!(
            w.complete(VStream(2), 2),
            vec![3],
            "last producer unblocks the join"
        );
        w.complete(VStream(3), 3);
        assert!(w.is_empty());
    }

    #[test]
    fn dependency_on_already_released_op_is_satisfied() {
        let mut w = Waitlist::new();
        push(&mut w, VStream(1), 1);
        w.complete(VStream(1), 1);
        assert!(
            w.push_with_deps(VStream(2), 2, &[1]).unwrap(),
            "dep already released"
        );
    }

    #[test]
    fn dependency_composes_with_stream_order() {
        // Op 11 on stream 1 waits for op 20 on stream 2 AND for op 10 ahead
        // of it on its own stream.
        let mut w = Waitlist::new();
        push(&mut w, VStream(1), 10);
        push(&mut w, VStream(2), 20);
        assert!(!w.push_with_deps(VStream(1), 11, &[20]).unwrap());
        w.complete(VStream(2), 20);
        assert!(!w.active().contains(&11), "still behind op 10 in-stream");
        assert_eq!(w.complete(VStream(1), 10), vec![11]);
    }

    #[test]
    fn release_reports_only_newly_activated() {
        let mut w = Waitlist::new();
        push(&mut w, VStream(1), 1);
        push(&mut w, VStream(2), 2); // already active
        push(&mut w, VStream(1), 3);
        let newly = w.complete(VStream(1), 1);
        assert_eq!(newly, vec![3], "op 2 was already active, must not repeat");
    }

    #[test]
    fn two_op_dep_cycle_rejected() {
        // Op 1 waits for op 2 (forward dep); pushing op 2 with a dep back on
        // op 1 closes the cycle — cudaStreamWaitEvent deadlock, caught at
        // issue time.
        let mut w = Waitlist::new();
        assert!(
            !w.push_with_deps(VStream(1), 1, &[2]).unwrap(),
            "forward dep leaves op 1 inactive"
        );
        assert_eq!(
            w.push_with_deps(VStream(2), 2, &[1]),
            Err(WaitlistError::DepCycle { token: 2 })
        );
        // The rejected op left no trace: op 2 can still be pushed cleanly.
        assert_eq!(w.len(), 1);
        assert!(push(&mut w, VStream(2), 2), "clean push after rollback");
        assert_eq!(w.complete(VStream(2), 2), vec![1], "dep now satisfied");
    }

    #[test]
    fn self_dependency_rejected() {
        let mut w = Waitlist::new();
        assert_eq!(
            w.push_with_deps(VStream(1), 7, &[7]),
            Err(WaitlistError::DepCycle { token: 7 })
        );
        assert!(w.is_empty());
    }

    #[test]
    fn plain_push_can_close_a_cycle() {
        // Op 1 holds a forward dep on token 2; a *plain* push of token 2
        // behind op 1 on the same stream closes the loop (2 waits on 1
        // in-stream, 1 waits on 2 by dep).
        let mut w = Waitlist::new();
        assert!(!w.push_with_deps(VStream(1), 1, &[2]).unwrap());
        assert_eq!(
            w.push(VStream(1), 2),
            Err(WaitlistError::DepCycle { token: 2 })
        );
        // On its own stream the same token is fine.
        assert!(w.push(VStream(2), 2).unwrap());
    }

    #[test]
    fn cycle_through_stream_ordering_edges_rejected() {
        // Dep + default↔blocking serialization cycle: blocking op 1 deps on
        // token 2; a stream-0 op 2 issued later waits on op 1 through the
        // default-stream serialization edge, and op 1 waits on op 2 by dep.
        let mut w = Waitlist::new();
        assert!(!w.push_with_deps(VStream(1), 1, &[2]).unwrap());
        assert_eq!(
            w.push(VStream::DEFAULT, 2),
            Err(WaitlistError::DepCycle { token: 2 })
        );
        // A non-blocking stream carries no serialization edge: no cycle.
        w.declare_stream(VStream(9), StreamKind::NonBlocking);
        assert!(w.push(VStream(9), 2).unwrap());
    }

    #[test]
    fn drain_empties_and_resets_ordering_state() {
        let mut w = Waitlist::new();
        push(&mut w, VStream::DEFAULT, 1);
        push(&mut w, VStream(1), 2);
        push(&mut w, VStream(1), 3);
        let _ = w.release(VStream::DEFAULT, 1); // released-but-running
        assert_eq!(
            w.drain(),
            vec![(VStream::DEFAULT, 1), (VStream(1), 2), (VStream(1), 3)],
            "drained in stream, then issue order"
        );
        assert!(w.is_empty());
        assert_eq!(w.drain(), Vec::new(), "second drain is a no-op");
        // A fresh op on a blocking stream must not wait on the drained
        // stream-0 op: the unreleased sets were rolled back.
        assert!(push(&mut w, VStream(2), 9), "clean slate after drain");
    }

    #[test]
    fn dep_on_released_token_never_cycles() {
        let mut w = Waitlist::new();
        push(&mut w, VStream(1), 2);
        w.complete(VStream(1), 2);
        // Token 2 is released; a new op 1 deps on it, then token 2 is reused
        // behind op 1 — the released dep is satisfied, no cycle.
        assert!(w.push_with_deps(VStream(3), 1, &[2]).unwrap());
        assert!(w.push(VStream(4), 2).is_ok());
    }
}
