//! Generic discrete-event engine.
//!
//! The engine is a priority queue of `(SimTime, seq, E)` entries. Ties in time
//! break on insertion order (`seq`), which makes every simulation fully
//! deterministic: two events scheduled for the same instant fire in the order
//! they were scheduled.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::{SimDuration, SimTime};

/// Identifier of a scheduled event, usable for cancellation: the event's
/// insertion sequence number.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct EventId(u64);

struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (then
        // lowest-sequence) entry is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One bit per sequence number in `[base, next_seq)`: set once the event is
/// *settled* (popped or cancelled), so `cancel` can tell a pending event
/// from a finished one without a hash probe. Sequence numbers are monotone,
/// so the window is dense; fully settled words are dropped from the front.
/// A heap entry whose bit is set can only be a cancelled tombstone — popped
/// entries have left the heap. The cost is one bit per event scheduled since
/// the oldest still-pending one.
#[derive(Default)]
struct SettledWindow {
    /// Sequence number of bit 0 of `words[0]`.
    base: u64,
    words: VecDeque<u64>,
}

impl SettledWindow {
    /// `(word index, bit mask)` of `seq`, which must be ≥ `base`.
    fn locate(&self, seq: u64) -> (usize, u64) {
        let off = seq - self.base;
        ((off / 64) as usize, 1 << (off % 64))
    }

    /// Extends the window to cover a freshly minted `seq`.
    fn cover(&mut self, seq: u64) {
        if self.locate(seq).0 == self.words.len() {
            self.words.push_back(0);
        }
    }

    /// Whether `seq` is settled; everything below the window is.
    fn is_set(&self, seq: u64) -> bool {
        if seq < self.base {
            return true;
        }
        let (w, mask) = self.locate(seq);
        self.words[w] & mask != 0
    }

    fn set(&mut self, seq: u64) {
        let (w, mask) = self.locate(seq);
        self.words[w] |= mask;
        while self.words.front() == Some(&u64::MAX) {
            self.words.pop_front();
            self.base += 64;
        }
    }

    /// Forgets everything: every sequence number below `next_seq` is settled.
    fn reset(&mut self, next_seq: u64) {
        self.words.clear();
        self.base = next_seq;
    }
}

/// A deterministic discrete-event queue over payload type `E`.
///
/// # Examples
///
/// ```
/// use paella_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_at(SimTime::from_micros(20), "later");
/// q.schedule_at(SimTime::from_micros(10), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_micros(10), "sooner")));
/// assert_eq!(q.now(), SimTime::from_micros(10));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    next_seq: u64,
    /// Pending (scheduled, neither popped nor cancelled) events.
    live: usize,
    /// Which sequence numbers are popped or cancelled.
    settled: SettledWindow,
    /// Heap entries cancelled but not yet physically removed. They are
    /// dropped lazily on pop-through, or eagerly by
    /// [`maybe_compact`](Self::maybe_compact) once they outnumber a fraction
    /// of the heap — without compaction a schedule/cancel-heavy workload
    /// (timeouts that almost never fire) grows the heap without bound.
    tombstones: usize,
    /// Total cancellations accepted (diagnostics).
    cancelled_total: u64,
    /// Total eager compaction passes run (diagnostics).
    compactions: u64,
}

/// Tombstones are tolerated until they exceed this count *and* a quarter of
/// the live heap; below the floor the rebuild costs more than it saves.
const COMPACT_FLOOR: usize = 64;

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            next_seq: 0,
            live: 0,
            settled: SettledWindow::default(),
            tombstones: 0,
            cancelled_total: 0,
            compactions: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `payload` at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the simulated past.
    pub fn schedule_at(&mut self, at: SimTime, payload: E) -> EventId {
        assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.settled.cover(seq);
        self.heap.push(Entry { at, seq, payload });
        self.live += 1;
        EventId(seq)
    }

    /// Schedules `payload` after a delay from the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> EventId {
        let at = self.now.saturating_add(delay);
        self.schedule_at(at, payload)
    }

    /// Cancels a previously scheduled event in O(1). Returns `true` if the
    /// event was still pending. Cancelled events are dropped lazily on pop,
    /// or eagerly once tombstones exceed the compaction threshold.
    pub fn cancel(&mut self, id: EventId) -> bool {
        // Never minted, already popped, or already cancelled.
        if id.0 >= self.next_seq || self.settled.is_set(id.0) {
            return false;
        }
        self.settled.set(id.0);
        self.live -= 1;
        self.tombstones += 1;
        self.cancelled_total += 1;
        self.maybe_compact();
        true
    }

    /// Number of cancelled tombstones still occupying heap slots.
    pub fn cancelled_len(&self) -> usize {
        self.tombstones
    }

    /// Total cancellations accepted over the queue's lifetime.
    pub fn cancelled_total(&self) -> u64 {
        self.cancelled_total
    }

    /// Total eager compaction passes run over the queue's lifetime.
    pub fn compactions(&self) -> u64 {
        self.compactions
    }

    /// Physically removes tombstoned entries once they exceed both
    /// [`COMPACT_FLOOR`] and a quarter of the heap. A cancelled event that
    /// would never pop through (scheduled far in the virtual future, as
    /// timeout guards are) can otherwise pin its slot forever.
    fn maybe_compact(&mut self) {
        if self.tombstones <= COMPACT_FLOOR || self.tombstones * 4 <= self.heap.len() {
            return;
        }
        let settled = &self.settled;
        self.heap.retain(|e| !settled.is_set(e.seq));
        self.tombstones = 0;
        self.compactions += 1;
    }

    /// Timestamp of the next event to fire, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.skip_cancelled();
        let e = self.heap.pop()?;
        self.settled.set(e.seq);
        self.live -= 1;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        Some((e.at, e.payload))
    }

    /// Removes and returns every pending (non-cancelled) event, sorted by
    /// firing order `(at, seq)`, **without advancing the clock**. Used for
    /// crash handling: a crashed component's queued events must be recovered
    /// (to fail or re-route them) while `now` stays put so survivors can keep
    /// scheduling into what is still their future.
    pub fn drain(&mut self) -> Vec<(SimTime, E)> {
        let mut out: Vec<Entry<E>> = Vec::with_capacity(self.live);
        for e in std::mem::take(&mut self.heap) {
            if !self.settled.is_set(e.seq) {
                out.push(e);
            }
        }
        self.live = 0;
        self.tombstones = 0;
        self.settled.reset(self.next_seq);
        out.sort_by(|a, b| a.at.cmp(&b.at).then_with(|| a.seq.cmp(&b.seq)));
        out.into_iter().map(|e| (e.at, e.payload)).collect()
    }

    fn skip_cancelled(&mut self) {
        while self.tombstones > 0 {
            match self.heap.peek() {
                Some(top) if self.settled.is_set(top.seq) => {
                    self.heap.pop();
                    self.tombstones -= 1;
                }
                _ => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(30), "c");
        q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["a", "b", "c"]);
        assert_eq!(q.now(), SimTime::from_nanos(30));
    }

    #[test]
    fn ties_break_on_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn schedule_after_uses_current_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 1);
        q.pop();
        q.schedule_after(SimDuration::from_nanos(50), 2);
        let (t, e) = q.pop().unwrap();
        assert_eq!(e, 2);
        assert_eq!(t, SimTime::from_nanos(150));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), 1);
        q.pop();
        q.schedule_at(SimTime::from_nanos(50), 2);
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        assert_eq!(q.len(), 2);
        assert!(q.cancel(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop().unwrap().1, "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn cancel_unknown_id_is_noop() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert!(!q.cancel(EventId(99)));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.schedule_at(SimTime::from_nanos(10), "a");
        q.schedule_at(SimTime::from_nanos(20), "b");
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_nanos(20)));
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        assert!(q.pop().is_none());
    }

    #[test]
    fn schedule_cancel_cycles_keep_memory_bounded() {
        // The leak shape: one guard event far in the future that never pops,
        // plus an endless stream of timeouts that are scheduled and then
        // cancelled before firing. Without compaction every tombstone stays
        // in the heap forever.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_millis(1_000_000), 0u64);
        for i in 0..100_000u64 {
            let id = q.schedule_at(SimTime::from_millis(500_000 + i), i);
            assert!(q.cancel(id));
        }
        assert_eq!(q.len(), 1, "only the guard event is live");
        assert!(
            q.heap.len() <= 2 * COMPACT_FLOOR + 1,
            "heap holds {} entries; tombstones were not compacted",
            q.heap.len()
        );
        assert!(
            q.cancelled_len() <= 2 * COMPACT_FLOOR,
            "tombstone set holds {} ids",
            q.cancelled_len()
        );
        assert_eq!(q.cancelled_total(), 100_000);
        assert!(q.compactions() > 0, "compaction must have run");
        // The guard is still deliverable after all that churn.
        assert_eq!(q.pop(), Some((SimTime::from_millis(1_000_000), 0)));
    }

    #[test]
    fn compaction_preserves_order_and_survivors() {
        let mut q = EventQueue::new();
        let mut keep = Vec::new();
        // Interleave survivors with a tombstone flood big enough to force
        // several compactions, then check delivery order and content.
        for i in 0..500u64 {
            q.schedule_at(SimTime::from_nanos(10 + 7 * i), i);
            keep.push(i);
            for j in 0..4u64 {
                let id = q.schedule_at(SimTime::from_nanos(5_000_000 + i * 4 + j), u64::MAX);
                q.cancel(id);
            }
        }
        assert!(q.compactions() > 0);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, keep, "survivors deliver in schedule order");
    }

    #[test]
    fn drain_returns_pending_in_order_without_advancing_clock() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_nanos(100), "a");
        q.pop();
        q.schedule_at(SimTime::from_nanos(300), "c");
        let b = q.schedule_at(SimTime::from_nanos(200), "b");
        q.schedule_at(SimTime::from_nanos(200), "d"); // same instant, later seq
        q.cancel(b);
        let drained = q.drain();
        assert_eq!(
            drained,
            vec![
                (SimTime::from_nanos(200), "d"),
                (SimTime::from_nanos(300), "c"),
            ],
            "cancelled events are skipped; order is (at, seq)"
        );
        assert_eq!(q.now(), SimTime::from_nanos(100), "clock untouched");
        assert!(q.is_empty());
        assert_eq!(q.cancelled_len(), 0, "tombstones cleared");
        // The queue is still usable at the un-advanced clock.
        q.schedule_at(SimTime::from_nanos(150), "later");
        assert_eq!(q.pop(), Some((SimTime::from_nanos(150), "later")));
    }

    #[test]
    fn cancel_after_pop_is_noop() {
        let mut q = EventQueue::new();
        let id = q.schedule_at(SimTime::from_nanos(1), "x");
        assert_eq!(q.pop().unwrap().1, "x");
        assert!(!q.cancel(id), "popped events cannot be cancelled");
        assert_eq!(q.cancelled_len(), 0);
    }
}
