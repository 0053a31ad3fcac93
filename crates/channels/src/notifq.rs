//! The device→host notification ring (`notifQ`, §5.2).
//!
//! Writers (instrumented thread blocks — in this reproduction, simulated GPU
//! worker threads) claim a slot with one atomic increment of `tail` and then
//! publish the encoded 64-bit notification with a single atomic store.
//! The single reader (the dispatcher) scans forward from its private cursor,
//! consuming every slot that holds a valid word and resetting it to
//! [`INVALID_WORD`].
//!
//! Exactly as in the paper, the ring does **not** check for overruns: the
//! dispatcher enforces flow control by never allowing more outstanding blocks
//! than the ring has slots. [`notif_queue`] therefore takes the capacity
//! from that bound.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::atomic::AtomicCell;
use crate::notif::{Notification, INVALID_WORD};

/// The orderings of the ring's four atomic sites, in the life of a post. The
/// handles run [`NotifqOrds::SHIPPED`]; `paella-check` runs it too, and each
/// of its mutants downgrades one field.
#[derive(Clone, Copy, Debug)]
pub struct NotifqOrds {
    /// The writer's `tail` fetch-add claiming a slot.
    pub claim: Ordering,
    /// The writer's slot store publishing the word.
    pub publish: Ordering,
    /// The reader's slot load.
    pub scan: Ordering,
    /// The reader's slot reset.
    pub reset: Ordering,
}

impl NotifqOrds {
    /// The orderings [`NotifWriter`] and [`NotifReader`] run.
    pub const SHIPPED: NotifqOrds = NotifqOrds {
        // relaxed: the claim only needs the RMW's per-index uniqueness; the
        // notification's visibility rides on the release publish, not tail.
        claim: Ordering::Relaxed,
        // release: every prior write of the posting thread (the block's
        // work) is visible to the reader's acquire scan before the word is.
        publish: Ordering::Release,
        // acquire: pairs with the writer's release publish; everything the
        // posting block wrote before the word is visible once we decode it.
        scan: Ordering::Acquire,
        // release: the reset hands the slot back to writers — it must not
        // reorder before the acquire scan that consumed the word.
        reset: Ordering::Release,
    };
}

/// The ring's shared state, generic over its atomics so that `paella-check`
/// explores the same [`post`](Self::post) and [`poll`](Self::poll) the
/// handles run.
pub struct NotifRing<A> {
    /// The slots, each starting at [`INVALID_WORD`].
    pub slots: Box<[A]>,
    /// Claims so far, starting at 0.
    pub tail: A,
}

impl<A> NotifRing<A> {
    fn slot(&self, idx: u64) -> &A {
        &self.slots[(idx % self.slots.len() as u64) as usize]
    }

    /// The post path: one `fetch_add` to claim a slot, one store to publish.
    pub fn post<C>(&self, c: &mut C, n: Notification, ords: NotifqOrds)
    where
        A: AtomicCell<C>,
    {
        let idx = self.tail.fetch_add(c, 1, ords.claim);
        let slot = self.slot(idx);
        // The ring has no overrun check by design (§5.2): flow control must
        // keep outstanding notifications within capacity. Under the
        // `check-overrun` feature, verify that contract instead of trusting
        // it — the claimed slot must still be invalid (consumed); a live
        // word here means a writer lapped the reader. Checking the slot
        // itself (not a reader cursor snapshot) keeps the assert race-free:
        // this writer owns the slot from claim to publish.
        #[cfg(feature = "check-overrun")]
        assert_eq!(
            // acquire: the overrun check must observe the reader's slot
            // reset (its release store of INVALID_WORD), not a stale word.
            slot.load_fresh(c, Ordering::Acquire),
            INVALID_WORD,
            "notifQ overrun: writer lapped the reader at index {idx} (flow control violated)",
        );
        slot.store(c, n.encode(), ords.publish);
    }

    /// The poll path: consumes the word at the reader's cursor `head` if it
    /// is valid, resets its slot and advances `head`.
    pub fn poll<C>(&self, c: &mut C, head: &mut u64, ords: NotifqOrds) -> Option<Notification>
    where
        A: AtomicCell<C>,
    {
        let slot = self.slot(*head);
        let n = Notification::decode(slot.load_fresh(c, ords.scan))?;
        slot.store(c, INVALID_WORD, ords.reset);
        *head += 1;
        Some(n)
    }
}

/// Writer handle: any number may exist (every simulated block writes).
#[derive(Clone)]
pub struct NotifWriter {
    inner: Arc<NotifRing<AtomicU64>>,
}

/// Reader handle: exactly one (the dispatcher thread).
pub struct NotifReader {
    inner: Arc<NotifRing<AtomicU64>>,
    head: u64,
}

/// Creates a `notifQ` with `cap` slots.
///
/// `cap` must be at least the maximum number of outstanding (unconsumed)
/// notifications the dispatcher's flow control permits; the ring itself does
/// not detect overruns, mirroring the paper's design.
///
/// # Panics
///
/// Panics if `cap == 0`.
pub fn notif_queue(cap: usize) -> (NotifWriter, NotifReader) {
    assert!(cap > 0, "notifQ capacity must be positive");
    let inner = Arc::new(NotifRing {
        slots: (0..cap).map(|_| AtomicU64::new(INVALID_WORD)).collect(),
        tail: AtomicU64::new(0),
    });
    (
        NotifWriter {
            inner: Arc::clone(&inner),
        },
        NotifReader { inner, head: 0 },
    )
}

impl NotifWriter {
    /// Posts a notification: one `fetch_add` to claim a slot, one store to
    /// publish. This is the entirety of the device-side critical path, which
    /// is why the paper's measured instrumentation overhead is so small
    /// (Fig. 15).
    pub fn post(&self, n: Notification) {
        self.inner.post(&mut (), n, NotifqOrds::SHIPPED);
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }
}

impl NotifReader {
    /// Consumes the next notification if one is ready, resetting its slot to
    /// invalid (the paper's third, `invalid` event type marks stale slots).
    pub fn poll(&mut self) -> Option<Notification> {
        self.inner
            .poll(&mut (), &mut self.head, NotifqOrds::SHIPPED)
    }

    /// Drains every currently ready notification into `out`, returning how
    /// many were consumed. This is what the dispatcher calls once per polling
    /// loop iteration.
    pub fn drain_into(&mut self, out: &mut Vec<Notification>) -> usize {
        let mut n = 0;
        while let Some(notif) = self.poll() {
            out.push(notif);
            n += 1;
        }
        n
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.inner.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::notif::NotifKind;
    use std::thread;

    #[test]
    fn single_writer_roundtrip() {
        let (w, mut r) = notif_queue(8);
        assert_eq!(r.poll(), None);
        w.post(Notification::placement(3, 77, 16));
        w.post(Notification::completion(3, 77, 16));
        let a = r.poll().unwrap();
        assert_eq!(a.kind, NotifKind::Placement);
        assert_eq!(a.sm_id, 3);
        assert_eq!(a.kernel, 77);
        assert_eq!(a.group, 16);
        let b = r.poll().unwrap();
        assert_eq!(b.kind, NotifKind::Completion);
        assert_eq!(r.poll(), None);
    }

    #[test]
    fn slots_reset_to_invalid_allowing_reuse() {
        let (w, mut r) = notif_queue(2);
        for round in 0..100u32 {
            w.post(Notification::placement(0, round, 1));
            assert_eq!(r.poll().unwrap().kernel, round);
        }
    }

    #[test]
    fn drain_into_collects_all_ready() {
        let (w, mut r) = notif_queue(16);
        for k in 0..10 {
            w.post(Notification::placement(1, k, 1));
        }
        let mut out = Vec::new();
        assert_eq!(r.drain_into(&mut out), 10);
        assert_eq!(out.len(), 10);
        assert_eq!(r.drain_into(&mut out), 0);
    }

    #[test]
    fn many_writers_all_notifications_arrive() {
        // 8 writer threads × 1000 notifications with flow control provided by
        // a consumer that drains aggressively. Capacity covers the maximum
        // outstanding count so no overrun can occur.
        const WRITERS: u32 = 8;
        const PER: u32 = 1_000;
        let (w, mut r) = notif_queue((WRITERS * PER) as usize);
        let mut handles = Vec::new();
        for t in 0..WRITERS {
            let w = w.clone();
            handles.push(thread::spawn(move || {
                for i in 0..PER {
                    w.post(Notification::placement((t % 256) as u8, t * PER + i, 1));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut seen = vec![false; (WRITERS * PER) as usize];
        while let Some(n) = r.poll() {
            let k = n.kernel as usize;
            assert!(!seen[k], "duplicate kernel uid {k}");
            seen[k] = true;
        }
        assert!(seen.iter().all(|&s| s), "every notification must arrive");
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = notif_queue(0);
    }

    /// With `check-overrun`, a post that laps the reader trips the
    /// flow-control assertion instead of silently corrupting a slot.
    #[cfg(feature = "check-overrun")]
    #[test]
    #[should_panic(expected = "notifQ overrun")]
    fn overrun_is_detected_when_checked() {
        let (w, _r) = notif_queue(2);
        for k in 0..3 {
            w.post(Notification::placement(0, k, 1));
        }
    }

    /// The overrun check never fires while flow control is honored, even
    /// across many wraparounds.
    #[cfg(feature = "check-overrun")]
    #[test]
    fn overrun_check_is_silent_within_flow_control() {
        let (w, mut r) = notif_queue(2);
        for round in 0..100u32 {
            w.post(Notification::placement(0, round, 1));
            w.post(Notification::completion(0, round, 1));
            assert_eq!(r.drain_into(&mut Vec::new()), 2);
        }
    }
}
