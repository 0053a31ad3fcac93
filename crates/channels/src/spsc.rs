//! Bounded lock-free single-producer/single-consumer ring.
//!
//! This is the client→dispatcher request channel of §5.1: each client owns a
//! shared-memory region and posts raw request descriptors; the dispatcher
//! polls every client ring round-robin. Head and tail live on separate cache
//! lines to avoid false sharing between the two sides.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::atomic::AtomicCell;

/// The orderings of the ring's atomic sites. The handles run
/// [`SpscOrds::SHIPPED`]; `paella-check` runs it too, and each of its
/// mutants downgrades one field.
#[derive(Clone, Copy, Debug)]
pub struct SpscOrds {
    /// Either side's load of the cursor only it writes.
    pub own_load: Ordering,
    /// The producer's load of `head` when the ring looks full.
    pub head_load: Ordering,
    /// The producer's `tail` store publishing a slot.
    pub publish: Ordering,
    /// The consumer's load of `tail` when the ring looks empty, and its
    /// re-check after seeing the producer closed.
    pub tail_load: Ordering,
    /// The consumer's `head` store handing a slot back.
    pub head_store: Ordering,
    /// Either side's load of the other's liveness flag.
    pub alive_load: Ordering,
    /// The producer's close.
    pub producer_close: Ordering,
    /// The consumer's close.
    pub consumer_close: Ordering,
}

impl SpscOrds {
    /// The orderings [`Producer`] and [`Consumer`] run.
    pub const SHIPPED: SpscOrds = SpscOrds {
        // relaxed: each cursor is written only by its own side; reading our
        // own last store needs no synchronization.
        own_load: Ordering::Relaxed,
        // acquire: pairs with the consumer's release head store; we may only
        // overwrite a slot after its read completed.
        head_load: Ordering::Acquire,
        // release: publishes the slot write before it; the consumer's
        // acquire tail load sees the value fully initialized.
        publish: Ordering::Release,
        // acquire: pairs with the producer's release tail store, making the
        // published slot's contents visible before we read them.
        tail_load: Ordering::Acquire,
        // release: hands the slot back — the read completes before the
        // producer's acquire head load can see the cursor and reuse the slot.
        head_store: Ordering::Release,
        // acquire: pairs with the other side's release close, so a close
        // observed here is ordered after that side's last push or pop.
        alive_load: Ordering::Acquire,
        // release: orders our final push before the death flag, so a
        // consumer that observes `!alive` and re-checks tail sees that item.
        producer_close: Ordering::Release,
        // release: orders our final pops before the death flag the producer
        // reads with acquire in push().
        consumer_close: Ordering::Release,
    };
}

/// Pads a value to a cache line to prevent false sharing.
#[repr(align(64))]
struct CachePadded<T>(T);

/// The ring's shared atomics, generic over their type so that `paella-check`
/// explores the push, pop and close paths the handles run. Each path reaches
/// a slot through an accessor its caller passes.
pub struct Cursors<A> {
    cap: u64,
    head: CachePadded<A>, // next slot to read
    tail: CachePadded<A>, // next slot to write
    producer_alive: A,    // 1 until the producer closes
    consumer_alive: A,    // 1 until the consumer closes
}

impl<A> Cursors<A> {
    /// Cursors for a `cap`-slot ring; `cell(name, init)` makes each atomic.
    pub fn new(cap: usize, mut cell: impl FnMut(&'static str, u64) -> A) -> Self {
        Cursors {
            cap: cap as u64,
            head: CachePadded(cell("head", 0)),
            tail: CachePadded(cell("tail", 0)),
            producer_alive: cell("producer_alive", 1),
            consumer_alive: cell("consumer_alive", 1),
        }
    }

    /// The push path. `cached_head` is the producer's last view of `head`;
    /// `write(c, slot, value)` fills a slot the consumer cannot touch until
    /// the tail store that follows publishes it.
    #[inline]
    pub fn push<C, V>(
        &self,
        c: &mut C,
        cached_head: &mut u64,
        value: V,
        write: impl FnOnce(&mut C, usize, V),
        ords: SpscOrds,
    ) -> Result<(), PushError<V>>
    where
        A: AtomicCell<C>,
    {
        if self.consumer_alive.load(c, ords.alive_load) == 0 {
            return Err(PushError::Disconnected(value));
        }
        let tail = self.tail.0.load(c, ords.own_load);
        if tail.wrapping_sub(*cached_head) >= self.cap {
            // Refresh the consumer's progress before declaring the ring full.
            *cached_head = self.head.0.load_fresh(c, ords.head_load);
            if tail.wrapping_sub(*cached_head) >= self.cap {
                return Err(PushError::Full(value));
            }
        }
        write(c, (tail % self.cap) as usize, value);
        self.tail.0.store(c, tail.wrapping_add(1), ords.publish);
        Ok(())
    }

    /// The pop path. `cached_tail` is the consumer's last view of `tail`;
    /// `read(c, slot)` moves the value out of a published slot before the
    /// head store that follows hands the slot back.
    #[inline]
    pub fn pop<C, V>(
        &self,
        c: &mut C,
        cached_tail: &mut u64,
        read: impl FnOnce(&mut C, usize) -> V,
        ords: SpscOrds,
    ) -> Result<V, PopError>
    where
        A: AtomicCell<C>,
    {
        let head = self.head.0.load(c, ords.own_load);
        if head == *cached_tail {
            *cached_tail = self.tail.0.load_fresh(c, ords.tail_load);
            if head == *cached_tail {
                if self.producer_alive.load_fresh(c, ords.alive_load) != 0 {
                    return Err(PopError::Empty);
                }
                // Re-check after observing the close: the producer may have
                // pushed right before closing.
                *cached_tail = self.tail.0.load(c, ords.tail_load);
                if head == *cached_tail {
                    return Err(PopError::Disconnected);
                }
            }
        }
        let value = read(c, (head % self.cap) as usize);
        self.head.0.store(c, head.wrapping_add(1), ords.head_store);
        Ok(value)
    }

    /// The producer's close: clears its liveness flag.
    pub fn close_producer<C>(&self, c: &mut C, ords: SpscOrds)
    where
        A: AtomicCell<C>,
    {
        self.producer_alive.store(c, 0, ords.producer_close);
    }

    /// The consumer's close: clears its liveness flag.
    pub fn close_consumer<C>(&self, c: &mut C, ords: SpscOrds)
    where
        A: AtomicCell<C>,
    {
        self.consumer_alive.store(c, 0, ords.consumer_close);
    }
}

struct Shared<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    cur: Cursors<AtomicU64>,
}

// SAFETY: slots are transferred between threads with acquire/release on
// head/tail; a slot is only accessed by the producer before publishing via
// `tail` and only by the consumer after observing that publish, so no slot is
// ever aliased concurrently. `T: Send` is required because values cross
// threads.
unsafe impl<T: Send> Send for Shared<T> {}
// SAFETY: see above; &Shared is only used through the single Producer and
// single Consumer handles, which partition the slots.
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Drop any queued-but-unread items. `&mut self`: both handles are
        // gone, so the cursors are read without a race.
        let head = *self.cur.head.0.get_mut();
        let tail = *self.cur.tail.0.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in [head, tail) were initialized by the producer
            // and never consumed.
            unsafe { (*self.buf[(i % self.cur.cap) as usize].get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

/// The sending half of an SPSC ring.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    cached_head: u64,
}

/// The receiving half of an SPSC ring.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    cached_tail: u64,
}

/// Error returned by [`Producer::push`] when the ring is full or the consumer
/// is gone.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is full; the value is handed back.
    Full(T),
    /// The consumer has been dropped; the value is handed back.
    Disconnected(T),
}

/// Error returned by [`Consumer::pop`] when no item is ready.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum PopError {
    /// The ring is currently empty.
    Empty,
    /// The ring is empty and the producer has been dropped.
    Disconnected,
}

/// Creates a bounded SPSC ring with capacity for `cap` in-flight items.
///
/// # Examples
///
/// ```
/// let (mut tx, mut rx) = paella_channels::ring::<u32>(8);
/// tx.push(7).unwrap();
/// assert_eq!(rx.pop().unwrap(), 7);
/// ```
///
/// # Panics
///
/// Panics if `cap == 0`.
pub fn ring<T: Send>(cap: usize) -> (Producer<T>, Consumer<T>) {
    assert!(cap > 0, "ring capacity must be positive");
    let shared = Arc::new(Shared {
        buf: (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        cur: Cursors::new(cap, |_, init| AtomicU64::new(init)),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: 0,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

impl<T: Send> Producer<T> {
    /// Attempts to enqueue `value` without blocking.
    pub fn push(&mut self, value: T) -> Result<(), PushError<T>> {
        let s = &*self.shared;
        // SAFETY: push passes the slot at `tail % cap`, outside [head, tail),
        // so the consumer will not touch it until push publishes the new tail.
        let write = |_: &mut (), i: usize, v| unsafe { s.buf[i].get().write(MaybeUninit::new(v)) };
        let ords = SpscOrds::SHIPPED;
        s.cur
            .push(&mut (), &mut self.cached_head, value, write, ords)
    }

    /// Number of free slots (a lower bound from the producer's view).
    pub fn free_len(&self) -> usize {
        let s = &self.shared.cur;
        let head = s.head.0.load(SpscOrds::SHIPPED.head_load);
        let tail = s.tail.0.load(SpscOrds::SHIPPED.own_load);
        (s.cap - tail.wrapping_sub(head)) as usize
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.cur.close_producer(&mut (), SpscOrds::SHIPPED);
    }
}

impl<T: Send> Consumer<T> {
    /// Attempts to dequeue one item without blocking.
    pub fn pop(&mut self) -> Result<T, PopError> {
        let s = &*self.shared;
        // SAFETY: pop passes the slot at `head % cap` with head < tail: it
        // holds a value the producer published with a release store and will
        // not reuse until pop advances `head`.
        let read = |_: &mut (), i: usize| unsafe { (*s.buf[i].get()).assume_init_read() };
        let ords = SpscOrds::SHIPPED;
        s.cur.pop(&mut (), &mut self.cached_tail, read, ords)
    }

    /// Number of items currently queued (an upper bound from the consumer's
    /// view).
    pub fn len(&self) -> usize {
        let s = &self.shared.cur;
        let tail = s.tail.0.load(SpscOrds::SHIPPED.tail_load);
        let head = s.head.0.load(SpscOrds::SHIPPED.own_load);
        tail.wrapping_sub(head) as usize
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.cur.close_consumer(&mut (), SpscOrds::SHIPPED);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fifo_order_single_thread() {
        let (mut tx, mut rx) = ring::<u32>(4);
        for i in 0..4 {
            tx.push(i).unwrap();
        }
        assert!(matches!(tx.push(99), Err(PushError::Full(99))));
        for i in 0..4 {
            assert_eq!(rx.pop().unwrap(), i);
        }
        assert_eq!(rx.pop(), Err(PopError::Empty));
    }

    #[test]
    fn wraparound_many_times() {
        let (mut tx, mut rx) = ring::<usize>(3);
        for round in 0..1000 {
            tx.push(round).unwrap();
            assert_eq!(rx.pop().unwrap(), round);
        }
    }

    #[test]
    fn len_and_free_len() {
        let (mut tx, mut rx) = ring::<u8>(8);
        assert_eq!(rx.len(), 0);
        assert!(rx.is_empty());
        assert_eq!(tx.free_len(), 8);
        tx.push(1).unwrap();
        tx.push(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(tx.free_len(), 6);
        rx.pop().unwrap();
        assert_eq!(rx.len(), 1);
    }

    #[test]
    fn producer_drop_signals_disconnect_after_drain() {
        let (mut tx, mut rx) = ring::<u8>(2);
        tx.push(7).unwrap();
        drop(tx);
        assert_eq!(rx.pop().unwrap(), 7);
        assert_eq!(rx.pop(), Err(PopError::Disconnected));
    }

    #[test]
    fn consumer_drop_signals_disconnect() {
        let (mut tx, rx) = ring::<u8>(2);
        drop(rx);
        assert!(matches!(tx.push(1), Err(PushError::Disconnected(1))));
    }

    #[test]
    fn unread_items_are_dropped() {
        use std::sync::atomic::AtomicUsize;
        static DROPS: AtomicUsize = AtomicUsize::new(0);
        #[derive(Debug)]
        struct D;
        impl Drop for D {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, rx) = ring::<D>(4);
        tx.push(D).unwrap();
        tx.push(D).unwrap();
        drop(tx);
        drop(rx);
        assert_eq!(DROPS.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cross_thread_stress_preserves_order_and_items() {
        const N: usize = 200_000;
        let (mut tx, mut rx) = ring::<usize>(64);
        let producer = thread::spawn(move || {
            for i in 0..N {
                let mut v = i;
                loop {
                    match tx.push(v) {
                        Ok(()) => break,
                        Err(PushError::Full(back)) => {
                            v = back;
                            std::hint::spin_loop();
                        }
                        Err(PushError::Disconnected(_)) => panic!("consumer died"),
                    }
                }
            }
        });
        let mut expected = 0usize;
        while expected < N {
            match rx.pop() {
                Ok(v) => {
                    assert_eq!(v, expected, "items must arrive in order");
                    expected += 1;
                }
                Err(PopError::Empty) => std::hint::spin_loop(),
                Err(PopError::Disconnected) => break,
            }
        }
        producer.join().unwrap();
        assert_eq!(expected, N);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = ring::<u8>(0);
    }
}
