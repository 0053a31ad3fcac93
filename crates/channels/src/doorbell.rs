//! Hybrid interrupt-then-poll wakeup (§5.3).
//!
//! A blocking `readResult` would either burn a core polling (lowest latency)
//! or sleep on a socket (lowest CPU, ~10% slower in the paper's measurement).
//! Paella's hybrid: the client sleeps on an interrupt-style channel until the
//! dispatcher's *almost finished* notification arrives, then switches to
//! polling shared memory to catch the actual completion with polling-grade
//! latency.
//!
//! [`Doorbell`] is the interrupt half — a futex-style park/unpark built on an
//! event counter and `std::thread` parking. [`HybridWaiter::wait_until`]
//! implements the full hybrid protocol against an arbitrary poll closure.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// An edge-triggered wakeup channel. Multiple rings coalesce, like a Unix
/// socket used purely as a doorbell.
pub struct Doorbell {
    epoch: AtomicU64,
    sleepers: Mutex<Vec<Thread>>,
    waiters: AtomicUsize,
}

impl Default for Doorbell {
    fn default() -> Self {
        Self::new()
    }
}

impl Doorbell {
    /// Creates a doorbell with no pending rings.
    pub fn new() -> Self {
        Doorbell {
            epoch: AtomicU64::new(0),
            sleepers: Mutex::new(Vec::new()),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Creates a shared doorbell.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Rings the doorbell, waking every current sleeper. Rings while nobody
    /// sleeps are remembered (edge → level via the epoch counter), so a ring
    /// that races with a sleeper's registration is never lost.
    pub fn ring(&self) {
        // release: orders the work that prompted this ring (e.g. the result
        // write) before the epoch bump a waiter's acquire load observes.
        self.epoch.fetch_add(1, Ordering::Release);
        // acquire: pairs with the waiter's AcqRel registration increment —
        // if a waiter got past `fetch_add` before our epoch bump, we must
        // see its count and take the sleeper lock to unpark it.
        if self.waiters.load(Ordering::Acquire) > 0 {
            let mut sleepers = self.sleepers.lock().expect("doorbell poisoned");
            for t in sleepers.drain(..) {
                t.unpark();
            }
        }
    }

    /// Current epoch; a later [`wait_past`](Self::wait_past) with this value
    /// returns once `ring` has been called at least once more.
    pub fn epoch(&self) -> u64 {
        // acquire: pairs with ring()'s release bump, so an observed epoch
        // carries the ringing thread's prior writes.
        self.epoch.load(Ordering::Acquire)
    }

    /// Blocks until the epoch advances past `seen`, or `timeout` elapses.
    /// Returns `true` if woken by a ring, `false` on timeout.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        // acqrel: the release half makes our registration visible to ring()'s
        // acquire waiters check (the Dekker-style handshake that prevents a
        // lost wakeup); the acquire half orders the epoch re-check below
        // after the registration.
        self.waiters.fetch_add(1, Ordering::AcqRel);
        let mut registered = false;
        let woke = loop {
            // acquire: pairs with ring()'s release bump.
            if self.epoch.load(Ordering::Acquire) != seen {
                break true;
            }
            let now = Instant::now();
            if now >= deadline {
                break false;
            }
            {
                let mut sleepers = self.sleepers.lock().expect("doorbell poisoned");
                // Re-check under the lock so a concurrent `ring` cannot slip
                // between our epoch check and registration.
                // acquire: combined with the sleepers mutex this is what
                // makes the park below safe — a ring that bumped the epoch
                // before we took the lock is observed here.
                if self.epoch.load(Ordering::Acquire) != seen {
                    break true;
                }
                sleepers.push(std::thread::current());
                registered = true;
            }
            std::thread::park_timeout(deadline - now);
        };
        if registered {
            // Only `ring` drains the list; a wait that ends any other way (a
            // timeout) takes itself off.
            let me = std::thread::current().id();
            let mut sleepers = self.sleepers.lock().expect("doorbell poisoned");
            sleepers.retain(|t| t.id() != me);
        }
        // acqrel: deregistration mirrors the increment above; release keeps
        // it ordered after our final epoch read.
        self.waiters.fetch_sub(1, Ordering::AcqRel);
        woke
    }
}

/// Statistics from one hybrid wait, used by the Fig. 14 CPU-utilization
/// experiment.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WaitStats {
    /// Wall time spent blocked on the doorbell (near-zero CPU).
    pub blocked: Duration,
    /// Wall time spent polling (full CPU).
    pub polled: Duration,
    /// Number of poll iterations executed.
    pub poll_iters: u64,
}

/// A client-side waiter implementing the hybrid interrupt-then-poll protocol.
pub struct HybridWaiter {
    doorbell: Arc<Doorbell>,
}

impl HybridWaiter {
    /// Creates a waiter listening on `doorbell`.
    pub fn new(doorbell: Arc<Doorbell>) -> Self {
        HybridWaiter { doorbell }
    }

    /// Blocks until `poll` returns `Some`, using the hybrid protocol:
    /// sleep on the doorbell (the dispatcher rings it when the job is
    /// *almost finished*), then spin on `poll` until the result lands.
    ///
    /// `max_block` bounds each sleep so a lost wakeup degrades to periodic
    /// polling instead of a hang.
    pub fn wait_until<T>(
        &self,
        mut poll: impl FnMut() -> Option<T>,
        max_block: Duration,
    ) -> (T, WaitStats) {
        let mut stats = WaitStats::default();
        loop {
            // Fast path: the result may already be there.
            stats.poll_iters += 1;
            if let Some(v) = poll() {
                return (v, stats);
            }
            // Interrupt phase: sleep until the almost-finished ring.
            let seen = self.doorbell.epoch();
            // One more check: the ring may have fired between poll and epoch.
            stats.poll_iters += 1;
            if let Some(v) = poll() {
                return (v, stats);
            }
            let t0 = Instant::now();
            self.doorbell.wait_past(seen, max_block);
            stats.blocked += t0.elapsed();
            // Poll phase: spin until the completion is visible.
            let t1 = Instant::now();
            loop {
                stats.poll_iters += 1;
                if let Some(v) = poll() {
                    stats.polled += t1.elapsed();
                    return (v, stats);
                }
                if t1.elapsed() > max_block {
                    // The ring was early or spurious; go back to sleeping.
                    stats.polled += t1.elapsed();
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn ring_before_wait_is_not_lost() {
        let d = Doorbell::new();
        let seen = d.epoch();
        d.ring();
        assert!(d.wait_past(seen, Duration::from_millis(1)));
    }

    #[test]
    fn wait_times_out_without_ring() {
        let d = Doorbell::new();
        let seen = d.epoch();
        let t0 = Instant::now();
        assert!(!d.wait_past(seen, Duration::from_millis(10)));
        assert!(t0.elapsed() >= Duration::from_millis(10));
    }

    #[test]
    fn timed_out_waits_leave_no_sleeper_behind() {
        let d = Doorbell::new();
        for _ in 0..8 {
            assert!(!d.wait_past(d.epoch(), Duration::from_millis(1)));
        }
        assert_eq!(d.sleepers.lock().unwrap().len(), 0);
    }

    #[test]
    fn cross_thread_wakeup() {
        let d = Doorbell::shared();
        let d2 = Arc::clone(&d);
        let seen = d.epoch();
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(5));
            d2.ring();
        });
        assert!(d.wait_past(seen, Duration::from_secs(5)));
        h.join().unwrap();
    }

    #[test]
    fn multiple_sleepers_all_wake() {
        let d = Doorbell::shared();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let d = Arc::clone(&d);
            let seen = d.epoch();
            handles.push(thread::spawn(move || {
                d.wait_past(seen, Duration::from_secs(5))
            }));
        }
        thread::sleep(Duration::from_millis(10));
        d.ring();
        for h in handles {
            assert!(h.join().unwrap());
        }
    }

    #[test]
    fn hybrid_wait_immediate_result_skips_sleep() {
        let d = Doorbell::shared();
        let w = HybridWaiter::new(Arc::clone(&d));
        let (v, stats) = w.wait_until(|| Some(42), Duration::from_millis(100));
        assert_eq!(v, 42);
        assert_eq!(stats.blocked, Duration::ZERO);
    }

    #[test]
    fn hybrid_wait_blocks_then_polls() {
        let d = Doorbell::shared();
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&d), Arc::clone(&flag));
        let h = thread::spawn(move || {
            // Almost-finished notification…
            thread::sleep(Duration::from_millis(10));
            d2.ring();
            // …then the actual completion a little later.
            thread::sleep(Duration::from_millis(2));
            f2.store(true, Ordering::Release);
        });
        let w = HybridWaiter::new(d);
        let (v, stats) = w.wait_until(
            || flag.load(Ordering::Acquire).then_some(7),
            Duration::from_secs(1),
        );
        assert_eq!(v, 7);
        assert!(
            stats.blocked >= Duration::from_millis(5),
            "slept during exec"
        );
        assert!(stats.poll_iters >= 1);
        h.join().unwrap();
    }

    #[test]
    fn hybrid_wait_survives_lost_wakeup() {
        // Nobody ever rings; max_block bounds each sleep so the waiter still
        // finds the result via its periodic re-poll.
        let d = Doorbell::shared();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(20));
            f2.store(true, Ordering::Release);
        });
        let w = HybridWaiter::new(d);
        let (v, _) = w.wait_until(
            || flag.load(Ordering::Acquire).then_some(1),
            Duration::from_millis(5),
        );
        assert_eq!(v, 1);
        h.join().unwrap();
    }
}
