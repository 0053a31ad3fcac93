//! Hybrid interrupt-then-poll wakeup (§5.3).
//!
//! A blocking `readResult` would either burn a core polling (lowest latency)
//! or sleep on a socket (lowest CPU, ~10% slower in the paper's measurement).
//! Paella's hybrid: the client sleeps on an interrupt-style channel until the
//! dispatcher's *almost finished* notification arrives, then switches to
//! polling shared memory to catch the actual completion with polling-grade
//! latency.
//!
//! [`Doorbell`] is the interrupt half: an epoch and a waiter count under one
//! `Mutex`, and a `Condvar` that a ring notifies. [`HybridWaiter::arm`] takes
//! the epoch when the request is submitted, and [`HybridWaiter::wait`] runs
//! the full hybrid protocol from it against an arbitrary poll closure, so a
//! ring that fires before the wait begins still counts.

use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What the doorbell's lock guards.
#[derive(Default)]
struct Bell {
    /// Rings so far.
    epoch: u64,
    /// Threads inside [`Doorbell::wait_past`].
    waiters: usize,
}

/// An edge-triggered wakeup channel. Multiple rings coalesce, like a Unix
/// socket used purely as a doorbell.
#[derive(Default)]
pub struct Doorbell {
    bell: Mutex<Bell>,
    rung: Condvar,
}

impl Doorbell {
    /// Creates a doorbell with no pending rings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a shared doorbell.
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::new())
    }

    /// Rings the doorbell, waking every current sleeper. Rings while nobody
    /// sleeps are remembered (edge → level via the epoch counter), so a ring
    /// that races with a sleeper's registration is never lost.
    pub fn ring(&self) {
        let mut bell = self.bell.lock().expect("doorbell poisoned");
        bell.epoch += 1;
        if bell.waiters > 0 {
            self.rung.notify_all();
        }
    }

    /// Current epoch; a later [`wait_past`](Self::wait_past) with this value
    /// returns once `ring` has been called at least once more.
    pub fn epoch(&self) -> u64 {
        self.bell.lock().expect("doorbell poisoned").epoch
    }

    /// Blocks until the epoch advances past `seen`, or `timeout` elapses.
    /// Returns `true` if woken by a ring, `false` on timeout.
    pub fn wait_past(&self, seen: u64, timeout: Duration) -> bool {
        let mut bell = self.bell.lock().expect("doorbell poisoned");
        bell.waiters += 1;
        let (mut bell, _) = self
            .rung
            .wait_timeout_while(bell, timeout, |b| b.epoch == seen)
            .expect("doorbell poisoned");
        bell.waiters -= 1;
        bell.epoch != seen
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
    /// Sleeps that ended at `max_block` with no ring.
    pub timeouts: u64,
}

/// The doorbell's epoch when a request was submitted; a wait armed with it
/// takes any later ring as the request's *almost finished* notification.
#[derive(Clone, Copy, Debug)]
#[must_use = "a ticket is only useful to `HybridWaiter::wait`"]
pub struct Ticket {
    epoch: u64,
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

    /// Arms the waiter: call it before submitting the request, so that
    /// [`wait`](Self::wait) sees a ring that fires before the wait begins.
    pub fn arm(&self) -> Ticket {
        Ticket {
            epoch: self.doorbell.epoch(),
        }
    }

    /// Blocks until `poll` returns `Some`, using the hybrid protocol:
    /// sleep on the doorbell until it rings past `ticket` (the dispatcher
    /// rings it when the job is *almost finished*), then spin on `poll`
    /// until the result lands.
    ///
    /// `max_block` bounds each sleep so a lost wakeup degrades to periodic
    /// polling instead of a hang, and each spin so an early or spurious ring
    /// goes back to sleeping.
    pub fn wait<T>(
        &self,
        ticket: Ticket,
        mut poll: impl FnMut() -> Option<T>,
        max_block: Duration,
    ) -> (T, WaitStats) {
        let mut stats = WaitStats::default();
        let mut seen = ticket.epoch;
        loop {
            // The result may already be there.
            stats.poll_iters += 1;
            if let Some(v) = poll() {
                return (v, stats);
            }
            // Interrupt phase: sleep until the almost-finished ring.
            let t0 = Instant::now();
            let rung = self.doorbell.wait_past(seen, max_block);
            stats.blocked += t0.elapsed();
            if !rung {
                // No ring within `max_block`: poll once more and sleep again.
                stats.timeouts += 1;
                continue;
            }
            // A ring from here on is a new one for the next sleep.
            seen = self.doorbell.epoch();
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
    use std::sync::atomic::{AtomicBool, Ordering};
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
        assert_eq!(d.bell.lock().unwrap().waiters, 0);
    }

    #[test]
    fn a_ring_racing_a_registration_is_never_lost() {
        // Every round, the partner's ring races this side's registration.
        const ROUNDS: usize = 10_000;
        let (ping, pong) = (Doorbell::shared(), Doorbell::shared());
        let (ping2, pong2) = (Arc::clone(&ping), Arc::clone(&pong));
        let h = thread::spawn(move || {
            let mut seen = 0;
            for _ in 0..ROUNDS {
                assert!(pong2.wait_past(seen, Duration::from_secs(10)));
                seen = pong2.epoch();
                ping2.ring();
            }
        });
        for _ in 0..ROUNDS {
            let seen = ping.epoch();
            pong.ring();
            assert!(ping.wait_past(seen, Duration::from_secs(10)));
        }
        h.join().unwrap();
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
        let (v, stats) = w.wait(w.arm(), || Some(42), Duration::from_millis(100));
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
        let (v, stats) = w.wait(
            w.arm(),
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
        let (v, _) = w.wait(
            w.arm(),
            || flag.load(Ordering::Acquire).then_some(1),
            Duration::from_millis(5),
        );
        assert_eq!(v, 1);
        h.join().unwrap();
    }

    #[test]
    fn hybrid_wait_without_a_ring_never_spins() {
        // A timed-out wait is not a ring: re-poll and sleep, never spin.
        let d = Doorbell::shared();
        let flag = Arc::new(AtomicBool::new(false));
        let f2 = Arc::clone(&flag);
        let h = thread::spawn(move || {
            thread::sleep(Duration::from_millis(30));
            f2.store(true, Ordering::Release);
        });
        let w = HybridWaiter::new(d);
        let (_, stats) = w.wait(
            w.arm(),
            || flag.load(Ordering::Acquire).then_some(()),
            Duration::from_millis(5),
        );
        assert_eq!(stats.polled, Duration::ZERO);
        h.join().unwrap();
    }

    #[test]
    fn a_ring_before_the_wait_is_the_wakeup() {
        // Armed at submission, rung before the client starts waiting: the
        // wait goes straight to its poll phase instead of sleeping out
        // `max_block` on a ring that already fired.
        let d = Doorbell::shared();
        let w = HybridWaiter::new(Arc::clone(&d));
        let ticket = w.arm();
        d.ring();
        let mut calls = 0;
        let (v, stats) = w.wait(
            ticket,
            || {
                calls += 1;
                (calls == 3).then_some(calls)
            },
            Duration::from_secs(1),
        );
        assert_eq!((v, stats.poll_iters, stats.timeouts), (3, 3, 0));
    }
}
