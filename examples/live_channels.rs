//! Exercise the *real* lock-free channels with real threads: a client thread
//! submits requests through the SPSC ring, a "device" thread posts
//! placement/completion notifications through the notifQ, and a dispatcher
//! thread polls both and answers through the hybrid doorbell — the full §5
//! channel architecture, live.
//!
//! Run with: `cargo run --release --example live_channels`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use paella_channels::{
    notif_queue, ring, Doorbell, HybridWaiter, NotifKind, Notification, PopError,
};

const REQUESTS: u32 = 10_000;
/// The completion count at which the dispatcher rings the client's doorbell
/// once: the job is *almost finished* (§5.3), so the client wakes a little
/// before its result and spins only for the rest.
const ALMOST_DONE: u32 = REQUESTS - 128;

fn main() {
    // Client → dispatcher request ring (the paper's predict() channel).
    let (mut req_tx, mut req_rx) = ring::<u32>(256);
    // Device → host notification ring (the notifQ of §5.2).
    let (notif_tx, mut notif_rx) = notif_queue(4096);
    // Dispatcher → client completion slot + almost-finished doorbell (§5.3).
    let completed = Arc::new(AtomicU64::new(0));
    let doorbell = Doorbell::shared();
    // Armed before the submit loop, and before the device and dispatcher
    // start: the one ring may fire before the client begins to wait.
    let waiter = HybridWaiter::new(Arc::clone(&doorbell));
    let ticket = waiter.arm();

    let t0 = Instant::now();

    // The "device": post start + end notifications as the instrumented
    // kernels of Fig. 6 do. The notifQ does not detect overruns (§5.2), so —
    // exactly as the paper prescribes — flow control caps the outstanding
    // notifications below the ring capacity, here via the dispatcher's
    // published consumption counter.
    let consumed = Arc::new(AtomicU64::new(0));
    let dev_consumed = Arc::clone(&consumed);
    let cap = 4096u64;
    let device = thread::spawn(move || {
        let mut posted = 0u64;
        for uid in 0..REQUESTS {
            while posted + 2 > dev_consumed.load(Ordering::Acquire) + cap / 2 {
                std::hint::spin_loop();
            }
            notif_tx.post(Notification::placement((uid % 40) as u8, uid, 16));
            notif_tx.post(Notification::completion((uid % 40) as u8, uid, 16));
            posted += 2;
        }
    });

    // The dispatcher: poll the request ring and the notifQ, count work, ring
    // the client's doorbell once the results are almost all in.
    let d_completed = Arc::clone(&completed);
    let d_doorbell = Arc::clone(&doorbell);
    let d_consumed = Arc::clone(&consumed);
    let dispatcher = thread::spawn(move || {
        let mut requests_seen = 0u32;
        let mut completions_seen = 0u32;
        let mut placements_seen = 0u32;
        while requests_seen < REQUESTS || completions_seen < REQUESTS {
            match req_rx.pop() {
                Ok(_req) => requests_seen += 1,
                Err(PopError::Empty) | Err(PopError::Disconnected) => {}
            }
            while let Some(n) = notif_rx.poll() {
                d_consumed.fetch_add(1, Ordering::AcqRel);
                match n.kind {
                    NotifKind::Placement => placements_seen += 1,
                    NotifKind::Completion => {
                        completions_seen += 1;
                        d_completed.store(u64::from(completions_seen), Ordering::Release);
                        if completions_seen == ALMOST_DONE {
                            d_doorbell.ring();
                        }
                    }
                }
            }
            std::hint::spin_loop();
        }
        (requests_seen, placements_seen, completions_seen)
    });

    // The client: submit requests through the ring, then wait for the final
    // completion with the hybrid interrupt-then-poll protocol.
    let c_completed = Arc::clone(&completed);
    let client = thread::spawn(move || {
        for i in 0..REQUESTS {
            let mut v = i;
            loop {
                match req_tx.push(v) {
                    Ok(()) => break,
                    Err(paella_channels::PushError::Full(back)) => {
                        v = back;
                        std::hint::spin_loop();
                    }
                    Err(paella_channels::PushError::Disconnected(_)) => return Default::default(),
                }
            }
        }
        let (final_count, stats) = waiter.wait(
            ticket,
            || {
                let done = c_completed.load(Ordering::Acquire);
                (done >= u64::from(REQUESTS)).then_some(done)
            },
            Duration::from_millis(5),
        );
        (final_count, stats)
    });

    let (reqs, placements, completions) = dispatcher.join().unwrap();
    device.join().unwrap();
    let (final_count, wait_stats) = client.join().unwrap();
    let wall = t0.elapsed();

    println!(
        "moved {reqs} requests + {placements} placement + {completions} completion notifications"
    );
    println!("client observed final completion count {final_count}");
    println!(
        "hybrid wait: blocked {:?}, polled {:?}, {} poll iterations, {} timeouts",
        wait_stats.blocked, wait_stats.polled, wait_stats.poll_iters, wait_stats.timeouts
    );
    println!(
        "total wall time {wall:?} ({:.1} M channel ops/s)",
        (f64::from(reqs) + f64::from(placements) + f64::from(completions))
            / wall.as_secs_f64()
            / 1e6
    );
    assert_eq!(reqs, REQUESTS);
    assert_eq!(completions, REQUESTS);
    assert!(final_count >= u64::from(REQUESTS));
}
