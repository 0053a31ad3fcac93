//! Occupancy-tracker microbenchmarks: every wave's notifications the
//! dispatcher polls go through `on_run` (`on_notification` is its one-word
//! case), and every dispatch decision calls `should_dispatch` — both sit on
//! the critical path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paella_channels::{NotifKind, Notification};
use paella_core::OccupancyTracker;
use paella_gpu::{BlockFootprint, SmLimits};

fn fp() -> BlockFootprint {
    BlockFootprint {
        threads: 128,
        regs_per_thread: 32,
        shmem: 4096,
    }
}

fn bench_notifications(c: &mut Criterion) {
    let mut g = c.benchmark_group("occupancy");
    g.throughput(Throughput::Elements(1));
    g.bench_function("place_complete_cycle", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        t.on_launch(1, fp(), u32::MAX / 2);
        let mut sm = 0u8;
        b.iter(|| {
            sm = (sm + 1) % 40;
            t.on_notification(Notification::placement(sm, 1, 8));
            t.on_notification(Notification::completion(sm, 1, 8));
        });
    });
    g.bench_function("should_dispatch_40sm", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        // Half-load the device.
        t.on_launch(1, fp(), 160);
        for sm in 0..20 {
            t.on_notification(Notification::placement(sm, 1, 8));
        }
        b.iter(|| std::hint::black_box(t.should_dispatch(&fp(), 24)));
    });
    // The hold: a full mirror and a backlog at or above the slack, so the
    // answer is "no" and has to come from the capacity side of the predicate
    // (the case above short-circuits on `unplaced < b`).
    g.bench_function("should_dispatch_hold_full_mirror", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        t.on_launch(1, fp(), 40 * 8 + 64);
        for sm in 0..40 {
            t.on_notification(Notification::placement(sm, 1, 8));
        }
        assert!(t.unplaced_blocks() >= 24 && !t.should_dispatch(&fp(), 24));
        b.iter(|| std::hint::black_box(t.should_dispatch(std::hint::black_box(&fp()), 24)));
    });
    g.bench_function("launch_and_fully_place_16_blocks", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        let mut uid = 0;
        b.iter(|| {
            uid += 1;
            t.on_launch(uid, fp(), 16);
            t.on_notification(Notification::placement(0, uid, 16));
            t.on_notification(Notification::completion(0, uid, 16));
        });
    });
    // One wave over all 40 SMs, as the dispatcher handles it (one run: one
    // kernel lookup, one gauge settlement) and as its word-by-word twin.
    let wave: Vec<(u8, u16)> = (0..40).map(|sm| (sm, 8)).collect();
    g.throughput(Throughput::Elements(2 * wave.len() as u64));
    g.bench_function("run_40sm", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        t.on_launch(1, fp(), u32::MAX / 2);
        b.iter(|| {
            t.on_run(1, NotifKind::Placement, &wave);
            assert_eq!(t.resident_blocks(), 320);
            t.on_run(1, NotifKind::Completion, &wave);
        });
        assert_eq!((t.resident_blocks(), t.fit_count(&fp())), (0, 320));
    });
    g.bench_function("words_40sm", |b| {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        t.on_launch(1, fp(), u32::MAX / 2);
        b.iter(|| {
            for &(sm, group) in &wave {
                t.on_notification(Notification::placement(sm, 1, group));
            }
            assert_eq!(t.resident_blocks(), 320);
            for &(sm, group) in &wave {
                t.on_notification(Notification::completion(sm, 1, group));
            }
        });
        assert_eq!((t.resident_blocks(), t.fit_count(&fp())), (0, 320));
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_notifications
}
criterion_main!(benches);
