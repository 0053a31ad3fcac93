//! Occupancy-tracker microbenchmarks: every notification the dispatcher
//! polls goes through `on_notification`, and every dispatch decision calls
//! `should_dispatch` — both sit on the critical path.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use paella_channels::Notification;
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
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_notifications
}
criterion_main!(benches);
