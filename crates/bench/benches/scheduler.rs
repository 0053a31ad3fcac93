//! Scheduler-operation microbenchmarks: Fig. 9 shows that per-decision cost
//! past ~10 µs destroys throughput, so `pick_next` + bookkeeping must stay
//! in the tens-of-nanoseconds range even with thousands of ready jobs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use paella_core::{
    ClientId, FifoScheduler, JobId, JobInfo, RrScheduler, Scheduler, SjfScheduler,
    SrptDeficitScheduler,
};
use paella_sim::{SimDuration, SimTime};

fn info(i: u64) -> JobInfo {
    JobInfo {
        job: JobId(i),
        client: ClientId((i % 16) as u32),
        arrival: SimTime::from_micros(i),
        total_estimate: SimDuration::from_micros(1_000 + (i * 37) % 5_000),
        remaining_estimate: SimDuration::from_micros(500 + (i * 53) % 5_000),
    }
}

fn fill(s: &mut dyn Scheduler, n: u64) {
    for i in 0..n {
        s.job_ready(info(i));
    }
}

fn bench_pick(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_pick_next");
    for n in [100u64, 1_000, 10_000] {
        g.bench_with_input(BenchmarkId::new("srpt_deficit", n), &n, |b, &n| {
            let mut s = SrptDeficitScheduler::new(Some(100.0));
            fill(&mut s, n);
            b.iter(|| std::hint::black_box(s.pick_next()));
        });
        g.bench_with_input(BenchmarkId::new("fifo", n), &n, |b, &n| {
            let mut s = FifoScheduler::new();
            fill(&mut s, n);
            b.iter(|| std::hint::black_box(s.pick_next()));
        });
        g.bench_with_input(BenchmarkId::new("sjf", n), &n, |b, &n| {
            let mut s = SjfScheduler::new();
            fill(&mut s, n);
            b.iter(|| std::hint::black_box(s.pick_next()));
        });
        g.bench_with_input(BenchmarkId::new("rr", n), &n, |b, &n| {
            let mut s = RrScheduler::new();
            fill(&mut s, n);
            b.iter(|| std::hint::black_box(s.pick_next()));
        });
    }
    g.finish();
}

fn bench_dispatch_cycle(c: &mut Criterion) {
    // The full per-kernel scheduler interaction: pick, charge, block, ready.
    let mut g = c.benchmark_group("scheduler_dispatch_cycle");
    for n in [1_000u64, 10_000] {
        g.bench_with_input(BenchmarkId::new("srpt_deficit", n), &n, |b, &n| {
            let mut s = SrptDeficitScheduler::new(Some(100.0));
            fill(&mut s, n);
            let mut i = n;
            b.iter(|| {
                let j = s.pick_next().expect("jobs ready");
                s.on_dispatched(j);
                s.job_blocked(j);
                i += 1;
                s.job_ready(info(i));
            });
        });
    }
    g.finish();
}

fn bench_lone_job_cycle(c: &mut Criterion) {
    // What the dispatcher asks per kernel when one job is in flight: the job
    // becomes ready, is picked and charged, blocks behind its dispatched
    // kernel, and the loop then finds nothing ready. Sixteen clients have
    // been seen, so the deficit table is as wide as `launch_bound`'s.
    let mut g = c.benchmark_group("scheduler_lone_job_cycle");
    g.bench_function("srpt_deficit_16_clients", |b| {
        let mut s = SrptDeficitScheduler::new(Some(100.0));
        fill(&mut s, 16);
        for i in 0..16 {
            s.job_done(JobId(i));
        }
        let job = info(16);
        b.iter(|| {
            s.job_ready(job);
            let j = s.pick_next().expect("one job ready");
            s.on_dispatched(j);
            s.job_blocked(j);
            assert_eq!(s.pick_next(), None);
        });
    });
    g.finish();
}

fn bench_remaining_update(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_remaining_changed");
    g.bench_function("srpt_10k_jobs", |b| {
        let mut s = SrptDeficitScheduler::srpt_only();
        fill(&mut s, 10_000);
        let mut k = 0u64;
        b.iter(|| {
            k = (k + 7) % 10_000;
            s.remaining_changed(JobId(k), SimDuration::from_micros(k % 4_000));
        });
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_pick, bench_dispatch_cycle, bench_lone_job_cycle, bench_remaining_update
}
criterion_main!(benches);
