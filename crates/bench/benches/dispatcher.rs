//! End-to-end dispatcher benchmark: simulated-seconds-per-wall-second for a
//! full Paella serving loop, plus an ablation of the §6 lookahead slack B.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use paella_channels::ChannelConfig;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::{synthetic, ModelZoo};
use paella_sim::{SimDuration, SimTime};

fn serve(jobs: u32, lookahead: u64) -> usize {
    let mut cfg = DispatcherConfig::paella();
    cfg.lookahead_blocks = lookahead;
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        cfg,
        5,
    );
    let m = d.register_model(&synthetic::fig2_job());
    for i in 0..jobs {
        d.submit(InferenceRequest {
            client: ClientId(i % 8),
            model: m,
            submitted_at: SimTime::from_micros(u64::from(i) * 50),
        });
    }
    d.run_to_idle();
    d.drain_completions().len()
}

fn bench_serving(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatcher_end_to_end");
    for jobs in [64u32, 256] {
        g.throughput(Throughput::Elements(u64::from(jobs)));
        g.bench_with_input(BenchmarkId::new("paella", jobs), &jobs, |b, &n| {
            b.iter(|| assert_eq!(serve(n, 24), n as usize));
        });
    }
    g.finish();
}

fn bench_lookahead_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: the B slack trades queue depth for gap-hiding;
    // this measures harness cost across B, while fig02 measures its effect
    // on goodput.
    let mut g = c.benchmark_group("dispatcher_lookahead_B");
    for b_slack in [0u64, 8, 24, 96] {
        g.bench_with_input(
            BenchmarkId::from_parameter(b_slack),
            &b_slack,
            |b, &slack| {
                b.iter(|| assert_eq!(serve(128, slack), 128));
            },
        );
    }
    g.finish();
}

fn bench_single_request_latency_path(c: &mut Criterion) {
    let mut g = c.benchmark_group("dispatcher_single_request");
    g.bench_function("tiny_model", |b| {
        b.iter(|| {
            let mut d = Dispatcher::new(
                DeviceConfig::tesla_t4(),
                ChannelConfig::default(),
                Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
                DispatcherConfig::paella(),
                5,
            );
            let m = d.register_model(&synthetic::tiny_model(SimDuration::from_micros(20)));
            d.submit(InferenceRequest {
                client: ClientId(0),
                model: m,
                submitted_at: SimTime::ZERO,
            });
            d.run_to_idle();
            assert_eq!(d.drain_completions().len(), 1);
        });
    });
    g.finish();
}

/// The contended hot path: a burst of many-block Table 2 jobs, so every wave
/// posts a run of words and the notification loop, not the scheduler, is
/// where the host's time goes.
fn bench_zoo_burst(c: &mut Criterion) {
    const JOBS: u32 = 12;
    let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
    let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
    let mut g = c.benchmark_group("dispatcher");
    g.throughput(Throughput::Elements(u64::from(JOBS)));
    g.bench_function("zoo_burst", |b| {
        b.iter_batched(
            || {
                let mut d = Dispatcher::new(
                    DeviceConfig::tesla_t4(),
                    ChannelConfig::default(),
                    Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
                    DispatcherConfig::paella(),
                    5,
                );
                let ids = models.each_ref().map(|m| d.register_model(m));
                (d, ids)
            },
            |(mut d, ids)| {
                for i in 0..JOBS {
                    d.submit(InferenceRequest {
                        client: ClientId(i % 4),
                        model: ids[i as usize % ids.len()],
                        submitted_at: SimTime::from_micros(u64::from(i) * 200),
                    });
                }
                d.run_to_idle();
                assert_eq!(d.drain_completions().len(), JOBS as usize);
                assert_eq!(d.notifq_outstanding(), 0);
            },
            BatchSize::SmallInput,
        );
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_serving, bench_lookahead_ablation, bench_single_request_latency_path,
        bench_zoo_burst
}
criterion_main!(benches);
