//! Telemetry's own cost: the dispatcher's zoo burst served with telemetry on,
//! then its host + device trace taken, concatenated — recording and the take —
//! beside the same burst with telemetry off.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use paella_channels::ChannelConfig;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::ModelZoo;
use paella_sim::SimTime;

const JOBS: u32 = 12;

fn bench_zoo_burst_traced(c: &mut Criterion) {
    let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
    let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
    let mut g = c.benchmark_group("telemetry");
    g.throughput(Throughput::Elements(u64::from(JOBS)));
    for (name, on) in [("zoo_burst_off", false), ("zoo_burst_on_and_take", true)] {
        g.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut d = Dispatcher::new(
                        DeviceConfig::tesla_t4(),
                        ChannelConfig::default(),
                        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
                        DispatcherConfig::paella(),
                        5,
                    );
                    if on {
                        d.enable_telemetry();
                    }
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
                    let log = d.take_trace_log();
                    assert_eq!(log.is_some_and(|log| log.len() == 29_301), on);
                },
                BatchSize::SmallInput,
            );
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_zoo_burst_traced
}
criterion_main!(benches);
