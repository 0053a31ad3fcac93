//! GPU-engine throughput benchmarks: events per second processed by the
//! simulator bound every experiment's wall-clock cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use paella_gpu::{
    BlockFootprint, DeviceConfig, DurationModel, GpuSim, InstrumentationSpec, KernelDesc,
    KernelLaunch, Microarch, StreamId,
};
use paella_sim::{SimDuration, SimTime};

/// The engine-output golden test's load (`tests/integration.rs`).
#[path = "../../../tests/common/contended.rs"]
mod contended;

fn kernel(blocks: u32, instrumented: bool) -> KernelDesc {
    KernelDesc {
        name: "bench".to_string().into(),
        grid_blocks: blocks,
        footprint: BlockFootprint {
            threads: 128,
            regs_per_thread: 16,
            shmem: 0,
        },
        duration: DurationModel::jittered(SimDuration::from_micros(50), 0.05),
        instrumentation: instrumented.then(InstrumentationSpec::default),
    }
}

fn run_batch(streams: u32, kernels_per_stream: u32, instrumented: bool) {
    let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 3);
    let mut uid = 0;
    for s in 0..streams {
        for _ in 0..kernels_per_stream {
            uid += 1;
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(s + 1),
                    desc: kernel(64, instrumented),
                },
            );
        }
    }
    let mut out = Vec::new();
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
        out.clear();
    }
    assert!(gpu.is_idle());
}

fn bench_engine(c: &mut Criterion) {
    let mut g = c.benchmark_group("gpu_engine");
    for &(streams, per) in &[(8u32, 16u32), (32, 16)] {
        let total = u64::from(streams * per);
        g.throughput(Throughput::Elements(total));
        g.bench_with_input(
            BenchmarkId::new("plain", format!("{streams}x{per}")),
            &(streams, per),
            |b, &(s, p)| b.iter(|| run_batch(s, p, false)),
        );
        g.bench_with_input(
            BenchmarkId::new("instrumented", format!("{streams}x{per}")),
            &(streams, per),
            |b, &(s, p)| b.iter(|| run_batch(s, p, true)),
        );
    }
    g.finish();

    // The regime that costs: a saturated device, heads turned away on
    // threads, registers and shared memory, waves of every shape.
    let mut g = c.benchmark_group("contended");
    for (name, cfg) in [
        ("tesla_t4", DeviceConfig::tesla_t4()),
        ("tiny_8sm_1q", DeviceConfig::tiny(8, 1, Microarch::Fermi)),
    ] {
        g.throughput(Throughput::Elements(u64::from(contended::KERNELS)));
        g.bench_function(name, |b| {
            b.iter(|| contended::run(&mut GpuSim::new(cfg.clone(), 0x5eed)).len())
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_engine
}
criterion_main!(benches);
