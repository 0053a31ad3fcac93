//! A saturated, mixed-footprint load for a bare [`GpuSim`] — the regime in
//! which the block scheduler mostly answers "nothing fits". Shared by the
//! engine-output golden test (`tests/integration.rs`) and, through `#[path]`,
//! the `contended` group of `crates/bench/benches/gpu_engine.rs`.

use paella_gpu::{
    BlockFootprint, CopyDir, DurationModel, GpuOutput, GpuSim, InstrumentationSpec, KernelDesc,
    KernelLaunch, MemcpyOp, MemcpyUid, StreamId,
};
use paella_sim::{SimDuration, SimTime};

/// More streams than any preset has hardware queues, so queues are shared.
const STREAMS: u32 = 48;
const KERNELS_PER_STREAM: u32 = 5;
/// Kernels in the load.
pub const KERNELS: u32 = STREAMS * KERNELS_PER_STREAM;

/// `(threads, regs_per_thread, shmem)`: on Turing limits these bind on
/// threads (4/SM), registers (4/SM), shared memory (2/SM), block slots
/// (16/SM), threads again with every resource in play (5/SM), and registers
/// not at all (`regs_per_thread == 0`, 2/SM).
const FOOTPRINTS: [(u32, u32, u32); 6] = [
    (256, 16, 0),
    (128, 128, 0),
    (64, 8, 24 * 1024),
    (32, 4, 0),
    (192, 40, 6 * 1024),
    (512, 0, 1024),
];

fn kernel(stream: u32, k: u32) -> KernelDesc {
    let i = stream * KERNELS_PER_STREAM + k;
    let (threads, regs_per_thread, shmem) = FOOTPRINTS[(i % 6) as usize];
    // Waves of 9–79 µs: both sides of the engine's 15 µs overhead rule.
    let base = SimDuration::from_micros(9 + u64::from(i * 7 % 71));
    KernelDesc {
        name: "contended".to_string().into(),
        grid_blocks: 256 * (1 + (stream * 3 + k * 5) % 8),
        footprint: BlockFootprint {
            threads,
            regs_per_thread,
            shmem,
        },
        duration: if i.is_multiple_of(3) {
            DurationModel::fixed(base)
        } else {
            DurationModel::jittered(base, 0.1)
        },
        instrumentation: Some(if i.is_multiple_of(7) {
            InstrumentationSpec::without_aggregation()
        } else {
            InstrumentationSpec::default()
        }),
    }
}

/// Submits the whole load the way a host does — advance the device to each
/// submission instant, then submit — and runs it dry. Returns every output
/// in the order the device produced them.
pub fn run(gpu: &mut GpuSim) -> Vec<GpuOutput> {
    let mut out = Vec::new();
    for k in 0..KERNELS_PER_STREAM {
        for s in 0..STREAMS {
            let uid = k * STREAMS + s + 1;
            let now = SimTime::from_nanos(u64::from(uid) * 700);
            gpu.advance_until(now, &mut out);
            let stream = StreamId(s + 1);
            // Every fourth stream has a copy between its kernels, so copy
            // completions also re-run the block scheduler.
            if s.is_multiple_of(4) && k > 0 {
                gpu.enqueue_memcpy(
                    now,
                    MemcpyOp {
                        uid: MemcpyUid(u64::from(uid)),
                        stream,
                        bytes: 64 * 1024,
                        dir: if k.is_multiple_of(2) {
                            CopyDir::HostToDevice
                        } else {
                            CopyDir::DeviceToHost
                        },
                    },
                );
            }
            gpu.launch_kernel(
                now,
                KernelLaunch {
                    uid,
                    stream,
                    desc: kernel(s, k),
                },
            );
        }
    }
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
    }
    assert!(gpu.is_idle());
    out
}
