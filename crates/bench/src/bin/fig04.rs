//! Figure 4: total time to execute 1000 empty kernels per stream under
//! different synchronization methods, as the number of streams grows. The
//! kernels are embarrassingly parallel, so synchronization is the dominant
//! cost: `cudaStreamAddCallback` serializes completions through the
//! runtime's callback thread, `cudaStreamSynchronize` burns a driver poll
//! per kernel, while the Paella dispatcher reacts to the shared-memory
//! notifQ.

use paella_bench::{f, header, row, scaled};
use paella_channels::CudaRuntimeModel;
use paella_core::{ClientId, InferenceRequest};
use paella_gpu::{DeviceConfig, GpuSim, KernelLaunch, StreamId};
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};
use paella_workload::{make_system, SystemKey};

const KERNELS_PER_STREAM: usize = 1_000;

/// Host-serialized synchronization methods: play every kernel through the
/// device, then charge the host-side per-kernel synchronization cost on one
/// runtime thread (which is exactly why these APIs scale so poorly).
fn direct_sync_total(streams: u32, per_kernel_host: SimDuration) -> SimDuration {
    let kernels = scaled(KERNELS_PER_STREAM) * streams as usize;
    let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), 5);
    let mut uid = 0;
    for s in 0..streams {
        for _ in 0..scaled(KERNELS_PER_STREAM) {
            uid += 1;
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch {
                    uid,
                    stream: StreamId(s + 1),
                    desc: synthetic::empty_kernel(4, None),
                },
            );
        }
    }
    let mut out = Vec::new();
    let mut device_done = SimTime::ZERO;
    while let Some(t) = gpu.next_time() {
        gpu.advance_until(t, &mut out);
        device_done = t;
    }
    // Host work serializes on the runtime thread and cannot finish before
    // the device does.
    let host =
        CudaRuntimeModel::LAUNCH_OVERHEAD * kernels as u64 + per_kernel_host * kernels as u64;
    device_done.saturating_since(SimTime::ZERO).max(host)
}

/// The Paella dispatcher path: jobs of 1000 empty kernels each.
fn paella_total(streams: u32) -> SimDuration {
    let mut sys = make_system(SystemKey::Paella, DeviceConfig::tesla_t4(), 5);
    let m = sys.register_model(&synthetic::uniform_job(
        "empty",
        scaled(KERNELS_PER_STREAM) as u32,
        SimDuration::from_micros(2),
        4,
    ));
    for c in 0..streams {
        sys.submit(InferenceRequest {
            client: ClientId(c),
            model: m,
            submitted_at: SimTime::ZERO,
        });
    }
    sys.run_to_idle();
    let done = sys.drain_completions();
    assert_eq!(done.len(), streams as usize);
    done.iter()
        .map(|c| c.client_visible_at)
        .max()
        .unwrap()
        .saturating_since(SimTime::ZERO)
}

fn main() {
    header(
        "Figure 4",
        "total time for 1000 empty kernels per stream under different synchronization methods",
    );
    row(&[
        "streams".into(),
        "addcallback_ms".into(),
        "streamsync_ms".into(),
        "paella_ms".into(),
    ]);
    let stream_counts = [1u32, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20];
    // Grid: stream count × method (callback / streamsync / paella).
    let grid = paella_bench::sweep::run_grid(stream_counts.len() * 3, |i| {
        let streams = stream_counts[i / 3];
        match i % 3 {
            0 => direct_sync_total(streams, CudaRuntimeModel::STREAM_CALLBACK),
            1 => direct_sync_total(streams, CudaRuntimeModel::STREAM_SYNCHRONIZE),
            _ => paella_total(streams),
        }
    });
    for (i, streams) in stream_counts.iter().enumerate() {
        row(&[
            streams.to_string(),
            f(grid[3 * i].as_millis_f64()),
            f(grid[3 * i + 1].as_millis_f64()),
            f(grid[3 * i + 2].as_millis_f64()),
        ]);
    }
}
