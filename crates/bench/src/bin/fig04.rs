//! Figure 4: total time to execute 1000 empty kernels per stream under
//! different synchronization methods, as the number of streams grows. The
//! kernels are embarrassingly parallel, so synchronization is the dominant
//! cost: `cudaStreamAddCallback` serializes completions through the
//! runtime's callback thread, `cudaStreamSynchronize` burns a driver poll
//! per kernel, while the Paella dispatcher reacts to the shared-memory
//! notifQ.

use paella_bench::claims::{fig04_host_sync, fig04_paella, FIG04_STREAMS};
use paella_bench::{f, header, row, scaled};
use paella_channels::CudaRuntimeModel;

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
    let kernels = scaled(1_000);
    // Grid: stream count × method (callback / streamsync / paella).
    let grid = paella_bench::sweep::run_grid(FIG04_STREAMS.len() * 3, |i| {
        let streams = FIG04_STREAMS[i / 3];
        match i % 3 {
            0 => fig04_host_sync(streams, CudaRuntimeModel::STREAM_CALLBACK, kernels, 5),
            1 => fig04_host_sync(streams, CudaRuntimeModel::STREAM_SYNCHRONIZE, kernels, 5),
            _ => fig04_paella(streams, kernels, 5),
        }
    });
    for (i, streams) in FIG04_STREAMS.iter().enumerate() {
        row(&[
            streams.to_string(),
            f(grid[3 * i].as_millis_f64()),
            f(grid[3 * i + 1].as_millis_f64()),
            f(grid[3 * i + 2].as_millis_f64()),
        ]);
    }
}
