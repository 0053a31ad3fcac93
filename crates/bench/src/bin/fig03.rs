//! Figure 3: average serving-platform overhead of a single batch of
//! requests to the Triton-like server, as a percentage of the CUDA
//! execution time (kernels + memcpys), for batch sizes 1 and 64.

use paella_bench::claims::{fig03, FIG03_MODELS};
use paella_bench::{f, header, row};

fn main() {
    header(
        "Figure 3",
        "Triton serving overhead as % of CUDA execution time (batch 1 and 64)",
    );
    row(&[
        "model".into(),
        "batch1_overhead_pct".into(),
        "batch64_overhead_pct".into(),
    ]);
    // Grid: model × batch size, each cell an isolated Triton run.
    let grid = paella_bench::sweep::run_grid(FIG03_MODELS.len() * 2, |i| {
        fig03(FIG03_MODELS[i / 2], if i % 2 == 0 { 1 } else { 64 }, 3)
    });
    for (i, m) in FIG03_MODELS.iter().enumerate() {
        row(&[m.to_string(), f(grid[2 * i]), f(grid[2 * i + 1])]);
    }
}
