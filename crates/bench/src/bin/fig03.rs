//! Figure 3: average serving-platform overhead of a single batch of
//! requests to the Triton-like server, as a percentage of the CUDA
//! execution time (kernels + memcpys), for batch sizes 1 and 64.

use paella_baselines::{batched_model, Triton};
use paella_bench::{device, f, header, row, zoo};
use paella_core::{ClientId, InferenceRequest, ServingSystem};
use paella_sim::SimTime;

const MODELS: [&str; 7] = [
    "densenet",
    "googlenet",
    "gpt2",
    "mobilenetv2",
    "resnet50",
    "vgg16",
    "yolov5",
];

fn overhead_pct(model_name: &str, batch: usize) -> f64 {
    let mut zoo = zoo();
    let model = zoo.get(model_name).clone();
    // The paper submits the entire batch immediately (one pre-formed
    // batch-`b` tensor) to elide the dynamic batcher's configurable wait.
    let submitted = batched_model(&model, batch);
    let mut triton = Triton::new(device(), 3);
    let id = triton.register_model(&submitted);
    triton.submit(InferenceRequest {
        client: ClientId(0),
        model: id,
        submitted_at: SimTime::ZERO,
    });
    triton.run_to_idle();
    let done = triton.drain_completions();
    assert_eq!(done.len(), 1);
    // Overhead = end-to-end latency minus CUDA work, relative to CUDA work.
    let c = &done[0];
    let device_us = c.breakdown.device.as_micros_f64();
    let total_us = c.jct().as_micros_f64();
    (total_us - device_us) / device_us * 100.0
}

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
    let grid = paella_bench::sweep::run_grid(MODELS.len() * 2, |i| {
        let m = MODELS[i / 2];
        let batch = if i % 2 == 0 { 1 } else { 64 };
        overhead_pct(m, batch)
    });
    for (i, m) in MODELS.iter().enumerate() {
        row(&[m.to_string(), f(grid[2 * i]), f(grid[2 * i + 1])]);
    }
}
