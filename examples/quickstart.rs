//! Quickstart: compile a model, register it with a Paella dispatcher, submit
//! inference requests, and read back completions with latency breakdowns.
//!
//! Run with: `cargo run --release --example quickstart`

use paella_channels::ChannelConfig;
use paella_compiler::{compile, CostModel, Graph, Op, Shape};
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_sim::{SimDuration, SimTime};

fn main() {
    // 1. Define a small CNN in the graph IR (what you would hand to TVM).
    let mut g = Graph::new();
    let x = g.input(Shape::chw(3, 64, 64));
    let c = g
        .add(
            Op::Conv2d {
                out_channels: 16,
                kernel: 3,
                stride: 1,
                pad: 1,
            },
            &[x],
        )
        .unwrap();
    let r = g.add(Op::Relu, &[c]).unwrap();
    let p = g.add(Op::GlobalAvgPool, &[r]).unwrap();
    let d = g.add(Op::Dense { units: 10 }, &[p]).unwrap();
    g.add(Op::Softmax, &[d]).unwrap();

    // 2. Compile it: fusion, lowering to kernels, cost model.
    let model = compile("tiny-cnn", &g, &CostModel::default(), 1.0);
    println!(
        "compiled {}: {} kernels, {} blocks, ~{} per run",
        model.name,
        model.kernel_count(),
        model.total_blocks(),
        model.device_time_lower_bound(),
    );

    // 3. Stand up the Paella dispatcher over a simulated Tesla T4. The
    //    dispatcher instruments the kernels (the §4.1 compiler pass) and
    //    bootstraps the profile the SRPT scheduler uses.
    let mut paella = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        42,
    );
    let model_id = paella.register_model(&model);

    // 4. Submit requests — the equivalent of the paper's
    //    `paella.predict("tiny-cnn", len, io_ptr, options)`.
    for i in 0..10u64 {
        paella.submit(InferenceRequest {
            client: ClientId(0),
            model: model_id,
            submitted_at: SimTime::from_micros(i * 200),
        });
    }

    // 5. Drive the simulation to completion and read results.
    paella.run_to_idle();
    let mut done = paella.drain_completions();
    done.sort_by_key(|c| c.client_visible_at);
    println!(
        "\n{:>4} {:>12} {:>12} {:>12}",
        "job", "jct", "device", "overhead"
    );
    for c in &done {
        println!(
            "{:>4} {:>12} {:>12} {:>12}",
            c.job.0,
            format!("{}", c.jct()),
            format!("{}", c.breakdown.device),
            format!("{}", c.breakdown.overhead()),
        );
    }
    let mean_overhead_us: f64 = done
        .iter()
        .map(|c| c.breakdown.overhead().as_micros_f64())
        .sum::<f64>()
        / done.len() as f64;
    println!("\nmean serving overhead: {mean_overhead_us:.1} us per request");
    assert!(mean_overhead_us < 500.0, "Paella keeps overheads small");
    let _ = SimDuration::ZERO;
}
