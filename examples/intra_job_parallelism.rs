//! Intra-job parallelism: compile GoogleNet's inception branches onto
//! parallel virtual streams (`compile_parallel`) and serve it under Paella,
//! which binds the virtual streams to real CUDA streams at launch and
//! realizes the cross-stream joins as dependency edges of the model's
//! `KernelDag` — the Rammer-style optimization (§9) expressed as a compiler
//! pass over the same serving stack.
//!
//! Run with: `cargo run --release --example intra_job_parallelism`

use paella_channels::ChannelConfig;
use paella_compiler::{compile, compile_parallel, stream_count, CostModel};
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_models::zoo;
use paella_sim::{SimDuration, SimTime};

fn serve_once(model: &paella_compiler::CompiledModel) -> SimDuration {
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        21,
    );
    let id = d.register_model(model);
    d.submit(InferenceRequest {
        client: ClientId(0),
        model: id,
        submitted_at: SimTime::ZERO,
    });
    d.run_to_idle();
    let done = d.drain_completions();
    assert_eq!(done.len(), 1);
    done[0].jct()
}

fn main() {
    let cm = CostModel::default();
    println!(
        "{:12} {:>8} {:>9} {:>12} {:>9}",
        "model", "kernels", "streams", "1-job JCT", "speedup"
    );
    for (name, graph) in [
        ("googlenet", zoo::googlenet()),
        ("inceptionv3", zoo::inception_v3()),
        ("squeezenet", zoo::squeezenet1_1()),
        ("resnet50", zoo::resnet50()),
    ] {
        let seq = compile(name, &graph, &cm, 1.0);
        let par = compile_parallel(name, &graph, &cm, 1.0, 4);
        let t_seq = serve_once(&seq);
        let t_par = serve_once(&par);
        let speedup = t_seq.as_nanos() as f64 / t_par.as_nanos() as f64;
        println!(
            "{:12} {:>8} {:>9} {:>12} {:>8.2}x",
            name,
            par.kernel_count(),
            stream_count(&par),
            format!("{t_par}"),
            speedup
        );
    }
    println!(
        "\nBranch-heavy models (inception/fire modules) gain from co-residency;\n\
         chain-structured ResNet bottlenecks cannot, as expected. The same\n\
         dispatcher serves both: virtual streams and dependency edges are the\n\
         only machinery involved."
    );
}
