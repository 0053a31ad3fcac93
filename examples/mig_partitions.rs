//! Multi-Instance GPU (MIG) partitioning — the §8 future-work item, working:
//! slice the T4 into static partitions, run an independent Paella dispatcher
//! per partition, and show MIG's *hard isolation*: the victim tenant's
//! latency is bit-for-bit invariant to the noisy neighbour's load, whereas on
//! a shared device even Paella's SRPT can only soften the interference.
//!
//! Run with: `cargo run --release --example mig_partitions`

use paella_cluster::MigServing;
use paella_core::{ClientId, InferenceRequest, JobCompletion, ModelId, ServingSystem};
use paella_gpu::DeviceConfig;
use paella_models::synthetic;
use paella_sim::{SimDuration, SimTime};
use paella_workload::{make_system, SystemKey};

/// The noisy tenant's jobs are the same *size* as the victim's, so SRPT has
/// no signal to prioritize the victim on a shared device.
fn tenant_model(name: &str) -> paella_compiler::CompiledModel {
    synthetic::uniform_job(name, 6, SimDuration::from_micros(150), 160)
}

fn submit_load(sys: &mut dyn ServingSystem, noisy: Option<ModelId>, victim: ModelId) {
    if let Some(noisy) = noisy {
        for i in 0..200u64 {
            sys.submit(InferenceRequest {
                client: ClientId(0),
                model: noisy,
                submitted_at: SimTime::from_micros(i * 20),
            });
        }
    }
    for i in 0..50u64 {
        sys.submit(InferenceRequest {
            client: ClientId(1),
            model: victim,
            submitted_at: SimTime::from_micros(i * 100),
        });
    }
}

fn victim_mean_ms(done: &[JobCompletion], victim: ModelId) -> f64 {
    let xs: Vec<f64> = done
        .iter()
        .filter(|c| c.request.model == victim)
        .map(|c| c.jct().as_millis_f64())
        .collect();
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn shared_run(with_noise: bool) -> f64 {
    let mut sys = make_system(SystemKey::Paella, DeviceConfig::tesla_t4(), 3);
    let noisy = sys.register_model(&tenant_model("noisy"));
    let victim = sys.register_model(&tenant_model("victim"));
    submit_load(sys.as_mut(), with_noise.then_some(noisy), victim);
    sys.run_to_idle();
    victim_mean_ms(&sys.drain_completions(), victim)
}

fn mig_run(with_noise: bool) -> f64 {
    // 30 SMs for the noisy tenant, 10 reserved for the victim.
    let mut mig = MigServing::paella(&DeviceConfig::tesla_t4(), &[30, 10], 3);
    let noisy = mig.register_model_on(0, &tenant_model("noisy"));
    let victim = mig.register_model_on(1, &tenant_model("victim"));
    submit_load(&mut mig, with_noise.then_some(noisy), victim);
    mig.run_to_idle();
    victim_mean_ms(&mig.drain_completions(), victim)
}

fn main() {
    let shared_quiet = shared_run(false);
    let shared_noisy = shared_run(true);
    let mig_quiet = mig_run(false);
    let mig_noisy = mig_run(true);

    println!("victim mean JCT (ms):");
    println!("  shared T4, quiet neighbour:  {shared_quiet:8.2}");
    println!("  shared T4, noisy neighbour:  {shared_noisy:8.2}");
    println!("  MIG slice, quiet neighbour:  {mig_quiet:8.2}");
    println!("  MIG slice, noisy neighbour:  {mig_noisy:8.2}");

    let shared_blowup = shared_noisy / shared_quiet;
    println!(
        "\nOn the shared device the noisy tenant inflates the victim {shared_blowup:.1}x \
         (equal-size jobs give SRPT nothing to prioritize); on a static MIG \
         slice the victim's latency is exactly invariant — Paella's techniques \
         apply per-partition unchanged (§8), trading peak capacity for hard \
         isolation."
    );
    assert!(
        (mig_noisy - mig_quiet).abs() < 1e-9,
        "MIG isolation must be exact: {mig_quiet} vs {mig_noisy}"
    );
    assert!(
        shared_blowup > 1.2,
        "the shared device must show interference"
    );
}
