//! The LLM engine's host path: `LlmExpSpec::smoke`'s 600-request chat trace
//! served to idle under each iteration-formation policy, the requests
//! submitted up front so the timed loop is iteration forming, running and
//! retiring only.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use paella_core::{InferenceRequest, ServingSystem};
use paella_llm::{LlmEngine, LlmEngineConfig, LlmPolicy};
use paella_workload::{generate_llm_trace, smoke_llm_model, LlmExpSpec};

fn bench_smoke_to_idle(c: &mut Criterion) {
    let mut g = c.benchmark_group("llm_engine");
    for policy in [LlmPolicy::ContinuousBatching, LlmPolicy::SrptDeficit] {
        let spec = LlmExpSpec::smoke(policy);
        let arrivals = generate_llm_trace(&spec);
        g.throughput(Throughput::Elements(arrivals.len() as u64));
        g.bench_function(format!("smoke_to_idle/{}", policy.as_str()), |b| {
            b.iter_batched(
                || {
                    let mut cfg = LlmEngineConfig::new(policy);
                    cfg.kv_pages_total = spec.kv_pages;
                    cfg.seed = spec.seed;
                    let mut eng = LlmEngine::new(cfg);
                    let model = eng.add_model(smoke_llm_model());
                    for a in &arrivals {
                        eng.submit(InferenceRequest {
                            client: a.client,
                            model,
                            submitted_at: a.at,
                        });
                    }
                    eng
                },
                |mut eng| {
                    eng.run_to_idle();
                    assert_eq!(eng.drain_completions().len(), arrivals.len());
                    assert!(eng.drain_failures().is_empty());
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
    targets = bench_smoke_to_idle
}
criterion_main!(benches);
