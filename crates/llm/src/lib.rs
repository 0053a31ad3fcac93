//! # paella-llm — the autoregressive serving tier
//!
//! The fixed-trace tier ([`paella-core`](paella_core)) serves models whose
//! entire kernel sequence is known when the job arrives; a scheduler there
//! ranks *jobs*. Autoregressive (LLM) inference breaks both assumptions:
//! work is revealed one decode step at a time, and the binding resource is
//! not SM occupancy but *KV-cache memory*, which grows with every generated
//! token. This crate models that regime on top of the same simulator
//! substrate and behind the same [`ServingSystem`](paella_core::ServingSystem)
//! interface, so the paper's SRPT-with-deficit policy can be arbitrated
//! head-to-head against iteration-level continuous batching on identical
//! sampled workloads.
//!
//! Three pieces:
//!
//! * [`LlmModelSpec`] — seeded prompt/output length distributions; lengths
//!   are sampled once per request at submission so every policy sees the
//!   identical work.
//! * [`KvPool`] — the paged KV budget with a conservation law
//!   (`allocated == freed + resident`) checked by construction and replayed
//!   independently by the `paella-check` oracle from emitted
//!   [`KvAlloc`](paella_telemetry::TraceEvent::KvAlloc) events.
//! * [`LlmEngine`] — the iteration-level engine: chunked prefill, decode
//!   co-batching (or SRPT batch-of-1), recompute preemption of the youngest
//!   sequence on KV exhaustion, and per-step telemetry feeding TTFT/TPOT
//!   metrics plus the prefill/decode journey sub-split.

pub mod engine;
pub mod kv;
pub mod spec;

pub use engine::{LlmCompletion, LlmEngine, LlmEngineConfig, LlmPolicy};
pub use kv::KvPool;
pub use spec::LlmModelSpec;

#[cfg(test)]
mod tests {
    use paella_core::types::{ClientId, InferenceRequest};
    use paella_core::ServingSystem;
    use paella_sim::{SimDuration, SimTime};
    use paella_telemetry::extract_journeys;

    use crate::{LlmEngine, LlmEngineConfig, LlmModelSpec, LlmPolicy};

    fn engine(policy: LlmPolicy, pages: u64) -> LlmEngine {
        let mut cfg = LlmEngineConfig::new(policy);
        cfg.kv_pages_total = pages;
        let mut eng = LlmEngine::new(cfg);
        let model = eng.add_model(LlmModelSpec::chat("llama-7b", 96.0, 24.0));
        assert_eq!(model.0, 0);
        eng
    }

    fn drive(eng: &mut LlmEngine, requests: u64) {
        eng.enable_telemetry();
        for i in 0..requests {
            eng.submit(InferenceRequest {
                client: ClientId((i % 4) as u32),
                model: paella_core::types::ModelId(0),
                submitted_at: SimTime::ZERO.saturating_add(SimDuration::from_micros(i * 40)),
            });
        }
        eng.run_to_idle();
    }

    fn check_all_done(policy: LlmPolicy, pages: u64) -> (u64, u32) {
        let mut eng = engine(policy, pages);
        drive(&mut eng, 40);
        let done = eng.drain_completions();
        let failed = eng.drain_failures();
        assert_eq!(
            done.len() + failed.len(),
            40,
            "{}: every request completes or fails",
            eng.name()
        );
        // Every terminal request is booked in the SLO ledger exactly once.
        let snap = eng.metrics_snapshot().expect("telemetry on");
        assert_eq!(snap.slo_completed(), done.len() as u64);
        assert_eq!(snap.slo_failures(), failed.len() as u64);
        let llm = eng.drain_llm_completions();
        assert_eq!(llm.len(), done.len());
        for c in &llm {
            assert!(c.output_tokens >= 1);
            assert!(c.first_token_at >= c.submitted_at);
            assert!(c.finished_at >= c.first_token_at);
        }
        // All pages returned, and the lifetime ledger balances.
        assert_eq!(eng.kv_pool().resident(), 0, "idle engine holds no KV");
        eng.kv_pool().check_conservation().expect("KV conserved");
        // Journeys obey the eight-phase conservation law and the
        // prefill/decode sub-split.
        let log = eng.take_trace_log().expect("telemetry on");
        let journeys = extract_journeys(&log);
        assert_eq!(journeys.len(), done.len());
        for j in &journeys {
            j.breakdown.check_conservation().expect("phases sum to jct");
            j.breakdown.check_device_split().expect("device sub-split");
        }
        let preemptions: u32 = llm.iter().map(|c| c.preemptions).sum();
        (done.len() as u64, preemptions)
    }

    #[test]
    fn continuous_batching_completes_and_conserves() {
        check_all_done(LlmPolicy::ContinuousBatching, 4096);
    }

    #[test]
    fn srpt_deficit_completes_and_conserves() {
        check_all_done(LlmPolicy::SrptDeficit, 4096);
    }

    #[test]
    fn tight_pool_preempts_but_still_conserves() {
        // ~64 pages is a few sequences' worth: admission blocks and the
        // youngest sequence gets recompute-preempted, yet everything still
        // finishes and the ledger balances.
        let (_, cb_preempt) = check_all_done(LlmPolicy::ContinuousBatching, 64);
        check_all_done(LlmPolicy::SrptDeficit, 64);
        assert!(
            cb_preempt > 0,
            "a tight pool must exercise recompute preemption"
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let summarize = |_: ()| {
            let mut eng = engine(LlmPolicy::ContinuousBatching, 128);
            drive(&mut eng, 60);
            eng.drain_llm_completions()
                .iter()
                .map(|c| {
                    format!(
                        "{} {} {} {} {}",
                        c.job.0,
                        c.prompt_tokens,
                        c.output_tokens,
                        c.ttft().as_nanos(),
                        c.tpot_ns()
                    )
                })
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(summarize(()), summarize(()), "same seed, same run");
    }

    #[test]
    fn load_signal_reports_kv_pressure() {
        let mut eng = engine(LlmPolicy::ContinuousBatching, 256);
        eng.submit(InferenceRequest {
            client: ClientId(0),
            model: paella_core::types::ModelId(0),
            submitted_at: SimTime::ZERO,
        });
        // Advance just past admission: the sequence's pages are resident.
        let t0 = eng.next_event_time().expect("kick queued");
        eng.advance_until(t0);
        let s = eng.load_signal();
        assert_eq!(s.kv_pages_total, 256);
        assert!(s.kv_pages_used > 0, "admitted prompt holds pages");
        assert!(s.kv_pressure_bp() > 0);
        eng.run_to_idle();
        assert_eq!(eng.load_signal().kv_pages_used, 0);
    }

    #[test]
    fn load_signal_splits_queued_from_inflight() {
        // A request submitted in the future is in transit: queued, not
        // inflight. `jobs.len() - running.len()` would call an admitted but
        // momentarily-idle sequence "queued"; the arrived-flag split must
        // not.
        let mut eng = engine(LlmPolicy::ContinuousBatching, 256);
        for i in 0..4 {
            eng.submit(InferenceRequest {
                client: ClientId(i),
                model: paella_core::types::ModelId(0),
                submitted_at: SimTime::from_nanos(u64::from(i) * 1_000_000),
            });
        }
        let s = eng.load_signal();
        assert_eq!(s.queued, 4, "nothing has arrived yet");
        assert_eq!(s.inflight, 0);
        // Advance past the first arrival only: one inflight, three queued.
        let t0 = eng.next_event_time().expect("arrival queued");
        eng.advance_until(t0);
        let s = eng.load_signal();
        assert_eq!(s.queued, 3);
        assert_eq!(s.inflight, 1);
        let (in_transit, arrived, structural) = eng.load_counts_scratch();
        assert_eq!((s.queued, s.inflight), (in_transit, arrived));
        assert_eq!(arrived, structural, "every arrived job is tracked");
        eng.run_to_idle();
        let s = eng.load_signal();
        assert_eq!((s.queued, s.inflight), (0, 0));
    }

    #[test]
    fn client_accounting_never_underflows() {
        // Mid-flight disconnects hit `detach` for arrived and unarrived
        // jobs alike; the per-client ledger must balance without tripping
        // the checked-subtraction underflow counter.
        let mut eng = engine(LlmPolicy::SrptDeficit, 64);
        eng.enable_telemetry();
        for i in 0..12 {
            eng.submit(InferenceRequest {
                client: ClientId(i % 3),
                model: paella_core::types::ModelId(0),
                submitted_at: SimTime::from_nanos(u64::from(i) * 50_000),
            });
        }
        for _ in 0..8 {
            if let Some(t) = eng.next_event_time() {
                eng.advance_until(t);
            }
        }
        eng.cancel_all(SimTime::from_nanos(10_000_000));
        eng.run_to_idle();
        let snap = eng.metrics_snapshot().expect("telemetry on");
        assert_eq!(
            snap.counters
                .iter()
                .find(|(k, _)| k == "accounting_underflow")
                .map_or(0, |(_, v)| *v),
            0,
            "client_jobs ledger must never go negative"
        );
        // Every cancelled request is booked in the SLO ledger exactly once.
        let (done, failed) = (eng.drain_completions(), eng.drain_failures());
        assert_eq!((done.len(), failed.len()), (0, 12));
        assert_eq!(snap.slo_completed(), 0);
        assert_eq!(snap.slo_failures(), 12);
    }

    #[test]
    fn cancel_all_frees_every_page() {
        let mut eng = engine(LlmPolicy::SrptDeficit, 64);
        for i in 0..12 {
            eng.submit(InferenceRequest {
                client: ClientId(i % 3),
                model: paella_core::types::ModelId(0),
                submitted_at: SimTime::from_nanos(i as u64 * 1_000),
            });
        }
        // Run a few iterations, then disconnect everyone mid-flight.
        for _ in 0..6 {
            if let Some(t) = eng.next_event_time() {
                eng.advance_until(t);
            }
        }
        let now = SimTime::from_nanos(10_000_000);
        eng.cancel_all(now);
        assert_eq!(eng.kv_pool().resident(), 0, "cancel frees all pages");
        eng.kv_pool().check_conservation().expect("KV conserved");
        // The stale IterEnd (if any) must not resurrect freed state.
        eng.run_to_idle();
        eng.kv_pool().check_conservation().expect("still conserved");
        assert_eq!(
            eng.drain_failures().len() + eng.drain_completions().len(),
            12
        );
    }
}
