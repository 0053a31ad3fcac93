//! Golden digest of everything the LLM engine reports, per policy.
//!
//! A tight KV pool drives both policies through every branch of iteration
//! formation: recompute preemption, SRPT parking a pick whose prompt does not
//! fit, continuous batching's head-of-line KV wait, and a client disconnect
//! (`cancel_all`) that lands while sequences hold pages and an iteration is
//! in flight. The digest folds, in drain order, every `JobCompletion`,
//! `LlmCompletion` and `JobFailure`, then the kind and instant of every
//! recorded trace event. A change to how the engine stores or walks its
//! queues must leave these constants alone; a change that means to move
//! virtual time re-records them and says so.

use paella_core::types::{ClientId, FailureReason, InferenceRequest, ModelId};
use paella_core::ServingSystem;
use paella_llm::{LlmEngine, LlmEngineConfig, LlmModelSpec, LlmPolicy};
use paella_sim::SimTime;
use paella_telemetry::TraceEvent;

/// FNV-1a over bytes.
fn fold_bytes(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a, one 64-bit word at a time.
fn fold(h: u64, word: u64) -> u64 {
    fold_bytes(h, &word.to_le_bytes())
}

/// Branches the run went through, counted from what the engine reports.
#[derive(Debug, Default)]
struct Seen {
    completed: usize,
    failed: usize,
    /// Recompute preemptions suffered by completed sequences.
    preemptions: u64,
    /// Completed sequences that waited on KV admission: under SRPT every
    /// such wait is a parked pick, under continuous batching a head-of-line
    /// wait at the front of `pending`.
    kv_waits: usize,
    /// Requests failed by the disconnect.
    disconnected: usize,
}

/// Cheap deterministic stream of choices.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Submits `n` requests from five clients, 5–65 µs apart, after `from`.
fn submit_burst(eng: &mut LlmEngine, s: &mut u64, from: SimTime, n: usize) {
    let mut at = from.as_nanos();
    for _ in 0..n {
        at += 5_000 + nx(s) % 60_000;
        eng.submit(InferenceRequest {
            client: ClientId((nx(s) % 5) as u32),
            model: ModelId(0),
            submitted_at: SimTime::from_nanos(at),
        });
    }
}

/// Folds whatever the engine has finished since the last call.
fn drain(eng: &mut LlmEngine, h: &mut u64, seen: &mut Seen) {
    for c in eng.drain_completions() {
        seen.completed += 1;
        for w in [
            c.job.0,
            u64::from(c.request.client.0),
            c.request.submitted_at.as_nanos(),
            c.almost_finished_at.map_or(u64::MAX, SimTime::as_nanos),
            c.device_done_at.as_nanos(),
            c.client_visible_at.as_nanos(),
            c.breakdown.queuing_scheduling.as_nanos(),
            c.breakdown.device.as_nanos(),
        ] {
            *h = fold(*h, w);
        }
    }
    for c in eng.drain_llm_completions() {
        seen.preemptions += u64::from(c.preemptions);
        for w in [
            c.job.0,
            c.prompt_tokens,
            c.output_tokens,
            c.first_token_at.as_nanos(),
            c.finished_at.as_nanos(),
            u64::from(c.preemptions),
        ] {
            *h = fold(*h, w);
        }
    }
    for f in eng.drain_failures() {
        seen.failed += 1;
        if f.reason == FailureReason::Disconnected {
            seen.disconnected += 1;
        }
        *h = fold(*h, u64::from(f.request.client.0));
        *h = fold(*h, f.request.submitted_at.as_nanos());
        *h = fold_bytes(*h, f.reason.as_str().as_bytes());
        *h = fold(*h, f.at.as_nanos());
    }
}

/// Serves a burst, disconnects everyone mid-run, then serves a second burst
/// to idle; returns the digest and the branches seen.
fn run(policy: LlmPolicy) -> (u64, Seen) {
    let mut cfg = LlmEngineConfig::new(policy);
    cfg.kv_pages_total = 40;
    cfg.seed = 0x601D;
    let mut eng = LlmEngine::new(cfg);
    eng.enable_telemetry();
    eng.add_model(LlmModelSpec::chat("chat-7b", 96.0, 24.0));
    let mut s = 0xD1B5_4A32_D192_ED03;
    let (mut h, mut seen) = (0xcbf2_9ce4_8422_2325, Seen::default());

    submit_burst(&mut eng, &mut s, SimTime::ZERO, 48);
    let mut now = SimTime::ZERO;
    while seen.completed < 16 {
        let t = eng
            .next_event_time()
            .expect("the burst outlasts the prefix");
        eng.advance_until(t);
        now = t;
        drain(&mut eng, &mut h, &mut seen);
    }
    assert!(
        eng.kv_pool().resident() > 0,
        "the disconnect must land while sequences hold pages"
    );
    eng.cancel_all(now);
    drain(&mut eng, &mut h, &mut seen);

    submit_burst(&mut eng, &mut s, now, 48);
    while let Some(t) = eng.next_event_time() {
        eng.advance_until(t);
        drain(&mut eng, &mut h, &mut seen);
    }
    assert_eq!(seen.completed + seen.failed, 96, "every request terminal");
    assert_eq!(eng.kv_pool().resident(), 0, "pool drained");

    let log = eng.take_trace_log().expect("telemetry on");
    for e in &log.events {
        h = fold_bytes(h, e.event.kind().as_bytes());
        h = fold(h, e.at.as_nanos());
        if let TraceEvent::JobJourney(j) = &e.event {
            if j.queue_occupancy_ns > 0 {
                seen.kv_waits += 1;
            }
        }
    }
    (h, seen)
}

#[test]
fn llm_output_golden_digests() {
    let mut got = Vec::new();
    for policy in [LlmPolicy::ContinuousBatching, LlmPolicy::SrptDeficit] {
        let (digest, seen) = run(policy);
        let name = policy.as_str();
        assert!(seen.preemptions >= 1, "{name}: no recompute preemption");
        assert!(seen.kv_waits >= 1, "{name}: no KV admission wait");
        assert!(seen.disconnected >= 1, "{name}: disconnect failed nothing");
        assert!(seen.completed >= 48, "{name}: second burst not served");
        got.push((name, digest, seen.completed, seen.failed));
    }
    assert_eq!(
        got,
        [
            ("continuous-batching", 0xbccd_630b_0fa4_9863, 63, 33),
            ("srpt+deficit", 0x8ef8_ef5a_1ea8_839b, 63, 33),
        ],
        "LLM engine output moved"
    );
}
