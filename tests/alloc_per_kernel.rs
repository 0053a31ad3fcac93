//! Heap allocations and held bytes per kernel, counted without a clock.
//!
//! Telemetry is pay-for-use: switched off, the dispatcher and its device
//! must serve a contended burst with (almost) no allocation per kernel, and
//! switched on, recording and taking the trace must stay within a pinned
//! budget of allocations, and the taken trace within one of heap bytes.
//! Both counts repeat exactly from run to run, so they pin what a timing or
//! an RSS reading on a noisy machine cannot. The burst is the one
//! `recording_is_per_run_not_per_word` (tests/telemetry.rs) records: twelve
//! Table 2 jobs, 684 many-block kernels. The LLM engine, whose unit of
//! device work is a generated token, must form, run and retire its
//! iterations without allocating under either policy.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use paella_channels::ChannelConfig;
use paella_core::{
    ClientId, Dispatcher, DispatcherConfig, InferenceRequest, ServingSystem, SrptDeficitScheduler,
};
use paella_gpu::DeviceConfig;
use paella_llm::{LlmEngine, LlmEngineConfig, LlmPolicy};
use paella_models::ModelZoo;
use paella_sim::{SimDuration, SimTime};
use paella_telemetry::TraceLog;
use paella_workload::{generate_llm_trace, smoke_llm_model, LlmExpSpec};

thread_local! {
    /// Allocations made by this thread so far. Per thread, so the test
    /// harness's other threads do not count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread allocated minus the bytes it freed: what it holds,
    /// while nothing it allocated is freed on another thread.
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call and the bytes each takes or gives back.
struct Counting;

fn count(grown: i64) {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
    LIVE_BYTES.with(|n| n.set(n.get() + grown));
}

fn freed(bytes: usize) {
    LIVE_BYTES.with(|n| n.set(n.get() - bytes as i64));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees are this allocator's; counting touches
// only a const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded as received; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: forwarded as received; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded as received; `ptr` came from this allocator,
        // which is `System`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        freed(layout.size());
        // SAFETY: forwarded as received; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// Serves the burst twice on one dispatcher, taking the trace at idle each
/// time when telemetry is on. Returns the allocations the second time — the
/// first grows the queues and tables to their working size — and its trace.
fn burst(telemetry: bool) -> (u64, Option<TraceLog>) {
    let mut zoo = ModelZoo::new(DeviceConfig::tesla_t4());
    let models = [zoo.get("resnet18").clone(), zoo.get("googlenet").clone()];
    let mut d = Dispatcher::new(
        DeviceConfig::tesla_t4(),
        ChannelConfig::default(),
        Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
        DispatcherConfig::paella(),
        5,
    );
    if telemetry {
        d.enable_telemetry();
    }
    let ids = models.each_ref().map(|m| d.register_model(m));
    let mut serve = |from: SimTime| {
        let before = allocations();
        for i in 0..12u32 {
            d.submit(InferenceRequest {
                client: ClientId(i % 4),
                model: ids[i as usize % ids.len()],
                submitted_at: from + SimDuration::from_micros(u64::from(i) * 200),
            });
        }
        d.run_to_idle();
        let done = d.drain_completions();
        let log = d.take_trace_log();
        let made = allocations() - before;
        assert_eq!(done.len(), 12);
        let idle = done.iter().map(|c| c.client_visible_at).max();
        (made, log, idle.expect("twelve completions"))
    };
    let (_, _, idle) = serve(SimTime::ZERO);
    let (made, log, _) = serve(idle);
    (made, log)
}

#[test]
fn telemetry_allocates_only_when_on() {
    let (off, none) = burst(false);
    let (on, log) = burst(true);
    assert!(none.is_none());
    let log = log.expect("telemetry on");
    let dispatched = log
        .events
        .iter()
        .filter(|e| e.event.kind() == "kernel-dispatched");
    let kernels = dispatched.count() as f64;
    assert_eq!(kernels, 684.0);
    let holding = live_bytes();
    drop(log);
    let held = (holding - live_bytes()) as f64 / kernels;
    let (off, on) = (off as f64 / kernels, on as f64 / kernels);
    // 0.13 off and 0.22 on (0.09 and 0.19 in release). On was 48.04 while
    // every notification run and every wave recorded (17.5 and 6.4 per
    // kernel here) took two allocations, its payload and its list of words
    // or groups; they now go to the tracer's word pool. Off was 0.84 while a
    // drained stream dropped its queue, so every launch on a fresh stream
    // allocated one.
    assert!(
        off < 0.2,
        "{off:.2} allocations per kernel with telemetry off"
    );
    assert!(
        on <= 1.0,
        "{on:.2} allocations per kernel with telemetry on"
    );
    // 2,905 bytes per kernel: 27,096 records of 40 bytes and 223,581 pool
    // entries of 4, the rest the boxed per-job payloads. It was 2,907 while
    // a completion recorded a second boxed event beside its journey, 3,094
    // while the take cut runs to keep the recorded log in time order (30,307
    // records), 3,884 while a record kept its sequence number (48 bytes) and
    // a wave's end pushed its 74,527 groups again, and 6,565 while runs and
    // waves held boxed payloads with lists of 8-byte words and groups.
    assert!(
        held <= 3_200.0,
        "the taken trace holds {held:.0} heap bytes per kernel"
    );
}

/// Serves `LlmExpSpec::smoke(policy)`'s 600-request trace twice on one
/// engine, each time submitted up front, run to idle and drained. Returns the
/// allocations the second time and the tokens it generated.
fn llm_smoke(policy: LlmPolicy) -> (u64, u64) {
    let spec = LlmExpSpec::smoke(policy);
    let mut cfg = LlmEngineConfig::new(policy);
    cfg.kv_pages_total = spec.kv_pages;
    cfg.seed = spec.seed;
    let mut eng = LlmEngine::new(cfg);
    let model = eng.add_model(smoke_llm_model());
    let arrivals = generate_llm_trace(&spec);
    let mut serve = |from: SimTime| {
        let before = allocations();
        for a in &arrivals {
            eng.submit(InferenceRequest {
                client: a.client,
                model,
                submitted_at: SimTime::from_nanos(from.as_nanos() + a.at.as_nanos()),
            });
        }
        eng.run_to_idle();
        let done = eng.drain_completions();
        let failed = eng.drain_failures();
        let llm = eng.drain_llm_completions();
        let made = allocations() - before;
        assert_eq!((done.len(), failed.len()), (arrivals.len(), 0));
        let tokens = llm.iter().map(|c| c.output_tokens).sum();
        let idle = llm.iter().map(|c| c.finished_at).max();
        (made, tokens, idle.expect("600 completions"))
    };
    let (_, _, idle) = serve(SimTime::ZERO);
    let (made, tokens, _) = serve(idle);
    (made, tokens)
}

#[test]
fn llm_iterations_allocate_nothing() {
    for policy in [LlmPolicy::ContinuousBatching, LlmPolicy::SrptDeficit] {
        let (made, tokens) = llm_smoke(policy);
        let per_token = made as f64 / tokens as f64;
        // 18 and 20 allocations for 20,901 tokens (0.0009 and 0.0010), the
        // outboxes the drains took growing back. With a fresh item buffer,
        // id lists and tree nodes per iteration it was 35,006 and 20,988
        // (1.675 and 1.004).
        assert!(
            per_token < 0.01,
            "{}: {per_token:.3} allocations per generated token",
            policy.as_str()
        );
    }
}
