//! The autoregressive serving engine: iteration-level scheduling over
//! prefill/decode phases under a paged KV-cache budget.
//!
//! # Execution model
//!
//! The device runs one *iteration* at a time (the LLM analogue of a kernel
//! launch). Each iteration carries a batch of work items: prompt-prefill
//! chunks and/or one decode step for a set of decode-phase sequences.
//! Iteration cost is affine in its contents — a fixed per-iteration
//! overhead, a per-token prefill cost, and a decode cost of
//! `DECODE_FIXED_NS + batch · DECODE_NS_PER_SEQ` (the fixed part models
//! weight streaming, which co-batched sequences amortize; that
//! amortization is exactly why iteration-level continuous batching wins on
//! inter-token latency).
//!
//! # Policies
//!
//! * [`LlmPolicy::SrptDeficit`] — the paper's dispatcher policy lifted to
//!   token granularity: the real
//!   [`SrptDeficitScheduler`](paella_core::sched::SrptDeficitScheduler)
//!   arbitrates between jobs, and the winner runs one unit (a prefill
//!   chunk or a batch-of-1 decode step) per iteration. Remaining-time
//!   estimates shrink as tokens retire, so SRPT's preference for
//!   nearly-done jobs carries over — but nothing co-batches, so every
//!   outstanding decode stream pays the full fixed cost per token.
//! * [`LlmPolicy::ContinuousBatching`] — Orca-style iteration-level
//!   batching: every decode-phase sequence joins each iteration (up to
//!   `MAX_BATCH`), and leftover prefill budget admits pending prompts
//!   chunk by chunk (Sarathi-style chunked prefill keeps admission from
//!   stalling decode).
//!
//! # KV-cache budget
//!
//! Admission reserves `ceil(prompt / page_tokens)` pages; each decode step
//! that crosses a page boundary grows the working set by one page. When an
//! allocation fails the engine preempts the *youngest* running sequence
//! (recompute-style, as in vLLM: its pages are freed and its prompt plus
//! generated prefix re-prefills on re-admission). A pending prompt that
//! cannot reserve its pages head-of-line blocks admission; the wait is
//! charged to the journey's `queue_occupancy` phase.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use paella_core::sched::{JobInfo, Scheduler, SrptDeficitScheduler};
use paella_core::serve::{split, EngineCore, ServingSystem};
use paella_core::types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LoadSignal,
    ModelId,
};
use paella_sim::event::EventQueue;
use paella_sim::{IdMap, SimDuration, SimTime, Xoshiro256pp};
use paella_telemetry::{JobBegin, JobJourney, MetricsSnapshot, TraceEvent, TraceLog};

use crate::kv::KvPool;
use crate::spec::LlmModelSpec;

/// Which iteration-formation policy the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LlmPolicy {
    /// SRPT-with-deficit arbitration, one job per iteration (no
    /// co-batching) — the paper's scheduler applied at token granularity.
    SrptDeficit,
    /// Iteration-level continuous batching with chunked prefill admission.
    ContinuousBatching,
}

impl LlmPolicy {
    /// Stable display name (bench output, figure rows).
    pub fn as_str(self) -> &'static str {
        match self {
            LlmPolicy::SrptDeficit => "srpt+deficit",
            LlmPolicy::ContinuousBatching => "continuous-batching",
        }
    }
}

/// Tokens per KV page.
const KV_PAGE_TOKENS: u64 = 16;
/// Decode co-batch cap (continuous batching only).
const MAX_BATCH: usize = 16;
/// Prefill token budget per iteration (chunked prefill).
const PREFILL_CHUNK: u64 = 256;
/// Fixed per-iteration overhead (scheduling + launch), ns.
const ITER_OVERHEAD_NS: u64 = 5_000;
/// Prefill cost per prompt token, ns.
const PREFILL_NS_PER_TOKEN: u64 = 500;
/// Fixed cost of a decode step regardless of batch size (weight
/// streaming), ns. This is the term continuous batching amortizes.
const DECODE_FIXED_NS: u64 = 50_000;
/// Marginal decode cost per co-batched sequence, ns.
const DECODE_NS_PER_SEQ: u64 = 2_000;

/// Engine configuration. The cost model is the constants above, modeled on
/// a mid-size decoder: ~0.5 µs/token prefill, 50 µs fixed + 2 µs/seq decode
/// steps, 16-token pages. All costs are integer nanoseconds: the iteration
/// arithmetic stays exact, so runs are byte-reproducible and the journey
/// conservation law needs no rounding slack.
#[derive(Clone, Debug)]
pub struct LlmEngineConfig {
    /// Iteration-formation policy.
    pub policy: LlmPolicy,
    /// Total KV pages on the device.
    pub kv_pages_total: u64,
    /// Seed for per-request length sampling.
    pub seed: u64,
}

impl LlmEngineConfig {
    /// A workable default configuration for the given policy.
    pub fn new(policy: LlmPolicy) -> Self {
        LlmEngineConfig {
            policy,
            kv_pages_total: 4096,
            seed: 0x11A0,
        }
    }
}

/// One finished request's token-level summary (the TTFT/TPOT record).
#[derive(Clone, Copy, Debug)]
pub struct LlmCompletion {
    /// Engine-assigned job id.
    pub job: JobId,
    /// Submitting client (tenant).
    pub client: ClientId,
    /// Prompt length, tokens.
    pub prompt_tokens: u64,
    /// Output length, tokens (including the first token).
    pub output_tokens: u64,
    /// When the client called predict.
    pub submitted_at: SimTime,
    /// When the first output token was produced (end of prefill).
    pub first_token_at: SimTime,
    /// When the last token was produced.
    pub finished_at: SimTime,
    /// Recompute preemptions suffered.
    pub preemptions: u32,
}

impl LlmCompletion {
    /// Time to first token.
    pub fn ttft(&self) -> SimDuration {
        self.first_token_at.saturating_since(self.submitted_at)
    }

    /// Mean time per output token after the first, ns. Zero for
    /// single-token outputs.
    pub fn tpot_ns(&self) -> u64 {
        if self.output_tokens <= 1 {
            return 0;
        }
        self.finished_at
            .saturating_since(self.first_token_at)
            .as_nanos()
            / (self.output_tokens - 1)
    }
}

/// Work assigned to one job within one iteration.
#[derive(Clone, Copy, Debug)]
enum Work {
    /// Process this many prompt tokens.
    Prefill(u64),
    /// One decode step (one output token).
    Decode,
}

/// Engine-internal events.
enum Ev {
    /// A submitted request reaches its arrival instant and becomes
    /// schedulable. Gating readiness on this event (rather than on the
    /// `submit` call) keeps batch-submitted workloads causal: a policy
    /// can never admit a request before its `submitted_at`.
    Arrive(JobId),
    /// The in-flight iteration finished.
    IterEnd,
}

/// The in-flight iteration.
struct InflightIter {
    items: Vec<(JobId, Work)>,
    decode_batch: u64,
}

/// Per-sequence state.
struct LlmJob {
    request: InferenceRequest,
    /// Original prompt length, tokens.
    prompt_tokens: u64,
    /// Sampled output length, tokens (≥ 1; the first is produced by
    /// prefill).
    output_tokens: u64,
    /// Tokens whose KV must be (re)built before decoding can continue:
    /// the prompt, plus — after a recompute preemption — the generated
    /// prefix.
    recompute_tokens: u64,
    /// Prefilled tokens of the current recompute span.
    prefill_done: u64,
    /// Output tokens produced so far.
    generated: u64,
    /// Tokens with KV written under the current page reservation.
    kv_tokens: u64,
    /// KV pages currently held.
    pages_held: u64,
    /// Accumulated device time in prefill, ns.
    prefill_ns: u64,
    /// Accumulated device time in decode, ns.
    decode_ns: u64,
    /// Accumulated head-of-line wait on KV admission, ns.
    kv_wait_ns: u64,
    /// When the job started waiting on KV admission (if it is).
    kv_since: Option<SimTime>,
    /// When the first output token was produced.
    first_token_at: Option<SimTime>,
    /// Recompute preemptions suffered.
    preemptions: u32,
    /// Whether `PrefillStart` was emitted (first admission only).
    prefill_started: bool,
    /// Whether the arrival event has fired (the job is schedulable).
    arrived: bool,
}

impl LlmJob {
    /// Whether the sequence is past prefill (decode phase).
    fn in_decode(&self) -> bool {
        self.prefill_done >= self.recompute_tokens
    }

    /// Tokens of the current recompute span still to prefill.
    fn prefill_left(&self) -> u64 {
        // sub: clamping is the definition, not a mask: chunks are cut to
        // what is left, so `prefill_done` stops at the span, and zero left
        // is exactly `in_decode`.
        self.recompute_tokens.saturating_sub(self.prefill_done)
    }

    /// Estimated remaining device time, ns, for SRPT ranking: remaining
    /// prefill at the per-token rate plus remaining output at the
    /// batch-of-1 decode rate.
    fn remaining_estimate_ns(&self) -> u64 {
        // sub: clamped like `prefill_left`: a sequence retires the moment
        // `generated` reaches `output_tokens`, so there is never more
        // generated than asked for, only nothing left to estimate.
        let out_left = self.output_tokens.saturating_sub(self.generated);
        self.prefill_left() * PREFILL_NS_PER_TOKEN
            + out_left * (DECODE_FIXED_NS + DECODE_NS_PER_SEQ)
    }
}

/// The autoregressive serving engine. See the module docs for the model.
pub struct LlmEngine {
    cfg: LlmEngineConfig,
    specs: Vec<LlmModelSpec>,
    /// Live sequences, indexed by job id.
    jobs: IdMap<LlmJob>,
    /// Admission queue, submission order; recompute-preempted jobs re-enter
    /// at the front (their original arrival already paid its wait).
    pending: VecDeque<JobId>,
    /// Admitted sequences holding KV.
    running: BTreeSet<JobId>,
    /// Jobs the SRPT policy parked because KV admission failed; re-readied
    /// when pages free up.
    kv_blocked: BTreeSet<JobId>,
    /// In-flight jobs per client, for deficit `client_idle` resets.
    client_jobs: BTreeMap<ClientId, u64>,
    pool: KvPool,
    queue: EventQueue<Ev>,
    inflight: Option<InflightIter>,
    iter_seq: u64,
    next_job: u64,
    rng: Xoshiro256pp,
    /// The real SRPT-with-deficit policy (SrptDeficit mode only).
    srpt: Option<SrptDeficitScheduler>,
    /// Telemetry, the completion / failure outboxes and the accounting
    /// debit.
    core: EngineCore,
    /// Token-level records of the completions (TTFT/TPOT).
    llm_completions: Vec<LlmCompletion>,
}

impl LlmEngine {
    /// An engine with the given configuration and no models.
    pub fn new(cfg: LlmEngineConfig) -> Self {
        let srpt = match cfg.policy {
            LlmPolicy::SrptDeficit => Some(SrptDeficitScheduler::new(Some(2.0))),
            LlmPolicy::ContinuousBatching => None,
        };
        LlmEngine {
            pool: KvPool::new(KV_PAGE_TOKENS, cfg.kv_pages_total),
            rng: Xoshiro256pp::seed_from_u64(cfg.seed),
            srpt,
            cfg,
            specs: Vec::new(),
            jobs: IdMap::new(),
            pending: VecDeque::new(),
            running: BTreeSet::new(),
            kv_blocked: BTreeSet::new(),
            client_jobs: BTreeMap::new(),
            queue: EventQueue::new(),
            inflight: None,
            iter_seq: 0,
            next_job: 1,
            core: EngineCore::default(),
            llm_completions: Vec::new(),
        }
    }

    /// Registers an autoregressive model spec and returns its id.
    pub fn add_model(&mut self, spec: LlmModelSpec) -> ModelId {
        self.specs.push(spec);
        ModelId((self.specs.len() - 1) as u32)
    }

    /// The KV pool (tests, oracles).
    pub fn kv_pool(&self) -> &KvPool {
        &self.pool
    }

    /// Takes the token-level completion records accumulated so far.
    pub fn drain_llm_completions(&mut self) -> Vec<LlmCompletion> {
        std::mem::take(&mut self.llm_completions)
    }

    /// From-scratch classification scan backing `load_signal`'s counts:
    /// `(in_transit, arrived, structural_arrived)`. `in_transit`/`arrived`
    /// re-derive the queued/inflight split from the `arrived` flag;
    /// `structural_arrived` counts jobs present in the pending, running, or
    /// kv-blocked structures (the sets may overlap: an SRPT-parked job stays
    /// in `pending` while in `kv_blocked`). Tests assert all three agree
    /// with the signal, pinning the classification against drift (R7).
    #[doc(hidden)]
    pub fn load_counts_scratch(&self) -> (u64, u64, u64) {
        let in_transit = self.jobs.iter().filter(|(_, j)| !j.arrived).count() as u64;
        let arrived = self.jobs.len() as u64 - in_transit;
        let structural = self
            .jobs
            .iter()
            .map(|(id, _)| JobId(id))
            .filter(|id| {
                self.pending.contains(id)
                    || self.running.contains(id)
                    || self.kv_blocked.contains(id)
            })
            .count() as u64;
        (in_transit, arrived, structural)
    }

    /// Fails every in-flight and pending request (client disconnect). KV
    /// pages are freed exactly once; `at` must not precede the engine's
    /// current virtual time.
    pub fn cancel_all(&mut self, at: SimTime) {
        let ids: Vec<JobId> = self.jobs.iter().map(|(id, _)| JobId(id)).collect();
        for id in ids {
            self.fail_job(id, FailureReason::Disconnected, at);
        }
    }

    // -- internals ---------------------------------------------------------

    /// Live sequence `id`.
    fn job(&self, id: JobId) -> &LlmJob {
        // invariant: callers take `id` from `running`, `pending`,
        // `kv_blocked` or the scheduler; `fail_job`/`complete_job` clear
        // all four in the same call that removes the record.
        self.jobs.get(id.0).expect("job exists")
    }

    /// The arrival instant: the job joins the admission queue and (under
    /// SRPT) becomes pickable. No-op if the request was cancelled before
    /// arriving.
    fn mark_arrived(&mut self, id: JobId) {
        let Some(job) = self.jobs.get_mut(id.0) else {
            return;
        };
        job.arrived = true;
        let client = job.request.client;
        self.pending.push_back(id);
        *self.client_jobs.entry(client).or_insert(0) += 1;
        let info = self.job_info(id);
        if let Some(srpt) = self.srpt.as_mut() {
            srpt.job_ready(info);
        }
    }

    fn emit_kv(&mut self, at: SimTime, job: JobId, pages: u64, freed: bool) {
        if pages == 0 {
            return;
        }
        let resident = self.pool.resident();
        self.core.trace(at, || TraceEvent::KvAlloc {
            job: job.0,
            pages,
            freed,
            resident,
        });
        let counter = if freed {
            "kv_pages_freed"
        } else {
            "kv_pages_allocated"
        };
        self.core.inc(counter, pages);
        self.core.gauge("kv_pages_resident", resident);
    }

    fn job_info(&self, id: JobId) -> JobInfo {
        let job = &self.job(id);
        let total = job.prompt_tokens * PREFILL_NS_PER_TOKEN
            + job.output_tokens * (DECODE_FIXED_NS + DECODE_NS_PER_SEQ);
        JobInfo {
            job: id,
            client: job.request.client,
            arrival: job.request.submitted_at,
            total_estimate: SimDuration::from_nanos(total),
            remaining_estimate: SimDuration::from_nanos(job.remaining_estimate_ns()),
        }
    }

    /// Recompute-preempts `victim`: frees its pages and sends it back to
    /// the head of the admission queue with its generated prefix folded
    /// into the prompt to rebuild.
    fn preempt_job(&mut self, victim: JobId, at: SimTime) {
        let pages = {
            // invariant: the victim was just drawn from `running`.
            let job = self.jobs.get_mut(victim.0).expect("victim exists");
            let pages = job.pages_held;
            job.pages_held = 0;
            job.recompute_tokens = job.prompt_tokens + job.generated;
            job.prefill_done = 0;
            job.kv_tokens = 0;
            job.preemptions += 1;
            pages
        };
        self.pool.free(pages);
        self.emit_kv(at, victim, pages, true);
        self.running.remove(&victim);
        self.pending.push_front(victim);
        self.core.inc("llm_preempted", 1);
        let est = self.job(victim).remaining_estimate_ns();
        if let Some(s) = self.srpt.as_mut() {
            s.remaining_changed(victim, SimDuration::from_nanos(est));
        }
    }

    /// Ensures `id` holds enough pages to decode one more token, preempting
    /// the youngest unprotected running sequence on exhaustion. Returns
    /// `false` when no page can be found (the caller skips or fails `id`).
    fn ensure_decode_page(&mut self, id: JobId, at: SimTime, protected: &BTreeSet<JobId>) -> bool {
        // A sequence never holds more pages than its next token needs:
        // admission reserves exactly the prompt's, and each step adds at most
        // the one page the step crosses into.
        let job = &self.job(id);
        let mut delta = self.pool.pages_for_tokens(job.kv_tokens + 1);
        self.core.debit(
            &mut delta,
            job.pages_held,
            "kv pages beyond the working set",
        );
        if delta == 0 {
            return true;
        }
        loop {
            if self.pool.try_alloc(delta) {
                // invariant: `self.job(id)` resolved above; preemption
                // never picks `id` itself.
                self.jobs.get_mut(id.0).expect("job exists").pages_held += delta;
                self.emit_kv(at, id, delta, false);
                return true;
            }
            let victim = self
                .running
                .iter()
                .rev()
                .find(|j| **j != id && !protected.contains(*j))
                .copied();
            match victim {
                Some(v) => self.preempt_job(v, at),
                None => return false,
            }
        }
    }

    /// Removes `id` from every engine structure. The caller has already
    /// taken the job out of `self.jobs`.
    fn detach(&mut self, id: JobId, job: &LlmJob, at: SimTime) {
        self.running.remove(&id);
        self.kv_blocked.remove(&id);
        self.pending.retain(|j| *j != id);
        if job.pages_held > 0 {
            self.pool.free(job.pages_held);
            self.emit_kv(at, id, job.pages_held, true);
        }
        let client = job.request.client;
        if !job.arrived {
            // Cancelled before its arrival event fired: it was never
            // charged to the client or the scheduler.
            return;
        }
        if let Some(n) = self.client_jobs.get_mut(&client) {
            self.core.debit(n, 1, "client_jobs");
            if *n == 0 {
                self.client_jobs.remove(&client);
                if let Some(s) = self.srpt.as_mut() {
                    s.client_idle(client);
                }
            }
        }
        // Pages may have been freed: KV-parked jobs get another shot.
        self.unblock_kv_waiters();
    }

    fn unblock_kv_waiters(&mut self) {
        if self.srpt.is_none() || self.kv_blocked.is_empty() {
            return;
        }
        let ids: Vec<JobId> = self.kv_blocked.iter().copied().collect();
        self.kv_blocked.clear();
        for id in ids {
            let info = self.job_info(id);
            // invariant: returned above when there is no scheduler.
            self.srpt.as_mut().expect("srpt policy").job_ready(info);
        }
    }

    fn fail_job(&mut self, id: JobId, reason: FailureReason, at: SimTime) {
        let Some(job) = self.jobs.remove(id.0) else {
            return;
        };
        if let Some(s) = self.srpt.as_mut() {
            s.job_done(id);
        }
        self.detach(id, &job, at);
        self.core.trace(at, || TraceEvent::JobCancelled {
            job: id.0,
            reason: reason.as_str(),
        });
        self.core.fail(job.request, reason, at);
    }

    /// Retires a finished sequence: frees KV, emits the journey (the
    /// eight-phase conservation law holds exactly by clamped-take
    /// construction, and the prefill/decode sub-split sums to the device
    /// phase), and records completions.
    fn complete_job(&mut self, id: JobId, at: SimTime) {
        let Some(job) = self.jobs.remove(id.0) else {
            return;
        };
        if let Some(s) = self.srpt.as_mut() {
            s.job_done(id);
        }
        self.detach(id, &job, at);

        let total = at.saturating_since(job.request.submitted_at).as_nanos();
        let ([device_prefill_ns, device_decode_ns, queue_occupancy_ns], queue_hol_ns) =
            split(total, [job.prefill_ns, job.decode_ns, job.kv_wait_ns]);

        let first_token_at = job.first_token_at.unwrap_or(at);
        let done = LlmCompletion {
            job: id,
            client: job.request.client,
            prompt_tokens: job.prompt_tokens,
            output_tokens: job.output_tokens,
            submitted_at: job.request.submitted_at,
            first_token_at,
            finished_at: at,
            preemptions: job.preemptions,
        };
        self.core.inc("llm_completed", 1);
        self.core.observe("tpot_ns", done.tpot_ns());
        self.llm_completions.push(done);
        // The engine models no host path: a sequence is device time plus
        // queuing, and its last token is client-visible as it is produced.
        // It sets no deadlines either: every completion meets its SLO.
        self.core.complete(
            JobJourney {
                job: id.0,
                client: job.request.client.0,
                jct_ns: total,
                client_send_recv_ns: 0,
                communication_ns: 0,
                framework_ns: 0,
                device_ns: device_prefill_ns + device_decode_ns,
                retry_backoff_ns: 0,
                queue_dep_ns: 0,
                queue_occupancy_ns,
                queue_hol_ns,
                device_prefill_ns,
                device_decode_ns,
            },
            job.request,
            None,
            at,
            at,
            None,
        );
    }

    /// Admits the job at the head of `pending` if its prompt pages fit.
    /// Returns `false` (and stamps the head-of-line wait start) when the
    /// pool is too full — or fails the job outright when its prompt can
    /// never fit.
    fn try_admit(&mut self, id: JobId, at: SimTime) -> bool {
        let need = {
            let job = &self.job(id);
            self.pool.pages_for_tokens(job.recompute_tokens)
        };
        if need > self.pool.total_pages() {
            self.fail_job(id, FailureReason::Shed, at);
            return false;
        }
        if !self.pool.try_alloc(need) {
            // invariant: `self.job(id)` resolved above and nothing since
            // removed it.
            let job = self.jobs.get_mut(id.0).expect("job exists");
            if job.kv_since.is_none() {
                job.kv_since = Some(at);
            }
            return false;
        }
        self.emit_kv(at, id, need, false);
        let (emit_prefill, prompt_tokens) = {
            // invariant: as above; the shed path returned.
            let job = self.jobs.get_mut(id.0).expect("job exists");
            job.pages_held = need;
            job.kv_tokens = job.recompute_tokens;
            if let Some(since) = job.kv_since.take() {
                job.kv_wait_ns += at.saturating_since(since).as_nanos();
            }
            let first = !job.prefill_started;
            job.prefill_started = true;
            (first, job.prompt_tokens)
        };
        self.pending.retain(|j| *j != id);
        self.running.insert(id);
        if emit_prefill {
            self.core.trace(at, || TraceEvent::PrefillStart {
                job: id.0,
                prompt_tokens: prompt_tokens.min(u64::from(u32::MAX)) as u32,
            });
        }
        true
    }

    /// Starts an iteration if the device is idle and work exists.
    fn maybe_start_iteration(&mut self, at: SimTime) {
        if self.inflight.is_some() {
            return;
        }
        let items = match self.cfg.policy {
            LlmPolicy::ContinuousBatching => self.form_batch_cb(at),
            LlmPolicy::SrptDeficit => self.form_batch_srpt(at),
        };
        if items.is_empty() {
            return;
        }
        let mut prefill_tokens = 0u64;
        let mut decode_batch = 0u64;
        for (_, w) in &items {
            match w {
                Work::Prefill(t) => prefill_tokens += t,
                Work::Decode => decode_batch += 1,
            }
        }
        let mut dur = ITER_OVERHEAD_NS + prefill_tokens * PREFILL_NS_PER_TOKEN;
        if decode_batch > 0 {
            dur += DECODE_FIXED_NS + decode_batch * DECODE_NS_PER_SEQ;
        }
        self.inflight = Some(InflightIter {
            items,
            decode_batch,
        });
        self.queue
            .schedule_at(at.saturating_add(SimDuration::from_nanos(dur)), Ev::IterEnd);
    }

    /// Continuous batching: every decode sequence joins (up to
    /// `MAX_BATCH`), then leftover prefill budget continues admitted
    /// prompts and admits pending ones FCFS.
    fn form_batch_cb(&mut self, at: SimTime) -> Vec<(JobId, Work)> {
        let mut items: Vec<(JobId, Work)> = Vec::new();
        let mut batch: BTreeSet<JobId> = BTreeSet::new();

        let decode_ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|j| self.job(**j).in_decode())
            .take(MAX_BATCH)
            .copied()
            .collect();
        for id in decode_ids {
            if !self.running.contains(&id) {
                continue; // preempted by an older sequence's page growth
            }
            if self.ensure_decode_page(id, at, &batch) {
                batch.insert(id);
                items.push((id, Work::Decode));
            } else if self.running.len() == 1 {
                // Sole sequence and the pool cannot cover one more token:
                // it can never finish.
                self.fail_job(id, FailureReason::Shed, at);
            }
        }

        let mut budget = PREFILL_CHUNK;
        let prefill_ids: Vec<JobId> = self
            .running
            .iter()
            .filter(|j| !self.job(**j).in_decode())
            .copied()
            .collect();
        for id in prefill_ids {
            if budget == 0 {
                break;
            }
            let t = self.job(id).prefill_left().min(budget);
            if t > 0 {
                budget -= t; // sub: `t ≤ budget` by the `min` above
                items.push((id, Work::Prefill(t)));
            }
        }
        while budget > 0 {
            let Some(&head) = self.pending.front() else {
                break;
            };
            if !self.try_admit(head, at) {
                // `try_admit` either failed the job (retry the new head) or
                // head-of-line blocked on KV (stop admitting).
                if self.jobs.get(head.0).is_some() {
                    break;
                }
                continue;
            }
            let left = self.job(head).recompute_tokens;
            let t = left.min(budget);
            budget -= t; // sub: `t ≤ budget` by the `min` above
            items.push((head, Work::Prefill(t)));
        }
        items
    }

    /// SRPT-with-deficit: the scheduler picks one job; it runs one prefill
    /// chunk or a batch-of-1 decode step. KV-refused picks park until pages
    /// free up.
    fn form_batch_srpt(&mut self, at: SimTime) -> Vec<(JobId, Work)> {
        loop {
            // invariant: `form_batch` calls this fn only under
            // `LlmPolicy::SrptDeficit`, which `new` builds a scheduler for.
            let picked = self
                .srpt
                .as_mut()
                .expect("srpt policy")
                .pick_next_explained();
            let Some((id, rationale)) = picked else {
                return Vec::new();
            };
            if !self.running.contains(&id) && !self.try_admit(id, at) {
                if self.jobs.get(id.0).is_some() {
                    // Park until KV frees up; the scheduler must stop
                    // returning it.
                    self.kv_blocked.insert(id);
                    // invariant: as at the top of the loop.
                    self.srpt.as_mut().expect("srpt policy").job_blocked(id);
                }
                continue;
            }
            let work = {
                let job = &self.job(id);
                if job.in_decode() {
                    None
                } else {
                    Some(job.prefill_left().min(PREFILL_CHUNK))
                }
            };
            let work = match work {
                Some(t) => Work::Prefill(t),
                None => {
                    if !self.ensure_decode_page(id, at, &BTreeSet::new()) {
                        // No victim can free a page: the sequence alone
                        // exceeds the pool.
                        self.fail_job(id, FailureReason::Shed, at);
                        continue;
                    }
                    Work::Decode
                }
            };
            // invariant: as at the top of the loop.
            let sched = self.srpt.as_mut().expect("srpt policy");
            let ready = sched.ready_len() as u32;
            let policy = sched.name();
            sched.on_dispatched(id);
            self.core.trace(at, || TraceEvent::SchedDecision {
                job: id.0,
                policy,
                rationale,
                ready,
            });
            return vec![(id, work)];
        }
    }

    /// Applies the finished iteration's work and retires completed
    /// sequences.
    fn finish_iteration(&mut self, at: SimTime) {
        let Some(iter) = self.inflight.take() else {
            return;
        };
        if iter.decode_batch > 0 {
            let seq = self.iter_seq;
            let b = iter.decode_batch.min(u64::from(u32::MAX)) as u32;
            self.core.trace(at, || TraceEvent::DecodeStep {
                iter: seq,
                batch: b,
                tokens: b,
            });
        }
        self.iter_seq += 1;
        // Remainder of the integer split stays unattributed (it lands in
        // the journey's queue_hol residual, keeping conservation exact).
        let decode_share = DECODE_FIXED_NS
            .checked_div(iter.decode_batch)
            .map_or(0, |share| DECODE_NS_PER_SEQ + share);
        for (id, work) in iter.items {
            let done = {
                let Some(job) = self.jobs.get_mut(id.0) else {
                    continue; // cancelled or preempted mid-iteration
                };
                match work {
                    Work::Prefill(t) => {
                        job.prefill_done += t;
                        job.prefill_ns += t * PREFILL_NS_PER_TOKEN;
                        if job.prefill_done >= job.recompute_tokens {
                            // The prefill pass produces the next token.
                            job.generated += 1;
                            if job.first_token_at.is_none() {
                                job.first_token_at = Some(at);
                                let ttft = at.saturating_since(job.request.submitted_at).as_nanos();
                                self.core.observe("ttft_ns", ttft);
                            }
                        }
                    }
                    Work::Decode => {
                        job.kv_tokens += 1;
                        job.generated += 1;
                        job.decode_ns += decode_share;
                    }
                }
                job.in_decode() && job.generated >= job.output_tokens
            };
            if done {
                self.complete_job(id, at);
            } else {
                let est = self.job(id).remaining_estimate_ns();
                if let Some(srpt) = self.srpt.as_mut() {
                    srpt.remaining_changed(id, SimDuration::from_nanos(est));
                }
            }
        }
    }
}

impl ServingSystem for LlmEngine {
    /// Registers a fixed-trace model as a degenerate autoregressive spec:
    /// its whole forward pass is a single-chunk "prompt" and it emits one
    /// token. The native path is [`LlmEngine::add_model`] with a real
    /// [`LlmModelSpec`].
    fn register_model(&mut self, model: &paella_compiler::CompiledModel) -> ModelId {
        self.add_model(LlmModelSpec::chat(&model.name, 64.0, 1.0))
    }

    fn submit(&mut self, req: InferenceRequest) {
        let spec = &self.specs[req.model.0 as usize];
        let (prompt_tokens, output_tokens) = spec.sample_lengths(&mut self.rng);
        let id = JobId(self.next_job);
        self.next_job += 1;
        let name = spec.name.clone();
        self.core.trace(req.submitted_at, || {
            TraceEvent::JobBegin(Box::new(JobBegin {
                job: id.0,
                client: req.client.0,
                model: name,
                submitted_at: req.submitted_at,
            }))
        });
        self.jobs.insert(
            id.0,
            LlmJob {
                request: req,
                prompt_tokens,
                output_tokens,
                recompute_tokens: prompt_tokens,
                prefill_done: 0,
                generated: 0,
                kv_tokens: 0,
                pages_held: 0,
                prefill_ns: 0,
                decode_ns: 0,
                kv_wait_ns: 0,
                kv_since: None,
                first_token_at: None,
                preemptions: 0,
                prefill_started: false,
                arrived: false,
            },
        );
        self.queue.schedule_at(req.submitted_at, Ev::Arrive(id));
    }

    fn next_event_time(&mut self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn advance_until(&mut self, t: SimTime) {
        while self.queue.peek_time().is_some_and(|at| at <= t) {
            // invariant: the loop condition just peeked this event.
            let (at, ev) = self.queue.pop().expect("peeked");
            match ev {
                Ev::Arrive(id) => {
                    self.mark_arrived(id);
                    self.maybe_start_iteration(at);
                }
                Ev::IterEnd => {
                    self.finish_iteration(at);
                    self.maybe_start_iteration(at);
                }
            }
        }
    }

    fn drain_completions(&mut self) -> Vec<JobCompletion> {
        self.core.take_completions()
    }

    fn drain_failures(&mut self) -> Vec<JobFailure> {
        self.core.take_failures()
    }

    fn name(&self) -> String {
        format!("llm[{}]", self.cfg.policy.as_str())
    }

    fn enable_telemetry(&mut self) {
        self.core.enable_telemetry();
    }

    fn take_trace_log(&mut self) -> Option<TraceLog> {
        self.core
            .tracer
            .is_enabled()
            .then(|| self.core.tracer.take())
    }

    fn metrics_snapshot(&self) -> Option<MetricsSnapshot> {
        self.core.metrics_snapshot()
    }

    fn load_signal(&self) -> LoadSignal {
        // Mirror the dispatcher's classification: "queued" is work the
        // engine has accepted but not yet admitted (still in transit),
        // while everything arrived — pending, running, or kv-blocked — is
        // inflight. `jobs.len() - running.len()` would miscount parked and
        // kv-blocked jobs as queued and undercount inflight.
        let mut remaining = 0u64;
        let mut queued = 0u64;
        let mut inflight = 0u64;
        for (_, job) in self.jobs.iter() {
            remaining += job.remaining_estimate_ns();
            if job.arrived {
                inflight += 1;
            } else {
                queued += 1;
            }
        }
        LoadSignal {
            queued,
            inflight,
            remaining_work: SimDuration::from_nanos(remaining),
            kv_pages_used: self.pool.resident(),
            kv_pages_total: self.pool.total_pages(),
        }
    }
}
