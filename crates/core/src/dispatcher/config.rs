//! The dispatcher's configuration, its enums, the fixed host costs and the
//! Table 3 presets.

use paella_sim::SimDuration;

/// Dispatch granularity (Table 3's "Dispatch" column).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Granularity {
    /// One kernel at a time, gated by the scheduler and occupancy budget.
    Kernel,
    /// The whole job's op sequence at submission time (job-by-job).
    Job,
}

/// Stream assignment policy.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StreamPolicy {
    /// All jobs share one stream (single-stream systems).
    Single,
    /// Every job gets a fresh stream id; ids beyond the hardware queue count
    /// alias queues — the CUDA-MS behaviour.
    PerJobUnbounded,
    /// A pool of up to N real streams, reused so that no two live jobs share
    /// a hardware queue — Paella's virtual-stream replacement (§5.2).
    Pool(u32),
}

/// How results reach the client (Fig. 14's three client protocols).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WakeupMode {
    /// Hybrid interrupt-then-poll (Paella's default, §5.3).
    Hybrid,
    /// Client polls shared memory continuously.
    Polling,
    /// Plain Unix-socket notification.
    Socket,
}

/// Maximum expected predecessor runtime for pipelined release. Covers typical
/// inference kernels (tens of µs) so intra-job boundaries are gap-hidden;
/// long synthetic kernels (hundreds of µs) stay completion-released to avoid
/// parking dep-blocked kernels at hardware-queue heads.
pub(super) const PIPELINE_WINDOW: SimDuration = SimDuration::from_micros(100);
/// CPU cost of one scheduling decision.
pub(super) const SCHED_COST: SimDuration = SimDuration::from_nanos(300);
/// CPU cost to process one notification.
pub(super) const NOTIF_COST: SimDuration = SimDuration::from_nanos(120);
/// CPU cost to process a completion and post the result.
pub(super) const COMPLETION_COST: SimDuration = SimDuration::from_nanos(700);
/// Base backoff before a faulted kernel's first retry; doubles per
/// subsequent fault of the same op (exponential backoff).
pub(super) const RETRY_BACKOFF: SimDuration = SimDuration::from_micros(20);
/// Lower bound on a deadline budget, so tiny models are not cancelled on
/// queueing noise.
pub(super) const DEADLINE_FLOOR: SimDuration = SimDuration::from_micros(500);
/// Virtual-time spacing of periodic metric samples.
pub(super) const SAMPLE_INTERVAL: SimDuration = SimDuration::from_micros(50);

/// Dispatcher configuration. Defaults reproduce the full Paella system.
#[derive(Clone, Copy, Debug)]
pub struct DispatcherConfig {
    /// Dispatch granularity.
    pub granularity: Granularity,
    /// The §6 lookahead slack `B`, in blocks.
    pub lookahead_blocks: u64,
    /// Gate kernel dispatch on the occupancy mirror. When `false`, active
    /// kernels dispatch immediately (the -kbk ablation).
    ///
    /// The same knob turns on pipelined release, which reads the mirror too:
    /// a job's next op is released when its predecessor is *fully placed*
    /// (requires instrumentation) instead of completed. Only applied when the
    /// predecessor's expected runtime is within `PIPELINE_WINDOW`, so a
    /// dependent kernel is dispatched only when it can be placed "soon" (§3)
    /// rather than parking at a hardware-queue head.
    pub hold_for_occupancy: bool,
    /// Instrument kernels with the compiler pass.
    pub instrument: bool,
    /// Stream assignment.
    pub streams: StreamPolicy,
    /// Client wake-up protocol.
    pub wakeup: WakeupMode,
    /// Injected per-decision scheduling delay (Fig. 9's sweep variable).
    pub injected_delay: SimDuration,
    /// CPU cost to ingest one request from the client ring.
    pub ingest_cost: SimDuration,
    /// Whether host-side costs serialize on one dispatcher core (serving
    /// systems) or per client (direct CUDA submission).
    pub central_cpu: bool,
    /// Capacity of the device→host notifQ in slots. The ring does not detect
    /// overruns, so the dispatcher reserves slots at kernel dispatch and
    /// delays dispatches that would exceed the capacity (§5.2 flow control).
    pub notifq_capacity: u64,
    /// Dispatcher threads in central-CPU mode (§4.2: "it can be parallelized
    /// by sharding jobs across threads"). Jobs shard by client id, and only
    /// the host CPU timeline is sharded: each shard's work is charged to its
    /// own core. All shards share one notifQ reservation against
    /// `notifq_capacity`, not the paper's one notifQ per thread (§5.2).
    pub dispatcher_cores: u32,
    /// Injected per-kernel fault probability (DESIGN §11): each kernel
    /// completion is independently declared a fault with this probability,
    /// rolled on the dispatcher's own seeded RNG in DES order so same-seed
    /// runs fault identically. `0.0` disables injection.
    pub kernel_fault_rate: f64,
    /// How many times a faulted kernel is re-dispatched before the whole job
    /// fails with
    /// [`FailureReason::RetryBudgetExhausted`](crate::types::FailureReason::RetryBudgetExhausted).
    pub retry_budget: u32,
    /// Per-request deadline as a multiple of the model's profiled total
    /// estimate (never less than `DEADLINE_FLOOR`), anchored at
    /// `submitted_at`; the job is cancelled and its resources reclaimed when
    /// it passes. `None` disables deadlines.
    pub deadline_factor: Option<f64>,
    /// Admission-control watermark: a request arriving while
    /// `load_signal().outstanding()` is at or above this is shed instead of
    /// queued. `None` disables shedding.
    pub shed_watermark: Option<u64>,
}

impl Default for DispatcherConfig {
    fn default() -> Self {
        DispatcherConfig {
            granularity: Granularity::Kernel,
            // One device fill of slack (T4: 40 SMs x ~8 blocks): enough
            // queued work to ride out notification latency without deep
            // hardware queues. The Criterion lookahead ablation sweeps this.
            lookahead_blocks: 320,
            hold_for_occupancy: true,
            instrument: true,
            // Virtual streams bound to real streams at launch (§5.2): the
            // pool is large because Paella's occupancy gating ensures queued
            // kernels place promptly, making hardware-queue sharing benign.
            streams: StreamPolicy::Pool(512),
            wakeup: WakeupMode::Hybrid,
            injected_delay: SimDuration::ZERO,
            ingest_cost: SimDuration::from_nanos(800),
            central_cpu: true,
            notifq_capacity: 65_536,
            dispatcher_cores: 1,
            kernel_fault_rate: 0.0,
            retry_budget: 3,
            deadline_factor: None,
            shed_watermark: None,
        }
    }
}

impl DispatcherConfig {
    /// The full Paella system (default scheduler supplied separately).
    pub fn paella() -> Self {
        Self::default()
    }

    /// Paella-MS-kbk: kernel-by-kernel, dispatched as soon as active.
    pub fn paella_ms_kbk() -> Self {
        DispatcherConfig {
            streams: StreamPolicy::PerJobUnbounded,
            hold_for_occupancy: false,
            ..Self::default()
        }
    }

    /// Paella-MS-jbj: job-by-job to a unique stream; the GPU schedules.
    pub fn paella_ms_jbj() -> Self {
        DispatcherConfig {
            granularity: Granularity::Job,
            ..Self::paella_ms_kbk()
        }
    }

    /// Paella-SS: Paella's frontend, single stream, job-by-job FIFO.
    pub fn paella_ss() -> Self {
        DispatcherConfig {
            streams: StreamPolicy::Single,
            ..Self::paella_ms_jbj()
        }
    }

    /// Direct CUDA submission (no serving system): per-client CPUs, no
    /// ingest path, job-by-job.
    pub fn direct(streams: StreamPolicy) -> Self {
        DispatcherConfig {
            streams,
            instrument: false,
            central_cpu: false,
            ingest_cost: SimDuration::ZERO,
            ..Self::paella_ms_jbj()
        }
    }
}
