//! The typed trace-event vocabulary.
//!
//! Events carry raw ids (`u64` jobs, `u64` kernels, `u32` SMs/streams)
//! rather than the domain newtypes of `paella-core`/`paella-gpu`, so this
//! crate sits below both in the dependency graph and either side can record
//! into the same [`Tracer`](crate::Tracer).
//!
//! Size budget (DESIGN §8): a [`TraceEvent`] is at most 32 bytes, because
//! recording costs what its bytes cost. The four variants that occur once
//! per request or per job carry their payload behind a `Box`. So do the
//! three *run* variants ([`TraceEvent::SmWaveBegin`] and
//! [`TraceEvent::SmWaveEnd`] behind an `Arc` the two share,
//! [`TraceEvent::NotifRun`]), which are what the device and the dispatcher
//! record per wave and per charged stretch of
//! notification words. The per-word variants they stand for
//! ([`TraceEvent::SmSpanBegin`], [`TraceEvent::SmSpanEnd`], the
//! [`HostOpKind::Notif`] host op and [`TraceEvent::NotifBatch`]) are what
//! [`TraceLog::expanded`](crate::TraceLog::expanded) yields; nothing records
//! them.

use std::fmt;
use std::sync::Arc;

use paella_sim::{SimDuration, SimTime};

/// Which host-side CPU charge a [`TraceEvent::HostOp`] span covers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HostOpKind {
    /// Pulling one request off the client ring.
    Ingest,
    /// One scheduling decision plus launch overhead.
    Sched,
    /// Folding one device notification into the occupancy mirror.
    Notif,
    /// Posting one completed result back to the client.
    Completion,
}

impl HostOpKind {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            HostOpKind::Ingest => "ingest",
            HostOpKind::Sched => "sched",
            HostOpKind::Notif => "notif",
            HostOpKind::Completion => "completion",
        }
    }
}

/// Why the dispatcher stopped dispatching in this pass.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HoldReason {
    /// The occupancy mirror predicts the kernel would not place within the
    /// lookahead slack (§6's `B`).
    OccupancyBudget,
    /// Dispatching would over-commit the device→host notifQ ring.
    NotifqBackpressure,
    /// The job is waiting for free pool streams.
    StreamPool,
    /// The job's next op depends on an earlier op that has not completed;
    /// nothing of it is schedulable until the dependency retires.
    DepWait,
}

impl HoldReason {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            HoldReason::OccupancyBudget => "occupancy-budget",
            HoldReason::NotifqBackpressure => "notifq-backpressure",
            HoldReason::StreamPool => "stream-pool",
            HoldReason::DepWait => "dep-wait",
        }
    }
}

/// Why a scheduling policy picked the job it picked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PickRationale {
    /// Oldest arrival (FIFO).
    ArrivalOrder,
    /// Smallest total estimate (SJF).
    ShortestTotal,
    /// Smallest remaining estimate (SRPT's common case).
    ShortestRemaining,
    /// Round-robin rotation.
    RoundRobin,
    /// A client exceeded the fairness threshold; its oldest job overrides
    /// the SRPT winner.
    DeficitOverride,
}

impl PickRationale {
    /// Stable display name.
    pub fn as_str(self) -> &'static str {
        match self {
            PickRationale::ArrivalOrder => "arrival-order",
            PickRationale::ShortestTotal => "shortest-total",
            PickRationale::ShortestRemaining => "shortest-remaining",
            PickRationale::RoundRobin => "round-robin",
            PickRationale::DeficitOverride => "deficit-override",
        }
    }
}

/// Payload of [`TraceEvent::JobBegin`]: a request was ingested; opens the
/// job's end-to-end span (anchored at the client's `submitted_at`, which
/// precedes the ingest timestamp by the ring-crossing latency).
#[derive(Clone, PartialEq, Debug)]
pub struct JobBegin {
    /// Dispatcher-assigned job id.
    pub job: u64,
    /// Submitting client.
    pub client: u32,
    /// Registered model name (interned; shared with the model artifact).
    pub model: Arc<str>,
    /// Client-side submission instant.
    pub submitted_at: SimTime,
}

/// Payload of [`TraceEvent::JobEnd`]: the job's result became
/// client-visible; closes the end-to-end span. Breakdown components are
/// nanoseconds and sum to the end-to-end JCT.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobEnd {
    /// Dispatcher-assigned job id.
    pub job: u64,
    /// Submitting client.
    pub client: u32,
    /// End-to-end JCT in nanoseconds.
    pub jct_ns: u64,
    /// Client send/receive channel time.
    pub client_send_recv_ns: u64,
    /// PCIe/launch/notification communication time.
    pub communication_ns: u64,
    /// Queuing + scheduling time.
    pub queuing_scheduling_ns: u64,
    /// Framework (dispatcher CPU) time.
    pub framework_ns: u64,
    /// Device execution time.
    pub device_ns: u64,
}

impl From<&JobJourney> for JobEnd {
    /// The paper's five categories of a journey: its four queuing phases are
    /// the one `queuing_scheduling_ns`.
    fn from(j: &JobJourney) -> Self {
        JobEnd {
            job: j.job,
            client: j.client,
            jct_ns: j.jct_ns,
            client_send_recv_ns: j.client_send_recv_ns,
            communication_ns: j.communication_ns,
            queuing_scheduling_ns: j.retry_backoff_ns
                + j.queue_dep_ns
                + j.queue_occupancy_ns
                + j.queue_hol_ns,
            framework_ns: j.framework_ns,
            device_ns: j.device_ns,
        }
    }
}

/// Payload of [`TraceEvent::JobJourney`]: the request's JCT decomposed into
/// the full phase taxonomy (DESIGN §12). Emitted alongside
/// [`TraceEvent::JobEnd`]; where `JobEnd` keeps the paper's legacy
/// 5-category breakdown, the journey further splits the queuing remainder
/// into retry backoff, dependency wait, occupancy/flow-control wait, and
/// scheduler head-of-line wait. All fields are nanoseconds and the eight
/// phases sum *exactly* to `jct_ns` (conservation is oracle-enforced).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobJourney {
    /// Dispatcher-assigned job id.
    pub job: u64,
    /// Submitting client — the tenant for SLO accounting.
    pub client: u32,
    /// End-to-end JCT in nanoseconds.
    pub jct_ns: u64,
    /// Client send/receive channel time.
    pub client_send_recv_ns: u64,
    /// PCIe/launch/notification communication time.
    pub communication_ns: u64,
    /// Framework (dispatcher CPU) time.
    pub framework_ns: u64,
    /// Device execution time.
    pub device_ns: u64,
    /// Time parked in retry backoff after injected kernel faults.
    pub retry_backoff_ns: u64,
    /// Time the job's frontier was blocked on its own dependencies.
    pub queue_dep_ns: u64,
    /// Time held by dispatcher flow control (occupancy budget, notifQ
    /// backpressure, stream-pool exhaustion).
    pub queue_occupancy_ns: u64,
    /// Residual queuing: runnable but not picked — scheduler
    /// head-of-line wait plus unattributed overlap.
    pub queue_hol_ns: u64,
    /// Device time spent in the prefill phase (prompt processing), for
    /// autoregressive jobs; zero for fixed-trace jobs. Together with
    /// `device_decode_ns` this sub-splits `device_ns` exactly:
    /// `device_prefill_ns + device_decode_ns == device_ns`.
    pub device_prefill_ns: u64,
    /// Device time spent in per-token decode iterations; zero for
    /// fixed-trace jobs.
    pub device_decode_ns: u64,
}

/// Payload of [`TraceEvent::RouteDecision`]: a cluster router sent a request
/// to a node (the cluster tier's analogue of [`TraceEvent::SchedDecision`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RouteDecision {
    /// Public (cluster-level) model id of the routed request.
    pub model: u32,
    /// The node the request was sent to.
    pub node: u32,
    /// Balancing policy name.
    pub policy: &'static str,
    /// Requests outstanding on the chosen node at decision time.
    pub outstanding: u64,
    /// Replica-set size the policy chose from.
    pub candidates: u32,
}

/// Payload of [`TraceEvent::SmWaveBegin`] and [`TraceEvent::SmWaveEnd`]: one
/// placement pass of a kernel, a group of blocks per SM it landed on. The two
/// events of a wave share one payload.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SmWave {
    /// Owning kernel uid.
    pub kernel: u64,
    /// Wave index within the kernel (0-based placement pass).
    pub wave: u32,
    /// Kernel name, for slice labels (shared with the kernel).
    pub name: Arc<String>,
    /// `(sm, blocks)` of every group, in placement order.
    pub groups: Box<[(u32, u32)]>,
}

/// Payload of [`TraceEvent::NotifRun`]: notification words of one kernel and
/// one kind that a dispatcher core folded back to back under one CPU charge.
/// Word `i` took the core from `start + i·cost` to `start + (i+1)·cost`; the
/// event is recorded at the first word's end, `start + cost`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct NotifRun {
    /// Kernel every word belongs to.
    pub kernel: u64,
    /// `true` for placement words, `false` for completion words.
    pub placement: bool,
    /// Dispatcher core (shard) that handled the words.
    pub core: u32,
    /// When the core started on the first word.
    pub start: SimTime,
    /// CPU time per word.
    pub cost: SimDuration,
    /// `(sm, blocks)` of every word, in handling order.
    pub words: Vec<(u32, u32)>,
}

/// One virtual-time-stamped observation. The timestamp lives in the
/// enclosing [`TracedEvent`](crate::TracedEvent); span-shaped events carry
/// their own `start` so begin/end pairs stay self-describing.
#[derive(Clone, PartialEq)]
pub enum TraceEvent {
    /// A request was ingested (once per request; payload out of line).
    JobBegin(Box<JobBegin>),
    /// The job's result became client-visible (once per job; payload out of
    /// line).
    JobEnd(Box<JobEnd>),
    /// The journey record, emitted alongside [`TraceEvent::JobEnd`] (once
    /// per job; payload out of line).
    JobJourney(Box<JobJourney>),
    /// A host CPU charge: `start..` the event timestamp.
    HostOp {
        /// What the CPU time paid for.
        kind: HostOpKind,
        /// Dispatcher core (shard) the work ran on.
        core: u32,
        /// When the work started on that core.
        start: SimTime,
    },
    /// The scheduler chose `job`'s next kernel for dispatch.
    SchedDecision {
        /// Chosen job.
        job: u64,
        /// Policy name (`Scheduler::name`).
        policy: &'static str,
        /// Why this job won the pick.
        rationale: PickRationale,
        /// Ready-queue length at decision time.
        ready: u32,
    },
    /// The dispatcher declined to dispatch (flow control).
    OccupancyHold {
        /// The job whose kernel was held.
        job: u64,
        /// Why it was held.
        reason: HoldReason,
    },
    /// A launch reached its hardware queue on the device.
    KernelQueued {
        /// Launch uid.
        kernel: u64,
        /// CUDA stream.
        stream: u32,
        /// Hardware queue the stream maps to.
        hw_queue: u32,
    },
    /// A hardware queue is head-of-line blocked: its head kernel's stream
    /// predecessor has not completed, so nothing behind it may place.
    HwQueueStall {
        /// The stalled hardware queue.
        hw_queue: u32,
        /// The blocked head kernel.
        kernel: u64,
    },
    /// The dispatcher launched a kernel (flow step between the job span and
    /// its per-SM execution spans).
    KernelDispatched {
        /// Owning job.
        job: u64,
        /// Launch uid.
        kernel: u64,
        /// CUDA stream.
        stream: u32,
        /// Grid size in blocks.
        grid_blocks: u32,
    },
    /// A kernel's last block finished on the device.
    KernelCompleted {
        /// Launch uid.
        kernel: u64,
    },
    /// A wave of block groups was placed; stands for one
    /// [`TraceEvent::SmSpanBegin`] per group, all at this event's instant
    /// (once per wave; payload shared with the wave's end).
    SmWaveBegin(Arc<SmWave>),
    /// The matching end of a [`TraceEvent::SmWaveBegin`]; stands for one
    /// [`TraceEvent::SmSpanEnd`] per group.
    SmWaveEnd(Arc<SmWave>),
    /// The host folded a stretch of notifQ words into the occupancy mirror;
    /// stands for a [`HostOpKind::Notif`] [`TraceEvent::HostOp`] and a
    /// [`TraceEvent::NotifBatch`] per word, at the word's own instant (once
    /// per CPU charge; payload out of line).
    NotifRun(Box<NotifRun>),
    /// A group of blocks was placed on one SM (one allocation of a wave).
    /// Word-level view of [`TraceEvent::SmWaveBegin`].
    SmSpanBegin {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel (0-based placement pass).
        wave: u32,
        /// The SM the group landed on.
        sm: u32,
        /// Blocks in the group.
        blocks: u32,
        /// Kernel name, for slice labels (shared with the kernel). A thin
        /// pointer — one word, not `Arc<str>`'s two — because this variant
        /// is ~16 % of all events and sets the enum's size.
        name: Arc<String>,
    },
    /// The matching end of an [`TraceEvent::SmSpanBegin`] group. Word-level
    /// view of [`TraceEvent::SmWaveEnd`].
    SmSpanEnd {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel.
        wave: u32,
        /// The SM the group ran on.
        sm: u32,
        /// Blocks in the group.
        blocks: u32,
    },
    /// The host folded one notifQ word into the occupancy mirror. Word-level
    /// view of [`TraceEvent::NotifRun`].
    NotifBatch {
        /// Kernel the word belongs to.
        kernel: u64,
        /// Reporting SM.
        sm: u32,
        /// `true` for placement words, `false` for completion words.
        placement: bool,
        /// Blocks aggregated into this word.
        blocks: u32,
    },
    /// The almost-finished doorbell fired: the client switches from
    /// interrupt wait to polling (§4.2).
    DoorbellWake {
        /// The nearly-done job.
        job: u64,
    },
    /// A cluster router sent a request to a node (once per routed request;
    /// payload out of line).
    RouteDecision(Box<RouteDecision>),
    /// A kernel execution faulted on the device (injected); the dispatcher
    /// will retry it with backoff until the retry budget runs out.
    KernelFault {
        /// Owning job.
        job: u64,
        /// Faulted launch uid.
        kernel: u64,
        /// 1-based attempt number that faulted.
        attempt: u32,
    },
    /// A faulted kernel's retry was scheduled: the job parks for the
    /// backoff interval starting at this event's timestamp.
    RetryBackoff {
        /// Owning job.
        job: u64,
        /// Faulted launch uid.
        kernel: u64,
        /// 1-based attempt number that faulted.
        attempt: u32,
        /// Exponential backoff interval before the retry, nanoseconds.
        backoff_ns: u64,
    },
    /// The cluster frontend re-routed a crash-lost request to another
    /// replica (a cross-node failover hop on the request's critical path).
    FailoverHop {
        /// Submitting client.
        client: u32,
        /// Public (cluster-level) model id of the rerouted request.
        model: u32,
        /// 1-based failover attempt (bounded by the crash-retry budget).
        attempt: u32,
    },
    /// A job was cancelled mid-flight (deadline, disconnect, retry budget,
    /// or node crash); its queued ops and occupancy were reclaimed.
    JobCancelled {
        /// Cancelled job id.
        job: u64,
        /// Stable reason label (`FailureReason::as_str`).
        reason: &'static str,
    },
    /// Admission control refused a request because the load signal exceeded
    /// the shed watermark.
    RequestShed {
        /// Submitting client.
        client: u32,
        /// Requested model id.
        model: u32,
    },
    /// A cluster node crashed: its queued and in-flight work was lost.
    NodeCrash {
        /// Crashed node index.
        node: u32,
    },
    /// A crashed cluster node came back and began a cold start.
    NodeRecover {
        /// Recovering node index.
        node: u32,
    },
    /// An autoregressive job began its prefill phase (prompt processing) on
    /// the device. TTFT is measured from the client's `submitted_at` to the
    /// end of the last prefill chunk.
    PrefillStart {
        /// Engine-assigned job id.
        job: u64,
        /// Prompt length in tokens.
        prompt_tokens: u32,
    },
    /// One iteration-level decode step retired: the batch of compatible
    /// decode-phase jobs each produced one token. Recorded per iteration
    /// (not per job) to bound trace volume.
    DecodeStep {
        /// Monotone iteration counter within the engine.
        iter: u64,
        /// Jobs co-batched in this iteration.
        batch: u32,
        /// Tokens produced this iteration (== batch for pure decode).
        tokens: u32,
    },
    /// KV-cache pages moved between the free pool and a job's working set.
    /// The conservation oracle replays these: at every event,
    /// `allocated_total == freed_total + resident`.
    KvAlloc {
        /// Owning job id.
        job: u64,
        /// Pages allocated (`freed == false`) or released (`freed == true`).
        pages: u64,
        /// `true` when pages return to the pool (completion, preemption,
        /// cancellation); `false` for an allocation.
        freed: bool,
        /// Pool-wide resident page count *after* this event.
        resident: u64,
    },
    /// A periodic virtual-time counter sample (also rendered as a Chrome
    /// counter track).
    CounterSample {
        /// Counter name.
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

/// The vocabulary's one table. A row is a variant, the field list `Debug`
/// prints for it, and its stable [`kind`](TraceEvent::kind) label.
///
/// `Debug` prints every variant as `#[derive(Debug)]` did when all payloads
/// were inline struct variants — `JobEnd { job: 1, .. }`, never
/// `JobEnd(JobEnd { .. })` — because the flight recorder's dump renders
/// events with `{:?}` and that text is a byte-stable output. A `payload` row
/// is a variant boxing the struct it is named after, which prints itself; a
/// `shared` row prints as the tuple variant it is.
macro_rules! vocabulary {
    (
        payload { $($p:ident => $pl:literal,)* }
        shared { $($s:ident => $sl:literal,)* }
        inline { $($v:ident { $($f:ident),* } => $vl:literal,)* }
    ) => {
        impl TraceEvent {
            /// Stable kind label (summaries, tests).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$p(_) => $pl,)*
                    $(TraceEvent::$s(_) => $sl,)*
                    $(TraceEvent::$v { .. } => $vl,)*
                }
            }
        }

        impl fmt::Debug for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(TraceEvent::$p(p) => p.fmt(f),)*
                    $(TraceEvent::$s(p) => f.debug_tuple(stringify!($s)).field(p).finish(),)*
                    $(TraceEvent::$v { $($f),* } => f
                        .debug_struct(stringify!($v))
                        $(.field(stringify!($f), $f))*
                        .finish(),)*
                }
            }
        }
    };
}

vocabulary! {
    payload {
        JobBegin => "job-begin",
        JobEnd => "job-end",
        JobJourney => "job-journey",
        NotifRun => "notif-run",
        RouteDecision => "route-decision",
    }
    shared {
        SmWaveBegin => "sm-wave-begin",
        SmWaveEnd => "sm-wave-end",
    }
    inline {
        HostOp { kind, core, start } => "host-op",
        SchedDecision { job, policy, rationale, ready } => "sched-decision",
        OccupancyHold { job, reason } => "occupancy-hold",
        KernelQueued { kernel, stream, hw_queue } => "kernel-queued",
        HwQueueStall { hw_queue, kernel } => "hw-queue-stall",
        KernelDispatched { job, kernel, stream, grid_blocks } => "kernel-dispatched",
        KernelCompleted { kernel } => "kernel-completed",
        SmSpanBegin { kernel, wave, sm, blocks, name } => "sm-span-begin",
        SmSpanEnd { kernel, wave, sm, blocks } => "sm-span-end",
        NotifBatch { kernel, sm, placement, blocks } => "notif-batch",
        DoorbellWake { job } => "doorbell-wake",
        KernelFault { job, kernel, attempt } => "kernel-fault",
        RetryBackoff { job, kernel, attempt, backoff_ns } => "retry-backoff",
        FailoverHop { client, model, attempt } => "failover-hop",
        JobCancelled { job, reason } => "job-cancelled",
        RequestShed { client, model } => "request-shed",
        NodeCrash { node } => "node-crash",
        NodeRecover { node } => "node-recover",
        PrefillStart { job, prompt_tokens } => "prefill-start",
        DecodeStep { iter, batch, tokens } => "decode-step",
        KvAlloc { job, pages, freed, resident } => "kv-alloc",
        CounterSample { name, value } => "counter-sample",
    }
}

impl TraceEvent {
    /// How many word-level events this one stands for in
    /// [`TraceLog::expanded`](crate::TraceLog::expanded): one, unless it is
    /// a run.
    pub fn expanded_len(&self) -> usize {
        match self {
            TraceEvent::SmWaveBegin(w) | TraceEvent::SmWaveEnd(w) => w.groups.len(),
            TraceEvent::NotifRun(r) => 2 * r.words.len(),
            _ => 1,
        }
    }
}
