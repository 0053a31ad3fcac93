//! The typed trace-event vocabulary.
//!
//! Events carry raw ids (`u64` jobs, `u64` kernels, `u32` SMs/streams)
//! rather than the domain newtypes of `paella-core`/`paella-gpu`, so this
//! crate sits below both in the dependency graph and either side can record
//! into the same [`Tracer`](crate::Tracer).
//!
//! Size budget (DESIGN §8): a [`TraceEvent`] is at most 32 bytes, because
//! recording costs what its bytes cost. The four variants that occur once
//! per request or per job carry their payload behind a `Box`. The three *run*
//! variants ([`TraceEvent::SmWaveBegin`], [`TraceEvent::SmWaveEnd`] and
//! [`TraceEvent::NotifRun`]), which are what the device and the dispatcher
//! record per wave and per charged stretch of notification words, carry no
//! payload at all: their groups or words sit in the recording log's word
//! pool, and the event holds a [`WordRange`] into it. The per-word variants
//! they stand for ([`TraceEvent::SmSpanBegin`], [`TraceEvent::SmSpanEnd`],
//! the [`HostOpKind::Notif`] host op and [`TraceEvent::NotifBatch`]) are what
//! [`TraceLog::expanded`](crate::TraceLog::expanded) yields; nothing records
//! them. In the same way one [`TraceEvent::CounterTick`] per sampling tick
//! stands for a [`TraceEvent::CounterSample`] per [`TICK_COUNTERS`] entry.

use std::fmt;
use std::sync::Arc;

use paella_sim::SimTime;

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

/// Payload of [`TraceEvent::JobJourney`]: the job's result became
/// client-visible, and its JCT decomposed into the full phase taxonomy
/// (DESIGN §12). It closes the job's end-to-end span. The paper's five
/// categories are its first level; the journey further splits the queuing
/// one ([`JobJourney::queuing_scheduling_ns`]) into retry backoff,
/// dependency wait, occupancy/flow-control wait, and scheduler head-of-line
/// wait. All fields are nanoseconds and the eight phases sum *exactly* to
/// `jct_ns` ([`JobJourney::check_conservation`]).
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

impl JobJourney {
    /// The phase values in [`PHASES`](crate::PHASES) order.
    pub fn phases(&self) -> [u64; 8] {
        [
            self.client_send_recv_ns,
            self.communication_ns,
            self.framework_ns,
            self.device_ns,
            self.retry_backoff_ns,
            self.queue_dep_ns,
            self.queue_occupancy_ns,
            self.queue_hol_ns,
        ]
    }

    /// The paper's queuing + scheduling category: the four queue phases.
    pub fn queuing_scheduling_ns(&self) -> u64 {
        self.retry_backoff_ns + self.queue_dep_ns + self.queue_occupancy_ns + self.queue_hol_ns
    }

    /// The conservation law: the eight phases must sum *exactly* to the
    /// JCT. Exact equality on virtual time — any slack is a bug.
    pub fn check_conservation(&self) -> Result<(), String> {
        let sum: u64 = self.phases().iter().sum();
        if sum == self.jct_ns {
            Ok(())
        } else {
            Err(format!(
                "phase sum {} != jct {} (delta {})",
                sum,
                self.jct_ns,
                self.jct_ns as i128 - sum as i128
            ))
        }
    }

    /// The device sub-split conservation law: prefill + decode must equal
    /// device time exactly. Fixed-trace jobs carry their whole device time
    /// as prefill (one uninterrupted pass over the precompiled trace is the
    /// degenerate "prompt"), so the law is uniform across job classes.
    pub fn check_device_split(&self) -> Result<(), String> {
        let sum = self.device_prefill_ns + self.device_decode_ns;
        if sum == self.device_ns {
            Ok(())
        } else {
            Err(format!(
                "device split {} + {} != device {}",
                self.device_prefill_ns, self.device_decode_ns, self.device_ns
            ))
        }
    }
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

/// Where the `(sm, blocks)` entries of a run or a wave sit in the word pool
/// of the tracer or log that recorded it: `len` entries from `from`. Only
/// [`Tracer::record_words`](crate::Tracer::record_words) makes one, as it
/// pushes the entries, so a range always names what its event recorded. A
/// wave's end may hold the range its begin got
/// ([`Tracer::record_range`](crate::Tracer::record_range)): the two name the
/// same groups.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WordRange {
    from: u32,
    len: u32,
}

impl WordRange {
    /// The range of pool entries `from..to`.
    pub(crate) fn new(from: usize, to: usize) -> Self {
        let at = |i: usize| u32::try_from(i).expect("a word pool holds at most u32::MAX entries");
        WordRange {
            from: at(from),
            len: at(to - from),
        }
    }

    /// Number of entries.
    pub(crate) fn len(self) -> usize {
        self.len as usize
    }

    /// One past the last entry's index in the pool.
    pub(crate) fn end(self) -> usize {
        self.from as usize + self.len()
    }

    /// The entries in `pool`.
    pub(crate) fn of(self, pool: &[(u8, u16)]) -> &[(u8, u16)] {
        &pool[self.from as usize..][..self.len()]
    }

    /// The same entries in a pool that `base` entries were put in front of.
    pub(crate) fn rebased(self, base: usize) -> Self {
        WordRange::new(self.from as usize + base, self.end() + base)
    }
}

/// One virtual-time-stamped observation. The timestamp lives in the
/// enclosing [`TracedEvent`](crate::TracedEvent); span-shaped events carry
/// their own `start` so begin/end pairs stay self-describing.
#[derive(Clone, PartialEq)]
pub enum TraceEvent {
    /// A request was ingested (once per request; payload out of line).
    JobBegin(Box<JobBegin>),
    /// The job's result became client-visible: its journey record, which
    /// closes the job's span (once per job; payload out of line).
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
    /// (once per wave).
    SmWaveBegin {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel (0-based placement pass).
        wave: u32,
        /// Kernel name, for slice labels (shared with the kernel).
        name: Arc<String>,
        /// `(sm, blocks)` of every group, in placement order.
        range: WordRange,
    },
    /// The matching end of a [`TraceEvent::SmWaveBegin`]; stands for one
    /// [`TraceEvent::SmSpanEnd`] per group.
    SmWaveEnd {
        /// Owning kernel uid.
        kernel: u64,
        /// Wave index within the kernel.
        wave: u32,
        /// `(sm, blocks)` of every group, in placement order.
        range: WordRange,
    },
    /// The host folded a stretch of notifQ words of one kernel and one kind
    /// into the occupancy mirror, back to back under one CPU charge; stands
    /// for a [`HostOpKind::Notif`] [`TraceEvent::HostOp`] and a
    /// [`TraceEvent::NotifBatch`] per word, at the word's own instant (once
    /// per CPU charge). Word `i` took the core from `start + i·cost` to
    /// `start + (i+1)·cost`, and the event is recorded at the first word's
    /// end, so `cost` is the event's instant minus `start`.
    NotifRun {
        /// Kernel every word belongs to.
        kernel: u64,
        /// When the core started on the first word.
        start: SimTime,
        /// Dispatcher core (shard) that handled the words.
        core: u32,
        /// `true` for placement words, `false` for completion words.
        placement: bool,
        /// `(sm, blocks)` of every word, in handling order.
        range: WordRange,
    },
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
    /// One sampling tick of the [`TICK_COUNTERS`]; stands for a
    /// [`TraceEvent::CounterSample`] of each, in that order, all at this
    /// event's instant (once per tick; a tick whose values do not all fit
    /// `u32` is recorded as the six samples instead).
    CounterTick {
        /// The sampled values, in [`TICK_COUNTERS`] order.
        values: [u32; 6],
    },
}

/// The counters a [`TraceEvent::CounterTick`] samples — the dispatcher's
/// periodic series — in the order of its values.
pub const TICK_COUNTERS: [&str; 6] = [
    "ready_jobs",
    "inflight_jobs",
    "stream_waiters",
    "notifq_backlog",
    "resident_blocks",
    "occupancy_pct",
];

/// The vocabulary's one table. A row is a variant, the field list `Debug`
/// prints for it, and its stable [`kind`](TraceEvent::kind) label.
///
/// `Debug` prints every variant as `#[derive(Debug)]` did when all payloads
/// were inline struct variants — `JobJourney { job: 1, .. }`, never
/// `JobJourney(JobJourney { .. })` — because the flight recorder's dump renders
/// events with `{:?}` and that text is a byte-stable output. A `payload` row
/// is a variant boxing the struct it is named after, which prints itself.
macro_rules! vocabulary {
    (
        payload { $($p:ident => $pl:literal,)* }
        inline { $($v:ident { $($f:ident),* } => $vl:literal,)* }
    ) => {
        impl TraceEvent {
            /// Stable kind label (summaries, tests).
            pub fn kind(&self) -> &'static str {
                match self {
                    $(TraceEvent::$p(_) => $pl,)*
                    $(TraceEvent::$v { .. } => $vl,)*
                }
            }
        }

        impl fmt::Debug for TraceEvent {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                match self {
                    $(TraceEvent::$p(p) => p.fmt(f),)*
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
        JobJourney => "job-journey",
        RouteDecision => "route-decision",
    }
    inline {
        HostOp { kind, core, start } => "host-op",
        SchedDecision { job, policy, rationale, ready } => "sched-decision",
        OccupancyHold { job, reason } => "occupancy-hold",
        KernelQueued { kernel, stream, hw_queue } => "kernel-queued",
        HwQueueStall { hw_queue, kernel } => "hw-queue-stall",
        KernelDispatched { job, kernel, stream, grid_blocks } => "kernel-dispatched",
        KernelCompleted { kernel } => "kernel-completed",
        SmWaveBegin { kernel, wave, name, range } => "sm-wave-begin",
        SmWaveEnd { kernel, wave, range } => "sm-wave-end",
        NotifRun { kernel, start, core, placement, range } => "notif-run",
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
        CounterTick { values } => "counter-tick",
    }
}

impl TraceEvent {
    /// How many word-level events this one stands for in
    /// [`TraceLog::expanded`](crate::TraceLog::expanded): one, unless it is
    /// a run or a tick.
    pub fn expanded_len(&self) -> usize {
        match self {
            TraceEvent::SmWaveBegin { range, .. } | TraceEvent::SmWaveEnd { range, .. } => {
                range.len()
            }
            TraceEvent::NotifRun { range, .. } => 2 * range.len(),
            TraceEvent::CounterTick { values } => values.len(),
            _ => 1,
        }
    }

    /// Where the event's groups or words sit in its log's pool; `None` unless
    /// it is a run.
    pub(crate) fn range(&self) -> Option<WordRange> {
        match *self {
            TraceEvent::SmWaveBegin { range, .. }
            | TraceEvent::SmWaveEnd { range, .. }
            | TraceEvent::NotifRun { range, .. } => Some(range),
            _ => None,
        }
    }

    /// [`range`](Self::range), to move.
    pub(crate) fn range_mut(&mut self) -> Option<&mut WordRange> {
        match self {
            TraceEvent::SmWaveBegin { range, .. }
            | TraceEvent::SmWaveEnd { range, .. }
            | TraceEvent::NotifRun { range, .. } => Some(range),
            _ => None,
        }
    }
}
