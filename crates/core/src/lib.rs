#![warn(missing_docs)]

//! # paella-core
//!
//! The paper's primary contribution: a model-serving dispatcher that lifts
//! GPU scheduling out of the hardware and into software.
//!
//! * [`waitlist`] — the executable model of CUDA stream semantics (Fig. 7),
//!   with pipelined release on full placement; the dispatcher runs its
//!   compiled form, predecessor counting over a `KernelDag`.
//! * [`occupancy`] — the software mirror of per-SM resource usage (Table 1),
//!   fed by instrumented-kernel notifications.
//! * [`sched`] — the scheduling policies of Table 3: FIFO, SJF, round-robin,
//!   and the default SRPT + deficit-counter fairness algorithm (§6).
//! * [`dispatcher`] — the single-core serving loop tying everything
//!   together: ingest from shared-memory rings, dispatch under the occupancy
//!   budget, hybrid interrupt-then-poll result delivery (§5). One file per
//!   seam: `config`, `ingest`, `dispatch`, `feedback` (notification runs,
//!   completion, the journey), `failure`, and the three tables they share —
//!   `ops` (dispatched-op records and notifQ slots), `streams` (the stream
//!   pool) and `load` (the load book behind the router's load signal).
//! * [`serve`] — the [`ServingSystem`] interface and [`EngineCore`], the
//!   skeleton every engine shares (telemetry, the terminal-state funnel, the
//!   accounting debit).
//! * [`remote`] — [`RpcNetModel`], the kernel-bypass network crossing of
//!   remote inference (§5.1).
//! * [`types`] — requests, completions, and the Fig. 10 latency-breakdown
//!   categories.
//!
//! The Table 3 baselines live in `paella-baselines`; the MIG facade and the
//! multi-node router in `paella-cluster`.

pub mod dispatcher;
pub mod occupancy;
pub mod remote;
pub mod sched;
pub mod serve;
pub mod types;
pub mod waitlist;

pub use dispatcher::{Dispatcher, DispatcherConfig, Granularity, StreamPolicy, WakeupMode};
pub use occupancy::OccupancyTracker;
pub use remote::RpcNetModel;
pub use sched::{
    FifoScheduler, JobInfo, RrScheduler, Scheduler, SjfScheduler, SrptDeficitScheduler,
};
pub use serve::{earliest, split, EngineCore, ServingSystem};
pub use types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LatencyBreakdown,
    ModelId,
};
pub use waitlist::{OpToken, StreamKind, VStream, Waitlist, WaitlistError};
