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
//!   budget, hybrid interrupt-then-poll result delivery (§5).
//! * [`serve`] — the [`ServingSystem`] interface and the skeleton every
//!   implementation shares: [`EngineCore`] (telemetry, the terminal-state
//!   funnel, the accounting debit) and [`Layered`] (one driver for every
//!   front end over an inner system).
//! * [`types`] — requests, completions, and the Fig. 10 latency-breakdown
//!   categories.

pub mod batching;
pub mod dispatcher;
pub mod mig;
pub mod occupancy;
pub mod remote;
pub mod sched;
pub mod serve;
pub mod types;
pub mod waitlist;

pub use batching::{batched_model, BatchPolicy, SaturationBatcher};
pub use dispatcher::{Dispatcher, DispatcherConfig, Granularity, StreamPolicy, WakeupMode};
pub use mig::{partition_device, MigServing};
pub use occupancy::OccupancyTracker;
pub use remote::{RemoteGateway, RpcNetModel};
pub use sched::{
    FifoScheduler, JobInfo, RrScheduler, Scheduler, SjfScheduler, SrptDeficitScheduler,
};
pub use serve::{earliest, split, EngineCore, Front, Layered, ServingSystem, Tier};
pub use types::{
    ClientId, FailureReason, InferenceRequest, JobCompletion, JobFailure, JobId, LatencyBreakdown,
    ModelId,
};
pub use waitlist::{OpToken, StreamKind, VStream, Waitlist, WaitlistError};
