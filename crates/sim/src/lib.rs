#![warn(missing_docs)]

//! # paella-sim
//!
//! Discrete-event simulation kernel underpinning the Paella (SOSP '23)
//! reproduction. It provides:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`SimTime`],
//!   [`SimDuration`]).
//! * [`event`] — a deterministic event queue with stable tie-breaking
//!   ([`EventQueue`]).
//! * [`idmap`] — storage indexed by monotonically minted ids ([`IdMap`]), the
//!   container behind every per-job / per-kernel table on the hot path.
//! * [`fault`] — seeded fault schedules ([`FaultPlan`]) for deterministic
//!   fault-injection runs.
//! * [`rng`] — seedable, version-stable PRNGs ([`Xoshiro256pp`]).
//! * [`dist`] — the distributions the workloads need (lognormal arrivals
//!   with σ ∈ {1.5, 2}, normal, geometric).
//! * [`stats`] — streaming statistics (mean/variance, p99, CDFs).
//!
//! All higher layers (the GPU simulator, the Paella dispatcher, the baseline
//! serving systems, the experiment harness) build on these primitives, and
//! identical seeds yield bit-identical experiment output.

pub mod dist;
pub mod event;
pub mod fault;
pub mod idmap;
pub mod rng;
pub mod stats;
pub mod time;

pub use dist::{Distribution, Geometric, LogNormal, Normal};
pub use event::{EventId, EventQueue};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultSpec};
pub use idmap::IdMap;
pub use rng::{SplitMix64, Xoshiro256pp};
pub use stats::{OnlineStats, Percentiles};
pub use time::{SimDuration, SimTime};
