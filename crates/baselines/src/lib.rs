#![warn(missing_docs)]

//! # paella-baselines
//!
//! The comparison systems of the paper's Table 3, built over the same
//! simulated GPU as Paella so that performance differences come from the
//! architectures, not the substrate:
//!
//! * [`layered`] — [`Tier`] and [`Layered`], the one driver a front end over
//!   a backend dispatcher runs on: two event sources on one clock, results
//!   translated on the way out.
//! * [`direct`] — CUDA-SS / CUDA-MS / MPS: clients submit whole jobs
//!   directly to the (emulated) CUDA runtime.
//! * [`triton`] — a Triton-like gRPC server (one backend instance per
//!   model, one request per execution) and a Clockwork-like
//!   one-model-at-a-time executor.
//! * [`batching`] — the batch-`b` variant of a model (Fig. 3).
//!
//! All systems implement [`paella_core::ServingSystem`] so the experiment
//! harness drives them interchangeably.

pub mod batching;
pub mod direct;
pub mod layered;
pub mod triton;

pub use batching::batched_model;
pub use direct::{direct_cuda, DirectMode};
pub use layered::{Front, Layered, Tier};
pub use triton::{Clockwork, Triton};
