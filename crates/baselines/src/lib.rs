#![warn(missing_docs)]

//! # paella-baselines
//!
//! Every front end over a serving system: the comparison systems of the
//! paper's Table 3, built over the same simulated GPU as Paella so that
//! performance differences come from the architectures, not the substrate,
//! and the §5.1/§8 front ends over Paella itself:
//!
//! * [`layered`] — [`Tier`] and [`Layered`], the one driver every front end
//!   runs on: two event sources on one clock, results translated on the way
//!   out.
//! * [`direct`] — CUDA-SS / CUDA-MS / MPS: clients submit whole jobs
//!   directly to the (emulated) CUDA runtime.
//! * [`triton`] — a Triton-like gRPC server (one backend instance per
//!   model, one request per execution) and a Clockwork-like
//!   one-model-at-a-time executor.
//! * [`remote`] — the remote-inference gateway (§5.1).
//! * [`batching`] — batch-`b` model variants, the table of variants the
//!   saturation batcher registers, and saturation-aware dynamic batching
//!   (§8).
//!
//! All systems implement [`paella_core::ServingSystem`] so the experiment
//! harness drives them interchangeably.

pub mod batching;
pub mod direct;
pub mod layered;
pub mod remote;
pub mod triton;

pub use batching::{batched_model, BatchPolicy, SaturationBatcher};
pub use direct::{direct_cuda, DirectMode};
pub use layered::{Front, Layered, Tier};
pub use remote::RemoteGateway;
pub use triton::{Clockwork, Triton};
