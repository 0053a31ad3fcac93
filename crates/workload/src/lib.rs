#![warn(missing_docs)]

//! # paella-workload
//!
//! Workload generation and the experiment harness:
//!
//! * [`gen`] — open-loop lognormal arrival traces (σ ∈ {1.5, 2}, §7) over
//!   weighted model mixes, pre-generated so every system sees the same
//!   trace.
//! * [`runner`] — drives any [`paella_core::ServingSystem`] through a trace
//!   and reduces completions to throughput / p99 / mean JCT, returning the
//!   failures beside them.
//! * [`breakdown`] — the Fig. 10 latency-breakdown averaging and the Fig. 14
//!   client CPU-utilization model.
//! * [`systems`] — a registry constructing every Table 3 system by key.
//! * [`cluster`] — the multi-node experiment: skewed-popularity mixes over a
//!   [`paella_cluster::Cluster`], per-policy goodput and tail latency; with a
//!   failure model, the same workload under a seeded fault plan, reduced
//!   also to successful-request p99 and the within-deadline fraction.
//! * [`llm`] — the autoregressive experiment: Zipf-tenant chat traffic over
//!   a [`paella_llm::LlmEngine`], reduced to TTFT/TPOT tails per
//!   iteration-formation policy.

pub mod breakdown;
pub mod cluster;
pub mod gen;
pub mod llm;
pub mod runner;
pub mod systems;

pub use breakdown::{average_breakdown, client_utilization, BreakdownUs};
pub use cluster::{
    run_cluster_point, smoke_models, ClusterExpResult, ClusterExpSpec, FailureModel,
};
pub use gen::{generate, Arrival, Mix, WorkloadSpec};
pub use llm::{generate_llm_trace, run_llm_point, smoke_llm_model, LlmExpResult, LlmExpSpec};
pub use runner::{run_trace, RunStats};
pub use systems::{make_system, SystemKey};
