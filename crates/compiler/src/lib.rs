#![warn(missing_docs)]

//! # paella-compiler
//!
//! A small TVM-flavoured model compiler — the compiler half of the paper's
//! compiler/service co-design. It provides a graph IR with shape inference
//! ([`ir`]), TVM-style operator fusion ([`fusion`]), lowering of fusion
//! groups to CUDA kernel descriptions with a roofline cost model ([`lower`]),
//! the uniform Paella instrumentation pass (§4.1, [`instrument`]), and the
//! per-kernel profiling that feeds the SRPT scheduler's remaining-time
//! estimates (§6, [`profile`]).

pub mod dag;
pub mod fusion;
pub mod instrument;
pub mod ir;
pub mod lower;
pub mod module;
pub mod parallel;
pub mod profile;

pub use dag::{DagError, DagNode, DagResources, KernelDag};
pub use fusion::{fuse, FusionGroup};
pub use instrument::{instrument_model, instrumented, notifications_per_run};
pub use ir::{Graph, GraphError, Node, NodeId, Op, Shape};
pub use lower::{lower_group, op_bytes, op_flops, CostModel, LoweredKernel};
pub use module::{compile, CompiledModel, DeviceOp, JobSchedule};
pub use parallel::{compile_parallel, stream_count};
pub use profile::{bootstrap_profile, measure_uncontended, KernelProfile, ModelProfile};
