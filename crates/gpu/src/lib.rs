#![warn(missing_docs)]

//! # paella-gpu
//!
//! A discrete-event simulator of NVIDIA-style GPU kernel scheduling — the
//! hardware substrate the Paella paper runs on, rebuilt in software because
//! this reproduction has no physical GPU.
//!
//! The simulator implements the *documented* scheduling semantics the paper
//! exploits and works around (§2.1): strict-FIFO hardware queues, stream→
//! queue mapping per microarchitecture generation (Fermi's single queue,
//! Kepler+'s 32 queues), static per-SM block resource allocation (Table 1),
//! head-of-line blocking, copy engines, and the device-side notification
//! instrumentation Paella's compiler inserts (Fig. 6), including batched
//! notifications and their calibrated overheads (Fig. 15).
//!
//! See [`engine::GpuSim`] for the main entry point.

pub mod config;
pub mod engine;
pub mod kernel;
pub mod resources;

pub use config::{DeviceConfig, Microarch};
pub use engine::{CopyDir, GpuOutput, GpuRunOutput, GpuRuns, GpuSim, MemcpyOp, MemcpyUid};
pub use kernel::{DurationModel, InstrumentationSpec, KernelDesc, KernelLaunch, StreamId};
pub use resources::{blocks_per_sm, BlockFootprint, SmLimits, SmPool, SmUsage};
