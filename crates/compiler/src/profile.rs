//! Model profiling (§6 "Remaining time").
//!
//! When a model is submitted, Paella runs "a series of simple profiling runs
//! of the job, tracking the average execution count and time of each kernel
//! (distinguished by their locations in the shared library)". The profile
//! feeds the SRPT scheduler's remaining-time estimate:
//!
//! ```text
//! remaining = Σ_i max(0, C̄_i − c_i) · T̄_i
//! ```
//!
//! Here a kernel's "location in the shared library" is its index in the
//! compiled op sequence.

use paella_gpu::{
    CopyDir, DeviceConfig, GpuRuns, GpuSim, KernelLaunch, MemcpyOp, MemcpyUid, StreamId,
};
use paella_sim::{OnlineStats, SimDuration, SimTime};

use crate::module::{CompiledModel, DeviceOp};

/// Per-kernel profile entry: running averages over observed executions.
#[derive(Clone, Debug, Default)]
pub struct KernelProfile {
    /// Kernel name (diagnostic only; shared with the kernel).
    pub name: std::sync::Arc<String>,
    /// Average executions per job (`C̄_i`) — 1 for straight-line TVM graphs,
    /// kept general for control flow.
    pub count: OnlineStats,
    /// Average execution time (`T̄_i`).
    pub time_us: OnlineStats,
}

/// A model's profile: one entry per kernel location.
#[derive(Clone, Debug, Default)]
pub struct ModelProfile {
    /// Entries indexed by kernel location in the compiled module.
    pub kernels: Vec<KernelProfile>,
}

impl ModelProfile {
    /// Creates an empty profile shaped for `model`.
    pub fn for_model(model: &CompiledModel) -> Self {
        ModelProfile {
            kernels: model
                .kernels()
                .map(|k| KernelProfile {
                    name: k.name.clone(),
                    ..Default::default()
                })
                .collect(),
        }
    }

    /// Records one profiled (or online-observed) execution of kernel
    /// `location` taking `time`.
    ///
    /// # Panics
    ///
    /// Panics if `location` is out of range.
    pub fn observe_kernel(&mut self, location: usize, time: SimDuration) {
        self.kernels[location].time_us.push(time.as_micros_f64());
    }

    /// The paper's remaining-time estimate for a job that has already run
    /// kernel `i` `done[i]` times.
    ///
    /// # Panics
    ///
    /// Panics if `done` has the wrong length.
    pub fn remaining(&self, done: &[u32]) -> SimDuration {
        assert_eq!(done.len(), self.kernels.len(), "done vector shape");
        let mut total_us = 0.0;
        for (k, &c) in self.kernels.iter().zip(done) {
            let expected = k.count.mean();
            let left = (expected - f64::from(c)).max(0.0);
            total_us += left * k.time_us.mean();
        }
        SimDuration::from_micros_f64(total_us)
    }

    /// Remaining time for a fresh job (nothing executed yet).
    pub fn total_estimate(&self) -> SimDuration {
        let done = vec![0u32; self.kernels.len()];
        self.remaining(&done)
    }
}

/// Synthesizes an initial profile for `model` from its cost model durations —
/// what Paella's offline "simple profiling runs" converge to when kernels
/// behave deterministically. Online observations can refine it afterwards.
pub fn bootstrap_profile(model: &CompiledModel) -> ModelProfile {
    let mut p = ModelProfile::for_model(model);
    let mut loc = 0;
    for op in &model.ops {
        if let DeviceOp::Kernel(k) = op {
            // A kernel's uncontended elapsed time is per-block duration times
            // the waves it needs on an idle device (see lowering).
            let waves = u64::from(k.grid_blocks).div_ceil(320).max(1);
            p.kernels[loc]
                .time_us
                .push((k.duration.base * waves).as_micros_f64());
            p.kernels[loc].count.push(1.0);
            loc += 1;
        }
    }
    p
}

/// Simulates one uncontended execution — input copy, every kernel on one
/// stream of an idle device, output copy — and returns the end-to-end device
/// time: the paper's "TVM Exec Time" measurement (Table 2), and the device
/// share the dispatcher reports in each latency breakdown.
pub fn measure_uncontended(model: &CompiledModel, device: &DeviceConfig) -> SimDuration {
    let mut gpu = GpuSim::new(device.clone(), 0xCA11B);
    let stream = StreamId(1);
    let mut kuid = 0u32;
    let mut muid = 0u64;
    for op in &model.ops {
        match op {
            DeviceOp::Kernel(k) => {
                kuid += 1;
                let desc = k.clone();
                let launch = KernelLaunch {
                    uid: kuid,
                    stream,
                    desc,
                };
                gpu.launch_kernel(SimTime::ZERO, launch);
            }
            DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => {
                muid += 1;
                let dir = if matches!(op, DeviceOp::InputCopy { .. }) {
                    CopyDir::HostToDevice
                } else {
                    CopyDir::DeviceToHost
                };
                let copy = MemcpyOp {
                    uid: MemcpyUid(muid),
                    stream,
                    bytes: *bytes,
                    dir,
                };
                gpu.enqueue_memcpy(SimTime::ZERO, copy);
            }
        }
    }
    // Only the clock is wanted: take the outputs in the form the device
    // makes them and drop them.
    let mut out = GpuRuns::default();
    let mut last = SimTime::ZERO;
    while let Some(t) = gpu.next_time() {
        gpu.advance_until_runs(t, &mut out);
        last = t;
    }
    debug_assert!(gpu.is_idle());
    last - SimTime::ZERO
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Graph, Op, Shape};
    use crate::lower::CostModel;
    use crate::module::compile;

    fn model() -> CompiledModel {
        let mut g = Graph::new();
        let x = g.input(Shape::chw(3, 32, 32));
        let c1 = g
            .add(
                Op::Conv2d {
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                &[x],
            )
            .unwrap();
        let c2 = g
            .add(
                Op::Conv2d {
                    out_channels: 8,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                &[c1],
            )
            .unwrap();
        let _ = g.add(Op::GlobalAvgPool, &[c2]).unwrap();
        compile("m", &g, &CostModel::default(), 1.0)
    }

    #[test]
    fn bootstrap_covers_all_kernels() {
        let m = model();
        let p = bootstrap_profile(&m);
        assert_eq!(p.kernels.len(), m.kernel_count());
        assert!(p.kernels.iter().all(|k| k.time_us.count() == 1));
        assert!(p.total_estimate() > SimDuration::ZERO);
    }

    #[test]
    fn remaining_decreases_monotonically() {
        let m = model();
        let p = bootstrap_profile(&m);
        let n = p.kernels.len();
        let mut prev = p.remaining(&vec![0; n]);
        for i in 0..n {
            let mut done = vec![0u32; n];
            for d in done.iter_mut().take(i + 1) {
                *d = 1;
            }
            let r = p.remaining(&done);
            assert!(r <= prev, "remaining must not grow as kernels finish");
            prev = r;
        }
        assert_eq!(prev, SimDuration::ZERO);
    }

    #[test]
    fn remaining_clamps_overrun() {
        // Running a kernel more often than the profile expected must not go
        // negative (the paper's max(0, ·)).
        let m = model();
        let p = bootstrap_profile(&m);
        let n = p.kernels.len();
        let done = vec![10u32; n];
        assert_eq!(p.remaining(&done), SimDuration::ZERO);
    }

    #[test]
    fn online_refinement_shifts_estimate() {
        let m = model();
        let mut p = bootstrap_profile(&m);
        let before = p.total_estimate();
        // Observe kernel 0 running 3× slower than bootstrap thought.
        let slow = SimDuration::from_micros_f64(p.kernels[0].time_us.mean() * 3.0);
        for _ in 0..100 {
            p.observe_kernel(0, slow);
        }
        assert!(p.total_estimate() > before);
    }

    #[test]
    #[should_panic(expected = "done vector shape")]
    fn wrong_done_shape_panics() {
        let p = bootstrap_profile(&model());
        let _ = p.remaining(&[0]);
    }
}
