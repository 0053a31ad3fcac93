//! Lowering: fusion groups → CUDA kernel descriptions.
//!
//! Each fusion group becomes one [`KernelDesc`]. The lowering derives:
//!
//! * **grid/block shape** from the output tensor (TVM-style: one thread per
//!   output element, blocks of 128–256 threads, capped grid),
//! * **register/shared-memory footprint** from the operator class (tiled
//!   GEMM-like ops use shmem; elementwise ops use none),
//! * **duration** from an arithmetic-intensity cost model: FLOPs at an
//!   effective throughput, floored by bytes moved at an effective bandwidth,
//!   plus a fixed kernel overhead. A per-model calibration factor lets the
//!   model zoo match Table 2's measured execution times.

use paella_gpu::{BlockFootprint, DurationModel, KernelDesc};
use paella_sim::SimDuration;

use crate::fusion::FusionGroup;
use crate::ir::{Graph, Op, Shape};

/// Carries nothing: the cost model's constants below are fixed for the
/// target device. It stays only so that callers that pass one to
/// [`lower_group`], `compile` and the model zoo — the standalone `benchmark`
/// crate's among them — still compile.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostModel {}

/// Tesla T4: 8.1 TFLOP/s peak fp32, which TVM-generated kernels on small
/// batch-1 tensors land far below; 320 GB/s peak bandwidth.
impl CostModel {
    /// Effective FLOP/s achieved by generated kernels (well below peak).
    const FLOPS_PER_SEC: f64 = 1.6e12;
    /// Effective device memory bandwidth, bytes/s.
    const BYTES_PER_SEC: f64 = 180e9;
    /// Fixed device-side time per kernel (prologue, tails, sync).
    const KERNEL_FLOOR: SimDuration = SimDuration::from_micros(3);
    /// Per-block duration jitter fraction.
    const JITTER_FRAC: f64 = 0.05;
    /// How many blocks the target device runs concurrently when otherwise
    /// idle (≈ SMs × blocks-per-SM for a typical footprint; T4: 40 SMs × ~8
    /// blocks); used to convert whole-kernel roofline time into per-block
    /// time.
    const DEVICE_PARALLEL_BLOCKS: u32 = 320;
}

/// FLOPs performed by an operator producing `out` from `input`.
pub fn op_flops(op: &Op, input: Shape, out: Shape) -> u64 {
    match *op {
        Op::Input => 0,
        Op::Conv2d {
            out_channels,
            kernel,
            ..
        } => {
            2 * u64::from(kernel)
                * u64::from(kernel)
                * u64::from(input.c)
                * u64::from(out_channels)
                * u64::from(out.h)
                * u64::from(out.w)
        }
        Op::DepthwiseConv2d { kernel, .. } => {
            2 * u64::from(kernel) * u64::from(kernel) * out.elems()
        }
        Op::Dense { units } => 2 * input.elems() * u64::from(units),
        Op::MaxPool { size, .. } | Op::AvgPool { size, .. } => {
            u64::from(size) * u64::from(size) * out.elems()
        }
        Op::GlobalAvgPool => input.elems(),
        Op::BatchNorm => 2 * out.elems(),
        Op::Relu => out.elems(),
        Op::Add => out.elems(),
        Op::Concat => 0, // pure data movement
        Op::Softmax => 4 * out.elems(),
    }
}

/// Bytes moved by an operator (inputs read + output written), ignoring
/// weight reuse in caches.
pub fn op_bytes(op: &Op, input: Shape, out: Shape) -> u64 {
    let weights = match *op {
        Op::Conv2d {
            out_channels,
            kernel,
            ..
        } => {
            u64::from(kernel) * u64::from(kernel) * u64::from(input.c) * u64::from(out_channels) * 4
        }
        Op::DepthwiseConv2d { kernel, .. } => {
            u64::from(kernel) * u64::from(kernel) * u64::from(input.c) * 4
        }
        Op::Dense { units } => input.elems() * u64::from(units) * 4,
        _ => 0,
    };
    input.bytes() + out.bytes() + weights
}

/// A lowered kernel plus bookkeeping for profiling/estimation.
#[derive(Clone, Debug)]
pub struct LoweredKernel {
    /// The device kernel.
    pub desc: KernelDesc,
    /// FLOPs the kernel performs (for reports).
    pub flops: u64,
    /// Bytes the kernel moves (for reports).
    pub bytes: u64,
}

/// Lowers one fusion group to a kernel under the [`CostModel`] with duration
/// scaling factor `calibration` (1.0 = raw cost model).
pub fn lower_group(
    graph: &Graph,
    group: &FusionGroup,
    _cost: &CostModel,
    calibration: f64,
) -> LoweredKernel {
    let anchor = &graph.nodes[group.anchor.0 as usize];
    let input_shape = anchor
        .inputs
        .first()
        .map(|&i| graph.shape(i))
        .unwrap_or(Shape::flat(1));
    let out_shape = graph.shape(group.output());

    // Cost: anchor plus fused epilogues.
    let mut flops = op_flops(&anchor.op, input_shape, graph.shape(anchor.id));
    let mut bytes = op_bytes(&anchor.op, input_shape, graph.shape(anchor.id));
    for &f in &group.fused {
        let n = &graph.nodes[f.0 as usize];
        let fin = n
            .inputs
            .first()
            .map(|&i| graph.shape(i))
            .unwrap_or(out_shape);
        flops += op_flops(&n.op, fin, graph.shape(n.id));
        // Fused epilogues run in registers; no extra traffic.
    }
    // `Concat` copies every input.
    if matches!(anchor.op, Op::Concat) {
        bytes = anchor
            .inputs
            .iter()
            .map(|&i| graph.shape(i).bytes())
            .sum::<u64>()
            + graph.shape(anchor.id).bytes();
    }

    // Grid/block shape: one thread per output element, but capped at two
    // device fills — TVM-generated kernels assign multiple elements per
    // thread rather than launching tens of waves of tiny blocks.
    let (threads_per_block, regs, shmem) = kernel_shape(&anchor.op);
    let elems = graph.shape(anchor.id).elems().max(1);
    let grid_cap = u64::from(CostModel::DEVICE_PARALLEL_BLOCKS) * 2;
    let grid_blocks =
        u64::max(1, elems.div_ceil(u64::from(threads_per_block))).min(grid_cap) as u32;

    // Duration: roofline with a floor, split evenly across blocks.
    let compute_s = flops as f64 / CostModel::FLOPS_PER_SEC;
    let memory_s = bytes as f64 / CostModel::BYTES_PER_SEC;
    let total = SimDuration::from_secs_f64(compute_s.max(memory_s))
        .max(CostModel::KERNEL_FLOOR)
        .mul_f64(calibration.max(1e-6));
    // Blocks execute in waves of up to `DEVICE_PARALLEL_BLOCKS`; per-block
    // time is the whole-kernel roofline time split across those waves, so an
    // uncontended run still completes in `total`.
    let waves = u64::from(grid_blocks).div_ceil(u64::from(CostModel::DEVICE_PARALLEL_BLOCKS));
    let per_block = total / waves.max(1);

    LoweredKernel {
        desc: KernelDesc {
            name: kernel_name(&anchor.op, out_shape).into(),
            grid_blocks,
            footprint: BlockFootprint {
                threads: threads_per_block,
                regs_per_thread: regs,
                shmem,
            },
            duration: DurationModel::jittered(per_block, CostModel::JITTER_FRAC),
            instrumentation: None,
        },
        flops,
        bytes,
    }
}

fn kernel_shape(op: &Op) -> (u32, u32, u32) {
    match op {
        // Tiled implicit-GEMM convs: 128 threads, heavy registers, shmem tile.
        Op::Conv2d { .. } => (128, 64, 12 * 1024),
        Op::DepthwiseConv2d { .. } => (128, 32, 4 * 1024),
        Op::Dense { .. } => (128, 48, 8 * 1024),
        Op::MaxPool { .. } | Op::AvgPool { .. } | Op::GlobalAvgPool => (256, 16, 0),
        Op::BatchNorm | Op::Relu | Op::Add | Op::Concat | Op::Softmax => (256, 10, 0),
        Op::Input => (32, 8, 0),
    }
}

fn kernel_name(op: &Op, out: Shape) -> String {
    let base = match op {
        Op::Input => "input",
        Op::Conv2d { .. } => "fused_conv2d",
        Op::DepthwiseConv2d { .. } => "fused_depthwise_conv2d",
        Op::Dense { .. } => "fused_dense",
        Op::MaxPool { .. } => "max_pool2d",
        Op::AvgPool { .. } => "avg_pool2d",
        Op::GlobalAvgPool => "global_avg_pool2d",
        Op::BatchNorm => "batch_norm",
        Op::Relu => "relu",
        Op::Add => "add",
        Op::Concat => "concatenate",
        Op::Softmax => "softmax",
    };
    format!("{base}_{out}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse;
    use crate::ir::Graph;

    fn simple_conv_graph() -> (Graph, Vec<FusionGroup>) {
        let mut g = Graph::new();
        let x = g.input(Shape::chw(3, 224, 224));
        let c = g
            .add(
                Op::Conv2d {
                    out_channels: 64,
                    kernel: 7,
                    stride: 2,
                    pad: 3,
                },
                &[x],
            )
            .unwrap();
        let r = g.add(Op::Relu, &[c]).unwrap();
        let _ = r;
        let groups = fuse(&g);
        (g, groups)
    }

    #[test]
    fn conv_flops_formula() {
        // 7×7 conv, 3→64 channels, 112×112 output:
        // 2 · 49 · 3 · 64 · 112 · 112 = 236 MFLOPs.
        let f = op_flops(
            &Op::Conv2d {
                out_channels: 64,
                kernel: 7,
                stride: 2,
                pad: 3,
            },
            Shape::chw(3, 224, 224),
            Shape::chw(64, 112, 112),
        );
        assert_eq!(f, 2 * 49 * 3 * 64 * 112 * 112);
    }

    #[test]
    fn dense_flops_formula() {
        let f = op_flops(
            &Op::Dense { units: 1000 },
            Shape::flat(512),
            Shape::flat(1000),
        );
        assert_eq!(f, 2 * 512 * 1000);
    }

    #[test]
    fn lowering_produces_sane_kernel() {
        let (g, groups) = simple_conv_graph();
        let k = lower_group(&g, &groups[0], &CostModel::default(), 1.0);
        assert!(k.desc.name.starts_with("fused_conv2d"));
        assert_eq!(k.desc.footprint.threads, 128);
        assert!(k.desc.grid_blocks >= 1 && k.desc.grid_blocks <= 4096);
        assert!(k.flops > 200_000_000);
        // ~236 MFLOPs at 1.6 TFLOP/s ≈ 148 µs ≥ the 3 µs floor, spread over
        // the kernel's idle-device waves.
        let waves = u64::from(k.desc.grid_blocks).div_ceil(320).max(1);
        let whole = k.desc.duration.base * waves;
        assert!(whole >= SimDuration::from_micros(100), "whole = {whole}");
        assert!(whole <= SimDuration::from_micros(250), "whole = {whole}");
    }

    #[test]
    fn calibration_scales_duration() {
        let (g, groups) = simple_conv_graph();
        let k1 = lower_group(&g, &groups[0], &CostModel::default(), 1.0);
        let k2 = lower_group(&g, &groups[0], &CostModel::default(), 2.0);
        let r = k2.desc.duration.base.as_nanos() as f64 / k1.desc.duration.base.as_nanos() as f64;
        // Wave-splitting rounds to nanoseconds, so allow a ±1 ns wobble.
        assert!((r - 2.0).abs() < 1e-4, "ratio {r}");
    }

    #[test]
    fn tiny_op_hits_kernel_floor() {
        let mut g = Graph::new();
        let x = g.input(Shape::flat(16));
        let r = g.add(Op::Relu, &[x]).unwrap();
        let _ = r;
        let groups = fuse(&g);
        let k = lower_group(&g, &groups[0], &CostModel::default(), 1.0);
        assert_eq!(k.desc.duration.base, CostModel::KERNEL_FLOOR);
        assert_eq!(k.desc.grid_blocks, 1);
    }

    #[test]
    fn memory_bound_op_uses_bandwidth_cost() {
        // A big elementwise add moves lots of bytes but few FLOPs.
        let mut g = Graph::new();
        let a = g.input(Shape::chw(256, 128, 128));
        let b = g.input(Shape::chw(256, 128, 128));
        let s = g.add(Op::Add, &[a, b]).unwrap();
        let _ = s;
        let groups = fuse(&g);
        let k = lower_group(&g, &groups[0], &CostModel::default(), 1.0);
        let mem_time = SimDuration::from_secs_f64(k.bytes as f64 / CostModel::BYTES_PER_SEC);
        let waves = u64::from(k.desc.grid_blocks).div_ceil(320).max(1);
        let whole = k.desc.duration.base * waves;
        // Rounding splits/joins lose at most one nanosecond per wave.
        assert!(
            whole + SimDuration::from_nanos(waves) >= mem_time,
            "memory roofline must bind: whole = {whole}, mem = {mem_time}"
        );
    }

    #[test]
    fn grid_capped_at_two_device_fills() {
        let mut g = Graph::new();
        let x = g.input(Shape::chw(2048, 256, 256));
        let r = g.add(Op::Relu, &[x]).unwrap();
        let _ = r;
        let groups = fuse(&g);
        let k = lower_group(&g, &groups[0], &CostModel::default(), 1.0);
        assert_eq!(k.desc.grid_blocks, CostModel::DEVICE_PARALLEL_BLOCKS * 2);
    }
}
