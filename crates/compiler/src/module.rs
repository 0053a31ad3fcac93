//! The compiled-model artifact: what users "submit along with an adaptor
//! class" to the Paella service (§3 workflow, step ❶).

use paella_gpu::KernelDesc;

use crate::fusion::{fuse, FusionGroup};
use crate::ir::{Graph, Op};
use crate::lower::{lower_group, CostModel, LoweredKernel};

/// One device operation of a compiled model, in execution order.
#[derive(Clone, Debug)]
pub enum DeviceOp {
    /// Copy the input tensor host→device (`set_input`).
    InputCopy {
        /// Bytes to transfer.
        bytes: usize,
    },
    /// Launch a kernel.
    Kernel(KernelDesc),
    /// Copy the output tensor device→host (`get_output`).
    OutputCopy {
        /// Bytes to transfer.
        bytes: usize,
    },
}

/// An explicit multi-stream execution schedule for a compiled model: one
/// virtual stream id per op plus cross-stream dependencies (indices into
/// `ops`), realized at serving time as `cudaStreamWaitEvent`-style joins.
#[derive(Clone, Debug, Default)]
pub struct JobSchedule {
    /// Virtual stream of each op (parallel to `CompiledModel::ops`).
    pub streams: Vec<u32>,
    /// For each op, the op indices it must wait for (beyond same-stream
    /// ordering).
    pub deps: Vec<Vec<usize>>,
}

/// A compiled model: a sequence of device ops. By default the ops execute
/// in order on one stream (TVM's graph executor); an optional
/// [`JobSchedule`] lets independent branches run on parallel streams.
#[derive(Clone, Debug)]
pub struct CompiledModel {
    /// Model name as registered with the serving system. Interned as
    /// `Arc<str>` so every layer that labels per-job or per-kernel events
    /// (dispatcher telemetry, placement reports) shares one allocation
    /// instead of cloning a `String` per request.
    pub name: std::sync::Arc<str>,
    /// Ordered device operations.
    pub ops: Vec<DeviceOp>,
    /// Optional multi-stream schedule; `None` means sequential single-stream.
    pub schedule: Option<JobSchedule>,
    /// Input tensor size in bytes.
    pub input_bytes: usize,
    /// Output tensor size in bytes.
    pub output_bytes: usize,
    /// Serialized weight size in bytes (Table 2's "Size" column).
    pub weight_bytes: u64,
    /// Total FLOPs across kernels, for reports.
    pub flops: u64,
}

impl CompiledModel {
    /// Number of kernels in the model.
    pub fn kernel_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| matches!(op, DeviceOp::Kernel(_)))
            .count()
    }

    /// Iterates over the kernels in execution order.
    pub fn kernels(&self) -> impl Iterator<Item = &KernelDesc> {
        self.ops.iter().filter_map(|op| match op {
            DeviceOp::Kernel(k) => Some(k),
            _ => None,
        })
    }

    /// Total blocks launched by one execution of the model.
    pub fn total_blocks(&self) -> u64 {
        self.kernels().map(|k| u64::from(k.grid_blocks)).sum()
    }

    /// Sum of per-kernel roofline durations — a lower bound on uncontended
    /// device execution time (kernels are sequential in TVM's executor).
    pub fn device_time_lower_bound(&self) -> paella_sim::SimDuration {
        let mut total = paella_sim::SimDuration::ZERO;
        for k in self.kernels() {
            let waves = u64::from(k.grid_blocks).div_ceil(320).max(1);
            total += k.duration.base * waves;
        }
        total
    }
}

/// Compiles a graph into a model artifact.
///
/// `calibration` scales every kernel duration; the model zoo solves for it so
/// uncontended simulated execution matches Table 2 (see `paella-models`).
pub fn compile(name: &str, graph: &Graph, cost: &CostModel, calibration: f64) -> CompiledModel {
    compile_groups(name, graph, cost, calibration).0
}

/// The one lowering of `graph`'s fused groups: the sequential model (the
/// input copy, one kernel per group in group order, the output copy) and
/// the groups, for a pass that lays the same ops out on several streams.
pub(crate) fn compile_groups(
    name: &str,
    graph: &Graph,
    cost: &CostModel,
    calibration: f64,
) -> (CompiledModel, Vec<FusionGroup>) {
    let groups = fuse(graph);
    let mut ops = Vec::with_capacity(groups.len() + 2);
    let input_bytes = graph
        .nodes
        .iter()
        .filter(|n| matches!(n.op, Op::Input))
        .map(|n| n.shape.bytes() as usize)
        .sum::<usize>()
        .max(4);
    let output_bytes = graph
        .nodes
        .last()
        .map(|n| n.shape.bytes() as usize)
        .unwrap_or(4);

    ops.push(DeviceOp::InputCopy { bytes: input_bytes });
    let mut flops = 0;
    let mut weight_bytes = 0;
    for group in &groups {
        let LoweredKernel {
            desc,
            flops: f,
            bytes: _,
        } = lower_group(graph, group, cost, calibration);
        flops += f;
        weight_bytes += weights_of(graph, group);
        ops.push(DeviceOp::Kernel(desc));
    }
    ops.push(DeviceOp::OutputCopy {
        bytes: output_bytes,
    });

    let model = CompiledModel {
        name: name.into(),
        ops,
        schedule: None,
        input_bytes,
        output_bytes,
        weight_bytes,
        flops,
    };
    (model, groups)
}

fn weights_of(graph: &Graph, group: &FusionGroup) -> u64 {
    let n = &graph.nodes[group.anchor.0 as usize];
    let input = n.inputs.first().map(|&i| graph.shape(i));
    match (n.op, input) {
        (
            Op::Conv2d {
                out_channels,
                kernel,
                ..
            },
            Some(i),
        ) => u64::from(kernel) * u64::from(kernel) * u64::from(i.c) * u64::from(out_channels) * 4,
        (Op::DepthwiseConv2d { kernel, .. }, Some(i)) => {
            u64::from(kernel) * u64::from(kernel) * u64::from(i.c) * 4
        }
        (Op::Dense { units }, Some(i)) => i.elems() * u64::from(units) * 4,
        _ => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Shape;

    fn tiny_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(Shape::chw(3, 32, 32));
        let c = g
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
        let r = g.add(Op::Relu, &[c]).unwrap();
        let p = g.add(Op::GlobalAvgPool, &[r]).unwrap();
        let d = g.add(Op::Dense { units: 10 }, &[p]).unwrap();
        let _ = g.add(Op::Softmax, &[d]).unwrap();
        g
    }

    #[test]
    fn compile_orders_ops() {
        let m = compile("tiny", &tiny_graph(), &CostModel::default(), 1.0);
        assert!(matches!(m.ops.first(), Some(DeviceOp::InputCopy { .. })));
        assert!(matches!(m.ops.last(), Some(DeviceOp::OutputCopy { .. })));
        // conv(+relu fused), pool, dense, softmax → 4 kernels.
        assert_eq!(m.kernel_count(), 4);
        assert_eq!(m.input_bytes, 3 * 32 * 32 * 4);
        assert_eq!(m.output_bytes, 10 * 4);
    }

    #[test]
    fn weight_accounting() {
        let m = compile("tiny", &tiny_graph(), &CostModel::default(), 1.0);
        let conv_w = 3u64 * 3 * 3 * 8 * 4;
        let dense_w = 8u64 * 10 * 4;
        assert_eq!(m.weight_bytes, conv_w + dense_w);
    }

    #[test]
    fn flops_positive_and_blocks_counted() {
        let m = compile("tiny", &tiny_graph(), &CostModel::default(), 1.0);
        assert!(m.flops > 0);
        assert!(m.total_blocks() >= m.kernel_count() as u64);
        assert!(m.device_time_lower_bound() > paella_sim::SimDuration::ZERO);
    }
}
