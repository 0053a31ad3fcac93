//! Multi-stream lowering: place independent branches of a model on parallel
//! virtual streams.
//!
//! TVM's graph executor runs kernels sequentially on one stream, which is
//! what [`compile`](crate::compile) emits and what the paper's models use.
//! This pass is the natural *extension*: branches of the dataflow graph with
//! no mutual dependencies (inception modules, fire modules, residual
//! shortcuts) are assigned distinct virtual streams, with
//! `cudaStreamWaitEvent`-style joins recorded in the [`JobSchedule`] so the
//! serving layer preserves correctness. Under Paella, each virtual stream is
//! bound to a real CUDA stream at launch time — giving intra-job parallelism
//! on top of inter-job scheduling (what Rammer does at compile time, §9).

use std::collections::HashMap;

use crate::ir::{Graph, NodeId};
use crate::lower::CostModel;
use crate::module::{compile_groups, CompiledModel, JobSchedule};

/// Compiles `graph` with branch-parallel stream assignment over at most
/// `max_streams` virtual streams (≥ 1). The ops are [`compile`](crate::compile)'s,
/// from the same lowering; only the schedule is added.
///
/// # Panics
///
/// Panics if `max_streams == 0`.
pub fn compile_parallel(
    name: &str,
    graph: &Graph,
    cost: &CostModel,
    calibration: f64,
    max_streams: u32,
) -> CompiledModel {
    assert!(max_streams >= 1, "need at least one stream");
    let (mut model, groups) = compile_groups(name, graph, cost, calibration);

    // Producer map: node -> index of the group producing it.
    let mut produced_by: HashMap<NodeId, usize> = HashMap::new();
    for (gi, g) in groups.iter().enumerate() {
        produced_by.insert(g.anchor, gi);
        for &f in &g.fused {
            produced_by.insert(f, gi);
        }
    }

    // Group-level dependencies: the groups producing any input of any node
    // in this group.
    let mut deps_of: Vec<Vec<usize>> = Vec::with_capacity(groups.len());
    for (gi, g) in groups.iter().enumerate() {
        let mut deps = Vec::new();
        let mut members = vec![g.anchor];
        members.extend(&g.fused);
        for m in members {
            for &input in &graph.nodes[m.0 as usize].inputs {
                if let Some(&pg) = produced_by.get(&input) {
                    if pg != gi && !deps.contains(&pg) {
                        deps.push(pg);
                    }
                }
            }
        }
        deps.sort_unstable();
        deps_of.push(deps);
    }

    // Stream assignment: chain onto the first producer's stream when this
    // group is that producer's first consumer; otherwise open a new stream
    // round-robin. Groups with no producers (consume the model input) chain
    // onto stream 1 first, then fan out.
    let mut stream_of: Vec<u32> = vec![0; groups.len()];
    let mut consumer_count: Vec<u32> = vec![0; groups.len()];
    let mut next_stream = 1u32;
    for gi in 0..groups.len() {
        let chained = deps_of[gi]
            .first()
            .copied()
            .filter(|&pg| consumer_count[pg] == 0);
        let stream = match chained {
            Some(pg) => stream_of[pg],
            None => {
                let s = (next_stream - 1) % max_streams + 1;
                next_stream += 1;
                s
            }
        };
        for &pg in &deps_of[gi] {
            consumer_count[pg] += 1;
        }
        stream_of[gi] = stream;
    }

    // Op 0 is the input copy, on stream 1; op `gi + 1` is group `gi`'s
    // kernel.
    let mut streams = Vec::with_capacity(groups.len() + 2);
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(groups.len() + 2);
    streams.push(1);
    deps.push(Vec::new());
    for gi in 0..groups.len() {
        let stream = stream_of[gi];
        streams.push(stream);
        let mut d: Vec<usize> = deps_of[gi]
            .iter()
            .filter(|&&pg| stream_of[pg] != stream)
            .map(|&pg| pg + 1) // +1: op index after the input copy
            .collect();
        // Cross-stream groups that read the model input must wait for the
        // input copy; same-stream (stream 1) ordering covers it implicitly.
        if deps_of[gi].is_empty() && stream != 1 {
            d.push(0);
        }
        deps.push(d);
    }

    // The last op, the output copy, is on stream 1, joining every sink group.
    let sinks: Vec<usize> = (0..groups.len())
        .filter(|&gi| consumer_count[gi] == 0)
        .map(|gi| gi + 1)
        .collect();
    streams.push(1);
    deps.push(sinks.into_iter().filter(|&op| streams[op] != 1).collect());

    model.schedule = Some(JobSchedule { streams, deps });
    model
}

/// Number of distinct virtual streams a schedule uses.
pub fn stream_count(model: &CompiledModel) -> usize {
    model
        .schedule
        .as_ref()
        .map(|s| {
            let mut v: Vec<u32> = s.streams.clone();
            v.sort_unstable();
            v.dedup();
            v.len()
        })
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::{Op, Shape};
    use crate::module::DeviceOp;

    /// Two parallel conv branches joined by a concat.
    fn branchy_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.input(Shape::chw(16, 32, 32));
        let a = g
            .add(
                Op::Conv2d {
                    out_channels: 16,
                    kernel: 3,
                    stride: 1,
                    pad: 1,
                },
                &[x],
            )
            .unwrap();
        let b = g
            .add(
                Op::Conv2d {
                    out_channels: 16,
                    kernel: 5,
                    stride: 1,
                    pad: 2,
                },
                &[x],
            )
            .unwrap();
        let c = g.add(Op::Concat, &[a, b]).unwrap();
        let _ = g.add(Op::Relu, &[c]).unwrap();
        g
    }

    #[test]
    fn branches_land_on_distinct_streams() {
        let m = compile_parallel("b", &branchy_graph(), &CostModel::default(), 1.0, 4);
        let sched = m.schedule.as_ref().expect("schedule present");
        assert_eq!(sched.streams.len(), m.ops.len());
        assert!(stream_count(&m) >= 2, "two branches need two streams");
        // The concat joins both branches: it must carry at least one
        // cross-stream dependency.
        let concat_idx = m
            .ops
            .iter()
            .enumerate()
            .find_map(|(i, op)| match op {
                DeviceOp::Kernel(k) if k.name.starts_with("concatenate") => Some(i),
                _ => None,
            })
            .expect("concat kernel");
        assert!(
            !sched.deps[concat_idx].is_empty(),
            "join needs explicit deps"
        );
    }

    #[test]
    fn max_streams_one_degenerates_to_sequential_order() {
        let m = compile_parallel("b", &branchy_graph(), &CostModel::default(), 1.0, 1);
        assert_eq!(stream_count(&m), 1);
        // Everything on one stream: no cross-stream deps anywhere.
        let sched = m.schedule.as_ref().unwrap();
        assert!(sched.deps.iter().all(|d| d.is_empty()));
    }

    /// A two-module inception-ish chain for structural checks.
    fn inceptionish_graph() -> Graph {
        let mut g = Graph::new();
        let mut x = g.input(Shape::chw(16, 32, 32));
        for _ in 0..2 {
            let a = g
                .add(
                    Op::Conv2d {
                        out_channels: 8,
                        kernel: 1,
                        stride: 1,
                        pad: 0,
                    },
                    &[x],
                )
                .unwrap();
            let b = g
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
            let c = g
                .add(
                    Op::Conv2d {
                        out_channels: 8,
                        kernel: 5,
                        stride: 1,
                        pad: 2,
                    },
                    &[x],
                )
                .unwrap();
            x = g.add(Op::Concat, &[a, b, c]).unwrap();
        }
        g
    }

    #[test]
    fn deps_always_point_backwards() {
        // A well-formed schedule never creates forward (cyclic) waits.
        let g = inceptionish_graph();
        let m = compile_parallel("g", &g, &CostModel::default(), 1.0, 4);
        let sched = m.schedule.as_ref().unwrap();
        for (i, d) in sched.deps.iter().enumerate() {
            for &p in d {
                assert!(p < i, "dep {p} of op {i} must be earlier");
            }
        }
    }

    #[test]
    fn same_costs_as_sequential() {
        let g = branchy_graph();
        let seq = crate::module::compile("b", &g, &CostModel::default(), 1.0);
        let par = compile_parallel("b", &g, &CostModel::default(), 1.0, 4);
        assert_eq!(seq.kernel_count(), par.kernel_count());
        assert_eq!(seq.flops, par.flops);
        assert_eq!(seq.weight_bytes, par.weight_bytes);
        assert_eq!(seq.input_bytes, par.input_bytes);
        assert_eq!(seq.output_bytes, par.output_bytes);
        // The same ops in the same order: only the schedule differs.
        assert_eq!(format!("{:?}", seq.ops), format!("{:?}", par.ops));
    }
}
