//! The pre-validated kernel-DAG artifact the dispatcher releases ops by.
//!
//! "Which of this job's ops may run next?" is flattened once, at
//! `register_model` time: every op of a [`CompiledModel`] becomes a node
//! with a dense successor list and a predecessor count, such that *an op
//! is schedulable exactly when its predecessor count reaches zero*. The
//! encoded edge set reproduces CUDA stream semantics precisely:
//!
//! * the explicit cross-stream dependencies of the model's
//!   [`JobSchedule`](crate::module::JobSchedule)
//!   (`cudaStreamWaitEvent`-style joins);
//! * the implicit in-stream predecessor edge (within one stream, ops
//!   release in issue order, so the immediate predecessor edge covers the
//!   whole chain);
//! * the default↔blocking serialization edges (a stream-0 op waits on
//!   *every* earlier-issued op of a blocking stream, and vice versa).
//!
//! Because releases within a stream are totally ordered, predecessor
//! counting over this edge set activates each op at exactly the instant a
//! from-scratch scan of the stream rules (`paella_core::Waitlist`, the
//! executable model of those rules) would — the lockstep proofs live in
//! `paella-check`. This is the dispatcher's only activation mechanism: a
//! fresh job copies the predecessor counts, and each release walks the
//! released op's successor list.
//!
//! Construction validates the artifact once — shape checks, range checks,
//! and a Kahn cycle check — so per-job ingest can trust it unconditionally.

use std::fmt;

use paella_gpu::BlockFootprint;

use crate::module::{CompiledModel, DeviceOp};

/// Why a model's op graph could not be compiled into a [`KernelDag`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DagError {
    /// `schedule.streams` does not have one entry per op.
    StreamsShape {
        /// Ops in the model.
        ops: usize,
        /// Entries in `schedule.streams`.
        streams: usize,
    },
    /// `schedule.deps` does not have one entry per op.
    DepsShape {
        /// Ops in the model.
        ops: usize,
        /// Entries in `schedule.deps`.
        deps: usize,
    },
    /// A dependency names an op index outside the model.
    DepOutOfRange {
        /// The op holding the bad dependency.
        token: usize,
        /// The out-of-range dependency.
        dep: usize,
    },
    /// The stream/dependency edges close a wait cycle: no release order
    /// could ever activate `token`, so every job of this model would wedge.
    Cycle {
        /// An op on the cycle (the first Kahn's algorithm cannot remove).
        token: usize,
    },
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::StreamsShape { ops, streams } => {
                write!(f, "schedule.streams has {streams} entries for {ops} ops")
            }
            DagError::DepsShape { ops, deps } => {
                write!(f, "schedule.deps has {deps} entries for {ops} ops")
            }
            DagError::DepOutOfRange { token, dep } => {
                write!(f, "op {token} depends on out-of-range op {dep}")
            }
            DagError::Cycle { token } => {
                write!(f, "op {token} sits on a stream/dependency wait cycle")
            }
        }
    }
}

impl std::error::Error for DagError {}

/// Per-node resource vector: what dispatching this op will cost the device.
/// Copies carry bytes; kernels carry their grid and block footprint so the
/// occupancy gate needs no model walk at dispatch time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DagResources {
    /// Host-to-device input copy of this many bytes.
    H2D(usize),
    /// A kernel launch.
    Kernel {
        /// Kernel location (index among the model's kernels).
        loc: u32,
        /// Grid size in blocks.
        grid_blocks: u32,
        /// Per-block footprint (threads, registers, shared memory).
        footprint: BlockFootprint,
    },
    /// Device-to-host output copy of this many bytes.
    D2H(usize),
}

/// One op of the DAG: its virtual stream and resource vector.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DagNode {
    /// The op's virtual stream (1 for sequential models).
    pub vstream: u32,
    /// What the op costs the device.
    pub resources: DagResources,
}

/// A model's op graph, flattened to dense successor lists (CSR layout) and
/// per-node predecessor counts. Built and validated once per registered
/// model; see the [module docs](self) for the edge-set semantics.
#[derive(Clone, Debug)]
pub struct KernelDag {
    nodes: Vec<DagNode>,
    /// CSR offsets into `succ`: node `t`'s successors are
    /// `succ[succ_off[t]..succ_off[t + 1]]`, ascending.
    succ_off: Vec<u32>,
    /// Concatenated successor lists.
    succ: Vec<u32>,
    /// Predecessor counts over the deduplicated edge set.
    pred_count: Vec<u32>,
}

impl KernelDag {
    /// Builds and validates the DAG for a compiled model, reproducing the
    /// kernel-granularity dispatcher's stream plan: per-op streams and deps
    /// from the model's [`JobSchedule`](crate::JobSchedule) when present,
    /// a single sequential stream otherwise.
    ///
    /// # Errors
    ///
    /// Any [`DagError`]: shape mismatch, out-of-range dependency, or a wait
    /// cycle. A model rejected here would wedge every job at ingest.
    pub fn build(model: &CompiledModel) -> Result<KernelDag, DagError> {
        let n = model.ops.len();
        let (streams, deps): (Vec<u32>, Vec<Vec<usize>>) = match &model.schedule {
            Some(s) => {
                if s.streams.len() != n {
                    return Err(DagError::StreamsShape {
                        ops: n,
                        streams: s.streams.len(),
                    });
                }
                if s.deps.len() != n {
                    return Err(DagError::DepsShape {
                        ops: n,
                        deps: s.deps.len(),
                    });
                }
                (s.streams.clone(), s.deps.clone())
            }
            None => (vec![1; n], vec![Vec::new(); n]),
        };

        let mut nodes = Vec::with_capacity(n);
        let mut kernel_loc = 0u32;
        for (token, op) in model.ops.iter().enumerate() {
            let resources = match op {
                DeviceOp::InputCopy { bytes } => DagResources::H2D(*bytes),
                DeviceOp::Kernel(k) => {
                    let r = DagResources::Kernel {
                        loc: kernel_loc,
                        grid_blocks: k.grid_blocks,
                        footprint: k.footprint,
                    };
                    kernel_loc += 1;
                    r
                }
                DeviceOp::OutputCopy { bytes } => DagResources::D2H(*bytes),
            };
            nodes.push(DagNode {
                vstream: streams[token],
                resources,
            });
        }

        // Gather the edge set as (pred, succ) pairs, then dedup: an explicit
        // dep may coincide with the in-stream predecessor, and predecessor
        // counting must see each edge once.
        let mut edges: Vec<(u32, u32)> = Vec::new();
        let mut last_on_stream: std::collections::HashMap<u32, usize> =
            std::collections::HashMap::new();
        for token in 0..n {
            for &d in &deps[token] {
                if d >= n {
                    return Err(DagError::DepOutOfRange { token, dep: d });
                }
                edges.push((d as u32, token as u32));
            }
            if let Some(&prev) = last_on_stream.get(&streams[token]) {
                edges.push((prev as u32, token as u32));
            }
            // Default↔blocking serialization: stream 0 waits on all
            // earlier-issued non-zero-stream ops and vice versa (the
            // dispatcher declares no non-blocking streams).
            if streams[token] == 0 {
                edges.extend(
                    (0..token)
                        .filter(|&p| streams[p] != 0)
                        .map(|p| (p as u32, token as u32)),
                );
            } else {
                edges.extend(
                    (0..token)
                        .filter(|&p| streams[p] == 0)
                        .map(|p| (p as u32, token as u32)),
                );
            }
            last_on_stream.insert(streams[token], token);
        }
        edges.sort_unstable();
        edges.dedup();
        // A self-edge is a degenerate cycle; in-range by construction.
        if let Some(&(p, s)) = edges.iter().find(|&&(p, s)| p == s) {
            debug_assert_eq!(p, s);
            return Err(DagError::Cycle { token: s as usize });
        }

        let mut pred_count = vec![0u32; n];
        let mut succ_off = vec![0u32; n + 1];
        for &(p, s) in &edges {
            pred_count[s as usize] += 1;
            succ_off[p as usize + 1] += 1;
        }
        for t in 0..n {
            succ_off[t + 1] += succ_off[t];
        }
        // `edges` is sorted by (pred, succ), so successor lists land in the
        // CSR ascending per node; the dispatcher orders each release's
        // activations by stream id on top of that.
        let succ: Vec<u32> = edges.iter().map(|&(_, s)| s).collect();

        let dag = KernelDag {
            nodes,
            succ_off,
            succ,
            pred_count,
        };
        // Kahn's algorithm: every node must be removable, or the plan holds
        // a wait cycle that would deadlock each job at ingest.
        let mut left = dag.pred_count.clone();
        let mut queue: Vec<usize> = (0..n).filter(|&t| left[t] == 0).collect();
        let mut removed = 0usize;
        while let Some(t) = queue.pop() {
            removed += 1;
            for &s in dag.successors(t) {
                left[s as usize] -= 1;
                if left[s as usize] == 0 {
                    queue.push(s as usize);
                }
            }
        }
        if removed != n {
            // invariant: removed < n here, so a stuck node exists.
            let token = (0..n)
                .find(|&t| left[t] > 0)
                .expect("unremoved node has positive in-degree");
            return Err(DagError::Cycle { token });
        }
        Ok(dag)
    }

    /// Number of ops.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the model has no ops.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node for op `token`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    pub fn node(&self, token: usize) -> &DagNode {
        &self.nodes[token]
    }

    /// Op `token`'s successors, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `token` is out of range.
    pub fn successors(&self, token: usize) -> &[u32] {
        &self.succ[self.succ_off[token] as usize..self.succ_off[token + 1] as usize]
    }

    /// Per-op predecessor counts over the deduplicated edge set. A fresh
    /// job's activation state starts as a copy of this vector.
    pub fn pred_counts(&self) -> &[u32] {
        &self.pred_count
    }

    /// Ops with no predecessors (initially active), ascending.
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.nodes.len()).filter(|&t| self.pred_count[t] == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::JobSchedule;
    use paella_gpu::{DurationModel, KernelDesc};
    use paella_sim::SimDuration;

    fn kernel(name: &str, blocks: u32) -> KernelDesc {
        KernelDesc {
            name: name.to_string().into(),
            grid_blocks: blocks,
            footprint: BlockFootprint {
                threads: 128,
                regs_per_thread: 16,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_micros(5)),
            instrumentation: None,
        }
    }

    fn model(ops: Vec<DeviceOp>, schedule: Option<JobSchedule>) -> CompiledModel {
        CompiledModel {
            name: "dag-test".to_string().into(),
            ops,
            schedule,
            input_bytes: 0,
            output_bytes: 0,
            weight_bytes: 0,
            flops: 0,
        }
    }

    #[test]
    fn sequential_model_is_a_chain() {
        let m = model(
            vec![
                DeviceOp::InputCopy { bytes: 64 },
                DeviceOp::Kernel(kernel("a", 2)),
                DeviceOp::Kernel(kernel("b", 4)),
                DeviceOp::OutputCopy { bytes: 64 },
            ],
            None,
        );
        let dag = KernelDag::build(&m).unwrap();
        assert_eq!(dag.len(), 4);
        assert_eq!(dag.pred_counts(), &[0, 1, 1, 1]);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.successors(1), &[2]);
        assert_eq!(dag.successors(3), &[] as &[u32]);
        assert_eq!(dag.roots().collect::<Vec<_>>(), vec![0]);
        match dag.node(2).resources {
            DagResources::Kernel {
                loc, grid_blocks, ..
            } => {
                assert_eq!((loc, grid_blocks), (1, 4));
            }
            other => panic!("expected kernel resources, got {other:?}"),
        }
    }

    #[test]
    fn branchy_schedule_gets_join_edges() {
        // Fork: op 0 feeds ops 1 (stream 1) and 2 (stream 2); op 3 joins.
        let m = model(
            vec![
                DeviceOp::Kernel(kernel("src", 1)),
                DeviceOp::Kernel(kernel("left", 1)),
                DeviceOp::Kernel(kernel("right", 1)),
                DeviceOp::Kernel(kernel("join", 1)),
            ],
            Some(JobSchedule {
                streams: vec![1, 1, 2, 1],
                deps: vec![vec![], vec![], vec![0], vec![1, 2]],
            }),
        );
        let dag = KernelDag::build(&m).unwrap();
        // Op 3: explicit deps {1, 2} plus in-stream pred 1 (deduplicated).
        assert_eq!(dag.pred_counts(), &[0, 1, 1, 2]);
        assert_eq!(dag.successors(0), &[1, 2]);
        assert_eq!(dag.successors(1), &[3]);
        assert_eq!(dag.successors(2), &[3]);
    }

    #[test]
    fn default_stream_serializes_against_blocking_streams() {
        // Blocking op 0, then a stream-0 op, then another blocking op: the
        // stream-0 op waits on op 0; op 2 waits on the stream-0 op.
        let m = model(
            vec![
                DeviceOp::Kernel(kernel("a", 1)),
                DeviceOp::Kernel(kernel("b", 1)),
                DeviceOp::Kernel(kernel("c", 1)),
            ],
            Some(JobSchedule {
                streams: vec![1, 0, 2],
                deps: vec![vec![], vec![], vec![]],
            }),
        );
        let dag = KernelDag::build(&m).unwrap();
        assert_eq!(dag.pred_counts(), &[0, 1, 1]);
        assert_eq!(dag.successors(0), &[1]);
        assert_eq!(dag.successors(1), &[2]);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let m = model(
            vec![DeviceOp::Kernel(kernel("a", 1))],
            Some(JobSchedule {
                streams: vec![1, 1],
                deps: vec![vec![]],
            }),
        );
        assert_eq!(
            KernelDag::build(&m).unwrap_err(),
            DagError::StreamsShape { ops: 1, streams: 2 }
        );
    }

    #[test]
    fn out_of_range_dep_rejected() {
        let m = model(
            vec![DeviceOp::Kernel(kernel("a", 1))],
            Some(JobSchedule {
                streams: vec![1],
                deps: vec![vec![9]],
            }),
        );
        assert_eq!(
            KernelDag::build(&m).unwrap_err(),
            DagError::DepOutOfRange { token: 0, dep: 9 }
        );
    }

    #[test]
    fn wait_cycle_rejected() {
        // Op 0 (stream 1) deps on op 1; op 1 sits behind op 0 on stream 1:
        // the in-stream edge plus the forward dep close a cycle.
        let m = model(
            vec![
                DeviceOp::Kernel(kernel("a", 1)),
                DeviceOp::Kernel(kernel("b", 1)),
            ],
            Some(JobSchedule {
                streams: vec![1, 1],
                deps: vec![vec![1], vec![]],
            }),
        );
        assert!(matches!(KernelDag::build(&m), Err(DagError::Cycle { .. })));
    }

    #[test]
    fn self_dependency_rejected() {
        let m = model(
            vec![DeviceOp::Kernel(kernel("a", 1))],
            Some(JobSchedule {
                streams: vec![1],
                deps: vec![vec![0]],
            }),
        );
        assert_eq!(
            KernelDag::build(&m).unwrap_err(),
            DagError::Cycle { token: 0 }
        );
    }

    #[test]
    fn compile_parallel_output_builds() {
        // The real multi-stream compiler output must always be admissible.
        use crate::ir::{Graph, Op, Shape};
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
        let compiled = crate::parallel::compile_parallel(
            "branchy",
            &g,
            &crate::lower::CostModel::default(),
            1.0,
            4,
        );
        assert!(compiled.schedule.is_some());
        let dag = KernelDag::build(&compiled).unwrap();
        assert_eq!(dag.len(), compiled.ops.len());
        // Kahn ran to completion, so every op is reachable from a root.
        assert!(dag.roots().count() >= 1);
    }
}
