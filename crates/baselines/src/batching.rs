//! The batch-`b` variant of a model, which Fig. 3 submits to price what a
//! batched execution costs against a batch-1 one.

use paella_compiler::{CompiledModel, DeviceOp};

/// Builds the batch-`b` variant of a model: kernels do `b`× the work at
/// sub-linear cost, copies scale linearly. Batch-`b` kernels amortize fixed
/// per-kernel costs; an effective scale of 0.35 + 0.65·b matches the usual
/// ~35 % fixed fraction of small-batch inference kernels.
pub fn batched_model(model: &CompiledModel, b: usize) -> CompiledModel {
    if b <= 1 {
        return model.clone();
    }
    let scale = 0.35 + 0.65 * b as f64;
    let mut m = model.clone();
    m.name = format!("{}@b{b}", m.name).into();
    for op in &mut m.ops {
        match op {
            DeviceOp::Kernel(k) => k.duration.base = k.duration.base.mul_f64(scale),
            DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => *bytes *= b,
        }
    }
    m.input_bytes *= b;
    m.output_bytes *= b;
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use paella_gpu::{BlockFootprint, DurationModel, KernelDesc};
    use paella_sim::SimDuration;

    fn model() -> CompiledModel {
        let kernel = |us| {
            DeviceOp::Kernel(KernelDesc {
                name: "bt_op".to_string().into(),
                grid_blocks: 200,
                footprint: BlockFootprint {
                    threads: 128,
                    regs_per_thread: 16,
                    shmem: 0,
                },
                duration: DurationModel::fixed(SimDuration::from_micros(us)),
                instrumentation: None,
            })
        };
        CompiledModel {
            name: "bt".to_string().into(),
            ops: vec![
                DeviceOp::InputCopy { bytes: 4096 },
                kernel(400),
                kernel(100),
                DeviceOp::OutputCopy { bytes: 1000 },
            ],
            schedule: None,
            input_bytes: 4096,
            output_bytes: 1000,
            weight_bytes: 0,
            flops: 0,
        }
    }

    /// What each op of `m` costs: a kernel's base duration in ns, a copy's
    /// bytes.
    fn costs(m: &CompiledModel) -> Vec<u64> {
        m.ops
            .iter()
            .map(|op| match op {
                DeviceOp::Kernel(k) => k.duration.base.as_nanos(),
                DeviceOp::InputCopy { bytes } | DeviceOp::OutputCopy { bytes } => *bytes as u64,
            })
            .collect()
    }

    #[test]
    fn batch_b_scales_kernels_sublinearly_and_copies_linearly() {
        let m = model();
        for b in [0, 1] {
            let same = batched_model(&m, b);
            assert_eq!(same.name, m.name, "b = {b}");
            assert_eq!(costs(&same), costs(&m), "b = {b}");
            assert_eq!((same.input_bytes, same.output_bytes), (4096, 1000));
        }
        // 0.35 + 0.65·4 = 2.95 per kernel; ×4 per copy.
        let b4 = batched_model(&m, 4);
        assert_eq!(&*b4.name, "bt@b4");
        assert_eq!(costs(&b4), [4 * 4096, 1_180_000, 295_000, 4 * 1000]);
        assert_eq!((b4.input_bytes, b4.output_bytes), (4 * 4096, 4 * 1000));
        assert_eq!(b4.ops.len(), m.ops.len());
    }
}
