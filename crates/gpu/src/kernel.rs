//! Kernel descriptions, launches, and duration models.

use paella_channels::KernelUid;
use paella_sim::rng::Xoshiro256pp;
use paella_sim::SimDuration;

use crate::resources::BlockFootprint;

/// How long a block (group) of this kernel runs once placed.
///
/// Durations are sampled at placement time: a base cost plus optional
/// multiplicative lognormal-ish jitter (modelled as `base × (1 + j)` with `j`
/// drawn uniformly from `[-jitter_frac, +jitter_frac]` for determinism and
/// boundedness).
#[derive(Clone, Copy, Debug)]
pub struct DurationModel {
    /// Mean per-block execution time.
    pub base: SimDuration,
    /// Fractional jitter half-width (0 for deterministic kernels).
    pub jitter_frac: f64,
}

impl DurationModel {
    /// A deterministic duration.
    pub fn fixed(base: SimDuration) -> Self {
        DurationModel {
            base,
            jitter_frac: 0.0,
        }
    }

    /// A duration with ±`jitter_frac` uniform jitter.
    pub fn jittered(base: SimDuration, jitter_frac: f64) -> Self {
        assert!((0.0..1.0).contains(&jitter_frac), "jitter must be in [0,1)");
        DurationModel { base, jitter_frac }
    }

    /// Samples one block-group duration.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> SimDuration {
        if self.jitter_frac == 0.0 {
            self.base
        } else {
            let j = (rng.next_f64() * 2.0 - 1.0) * self.jitter_frac;
            self.base.mul_f64(1.0 + j)
        }
    }
}

/// Instrumentation parameters added by the Paella compiler pass (§4.1).
///
/// The cost model follows the paper's Fig. 15 measurement: the bare
/// notification writes add a small per-block cost (the tail `atomicInc` is
/// the only serialization point), while the aggregation conditional adds a
/// mostly block-count-independent base cost (~5.5 µs at 16 blocks vs ~6.6 µs
/// at 160 in the paper) plus a small per-block term.
#[derive(Clone, Copy, Debug)]
pub struct InstrumentationSpec {
    /// Aggregate start/end notifications over groups of up to this many
    /// blocks (16 in the paper; 1 disables aggregation).
    pub aggregation: u32,
    /// Per-kernel overhead of the aggregation machinery (start/end counters,
    /// the modulo conditional, extra parameter traffic).
    pub base_overhead: SimDuration,
    /// Per-block overhead across both notify phases.
    pub per_block_overhead: SimDuration,
}

impl Default for InstrumentationSpec {
    fn default() -> Self {
        // Calibrated against Fig. 15: agg(16 blks) ≈ 5.5 µs,
        // agg(160 blks) ≈ 6.6 µs over the uninstrumented kernel.
        InstrumentationSpec {
            aggregation: 16,
            base_overhead: SimDuration::from_nanos(5_400),
            per_block_overhead: SimDuration::from_nanos(7),
        }
    }
}

impl InstrumentationSpec {
    /// Instrumentation without aggregation: every block notifies directly.
    /// Calibrated against Fig. 15's "no agg" curves (160 blks ≈ 2.2 µs).
    pub fn without_aggregation() -> Self {
        InstrumentationSpec {
            aggregation: 1,
            base_overhead: SimDuration::ZERO,
            per_block_overhead: SimDuration::from_nanos(13),
        }
    }

    /// How many notifications a grid of `blocks` posts per phase
    /// (placement or completion).
    pub fn notifications_for(&self, blocks: u32) -> u32 {
        if blocks == 0 {
            return 0;
        }
        // One per full group of `aggregation`, plus one for the final block
        // (`startCount == TOTAL_BLOCKS` in Fig. 6) if it didn't land exactly
        // on a group boundary.
        let agg = self.aggregation.max(1);
        blocks.div_ceil(agg)
    }

    /// Device-side overhead added to the kernel's critical path by the
    /// instrumentation, for a grid of `blocks` blocks.
    pub fn kernel_overhead(&self, blocks: u32) -> SimDuration {
        self.base_overhead + self.per_block_overhead * blocks as u64
    }
}

/// A compiled kernel: the unit the host launches.
#[derive(Clone, Debug)]
pub struct KernelDesc {
    /// Human-readable name (e.g. `"conv2d_3x3_64"`); used by the profiler to
    /// key per-kernel statistics. Shared, and a thin (one-word) pointer: the
    /// engine labels every per-SM trace span with it, so a plain `String`
    /// would be cloned once per span on the hot path and `Arc<str>`'s second
    /// word would widen every recorded event.
    pub name: std::sync::Arc<String>,
    /// Number of thread blocks in the grid (`Dg`).
    pub grid_blocks: u32,
    /// Per-block resource footprint.
    pub footprint: BlockFootprint,
    /// Per-block duration model.
    pub duration: DurationModel,
    /// Instrumentation added by the Paella compiler, if any.
    pub instrumentation: Option<InstrumentationSpec>,
}

impl KernelDesc {
    /// A minimal kernel for tests and microbenchmarks: `blocks` blocks of 32
    /// threads doing nothing but (optionally) notifying.
    pub fn empty(name: &str, blocks: u32) -> Self {
        KernelDesc {
            name: name.to_string().into(),
            grid_blocks: blocks,
            footprint: BlockFootprint {
                threads: 32,
                regs_per_thread: 8,
                shmem: 0,
            },
            duration: DurationModel::fixed(SimDuration::from_nanos(500)),
            instrumentation: None,
        }
    }

    /// Returns a copy with instrumentation attached.
    pub fn instrumented(mut self, spec: InstrumentationSpec) -> Self {
        self.instrumentation = Some(spec);
        self
    }
}

/// A kernel launch command as it reaches the (simulated) device: the kernel,
/// the stream it was submitted on, and the dispatcher-assigned unique id.
#[derive(Clone, Debug)]
pub struct KernelLaunch {
    /// Unique id for this execution, generated host-side.
    pub uid: KernelUid,
    /// CUDA stream the launch was submitted to.
    pub stream: StreamId,
    /// The kernel itself.
    pub desc: KernelDesc,
}

/// Identifier of a (real) CUDA stream on the device.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The default stream (stream 0), which serializes against all others
    /// under legacy semantics.
    pub const DEFAULT: StreamId = StreamId(0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_duration_is_deterministic() {
        let m = DurationModel::fixed(SimDuration::from_micros(300));
        let mut rng = Xoshiro256pp::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng), SimDuration::from_micros(300));
        assert_eq!(m.sample(&mut rng), SimDuration::from_micros(300));
    }

    #[test]
    fn jittered_duration_bounded() {
        let base = SimDuration::from_micros(100);
        let m = DurationModel::jittered(base, 0.2);
        let mut rng = Xoshiro256pp::seed_from_u64(2);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_micros(80));
            assert!(d <= SimDuration::from_micros(120));
        }
    }

    #[test]
    #[should_panic(expected = "jitter must be in [0,1)")]
    fn bad_jitter_panics() {
        DurationModel::jittered(SimDuration::from_micros(1), 1.5);
    }

    #[test]
    fn notification_counts_match_fig6_semantics() {
        let spec = InstrumentationSpec::default(); // aggregation = 16
        assert_eq!(spec.notifications_for(0), 0);
        assert_eq!(spec.notifications_for(1), 1); // final block always posts
        assert_eq!(spec.notifications_for(16), 1);
        assert_eq!(spec.notifications_for(17), 2);
        assert_eq!(spec.notifications_for(160), 10);
        let noagg = InstrumentationSpec::without_aggregation();
        assert_eq!(noagg.notifications_for(160), 160);
    }

    #[test]
    fn overhead_matches_fig15_calibration() {
        let agg = InstrumentationSpec::default();
        let noagg = InstrumentationSpec::without_aggregation();
        // Aggregation posts far fewer notifications…
        assert!(agg.notifications_for(160) < noagg.notifications_for(160));
        // …but costs more device time (the Fig. 15 ordering): ~5.5 µs at 16
        // blocks and ~6.6 µs at 160 vs ~2.2 µs unaggregated at 160.
        let agg16 = agg.kernel_overhead(16).as_micros_f64();
        let agg160 = agg.kernel_overhead(160).as_micros_f64();
        let noagg160 = noagg.kernel_overhead(160).as_micros_f64();
        assert!((5.0..6.0).contains(&agg16), "agg16 = {agg16}");
        assert!((6.0..7.2).contains(&agg160), "agg160 = {agg160}");
        assert!((1.8..2.6).contains(&noagg160), "noagg160 = {noagg160}");
        assert!(agg16 < agg160);
        assert!(noagg160 < agg16);
    }

    #[test]
    fn empty_kernel_shape() {
        let k = KernelDesc::empty("noop", 160);
        assert_eq!(k.grid_blocks, 160);
        assert!(k.instrumentation.is_none());
        let k = k.instrumented(InstrumentationSpec::default());
        assert_eq!(k.instrumentation.unwrap().aggregation, 16);
    }
}
