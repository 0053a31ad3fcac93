//! Property-based tests for the GPU engine: conservation and limit
//! invariants under arbitrary workloads.

use proptest::prelude::*;

use paella_channels::{NotifKind, Notification};
use paella_gpu::{
    BlockFootprint, DeviceConfig, DurationModel, GpuOutput, GpuRunOutput, GpuRuns, GpuSim,
    InstrumentationSpec, KernelDesc, KernelLaunch, Microarch, SmLimits, SmPool, SmUsage, StreamId,
};
use paella_sim::{SimDuration, SimTime};

/// An arbitrary (but valid for Turing limits) kernel description.
fn arb_kernel() -> impl Strategy<Value = KernelDesc> {
    (
        1u32..200,        // grid blocks
        1u32..=1024,      // threads per block
        0u32..=48,        // regs per thread (48 × 1024 < 64 K)
        0u32..=48 * 1024, // shmem per block
        1u64..2_000,      // duration µs
        any::<bool>(),    // instrumented
    )
        .prop_map(|(blocks, threads, regs, shmem, dur, instr)| KernelDesc {
            name: "prop".to_string().into(),
            grid_blocks: blocks,
            footprint: BlockFootprint {
                threads,
                regs_per_thread: regs,
                shmem,
            },
            duration: DurationModel::jittered(SimDuration::from_micros(dur), 0.1),
            instrumentation: instr.then(InstrumentationSpec::default),
        })
}

/// Table 1 written out: the block-slot remainder and the three quotients,
/// a zero divisor meaning "this resource does not bind".
fn four_quotients(u: &SmUsage, fp: &BlockFootprint, l: &SmLimits) -> u32 {
    let q = |free: u32, each: u32| free.checked_div(each).unwrap_or(u32::MAX);
    (l.max_blocks - u.blocks)
        .min(q(l.max_threads - u.threads, fp.threads))
        .min(q(l.max_registers - u.registers, fp.registers()))
        .min(q(l.max_shmem - u.shmem, fp.shmem))
}

/// Footprints for the pool property, including the degenerate divisors:
/// `threads == 1`, `regs_per_thread == 0`, `shmem == 0`.
fn arb_footprint() -> impl Strategy<Value = BlockFootprint> {
    (0u32..6, 1u32..=1024, 0u32..=64, 0u32..=48 * 1024).prop_map(|(shape, t, r, s)| {
        let (threads, regs_per_thread, shmem) = match shape {
            0 => (1, 0, 0),
            1 => (t, 0, s),
            2 => (t, r, 0),
            _ => (t, r, s),
        };
        BlockFootprint {
            threads,
            regs_per_thread,
            shmem,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of an arbitrary allocate/release sequence the pool's
    /// gauges equal the sums over its SMs, `fit` is the four-quotient
    /// formula, `fit_up_to` is its clamp, and a `room_for` refusal is never
    /// contradicted by the per-SM truth.
    #[test]
    fn sm_pool_gauges_and_fit_match_the_formula(
        steps in proptest::collection::vec(
            (any::<bool>(), 0usize..6, arb_footprint(), 1u32..=20, 0usize..64),
            1..120,
        ),
        probes in proptest::collection::vec(arb_footprint(), 1..4),
        pascal in any::<bool>(),
    ) {
        let lim = if pascal { SmLimits::PASCAL } else { SmLimits::TURING };
        let mut pool = SmPool::new(5, lim);
        let mut live: Vec<(usize, BlockFootprint, u32)> = Vec::new();
        for (allocate, sm, fp, want, pick) in steps {
            if allocate || live.is_empty() {
                // SM 5 does not exist: nothing fits there.
                let n = pool.fit_up_to(sm, &fp, want);
                prop_assert_eq!(n, want.min(pool.fit(sm, &fp)));
                prop_assert!(sm < 5 || n == 0);
                if n > 0 {
                    pool.allocate(sm, &fp, n);
                    live.push((sm, fp, n));
                }
            } else {
                let (sm, fp, n) = live.swap_remove(pick % live.len());
                pool.release(sm, &fp, n);
            }

            let sms: Vec<SmUsage> = (0..5).map(|sm| *pool.usage(sm).unwrap()).collect();
            let sum = |limit: u32, used: fn(&SmUsage) -> u32| -> u64 {
                sms.iter().map(|u| u64::from(limit - used(u))).sum()
            };
            prop_assert_eq!(
                pool.free(),
                [
                    sum(lim.max_blocks, |u| u.blocks),
                    sum(lim.max_threads, |u| u.threads),
                    sum(lim.max_registers, |u| u.registers),
                    sum(lim.max_shmem, |u| u.shmem),
                ]
            );
            for fp in probes.iter().chain([&fp]) {
                let mut total = 0u64;
                for (sm, u) in sms.iter().enumerate() {
                    let want = four_quotients(u, fp, &lim);
                    prop_assert_eq!(pool.fit(sm, fp), want);
                    prop_assert_eq!(u.fit_count(fp, &lim), want);
                    total += u64::from(want);
                }
                prop_assert_eq!(pool.fit_total(fp), total);
                for n in [1, total, total + 1, 4 * total + 7] {
                    prop_assert!(pool.room_for(fp, n) || total < n, "room_for refused {n} of {total}");
                }
                prop_assert!(pool.room_for(fp, total), "what fits per SM fits in aggregate");
            }
        }
    }

    /// Every launched kernel completes exactly once, the device drains to
    /// idle, and blocks are conserved, for arbitrary kernels, streams, and
    /// submission times.
    #[test]
    fn conservation_under_arbitrary_load(
        kernels in proptest::collection::vec((arb_kernel(), 0u32..40, 0u64..10_000), 1..60),
        seed in any::<u64>(),
        fermi in any::<bool>(),
    ) {
        let cfg = if fermi {
            DeviceConfig::tiny(8, 1, Microarch::Fermi)
        } else {
            DeviceConfig::tesla_t4()
        };
        let mut gpu = GpuSim::new(cfg, seed);
        let mut launches: Vec<(u32, u64)> = kernels
            .iter()
            .enumerate()
            .map(|(i, (_, _, at))| (i as u32 + 1, *at))
            .collect();
        launches.sort_by_key(|&(_, at)| at);
        let mut by_uid: std::collections::HashMap<u32, (KernelDesc, u32)> = kernels
            .iter()
            .enumerate()
            .map(|(i, (k, s, _))| (i as u32 + 1, (k.clone(), *s)))
            .collect();
        for (uid, at) in launches {
            let (desc, stream) = by_uid.remove(&uid).unwrap();
            gpu.launch_kernel(
                SimTime::from_micros(at),
                KernelLaunch { uid, stream: StreamId(stream + 1), desc },
            );
        }
        let mut out = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut out);
        }
        prop_assert!(gpu.is_idle(), "device must drain");
        prop_assert_eq!(gpu.resident_blocks(), 0);

        // Exactly one completion per kernel.
        let mut completed: Vec<u32> = out
            .iter()
            .filter_map(|o| match o {
                GpuOutput::KernelCompleted { uid, .. } => Some(*uid),
                _ => None,
            })
            .collect();
        completed.sort_unstable();
        let mut expected: Vec<u32> = (1..=kernels.len() as u32).collect();
        expected.sort_unstable();
        prop_assert_eq!(completed, expected);

        // Instrumented kernels: placement and completion notifications each
        // cover every block exactly once.
        for (i, (k, _, _)) in kernels.iter().enumerate() {
            if k.instrumentation.is_none() {
                continue;
            }
            let uid = i as u32 + 1;
            let placed: u32 = out
                .iter()
                .filter_map(|o| match o {
                    GpuOutput::Notif { n, .. }
                        if n.kernel == uid && n.kind == NotifKind::Placement =>
                    {
                        Some(u32::from(n.group))
                    }
                    _ => None,
                })
                .sum();
            let finished: u32 = out
                .iter()
                .filter_map(|o| match o {
                    GpuOutput::Notif { n, .. }
                        if n.kernel == uid && n.kind == NotifKind::Completion =>
                    {
                        Some(u32::from(n.group))
                    }
                    _ => None,
                })
                .sum();
            prop_assert_eq!(placed, k.grid_blocks, "placement coverage for {}", uid);
            prop_assert_eq!(finished, k.grid_blocks, "completion coverage for {}", uid);
        }
    }

    /// Same-stream kernels complete in issue order (stream semantics), for
    /// arbitrary kernels.
    #[test]
    fn stream_order_preserved(
        kernels in proptest::collection::vec(arb_kernel(), 2..20),
        seed in any::<u64>(),
    ) {
        let mut gpu = GpuSim::new(DeviceConfig::tesla_t4(), seed);
        for (i, k) in kernels.iter().enumerate() {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch { uid: i as u32 + 1, stream: StreamId(1), desc: k.clone() },
            );
        }
        let mut out = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut out);
        }
        let completions: Vec<u32> = out
            .iter()
            .filter_map(|o| match o {
                GpuOutput::KernelCompleted { uid, .. } => Some(*uid),
                _ => None,
            })
            .collect();
        let mut sorted = completions.clone();
        sorted.sort_unstable();
        prop_assert_eq!(completions, sorted, "same-stream kernels complete in order");
    }

    /// SM usage never exceeds the configured limits at any observable point.
    #[test]
    fn sm_limits_never_exceeded(
        kernels in proptest::collection::vec(arb_kernel(), 1..20),
        seed in any::<u64>(),
    ) {
        let cfg = DeviceConfig::tesla_t4();
        let lim = cfg.sm_limits;
        let num_sms = cfg.num_sms;
        let mut gpu = GpuSim::new(cfg, seed);
        for (i, k) in kernels.iter().enumerate() {
            gpu.launch_kernel(
                SimTime::ZERO,
                KernelLaunch { uid: i as u32 + 1, stream: StreamId(i as u32 + 1), desc: k.clone() },
            );
        }
        let mut out = Vec::new();
        while let Some(t) = gpu.next_time() {
            gpu.advance_until(t, &mut out);
            for sm in 0..num_sms {
                let u = gpu.sm_usage(sm);
                prop_assert!(u.blocks <= lim.max_blocks);
                prop_assert!(u.threads <= lim.max_threads);
                prop_assert!(u.registers <= lim.max_registers);
                prop_assert!(u.shmem <= lim.max_shmem);
            }
        }
    }
    /// The word view is exactly the expansion of the run view: twin devices,
    /// one pumped word-level event by event, one run-level in coarse steps,
    /// emit the same stream, with and without lost words. A run is never
    /// empty; with aggregation its words name distinct SMs (one word per
    /// per-SM group), without it every word is one block.
    #[test]
    fn word_view_is_the_expansion_of_the_run_view(
        kernels in proptest::collection::vec((arb_kernel(), 0u32..12, 0u64..2_000), 1..24),
        aggregate in any::<bool>(),
        lossy in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = DeviceConfig {
            notif_drop_rate: if lossy { 0.03 } else { 0.0 },
            ..DeviceConfig::tesla_t4()
        };
        let spec = if aggregate {
            InstrumentationSpec::default()
        } else {
            InstrumentationSpec::without_aggregation()
        };
        let mut twins = [GpuSim::new(cfg.clone(), seed), GpuSim::new(cfg, seed)];
        for (i, (k, stream, at)) in kernels.iter().enumerate() {
            for gpu in &mut twins {
                gpu.launch_kernel(
                    SimTime::from_micros(*at),
                    KernelLaunch {
                        uid: i as u32 + 1,
                        stream: StreamId(stream + 1),
                        desc: k.clone().instrumented(spec),
                    },
                );
            }
        }
        let [by_word, by_run] = &mut twins;
        let mut words = Vec::new();
        while let Some(t) = by_word.next_time() {
            by_word.advance_until(t, &mut words);
        }
        // The test's own expansion, a buffer-full at a time (each call
        // replaces what the buffer held).
        let mut runs = GpuRuns::default();
        let mut expanded = Vec::new();
        let mut covered = vec![[0u32; 2]; kernels.len()];
        while let Some(t) = by_run.next_time() {
            by_run.advance_until_runs(t + SimDuration::from_micros(500), &mut runs);
            for (out, pairs) in runs.iter() {
                let (kernel, kind, at) = match out {
                    GpuRunOutput::KernelCompleted(uid, at) => {
                        expanded.push(GpuOutput::KernelCompleted { uid, at });
                        prop_assert!(pairs.is_empty());
                        continue;
                    }
                    GpuRunOutput::MemcpyCompleted(uid, at) => {
                        expanded.push(GpuOutput::MemcpyCompleted { uid, at });
                        continue;
                    }
                    GpuRunOutput::Notifs { kernel, kind, at, len } => {
                        prop_assert!(len >= 1 && len as usize == pairs.len());
                        (kernel, kind, at)
                    }
                };
                for &(sm_id, group) in pairs {
                    let n = Notification { kind, sm_id, group, kernel };
                    expanded.push(GpuOutput::Notif { n, at });
                }
                if aggregate {
                    let mut sms: Vec<u8> = pairs.iter().map(|&(sm, _)| sm).collect();
                    sms.sort_unstable();
                    sms.dedup();
                    prop_assert_eq!(sms.len(), pairs.len(), "one word per SM group");
                } else {
                    prop_assert!(pairs.iter().all(|&(_, g)| g == 1));
                }
                let blocks: u32 = pairs.iter().map(|&(_, g)| u32::from(g)).sum();
                covered[kernel as usize - 1][usize::from(kind == NotifKind::Completion)] += blocks;
            }
        }
        prop_assert_eq!(&expanded, &words);
        for (k, seen) in kernels.iter().zip(&covered) {
            for &blocks in seen {
                prop_assert!(blocks <= k.0.grid_blocks);
                prop_assert!(lossy || blocks == k.0.grid_blocks, "every block reported once");
            }
        }
    }
}
