//! Property-based tests for the waitlist, occupancy tracker, and schedulers.

use proptest::prelude::*;

use paella_channels::Notification;
use paella_core::{
    ClientId, FifoScheduler, JobId, JobInfo, OccupancyTracker, RrScheduler, Scheduler,
    ServingSystem, SjfScheduler, SrptDeficitScheduler, VStream, Waitlist,
};
use paella_gpu::{BlockFootprint, SmLimits};
use paella_sim::{SimDuration, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// For any set of single-stream jobs, the waitlist activates ops in
    /// strict issue order, one at a time.
    #[test]
    fn waitlist_single_stream_strict_order(n in 1usize..50) {
        let mut w = Waitlist::new();
        let s = VStream(1);
        for t in 0..n as u64 {
            let active = w.push(s, t).unwrap();
            prop_assert_eq!(active, t == 0, "only the first op starts active");
        }
        for t in 0..n as u64 {
            prop_assert_eq!(w.active(), vec![t]);
            let newly = w.complete(s, t);
            if t + 1 < n as u64 {
                prop_assert_eq!(newly, vec![t + 1]);
            } else {
                prop_assert!(newly.is_empty());
            }
        }
        prop_assert!(w.is_empty());
    }

    /// Across many blocking streams, at most one op per stream is active,
    /// and every op eventually activates exactly once.
    #[test]
    fn waitlist_multi_stream_liveness(
        ops in proptest::collection::vec(0u32..6, 1..80),
    ) {
        let mut w = Waitlist::new();
        let mut pushed: Vec<(VStream, u64)> = Vec::new();
        for (i, &s) in ops.iter().enumerate() {
            // Avoid stream 0 (default-stream serialization is tested
            // separately); streams 1..=6.
            let vs = VStream(s + 1);
            w.push(vs, i as u64).unwrap();
            pushed.push((vs, i as u64));
        }
        // At most one active per stream.
        let active = w.active();
        let mut streams_seen = std::collections::HashSet::new();
        for &t in &active {
            let (vs, _) = pushed[t as usize];
            prop_assert!(streams_seen.insert(vs), "two active ops on one stream");
        }
        // Drain: repeatedly complete the first active op.
        let mut completed = 0;
        while !w.is_empty() {
            let t = w.active()[0];
            let (vs, _) = pushed[t as usize];
            w.complete(vs, t);
            completed += 1;
            prop_assert!(completed <= ops.len(), "livelock");
        }
        prop_assert_eq!(completed, ops.len());
    }

    /// The occupancy tracker conserves blocks for arbitrary interleavings of
    /// kernels and per-SM placements.
    #[test]
    fn occupancy_conservation(
        kernels in proptest::collection::vec((1u32..64, 1u32..=8), 1..20),
    ) {
        let mut t = OccupancyTracker::new(40, SmLimits::TURING);
        let fp = BlockFootprint { threads: 128, regs_per_thread: 9, shmem: 0 };
        let mut total = 0u64;
        for (i, &(blocks, _)) in kernels.iter().enumerate() {
            t.on_launch(i as u32, fp, blocks);
            total += u64::from(blocks);
        }
        prop_assert_eq!(t.unplaced_blocks(), total);
        // Place and complete everything, 8 blocks per SM round-robin.
        for (i, &(blocks, per)) in kernels.iter().enumerate() {
            let mut left = blocks;
            let mut sm = (i % 40) as u8;
            while left > 0 {
                let g = left.min(per.min(8)) as u16;
                t.on_notification(Notification::placement(sm, i as u32, g));
                t.on_notification(Notification::completion(sm, i as u32, g));
                left -= u32::from(g);
                sm = (sm + 1) % 40;
            }
            prop_assert!(t.fully_placed(i as u32));
        }
        prop_assert_eq!(t.unplaced_blocks(), 0);
        prop_assert_eq!(t.resident_blocks(), 0);
        prop_assert_eq!(t.tracked_kernels(), 0);
    }

    /// Every scheduler only ever picks jobs that are currently ready, and
    /// picks none when all are blocked.
    #[test]
    fn schedulers_pick_only_ready(
        jobs in proptest::collection::vec((0u32..4, 1u64..10_000), 1..40),
        block_mask in proptest::collection::vec(any::<bool>(), 1..40),
    ) {
        let make: Vec<Box<dyn Scheduler>> = vec![
            Box::new(FifoScheduler::new()),
            Box::new(SjfScheduler::new()),
            Box::new(RrScheduler::new()),
            Box::new(SrptDeficitScheduler::new(Some(10.0))),
            Box::new(SrptDeficitScheduler::srpt_only()),
        ];
        for mut s in make {
            let mut ready = std::collections::HashSet::new();
            for (i, &(client, est)) in jobs.iter().enumerate() {
                s.job_ready(JobInfo {
                    job: JobId(i as u64),
                    client: ClientId(client),
                    arrival: SimTime::from_micros(i as u64),
                    total_estimate: SimDuration::from_micros(est),
                    remaining_estimate: SimDuration::from_micros(est),
                });
                ready.insert(JobId(i as u64));
            }
            for (i, &blocked) in block_mask.iter().enumerate() {
                if blocked && i < jobs.len() {
                    s.job_blocked(JobId(i as u64));
                    ready.remove(&JobId(i as u64));
                }
            }
            prop_assert_eq!(s.ready_len(), ready.len(), "{}", s.name());
            for _ in 0..5 {
                match s.pick_next() {
                    Some(j) => {
                        prop_assert!(ready.contains(&j), "{} picked blocked job", s.name());
                        s.on_dispatched(j);
                    }
                    None => prop_assert!(ready.is_empty(), "{} starved ready jobs", s.name()),
                }
            }
        }
    }

    /// The incrementally maintained `LoadSignal` remaining-work aggregate
    /// stays equal to the from-scratch O(jobs) recomputation across random
    /// ingest / kernel-completion / job-retire interleavings — including
    /// online profile refinements that reprice still-owed kernels — up to
    /// float summation-order rounding.
    #[test]
    fn incremental_load_signal_matches_scratch(
        seed in any::<u64>(),
        // (model choice, client, gap µs) per submitted request.
        reqs in proptest::collection::vec((0usize..3, 0u32..4, 0u64..400), 1..40),
        // Event-steps to advance between submission bursts.
        bursts in proptest::collection::vec(1usize..30, 1..6),
    ) {
        let mut d = paella_core::Dispatcher::new(
            paella_gpu::DeviceConfig::tesla_t4(),
            paella_channels::ChannelConfig::default(),
            Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
            paella_core::DispatcherConfig::paella(),
            seed,
        );
        let models = [
            d.register_model(&paella_models::synthetic::fig2_job()),
            d.register_model(&paella_models::synthetic::tiny_model(
                SimDuration::from_micros(120),
            )),
            d.register_model(&paella_models::synthetic::uniform_job(
                "u", 5, SimDuration::from_micros(80), 8,
            )),
        ];
        let check = |d: &paella_core::Dispatcher| {
            let inc = d.inflight_work_incremental_us();
            let scratch = d.inflight_work_scratch_us();
            // The scratch oracle quantizes each job's remaining time to whole
            // nanoseconds (SimDuration), so allow 1 ns per in-flight job on
            // top of float summation-order rounding.
            let tol = 1e-6 * scratch.abs().max(1.0) + 1e-3 * (d.inflight() as f64 + 1.0);
            (inc, scratch, (inc - scratch).abs() <= tol)
        };
        let mut at = SimTime::ZERO;
        let mut pending = reqs.as_slice();
        for &steps in &bursts {
            let take = pending.len().div_ceil(bursts.len()).max(1).min(pending.len());
            let (now, rest) = pending.split_at(take);
            pending = rest;
            for &(m, client, gap) in now {
                at = at.saturating_add(SimDuration::from_micros(gap));
                d.submit(paella_core::InferenceRequest {
                    client: ClientId(client),
                    model: models[m % models.len()],
                    submitted_at: at,
                });
            }
            // Advance event-by-event, checking the invariant at every step —
            // this interleaves ingests, kernel completions, refinements, and
            // retires in whatever order the sim produces.
            for _ in 0..steps {
                let Some(t) = d.next_event_time() else { break };
                d.advance_until(t);
                let (inc, scratch, ok) = check(&d);
                prop_assert!(ok, "mid-run divergence: inc={inc} scratch={scratch}");
            }
        }
        d.run_to_idle();
        let (inc, scratch, ok) = check(&d);
        prop_assert!(ok, "post-run divergence: inc={inc} scratch={scratch}");
        // Fully idle ⇒ the aggregate snaps to exactly zero (no drift).
        prop_assert_eq!(d.inflight(), 0);
        prop_assert_eq!(d.inflight_work_incremental_us(), 0.0);
    }

    /// The scratch remaining-work oracle is bit-identical across dispatcher
    /// instances fed the same work. Each `HashMap` instance draws its own
    /// hash seed, so before the R6 fix the oracle summed jobs in
    /// per-instance order and two identical dispatchers could disagree in
    /// the low float bits; the sorted-key walk makes the sum order (and so
    /// the bits) a pure function of the workload.
    #[test]
    fn scratch_work_oracle_is_instance_order_invariant(
        seed in any::<u64>(),
        reqs in proptest::collection::vec((0u32..4, 0u64..300), 2..30),
        steps in 1usize..40,
    ) {
        let run = || {
            let mut d = paella_core::Dispatcher::new(
                paella_gpu::DeviceConfig::tesla_t4(),
                paella_channels::ChannelConfig::default(),
                Box::new(SrptDeficitScheduler::new(Some(2_000.0))),
                paella_core::DispatcherConfig::paella(),
                seed,
            );
            let model = d.register_model(&paella_models::synthetic::fig2_job());
            let mut at = SimTime::ZERO;
            for &(client, gap) in &reqs {
                at = at.saturating_add(SimDuration::from_micros(gap));
                d.submit(paella_core::InferenceRequest {
                    client: ClientId(client),
                    model,
                    submitted_at: at,
                });
            }
            for _ in 0..steps {
                let Some(t) = d.next_event_time() else { break };
                d.advance_until(t);
            }
            d.inflight_work_scratch_us()
        };
        let (a, b) = (run(), run());
        prop_assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "scratch oracle diverged across instances: {} vs {}",
            a,
            b
        );
    }

    /// SRPT picks the minimum-remaining ready job when fairness is off.
    #[test]
    fn srpt_picks_minimum(
        jobs in proptest::collection::vec(1u64..100_000, 1..50),
    ) {
        let mut s = SrptDeficitScheduler::srpt_only();
        for (i, &rem) in jobs.iter().enumerate() {
            s.job_ready(JobInfo {
                job: JobId(i as u64),
                client: ClientId(0),
                arrival: SimTime::ZERO,
                total_estimate: SimDuration::from_micros(rem),
                remaining_estimate: SimDuration::from_micros(rem),
            });
        }
        let picked = s.pick_next().unwrap();
        let min = jobs.iter().copied().min().unwrap();
        prop_assert_eq!(jobs[picked.0 as usize], min);
    }
}
