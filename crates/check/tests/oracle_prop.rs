//! Lockstep property tests: the production bookkeeping structures versus
//! the brute-force oracles in `paella_check::oracle`.
//!
//! Each test generates a random but *valid* event script, feeds it to both
//! implementations, and requires bit-identical answers at every step. A
//! divergence is a bug in one of the two — and since the oracle is the
//! naive transcription of the CUDA/Table-1 rules, almost always in the
//! incremental one.

use proptest::prelude::*;

use paella_channels::{NotifKind, Notification};
use paella_check::{ConservationOracle, StreamOracle};
use paella_core::{OccupancyTracker, StreamKind, VStream, Waitlist};
use paella_gpu::{BlockFootprint, SmLimits};

/// Cheap deterministic stream of choices derived from one generated seed.
fn nx(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Stream id → kind, fixed across tests: 0 is the default stream, 4 is
/// non-blocking, everything else blocking (CUDA's default).
fn kind_of(stream: u32) -> StreamKind {
    match stream {
        0 => StreamKind::Default,
        4 => StreamKind::NonBlocking,
        _ => StreamKind::Blocking,
    }
}

fn small_fp() -> BlockFootprint {
    BlockFootprint {
        threads: 128,
        regs_per_thread: 9,
        shmem: 0,
    }
}

fn big_fp() -> BlockFootprint {
    BlockFootprint {
        threads: 256,
        regs_per_thread: 32,
        shmem: 16 * 1024,
    }
}

/// Footprints binding on threads, on everything at once, on block slots
/// only, and on registers and shared memory.
fn footprints() -> [BlockFootprint; 4] {
    [
        small_fp(),
        big_fp(),
        BlockFootprint {
            threads: 1,
            regs_per_thread: 0,
            shmem: 0,
        },
        BlockFootprint {
            threads: 96,
            regs_per_thread: 64,
            shmem: 40 * 1024,
        },
    ]
}

/// What has been *seen* of a live kernel — the inputs of the tracker's
/// clamps, kept by the tests that tell the oracle what a word is worth.
struct Seen {
    uid: u32,
    fp: BlockFootprint,
    total: u32,
    placed: u32,
    completed: u32,
    per_sm: [u32; 4],
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random backward-dep op sequences: push activity, the active set, the
    /// newly-activated set of every completion, and the drain order all
    /// match between `Waitlist` and the brute-force `StreamOracle`.
    #[test]
    fn waitlist_matches_stream_oracle(
        ops in proptest::collection::vec((0u32..5, any::<bool>(), any::<u64>()), 1..40),
        drive in any::<u64>(),
    ) {
        let mut w = Waitlist::new();
        let mut o = StreamOracle::new();
        let mut stream_of = Vec::new();
        for (i, &(stream, has_dep, dep_pick)) in ops.iter().enumerate() {
            let kind = kind_of(stream);
            w.declare_stream(VStream(stream), kind);
            let token = i as u64;
            // Backward deps only (on an earlier token): never a cycle.
            let deps: Vec<u64> = if has_dep && i > 0 {
                vec![dep_pick % i as u64]
            } else {
                Vec::new()
            };
            let got = w.push_with_deps(VStream(stream), token, &deps);
            let want = o.push(stream, kind, token, &deps);
            prop_assert_eq!(got.is_ok(), want.is_ok(), "push({token}) result kind");
            prop_assert_eq!(
                got.expect("backward deps cannot cycle"),
                want.expect("backward deps cannot cycle"),
                "push({token}) activity"
            );
            prop_assert_eq!(w.active(), o.active(), "active() after push({token})");
            stream_of.push(stream);
        }
        // Drain by completing a pseudo-randomly chosen active op each step.
        let mut seed = drive;
        let mut steps = 0usize;
        while !w.is_empty() {
            let active = w.active();
            prop_assert!(!active.is_empty(), "livelock: tracked ops but none active");
            let t = active[(nx(&mut seed) as usize) % active.len()];
            let s = VStream(stream_of[t as usize]);
            prop_assert_eq!(w.complete(s, t), o.complete(t), "newly active after {t}");
            prop_assert_eq!(w.active(), o.active(), "active() after complete({t})");
            steps += 1;
            prop_assert!(steps <= ops.len(), "drained more ops than pushed");
        }
        prop_assert!(o.is_empty());
    }

    /// With forward dependencies in the mix, wait cycles become possible;
    /// both implementations must reject exactly the same pushes and agree
    /// on all state in between.
    #[test]
    fn waitlist_cycle_rejection_matches_oracle(
        ops in proptest::collection::vec((0u32..4, 0u32..3, any::<u64>()), 2..30),
        drive in any::<u64>(),
    ) {
        let mut w = Waitlist::new();
        let mut o = StreamOracle::new();
        let mut stream_of = std::collections::HashMap::new();
        let mut rejected = 0usize;
        for (i, &(stream, dep_mode, dep_pick)) in ops.iter().enumerate() {
            let kind = kind_of(stream);
            w.declare_stream(VStream(stream), kind);
            let token = i as u64;
            let deps: Vec<u64> = match dep_mode {
                // Forward dep on a token up to 3 ahead (may never arrive).
                0 => vec![token + 1 + dep_pick % 3],
                1 if i > 0 => vec![dep_pick % i as u64],
                _ => Vec::new(),
            };
            let got = w.push_with_deps(VStream(stream), token, &deps);
            let want = o.push(stream, kind, token, &deps);
            prop_assert_eq!(
                got.is_err(), want.is_err(),
                "cycle verdict for push({token}) deps {deps:?}: waitlist {got:?}, oracle {want:?}"
            );
            if let (Ok(a), Ok(b)) = (got, want) {
                prop_assert_eq!(a, b, "push({token}) activity");
                stream_of.insert(token, stream);
            } else {
                rejected += 1;
            }
            prop_assert_eq!(w.active(), o.active(), "active() after push({token})");
        }
        // Drain whatever can still run; ops stuck on never-pushed forward
        // deps legitimately remain, but both sides must agree they do.
        let mut seed = drive;
        loop {
            let active = w.active();
            prop_assert_eq!(&active, &o.active());
            if active.is_empty() {
                break;
            }
            let t = active[(nx(&mut seed) as usize) % active.len()];
            let s = VStream(stream_of[&t]);
            prop_assert_eq!(w.complete(s, t), o.complete(t), "newly active after {t}");
        }
        prop_assert_eq!(w.len(), o.len(), "stuck op count ({rejected} pushes rejected)");
    }

    /// Valid placement/completion scripts: the occupancy tracker's mirror
    /// equals the conservation oracle's ground truth after every event.
    #[test]
    fn occupancy_matches_conservation_oracle(
        kernels in proptest::collection::vec((1u32..=24, any::<bool>()), 1..8),
        script in proptest::collection::vec(any::<u64>(), 10..80),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut o = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
        // Test-local ground truth used only to *generate* valid events.
        struct K { fp: BlockFootprint, total: u32, placed: u32, per_sm: [u32; NUM_SMS as usize] }
        let mut ks: Vec<K> = Vec::new();
        for (uid, &(blocks, big)) in kernels.iter().enumerate() {
            let fp = if big { big_fp() } else { small_fp() };
            t.on_launch(uid as u32, fp, blocks);
            o.on_launch(uid as u32, fp, blocks);
            ks.push(K { fp, total: blocks, placed: 0, per_sm: [0; NUM_SMS as usize] });
            prop_assert!(o.verify(&t).is_ok(), "after launch {uid}: {:?}", o.verify(&t));
        }
        for &word in &script {
            let mut seed = word;
            let place = nx(&mut seed).is_multiple_of(2);
            let mut acted = false;
            if place {
                // Place up to 4 blocks of some kernel on the first SM (from
                // a random start) with room.
                let ki = (nx(&mut seed) as usize) % ks.len();
                let uid = ki as u32;
                let remaining = ks[ki].total - ks[ki].placed;
                if remaining > 0 {
                    let start = nx(&mut seed) % u64::from(NUM_SMS);
                    for off in 0..NUM_SMS {
                        let sm = ((start + u64::from(off)) % u64::from(NUM_SMS)) as u8;
                        let fit = o.sm_usage(sm).fit_count(&ks[ki].fp, &SmLimits::TURING);
                        let g = remaining.min(fit).min(1 + (nx(&mut seed) % 4) as u32);
                        if g > 0 {
                            t.on_notification(Notification::placement(sm, uid, g as u16));
                            o.on_placement(sm, uid, g as u16);
                            ks[ki].placed += g;
                            ks[ki].per_sm[sm as usize] += g;
                            acted = true;
                            break;
                        }
                    }
                }
            }
            if !acted {
                // Complete some resident group instead.
                let ki = (nx(&mut seed) as usize) % ks.len();
                let uid = ki as u32;
                for off in 0..NUM_SMS {
                    let sm = ((nx(&mut seed) + u64::from(off)) % u64::from(NUM_SMS)) as u8;
                    let on_sm = ks[ki].per_sm[sm as usize];
                    if on_sm > 0 {
                        let g = 1 + (nx(&mut seed) % u64::from(on_sm)) as u32;
                        t.on_notification(Notification::completion(sm, uid, g as u16));
                        o.on_completion(sm, uid, g as u16);
                        ks[ki].per_sm[sm as usize] -= g;
                        // A fully-completed kernel is dropped by both sides;
                        // re-launching the uid is out of scope, so just let
                        // its ground truth go stale at zero.
                        break;
                    }
                }
            }
            let check = o.verify(&t);
            prop_assert!(check.is_ok(), "mirror diverged: {}", check.unwrap_err());
        }
        // Host-side reconciliation drains everything that remains.
        for uid in 0..ks.len() as u32 {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        prop_assert_eq!(t.unplaced_blocks(), 0);
        prop_assert_eq!(t.resident_blocks(), 0);
        prop_assert_eq!(t.tracked_kernels(), 0);
    }

    /// Adversarial notifications — wrong uids, absurd group counts, random
    /// SMs, duplicated completions — must never push the tracker past the
    /// Table-1 safety bounds, thanks to its clamping.
    #[test]
    fn occupancy_stays_safe_under_garbage(
        events in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u32..8, 0u16..512, 0u32..20),
            1..120,
        ),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut next_uid = 100u32; // launches use a disjoint uid space
        for (i, &(is_completion, sm, uid, group, launch_blocks)) in events.iter().enumerate() {
            match i % 5 {
                // Periodically launch a real kernel so clamps have targets.
                0 if launch_blocks > 0 => {
                    t.on_launch(next_uid, small_fp(), launch_blocks);
                    next_uid += 1;
                }
                // And periodically reconcile one away.
                4 => t.on_kernel_completed(100 + u32::from(group % 8)),
                _ => {
                    // Garbage word: uid may be unknown, recently launched,
                    // or already gone; the group count is unconstrained.
                    let target = if uid < 4 { 100 + uid } else { uid };
                    let n = if is_completion {
                        Notification::completion(sm, target, group)
                    } else {
                        Notification::placement(sm, target, group)
                    };
                    t.on_notification(n);
                }
            }
            let safe = ConservationOracle::check_safety(&t, NUM_SMS, &SmLimits::TURING);
            prop_assert!(safe.is_ok(), "event {i} broke safety: {}", safe.unwrap_err());
        }
    }

    /// The §6 dispatch predicate against ground truth. Words arrive in any
    /// order, for any SM (one past the last included), some twice and some
    /// never; the oracle is told what the tracker's contract says such a
    /// word is worth — its group clamped to the kernel's unplaced (or
    /// resident-on-that-SM) share and to what the SM still fits by the
    /// reference `SmUsage::fit_count`. After every event the mirror equals
    /// the oracle and `should_dispatch(fp, b)` is exactly
    /// `unplaced < b || Σ_sm fit > unplaced` over the oracle's SMs.
    #[test]
    fn should_dispatch_matches_oracle_predicate(
        events in proptest::collection::vec(
            (0u32..8, 0u8..=4, any::<u64>(), 1u16..=12, any::<bool>(), 0u32..4),
            1..160,
        ),
    ) {
        const NUM_SMS: u32 = 4;
        let lim = SmLimits::TURING;
        let fps = footprints();
        let mut t = OccupancyTracker::new(NUM_SMS, lim);
        let mut o = ConservationOracle::new(NUM_SMS, lim);
        let mut live: Vec<Seen> = Vec::new();
        let mut next_uid = 0u32;
        for &(action, sm, pick, group, twice, shape) in &events {
            let ki = (pick % (live.len() as u64).max(1)) as usize;
            match action {
                // Launch; more often while little is in flight.
                0 | 1 if action == 0 || live.len() < 3 => {
                    let (fp, blocks) = (fps[shape as usize], 1 + (pick % 24) as u32);
                    t.on_launch(next_uid, fp, blocks);
                    o.on_launch(next_uid, fp, blocks);
                    live.push(Seen { uid: next_uid, fp, total: blocks, placed: 0, completed: 0, per_sm: [0; 4] });
                    next_uid += 1;
                }
                // Host-side reconciliation of a kernel in any phase.
                2 if !live.is_empty() => {
                    let k = live.swap_remove(ki);
                    t.on_kernel_completed(k.uid);
                    o.on_kernel_completed(k.uid);
                }
                // A placement (3..=5) or completion (6, 7) word.
                _ if !live.is_empty() => {
                    for _ in 0..=u8::from(twice) {
                        let Some(k) = live.get_mut(ki) else { break };
                        let on_device = u32::from(sm) < NUM_SMS;
                        if action <= 5 {
                            t.on_notification(Notification::placement(sm, k.uid, group));
                            let g = if on_device {
                                u32::from(group)
                                    .min(k.total - k.placed)
                                    .min(o.sm_usage(sm).fit_count(&k.fp, &lim))
                            } else {
                                0
                            };
                            if g > 0 {
                                o.on_placement(sm, k.uid, g as u16);
                                k.placed += g;
                                k.per_sm[sm as usize] += g;
                            }
                        } else {
                            t.on_notification(Notification::completion(sm, k.uid, group));
                            let g = if on_device {
                                u32::from(group).min(k.total - k.completed).min(k.per_sm[sm as usize])
                            } else {
                                0
                            };
                            if g > 0 {
                                o.on_completion(sm, k.uid, g as u16);
                                k.completed += g;
                                k.per_sm[sm as usize] -= g;
                                if k.completed == k.total {
                                    live.swap_remove(ki);
                                }
                            }
                        }
                    }
                }
                _ => {}
            }
            let check = o.verify(&t);
            prop_assert!(check.is_ok(), "mirror diverged: {}", check.unwrap_err());
            let unplaced = o.unplaced();
            for fp in &fps {
                let fit: u64 = (0..NUM_SMS as u8)
                    .map(|sm| u64::from(o.sm_usage(sm).fit_count(fp, &lim)))
                    .sum();
                for b in [0, 1, unplaced, unplaced + 1, 24, 10_000] {
                    prop_assert_eq!(
                        t.should_dispatch(fp, b),
                        unplaced < b || fit > unplaced,
                        "should_dispatch({:?}, {}) with unplaced {} and fit {}", fp, b, unplaced, fit
                    );
                }
            }
        }
    }

    /// A run is its words one at a time. Two trackers in lockstep — one fed
    /// `on_run`, one `on_notification` per word — under words that are lost
    /// (runs cover only part of a kernel), duplicated, name an SM the device
    /// does not have or carry over-long groups, for kernels in any phase
    /// (unknown, dropped in the middle of the run when `completed == total`):
    /// after every run the two mirrors are equal field for field (gauges and
    /// recycled vectors included), `on_run` returned the index of the first
    /// word after which `fully_placed` held, and the mirror equals the
    /// oracle, which is told what the tracker's contract says each word is
    /// worth.
    #[test]
    fn on_run_is_its_words_one_at_a_time(
        events in proptest::collection::vec(
            (
                0u32..9,
                any::<u64>(),
                any::<bool>(),
                0u32..4,
                proptest::collection::vec((0u8..=4, 1u16..=16, any::<bool>()), 1..10),
            ),
            1..100,
        ),
    ) {
        const NUM_SMS: u32 = 4;
        let lim = SmLimits::TURING;
        let fps = footprints();
        let mut by_run = OccupancyTracker::new(NUM_SMS, lim);
        let mut by_word = OccupancyTracker::new(NUM_SMS, lim);
        let mut o = ConservationOracle::new(NUM_SMS, lim);
        let mut live: Vec<Seen> = Vec::new();
        let mut next_uid = 0u32;
        for (action, pick, placement, shape, words) in &events {
            let ki = (pick % (live.len() as u64).max(1)) as usize;
            match action {
                0 | 1 if *action == 0 || live.len() < 3 => {
                    let (fp, blocks) = (fps[*shape as usize], 1 + (pick % 20) as u32);
                    by_run.on_launch(next_uid, fp, blocks);
                    by_word.on_launch(next_uid, fp, blocks);
                    o.on_launch(next_uid, fp, blocks);
                    live.push(Seen { uid: next_uid, fp, total: blocks, placed: 0, completed: 0, per_sm: [0; 4] });
                    next_uid += 1;
                }
                2 if !live.is_empty() => {
                    let k = live.swap_remove(ki);
                    by_run.on_kernel_completed(k.uid);
                    by_word.on_kernel_completed(k.uid);
                    o.on_kernel_completed(k.uid);
                }
                _ => {
                    // A kernel nobody launched, or one in flight.
                    let uid = if *action == 3 || live.is_empty() { 1_000 + ki as u32 } else { live[ki].uid };
                    let kind = if *placement { NotifKind::Placement } else { NotifKind::Completion };
                    let run: Vec<(u8, u16)> = words
                        .iter()
                        .flat_map(|&(sm, group, twice)| std::iter::repeat_n((sm, group), 1 + usize::from(twice)))
                        .collect();
                    let mut first_full = None;
                    for (i, &(sm_id, group)) in run.iter().enumerate() {
                        by_word.on_notification(Notification { kind, sm_id, group, kernel: uid });
                        if first_full.is_none() && by_word.fully_placed(uid) {
                            first_full = Some(i);
                        }
                        let Some(at) = live.iter().position(|k| k.uid == uid) else { continue };
                        let k = &mut live[at];
                        if u32::from(sm_id) >= NUM_SMS {
                            continue;
                        }
                        let on_sm = &mut k.per_sm[sm_id as usize];
                        if *placement {
                            let g = u32::from(group)
                                .min(k.total - k.placed)
                                .min(o.sm_usage(sm_id).fit_count(&k.fp, &lim));
                            if g > 0 {
                                o.on_placement(sm_id, uid, g as u16);
                                k.placed += g;
                                *on_sm += g;
                            }
                        } else {
                            let g = u32::from(group).min(k.total - k.completed).min(*on_sm);
                            if g > 0 {
                                o.on_completion(sm_id, uid, g as u16);
                                k.completed += g;
                                *on_sm -= g;
                                if k.completed == k.total {
                                    live.swap_remove(at);
                                }
                            }
                        }
                    }
                    prop_assert_eq!(by_run.on_run(uid, kind, &run), first_full, "fully-placed index");
                }
            }
            prop_assert_eq!(format!("{by_run:?}"), format!("{by_word:?}"));
            let check = o.verify(&by_run);
            prop_assert!(check.is_ok(), "mirror diverged: {}", check.unwrap_err());
            for fp in &fps {
                prop_assert_eq!(by_run.should_dispatch(fp, 1), by_word.should_dispatch(fp, 1));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Cancellation invariant (DESIGN §11): completing a random prefix of a
    /// random stream DAG and then draining the rest leaves no orphaned
    /// dependency state, conserves `len()` exactly — every pushed op is
    /// either completed or drained, never both, never neither — and leaves
    /// the waitlist ready for fresh work on every stream kind.
    #[test]
    fn cancelling_a_random_prefix_leaves_no_orphans(
        ops in proptest::collection::vec((0u32..5, any::<bool>(), any::<u64>()), 1..40),
        drive in any::<u64>(),
    ) {
        let mut w = Waitlist::new();
        let mut stream_of = Vec::new();
        for (i, &(stream, has_dep, dep_pick)) in ops.iter().enumerate() {
            w.declare_stream(VStream(stream), kind_of(stream));
            let deps: Vec<u64> = if has_dep && i > 0 {
                vec![dep_pick % i as u64]
            } else {
                Vec::new()
            };
            w.push_with_deps(VStream(stream), i as u64, &deps)
                .expect("backward deps cannot cycle");
            stream_of.push(stream);
        }
        prop_assert_eq!(w.len(), ops.len());
        // Complete a pseudo-random prefix of the DAG in dependency order —
        // the "mid-flight" part of the cancellation.
        let mut seed = drive;
        let target = (nx(&mut seed) as usize) % (ops.len() + 1);
        let mut completed = std::collections::HashSet::new();
        while completed.len() < target {
            let active = w.active();
            prop_assert!(!active.is_empty(), "livelock before cancellation");
            let t = active[(nx(&mut seed) as usize) % active.len()];
            w.complete(VStream(stream_of[t as usize]), t);
            completed.insert(t);
        }
        // Cancel: everything still tracked drains in one deterministic pass.
        let drained = w.drain();
        prop_assert_eq!(
            completed.len() + drained.len(),
            ops.len(),
            "len conserved: completed + drained must cover every push"
        );
        let drained_tokens: std::collections::HashSet<u64> =
            drained.iter().map(|&(_, t)| t).collect();
        prop_assert_eq!(drained_tokens.len(), drained.len(), "no token drained twice");
        for t in 0..ops.len() as u64 {
            prop_assert!(
                completed.contains(&t) != drained_tokens.contains(&t),
                "op {t} must be exactly one of completed/drained"
            );
        }
        prop_assert!(w.is_empty());
        prop_assert_eq!(w.active(), Vec::<u64>::new());
        // No orphaned ordering state: a fresh op on each stream kind must
        // activate immediately, as on a brand-new waitlist. A leaked
        // default/blocking unreleased set would hold these back.
        for (stream, token) in [(0u32, 10_000u64), (1, 10_001), (4, 10_002)] {
            w.declare_stream(VStream(stream), kind_of(stream));
            let active = w
                .push(VStream(stream), token)
                .expect("no deps, no cycle");
            prop_assert!(active, "post-drain push on stream {stream} must be active");
            w.complete(VStream(stream), token);
        }
        prop_assert!(w.is_empty());
    }

    /// Reclamation invariant (DESIGN §11): reclaiming a random subset of
    /// kernels mid-flight — some blocks placed, some still pending, exactly
    /// what job cancellation does via `on_kernel_completed` — keeps the
    /// occupancy mirror and the conservation oracle's per-SM ground truth in
    /// balance, and reclaiming the rest returns the device to zero.
    #[test]
    fn conservation_holds_after_midflight_reclamation(
        kernels in proptest::collection::vec((1u32..=24, any::<bool>()), 1..8),
        place_script in proptest::collection::vec(any::<u64>(), 4..40),
        reclaim in any::<u64>(),
    ) {
        const NUM_SMS: u32 = 4;
        let mut t = OccupancyTracker::new(NUM_SMS, SmLimits::TURING);
        let mut o = ConservationOracle::new(NUM_SMS, SmLimits::TURING);
        let mut placed_left: Vec<(BlockFootprint, u32)> = Vec::new();
        for (uid, &(blocks, big)) in kernels.iter().enumerate() {
            let fp = if big { big_fp() } else { small_fp() };
            t.on_launch(uid as u32, fp, blocks);
            o.on_launch(uid as u32, fp, blocks);
            placed_left.push((fp, blocks));
        }
        // Place what fits, pseudo-randomly, so reclamation hits kernels in
        // every phase: unplaced, partially placed, fully resident.
        for &word in &place_script {
            let mut seed = word;
            let ki = (nx(&mut seed) as usize) % placed_left.len();
            let (fp, remaining) = placed_left[ki];
            if remaining == 0 {
                continue;
            }
            let sm = (nx(&mut seed) % u64::from(NUM_SMS)) as u8;
            let fit = o.sm_usage(sm).fit_count(&fp, &SmLimits::TURING);
            let g = remaining.min(fit).min(1 + (nx(&mut seed) % 4) as u32);
            if g > 0 {
                t.on_notification(Notification::placement(sm, ki as u32, g as u16));
                o.on_placement(sm, ki as u32, g as u16);
                placed_left[ki].1 -= g;
            }
        }
        prop_assert!(o.verify(&t).is_ok(), "{:?}", o.verify(&t));
        // Mid-flight reclamation of a random subset (the cancellation path).
        let mut seed = reclaim;
        let mut gone = Vec::new();
        for uid in 0..kernels.len() as u32 {
            if nx(&mut seed).is_multiple_of(2) {
                t.on_kernel_completed(uid);
                o.on_kernel_completed(uid);
                gone.push(uid);
                let check = o.verify(&t);
                prop_assert!(check.is_ok(), "after reclaiming {uid}: {}", check.unwrap_err());
            }
        }
        // Reclaiming is idempotent: a late duplicate changes nothing.
        for &uid in &gone {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        // Reclaim the survivors: the device must return to exactly zero.
        for uid in 0..kernels.len() as u32 {
            t.on_kernel_completed(uid);
            o.on_kernel_completed(uid);
        }
        prop_assert!(o.verify(&t).is_ok());
        prop_assert_eq!(t.unplaced_blocks(), 0);
        prop_assert_eq!(t.resident_blocks(), 0);
        prop_assert_eq!(t.tracked_kernels(), 0);
        prop_assert_eq!(o.resident(), 0);
        prop_assert_eq!(o.unplaced(), 0);
    }
}
