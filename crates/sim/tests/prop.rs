//! Property-based tests for the simulation kernel.

use proptest::prelude::*;

use paella_sim::dist::Distribution;
use paella_sim::{EventQueue, IdMap, LogNormal, Percentiles, SimDuration, SimTime, Xoshiro256pp};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Events always pop in non-decreasing time order, regardless of the
    /// schedule order, and ties resolve by insertion order.
    #[test]
    fn event_queue_pops_sorted(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last_time = SimTime::ZERO;
        let mut seen_at_time: Vec<usize> = Vec::new();
        let mut popped = 0;
        while let Some((at, idx)) = q.pop() {
            prop_assert!(at >= last_time, "time must not go backwards");
            if at == last_time {
                if let Some(&prev) = seen_at_time.last() {
                    prop_assert!(idx > prev, "ties must pop in insertion order");
                }
                seen_at_time.push(idx);
            } else {
                seen_at_time.clear();
                seen_at_time.push(idx);
            }
            last_time = at;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Cancelling an arbitrary subset removes exactly those events.
    #[test]
    fn event_queue_cancel_subset(
        times in proptest::collection::vec(0u64..1_000, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.schedule_at(SimTime::from_nanos(t), i))
            .collect();
        let mut expected = times.len();
        for (id, &cancel) in ids.iter().zip(cancel_mask.iter().chain(std::iter::repeat(&false))) {
            if cancel {
                prop_assert!(q.cancel(*id));
                expected -= 1;
            }
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, expected);
    }

    /// Interleaved schedule / cancel / pop agrees with a reference model of
    /// the pending set: `cancel` is `true` exactly for ids still pending
    /// (never for popped, already-cancelled or unminted ones), pops come in
    /// `(time, insertion)` order, and `len` tracks the pending count.
    #[test]
    fn event_queue_matches_reference_under_interleaving(
        ops in proptest::collection::vec((0u8..4, 0u64..500, 0usize..400), 1..400),
    ) {
        let mut q = EventQueue::new();
        let mut pending: std::collections::BTreeMap<(SimTime, usize), usize> = Default::default();
        let mut ids = Vec::new();
        for &(kind, ahead, pick) in &ops {
            match kind {
                0 | 1 => {
                    let at = q.now() + SimDuration::from_nanos(ahead);
                    let seq = ids.len();
                    ids.push((q.schedule_at(at, seq), at));
                    pending.insert((at, seq), seq);
                }
                2 if !ids.is_empty() => {
                    let seq = pick % ids.len();
                    let (id, at) = ids[seq];
                    prop_assert_eq!(q.cancel(id), pending.remove(&(at, seq)).is_some());
                }
                _ => {
                    let want = pending.pop_first().map(|((at, _), seq)| (at, seq));
                    prop_assert_eq!(q.pop(), want);
                }
            }
            prop_assert_eq!(q.len(), pending.len());
        }
        let rest: Vec<(SimTime, usize)> = pending.into_iter().map(|((at, _), s)| (at, s)).collect();
        prop_assert_eq!(q.drain(), rest);
        prop_assert!(ids.iter().all(|&(id, _)| !q.cancel(id)), "nothing is pending after drain");
    }

    /// `IdMap` agrees with a `BTreeMap` under random insert / get / get_mut /
    /// remove / retain, with ids that drift upward but arrive out of order
    /// and with gaps, as minted ids retire roughly oldest-first.
    #[test]
    fn id_map_matches_btreemap(
        ops in proptest::collection::vec((0u8..8, 0u64..40, 0u32..1_000), 1..300),
    ) {
        let mut m: IdMap<u32> = IdMap::new();
        let mut r: std::collections::BTreeMap<u64, u32> = Default::default();
        let mut drift = 0u64;
        for &(kind, off, v) in &ops {
            // Ids land in a 40-wide band that creeps upward, so inserts hit
            // below, inside and above the live window.
            let id = drift + off;
            match kind {
                0..=2 => {
                    prop_assert_eq!(m.insert(id, v), r.insert(id, v));
                    drift += u64::from(v % 3);
                }
                3 => prop_assert_eq!(m.remove(id), r.remove(&id)),
                4 => {
                    // Retire the oldest entry: the window's front must trim.
                    let oldest = r.keys().next().copied();
                    prop_assert_eq!(m.iter().next().map(|(id, _)| id), oldest);
                    if let Some(id) = oldest {
                        prop_assert_eq!(m.remove(id), r.remove(&id));
                    }
                }
                5 => {
                    if let Some(x) = m.get_mut(id) {
                        *x += 1;
                    }
                    if let Some(x) = r.get_mut(&id) {
                        *x += 1;
                    }
                }
                6 => {
                    prop_assert_eq!(*m.get_or_insert_with(id, || v), *r.entry(id).or_insert(v));
                }
                _ => {
                    let mut seen = Vec::new();
                    m.retain(|id, x| {
                        seen.push(id);
                        *x % 4 != v % 4
                    });
                    prop_assert_eq!(seen, r.keys().copied().collect::<Vec<_>>());
                    r.retain(|_, x| *x % 4 != v % 4);
                }
            }
            prop_assert_eq!(m.get(id), r.get(&id));
            prop_assert_eq!(m.len(), r.len());
            prop_assert_eq!(m.is_empty(), r.is_empty());
        }
        prop_assert_eq!(
            m.iter().map(|(id, &v)| (id, v)).collect::<Vec<_>>(),
            r.into_iter().collect::<Vec<_>>()
        );
    }

    /// Quantiles of a percentile collector match a naive sorted computation.
    #[test]
    fn percentiles_match_naive(xs in proptest::collection::vec(0.0f64..1e6, 1..500)) {
        let mut p = Percentiles::new();
        for &x in &xs {
            p.push(x);
        }
        let mut sorted = xs.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert_eq!(p.quantile(0.0).unwrap(), sorted[0]);
        prop_assert_eq!(p.quantile(1.0).unwrap(), sorted[sorted.len() - 1]);
        let med = p.quantile(0.5).unwrap();
        prop_assert!(med >= sorted[0] && med <= sorted[sorted.len() - 1]);
    }

    /// Lognormal samples are strictly positive and finite for the σ range
    /// the paper uses.
    #[test]
    fn lognormal_samples_valid(seed in any::<u64>(), sigma in 0.1f64..3.0) {
        let d = LogNormal::with_mean(1_000.0, sigma);
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..100 {
            let x = d.sample(&mut rng);
            prop_assert!(x.is_finite() && x > 0.0);
        }
    }

    /// Duration arithmetic survives float round-trips without drift beyond
    /// a nanosecond.
    #[test]
    fn duration_roundtrip(us in 0.0f64..1e9) {
        let d = SimDuration::from_micros_f64(us);
        let back = d.as_micros_f64();
        prop_assert!((back - us).abs() <= 0.001, "{us} vs {back}");
    }

    /// Identical seeds produce identical streams; different seeds differ.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = Xoshiro256pp::seed_from_u64(seed);
        let mut b = Xoshiro256pp::seed_from_u64(seed);
        for _ in 0..64 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
