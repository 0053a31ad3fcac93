//! Software-defined request routing across Paella nodes.
//!
//! The router is the cluster-tier analogue of the dispatcher's scheduler: a
//! pure policy fed by per-node load signals. Three classic baselines
//! (round-robin, join-the-shortest-queue, power-of-two-choices) bracket the
//! Paella-native policy, [`RoutingPolicy::LeastRemainingWork`], which routes
//! on each node's ground-truth estimated-remaining-time — the same SRPT
//! signal the node's own scheduler ranks jobs by, exported through
//! `ServingSystem::load_signal()` instead of being thrown away at the node
//! boundary.

use std::collections::BTreeMap;

use paella_sim::{SimDuration, Xoshiro256pp};

/// How the cluster router balances requests across a model's replica set.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RoutingPolicy {
    /// Rotate through the replica set regardless of load.
    RoundRobin,
    /// Join the shortest queue: fewest outstanding requests wins.
    Jsq,
    /// Sample two random replicas, send to the less loaded one.
    PowerOfTwoChoices,
    /// Smallest estimated remaining work (queued + in-flight + in-network),
    /// measured in profiled device time — Paella's SRPT signal lifted to
    /// the cluster tier.
    LeastRemainingWork,
}

impl RoutingPolicy {
    /// Stable display name (bench output, trace events).
    pub fn as_str(self) -> &'static str {
        match self {
            RoutingPolicy::RoundRobin => "round-robin",
            RoutingPolicy::Jsq => "jsq",
            RoutingPolicy::PowerOfTwoChoices => "power-of-two",
            RoutingPolicy::LeastRemainingWork => "least-remaining-work",
        }
    }
}

/// One node's load as seen by the router at decision time.
#[derive(Clone, Copy, Debug)]
pub struct NodeLoad {
    /// Requests routed to the node and not yet completed (includes
    /// in-network, queued, and in-flight requests).
    pub outstanding: u64,
    /// Estimated remaining device work, including requests still crossing
    /// the network to the node.
    pub remaining_work: SimDuration,
    /// KV-cache occupancy in basis points (0..=10000); zero when the node
    /// serves no KV-budgeted (autoregressive) models. Load-aware policies
    /// inflate a node's apparent load as its KV pool saturates: a
    /// memory-full node cannot admit new sequences no matter how short its
    /// queue looks.
    pub kv_pressure_bp: u64,
}

impl NodeLoad {
    /// Inflates `value` by the node's KV pressure: `value / (1 - pressure)`
    /// in integer math, so a half-full pool doubles apparent load and a
    /// saturated pool (10000 bp) maps to `u64::MAX` — routed to only when
    /// every candidate is saturated. With zero pressure this is `value`
    /// unchanged, keeping non-LLM clusters byte-identical to before.
    fn kv_inflated(&self, value: u64) -> u64 {
        let bp = self.kv_pressure_bp.min(10_000);
        if bp >= 10_000 {
            return u64::MAX;
        }
        ((u128::from(value) * 10_000) / u128::from(10_000 - bp)).min(u128::from(u64::MAX)) as u64
    }

    /// The queue-depth signal JSQ and po2 compare, KV-adjusted.
    fn effective_outstanding(&self) -> u64 {
        self.kv_inflated(self.outstanding)
    }

    /// The remaining-work signal LRW compares, KV-adjusted (nanoseconds).
    fn effective_remaining_ns(&self) -> u64 {
        self.kv_inflated(self.remaining_work.as_nanos())
    }
}

/// The routing decision engine: policy plus the state it needs (round-robin
/// cursor, seeded RNG for the randomized policies). Deterministic: ties
/// break to the lowest node index and the RNG is seeded at construction.
pub struct ClusterRouter {
    policy: RoutingPolicy,
    /// Round-robin cursor *per candidate set*: a single global cursor would
    /// skew the rotation whenever picks over replica sets of different sizes
    /// interleave (alternating 2- and 3-replica models starves one replica).
    cursors: BTreeMap<Vec<usize>, usize>,
    rng: Xoshiro256pp,
}

impl ClusterRouter {
    /// A router with the given policy and RNG seed.
    pub fn new(policy: RoutingPolicy, seed: u64) -> Self {
        ClusterRouter {
            policy,
            cursors: BTreeMap::new(),
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// The active policy.
    pub fn policy(&self) -> RoutingPolicy {
        self.policy
    }

    /// Picks one of `candidates` (node indices, non-empty) given each
    /// candidate's load in `loads` (parallel to `candidates`). Returns the
    /// position *within* `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty or the slices disagree in length.
    pub fn pick(&mut self, candidates: &[usize], loads: &[NodeLoad]) -> usize {
        assert!(!candidates.is_empty(), "routing needs at least one replica");
        assert_eq!(candidates.len(), loads.len(), "loads must match candidates");
        if candidates.len() == 1 {
            return 0;
        }
        match self.policy {
            RoutingPolicy::RoundRobin => {
                let cursor = self.cursors.entry(candidates.to_vec()).or_insert(0);
                let pos = *cursor % candidates.len();
                *cursor = cursor.wrapping_add(1);
                pos
            }
            RoutingPolicy::Jsq => min_by_key(loads, |l| l.effective_outstanding()),
            RoutingPolicy::PowerOfTwoChoices => {
                let a = self.rng.index(candidates.len());
                // Draw the second choice from the remaining n-1 slots so the
                // two samples are always distinct.
                let mut b = self.rng.index(candidates.len() - 1);
                if b >= a {
                    b += 1;
                }
                let (lo, hi) = (a.min(b), a.max(b));
                if loads[hi].effective_outstanding() < loads[lo].effective_outstanding() {
                    hi
                } else {
                    lo
                }
            }
            RoutingPolicy::LeastRemainingWork => min_by_key(loads, |l| l.effective_remaining_ns()),
        }
    }
}

/// Position of the minimum key; ties go to the first (lowest) position.
fn min_by_key<K: Ord>(loads: &[NodeLoad], key: impl Fn(&NodeLoad) -> K) -> usize {
    let mut best = 0;
    for i in 1..loads.len() {
        if key(&loads[i]) < key(&loads[best]) {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(outstanding: u64, work_us: u64) -> NodeLoad {
        NodeLoad {
            outstanding,
            remaining_work: SimDuration::from_micros(work_us),
            kv_pressure_bp: 0,
        }
    }

    fn kv_load(outstanding: u64, work_us: u64, kv_bp: u64) -> NodeLoad {
        NodeLoad {
            kv_pressure_bp: kv_bp,
            ..load(outstanding, work_us)
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = ClusterRouter::new(RoutingPolicy::RoundRobin, 1);
        let c = [0, 1, 2];
        let l = [load(9, 9), load(0, 0), load(5, 5)];
        let picks: Vec<usize> = (0..6).map(|_| r.pick(&c, &l)).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2], "load-oblivious rotation");
    }

    #[test]
    fn round_robin_rotates_fairly_per_candidate_set() {
        // Interleaved picks over a 2-replica and a 3-replica set: each set
        // must rotate through all of its members independently. A single
        // global cursor would advance by 2 per set between visits and strand
        // the rotation on a subset.
        let mut r = ClusterRouter::new(RoutingPolicy::RoundRobin, 1);
        let two = [0, 1];
        let three = [0, 1, 2];
        let l2 = [load(0, 0); 2];
        let l3 = [load(0, 0); 3];
        let mut picks2 = Vec::new();
        let mut picks3 = Vec::new();
        for _ in 0..6 {
            picks2.push(r.pick(&two, &l2));
            picks3.push(r.pick(&three, &l3));
        }
        assert_eq!(picks2, vec![0, 1, 0, 1, 0, 1], "2-set rotation unskewed");
        assert_eq!(picks3, vec![0, 1, 2, 0, 1, 2], "3-set rotation unskewed");
    }

    #[test]
    fn jsq_takes_the_shortest_queue_with_low_index_ties() {
        let mut r = ClusterRouter::new(RoutingPolicy::Jsq, 1);
        assert_eq!(r.pick(&[0, 1, 2], &[load(3, 0), load(1, 0), load(2, 0)]), 1);
        assert_eq!(r.pick(&[0, 1, 2], &[load(2, 0), load(2, 0), load(2, 0)]), 0);
    }

    #[test]
    fn least_remaining_work_ignores_counts() {
        // Five cheap requests beat one expensive one: LRW sees through the
        // queue length to the actual work.
        let mut r = ClusterRouter::new(RoutingPolicy::LeastRemainingWork, 1);
        let l = [load(1, 10_000), load(5, 500)];
        assert_eq!(r.pick(&[0, 1], &l), 1);
    }

    #[test]
    fn power_of_two_prefers_the_lighter_sample() {
        // With one node massively loaded, po2 must route there at most
        // rarely: only when both samples hit it — impossible with distinct
        // draws from two nodes.
        let mut r = ClusterRouter::new(RoutingPolicy::PowerOfTwoChoices, 7);
        let l = [load(100, 0), load(0, 0)];
        for _ in 0..50 {
            assert_eq!(r.pick(&[0, 1], &l), 1);
        }
    }

    #[test]
    fn jsq_deprioritizes_kv_saturated_node() {
        // Node 0 has the shorter queue but a saturated KV pool: it cannot
        // admit a new sequence, so JSQ must route to node 1 despite the
        // longer queue. A merely half-full pool (doubling apparent load)
        // also loses against a genuinely shorter queue.
        let mut r = ClusterRouter::new(RoutingPolicy::Jsq, 1);
        let l = [kv_load(1, 0, 10_000), kv_load(6, 0, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 1, "saturated node avoided");
        // Half-full pool doubles apparent depth: 4 -> 8 loses to 6...
        let l = [kv_load(4, 0, 5_000), kv_load(6, 0, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 1);
        // ...but a 2 -> 4 inflation still beats 6.
        let l = [kv_load(2, 0, 5_000), kv_load(6, 0, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 0);
    }

    #[test]
    fn lrw_deprioritizes_kv_saturated_node() {
        let mut r = ClusterRouter::new(RoutingPolicy::LeastRemainingWork, 1);
        // Saturated pool beats even a 100x work advantage.
        let l = [kv_load(1, 100, 10_000), kv_load(1, 10_000, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 1, "KV-full node deprioritized");
        // Half-full pool doubles apparent work: 6000us -> 12000us loses to
        // 10000us.
        let l = [kv_load(1, 6_000, 5_000), kv_load(1, 10_000, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 1);
        // ...but wins when its raw advantage survives the inflation.
        let l = [kv_load(1, 4_000, 5_000), kv_load(1, 10_000, 0)];
        assert_eq!(r.pick(&[0, 1], &l), 0);
    }

    #[test]
    fn po2_deprioritizes_kv_saturated_node() {
        let mut r = ClusterRouter::new(RoutingPolicy::PowerOfTwoChoices, 7);
        // Both draws always land on {0, 1}; the saturated node must lose
        // every comparison even with the shorter raw queue.
        let l = [kv_load(0, 0, 10_000), kv_load(50, 0, 0)];
        for _ in 0..50 {
            assert_eq!(r.pick(&[0, 1], &l), 1);
        }
    }

    #[test]
    fn zero_pressure_leaves_signals_unchanged() {
        let l = load(7, 123);
        assert_eq!(l.effective_outstanding(), 7);
        assert_eq!(
            l.effective_remaining_ns(),
            SimDuration::from_micros(123).as_nanos()
        );
    }

    #[test]
    fn same_seed_same_choices() {
        let seq = |seed: u64| {
            let mut r = ClusterRouter::new(RoutingPolicy::PowerOfTwoChoices, seed);
            let l = [load(4, 0), load(4, 0), load(4, 0), load(4, 0)];
            (0..32)
                .map(|_| r.pick(&[0, 1, 2, 3], &l))
                .collect::<Vec<_>>()
        };
        assert_eq!(seq(42), seq(42), "routing must be reproducible");
    }
}
