//! Replicated model placement under per-node memory budgets.
//!
//! Each model is pinned to a replica set at registration time; the router
//! only balances within that set. Replicas are chosen water-filling style:
//! the nodes with the most free weight memory take the next model, so hot
//! co-residency is spread instead of stacking every model on node 0.

use paella_compiler::CompiledModel;

/// Desired replicas per model (capped by how many nodes can fit it).
const REPLICATION: usize = 2;
/// Per-node weight-memory budget in bytes (the T4 carries 16 GB).
const MEM_BUDGET_BYTES: u64 = 16 << 30;

/// Chooses replica sets and tracks per-node weight memory.
pub struct PlacementManager {
    /// Weight bytes charged per node (index = node).
    used: Vec<u64>,
}

impl PlacementManager {
    /// A manager for `nodes` empty nodes.
    pub fn new(nodes: usize) -> Self {
        PlacementManager {
            used: vec![0; nodes],
        }
    }

    /// Picks the replica set for `model`: up to `REPLICATION` nodes with
    /// room, most-free-memory first (ties to the lower index), and charges
    /// the weight bytes against each. The returned indices are sorted.
    ///
    /// # Panics
    ///
    /// Panics if no node has room for the model's weights — a deployment
    /// error worth failing loudly on, not a runtime condition.
    pub fn place(&mut self, model: &CompiledModel) -> Vec<usize> {
        let weight = model.weight_bytes;
        let mut fits: Vec<usize> = (0..self.used.len())
            .filter(|&i| self.used[i] + weight <= MEM_BUDGET_BYTES)
            .collect();
        assert!(
            !fits.is_empty(),
            "model {:?} ({} bytes) fits on no node (budget {} bytes/node)",
            model.name,
            weight,
            MEM_BUDGET_BYTES
        );
        // Most free memory first; stable tie-break on index keeps placement
        // deterministic.
        fits.sort_by_key(|&i| (self.used[i], i));
        fits.truncate(REPLICATION);
        fits.sort_unstable();
        for &i in &fits {
            self.used[i] += weight;
        }
        fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hundredth of the budget: 100 of these fit on a node, 101 do not.
    const PCT: u64 = MEM_BUDGET_BYTES / 100;

    fn weighted(name: &str, pct: u64) -> CompiledModel {
        CompiledModel {
            name: name.to_string().into(),
            ops: Vec::new(),
            schedule: None,
            input_bytes: 0,
            output_bytes: 0,
            weight_bytes: pct * PCT,
            flops: 0,
        }
    }

    #[test]
    fn replicas_spread_across_emptiest_nodes() {
        assert_eq!(REPLICATION, 2);
        let mut p = PlacementManager::new(4);
        assert_eq!(p.place(&weighted("a", 60)), vec![0, 1]);
        // Nodes 2 and 3 are now the emptiest.
        assert_eq!(p.place(&weighted("b", 60)), vec![2, 3]);
        // 60 % nodes can't take another 60 %; all four are full for "c".
        assert_eq!(p.place(&weighted("c", 30)), vec![0, 1]);
    }

    #[test]
    fn replication_caps_at_fitting_nodes() {
        let mut p = PlacementManager::new(1);
        assert_eq!(p.place(&weighted("a", 10)).len(), 1, "only 1 node exists");
        let mut p = PlacementManager::new(3);
        assert_eq!(p.place(&weighted("a", 60)), vec![0, 1]);
        assert_eq!(p.place(&weighted("b", 60)), vec![2], "only node 2 has room");
    }

    #[test]
    #[should_panic(expected = "fits on no node")]
    fn unplaceable_model_rejected() {
        let mut p = PlacementManager::new(2);
        p.place(&weighted("huge", 101));
    }
}
