//! The checker's operational weak-memory model.
//!
//! This is a view-based release/acquire semantics in the style of the
//! "promising semantics" base machine (without promises): every store to a
//! location appends a *message* to that location's history, every thread
//! carries a *view* — the minimum message timestamp it is allowed to read per
//! location — and synchronization transfers views:
//!
//! * a store tagged `Release` (or `AcqRel`) attaches the storing thread's
//!   entire view to the message;
//! * a load tagged `Acquire` (or `AcqRel`) joins the read message's view into
//!   the reading thread's view;
//! * a `Relaxed` load may read **any** message at or after the thread's view
//!   of that location — the checker forks an exploration branch per
//!   candidate, which is exactly how stale reads (missing `Release`/`Acquire`
//!   pairs) become observable bugs;
//! * read-modify-writes always read the latest message (per-location
//!   atomicity) and propagate the read message's view into the written one,
//!   which conservatively models C11 release sequences.
//!
//! `SeqCst` is treated as `AcqRel`. That is *weaker* than C11 (more behaviors
//! explored, never fewer), so it can yield false alarms only on code that
//! genuinely needs sequential consistency — none of the modeled channel
//! algorithms do. Program-order reordering (e.g. a relaxed store overtaking
//! an earlier load) is **not** modeled; see `DESIGN.md` §9 for the resulting
//! blind spots.

use std::sync::atomic::Ordering;

/// Whether a load with this ordering joins the message view.
pub fn acquires(ord: Ordering) -> bool {
    matches!(ord, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst)
}

/// Whether a store with this ordering publishes the thread view.
pub fn releases(ord: Ordering) -> bool {
    matches!(ord, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst)
}

/// A per-location minimum-visible-timestamp vector, indexed by location id.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VClock(Vec<u64>);

impl VClock {
    /// The empty view (sees every location from its initial message).
    pub fn new() -> Self {
        VClock(Vec::new())
    }

    /// Minimum visible timestamp for `loc` (0 = the initial message).
    pub fn get(&self, loc: usize) -> u64 {
        self.0.get(loc).copied().unwrap_or(0)
    }

    /// Raises the view of `loc` to at least `ts`.
    pub fn raise(&mut self, loc: usize, ts: u64) {
        if self.0.len() <= loc {
            self.0.resize(loc + 1, 0);
        }
        if self.0[loc] < ts {
            self.0[loc] = ts;
        }
    }

    /// Pointwise maximum with `other`.
    pub fn join(&mut self, other: &VClock) {
        if self.0.len() < other.0.len() {
            self.0.resize(other.0.len(), 0);
        }
        for (i, &ts) in other.0.iter().enumerate() {
            if self.0[i] < ts {
                self.0[i] = ts;
            }
        }
    }
}

/// One store in a location's history. `ts` equals its index in the history,
/// so per-location modification order is the vector order.
#[derive(Clone, Debug)]
pub struct Msg {
    /// Stored value.
    pub val: u64,
    /// Timestamp (index in the location history).
    pub ts: u64,
    /// View transferred to acquiring readers.
    pub view: VClock,
}

/// One modeled atomic location.
#[derive(Clone, Debug)]
pub struct Location {
    /// Debug name used in traces.
    pub name: String,
    /// Modification-order history; index == timestamp. Never empty: slot 0 is
    /// the initial value.
    pub history: Vec<Msg>,
}

/// All locations of one execution.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    /// Locations indexed by the id handed out at allocation.
    pub locs: Vec<Location>,
}

impl Memory {
    /// Allocates a location with an initial message at timestamp 0.
    pub fn alloc(&mut self, name: &str, init: u64) -> usize {
        let id = self.locs.len();
        self.locs.push(Location {
            name: name.to_string(),
            history: vec![Msg {
                val: init,
                ts: 0,
                view: VClock::new(),
            }],
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vclock_join_and_raise() {
        let mut a = VClock::new();
        a.raise(2, 5);
        assert_eq!(a.get(2), 5);
        assert_eq!(a.get(0), 0);
        let mut b = VClock::new();
        b.raise(0, 3);
        b.raise(2, 1);
        a.join(&b);
        assert_eq!(a.get(0), 3);
        assert_eq!(a.get(2), 5);
    }

    #[test]
    fn memory_alloc_initial_message() {
        let mut m = Memory::default();
        let x = m.alloc("x", 7);
        assert_eq!(x, 0);
        assert_eq!(m.locs[x].history.len(), 1);
        assert_eq!(m.locs[x].history[0].val, 7);
    }

    #[test]
    fn ordering_predicates() {
        assert!(acquires(Ordering::Acquire) && !releases(Ordering::Acquire));
        assert!(releases(Ordering::Release) && !acquires(Ordering::Release));
        for both in [Ordering::AcqRel, Ordering::SeqCst] {
            assert!(acquires(both) && releases(both));
        }
        assert!(!acquires(Ordering::Relaxed) && !releases(Ordering::Relaxed));
    }
}
