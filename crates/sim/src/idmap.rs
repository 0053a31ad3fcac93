//! Storage indexed by a monotonically minted id.
//!
//! Every id the simulation stack mints — jobs, kernel launches, memcpys,
//! per-job streams — comes from a counter, and entries retire roughly in the
//! order they were born. [`IdMap`] exploits that: it is a window of slots
//! starting at the oldest live id, so a lookup is one subtraction and one
//! index instead of a hash probe, and iteration is in ascending id order for
//! free (which is what cross-process determinism wants anyway).
//!
//! The trade is memory: the window spans `newest − oldest live id` slots
//! whether or not the ids in between are still live, so one long-lived entry
//! pins a slot for every id minted after it. Ids may arrive out of order or
//! with gaps (tests and replay drivers pass small hand-picked ids); the
//! window simply grows at whichever end is needed.

use std::collections::VecDeque;

/// A map from `u64` ids to `T`, dense over the window of live ids.
///
/// # Examples
///
/// ```
/// use paella_sim::IdMap;
///
/// let mut m = IdMap::new();
/// m.insert(7, "seven");
/// m.insert(9, "nine");
/// assert_eq!(m.get(7), Some(&"seven"));
/// assert_eq!(m.get(8), None);
/// assert_eq!(m.remove(7), Some("seven"));
/// assert_eq!(m.iter().collect::<Vec<_>>(), [(9, &"nine")]);
/// ```
#[derive(Clone, Debug)]
pub struct IdMap<T> {
    /// Id of `slots[0]`. Meaningless while `slots` is empty.
    base: u64,
    /// Invariant: the front slot, if any, is `Some` — `remove` and `retain`
    /// trim leading holes, so the window starts at the oldest live id.
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> IdMap<T> {
    /// Creates an empty map. Allocates nothing until the first insert.
    #[must_use]
    pub fn new() -> Self {
        IdMap {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slot index of `id`, if it lies inside the window.
    fn index(&self, id: u64) -> Option<usize> {
        let i = usize::try_from(id.checked_sub(self.base)?).ok()?;
        (i < self.slots.len()).then_some(i)
    }

    /// The entry for `id`, if live.
    #[must_use]
    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots[self.index(id)?].as_ref()
    }

    /// Mutable access to the entry for `id`, if live.
    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        let i = self.index(id)?;
        self.slots[i].as_mut()
    }

    /// Grows the window to cover `id` and returns its slot.
    fn slot_mut(&mut self, id: u64) -> &mut Option<T> {
        if self.slots.is_empty() {
            self.base = id;
        }
        if id < self.base {
            // An id older than the window (out-of-order arrival).
            for _ in id..self.base {
                self.slots.push_front(None);
            }
            self.base = id;
        }
        let i = usize::try_from(id - self.base).expect("id window exceeds the address space");
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, || None);
        }
        &mut self.slots[i]
    }

    /// Inserts `value` at `id`, returning the entry it displaced.
    pub fn insert(&mut self, id: u64, value: T) -> Option<T> {
        let prev = self.slot_mut(id).replace(value);
        if prev.is_none() {
            self.len += 1;
        }
        prev
    }

    /// The entry for `id`, inserting `make()` first if it is not live.
    pub fn get_or_insert_with(&mut self, id: u64, make: impl FnOnce() -> T) -> &mut T {
        if self.get(id).is_none() {
            self.insert(id, make());
        }
        // invariant: the branch above just made the slot live.
        self.get_mut(id).expect("slot live")
    }

    /// Removes and returns the entry for `id`, trimming the window's front
    /// past any holes this leaves.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let i = self.index(id)?;
        let value = self.slots[i].take()?;
        self.len -= 1;
        self.trim_front();
        Some(value)
    }

    /// Keeps only the entries for which `keep` returns `true`, visiting them
    /// in ascending id order.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        for (id, slot) in (self.base..).zip(self.slots.iter_mut()) {
            if slot.as_mut().is_some_and(|v| !keep(id, v)) {
                *slot = None;
                self.len -= 1;
            }
        }
        self.trim_front();
    }

    fn trim_front(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Live entries in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        (self.base..)
            .zip(self.slots.iter())
            .filter_map(|(id, slot)| slot.as_ref().map(|v| (id, v)))
    }

    /// Live entries' values in ascending id order, to change.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.slots.iter_mut().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_follows_the_oldest_live_id() {
        let mut m = IdMap::new();
        for id in 1..=5u64 {
            assert_eq!(m.insert(id, id * 10), None);
        }
        assert_eq!(m.remove(2), Some(20));
        assert_eq!(m.slots.len(), 5, "a hole inside the window stays");
        assert_eq!(m.remove(1), Some(10));
        assert_eq!(
            (m.base, m.slots.len()),
            (3, 3),
            "front trimmed past the hole"
        );
        assert_eq!(m.get(2), None, "below the window");
        assert_eq!(m.remove(2), None);
        m.retain(|id, _| id == 5);
        assert_eq!((m.base, m.len()), (5, 1));
        assert_eq!(m.remove(5), Some(50));
        assert!(m.is_empty() && m.slots.is_empty());
        // An emptied map re-bases at whatever arrives next.
        m.insert(1_000_000, 1);
        assert_eq!(m.slots.len(), 1);
    }

    #[test]
    fn out_of_order_and_sparse_ids() {
        let mut m = IdMap::new();
        m.insert(9, 'a');
        m.insert(3, 'b'); // below the window: it grows downward
        m.insert(12, 'c'); // gap above
        assert_eq!(m.insert(9, 'd'), Some('a'), "insert replaces");
        assert_eq!(m.len(), 3);
        assert_eq!(
            m.iter().collect::<Vec<_>>(),
            [(3, &'b'), (9, &'d'), (12, &'c')]
        );
        *m.get_or_insert_with(5, || 'e') = 'f';
        assert_eq!(*m.get_or_insert_with(5, || 'z'), 'f');
        assert_eq!(m.get(u64::MAX), None);
    }
}
