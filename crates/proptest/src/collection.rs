//! `proptest::collection` subset: the [`vec()`] strategy.

use crate::{Strategy, TestRng};
use std::ops::Range;

/// Strategy producing `Vec`s with lengths drawn from `len`.
#[derive(Clone, Debug)]
pub struct VecStrategy<S> {
    element: S,
    len: Range<usize>,
}

/// Mirrors `proptest::collection::vec(element, size_range)`.
pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
    assert!(len.start < len.end, "empty length range");
    VecStrategy { element, len }
}

impl<S: Strategy> Strategy for VecStrategy<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
        let span = (self.len.end - self.len.start) as u64;
        let n = self.len.start + rng.below(span) as usize;
        (0..n).map(|_| self.element.generate(rng)).collect()
    }
}
