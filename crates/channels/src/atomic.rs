//! The one seam between the channel algorithms and the atomics they run on.
//!
//! The notifQ and SPSC bodies ([`NotifRing`](crate::notifq::NotifRing),
//! [`Cursors`](crate::spsc::Cursors)) are written once, generic over a
//! context `C` and an `A: AtomicCell<C>`. The public handles run them with
//! `C = ()` on `AtomicU64`, where every call is the plain `std` operation.
//! `paella-check` runs the same bodies on its own cell type, where every call
//! is a schedule point of the interleaving checker.

use std::sync::atomic::{AtomicU64, Ordering};

/// A 64-bit atomic location reached through context `C`.
pub trait AtomicCell<C> {
    /// A load that may observe any value the ordering permits: a data read.
    fn load(&self, c: &mut C, ord: Ordering) -> u64;
    /// A load that observes the latest store: a poll, which a spin loop
    /// re-issues until it sees progress. On real atomics it is a plain load.
    fn load_fresh(&self, c: &mut C, ord: Ordering) -> u64;
    /// Atomic store.
    fn store(&self, c: &mut C, val: u64, ord: Ordering);
    /// Atomic fetch-add returning the previous value.
    fn fetch_add(&self, c: &mut C, val: u64, ord: Ordering) -> u64;
}

impl AtomicCell<()> for AtomicU64 {
    #[inline]
    fn load(&self, _: &mut (), ord: Ordering) -> u64 {
        AtomicU64::load(self, ord)
    }

    #[inline]
    fn load_fresh(&self, _: &mut (), ord: Ordering) -> u64 {
        AtomicU64::load(self, ord)
    }

    #[inline]
    fn store(&self, _: &mut (), val: u64, ord: Ordering) {
        AtomicU64::store(self, val, ord);
    }

    #[inline]
    fn fetch_add(&self, _: &mut (), val: u64, ord: Ordering) -> u64 {
        AtomicU64::fetch_add(self, val, ord)
    }
}
