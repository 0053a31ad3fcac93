//! The dispatcher's software occupancy tracker (§4.1 + §5.2).
//!
//! Paella never asks the GPU what is running — it *knows*, by folding the
//! instrumented placement/completion notifications into a per-SM mirror of
//! the Table 1 resource accounting. Combined with the static footprint of
//! every launched kernel, the tracker answers the only question the
//! dispatcher needs: *can another kernel's blocks be placed right now (or
//! very soon)?*
//!
//! Because notifications lag reality by the device→host visibility delay,
//! the dispatcher keeps the hardware queue primed with a slack of `B` blocks
//! beyond estimated full utilization (§6 "(3) Full utilization").

use paella_channels::{KernelUid, NotifKind, Notification, SmId};
use paella_gpu::{BlockFootprint, SmLimits, SmPool, SmUsage};
use paella_sim::IdMap;

/// Tracker state for one launched kernel.
#[derive(Clone, Debug)]
struct TrackedKernel {
    footprint: BlockFootprint,
    total_blocks: u32,
    placed: u32,
    completed: u32,
    /// Blocks placed per SM, indexed by SM (needed to release the right SM
    /// on completion when notifications arrive out of order across SMs).
    per_sm: Vec<u32>,
}

/// The occupancy tracker.
#[derive(Clone, Debug)]
pub struct OccupancyTracker {
    /// The per-SM mirror, on the same arithmetic as the device's own.
    pool: SmPool,
    /// In-flight kernels, indexed by launch uid.
    kernels: IdMap<TrackedKernel>,
    /// Blocks launched but with no placement notification yet — the
    /// "hardware queue depth" proxy the B-slack controls.
    unplaced_blocks: u64,
    /// Blocks placed and not yet completed.
    resident_blocks: u64,
    /// All-zero `per_sm` vectors of dropped kernels, for the next launches.
    spare_per_sm: Vec<Vec<u32>>,
}

impl OccupancyTracker {
    /// Creates a tracker for a device with `num_sms` SMs of the given limits.
    ///
    /// # Panics
    ///
    /// Panics if `num_sms` exceeds 256: a notification names its SM by an
    /// 8-bit [`SmId`], so the words of a larger device's SMs would alias.
    pub fn new(num_sms: u32, limits: SmLimits) -> Self {
        assert!(
            num_sms <= 1 << SmId::BITS,
            "{num_sms} SMs: a notification word's SM id has 8 bits"
        );
        OccupancyTracker {
            pool: SmPool::new(num_sms, limits),
            kernels: IdMap::new(),
            unplaced_blocks: 0,
            resident_blocks: 0,
            spare_per_sm: Vec::new(),
        }
    }

    /// Registers a kernel launch the dispatcher just submitted.
    ///
    /// # Panics
    ///
    /// Panics if `uid` is already tracked.
    pub fn on_launch(&mut self, uid: KernelUid, footprint: BlockFootprint, blocks: u32) {
        let per_sm = self.spare_per_sm.pop();
        let prev = self.kernels.insert(
            u64::from(uid),
            TrackedKernel {
                footprint,
                total_blocks: blocks,
                placed: 0,
                completed: 0,
                per_sm: per_sm.unwrap_or_else(|| vec![0; self.pool.num_sms()]),
            },
        );
        assert!(prev.is_none(), "kernel {uid} launched twice");
        self.unplaced_blocks += u64::from(blocks);
    }

    /// Folds one notification into the mirror: a run of one word.
    pub fn on_notification(&mut self, n: Notification) {
        self.on_run(n.kernel, n.kind, &[(n.sm_id, n.group)]);
    }

    /// Folds a run — words of one `kind` for one kernel, as `(sm, group)`
    /// pairs — into the mirror, word by word. Unknown kernel uids are ignored
    /// (stale notifications after a reset), as is a word naming an SM the
    /// device does not have (garbage), and counts are clamped so a lost or
    /// duplicated word can never corrupt the accounting — the mirror may
    /// drift, but [`on_kernel_completed`] reconciles it when the runtime
    /// observes the kernel finish. Block totals and the pool's gauges are
    /// settled once, after the last word. Returns the index of the first
    /// word after which [`fully_placed`](Self::fully_placed) holds (0 if it
    /// did before).
    ///
    /// [`on_kernel_completed`]: Self::on_kernel_completed
    pub fn on_run(
        &mut self,
        uid: KernelUid,
        kind: NotifKind,
        words: &[(SmId, u16)],
    ) -> Option<usize> {
        let Some(k) = self.kernels.get_mut(u64::from(uid)) else {
            return Some(0);
        };
        let mut full_at = (k.placed == k.total_blocks).then_some(0);
        let mut blocks = 0;
        match kind {
            NotifKind::Placement => {
                for (i, &(sm, group)) in words.iter().enumerate() {
                    if full_at.is_some() {
                        break;
                    }
                    let sm = sm as usize;
                    let want = u32::from(group).min(k.total_blocks - k.placed);
                    // 0 for an SM the device does not have.
                    let g = self.pool.fit_up_to(sm, &k.footprint, want);
                    if g == 0 {
                        continue;
                    }
                    k.placed += g;
                    k.per_sm[sm] += g;
                    self.pool.allocate_on(sm, &k.footprint, g);
                    blocks += u64::from(g);
                    if k.placed == k.total_blocks {
                        full_at = Some(i);
                    }
                }
                self.pool.settle_allocated(&k.footprint, blocks);
                debug_assert!(self.unplaced_blocks >= blocks, "placed > launched");
                self.unplaced_blocks -= blocks;
                self.resident_blocks += blocks;
            }
            NotifKind::Completion => {
                for &(sm, group) in words {
                    let Some(on_sm) = k.per_sm.get_mut(sm as usize) else {
                        continue;
                    };
                    let g = u32::from(group)
                        .min(k.total_blocks - k.completed)
                        .min(*on_sm);
                    k.completed += g;
                    *on_sm -= g; // sub: `g ≤ *on_sm` by the `min` above
                    self.pool.release_on(sm as usize, &k.footprint, g);
                    blocks += u64::from(g);
                }
                self.pool.settle_released(&k.footprint, blocks);
                debug_assert!(self.resident_blocks >= blocks, "completed > placed");
                self.resident_blocks -= blocks;
                // Words after the one that completes the kernel clamp to 0.
                if k.completed == k.total_blocks {
                    self.drop_kernel(uid);
                }
            }
        }
        full_at
    }

    /// Forgets `uid`, keeping its (by now all-zero) per-SM vector.
    fn drop_kernel(&mut self, uid: KernelUid) {
        if let Some(k) = self.kernels.remove(u64::from(uid)) {
            debug_assert!(k.per_sm.iter().all(|&n| n == 0), "dropped with residents");
            self.spare_per_sm.push(k.per_sm);
        }
    }

    /// Whether all blocks of `uid` have been placed (used to release the
    /// job's next op in pipelined mode). Unknown uids report `true` (the
    /// kernel already fully completed and was dropped).
    pub fn fully_placed(&self, uid: KernelUid) -> bool {
        self.kernels
            .get(u64::from(uid))
            .is_none_or(|k| k.placed == k.total_blocks)
    }

    /// How many more blocks with footprint `fp` fit on the device right now,
    /// per the mirror.
    pub fn fit_count(&self, fp: &BlockFootprint) -> u64 {
        self.pool.fit_total(fp)
    }

    /// Blocks launched but not yet observed placed.
    pub fn unplaced_blocks(&self) -> u64 {
        self.unplaced_blocks
    }

    /// Blocks observed resident.
    pub fn resident_blocks(&self) -> u64 {
        self.resident_blocks
    }

    /// The §6 dispatch predicate: dispatch another kernel with footprint
    /// `fp` iff the device has room for its blocks *after* the already
    /// launched-but-unplaced backlog lands (pessimistically assuming the
    /// backlog consumes same-shaped slots), or the backlog is below the
    /// slack `b` (keeping the hardware queue primed despite notification
    /// lag). A hold is usually answered by the free gauges alone; the SMs
    /// are only scanned when the gauges say the backlog plus one could fit.
    pub fn should_dispatch(&self, fp: &BlockFootprint, b: u64) -> bool {
        self.unplaced_blocks < b
            || (self.pool.room_for(fp, self.unplaced_blocks + 1)
                && self.fit_count(fp) > self.unplaced_blocks)
    }

    /// Reconciles the mirror when the host observes a kernel's completion
    /// through the CUDA runtime (e.g. a stream callback) even though some of
    /// its notifications were lost: any blocks still accounted as resident
    /// or unplaced for `uid` are released. Without this, a lost completion
    /// word would leak SM capacity forever and eventually wedge dispatching.
    pub fn on_kernel_completed(&mut self, uid: KernelUid) {
        let Some(k) = self.kernels.get_mut(u64::from(uid)) else {
            return;
        };
        // Blocks never seen placing still count against the backlog.
        let never_placed = u64::from(k.total_blocks - k.placed);
        debug_assert!(
            self.unplaced_blocks >= never_placed,
            "reconciled > launched"
        );
        self.unplaced_blocks -= never_placed;
        // Blocks placed but whose completion word was lost still occupy SMs
        // in the mirror.
        for (sm, on_sm) in k.per_sm.iter_mut().enumerate() {
            let blocks = std::mem::take(on_sm);
            if blocks > 0 {
                self.pool.release(sm, &k.footprint, blocks);
                debug_assert!(
                    self.resident_blocks >= u64::from(blocks),
                    "reconciled > placed"
                );
                self.resident_blocks -= u64::from(blocks);
            }
        }
        self.drop_kernel(uid);
    }

    /// Mirror of one SM's usage (for tests and debugging).
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range.
    pub fn sm_usage(&self, sm: u8) -> SmUsage {
        // invariant: the documented panic; no serving path calls this.
        *self.pool.usage(sm as usize).expect("SM out of range")
    }

    /// Number of kernels still tracked.
    pub fn tracked_kernels(&self) -> usize {
        self.kernels.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> BlockFootprint {
        BlockFootprint {
            threads: 128,
            regs_per_thread: 9,
            shmem: 0,
        }
    }

    #[test]
    #[should_panic(expected = "SM id has 8 bits")]
    fn more_sms_than_an_sm_id_tells_apart_panics() {
        let _ = OccupancyTracker::new(257, SmLimits::TURING);
    }

    fn tracker() -> OccupancyTracker {
        OccupancyTracker::new(4, SmLimits::TURING)
    }

    #[test]
    fn launch_then_place_then_complete() {
        let mut t = tracker();
        t.on_launch(1, fp(), 16);
        assert_eq!(t.unplaced_blocks(), 16);
        assert_eq!(t.resident_blocks(), 0);
        // 128-thread blocks: 8 per Turing SM, so hardware spreads over 2 SMs.
        t.on_notification(Notification::placement(0, 1, 8));
        t.on_notification(Notification::placement(1, 1, 8));
        assert_eq!(t.unplaced_blocks(), 0);
        assert_eq!(t.resident_blocks(), 16);
        assert!(t.fully_placed(1));
        assert_eq!(t.sm_usage(0).blocks, 8);
        t.on_notification(Notification::completion(0, 1, 8));
        t.on_notification(Notification::completion(1, 1, 8));
        assert_eq!(t.resident_blocks(), 0);
        assert_eq!(t.tracked_kernels(), 0);
        assert!(t.sm_usage(0).is_idle());
    }

    #[test]
    fn partial_placement_tracked() {
        let mut t = tracker();
        t.on_launch(1, fp(), 10);
        t.on_notification(Notification::placement(0, 1, 4));
        t.on_notification(Notification::placement(1, 1, 6));
        assert!(t.fully_placed(1));
        assert_eq!(t.sm_usage(0).blocks, 4);
        assert_eq!(t.sm_usage(1).blocks, 6);
        t.on_notification(Notification::completion(1, 1, 6));
        assert_eq!(t.resident_blocks(), 4);
        assert!(t.sm_usage(1).is_idle());
    }

    #[test]
    fn fit_count_respects_mirror() {
        let mut t = tracker();
        // Empty 4-SM Turing device fits 8 × 4 = 32 blocks of 128 threads.
        assert_eq!(t.fit_count(&fp()), 32);
        t.on_launch(1, fp(), 8);
        t.on_notification(Notification::placement(2, 1, 8));
        assert_eq!(t.fit_count(&fp()), 24);
    }

    #[test]
    fn should_dispatch_slack_logic() {
        let mut t = tracker();
        // Fill the device completely.
        t.on_launch(1, fp(), 32);
        t.on_notification(Notification::placement(0, 1, 8));
        t.on_notification(Notification::placement(1, 1, 8));
        t.on_notification(Notification::placement(2, 1, 8));
        t.on_notification(Notification::placement(3, 1, 8));
        assert_eq!(t.fit_count(&fp()), 0);
        // Nothing fits, backlog 0 < B → dispatch allowed by slack.
        assert!(t.should_dispatch(&fp(), 4));
        t.on_launch(2, fp(), 8);
        // Backlog is now 8 ≥ B and nothing fits → hold.
        assert!(!t.should_dispatch(&fp(), 4));
        // A completion frees 8 slots, but the 8-block backlog will consume
        // them → still hold.
        t.on_notification(Notification::completion(0, 1, 8));
        assert!(!t.should_dispatch(&fp(), 4));
        // Once the backlog places, the slack reopens dispatching.
        t.on_notification(Notification::placement(0, 2, 8));
        assert!(t.should_dispatch(&fp(), 4));
        // And freeing more room than the (now empty) backlog also works.
        t.on_notification(Notification::completion(1, 1, 8));
        assert!(t.should_dispatch(&fp(), 100));
    }

    #[test]
    fn unknown_kernel_notifications_ignored() {
        let mut t = tracker();
        t.on_notification(Notification::placement(0, 99, 4));
        t.on_notification(Notification::completion(0, 99, 4));
        assert_eq!(t.resident_blocks(), 0);
        assert!(t.fully_placed(99), "unknown ⇒ treated as long gone");
    }

    #[test]
    fn words_naming_a_missing_sm_are_ignored() {
        let mut t = tracker();
        t.on_launch(1, fp(), 8);
        t.on_notification(Notification::placement(200, 1, 4));
        t.on_notification(Notification::completion(200, 1, 4));
        assert_eq!((t.unplaced_blocks(), t.resident_blocks()), (8, 0));
        assert!((0..4).all(|sm| t.sm_usage(sm).is_idle()));
    }

    #[test]
    #[should_panic(expected = "launched twice")]
    fn duplicate_launch_panics() {
        let mut t = tracker();
        t.on_launch(1, fp(), 1);
        t.on_launch(1, fp(), 1);
    }

    #[test]
    fn kernel_completed_reconciles_lost_notifications() {
        let mut t = tracker();
        t.on_launch(1, fp(), 16);
        // Only half the placements and none of the completions arrive.
        t.on_notification(Notification::placement(0, 1, 8));
        assert_eq!(t.unplaced_blocks(), 8);
        assert_eq!(t.resident_blocks(), 8);
        // The host sees the kernel complete through the runtime anyway.
        t.on_kernel_completed(1);
        assert_eq!(t.unplaced_blocks(), 0, "backlog reconciled");
        assert_eq!(t.resident_blocks(), 0, "leaked residency released");
        assert!(t.sm_usage(0).is_idle());
        assert_eq!(t.tracked_kernels(), 0);
        // Idempotent for unknown kernels.
        t.on_kernel_completed(1);
        t.on_kernel_completed(99);
    }

    #[test]
    fn mixed_footprints_account_correctly() {
        let mut t = tracker();
        let big = BlockFootprint {
            threads: 512,
            regs_per_thread: 32,
            shmem: 16 * 1024,
        };
        t.on_launch(1, big, 2);
        t.on_notification(Notification::placement(0, 1, 2));
        // SM 0 now holds 1024 threads → nothing else fits there.
        assert_eq!(t.sm_usage(0).threads, 1024);
        assert_eq!(t.fit_count(&fp()), 24, "three free SMs × 8");
    }
}
