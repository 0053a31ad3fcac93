//! Per-SM resource accounting (Table 1 of the paper).
//!
//! Once a thread block is placed on a streaming multiprocessor, its
//! resources — a block slot, `Db` threads, `Db × regs_per_thread` registers,
//! and `Ns` bytes of shared memory — are statically allocated until the block
//! finishes. Whether another block fits is therefore pure arithmetic over
//! these four quantities, which is exactly what both the hardware block
//! scheduler and Paella's software occupancy tracker compute.

/// Static per-SM capacity limits of a device generation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SmLimits {
    /// Maximum resident blocks per SM.
    pub max_blocks: u32,
    /// Maximum resident threads per SM.
    pub max_threads: u32,
    /// Register file size (32-bit registers) per SM.
    pub max_registers: u32,
    /// Shared memory per SM, in bytes.
    pub max_shmem: u32,
}

impl SmLimits {
    /// Turing-generation limits (Tesla T4, GTX 16xx).
    pub const TURING: SmLimits = SmLimits {
        max_blocks: 16,
        max_threads: 1024,
        max_registers: 65_536,
        max_shmem: 65_536,
    };

    /// Pascal-generation limits (Tesla P100).
    pub const PASCAL: SmLimits = SmLimits {
        max_blocks: 32,
        max_threads: 2048,
        max_registers: 65_536,
        max_shmem: 65_536,
    };
}

/// The static resource footprint of one thread block of a kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BlockFootprint {
    /// Threads per block (`Db` in the execution configuration).
    pub threads: u32,
    /// Registers per thread (post-compilation).
    pub regs_per_thread: u32,
    /// Dynamic + static shared memory per block (`Ns`), in bytes.
    pub shmem: u32,
}

impl BlockFootprint {
    /// Registers consumed by one block.
    pub fn registers(&self) -> u32 {
        self.threads * self.regs_per_thread
    }
}

/// Live resource usage of one SM.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SmUsage {
    /// Resident block count (`|SM|`).
    pub blocks: u32,
    /// Resident threads (`Σ Db_i`).
    pub threads: u32,
    /// Allocated registers (`Σ Db_i · regs_per_thd(i)`).
    pub registers: u32,
    /// Allocated shared memory (`Σ Ns_i`), bytes.
    pub shmem: u32,
}

impl SmUsage {
    /// How many blocks with footprint `fp` fit *in addition to* the current
    /// residents, under `limits`.
    pub fn fit_count(&self, fp: &BlockFootprint, limits: &SmLimits) -> u32 {
        let by_blocks = limits.max_blocks - self.blocks;
        let by_threads = (limits.max_threads - self.threads)
            .checked_div(fp.threads)
            .unwrap_or(by_blocks);
        let by_regs = (limits.max_registers - self.registers)
            .checked_div(fp.registers())
            .unwrap_or(by_blocks);
        let by_shmem = (limits.max_shmem - self.shmem)
            .checked_div(fp.shmem)
            .unwrap_or(by_blocks);
        by_blocks.min(by_threads).min(by_regs).min(by_shmem)
    }

    /// Whether at least one more block with footprint `fp` fits.
    pub fn fits(&self, fp: &BlockFootprint, limits: &SmLimits) -> bool {
        self.fit_count(fp, limits) > 0
    }

    /// Allocates `n` blocks with footprint `fp`.
    ///
    /// # Panics
    ///
    /// Panics (debug assertions) if the allocation exceeds `limits`; callers
    /// must check [`fit_count`](Self::fit_count) first.
    pub fn allocate(&mut self, fp: &BlockFootprint, n: u32, limits: &SmLimits) {
        self.blocks += n;
        self.threads += n * fp.threads;
        self.registers += n * fp.registers();
        self.shmem += n * fp.shmem;
        debug_assert!(self.blocks <= limits.max_blocks, "block slot overflow");
        debug_assert!(self.threads <= limits.max_threads, "thread overflow");
        debug_assert!(self.registers <= limits.max_registers, "register overflow");
        debug_assert!(self.shmem <= limits.max_shmem, "shmem overflow");
    }

    /// Releases `n` blocks with footprint `fp`.
    ///
    /// # Panics
    ///
    /// Panics if the release would underflow, which indicates an accounting
    /// bug in the caller.
    pub fn release(&mut self, fp: &BlockFootprint, n: u32) {
        assert!(self.blocks >= n, "releasing more blocks than resident");
        debug_assert!(
            self.threads >= n * fp.threads
                && self.registers >= n * fp.registers()
                && self.shmem >= n * fp.shmem,
            "per-resource underflow: release footprint exceeds residency"
        );
        self.blocks -= n;
        self.threads -= n * fp.threads;
        self.registers -= n * fp.registers();
        self.shmem -= n * fp.shmem;
    }

    /// Whether the SM is completely idle.
    pub fn is_idle(&self) -> bool {
        *self == SmUsage::default()
    }
}

/// Every SM of one device plus device-wide free gauges: the one home of
/// Table 1's arithmetic, behind both the device's block scheduler
/// ([`GpuSim`](crate::GpuSim)) and the dispatcher's software mirror of it.
///
/// Invariant, *between runs*: each gauge is the sum over SMs of
/// `limit − usage` for its resource. [`allocate`](Self::allocate) and
/// [`release`](Self::release) write both sides; a run writes the SMs one by
/// one and the gauges once. The gauges are thus a *necessary*
/// condition for placing blocks and never a sufficient one — free capacity
/// scattered in pieces smaller than a block adds up and hosts nothing — but
/// on a saturated device the necessary condition is the one that fails, so
/// "does it fit" costs four comparisons, and a division is spent only on an
/// SM that takes at least one block (DESIGN §4b).
#[derive(Clone, Debug)]
pub struct SmPool {
    limits: SmLimits,
    sms: Vec<SmUsage>,
    /// Free block slots, threads, registers and shared-memory bytes.
    free: [u64; 4],
}

/// What `n` blocks of `fp` take of each gauge. A product that saturates
/// exceeds every gauge, as the true one would.
fn demand(fp: &BlockFootprint, n: u64) -> [u64; 4] {
    [1, fp.threads, fp.registers(), fp.shmem].map(|each| n.saturating_mul(u64::from(each)))
}

impl SmPool {
    /// `num_sms` idle SMs of the given limits.
    pub fn new(num_sms: u32, limits: SmLimits) -> Self {
        let l = &limits;
        let per_sm = [l.max_blocks, l.max_threads, l.max_registers, l.max_shmem];
        SmPool {
            limits,
            sms: vec![SmUsage::default(); num_sms as usize],
            free: per_sm.map(|each| u64::from(num_sms) * u64::from(each)),
        }
    }

    /// Number of SMs.
    pub fn num_sms(&self) -> usize {
        self.sms.len()
    }

    /// Usage of SM `sm`; `None` for an SM the device does not have.
    pub fn usage(&self, sm: usize) -> Option<&SmUsage> {
        self.sms.get(sm)
    }

    /// The free gauges: `[block slots, threads, registers, shmem bytes]`.
    pub fn free(&self) -> [u64; 4] {
        self.free
    }

    /// [`SmUsage::fit_count`] of SM `sm` (0 for an SM the device does not
    /// have), rejecting by comparison: the quotients are taken only when
    /// every one of them is at least 1.
    pub fn fit(&self, sm: usize, fp: &BlockFootprint) -> u32 {
        let Some(u) = self.sms.get(sm) else { return 0 };
        let l = &self.limits;
        if u.blocks >= l.max_blocks
            || l.max_threads - u.threads < fp.threads
            || l.max_registers - u.registers < fp.registers()
            || l.max_shmem - u.shmem < fp.shmem
        {
            return 0;
        }
        u.fit_count(fp, l)
    }

    /// `min(want, fit(sm, fp))`, by multiply-and-compare when all `want`
    /// blocks fit — the common case for a placement word, which reports
    /// blocks the hardware did place.
    pub fn fit_up_to(&self, sm: usize, fp: &BlockFootprint, want: u32) -> u32 {
        let Some(u) = self.sms.get(sm) else { return 0 };
        let l = &self.limits;
        let over = |used: u32, each: u32, max: u32| {
            u64::from(used) + u64::from(want) * u64::from(each) > u64::from(max)
        };
        if over(u.blocks, 1, l.max_blocks)
            || over(u.threads, fp.threads, l.max_threads)
            || over(u.registers, fp.registers(), l.max_registers)
            || over(u.shmem, fp.shmem, l.max_shmem)
        {
            want.min(self.fit(sm, fp))
        } else {
            want
        }
    }

    /// Whether the free gauges could host `n` more blocks of footprint `fp`.
    /// `false` implies [`fit_total`](Self::fit_total)` < n`; `true` promises
    /// nothing.
    pub fn room_for(&self, fp: &BlockFootprint, n: u64) -> bool {
        self.free.iter().zip(demand(fp, n)).all(|(f, d)| *f >= d)
    }

    /// How many more blocks of footprint `fp` fit on the device right now:
    /// the sum of [`fit`](Self::fit) over its SMs.
    pub fn fit_total(&self, fp: &BlockFootprint) -> u64 {
        (0..self.sms.len())
            .map(|sm| u64::from(self.fit(sm, fp)))
            .sum()
    }

    /// Allocates `n` blocks of footprint `fp` on SM `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range, and (debug assertions) if the
    /// allocation exceeds the limits; callers check [`fit`](Self::fit) first.
    pub fn allocate(&mut self, sm: usize, fp: &BlockFootprint, n: u32) {
        self.allocate_on(sm, fp, n);
        self.settle_allocated(fp, u64::from(n));
    }

    /// Releases `n` blocks of footprint `fp` from SM `sm`.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range or the SM holds fewer than `n` blocks —
    /// an accounting bug in the caller.
    pub fn release(&mut self, sm: usize, fp: &BlockFootprint, n: u32) {
        self.release_on(sm, fp, n);
        self.settle_released(fp, u64::from(n));
    }

    /// The per-SM half of [`allocate`](Self::allocate), for a *run*: blocks
    /// of one footprint move SM by SM and the gauges are owed one
    /// [`settle_allocated`](Self::settle_allocated) of their sum before
    /// anything reads them. `fit` and `fit_up_to` read only the SM, so they
    /// stay exact inside a run.
    #[inline]
    pub fn allocate_on(&mut self, sm: usize, fp: &BlockFootprint, n: u32) {
        self.sms[sm].allocate(fp, n, &self.limits);
    }

    /// The per-SM half of [`release`](Self::release), owed one
    /// [`settle_released`](Self::settle_released).
    #[inline]
    pub fn release_on(&mut self, sm: usize, fp: &BlockFootprint, n: u32) {
        self.sms[sm].release(fp, n);
    }

    /// Takes a run's `n` blocks of `fp` off the gauges.
    pub fn settle_allocated(&mut self, fp: &BlockFootprint, n: u64) {
        for (free, d) in self.free.iter_mut().zip(demand(fp, n)) {
            debug_assert!(
                *free >= d,
                "free gauge underflow: allocated what did not fit"
            );
            *free -= d;
        }
    }

    /// Returns a run's `n` blocks of `fp` to the gauges.
    pub fn settle_released(&mut self, fp: &BlockFootprint, n: u64) {
        for (free, d) in self.free.iter_mut().zip(demand(fp, n)) {
            *free += d;
        }
    }
}

/// Theoretical occupancy: how many blocks of footprint `fp` fit on one empty
/// SM. This is what CUDA's occupancy calculator reports and what the Paella
/// dispatcher uses to bound per-kernel concurrency.
///
/// # Examples
///
/// ```
/// use paella_gpu::{blocks_per_sm, BlockFootprint, SmLimits};
///
/// // The paper's §2.1 workload: 128-thread, 9-register blocks on Turing.
/// let fp = BlockFootprint { threads: 128, regs_per_thread: 9, shmem: 0 };
/// assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 8); // × 22 SMs = 176
/// ```
pub fn blocks_per_sm(fp: &BlockFootprint, limits: &SmLimits) -> u32 {
    SmUsage::default().fit_count(fp, limits)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_fp() -> BlockFootprint {
        // The Fig. 2 synthetic workload: 128 threads, 9 regs, no shmem.
        BlockFootprint {
            threads: 128,
            regs_per_thread: 9,
            shmem: 0,
        }
    }

    #[test]
    fn fig2_workload_occupancy() {
        // 1024 threads/SM ÷ 128 threads/block = 8 blocks/SM on Turing,
        // giving 22 SMs × 8 = 176 concurrent blocks — the paper's number.
        let n = blocks_per_sm(&small_fp(), &SmLimits::TURING);
        assert_eq!(n, 8);
        assert_eq!(n * 22, 176);
    }

    #[test]
    fn thread_limited() {
        let fp = BlockFootprint {
            threads: 512,
            regs_per_thread: 16,
            shmem: 0,
        };
        assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 2);
    }

    #[test]
    fn register_limited() {
        // 256 threads × 64 regs = 16384 regs per block → 4 blocks by regs,
        // which binds before the thread limit (4 × 256 = 1024 exactly ties).
        let fp = BlockFootprint {
            threads: 128,
            regs_per_thread: 128,
            shmem: 0,
        };
        // 128 × 128 = 16384 regs/block → 4 by regs; 8 by threads; 16 by slots.
        assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 4);
    }

    #[test]
    fn shmem_limited() {
        let fp = BlockFootprint {
            threads: 64,
            regs_per_thread: 8,
            shmem: 48 * 1024,
        };
        assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 1);
    }

    #[test]
    fn block_slot_limited() {
        let fp = BlockFootprint {
            threads: 32,
            regs_per_thread: 4,
            shmem: 0,
        };
        // 1024/32 = 32 by threads, but Turing caps at 16 block slots.
        assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 16);
        assert_eq!(blocks_per_sm(&fp, &SmLimits::PASCAL), 32);
    }

    #[test]
    fn allocate_release_roundtrip() {
        let fp = small_fp();
        let lim = SmLimits::TURING;
        let mut sm = SmUsage::default();
        sm.allocate(&fp, 8, &lim);
        assert_eq!(sm.blocks, 8);
        assert_eq!(sm.threads, 1024);
        assert_eq!(sm.registers, 8 * 128 * 9);
        assert!(!sm.fits(&fp, &lim), "SM is thread-saturated");
        sm.release(&fp, 3);
        assert_eq!(sm.fit_count(&fp, &lim), 3);
        sm.release(&fp, 5);
        assert!(sm.is_idle());
    }

    #[test]
    fn fit_count_mixed_residents() {
        let lim = SmLimits::TURING;
        let mut sm = SmUsage::default();
        let big = BlockFootprint {
            threads: 256,
            regs_per_thread: 32,
            shmem: 16 * 1024,
        };
        sm.allocate(&big, 2, &lim);
        // Remaining: 14 slots, 512 threads, 49152 regs, 32768 B shmem.
        let small = BlockFootprint {
            threads: 128,
            regs_per_thread: 16,
            shmem: 8 * 1024,
        };
        // by threads: 4; by regs: 49152/2048 = 24; by shmem: 4; by slots: 14.
        assert_eq!(sm.fit_count(&small, &lim), 4);
    }

    #[test]
    #[should_panic(expected = "releasing more blocks")]
    fn release_underflow_panics() {
        let mut sm = SmUsage::default();
        sm.release(&small_fp(), 1);
    }

    #[test]
    fn zero_footprint_fields_bound_by_slots() {
        // An "empty" kernel (Fig. 4/15) uses essentially no resources; block
        // slots are the only binding limit.
        let fp = BlockFootprint {
            threads: 1,
            regs_per_thread: 0,
            shmem: 0,
        };
        assert_eq!(blocks_per_sm(&fp, &SmLimits::TURING), 16);
    }
}
