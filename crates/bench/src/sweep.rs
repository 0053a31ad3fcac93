//! # SweepExecutor: deterministic parallel experiment grids
//!
//! Every figure binary is a grid of *cells* — independent simulation runs,
//! each owning its seed, config, and workload. Cells share no mutable state
//! (the simulator is single-threaded per run and fully deterministic given
//! its seed), so they can execute on any worker in any order; determinism of
//! the *output* only requires that results are emitted in grid order.
//!
//! The executor runs cells on a fixed [`std::thread::scope`] pool sized by
//! `PAELLA_BENCH_THREADS` (default [`std::thread::available_parallelism`],
//! `1` = serial on the calling thread), collects `(index, result)` pairs,
//! and returns them re-assembled in grid order. Callers then print rows
//! sequentially, so **stdout is byte-identical at every thread count** —
//! the determinism contract the `determinism` integration test enforces.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Runs grids of independent experiment cells on a fixed worker pool,
/// returning results in grid order regardless of execution order.
#[derive(Clone, Copy, Debug)]
pub struct SweepExecutor {
    threads: usize,
}

impl SweepExecutor {
    /// Pool sized from `PAELLA_BENCH_THREADS`, defaulting to
    /// [`std::thread::available_parallelism`]. `1` selects the serial path.
    pub fn from_env() -> Self {
        let threads = std::env::var("PAELLA_BENCH_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n >= 1)
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()));
        SweepExecutor { threads }
    }

    /// Pool with an explicit worker count (`1` = serial).
    pub fn with_threads(threads: usize) -> Self {
        SweepExecutor {
            threads: threads.max(1),
        }
    }

    /// The worker count this executor will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `cells` invocations of `cell(0..cells)` and returns the results
    /// indexed by cell, i.e. in grid order.
    ///
    /// Workers claim cell indices from a shared atomic counter (dynamic
    /// self-scheduling: uneven cell costs don't idle a worker), and send
    /// `(index, result)` over a channel; the results vector is assembled by
    /// index, so the output order never depends on scheduling.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any cell.
    pub fn run<T, F>(&self, cells: usize, cell: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        if self.threads == 1 || cells <= 1 {
            // Serial reference path: identical to the pre-harness loops.
            return (0..cells).map(cell).collect();
        }
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, T)>();
        let mut slots: Vec<Option<T>> = (0..cells).map(|_| None).collect();
        std::thread::scope(|s| {
            for _ in 0..self.threads.min(cells) {
                let tx = tx.clone();
                let next = &next;
                let cell = &cell;
                s.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= cells {
                        break;
                    }
                    // A send can only fail if the receiver dropped, which
                    // only happens when the scope is unwinding already.
                    let _ = tx.send((i, cell(i)));
                });
            }
            drop(tx);
            while let Ok((i, v)) = rx.recv() {
                slots[i] = Some(v);
            }
        });
        slots
            .into_iter()
            .enumerate()
            .map(|(i, v)| v.unwrap_or_else(|| panic!("cell {i} produced no result")))
            .collect()
    }
}

/// Runs a grid with the environment-configured executor — the one-liner the
/// figure binaries use.
pub fn run_grid<T, F>(cells: usize, cell: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    SweepExecutor::from_env().run(cells, cell)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let work = |i: usize| {
            // Uneven cell costs exercise dynamic self-scheduling.
            let mut acc = i as u64;
            for k in 0..(i % 7) * 10_000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k as u64);
            }
            (i, acc)
        };
        let serial = SweepExecutor::with_threads(1).run(64, work);
        for threads in [2, 4, 8] {
            let parallel = SweepExecutor::with_threads(threads).run(64, work);
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }

    #[test]
    fn results_in_grid_order() {
        let out = SweepExecutor::with_threads(4).run(100, |i| i * 3);
        assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_cell() {
        let ex = SweepExecutor::with_threads(8);
        assert_eq!(ex.run(0, |i| i), Vec::<usize>::new());
        assert_eq!(ex.run(1, |i| i + 7), vec![7]);
    }

    #[test]
    fn with_threads_floors_at_one() {
        assert_eq!(SweepExecutor::with_threads(0).threads(), 1);
    }

    #[test]
    fn two_workers_overlap_cells() {
        // Clock-free proof that cells run concurrently: both cells wait at
        // a two-party barrier, so the grid finishes only if two workers are
        // inside `cell` at once. A serialised executor would hang here, not
        // pass slowly.
        let barrier = std::sync::Barrier::new(2);
        let out = SweepExecutor::with_threads(2).run(2, |i| {
            barrier.wait();
            i
        });
        assert_eq!(out, [0, 1]);
    }
}
