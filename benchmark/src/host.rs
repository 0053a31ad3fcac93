//! Host-side clocks and memory readings.
//!
//! Wall-clock comes from `Instant`; on-CPU time beside it comes from
//! `/proc/thread-self/schedstat` (first field: nanoseconds this thread spent
//! running), so a rep that was descheduled on the shared box shows up as
//! `wall > cpu` instead of silently inflating the host cost. Peak memory is
//! the process's `VmHWM`; the benchmark runs one process per workload so the
//! high-water mark is per workload.

use std::time::Instant;

/// Nanoseconds the calling thread has spent on a CPU, or 0 where
/// `/proc/thread-self/schedstat` is unavailable (non-Linux).
pub fn oncpu_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// One `Vm*` line of `/proc/self/status`, in bytes (0 if unreadable).
fn status_bytes(key: &str) -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// Peak resident set size of this process so far, bytes.
pub fn peak_rss_bytes() -> u64 {
    status_bytes("VmHWM:")
}

/// Current resident set size of this process, bytes.
pub fn rss_bytes() -> u64 {
    status_bytes("VmRSS:")
}

/// A wall-clock + on-CPU stopwatch.
pub struct Stopwatch {
    wall: Instant,
    cpu: u64,
}

/// Elapsed `(wall, on-CPU)` nanoseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct Elapsed {
    pub wall_ns: u64,
    pub cpu_ns: u64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            cpu: oncpu_ns(),
            wall: Instant::now(),
        }
    }

    pub fn stop(&self) -> Elapsed {
        let wall_ns = self.wall.elapsed().as_nanos() as u64;
        Elapsed {
            wall_ns,
            cpu_ns: oncpu_ns().saturating_sub(self.cpu),
        }
    }
}
