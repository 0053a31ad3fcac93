//! The untraced run: repetitions of one workload, reduced to its end-to-end
//! metrics, with every output check applied to every repetition.
//!
//! **How host time is taken.** Each repetition builds a fresh system,
//! registers the models and generates the trace (`setup_s`), then times only
//! the drive loop. The sandbox this runs in shares two cores with other
//! tenants and slows the same code by 20–60 % for seconds at a time, and
//! interference only ever adds time. So the drive loop is cut into
//! [`SEGMENTS`](crate::drive::SEGMENTS) equal slices of the trace, every
//! repetition does identical work in a given slice (same seed, same trace),
//! and a workload's host time is the sum over slices of the fastest
//! repetition of each slice. The plain minimum, median and quartiles over
//! whole repetitions are printed beside it.

use std::time::{Duration, Instant};

use crate::drive::{run_rep, Rep};
use crate::host::Stopwatch;
use crate::reduce::SimMetrics;
use crate::workloads::{prepare, Workload};

/// Fewest repetitions of a run, whatever `--seconds` says.
const MIN_REPS: usize = 2;
/// `setup_s` is the median of at least this many set-ups; where the timed
/// repetitions are fewer, the rest are set-ups alone. A set-up of a
/// millisecond is sampled until [`SETUP_SAMPLING`] has gone into it.
const MIN_SETUPS: usize = 9;
const SETUP_SAMPLING: Duration = Duration::from_millis(300);
const MAX_SETUPS: usize = 400;

/// Host cost of one repetition.
#[derive(Clone, Debug)]
pub struct RepCost {
    pub setup_ns: u64,
    pub drive_wall_ns: u64,
    pub drive_cpu_ns: u64,
    pub segment_ns: Vec<u64>,
}

impl RepCost {
    pub fn of(rep: &Rep) -> Self {
        RepCost {
            setup_ns: rep.setup.wall_ns,
            drive_wall_ns: rep.drive.wall_ns,
            drive_cpu_ns: rep.drive.cpu_ns,
            segment_ns: rep.segment_ns.clone(),
        }
    }
}

/// Everything the untraced run of one workload produced.
pub struct Measured {
    pub reps: Vec<RepCost>,
    /// Wall time of every set-up taken, timed repetitions first.
    pub setups_ns: Vec<u64>,
    pub sim: SimMetrics,
    pub peak_rss_bytes: u64,
    /// Failed output checks; empty on a correct run.
    pub violations: Vec<String>,
    /// Requests (over all repetitions) without exactly one terminal state.
    pub unaccounted: usize,
}

pub fn median_f64(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Sum over trace slices of the fastest repetition of each slice.
pub fn fastest_slices_ns(reps: &[RepCost]) -> u64 {
    let slices = reps.iter().map(|r| r.segment_ns.len()).min().unwrap_or(0);
    (0..slices)
        .map(|s| reps.iter().map(|r| r.segment_ns[s]).min().unwrap_or(0))
        .sum()
}

impl Measured {
    /// The workload's host time for one pass over the trace, ns.
    pub fn host_ns(&self) -> u64 {
        fastest_slices_ns(&self.reps)
    }

    pub fn setup_s(&self) -> f64 {
        let mut s: Vec<f64> = self.setups_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        median_f64(&mut s)
    }

    pub fn host_us_per_request(&self) -> f64 {
        self.host_ns() as f64 / 1e3 / self.sim.submitted as f64
    }

    pub fn host_ns_per_kernel(&self) -> f64 {
        self.host_ns() as f64 / self.sim.work_units.max(1) as f64
    }

    /// `(min, q1, median, q3)` of whole-repetition host µs per request.
    pub fn rep_quartiles_us_per_request(&self) -> (f64, f64, f64, f64) {
        let mut v: Vec<f64> = self
            .reps
            .iter()
            .map(|r| r.drive_wall_ns as f64 / 1e3 / self.sim.submitted as f64)
            .collect();
        v.sort_by(f64::total_cmp);
        let at = |q: f64| v[((v.len() - 1) as f64 * q).round() as usize];
        (v[0], at(0.25), at(0.5), at(0.75))
    }

    /// Share of drive-loop wall time the thread was on a CPU.
    pub fn oncpu_share(&self) -> f64 {
        let wall: u64 = self.reps.iter().map(|r| r.drive_wall_ns).sum();
        let cpu: u64 = self.reps.iter().map(|r| r.drive_cpu_ns).sum();
        cpu as f64 / wall.max(1) as f64
    }
}

/// Runs repetitions of `w` for about `seconds`, checking each one.
pub fn measure(w: Workload, seed: u64, seconds: f64) -> Measured {
    let started = Instant::now();
    let budget = Duration::from_secs_f64(seconds);
    let spec = w.spec();
    let mut reps = Vec::new();
    let mut violations = Vec::new();
    let mut unaccounted = 0;
    let mut first: Option<SimMetrics> = None;
    let mut peak_rss_bytes = 0;
    while reps.len() < MIN_REPS || started.elapsed() < budget {
        let rep = run_rep(w, seed, spec, None, false, &mut ());
        for v in &rep.violations {
            violations.push(format!("rep {}: {v}", reps.len()));
        }
        unaccounted += rep.unaccounted;
        match &first {
            None => {
                // What one pass over the trace needs. The high-water mark
                // creeps up with the number of repetitions (allocator
                // fragmentation), and that number depends on the machine.
                peak_rss_bytes = crate::host::peak_rss_bytes();
                first = Some(rep.sim.clone());
            }
            // Same seed, same trace: a deterministic simulator must repeat
            // itself exactly, digest and every reduced number.
            Some(f) if *f != rep.sim => violations.push(format!(
                "rep {} diverged from rep 0: digest {:016x} vs {:016x}",
                reps.len(),
                rep.sim.digest,
                f.digest
            )),
            Some(_) => {}
        }
        reps.push(RepCost::of(&rep));
    }
    let sim = first.expect("at least one rep ran");

    if w.telemetry() {
        // Switching telemetry on must not change what clients see: the same
        // trace with telemetry off has to produce the same digest.
        let off = run_rep(Workload::ZooMix, seed, spec, None, false, &mut ());
        if off.sim.digest != sim.digest {
            violations.push(format!(
                "telemetry changed the outcome: digest {:016x} on vs {:016x} off",
                sim.digest, off.sim.digest
            ));
        }
    }

    let mut setups_ns: Vec<u64> = reps.iter().map(|r| r.setup_ns).collect();
    let sampling = Instant::now();
    while setups_ns.len() < MIN_SETUPS
        || (sampling.elapsed() < SETUP_SAMPLING && setups_ns.len() < MAX_SETUPS)
    {
        let clock = Stopwatch::start();
        std::hint::black_box(prepare(w, seed, spec, None));
        setups_ns.push(clock.stop().wall_ns);
    }

    Measured {
        reps,
        setups_ns,
        sim,
        peak_rss_bytes,
        violations,
        unaccounted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cost(segments: &[u64]) -> RepCost {
        RepCost {
            setup_ns: 0,
            drive_wall_ns: segments.iter().sum(),
            drive_cpu_ns: 0,
            segment_ns: segments.to_vec(),
        }
    }

    #[test]
    fn fastest_slices_take_each_slice_from_its_best_rep() {
        // Rep 0 was disturbed in slice 1, rep 1 in slice 2.
        let reps = [cost(&[10, 50, 10]), cost(&[11, 12, 90])];
        assert_eq!(fastest_slices_ns(&reps), 10 + 12 + 10);
        assert_eq!(fastest_slices_ns(&reps[..1]), 70);
        assert_eq!(fastest_slices_ns(&[]), 0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median_f64(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
