//! Streaming statistics: online mean/variance, percentile collectors and
//! CDFs for the evaluation harness.

use crate::time::SimDuration;

/// Online mean/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; 0 when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = (self.n + other.n) as f64;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n;
        self.m2 += other.m2 + d * d * self.n as f64 * other.n as f64 / n;
        self.mean = mean;
        self.n += other.n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Exact percentile collector: stores every sample. Adequate for this repo's
/// experiment sizes (≤ a few million samples per run).
#[derive(Clone, Debug, Default)]
pub struct Percentiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Percentiles {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Percentiles {
            samples: Vec::new(),
            sorted: true,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.samples.push(x);
        self.sorted = false;
    }

    /// Adds a duration observation, in microseconds.
    pub fn push_duration_us(&mut self, d: SimDuration) {
        self.push(d.as_micros_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Whether there are no observations.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            // total_cmp rather than partial_cmp: quantiles must stay total
            // (and deterministic) even if a NaN ever slips into the samples,
            // instead of panicking mid-report (R9).
            self.samples.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) using nearest-rank with linear
    /// interpolation; `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`. NaN samples sort last
    /// (`total_cmp` order) rather than panicking.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.sort();
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Convenience: the median.
    pub fn p50(&mut self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// Convenience: the 99th percentile, the paper's headline tail metric.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Sample mean; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// Returns `(value, cumulative_fraction)` pairs forming the empirical CDF,
    /// downsampled to at most `points` entries (always including min and max).
    pub fn cdf(&mut self, points: usize) -> Vec<(f64, f64)> {
        if self.samples.is_empty() || points == 0 {
            return Vec::new();
        }
        self.sort();
        let n = self.samples.len();
        let step = (n.max(points) / points.max(1)).max(1);
        let mut out = Vec::with_capacity(points + 1);
        let mut i = 0;
        while i < n {
            out.push((self.samples[i], (i + 1) as f64 / n as f64));
            i += step;
        }
        if out.last().map(|&(v, _)| v) != Some(self.samples[n - 1]) {
            out.push((self.samples[n - 1], 1.0));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_basics() {
        let mut s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        let before = a.clone();
        a.merge(&OnlineStats::new());
        assert_eq!(a.count(), before.count());
        let mut e = OnlineStats::new();
        e.merge(&a);
        assert_eq!(e.count(), 1);
        assert_eq!(e.mean(), 1.0);
    }

    #[test]
    fn percentiles_quantiles() {
        let mut p = Percentiles::new();
        for i in 1..=100 {
            p.push(i as f64);
        }
        assert_eq!(p.quantile(0.0), Some(1.0));
        assert_eq!(p.quantile(1.0), Some(100.0));
        assert!((p.p50().unwrap() - 50.5).abs() < 1e-9);
        assert!((p.p99().unwrap() - 99.01).abs() < 0.02);
        assert!((p.mean().unwrap() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn percentiles_single_and_empty() {
        let mut p = Percentiles::new();
        assert_eq!(p.p99(), None);
        assert_eq!(p.mean(), None);
        p.push(42.0);
        assert_eq!(p.quantile(0.3), Some(42.0));
    }

    #[test]
    fn percentiles_interleaved_push_and_query() {
        let mut p = Percentiles::new();
        p.push(10.0);
        p.push(20.0);
        assert_eq!(p.quantile(1.0), Some(20.0));
        p.push(5.0);
        assert_eq!(p.quantile(0.0), Some(5.0));
    }

    #[test]
    fn cdf_monotone_and_complete() {
        let mut p = Percentiles::new();
        for i in 0..1000 {
            p.push((i % 97) as f64);
        }
        let cdf = p.cdf(50);
        assert!(!cdf.is_empty());
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "values non-decreasing");
            assert!(w[0].1 <= w[1].1, "fractions non-decreasing");
        }
    }
}
