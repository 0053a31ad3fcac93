//! Probability distributions used by the workloads.
//!
//! The paper's request inter-arrival pattern is lognormal with σ = 2 (bursty)
//! or σ = 1.5 (less bursty) and a mean set by the offered load (§7). Kernel
//! duration jitter uses normals; LLM output lengths are geometric.

use crate::rng::Xoshiro256pp;
use crate::time::SimDuration;

/// A sampleable distribution over non-negative real values (nanoseconds when
/// used for durations).
pub trait Distribution {
    /// Draws one sample.
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64;

    /// Draws one sample as a duration, clamping negatives to zero.
    fn sample_duration(&self, rng: &mut Xoshiro256pp) -> SimDuration {
        SimDuration::from_micros_f64(self.sample(rng) / 1_000.0)
    }
}

/// Standard-normal sampler via Box–Muller (the polar variant would need
/// rejection; the trigonometric form keeps the RNG consumption fixed at two
/// draws per pair, which preserves determinism when components are reordered).
fn standard_normal(rng: &mut Xoshiro256pp) -> f64 {
    let u1 = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
    let u2 = rng.next_f64();
    (-2.0 * u1.ln()).sqrt() * (core::f64::consts::TAU * u2).cos()
}

/// Normal distribution with mean `mu` and standard deviation `sigma`.
#[derive(Clone, Copy, Debug)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad normal params"
        );
        Normal { mu, sigma }
    }
}

impl Distribution for Normal {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.mu + self.sigma * standard_normal(rng)
    }
}

/// Lognormal distribution parameterized by the *underlying normal's* μ and σ,
/// exactly as the paper specifies its arrival process (σ = 1.5 or 2).
#[derive(Clone, Copy, Debug)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal with underlying-normal parameters `mu`, `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(
            mu.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "bad lognormal params"
        );
        LogNormal { mu, sigma }
    }

    /// Creates a lognormal with the given *distribution* mean and underlying
    /// σ. The paper fixes σ (burstiness) and varies the mean µ to set the
    /// offered load; since `E[X] = exp(μ + σ²/2)`, we solve for μ.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite or σ is invalid.
    pub fn with_mean(mean: f64, sigma: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "bad lognormal mean");
        LogNormal::new(mean.ln() - sigma * sigma / 2.0, sigma)
    }

    /// The distribution mean `exp(μ + σ²/2)`.
    pub fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

impl Distribution for LogNormal {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        (self.mu + self.sigma * standard_normal(rng)).exp()
    }
}

/// Geometric distribution over `{1, 2, 3, ...}` with the given mean — the
/// number of trials up to and including the first success, `p = 1 / mean`.
/// Used for autoregressive output lengths: each decode step "succeeds"
/// (emits EOS) with probability `p`, so generation lengths are memoryless
/// the way sampled LLM outputs approximately are.
#[derive(Clone, Copy, Debug)]
pub struct Geometric {
    mean: f64,
}

impl Geometric {
    /// Creates a geometric distribution with mean `mean` (≥ 1).
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not finite or is below 1.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean >= 1.0, "bad geometric mean");
        Geometric { mean }
    }

    /// Draws one integer sample in `{1, 2, ...}`.
    pub fn sample_u64(&self, rng: &mut Xoshiro256pp) -> u64 {
        if self.mean <= 1.0 {
            return 1;
        }
        // Inverse CDF: ⌈ln(1-u) / ln(1-p)⌉, with `1 - u` guarded from 0.
        let p = 1.0 / self.mean;
        let u = (1.0 - rng.next_f64()).max(f64::MIN_POSITIVE);
        let x = (u.ln() / (1.0 - p).ln()).ceil();
        if x < 1.0 {
            1
        } else {
            x as u64
        }
    }
}

impl Distribution for Geometric {
    fn sample(&self, rng: &mut Xoshiro256pp) -> f64 {
        self.sample_u64(rng) as f64
    }
}

/// A boxed distribution, for heterogeneous configuration tables.
pub type DynDistribution = Box<dyn Distribution + Send>;

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(d: &impl Distribution, n: usize, seed: u64) -> f64 {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn normal_mean_and_sd() {
        let d = Normal::new(100.0, 15.0);
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let m = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        assert!((m - 100.0).abs() < 0.5, "normal mean {m}");
        assert!((var.sqrt() - 15.0).abs() < 0.5, "normal sd {}", var.sqrt());
    }

    #[test]
    fn lognormal_with_mean_hits_target_mean() {
        // σ = 2 is the paper's bursty setting; the empirical mean of a
        // lognormal with σ = 2 converges slowly, so use a generous tolerance.
        for sigma in [0.5, 1.5] {
            let d = LogNormal::with_mean(1_000.0, sigma);
            assert!((d.mean() - 1_000.0).abs() < 1e-9);
            let m = mean_of(&d, 2_000_000, 6);
            assert!(
                (m - 1_000.0).abs() / 1_000.0 < 0.05,
                "lognormal σ={sigma} empirical mean {m}"
            );
        }
    }

    #[test]
    fn geometric_mean_and_support() {
        let d = Geometric::with_mean(32.0);
        let mut rng = Xoshiro256pp::seed_from_u64(7);
        let n = 200_000;
        let mut sum = 0u64;
        for _ in 0..n {
            let x = d.sample_u64(&mut rng);
            assert!(x >= 1);
            sum += x;
        }
        let m = sum as f64 / n as f64;
        assert!((m - 32.0).abs() < 0.5, "geometric mean {m}");
        // Degenerate mean-1 case always returns 1.
        let one = Geometric::with_mean(1.0);
        for _ in 0..100 {
            assert_eq!(one.sample_u64(&mut rng), 1);
        }
    }

    #[test]
    fn lognormal_positive() {
        let d = LogNormal::new(0.0, 2.0);
        let mut rng = Xoshiro256pp::seed_from_u64(8);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) > 0.0);
        }
    }

    #[test]
    fn sample_duration_clamps() {
        // σ = 0 makes the sample the mean.
        let d = Normal::new(-5.0, 0.0);
        let mut rng = Xoshiro256pp::seed_from_u64(9);
        assert_eq!(d.sample_duration(&mut rng), SimDuration::ZERO);
        let d = Normal::new(1_500.0, 0.0); // 1500 ns
        assert_eq!(d.sample_duration(&mut rng).as_nanos(), 1_500);
    }
}
