//! Probability distributions used by the workload models.
//!
//! Implemented from scratch on top of [`SimRng`] uniforms so
//! the simulator has no external RNG dependency at all:
//! exponential (inversion), normal (Box–Muller), lognormal and bounded
//! Pareto (inversion).
//!
//! The exponential, normal and lognormal draws evaluate `ln`, `cos` and
//! `exp` with the in-repo [`math`] kernels, so their bits do not depend
//! on the host's libm. Each also exposes its draw in two halves — the
//! uniforms it consumes and the transform applied to them — so batch
//! fills (the engine's exponential lookahead, the workload crate's demand
//! fill) produce exactly the bits of repeated `sample` calls.

use crate::math;
use crate::rng::{Sampler, SimRng};

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Creates an exponential distribution.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn new(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate: {rate}");
        Exponential { rate }
    }

    /// Mean of the distribution.
    pub fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    /// Appends the next `n` standard (rate-1) draws `-ln(1-U)` of `rng` to
    /// `out`: the uniforms first, in stream order, then one `ln` pass.
    pub(crate) fn fill_standard(rng: &mut SimRng, n: usize, out: &mut Vec<f64>) {
        let start = out.len();
        out.extend((0..n).map(|_| 1.0 - rng.uniform()));
        for x in &mut out[start..] {
            *x = -math::ln(*x);
        }
    }

    /// Scales a standard draw to this rate, giving the bits
    /// [`Sampler::sample`] draws from the same uniform.
    #[inline]
    pub(crate) fn scale(&self, standard: f64) -> f64 {
        standard / self.rate
    }
}

impl Sampler for Exponential {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inversion: -ln(1-U)/rate; 1-U avoids ln(0).
        self.scale(-math::ln(1.0 - rng.uniform()))
    }
}

/// Normal distribution via the Box–Muller transform.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite() && std_dev >= 0.0,
            "invalid normal parameters: mean {mean}, std dev {std_dev}"
        );
        Normal { mean, std_dev }
    }

    /// The two uniforms one draw consumes, in stream order: `u1` in
    /// `(0, 1]`, `u2` in `[0, 1)`.
    #[inline]
    pub fn uniforms(rng: &mut SimRng) -> (f64, f64) {
        let u1 = 1.0 - rng.uniform();
        (u1, rng.uniform())
    }

    /// The Box–Muller draw [`Sampler::sample`] makes from
    /// [`Normal::uniforms`].
    #[inline]
    pub fn from_uniforms(&self, u1: f64, u2: f64) -> f64 {
        let z = (-2.0 * math::ln(u1)).sqrt() * math::cos_2pi(u2);
        self.mean + self.std_dev * z
    }
}

impl Sampler for Normal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let (u1, u2) = Self::uniforms(rng);
        self.from_uniforms(u1, u2)
    }
}

/// Lognormal distribution: `exp(N(mu, sigma))`.
///
/// Heavy-tailed service demands (e.g. Web-Search queries over a corpus with
/// power-law term popularity) are modelled with large `sigma`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    base: Normal,
}

impl LogNormal {
    /// Creates a lognormal with location `mu` and scale `sigma` (parameters
    /// of the underlying normal).
    ///
    /// # Panics
    ///
    /// Panics if parameters are invalid for [`Normal::new`].
    pub fn new(mu: f64, sigma: f64) -> Self {
        LogNormal {
            base: Normal::new(mu, sigma),
        }
    }

    /// Constructs the lognormal whose *median* is `median` with scale
    /// `sigma`. The median parameterization is convenient for calibrating
    /// service times ("a typical request takes X µs").
    ///
    /// # Panics
    ///
    /// Panics if `median` is not strictly positive.
    pub fn from_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive: {median}");
        Self::new(math::ln(median), sigma)
    }

    /// The underlying normal: a draw is [`math::exp`] of its draw.
    pub fn normal(&self) -> &Normal {
        &self.base
    }

    /// Mean of the distribution, `exp(mu + sigma²/2)`.
    pub fn mean(&self) -> f64 {
        (self.base.mean + self.base.std_dev * self.base.std_dev / 2.0).exp()
    }
}

impl Sampler for LogNormal {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        math::exp(self.base.sample(rng))
    }
}

/// Bounded Pareto distribution on `[lo, hi]` with shape `alpha`.
///
/// The inversion's constants are computed once in [`BoundedPareto::new`];
/// each draw is one uniform and one `powf`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    /// `lo^alpha`.
    la: f64,
    /// `hi^alpha`.
    ha: f64,
    /// `-1 / alpha`.
    neg_inv_alpha: f64,
}

impl BoundedPareto {
    /// Creates a bounded Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < lo < hi` and `alpha > 0`.
    pub fn new(lo: f64, hi: f64, alpha: f64) -> Self {
        assert!(
            lo > 0.0 && hi > lo && alpha > 0.0,
            "invalid bounded Pareto: lo {lo}, hi {hi}, alpha {alpha}"
        );
        BoundedPareto {
            la: lo.powf(alpha),
            ha: hi.powf(alpha),
            neg_inv_alpha: -1.0 / alpha,
        }
    }
}

impl Sampler for BoundedPareto {
    #[inline]
    fn sample(&self, rng: &mut SimRng) -> f64 {
        let u = rng.uniform();
        let (la, ha) = (self.la, self.ha);
        // Inversion of the bounded Pareto CDF.
        (-(u * ha - u * la - ha) / (ha * la)).powf(self.neg_inv_alpha)
    }
}

/// Degenerate distribution that always returns the same value. Useful for
/// deterministic tests.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant(pub f64);

impl Sampler for Constant {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_of(s: &dyn Sampler, n: usize, seed: u64) -> f64 {
        let mut rng = SimRng::seed(seed);
        (0..n).map(|_| s.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean() {
        let d = Exponential::new(4.0);
        let m = mean_of(&d, 200_000, 1);
        assert!((m - 0.25).abs() < 0.005, "mean {m}");
    }

    #[test]
    fn exponential_nonnegative() {
        let d = Exponential::new(0.5);
        let mut rng = SimRng::seed(2);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let d = Normal::new(10.0, 2.0);
        let mut rng = SimRng::seed(3);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.1, "var {var}");
    }

    #[test]
    fn lognormal_median_parameterization() {
        let d = LogNormal::from_median(5.0, 1.0);
        let mut rng = SimRng::seed(4);
        let n = 100_001;
        let mut xs: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[n / 2];
        assert!((median - 5.0).abs() < 0.2, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = LogNormal::new(0.0, 0.5);
        let analytic = (0.125f64).exp();
        let m = mean_of(&d, 300_000, 5);
        assert!((m - analytic).abs() < 0.01, "mean {m} vs {analytic}");
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = BoundedPareto::new(1.0, 100.0, 1.5);
        let mut rng = SimRng::seed(6);
        for _ in 0..50_000 {
            let x = d.sample(&mut rng);
            assert!((1.0..=100.0).contains(&x), "{x} out of bounds");
        }
    }

    /// Hoisting `lo^α`, `hi^α` and `-1/α` into `new` leaves every draw
    /// bit-identical to the per-draw formula.
    #[test]
    fn bounded_pareto_draws_equal_the_inline_formula() {
        for (lo, hi, alpha) in [(1.0, 100.0, 1.5), (1.5, 10.0, 1.1), (2.0, 50.0, 0.7)] {
            let d = BoundedPareto::new(lo, hi, alpha);
            let mut a = SimRng::seed(12);
            let mut b = SimRng::seed(12);
            for i in 0..10_000 {
                let u = b.uniform();
                let la = f64::powf(lo, alpha);
                let ha = f64::powf(hi, alpha);
                let inline = (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / alpha);
                assert_eq!(d.sample(&mut a).to_bits(), inline.to_bits(), "draw {i}");
            }
        }
    }

    /// The split halves reproduce `sample` bit for bit: `scale` of a
    /// chunked standard fill, and Box–Muller from explicitly drawn
    /// uniforms.
    #[test]
    fn split_draws_equal_sample() {
        let e = Exponential::new(3.7);
        let (mut a, mut b) = (SimRng::seed(13), SimRng::seed(13));
        let mut filled = Vec::new();
        Exponential::fill_standard(&mut b, 1_000, &mut filled);
        for (i, f) in filled.iter().enumerate() {
            assert_eq!(
                e.sample(&mut a).to_bits(),
                e.scale(*f).to_bits(),
                "draw {i}"
            );
        }
        let d = LogNormal::from_median(30.0, 0.7);
        let (mut a, mut b) = (SimRng::seed(14), SimRng::seed(14));
        for _ in 0..1_000 {
            let (u1, u2) = Normal::uniforms(&mut b);
            let split = math::exp(d.normal().from_uniforms(u1, u2));
            assert_eq!(d.sample(&mut a).to_bits(), split.to_bits());
        }
    }

    #[test]
    fn constant_is_constant() {
        let d = Constant(3.5);
        let mut rng = SimRng::seed(9);
        assert_eq!(d.sample(&mut rng), 3.5);
        assert_eq!(d.sample(&mut rng), 3.5);
    }

    #[test]
    #[should_panic(expected = "invalid rate")]
    fn exponential_rejects_zero_rate() {
        Exponential::new(0.0);
    }
}
