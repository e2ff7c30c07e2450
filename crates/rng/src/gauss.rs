//! Gaussian sampling for the process-variation endurance model.

use crate::SimRng;

/// A Gaussian (normal) sampler using the Marsaglia polar method.
///
/// §5.1 of the paper assumes per-page endurance follows a Gaussian
/// distribution with mean 10⁸ and standard deviation 11 % of the mean.
/// This sampler generates that distribution deterministically from any
/// [`SimRng`].
///
/// # Examples
///
/// ```
/// use twl_rng::{GaussianSampler, SplitMix64};
///
/// let mut rng = SplitMix64::seed_from(1);
/// let gauss = GaussianSampler::new(100.0, 11.0);
/// let x = gauss.sample(&mut rng);
/// assert!(x > 0.0 && x < 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianSampler {
    mean: f64,
    std_dev: f64,
}

impl GaussianSampler {
    /// Creates a sampler with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative or either parameter is non-finite.
    #[must_use]
    pub fn new(mean: f64, std_dev: f64) -> Self {
        assert!(
            mean.is_finite() && std_dev.is_finite(),
            "parameters must be finite"
        );
        assert!(std_dev >= 0.0, "standard deviation must be non-negative");
        Self { mean, std_dev }
    }

    /// The configured mean.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// The configured standard deviation.
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut dyn SimRng) -> f64 {
        self.mean + self.std_dev * standard_normal(rng)
    }

    /// An upper bound on every sample this sampler can return from a
    /// generator using the default 53-bit [`SimRng::next_unit_f64`]:
    /// `mean + 12.5 · std_dev`, as no standard-normal variate drawn
    /// here exceeds 12.01 in magnitude.
    #[must_use]
    pub fn max_sample(&self) -> f64 {
        self.mean + self.std_dev * MAX_STANDARD_NORMAL
    }

    /// Draws one sample truncated below at `floor`.
    ///
    /// Endurance can never be negative; the endurance model clips the
    /// (rare, ~10⁻¹⁹ at σ=11 %) negative tail rather than resampling so
    /// the draw count stays deterministic per page index.
    pub fn sample_clipped(&self, rng: &mut dyn SimRng, floor: f64) -> f64 {
        self.sample(rng).max(floor)
    }
}

/// A bound on the magnitude of every standard-normal variate drawn
/// here. The polar method returns `u·√(−2 ln s / s)` with `|u| ≤ √s`,
/// and `s`, a sum of squares of multiples of 2⁻⁵² (from 53-bit
/// uniforms), is at least 2⁻¹⁰⁴ when positive, so `|z| ≤ √(208 ln 2)`
/// ≈ 12.01.
const MAX_STANDARD_NORMAL: f64 = 12.5;

/// One standard-normal variate via the Marsaglia polar method.
fn standard_normal(rng: &mut dyn SimRng) -> f64 {
    loop {
        let u = 2.0 * rng.next_unit_f64() - 1.0;
        let v = 2.0 * rng.next_unit_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * (-2.0 * s.ln() / s).sqrt();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256StarStar;

    #[test]
    fn moments_match() {
        let mut rng = Xoshiro256StarStar::seed_from(77);
        let gauss = GaussianSampler::new(1.0e8, 0.11e8);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| gauss.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean / 1.0e8 - 1.0).abs() < 0.005, "mean = {mean}");
        assert!(
            (var.sqrt() / 0.11e8 - 1.0).abs() < 0.02,
            "sd = {}",
            var.sqrt()
        );
    }

    #[test]
    fn clipped_never_below_floor() {
        let mut rng = Xoshiro256StarStar::seed_from(3);
        let gauss = GaussianSampler::new(0.0, 10.0);
        for _ in 0..10_000 {
            assert!(gauss.sample_clipped(&mut rng, 1.0) >= 1.0);
        }
    }

    #[test]
    fn max_sample_bounds_the_extreme_variate() {
        // The polar method's most extreme variate, at the smallest
        // positive `s` that 53-bit uniforms can produce.
        let u = 2f64.powi(-52);
        let s = u * u;
        let z = u * (-2.0 * s.ln() / s).sqrt();
        assert!(z > 12.0 && z < MAX_STANDARD_NORMAL, "z = {z}");
        let gauss = GaussianSampler::new(100.0, 10.0);
        assert_eq!(gauss.max_sample(), 100.0 + 10.0 * MAX_STANDARD_NORMAL);
    }

    #[test]
    fn zero_std_dev_is_constant() {
        let mut rng = Xoshiro256StarStar::seed_from(4);
        let gauss = GaussianSampler::new(5.0, 0.0);
        for _ in 0..10 {
            assert_eq!(gauss.sample(&mut rng), 5.0);
        }
    }

    #[test]
    #[should_panic(expected = "standard deviation must be non-negative")]
    fn negative_sd_panics() {
        let _ = GaussianSampler::new(0.0, -1.0);
    }
}
