//! Process-variation endurance map.

use crate::{PcmConfig, PhysicalPageAddr};
use twl_rng::{GaussianSampler, Xoshiro256StarStar};

/// The per-page endurance values drawn from the process-variation model.
///
/// §5.1: *"We assume that the endurance variation follows a Gauss
/// distribution while endurance information is tested and stored at the
/// granularity of page-size. The mean endurance is 10⁸ and the standard
/// variation is 11 % of the mean."*
///
/// Manufacturers test endurance at production time, so schemes may read
/// this map freely (it is the paper's endurance table, ET). Values are
/// clipped below at 1 write.
///
/// # Examples
///
/// ```
/// use twl_pcm::{EnduranceMap, PcmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder().pages(64).mean_endurance(1000).seed(3).build()?;
/// let map = EnduranceMap::generate(&config);
/// assert_eq!(map.len(), 64);
/// assert!(map.min() <= map.max());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnduranceMap {
    values: Vec<u64>,
}

impl EnduranceMap {
    /// Draws the endurance of every page from the configured Gaussian.
    #[must_use]
    pub fn generate(config: &PcmConfig) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from(config.seed ^ 0x5043_4D5F_454E_4455);
        let sampler = GaussianSampler::new(
            config.mean_endurance as f64,
            config.sigma_fraction * config.mean_endurance as f64,
        );
        let values = (0..config.pages)
            .map(|_| sampler.sample_clipped(&mut rng, 1.0).round() as u64)
            .collect();
        Self { values }
    }

    /// Builds a map from explicit per-page values (for tests and custom
    /// variation models).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a zero.
    #[must_use]
    pub fn from_values(values: Vec<u64>) -> Self {
        assert!(!values.is_empty(), "endurance map cannot be empty");
        assert!(
            values.iter().all(|&v| v > 0),
            "endurance values must be positive"
        );
        Self { values }
    }

    /// Number of pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map is empty (never true for generated maps).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Endurance of one page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn endurance(&self, addr: PhysicalPageAddr) -> u64 {
        self.values[addr.as_usize()]
    }

    /// Iterates over `(address, endurance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PhysicalPageAddr, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &e)| (PhysicalPageAddr::new(i as u64), e))
    }

    /// The weakest page's endurance.
    #[must_use]
    pub fn min(&self) -> u64 {
        *self.values.iter().min().expect("map is non-empty")
    }

    /// The strongest page's endurance.
    #[must_use]
    pub fn max(&self) -> u64 {
        *self.values.iter().max().expect("map is non-empty")
    }

    /// Sum of all pages' endurance — the device's ideal write capacity.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.values.iter().map(|&v| u128::from(v)).sum()
    }

    /// Mean endurance over the drawn map.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total() as f64 / self.len() as f64
    }

    /// The raw per-page endurance values, indexed by physical page.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
    }

    /// A map covering only the first `pages` pages.
    ///
    /// Because [`EnduranceMap::generate`] draws pages sequentially from
    /// the seeded stream, truncating a larger device's map yields
    /// exactly the map a `pages`-page device with the same seed would
    /// draw. `twl-faults` uses this to build schemes over the data
    /// region of a device provisioned with extra spare pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero or exceeds the map's length.
    #[must_use]
    pub fn truncated(&self, pages: usize) -> Self {
        assert!(
            pages > 0 && pages <= self.values.len(),
            "truncation length {pages} outside 1..={}",
            self.values.len()
        );
        Self {
            values: self.values[..pages].to_vec(),
        }
    }

    /// Page addresses sorted by ascending endurance (weakest first).
    ///
    /// This is the sort the paper's Strong-Weak Pairing performs once at
    /// configuration time.
    #[must_use]
    pub fn sorted_by_endurance(&self) -> Vec<PhysicalPageAddr> {
        let mut order: Vec<usize> = (0..self.values.len()).collect();
        order.sort_by_key(|&i| (self.values[i], i));
        order
            .into_iter()
            .map(|i| PhysicalPageAddr::new(i as u64))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(pages: u64, seed: u64) -> PcmConfig {
        PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let c = small_config(512, 9);
        assert_eq!(EnduranceMap::generate(&c), EnduranceMap::generate(&c));
    }

    #[test]
    fn different_seeds_differ() {
        let a = EnduranceMap::generate(&small_config(512, 1));
        let b = EnduranceMap::generate(&small_config(512, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn statistics_match_model() {
        let c = small_config(65_536, 4);
        let map = EnduranceMap::generate(&c);
        let mean = map.mean();
        assert!((mean / 1e5 - 1.0).abs() < 0.01, "mean = {mean}");
        // Empirical min of 65k Gaussian draws sits near µ−4.4σ.
        let z_min = (1e5 - map.min() as f64) / (0.11 * 1e5);
        assert!((3.7..5.5).contains(&z_min), "z_min = {z_min}");
    }

    #[test]
    fn sorted_is_ascending_and_complete() {
        let c = small_config(128, 5);
        let map = EnduranceMap::generate(&c);
        let order = map.sorted_by_endurance();
        assert_eq!(order.len(), 128);
        for w in order.windows(2) {
            assert!(map.endurance(w[0]) <= map.endurance(w[1]));
        }
        let mut seen = [false; 128];
        for pa in &order {
            seen[pa.as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn from_values_accessors() {
        let map = EnduranceMap::from_values(vec![10, 20, 30]);
        assert_eq!(map.min(), 10);
        assert_eq!(map.max(), 30);
        assert_eq!(map.total(), 60);
        assert_eq!(map.endurance(PhysicalPageAddr::new(1)), 20);
        assert!(!map.is_empty());
    }

    #[test]
    #[should_panic(expected = "endurance values must be positive")]
    fn zero_endurance_rejected() {
        let _ = EnduranceMap::from_values(vec![1, 0]);
    }

    #[test]
    fn truncation_matches_smaller_generation() {
        let big = EnduranceMap::generate(&small_config(256, 7));
        let small = EnduranceMap::generate(&small_config(64, 7));
        assert_eq!(big.truncated(64), small);
        assert_eq!(big.truncated(256), big);
    }
}
