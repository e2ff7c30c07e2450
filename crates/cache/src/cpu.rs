//! A synthetic program-level (pre-cache) access generator.

use twl_rng::{SimRng, Xoshiro256StarStar};
use twl_workloads::Zipf;

/// Configuration of a [`CpuWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct CpuWorkloadConfig {
    /// Memory footprint in bytes.
    pub footprint_bytes: u64,
    /// Zipf exponent over 4 KB regions (program locality).
    pub region_alpha: f64,
    /// Mean sequential-burst length in accesses (spatial locality);
    /// each burst walks consecutive 8-byte words, so a burst of 8
    /// stays inside one 64-byte cache line.
    pub mean_burst: u64,
    /// Fraction of accesses that are writes.
    pub write_fraction: f64,
    /// Generator seed.
    pub seed: u64,
}

impl Default for CpuWorkloadConfig {
    fn default() -> Self {
        Self {
            footprint_bytes: 64 * 1024 * 1024,
            region_alpha: 1.0,
            mean_burst: 16,
            write_fraction: 0.4,
            seed: 0,
        }
    }
}

/// Synthetic CPU-level access stream: Zipf-popular 4 KB regions with
/// sequential word bursts inside them.
///
/// Feed it through a [`CacheHierarchy`](crate::CacheHierarchy) to
/// obtain a realistic post-cache PCM trace; the caches absorb the burst
/// locality, so the memory-side stream is far sparser and less
/// sequential than this one — exactly the filtering gem5's cache model
/// applies before NVMain in the paper's setup.
///
/// # Examples
///
/// ```
/// use twl_cache::{CpuWorkload, CpuWorkloadConfig};
///
/// let mut cpu = CpuWorkload::new(&CpuWorkloadConfig::default());
/// let (addr, _is_write) = cpu.next_access();
/// assert!(addr < 64 * 1024 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CpuWorkload {
    config: CpuWorkloadConfig,
    regions: Zipf,
    rng: Xoshiro256StarStar,
    burst_addr: u64,
    burst_left: u64,
    burst_write: bool,
}

impl CpuWorkload {
    /// Word (access) granularity in bytes.
    pub const WORD_BYTES: u64 = 8;
    /// Region granularity in bytes.
    pub const REGION_BYTES: u64 = 4096;

    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if the footprint is smaller than one region, the burst
    /// length is zero, or `write_fraction` is not a probability.
    #[must_use]
    pub fn new(config: &CpuWorkloadConfig) -> Self {
        assert!(
            config.footprint_bytes >= Self::REGION_BYTES,
            "footprint must hold at least one region"
        );
        assert!(config.mean_burst > 0, "burst length must be positive");
        assert!(
            (0.0..=1.0).contains(&config.write_fraction),
            "write fraction must be a probability"
        );
        let regions = config.footprint_bytes / Self::REGION_BYTES;
        Self {
            regions: Zipf::new(regions, config.region_alpha),
            rng: Xoshiro256StarStar::seed_from(config.seed),
            config: config.clone(),
            burst_addr: 0,
            burst_left: 0,
            burst_write: false,
        }
    }

    /// Produces the next `(byte address, is_write)` access.
    pub fn next_access(&mut self) -> (u64, bool) {
        if self.burst_left == 0 {
            // Start a new burst at a random word of a Zipf-chosen region.
            let region = self.regions.sample(&mut self.rng);
            let words = Self::REGION_BYTES / Self::WORD_BYTES;
            let word = self.rng.next_bounded(words);
            self.burst_addr = region * Self::REGION_BYTES + word * Self::WORD_BYTES;
            // Geometric-ish burst length: 1..=2*mean.
            self.burst_left = 1 + self.rng.next_bounded(2 * self.config.mean_burst);
            self.burst_write = self.rng.next_unit_f64() < self.config.write_fraction;
        }
        let addr = self.burst_addr % self.config.footprint_bytes;
        self.burst_addr += Self::WORD_BYTES;
        self.burst_left -= 1;
        (addr, self.burst_write)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addresses_stay_in_footprint() {
        let mut cpu = CpuWorkload::new(&CpuWorkloadConfig {
            footprint_bytes: 1 << 20,
            ..CpuWorkloadConfig::default()
        });
        for _ in 0..10_000 {
            let (addr, _) = cpu.next_access();
            assert!(addr < 1 << 20);
        }
    }

    #[test]
    fn bursts_are_sequential_words() {
        let mut cpu = CpuWorkload::new(&CpuWorkloadConfig {
            mean_burst: 1000, // long bursts so we observe runs
            ..CpuWorkloadConfig::default()
        });
        let (first, _) = cpu.next_access();
        let (second, _) = cpu.next_access();
        assert_eq!(second, first + CpuWorkload::WORD_BYTES);
    }

    #[test]
    fn write_fraction_is_respected() {
        let mut cpu = CpuWorkload::new(&CpuWorkloadConfig {
            write_fraction: 0.25,
            mean_burst: 1,
            ..CpuWorkloadConfig::default()
        });
        let writes = (0..40_000).filter(|_| cpu.next_access().1).count();
        let p = writes as f64 / 40_000.0;
        assert!((p - 0.25).abs() < 0.02, "write fraction {p}");
    }

    #[test]
    fn determinism() {
        let config = CpuWorkloadConfig::default();
        let mut a = CpuWorkload::new(&config);
        let mut b = CpuWorkload::new(&config);
        for _ in 0..1000 {
            assert_eq!(a.next_access(), b.next_access());
        }
    }
}
