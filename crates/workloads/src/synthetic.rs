//! The synthetic workload generator.

use crate::{MemCmd, Zipf};
use twl_pcm::LogicalPageAddr;
use twl_rng::{FeistelPermutation, SimRng, Xoshiro256StarStar};

/// Configuration of a [`SyntheticWorkload`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// Logical pages of the device the workload runs against.
    pub pages: u64,
    /// Number of distinct pages the workload touches.
    pub footprint: u64,
    /// Zipf exponent of the page-popularity distribution.
    pub zipf_alpha: f64,
    /// Fraction of commands that are reads (reads do not wear PCM but
    /// load the memory controller).
    pub read_fraction: f64,
    /// Generator seed.
    pub seed: u64,
}

/// A deterministic, endless stream of page-granularity memory commands
/// with Zipf-skewed page popularity.
///
/// Popularity ranks are scattered across the logical address space by a
/// Feistel permutation, so "hot" pages are not clustered at low
/// addresses (they would not be under a real allocator either).
///
/// # Examples
///
/// ```
/// use twl_workloads::{SyntheticWorkload, WorkloadConfig};
///
/// let mut workload = SyntheticWorkload::new(&WorkloadConfig {
///     pages: 256,
///     footprint: 128,
///     zipf_alpha: 0.8,
///     read_fraction: 0.5,
///     seed: 42,
/// });
/// let cmd = workload.next_cmd();
/// assert!(cmd.la.index() < 256);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    config: WorkloadConfig,
    zipf: Zipf,
    scatter: FeistelPermutation,
    rng: Xoshiro256StarStar,
}

impl SyntheticWorkload {
    /// Creates the generator.
    ///
    /// # Panics
    ///
    /// Panics if `footprint` is zero or exceeds `pages`, or
    /// `read_fraction` is outside `[0, 1]`.
    #[must_use]
    pub fn new(config: &WorkloadConfig) -> Self {
        assert!(
            config.footprint > 0 && config.footprint <= config.pages,
            "footprint must be within the device"
        );
        assert!(
            (0.0..=1.0).contains(&config.read_fraction),
            "read fraction must be a probability"
        );
        let bits = {
            let b = (64 - (config.pages - 1).leading_zeros()).max(2);
            if b.is_multiple_of(2) {
                b
            } else {
                b + 1
            }
        };
        Self {
            config: config.clone(),
            zipf: Zipf::new(config.footprint, config.zipf_alpha),
            scatter: FeistelPermutation::new(bits, config.seed ^ 0x5CA7_7E12, 4),
            rng: Xoshiro256StarStar::seed_from(config.seed),
        }
    }

    /// The configuration the workload runs with.
    #[must_use]
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// Fraction of write traffic hitting the hottest page.
    #[must_use]
    pub fn hottest_share(&self) -> f64 {
        self.zipf.hottest_share()
    }

    /// Scatters a popularity rank to a logical page, cycle-walking the
    /// Feistel permutation back into the page range.
    fn rank_to_page(&self, rank: u64) -> LogicalPageAddr {
        let mut v = rank;
        loop {
            v = self.scatter.permute(v);
            if v < self.config.pages {
                return LogicalPageAddr::new(v);
            }
        }
    }

    /// Produces the next command (read or write).
    pub fn next_cmd(&mut self) -> MemCmd {
        let rank = self.zipf.sample(&mut self.rng);
        let la = self.rank_to_page(rank);
        if self.rng.next_unit_f64() < self.config.read_fraction {
            MemCmd::read(la)
        } else {
            MemCmd::write(la)
        }
    }

    /// Produces the next *write* address, skipping reads (for lifetime
    /// simulation, where only writes matter).
    pub fn next_write_la(&mut self) -> LogicalPageAddr {
        let rank = self.zipf.sample(&mut self.rng);
        self.rank_to_page(rank)
    }
}

impl Iterator for SyntheticWorkload {
    type Item = MemCmd;

    fn next(&mut self) -> Option<MemCmd> {
        Some(self.next_cmd())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn workload(alpha: f64, read_fraction: f64) -> SyntheticWorkload {
        SyntheticWorkload::new(&WorkloadConfig {
            pages: 512,
            footprint: 256,
            zipf_alpha: alpha,
            read_fraction,
            seed: 3,
        })
    }

    #[test]
    fn determinism() {
        let mut a = workload(1.0, 0.5);
        let mut b = workload(1.0, 0.5);
        for _ in 0..100 {
            assert_eq!(a.next_cmd(), b.next_cmd());
        }
    }

    #[test]
    fn footprint_is_respected() {
        let mut w = workload(0.5, 0.0);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..50_000 {
            distinct.insert(w.next_write_la());
        }
        assert!(distinct.len() <= 256);
        assert!(
            distinct.len() > 200,
            "almost all footprint pages should appear"
        );
    }

    #[test]
    fn read_fraction_is_respected() {
        let mut w = workload(0.5, 0.7);
        let reads = (0..20_000).filter(|_| !w.next_cmd().is_write()).count();
        let p = reads as f64 / 20_000.0;
        assert!((p - 0.7).abs() < 0.02, "read fraction = {p}");
    }

    #[test]
    fn hot_page_share_matches_zipf() {
        let mut w = workload(1.2, 0.0);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        let n = 100_000;
        for _ in 0..n {
            *counts.entry(w.next_write_la().index()).or_default() += 1;
        }
        let max = *counts.values().max().unwrap() as f64 / n as f64;
        let expected = w.hottest_share();
        assert!(
            (max - expected).abs() / expected < 0.1,
            "share {max} vs {expected}"
        );
    }

    #[test]
    fn hot_pages_are_scattered() {
        // The two hottest pages should not be adjacent addresses.
        let mut w = workload(1.5, 0.0);
        let mut counts: HashMap<u64, u64> = HashMap::new();
        for _ in 0..50_000 {
            *counts.entry(w.next_write_la().index()).or_default() += 1;
        }
        let mut ranked: Vec<(u64, u64)> = counts.into_iter().collect();
        ranked.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let gap = ranked[0].0.abs_diff(ranked[1].0);
        assert!(
            gap > 1,
            "hottest pages at {} and {}",
            ranked[0].0,
            ranked[1].0
        );
    }

    #[test]
    #[should_panic(expected = "footprint must be within the device")]
    fn oversized_footprint_panics() {
        let _ = SyntheticWorkload::new(&WorkloadConfig {
            pages: 16,
            footprint: 32,
            zipf_alpha: 1.0,
            read_fraction: 0.5,
            seed: 0,
        });
    }
}
