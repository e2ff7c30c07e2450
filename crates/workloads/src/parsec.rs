//! The PARSEC benchmark profiles of Table 2.

use crate::{zipf_alpha_for_hot_share, SyntheticWorkload, WorkloadConfig};
use std::fmt;

/// The 13 PARSEC benchmarks the paper evaluates (Table 2), with their
/// measured write bandwidths and the paper's reported lifetimes.
///
/// Each benchmark can instantiate a calibrated [`SyntheticWorkload`]
/// whose hottest-page write share reproduces the paper's
/// `ideal / lifetime-without-WL` ratio (the locality signal Table 2
/// exposes) — see [`ParsecBenchmark::workload`].
///
/// # Examples
///
/// ```
/// use twl_workloads::ParsecBenchmark;
///
/// let vips = ParsecBenchmark::Vips;
/// assert_eq!(vips.write_bandwidth_mbps(), 3309.0);
/// assert_eq!(vips.ideal_years_paper(), 16.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ParsecBenchmark {
    /// Option pricing (121 MB/s).
    Blackscholes,
    /// Body tracking (271 MB/s).
    Bodytrack,
    /// Simulated annealing (319 MB/s).
    Canneal,
    /// Stream deduplication (1529 MB/s).
    Dedup,
    /// Face simulation (1101 MB/s).
    Facesim,
    /// Content similarity search (1025 MB/s).
    Ferret,
    /// Fluid dynamics (1092 MB/s).
    Fluidanimate,
    /// Frequent itemset mining (491 MB/s).
    Freqmine,
    /// Raytracing (351 MB/s).
    Rtview,
    /// Online clustering (12 MB/s).
    Streamcluster,
    /// Portfolio pricing (120 MB/s).
    Swaptions,
    /// Image processing (3309 MB/s).
    Vips,
    /// Video encoding (538 MB/s).
    X264,
}

/// Table 2 row: (name, write bandwidth MB/s, ideal years, NOWL years).
type Row = (&'static str, f64, f64, f64);

impl ParsecBenchmark {
    /// All 13 benchmarks, in Table 2 order.
    pub const ALL: [ParsecBenchmark; 13] = [
        Self::Blackscholes,
        Self::Bodytrack,
        Self::Canneal,
        Self::Dedup,
        Self::Facesim,
        Self::Ferret,
        Self::Fluidanimate,
        Self::Freqmine,
        Self::Rtview,
        Self::Streamcluster,
        Self::Swaptions,
        Self::Vips,
        Self::X264,
    ];

    fn row(&self) -> Row {
        match self {
            Self::Blackscholes => ("blackscholes", 121.0, 446.0, 14.5),
            Self::Bodytrack => ("bodytrack", 271.0, 199.0, 8.0),
            Self::Canneal => ("canneal", 319.0, 169.0, 2.9),
            Self::Dedup => ("dedup", 1529.0, 35.0, 2.5),
            Self::Facesim => ("facesim", 1101.0, 49.0, 3.0),
            Self::Ferret => ("ferret", 1025.0, 52.0, 1.2),
            Self::Fluidanimate => ("fluidanimate", 1092.0, 49.0, 2.0),
            Self::Freqmine => ("freqmine", 491.0, 110.0, 6.4),
            Self::Rtview => ("rtview", 351.0, 154.0, 5.4),
            Self::Streamcluster => ("streamcluster", 12.0, 4229.0, 132.2),
            Self::Swaptions => ("swaptions", 120.0, 449.0, 12.8),
            Self::Vips => ("vips", 3309.0, 16.0, 0.9),
            Self::X264 => ("x264", 538.0, 100.0, 2.0),
        }
    }

    /// Benchmark name as printed in the paper.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.row().0
    }

    /// Measured write bandwidth in MB/s (Table 2).
    #[must_use]
    pub fn write_bandwidth_mbps(&self) -> f64 {
        self.row().1
    }

    /// Ideal lifetime in years the paper reports (Table 2).
    #[must_use]
    pub fn ideal_years_paper(&self) -> f64 {
        self.row().2
    }

    /// Lifetime without wear leveling the paper reports (Table 2).
    #[must_use]
    pub fn nowl_years_paper(&self) -> f64 {
        self.row().3
    }

    /// The `ideal / without-WL` lifetime ratio — the locality signal
    /// used to calibrate the synthetic workload's Zipf exponent.
    #[must_use]
    pub fn locality_ratio(&self) -> f64 {
        self.ideal_years_paper() / self.nowl_years_paper()
    }

    /// Builds the calibrated synthetic workload for a device of `pages`
    /// logical pages.
    ///
    /// The hottest page's write share is set to `locality_ratio / pages`
    /// (the value that makes a no-wear-leveling simulation reproduce the
    /// paper's Table 2 ratio in expectation); the footprint is half the
    /// device.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is too small for the benchmark's locality ratio
    /// (needs `pages` ≳ 4 × ratio; every Table 2 ratio fits at 1024+).
    #[must_use]
    pub fn workload(&self, pages: u64, seed: u64) -> SyntheticWorkload {
        let footprint = (pages / 2).max(2);
        let hot_share = self.locality_ratio() / pages as f64;
        let alpha = zipf_alpha_for_hot_share(hot_share, footprint);
        SyntheticWorkload::new(&WorkloadConfig {
            pages,
            footprint,
            zipf_alpha: alpha,
            read_fraction: 0.55,
            seed: seed ^ (self.row().1.to_bits()),
        })
    }
}

impl fmt::Display for ParsecBenchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_is_complete_and_positive() {
        assert_eq!(ParsecBenchmark::ALL.len(), 13);
        for b in ParsecBenchmark::ALL {
            assert!(b.write_bandwidth_mbps() > 0.0);
            assert!(b.ideal_years_paper() > b.nowl_years_paper());
        }
    }

    #[test]
    fn ideal_years_follow_inverse_bandwidth_law() {
        // Table 2 satisfies ideal ≈ 53966 / BW (DESIGN.md §3); verify
        // every row to within 7 % (streamcluster is the paper's own
        // outlier at ~6 %).
        for b in ParsecBenchmark::ALL {
            let predicted = 53_966.0 / b.write_bandwidth_mbps();
            let rel = (predicted - b.ideal_years_paper()).abs() / b.ideal_years_paper();
            assert!(
                rel < 0.07,
                "{}: predicted {predicted}, paper {}",
                b,
                b.ideal_years_paper()
            );
        }
    }

    #[test]
    fn locality_ratios_span_expected_range() {
        for b in ParsecBenchmark::ALL {
            let r = b.locality_ratio();
            assert!((10.0..70.0).contains(&r), "{b}: ratio {r}");
        }
    }

    #[test]
    fn workloads_build_for_default_device() {
        for b in ParsecBenchmark::ALL {
            let mut w = b.workload(8192, 1);
            let cmd = w.next_cmd();
            assert!(cmd.la.index() < 8192);
        }
    }

    #[test]
    fn display_matches_name() {
        assert_eq!(ParsecBenchmark::Canneal.to_string(), "canneal");
    }
}
