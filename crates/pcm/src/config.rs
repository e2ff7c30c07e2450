//! Device configuration and builder.

use crate::{PcmError, PcmTiming};
use twl_rng::GaussianSampler;

/// Configuration of a simulated PCM device.
///
/// The paper's nominal device (Table 1) is 32 GB with 4 KB pages —
/// 8 388 608 pages of mean endurance 10⁸. Simulating wear at that scale
/// needs ~10¹⁵ writes, so experiments run a *scaled* device (fewer pages,
/// lower endurance) and convert results back to nominal years; all scheme
/// behaviour is invariant under the joint scaling (see `DESIGN.md` §3).
///
/// Construct via [`PcmConfig::builder`] or the presets.
///
/// # Examples
///
/// ```
/// use twl_pcm::PcmConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder()
///     .pages(4096)
///     .mean_endurance(100_000)
///     .sigma_fraction(0.11)
///     .seed(1)
///     .build()?;
/// assert_eq!(config.pages, 4096);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PcmConfig {
    /// Number of pages in the device. Must be ≥ 2 and even (pairing
    /// schemes bond pages two by two).
    pub pages: u64,
    /// Page size in bytes (nominal: 4096).
    pub page_size_bytes: u64,
    /// Line size in bytes (nominal: 128; a page holds 32 lines).
    pub line_size_bytes: u64,
    /// Mean of the Gaussian endurance distribution (nominal: 10⁸).
    pub mean_endurance: u64,
    /// Standard deviation of endurance as a fraction of the mean
    /// (paper: 0.11).
    pub sigma_fraction: f64,
    /// Seed of the process-variation draw.
    pub seed: u64,
    /// Number of banks (Table 1: 32) — used by the timing model.
    pub banks: u32,
    /// Access latencies.
    pub timing: PcmTiming,
}

impl PcmConfig {
    /// Starts building a configuration from the scaled defaults.
    #[must_use]
    pub fn builder() -> PcmConfigBuilder {
        PcmConfigBuilder::new()
    }

    /// The paper's nominal (unscaled) device: 32 GB, 4 KB pages, mean
    /// endurance 10⁸, σ = 11 %.
    ///
    /// This configuration is what the years calibration refers to; do not
    /// run wear simulations against it directly.
    #[must_use]
    pub fn nominal_dac17() -> Self {
        Self {
            pages: 32 * 1024 * 1024 * 1024 / 4096,
            page_size_bytes: 4096,
            line_size_bytes: 128,
            mean_endurance: 100_000_000,
            sigma_fraction: 0.11,
            seed: 0,
            banks: 32,
            timing: PcmTiming::dac17(),
        }
    }

    /// A scaled device suitable for lifetime simulation: same page
    /// geometry and σ as nominal, with the given page count and mean
    /// endurance.
    ///
    /// # Panics
    ///
    /// Panics if the parameters are invalid (see [`PcmConfigBuilder::build`]).
    #[must_use]
    pub fn scaled(pages: u64, mean_endurance: u64, seed: u64) -> Self {
        Self::builder()
            .pages(pages)
            .mean_endurance(mean_endurance)
            .seed(seed)
            .build()
            .expect("scaled preset parameters are valid")
    }

    /// Device capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.pages * self.page_size_bytes
    }

    /// Lines per page.
    #[must_use]
    pub fn lines_per_page(&self) -> u64 {
        self.page_size_bytes / self.line_size_bytes
    }

    /// The fields the endurance map is drawn from — seed, pages, mean
    /// endurance and `sigma_fraction.to_bits()` — as a key: configs with
    /// equal keys draw equal maps (see [`crate::EnduranceMap::generate`]).
    #[must_use]
    pub fn endurance_key(&self) -> (u64, u64, u64, u64) {
        (
            self.seed,
            self.pages,
            self.mean_endurance,
            self.sigma_fraction.to_bits(),
        )
    }

    /// The Gaussian the endurance map is drawn from.
    pub(crate) fn endurance_sampler(&self) -> GaussianSampler {
        GaussianSampler::new(
            self.mean_endurance as f64,
            self.sigma_fraction * self.mean_endurance as f64,
        )
    }

    /// Scale factor between this device's total endurance and the
    /// nominal DAC'17 device's, used by the years calibration.
    #[must_use]
    pub fn endurance_scale_vs_nominal(&self) -> f64 {
        let nominal = Self::nominal_dac17();
        (nominal.pages as f64 * nominal.mean_endurance as f64)
            / (self.pages as f64 * self.mean_endurance as f64)
    }
}

impl Default for PcmConfig {
    fn default() -> Self {
        Self::scaled(8192, 100_000, 0)
    }
}

/// Builder for [`PcmConfig`].
///
/// Defaults to the scaled simulation device: 8192 pages, 4 KB pages,
/// mean endurance 10⁵, σ = 11 %, DAC'17 timing.
#[derive(Debug, Clone)]
pub struct PcmConfigBuilder {
    config: PcmConfig,
}

impl PcmConfigBuilder {
    /// Creates a builder with scaled-simulation defaults.
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: PcmConfig {
                pages: 8192,
                page_size_bytes: 4096,
                line_size_bytes: 128,
                mean_endurance: 100_000,
                sigma_fraction: 0.11,
                seed: 0,
                banks: 32,
                timing: PcmTiming::dac17(),
            },
        }
    }

    /// Sets the number of pages.
    pub fn pages(&mut self, pages: u64) -> &mut Self {
        self.config.pages = pages;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_size_bytes(&mut self, bytes: u64) -> &mut Self {
        self.config.page_size_bytes = bytes;
        self
    }

    /// Sets the line size in bytes.
    pub fn line_size_bytes(&mut self, bytes: u64) -> &mut Self {
        self.config.line_size_bytes = bytes;
        self
    }

    /// Sets the mean endurance.
    pub fn mean_endurance(&mut self, writes: u64) -> &mut Self {
        self.config.mean_endurance = writes;
        self
    }

    /// Sets the endurance standard deviation as a fraction of the mean.
    pub fn sigma_fraction(&mut self, fraction: f64) -> &mut Self {
        self.config.sigma_fraction = fraction;
        self
    }

    /// Sets the process-variation seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.config.seed = seed;
        self
    }

    /// Sets the bank count.
    pub fn banks(&mut self, banks: u32) -> &mut Self {
        self.config.banks = banks;
        self
    }

    /// Sets the timing parameters.
    pub fn timing(&mut self, timing: PcmTiming) -> &mut Self {
        self.config.timing = timing;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::InvalidConfig`] if any of the following hold:
    /// fewer than 2 pages, more than `u32::MAX` pages, odd page count,
    /// zero page/line size, line size not dividing page size, zero mean
    /// endurance, σ fraction outside `[0, 1)`, a mean and σ whose
    /// Gaussian could draw an endurance past `u32::MAX` (the endurance
    /// table's width; see [`twl_rng::GaussianSampler::max_sample`]), or
    /// zero banks.
    pub fn build(&self) -> Result<PcmConfig, PcmError> {
        let c = &self.config;
        if c.pages < 2 {
            return Err(PcmError::InvalidConfig(
                "device needs at least 2 pages".into(),
            ));
        }
        if c.pages > u64::from(u32::MAX) {
            return Err(PcmError::InvalidConfig(format!(
                "{} pages exceed the page tables' limit of {}",
                c.pages,
                u32::MAX
            )));
        }
        if !c.pages.is_multiple_of(2) {
            return Err(PcmError::InvalidConfig(
                "page count must be even so pairing schemes can bond all pages".into(),
            ));
        }
        if c.page_size_bytes == 0 || c.line_size_bytes == 0 {
            return Err(PcmError::InvalidConfig(
                "page and line sizes must be positive".into(),
            ));
        }
        if !c.page_size_bytes.is_multiple_of(c.line_size_bytes) {
            return Err(PcmError::InvalidConfig(
                "line size must divide page size".into(),
            ));
        }
        if c.mean_endurance == 0 {
            return Err(PcmError::InvalidConfig(
                "mean endurance must be positive".into(),
            ));
        }
        if !(0.0..1.0).contains(&c.sigma_fraction) {
            return Err(PcmError::InvalidConfig(
                "sigma fraction must lie in [0, 1)".into(),
            ));
        }
        let max_draw = c.endurance_sampler().max_sample();
        if max_draw > f64::from(u32::MAX) {
            return Err(PcmError::InvalidConfig(format!(
                "mean endurance {} with sigma fraction {} can draw endurances up to {max_draw:.0}, \
                 past the endurance table's limit of {}",
                c.mean_endurance,
                c.sigma_fraction,
                u32::MAX
            )));
        }
        if c.banks == 0 {
            return Err(PcmError::InvalidConfig(
                "bank count must be positive".into(),
            ));
        }
        Ok(c.clone())
    }
}

impl Default for PcmConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_matches_table1() {
        let c = PcmConfig::nominal_dac17();
        assert_eq!(c.capacity_bytes(), 32 * 1024 * 1024 * 1024);
        assert_eq!(c.pages, 8_388_608);
        assert_eq!(c.lines_per_page(), 32);
        assert_eq!(c.mean_endurance, 100_000_000);
        assert_eq!(c.banks, 32);
    }

    #[test]
    fn builder_validates() {
        assert!(PcmConfig::builder().pages(1).build().is_err());
        assert!(PcmConfig::builder().pages(3).build().is_err());
        assert!(PcmConfig::builder().mean_endurance(0).build().is_err());
        assert!(PcmConfig::builder().sigma_fraction(1.5).build().is_err());
        assert!(PcmConfig::builder().sigma_fraction(-0.1).build().is_err());
        assert!(PcmConfig::builder().line_size_bytes(100).build().is_err());
        assert!(PcmConfig::builder().banks(0).build().is_err());
        assert!(PcmConfig::builder().build().is_ok());
    }

    #[test]
    fn builder_refuses_endurance_draws_past_u32() {
        // 12.5 σ above the mean must stay within `u32::MAX`.
        let fits = |mean, sigma| {
            PcmConfig::builder()
                .mean_endurance(mean)
                .sigma_fraction(sigma)
                .build()
        };
        assert!(fits(100_000_000, 0.11).is_ok(), "the paper's device");
        assert!(fits(1_000_000_000, 0.11).is_ok());
        assert!(fits(u64::from(u32::MAX), 0.0).is_ok());
        for (mean, sigma) in [(u64::from(u32::MAX) + 1, 0.0), (2_000_000_000, 0.11)] {
            match fits(mean, sigma) {
                Err(PcmError::InvalidConfig(msg)) => assert!(
                    msg.contains(&format!("mean endurance {mean}"))
                        && msg.contains("limit of 4294967295"),
                    "{msg}"
                ),
                other => panic!("mean {mean}, sigma {sigma}: {other:?}"),
            }
        }
        let wide = PcmConfig::builder().pages(1 << 33).build().unwrap_err();
        assert!(wide.to_string().contains("8589934592 pages"), "{wide}");
    }

    #[test]
    fn endurance_scale_vs_nominal_is_consistent() {
        let scaled = PcmConfig::scaled(8192, 100_000, 0);
        let f = scaled.endurance_scale_vs_nominal();
        let expected = (8_388_608.0 * 1e8) / (8192.0 * 1e5);
        assert!((f / expected - 1.0).abs() < 1e-12);
    }

    #[test]
    fn default_is_valid() {
        let c = PcmConfig::default();
        assert!(c.pages >= 2);
    }
}
