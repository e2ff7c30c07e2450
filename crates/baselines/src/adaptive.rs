//! Security-level-adjustable wear leveling: Security Refresh driven by
//! an online attack monitor.
//!
//! Combines the ideas of the paper's references \[7\] (Security-RBSG:
//! dynamic mapping with adjustable security levels) and \[11\]
//! (Qureshi+ HPCA 2011: online detection of malicious write streams):
//! the scheme runs Security Refresh at its configured (cheap) rate on
//! benign traffic, and multiplies the refresh rate while a
//! [`AttackMonitor`] window flags write-stream concentration.
//!
//! The payoff shows when the base rate is too slow for the endurance
//! scale (e.g. the paper's nominal interval of 128 on a scaled device):
//! static SR then collapses under a repeat attack, while the adaptive
//! variant detects the concentration within one window and refreshes
//! fast enough to survive — without paying the fast-refresh write
//! overhead on benign workloads. See the `extension_adaptive` bench.

use crate::{SecurityRefresh, SrConfig, SrError};
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_wl_core::{AttackMonitor, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// Security Refresh with monitor-driven security levels.
///
/// # Examples
///
/// ```
/// use twl_baselines::{AdaptiveSecurityRefresh, SrConfig};
/// use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
/// use twl_wl_core::WearLeveler;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pcm = PcmConfig::builder().pages(256).mean_endurance(100_000).build()?;
/// let mut device = PcmDevice::new(&pcm);
/// let mut scheme = AdaptiveSecurityRefresh::new(&SrConfig::for_pages(256)?, 256, 8)?;
/// scheme.write(LogicalPageAddr::new(1), &mut device)?;
/// assert!(!scheme.boosted());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveSecurityRefresh {
    sr: SecurityRefresh,
    monitor: AttackMonitor,
    attack_boost: u64,
    boosted: bool,
    boost_windows: u64,
}

impl AdaptiveSecurityRefresh {
    /// Creates the scheme: Security Refresh configured by `config`, a
    /// default attack monitor, and a refresh-rate multiplier of
    /// `attack_boost` applied while under suspicion.
    ///
    /// # Errors
    ///
    /// Returns [`SrError`] if the Security Refresh configuration is
    /// invalid for `pages`.
    ///
    /// # Panics
    ///
    /// Panics if `attack_boost == 0`.
    pub fn new(config: &SrConfig, pages: u64, attack_boost: u64) -> Result<Self, SrError> {
        assert!(attack_boost > 0, "boost must be positive");
        Ok(Self {
            sr: SecurityRefresh::new(config, pages)?,
            monitor: AttackMonitor::for_pages(),
            attack_boost,
            boosted: false,
            boost_windows: 0,
        })
    }

    /// Whether the refresh rate is currently boosted.
    #[must_use]
    pub fn boosted(&self) -> bool {
        self.boosted
    }

    /// Number of monitor windows spent boosted.
    #[must_use]
    pub fn boost_windows(&self) -> u64 {
        self.boost_windows
    }
}

impl WearLeveler for AdaptiveSecurityRefresh {
    fn name(&self) -> &str {
        "SR_adaptive"
    }

    fn page_count(&self) -> u64 {
        self.sr.page_count()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.sr.translate(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // Same write machinery as the wrapped Security Refresh; rate
        // boosts change *when* refreshes fire, not how many device
        // writes one logical write can cause.
        self.sr.write_batch_cap(wear_margin)
    }

    // The quiet-stretch hooks stay at their defaults: every write must
    // pass the attack monitor below, so batches run the scalar loop.
    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        if self.monitor.observe_write(la, None) || self.monitor.under_attack() != self.boosted {
            self.boosted = self.monitor.under_attack();
            let boost = if self.boosted { self.attack_boost } else { 1 };
            self.sr.set_rate_boost(boost);
        }
        if self.boosted {
            self.boost_windows += 1;
        }
        self.sr.write(la, device)
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        self.sr.read(la, device)
    }

    fn stats(&self) -> &WlStats {
        self.sr.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;

    #[test]
    fn boost_engages_under_repeat_traffic() {
        let pages = 256u64;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000_000)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut scheme =
            AdaptiveSecurityRefresh::new(&SrConfig::for_pages(pages).unwrap(), pages, 8).unwrap();
        for _ in 0..40_000u64 {
            scheme.write(LogicalPageAddr::new(0), &mut device).unwrap();
        }
        assert!(scheme.boosted(), "repeat traffic must trigger the boost");
        // Boosted refresh shows up as a higher extra-write ratio than
        // the nominal 2/128 + 2/128 ≈ 3.1 %.
        assert!(scheme.stats().extra_write_ratio() > 0.05);
    }

    #[test]
    fn boost_disengages_on_benign_traffic() {
        let pages = 256u64;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000_000)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut scheme =
            AdaptiveSecurityRefresh::new(&SrConfig::for_pages(pages).unwrap(), pages, 8).unwrap();
        for _ in 0..20_000u64 {
            scheme.write(LogicalPageAddr::new(0), &mut device).unwrap();
        }
        assert!(scheme.boosted());
        for i in 0..40_000u64 {
            scheme
                .write(LogicalPageAddr::new(i % pages), &mut device)
                .unwrap();
        }
        assert!(!scheme.boosted(), "uniform traffic must clear the boost");
    }

    #[test]
    fn benign_overhead_matches_plain_sr() {
        let pages = 512u64;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000_000)
            .build()
            .unwrap();
        let config = SrConfig::for_pages(pages).unwrap();

        let mut device_a = PcmDevice::new(&pcm);
        let mut plain = SecurityRefresh::new(&config, pages).unwrap();
        let mut device_b = PcmDevice::new(&pcm);
        let mut adaptive = AdaptiveSecurityRefresh::new(&config, pages, 8).unwrap();
        for i in 0..50_000u64 {
            plain
                .write(LogicalPageAddr::new(i % pages), &mut device_a)
                .unwrap();
            adaptive
                .write(LogicalPageAddr::new(i % pages), &mut device_b)
                .unwrap();
        }
        let a = plain.stats().extra_write_ratio();
        let b = adaptive.stats().extra_write_ratio();
        assert!((a - b).abs() < 0.005, "plain {a} vs adaptive {b}");
    }
}
