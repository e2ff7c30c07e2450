//! Latency-based swap-phase detection (§3.2, footnote 1).

use twl_wl_core::WriteOutcome;

/// Detects swap phases from per-request response times.
///
/// "Memory swaps will block all memory requests to ensure memory
/// integrity, which leads to an increase in memory response time" — the
/// attacker thresholds that increase. Epoch-style schemes (WRL, BWL)
/// migrate many pages at once, producing a blocking spike orders of
/// magnitude above a single background swap; the detector's threshold is
/// set between the two regimes so TWL's per-pair swaps do *not* trigger
/// it (reversing against TWL is pointless anyway — that is the point of
/// the paper).
///
/// # Examples
///
/// ```
/// use twl_attacks::SwapDetector;
/// use twl_pcm::PhysicalPageAddr;
/// use twl_wl_core::WriteOutcome;
///
/// let mut detector = SwapDetector::new(10_000);
/// let mut out = WriteOutcome::plain(PhysicalPageAddr::new(0));
/// assert!(!detector.observe(&out));
/// out.blocking_cycles = 50_000;
/// assert!(detector.observe(&out));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SwapDetector {
    threshold_cycles: u64,
    detections: u64,
}

impl SwapDetector {
    /// Creates a detector firing when one request blocks for at least
    /// `threshold_cycles`.
    #[must_use]
    pub fn new(threshold_cycles: u64) -> Self {
        Self {
            threshold_cycles,
            detections: 0,
        }
    }

    /// A threshold suited to page-granularity devices: eight page
    /// migrations' worth of blocking (single pair swaps stay below it,
    /// bulk epoch swaps exceed it).
    #[must_use]
    pub fn for_page_migration_cycles(migrate_latency: u64) -> Self {
        Self::new(migrate_latency * 8)
    }

    /// Feeds one observed response; returns `true` when a swap phase is
    /// detected.
    pub fn observe(&mut self, outcome: &WriteOutcome) -> bool {
        if outcome.blocking_cycles >= self.threshold_cycles {
            self.detections += 1;
            twl_telemetry::counter!("twl.attacks.detections").inc();
            true
        } else {
            false
        }
    }

    /// Number of swap phases detected so far.
    #[must_use]
    pub fn detections(&self) -> u64 {
        self.detections
    }

    /// The configured threshold.
    #[must_use]
    pub fn threshold_cycles(&self) -> u64 {
        self.threshold_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PhysicalPageAddr;

    #[test]
    fn counts_detections() {
        let mut d = SwapDetector::new(100);
        let mut out = WriteOutcome::plain(PhysicalPageAddr::new(0));
        for i in 0..10u64 {
            out.blocking_cycles = i * 30;
            d.observe(&out);
        }
        // blocking 120, 150, ..., 270 exceed 100: that is 6 events
        // (i = 4..=9 gives 120..270).
        assert_eq!(d.detections(), 6);
    }

    #[test]
    fn page_migration_preset_ignores_single_swaps() {
        let d = SwapDetector::for_page_migration_cycles(2250);
        assert!(
            d.threshold_cycles() > 2 * 2250,
            "one pair swap must stay silent"
        );
    }
}
