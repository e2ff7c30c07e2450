//! Uniform wear-leveling accounting.

use crate::WriteOutcome;

/// Running statistics every [`WearLeveler`](crate::WearLeveler) maintains.
///
/// The two ratios the paper reports come straight from these counters:
///
/// * **swap/write ratio** (Fig. 7a) = `swaps / logical_writes`;
/// * **extra-write ratio** = `(device_writes − logical_writes) /
///   logical_writes` (§5.2 quotes ≈2.2 % for toss-up interval 32).
///
/// # Examples
///
/// ```
/// use twl_pcm::PhysicalPageAddr;
/// use twl_wl_core::{WlStats, WriteOutcome};
///
/// let mut stats = WlStats::new();
/// stats.record_write(&WriteOutcome::plain(PhysicalPageAddr::new(0)));
/// assert_eq!(stats.logical_writes, 1);
/// assert_eq!(stats.swap_per_write(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WlStats {
    /// Logical write requests serviced.
    pub logical_writes: u64,
    /// Device page writes performed (≥ `logical_writes`).
    pub device_writes: u64,
    /// Page swaps / migrations performed.
    pub swaps: u64,
    /// Total engine (table/logic) cycles added on the request path.
    pub engine_cycles: u64,
    /// Total cycles the memory was blocked by migrations.
    pub blocking_cycles: u64,
}

impl WlStats {
    /// Creates zeroed statistics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one write outcome into the totals.
    pub fn record_write(&mut self, outcome: &WriteOutcome) {
        self.logical_writes += 1;
        self.device_writes += u64::from(outcome.device_writes);
        if outcome.swapped {
            self.swaps += 1;
        }
        self.engine_cycles += outcome.engine_cycles;
        self.blocking_cycles += outcome.blocking_cycles;
    }

    /// Folds `n` identical write outcomes into the totals in O(1) — the
    /// accounting arm of the batched fast path.
    pub fn record_write_n(&mut self, outcome: &WriteOutcome, n: u64) {
        self.logical_writes += n;
        self.device_writes += n * u64::from(outcome.device_writes);
        if outcome.swapped {
            self.swaps += n;
        }
        self.engine_cycles += n * outcome.engine_cycles;
        self.blocking_cycles += n * outcome.blocking_cycles;
    }

    /// Folds another accumulator's totals into these — the flush arm of
    /// batch loops that record into a local `WlStats` and merge once.
    /// Every field is a sum, so `absorb` of a local accumulator is
    /// identical to having recorded each write here directly.
    pub fn absorb(&mut self, other: &WlStats) {
        self.logical_writes += other.logical_writes;
        self.device_writes += other.device_writes;
        self.swaps += other.swaps;
        self.engine_cycles += other.engine_cycles;
        self.blocking_cycles += other.blocking_cycles;
    }

    /// Swap operations per logical write (Fig. 7a's y-axis).
    #[must_use]
    pub fn swap_per_write(&self) -> f64 {
        if self.logical_writes == 0 {
            0.0
        } else {
            self.swaps as f64 / self.logical_writes as f64
        }
    }

    /// Fraction of device writes that are overhead.
    ///
    /// Saturates at 0.0 when `device_writes < logical_writes` (possible
    /// for hand-built stats or partially recorded outcomes) rather than
    /// wrapping the subtraction.
    #[must_use]
    pub fn extra_write_ratio(&self) -> f64 {
        if self.logical_writes == 0 {
            0.0
        } else {
            self.device_writes.saturating_sub(self.logical_writes) as f64
                / self.logical_writes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PhysicalPageAddr;

    #[test]
    fn ratios_from_mixed_outcomes() {
        let mut stats = WlStats::new();
        stats.record_write(&WriteOutcome::plain(PhysicalPageAddr::new(0)));
        stats.record_write(&WriteOutcome {
            pa: PhysicalPageAddr::new(1),
            device_writes: 2,
            swapped: true,
            engine_cycles: 9,
            blocking_cycles: 2250,
        });
        assert_eq!(stats.logical_writes, 2);
        assert_eq!(stats.device_writes, 3);
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.swap_per_write(), 0.5);
        assert_eq!(stats.extra_write_ratio(), 0.5);
        assert_eq!(stats.engine_cycles, 9);
        assert_eq!(stats.blocking_cycles, 2250);
    }

    #[test]
    fn record_write_n_matches_repeated_record_write() {
        let outcome = WriteOutcome {
            pa: PhysicalPageAddr::new(1),
            device_writes: 2,
            swapped: true,
            engine_cycles: 9,
            blocking_cycles: 50,
        };
        let mut bulk = WlStats::new();
        bulk.record_write_n(&outcome, 5);
        let mut seq = WlStats::new();
        for _ in 0..5 {
            seq.record_write(&outcome);
        }
        assert_eq!(bulk, seq);
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let stats = WlStats::new();
        assert_eq!(stats.swap_per_write(), 0.0);
        assert_eq!(stats.extra_write_ratio(), 0.0);
    }

    #[test]
    fn zero_write_ratios_are_finite_not_nan() {
        let stats = WlStats::new();
        assert!(stats.swap_per_write().is_finite());
        assert!(stats.extra_write_ratio().is_finite());
    }

    #[test]
    fn extra_write_ratio_saturates_below_parity() {
        // device_writes < logical_writes must clamp to 0.0, not wrap to
        // a huge u64 difference.
        let stats = WlStats {
            logical_writes: 10,
            device_writes: 7,
            ..WlStats::default()
        };
        assert_eq!(stats.extra_write_ratio(), 0.0);
    }
}
