//! The "no wear leveling" baseline (NOWL in the paper's figures).

use crate::{ReadOutcome, WearLeveler, WlStats, WriteOutcome};
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};

/// Identity mapping with zero overhead: logical page *i* is physical
/// page *i*, forever.
///
/// This is the paper's `NOWL` reference point in Figs. 6, 8 and Table 2's
/// "Lifetime w/o WL" column. Under any localized write pattern it dies as
/// fast as its hottest weak page allows.
///
/// # Examples
///
/// ```
/// use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
/// use twl_wl_core::{Nowl, WearLeveler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder().pages(8).mean_endurance(100).seed(0).build()?;
/// let mut device = PcmDevice::new(&config);
/// let mut nowl = Nowl::new(8);
/// let out = nowl.write(LogicalPageAddr::new(3), &mut device)?;
/// assert_eq!(out.pa.index(), 3);
/// assert_eq!(nowl.stats().device_writes, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Nowl {
    pages: u64,
    stats: WlStats,
}

impl Nowl {
    /// Creates the baseline over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`.
    #[must_use]
    pub fn new(pages: u64) -> Self {
        assert!(pages > 0, "device must have pages");
        Self {
            pages,
            stats: WlStats::new(),
        }
    }
}

impl WearLeveler for Nowl {
    fn name(&self) -> &str {
        "NOWL"
    }

    fn page_count(&self) -> u64 {
        self.pages
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        PhysicalPageAddr::new(la.index())
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // Identity mapping, one device write per logical write: a batch
        // of `n` grows exactly one page's wear by exactly `n`.
        wear_margin.saturating_sub(1).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let pa = self.translate(la);
        device.write_page(pa)?;
        let outcome = WriteOutcome::plain(pa);
        self.stats.record_write(&outcome);
        Ok(outcome)
    }

    fn quiet_writes(&self, la: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
        // NOWL has no events at all: a whole batch is one quiet stretch.
        (self.translate(la), u64::MAX)
    }

    fn record_quiet(&mut self, _: LogicalPageAddr, pa: PhysicalPageAddr, n: u64) -> WriteOutcome {
        let outcome = WriteOutcome::plain(pa);
        self.stats.record_write_n(&outcome, n);
        outcome
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome::plain(pa))
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;

    #[test]
    fn repeat_writes_kill_one_page() {
        let config = PcmConfig::builder()
            .pages(4)
            .mean_endurance(10)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&config);
        let mut nowl = Nowl::new(4);
        let la = LogicalPageAddr::new(1);
        for _ in 0..10 {
            nowl.write(la, &mut device).unwrap();
        }
        let err = nowl.write(la, &mut device).unwrap_err();
        assert!(matches!(err, PcmError::PageWornOut { addr, .. } if addr.index() == 1));
        assert_eq!(nowl.stats().logical_writes, 10);
        assert_eq!(nowl.stats().swaps, 0);
    }

    #[test]
    fn write_batch_matches_sequential_writes() {
        let config = PcmConfig::builder()
            .pages(4)
            .mean_endurance(10)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let mut dev_bulk = PcmDevice::new(&config);
        let mut dev_seq = PcmDevice::new(&config);
        let mut bulk = Nowl::new(4);
        let mut seq = Nowl::new(4);
        let la = LogicalPageAddr::new(2);
        // 15 > endurance 10: the batch must stop at the failing write.
        let batch = bulk.write_batch(la, 15, &mut dev_bulk);
        let mut seq_serviced = 0;
        let seq_failure = loop {
            match seq.write(la, &mut dev_seq) {
                Ok(_) => seq_serviced += 1,
                Err(e) => break e,
            }
        };
        assert_eq!(batch.serviced, seq_serviced);
        assert_eq!(batch.failure, Some(seq_failure));
        assert_eq!(bulk.stats(), seq.stats());
        assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters());
        assert_eq!(
            batch.last,
            Some(WriteOutcome::plain(PhysicalPageAddr::new(2)))
        );
    }

    #[test]
    fn read_has_no_side_effects() {
        let config = PcmConfig::builder().pages(4).build().unwrap();
        let device = PcmDevice::new(&config);
        let mut nowl = Nowl::new(4);
        let r = nowl.read(LogicalPageAddr::new(2), &device).unwrap();
        assert_eq!(r.pa.index(), 2);
        assert_eq!(nowl.stats().logical_writes, 0);
    }
}
