//! The `WearLeveler` trait.

use crate::{BatchOutcome, ReadOutcome, WlStats, WriteOutcome};
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};

/// A wear-leveling scheme sitting between logical addresses and a
/// [`PcmDevice`].
///
/// Implementations own their mapping state (remapping tables or keyed
/// permutations) and perform all device writes a request implies —
/// including migrations — so the wear they cause is accounted exactly
/// where the scheme decides to put it. The simulators in `twl-lifetime`
/// and `twl-memctrl` drive any `dyn WearLeveler` identically; the trait
/// is object-safe on purpose.
///
/// # Errors
///
/// `write` propagates [`PcmError::PageWornOut`] from the device; the
/// first such error defines the device's lifetime in the paper's
/// methodology. An error may surface from a *migration* write, not only
/// from the requested page — wear-out during a swap still kills the
/// device.
///
/// `Send` is a supertrait: schemes are plain tables and RNG state, and
/// services (`twl-serviced` workers, `twl-blockd` connection threads)
/// move or share `Box<dyn WearLeveler>` across threads.
pub trait WearLeveler: Send {
    /// A short human-readable scheme name (`"TWL_swp"`, `"SR"`, …).
    fn name(&self) -> &str;

    /// Number of pages the scheme manages.
    fn page_count(&self) -> u64;

    /// Current logical→physical translation (the read path of Fig. 5a).
    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr;

    /// Services a logical write, performing every device write it
    /// implies.
    ///
    /// # Errors
    ///
    /// Returns the device's [`PcmError`] on wear-out or bad addressing.
    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError>;

    /// Services `n` consecutive writes to the same logical page.
    ///
    /// This is the scheme-level hook of the event-skipping fast path.
    /// The contract is strict: for any scheme state, `write_batch(la, n)`
    /// must leave the scheme, its stats, and the device in exactly the
    /// state `n` sequential `write(la)` calls would have, and must stop
    /// at the first failing write (reporting it in
    /// [`BatchOutcome::failure`] with the completed count in
    /// [`BatchOutcome::serviced`]). The default implementation simply
    /// loops the scalar path, so every scheme is correct for free;
    /// schemes whose inter-event write path is deterministic (the TWL
    /// engine, NOWL, BWL, Start-Gap) override it to fast-forward plain
    /// stretches with bulk device writes.
    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        // Plain locals, not a `BatchOutcome` filled in place: the
        // lifetime simulator's per-write oracle runs through this loop,
        // and this shape hands the outcome back with one copy, not two.
        let mut serviced = 0;
        let mut last = None;
        while serviced < n {
            match self.write(la, device) {
                Ok(outcome) => {
                    serviced += 1;
                    last = Some(outcome);
                }
                Err(e) => {
                    return BatchOutcome {
                        serviced,
                        last,
                        failure: Some(e),
                    };
                }
            }
        }
        BatchOutcome {
            serviced,
            last,
            failure: None,
        }
    }

    /// Largest batch of same-page logical writes guaranteed to grow any
    /// single physical page's wear by *strictly less than* `wear_margin`
    /// device writes.
    ///
    /// This is the pacing hook of the exact batched degradation loop:
    /// the fault simulator knows how far every page is from its next
    /// observable fault event (its *wear margin*) and asks the scheme
    /// how many logical writes it can absorb without any page crossing
    /// that margin mid-batch. Returning `1` is always safe — a single
    /// logical write is the granularity at which the per-write reference
    /// loop observes faults too, so whatever wear one write causes can
    /// never be detected "late". Schemes override this with a bound
    /// derived from their own write amplification (requests, migrations,
    /// epoch bursts) to let quiet stretches batch by the thousands.
    ///
    /// The contract is one-sided: the returned count may be
    /// conservative (smaller batches only cost speed), but it must
    /// never allow a page to gain `wear_margin` or more wear within one
    /// batch of more than one write.
    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        let _ = wear_margin;
        1
    }

    /// Services a logical read.
    ///
    /// The default implementation translates, validates against the
    /// device, and charges no engine latency; schemes whose read path
    /// touches tables (all of them, in practice) override the latency.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::AddrOutOfRange`] if the translation escapes
    /// the device.
    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome::plain(pa))
    }

    /// Accumulated accounting since construction.
    fn stats(&self) -> &WlStats;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Nowl;

    #[test]
    fn trait_is_object_safe() {
        let scheme = Nowl::new(8);
        let obj: Box<dyn WearLeveler> = Box::new(scheme);
        assert_eq!(obj.page_count(), 8);
    }
}
