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
    /// [`BatchOutcome::serviced`]).
    ///
    /// The default is the one event-skipping loop every scheme shares:
    /// it asks [`quiet_writes`](Self::quiet_writes) for the stretch of
    /// plain writes before the scheme's next event, lands the whole
    /// stretch with one [`PcmDevice::write_page_n`], credits the writes
    /// that landed through [`record_quiet`](Self::record_quiet), and
    /// sends the event write itself through [`write`](Self::write), so
    /// event state, device writes and RNG draws keep the scalar order.
    /// With the default hooks (no quiet stretch) it is a plain loop over
    /// `write`. The TWL engine keeps its own `write_batch`: it defers
    /// each event's request write into the next bulk pass and flushes
    /// its statistics and metrics once per batch, and its event writes
    /// call the same toss-up and inter-pair swap helpers as its `write`.
    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        // Plain locals, not a `BatchOutcome` filled in place: the
        // lifetime simulator's per-write oracle runs through this loop,
        // and this shape hands the outcome back with one copy, not two.
        let mut serviced = 0;
        let mut last = None;
        let failure = loop {
            if serviced == n {
                break None;
            }
            let (pa, quiet) = self.quiet_writes(la);
            if quiet > 0 {
                let done = device.write_page_n(pa, quiet.min(n - serviced));
                // Only the writes that landed are credited, as a scalar
                // write accounts nothing once its device write fails.
                if done.landed > 0 {
                    serviced += done.landed;
                    last = Some(self.record_quiet(la, pa, done.landed));
                }
                if done.failure.is_some() {
                    break done.failure;
                }
                // A full stretch ends at the event write: no need to
                // ask again.
                if serviced == n {
                    break None;
                }
            }
            match self.write(la, device) {
                Ok(outcome) => {
                    serviced += 1;
                    last = Some(outcome);
                }
                Err(e) => break Some(e),
            }
        };
        BatchOutcome {
            serviced,
            last,
            failure,
        }
    }

    /// The quiet stretch ahead of a write to `la`: the frame `la` maps
    /// to and how many of the next writes to `la` are plain — exactly
    /// one device write to that frame each, with no event, no RNG draw
    /// and no mapping change — before the next event write.
    ///
    /// The default stretch is empty, which sends every write of a batch
    /// through [`write`](Self::write); its frame is then never used, so
    /// the default does not call `translate`. A scheme that returns a
    /// non-zero count must also implement
    /// [`record_quiet`](Self::record_quiet).
    fn quiet_writes(&self, la: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
        let _ = la;
        (PhysicalPageAddr::new(0), 0)
    }

    /// Accounts for `n ≥ 1` plain writes to `la` that landed on `pa`,
    /// the frame [`quiet_writes`](Self::quiet_writes) returned: event
    /// counters, detection state and stats end exactly where `n` scalar
    /// writes would leave them. Returns the outcome each of those writes
    /// had.
    ///
    /// # Panics
    ///
    /// The default panics: it is only reached by a scheme that reports
    /// quiet stretches without accounting for them.
    fn record_quiet(&mut self, la: LogicalPageAddr, pa: PhysicalPageAddr, n: u64) -> WriteOutcome {
        let _ = (la, pa, n);
        unreachable!(
            "{} reports quiet writes but does not record them",
            self.name()
        )
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
    use twl_pcm::PcmConfig;

    /// A toy interval scheme: every `k`-th write is an event that
    /// rewrites its frame once more after the request write and then
    /// rotates the mapping by one frame; all other writes are quiet.
    #[derive(Clone)]
    struct Interval {
        k: u64,
        pages: u64,
        offset: u64,
        writes: u64,
        stats: WlStats,
    }

    impl Interval {
        fn new(k: u64, pages: u64) -> Self {
            Self {
                k,
                pages,
                offset: 0,
                writes: 0,
                stats: WlStats::new(),
            }
        }
    }

    impl WearLeveler for Interval {
        fn name(&self) -> &str {
            "interval"
        }

        fn page_count(&self) -> u64 {
            self.pages
        }

        fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
            PhysicalPageAddr::new((la.index() + self.offset) % self.pages)
        }

        fn write(
            &mut self,
            la: LogicalPageAddr,
            device: &mut PcmDevice,
        ) -> Result<WriteOutcome, PcmError> {
            let mut outcome = WriteOutcome::plain(self.translate(la));
            device.write_page(outcome.pa)?;
            self.writes += 1;
            if self.writes.is_multiple_of(self.k) {
                device.write_page(outcome.pa)?;
                self.offset = (self.offset + 1) % self.pages;
                outcome.pa = self.translate(la);
                outcome.device_writes += 1;
                outcome.swapped = true;
                outcome.blocking_cycles = 7;
            }
            self.stats.record_write(&outcome);
            Ok(outcome)
        }

        fn quiet_writes(&self, la: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
            (self.translate(la), self.k - 1 - self.writes % self.k)
        }

        fn record_quiet(
            &mut self,
            _: LogicalPageAddr,
            pa: PhysicalPageAddr,
            n: u64,
        ) -> WriteOutcome {
            self.writes += n;
            let outcome = WriteOutcome::plain(pa);
            self.stats.record_write_n(&outcome, n);
            outcome
        }

        fn stats(&self) -> &WlStats {
            &self.stats
        }
    }

    /// `n` scalar writes, stopping at the first failure.
    fn scalar_batch(
        scheme: &mut Interval,
        la: LogicalPageAddr,
        n: u64,
        device: &mut PcmDevice,
    ) -> BatchOutcome {
        let mut batch = BatchOutcome::default();
        while batch.serviced < n {
            match scheme.write(la, device) {
                Ok(outcome) => {
                    batch.serviced += 1;
                    batch.last = Some(outcome);
                }
                Err(e) => {
                    batch.failure = Some(e);
                    break;
                }
            }
        }
        batch
    }

    fn device(pages: u64, endurance: u64) -> PcmDevice {
        let config = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        PcmDevice::new(&config)
    }

    /// Runs `prefix` scalar writes on both twins, then one batch of `n`
    /// through the default loop against `n` scalar writes, and checks
    /// that everything observable agrees. Returns the scalar batch and
    /// the device writes its last (possibly failing) write landed.
    fn pin(k: u64, endurance: u64, prefix: u64, n: u64) -> (BatchOutcome, u64) {
        let la = LogicalPageAddr::new(1);
        let mut dev_seq = device(4, endurance);
        let mut seq = Interval::new(k, 4);
        let head = scalar_batch(&mut seq, la, prefix, &mut dev_seq);
        assert!(head.failure.is_none(), "prefix must not wear out");
        let mut dev_bulk = dev_seq.clone();
        let mut bulk = seq.clone();

        let batched = bulk.write_batch(la, n, &mut dev_bulk);
        let mut scalar = BatchOutcome::default();
        let mut landed_by_last = 0;
        while scalar.serviced < n {
            let before = dev_seq.total_writes();
            let one: BatchOutcome = seq.write(la, &mut dev_seq).into();
            landed_by_last = dev_seq.total_writes() - before;
            scalar.serviced += one.serviced;
            scalar.last = one.last.or(scalar.last);
            if one.failure.is_some() {
                scalar.failure = one.failure;
                break;
            }
        }

        let case = format!("k={k} endurance={endurance} prefix={prefix} n={n}");
        assert_eq!(batched.serviced, scalar.serviced, "{case}");
        assert_eq!(batched.last, scalar.last, "{case}");
        assert_eq!(batched.failure, scalar.failure, "{case}");
        assert_eq!(bulk.stats(), seq.stats(), "{case}");
        assert_eq!(bulk.writes, seq.writes, "{case}");
        assert_eq!(bulk.offset, seq.offset, "{case}");
        assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters(), "{case}");
        assert_eq!(dev_bulk.total_writes(), dev_seq.total_writes(), "{case}");
        (scalar, landed_by_last)
    }

    #[test]
    fn default_loop_matches_scalar_writes() {
        let k = 5;
        for n in [0, 1, k - 1, k, 3 * k + 1] {
            for prefix in 0..=k {
                let (batch, _) = pin(k, 1_000_000, prefix, n);
                assert_eq!(batch.serviced, n);
                assert!(batch.failure.is_none());
            }
        }
    }

    #[test]
    fn default_loop_matches_scalar_wear_out() {
        let k = 4;
        let (mut quiet, mut event_request, mut event_migration) = (0, 0, 0);
        for endurance in 1..40 {
            for prefix in [0, 1, k - 1] {
                if prefix >= endurance {
                    continue;
                }
                let (batch, landed) = pin(k, endurance, prefix, 10_000);
                assert!(
                    batch.failure.is_some(),
                    "endurance {endurance} never wore out"
                );
                // The failing write is the (serviced + 1)-th of the run.
                if !(prefix + batch.serviced + 1).is_multiple_of(k) {
                    quiet += 1;
                } else if landed == 0 {
                    event_request += 1;
                } else {
                    event_migration += 1;
                }
            }
        }
        // The sweep reaches every place a wear-out can happen.
        assert!(quiet > 0, "no wear-out inside a quiet stretch");
        assert!(event_request > 0, "no wear-out on an event's request write");
        assert!(event_migration > 0, "no wear-out on an event's migration");
    }

    #[test]
    fn trait_is_object_safe() {
        let scheme = Nowl::new(8);
        let obj: Box<dyn WearLeveler> = Box::new(scheme);
        assert_eq!(obj.page_count(), 8);
    }
}
