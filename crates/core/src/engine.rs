//! The TWL engine: toss-up, swap judge, inter-pair swap (Fig. 4 / 5).

use crate::{PairTable, TwlConfig};
use twl_pcm::{EnduranceMap, LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_rng::{RngBuffer, SimRng, Xoshiro256StarStar};
use twl_wl_core::{
    BatchOutcome, ReadOutcome, RemappingTable, WearLeveler, WlStats, WriteCounterTable,
    WriteOutcome,
};

/// Telemetry handles resolved once at construction.
///
/// The `counter!`/`histogram!` macros cache per call site, but even the
/// cached path is a `OnceLock` load per write; at 10⁹-write lifetimes
/// that is measurable. Struct fields make the handle loads free.
#[derive(Debug, Clone, Copy)]
struct EngineMetrics {
    writes: &'static twl_telemetry::Counter,
    toss_ups: &'static twl_telemetry::Counter,
    toss_swaps: &'static twl_telemetry::Counter,
    inter_pair_swaps: &'static twl_telemetry::Counter,
    blocking_cycles: &'static twl_telemetry::Histogram,
}

impl EngineMetrics {
    fn resolve() -> Self {
        Self {
            writes: twl_telemetry::counter!("twl.core.writes"),
            toss_ups: twl_telemetry::counter!("twl.core.toss_ups"),
            toss_swaps: twl_telemetry::counter!("twl.core.toss_swaps"),
            inter_pair_swaps: twl_telemetry::counter!("twl.core.inter_pair_swaps"),
            blocking_cycles: twl_telemetry::histogram!("twl.core.blocking_cycles"),
        }
    }
}

/// Closed-form per-toss swap probability (paper Eq. 1/2).
///
/// With a pair `(A, B)`, `p` the probability a write addresses the page
/// currently holding A's data, and endurance `e_a ≥ 0`, `e_b ≥ 0`:
///
/// `Prob(swap) = p·E_B/(E_A+E_B) + (1−p)·E_A/(E_A+E_B)`
///
/// The four cases of §4.2 fall out directly; see the tests.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]` or both endurances are zero.
///
/// # Examples
///
/// ```
/// use twl_core::swap_probability;
///
/// // Case-1: equal endurance → 1/2 regardless of p.
/// assert!((swap_probability(0.9, 100, 100) - 0.5).abs() < 1e-12);
/// // Case-2: E_A >> E_B and p → 1 → no swaps.
/// assert!(swap_probability(1.0, 1_000_000, 1) < 1e-5);
/// ```
#[must_use]
pub fn swap_probability(p: f64, e_a: u64, e_b: u64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    let den = e_a as f64 + e_b as f64;
    assert!(den > 0.0, "at least one endurance must be positive");
    p * e_b as f64 / den + (1.0 - p) * e_a as f64 / den
}

/// Toss-up Wear Leveling — the paper's scheme (§4).
///
/// See the [crate-level docs](crate) for the algorithm. Construct with
/// [`TossUpWearLeveling::new`] from a [`TwlConfig`] and the device's
/// factory endurance map, then drive it through the
/// [`WearLeveler`] trait.
#[derive(Debug, Clone)]
pub struct TossUpWearLeveling {
    config: TwlConfig,
    rt: RemappingTable,
    wct: WriteCounterTable,
    pairs: PairTable,
    /// Factory-tested endurance per physical page (the ET of Fig. 5), shared.
    endurance: EnduranceMap,
    /// The event RNG behind a FIFO prefetch buffer: batch runs generate
    /// their expected draws in one bulk pass, while the observed stream
    /// stays draw-for-draw identical to the bare generator's — the
    /// scalar and batched paths share one pinned sequence.
    rng: RngBuffer<Xoshiro256StarStar>,
    global_writes: u64,
    toss_ups: u64,
    inter_pair_swaps: u64,
    stats: WlStats,
    name: String,
    metrics: EngineMetrics,
}

impl TossUpWearLeveling {
    /// Creates the scheme over the device described by `endurance`.
    ///
    /// # Panics
    ///
    /// Panics if the endurance map has fewer than 2 pages or an odd page
    /// count (pairing requires bonding every page).
    #[must_use]
    pub fn new(config: &TwlConfig, endurance: &EnduranceMap) -> Self {
        let pairs = PairTable::build(endurance, config.pairing);
        let n = endurance.len() as u64;
        Self {
            config: config.clone(),
            rt: RemappingTable::identity(n),
            wct: WriteCounterTable::new(n),
            pairs,
            endurance: endurance.clone(),
            rng: RngBuffer::new(Xoshiro256StarStar::seed_from(config.rng_seed)),
            global_writes: 0,
            toss_ups: 0,
            inter_pair_swaps: 0,
            stats: WlStats::new(),
            name: format!("TWL_{}", config.pairing.label()),
            metrics: EngineMetrics::resolve(),
        }
    }

    /// The configuration the scheme runs with.
    #[must_use]
    pub fn config(&self) -> &TwlConfig {
        &self.config
    }

    /// Number of toss-ups performed so far.
    #[must_use]
    pub fn toss_ups(&self) -> u64 {
        self.toss_ups
    }

    /// Number of inter-pair swaps performed so far.
    #[must_use]
    pub fn inter_pair_swaps(&self) -> u64 {
        self.inter_pair_swaps
    }

    /// The pair table (for inspection and invariant tests).
    #[must_use]
    pub fn pair_table(&self) -> &PairTable {
        &self.pairs
    }

    /// The live remapping table (for inspection and invariant tests).
    #[must_use]
    pub fn remapping_table(&self) -> &RemappingTable {
        &self.rt
    }

    /// Endurance used for the toss at `pa`: factory-tested by default,
    /// remaining endurance in the dynamic ablation.
    fn toss_endurance(&self, pa: PhysicalPageAddr, device: &PcmDevice) -> u64 {
        if self.config.dynamic_endurance {
            device.remaining(pa)
        } else {
            self.endurance.endurance(pa)
        }
    }

    /// Runs the toss-up + swap judge for a write currently mapped to
    /// `pa`. Returns the page that must receive the request data plus
    /// the cost incurred.
    fn toss(
        &mut self,
        pa: PhysicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<TossResult, PcmError> {
        self.toss_ups += 1;
        self.metrics.toss_ups.inc();
        let partner = self.pairs.partner(pa);
        let e_here = self.toss_endurance(pa, device);
        let e_partner = self.toss_endurance(partner, device);
        let den = e_here + e_partner;
        // If both pages are exhausted (dynamic mode) the device is about
        // to die anyway; stay put so the failing write is attributed to
        // the addressed page.
        let chosen = if den == 0 || self.rng.bernoulli_ratio(e_here, den) {
            pa
        } else {
            partner
        };
        if chosen == pa {
            return Ok(TossResult {
                target: pa,
                migration_writes: 0,
                blocking_cycles: 0,
                swapped: false,
            });
        }
        // Swap judge fired: swap-then-write (§4.1). The data currently
        // at `chosen` must migrate to `pa` before `chosen` takes the
        // request data.
        let migrate = device.config().timing.migrate_latency();
        let (migration_writes, blocking_cycles) = if self.config.optimized_swap {
            device.write_page(pa)?;
            (1, migrate)
        } else {
            // Naive three-write swap: both pages rewritten before the
            // request write lands.
            device.write_page(pa)?;
            device.write_page(chosen)?;
            (2, 2 * migrate)
        };
        self.rt.swap_physical(pa, chosen);
        self.metrics.toss_swaps.inc();
        Ok(TossResult {
            target: chosen,
            migration_writes,
            blocking_cycles,
            swapped: true,
        })
    }

    /// Runs the inter-pair swap for a write that just landed at `pa`.
    fn inter_pair_swap(
        &mut self,
        pa: PhysicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<TossResult, PcmError> {
        let n = self.rt.len();
        let target = PhysicalPageAddr::new(self.rng.next_bounded(n));
        if target == pa {
            return Ok(TossResult {
                target: pa,
                migration_writes: 0,
                blocking_cycles: 0,
                swapped: false,
            });
        }
        self.inter_pair_swaps += 1;
        self.metrics.inter_pair_swaps.inc();
        // Full content exchange: both frames are rewritten.
        device.write_page(pa)?;
        device.write_page(target)?;
        self.rt.swap_physical(pa, target);
        let migrate = device.config().timing.migrate_latency();
        Ok(TossResult {
            target,
            migration_writes: 2,
            blocking_cycles: 2 * migrate,
            swapped: true,
        })
    }
}

/// Internal result of a toss or inter-pair swap step.
struct TossResult {
    target: PhysicalPageAddr,
    migration_writes: u32,
    blocking_cycles: u64,
    swapped: bool,
}

impl WearLeveler for TossUpWearLeveling {
    fn name(&self) -> &str {
        &self.name
    }

    fn page_count(&self) -> u64 {
        self.rt.len()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.rt.translate(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // Worst case on a single frame in one logical write: a naive
        // toss migration landing on it, the request write it now hosts,
        // and the first write of an inter-pair swap — three device
        // writes; four is a safe ceiling.
        (wear_margin.saturating_sub(1) / 4).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let mut engine_cycles = self.config.base_write_latency();
        let mut device_writes = 0u32;
        let mut blocking_cycles = 0u64;
        let mut swapped = false;

        let count = self.wct.increment(la);
        let mut pa = self.rt.translate(la);

        // Interval-triggered toss-up (§4.3): the WCT gates the engine.
        if count.is_multiple_of(self.config.toss_up_interval) {
            engine_cycles += self.config.rng_latency;
            let toss = self.toss(pa, device)?;
            device_writes += toss.migration_writes;
            blocking_cycles += toss.blocking_cycles;
            swapped |= toss.swapped;
            pa = toss.target;
        }

        // The request write itself.
        device.write_page(pa)?;
        device_writes += 1;

        // Inter-pair swap every `inter_pair_swap_interval` global writes
        // (§4.1) distributes traffic between pairs.
        self.global_writes += 1;
        if self
            .global_writes
            .is_multiple_of(self.config.inter_pair_swap_interval)
        {
            let swap = self.inter_pair_swap(pa, device)?;
            device_writes += swap.migration_writes;
            blocking_cycles += swap.blocking_cycles;
            swapped |= swap.swapped;
            pa = swap.target;
        }

        let outcome = WriteOutcome {
            pa,
            device_writes,
            swapped,
            engine_cycles,
            blocking_cycles,
        };
        self.stats.record_write(&outcome);
        self.metrics.writes.inc();
        if blocking_cycles > 0 {
            self.metrics.blocking_cycles.record(blocking_cycles);
        }
        Ok(outcome)
    }

    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        if n == 1 {
            // The scalar path is the same state machine without the
            // countdown set-up, the deferred flush and the batch-wide
            // metric adds, so a run of one (every write of a stream
            // with no repeats) is cheaper there.
            return self.write(la, device).into();
        }
        let mut batch = BatchOutcome::default();
        if n == 0 {
            return batch;
        }
        let t = self.config.toss_up_interval;
        let s = self.config.inter_pair_swap_interval;
        let base = self.config.base_write_latency();
        let rng_latency = self.config.rng_latency;
        let optimized = self.config.optimized_swap;
        let migrate = device.config().timing.migrate_latency();
        let pages = self.rt.len();

        // Statistics and metrics accumulate locally and flush once on
        // every exit path below: the flushed totals are sums, so they
        // are identical to per-write recording, without one atomic
        // round-trip per event.
        let mut acc = WlStats::new();
        let mut toss_ups = 0u64;
        let mut toss_swaps = 0u64;
        let mut inter_swaps = 0u64;
        // Deferred table bumps: the loop below never reads the WCT or
        // the global counter (the countdowns carry that state), so both
        // flush as one addition per batch. Plain-stretch statistics are
        // all proportional to the stretch length and flush the same way.
        let mut wct_delta = 0u64;
        let mut global_delta = 0u64;
        let mut plain_total = 0u64;
        // A write's blocking cycles are always a small multiple of the
        // migrate latency (1 for an optimized toss swap, 2 naive or
        // inter-pair, up to 4 with both events on one write); counting
        // per multiple lets the flush replay the exact samples into the
        // histogram in O(1).
        let mut blocked = [0u64; 5];

        // Countdowns to the next event at this address: the toss-up
        // fires on the write that brings the WCT count to a multiple of
        // its interval (checked *before* the request write), the
        // inter-pair swap on the write that brings the global count to a
        // multiple of its interval (checked *after*). Every write
        // strictly before both boundaries is a plain wear bump on the
        // currently mapped frame with no RNG draw, so each stretch
        // collapses to one bulk device write. The two divisions here are
        // the only ones in the loop — decrements keep the countdowns
        // live across iterations.
        let mut remaining = n;
        let mut to_toss = t - self.wct.count(la) % t;
        let mut to_swap = s - self.global_writes % s;
        // An event write whose request write has been deferred into the
        // next bulk pass: after toss handling the engine always maps
        // `la` to the frame the request (and the following event-free
        // stretch) must hit, so both fuse into one `write_page_n`. The
        // held outcome excludes the request write; the `usize` is its
        // blocking-cycle multiple of the migrate latency.
        let mut pending: Option<(WriteOutcome, usize)> = None;

        'run: loop {
            // One bulk pass covers the deferred request write (if any)
            // plus every following write strictly before the next
            // toss-up / inter-pair boundary — all plain wear bumps on
            // the currently mapped frame with no RNG draw.
            let stretch = remaining.min(to_toss - 1).min(to_swap - 1);
            let lead = u64::from(pending.is_some());
            if stretch + lead > 0 {
                let pa = self.rt.translate(la);
                let bulk = device.write_page_n(pa, stretch + lead);
                let mut landed = bulk.landed;
                if let Some((mut outcome, mult)) = pending.take() {
                    if landed == 0 {
                        // The deferred request write itself failed:
                        // exactly as in the scalar path, the event's
                        // outcome goes unrecorded (its migrations still
                        // wore the device) and the bulk error is the
                        // one the request write would have raised.
                        batch.failure = bulk.failure;
                        break 'run;
                    }
                    landed -= 1;
                    outcome.device_writes += 1;
                    global_delta += 1;
                    acc.record_write(&outcome);
                    if outcome.blocking_cycles > 0 {
                        blocked[mult] += 1;
                    }
                    batch.serviced += 1;
                    batch.last = Some(outcome);
                }
                wct_delta += landed;
                global_delta += landed;
                plain_total += landed;
                if landed > 0 {
                    batch.serviced += landed;
                    batch.last = Some(WriteOutcome {
                        pa,
                        device_writes: 1,
                        swapped: false,
                        engine_cycles: base,
                        blocking_cycles: 0,
                    });
                }
                if let Some(e) = bulk.failure {
                    batch.failure = Some(e);
                    break 'run;
                }
                remaining -= stretch;
                to_toss -= stretch;
                to_swap -= stretch;
            }
            if remaining == 0 {
                break 'run;
            }

            // The event write, inlined from the scalar [`Self::write`]
            // path: identical order of state updates, device writes and
            // RNG draws, with stats and metrics folded into the batch
            // accumulators (and, as in the scalar path, a write that
            // fails mid-event leaves its own outcome unrecorded).
            if self.rng.buffered() == 0 {
                // Bulk-generate (a chunk of) the draws the rest of the
                // batch is expected to consume: one per toss-up or
                // inter-pair boundary. Lemire rejections can consume
                // more; the buffer just refills when it runs dry.
                let expect = (remaining / t + remaining / s).clamp(16, 1 << 16);
                self.rng
                    .prefetch(usize::try_from(expect).unwrap_or(usize::MAX));
            }
            wct_delta += 1;
            remaining -= 1;
            let mut pa = self.rt.translate(la);
            let mut engine_cycles = base;
            let mut device_writes = 0u32;
            let mut blocking_cycles = 0u64;
            let mut block_mult = 0usize;
            let mut swapped = false;

            if to_toss == 1 {
                engine_cycles += rng_latency;
                toss_ups += 1;
                let partner = self.pairs.partner(pa);
                let e_here = self.toss_endurance(pa, device);
                let e_partner = self.toss_endurance(partner, device);
                let den = e_here + e_partner;
                let chosen = if den == 0 || self.rng.bernoulli_ratio(e_here, den) {
                    pa
                } else {
                    partner
                };
                if chosen != pa {
                    let migrated = if optimized {
                        device_writes += 1;
                        blocking_cycles += migrate;
                        block_mult += 1;
                        device.write_page(pa)
                    } else {
                        device_writes += 2;
                        blocking_cycles += 2 * migrate;
                        block_mult += 2;
                        device
                            .write_page(pa)
                            .and_then(|()| device.write_page(chosen))
                    };
                    if let Err(e) = migrated {
                        batch.failure = Some(e);
                        break 'run;
                    }
                    self.rt.swap_physical(pa, chosen);
                    toss_swaps += 1;
                    swapped = true;
                    pa = chosen;
                }
                to_toss = t;
            } else {
                to_toss -= 1;
            }

            if to_swap != 1 {
                // No inter-pair boundary on this write: defer the
                // request write into the next bulk pass (it lands on
                // the frame `la` now maps to, first in line).
                to_swap -= 1;
                pending = Some((
                    WriteOutcome {
                        pa,
                        device_writes,
                        swapped,
                        engine_cycles,
                        blocking_cycles,
                    },
                    block_mult,
                ));
                continue 'run;
            }

            // Inter-pair boundary: the request write must land now so
            // the swap that follows it observes the scalar write order.
            if let Err(e) = device.write_page(pa) {
                batch.failure = Some(e);
                break 'run;
            }
            device_writes += 1;
            global_delta += 1;

            let target = PhysicalPageAddr::new(self.rng.next_bounded(pages));
            if target != pa {
                inter_swaps += 1;
                device_writes += 2;
                blocking_cycles += 2 * migrate;
                block_mult += 2;
                if let Err(e) = device
                    .write_page(pa)
                    .and_then(|()| device.write_page(target))
                {
                    batch.failure = Some(e);
                    break 'run;
                }
                self.rt.swap_physical(pa, target);
                swapped = true;
                pa = target;
            }
            to_swap = s;

            let outcome = WriteOutcome {
                pa,
                device_writes,
                swapped,
                engine_cycles,
                blocking_cycles,
            };
            acc.record_write(&outcome);
            // `block_mult` is `blocking_cycles / migrate`, tracked by
            // increments so the hot loop never divides.
            if blocking_cycles > 0 {
                blocked[block_mult] += 1;
            }
            batch.serviced += 1;
            batch.last = Some(outcome);
        }

        self.wct.add(la, wct_delta);
        self.global_writes += global_delta;
        self.toss_ups += toss_ups;
        self.inter_pair_swaps += inter_swaps;
        // Every plain write is one device write at the base latency.
        acc.logical_writes += plain_total;
        acc.device_writes += plain_total;
        acc.engine_cycles += plain_total * base;
        self.stats.absorb(&acc);
        self.metrics.writes.add(batch.serviced);
        self.metrics.toss_ups.add(toss_ups);
        self.metrics.toss_swaps.add(toss_swaps);
        self.metrics.inter_pair_swaps.add(inter_swaps);
        for (mult, &count) in blocked.iter().enumerate().skip(1) {
            if count > 0 {
                self.metrics
                    .blocking_cycles
                    .record_n(migrate * mult as u64, count);
            }
        }
        batch
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.rt.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.table_latency,
        })
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PairingStrategy;
    use twl_pcm::PcmConfig;

    fn setup(pages: u64, endurance: u64, interval: u64) -> (PcmDevice, TossUpWearLeveling) {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .seed(11)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        let config = TwlConfig::builder()
            .toss_up_interval(interval)
            .build()
            .unwrap();
        let twl = TossUpWearLeveling::new(&config, device.endurance_map());
        (device, twl)
    }

    #[test]
    fn eq2_cases_hold() {
        // Case-1: E_A ≈ E_B → 1/2.
        assert!((swap_probability(0.3, 500, 500) - 0.5).abs() < 1e-12);
        // Case-2: E_A >> E_B, p→1 → ~0.
        assert!(swap_probability(0.999, 1_000_000, 10) < 0.01);
        // Case-3: E_A >> E_B, p→0 → ~1.
        assert!(swap_probability(0.001, 1_000_000, 10) > 0.99);
        // Case-4: p = 1/2 → 1/2 for any endurance split.
        assert!((swap_probability(0.5, 123_456, 7) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn toss_frequency_matches_interval() {
        let (mut device, mut twl) = setup(64, 1_000_000, 8);
        let la = LogicalPageAddr::new(3);
        for _ in 0..64 {
            twl.write(la, &mut device).unwrap();
        }
        assert_eq!(twl.toss_ups(), 8);
    }

    #[test]
    fn empirical_toss_matches_endurance_ratio() {
        // One pair, toss on every write, repeat-write one address:
        // the fraction of writes landing on each page must approach
        // E_page / (E_A + E_B).
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(1_000_000_000)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let endurance = EnduranceMap::from_values(vec![300_000_000, 100_000_000]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        let config = TwlConfig::builder()
            .toss_up_interval(1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let la = LogicalPageAddr::new(0);
        let n = 40_000;
        for _ in 0..n {
            twl.write(la, &mut device).unwrap();
        }
        // Request writes go to page 0 with q = 3/4. Migration writes go
        // to the page the data just left: P = q(1-q) per side. Stationary
        // wear shares are therefore (q + q(1-q), (1-q) + q(1-q)):
        // (0.9375, 0.4375) → page 0 carries 0.9375/1.375 ≈ 0.6818.
        let w0 = device.wear(PhysicalPageAddr::new(0)) as f64;
        let w1 = device.wear(PhysicalPageAddr::new(1)) as f64;
        let frac0 = w0 / (w0 + w1);
        assert!((frac0 - 0.9375 / 1.375).abs() < 0.02, "frac0 = {frac0}");
        // And the *wear-rate* invariant the scheme targets: page 0 should
        // carry roughly 3x page 1's request traffic; with migrations it
        // still carries >2x the wear.
        assert!(w0 / w1 > 2.0, "w0/w1 = {}", w0 / w1);
    }

    #[test]
    fn remapping_stays_bijective_under_stress() {
        let (mut device, mut twl) = setup(128, 1_000_000, 4);
        let mut rng = Xoshiro256StarStar::seed_from(5);
        for _ in 0..20_000 {
            let la = LogicalPageAddr::new(rng.next_bounded(128));
            twl.write(la, &mut device).unwrap();
        }
        assert!(twl.remapping_table().is_bijective());
        assert!(twl.pair_table().is_valid_involution());
    }

    #[test]
    fn translate_follows_data() {
        let (mut device, mut twl) = setup(64, 1_000_000, 1);
        let la = LogicalPageAddr::new(9);
        for _ in 0..500 {
            let out = twl.write(la, &mut device).unwrap();
            assert_eq!(
                twl.translate(la),
                out.pa,
                "translation must point at the page that received the data"
            );
        }
    }

    #[test]
    fn optimized_swap_writes_two_naive_three() {
        for (optimized, expected_max) in [(true, 2u32), (false, 3u32)] {
            let pcm = PcmConfig::builder()
                .pages(2)
                .mean_endurance(1_000_000)
                .sigma_fraction(0.0)
                .build()
                .unwrap();
            let endurance = EnduranceMap::from_values(vec![999_999, 1]);
            let mut device = PcmDevice::with_endurance(&pcm, endurance);
            let config = TwlConfig::builder()
                .toss_up_interval(1)
                .inter_pair_swap_interval(u64::MAX)
                .pairing(PairingStrategy::Adjacent)
                .optimized_swap(optimized)
                .build()
                .unwrap();
            let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
            // Write LA1 (initially at weak PA1): the toss almost surely
            // redirects to PA0, forcing a swap.
            let out = twl.write(LogicalPageAddr::new(1), &mut device).unwrap();
            assert!(out.swapped);
            assert_eq!(out.device_writes, expected_max);
        }
    }

    #[test]
    fn inter_pair_swap_fires_on_interval() {
        let pcm = PcmConfig::builder()
            .pages(256)
            .mean_endurance(1_000_000)
            .seed(2)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let config = TwlConfig::builder()
            .toss_up_interval(u64::MAX - 1)
            .inter_pair_swap_interval(16)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        for i in 0..160u64 {
            twl.write(LogicalPageAddr::new(i % 256), &mut device)
                .unwrap();
        }
        // 10 interval hits; a few may pick the same page and no-op.
        assert!(
            twl.inter_pair_swaps() >= 8,
            "swaps = {}",
            twl.inter_pair_swaps()
        );
        assert!(twl.remapping_table().is_bijective());
    }

    #[test]
    fn wear_out_propagates_from_migration() {
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(10)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        // Pair (PA0: E=3, PA1: E=10^9). Alternating writes to LA0/LA1
        // make the toss pick PA1 nearly every time, so whichever logical
        // page currently sits on PA0 migrates back onto it on every
        // write — each write burns one PA0 migration write. PA0 dies
        // after 3 migrations and the 4th must surface the error.
        let endurance = EnduranceMap::from_values(vec![3, 1_000_000_000]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        let config = TwlConfig::builder()
            .toss_up_interval(1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let mut failed = false;
        for i in 0..100u64 {
            if twl.write(LogicalPageAddr::new(i % 2), &mut device).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "migrations must exhaust the weak page");
        assert_eq!(device.first_failure(), Some(PhysicalPageAddr::new(0)));
    }

    #[test]
    fn stats_account_every_device_write() {
        let (mut device, mut twl) = setup(64, 1_000_000, 2);
        let mut rng = Xoshiro256StarStar::seed_from(77);
        for _ in 0..5_000 {
            let la = LogicalPageAddr::new(rng.next_bounded(64));
            twl.write(la, &mut device).unwrap();
        }
        assert_eq!(twl.stats().device_writes, device.total_writes());
        assert_eq!(twl.stats().logical_writes, 5_000);
    }

    #[test]
    fn read_charges_table_latency() {
        let (device, mut twl) = setup(64, 1_000, 32);
        let r = twl.read(LogicalPageAddr::new(0), &device).unwrap();
        assert_eq!(r.engine_cycles, 10);
    }

    #[test]
    fn dynamic_endurance_tracks_remaining_life() {
        // With dynamic endurance, a pair whose strong member has been
        // worn down to parity tosses ~50/50 instead of by the initial
        // ratio.
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(1_000_000)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let endurance = EnduranceMap::from_values(vec![2_000_000, 1_000_000]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        // Pre-wear the strong page down to ~1M remaining.
        for _ in 0..1_000_000 {
            device.write_page(PhysicalPageAddr::new(0)).unwrap();
        }
        let config = TwlConfig::builder()
            .toss_up_interval(1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .dynamic_endurance(true)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let before_0 = device.wear(PhysicalPageAddr::new(0));
        let n = 30_000;
        for _ in 0..n {
            twl.write(LogicalPageAddr::new(0), &mut device).unwrap();
        }
        let w0 = (device.wear(PhysicalPageAddr::new(0)) - before_0) as f64;
        let w1 = device.wear(PhysicalPageAddr::new(1)) as f64;
        let frac0 = w0 / (w0 + w1);
        // Static tossing would put ~0.68 of the wear on page 0 (2:1
        // initial ratio, plus migrations); dynamic parity gives ~0.5.
        assert!((frac0 - 0.5).abs() < 0.05, "frac0 = {frac0}");
    }

    #[test]
    fn random_pairing_works_through_the_engine() {
        let pcm = PcmConfig::builder()
            .pages(64)
            .mean_endurance(1_000_000)
            .seed(3)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let config = TwlConfig::builder()
            .pairing(PairingStrategy::Random { seed: 12 })
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        assert_eq!(twl.name(), "TWL_rnd");
        for i in 0..2_000u64 {
            twl.write(LogicalPageAddr::new(i % 64), &mut device)
                .unwrap();
        }
        assert!(twl.remapping_table().is_bijective());
    }

    #[test]
    fn stats_extra_write_ratio_near_paper_at_interval_32() {
        // §5.2: toss-up interval 32 incurs "about 2.2% additional
        // writes". Under a scan-like pattern ours lands in the same
        // band (toss swaps + inter-pair swaps).
        let pcm = PcmConfig::builder()
            .pages(256)
            .mean_endurance(100_000_000)
            .seed(5)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut twl = TossUpWearLeveling::new(&TwlConfig::dac17(), device.endurance_map());
        for i in 0..200_000u64 {
            twl.write(LogicalPageAddr::new(i % 256), &mut device)
                .unwrap();
        }
        let ratio = twl.stats().extra_write_ratio();
        assert!((0.01..0.06).contains(&ratio), "extra-write ratio = {ratio}");
    }

    #[test]
    fn write_batch_is_bit_identical_to_sequential_writes() {
        // Batches of awkward sizes (straddling toss-up and inter-pair
        // boundaries) must leave the engine, device, and RNG stream in
        // exactly the per-write state.
        let (mut dev_bulk, mut bulk) = setup(64, 1_000_000, 8);
        let (mut dev_seq, mut seq) = setup(64, 1_000_000, 8);
        let la = LogicalPageAddr::new(5);
        for &n in &[1u64, 3, 7, 8, 9, 31, 32, 33, 128, 500] {
            let batch = bulk.write_batch(la, n, &mut dev_bulk);
            assert_eq!(batch.serviced, n);
            assert!(batch.failure.is_none());
            let mut last = None;
            for _ in 0..n {
                last = Some(seq.write(la, &mut dev_seq).unwrap());
            }
            assert_eq!(batch.last, last, "n = {n}");
        }
        assert_eq!(bulk.stats(), seq.stats());
        assert_eq!(bulk.toss_ups(), seq.toss_ups());
        assert_eq!(bulk.inter_pair_swaps(), seq.inter_pair_swaps());
        assert_eq!(bulk.remapping_table(), seq.remapping_table());
        assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters());
        assert!(bulk.toss_ups() > 0, "the stress actually crossed events");
    }

    /// Drives `batch` with runs of one and `scalar` with `write`, and
    /// checks after every write that outcome, statistics, tables, wear
    /// and the RNG position agree. Stops after the first failure.
    fn assert_batch_of_one_is_write(
        (dev_batch, batch): &mut (PcmDevice, TossUpWearLeveling),
        (dev_scalar, scalar): &mut (PcmDevice, TossUpWearLeveling),
        writes: u64,
    ) {
        for i in 0..writes {
            let la = LogicalPageAddr::new(i % 3 % batch.page_count());
            let got = batch.write_batch(la, 1, dev_batch);
            let want = BatchOutcome::from(scalar.write(la, dev_scalar));
            assert_eq!(got, want, "write {i}");
            assert_eq!(batch.stats(), scalar.stats(), "write {i}");
            assert_eq!(batch.toss_ups(), scalar.toss_ups(), "write {i}");
            assert_eq!(batch.inter_pair_swaps(), scalar.inter_pair_swaps());
            assert_eq!(batch.remapping_table(), scalar.remapping_table());
            assert_eq!(batch.wct, scalar.wct, "write {i}");
            assert_eq!(batch.global_writes, scalar.global_writes);
            assert_eq!(dev_batch.wear_counters(), dev_scalar.wear_counters());
            assert_eq!(
                batch.rng.clone().next_u64(),
                scalar.rng.clone().next_u64(),
                "RNG position after write {i}"
            );
            if got.failure.is_some() {
                return;
            }
        }
    }

    #[test]
    fn write_batch_of_one_is_the_scalar_write() {
        // Toss-ups every 4th write to an address and inter-pair swaps
        // every 6th write overall: the runs cross both boundaries, alone
        // and on the same write.
        let setup_twl = || {
            let pcm = PcmConfig::builder()
                .pages(16)
                .mean_endurance(1_000_000)
                .seed(5)
                .build()
                .unwrap();
            let device = PcmDevice::new(&pcm);
            let config = TwlConfig::builder()
                .toss_up_interval(4)
                .inter_pair_swap_interval(6)
                .build()
                .unwrap();
            let twl = TossUpWearLeveling::new(&config, device.endurance_map());
            (device, twl)
        };
        let (mut batch, mut scalar) = (setup_twl(), setup_twl());
        assert_batch_of_one_is_write(&mut batch, &mut scalar, 240);
        assert!(batch.1.toss_ups() > 0 && batch.1.inter_pair_swaps() > 0);
        assert!(batch.1.stats().swaps > 0);
    }

    #[test]
    fn write_batch_of_one_fails_like_the_scalar_write() {
        // A two-page device that wears out within a few dozen writes,
        // with toss-ups and inter-pair swaps along the way.
        let setup_twl = || {
            let pcm = PcmConfig::builder()
                .pages(2)
                .mean_endurance(20)
                .sigma_fraction(0.0)
                .build()
                .unwrap();
            let device = PcmDevice::with_endurance(&pcm, EnduranceMap::from_values(vec![20, 20]));
            let config = TwlConfig::builder()
                .toss_up_interval(3)
                .inter_pair_swap_interval(5)
                .pairing(PairingStrategy::Adjacent)
                .build()
                .unwrap();
            let twl = TossUpWearLeveling::new(&config, device.endurance_map());
            (device, twl)
        };
        let (mut batch, mut scalar) = (setup_twl(), setup_twl());
        assert_batch_of_one_is_write(&mut batch, &mut scalar, 1_000);
        assert!(batch.0.first_failure().is_some(), "the device wore out");
    }

    #[test]
    fn write_batch_stops_at_the_failing_write() {
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(50)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let endurance = EnduranceMap::from_values(vec![50, 50]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        let config = TwlConfig::builder()
            .toss_up_interval(u64::MAX - 1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let batch = twl.write_batch(LogicalPageAddr::new(0), 80, &mut device);
        assert_eq!(batch.serviced, 50);
        assert!(matches!(
            batch.failure,
            Some(PcmError::PageWornOut { addr, .. }) if addr.index() == 0
        ));
        assert_eq!(twl.stats().logical_writes, 50);
    }

    #[test]
    fn name_reflects_pairing() {
        let (_, twl) = setup(64, 1_000, 32);
        assert_eq!(twl.name(), "TWL_swp");
    }
}

#[cfg(test)]
mod eq2_validation {
    use super::*;
    use crate::PairingStrategy;
    use twl_pcm::PcmConfig;

    /// Drives a single pair with writes whose address distribution has a
    /// controlled `p = P(write hits the page holding A's data)` and
    /// compares the measured per-toss swap frequency against Eq. 2.
    fn measured_swap_rate(p: f64, e_a: u64, e_b: u64) -> f64 {
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(1_000_000_000)
            .sigma_fraction(0.0)
            .build()
            .unwrap();
        let endurance = EnduranceMap::from_values(vec![e_a, e_b]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        let config = TwlConfig::builder()
            .toss_up_interval(1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .build()
            .unwrap();
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let mut rng = Xoshiro256StarStar::seed_from(99);
        let n = 60_000u64;
        let mut swaps = 0u64;
        for _ in 0..n {
            // Address the logical page currently resident on frame A
            // with probability p (frame A = PA0 holds "A's data"
            // positionally: we track by current translation).
            let la_on_a = twl.remapping_table().reverse(PhysicalPageAddr::new(0));
            let la_on_b = twl.remapping_table().reverse(PhysicalPageAddr::new(1));
            let la = if rng.next_unit_f64() < p {
                la_on_a
            } else {
                la_on_b
            };
            let out = twl.write(la, &mut device).unwrap();
            if out.swapped {
                swaps += 1;
            }
        }
        swaps as f64 / n as f64
    }

    #[test]
    fn eq2_matches_simulation_across_the_four_cases() {
        // NOTE: Eq. 2's `p` is the probability the write addresses the
        // *data of page A* wherever it lives; our loop addresses frames,
        // which matches the paper's stationary-case analysis when the
        // toss uses the frames' endurance.
        for (p, e_a, e_b) in [
            (0.5, 1_000_000u64, 1_000_000u64), // Case-1: ~1/2
            (0.9, 10_000_000, 100_000),        // Case-2-ish: low swap
            (0.1, 10_000_000, 100_000),        // Case-3-ish: high swap
            (0.5, 3_000_000, 1_000_000),       // Case-4: ~1/2
        ] {
            let expected = swap_probability(p, e_a, e_b);
            let measured = measured_swap_rate(p, e_a, e_b);
            assert!(
                (measured - expected).abs() < 0.02,
                "p={p} E_A={e_a} E_B={e_b}: measured {measured}, Eq.2 {expected}"
            );
        }
    }
}
