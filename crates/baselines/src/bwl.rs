//! Bloom-filter-based dynamic wear leveling (Yun, Lee & Yoo, DATE 2012).
//!
//! "BWL" in the paper's figures — the state-of-the-art PV-aware scheme
//! and the headline victim of the inconsistent-write attack (it "breaks
//! down in 98 seconds", §5.2).
//!
//! Instead of a full write-number table, BWL detects hot pages with a
//! counting Bloom filter and a *dynamic threshold*, and keeps a bounded
//! hot list plus a recency sample for cold candidates. At every epoch
//! boundary it remaps detected-hot logical pages onto the frames with
//! the most remaining endurance and detected-cold pages onto the weakest
//! frames — the same prediction-consistency assumption as wear-rate
//! leveling, hence the same vulnerability, but with two Bloom-filter
//! accesses and a list access *on every write* (which is why its
//! performance overhead is the largest in Fig. 9).

use crate::{BloomFilter, CountingBloomFilter};
use twl_pcm::{table, LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_wl_core::{ReadOutcome, RemappingTable, WearLeveler, WlStats, WriteOutcome};

/// A persistent hot-list entry: survives epochs until it misses the
/// (halved) threshold three times in a row, which damps boundary
/// flicker and the migration churn it would cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HotEntry {
    la: LogicalPageAddr,
    estimate: u64,
    misses: u8,
}

/// Configuration of [`BloomFilterWl`].
///
/// # Examples
///
/// ```
/// use twl_baselines::BwlConfig;
///
/// let config = BwlConfig::for_pages(1024);
/// assert!(config.epoch_writes > 0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BwlConfig {
    /// Writes per detection epoch (filters reset at the boundary).
    pub epoch_writes: u64,
    /// Counting-Bloom-filter counters.
    pub cbf_counters: usize,
    /// Bits of the written-membership Bloom filter.
    pub membership_bits: usize,
    /// Epochs between membership-filter resets. A window longer than
    /// one epoch keeps a stable footprint's tail classified as written,
    /// so parked cold pages are not churned every epoch.
    pub membership_epochs: u64,
    /// Counting-Bloom-filter hash functions.
    pub cbf_hashes: u32,
    /// Initial hot-detection threshold (estimated writes within an
    /// epoch); adapts dynamically.
    pub initial_hot_threshold: u64,
    /// Hot list / cold sample capacity.
    pub max_tracked: usize,
    /// Engine cycles per Bloom-filter or list access. Every write costs
    /// three accesses (two filters + the cold-hot list, per §5.3); each
    /// access is a multi-hash probe / associative search, i.e. several
    /// dependent SRAM reads. The default is calibrated so BWL's Fig. 9
    /// overhead dominates the other schemes' as in the paper.
    pub access_latency: u64,
    /// Enable the band-repair pass: each epoch, decisively-warm
    /// squatters on the weakest-frame band are swapped out against the
    /// coldest mid-zone residents. Roughly doubles BWL's lifetime on
    /// smooth zipf workloads (bringing it to the paper's Fig. 8 level)
    /// while leaving the inconsistent-write vulnerability intact; the
    /// `ablation` bench quantifies both. On by default.
    pub band_repair: bool,
}

impl BwlConfig {
    /// Defaults scaled to a device of `pages` pages.
    #[must_use]
    pub fn for_pages(pages: u64) -> Self {
        Self {
            epoch_writes: (pages * 8).max(512),
            cbf_counters: (pages as usize * 4).max(1024),
            membership_bits: (pages as usize * 8).max(2048),
            membership_epochs: 2,
            cbf_hashes: 4,
            initial_hot_threshold: 8,
            max_tracked: (pages as usize / 4).max(4),
            access_latency: 30,
            band_repair: true,
        }
    }

    /// The naive variant without the band-repair pass (prediction
    /// trusting only; ~half the benign lifetime).
    #[must_use]
    pub fn naive(pages: u64) -> Self {
        Self {
            band_repair: false,
            ..Self::for_pages(pages)
        }
    }
}

/// Epoch-boundary scratch and the incrementally-maintained frame
/// ranking, reused across epochs.
///
/// Everything here is re-derivable from the device and the filters, so
/// it is never serialized, and a default (empty) scratch is always
/// valid — the next epoch simply rebuilds the ranking in full.
#[derive(Debug, Clone, Default)]
struct EpochScratch {
    /// Per-slot remaining endurance as of the last ranking; `u32`, as
    /// remaining endurance is at most the page's `u32` endurance.
    prev_rem: Vec<u32>,
    /// Fresh per-slot remaining endurance (scratch for the diff), filled
    /// by [`PcmDevice::remaining_table`].
    rem: Vec<u32>,
    /// Managed frames ordered by (remaining desc, index asc).
    frames: Vec<u32>,
    /// Rank of every managed frame within `frames`.
    frame_rank: Vec<u32>,
    /// Changed frames re-keyed for the sorted merge.
    dirty: Vec<(u32, u32)>,
    /// Merge output, swapped with `frames`.
    merge: Vec<u32>,
    /// Bitmap of logical pages currently on the hot list.
    hot_logical: Vec<bool>,
    /// Free migration targets within a band.
    free: Vec<u32>,
}

impl EpochScratch {
    /// Rebuilds `frames`/`frame_rank` so the `n` managed frames are
    /// ordered by (remaining endurance desc, index asc) — exactly the
    /// order a stable descending-remaining sort over index-ordered
    /// frames produces.
    ///
    /// The ranking is maintained incrementally: frames whose remaining
    /// endurance is unchanged since the last call keep their relative
    /// order (their sort keys are unchanged), so only the changed
    /// frames are re-sorted (O(d log d)) and merged back in one pass
    /// (O(n)). A narrow attack dirties a handful of frames per epoch;
    /// a full O(n log n) rebuild happens only on the first call or
    /// when a large fraction of the device changed.
    fn rank(&mut self, device: &PcmDevice, n: usize) {
        device.remaining_table(&mut self.rem);
        let rem = &self.rem[..n];
        let mut rebuild = self.prev_rem.is_empty();
        if !rebuild {
            let prev = &self.prev_rem[..n];
            self.dirty.clear();
            self.dirty.extend(
                (0..n)
                    .filter(|&pa| rem[pa] != prev[pa])
                    .map(|pa| (rem[pa], pa as u32)),
            );
            rebuild = self.dirty.len() * 4 > n;
        }
        if rebuild {
            table::reset(&mut self.frames, n);
            self.frames.extend(0..n as u32);
            self.frames
                .sort_unstable_by_key(|&pa| (std::cmp::Reverse(rem[pa as usize]), pa));
        } else if !self.dirty.is_empty() {
            self.dirty
                .sort_unstable_by_key(|&(r, pa)| (std::cmp::Reverse(r), pa));
            table::reset(&mut self.merge, n);
            let prev = &self.prev_rem[..n];
            let mut di = 0;
            for &pa in &self.frames {
                if rem[pa as usize] != prev[pa as usize] {
                    continue; // re-enters in key order via `dirty`
                }
                let key = (std::cmp::Reverse(rem[pa as usize]), pa);
                while di < self.dirty.len() {
                    let (dr, dpa) = self.dirty[di];
                    if (std::cmp::Reverse(dr), dpa) < key {
                        self.merge.push(dpa);
                        di += 1;
                    } else {
                        break;
                    }
                }
                self.merge.push(pa);
            }
            for &(_, dpa) in &self.dirty[di..] {
                self.merge.push(dpa);
            }
            std::mem::swap(&mut self.frames, &mut self.merge);
        }
        std::mem::swap(&mut self.prev_rem, &mut self.rem);
        table::reset(&mut self.frame_rank, n);
        self.frame_rank.resize(n, 0);
        for (rank, &pa) in self.frames.iter().enumerate() {
            self.frame_rank[pa as usize] = rank as u32;
        }
    }
}

/// Bloom-filter wear leveling (see the module docs above).
#[derive(Debug, Clone)]
pub struct BloomFilterWl {
    config: BwlConfig,
    rt: RemappingTable,
    cbf: CountingBloomFilter,
    /// Membership filter over addresses written this epoch — Yun's
    /// second Bloom filter. Cold candidacy requires *written but below
    /// threshold*: an address nobody writes needs no re-parking, and
    /// treating untouched pages as cold would let an attacker hide its
    /// victims among them.
    written: BloomFilter,
    hot_list: Vec<HotEntry>,
    /// Rotating cold-scan pointer: at each epoch boundary the scheme
    /// walks the logical space from here, querying the filter for
    /// addresses whose estimate stayed below the cold threshold. A
    /// filter query per scanned address is cheap hardware; the pointer
    /// rotates so all pages are eventually considered.
    cold_scan: u64,
    hot_threshold: u64,
    epoch_write_count: u64,
    epochs: u64,
    /// (hot promotions, cold parks, band repairs) — cumulative, for
    /// diagnostics and tests.
    action_counts: (u64, u64, u64),
    /// Cold-candidate count at the last epoch boundary (diagnostics).
    last_cold_len: usize,
    stats: WlStats,
    /// Epoch-boundary scratch + incremental frame-rank cache.
    scratch: EpochScratch,
}

impl BloomFilterWl {
    /// Creates the scheme over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`, the epoch length is zero, or
    /// `max_tracked * 2 > pages`.
    #[must_use]
    pub fn new(config: &BwlConfig, pages: u64) -> Self {
        assert!(pages > 0, "device must have pages");
        assert!(config.epoch_writes > 0, "epoch must be positive");
        assert!(
            config.max_tracked as u64 * 2 <= pages,
            "hot and cold tracking must not cover the whole device"
        );
        Self {
            config: config.clone(),
            rt: RemappingTable::identity(pages),
            cbf: CountingBloomFilter::new(config.cbf_counters, config.cbf_hashes),
            written: BloomFilter::new(config.membership_bits, config.cbf_hashes),
            hot_list: Vec::with_capacity(config.max_tracked),
            cold_scan: 0,
            hot_threshold: config.initial_hot_threshold,
            epoch_write_count: 0,
            epochs: 0,
            action_counts: (0, 0, 0),
            last_cold_len: 0,
            stats: WlStats::new(),
            scratch: EpochScratch::default(),
        }
    }

    /// Cumulative (hot promotions, cold parks, band repairs).
    #[must_use]
    pub fn action_counts(&self) -> (u64, u64, u64) {
        self.action_counts
    }

    /// Cold-candidate count at the last epoch boundary.
    #[must_use]
    pub fn last_cold_len(&self) -> usize {
        self.last_cold_len
    }

    /// Diagnostic snapshot for a logical page: (epoch estimate,
    /// written-in-window, in hot list).
    #[must_use]
    pub fn classify(&self, la: LogicalPageAddr) -> (u64, bool, bool) {
        (
            self.cbf.estimate(la.index()),
            self.written.contains(la.index()),
            self.hot_list.iter().any(|e| e.la == la),
        )
    }

    /// Number of completed detection epochs.
    #[must_use]
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// Current (dynamic) hot threshold.
    #[must_use]
    pub fn hot_threshold(&self) -> u64 {
        self.hot_threshold
    }

    /// The live remapping table (for invariant tests).
    #[must_use]
    pub fn remapping_table(&self) -> &RemappingTable {
        &self.rt
    }

    /// Epoch boundary: remap hot→strong and cold→weak, adapt the
    /// threshold, reset the filters. Returns `(migrations, blocking)`.
    fn epoch_swap(&mut self, device: &mut PcmDevice) -> Result<(u32, u64), PcmError> {
        self.epochs += 1;
        let migrate = device.config().timing.migrate_latency();
        let mut migrations = 0u32;
        let mut blocking = 0u64;

        // Refresh the persistent hot list: entries that fell below half
        // the threshold three epochs in a row retire; the rest update
        // their estimates.
        let retire_below = (self.hot_threshold / 2).max(2);
        for entry in &mut self.hot_list {
            let current = self.cbf.estimate(entry.la.index());
            if current >= retire_below {
                entry.estimate = current;
                entry.misses = 0;
            } else {
                entry.misses += 1;
            }
        }
        self.hot_list.retain(|e| e.misses < 3);

        // Rank frames by remaining life: (remaining desc, index asc),
        // maintained incrementally across epochs (see
        // `EpochScratch::rank`).
        let pages = self.rt.len() as usize;
        self.scratch.rank(device, pages);
        let half = pages / 2;

        // Hot pages (sorted by estimated heat) into the strongest-frame
        // band. Hysteresis: a hot page already anywhere in the strong
        // half stays put — re-ranking inside it would be pure churn.
        self.hot_list
            .sort_by_key(|e| (std::cmp::Reverse(e.estimate), e.la));
        let hot: Vec<LogicalPageAddr> = self.hot_list.iter().map(|e| e.la).collect();
        table::reset(&mut self.scratch.hot_logical, pages);
        self.scratch.hot_logical.resize(pages, false);
        for &la in &hot {
            self.scratch.hot_logical[la.as_usize()] = true;
        }
        {
            let band = &self.scratch.frames[..hot.len().min(half)];
            self.scratch.free.clear();
            for &pa in band {
                let resident = self.rt.reverse(PhysicalPageAddr::new(u64::from(pa)));
                if !self.scratch.hot_logical[resident.as_usize()] {
                    self.scratch.free.push(pa);
                }
            }
            self.scratch.free.reverse(); // pop strongest first
            for &la in &hot {
                let current = self.rt.translate(la);
                if self.scratch.frame_rank[current.as_usize()] < half as u32 {
                    continue;
                }
                let Some(target) = self.scratch.free.pop() else {
                    break;
                };
                let target = PhysicalPageAddr::new(u64::from(target));
                device.write_page(current)?;
                device.write_page(target)?;
                self.rt.swap_physical(current, target);
                migrations += 2;
                blocking += 2 * migrate;
                self.action_counts.0 += 1;
            }
        }

        // Cold candidates: walk the logical space from the rotating
        // scan pointer and keep addresses whose epoch estimate stayed
        // well below the mean per-page write rate — these go onto the
        // weakest frames. (This cold→weak parking is exactly what the
        // inconsistent-write attacker farms.)
        let pages = self.rt.len();
        let cold_threshold = (self.config.epoch_writes / pages / 2).max(2);
        let mut cold: Vec<(LogicalPageAddr, u64)> = Vec::new();
        // Two contiguous ranges instead of a modulo per step; the scan
        // still starts at the rotating pointer and covers every page.
        // The membership test and the estimate share one fused filter
        // probe (identical hash values, identical short-circuit).
        for la in (self.cold_scan..pages).chain(0..self.cold_scan) {
            if self.scratch.hot_logical[la as usize] {
                continue;
            }
            let Some(est) = self.cbf.estimate_if_written(&self.written, la) else {
                continue;
            };
            if est <= cold_threshold {
                cold.push((LogicalPageAddr::new(la), est));
            }
        }
        // Coldest first, so the least-written page lands on the weakest
        // frame. (est, la) is a total order, so the unstable sort is
        // deterministic.
        cold.sort_unstable_by_key(|&(la, est)| (est, la));
        cold.truncate(self.config.max_tracked);
        self.last_cold_len = cold.len();
        // Only *deep*-cold pages (at most one observed write) are worth
        // actively parking: anything warmer flickers across the cold
        // threshold and would churn the weakest frames with re-parking
        // writes. The full cold list still protects parked residents.
        let deep_cold: Vec<LogicalPageAddr> = cold
            .iter()
            .copied()
            .filter_map(|(la, est)| (est <= 1).then_some(la))
            .collect();
        let cold: Vec<LogicalPageAddr> = cold.into_iter().map(|(la, _)| la).collect();
        self.cold_scan = (self.cold_scan + 1) % pages;
        // Cold pages into the weakest-frame band (cold -> weakest is
        // the "vice versa" of Fig. 1, and precisely what the
        // inconsistent-write attacker farms). A cold page already inside
        // the band stays put. A frame is a free target unless its
        // resident is itself evidence-backed cold
        // (written within the window, low count): those stay. An
        // untouched resident is evicted — the PV-aware flow prefers
        // *observed*-cold pages on the weakest frames (Fig. 1's
        // "vice versa").
        {
            let frame_count = self.scratch.frames.len();
            let band = &self.scratch.frames[frame_count - deep_cold.len().max(1)..];
            self.scratch.free.clear();
            for &pa in band {
                let resident = self.rt.reverse(PhysicalPageAddr::new(u64::from(pa)));
                let parked_cold = self
                    .cbf
                    .estimate_if_written(&self.written, resident.index())
                    .is_some_and(|est| est <= cold_threshold);
                if !parked_cold {
                    self.scratch.free.push(pa);
                }
            }
            let band_start_rank = (frame_count - band.len()) as u32;
            // band is sorted strongest-to-weakest; pop weakest first.
            for &la in &deep_cold {
                let current = self.rt.translate(la);
                if self.scratch.frame_rank[current.as_usize()] >= band_start_rank {
                    continue;
                }
                let Some(target) = self.scratch.free.pop() else {
                    break;
                };
                let target = PhysicalPageAddr::new(u64::from(target));
                device.write_page(current)?;
                device.write_page(target)?;
                self.rt.swap_physical(current, target);
                migrations += 2;
                blocking += 2 * migrate;
                self.action_counts.1 += 1;
            }
        }

        // Band repair (optional extension, see `BwlConfig::band_repair`):
        // a warm page can land on a weakest-band frame as
        // the evictee of a hot promotion (the swap must put it
        // somewhere). Such squatters grind down exactly the frames the
        // scheme most needs to protect, so each epoch they are swapped
        // out against the coldest residents of the mid zone (between
        // the halfway mark and the band) — there is always someone
        // colder than a decisively-warm squatter out there.
        if self.config.band_repair {
            let frame_count = self.scratch.frames.len();
            let band_size = cold
                .len()
                .max(self.config.max_tracked / 4)
                .min(frame_count / 4)
                .max(1);
            let band_start = frame_count - band_size;
            // Mid-zone replacements are only needed once a squatter is
            // found, and most epochs have none — build them lazily so
            // the common case skips thousands of filter estimates. The
            // estimates are pure reads, so deferring them changes
            // nothing observable.
            let mut replacements: Option<Vec<(u64, PhysicalPageAddr)>> = None;
            for &frame in self.scratch.frames[band_start..].iter().rev() {
                let frame = PhysicalPageAddr::new(u64::from(frame));
                let resident = self.rt.reverse(frame);
                // Decisively warm only (2x the cold threshold): a
                // parked cold page's Poisson flicker must not trigger
                // repair churn on exactly the weakest frames. The
                // membership test and estimate fuse into one probe.
                let Some(resident_est) = self
                    .cbf
                    .estimate_if_written(&self.written, resident.index())
                else {
                    continue;
                };
                if resident_est <= 2 * cold_threshold {
                    continue;
                }
                let replacements = replacements.get_or_insert_with(|| {
                    // Mid-zone residents, coldest last (so pop()
                    // yields them). (est, pa) is a total order, so the
                    // unstable sort is deterministic.
                    let mut r: Vec<(u64, PhysicalPageAddr)> = self.scratch.frames[half..band_start]
                        .iter()
                        .map(|&pa| {
                            let pa = PhysicalPageAddr::new(u64::from(pa));
                            (self.cbf.estimate(self.rt.reverse(pa).index()), pa)
                        })
                        .collect();
                    r.sort_unstable_by_key(|&(est, pa)| (std::cmp::Reverse(est), pa));
                    r
                });
                // Only repair when the replacement is clearly colder,
                // otherwise the swap would be churn.
                let Some(&(est, from)) = replacements.last() else {
                    break;
                };
                if est.saturating_mul(2) > resident_est {
                    break;
                }
                replacements.pop();
                device.write_page(from)?;
                device.write_page(frame)?;
                self.rt.swap_physical(from, frame);
                migrations += 2;
                blocking += 2 * migrate;
                self.action_counts.2 += 1;
            }
        }

        // Dynamic threshold adaptation: keep the hot list busy but not
        // overflowing.
        if self.hot_list.len() >= self.config.max_tracked {
            self.hot_threshold = self.hot_threshold.saturating_mul(2);
        } else if self.hot_list.len() < self.config.max_tracked / 4 {
            self.hot_threshold = (self.hot_threshold / 2).max(2);
        }

        self.cbf.clear();
        if self.epochs.is_multiple_of(self.config.membership_epochs) {
            self.written.clear();
        }
        Ok((migrations, blocking))
    }
}

impl WearLeveler for BloomFilterWl {
    fn name(&self) -> &str {
        "BWL"
    }

    fn page_count(&self) -> u64 {
        self.rt.len()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.rt.translate(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // Strictly before the epoch boundary every logical write is a
        // single device write, so the only unbounded wear source (the
        // epoch migration burst) is excluded by stopping one write
        // short of the boundary. A batch that includes the boundary
        // write is capped at that single write, which is the same
        // granularity the per-write reference loop observes.
        let to_epoch = self.config.epoch_writes - self.epoch_write_count;
        wear_margin
            .saturating_sub(1)
            .min(to_epoch.saturating_sub(1))
            .max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        // Two Bloom filters + cold-hot list, every write (§5.3).
        let engine_cycles = 3 * self.config.access_latency;
        let mut device_writes = 1u32;
        let mut blocking_cycles = 0u64;
        let mut swapped = false;

        let pa = self.rt.translate(la);
        device.write_page(pa)?;

        // Detection path.
        self.written.insert(la.index());
        let est = self.cbf.insert(la.index());
        if est >= self.hot_threshold
            && self.hot_list.len() < self.config.max_tracked
            && !self.hot_list.iter().any(|e| e.la == la)
        {
            self.hot_list.push(HotEntry {
                la,
                estimate: est,
                misses: 0,
            });
        }
        self.epoch_write_count += 1;
        if self.epoch_write_count >= self.config.epoch_writes {
            self.epoch_write_count = 0;
            let (migrations, blocking) = self.epoch_swap(device)?;
            device_writes += migrations;
            blocking_cycles += blocking;
            swapped = migrations > 0;
            twl_telemetry::counter!("twl.baselines.bwl.epochs").inc();
            twl_telemetry::counter!("twl.baselines.bwl.migrations").add(u64::from(migrations));
        }

        let outcome = WriteOutcome {
            pa,
            device_writes,
            swapped,
            engine_cycles,
            blocking_cycles,
        };
        self.stats.record_write(&outcome);
        Ok(outcome)
    }

    fn quiet_writes(&self, la: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
        // Every write strictly before the epoch boundary is a plain
        // write to the current frame plus detection-state updates.
        let to_epoch = self.config.epoch_writes - self.epoch_write_count;
        (self.rt.translate(la), to_epoch - 1)
    }

    #[inline]
    fn record_quiet(&mut self, la: LogicalPageAddr, pa: PhysicalPageAddr, n: u64) -> WriteOutcome {
        // The detection updates of `n` writes have exact O(k) bulk
        // forms: the membership insert is idempotent, the CBF collapses
        // via `insert_n`, and the hot-list push condition is monotone in
        // the estimate, so checking it once at the stretch end selects
        // the same pages the per-write path would (the list itself
        // cannot change mid-stretch).
        self.written.insert(la.index());
        let est = self.cbf.insert_n(la.index(), n);
        if est >= self.hot_threshold
            && self.hot_list.len() < self.config.max_tracked
            && !self.hot_list.iter().any(|e| e.la == la)
        {
            self.hot_list.push(HotEntry {
                la,
                estimate: est,
                misses: 0,
            });
        }
        self.epoch_write_count += n;
        let outcome = WriteOutcome {
            pa,
            device_writes: 1,
            swapped: false,
            engine_cycles: 3 * self.config.access_latency,
            blocking_cycles: 0,
        };
        self.stats.record_write_n(&outcome, n);
        outcome
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.rt.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.access_latency,
        })
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;
    use twl_rng::{SimRng, Xoshiro256StarStar};

    fn setup(pages: u64) -> (PcmDevice, BloomFilterWl) {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(1_000_000)
            .seed(17)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        let bwl = BloomFilterWl::new(&BwlConfig::for_pages(pages), pages);
        (device, bwl)
    }

    #[test]
    fn hot_page_is_detected_and_promoted() {
        let (mut device, mut bwl) = setup(64);
        let hot = LogicalPageAddr::new(5);
        let epoch = bwl.config.epoch_writes;
        for i in 0..epoch {
            let la = if i % 2 == 0 {
                hot
            } else {
                LogicalPageAddr::new(i % 64)
            };
            bwl.write(la, &mut device).unwrap();
        }
        assert_eq!(bwl.epochs(), 1);
        // The hot page must sit inside the strong band (top max_tracked
        // frames by remaining endurance).
        let mut frames: Vec<PhysicalPageAddr> = (0..64).map(PhysicalPageAddr::new).collect();
        frames.sort_by_key(|&pa| std::cmp::Reverse(device.remaining(pa)));
        let rank = frames
            .iter()
            .position(|&pa| pa == bwl.translate(hot))
            .unwrap();
        // With the strong-half hysteresis, "promoted" means anywhere in
        // the stronger half of the remaining-endurance ranking.
        assert!(
            rank < 32,
            "hottest page must sit in the strong half, got rank {rank}"
        );
    }

    #[test]
    fn cold_pages_park_on_weak_frames() {
        let (mut device, mut bwl) = setup(64);
        let epoch = bwl.config.epoch_writes;
        // Touch LA60..63 exactly once early (cold), then hammer others.
        for i in 0..4u64 {
            bwl.write(LogicalPageAddr::new(60 + i), &mut device)
                .unwrap();
        }
        for i in 0..epoch - 4 {
            bwl.write(LogicalPageAddr::new(i % 16), &mut device)
                .unwrap();
        }
        assert_eq!(bwl.epochs(), 1);
        // The weakest frames should now host low-traffic pages.
        let mut frames: Vec<PhysicalPageAddr> = (0..64).map(PhysicalPageAddr::new).collect();
        frames.sort_by_key(|&pa| device.remaining(pa));
        let weakest_resident = bwl.remapping_table().reverse(frames[0]);
        assert!(
            weakest_resident.index() >= 16,
            "a hammered page must not sit on the weakest frame, got {weakest_resident}"
        );
    }

    #[test]
    fn threshold_adapts_upward_under_broad_heat() {
        let (mut device, mut bwl) = setup(256);
        let initial = bwl.hot_threshold();
        // Hammer more distinct pages per epoch than the hot list can
        // hold, so it saturates and the threshold doubles.
        let broad = bwl.config.max_tracked as u64 * 2;
        for _ in 0..4u64 {
            let epoch = bwl.config.epoch_writes;
            for i in 0..epoch {
                bwl.write(LogicalPageAddr::new(i % broad), &mut device)
                    .unwrap();
            }
        }
        assert!(bwl.hot_threshold() > initial, "threshold must rise");
    }

    #[test]
    fn per_write_engine_cost_is_constant_and_high() {
        let (mut device, mut bwl) = setup(64);
        let out = bwl.write(LogicalPageAddr::new(0), &mut device).unwrap();
        assert_eq!(
            out.engine_cycles, 90,
            "two filters + list at 30 cycles each"
        );
    }

    #[test]
    fn write_batch_matches_sequential_writes() {
        let (mut dev_bulk, mut bulk) = setup(64);
        let (mut dev_seq, mut seq) = setup(64);
        // Mix addresses so the hot list and epoch machinery engage, with
        // batch sizes straddling the 512-write epoch.
        for (i, &n) in [3u64, 500, 9, 512, 1, 700, 64].iter().enumerate() {
            let la = LogicalPageAddr::new((i % 4) as u64);
            let batch = bulk.write_batch(la, n, &mut dev_bulk);
            assert_eq!(batch.serviced, n);
            let mut last = None;
            for _ in 0..n {
                last = Some(seq.write(la, &mut dev_seq).unwrap());
            }
            assert_eq!(batch.last, last, "n = {n}");
        }
        assert_eq!(bulk.stats(), seq.stats());
        assert_eq!(bulk.epochs(), seq.epochs());
        assert_eq!(bulk.hot_threshold(), seq.hot_threshold());
        assert_eq!(bulk.remapping_table(), seq.remapping_table());
        assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters());
        assert!(bulk.epochs() >= 3, "the stress actually crossed epochs");
    }

    #[test]
    fn mapping_stays_bijective_under_random_traffic() {
        let (mut device, mut bwl) = setup(128);
        let mut rng = Xoshiro256StarStar::seed_from(3);
        for _ in 0..20_000 {
            bwl.write(LogicalPageAddr::new(rng.next_bounded(128)), &mut device)
                .unwrap();
        }
        assert!(bwl.remapping_table().is_bijective());
        assert_eq!(bwl.stats().device_writes, device.total_writes());
    }
}
