//! Security Refresh (Seong, Woo & Lee, ISCA 2010).
//!
//! The paper's stand-in for *traditional* (PV-unaware) wear leveling
//! ("SR" in Figs. 6, 8, 9). The scheme keeps no per-page tables: each
//! region maps logical offsets to frames by XOR-ing a secret key, and a
//! background *refresh* gradually migrates the region from its current
//! key `k0` to a new random key `k1`, two frames at a time, every
//! `interval` writes. Because a round's swap pairs are
//! `(l·k0, l·k1 = l·k0⊕d)`, each refresh step exchanges exactly two
//! frames and the mapping stays a bijection at every instant.
//!
//! We implement the full **two-level** organisation of the ISCA paper:
//! an outer level randomizes the whole address space (spreading traffic
//! across regions over time) and an inner level per region reacts
//! quickly to concentrated traffic — a region's refresh counter advances
//! with *its own* write traffic, so a hammered region re-keys faster.

use std::error::Error;
use std::fmt;
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_rng::{SimRng, SplitMix64, Xoshiro256StarStar};
use twl_wl_core::{ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// Error returned for invalid [`SrConfig`] parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrError(String);

impl fmt::Display for SrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid Security Refresh configuration: {}", self.0)
    }
}

impl Error for SrError {}

/// Configuration of [`SecurityRefresh`].
///
/// Both refresh intervals default to 128 writes, the rate the DAC'17
/// paper fixes for all schemes' background swaps (Table 1).
///
/// # Examples
///
/// ```
/// use twl_baselines::SrConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SrConfig::for_pages(8192)?;
/// assert_eq!(config.inner_region_pages, 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SrConfig {
    /// Pages per inner region (power of two).
    pub inner_region_pages: u64,
    /// Writes to a region between inner refresh steps.
    pub inner_interval: u64,
    /// Global writes between outer refresh steps.
    pub outer_interval: u64,
    /// Disable the outer level (single-level ablation).
    pub two_level: bool,
    /// Key-generation seed.
    pub seed: u64,
    /// Engine cycles charged per request for the XOR remap datapath.
    pub remap_latency: u64,
}

impl SrConfig {
    /// A sensible configuration for a device of `pages` pages: 64-page
    /// inner regions (or half the device if smaller), both intervals at
    /// 128 (the paper's Table 1 rate), two levels.
    ///
    /// # Errors
    ///
    /// Returns [`SrError`] if `pages` is not a power of two or is < 4.
    pub fn for_pages(pages: u64) -> Result<Self, SrError> {
        if pages < 4 || !pages.is_power_of_two() {
            return Err(SrError(format!(
                "page count must be a power of two >= 4, got {pages}"
            )));
        }
        Ok(Self {
            inner_region_pages: 64.min(pages / 2),
            inner_interval: 128,
            outer_interval: 128,
            two_level: true,
            seed: 0x5345_4355,
            remap_latency: 4,
        })
    }

    /// A configuration for a *scaled* simulation device.
    ///
    /// Security Refresh's protection depends on the ratio between its
    /// refresh-round length and the page endurance: a frame must never
    /// absorb a meaningful fraction of its endurance within one round.
    /// On the nominal device (10⁸ endurance) the paper's interval of 128
    /// easily satisfies this; on a scaled device the intervals must
    /// shrink in proportion or SR spuriously collapses under
    /// concentrated attacks (a scaling artifact, not an SR weakness).
    /// This preset picks 16-page inner regions and intervals bounding a
    /// frame's per-round absorption to ~2 % of its endurance, converging
    /// back to the paper's 128 at nominal endurance.
    ///
    /// # Errors
    ///
    /// Returns [`SrError`] if `pages` is not a power of two or is < 4.
    pub fn for_scaled_device(pages: u64, mean_endurance: u64) -> Result<Self, SrError> {
        let mut config = Self::for_pages(pages)?;
        config.inner_region_pages = 64.min(pages / 2);
        // Under a fully concentrated attack, a frame absorbs one inner
        // round's worth of region writes (inner_n × interval) before the
        // refresh pointer moves the hot offset off it: bound that dwell
        // at ~8 % of endurance.
        let inner_bound = mean_endurance / (12 * config.inner_region_pages);
        config.inner_interval = inner_bound.clamp(4, 128);
        // An outer round parks a hammered address in one region for
        // pages × interval writes, which the inner level spreads over
        // inner_n frames: bound the per-frame share per visit at ~6 %
        // of endurance.
        let outer_bound = mean_endurance * config.inner_region_pages / (16 * pages);
        config.outer_interval = outer_bound.clamp(8, 128);
        Ok(config)
    }

    fn validate(&self, pages: u64) -> Result<(), SrError> {
        if pages < 4 || !pages.is_power_of_two() {
            return Err(SrError(format!(
                "page count must be a power of two >= 4, got {pages}"
            )));
        }
        if !self.inner_region_pages.is_power_of_two() || self.inner_region_pages < 2 {
            return Err(SrError("inner region must be a power of two >= 2".into()));
        }
        if self.inner_region_pages > pages {
            return Err(SrError("inner region larger than device".into()));
        }
        if self.inner_interval == 0 || self.outer_interval == 0 {
            return Err(SrError("refresh intervals must be positive".into()));
        }
        Ok(())
    }
}

/// Reverses the low `bits` bits of `v`.
fn rev_bits(v: u64, bits: u32) -> u64 {
    v.reverse_bits() >> (64 - bits)
}

/// One Security-Refresh level: a dual-key XOR mapping over `2^bits`
/// slots with a gradual refresh pointer.
#[derive(Debug, Clone)]
struct SrLevel {
    bits: u32,
    k0: u64,
    k1: u64,
    /// Refresh pointer: slots `l` with `min(l, l ⊕ d) < rp` use `k1`.
    rp: u64,
    writes: u64,
    interval: u64,
    /// Balanced key schedule: keys enumerate `cycle_base ⊕ rev(0‥n-1)`
    /// (bit-reversed counter), so within any n consecutive rounds every
    /// slot visits every frame exactly once, with *high* address bits
    /// changing first — consecutive rounds land in different regions of
    /// any outer structure. Independent uniform keys would revisit
    /// frames in birthday-clustered bursts, which at simulation scale
    /// concentrates wear; the base re-randomizes each full cycle.
    cycle_base: u64,
    cycle_pos: u64,
    rng: Xoshiro256StarStar,
}

impl SrLevel {
    fn new(bits: u32, interval: u64, seed: u64) -> Self {
        let mut rng = Xoshiro256StarStar::seed_from(seed);
        let n = 1u64 << bits;
        let cycle_base = rng.next_bounded(n);
        Self {
            bits,
            k0: cycle_base,
            k1: cycle_base ^ rev_bits(1, bits),
            rp: 0,
            writes: 0,
            interval,
            cycle_base,
            cycle_pos: 1,
            rng,
        }
    }

    fn slots(&self) -> u64 {
        1u64 << self.bits
    }

    /// Current slot mapping. A slot pair `{l, l ⊕ d}` flips to the new
    /// key atomically when the pointer passes its smaller member, so the
    /// map is a bijection mid-round.
    fn map(&self, l: u64) -> u64 {
        debug_assert!(l < self.slots());
        let d = self.k0 ^ self.k1;
        if l.min(l ^ d) < self.rp {
            l ^ self.k1
        } else {
            l ^ self.k0
        }
    }

    /// Counts one write; every `interval` writes, advances the refresh
    /// pointer one slot and returns the frame pair to exchange, if any.
    fn on_write(&mut self) -> Option<(u64, u64)> {
        self.writes += 1;
        if !self.writes.is_multiple_of(self.interval) {
            return None;
        }
        let d = self.k0 ^ self.k1;
        let p = self.rp;
        self.rp += 1;
        let swap = if d != 0 && p < (p ^ d) {
            Some((p ^ self.k0, p ^ self.k1))
        } else {
            None
        };
        if self.rp == self.slots() {
            // Round complete: retire k0, advance the balanced schedule.
            self.k0 = self.k1;
            self.cycle_pos += 1;
            if self.cycle_pos == self.slots() {
                self.cycle_pos = 0;
                self.cycle_base = self.rng.next_bounded(self.slots());
            }
            self.k1 = self.cycle_base ^ rev_bits(self.cycle_pos, self.bits);
            self.rp = 0;
        }
        swap
    }
}

/// Two-level Security Refresh over a whole device.
///
/// See the module docs above for the algorithm. The outer level
/// shuffles logical pages across the whole device; the inner level
/// re-keys each region at a rate proportional to the region's own write
/// traffic.
#[derive(Debug, Clone)]
pub struct SecurityRefresh {
    config: SrConfig,
    outer: SrLevel,
    inner: Vec<SrLevel>,
    inner_bits: u32,
    stats: WlStats,
}

impl SecurityRefresh {
    /// Creates the scheme for a device of `pages` pages.
    ///
    /// # Errors
    ///
    /// Returns [`SrError`] if `pages` is not a power of two or the
    /// configuration is inconsistent with it.
    pub fn new(config: &SrConfig, pages: u64) -> Result<Self, SrError> {
        config.validate(pages)?;
        let total_bits = pages.trailing_zeros();
        let inner_bits = config.inner_region_pages.trailing_zeros();
        let regions = pages / config.inner_region_pages;
        let mut seeds = SplitMix64::seed_from(config.seed);
        let outer = SrLevel::new(total_bits, config.outer_interval, seeds.next_u64());
        let inner = (0..regions)
            .map(|_| SrLevel::new(inner_bits, config.inner_interval, seeds.next_u64()))
            .collect();
        Ok(Self {
            config: config.clone(),
            outer,
            inner,
            inner_bits,
            stats: WlStats::new(),
        })
    }

    /// The configuration the scheme runs with.
    #[must_use]
    pub fn config(&self) -> &SrConfig {
        &self.config
    }

    /// Scales the refresh rate up by `boost` (intervals divided by it,
    /// floor 1). `boost = 1` restores the configured rate.
    ///
    /// This is the actuation knob of security-level-adjustable schemes
    /// (Security-RBSG, the paper's reference \[7\]): refresh faster
    /// while a wear-out attack is suspected, pay the nominal overhead
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `boost == 0`.
    pub fn set_rate_boost(&mut self, boost: u64) {
        assert!(boost > 0, "boost must be positive");
        self.outer.interval = (self.config.outer_interval / boost).max(1);
        for level in &mut self.inner {
            level.interval = (self.config.inner_interval / boost).max(1);
        }
    }

    /// Maps a logical page through both levels.
    fn map(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        let m = if self.config.two_level {
            self.outer.map(la.index())
        } else {
            la.index()
        };
        let region = (m >> self.inner_bits) as usize;
        let offset = m & (self.config.inner_region_pages - 1);
        let frame = self.inner[region].map(offset);
        PhysicalPageAddr::new(((region as u64) << self.inner_bits) | frame)
    }

    /// Physical frame of an *intermediate* (outer-mapped) address.
    fn frame_of_intermediate(&self, m: u64) -> PhysicalPageAddr {
        let region = (m >> self.inner_bits) as usize;
        let offset = m & (self.config.inner_region_pages - 1);
        PhysicalPageAddr::new(((region as u64) << self.inner_bits) | self.inner[region].map(offset))
    }
}

impl WearLeveler for SecurityRefresh {
    fn name(&self) -> &str {
        "SR"
    }

    fn page_count(&self) -> u64 {
        self.outer.slots()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.map(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // One request write plus up to two refresh swap pairs (two
        // levels) per logical write — at most five device writes total,
        // so no single frame can gain more than eight per write.
        (wear_margin.saturating_sub(1) / 8).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let migrate = device.config().timing.migrate_latency();
        let levels = if self.config.two_level { 2 } else { 1 };
        let engine_cycles = self.config.remap_latency * levels;
        let mut device_writes = 0u32;
        let mut blocking_cycles = 0u64;
        let mut swapped = false;

        // The request itself, through the current mapping.
        let m = if self.config.two_level {
            self.outer.map(la.index())
        } else {
            la.index()
        };
        let region = (m >> self.inner_bits) as usize;
        let pa = self.frame_of_intermediate(m);
        device.write_page(pa)?;
        device_writes += 1;

        // Inner refresh: driven by this region's own traffic, so hot
        // regions re-key faster (the heart of SR's attack resistance).
        if let Some((f1, f2)) = self.inner[region].on_write() {
            let base = (region as u64) << self.inner_bits;
            device.write_page(PhysicalPageAddr::new(base | f1))?;
            device.write_page(PhysicalPageAddr::new(base | f2))?;
            device_writes += 2;
            blocking_cycles += 2 * migrate;
            swapped = true;
            twl_telemetry::counter!("twl.baselines.sr.inner_swaps").inc();
        }

        // Outer refresh: driven by global traffic; exchanges the data of
        // two intermediate addresses, wherever their regions' inner maps
        // put them.
        if self.config.two_level {
            if let Some((m1, m2)) = self.outer.on_write() {
                let pa1 = self.frame_of_intermediate(m1);
                let pa2 = self.frame_of_intermediate(m2);
                device.write_page(pa1)?;
                device.write_page(pa2)?;
                device_writes += 2;
                blocking_cycles += 2 * migrate;
                swapped = true;
                twl_telemetry::counter!("twl.baselines.sr.outer_swaps").inc();
            }
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

    /// Between refresh events nothing in SR moves: both levels'
    /// mappings are functions of `(k0, k1, rp)`, which only change when
    /// a level's write counter crosses a multiple of its interval, and
    /// the counters advance by exactly one per serviced write. So the
    /// stretch until the next event on *either* level is a run of
    /// identical plain writes to one frame.
    fn quiet_writes(&self, la: LogicalPageAddr) -> (PhysicalPageAddr, u64) {
        let m = if self.config.two_level {
            self.outer.map(la.index())
        } else {
            la.index()
        };
        let inner = &self.inner[(m >> self.inner_bits) as usize];
        // Writes until a level's counter next hits a multiple of its
        // interval (`i - w % i`, which is `i` right after an event). The
        // outer level never fires when disabled — its counter does not
        // advance on the scalar path either.
        let until_inner = inner.interval - inner.writes % inner.interval;
        let until_outer = if self.config.two_level {
            self.outer.interval - self.outer.writes % self.outer.interval
        } else {
            u64::MAX
        };
        (
            self.frame_of_intermediate(m),
            until_inner.min(until_outer) - 1,
        )
    }

    #[inline]
    fn record_quiet(&mut self, _: LogicalPageAddr, pa: PhysicalPageAddr, n: u64) -> WriteOutcome {
        // The frame's high bits are its inner region.
        self.inner[(pa.index() >> self.inner_bits) as usize].writes += n;
        let levels = if self.config.two_level {
            self.outer.writes += n;
            2
        } else {
            1
        };
        let outcome = WriteOutcome {
            pa,
            device_writes: 1,
            swapped: false,
            engine_cycles: self.config.remap_latency * levels,
            blocking_cycles: 0,
        };
        self.stats.record_write_n(&outcome, n);
        outcome
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.map(la);
        device.read_page(pa)?;
        let levels = if self.config.two_level { 2 } else { 1 };
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.remap_latency * levels,
        })
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use twl_pcm::PcmConfig;

    fn scheme(pages: u64) -> SecurityRefresh {
        SecurityRefresh::new(&SrConfig::for_pages(pages).unwrap(), pages).unwrap()
    }

    #[test]
    fn level_map_is_bijective_through_a_round() {
        let mut level = SrLevel::new(6, 1, 42);
        for _ in 0..200 {
            let mapped: HashSet<u64> = (0..64).map(|l| level.map(l)).collect();
            assert_eq!(mapped.len(), 64, "mapping must stay a permutation");
            let _ = level.on_write();
        }
    }

    #[test]
    fn level_swaps_track_mapping_changes() {
        // Whenever on_write returns a frame pair, exactly the two logical
        // slots mapping to those frames must exchange mappings.
        let mut level = SrLevel::new(5, 1, 7);
        for _ in 0..200 {
            let before: Vec<u64> = (0..32).map(|l| level.map(l)).collect();
            let swap = level.on_write();
            let after: Vec<u64> = (0..32).map(|l| level.map(l)).collect();
            match swap {
                None => {
                    // A round boundary may have occurred, but with rp
                    // reset the k0←k1 handover preserves the map.
                    assert_eq!(before, after, "no-swap step must not move data");
                }
                Some((f1, f2)) => {
                    let mut moved = 0;
                    for l in 0..32usize {
                        if before[l] != after[l] {
                            moved += 1;
                            assert!(before[l] == f1 || before[l] == f2);
                            assert!(after[l] == f1 || after[l] == f2);
                        }
                    }
                    assert_eq!(moved, 2, "exactly the swapped pair moves");
                }
            }
        }
    }

    #[test]
    fn whole_device_mapping_is_bijective_under_traffic() {
        let pages = 256;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(1_000_000)
            .seed(3)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut sr = scheme(pages);
        let mut rng = Xoshiro256StarStar::seed_from(9);
        for _ in 0..10_000 {
            let la = LogicalPageAddr::new(rng.next_bounded(pages));
            sr.write(la, &mut device).unwrap();
            if device.total_writes().is_multiple_of(1000) {
                let mapped: HashSet<u64> = (0..pages)
                    .map(|l| sr.translate(LogicalPageAddr::new(l)).index())
                    .collect();
                assert_eq!(mapped.len(), pages as usize);
            }
        }
    }

    #[test]
    fn repeat_traffic_spreads_wear() {
        let pages = 256;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000_000)
            .seed(5)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut config = SrConfig::for_pages(pages).unwrap();
        config.inner_interval = 8;
        config.outer_interval = 8;
        let mut sr = SecurityRefresh::new(&config, pages).unwrap();
        let la = LogicalPageAddr::new(0);
        for _ in 0..200_000 {
            sr.write(la, &mut device).unwrap();
        }
        let touched = device.wear_counters().iter().filter(|&&w| w > 0).count();
        assert!(
            touched > pages as usize / 2,
            "randomized refresh must spread a repeat attack; touched {touched}"
        );
    }

    #[test]
    fn stats_match_device() {
        let pages = 128;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(1_000_000)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut sr = scheme(pages);
        for i in 0..5_000u64 {
            sr.write(LogicalPageAddr::new(i % pages), &mut device)
                .unwrap();
        }
        assert_eq!(sr.stats().device_writes, device.total_writes());
        assert!(sr.stats().swaps > 0);
        // Extra-write ratio ≈ 2/inner + 2/outer = 2/128 + 2/128 ≈ 3.1 %.
        let ratio = sr.stats().extra_write_ratio();
        assert!((0.02..0.05).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn non_power_of_two_rejected() {
        assert!(SrConfig::for_pages(100).is_err());
        let config = SrConfig::for_pages(128).unwrap();
        assert!(SecurityRefresh::new(&config, 96).is_err());
    }

    #[test]
    fn single_level_ablation_works() {
        let pages = 128;
        let mut config = SrConfig::for_pages(pages).unwrap();
        config.two_level = false;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(1_000_000)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let mut sr = SecurityRefresh::new(&config, pages).unwrap();
        for i in 0..1_000u64 {
            sr.write(LogicalPageAddr::new(i % pages), &mut device)
                .unwrap();
        }
        assert_eq!(sr.stats().logical_writes, 1_000);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;
    use twl_pcm::PcmConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Any legal region/interval geometry keeps the whole-device
        /// mapping a permutation under arbitrary traffic.
        #[test]
        fn arbitrary_geometry_stays_bijective(
            pages_log2 in 4u32..9,
            inner_log2 in 1u32..6,
            inner_interval in 1u64..64,
            outer_interval in 1u64..64,
            two_level in any::<bool>(),
            writes in proptest::collection::vec(0u64..512, 1..400),
        ) {
            let pages = 1u64 << pages_log2;
            let inner = (1u64 << inner_log2).min(pages / 2);
            let config = SrConfig {
                inner_region_pages: inner,
                inner_interval,
                outer_interval,
                two_level,
                seed: 7,
                remap_latency: 4,
            };
            let pcm = PcmConfig::builder()
                .pages(pages)
                .mean_endurance(10_000_000)
                .seed(1)
                .build()
                .expect("valid config");
            let mut device = PcmDevice::new(&pcm);
            let mut sr = SecurityRefresh::new(&config, pages).expect("valid geometry");
            for &w in &writes {
                sr.write(LogicalPageAddr::new(w % pages), &mut device).expect("healthy");
            }
            let mapped: HashSet<u64> = (0..pages)
                .map(|l| sr.translate(LogicalPageAddr::new(l)).index())
                .collect();
            prop_assert_eq!(mapped.len() as u64, pages);
            prop_assert_eq!(sr.stats().device_writes, device.total_writes());
        }

        /// The rate boost divides intervals and never stalls refresh.
        #[test]
        fn rate_boost_is_monotone(boost in 1u64..1000) {
            let pages = 128u64;
            let pcm = PcmConfig::builder()
                .pages(pages)
                .mean_endurance(10_000_000)
                .build()
                .expect("valid config");
            let mut device = PcmDevice::new(&pcm);
            let mut sr =
                SecurityRefresh::new(&SrConfig::for_pages(pages).expect("pow2"), pages).expect("valid");
            sr.set_rate_boost(boost);
            for i in 0..5_000u64 {
                sr.write(LogicalPageAddr::new(i % pages), &mut device).expect("healthy");
            }
            // Higher boost -> at least as many swaps as the base rate
            // would produce (2 per 128 writes per level).
            let min_swaps = if boost >= 2 { 5_000 / 64 } else { 5_000 / 128 };
            prop_assert!(sr.stats().swaps >= min_swaps,
                "boost {} produced only {} swaps", boost, sr.stats().swaps);
        }
    }
}
