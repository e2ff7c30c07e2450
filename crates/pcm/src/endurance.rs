//! Process-variation endurance map.

use crate::{table, InternTable, PcmConfig, PcmError, PhysicalPageAddr};
use std::sync::Arc;
use twl_rng::Xoshiro256StarStar;

/// Generated maps by [`PcmConfig::endurance_key`].
static LIVE_MAPS: InternTable<(u64, u64, u64, u64), Values> = InternTable::new();

/// A map's per-page values with the two aggregates read on every
/// fail-stop run's report, computed once where the values are made.
#[derive(Debug, PartialEq, Eq)]
struct Values {
    /// Endurance by physical page. `u32` holds any endurance the
    /// Gaussian model draws for a valid [`PcmConfig`] (the paper's mean
    /// is 10⁸); construction refuses anything wider with
    /// [`PcmError::EnduranceTooLarge`].
    pages: Vec<u32>,
    /// Sum of `pages`.
    total: u128,
    /// Largest entry of `pages`.
    max: u32,
}

impl Values {
    /// Wraps `pages` (non-empty) with its aggregates.
    fn new(pages: Vec<u32>) -> Arc<Self> {
        // Fewer than 2³² values below 2³² each: the sum fits a `u64`.
        let (total, max) = pages.iter().fold((0u64, 0u32), |(total, max), &v| {
            (total + u64::from(v), max.max(v))
        });
        Arc::new(Self {
            pages,
            total: u128::from(total),
            max,
        })
    }
}

/// The per-page endurance values drawn from the process-variation model.
///
/// §5.1: *"We assume that the endurance variation follows a Gauss
/// distribution while endurance information is tested and stored at the
/// granularity of page-size. The mean endurance is 10⁸ and the standard
/// variation is 11 % of the mean."*
///
/// Manufacturers test endurance at production time, so schemes may read
/// this map freely (it is the paper's endurance table, ET). Values are
/// clipped below at 1 write and stored as `u32`: every endurance must be
/// at most `u32::MAX` (about 43 times the paper's mean).
///
/// A map is immutable, so clones share one allocation: cloning is cheap
/// and every clone reads the same values.
///
/// # Examples
///
/// ```
/// use twl_pcm::{EnduranceMap, PcmConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder().pages(64).mean_endurance(1000).seed(3).build()?;
/// let map = EnduranceMap::generate(&config)?;
/// assert_eq!(map.len(), 64);
/// assert!(map.min() <= map.max());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnduranceMap {
    /// The values sit in their own allocation, not inline in the `Arc`,
    /// so the intern table's `Weak` pins only the small `Arc` header
    /// once the last holder drops.
    values: Arc<Values>,
}

impl EnduranceMap {
    /// Draws the endurance of every page from the configured Gaussian.
    ///
    /// The draw depends only on `seed`, `pages`, `mean_endurance` and
    /// `sigma_fraction`. While any map generated from those four values
    /// is alive (held by a device, a scheme or a clone), a call with the
    /// same four values returns a map sharing its storage instead of
    /// drawing again — at the paper's 8,388,608 pages a draw is about
    /// 0.5 s and 32 MB. Once every holder has dropped, the values are
    /// freed and the next call draws afresh, to an equal map. Two threads
    /// that miss at the same moment both draw (no lock is held while
    /// drawing); the second to finish adopts the first's map.
    ///
    /// # Errors
    ///
    /// [`PcmError::EnduranceTooLarge`] for the first page whose draw
    /// exceeds `u32::MAX`. A config that [`crate::PcmConfigBuilder::build`]
    /// accepted never draws one.
    pub fn generate(config: &PcmConfig) -> Result<Self, PcmError> {
        let values = LIVE_MAPS.get_or_try_make(config.endurance_key(), || Self::draw(config))?;
        Ok(Self { values })
    }

    /// Draws the values [`EnduranceMap::generate`] shares.
    fn draw(config: &PcmConfig) -> Result<Arc<Values>, PcmError> {
        let mut rng = Xoshiro256StarStar::seed_from(config.seed ^ 0x5043_4D5F_454E_4455);
        let sampler = config.endurance_sampler();
        // The first draw past `u32::MAX`, if any; the table is then
        // dropped. (An early return from inside the draw loop makes the
        // loop about twice as slow.)
        let mut wide = None;
        let pages = table::collected(
            config.pages as usize,
            (0..config.pages).map(|page| {
                let drawn = sampler.sample_clipped(&mut rng, 1.0).round() as u64;
                narrow(page, drawn).unwrap_or_else(|e| {
                    wide.get_or_insert(e);
                    u32::MAX
                })
            }),
        );
        match wide {
            Some(e) => Err(e),
            None => Ok(Values::new(pages)),
        }
    }

    /// Builds a map from explicit per-page values (for tests and custom
    /// variation models).
    ///
    /// # Panics
    ///
    /// Panics with the error [`EnduranceMap::try_from_values`] returns:
    /// if `values` is empty, contains a zero, or holds a value past
    /// `u32::MAX`.
    #[must_use]
    pub fn from_values(values: Vec<u64>) -> Self {
        Self::try_from_values(values).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds a map from explicit per-page values, refusing values the
    /// `u32` table cannot hold.
    ///
    /// # Errors
    ///
    /// [`PcmError::InvalidConfig`] if `values` is empty or contains a
    /// zero; [`PcmError::EnduranceTooLarge`] for the first value past
    /// `u32::MAX`.
    pub fn try_from_values(values: Vec<u64>) -> Result<Self, PcmError> {
        if values.is_empty() {
            return Err(PcmError::InvalidConfig(
                "endurance map cannot be empty".into(),
            ));
        }
        if values.contains(&0) {
            return Err(PcmError::InvalidConfig(
                "endurance values must be positive".into(),
            ));
        }
        let pages = values
            .into_iter()
            .zip(0..)
            .map(|(v, page)| narrow(page, v))
            .collect::<Result<_, _>>()?;
        Ok(Self {
            values: Values::new(pages),
        })
    }

    /// Number of pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.pages.len()
    }

    /// Whether the map is empty (never true for generated maps).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.pages.is_empty()
    }

    /// Endurance of one page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn endurance(&self, addr: PhysicalPageAddr) -> u64 {
        u64::from(self.values.pages[addr.as_usize()])
    }

    /// Iterates over `(address, endurance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PhysicalPageAddr, u64)> + '_ {
        self.values
            .pages
            .iter()
            .enumerate()
            .map(|(i, &e)| (PhysicalPageAddr::new(i as u64), u64::from(e)))
    }

    /// The weakest page's endurance.
    #[must_use]
    pub fn min(&self) -> u64 {
        u64::from(*self.values.pages.iter().min().expect("map is non-empty"))
    }

    /// The strongest page's endurance (computed once, with the map).
    #[must_use]
    pub fn max(&self) -> u64 {
        u64::from(self.values.max)
    }

    /// Sum of all pages' endurance — the device's ideal write capacity
    /// (computed once, with the map).
    #[must_use]
    pub fn total(&self) -> u128 {
        self.values.total
    }

    /// Mean endurance over the drawn map.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total() as f64 / self.len() as f64
    }

    /// The raw per-page endurance values, indexed by physical page.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[u32] {
        &self.values.pages
    }

    /// A map covering only the first `pages` pages.
    ///
    /// Because [`EnduranceMap::generate`] draws pages sequentially from
    /// the seeded stream, truncating a larger device's map yields
    /// exactly the map a `pages`-page device with the same seed would
    /// draw. `twl-faults` uses this to build schemes over the data
    /// region of a device provisioned with extra spare pages. Truncating
    /// to the full length returns a clone sharing this map's storage.
    ///
    /// # Panics
    ///
    /// Panics if `pages` is zero or exceeds the map's length.
    #[must_use]
    pub fn truncated(&self, pages: usize) -> Self {
        assert!(
            pages > 0 && pages <= self.len(),
            "truncation length {pages} outside 1..={}",
            self.len()
        );
        if pages == self.len() {
            return self.clone();
        }
        Self {
            values: Values::new(self.values.pages[..pages].to_vec()),
        }
    }

    /// Page addresses sorted by ascending endurance (weakest first), ties
    /// broken by ascending address.
    ///
    /// This is the sort the paper's Strong-Weak Pairing performs once at
    /// configuration time. Each page sorts as one `u64` key, its `u32`
    /// endurance above its index (fewer than 2³² pages fit the low
    /// half), which orders exactly as the `(endurance, address)` pair;
    /// the keys are unique, so the unstable sort yields the one
    /// ascending order.
    #[must_use]
    pub fn sorted_by_endurance(&self) -> Vec<PhysicalPageAddr> {
        let values = &self.values.pages;
        assert!(
            u32::try_from(values.len() - 1).is_ok(),
            "sort keys hold page indices in 32 bits"
        );
        let mut keys: Vec<u64> = values
            .iter()
            .zip(0u64..)
            .map(|(&e, i)| u64::from(e) << 32 | i)
            .collect();
        keys.sort_unstable();
        keys.into_iter()
            .map(|k| PhysicalPageAddr::new(k & u64::from(u32::MAX)))
            .collect()
    }
}

/// `page`'s endurance in the table's `u32`, or the error naming it.
fn narrow(page: u64, endurance: u64) -> Result<u32, PcmError> {
    u32::try_from(endurance).map_err(|_| PcmError::EnduranceTooLarge { page, endurance })
}

/// Whether the intern table holds an entry, live or dead, for the map
/// `config` draws.
#[cfg(test)]
fn is_interned(config: &PcmConfig) -> bool {
    LIVE_MAPS.contains(&config.endurance_key())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PcmDevice;
    use proptest::prelude::*;
    use twl_rng::{SimRng, SplitMix64};

    /// The order `sorted_by_endurance` must produce, by the comparator
    /// sort it replaced.
    fn reference_order(values: &[u64]) -> Vec<PhysicalPageAddr> {
        let mut order: Vec<usize> = (0..values.len()).collect();
        order.sort_by_key(|&i| (values[i], i));
        order
            .into_iter()
            .map(|i| PhysicalPageAddr::new(i as u64))
            .collect()
    }

    fn assert_sorts_like_reference(values: Vec<u64>) {
        let want = reference_order(&values);
        let got = EnduranceMap::from_values(values.clone()).sorted_by_endurance();
        assert_eq!(got, want, "values {values:?}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn sort_matches_reference(regime in 0u8..4, len in 1usize..300, seed in any::<u64>()) {
            let mut rng = SplitMix64::seed_from(seed);
            let values = (0..len)
                .map(|_| match regime {
                    // Heavy ties: only three distinct endurances.
                    0 => 1 + rng.next_bounded(3),
                    // The table's whole range.
                    1 => 1 + rng.next_bounded(u64::from(u32::MAX)),
                    // At the table's limit.
                    2 => u64::from(u32::MAX) - rng.next_bounded(4),
                    // Ties and near-maximum values in one map.
                    _ => {
                        if rng.next_bounded(2) == 0 {
                            1 + rng.next_bounded(3)
                        } else {
                            u64::from(u32::MAX) - rng.next_bounded(3)
                        }
                    }
                })
                .collect();
            assert_sorts_like_reference(values);
        }
    }

    #[test]
    fn sort_matches_reference_at_packing_edges() {
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 255, 256, 257, 1000] {
            // The widest endurances a key holds, each as the map's
            // maximum among ties.
            let widest = u64::from(u32::MAX);
            for top in [widest - 1, widest] {
                let values = (0..len as u64)
                    .map(|i| if i % 3 == 1 { top } else { 1 + i % 2 })
                    .collect();
                assert_sorts_like_reference(values);
            }
        }
    }

    #[test]
    fn generated_maps_share_storage_per_config() {
        let c = small_config(96, 0x1A7E);
        let a = PcmDevice::new(&c);
        let b = PcmDevice::new(&c);
        assert!(std::ptr::eq(
            a.endurance_map().values(),
            b.endurance_map().values()
        ));
        let full = a.endurance_map().truncated(96);
        assert!(std::ptr::eq(full.values(), a.endurance_map().values()));
        // Fields the draw does not read still share.
        let mut retimed = c.clone();
        retimed.banks += 1;
        let d = PcmDevice::new(&retimed);
        assert!(std::ptr::eq(
            d.endurance_map().values(),
            a.endurance_map().values()
        ));
    }

    #[test]
    fn any_drawn_field_changes_the_map() {
        let c = small_config(96, 0x5EED);
        let base = EnduranceMap::generate(&c).unwrap();
        let mut variants = vec![c.clone(); 4];
        variants[0].seed += 1;
        variants[1].pages += 2;
        variants[2].mean_endurance += 1;
        variants[3].sigma_fraction = 0.12;
        for v in &variants {
            let other = EnduranceMap::generate(v).unwrap();
            assert!(!std::ptr::eq(other.values(), base.values()), "{v:?}");
            assert_eq!(other, EnduranceMap::generate(v).unwrap());
        }
    }

    #[test]
    fn map_is_redrawn_equal_after_every_holder_drops() {
        let c = small_config(96, 0xD20F);
        let device = PcmDevice::new(&c);
        let first = device.endurance_map().values().to_vec();
        let clone = device.endurance_map().clone();
        drop(device);
        assert_eq!(EnduranceMap::generate(&c).unwrap().values(), &first[..]);
        drop(clone);
        let again = PcmDevice::new(&c);
        assert_eq!(again.endurance_map().values(), &first[..]);
    }

    #[test]
    fn dead_maps_leave_the_intern_table() {
        // A mean no other test draws, so no other test holds these keys.
        let config = |seed| PcmConfig::scaled(8, 7_654_321, seed);
        for seed in 0..1000 {
            drop(EnduranceMap::generate(&config(seed)).unwrap());
        }
        // The next insert drops every dead entry.
        let live = EnduranceMap::generate(&config(1000)).unwrap();
        assert!((0..1000).all(|seed| !is_interned(&config(seed))));
        assert!(is_interned(&config(1000)));
        drop(live);
    }

    fn small_config(pages: u64, seed: u64) -> PcmConfig {
        PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100_000)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn generation_is_deterministic() {
        let c = small_config(512, 9);
        assert_eq!(
            EnduranceMap::generate(&c).unwrap(),
            EnduranceMap::generate(&c).unwrap()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = EnduranceMap::generate(&small_config(512, 1)).unwrap();
        let b = EnduranceMap::generate(&small_config(512, 2)).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn statistics_match_model() {
        let c = small_config(65_536, 4);
        let map = EnduranceMap::generate(&c).unwrap();
        let mean = map.mean();
        assert!((mean / 1e5 - 1.0).abs() < 0.01, "mean = {mean}");
        // Empirical min of 65k Gaussian draws sits near µ−4.4σ.
        let z_min = (1e5 - map.min() as f64) / (0.11 * 1e5);
        assert!((3.7..5.5).contains(&z_min), "z_min = {z_min}");
    }

    #[test]
    fn sorted_is_ascending_and_complete() {
        let c = small_config(128, 5);
        let map = EnduranceMap::generate(&c).unwrap();
        let order = map.sorted_by_endurance();
        assert_eq!(order.len(), 128);
        for w in order.windows(2) {
            assert!(map.endurance(w[0]) <= map.endurance(w[1]));
        }
        let mut seen = [false; 128];
        for pa in &order {
            seen[pa.as_usize()] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn from_values_accessors() {
        let map = EnduranceMap::from_values(vec![10, 20, 30]);
        assert_eq!(map.min(), 10);
        assert_eq!(map.max(), 30);
        assert_eq!(map.total(), 60);
        assert_eq!(map.endurance(PhysicalPageAddr::new(1)), 20);
        assert!(!map.is_empty());
    }

    #[test]
    fn aggregates_match_a_recount() {
        let recount = |map: &EnduranceMap| {
            let values = map.values();
            (
                values.iter().map(|&v| u128::from(v)).sum::<u128>(),
                values.iter().copied().max().map(u64::from),
            )
        };
        let big = EnduranceMap::generate(&small_config(4096, 11)).unwrap();
        for map in [big.clone(), big.truncated(17), big.truncated(1)] {
            assert_eq!((map.total(), Some(map.max())), recount(&map));
        }
        let edge = EnduranceMap::from_values(vec![u64::from(u32::MAX); 3]);
        assert_eq!(edge.total(), 3 * u128::from(u32::MAX));
        assert_eq!(edge.max(), u64::from(u32::MAX));
    }

    #[test]
    fn values_past_u32_are_refused_with_their_page() {
        let wide = u64::from(u32::MAX) + 1;
        assert_eq!(
            EnduranceMap::try_from_values(vec![5, u64::from(u32::MAX), wide, 7]),
            Err(PcmError::EnduranceTooLarge {
                page: 2,
                endurance: wide
            })
        );
        let refused = std::panic::catch_unwind(|| EnduranceMap::from_values(vec![wide]))
            .expect_err("from_values panics on a value past u32::MAX");
        let msg = refused.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("endurance 4294967296 of page 0"), "{msg}");
        assert!(matches!(
            EnduranceMap::try_from_values(Vec::new()),
            Err(PcmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn generate_refuses_a_draw_past_u32() {
        // Built around the validation, as a struct literal can be.
        let mut config = small_config(64, 3);
        config.mean_endurance = 1 << 33;
        config.sigma_fraction = 0.0;
        assert_eq!(
            EnduranceMap::generate(&config),
            Err(PcmError::EnduranceTooLarge {
                page: 0,
                endurance: 1 << 33
            })
        );
        assert!(!is_interned(&config), "a refused draw is not interned");
    }

    #[test]
    #[should_panic(expected = "endurance values must be positive")]
    fn zero_endurance_rejected() {
        let _ = EnduranceMap::from_values(vec![1, 0]);
    }

    #[test]
    fn truncation_matches_smaller_generation() {
        let big = EnduranceMap::generate(&small_config(256, 7)).unwrap();
        let small = EnduranceMap::generate(&small_config(64, 7)).unwrap();
        assert_eq!(big.truncated(64), small);
        assert_eq!(big.truncated(256), big);
    }
}
