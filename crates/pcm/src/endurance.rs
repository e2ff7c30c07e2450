//! Process-variation endurance map.

use crate::{PcmConfig, PhysicalPageAddr};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, Weak};
use twl_rng::{GaussianSampler, Xoshiro256StarStar};

/// The [`PcmConfig`] fields a drawn map depends on: seed, pages, mean
/// endurance and `sigma_fraction.to_bits()`.
type MapKey = (u64, u64, u64, u64);

/// Generated maps by the config fields they were drawn from. Entries are
/// `Weak`, so the table never keeps a map's values past its last holder;
/// entries whose maps have died are dropped on the next insert.
static LIVE_MAPS: LazyLock<Mutex<HashMap<MapKey, Weak<Vec<u64>>>>> = LazyLock::new(Mutex::default);

fn map_key(config: &PcmConfig) -> MapKey {
    (
        config.seed,
        config.pages,
        config.mean_endurance,
        config.sigma_fraction.to_bits(),
    )
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
/// clipped below at 1 write.
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
/// let map = EnduranceMap::generate(&config);
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
    values: Arc<Vec<u64>>,
}

impl EnduranceMap {
    /// Draws the endurance of every page from the configured Gaussian.
    ///
    /// The draw depends only on `seed`, `pages`, `mean_endurance` and
    /// `sigma_fraction`. While any map generated from those four values
    /// is alive (held by a device, a scheme or a clone), a call with the
    /// same four values returns a map sharing its storage instead of
    /// drawing again — at the paper's 8,388,608 pages a draw is about
    /// 0.5 s and 64 MB. Once every holder has dropped, the values are
    /// freed and the next call draws afresh, to an equal map. Two threads
    /// that miss at the same moment both draw (no lock is held while
    /// drawing); the second to finish adopts the first's map.
    #[must_use]
    pub fn generate(config: &PcmConfig) -> Self {
        let key = map_key(config);
        let live = || LIVE_MAPS.lock().expect("endurance intern lock poisoned");
        let twin = live().get(&key).and_then(Weak::upgrade);
        if let Some(values) = twin {
            return Self { values };
        }
        let mut rng = Xoshiro256StarStar::seed_from(config.seed ^ 0x5043_4D5F_454E_4455);
        let sampler = GaussianSampler::new(
            config.mean_endurance as f64,
            config.sigma_fraction * config.mean_endurance as f64,
        );
        let drawn = Arc::new(
            (0..config.pages)
                .map(|_| sampler.sample_clipped(&mut rng, 1.0).round() as u64)
                .collect(),
        );
        let mut live = live();
        if let Some(values) = live.get(&key).and_then(Weak::upgrade) {
            return Self { values };
        }
        live.retain(|_, map| map.strong_count() > 0);
        live.insert(key, Arc::downgrade(&drawn));
        Self { values: drawn }
    }

    /// Builds a map from explicit per-page values (for tests and custom
    /// variation models).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a zero.
    #[must_use]
    pub fn from_values(values: Vec<u64>) -> Self {
        assert!(!values.is_empty(), "endurance map cannot be empty");
        assert!(
            values.iter().all(|&v| v > 0),
            "endurance values must be positive"
        );
        Self {
            values: Arc::new(values),
        }
    }

    /// Number of pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map is empty (never true for generated maps).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Endurance of one page.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn endurance(&self, addr: PhysicalPageAddr) -> u64 {
        self.values[addr.as_usize()]
    }

    /// Iterates over `(address, endurance)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PhysicalPageAddr, u64)> + '_ {
        self.values
            .iter()
            .enumerate()
            .map(|(i, &e)| (PhysicalPageAddr::new(i as u64), e))
    }

    /// The weakest page's endurance.
    #[must_use]
    pub fn min(&self) -> u64 {
        *self.values.iter().min().expect("map is non-empty")
    }

    /// The strongest page's endurance.
    #[must_use]
    pub fn max(&self) -> u64 {
        *self.values.iter().max().expect("map is non-empty")
    }

    /// Sum of all pages' endurance — the device's ideal write capacity.
    #[must_use]
    pub fn total(&self) -> u128 {
        self.values.iter().map(|&v| u128::from(v)).sum()
    }

    /// Mean endurance over the drawn map.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.total() as f64 / self.len() as f64
    }

    /// The raw per-page endurance values, indexed by physical page.
    #[inline]
    #[must_use]
    pub fn values(&self) -> &[u64] {
        &self.values
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
            pages > 0 && pages <= self.values.len(),
            "truncation length {pages} outside 1..={}",
            self.values.len()
        );
        if pages == self.values.len() {
            return self.clone();
        }
        Self {
            values: Arc::new(self.values[..pages].to_vec()),
        }
    }

    /// Page addresses sorted by ascending endurance (weakest first), ties
    /// broken by ascending address.
    ///
    /// This is the sort the paper's Strong-Weak Pairing performs once at
    /// configuration time. It sorts `(endurance, address)` keys directly
    /// rather than addresses through a comparator that looks each one's
    /// endurance up; the keys are unique, so the unstable sort yields the
    /// one ascending order.
    #[must_use]
    pub fn sorted_by_endurance(&self) -> Vec<PhysicalPageAddr> {
        let index_bits = usize::BITS - (self.values.len() - 1).leading_zeros();
        if self.max().leading_zeros() >= index_bits {
            // Every endurance fits above the address bits, so one packed
            // `u64` per page orders exactly as the `(endurance, address)`
            // pair and sorts in half the memory.
            let mut keys: Vec<u64> = self
                .values
                .iter()
                .enumerate()
                .map(|(i, &e)| e << index_bits | i as u64)
                .collect();
            keys.sort_unstable();
            let mask = (1u64 << index_bits) - 1;
            return keys
                .into_iter()
                .map(|k| PhysicalPageAddr::new(k & mask))
                .collect();
        }
        let mut pairs: Vec<(u64, u64)> = self
            .values
            .iter()
            .enumerate()
            .map(|(i, &e)| (e, i as u64))
            .collect();
        pairs.sort_unstable();
        pairs
            .into_iter()
            .map(|(_, i)| PhysicalPageAddr::new(i))
            .collect()
    }
}

/// Whether the intern table holds an entry, live or dead, for the map
/// `config` draws.
#[cfg(test)]
fn is_interned(config: &PcmConfig) -> bool {
    LIVE_MAPS
        .lock()
        .expect("endurance intern lock poisoned")
        .contains_key(&map_key(config))
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
                    // The Gaussian's range at every simulated scale.
                    1 => 1 + rng.next_bounded(1 << 40),
                    // Too wide to pack beside the address.
                    2 => u64::MAX - rng.next_bounded(4),
                    // Ties and near-maximum values in one map.
                    _ => {
                        if rng.next_bounded(2) == 0 {
                            1 + rng.next_bounded(3)
                        } else {
                            u64::MAX - rng.next_bounded(3)
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
            let index_bits = usize::BITS - (len - 1).leading_zeros();
            // The largest endurance that still packs, and the smallest
            // that does not, each as the map's maximum among ties.
            let widest = u64::MAX >> index_bits;
            for top in [widest, widest.saturating_add(1), u64::MAX] {
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
        let base = EnduranceMap::generate(&c);
        let mut variants = vec![c.clone(); 4];
        variants[0].seed += 1;
        variants[1].pages += 2;
        variants[2].mean_endurance += 1;
        variants[3].sigma_fraction = 0.12;
        for v in &variants {
            let other = EnduranceMap::generate(v);
            assert!(!std::ptr::eq(other.values(), base.values()), "{v:?}");
            assert_eq!(other, EnduranceMap::generate(v));
        }
    }

    #[test]
    fn map_is_redrawn_equal_after_every_holder_drops() {
        let c = small_config(96, 0xD20F);
        let device = PcmDevice::new(&c);
        let first = device.endurance_map().values().to_vec();
        let clone = device.endurance_map().clone();
        drop(device);
        assert_eq!(EnduranceMap::generate(&c).values(), &first[..]);
        drop(clone);
        let again = PcmDevice::new(&c);
        assert_eq!(again.endurance_map().values(), &first[..]);
    }

    #[test]
    fn dead_maps_leave_the_intern_table() {
        // A mean no other test draws, so no other test holds these keys.
        let config = |seed| PcmConfig::scaled(8, 7_654_321, seed);
        for seed in 0..1000 {
            drop(EnduranceMap::generate(&config(seed)));
        }
        // The next insert drops every dead entry.
        let live = EnduranceMap::generate(&config(1000));
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
        assert_eq!(EnduranceMap::generate(&c), EnduranceMap::generate(&c));
    }

    #[test]
    fn different_seeds_differ() {
        let a = EnduranceMap::generate(&small_config(512, 1));
        let b = EnduranceMap::generate(&small_config(512, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn statistics_match_model() {
        let c = small_config(65_536, 4);
        let map = EnduranceMap::generate(&c);
        let mean = map.mean();
        assert!((mean / 1e5 - 1.0).abs() < 0.01, "mean = {mean}");
        // Empirical min of 65k Gaussian draws sits near µ−4.4σ.
        let z_min = (1e5 - map.min() as f64) / (0.11 * 1e5);
        assert!((3.7..5.5).contains(&z_min), "z_min = {z_min}");
    }

    #[test]
    fn sorted_is_ascending_and_complete() {
        let c = small_config(128, 5);
        let map = EnduranceMap::generate(&c);
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
    #[should_panic(expected = "endurance values must be positive")]
    fn zero_endurance_rejected() {
        let _ = EnduranceMap::from_values(vec![1, 0]);
    }

    #[test]
    fn truncation_matches_smaller_generation() {
        let big = EnduranceMap::generate(&small_config(256, 7));
        let small = EnduranceMap::generate(&small_config(64, 7));
        assert_eq!(big.truncated(64), small);
        assert_eq!(big.truncated(256), big);
    }
}
