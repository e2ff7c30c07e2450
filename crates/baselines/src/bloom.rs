//! Bloom-filter substrate for BWL (Yun+, DATE 2012).

use twl_pcm::table;
use twl_rng::SplitMix64;

/// The full-width mix for hash function number `i` over `value`.
///
/// Derives independent hash functions from SplitMix64 seeded with the
/// (value, i) pair — cheap and adequate for Bloom use. Filters of
/// different sizes probing the same `(value, i)` share this mix and
/// differ only in the final range reduction, which is what lets a
/// membership filter and a counting filter fuse their probes.
#[inline]
fn bloom_mix(value: u64, i: u32) -> u64 {
    let mut sm = SplitMix64::seed_from(value ^ (u64::from(i) << 56) ^ 0xB10F_17E8);
    sm.next_u64()
}

/// Reduces a full-width mix into `[0, m)`.
///
/// For power-of-two `m` (every default configuration) the modulo is a
/// mask — the same value, minus the 20-30 cycle division on the hot
/// probe path.
#[inline]
fn bloom_reduce(mixed: u64, m: usize) -> usize {
    let m = m as u64;
    if m & (m - 1) == 0 {
        (mixed & (m - 1)) as usize
    } else {
        (mixed % m) as usize
    }
}

/// Hashes `value` with hash function number `i` into `[0, m)`.
#[inline]
fn bloom_hash(value: u64, i: u32, m: usize) -> usize {
    bloom_reduce(bloom_mix(value, i), m)
}

/// Hash-index scratch for allocation-free k-probe operations.
const MAX_INLINE_HASHES: usize = 16;

/// A classic bit-vector Bloom filter: set membership with false
/// positives, no false negatives.
///
/// # Examples
///
/// ```
/// use twl_baselines::BloomFilter;
///
/// let mut bf = BloomFilter::new(1024, 3);
/// bf.insert(42);
/// assert!(bf.contains(42));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    bits: Vec<u64>,
    m: usize,
    k: u32,
}

impl BloomFilter {
    /// Creates a filter with `m` bits and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    #[must_use]
    pub fn new(m: usize, k: u32) -> Self {
        assert!(m > 0 && k > 0, "bloom filter needs bits and hashes");
        Self {
            bits: table::filled(m.div_ceil(64), 0),
            m,
            k,
        }
    }

    /// Inserts a value.
    #[inline]
    pub fn insert(&mut self, value: u64) {
        for i in 0..self.k {
            let h = bloom_hash(value, i, self.m);
            self.bits[h / 64] |= 1u64 << (h % 64);
        }
    }

    /// Tests membership (may report false positives).
    #[inline]
    #[must_use]
    pub fn contains(&self, value: u64) -> bool {
        (0..self.k).all(|i| {
            let h = bloom_hash(value, i, self.m);
            self.bits[h / 64] & (1u64 << (h % 64)) != 0
        })
    }

    /// Whether the bit for one already-mixed probe is set.
    #[inline]
    fn bit_for(&self, mixed: u64) -> bool {
        let h = bloom_reduce(mixed, self.m);
        self.bits[h / 64] & (1u64 << (h % 64)) != 0
    }

    /// Clears the filter.
    pub fn clear(&mut self) {
        self.bits.fill(0);
    }

    /// Number of bits in the filter.
    #[must_use]
    pub fn bit_len(&self) -> usize {
        self.m
    }
}

/// A counting Bloom filter: approximate per-key counts via the
/// minimum-counter estimate (conservative-update sketch).
///
/// BWL uses this to detect hot pages without a per-page write-number
/// table: the estimate never undercounts, so a page whose estimate is
/// below the hot threshold is guaranteed cold.
///
/// # Examples
///
/// ```
/// use twl_baselines::CountingBloomFilter;
///
/// let mut cbf = CountingBloomFilter::new(4096, 4);
/// for _ in 0..5 {
///     cbf.insert(7);
/// }
/// assert!(cbf.estimate(7) >= 5);
/// assert_eq!(cbf.estimate(8), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountingBloomFilter {
    counters: Vec<u32>,
    k: u32,
}

impl CountingBloomFilter {
    /// Creates a filter with `m` counters and `k` hash functions.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `k == 0`.
    #[must_use]
    pub fn new(m: usize, k: u32) -> Self {
        assert!(
            m > 0 && k > 0,
            "counting bloom filter needs counters and hashes"
        );
        Self {
            counters: table::filled(m, 0),
            k,
        }
    }

    /// Inserts one occurrence of `value`, returning the new estimate.
    ///
    /// Uses conservative update: only the minimal counters are bumped,
    /// which tightens the overcount.
    pub fn insert(&mut self, value: u64) -> u64 {
        self.insert_n(value, 1)
    }

    /// Inserts `n` occurrences of `value` in O(k), returning the
    /// estimate the last insertion would have reported — exactly
    /// equivalent to `n` sequential [`CountingBloomFilter::insert`]
    /// calls.
    ///
    /// Repeated conservative updates of one value behave like a rising
    /// water level: each insert lifts the minimal counters by one, so
    /// after `n` inserts every hashed counter sits at
    /// `max(counter, min + n)` (saturating). Returns the current
    /// estimate unchanged when `n == 0`.
    pub fn insert_n(&mut self, value: u64, n: u64) -> u64 {
        let m = self.counters.len();
        let mut inline_buf = [0usize; MAX_INLINE_HASHES];
        let mut spill_buf;
        let hs: &mut [usize] = if self.k as usize <= MAX_INLINE_HASHES {
            &mut inline_buf[..self.k as usize]
        } else {
            spill_buf = vec![0usize; self.k as usize];
            &mut spill_buf
        };
        for (i, h) in hs.iter_mut().enumerate() {
            *h = bloom_hash(value, i as u32, m);
        }
        let min = u64::from(hs.iter().map(|&h| self.counters[h]).min().unwrap_or(0));
        if n == 0 {
            return min;
        }
        let level = min.saturating_add(n).min(u64::from(u32::MAX)) as u32;
        for &h in hs.iter() {
            if self.counters[h] < level {
                self.counters[h] = level;
            }
        }
        min.saturating_add(n - 1).min(u64::from(u32::MAX)) + 1
    }

    /// Estimated occurrence count (never an undercount).
    #[inline]
    #[must_use]
    pub fn estimate(&self, value: u64) -> u64 {
        let m = self.counters.len();
        u64::from(
            (0..self.k)
                .map(|i| self.counters[bloom_hash(value, i, m)])
                .min()
                .unwrap_or(0),
        )
    }

    /// [`CountingBloomFilter::estimate`] for `value` when `written`
    /// contains it, `None` otherwise — one fused probe.
    ///
    /// Exactly equivalent to
    /// `written.contains(value).then(|| self.estimate(value))`, but the
    /// per-hash mixing is shared between the two filters (the same
    /// `(value, i)` mix feeds both range reductions) and the membership
    /// test short-circuits identically, so a scan over the whole
    /// logical space pays one mix per probe instead of two. Requires
    /// both filters to use the same hash count; falls back to the two
    /// independent probes otherwise.
    #[must_use]
    pub fn estimate_if_written(&self, written: &BloomFilter, value: u64) -> Option<u64> {
        if self.k != written.k {
            return written.contains(value).then(|| self.estimate(value));
        }
        let m = self.counters.len();
        let mut min = u32::MAX;
        for i in 0..self.k {
            let mixed = bloom_mix(value, i);
            if !written.bit_for(mixed) {
                return None;
            }
            min = min.min(self.counters[bloom_reduce(mixed, m)]);
        }
        // k > 0 by construction, so `min` was always lowered at least once.
        Some(u64::from(min))
    }

    /// Clears every counter (epoch boundary).
    pub fn clear(&mut self) {
        self.counters.fill(0);
    }

    /// Number of counters.
    #[must_use]
    pub fn counter_len(&self) -> usize {
        self.counters.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_rng::{SimRng, Xoshiro256StarStar};

    #[test]
    fn bloom_has_no_false_negatives() {
        let mut bf = BloomFilter::new(2048, 3);
        for v in 0..200u64 {
            bf.insert(v * 7919);
        }
        for v in 0..200u64 {
            assert!(bf.contains(v * 7919));
        }
    }

    #[test]
    fn bloom_false_positive_rate_is_bounded() {
        let mut bf = BloomFilter::new(8192, 4);
        for v in 0..500u64 {
            bf.insert(v);
        }
        // Theoretical FP rate ≈ (1 - e^{-kn/m})^k ≈ 0.24% here; allow 2%.
        let fps = (10_000..20_000u64).filter(|&v| bf.contains(v)).count();
        assert!(fps < 200, "false positives: {fps}");
    }

    #[test]
    fn bloom_clear_resets() {
        let mut bf = BloomFilter::new(64, 2);
        bf.insert(1);
        bf.clear();
        assert!(!bf.contains(1));
    }

    #[test]
    fn cbf_never_undercounts() {
        let mut cbf = CountingBloomFilter::new(512, 4);
        let mut rng = Xoshiro256StarStar::seed_from(1);
        let mut truth = std::collections::HashMap::new();
        for _ in 0..2000 {
            let v = rng.next_bounded(100);
            cbf.insert(v);
            *truth.entry(v).or_insert(0u64) += 1;
        }
        for (&v, &c) in &truth {
            assert!(cbf.estimate(v) >= c, "undercount for {v}");
        }
    }

    #[test]
    fn cbf_overcount_is_modest() {
        let mut cbf = CountingBloomFilter::new(4096, 4);
        for v in 0..64u64 {
            for _ in 0..10 {
                cbf.insert(v);
            }
        }
        let over: u64 = (0..64u64).map(|v| cbf.estimate(v) - 10).sum();
        assert!(over < 64, "total overcount {over}");
    }

    #[test]
    fn cbf_insert_n_matches_sequential_inserts() {
        let mut bulk = CountingBloomFilter::new(512, 4);
        let mut seq = CountingBloomFilter::new(512, 4);
        // Interleave other keys so counters start from unequal values.
        let mut rng = Xoshiro256StarStar::seed_from(9);
        for _ in 0..300 {
            let v = rng.next_bounded(50);
            bulk.insert(v);
            seq.insert(v);
        }
        for &(v, n) in &[(7u64, 1u64), (7, 13), (99, 40), (3, 0)] {
            let got = bulk.insert_n(v, n);
            let mut want = seq.estimate(v); // the n == 0 convention
            for _ in 0..n {
                want = seq.insert(v);
            }
            assert_eq!(got, want, "estimate for v={v} n={n}");
            assert_eq!(bulk, seq, "state after v={v} n={n}");
        }
    }

    #[test]
    fn fused_probe_matches_independent_probes() {
        let mut written = BloomFilter::new(2048, 4);
        let mut cbf = CountingBloomFilter::new(512, 4);
        let mut rng = Xoshiro256StarStar::seed_from(7);
        for _ in 0..400 {
            let v = rng.next_bounded(300);
            written.insert(v);
            cbf.insert(v);
        }
        for v in 0..600u64 {
            let fused = cbf.estimate_if_written(&written, v);
            let split = written.contains(v).then(|| cbf.estimate(v));
            assert_eq!(fused, split, "value {v}");
        }
    }

    #[test]
    fn fused_probe_falls_back_on_mismatched_hash_counts() {
        let mut written = BloomFilter::new(2048, 3);
        let mut cbf = CountingBloomFilter::new(512, 4);
        written.insert(9);
        cbf.insert(9);
        assert_eq!(cbf.estimate_if_written(&written, 9), Some(cbf.estimate(9)));
        assert_eq!(cbf.estimate_if_written(&written, 10), None);
    }

    #[test]
    fn hashing_handles_non_power_of_two_sizes() {
        // The pow2 mask fast path must agree with the generic modulo:
        // same (value, i) mixes, different reductions — exercise both.
        let mut bf = BloomFilter::new(1000, 4);
        let mut cbf = CountingBloomFilter::new(627, 3);
        for v in 0..100u64 {
            bf.insert(v * 31);
            cbf.insert(v * 31);
        }
        for v in 0..100u64 {
            assert!(bf.contains(v * 31));
            assert!(cbf.estimate(v * 31) >= 1);
        }
    }

    #[test]
    fn cbf_clear_resets() {
        let mut cbf = CountingBloomFilter::new(64, 2);
        cbf.insert(5);
        cbf.clear();
        assert_eq!(cbf.estimate(5), 0);
    }

    #[test]
    #[should_panic(expected = "bloom filter needs bits and hashes")]
    fn zero_size_panics() {
        let _ = BloomFilter::new(0, 1);
    }
}
