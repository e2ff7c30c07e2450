//! Zipf-distributed rank sampling.

use std::collections::HashMap;
use std::sync::{Arc, LazyLock, Mutex, OnceLock};
use twl_pcm::table;
use twl_rng::SimRng;

/// A Zipf sampler over ranks `0..n` with exponent `alpha ≥ 0`:
/// `P(rank k) ∝ 1 / (k+1)^alpha`.
///
/// Sampling inverts a precomputed CDF: a guide table of `m` equal-width
/// buckets over `[0, 1)` narrows each draw to the few CDF entries its
/// bucket spans, and a binary search over just those finds the rank.
/// Draws are exact and deterministic given the RNG — the rank is always
/// the first `k` with `cdf[k] >= u`, as a search over the whole CDF
/// would return — but touch a couple of cache lines instead of the
/// `log2 n` scattered ones a full search misses on at paper scale.
///
/// # Examples
///
/// ```
/// use twl_rng::{SplitMix64, SimRng};
/// use twl_workloads::Zipf;
///
/// let zipf = Zipf::new(100, 1.0);
/// let mut rng = SplitMix64::seed_from(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Zipf {
    cdf: Vec<f64>,
    /// `guide[j]` is the first rank with `cdf[k] >= j / m`, for
    /// `m = guide.len() - 1` buckets (a power of two, so `u * m` and
    /// `j / m` are exact); `guide[m] == n`. The rank of `u` in bucket
    /// `j` lies in `guide[j]..=guide[j + 1]`.
    guide: Vec<u32>,
    alpha: f64,
}

impl Zipf {
    /// Creates a sampler over `n` ranks with the given exponent.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, `n > u32::MAX`, or `alpha` is negative or
    /// non-finite.
    #[must_use]
    pub fn new(n: u64, alpha: f64) -> Self {
        assert!(n > 0, "zipf needs at least one rank");
        assert!(
            n <= u64::from(u32::MAX),
            "zipf guide table indexes ranks with u32"
        );
        assert!(
            alpha.is_finite() && alpha >= 0.0,
            "alpha must be non-negative"
        );
        let mut cdf = table::with_capacity(n as usize);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(alpha);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        let guide = guide_table(&cdf);
        Self { cdf, guide, alpha }
    }

    /// Number of ranks.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.cdf.len() as u64
    }

    /// Whether the sampler has no ranks (never true).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }

    /// The configured exponent.
    #[must_use]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Probability mass of the hottest rank.
    #[must_use]
    pub fn hottest_share(&self) -> f64 {
        self.cdf[0]
    }

    /// Draws one rank: the first `k` with `cdf[k] >= u` for the RNG's
    /// next unit draw `u`.
    pub fn sample(&self, rng: &mut dyn SimRng) -> u64 {
        let u = rng.next_unit_f64();
        let m = self.guide.len() - 1;
        // Saturating cast: NaN and negative `u` land in bucket 0, and
        // `u >= 1` (or overflow to infinity) in the last bucket; the
        // bucket bounds still bracket the full search's answer there.
        let j = ((u * m as f64) as usize).min(m - 1);
        let (lo, hi) = (self.guide[j] as usize, self.guide[j + 1] as usize);
        (lo + self.cdf[lo..hi].partition_point(|&c| c < u)) as u64
    }
}

/// Builds `Zipf::guide` for `cdf` with the largest power-of-two bucket
/// count below `n` (one bucket for `n == 1`), so the `u32` guide takes at
/// most half the CDF's bytes.
fn guide_table(cdf: &[f64]) -> Vec<u32> {
    let n = cdf.len();
    let m = 1usize << (n - 1).checked_ilog2().unwrap_or(0);
    let mut guide = table::with_capacity(m + 1);
    let mut k = 0;
    for j in 0..m {
        let edge = j as f64 / m as f64;
        while k < n && cdf[k] < edge {
            k += 1;
        }
        guide.push(k as u32);
    }
    guide.push(n as u32);
    guide
}

/// Process-wide memo of solved exponents, keyed by
/// `(hot_share.to_bits(), footprint)`. Each entry is a compute-once cell,
/// so concurrent callers with one key wait for a single solve; entries
/// are never evicted (one is 24 bytes plus its cell, and callers use a
/// handful of keys).
static SOLVED_ALPHAS: LazyLock<Mutex<HashMap<(u64, u64), SolvedAlpha>>> =
    LazyLock::new(Mutex::default);

/// One memo entry: set once by the first solve of its key.
type SolvedAlpha = Arc<OnceLock<f64>>;

/// Finds the Zipf exponent for which the hottest of `footprint` ranks
/// carries probability `hot_share`, by bisection.
///
/// This is the calibration knob that turns Table 2's
/// `ideal lifetime / lifetime-without-WL` ratio into a concrete locality
/// model: under no wear leveling, lifetime is governed by the hottest
/// page's share of the write traffic (see `twl-workloads` crate docs).
///
/// The result is a pure function of its arguments and is memoized for
/// the life of the process per `(hot_share, footprint)`: the first call
/// with a key solves it (about 6 s at the paper's 4.2 M-page canneal
/// footprint), and every later call, from any thread, returns the same
/// bits. A call that arrives while another thread is solving the same
/// key waits for that solve instead of repeating it; no lock is held
/// while solving, so other keys proceed in parallel.
///
/// # Panics
///
/// Panics if `footprint < 2` or `hot_share` is outside the achievable
/// range `(1/footprint, ~1)`.
///
/// # Examples
///
/// ```
/// use twl_workloads::{zipf_alpha_for_hot_share, Zipf};
///
/// let alpha = zipf_alpha_for_hot_share(0.01, 4096);
/// let zipf = Zipf::new(4096, alpha);
/// assert!((zipf.hottest_share() - 0.01).abs() < 1e-4);
/// ```
#[must_use]
pub fn zipf_alpha_for_hot_share(hot_share: f64, footprint: u64) -> f64 {
    assert!(footprint >= 2, "footprint must have at least two pages");
    let min_share = 1.0 / footprint as f64;
    assert!(
        hot_share > min_share && hot_share < 0.99,
        "hot share {hot_share} unachievable over footprint {footprint}"
    );
    let cell = Arc::clone(
        SOLVED_ALPHAS
            .lock()
            .expect("zipf alpha memo lock poisoned")
            .entry((hot_share.to_bits(), footprint))
            .or_default(),
    );
    *cell.get_or_init(|| solve_alpha(hot_share, footprint))
}

/// The bisection behind [`zipf_alpha_for_hot_share`].
fn solve_alpha(hot_share: f64, footprint: u64) -> f64 {
    let (mut lo, mut hi) = (0.0f64, 8.0f64);
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if hottest_share(footprint, mid) < hot_share {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// `Zipf::new(n, alpha).hottest_share()` without building the CDF.
///
/// The normalizing sum runs in `Zipf::new`'s order, and rank 0's
/// unnormalized mass is exactly `1.0` (`1^alpha == 1`), so the quotient
/// is bit-equal to `cdf[0] = acc₀ / total`.
fn hottest_share(n: u64, alpha: f64) -> f64 {
    let mut total = 0.0;
    for k in 0..n {
        total += 1.0 / ((k + 1) as f64).powf(alpha);
    }
    1.0 / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_rng::Xoshiro256StarStar;

    #[test]
    fn alpha_zero_is_uniform() {
        let zipf = Zipf::new(16, 0.0);
        let mut rng = Xoshiro256StarStar::seed_from(1);
        let mut counts = [0u64; 16];
        for _ in 0..160_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        for &c in &counts {
            let p = c as f64 / 160_000.0;
            assert!((p - 1.0 / 16.0).abs() < 0.005, "p = {p}");
        }
    }

    #[test]
    fn empirical_share_matches_hottest_share() {
        let zipf = Zipf::new(256, 1.1);
        let mut rng = Xoshiro256StarStar::seed_from(5);
        let n = 200_000;
        let hits = (0..n).filter(|_| zipf.sample(&mut rng) == 0).count();
        let p = hits as f64 / n as f64;
        assert!((p - zipf.hottest_share()).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn ranks_are_monotonically_less_likely() {
        let zipf = Zipf::new(64, 0.9);
        let mut rng = Xoshiro256StarStar::seed_from(7);
        let mut counts = vec![0u64; 64];
        for _ in 0..400_000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        // Compare coarse buckets to tolerate noise.
        let head: u64 = counts[..8].iter().sum();
        let mid: u64 = counts[8..32].iter().sum();
        let tail: u64 = counts[32..].iter().sum();
        assert!(
            head > mid && mid > tail,
            "head {head} mid {mid} tail {tail}"
        );
    }

    #[test]
    fn calibration_covers_table2_range() {
        // Table 2 ratios span roughly 14x..58x over 8192 pages, i.e.
        // hot shares ~0.0017..0.0071; also check broader values.
        for share in [0.002, 0.004, 0.007, 0.02, 0.1] {
            let alpha = zipf_alpha_for_hot_share(share, 4096);
            let achieved = Zipf::new(4096, alpha).hottest_share();
            assert!(
                (achieved - share).abs() / share < 0.02,
                "share {share} -> alpha {alpha} -> {achieved}"
            );
        }
    }

    /// The calibration in its original form: bisection over fully built
    /// samplers. The memoized, allocation-free path must return its bits.
    fn reference_alpha(hot_share: f64, footprint: u64) -> f64 {
        let share_at = |alpha: f64| Zipf::new(footprint, alpha).hottest_share();
        let (mut lo, mut hi) = (0.0f64, 8.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if share_at(mid) < hot_share {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        0.5 * (lo + hi)
    }

    #[test]
    fn allocation_free_share_is_bit_equal_to_the_cdf() {
        for n in [2, 3, 4096, 65_537] {
            for step in 0..=32 {
                let alpha = f64::from(step) * 0.25;
                assert_eq!(
                    hottest_share(n, alpha).to_bits(),
                    Zipf::new(n, alpha).hottest_share().to_bits(),
                    "n {n} alpha {alpha}"
                );
            }
            // Off-grid exponents, as the bisection visits them.
            for alpha in [1e-9, 0.123_456_789, 1.000_000_1, 7.999_999] {
                assert_eq!(
                    hottest_share(n, alpha).to_bits(),
                    Zipf::new(n, alpha).hottest_share().to_bits(),
                    "n {n} alpha {alpha}"
                );
            }
        }
    }

    #[test]
    fn memoized_alpha_matches_reference_bisection() {
        for (share, footprint) in [
            (0.002, 4096),
            (0.004, 4096),
            (0.007, 4096),
            (0.02, 4096),
            (0.1, 4096),
            (0.6, 2),
            (0.4, 3),
            (0.001, 65_537),
        ] {
            let want = reference_alpha(share, footprint).to_bits();
            // First call solves (or finds another test's solve), second
            // is served from the memo; both must be the reference bits.
            assert_eq!(zipf_alpha_for_hot_share(share, footprint).to_bits(), want);
            assert_eq!(zipf_alpha_for_hot_share(share, footprint).to_bits(), want);
        }
    }

    #[test]
    fn concurrent_first_calls_agree() {
        // A key no other test uses, so both threads race on a new entry.
        let (share, footprint) = (0.012_345, 5003);
        let barrier = std::sync::Barrier::new(2);
        let [a, b] = std::thread::scope(|scope| {
            let handles = [(); 2].map(|()| {
                scope.spawn(|| {
                    barrier.wait();
                    zipf_alpha_for_hot_share(share, footprint)
                })
            });
            handles.map(|h| h.join().expect("solver thread panicked"))
        });
        assert_eq!(a.to_bits(), b.to_bits());
        assert_eq!(a.to_bits(), reference_alpha(share, footprint).to_bits());
    }

    #[test]
    #[should_panic(expected = "unachievable")]
    fn impossible_share_panics() {
        let _ = zipf_alpha_for_hot_share(0.0001, 64);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;

    /// A [`SimRng`] whose unit draw is a fixed value, so `sample` can be
    /// fed any `f64` — including ones a real generator never yields.
    struct FixedUnit(f64);

    impl SimRng for FixedUnit {
        fn next_u64(&mut self) -> u64 {
            self.0.to_bits()
        }

        fn next_unit_f64(&mut self) -> f64 {
            self.0
        }
    }

    /// The reference sampler: one search over the whole CDF.
    fn full_search(zipf: &Zipf, u: f64) -> u64 {
        zipf.cdf.partition_point(|&c| c < u) as u64
    }

    /// Draws a real generator never yields, plus the ends of `[0, 1)`.
    const ODD_DRAWS: [f64; 12] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        1.0f64.next_down(),
        1.0,
        2.0,
        f64::INFINITY,
        f64::NAN,
        -f64::MIN_POSITIVE,
        -0.5,
        -1.0,
        f64::NEG_INFINITY,
    ];

    /// Asserts `sample` agrees with [`full_search`] on every bucket edge
    /// `j / m` and its neighbours, on [`ODD_DRAWS`], on `extra`, and on
    /// every `stride`-th CDF value and its neighbours.
    fn assert_matches_full_search(n: u64, alpha: f64, stride: usize, extra: &[f64]) {
        let zipf = Zipf::new(n, alpha);
        let m = zipf.guide.len() - 1;
        assert!(m.is_power_of_two() && (m as u64) <= n, "n {n}: m {m}");
        let edges = (0..=m).map(|j| j as f64 / m as f64);
        let cdf_values = zipf.cdf.iter().step_by(stride).copied();
        let probes = edges
            .chain(cdf_values)
            .flat_map(|v| [v.next_down(), v, v.next_up()])
            .chain(ODD_DRAWS)
            .chain(extra.iter().copied());
        for u in probes {
            assert_eq!(
                zipf.sample(&mut FixedUnit(u)),
                full_search(&zipf, u),
                "n {n} alpha {alpha} u {u:e}"
            );
        }
    }

    #[test]
    fn guide_sample_matches_full_search_at_fixed_sizes() {
        for n in [1, 2, 3, 4096, 65_537] {
            let stride = if n > 4096 { 61 } else { 1 };
            for step in 0..=8 {
                assert_matches_full_search(n, f64::from(step), stride, &[]);
            }
        }
    }

    #[test]
    fn guide_table_is_at_most_half_the_cdf() {
        for n in [3, 4, 5, 4096, 4097, 65_537, 1 << 20] {
            let zipf = Zipf::new(n, 1.0);
            let guide_bytes = zipf.guide.len() * std::mem::size_of::<u32>();
            let cdf_bytes = zipf.cdf.len() * std::mem::size_of::<f64>();
            assert!(2 * guide_bytes <= cdf_bytes, "n {n}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random sizes and exponents on a grid over `[0, 8]`, probed at
        /// every bucket edge and CDF value plus arbitrary `f64` bit
        /// patterns and well-formed unit draws.
        #[test]
        fn guide_sample_matches_full_search(
            n in 1u64..5000,
            step in 0u32..33,
            bits in any::<u64>(),
            draw in any::<u64>(),
        ) {
            let unit = (draw >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            let extra = [f64::from_bits(bits), unit];
            assert_matches_full_search(n, f64::from(step) * 0.25, 1, &extra);
        }
    }
}
