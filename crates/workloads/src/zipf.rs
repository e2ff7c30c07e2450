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
        let total = sum_masses(n, alpha, Some(&mut cdf));
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
/// carries probability `hot_share`.
///
/// This is the calibration knob that turns Table 2's
/// `ideal lifetime / lifetime-without-WL` ratio into a concrete locality
/// model: under no wear leveling, lifetime is governed by the hottest
/// page's share of the write traffic (see `twl-workloads` crate docs).
///
/// The result is defined by a 60-step bisection of `[0, 8]`: a midpoint
/// goes low when `Zipf::new(footprint, mid).hottest_share() < hot_share`,
/// and the answer is the final interval's midpoint. Each test is an exact
/// sum over every rank, so the solve makes as few as it can and still
/// returns the bisection's bits:
/// 1. *Bracket.* A secant, started from two fixed exponents, closes in
///    on the root. Every test narrows a bracket of two exactly tested
///    exponents `a < b` with `share(a) < hot_share <= share(b)`, until
///    they lie a few ulps apart.
/// 2. *Replay.* The bisection runs unchanged, deciding a midpoint at or
///    below `a` low and one at or above `b` high with no sum. Only a
///    midpoint strictly inside `(a, b)` needs a test, and it narrows the
///    bracket. A secant step that would leave the bracket is replaced by
///    the replay's next such midpoint, so the fallback costs no extra sum.
///
/// The replay is exact because the share never decreases as the exponent
/// grows: `powf(k, alpha)` never decreases in `alpha` for `k >= 1`, and
/// f64 division, addition and rounding are all monotone, so each rank's
/// mass, the normalizing sum and its reciprocal move one way. A paper-scale
/// solve (4.2 M ranks) makes about 8–11 sums where the bisection makes 60.
///
/// The result is a pure function of its arguments and is memoized for
/// the life of the process per `(hot_share, footprint)`: the first call
/// with a key solves it, and every later call, from any thread, returns
/// the same bits. A call that arrives while another thread is solving
/// the same key waits for that solve instead of repeating it; no lock is
/// held while solving, so other keys proceed in parallel.
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
    *cell.get_or_init(|| solve_alpha(hot_share, footprint).0)
}

/// The bisection that defines [`zipf_alpha_for_hot_share`]'s result
/// halves `[0, BISECTION_HI]` this many times.
const BISECTION_STEPS: u32 = 60;

/// Upper end of the bisection's interval; `share(8) > 0.995` for every
/// footprint, above any achievable target.
const BISECTION_HI: f64 = 8.0;

/// Width of the bisection's final interval: a bracket narrower than this
/// cannot save a sum.
const BISECTION_WIDTH: f64 = BISECTION_HI / (1u64 << BISECTION_STEPS) as f64;

/// The secant's two fixed starting exponents, in the range the Table 2
/// calibrations land in (about 0.14 at 8.4 M pages to 0.72 at 1024).
const SECANT_START: [f64; 2] = [0.25, 0.75];

/// Cap on secant steps. With the two starts, no share costs more than
/// `2 + MAX_SECANT_STEPS` sums beyond the bisection's own.
const MAX_SECANT_STEPS: u32 = 24;

/// Solves [`zipf_alpha_for_hot_share`]'s bisection by bracket and replay,
/// and counts the exact normalizer sums it made.
fn solve_alpha(hot_share: f64, footprint: u64) -> (f64, u32) {
    // The secant works on `ln(1/share - 1)`, the log of the normalizer
    // less rank 0's mass: nearly linear in the exponent at both ends
    // (`(1 - alpha) ln n` for a flat law, `-alpha ln 2` for a steep one).
    let target = (1.0 / hot_share - 1.0).ln();
    let mut sums = 0;
    // One exact sum: whether `alpha` goes low, by the bisection's own
    // comparison, and the secant's gap to the target (rising with alpha).
    let mut test = |alpha: f64| {
        sums += 1;
        let share = hottest_share(footprint, alpha);
        (share < hot_share, target - (1.0 / share - 1.0).ln())
    };
    // Invariant: `share(a) < hot_share <= share(b)`, each end exactly
    // tested or an end of the bisection's interval (which it never tests).
    let (mut a, mut b) = (0.0, BISECTION_HI);
    // The last two tests `(alpha, gap, low)`, newest last.
    let mut last = [(0.0, 0.0, true); 2];
    let mut starts = SECANT_START.into_iter();
    let mut secant_steps = 0;
    loop {
        let mid = match replay(a, b) {
            Replay::Solved(alpha) => return (alpha, sums),
            Replay::Undecided(mid) => mid,
        };
        let alpha = starts.next().unwrap_or_else(|| {
            let step = (secant_steps < MAX_SECANT_STEPS)
                .then(|| secant(last))
                .filter(|&x| x > a && x < b);
            secant_steps += u32::from(step.is_some());
            // A step that leaves the bracket falls back to the replay's
            // next undecided midpoint, a sum the replay needs anyway.
            step.unwrap_or(mid)
        });
        let (low, gap) = test(alpha);
        if low {
            a = a.max(alpha);
        } else {
            b = b.min(alpha);
        }
        last = [last[1], (alpha, gap, low)];
    }
}

/// The secant's next exponent from the last two tests, stepping from the
/// newer one toward the target's side. Where the gap is flat or falls (a
/// plateau of the rounded sum), it gallops to twice the last spacing. A
/// step is never below one [`resolution`], so a one-sided approach soon
/// crosses over and closes the bracket.
fn secant([(x0, g0, _), (x1, g1, low)]: [(f64, f64, bool); 2]) -> f64 {
    let slope = (g1 - g0) / (x1 - x0);
    let reach = if slope > 0.0 {
        (g1 / slope).abs()
    } else {
        2.0 * (x1 - x0).abs()
    };
    let step = reach.max(resolution(x1));
    if low {
        x1 + step
    } else {
        x1 - step
    }
}

/// The smallest exponent step that can change a bisection decision near
/// `alpha`: one ulp, but never below the bisection's final width.
fn resolution(alpha: f64) -> f64 {
    (alpha.next_up() - alpha).max(BISECTION_WIDTH)
}

/// Where the bisection stands given the bracket `a < b`.
enum Replay {
    /// Every midpoint was decided by the bracket; this is the result.
    Solved(f64),
    /// The first midpoint strictly inside `(a, b)`: it needs a sum.
    Undecided(f64),
}

/// Runs the bisection of `[0, BISECTION_HI]` deciding each midpoint from
/// the bracket alone: at or below `a` it goes low (`share(mid) <=
/// share(a) < hot_share`), at or above `b` high. Exact as long as the
/// share never decreases in the exponent (see
/// [`zipf_alpha_for_hot_share`]).
fn replay(a: f64, b: f64) -> Replay {
    let (mut lo, mut hi) = (0.0f64, BISECTION_HI);
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        if mid <= a {
            lo = mid;
        } else if mid >= b {
            hi = mid;
        } else {
            return Replay::Undecided(mid);
        }
    }
    Replay::Solved(0.5 * (lo + hi))
}

/// Sums the unnormalized masses `1 / (k+1)^alpha` over ranks `0..n` in
/// rank order and returns the total, the normalizer. With `running`, it
/// also pushes each running sum there: `Zipf::new`'s CDF before it
/// divides by the total. Rank 0's mass is exactly `1.0` (`1^alpha == 1`).
fn sum_masses(n: u64, alpha: f64, mut running: Option<&mut Vec<f64>>) -> f64 {
    let mut acc = 0.0;
    for k in 1..=n {
        acc += 1.0 / (k as f64).powf(alpha);
        if let Some(sums) = running.as_mut() {
            sums.push(acc);
        }
    }
    acc
}

/// `Zipf::new(n, alpha).hottest_share()` without building the CDF: the
/// same sum in the same order, and rank 0's running sum is `1.0`, so
/// `1 / total` is `cdf[0]` bit for bit.
fn hottest_share(n: u64, alpha: f64) -> f64 {
    1.0 / sum_masses(n, alpha, None)
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

    /// Table 2's calibration keys at `pages`: each benchmark's hot share
    /// over a footprint of half the device, as `ParsecBenchmark::workload`
    /// asks for them.
    fn table2_keys(pages: u64) -> impl Iterator<Item = (f64, u64)> {
        crate::ParsecBenchmark::ALL
            .into_iter()
            .map(move |bench| (bench.locality_ratio() / pages as f64, pages / 2))
    }

    #[test]
    fn bracket_and_replay_returns_the_bisection_bits_in_few_sums() {
        let edge_keys = [
            (0.6, 2),
            (0.5f64.next_up(), 2),
            (0.99f64.next_down(), 2),
            (0.4, 3),
            ((1.0f64 / 3.0).next_up(), 3),
            (0.99f64.next_down(), 3),
            ((1.0f64 / 4096.0).next_up(), 4096),
            (0.989, 4096),
        ];
        let keys: Vec<(f64, u64)> = [1024, 4096, 8192, 65_536]
            .into_iter()
            .flat_map(table2_keys)
            .chain(edge_keys)
            .collect();
        let mut total_sums = 0;
        for &(share, footprint) in &keys {
            let (alpha, sums) = solve_alpha(share, footprint);
            assert_eq!(
                alpha.to_bits(),
                reference_alpha(share, footprint).to_bits(),
                "share {share:e} footprint {footprint}"
            );
            total_sums += sums;
        }
        let mean = f64::from(total_sums) / keys.len() as f64;
        // The bisection makes one sum per step.
        assert!(mean <= 20.0, "mean {mean} exact sums, against 60");
    }

    #[test]
    fn paper_scale_canneal_alpha_is_pinned() {
        // The bits the 60-sum bisection returns for canneal on the
        // paper's 8,388,608-page device (4,194,304-page footprint).
        let share = crate::ParsecBenchmark::Canneal.locality_ratio() / 8_388_608.0;
        assert_eq!(
            zipf_alpha_for_hot_share(share, 4_194_304).to_bits(),
            0x3fce_98f0_1f78_c78c
        );
    }

    #[test]
    fn share_never_decreases_next_to_solved_exponents() {
        // The replay's premise, walked 64 floats either side of each root.
        let spread = [0.001, 0.01, 0.1, 0.5];
        let keys = table2_keys(8192).chain(spread.map(|share| (share, 65_537)));
        for (share, n) in keys {
            let alpha = zipf_alpha_for_hot_share(share, n);
            let start = (0..64).fold(alpha, |x, _| x.next_down());
            let walk = std::iter::successors(Some(start), |x| Some(x.next_up())).take(129);
            let shares: Vec<f64> = walk.map(|x| hottest_share(n, x)).collect();
            assert!(
                shares.windows(2).all(|w| w[0] <= w[1]),
                "share falls next to alpha {alpha} (n {n})"
            );
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
