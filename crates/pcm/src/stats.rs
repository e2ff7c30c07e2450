//! Wear-distribution statistics.

use crate::EnduranceMap;

/// Aggregate wear statistics over a device snapshot.
///
/// The interesting quantity for wear leveling is not raw wear but *wear
/// ratio* — wear divided by the page's own endurance — because a PV-aware
/// scheme succeeds exactly when wear ratios are uniform ("wear-rate
/// leveling"). [`WearStats::max_wear_ratio`] hitting 1.0 is death.
///
/// # Examples
///
/// ```
/// use twl_pcm::{EnduranceMap, WearStats};
///
/// let endurance = EnduranceMap::from_values(vec![100, 200]);
/// let stats = WearStats::compute(&[50, 50], &endurance);
/// assert_eq!(stats.max_wear_ratio, 0.5);
/// assert_eq!(stats.total_writes, 100);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WearStats {
    /// Total writes absorbed across all pages.
    pub total_writes: u64,
    /// Mean wear per page.
    pub mean_wear: f64,
    /// Highest wear counter.
    pub max_wear: u64,
    /// Highest wear / endurance ratio — 1.0 means a dead page.
    pub max_wear_ratio: f64,
    /// Mean of wear / endurance.
    pub mean_wear_ratio: f64,
    /// Gini coefficient of the wear distribution (0 = perfectly even).
    pub wear_gini: f64,
    /// Fraction of the device's total endurance consumed.
    pub capacity_consumed: f64,
}

impl WearStats {
    /// Computes statistics from raw wear counters and the endurance map.
    ///
    /// # Panics
    ///
    /// Panics if `wear` and `endurance` lengths differ or are zero.
    #[must_use]
    pub fn compute(wear: &[u64], endurance: &EnduranceMap) -> Self {
        assert_eq!(
            wear.len(),
            endurance.len(),
            "wear/endurance length mismatch"
        );
        assert!(!wear.is_empty(), "cannot compute stats of an empty device");
        let n = wear.len() as f64;
        let total_writes: u64 = wear.iter().sum();
        let max_wear = *wear.iter().max().expect("non-empty");
        let mut max_ratio = 0.0f64;
        let mut sum_ratio = 0.0f64;
        for ((_, e), &w) in endurance.iter().zip(wear.iter()) {
            let r = w as f64 / e as f64;
            sum_ratio += r;
            if r > max_ratio {
                max_ratio = r;
            }
        }
        Self {
            total_writes,
            mean_wear: total_writes as f64 / n,
            max_wear,
            max_wear_ratio: max_ratio,
            mean_wear_ratio: sum_ratio / n,
            wear_gini: wear_gini(wear),
            capacity_consumed: total_writes as f64 / endurance.total() as f64,
        }
    }
}

/// Gini coefficient of a non-negative sample (0 = all equal, →1 = all
/// mass on one element).
///
/// Exposed so multi-device aggregations (the banked lifetime runner)
/// can compute one coefficient over concatenated wear maps instead of
/// averaging per-device Ginis, which would not be the same statistic.
///
/// # Examples
///
/// ```
/// assert_eq!(twl_pcm::wear_gini(&[5, 5, 5, 5]), 0.0);
/// assert!(twl_pcm::wear_gini(&[0, 0, 0, 100]) > 0.7);
/// ```
#[must_use]
pub fn wear_gini(values: &[u64]) -> f64 {
    let n = values.len();
    let (total, max) = values.iter().fold((0u128, 0u64), |(total, max), &v| {
        (total + u128::from(v), max.max(v))
    });
    if total == 0 || n < 2 {
        return 0.0;
    }
    // G = (2 * sum_i i*x_i) / (n * sum x) - (n + 1) / n, with i from 1
    // over the values in ascending order. Wear maps are mostly small
    // counters on many pages, so the rank-weighted sum comes from a
    // count per value unless the values are too wide to count.
    let weighted = if max < n as u64 {
        counted_rank_sum(values, max)
    } else {
        sorted_rank_sum(values)
    };
    (2.0 * weighted as f64) / (n as f64 * total as f64) - (n as f64 + 1.0) / n as f64
}

/// `sum_i i * x_i` over `values` sorted ascending, ranks from 1.
fn sorted_rank_sum(values: &[u64]) -> u128 {
    let mut sorted: Vec<u64> = values.to_vec();
    sorted.sort_unstable();
    sorted
        .iter()
        .enumerate()
        .map(|(i, &v)| (i as u128 + 1) * u128::from(v))
        .sum()
}

/// [`sorted_rank_sum`] without the sort, for values all at most `max`:
/// the `c` copies of a value with `below` smaller values ahead of it
/// take ranks `below + 1 ..= below + c`, which sum to
/// `c * below + c * (c + 1) / 2`.
fn counted_rank_sum(values: &[u64], max: u64) -> u128 {
    let mut counts = vec![0u64; max as usize + 1];
    for &v in values {
        counts[v as usize] += 1;
    }
    let mut below = 0u128;
    let mut weighted = 0u128;
    for (v, &c) in counts.iter().enumerate() {
        let c = u128::from(c);
        weighted += v as u128 * (c * below + c * (c + 1) / 2);
        below += c;
    }
    weighted
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use twl_rng::{SimRng, SplitMix64};

    #[test]
    fn uniform_wear_has_zero_gini() {
        let endurance = EnduranceMap::from_values(vec![10; 8]);
        let stats = WearStats::compute(&[5; 8], &endurance);
        assert!(stats.wear_gini.abs() < 1e-12);
        assert_eq!(stats.max_wear, 5);
        assert!((stats.capacity_consumed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn concentrated_wear_has_high_gini() {
        let endurance = EnduranceMap::from_values(vec![10; 8]);
        let mut wear = vec![0u64; 8];
        wear[0] = 80;
        let stats = WearStats::compute(&wear, &endurance);
        assert!(stats.wear_gini > 0.8, "gini = {}", stats.wear_gini);
        assert_eq!(stats.max_wear_ratio, 8.0);
    }

    #[test]
    fn wear_ratio_uses_per_page_endurance() {
        let endurance = EnduranceMap::from_values(vec![100, 10]);
        let stats = WearStats::compute(&[50, 9], &endurance);
        assert!((stats.max_wear_ratio - 0.9).abs() < 1e-12);
        assert!((stats.mean_wear_ratio - 0.7).abs() < 1e-12);
    }

    #[test]
    fn zero_wear_is_all_zero() {
        let endurance = EnduranceMap::from_values(vec![10, 20]);
        let stats = WearStats::compute(&[0, 0], &endurance);
        assert_eq!(stats.total_writes, 0);
        assert_eq!(stats.wear_gini, 0.0);
        assert_eq!(stats.max_wear_ratio, 0.0);
    }

    /// The Gini as the sort-only implementation computes it.
    fn sorted_gini(values: &[u64]) -> f64 {
        let n = values.len();
        let total: u128 = values.iter().map(|&v| u128::from(v)).sum();
        if total == 0 || n < 2 {
            return 0.0;
        }
        (2.0 * sorted_rank_sum(values) as f64) / (n as f64 * total as f64)
            - (n as f64 + 1.0) / n as f64
    }

    fn assert_gini_matches_sort(values: &[u64]) {
        assert_eq!(
            wear_gini(values).to_bits(),
            sorted_gini(values).to_bits(),
            "values {values:?}"
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn gini_matches_sort(regime in 0u8..6, len in 0usize..400, seed in any::<u64>()) {
            let mut rng = SplitMix64::seed_from(seed);
            let n = len as u64;
            let values: Vec<u64> = (0..len)
                .map(|i| match regime {
                    // Counted: small counters, many ties.
                    0 => rng.next_bounded(4),
                    // Counted: values up to just below the length.
                    1 => rng.next_bounded(n.max(1)),
                    // Sorted: values at and past the length.
                    2 => n + rng.next_bounded(1 << 40),
                    // Sorted: near-maximum values.
                    3 => u64::MAX / 512 - rng.next_bounded(4),
                    // All equal.
                    4 => 7,
                    // One hot page on an otherwise cold device.
                    _ => u64::from(i == len / 2) * rng.next_bounded(1 << 20),
                })
                .collect();
            assert_gini_matches_sort(&values);
        }
    }

    #[test]
    fn gini_edge_cases_match_sort() {
        let cases: [&[u64]; 9] = [
            &[],
            &[9],
            &[0, 0, 0, 0],
            &[3, 3, 3],
            &[0, 0, 0, 1],
            &[0, 0, 0, 3],
            &[0, 0, 0, 4],
            &[0, 0, 0, u64::MAX / 8],
            &[1, 0, 2, 1, 0],
        ];
        for values in cases {
            assert_gini_matches_sort(values);
        }
        assert_eq!(wear_gini(&[]), 0.0);
        assert_eq!(wear_gini(&[0, 0, 0]), 0.0);
        assert_eq!(wear_gini(&[5]), 0.0);
        assert_eq!(wear_gini(&[4, 4, 4, 4]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let endurance = EnduranceMap::from_values(vec![10]);
        let _ = WearStats::compute(&[1, 2], &endurance);
    }
}
