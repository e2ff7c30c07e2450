//! Wear-map sampling: per-page write-count summaries captured on a
//! fixed write cadence into a bounded ring buffer.
//!
//! The paper's lifetime figures are all statements about the *shape* of
//! the wear distribution over time — how unequal it is (Gini, CoV) and
//! where its tail sits (p99/max). [`WearSummary`] condenses a wear-count
//! slice into those numbers plus a log₂ histogram, and
//! [`WearMapSampler`] captures one summary every `every_writes` device
//! writes, keeping the most recent `capacity` snapshots.

use std::collections::VecDeque;

/// Number of log₂ buckets in a wear histogram (bucket `i` counts pages
/// with wear in `[2^i, 2^(i+1))`; bucket 0 also holds wear 0 and 1).
pub const WEAR_BUCKETS: usize = 32;

/// Distribution summary of one wear-count snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct WearSummary {
    /// Pages summarized.
    pub pages: u64,
    /// Sum of all per-page wear counts.
    pub total: u64,
    /// Mean wear per page.
    pub mean: f64,
    /// Coefficient of variation (σ/μ; 0 when the mean is 0).
    pub cov: f64,
    /// Gini coefficient (0 = perfectly level, →1 = concentrated).
    pub gini: f64,
    /// Median per-page wear.
    pub p50: u64,
    /// 90th-percentile per-page wear.
    pub p90: u64,
    /// 99th-percentile per-page wear.
    pub p99: u64,
    /// Maximum per-page wear.
    pub max: u64,
    /// log₂ histogram of per-page wear.
    pub histogram: Vec<u64>,
}

impl WearSummary {
    /// Summarizes a slice of per-page wear counts (a device's `u32`
    /// wear table).
    ///
    /// # Panics
    ///
    /// Panics if `wear` is empty.
    #[must_use]
    pub fn from_counts(wear: &[u32]) -> Self {
        assert!(!wear.is_empty(), "cannot summarize an empty wear map");
        let pages = wear.len() as u64;
        let total: u64 = wear.iter().map(|&w| u64::from(w)).sum();
        let mean = total as f64 / pages as f64;

        let mut sorted = wear.to_vec();
        sorted.sort_unstable();

        let variance = wear
            .iter()
            .map(|&w| {
                let d = w as f64 - mean;
                d * d
            })
            .sum::<f64>()
            / pages as f64;
        let cov = if mean > 0.0 {
            variance.sqrt() / mean
        } else {
            0.0
        };

        // Gini over the sorted counts: (2·Σ i·x_i)/(n·Σ x_i) − (n+1)/n.
        let gini = if total == 0 {
            0.0
        } else {
            let weighted: f64 = sorted
                .iter()
                .enumerate()
                .map(|(i, &w)| (i as f64 + 1.0) * w as f64)
                .sum();
            (2.0 * weighted) / (pages as f64 * total as f64) - (pages as f64 + 1.0) / pages as f64
        };

        let pct = |q: f64| -> u64 {
            let idx = ((q * (pages as f64 - 1.0)).round() as usize).min(sorted.len() - 1);
            u64::from(sorted[idx])
        };

        let mut histogram = vec![0u64; WEAR_BUCKETS];
        for &w in wear {
            let idx = if w <= 1 {
                0
            } else {
                (31 - w.leading_zeros() as usize).min(WEAR_BUCKETS - 1)
            };
            histogram[idx] += 1;
        }

        Self {
            pages,
            total,
            mean,
            cov,
            gini,
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
            max: u64::from(*sorted.last().expect("non-empty")),
            histogram,
        }
    }
}

/// One captured wear-map sample.
#[derive(Debug, Clone, PartialEq)]
pub struct WearSnapshot {
    /// Monotonic snapshot index within the run (0-based).
    pub seq: u64,
    /// Device writes observed when the snapshot was taken.
    pub at_writes: u64,
    /// The distribution summary.
    pub summary: WearSummary,
}

/// Captures [`WearSnapshot`]s every `every_writes` observed writes into
/// a ring buffer of bounded capacity.
///
/// # Examples
///
/// ```
/// use twl_telemetry::WearMapSampler;
///
/// let mut sampler = WearMapSampler::new(100, 8);
/// let mut wear = vec![0u32; 16];
/// for i in 0..250u64 {
///     wear[(i % 16) as usize] += 1;
///     sampler.observe(1, &wear);
/// }
/// assert_eq!(sampler.snapshots().count(), 2); // at 100 and 200 writes
/// ```
#[derive(Debug, Clone)]
pub struct WearMapSampler {
    every_writes: u64,
    capacity: usize,
    seen: u64,
    next_due: u64,
    seq: u64,
    ring: VecDeque<WearSnapshot>,
}

impl WearMapSampler {
    /// Creates a sampler firing every `every_writes` writes and keeping
    /// the `capacity` most recent snapshots.
    ///
    /// # Panics
    ///
    /// Panics if either argument is zero.
    #[must_use]
    pub fn new(every_writes: u64, capacity: usize) -> Self {
        assert!(every_writes > 0, "sampling cadence must be positive");
        assert!(capacity > 0, "ring must hold at least one snapshot");
        Self {
            every_writes,
            capacity,
            seen: 0,
            next_due: every_writes,
            seq: 0,
            ring: VecDeque::with_capacity(capacity),
        }
    }

    /// The configured cadence in writes.
    #[must_use]
    pub fn every_writes(&self) -> u64 {
        self.every_writes
    }

    /// Advances the write clock by `writes`; if one or more sampling
    /// boundaries were crossed, captures ONE snapshot of `wear` (the
    /// current state — intermediate states are gone) and returns it.
    pub fn observe(&mut self, writes: u64, wear: &[u32]) -> Option<&WearSnapshot> {
        self.seen += writes;
        if self.seen < self.next_due {
            return None;
        }
        while self.next_due <= self.seen {
            self.next_due += self.every_writes;
        }
        let snapshot = WearSnapshot {
            seq: self.seq,
            at_writes: self.seen,
            summary: WearSummary::from_counts(wear),
        };
        self.seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(snapshot);
        self.ring.back()
    }

    /// Forces a snapshot right now (end-of-run capture).
    pub fn snapshot_now(&mut self, wear: &[u32]) -> &WearSnapshot {
        let snapshot = WearSnapshot {
            seq: self.seq,
            at_writes: self.seen,
            summary: WearSummary::from_counts(wear),
        };
        self.seq += 1;
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(snapshot);
        self.ring.back().expect("just pushed")
    }

    /// The retained snapshots, oldest first.
    pub fn snapshots(&self) -> impl Iterator<Item = &WearSnapshot> {
        self.ring.iter()
    }

    /// The most recent snapshot, if any.
    #[must_use]
    pub fn latest(&self) -> Option<&WearSnapshot> {
        self.ring.back()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_wear_is_perfectly_level() {
        let s = WearSummary::from_counts(&[10; 64]);
        assert!(s.gini.abs() < 1e-12);
        assert!(s.cov.abs() < 1e-12);
        assert_eq!((s.p50, s.p99, s.max), (10, 10, 10));
        assert_eq!(s.total, 640);
    }

    #[test]
    fn concentrated_wear_has_high_gini() {
        let mut wear = vec![0u32; 100];
        wear[0] = 1_000;
        let s = WearSummary::from_counts(&wear);
        assert!(s.gini > 0.98, "gini {}", s.gini);
        assert_eq!(s.max, 1_000);
        assert_eq!(s.p50, 0);
    }

    #[test]
    fn histogram_covers_all_pages() {
        let wear: Vec<u32> = (0..1000).collect();
        let s = WearSummary::from_counts(&wear);
        assert_eq!(s.histogram.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn sampler_fires_on_cadence_and_bounds_ring() {
        let mut sampler = WearMapSampler::new(10, 3);
        let wear = vec![1u32; 4];
        let mut fired = 0;
        for _ in 0..100 {
            if sampler.observe(1, &wear).is_some() {
                fired += 1;
            }
        }
        assert_eq!(fired, 10);
        assert_eq!(sampler.snapshots().count(), 3, "ring keeps the newest 3");
        let seqs: Vec<u64> = sampler.snapshots().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
        assert_eq!(sampler.latest().expect("non-empty").at_writes, 100);
    }

    #[test]
    fn bulk_observe_crossing_many_boundaries_fires_once() {
        let mut sampler = WearMapSampler::new(10, 8);
        let wear = vec![1u32; 4];
        assert!(sampler.observe(35, &wear).is_some());
        assert_eq!(sampler.snapshots().count(), 1);
        // Next boundary is 40: 5 more writes reach it.
        assert!(sampler.observe(4, &wear).is_none());
        assert!(sampler.observe(1, &wear).is_some());
    }
}
