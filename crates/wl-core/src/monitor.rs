//! Online malicious-write-stream detection (Qureshi et al., HPCA 2011
//! — the paper's reference \[11\]).
//!
//! The HPCA'11 line of work observes that wear-out attacks have a
//! statistical signature — a small set of addresses taking an outsized
//! share of the write stream — and detects them *online* with bounded
//! state, adapting the wear-leveling rate when an attack is suspected.
//!
//! This module provides the detection substrate:
//!
//! * [`MisraGries`] — the classic deterministic heavy-hitters sketch:
//!   with `k` counters, any address whose true frequency share exceeds
//!   `1/(k+1)` is guaranteed to be tracked.
//! * [`AttackMonitor`] — a windowed detector over the sketch that
//!   raises an alarm when the tracked heavy hitters' combined share
//!   exceeds a threshold. Benign workloads with smooth locality stay
//!   below it; repeat and inconsistent-write attacks light it up within
//!   a window.

use crate::WriteOutcome;
use twl_pcm::LogicalPageAddr;

/// The Misra-Gries heavy-hitters summary.
///
/// Maintains at most `k` candidate counters over a stream. After `n`
/// insertions, every element with true count `> n/(k+1)` is present,
/// and each tracked count underestimates the true count by at most
/// `n/(k+1)`.
///
/// # Examples
///
/// ```
/// use twl_wl_core::MisraGries;
///
/// let mut mg = MisraGries::new(4);
/// for _ in 0..60 {
///     mg.insert(7);
/// }
/// for x in 0..30 {
///     mg.insert(100 + x % 10);
/// }
/// // 7 holds a 2/3 share: guaranteed tracked.
/// assert!(mg.estimate(7) > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MisraGries {
    counters: Vec<(u64, u64)>,
    capacity: usize,
    total: u64,
}

impl MisraGries {
    /// Creates a sketch with `k` counters.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[must_use]
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "sketch needs at least one counter");
        Self {
            counters: Vec::with_capacity(k),
            capacity: k,
            total: 0,
        }
    }

    /// Inserts one occurrence of `key`.
    pub fn insert(&mut self, key: u64) {
        self.insert_n(key, 1);
    }

    /// Inserts `n` occurrences of `key` in O(k), leaving the sketch in
    /// exactly the state `n` sequential [`MisraGries::insert`] calls
    /// would.
    ///
    /// The collapse is exact because repeated inserts of one key only
    /// take three shapes: a tracked key just accumulates; an untracked
    /// key with a free slot lands once and accumulates; and on a full
    /// sketch the first `d` inserts (where `d` is the smallest tracked
    /// count) each run the decrement-all step until a slot opens, after
    /// which the remaining `n − d` land on the key.
    pub fn insert_n(&mut self, key: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.total += n;
        if let Some(entry) = self.counters.iter_mut().find(|(k, _)| *k == key) {
            entry.1 += n;
            return;
        }
        if self.counters.len() < self.capacity {
            self.counters.push((key, n));
            return;
        }
        // Decrement-all, n times, collapsed (tracked counts are always
        // ≥ 1, so d ≥ 1 and the n == 1 case never pushes — the
        // signature Misra-Gries step).
        let d = self.counters.iter().map(|&(_, c)| c).min().unwrap_or(0);
        let drained = n.min(d);
        for entry in &mut self.counters {
            entry.1 -= drained;
        }
        self.counters.retain(|&(_, c)| c > 0);
        if n > d {
            self.counters.push((key, n - d));
        }
    }

    /// Lower-bound estimate of `key`'s count (0 if untracked).
    #[must_use]
    pub fn estimate(&self, key: u64) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(0, |&(_, c)| c)
    }

    /// Total insertions so far.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Combined tracked count as a fraction of the stream — high when a
    /// few keys dominate, near zero for uniform streams.
    #[must_use]
    pub fn tracked_share(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let tracked: u64 = self.counters.iter().map(|&(_, c)| c).sum();
        tracked as f64 / self.total as f64
    }

    /// The tracked keys and their estimates, heaviest first.
    #[must_use]
    pub fn heavy_hitters(&self) -> Vec<(u64, u64)> {
        let mut hh = self.counters.clone();
        hh.sort_by_key(|&(k, c)| (std::cmp::Reverse(c), k));
        hh
    }

    /// Clears the sketch (window boundary).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.total = 0;
    }
}

/// Windowed attack detector over write-stream concentration.
///
/// Feed every logical write (and optionally its [`WriteOutcome`], for
/// future latency-based features); at each window boundary the detector
/// compares the heavy hitters' combined share against the threshold and
/// raises/clears the alarm. HPCA'11-style systems react to the alarm by
/// accelerating their wear-leveling rate; here the alarm is exposed for
/// the integration layer to act on.
///
/// # Examples
///
/// ```
/// use twl_pcm::LogicalPageAddr;
/// use twl_wl_core::AttackMonitor;
///
/// let mut monitor = AttackMonitor::new(16, 1000, 0.5);
/// for _ in 0..2000 {
///     monitor.observe_write(LogicalPageAddr::new(3), None);
/// }
/// assert!(monitor.under_attack());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AttackMonitor {
    sketch: MisraGries,
    window_writes: u64,
    threshold_share: f64,
    seen_in_window: u64,
    under_attack: bool,
    alarms: u64,
    windows: u64,
    last_share: f64,
}

impl AttackMonitor {
    /// Creates a detector with `k` sketch counters, a window of
    /// `window_writes` writes, and an alarm threshold on the heavy
    /// hitters' combined share.
    ///
    /// # Panics
    ///
    /// Panics if the window is zero or the threshold is not in `(0, 1]`.
    #[must_use]
    pub fn new(k: usize, window_writes: u64, threshold_share: f64) -> Self {
        assert!(window_writes > 0, "window must be positive");
        assert!(
            threshold_share > 0.0 && threshold_share <= 1.0,
            "threshold must be a nonzero share"
        );
        Self {
            sketch: MisraGries::new(k),
            window_writes,
            threshold_share,
            seen_in_window: 0,
            under_attack: false,
            alarms: 0,
            windows: 0,
            last_share: 0.0,
        }
    }

    /// A configuration suited to page-granularity devices: 32 counters,
    /// 16 k-write windows, alarm at 40 % concentration.
    #[must_use]
    pub fn for_pages() -> Self {
        Self::new(32, 16_384, 0.4)
    }

    /// Feeds one write; returns `true` if this write closed a window
    /// that raised the alarm.
    pub fn observe_write(&mut self, la: LogicalPageAddr, _outcome: Option<&WriteOutcome>) -> bool {
        self.sketch.insert(la.index());
        self.seen_in_window += 1;
        if self.seen_in_window < self.window_writes {
            return false;
        }
        self.close_window().2
    }

    /// Feeds `n` consecutive writes to the same page, chunked at window
    /// boundaries so every window closes with exactly the state the
    /// per-write path would have produced.
    ///
    /// Returns `(window_index, share)` for each window that closed with
    /// the alarm raised, so callers can emit the same per-window alarm
    /// records as the scalar path.
    pub fn observe_writes(&mut self, la: LogicalPageAddr, mut n: u64) -> Vec<(u64, f64)> {
        let mut alarmed = Vec::new();
        while n > 0 {
            let room = self.window_writes - self.seen_in_window;
            let chunk = n.min(room);
            self.sketch.insert_n(la.index(), chunk);
            self.seen_in_window += chunk;
            n -= chunk;
            if self.seen_in_window == self.window_writes {
                let (window, share, alarm) = self.close_window();
                if alarm {
                    alarmed.push((window, share));
                }
            }
        }
        alarmed
    }

    /// Evaluates and resets the just-filled window, returning its index,
    /// measured share, and whether it alarmed.
    fn close_window(&mut self) -> (u64, f64, bool) {
        self.windows += 1;
        self.seen_in_window = 0;
        let share = self.sketch.tracked_share();
        self.last_share = share;
        self.under_attack = share >= self.threshold_share;
        twl_telemetry::counter!("twl.wl.monitor.windows").inc();
        if self.under_attack {
            self.alarms += 1;
            twl_telemetry::counter!("twl.wl.monitor.alarms").inc();
        }
        self.sketch.clear();
        (self.windows, share, self.under_attack)
    }

    /// Whether the most recent window looked like an attack.
    #[must_use]
    pub fn under_attack(&self) -> bool {
        self.under_attack
    }

    /// Heavy-hitter share measured when the most recent window closed
    /// (0.0 before the first window completes).
    #[must_use]
    pub fn last_window_share(&self) -> f64 {
        self.last_share
    }

    /// Windows that raised the alarm.
    #[must_use]
    pub fn alarms(&self) -> u64 {
        self.alarms
    }

    /// Windows evaluated.
    #[must_use]
    pub fn windows(&self) -> u64 {
        self.windows
    }

    /// Fraction of windows that alarmed (false-positive rate on benign
    /// streams, detection rate on attack streams).
    #[must_use]
    pub fn alarm_rate(&self) -> f64 {
        if self.windows == 0 {
            0.0
        } else {
            self.alarms as f64 / self.windows as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misra_gries_guarantees_heavy_hitters() {
        let mut mg = MisraGries::new(9);
        // Key 1 takes 30% of 1000 items: share > 1/10 → guaranteed.
        for i in 0..1000u64 {
            if i % 10 < 3 {
                mg.insert(1);
            } else {
                mg.insert(1000 + i);
            }
        }
        assert!(mg.estimate(1) > 0, "30% heavy hitter must be tracked");
        // Underestimate bound: true 300, error ≤ 1000/10.
        assert!(mg.estimate(1) >= 200);
        assert!(mg.estimate(1) <= 300);
    }

    #[test]
    fn uniform_stream_has_low_tracked_share() {
        let mut mg = MisraGries::new(8);
        for i in 0..10_000u64 {
            mg.insert(i % 1000);
        }
        assert!(mg.tracked_share() < 0.05, "share {}", mg.tracked_share());
    }

    #[test]
    fn heavy_hitters_sorted_heaviest_first() {
        let mut mg = MisraGries::new(4);
        for _ in 0..50 {
            mg.insert(5);
        }
        for _ in 0..20 {
            mg.insert(9);
        }
        let hh = mg.heavy_hitters();
        assert_eq!(hh[0].0, 5);
        assert_eq!(hh[1].0, 9);
    }

    #[test]
    fn monitor_alarms_on_repeat_stream() {
        let mut monitor = AttackMonitor::new(8, 100, 0.5);
        let mut alarmed = false;
        for _ in 0..500 {
            alarmed |= monitor.observe_write(LogicalPageAddr::new(42), None);
        }
        assert!(alarmed);
        assert!(monitor.under_attack());
        assert_eq!(monitor.alarm_rate(), 1.0);
    }

    #[test]
    fn monitor_stays_quiet_on_uniform_stream() {
        let mut monitor = AttackMonitor::new(8, 1000, 0.5);
        for i in 0..10_000u64 {
            monitor.observe_write(LogicalPageAddr::new(i % 512), None);
        }
        assert!(!monitor.under_attack());
        assert_eq!(monitor.alarms(), 0);
        assert_eq!(monitor.windows(), 10);
    }

    #[test]
    fn alarm_clears_when_the_attack_stops() {
        let mut monitor = AttackMonitor::new(8, 100, 0.5);
        for _ in 0..100 {
            monitor.observe_write(LogicalPageAddr::new(1), None);
        }
        assert!(monitor.under_attack());
        for i in 0..100u64 {
            monitor.observe_write(LogicalPageAddr::new(i), None);
        }
        assert!(!monitor.under_attack());
    }

    #[test]
    fn insert_n_matches_sequential_inserts() {
        // Exercise every branch: tracked key, free slot, and the
        // full-sketch decrement cascade (both n ≤ d and n > d).
        for &(prefill, key, n) in &[
            (0u64, 7u64, 5u64), // free slot
            (4, 0, 3),          // already tracked
            (4, 99, 2),         // full, n ≤ min count
            (4, 99, 50),        // full, n > min count → key lands
        ] {
            let mut bulk = MisraGries::new(4);
            let mut seq = MisraGries::new(4);
            for k in 0..prefill {
                for _ in 0..10 {
                    bulk.insert(k);
                    seq.insert(k);
                }
            }
            bulk.insert_n(key, n);
            for _ in 0..n {
                seq.insert(key);
            }
            assert_eq!(bulk, seq, "prefill={prefill} key={key} n={n}");
        }
    }

    #[test]
    fn insert_n_zero_is_a_noop() {
        let mut mg = MisraGries::new(2);
        mg.insert_n(3, 0);
        assert_eq!(mg.total(), 0);
        assert_eq!(mg.estimate(3), 0);
    }

    #[test]
    fn observe_writes_matches_per_write_observation() {
        let mut bulk = AttackMonitor::new(8, 100, 0.5);
        let mut seq = AttackMonitor::new(8, 100, 0.5);
        let la = LogicalPageAddr::new(42);
        // 37 writes of warm-up so batches straddle window boundaries.
        for _ in 0..37 {
            bulk.observe_write(la, None);
            seq.observe_write(la, None);
        }
        let alarmed = bulk.observe_writes(la, 463);
        let mut seq_alarmed = Vec::new();
        for _ in 0..463 {
            if seq.observe_write(la, None) {
                seq_alarmed.push((seq.windows(), seq.last_window_share()));
            }
        }
        assert_eq!(bulk, seq);
        assert_eq!(alarmed, seq_alarmed);
        assert_eq!(bulk.windows(), 5);
        assert_eq!(bulk.alarms(), 5);
    }

    #[test]
    #[should_panic(expected = "sketch needs at least one counter")]
    fn zero_counters_panics() {
        let _ = MisraGries::new(0);
    }
}
