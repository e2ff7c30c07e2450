//! Property tests for the attack-detection substrate: Misra-Gries
//! sketch invariants (including the decrement-all eviction path) and
//! `AttackMonitor` window-rollover accounting.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use std::collections::HashMap;
use twl_pcm::LogicalPageAddr;
use twl_wl_core::{AttackMonitor, MisraGries};

proptest! {
    /// The classic Misra-Gries guarantees, exercised on streams with
    /// far more distinct keys than counters so the decrement-all path
    /// runs constantly:
    ///
    /// * at most `k` counters are ever tracked;
    /// * every estimate is a lower bound on the true count;
    /// * the underestimate is at most `total / (k + 1)`;
    /// * any key with true share above `1 / (k + 1)` is tracked.
    #[test]
    fn misra_gries_bounds_hold(
        k in 1usize..12,
        keys in proptest::collection::vec(0u64..64, 1..800),
    ) {
        let mut mg = MisraGries::new(k);
        let mut truth: HashMap<u64, u64> = HashMap::new();
        for &key in &keys {
            mg.insert(key);
            *truth.entry(key).or_default() += 1;
        }
        let total = keys.len() as u64;
        prop_assert_eq!(mg.total(), total);
        let hh = mg.heavy_hitters();
        prop_assert!(hh.len() <= k, "{} counters tracked with k = {k}", hh.len());
        let slack = total / (k as u64 + 1);
        for (&key, &count) in &truth {
            let est = mg.estimate(key);
            prop_assert!(est <= count, "estimate {est} above true count {count}");
            prop_assert!(
                count - est <= slack,
                "key {key}: underestimate {} exceeds n/(k+1) = {slack}",
                count - est
            );
            if count > slack {
                prop_assert!(est > 0, "heavy hitter {key} (count {count}) evicted");
            }
        }
    }

    /// `heavy_hitters` reports every live counter exactly once, heaviest
    /// first, and the tracked mass never exceeds the stream length.
    #[test]
    fn heavy_hitters_are_sorted_and_bounded(
        keys in proptest::collection::vec(0u64..32, 1..500),
    ) {
        let mut mg = MisraGries::new(5);
        for &key in &keys {
            mg.insert(key);
        }
        let hh = mg.heavy_hitters();
        for pair in hh.windows(2) {
            prop_assert!(pair[0].1 >= pair[1].1, "not sorted: {hh:?}");
        }
        for &(key, est) in &hh {
            prop_assert!(est > 0, "zero-count key {key} survived eviction");
            prop_assert_eq!(mg.estimate(key), est);
        }
        let tracked: u64 = hh.iter().map(|&(_, c)| c).sum();
        prop_assert!(tracked <= keys.len() as u64);
        prop_assert!((0.0..=1.0).contains(&mg.tracked_share()));
    }

    /// Window rollover: `windows()` advances exactly every
    /// `window_writes` observations regardless of the stream content,
    /// alarms never exceed windows, and `observe_write` returns `true`
    /// only on an alarming boundary write.
    #[test]
    fn monitor_rollover_accounting(
        window in 1u64..200,
        writes in 0u64..2000,
        stride in 1u64..64,
    ) {
        let mut monitor = AttackMonitor::new(4, window, 0.5);
        let mut boundary_alarms = 0u64;
        for i in 0..writes {
            let closed_with_alarm =
                monitor.observe_write(LogicalPageAddr::new(i % stride), None);
            if closed_with_alarm {
                boundary_alarms += 1;
                // An alarming boundary must land exactly on a window edge.
                prop_assert_eq!((i + 1) % window, 0, "alarm off-boundary at write {i}");
            }
        }
        prop_assert_eq!(monitor.windows(), writes / window);
        prop_assert_eq!(monitor.alarms(), boundary_alarms);
        prop_assert!(monitor.alarms() <= monitor.windows());
        prop_assert!((0.0..=1.0).contains(&monitor.alarm_rate()));
        prop_assert!((0.0..=1.0).contains(&monitor.last_window_share()));
        if monitor.windows() == 0 {
            prop_assert_eq!(monitor.alarm_rate(), 0.0);
            prop_assert_eq!(monitor.last_window_share(), 0.0);
        }
    }

    /// The sketch resets at each boundary: a window of pure attack
    /// writes alarms, and the immediately following window of a uniform
    /// stream (more distinct keys than the threshold share allows)
    /// clears the alarm — state never leaks across windows.
    #[test]
    fn monitor_windows_are_independent(window in 32u64..256) {
        let mut monitor = AttackMonitor::new(4, window, 0.5);
        for _ in 0..window {
            monitor.observe_write(LogicalPageAddr::new(7), None);
        }
        prop_assert!(monitor.under_attack(), "repeat window must alarm");
        prop_assert_eq!(monitor.last_window_share(), 1.0);
        for i in 0..window {
            monitor.observe_write(LogicalPageAddr::new(1000 + i), None);
        }
        prop_assert!(!monitor.under_attack(), "uniform window must clear");
        prop_assert_eq!(monitor.windows(), 2);
        prop_assert_eq!(monitor.alarms(), 1);
    }
}
