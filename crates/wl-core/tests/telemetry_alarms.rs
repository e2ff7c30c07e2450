//! Integration check that the global telemetry counters stay in lock
//! step with `AttackMonitor`'s own accounting.
//!
//! This lives in its own integration-test binary so the process-global
//! metrics registry is not shared with unrelated tests; assertions are
//! still delta-based for robustness.

#![forbid(unsafe_code)]

use twl_pcm::LogicalPageAddr;
use twl_telemetry::counter;
use twl_wl_core::AttackMonitor;

#[test]
fn alarm_counters_match_monitor_accounting() {
    let windows_before = counter!("twl.wl.monitor.windows").get();
    let alarms_before = counter!("twl.wl.monitor.alarms").get();

    let mut monitor = AttackMonitor::new(8, 100, 0.5);
    // Three attack windows (single hot page), then two benign windows.
    for _ in 0..300 {
        monitor.observe_write(LogicalPageAddr::new(9), None);
    }
    for i in 0..200u64 {
        monitor.observe_write(LogicalPageAddr::new(i % 97), None);
    }
    assert_eq!(monitor.windows(), 5);
    assert_eq!(monitor.alarms(), 3);

    let window_delta = counter!("twl.wl.monitor.windows").get() - windows_before;
    let alarm_delta = counter!("twl.wl.monitor.alarms").get() - alarms_before;
    assert_eq!(
        window_delta,
        monitor.windows(),
        "telemetry window counter diverged from the monitor"
    );
    assert_eq!(
        alarm_delta,
        monitor.alarms(),
        "telemetry alarm counter diverged from the monitor"
    );

    // The counters also surface through the registry snapshot (what
    // `finish_telemetry` exports into JSONL traces).
    let snapshot = twl_telemetry::global().snapshot();
    let exported = snapshot
        .counters
        .iter()
        .find(|(name, _)| name == "twl.wl.monitor.alarms")
        .map(|&(_, v)| v);
    assert_eq!(exported, Some(alarms_before + monitor.alarms()));
}
