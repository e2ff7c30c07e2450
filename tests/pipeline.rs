//! End-to-end pipeline tests across the substrates: checkpointed
//! simulations, the attack monitor running beside a live attack, and
//! the banked memory-controller model ranking schemes like Fig. 9.

#![forbid(unsafe_code)]

use tossup_wl::attacks::{Attack, AttackKind, AttackStream};
use tossup_wl::lifetime::{build_scheme_spec, SchemeKind};
use tossup_wl::pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
use tossup_wl::wl::AttackMonitor;

#[test]
fn checkpointed_run_matches_uninterrupted_run() {
    let pcm = PcmConfig::builder()
        .pages(128)
        .mean_endurance(5_000)
        .seed(9)
        .build()
        .expect("valid config");

    // Uninterrupted run: 30k scan writes.
    let mut device_a = PcmDevice::new(&pcm);
    let mut scheme_a = build_scheme_spec(&SchemeKind::Sr.into(), &device_a).expect("builds");
    for i in 0..30_000u64 {
        scheme_a
            .write(LogicalPageAddr::new(i % 128), &mut device_a)
            .expect("healthy");
    }

    // Same run with a device checkpoint in the middle. The scheme's own
    // state is cloneable too, but here we restart the *device* from a
    // snapshot and keep driving the same scheme object.
    let mut device_b = PcmDevice::new(&pcm);
    let mut scheme_b = build_scheme_spec(&SchemeKind::Sr.into(), &device_b).expect("builds");
    for i in 0..15_000u64 {
        scheme_b
            .write(LogicalPageAddr::new(i % 128), &mut device_b)
            .expect("healthy");
    }
    let mut device_b = PcmDevice::restore(device_b.snapshot()).expect("valid snapshot");
    for i in 15_000..30_000u64 {
        scheme_b
            .write(LogicalPageAddr::new(i % 128), &mut device_b)
            .expect("healthy");
    }

    assert_eq!(device_a.total_writes(), device_b.total_writes());
    assert_eq!(device_a.wear_counters(), device_b.wear_counters());
}

#[test]
fn monitor_flags_a_live_inconsistent_attack_but_not_parsec() {
    use tossup_wl::workloads::ParsecBenchmark;

    let pages = 1024u64;
    let pcm = PcmConfig::builder()
        .pages(pages)
        .mean_endurance(100_000_000)
        .seed(3)
        .build()
        .expect("valid config");

    // Attack stream through a real scheme, monitor alongside.
    let mut device = PcmDevice::new(&pcm);
    let mut scheme = build_scheme_spec(&SchemeKind::TwlSwp.into(), &device).expect("builds");
    let mut attack = Attack::new(AttackKind::Inconsistent, pages, 3);
    let mut monitor = AttackMonitor::for_pages();
    let mut feedback = None;
    let mut detected = false;
    for _ in 0..100_000u64 {
        let la = attack.next_write(feedback.as_ref());
        let out = scheme.write(la, &mut device).expect("healthy");
        detected |= monitor.observe_write(la, Some(&out));
        feedback = Some(out);
    }
    assert!(detected, "the monitor must flag the inconsistent attack");

    // PARSEC stream: no alarms.
    let mut monitor = AttackMonitor::for_pages();
    let mut workload = ParsecBenchmark::Ferret.workload(pages, 3);
    for _ in 0..100_000u64 {
        assert!(
            !monitor.observe_write(workload.next_write_la(), None),
            "benign traffic must not alarm"
        );
    }
}

#[test]
fn banked_model_ranks_schemes_like_fig9() {
    use tossup_wl::memctrl::{simulate_execution_banked, MemCtrlConfig};
    use tossup_wl::workloads::ParsecBenchmark;

    let pages = 1024u64;
    let pcm = PcmConfig::builder()
        .pages(pages)
        .mean_endurance(100_000_000)
        .seed(6)
        .build()
        .expect("valid config");
    let bench = ParsecBenchmark::Vips;
    let timing = MemCtrlConfig::for_bandwidth(bench.write_bandwidth_mbps(), 4096, 0.55);

    // In the closed-loop model every request's latency (engine cycles,
    // bank occupancy, migration blocking) sits on the critical path, so
    // total execution time is the scheme-discriminating observable.
    let total_cycles = |kind: SchemeKind| -> u64 {
        let mut device = PcmDevice::new(&pcm);
        let mut scheme = build_scheme_spec(&kind.into(), &device).expect("builds");
        let mut workload = bench.workload(pages, 6);
        simulate_execution_banked(
            &timing,
            scheme.as_mut(),
            &mut device,
            &mut workload,
            100_000,
        )
        .expect("nominal endurance cannot wear out")
        .total_cycles
    };

    let nowl = total_cycles(SchemeKind::Nowl);
    let twl = total_cycles(SchemeKind::TwlSwp);
    let bwl = total_cycles(SchemeKind::Bwl);
    // The banked model must agree with Fig. 9's ordering on the
    // memory-bound benchmark: NOWL <= TWL < BWL.
    assert!(twl >= nowl, "TWL {twl} vs NOWL {nowl}");
    assert!(bwl > twl, "BWL {bwl} must cost more than TWL {twl}");
}
