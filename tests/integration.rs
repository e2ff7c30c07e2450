//! Cross-crate integration tests: full attack and workload simulations
//! exercised through the public facade, asserting the paper's headline
//! qualitative results.

use tossup_wl::attacks::{Attack, AttackKind};
use tossup_wl::lifetime::{build_scheme_spec, run_attack, Calibration, SchemeKind, SimLimits};
use tossup_wl::pcm::{PcmConfig, PcmDevice};
use tossup_wl::workloads::{ParsecBenchmark, WorkloadSpec};

const PAGES: u64 = 512;
const ENDURANCE: u64 = 10_000;

fn device(seed: u64) -> PcmDevice {
    PcmDevice::new(
        &PcmConfig::builder()
            .pages(PAGES)
            .mean_endurance(ENDURANCE)
            .seed(seed)
            .build()
            .expect("valid test config"),
    )
}

fn attack_fraction(kind: SchemeKind, attack: AttackKind, seed: u64) -> f64 {
    let mut dev = device(seed);
    let mut scheme = build_scheme_spec(&kind.into(), &dev).expect("scheme builds");
    let mut attack = Attack::new(attack, scheme.page_count(), seed);
    run_attack(
        scheme.as_mut(),
        &mut dev,
        &mut attack,
        &SimLimits::default(),
        &Calibration::attack_8gbps(),
    )
    .capacity_fraction
}

#[test]
fn headline_result_twl_survives_the_inconsistent_attack() {
    // The paper's core claim (Fig. 6): the inconsistent-write attack
    // collapses prediction-based BWL while TWL retains most of its
    // lifetime.
    let bwl = attack_fraction(SchemeKind::Bwl, AttackKind::Inconsistent, 42);
    let twl = attack_fraction(SchemeKind::TwlSwp, AttackKind::Inconsistent, 42);
    assert!(bwl < 0.1, "BWL must collapse, got {bwl}");
    assert!(twl > 0.4, "TWL must survive, got {twl}");
    assert!(twl > 10.0 * bwl, "TWL {twl} vs BWL {bwl}");
}

#[test]
fn nowl_collapses_under_repeat_but_not_uniform_attacks() {
    let repeat = attack_fraction(SchemeKind::Nowl, AttackKind::Repeat, 42);
    let random = attack_fraction(SchemeKind::Nowl, AttackKind::Random, 42);
    assert!(repeat < 0.01, "repeat hammers one page: {repeat}");
    assert!(random > 0.3, "uniform random is self-leveling: {random}");
}

#[test]
fn every_scheme_beats_nowl_under_every_attack() {
    for attack in AttackKind::ALL {
        let nowl = attack_fraction(SchemeKind::Nowl, attack, 7);
        for scheme in [SchemeKind::Sr, SchemeKind::TwlSwp, SchemeKind::TwlAp] {
            let f = attack_fraction(scheme, attack, 7);
            assert!(
                f >= nowl * 0.95,
                "{scheme} under {attack}: {f} vs NOWL {nowl}"
            );
        }
    }
}

#[test]
fn strong_weak_pairing_beats_adjacent_on_gmean() {
    // Fig. 6's TWL_swp vs TWL_ap comparison (paper: +21.7 %).
    let mut swp = 1.0;
    let mut ap = 1.0;
    for attack in AttackKind::ALL {
        swp *= attack_fraction(SchemeKind::TwlSwp, attack, 3).max(1e-9);
        ap *= attack_fraction(SchemeKind::TwlAp, attack, 3).max(1e-9);
    }
    assert!(
        swp.powf(0.25) > ap.powf(0.25),
        "SWP gmean {} must beat AP gmean {}",
        swp.powf(0.25),
        ap.powf(0.25)
    );
}

#[test]
fn security_refresh_is_flat_across_attacks() {
    // SR's signature (Fig. 6): roughly the same lifetime under every
    // attack — it levels raw wear regardless of the pattern.
    let fractions: Vec<f64> = AttackKind::ALL
        .iter()
        .map(|&a| attack_fraction(SchemeKind::Sr, a, 42))
        .collect();
    let min = fractions.iter().copied().fold(f64::INFINITY, f64::min);
    let max = fractions.iter().copied().fold(0.0, f64::max);
    assert!(
        max / min < 1.6,
        "SR must be flat across attacks: {fractions:?}"
    );
}

#[test]
fn benign_workload_ordering_matches_fig8() {
    // Fig. 8 ordering on a PARSEC-like workload: TWL and BWL well above
    // SR, everything far above NOWL.
    let bench = ParsecBenchmark::Canneal;
    let calibration = Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps());
    let fraction = |kind: SchemeKind| {
        let mut dev = device(42);
        let mut scheme = build_scheme_spec(&kind.into(), &dev).expect("scheme builds");
        let mut workload = WorkloadSpec::from(bench)
            .build(PAGES, 42)
            .expect("workload builds");
        run_attack(
            scheme.as_mut(),
            &mut dev,
            &mut workload,
            &SimLimits::default(),
            &calibration,
        )
        .capacity_fraction
    };
    let nowl = fraction(SchemeKind::Nowl);
    let sr = fraction(SchemeKind::Sr);
    let twl = fraction(SchemeKind::TwlSwp);
    let bwl = fraction(SchemeKind::Bwl);
    assert!(twl > sr, "TWL {twl} must beat SR {sr}");
    assert!(bwl > sr, "BWL {bwl} must beat SR {sr}");
    assert!(sr > 5.0 * nowl, "SR {sr} must crush NOWL {nowl}");
}

#[test]
fn full_runs_are_deterministic() {
    let a = attack_fraction(SchemeKind::TwlSwp, AttackKind::Inconsistent, 9);
    let b = attack_fraction(SchemeKind::TwlSwp, AttackKind::Inconsistent, 9);
    assert_eq!(a, b, "same seeds must reproduce bit-identically");
}

#[test]
fn reports_carry_consistent_accounting() {
    let mut dev = device(5);
    let mut scheme = build_scheme_spec(&SchemeKind::TwlSwp.into(), &dev).expect("scheme builds");
    let mut attack = Attack::new(AttackKind::Scan, scheme.page_count(), 5);
    let report = run_attack(
        scheme.as_mut(),
        &mut dev,
        &mut attack,
        &SimLimits::default(),
        &Calibration::attack_8gbps(),
    );
    assert!(report.completed);
    assert!(report.device_writes >= report.logical_writes);
    assert_eq!(report.device_writes, dev.total_writes());
    assert!(report.capacity_fraction > 0.0 && report.capacity_fraction <= 1.0);
    assert!(report.years > 0.0);
    assert_eq!(report.scheme, "TWL_swp");
    assert_eq!(report.workload, "scan");
    assert!(report.failed_page.is_some());
}
