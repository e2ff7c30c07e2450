//! The hard guarantee of the horizon-paced degradation loop: for every
//! scheme and attack, the batched graceful-degradation driver produces
//! a report — curve points, first-fault / first-retirement /
//! spare-exhaustion device-write counts, everything — bit-identical to
//! the per-write reference loop that absorbs faults after every single
//! logical write.

#![forbid(unsafe_code)]

use twl_attacks::{Attack, AttackKind, AttackStream};
use twl_faults::{CorrectionPolicy, FaultConfig};
use twl_lifetime::{
    build_scheme_spec_for_region, run_degradation_attack, run_degradation_attack_unbatched,
    Calibration, DegradationEnd, DegradationReport, SchemeKind, SchemeSpec, SimLimits,
};
use twl_pcm::{LogicalPageAddr, PcmConfig};
use twl_workloads::{write_trace, MemCmd, ParsecBenchmark, WorkloadSpec};

/// Every scheme the factory can build (64 pages is a power of two, so
/// Security Refresh is included).
const SCHEMES: [SchemeKind; 7] = [
    SchemeKind::Nowl,
    SchemeKind::Sr,
    SchemeKind::Bwl,
    SchemeKind::Wrl,
    SchemeKind::StartGap,
    SchemeKind::TwlSwp,
    SchemeKind::TwlAp,
];

fn domain(endurance: u64, seed: u64) -> twl_faults::FaultDomain {
    let pcm = PcmConfig::builder()
        .pages(64)
        .mean_endurance(endurance)
        .seed(seed)
        .build()
        .expect("valid config");
    twl_faults::provision(
        &pcm,
        &FaultConfig {
            cell_groups_per_page: 8,
            group_sigma_fraction: 0.15,
            policy: CorrectionPolicy::Ecp { entries: 2 },
            spare_fraction: 0.1,
            seed: seed ^ 0x5eed,
        },
    )
    .expect("domain provisions")
}

fn attack_run(
    kind: SchemeKind,
    attack_kind: AttackKind,
    seed: u64,
    limits: &SimLimits,
    batched: bool,
) -> (DegradationReport, Vec<u64>) {
    let mut domain = domain(2_000, seed);
    let spec = SchemeSpec::new(kind);
    let mut scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages)
        .expect("scheme builds");
    let mut attack = Attack::new(attack_kind, scheme.page_count(), seed);
    let calibration = Calibration::attack_8gbps();
    let report = if batched {
        run_degradation_attack(
            scheme.as_mut(),
            &mut domain,
            &mut attack,
            limits,
            &calibration,
        )
    } else {
        run_degradation_attack_unbatched(
            scheme.as_mut(),
            &mut domain,
            &mut attack,
            limits,
            &calibration,
        )
    };
    (report, domain.device.wear_counters().to_vec())
}

/// Repeat drives pages to wear-out fastest and exercises the largest
/// batches — the path where a mid-batch crossing would hide if the
/// horizon pacing were wrong.
#[test]
fn repeat_attack_to_spare_exhaustion_is_bit_identical() {
    let limits = SimLimits::default();
    for kind in SCHEMES {
        for seed in [0, 7] {
            let (batched, wear_b) = attack_run(kind, AttackKind::Repeat, seed, &limits, true);
            let (reference, wear_u) = attack_run(kind, AttackKind::Repeat, seed, &limits, false);
            assert_eq!(batched, reference, "{kind:?} seed {seed} report diverged");
            assert_eq!(wear_b, wear_u, "{kind:?} seed {seed} wear map diverged");
            // The run must actually cover the interesting events —
            // faults corrected, pages retired, pool exhausted — or this
            // test proves nothing about them.
            assert_eq!(batched.end, DegradationEnd::SpareExhausted, "{kind:?}");
            assert!(batched.first_fault_device_writes.is_some(), "{kind:?}");
            assert!(batched.retired_pages > 0, "{kind:?}");
            assert!(batched.curve.len() > 1, "{kind:?}");
        }
    }
}

/// The per-write attacks run every scheme to spare exhaustion too: each
/// write touches a different page, so the horizon's margin is set by
/// many pages at once and every absorb refreshes a different leaf.
#[test]
fn per_write_attacks_to_spare_exhaustion_are_bit_identical() {
    let limits = SimLimits::default();
    for kind in SCHEMES {
        for attack_kind in [
            AttackKind::Random,
            AttackKind::Scan,
            AttackKind::Inconsistent,
        ] {
            for seed in [1, 4] {
                let (batched, wear_b) = attack_run(kind, attack_kind, seed, &limits, true);
                let (reference, wear_u) = attack_run(kind, attack_kind, seed, &limits, false);
                let case = format!("{kind:?}/{attack_kind:?} seed {seed}");
                assert_eq!(batched, reference, "{case} report diverged");
                assert_eq!(wear_b, wear_u, "{case} wear map diverged");
                assert_eq!(batched.end, DegradationEnd::SpareExhausted, "{case}");
            }
        }
    }
}

/// Random and inconsistent attacks produce short runs and exercise the
/// feedback path; the horizon still paces every absorb exactly.
#[test]
fn feedback_attacks_are_bit_identical() {
    let limits = SimLimits {
        max_logical_writes: 40_000,
    };
    for kind in [SchemeKind::TwlSwp, SchemeKind::Bwl, SchemeKind::StartGap] {
        for attack_kind in [AttackKind::Random, AttackKind::Inconsistent] {
            let (batched, wear_b) = attack_run(kind, attack_kind, 3, &limits, true);
            let (reference, wear_u) = attack_run(kind, attack_kind, 3, &limits, false);
            assert_eq!(batched, reference, "{kind:?}/{attack_kind:?} diverged");
            assert_eq!(wear_b, wear_u, "{kind:?}/{attack_kind:?} wear diverged");
        }
    }
}

/// Synthetic workloads declare runs of one write, so the batched loop
/// degenerates gracefully — and still absorbs at identical points.
#[test]
fn workload_degradation_is_bit_identical() {
    let limits = SimLimits {
        max_logical_writes: 30_000,
    };
    let calibration = Calibration::attack_8gbps();
    for kind in [SchemeKind::TwlSwp, SchemeKind::Nowl] {
        let run = |batched: bool| {
            let mut domain = domain(1_000, 5);
            let spec = SchemeSpec::new(kind);
            let mut scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages)
                .expect("scheme builds");
            let mut workload = WorkloadSpec::from(ParsecBenchmark::Canneal)
                .build(scheme.page_count(), 5)
                .expect("workload builds");
            let report = if batched {
                run_degradation_attack(
                    scheme.as_mut(),
                    &mut domain,
                    &mut workload,
                    &limits,
                    &calibration,
                )
            } else {
                run_degradation_attack_unbatched(
                    scheme.as_mut(),
                    &mut domain,
                    &mut workload,
                    &limits,
                    &calibration,
                )
            };
            (report, domain.device.wear_counters().to_vec())
        };
        let (batched, wear_b) = run(true);
        let (reference, wear_u) = run(false);
        assert_eq!(batched, reference, "{kind:?} workload report diverged");
        assert_eq!(wear_b, wear_u, "{kind:?} workload wear diverged");
    }
}

/// A replayed capture whose long same-address stretches outrun the wear
/// margin, between single writes: the batched loop writes each stretch
/// in pieces no longer than the regime's cap, carrying the remainder,
/// and writes every single write without asking for a cap at all.
#[test]
fn carried_trace_runs_to_spare_exhaustion_are_bit_identical() {
    let dir = std::env::temp_dir().join(format!("twl-degr-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("stretches.trace");
    let mut cmds = Vec::new();
    for (i, stretch) in [1_500u64, 3, 700, 1, 2_900].into_iter().enumerate() {
        let hot = LogicalPageAddr::new(5 + 11 * i as u64);
        cmds.extend((0..stretch).map(|_| MemCmd::write(hot)));
        // Scattered single writes between the stretches; Start-Gap's
        // 63 logical pages bound the addresses.
        cmds.extend(
            (0..20u64).map(|j| MemCmd::write(LogicalPageAddr::new((j * 7 + i as u64) % 63))),
        );
        cmds.push(MemCmd::read(hot));
    }
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &cmds).expect("encode trace");
    std::fs::write(&path, bytes).expect("write trace");
    let workload: WorkloadSpec = format!("TRACE[path={},seed=3]", path.display())
        .parse()
        .expect("trace label parses");

    let limits = SimLimits::default();
    let calibration = Calibration::attack_8gbps();
    for kind in SCHEMES {
        let run = |batched: bool| {
            let mut domain = domain(2_000, 6);
            let spec = SchemeSpec::new(kind);
            let mut scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages)
                .expect("scheme builds");
            let mut stream = workload
                .build(scheme.page_count(), 6)
                .expect("trace workload builds");
            let drive = if batched {
                run_degradation_attack
            } else {
                run_degradation_attack_unbatched
            };
            let report = drive(
                scheme.as_mut(),
                &mut domain,
                &mut stream,
                &limits,
                &calibration,
            );
            (report, domain.device.wear_counters().to_vec())
        };
        let (batched, wear_b) = run(true);
        let (reference, wear_u) = run(false);
        assert_eq!(batched, reference, "{kind:?} trace report diverged");
        assert_eq!(wear_b, wear_u, "{kind:?} trace wear diverged");
        assert_eq!(batched.end, DegradationEnd::SpareExhausted, "{kind:?}");
        assert!(batched.first_fault_device_writes.is_some(), "{kind:?}");
        assert!(batched.curve.len() > 1, "{kind:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod scalar_only;

#[test]
fn per_write_oracles_only_use_the_scalar_paths() {
    // The degradation oracles share the horizon-paced loop; they must
    // still reach the scheme only through `write` (never
    // `write_batch_cap`) and the stream only through `next_write`.
    let limits = SimLimits {
        max_logical_writes: 40_000,
    };
    let calibration = Calibration::attack_8gbps();
    for kind in SCHEMES {
        for attack_kind in [AttackKind::Repeat, AttackKind::Inconsistent] {
            let mut domain = domain(2_000, 7);
            let spec = SchemeSpec::new(kind);
            let scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages)
                .expect("scheme builds");
            let attack = Attack::new(attack_kind, scheme.page_count(), 7);
            let report = run_degradation_attack_unbatched(
                &mut scalar_only::ScalarOnlyScheme(scheme),
                &mut domain,
                &mut scalar_only::ScalarOnlyStream(attack),
                &limits,
                &calibration,
            );
            assert_eq!(
                (report, domain.device.wear_counters().to_vec()),
                attack_run(kind, attack_kind, 7, &limits, false),
                "{kind:?} / {attack_kind:?}"
            );
        }

        let mut runs = Vec::new();
        for scalar_only in [true, false] {
            let mut domain = domain(1_000, 5);
            let spec = SchemeSpec::new(kind);
            let scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages)
                .expect("scheme builds");
            let workload = WorkloadSpec::from(ParsecBenchmark::Canneal)
                .build(scheme.page_count(), 5)
                .expect("workload builds");
            let (mut scheme, mut workload): (
                Box<dyn twl_wl_core::WearLeveler>,
                Box<dyn AttackStream>,
            ) = if scalar_only {
                (
                    Box::new(scalar_only::ScalarOnlyScheme(scheme)),
                    Box::new(scalar_only::ScalarOnlyStream(workload)),
                )
            } else {
                (scheme, Box::new(workload))
            };
            let report = run_degradation_attack_unbatched(
                scheme.as_mut(),
                &mut domain,
                workload.as_mut(),
                &limits,
                &calibration,
            );
            runs.push((report, domain.device.wear_counters().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "{kind:?} / canneal");
    }
}
