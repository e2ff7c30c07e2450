//! The hard guarantee of the event-skipping fast path: for every
//! scheme, attack, and seed, the batched fail-stop driver produces a
//! report and a device wear map bit-identical to the per-write
//! reference loop.

use twl_attacks::{Attack, AttackKind, AttackStream};
use twl_lifetime::{
    build_scheme_spec, run_attack, run_attack_unbatched, Calibration, LifetimeReport, SchemeKind,
    SchemeSpec, SimLimits,
};
use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
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

/// Repeat exercises the long-run fast path, scan and random the
/// run-length-1 degradation, and inconsistent the feedback loop.
const ATTACKS: [AttackKind; 4] = [
    AttackKind::Repeat,
    AttackKind::Scan,
    AttackKind::Random,
    AttackKind::Inconsistent,
];

fn attack_run(
    spec: impl Into<SchemeSpec>,
    attack_kind: AttackKind,
    seed: u64,
    batched: bool,
) -> (LifetimeReport, Vec<u64>) {
    let pcm = PcmConfig::builder()
        .pages(64)
        .mean_endurance(2_000)
        .seed(seed)
        .build()
        .expect("valid config");
    let mut device = PcmDevice::new(&pcm);
    let mut scheme = build_scheme_spec(&spec.into(), &device).expect("scheme builds");
    let mut attack = Attack::new(attack_kind, scheme.page_count(), seed);
    let limits = SimLimits::default();
    let calibration = Calibration::attack_8gbps();
    let report = if batched {
        run_attack(
            scheme.as_mut(),
            &mut device,
            &mut attack,
            &limits,
            &calibration,
        )
    } else {
        run_attack_unbatched(
            scheme.as_mut(),
            &mut device,
            &mut attack,
            &limits,
            &calibration,
        )
    };
    (report, device.wear_counters().to_vec())
}

#[test]
fn batched_attacks_are_bit_identical_to_per_write_runs() {
    for kind in SCHEMES {
        for attack_kind in ATTACKS {
            for seed in [1u64, 2, 3] {
                let (batched, wear_batched) = attack_run(kind, attack_kind, seed, true);
                let (scalar, wear_scalar) = attack_run(kind, attack_kind, seed, false);
                assert_eq!(batched, scalar, "{kind} / {attack_kind} / seed {seed}");
                assert_eq!(
                    wear_batched, wear_scalar,
                    "wear map: {kind} / {attack_kind} / seed {seed}"
                );
            }
        }
    }
}

#[test]
fn batched_attacks_stay_bit_identical_off_the_default_config() {
    // Non-default specs must hold the same equivalence: the fast-path
    // boundaries (toss-up interval, inter-pair interval, swap mode)
    // move with the overrides, and the relabeling wrapper must not
    // perturb them.
    // The SR entries pin its closed-form `write_batch`: odd intervals
    // land refresh events off any power-of-two stride, and a large
    // outer interval exercises long quiet stretches on one level while
    // the other keeps firing.
    const SPECS: [&str; 7] = [
        "TWL_swp[ti=8]",
        "TWL_swp[pair=rnd:11]",
        "TWL_swp[swap=3]",
        "BWL[epoch=600,repair=0]",
        "StartGap[gap=37]",
        "SR[inner=5,outer=9]",
        "SR[inner=3,outer=128]",
    ];
    for label in SPECS {
        let spec: SchemeSpec = label.parse().expect("spec label parses");
        for attack_kind in ATTACKS {
            for seed in [1u64, 2] {
                let (batched, wear_batched) = attack_run(spec, attack_kind, seed, true);
                let (scalar, wear_scalar) = attack_run(spec, attack_kind, seed, false);
                assert_eq!(
                    batched.scheme,
                    spec.label(),
                    "report carries the spec label"
                );
                assert_eq!(batched, scalar, "{label} / {attack_kind} / seed {seed}");
                assert_eq!(
                    wear_batched, wear_scalar,
                    "wear map: {label} / {attack_kind} / seed {seed}"
                );
            }
        }
    }
}

#[test]
fn batched_workload_runs_are_bit_identical_too() {
    // Workloads always declare runs of 1; the batched driver must still
    // reproduce the reference loop exactly through write_batch.
    for kind in [SchemeKind::Nowl, SchemeKind::StartGap, SchemeKind::TwlSwp] {
        let bench = ParsecBenchmark::Canneal;
        let mut runs = Vec::new();
        for batched in [true, false] {
            let pcm = PcmConfig::builder()
                .pages(64)
                .mean_endurance(2_000)
                .seed(5)
                .build()
                .expect("valid config");
            let mut device = PcmDevice::new(&pcm);
            let mut scheme =
                build_scheme_spec(&SchemeSpec::new(kind), &device).expect("scheme builds");
            let mut workload = WorkloadSpec::from(bench)
                .build(scheme.page_count(), 5)
                .expect("workload builds");
            let limits = SimLimits::default();
            let calibration = Calibration::for_bandwidth_mbps(bench.write_bandwidth_mbps());
            let report = if batched {
                run_attack(
                    scheme.as_mut(),
                    &mut device,
                    &mut workload,
                    &limits,
                    &calibration,
                )
            } else {
                run_attack_unbatched(
                    scheme.as_mut(),
                    &mut device,
                    &mut workload,
                    &limits,
                    &calibration,
                )
            };
            runs.push((report, device.wear_counters().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "{kind} / canneal");
    }
}

#[test]
fn batched_trace_replays_are_bit_identical_too() {
    // Captured traces mix long same-page runs (batchable) with
    // single-write runs and reads the replay must skip; the batched
    // driver must reproduce the per-write reference loop exactly
    // through the run-length declarations of `TraceWorkload`.
    let dir = std::env::temp_dir().join(format!("twl-batch-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("capture.trace");
    let mut cmds = Vec::new();
    for i in 0..40u64 {
        cmds.push(MemCmd::write(LogicalPageAddr::new(7)));
        cmds.push(MemCmd::write(LogicalPageAddr::new(7)));
        cmds.push(MemCmd::read(LogicalPageAddr::new(i % 64)));
        cmds.push(MemCmd::write(LogicalPageAddr::new(i * 3)));
    }
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &cmds).expect("encode trace");
    std::fs::write(&path, bytes).expect("write trace");

    let label = format!("TRACE[path={},seed=5]", path.display());
    let workload: WorkloadSpec = label.parse().expect("trace label parses");
    for kind in [SchemeKind::Nowl, SchemeKind::Sr, SchemeKind::TwlSwp] {
        let mut runs = Vec::new();
        for batched in [true, false] {
            let pcm = PcmConfig::builder()
                .pages(64)
                .mean_endurance(2_000)
                .seed(9)
                .build()
                .expect("valid config");
            let mut device = PcmDevice::new(&pcm);
            let mut scheme =
                build_scheme_spec(&SchemeSpec::new(kind), &device).expect("scheme builds");
            let mut stream = workload
                .build(scheme.page_count(), pcm.seed)
                .expect("trace workload builds");
            let limits = SimLimits::default();
            let calibration = Calibration::attack_8gbps();
            let report = if batched {
                run_attack(
                    scheme.as_mut(),
                    &mut device,
                    &mut stream,
                    &limits,
                    &calibration,
                )
            } else {
                run_attack_unbatched(
                    scheme.as_mut(),
                    &mut device,
                    &mut stream,
                    &limits,
                    &calibration,
                )
            };
            runs.push((report, device.wear_counters().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "{kind} / trace replay");
        assert_eq!(runs[0].0.scheme, SchemeSpec::new(kind).label());
    }
    std::fs::remove_dir_all(&dir).ok();
}

mod scalar_only;

#[test]
fn per_write_oracles_only_use_the_scalar_paths() {
    // The oracles share the batched loop; they must still reach the
    // scheme only through `write` and the stream only through
    // `next_write`, or they would stop being independent references.
    for kind in SCHEMES {
        let pcm = PcmConfig::builder()
            .pages(64)
            .mean_endurance(2_000)
            .seed(1)
            .build()
            .expect("valid config");
        let limits = SimLimits::default();
        let calibration = Calibration::attack_8gbps();
        for attack_kind in ATTACKS {
            let mut device = PcmDevice::new(&pcm);
            let scheme = build_scheme_spec(&SchemeSpec::new(kind), &device).expect("scheme builds");
            let attack = Attack::new(attack_kind, scheme.page_count(), 1);
            let report = run_attack_unbatched(
                &mut scalar_only::ScalarOnlyScheme(scheme),
                &mut device,
                &mut scalar_only::ScalarOnlyStream(attack),
                &limits,
                &calibration,
            );
            assert_eq!(
                (report, device.wear_counters().to_vec()),
                attack_run(kind, attack_kind, 1, false),
                "{kind} / {attack_kind}"
            );
        }

        let bench = ParsecBenchmark::Canneal;
        let mut runs = Vec::new();
        for scalar_only in [true, false] {
            let mut device = PcmDevice::new(&pcm);
            let scheme = build_scheme_spec(&SchemeSpec::new(kind), &device).expect("scheme builds");
            let workload = WorkloadSpec::from(bench)
                .build(scheme.page_count(), 1)
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
            let report = run_attack_unbatched(
                scheme.as_mut(),
                &mut device,
                workload.as_mut(),
                &limits,
                &calibration,
            );
            runs.push((report, device.wear_counters().to_vec()));
        }
        assert_eq!(runs[0], runs[1], "{kind} / canneal");
    }
}
