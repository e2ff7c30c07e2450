//! The banked runners' determinism contract: splitting one run into
//! bank domains and fanning it out on N workers is bit-identical to
//! running the same banks serially — the partition and the merge depend
//! on the config, never on scheduling.

#![forbid(unsafe_code)]

use twl_attacks::AttackKind;
use twl_lifetime::{run_lifetime_banked_on, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_workloads::ParsecBenchmark;

fn config(pages: u64, banks: u32) -> PcmConfig {
    let mut pcm = PcmConfig::builder()
        .pages(pages)
        .mean_endurance(2_000)
        .seed(9)
        .build()
        .expect("valid config");
    pcm.banks = banks;
    pcm
}

/// The acceptance gate for intra-cell parallelism: the parallel path is
/// bit-identical to the single-thread run for the same seed, for every
/// scheme the factory can build.
#[test]
fn parallel_attack_runs_match_serial_bit_for_bit() {
    let pcm = config(256, 4);
    let limits = SimLimits::default();
    for kind in [
        SchemeKind::Nowl,
        SchemeKind::Sr,
        SchemeKind::Bwl,
        SchemeKind::Wrl,
        SchemeKind::StartGap,
        SchemeKind::TwlSwp,
        SchemeKind::TwlAp,
    ] {
        let serial = run_lifetime_banked_on(1, &pcm, kind, AttackKind::Repeat, &limits);
        for workers in [2, 4, 8] {
            let parallel = run_lifetime_banked_on(workers, &pcm, kind, AttackKind::Repeat, &limits);
            assert_eq!(serial, parallel, "{kind:?} diverged at {workers} workers");
        }
    }
}

/// Feedback attacks (address choice depends on observed latency) stay
/// deterministic too: feedback never crosses bank boundaries.
#[test]
fn parallel_feedback_attack_matches_serial() {
    let pcm = config(128, 2);
    let limits = SimLimits::default();
    let serial = run_lifetime_banked_on(1, &pcm, SchemeKind::TwlSwp, AttackKind::Random, &limits);
    let parallel = run_lifetime_banked_on(4, &pcm, SchemeKind::TwlSwp, AttackKind::Random, &limits);
    assert_eq!(serial, parallel);
}

#[test]
fn parallel_workload_runs_match_serial_bit_for_bit() {
    // Synthetic workloads need ≳1024 pages to fit the paper's locality
    // ratios, and the constraint applies per bank.
    let pcm = config(2048, 2);
    let limits = SimLimits::default();
    for bench in [ParsecBenchmark::Canneal, ParsecBenchmark::Vips] {
        let serial = run_lifetime_banked_on(1, &pcm, SchemeKind::TwlSwp, bench, &limits);
        let parallel = run_lifetime_banked_on(4, &pcm, SchemeKind::TwlSwp, bench, &limits);
        assert_eq!(serial, parallel, "{bench:?} diverged");
    }
}

/// Changing the bank count changes the partition (and so the numbers),
/// but each partition is itself deterministic — the bank count is part
/// of the experiment, never an execution detail.
#[test]
fn bank_count_is_part_of_the_experiment() {
    let limits = SimLimits::default();
    let two = run_lifetime_banked_on(
        1,
        &config(128, 2),
        SchemeKind::Bwl,
        AttackKind::Repeat,
        &limits,
    );
    let four = run_lifetime_banked_on(
        1,
        &config(128, 4),
        SchemeKind::Bwl,
        AttackKind::Repeat,
        &limits,
    );
    assert_eq!(two.banks.len(), 2);
    assert_eq!(four.banks.len(), 4);
    let again = run_lifetime_banked_on(
        3,
        &config(128, 4),
        SchemeKind::Bwl,
        AttackKind::Repeat,
        &limits,
    );
    assert_eq!(four, again);
}

/// Trace replays hold the same contract: each bank replays the whole
/// capture against its own domain, and the fan-out is bit-identical
/// for any worker count.
#[test]
fn parallel_trace_replays_match_serial_bit_for_bit() {
    use twl_pcm::LogicalPageAddr;
    use twl_workloads::{write_trace, MemCmd, WorkloadSpec};

    let dir = std::env::temp_dir().join(format!("twl-banked-id-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("capture.trace");
    let mut cmds = Vec::new();
    for i in 0..50u64 {
        cmds.push(MemCmd::write(LogicalPageAddr::new(3)));
        cmds.push(MemCmd::write(LogicalPageAddr::new(i * 7)));
        cmds.push(MemCmd::read(LogicalPageAddr::new(i)));
    }
    let mut bytes = Vec::new();
    write_trace(&mut bytes, &cmds).expect("encode trace");
    std::fs::write(&path, bytes).expect("write trace");

    let workload: WorkloadSpec = format!("TRACE[path={},seed=11]", path.display())
        .parse()
        .expect("trace label parses");
    let pcm = config(256, 4);
    let limits = SimLimits::default();
    let serial = run_lifetime_banked_on(1, &pcm, SchemeKind::TwlSwp, &workload, &limits);
    for workers in [2, 4, 8] {
        let parallel =
            run_lifetime_banked_on(workers, &pcm, SchemeKind::TwlSwp, &workload, &limits);
        assert_eq!(
            serial, parallel,
            "trace replay diverged at {workers} workers"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
