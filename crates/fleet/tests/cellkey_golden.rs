//! Golden-fixture pin of the `twl-cellkey/v1` content address.
//!
//! `tests/fixtures/pr7_cellkeys.json` stores, for one representative
//! cell of each matrix kind, the exact canonical descriptor bytes and
//! the resulting key. These bytes are a compatibility contract: cache
//! entries written by one build must hit under every later build, so
//! any change that moves them MUST bump [`twl_fleet::cellkey::SCHEMA`]
//! (and regenerate this fixture under the new version) rather than
//! silently re-keying — see the schema-evolution rules on the
//! `cellkey` module.

#![forbid(unsafe_code)]

use twl_attacks::AttackKind;
use twl_fleet::{sha256_hex, CellKey};
use twl_lifetime::{SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::JobKind;
use twl_service::JobSpec;
use twl_telemetry::json::Json;
use twl_workloads::{ParsecBenchmark, WorkloadSpec};

const GOLDEN: &str = include_str!("fixtures/pr7_cellkeys.json");

/// PR-10 additions to the same `twl-cellkey/v1` keyspace: cells whose
/// workload carries parameter overrides, and a trace-replay cell (which
/// pins a `workload_hash` over `fixtures/pr10_capture.trace`).
const GOLDEN_PR10: &str = include_str!("fixtures/pr10_cellkeys.json");

/// The committed capture the trace cell replays; its *content* hash is
/// part of the pinned descriptor.
const FIXTURE_TRACE: &str = "tests/fixtures/pr10_capture.trace";

/// The named cells the fixture pins, one per descriptor shape: a plain
/// attack-matrix cell, a lifetime run (which must share the attack
/// keyspace), a workload cell, and a degradation cell (which carries
/// the fault sub-document).
fn fixture_cells() -> Vec<(&'static str, JobSpec, usize)> {
    let base = JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(128, 2_000, 8),
        limits: SimLimits::default(),
        schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
        benchmarks: vec![],
        fault: None,
    };
    let mut lifetime = base.clone();
    lifetime.kind = JobKind::LifetimeRun;
    lifetime.schemes = vec![SchemeKind::TwlSwp.into()];
    lifetime.attacks = vec![AttackKind::Scan.into()];
    let mut workload = base.clone();
    workload.kind = JobKind::WorkloadMatrix;
    workload.attacks = vec![];
    workload.benchmarks = vec![ParsecBenchmark::ALL[0].into()];
    let mut degradation = base.clone();
    degradation.kind = JobKind::DegradationMatrix;
    vec![
        ("attack__twl_swp_x_scan", base, 3),
        ("lifetime_run__twl_swp_x_scan", lifetime, 0),
        ("workload__nowl_x_first_benchmark", workload, 0),
        ("degradation__nowl_x_repeat", degradation, 0),
    ]
}

/// The PR-10 cells: a parameterized attack workload under a
/// parameterized scheme, and a trace replay of the committed capture.
fn fixture_cells_pr10() -> Vec<(&'static str, JobSpec, usize)> {
    let mut param = fixture_cells()[0].1.clone();
    param.schemes = vec!["TWL_swp[ti=64]".parse().expect("scheme label")];
    param.attacks = vec!["inconsistent[group=8,stride=16]"
        .parse::<WorkloadSpec>()
        .expect("workload label")];
    let mut trace = fixture_cells()[0].1.clone();
    trace.schemes = vec![SchemeKind::TwlSwp.into()];
    trace.attacks = vec![format!("TRACE[path={FIXTURE_TRACE},seed=3]")
        .parse::<WorkloadSpec>()
        .expect("trace label")];
    vec![
        ("param__twl_swp_ti64_x_inconsistent_g8_s16", param, 0),
        ("trace__twl_swp_x_pr10_capture", trace, 0),
    ]
}

fn assert_golden(golden_text: &str, cells: Vec<(&'static str, JobSpec, usize)>) {
    let golden = Json::parse(golden_text).expect("fixture parses");
    let entries = match golden.get("entries") {
        Some(Json::Arr(entries)) => entries,
        other => panic!("fixture has no entries array: {other:?}"),
    };
    assert_eq!(entries.len(), cells.len(), "fixture/spec count mismatch");
    for ((name, spec, index), entry) in cells.into_iter().zip(entries) {
        assert_eq!(
            entry.get("name").and_then(Json::as_str),
            Some(name),
            "fixture order drifted"
        );
        let descriptor = CellKey::descriptor(&spec, index)
            .expect("cell is hashable")
            .to_compact();
        assert_eq!(
            entry.get("descriptor").and_then(Json::as_str),
            Some(descriptor.as_str()),
            "{name}: canonical descriptor bytes moved — this re-keys every \
             cache entry; bump the cellkey schema version instead"
        );
        let key = CellKey::of(&spec, index);
        assert_eq!(
            entry.get("key").and_then(Json::as_str),
            Some(key.as_str()),
            "{name}: key drifted from its pinned value"
        );
        // The fixture is self-consistent: the pinned key IS the SHA-256
        // of the pinned descriptor bytes.
        assert_eq!(key.as_str(), sha256_hex(descriptor.as_bytes()), "{name}");
    }
}

#[test]
fn golden_cellkeys_are_byte_identical() {
    assert_golden(GOLDEN, fixture_cells());
}

#[test]
fn golden_pr10_cellkeys_are_byte_identical() {
    assert_golden(GOLDEN_PR10, fixture_cells_pr10());
}

/// The trace descriptor pins the capture's *content*: the
/// `workload_hash` field is the SHA-256 of the file bytes, and changing
/// those bytes re-keys the cell even though the label (and path) is
/// unchanged.
#[test]
fn trace_cellkeys_pin_content_not_path() {
    let (_, spec, index) = fixture_cells_pr10().remove(1);
    let descriptor = CellKey::descriptor(&spec, index).expect("cell is hashable");
    let bytes = std::fs::read(FIXTURE_TRACE).expect("fixture trace");
    assert_eq!(
        descriptor.get("workload_hash").and_then(Json::as_str),
        Some(sha256_hex(&bytes).as_str())
    );

    // Same label, different bytes at the path → different key.
    let dir = std::env::temp_dir().join(format!("twl-cellkey-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("capture.trace");
    let label = |p: &std::path::Path| format!("TRACE[path={},seed=3]", p.display());
    let mut probe = spec.clone();
    std::fs::write(&path, &bytes).expect("copy trace");
    probe.attacks = vec![label(&path).parse().expect("trace label")];
    let original = CellKey::of(&probe, 0);
    let mut grown = bytes;
    grown.extend_from_slice(&[1, 7, 0, 0, 0, 0, 0, 0, 0]);
    std::fs::write(&path, &grown).expect("recapture");
    assert_ne!(
        CellKey::of(&probe, 0),
        original,
        "re-capture did not re-key"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The lifetime-run entry pins keyspace sharing: its descriptor must be
/// byte-identical to the same (scheme, attack) cell of an attack
/// matrix.
#[test]
fn golden_fixture_pins_attack_lifetime_sharing() {
    let cells = fixture_cells();
    let (_, attack_spec, attack_index) = &cells[0];
    let (_, lifetime_spec, lifetime_index) = &cells[1];
    assert_eq!(
        CellKey::descriptor(attack_spec, *attack_index)
            .expect("cell is hashable")
            .to_compact(),
        CellKey::descriptor(lifetime_spec, *lifetime_index)
            .expect("cell is hashable")
            .to_compact(),
    );
}
