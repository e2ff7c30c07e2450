//! Wire back-compat: job specs and checkpoints written by the PR-4-era
//! daemon (bare scheme-kind labels, no params) must keep working after
//! the [`SchemeSpec`] refactor — they parse as default-params specs,
//! re-encode byte-identically, and their stored cell reports match what
//! the refactored engine computes today. Parameterized specs must make
//! the same trip (submit → checkpoint → kill → resume) losslessly.

mod common;

use std::time::Duration;

use twl_attacks::AttackKind;
use twl_lifetime::{run_lifetime_cell, SchemeKind, SchemeSpec, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::{encode_result, JobKind};
use twl_service::{
    decode_result, Checkpoint, Client, JobReports, JobSpec, SubmitOutcome,
    EXIT_AFTER_CHECKPOINTS_ENV,
};
use twl_telemetry::json::Json;

/// A job-spec document exactly as the PR-4 daemon wrote it: schemes are
/// bare label strings.
const PR4_SPEC: &str = include_str!("fixtures/pr4_job_spec.json");

/// A partial checkpoint (3 of 4 cells done, status `running`) written
/// by the PR-4 daemon, with the cell reports it actually computed.
const PR4_CHECKPOINT: &str = include_str!("fixtures/pr4_checkpoint.json");

/// A job-spec document as the PR-9 daemon wrote it, straddling the
/// refactor boundary: schemes are already SchemeSpec-encoded (one
/// parameterized object, one bare label) while the workload axes are
/// still bare strings.
const PR9_SPEC: &str = include_str!("fixtures/pr9_job_spec.json");

/// A completed checkpoint written by the PR-9 daemon for a 2×2
/// `TWL_swp[ti=8]`/`NOWL` × repeat/scan matrix, with the reports it
/// actually computed.
const PR9_CHECKPOINT: &str = include_str!("fixtures/pr9_checkpoint.json");

/// Progress-carrying frames as the PR-6 daemon writes them: a
/// `status_ok` snapshot and a `cell_done` event, both with the optional
/// `writes_done` / `rate_wps` / `eta_ms` fields present.
const PR6_PROGRESS: &str = include_str!("fixtures/pr6_progress_frames.jsonl");

/// Fleet-protocol frames as the PR-7 coordinator and workers exchange
/// them: `run_cell` / `register_worker` requests and the `hello_ok`
/// (with `slots`), `cell_ok`, and `worker_ok` responses.
const PR7_FLEET: &str = include_str!("fixtures/pr7_fleet_frames.jsonl");

#[test]
fn pr4_job_specs_still_parse_and_reencode_byte_identically() {
    let spec = JobSpec::from_json(&Json::parse(PR4_SPEC.trim()).expect("fixture JSON"))
        .expect("PR-4 spec decodes");
    spec.validate().expect("PR-4 spec is still valid");

    // Bare kind labels become default-params specs.
    let expect: Vec<SchemeSpec> = vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()];
    assert_eq!(spec.schemes, expect);
    assert!(spec.schemes.iter().all(SchemeSpec::is_default));

    // Default specs re-encode as the same bare strings, so the whole
    // document round-trips byte-for-byte: a PR-4 client reading a new
    // daemon's output sees exactly the schema it was built against.
    assert_eq!(spec.to_json().to_compact(), PR4_SPEC.trim());
}

#[test]
fn pr9_job_specs_still_parse_and_reencode_byte_identically() {
    use twl_workloads::WorkloadSpec;

    let spec = JobSpec::from_json(&Json::parse(PR9_SPEC.trim()).expect("fixture JSON"))
        .expect("PR-9 spec decodes");
    spec.validate().expect("PR-9 spec is still valid");

    // Bare workload strings become default-params specs; the scheme
    // axis keeps its parameterized entry.
    assert!(spec.attacks.iter().all(WorkloadSpec::is_default));
    assert!(spec.benchmarks.iter().all(WorkloadSpec::is_default));
    assert_eq!(spec.schemes[0].to_string(), "TWL_swp[ti=8]");
    assert!(!spec.schemes[0].is_default());

    // Default workload specs re-encode as the same bare strings, so
    // the whole document round-trips byte-for-byte: a PR-9 client
    // reading a new daemon's output sees exactly the schema it was
    // built against.
    assert_eq!(spec.to_json().to_compact(), PR9_SPEC.trim());
}

#[test]
fn pr9_checkpoints_reencode_byte_identically_and_match_the_engine() {
    let cp = Checkpoint::from_json(&Json::parse(PR9_CHECKPOINT.trim()).expect("fixture JSON"))
        .expect("PR-9 checkpoint decodes");
    assert_eq!(cp.status, "completed");
    assert_eq!(
        cp.completed_cells.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 2, 3]
    );

    // The checkpoint document survives the WorkloadSpec re-typing of
    // its spec byte-for-byte.
    assert_eq!(cp.to_json().to_compact(), PR9_CHECKPOINT.trim());

    // Every stored cell is byte-identical to what the refactored
    // engine computes for the same spec and index today, and carries
    // the canonical workload label.
    for (&index, stored) in &cp.completed_cells {
        let (fresh, _writes) = cp.spec.run_cell(usize::try_from(index).unwrap());
        assert_eq!(
            fresh.to_compact(),
            stored.to_compact(),
            "cell {index} drifted from the PR-9 run"
        );
    }
    let labels: Vec<_> = (0..cp.spec.cell_count())
        .map(|i| cp.spec.describe_cell(i).1)
        .collect();
    assert_eq!(labels, ["repeat", "scan", "repeat", "scan"]);
}

#[test]
fn pr9_checkpoint_resumes_through_the_daemon() {
    let dir = common::temp_dir("compat-pr9");
    std::fs::write(dir.join("job-1.json"), PR9_CHECKPOINT.trim()).expect("seed checkpoint");
    let dir_str = dir.to_string_lossy().into_owned();

    let mut daemon = common::Daemon::spawn(
        &["--workers", "1", "--checkpoint-dir", dir_str.as_str()],
        &[],
    );
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let result = client.wait(1, |_| {}).expect("resumed PR-9 job result");
    let JobReports::Lifetime(resumed) = decode_result(&result).expect("decode result") else {
        panic!("attack matrix returned non-lifetime reports");
    };

    // The stored result is served as-is — and it equals a fresh run of
    // the same matrix under the refactored engine.
    let cp = Checkpoint::from_json(&Json::parse(PR9_CHECKPOINT.trim()).unwrap()).unwrap();
    let mut direct = Vec::new();
    for scheme in &cp.spec.schemes {
        for attack in &cp.spec.attacks {
            direct.push(run_lifetime_cell(
                &cp.spec.pcm,
                *scheme,
                attack,
                &cp.spec.limits,
            ));
        }
    }
    assert_eq!(resumed, direct, "PR-9 result differs from a fresh run");

    client.shutdown().expect("shutdown");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pr6_progress_frames_roundtrip_byte_identically() {
    use twl_service::wire::{JobEvent, Response};

    for line in PR6_PROGRESS.lines().filter(|l| !l.trim().is_empty()) {
        let frame =
            Response::from_json(&Json::parse(line).expect("fixture JSON")).expect("frame decodes");
        assert_eq!(frame.to_json().to_compact(), line);
    }

    // The extended fields really decoded (not silently dropped).
    let first = PR6_PROGRESS.lines().next().expect("snapshot line");
    let Response::StatusOk { jobs } = Response::from_json(&Json::parse(first).unwrap()).unwrap()
    else {
        panic!("first fixture line is not status_ok");
    };
    assert_eq!(jobs[0].writes_done, Some(150_000_000));
    assert_eq!(jobs[0].rate_wps, Some(1_234_567.5));
    assert_eq!(jobs[0].eta_ms, Some(45_210));

    let second = PR6_PROGRESS.lines().nth(1).expect("event line");
    let Response::Event { event, .. } = Response::from_json(&Json::parse(second).unwrap()).unwrap()
    else {
        panic!("second fixture line is not an event");
    };
    let JobEvent::CellDone {
        writes_done,
        rate_wps,
        eta_ms,
        ..
    } = event
    else {
        panic!("event is not cell_done");
    };
    assert_eq!(writes_done, Some(150_000_000));
    assert_eq!(rate_wps, Some(1_234_567.5));
    assert_eq!(eta_ms, Some(45_210));
}

#[test]
fn pr7_fleet_frames_roundtrip_byte_identically() {
    use twl_service::wire::{Request, Response};

    for line in PR7_FLEET.lines().filter(|l| !l.trim().is_empty()) {
        let v = Json::parse(line).expect("fixture JSON");
        // Frames are a mix of requests and responses; every line must
        // decode as exactly one of them and re-encode byte-for-byte.
        let text = match Request::from_json(&v) {
            Ok(req) => req.to_json().to_compact(),
            Err(_) => Response::from_json(&v)
                .expect("frame decodes as request or response")
                .to_json()
                .to_compact(),
        };
        assert_eq!(text, line);
    }

    // The load-bearing fields really decoded (not silently dropped).
    let mut lines = PR7_FLEET.lines();
    let Request::RunCell { spec, cell } =
        Request::from_json(&Json::parse(lines.next().unwrap()).unwrap()).unwrap()
    else {
        panic!("first fixture line is not run_cell");
    };
    assert_eq!(cell, 0);
    assert_eq!(spec.schemes[0].to_string(), "TWL_swp[ti=8]");

    let hello = Response::from_json(&Json::parse(lines.nth(1).unwrap()).unwrap()).unwrap();
    assert_eq!(
        hello,
        Response::HelloOk {
            proto: "twl-wire/v1".to_owned(),
            slots: Some(8),
        }
    );

    let Response::CellOk {
        cell,
        report,
        device_writes,
    } = Response::from_json(&Json::parse(lines.next().unwrap()).unwrap()).unwrap()
    else {
        panic!("fourth fixture line is not cell_ok");
    };
    assert_eq!((cell, device_writes), (0, 123_456_789));
    // The f64 payload survives the trip bit-exactly — the property the
    // cache's bit-identical-replay guarantee rests on.
    assert_eq!(
        report.get("lifetime_years").and_then(Json::as_f64),
        Some(4.256_789_012_345_678)
    );
}

#[test]
fn pr4_checkpoint_cells_match_the_refactored_engine() {
    let cp = Checkpoint::from_json(&Json::parse(PR4_CHECKPOINT.trim()).expect("fixture JSON"))
        .expect("PR-4 checkpoint decodes");
    assert_eq!(cp.job_id, 1);
    assert_eq!(cp.status, "running");
    assert_eq!(
        cp.completed_cells.keys().copied().collect::<Vec<_>>(),
        vec![0, 1, 2],
        "fixture is a partial checkpoint"
    );
    assert!(cp.result.is_none());

    // Every stored cell must be byte-identical to what the refactored
    // engine computes for the same spec and index today.
    for (&index, stored) in &cp.completed_cells {
        let (fresh, _writes) = cp.spec.run_cell(usize::try_from(index).unwrap());
        assert_eq!(
            fresh.to_compact(),
            stored.to_compact(),
            "cell {index} drifted from the PR-4 run"
        );
    }

    // Completing the missing cell assembles a result identical to an
    // uninterrupted run of the whole matrix.
    let mut cells: Vec<Json> = cp.completed_cells.values().cloned().collect();
    cells.push(cp.spec.run_cell(3).0);
    let JobReports::Lifetime(resumed) =
        decode_result(&encode_result(cp.spec.kind, cells)).expect("decode assembled result")
    else {
        panic!("attack matrix returned non-lifetime reports");
    };
    let mut direct = Vec::new();
    for scheme in &cp.spec.schemes {
        for attack in &cp.spec.attacks {
            direct.push(run_lifetime_cell(
                &cp.spec.pcm,
                *scheme,
                attack,
                &cp.spec.limits,
            ));
        }
    }
    assert_eq!(resumed, direct);
}

#[test]
fn pr4_checkpoint_resumes_through_the_daemon() {
    let dir = common::temp_dir("compat");
    std::fs::write(dir.join("job-1.json"), PR4_CHECKPOINT.trim()).expect("seed checkpoint");
    let dir_str = dir.to_string_lossy().into_owned();

    let mut daemon = common::Daemon::spawn(
        &["--workers", "1", "--checkpoint-dir", dir_str.as_str()],
        &[],
    );
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let result = client.wait(1, |_| {}).expect("resumed PR-4 job result");
    let JobReports::Lifetime(resumed) = decode_result(&result).expect("decode result") else {
        panic!("attack matrix returned non-lifetime reports");
    };

    let cp = Checkpoint::from_json(&Json::parse(PR4_CHECKPOINT.trim()).unwrap()).unwrap();
    let mut direct = Vec::new();
    for scheme in &cp.spec.schemes {
        for attack in &cp.spec.attacks {
            direct.push(run_lifetime_cell(
                &cp.spec.pcm,
                *scheme,
                attack,
                &cp.spec.limits,
            ));
        }
    }
    assert_eq!(resumed, direct, "resumed PR-4 job differs from a fresh run");

    client.shutdown().expect("shutdown");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parameterized_spec_survives_kill_and_resume_bit_identically() {
    let dir = common::temp_dir("compat-param");
    let dir_str = dir.to_string_lossy().into_owned();
    let schemes: Vec<SchemeSpec> = ["TWL_swp[ti=8]", "TWL_swp[ti=64]"]
        .iter()
        .map(|l| l.parse().expect("parameterized label"))
        .collect();
    let spec = JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(128, 2_000, 8),
        limits: SimLimits::default(),
        schemes: schemes.clone(),
        attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
        benchmarks: vec![],
        fault: None,
    };

    let flags = [
        "--workers",
        "1",
        "--checkpoint-dir",
        dir_str.as_str(),
        "--checkpoint-interval-writes",
        "1",
    ];
    let mut daemon = common::Daemon::spawn(&flags, &[(EXIT_AFTER_CHECKPOINTS_ENV, "2".to_owned())]);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let job_id = match client.submit(&spec) {
        Ok(SubmitOutcome::Accepted(id)) => id,
        Ok(SubmitOutcome::Rejected { reason, .. }) => panic!("submit rejected: {reason}"),
        Err(_) => 1,
    };
    let status = daemon.wait_exit(Duration::from_secs(120));
    assert_eq!(status.code(), Some(83), "expected the simulated crash exit");
    drop(client);

    // The partial checkpoint on disk carries the parameterized specs
    // losslessly: overrides survive the spec → JSON → spec round trip.
    let text = std::fs::read_to_string(dir.join(format!("job-{job_id}.json")))
        .expect("checkpoint file after crash");
    let partial = Checkpoint::from_json(&Json::parse(&text).expect("checkpoint JSON"))
        .expect("decode checkpoint");
    assert_eq!(partial.spec, spec);
    assert_eq!(partial.spec.schemes, schemes);
    assert!(partial.spec.schemes.iter().all(|s| !s.is_default()));

    // Resume: the result is bit-identical to a direct run, and every
    // report is stamped with the full parameterized label.
    let mut daemon2 = common::Daemon::spawn(&flags, &[]);
    let mut client2 = Client::connect(&daemon2.addr).expect("reconnect");
    let result = client2.wait(job_id, |_| {}).expect("resumed job result");
    let JobReports::Lifetime(resumed) = decode_result(&result).expect("decode result") else {
        panic!("attack matrix returned non-lifetime reports");
    };

    let mut direct = Vec::new();
    for scheme in &spec.schemes {
        for attack in &spec.attacks {
            direct.push(run_lifetime_cell(&spec.pcm, *scheme, attack, &spec.limits));
        }
    }
    assert_eq!(resumed, direct);
    let labels: Vec<&str> = resumed.iter().map(|r| r.scheme.as_str()).collect();
    assert_eq!(
        labels,
        vec![
            "TWL_swp[ti=8]",
            "TWL_swp[ti=8]",
            "TWL_swp[ti=64]",
            "TWL_swp[ti=64]"
        ]
    );

    client2.shutdown().expect("shutdown");
    let status = daemon2.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}
