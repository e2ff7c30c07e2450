//! Loopback integration: a real `twl-serviced` process on an
//! OS-assigned port, driven through the [`twl_service::Client`] library
//! and the `twl-ctl` binary, must return results bit-identical to
//! calling the simulation cells directly in-process.

#![forbid(unsafe_code)]

mod common;

use std::time::Duration;

use twl_attacks::AttackKind;
use twl_faults::FaultConfig;
use twl_lifetime::{run_lifetime_cell, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::JobKind;
use twl_service::{
    decode_result, Client, ClientError, JobReports, JobSpec, SubmitOutcome, MAX_FRAME_BYTES,
};
use twl_telemetry::json::Json;

fn small_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(64, 500, 3),
        limits: SimLimits::default(),
        schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
        benchmarks: vec![],
        fault: None,
    }
}

fn direct_reports(spec: &JobSpec) -> Vec<twl_lifetime::LifetimeReport> {
    let mut reports = Vec::new();
    for scheme in &spec.schemes {
        for attack in &spec.attacks {
            reports.push(run_lifetime_cell(&spec.pcm, *scheme, attack, &spec.limits));
        }
    }
    reports
}

#[test]
fn attack_matrix_over_loopback_matches_direct_run() {
    let mut daemon = common::Daemon::spawn(&["--workers", "1"], &[]);
    let spec = small_spec();

    let mut client = Client::connect(&daemon.addr).expect("connect");
    let job_id = match client.submit(&spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };

    let mut events = Vec::new();
    let result = client
        .wait(job_id, |e| events.push(format!("{e:?}")))
        .expect("job result");
    let JobReports::Lifetime(remote) = decode_result(&result).expect("decode result") else {
        panic!("attack matrix returned non-lifetime reports");
    };

    assert_eq!(
        remote,
        direct_reports(&spec),
        "loopback result differs from the direct in-process run"
    );
    assert!(
        events.iter().any(|e| e.contains("CellDone")),
        "expected progress events, got {events:?}"
    );

    // A clean shutdown drains and exits zero.
    let mut closer = Client::connect(&daemon.addr).expect("second connection");
    closer.shutdown().expect("shutdown");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
}

#[test]
fn twl_ctl_submit_wait_emits_bit_identical_json() {
    let daemon = common::Daemon::spawn(&["--workers", "1"], &[]);

    let output = std::process::Command::new(env!("CARGO_BIN_EXE_twl-ctl"))
        .args([
            "--addr",
            &daemon.addr,
            "submit",
            "--kind",
            "attack_matrix",
            "--pages",
            "64",
            "--endurance",
            "500",
            "--seed",
            "3",
            "--schemes",
            "NOWL,TWL_swp",
            "--attacks",
            "repeat,scan",
            "--wait",
            "--format",
            "json",
        ])
        .output()
        .expect("run twl-ctl");
    assert!(
        output.status.success(),
        "twl-ctl failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );

    let stdout = String::from_utf8(output.stdout).expect("utf8 stdout");
    let doc = Json::parse(stdout.trim()).expect("twl-ctl emitted invalid JSON");
    let JobReports::Lifetime(remote) = decode_result(&doc).expect("decode result") else {
        panic!("attack matrix returned non-lifetime reports");
    };

    // The CLI flag path builds the same config as PcmConfig::scaled.
    let spec = small_spec();
    assert_eq!(
        remote,
        direct_reports(&spec),
        "twl-ctl JSON output differs from the direct in-process run"
    );
}

#[test]
fn status_and_cancel_round_trip() {
    let daemon = common::Daemon::spawn(&["--workers", "1"], &[]);
    let mut client = Client::connect(&daemon.addr).expect("connect");

    let job_id = match client.submit(&small_spec()).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    let result = client.wait(job_id, |_| {}).expect("job result");
    assert!(result.get("reports").is_some());

    let jobs = client.status(None).expect("status");
    assert_eq!(jobs.len(), 1);
    assert_eq!(jobs[0].job_id, job_id);
    assert_eq!(jobs[0].status, "completed");
    assert_eq!(jobs[0].cells_done, jobs[0].cells_total);

    // Cancelling a finished job reports `false` rather than erroring.
    assert!(!client.cancel(job_id).expect("cancel reply"));
}

/// Small request/response frames must not wait out Nagle's algorithm
/// against the peer's delayed ACK (~40 ms per round trip): 50
/// sequential round trips on one connection fit in well under a
/// second, where the Nagle floor alone would take two.
#[test]
fn sequential_round_trips_do_not_stall_on_nagle() {
    let daemon = common::Daemon::spawn(&["--workers", "1"], &[]);
    let mut client = Client::connect(&daemon.addr).expect("connect");
    client.status(None).expect("warm-up status");
    let start = std::time::Instant::now();
    for _ in 0..50 {
        client.status(None).expect("status");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < Duration::from_secs(1),
        "50 status round trips took {elapsed:?}"
    );
}

/// A job whose result document outgrows the 4 MiB frame limit gets an
/// `error` reply naming the size, and the daemon keeps serving.
#[test]
fn oversized_result_is_an_error_reply_and_the_daemon_keeps_serving() {
    let daemon = common::Daemon::spawn(&["--workers", "2"], &[]);
    // Each retirement adds a point to a degradation curve: 160 spares
    // per data page make every report about 1.2 MB.
    let spec = JobSpec {
        kind: JobKind::DegradationMatrix,
        pcm: PcmConfig::scaled(64, 50, 3),
        schemes: vec![SchemeKind::Nowl.into()],
        attacks: AttackKind::ALL.iter().map(|&a| a.into()).collect(),
        fault: Some(FaultConfig {
            spare_fraction: 160.0,
            ..FaultConfig::default()
        }),
        ..small_spec()
    };
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let job_id = match client.submit(&spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    match client.wait(job_id, |_| {}) {
        Err(ClientError::Remote(message)) => assert!(
            message.starts_with("result not sent: frame of ")
                && message.ends_with(&format!("exceeds the {MAX_FRAME_BYTES}-byte limit")),
            "unexpected error: {message}"
        ),
        other => panic!("expected an error reply, got {other:?}"),
    }
    // The same connection still answers, and so does a fresh one.
    let jobs = client.status(Some(job_id)).expect("status");
    assert_eq!(jobs[0].status, "completed");
    Client::connect(&daemon.addr).expect("ping after the oversized result");
}
