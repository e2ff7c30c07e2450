//! Cell-level work across the `twl-serviced` pool: one job's cells run
//! on every worker, yet the result document is byte-identical for every
//! worker count and to the in-process matrix; a cancel stops the job's
//! claims, and a panicking cell fails only its own job.

#![forbid(unsafe_code)]

mod common;

use std::time::Duration;

use twl_attacks::AttackKind;
use twl_lifetime::{degradation_matrix, run_lifetime_cell, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::{degradation_report_to_json, lifetime_report_to_json, JobKind};
use twl_service::{encode_result, Client, ClientError, JobSpec, SubmitOutcome};
use twl_telemetry::json::Json;
use twl_workloads::WorkloadSpec;

fn spec(kind: JobKind, schemes: &[SchemeKind], attacks: &[AttackKind]) -> JobSpec {
    JobSpec {
        kind,
        pcm: PcmConfig::scaled(64, 500, 3),
        limits: SimLimits::default(),
        schemes: schemes.iter().map(|&s| s.into()).collect(),
        attacks: attacks.iter().map(|&a| a.into()).collect(),
        benchmarks: vec![],
        fault: None,
    }
}

/// The result document the in-process matrix helpers give for `spec`.
fn in_process(spec: &JobSpec) -> Json {
    let reports = if spec.kind == JobKind::DegradationMatrix {
        degradation_matrix(
            &spec.pcm,
            &spec.fault_config(),
            &spec.schemes,
            &spec.attacks,
            &spec.limits,
        )
        .iter()
        .map(degradation_report_to_json)
        .collect()
    } else {
        let mut reports = Vec::new();
        for scheme in &spec.schemes {
            for attack in &spec.attacks {
                let report = run_lifetime_cell(&spec.pcm, *scheme, attack, &spec.limits);
                reports.push(lifetime_report_to_json(&report));
            }
        }
        reports
    };
    encode_result(spec.kind, reports)
}

fn submit(client: &mut Client, spec: &JobSpec) -> u64 {
    match client.submit(spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    }
}

fn shut_down(mut daemon: common::Daemon) {
    Client::connect(&daemon.addr)
        .and_then(|mut c| c.shutdown())
        .expect("shutdown");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
}

#[test]
fn results_are_byte_identical_for_every_worker_count() {
    let jobs = [
        spec(
            JobKind::DegradationMatrix,
            &[SchemeKind::Nowl, SchemeKind::TwlSwp, SchemeKind::Sr],
            &[AttackKind::Repeat, AttackKind::Scan],
        ),
        spec(
            JobKind::AttackMatrix,
            &[SchemeKind::Nowl, SchemeKind::TwlSwp, SchemeKind::Bwl],
            &[AttackKind::Repeat, AttackKind::Scan, AttackKind::Random],
        ),
    ];
    let want: Vec<String> = jobs.iter().map(|j| in_process(j).to_compact()).collect();
    for workers in ["1", "2", "4"] {
        let daemon = common::Daemon::spawn(&["--workers", workers], &[]);
        let mut client = Client::connect(&daemon.addr).expect("connect");
        // Both jobs queued at once, so with several workers the second
        // starts while the first's cells still run.
        let ids: Vec<u64> = jobs.iter().map(|j| submit(&mut client, j)).collect();
        for ((id, job), want) in ids.into_iter().zip(&jobs).zip(&want) {
            let got = client.wait(id, |_| {}).expect("job result").to_compact();
            assert_eq!(
                &got,
                want,
                "{} job on {workers} workers differs from the in-process matrix",
                job.kind.label()
            );
        }
        shut_down(daemon);
    }
}

#[test]
fn cancel_mid_job_with_two_workers_stops_its_cells() {
    let daemon = common::Daemon::spawn(&["--workers", "2"], &[]);
    let mut job = spec(
        JobKind::AttackMatrix,
        &[
            SchemeKind::TwlSwp,
            SchemeKind::Sr,
            SchemeKind::Bwl,
            SchemeKind::Wrl,
        ],
        &[AttackKind::Random, AttackKind::Scan],
    );
    // Cells of tens of milliseconds, so the cancel lands mid-job.
    job.pcm = PcmConfig::scaled(256, 20_000, 3);
    let total = job.cell_count() as u64;
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let id = submit(&mut client, &job);
    let mut watcher = Client::connect(&daemon.addr).expect("second connection");
    let done_before = loop {
        let snap = watcher.status(Some(id)).expect("status").remove(0);
        if snap.cells_done > 0 {
            break snap.cells_done;
        }
        std::thread::sleep(Duration::from_millis(2));
    };
    assert!(watcher.cancel(id).expect("cancel reply"), "job was running");
    match client.wait(id, |_| {}) {
        Err(ClientError::Remote(message)) => assert!(message.contains("cancelled"), "{message}"),
        other => panic!("expected a cancelled job, got {other:?}"),
    }
    let end = watcher.status(Some(id)).expect("status").remove(0);
    assert_eq!(end.status, "cancelled");
    // Only cells already running (two workers) or claimed in the
    // moment between the status read and the cancel may finish.
    assert!(
        end.cells_done <= done_before + 4 && end.cells_done < total,
        "{} of {total} cells done after a cancel at {done_before}",
        end.cells_done
    );
    shut_down(daemon);
}

#[test]
fn a_panicking_cell_fails_its_job_and_the_next_job_completes() {
    let daemon = common::Daemon::spawn(&["--workers", "2"], &[]);
    let mut broken = spec(
        JobKind::AttackMatrix,
        &[SchemeKind::Nowl, SchemeKind::TwlSwp],
        &[AttackKind::Repeat, AttackKind::Scan],
    );
    // A trace that does not exist passes validation but panics when the
    // cell builds its workload.
    broken.attacks.insert(
        1,
        "TRACE[path=/nonexistent/missing.trace,seed=1]"
            .parse::<WorkloadSpec>()
            .expect("spec"),
    );
    let good = spec(
        JobKind::AttackMatrix,
        &[SchemeKind::Nowl, SchemeKind::TwlSwp],
        &[AttackKind::Repeat, AttackKind::Scan],
    );
    let mut client = Client::connect(&daemon.addr).expect("connect");
    let broken_id = submit(&mut client, &broken);
    let good_id = submit(&mut client, &good);
    match client.wait(broken_id, |_| {}) {
        Err(ClientError::Remote(message)) => {
            assert!(message.contains("cannot open trace"), "{message}");
        }
        other => panic!("expected a failed job, got {other:?}"),
    }
    let snap = client.status(Some(broken_id)).expect("status").remove(0);
    assert_eq!(snap.status, "failed");
    let result = client
        .wait(good_id, |_| {})
        .expect("the next job completes");
    assert_eq!(result.to_compact(), in_process(&good).to_compact());
    shut_down(daemon);
}
