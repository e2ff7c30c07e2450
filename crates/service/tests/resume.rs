//! Kill-and-resume: a daemon that dies mid-job (simulated via the
//! `TWL_SERVICED_EXIT_AFTER_CHECKPOINTS` test hook) must, after a
//! restart over the same checkpoint directory, finish the job with a
//! result bit-identical to an uninterrupted run.

#![forbid(unsafe_code)]

mod common;

use std::time::Duration;

use twl_attacks::AttackKind;
use twl_lifetime::{run_lifetime_cell, SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::JobKind;
use twl_service::{
    decode_result, Checkpoint, Client, JobReports, JobSpec, SubmitOutcome,
    EXIT_AFTER_CHECKPOINTS_ENV,
};
use twl_telemetry::json::Json;

#[test]
fn killed_daemon_resumes_bit_identical() {
    kill_and_resume("1");
}

/// Two workers run the job's cells at once, so checkpoints race; each
/// still holds whole cells, and the resume is still bit-identical.
#[test]
fn killed_daemon_resumes_bit_identical_on_two_workers() {
    kill_and_resume("2");
}

fn kill_and_resume(workers: &str) {
    let dir = common::temp_dir(&format!("resume-{workers}"));
    let dir_str = dir.to_string_lossy().into_owned();
    let spec = JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(128, 2_000, 8),
        limits: SimLimits::default(),
        schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
        benchmarks: vec![],
        fault: None,
    };

    // Interval of one device write => a checkpoint after every cell;
    // the hook kills the process right after the second one.
    let flags = [
        "--workers",
        workers,
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
        // The daemon may die before the submit reply escapes; the
        // first job id is deterministic and the worker's running
        // checkpoint has already persisted the spec.
        Err(_) => 1,
    };
    let status = daemon.wait_exit(Duration::from_secs(120));
    assert_eq!(status.code(), Some(83), "expected the simulated crash exit");
    drop(client);

    // The crash left a partial checkpoint behind: some cells done,
    // not all, and the job is non-terminal.
    let text = std::fs::read_to_string(dir.join(format!("job-{job_id}.json")))
        .expect("checkpoint file after crash");
    let partial = Checkpoint::from_json(&Json::parse(&text).expect("checkpoint JSON"))
        .expect("decode checkpoint");
    assert_eq!(partial.job_id, job_id);
    assert_eq!(partial.spec, spec);
    assert!(
        !partial.completed_cells.is_empty() && partial.completed_cells.len() < spec.cell_count(),
        "expected a partial checkpoint, got {}/{} cells",
        partial.completed_cells.len(),
        spec.cell_count()
    );
    assert!(partial.result.is_none());

    // Restart (no crash hook): the job is restored, the missing cells
    // re-run, and the assembled result is bit-identical to a direct
    // uninterrupted run.
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
    assert_eq!(
        resumed, direct,
        "resumed result differs from the uninterrupted run"
    );

    client2.shutdown().expect("shutdown");
    let status = daemon2.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
    std::fs::remove_dir_all(&dir).ok();
}
