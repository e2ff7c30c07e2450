//! Metrics exposition over the wire: a live daemon's `metrics` scrape
//! must lint clean as Prometheus text format v0.0.4, carry the global
//! registry (counters, worker gauges, job histograms), and expose
//! per-job progress gauges once a job has run — and the consumer
//! binaries (`twl-top --once`, `twl-ctl metrics --lint`) must accept
//! the same page end-to-end.

#![forbid(unsafe_code)]

mod common;

use std::time::Duration;

use twl_attacks::AttackKind;
use twl_lifetime::{SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::job::JobKind;
use twl_service::{Client, JobSpec, SubmitOutcome};
use twl_telemetry::prom::{parse_exposition, scalar_samples};

fn small_spec() -> JobSpec {
    JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(64, 500, 3),
        limits: SimLimits::default(),
        schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into()],
        benchmarks: vec![],
        fault: None,
    }
}

#[test]
fn metrics_scrape_lints_and_carries_job_progress() {
    let mut daemon = common::Daemon::spawn(&["--workers", "1"], &[]);
    let mut client = Client::connect(&daemon.addr).expect("connect");

    // An idle daemon already serves a lintable page with worker gauges.
    let idle = client.metrics().expect("idle scrape");
    let idle_flat = scalar_samples(&parse_exposition(&idle).expect("idle page lints"));
    assert_eq!(idle_flat["twl_service_workers_total"], 1.0);

    let job_id = match client.submit(&small_spec()).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    client.wait(job_id, |_| {}).expect("job result");

    // The worker records its wall-time histogram before publishing the
    // result, so the first scrape should already carry it; the loop is
    // only defense against scheduler stalls.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let text = loop {
        let text = client.metrics().expect("scrape after job");
        if text.contains("twl_service_job_wall_ms_count") || std::time::Instant::now() > deadline {
            break text;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let samples = parse_exposition(&text).expect("page lints clean");
    let flat = scalar_samples(&samples);
    assert!(flat["twl_service_jobs_completed"] >= 1.0);
    assert!(
        flat.contains_key("twl_service_job_wall_ms_count"),
        "job wall-time histogram missing: {text}"
    );
    assert!(
        flat.contains_key("twl_service_job_queue_wait_ms_count"),
        "queue-wait histogram missing: {text}"
    );

    // Per-job progress gauges, labeled with this job's id.
    let id_label = job_id.to_string();
    let gauge = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name && s.label("job") == Some(id_label.as_str()))
            .unwrap_or_else(|| panic!("no {name} sample for job {job_id} in:\n{text}"))
            .value
    };
    assert_eq!(gauge("twl_service_job_cells_done"), 2.0);
    assert_eq!(gauge("twl_service_job_cells_total"), 2.0);
    assert!(gauge("twl_service_job_writes_done") > 0.0);
    assert!(gauge("twl_service_job_rate_wps") > 0.0);
    let info = samples
        .iter()
        .find(|s| s.name == "twl_service_job_info" && s.label("job") == Some(id_label.as_str()))
        .expect("job info gauge");
    assert_eq!(info.label("status"), Some("completed"));
    assert_eq!(info.label("kind"), Some("attack_matrix"));

    // The dashboard renders one frame from the same daemon.
    let top = std::process::Command::new(env!("CARGO_BIN_EXE_twl-top"))
        .args(["--addr", &daemon.addr, "--once"])
        .output()
        .expect("run twl-top");
    assert!(top.status.success(), "twl-top failed: {top:?}");
    let frame = String::from_utf8(top.stdout).expect("utf8 frame");
    assert!(frame.contains("workers"), "header missing: {frame}");
    assert!(frame.contains("attack_matrix"), "job row missing: {frame}");
    assert!(
        frame.contains("[################] 100%"),
        "bar missing: {frame}"
    );

    // And the CLI lint accepts the page.
    let lint = std::process::Command::new(env!("CARGO_BIN_EXE_twl-ctl"))
        .args(["--addr", &daemon.addr, "metrics", "--lint"])
        .output()
        .expect("run twl-ctl metrics");
    assert!(
        lint.status.success(),
        "twl-ctl metrics --lint failed: {lint:?}"
    );
    assert!(
        String::from_utf8_lossy(&lint.stdout).contains("twl_service_job_cells_done"),
        "lint output missing progress gauges"
    );

    client.shutdown().expect("shutdown");
    let status = daemon.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "daemon exited with {status:?}");
}
