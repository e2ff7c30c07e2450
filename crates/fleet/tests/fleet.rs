//! End-to-end fleet integration: an in-process `twl-coordinator`
//! fronting real `twl-serviced` workers (in-process servers or spawned
//! processes) must produce results bit-identical to running every cell
//! directly, survive dead and stalled workers, and re-simulate nothing
//! on a warm cache.
//!
//! Metric assertions use the per-worker `twl_fleet_worker_*` families
//! (worker addresses are unique per test) or deltas of global counters
//! that only grow — the telemetry registry is shared by every test in
//! this process.

#![forbid(unsafe_code)]

use std::io::BufRead as _;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use twl_attacks::AttackKind;
use twl_fleet::{Coordinator, FleetConfig};
use twl_lifetime::{SchemeKind, SimLimits};
use twl_pcm::PcmConfig;
use twl_service::framing::{read_frame, write_frame};
use twl_service::job::JobKind;
use twl_service::wire::{Request, Response, PROTOCOL};
use twl_service::{encode_result, Client, JobSpec, Server, ServiceConfig, SubmitOutcome};
use twl_telemetry::json::Json;
use twl_telemetry::prom::{parse_exposition, PromSample};

/// Starts an in-process `twl-serviced` on an OS-assigned port.
fn spawn_worker(slots: usize) -> String {
    let server = Server::bind(&ServiceConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: slots,
        idle_timeout_ms: 0,
        ..ServiceConfig::default()
    })
    .expect("bind in-process worker");
    let addr = server.local_addr().expect("worker addr").to_string();
    thread::spawn(move || server.run().expect("worker run"));
    addr
}

/// Starts an in-process coordinator; the returned address serves the
/// full `twl-wire/v1` surface.
fn spawn_coordinator(config: FleetConfig) -> String {
    let coordinator = Coordinator::bind(&config).expect("bind coordinator");
    let addr = coordinator
        .local_addr()
        .expect("coordinator addr")
        .to_string();
    thread::spawn(move || coordinator.run().expect("coordinator run"));
    addr
}

fn base_config() -> FleetConfig {
    FleetConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..FleetConfig::default()
    }
}

/// The ISSUE acceptance matrix: all 7 schemes × all 4 attacks.
fn full_matrix(seed: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(64, 500, seed),
        limits: SimLimits::default(),
        schemes: SchemeKind::ALL.iter().map(|&k| k.into()).collect(),
        attacks: vec![
            AttackKind::Repeat.into(),
            AttackKind::Random.into(),
            AttackKind::Scan.into(),
            AttackKind::Inconsistent.into(),
        ],
        benchmarks: vec![],
        fault: None,
    }
}

fn small_matrix(seed: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::AttackMatrix,
        pcm: PcmConfig::scaled(64, 500, seed),
        limits: SimLimits::default(),
        schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
        benchmarks: vec![],
        fault: None,
    }
}

/// What a single node computes for this spec, via the identical
/// assembly path the daemon uses.
fn direct_result(spec: &JobSpec) -> Json {
    let reports = (0..spec.cell_count()).map(|i| spec.run_cell(i).0).collect();
    encode_result(spec.kind, reports)
}

fn submit_and_wait(addr: &str, spec: &JobSpec) -> Json {
    let mut client = Client::connect(addr).expect("connect to coordinator");
    let job_id = match client.submit(spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    client.wait(job_id, |_| {}).expect("job result")
}

/// Scrapes and lints the coordinator's metrics page.
fn scrape(addr: &str) -> Vec<PromSample> {
    let mut client = Client::connect(addr).expect("metrics connection");
    let text = client.metrics().expect("metrics request");
    parse_exposition(&text).expect("coordinator metrics page lints clean")
}

/// One sample's value, optionally narrowed to a `worker="..."` row;
/// 0 when the family has no matching sample yet.
fn sample(samples: &[PromSample], name: &str, worker: Option<&str>) -> f64 {
    samples
        .iter()
        .find(|s| s.name == name && worker.is_none_or(|w| s.label("worker") == Some(w)))
        .map_or(0.0, |s| s.value)
}

fn cells_served_by(coordinator: &str, workers: &[&str]) -> f64 {
    let samples = scrape(coordinator);
    workers
        .iter()
        .map(|w| sample(&samples, "twl_fleet_worker_cells_served", Some(w)))
        .sum()
}

fn register(coordinator: &str, worker: &str) -> u64 {
    let mut client = Client::connect(coordinator).expect("register connection");
    let (echoed, slots) = client.register_worker(worker).expect("register_worker");
    assert_eq!(echoed, worker);
    slots
}

/// Polls `probe` until it returns true or the deadline passes.
fn wait_until(what: &str, deadline: Duration, mut probe: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if probe() {
            return;
        }
        thread::sleep(Duration::from_millis(50));
    }
    panic!("timed out after {deadline:?} waiting for {what}");
}

/// The acceptance-criteria run: a 7-scheme × 4-attack × 3-seed sweep
/// sharded over two 2-slot workers is bit-identical to the single-node
/// computation, and a warm resubmission of the whole sweep re-simulates
/// zero cells.
#[test]
fn fleet_sweep_is_bit_identical_and_warm_resubmission_recomputes_nothing() {
    let workers = [spawn_worker(2), spawn_worker(2)];
    let cache_dir = std::env::temp_dir().join(format!("twl-fleet-cache-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let coordinator = spawn_coordinator(FleetConfig {
        workers: workers.to_vec(),
        cache_dir: Some(cache_dir.clone()),
        ..base_config()
    });
    let worker_refs: Vec<&str> = workers.iter().map(String::as_str).collect();

    // The hello handshake advertises the fleet's total slot count.
    let probe = Client::connect(&coordinator).expect("hello probe");
    assert_eq!(probe.slots(), Some(4), "fleet slots misadvertised");
    drop(probe);

    let specs: Vec<JobSpec> = [3, 4, 5].map(full_matrix).to_vec();
    let singleton: Vec<String> = specs
        .iter()
        .map(|spec| direct_result(spec).to_compact())
        .collect();
    let total_cells: usize = specs.iter().map(JobSpec::cell_count).sum();
    assert_eq!(total_cells, 7 * 4 * 3);

    let cold: Vec<String> = specs
        .iter()
        .map(|spec| submit_and_wait(&coordinator, spec).to_compact())
        .collect();
    assert_eq!(cold, singleton, "fleet result differs from single-node");
    let served_cold = cells_served_by(&coordinator, &worker_refs);
    #[allow(clippy::cast_precision_loss)]
    let expected = total_cells as f64;
    assert_eq!(
        served_cold, expected,
        "every cold cell simulated exactly once"
    );

    // Warm pass: same sweep, zero re-simulation — the workers' served
    // counters must not move at all.
    let warm: Vec<String> = specs
        .iter()
        .map(|spec| submit_and_wait(&coordinator, spec).to_compact())
        .collect();
    assert_eq!(warm, singleton, "warm result differs from single-node");
    let served_warm = cells_served_by(&coordinator, &worker_refs);
    assert_eq!(
        served_warm, served_cold,
        "warm resubmission re-simulated cells instead of hitting the cache"
    );

    // The cache families are present and the whole page lints (scrape
    // already ran parse_exposition).
    let samples = scrape(&coordinator);
    assert!(
        sample(&samples, "twl_fleet_cache_entries", None) >= expected,
        "cache holds fewer entries than the sweep produced"
    );
    assert!(
        sample(&samples, "twl_fleet_cache_hits", None) >= expected,
        "warm pass did not count as cache hits"
    );

    // Clean drain: coordinator first, then its workers.
    Client::connect(&coordinator)
        .expect("shutdown connection")
        .shutdown()
        .expect("coordinator shutdown");
    for worker in &workers {
        Client::connect(worker)
            .expect("worker shutdown connection")
            .shutdown()
            .expect("worker shutdown");
    }
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// A job counts as finished only once every dispatched cell is cached.
/// Each round submits a cold job plus an identical twin queued behind
/// it (one planner, so the twin's cache lookups start the instant the
/// cold job finishes), then resubmits once more after both results
/// arrived. Neither the twin nor the resubmission may dispatch a cell.
#[test]
fn resubmitting_the_moment_a_job_finishes_hits_the_cache_for_every_cell() {
    let worker = spawn_worker(2);
    let cache_dir =
        std::env::temp_dir().join(format!("twl-fleet-cache-race-{}", std::process::id()));
    std::fs::remove_dir_all(&cache_dir).ok();
    let coordinator = spawn_coordinator(FleetConfig {
        workers: vec![worker.clone()],
        cache_dir: Some(cache_dir.clone()),
        planners: 1,
        ..base_config()
    });
    let mut client = Client::connect(&coordinator).expect("connect to coordinator");
    let submit = |client: &mut Client, spec: &JobSpec| match client.submit(spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    for round in 0..20 {
        let spec = small_matrix(100 + round);
        let served_before = cells_served_by(&coordinator, &[&worker]);
        let ids = [submit(&mut client, &spec), submit(&mut client, &spec)];
        let mut results: Vec<String> = ids
            .iter()
            .map(|&id| client.wait(id, |_| {}).expect("job result").to_compact())
            .collect();
        let id = submit(&mut client, &spec);
        results.push(client.wait(id, |_| {}).expect("job result").to_compact());
        let served_after = cells_served_by(&coordinator, &[&worker]);
        assert!(
            results.iter().all(|r| *r == results[0]),
            "round {round}: results differ"
        );
        #[allow(clippy::cast_precision_loss)]
        let cells = spec.cell_count() as f64;
        assert_eq!(
            served_after - served_before,
            cells,
            "round {round}: a resubmission dispatched a cell the cold job had not cached"
        );
    }
    Client::connect(&coordinator)
        .expect("shutdown connection")
        .shutdown()
        .expect("coordinator shutdown");
    Client::connect(&worker)
        .expect("worker shutdown connection")
        .shutdown()
        .expect("worker shutdown");
    std::fs::remove_dir_all(&cache_dir).ok();
}

/// A cell that cannot be keyed — its trace file is missing — fails its
/// job with the reason, and the planner lives on: the next job behind
/// it (one planner) still completes.
#[test]
fn a_missing_trace_fails_its_job_and_the_next_job_completes() {
    let worker = spawn_worker(1);
    let coordinator = spawn_coordinator(FleetConfig {
        workers: vec![worker.clone()],
        planners: 1,
        ..base_config()
    });
    let mut client = Client::connect(&coordinator).expect("connect to coordinator");
    let mut submit = |spec: &JobSpec| match client.submit(spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };
    let mut bad = small_matrix(7);
    bad.attacks = vec!["TRACE[path=/nonexistent/x.trace]"
        .parse()
        .expect("trace label")];
    let bad_id = submit(&bad);
    let good = small_matrix(8);
    let good_id = submit(&good);

    let mut status = Client::connect(&coordinator).expect("status connection");
    let mut snapshot = |id: u64| {
        status
            .status(Some(id))
            .expect("status")
            .pop()
            .expect("job snapshot")
    };
    let deadline = Duration::from_secs(60);
    wait_until("the missing-trace job to fail", deadline, || {
        snapshot(bad_id).status == "failed"
    });
    let failed = snapshot(bad_id);
    assert!(
        failed
            .error
            .as_deref()
            .is_some_and(|e| e.contains("cannot hash trace")),
        "failure does not name the trace: {failed:?}"
    );
    wait_until("the next job to complete", deadline, || {
        snapshot(good_id).status == "completed"
    });
    let mut waiter = Client::connect(&coordinator).expect("wait connection");
    assert_eq!(
        waiter
            .wait(good_id, |_| {})
            .expect("job result")
            .to_compact(),
        direct_result(&good).to_compact()
    );

    Client::connect(&coordinator)
        .expect("shutdown connection")
        .shutdown()
        .expect("coordinator shutdown");
    Client::connect(&worker)
        .expect("worker shutdown connection")
        .shutdown()
        .expect("worker shutdown");
}

/// How a fake (misbehaving) worker treats `run_cell`.
#[derive(Clone, Copy, PartialEq)]
enum FakeMode {
    /// Close the connection without answering (a crash).
    Die,
    /// Accept the request and never answer (a wedge).
    Stall,
}

/// A protocol-correct `hello`, then misbehavior on `run_cell`.
fn spawn_fake_worker(mode: FakeMode) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("fake addr").to_string();
    thread::spawn(move || {
        for stream in listener.incoming() {
            let Ok(stream) = stream else { continue };
            thread::spawn(move || fake_connection(&stream, mode));
        }
    });
    addr
}

fn fake_connection(stream: &TcpStream, mode: FakeMode) {
    let mut reader = stream;
    loop {
        let Ok(frame) = read_frame(&mut reader) else {
            return;
        };
        match Request::from_json(&frame) {
            Ok(Request::Hello { .. }) => {
                let ok = Response::HelloOk {
                    proto: PROTOCOL.to_owned(),
                    slots: Some(1),
                };
                if write_frame(&mut { stream }, &ok.to_json()).is_err() {
                    return;
                }
            }
            Ok(Request::RunCell { .. }) => match mode {
                FakeMode::Die => return,
                FakeMode::Stall => {
                    thread::sleep(Duration::from_secs(120));
                    return;
                }
            },
            _ => return,
        }
    }
}

/// A worker that dies on every dispatch loses its cells to re-dispatch:
/// once a live worker joins, the job completes bit-identically and the
/// dead worker has served nothing.
#[test]
fn cells_lost_to_a_dead_worker_are_redispatched() {
    let coordinator = spawn_coordinator(FleetConfig {
        steal_after_ms: 60_000, // isolate the retry path from stealing
        lease_timeout_ms: 10_000,
        max_attempts: 25,
        ..base_config()
    });
    let dead = spawn_fake_worker(FakeMode::Die);
    assert_eq!(register(&coordinator, &dead), 1);

    let spec = small_matrix(6);
    let mut client = Client::connect(&coordinator).expect("connect");
    let job_id = match client.submit(&spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };

    // With only the dying worker registered, dispatches must already be
    // failing and re-queueing.
    wait_until(
        "the dead worker to break a dispatch",
        Duration::from_secs(10),
        || {
            let samples = scrape(&coordinator);
            sample(&samples, "twl_fleet_worker_failures", Some(&dead)) >= 1.0
        },
    );

    // A healthy worker joins mid-job and rescues every cell.
    let healthy = spawn_worker(1);
    register(&coordinator, &healthy);
    let result = client
        .wait(job_id, |_| {})
        .expect("job survives the dead worker");
    assert_eq!(
        result.to_compact(),
        direct_result(&spec).to_compact(),
        "re-dispatched result differs from single-node"
    );

    let samples = scrape(&coordinator);
    assert_eq!(
        sample(&samples, "twl_fleet_worker_cells_served", Some(&dead)),
        0.0,
        "the dead worker cannot have served cells"
    );
    #[allow(clippy::cast_precision_loss)]
    let expected = spec.cell_count() as f64;
    assert_eq!(
        sample(&samples, "twl_fleet_worker_cells_served", Some(&healthy)),
        expected,
        "the healthy worker served every cell"
    );
}

/// A wedged worker holds its cell forever; an idle slot on another
/// worker steals a duplicate and the first completion wins.
#[test]
fn cells_stuck_on_a_stalled_worker_are_stolen() {
    let coordinator = spawn_coordinator(FleetConfig {
        steal_after_ms: 200,
        // Longer than the test: completion can only come from a steal,
        // not from a lease expiry + retry.
        lease_timeout_ms: 120_000,
        max_attempts: 5,
        ..base_config()
    });
    let stalled = spawn_fake_worker(FakeMode::Stall);
    assert_eq!(register(&coordinator, &stalled), 1);

    let spec = JobSpec {
        schemes: vec![SchemeKind::TwlSwp.into()],
        attacks: vec![AttackKind::Repeat.into()],
        ..small_matrix(7)
    };
    let stolen_before = sample(&scrape(&coordinator), "twl_fleet_cells_stolen", None);
    let mut client = Client::connect(&coordinator).expect("connect");
    let job_id = match client.submit(&spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };

    // The lone cell must be wedged on the stalled worker first.
    wait_until(
        "the stalled worker to hold the cell",
        Duration::from_secs(10),
        || {
            let samples = scrape(&coordinator);
            sample(&samples, "twl_fleet_worker_inflight", Some(&stalled)) >= 1.0
        },
    );

    let healthy = spawn_worker(1);
    register(&coordinator, &healthy);
    let result = client.wait(job_id, |_| {}).expect("job survives the stall");
    assert_eq!(
        result.to_compact(),
        direct_result(&spec).to_compact(),
        "stolen result differs from single-node"
    );

    let samples = scrape(&coordinator);
    assert!(
        sample(&samples, "twl_fleet_cells_stolen", None) > stolen_before,
        "completion did not come from a steal"
    );
    assert_eq!(
        sample(&samples, "twl_fleet_worker_cells_served", Some(&healthy)),
        1.0,
        "the healthy worker served the stolen duplicate"
    );
}

/// A real `twl-serviced` child process on an OS-assigned port.
struct WorkerProcess {
    child: std::process::Child,
    addr: String,
}

impl WorkerProcess {
    fn spawn(binary: &std::path::Path) -> Self {
        let mut child = std::process::Command::new(binary)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                "1",
                "--idle-timeout-ms",
                "0",
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn twl-serviced");
        let stdout = child.stdout.take().expect("child stdout");
        let mut lines = std::io::BufReader::new(stdout).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("twl-serviced exited before announcing")
                .expect("read announce line");
            if let Some(rest) = line.trim().strip_prefix("twl-serviced listening on ") {
                break rest.to_owned();
            }
        };
        // Keep draining stdout so the child never blocks on a full pipe.
        thread::spawn(move || for _ in lines {});
        Self { child, addr }
    }
}

/// `CARGO_BIN_EXE_*` only resolves inside the owning crate, so the
/// cross-crate `twl-serviced` binary is located next to this test's own
/// executable (building it on demand if a partial target dir lacks it).
fn serviced_binary() -> PathBuf {
    let mut dir = std::env::current_exe().expect("test executable path");
    dir.pop(); // deps/
    dir.pop(); // debug/ (or release/)
    let candidate = dir.join(format!("twl-serviced{}", std::env::consts::EXE_SUFFIX));
    if !candidate.exists() {
        let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".to_owned());
        let status = std::process::Command::new(cargo)
            .args(["build", "-p", "twl-service", "--bin", "twl-serviced"])
            .status()
            .expect("run cargo build for twl-serviced");
        assert!(status.success(), "building twl-serviced failed");
    }
    assert!(
        candidate.exists(),
        "no twl-serviced at {}",
        candidate.display()
    );
    candidate
}

/// The ISSUE kill test: two real worker processes, one killed (SIGKILL,
/// no drain) mid-job. Its in-flight and never-claimed cells re-dispatch
/// to the survivor and the final report is bit-identical to the
/// single-node run.
#[test]
fn killing_a_worker_process_mid_job_keeps_the_report_bit_identical() {
    let binary = serviced_binary();
    let mut victim = WorkerProcess::spawn(&binary);
    let survivor = WorkerProcess::spawn(&binary);
    let coordinator = spawn_coordinator(FleetConfig {
        workers: vec![victim.addr.clone(), survivor.addr.clone()],
        lease_timeout_ms: 3_000,
        steal_after_ms: 1_000,
        max_attempts: 25,
        ..base_config()
    });

    // Endurance 1000 doubles per-cell work vs the other tests, keeping
    // the job alive long enough that the kill lands mid-run.
    let mut spec = full_matrix(9);
    spec.pcm = PcmConfig::scaled(64, 1_000, 9);
    let expected = direct_result(&spec).to_compact();

    let mut client = Client::connect(&coordinator).expect("connect");
    let job_id = match client.submit(&spec).expect("submit") {
        SubmitOutcome::Accepted(id) => id,
        SubmitOutcome::Rejected { reason, .. } => panic!("submit rejected: {reason}"),
    };

    // SIGKILL the victim on the first streamed cell completion — both
    // workers are mid-cell at that point.
    let events = AtomicU32::new(0);
    let result = client
        .wait(job_id, |_| {
            if events.fetch_add(1, Ordering::Relaxed) == 0 {
                victim.child.kill().expect("kill victim worker");
                victim.child.wait().expect("reap victim worker");
            }
        })
        .expect("job survives the killed worker");
    assert!(
        events.load(Ordering::Relaxed) > 0,
        "no cell events streamed"
    );
    assert_eq!(
        result.to_compact(),
        expected,
        "post-kill fleet report differs from single-node"
    );

    let samples = scrape(&coordinator);
    assert!(
        sample(&samples, "twl_fleet_worker_failures", Some(&victim.addr)) >= 1.0,
        "the killed worker's dispatches were never failed over"
    );

    Client::connect(&survivor.addr)
        .expect("survivor shutdown connection")
        .shutdown()
        .expect("survivor shutdown");
}
