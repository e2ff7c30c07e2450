//! The `twl-serviced` daemon: its `twl-wire/v1` request handler and
//! the worker pool that executes jobs.
//!
//! Concurrency model: the unit of work is a cell. Each worker takes the
//! next cell from the queue ([`JobQueue::claim_cell`]): the next
//! unclaimed cell of the oldest started job, or, when no started job
//! has one, the first cell of the next queued job. So one job's cells
//! run on every worker at once, and jobs still start in FIFO order. A
//! cell is a pure function of its spec and index, so the assembled
//! result does not depend on which worker ran which cell or in what
//! order: it is byte-identical for every worker count. The worker that
//! records a job's last outstanding cell assembles the result in matrix
//! order, writes the terminal checkpoint and publishes the job. The pool
//! is sized exactly like the in-process matrix helpers via
//! [`twl_lifetime::pool::configured_parallelism`] (so `TWL_THREADS`
//! is honored in one place for the whole workspace).
//!
//! The connection loop and its robustness contract live in
//! [`crate::net::serve`].

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener};
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use twl_lifetime::pool;
use twl_telemetry::prom::{render_exposition, PromWriter};
use twl_telemetry::{counter, gauge, histogram, ScopeGuard};

use crate::checkpoint::{Checkpoint, CheckpointDir};
use crate::job::encode_result;
use crate::net::{serve, Reply, WireHandler};
use crate::queue::{CellTask, CellWork, JobEnding, JobQueue, JobStatus, RunningJob};
use crate::wire::{Request, Response};

/// Test hook: when this environment variable holds `N`, the daemon
/// calls `process::exit` right after writing its `N`-th mid-run
/// checkpoint — a deterministic stand-in for `kill -9` that the
/// kill-and-resume integration test uses.
pub const EXIT_AFTER_CHECKPOINTS_ENV: &str = "TWL_SERVICED_EXIT_AFTER_CHECKPOINTS";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Maximum queued (not yet running) jobs before submits are
    /// rejected.
    pub queue_capacity: usize,
    /// Worker threads; 0 means [`pool::configured_parallelism`].
    pub workers: usize,
    /// Where to persist job checkpoints; `None` disables durability.
    pub checkpoint_dir: Option<PathBuf>,
    /// Device writes a running job accumulates between checkpoints.
    pub checkpoint_interval_writes: u64,
    /// Retry hint handed to rejected submitters.
    pub retry_after_ms: u64,
    /// How long a connection may sit idle between requests before the
    /// daemon closes it (so a stalled or half-open peer cannot pin a
    /// connection thread forever); 0 disables the timeout.
    pub idle_timeout_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7781".to_owned(),
            queue_capacity: 32,
            workers: 0,
            checkpoint_dir: None,
            checkpoint_interval_writes: 50_000_000,
            retry_after_ms: 500,
            idle_timeout_ms: 300_000,
        }
    }
}

/// A bound, not-yet-running daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    daemon: Arc<Daemon>,
    checkpoint_interval_writes: u64,
    idle_timeout: Option<Duration>,
}

impl Server {
    /// Binds the listener, opens the checkpoint directory, and restores
    /// any persisted jobs (interrupted ones re-enter the queue).
    ///
    /// # Errors
    ///
    /// Propagates bind and checkpoint-directory failures.
    pub fn bind(config: &ServiceConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let queue = JobQueue::new(config.queue_capacity, config.retry_after_ms);
        let checkpoints = match &config.checkpoint_dir {
            Some(dir) => {
                let dir = CheckpointDir::open(dir)?;
                for cp in dir.load_all()? {
                    let status = JobStatus::parse(&cp.status).unwrap_or(JobStatus::Queued);
                    queue.restore(
                        cp.job_id,
                        cp.spec,
                        status,
                        cp.completed_cells,
                        cp.result,
                        cp.error,
                    );
                }
                Some(dir)
            }
            None => None,
        };
        let slots = if config.workers == 0 {
            pool::configured_parallelism()
        } else {
            config.workers
        };
        Ok(Self {
            listener,
            daemon: Arc::new(Daemon {
                queue,
                checkpoints,
                slots,
                remote_inflight: AtomicUsize::new(0),
            }),
            checkpoint_interval_writes: config.checkpoint_interval_writes.max(1),
            idle_timeout: crate::net::idle_deadline(config.idle_timeout_ms),
        })
    }

    /// The bound address (useful with port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Runs the daemon until a `shutdown` request completes its drain:
    /// in-flight jobs finish, queued jobs stay persisted, sinks flush.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn run(self) -> io::Result<()> {
        let workers = self.daemon.slots;
        gauge!("twl.service.workers.total").set(i64::try_from(workers).unwrap_or(i64::MAX));
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let daemon = Arc::clone(&self.daemon);
                let interval = self.checkpoint_interval_writes;
                thread::spawn(move || {
                    while let Some(task) = daemon.queue.claim_cell() {
                        gauge!("twl.service.workers.busy").add(1);
                        run_task(&daemon.queue, daemon.checkpoints.as_ref(), interval, task);
                        gauge!("twl.service.workers.busy").add(-1);
                    }
                })
            })
            .collect();

        serve(&self.listener, self.idle_timeout, &self.daemon)?;

        for handle in worker_handles {
            let _ = handle.join();
        }
        twl_telemetry::flush_sinks();
        Ok(())
    }
}

/// Persists a job's current state, best-effort (an unwritable disk
/// degrades durability, not availability).
fn save_checkpoint(
    dir: &CheckpointDir,
    job_id: u64,
    spec: &crate::job::JobSpec,
    status: JobStatus,
    completed_cells: &BTreeMap<u64, twl_telemetry::json::Json>,
    result: Option<twl_telemetry::json::Json>,
    error: Option<String>,
) {
    let cp = Checkpoint {
        job_id,
        spec: spec.clone(),
        status: status.label().to_owned(),
        completed_cells: completed_cells.clone(),
        result,
        error,
    };
    if let Err(e) = dir.save(&cp) {
        eprintln!("twl-serviced: cannot checkpoint job {job_id}: {e}");
    }
}

/// Saves a started job's checkpoint under a `job.checkpoint` span, in
/// order with the saves of the job's other workers
/// ([`RunningJob::save_in_order`]); returns whether it was written.
#[allow(clippy::too_many_arguments)]
fn checkpoint_job(
    dir: &CheckpointDir,
    job: &RunningJob,
    job_label: &str,
    version: u64,
    status: JobStatus,
    completed_cells: &BTreeMap<u64, twl_telemetry::json::Json>,
    result: Option<twl_telemetry::json::Json>,
    error: Option<String>,
) -> bool {
    job.save_in_order(version, || {
        let _cp_span = twl_telemetry::span!("job.checkpoint", job_label.to_owned());
        save_checkpoint(
            dir,
            job.job_id,
            &job.spec,
            status,
            completed_cells,
            result,
            error,
        );
    })
}

/// Simulated-crash test hook (see [`EXIT_AFTER_CHECKPOINTS_ENV`]).
fn maybe_exit_after_checkpoint() {
    static WRITTEN: AtomicU64 = AtomicU64::new(0);
    let Some(limit) = std::env::var(EXIT_AFTER_CHECKPOINTS_ENV)
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
    else {
        return;
    };
    let written = WRITTEN.fetch_add(1, Ordering::SeqCst) + 1;
    if written >= limit {
        // Die abruptly, like a kill: no drain, no flush.
        std::process::exit(83);
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "cell panicked".to_owned()
    }
}

/// Does one piece of a job's work on the calling worker: starts the job
/// (when this claim did), runs a cell, checkpoints once the job crosses
/// its interval, and finishes the job when its last cell is in. Cells
/// already present in a resumed checkpoint are never handed out, so the
/// assembled result is bit-identical to an uninterrupted run.
///
/// The worker labels its thread with the job's trace scope for the
/// whole task, so the spans of every cell reach `job-<id>.trace.jsonl`
/// whichever worker ran it.
fn run_task(queue: &JobQueue, dir: Option<&CheckpointDir>, interval: u64, task: CellTask) {
    let job = &task.job;
    let job_label = format!("job-{}", job.job_id);
    let _scope = ScopeGuard::new(job_label.clone());
    if let Some(start) = task.start {
        let queue_wait_us = u64::try_from(start.queued_for.as_micros()).unwrap_or(u64::MAX);
        histogram!("twl.service.job.queue_wait_ms").record(queue_wait_us / 1_000);
        // The wait ended before execution began, so it is recorded
        // while this thread's span stack is empty.
        twl_telemetry::emit_measured("job.queue_wait", job_label.clone(), queue_wait_us, 1);
        if let Some(dir) = dir {
            let done = start.completed_cells.len() as u64;
            let cells = &start.completed_cells;
            checkpoint_job(
                dir,
                job,
                &job_label,
                done,
                JobStatus::Running,
                cells,
                None,
                None,
            );
        }
    }
    let ending = match task.work {
        CellWork::Finish(ending) => ending,
        CellWork::Run(index) => {
            let outcome = {
                let _cell_span = twl_telemetry::span!("job.cell", job_label.clone());
                panic::catch_unwind(AssertUnwindSafe(|| job.spec.run_cell(index)))
                    .map_err(|payload| panic_message(payload.as_ref()))
            };
            let recorded = queue.complete_cell(job.job_id, index, outcome, dir.map(|_| interval));
            if let (Some(dir), Some(cells)) = (dir, recorded.checkpoint) {
                let done = cells.len() as u64;
                let running = JobStatus::Running;
                if checkpoint_job(dir, job, &job_label, done, running, &cells, None, None) {
                    queue.record_checkpoint(job.job_id, done);
                    maybe_exit_after_checkpoint();
                }
            }
            let Some(ending) = recorded.ending else {
                return;
            };
            ending
        }
    };
    finish_job(queue, dir, job, &job_label, ending);
}

/// Brings a job whose cells are all done (or abandoned) to its terminal
/// state: assembles the result in matrix order, writes the terminal
/// checkpoint, and publishes the job.
fn finish_job(
    queue: &JobQueue,
    dir: Option<&CheckpointDir>,
    job: &RunningJob,
    job_label: &str,
    ending: JobEnding,
) {
    let JobEnding {
        status,
        completed_cells,
        error,
    } = ending;
    let result = (status == JobStatus::Completed).then(|| {
        let reports = completed_cells.values().cloned().collect();
        encode_result(job.spec.kind, reports)
    });
    if let Some(dir) = dir {
        let (cells, terminal) = (&completed_cells, u64::MAX);
        let (r, e) = (result.clone(), error.clone());
        checkpoint_job(dir, job, job_label, terminal, status, cells, r, e);
    }
    let wall_ms = u64::try_from(job.started.elapsed().as_millis()).unwrap_or(u64::MAX);
    histogram!("twl.service.job.wall_ms").record(wall_ms);
    // Flush before publishing the result, so a client that saw the
    // terminal event immediately finds a complete wall-time histogram
    // and a complete, durable job trace.
    twl_telemetry::flush_sinks();
    queue.finish(job.job_id, status, result, error);
}

/// Renders the full scrape page: the global registry (counters, gauges,
/// histograms from every subsystem), then one gauge family per per-job
/// progress dimension, labeled `job="<id>"`. Public so the fleet
/// coordinator serves the identical page shape for its own jobs.
pub fn render_metrics_page(queue: &JobQueue) -> String {
    let mut page = render_exposition(&twl_telemetry::global().snapshot());
    let jobs = queue.snapshot(None);
    if jobs.is_empty() {
        return page;
    }
    let ids: Vec<String> = jobs.iter().map(|j| j.job_id.to_string()).collect();
    let mut info = Vec::new();
    let mut cells_done = Vec::new();
    let mut cells_total = Vec::new();
    let mut writes_done = Vec::new();
    let mut rate_wps = Vec::new();
    let mut eta_ms = Vec::new();
    #[allow(clippy::cast_precision_loss)]
    for (job, id) in jobs.iter().zip(&ids) {
        let label = [("job", id.as_str())];
        info.push((
            vec![
                ("job", id.as_str()),
                ("kind", job.kind.as_str()),
                ("status", job.status.as_str()),
            ],
            1.0,
        ));
        cells_done.push((label, job.cells_done as f64));
        cells_total.push((label, job.cells_total as f64));
        if let Some(w) = job.writes_done {
            writes_done.push((label, w as f64));
        }
        if let Some(r) = job.rate_wps {
            rate_wps.push((label, r));
        }
        if let Some(e) = job.eta_ms {
            eta_ms.push((label, e as f64));
        }
    }
    let mut w = PromWriter::new();
    let info: Vec<(&[(&str, &str)], f64)> = info.iter().map(|(l, v)| (l.as_slice(), *v)).collect();
    w.gauge_family("twl_service_job_info", &info);
    job_gauge_family(&mut w, "twl_service_job_cells_done", &cells_done);
    job_gauge_family(&mut w, "twl_service_job_cells_total", &cells_total);
    job_gauge_family(&mut w, "twl_service_job_writes_done", &writes_done);
    job_gauge_family(&mut w, "twl_service_job_rate_wps", &rate_wps);
    job_gauge_family(&mut w, "twl_service_job_eta_ms", &eta_ms);
    page.push_str(&w.finish());
    page
}

/// Writes one single-label (`job="<id>"`) gauge family, skipping
/// families with no live samples so the page carries no empty `# TYPE`
/// stanzas.
fn job_gauge_family(w: &mut PromWriter, name: &str, samples: &[([(&str, &str); 1], f64)]) {
    if samples.is_empty() {
        return;
    }
    let flat: Vec<(&[(&str, &str)], f64)> =
        samples.iter().map(|(l, v)| (l.as_slice(), *v)).collect();
    w.gauge_family(name, &flat);
}

/// `twl-serviced`'s side of the shared `twl-wire/v1` loop.
#[derive(Debug)]
struct Daemon {
    queue: JobQueue,
    checkpoints: Option<CheckpointDir>,
    /// The worker-pool size, advertised in `hello_ok` and the cap on
    /// concurrent `run_cell` executions.
    slots: usize,
    /// `run_cell` requests currently executing across all connections.
    remote_inflight: AtomicUsize,
}

impl WireHandler for Daemon {
    fn name(&self) -> &'static str {
        "twl-serviced"
    }

    fn slots(&self) -> Option<u64> {
        Some(self.slots as u64)
    }

    fn respond(&self, request: Request) -> Option<Reply<'_>> {
        match request {
            Request::RunCell { spec, cell } => Some(Reply::Frame(self.run_cell(&spec, cell))),
            other => job_reply(&self.queue, self.checkpoints.as_ref(), other),
        }
    }

    fn metrics(&self) -> String {
        render_metrics_page(&self.queue)
    }

    fn shutdown(&self) -> Response {
        self.queue.begin_shutdown();
        Response::ShutdownOk
    }

    fn shutting_down(&self) -> bool {
        self.queue.is_shutting_down()
    }
}

/// Answers the job requests (`submit`, `status`, `stream`, `cancel`)
/// from `queue`; `None` for any other request. With `checkpoints`, a
/// submitted job, and a queued job cancelled before it ran, are
/// persisted at once. Public so the fleet coordinator serves the same
/// job surface.
pub fn job_reply<'a>(
    queue: &'a JobQueue,
    checkpoints: Option<&CheckpointDir>,
    request: Request,
) -> Option<Reply<'a>> {
    // The terminal or queued state of `job_id`, saved without cells.
    let persist = |job_id: u64, only_terminal: bool| {
        if let (Some(dir), Some((spec, status, result, error))) =
            (checkpoints, queue.job_state(job_id))
        {
            if !only_terminal || status.is_terminal() {
                save_checkpoint(dir, job_id, &spec, status, &BTreeMap::new(), result, error);
            }
        }
    };
    let response = match request {
        Request::Submit { spec } => match spec.validate() {
            Err(message) => Response::Error {
                message: format!("invalid spec: {message}"),
            },
            Ok(()) => match queue.submit(spec) {
                Ok(job_id) => {
                    // Persist at submit time so queued jobs survive a
                    // restart or a graceful drain.
                    persist(job_id, false);
                    Response::Submitted { job_id }
                }
                Err(rejection) => Response::Rejected {
                    reason: rejection.reason,
                    retry_after_ms: rejection.retry_after_ms,
                },
            },
        },
        Request::Status { job_id } => Response::StatusOk {
            jobs: queue.snapshot(job_id),
        },
        Request::Stream { job_id } => return Some(Reply::Stream(queue, job_id)),
        Request::Cancel { job_id } => match queue.cancel(job_id) {
            None => Response::Error {
                message: format!("unknown job {job_id}"),
            },
            Some(cancelled) => {
                // A queued job cancelled here never reaches the
                // executor, so persist its terminal state now.
                persist(job_id, true);
                Response::CancelOk { job_id, cancelled }
            }
        },
        _ => return None,
    };
    Some(Reply::Frame(response))
}

impl Daemon {
    /// Executes one `run_cell` request inline on the connection thread.
    /// Concurrency is capped at the worker-pool size across all
    /// connections, so a fleet coordinator cannot oversubscribe the
    /// daemon beyond the parallelism it advertised in `hello_ok`.
    fn run_cell(&self, spec: &crate::job::JobSpec, cell: u64) -> Response {
        let queue = &self.queue;
        if queue.is_shutting_down() {
            return Response::Rejected {
                reason: "daemon is shutting down".to_owned(),
                retry_after_ms: queue.retry_after_ms(),
            };
        }
        if let Err(message) = spec.validate() {
            return Response::Error {
                message: format!("invalid spec: {message}"),
            };
        }
        let total = spec.cell_count() as u64;
        if cell >= total {
            return Response::Error {
                message: format!("cell {cell} out of range (job has {total} cells)"),
            };
        }
        let previous = self.remote_inflight.fetch_add(1, Ordering::SeqCst);
        if previous >= self.slots {
            self.remote_inflight.fetch_sub(1, Ordering::SeqCst);
            counter!("twl.service.cells.rejected").inc();
            return Response::Rejected {
                reason: format!("all {} cell slots busy", self.slots),
                retry_after_ms: queue.retry_after_ms(),
            };
        }
        gauge!("twl.service.cells.inflight").add(1);
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| spec.run_cell(cell as usize)));
        gauge!("twl.service.cells.inflight").add(-1);
        self.remote_inflight.fetch_sub(1, Ordering::SeqCst);
        match outcome {
            Ok((report, device_writes)) => {
                counter!("twl.service.cells.served").inc();
                Response::CellOk {
                    cell,
                    report,
                    device_writes,
                }
            }
            Err(payload) => Response::Error {
                message: format!("cell {cell} failed: {}", panic_message(payload.as_ref())),
            },
        }
    }
}

/// Prints the canonical "listening" line (parsed by tests and scripts
/// to discover a port-0 bind) and flushes stdout.
pub fn announce(addr: SocketAddr) {
    println!("twl-serviced listening on {addr}");
    let _ = io::stdout().flush();
}
