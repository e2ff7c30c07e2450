//! The `twl-coordinator` daemon: speaks `twl-wire/v1` to clients (an
//! unchanged `twl-ctl` works pointed at it), shards each submitted
//! job's matrix cells across registered `twl-serviced` workers, and
//! fronts dispatch with the content-addressed [`CellCache`] so a warm
//! resubmission re-simulates nothing.
//!
//! Thread anatomy:
//!
//! * the shared `twl-wire/v1` loop ([`twl_service::serve`]), one
//!   thread per client — the same job surface as `twl-serviced`, plus
//!   `register_worker`, minus `run_cell`;
//! * planner threads, each claiming a job from the shared [`JobQueue`],
//!   resolving every cell against the cache (hits stream to the client
//!   immediately), and parking the misses in the [`Dispatcher`];
//! * per-worker-slot threads, each holding one connection to its
//!   worker and pumping assignments through `run_cell`. The client
//!   read timeout doubles as the dispatch lease: a worker that dies or
//!   stalls past it fails the attempt and the cell re-enters the
//!   queue — bounded by the attempt budget, after which the job
//!   reports a partial failure naming the lost cells.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use twl_service::job::encode_result;
use twl_service::queue::{ClaimedJob, JobQueue, JobStatus};
use twl_service::wire::{Request, Response};
use twl_service::{job_reply, render_metrics_page, serve, CellOutcome, Client, Reply, WireHandler};
use twl_telemetry::json::Json;
use twl_telemetry::prom::PromWriter;
use twl_telemetry::{counter, gauge};

use crate::cache::{CachedCell, CellCache};
use crate::cellkey::CellKey;
use crate::dispatch::{Assignment, Dispatcher};

/// Coordinator configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Listen address; port 0 picks a free port.
    pub addr: String,
    /// Workers to register at startup (`host:port` of running
    /// `twl-serviced` daemons); more can join later via
    /// `register_worker`.
    pub workers: Vec<String>,
    /// Where the content-addressed cell cache lives; `None` disables
    /// caching (every cell is simulated).
    pub cache_dir: Option<PathBuf>,
    /// Cache size budget in bytes (least-recently-used entries are
    /// evicted past it).
    pub cache_max_bytes: u64,
    /// Maximum queued (not yet running) jobs before submits are
    /// rejected.
    pub queue_capacity: usize,
    /// Retry hint handed to rejected submitters.
    pub retry_after_ms: u64,
    /// Idle deadline for client connections; 0 disables it.
    pub idle_timeout_ms: u64,
    /// TCP connect deadline when dialing a worker.
    pub connect_timeout_ms: u64,
    /// The dispatch lease: a `run_cell` that a worker has not answered
    /// within this window counts as a broken attempt and the cell is
    /// re-dispatched.
    pub lease_timeout_ms: u64,
    /// How long a cell may sit in flight before an idle slot duplicates
    /// it on another worker (work stealing; first completion wins).
    pub steal_after_ms: u64,
    /// Broken dispatches a cell tolerates before the job reports a
    /// partial failure.
    pub max_attempts: u32,
    /// Planner threads, i.e. jobs planned/awaited concurrently.
    pub planners: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7791".to_owned(),
            workers: Vec::new(),
            cache_dir: None,
            cache_max_bytes: 256 * 1024 * 1024,
            queue_capacity: 32,
            retry_after_ms: 500,
            idle_timeout_ms: 300_000,
            connect_timeout_ms: 5_000,
            lease_timeout_ms: 120_000,
            steal_after_ms: 30_000,
            max_attempts: 3,
            planners: 4,
        }
    }
}

/// One registered worker and its live accounting (rendered as
/// `twl_fleet_worker_*` families on the metrics page).
#[derive(Debug)]
struct WorkerHandle {
    addr: String,
    slots: u64,
    inflight: AtomicI64,
    served: AtomicU64,
    failures: AtomicU64,
}

/// State shared by every coordinator thread.
#[derive(Debug)]
struct Shared {
    queue: Arc<JobQueue>,
    dispatcher: Dispatcher,
    cache: Option<CellCache>,
    workers: Mutex<Vec<Arc<WorkerHandle>>>,
    slot_threads: Mutex<Vec<JoinHandle<()>>>,
    connect_timeout: Duration,
    lease_timeout: Duration,
}

impl Shared {
    fn total_slots(&self) -> u64 {
        self.lock_workers().iter().map(|w| w.slots).sum()
    }

    fn lock_workers(&self) -> std::sync::MutexGuard<'_, Vec<Arc<WorkerHandle>>> {
        self.workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// A bound, not-yet-running coordinator.
#[derive(Debug)]
pub struct Coordinator {
    listener: TcpListener,
    shared: Arc<Shared>,
    idle_timeout: Option<Duration>,
    planners: usize,
}

impl Coordinator {
    /// Binds the listener, opens the cell cache, and registers the
    /// startup workers. A startup worker that cannot be reached is
    /// reported on stderr and skipped — it can join later via
    /// `register_worker` — so one dead host does not block the fleet.
    ///
    /// # Errors
    ///
    /// Propagates bind and cache-directory failures.
    pub fn bind(config: &FleetConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let cache = match &config.cache_dir {
            Some(dir) => Some(CellCache::open(dir, config.cache_max_bytes)?),
            None => None,
        };
        let shared = Arc::new(Shared {
            queue: Arc::new(JobQueue::new(config.queue_capacity, config.retry_after_ms)),
            dispatcher: Dispatcher::new(
                Duration::from_millis(config.steal_after_ms.max(1)),
                config.max_attempts,
            ),
            cache,
            workers: Mutex::new(Vec::new()),
            slot_threads: Mutex::new(Vec::new()),
            connect_timeout: Duration::from_millis(config.connect_timeout_ms.max(1)),
            lease_timeout: Duration::from_millis(config.lease_timeout_ms.max(1)),
        });
        for addr in &config.workers {
            if let Err(message) = register_worker(&shared, addr) {
                eprintln!("twl-coordinator: skipping startup worker {addr}: {message}");
            }
        }
        Ok(Self {
            listener,
            shared,
            idle_timeout: twl_service::idle_deadline(config.idle_timeout_ms),
            planners: config.planners.max(1),
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

    /// Runs the coordinator until a `shutdown` request completes its
    /// drain: planners finish their in-flight jobs, then the dispatcher
    /// releases the worker-slot threads.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures.
    pub fn run(self) -> io::Result<()> {
        let planner_handles: Vec<_> = (0..self.planners)
            .map(|_| {
                let shared = Arc::clone(&self.shared);
                thread::spawn(move || {
                    while let Some(job) = shared.queue.claim() {
                        run_fleet_job(&shared, job);
                    }
                })
            })
            .collect();

        let front = Arc::new(Front(Arc::clone(&self.shared)));
        serve(&self.listener, self.idle_timeout, &front)?;

        // Planners first (they still need workers to drain in-flight
        // jobs), then the dispatcher frees the slot threads.
        for handle in planner_handles {
            let _ = handle.join();
        }
        self.shared.dispatcher.begin_shutdown();
        let slot_threads: Vec<_> = {
            let mut guard = self
                .shared
                .slot_threads
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.drain(..).collect()
        };
        for handle in slot_threads {
            let _ = handle.join();
        }
        twl_telemetry::flush_sinks();
        Ok(())
    }
}

/// Registers a worker: probes it over `twl-wire/v1` (the `hello_ok`
/// advertises its slot count) and spawns one dispatch thread per slot.
/// Re-registering an already-known address is idempotent.
fn register_worker(shared: &Arc<Shared>, addr: &str) -> Result<u64, String> {
    if let Some(existing) = shared.lock_workers().iter().find(|w| w.addr == addr) {
        return Ok(existing.slots);
    }
    let client = Client::connect_with_timeouts(
        addr,
        Some(shared.connect_timeout),
        Some(shared.lease_timeout),
    )
    .map_err(|e| format!("cannot reach worker {addr}: {e}"))?;
    let slots = client.slots().unwrap_or(1).max(1);
    drop(client);
    let handle = Arc::new(WorkerHandle {
        addr: addr.to_owned(),
        slots,
        inflight: AtomicI64::new(0),
        served: AtomicU64::new(0),
        failures: AtomicU64::new(0),
    });
    shared.lock_workers().push(Arc::clone(&handle));
    counter!("twl.fleet.workers.registered").inc();
    gauge!("twl.fleet.workers.total").add(1);
    gauge!("twl.fleet.slots.total").add(i64::try_from(slots).unwrap_or(i64::MAX));
    let mut threads = shared
        .slot_threads
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    for _ in 0..slots {
        let shared = Arc::clone(shared);
        let handle = Arc::clone(&handle);
        threads.push(thread::spawn(move || slot_loop(&shared, &handle)));
    }
    Ok(slots)
}

/// One worker slot: holds (and re-dials as needed) a connection to its
/// worker and pumps dispatcher assignments through `run_cell` until
/// shutdown.
fn slot_loop(shared: &Shared, worker: &WorkerHandle) {
    let mut client: Option<Client> = None;
    let mut consecutive_failures: u32 = 0;
    while let Some(assignment) = shared.dispatcher.next() {
        worker.inflight.fetch_add(1, Ordering::Relaxed);
        gauge!("twl.fleet.cells.inflight").add(1);
        let outcome = run_assignment(shared, worker, &mut client, &assignment);
        gauge!("twl.fleet.cells.inflight").add(-1);
        worker.inflight.fetch_sub(1, Ordering::Relaxed);
        match outcome {
            Ok(()) => consecutive_failures = 0,
            Err(backoff_worthy) => {
                // Back off before claiming again so a dead worker's
                // slots do not hot-loop through the attempt budget
                // while live workers drain the queue.
                if backoff_worthy {
                    consecutive_failures = consecutive_failures.saturating_add(1);
                    let delay = 50u64 << consecutive_failures.min(5);
                    thread::sleep(Duration::from_millis(delay.min(2_000)));
                }
            }
        }
    }
}

/// Runs one assignment against the slot's worker. `Err(true)` means the
/// worker itself misbehaved (connect/transport failure — back off
/// before the next claim); `Ok(())` covers completion, saturation, and
/// lost races alike.
fn run_assignment(
    shared: &Shared,
    worker: &WorkerHandle,
    client: &mut Option<Client>,
    assignment: &Assignment,
) -> Result<(), bool> {
    let Assignment {
        job_id,
        cell,
        spec,
        key,
        ..
    } = assignment;
    if client.is_none() {
        match Client::connect_with_timeouts(
            &worker.addr,
            Some(shared.connect_timeout),
            Some(shared.lease_timeout),
        ) {
            Ok(fresh) => *client = Some(fresh),
            Err(e) => {
                worker.failures.fetch_add(1, Ordering::Relaxed);
                shared.dispatcher.fail_attempt(
                    *job_id,
                    *cell,
                    &format!("worker {}: {e}", worker.addr),
                );
                return Err(true);
            }
        }
    }
    let conn = client.as_mut().expect("connected above");
    match conn.run_cell(spec, *cell) {
        Ok(CellOutcome::Done {
            report,
            device_writes,
        }) => {
            worker.served.fetch_add(1, Ordering::Relaxed);
            // The cell is cached and recorded before the dispatcher
            // lets its job finish: a resubmission the moment the job
            // completes must hit the cache for every cell.
            let outcome = report.clone();
            let publish = move || {
                if let Some(cache) = &shared.cache {
                    // Best-effort durability: an unwritable cache disk
                    // costs future hits, never the in-flight job.
                    if let Err(e) = cache.put(
                        key,
                        &CachedCell {
                            report: report.clone(),
                            device_writes,
                        },
                    ) {
                        eprintln!("twl-coordinator: cannot cache cell {key}: {e}");
                    }
                }
                shared
                    .queue
                    .record_cell(*job_id, *cell, report, device_writes);
            };
            shared
                .dispatcher
                .complete(*job_id, *cell, outcome, device_writes, publish);
            Ok(())
        }
        Ok(CellOutcome::Saturated { retry_after_ms }) => {
            shared.dispatcher.release_saturated(*job_id, *cell);
            thread::sleep(Duration::from_millis(retry_after_ms.clamp(10, 1_000)));
            Ok(())
        }
        Err(e) => {
            // The connection is suspect (timed-out lease, dead peer,
            // protocol garbage): drop it and re-dial next time.
            *client = None;
            worker.failures.fetch_add(1, Ordering::Relaxed);
            shared
                .dispatcher
                .fail_attempt(*job_id, *cell, &format!("worker {}: {e}", worker.addr));
            Err(true)
        }
    }
}

/// Plans and awaits one claimed job: resolve every cell against the
/// cache, dispatch the misses, stream completions, and assemble the
/// final result (bit-identical to a single-node run, cells in matrix
/// order).
fn run_fleet_job(shared: &Shared, job: ClaimedJob) {
    let job_id = job.job_id;
    shared.queue.mark_running(job_id);
    if shared.lock_workers().is_empty() {
        shared.queue.finish(
            job_id,
            JobStatus::Failed,
            None,
            Some("no workers registered with the coordinator".to_owned()),
        );
        return;
    }
    let spec = Arc::new(job.spec);
    let total = spec.cell_count();
    // Key every cell before dispatching any: a cell that cannot be keyed
    // (a trace file that cannot be read) fails the job up front.
    let keys = match (0..total)
        .map(|index| CellKey::try_of(&spec, index))
        .collect::<Result<Vec<CellKey>, String>>()
    {
        Ok(keys) => keys,
        Err(message) => {
            shared
                .queue
                .finish(job_id, JobStatus::Failed, None, Some(message));
            return;
        }
    };
    let mut resolved: Vec<Option<Json>> = vec![None; total];
    let mut dispatched: Vec<u64> = Vec::new();
    for ((index, slot), key) in resolved.iter_mut().enumerate().zip(keys) {
        if job.cancel.load(Ordering::Relaxed) {
            break;
        }
        let cell = index as u64;
        let hit = shared.cache.as_ref().and_then(|cache| cache.get(&key));
        if let Some(hit) = hit {
            shared
                .queue
                .record_cell(job_id, cell, hit.report.clone(), hit.device_writes);
            *slot = Some(hit.report);
        } else {
            shared.dispatcher.enqueue(
                job_id,
                cell,
                Arc::clone(&spec),
                key,
                Arc::clone(&job.cancel),
            );
            dispatched.push(cell);
        }
    }
    match shared.dispatcher.wait_job(job_id, &dispatched, &job.cancel) {
        Ok(mut done) => {
            for (cell, (report, _)) in std::mem::take(&mut done) {
                resolved[usize::try_from(cell).expect("cell index fits usize")] = Some(report);
            }
            let reports: Vec<Json> = resolved
                .into_iter()
                .map(|r| r.expect("every cell resolved by cache or dispatch"))
                .collect();
            shared.queue.finish(
                job_id,
                JobStatus::Completed,
                Some(encode_result(spec.kind, reports)),
                None,
            );
        }
        Err(message) => {
            let status = if job.cancel.load(Ordering::Relaxed) {
                JobStatus::Cancelled
            } else {
                JobStatus::Failed
            };
            shared.queue.finish(job_id, status, None, Some(message));
        }
    }
}

/// Renders the scrape page: the shared registry + per-job families
/// (identical shape to `twl-serviced`), then one `twl_fleet_worker_*`
/// gauge row per registered worker.
fn render_fleet_metrics(shared: &Shared) -> String {
    let mut page = render_metrics_page(&shared.queue);
    let workers = shared.lock_workers();
    if workers.is_empty() {
        return page;
    }
    #[allow(clippy::cast_precision_loss)]
    let rows: Vec<(String, f64, f64, f64, f64)> = workers
        .iter()
        .map(|w| {
            (
                w.addr.clone(),
                w.slots as f64,
                w.inflight.load(Ordering::Relaxed) as f64,
                w.served.load(Ordering::Relaxed) as f64,
                w.failures.load(Ordering::Relaxed) as f64,
            )
        })
        .collect();
    drop(workers);
    let mut w = PromWriter::new();
    for (name, pick) in [
        ("twl_fleet_worker_slots", 0usize),
        ("twl_fleet_worker_inflight", 1),
        ("twl_fleet_worker_cells_served", 2),
        ("twl_fleet_worker_failures", 3),
    ] {
        let samples: Vec<([(&str, &str); 1], f64)> = rows
            .iter()
            .map(|(addr, slots, inflight, served, failures)| {
                let value = match pick {
                    0 => *slots,
                    1 => *inflight,
                    2 => *served,
                    _ => *failures,
                };
                ([("worker", addr.as_str())], value)
            })
            .collect();
        let flat: Vec<(&[(&str, &str)], f64)> =
            samples.iter().map(|(l, v)| (l.as_slice(), *v)).collect();
        w.gauge_family(name, &flat);
    }
    page.push_str(&w.finish());
    page
}

/// The coordinator's side of the shared `twl-wire/v1` loop: jobs and
/// `register_worker` are served; `run_cell` is not (the coordinator
/// schedules cells, it does not execute them).
struct Front(Arc<Shared>);

impl WireHandler for Front {
    fn name(&self) -> &'static str {
        "twl-coordinator"
    }

    fn slots(&self) -> Option<u64> {
        Some(self.0.total_slots())
    }

    fn respond(&self, request: Request) -> Option<Reply<'_>> {
        match request {
            Request::RegisterWorker { addr } => {
                Some(Reply::Frame(match register_worker(&self.0, &addr) {
                    Ok(slots) => Response::WorkerOk { addr, slots },
                    Err(message) => Response::Error { message },
                }))
            }
            Request::RunCell { .. } => None,
            other => job_reply(&self.0.queue, None, other),
        }
    }

    fn metrics(&self) -> String {
        render_fleet_metrics(&self.0)
    }

    fn shutdown(&self) -> Response {
        self.0.queue.begin_shutdown();
        Response::ShutdownOk
    }

    fn shutting_down(&self) -> bool {
        self.0.queue.is_shutting_down()
    }
}

/// Prints the canonical "listening" line (parsed by tests and scripts
/// to discover a port-0 bind) and flushes stdout.
pub fn announce(addr: SocketAddr) {
    use std::io::Write as _;
    println!("twl-coordinator listening on {addr}");
    let _ = io::stdout().flush();
}
