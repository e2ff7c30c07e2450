//! The cell dispatcher: a shared work pool that shards matrix cells
//! across worker connections, duplicates cells stuck on slow workers
//! (work stealing), and re-dispatches cells whose worker died —
//! bounded by a per-cell attempt budget, after which the owning job
//! reports a partial failure naming the cells that never ran.
//!
//! Correctness rests on cell purity: a cell is a deterministic function
//! of `(spec, index)`, so racing duplicates are safe — the first
//! completion wins and every later one is discarded. The winner
//! publishes its report (cache, job record) before the cell counts as
//! finished, so a job that [`Dispatcher::wait_job`] returns has every
//! dispatched cell published.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use twl_service::JobSpec;
use twl_telemetry::counter;
use twl_telemetry::json::Json;

use crate::cellkey::CellKey;

/// At most this many simultaneous dispatches of one cell: the original
/// plus one stolen duplicate. More buys nothing — a third copy only
/// burns a slot the duplicate already covers.
const MAX_DUPLICATES: u32 = 2;

/// One cell handed to a worker-connection thread.
#[derive(Debug, Clone)]
pub struct Assignment {
    /// The owning job.
    pub job_id: u64,
    /// The cell index within the job's matrix.
    pub cell: u64,
    /// The job spec (shared, cells of one job reference one copy).
    pub spec: Arc<JobSpec>,
    /// The cell's content address (for the cache write-back).
    pub key: CellKey,
    /// Whether this dispatch duplicates one already in flight.
    pub stolen: bool,
}

#[derive(Debug)]
struct Task {
    spec: Arc<JobSpec>,
    key: CellKey,
    cancel: Arc<AtomicBool>,
    /// Failed attempts so far (saturation and steals do not count).
    attempts: u32,
    /// Dispatches currently in flight (1, or 2 with a stolen duplicate).
    dispatches: u32,
    /// When the oldest in-flight dispatch started (steal eligibility).
    started: Option<Instant>,
    /// A completion won and is publishing its report; the outcome
    /// follows once it is done. Nothing requeues or steals the cell
    /// meanwhile.
    publishing: bool,
    outcome: Option<Result<(Json, u64), String>>,
}

impl Task {
    /// Whether the cell has, or is about to have, its outcome.
    fn settled(&self) -> bool {
        self.publishing || self.outcome.is_some()
    }
}

#[derive(Debug)]
struct State {
    ready: VecDeque<(u64, u64)>,
    tasks: BTreeMap<(u64, u64), Task>,
    shutting_down: bool,
}

/// The shared dispatch pool (see the module docs).
#[derive(Debug)]
pub struct Dispatcher {
    state: Mutex<State>,
    /// Wakes worker-connection threads waiting for an assignment.
    work: Condvar,
    /// Wakes planners waiting for a job's cells to finish.
    finished: Condvar,
    steal_after: Duration,
    max_attempts: u32,
}

impl Dispatcher {
    /// Creates a dispatcher that duplicates cells in flight longer than
    /// `steal_after` and fails a cell after `max_attempts` broken
    /// dispatches.
    #[must_use]
    pub fn new(steal_after: Duration, max_attempts: u32) -> Self {
        Self {
            state: Mutex::new(State {
                ready: VecDeque::new(),
                tasks: BTreeMap::new(),
                shutting_down: false,
            }),
            work: Condvar::new(),
            finished: Condvar::new(),
            steal_after,
            max_attempts: max_attempts.max(1),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Queues one cell for remote execution.
    pub fn enqueue(
        &self,
        job_id: u64,
        cell: u64,
        spec: Arc<JobSpec>,
        key: CellKey,
        cancel: Arc<AtomicBool>,
    ) {
        let mut state = self.lock();
        state.tasks.insert(
            (job_id, cell),
            Task {
                spec,
                key,
                cancel,
                attempts: 0,
                dispatches: 0,
                started: None,
                publishing: false,
                outcome: None,
            },
        );
        state.ready.push_back((job_id, cell));
        drop(state);
        self.work.notify_one();
    }

    /// Blocks until a cell is available and claims it: a ready cell
    /// first, otherwise a steal of the longest-overdue in-flight cell.
    /// Returns `None` once the dispatcher is shutting down.
    pub fn next(&self) -> Option<Assignment> {
        let mut state = self.lock();
        loop {
            if state.shutting_down {
                return None;
            }
            // Drain cancelled cells without dispatching them.
            while let Some(id) = state.ready.pop_front() {
                let task = state.tasks.get_mut(&id).expect("ready task exists");
                if task.cancel.load(Ordering::Relaxed) {
                    if task.outcome.is_none() && task.dispatches == 0 {
                        task.outcome = Some(Err("job cancelled".to_owned()));
                        self.finished.notify_all();
                    }
                    continue;
                }
                task.dispatches += 1;
                task.started.get_or_insert_with(Instant::now);
                let assignment = Assignment {
                    job_id: id.0,
                    cell: id.1,
                    spec: Arc::clone(&task.spec),
                    key: task.key.clone(),
                    stolen: false,
                };
                counter!("twl.fleet.cells.dispatched").inc();
                return Some(assignment);
            }
            // Nothing ready: look for a steal — an unfinished cell that
            // has sat on one worker past the patience window.
            let now = Instant::now();
            let victim = state
                .tasks
                .iter()
                .filter(|(_, t)| {
                    !t.settled()
                        && t.dispatches >= 1
                        && t.dispatches < MAX_DUPLICATES
                        && !t.cancel.load(Ordering::Relaxed)
                        && t.started
                            .is_some_and(|s| now.duration_since(s) >= self.steal_after)
                })
                .min_by_key(|(_, t)| t.started)
                .map(|(&id, _)| id);
            if let Some(id) = victim {
                let task = state.tasks.get_mut(&id).expect("victim exists");
                task.dispatches += 1;
                let assignment = Assignment {
                    job_id: id.0,
                    cell: id.1,
                    spec: Arc::clone(&task.spec),
                    key: task.key.clone(),
                    stolen: true,
                };
                counter!("twl.fleet.cells.stolen").inc();
                return Some(assignment);
            }
            // Wake periodically so steal eligibility is re-checked even
            // when no new work arrives.
            let poll = self
                .steal_after
                .min(Duration::from_millis(500))
                .max(Duration::from_millis(10));
            state = self
                .work
                .wait_timeout(state, poll)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Records a finished dispatch. Only the first completion of a cell
    /// counts: it runs `publish` (the caller's cache write-back and job
    /// record) and only then makes the outcome visible to
    /// [`Dispatcher::wait_job`], so a finished job never has a cell
    /// still unpublished. Returns whether this completion won; late
    /// duplicates are discarded without calling `publish`.
    pub fn complete(
        &self,
        job_id: u64,
        cell: u64,
        report: Json,
        device_writes: u64,
        publish: impl FnOnce(),
    ) -> bool {
        {
            let mut state = self.lock();
            let Some(task) = state.tasks.get_mut(&(job_id, cell)) else {
                return false;
            };
            task.dispatches = task.dispatches.saturating_sub(1);
            if task.settled() {
                return false;
            }
            task.publishing = true;
        }
        // Outside the lock: publishing writes to disk, and the other
        // slots keep dispatching meanwhile.
        publish();
        let mut state = self.lock();
        // A cancel may have purged the job while the report published.
        if let Some(task) = state.tasks.get_mut(&(job_id, cell)) {
            task.outcome = Some(Ok((report, device_writes)));
            counter!("twl.fleet.cells.completed").inc();
        }
        drop(state);
        self.finished.notify_all();
        true
    }

    /// Records a broken dispatch (worker died, lease expired, transport
    /// error). Once no duplicate remains in flight the cell re-enters
    /// the ready queue, until the attempt budget runs out and the cell
    /// fails for good.
    pub fn fail_attempt(&self, job_id: u64, cell: u64, error: &str) {
        let mut state = self.lock();
        let Some(task) = state.tasks.get_mut(&(job_id, cell)) else {
            return;
        };
        task.dispatches = task.dispatches.saturating_sub(1);
        if task.settled() || task.dispatches > 0 {
            // A duplicate is still running (or the cell already
            // finished) — this broken dispatch costs nothing.
            return;
        }
        task.attempts += 1;
        task.started = None;
        if task.attempts >= self.max_attempts {
            counter!("twl.fleet.cells.failed").inc();
            task.outcome = Some(Err(format!(
                "cell {cell} failed after {} attempts: {error}",
                task.attempts
            )));
            drop(state);
            self.finished.notify_all();
        } else {
            counter!("twl.fleet.cells.retried").inc();
            state.ready.push_back((job_id, cell));
            drop(state);
            self.work.notify_one();
        }
    }

    /// Returns a dispatch the worker refused for saturation — not a
    /// failure, so the attempt budget is untouched; the cell simply
    /// re-enters the queue for the next free slot.
    pub fn release_saturated(&self, job_id: u64, cell: u64) {
        let mut state = self.lock();
        let Some(task) = state.tasks.get_mut(&(job_id, cell)) else {
            return;
        };
        task.dispatches = task.dispatches.saturating_sub(1);
        if task.settled() || task.dispatches > 0 {
            return;
        }
        task.started = None;
        counter!("twl.fleet.cells.saturated").inc();
        state.ready.push_back((job_id, cell));
        drop(state);
        self.work.notify_one();
    }

    /// Blocks until every listed cell of `job_id` has an outcome (or
    /// the job's cancel flag is raised), removes the job's tasks, and
    /// returns the collected reports — or the partial-failure message
    /// naming every cell that never produced one.
    ///
    /// # Errors
    ///
    /// Returns the combined failure message when any cell failed or the
    /// job was cancelled.
    pub fn wait_job(
        &self,
        job_id: u64,
        cells: &[u64],
        cancel: &AtomicBool,
    ) -> Result<BTreeMap<u64, (Json, u64)>, String> {
        let mut state = self.lock();
        loop {
            if cancel.load(Ordering::Relaxed) {
                // Purge the job's unfinished cells; in-flight duplicates
                // will find their task gone and discard their result.
                state.ready.retain(|&(job, _)| job != job_id);
                state.tasks.retain(|&(job, _), _| job != job_id);
                drop(state);
                self.work.notify_all();
                return Err("job cancelled".to_owned());
            }
            let pending = cells
                .iter()
                .any(|&cell| match state.tasks.get(&(job_id, cell)) {
                    Some(task) => task.outcome.is_none(),
                    None => false,
                });
            if !pending {
                let mut reports = BTreeMap::new();
                let mut failures = Vec::new();
                for &cell in cells {
                    match state.tasks.remove(&(job_id, cell)).and_then(|t| t.outcome) {
                        Some(Ok(done)) => {
                            reports.insert(cell, done);
                        }
                        Some(Err(message)) => failures.push(message),
                        None => failures.push(format!("cell {cell} was never dispatched")),
                    }
                }
                if failures.is_empty() {
                    return Ok(reports);
                }
                return Err(format!(
                    "{} of {} cells failed: {}",
                    failures.len(),
                    cells.len(),
                    failures.join("; ")
                ));
            }
            // A bounded wait so a cancel raised while nothing finishes
            // is still observed promptly.
            state = self
                .finished
                .wait_timeout(state, Duration::from_millis(100))
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// Stops the pool: `next` returns `None` to every worker thread.
    /// Call only after planners drained — in-flight jobs would
    /// otherwise starve.
    pub fn begin_shutdown(&self) {
        let mut state = self.lock();
        state.shutting_down = true;
        drop(state);
        self.work.notify_all();
        self.finished.notify_all();
    }

    /// Cells currently waiting for a worker slot.
    #[must_use]
    pub fn ready_depth(&self) -> usize {
        self.lock().ready.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_attacks::AttackKind;
    use twl_lifetime::{SchemeKind, SimLimits};
    use twl_pcm::PcmConfig;
    use twl_service::job::JobKind;

    fn spec() -> Arc<JobSpec> {
        Arc::new(JobSpec {
            kind: JobKind::AttackMatrix,
            pcm: PcmConfig::scaled(64, 500, 3),
            limits: SimLimits::default(),
            schemes: vec![SchemeKind::Nowl.into()],
            attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
            benchmarks: vec![],
            fault: None,
        })
    }

    fn enqueue_cell(d: &Dispatcher, job: u64, cell: u64) -> Arc<AtomicBool> {
        let cancel = Arc::new(AtomicBool::new(false));
        d.enqueue(
            job,
            cell,
            spec(),
            CellKey::of(&spec(), cell as usize),
            Arc::clone(&cancel),
        );
        cancel
    }

    #[test]
    fn complete_reports_first_dispatch_only() {
        let d = Dispatcher::new(Duration::from_secs(60), 3);
        enqueue_cell(&d, 1, 0);
        let a = d.next().unwrap();
        assert!(!a.stolen);
        assert!(
            d.complete(1, 0, Json::Null, 10, || {}),
            "first completion wins"
        );
        assert!(
            !d.complete(1, 0, Json::Null, 10, || panic!("duplicate published")),
            "duplicate discarded"
        );
        let done = d
            .wait_job(1, &[0], &AtomicBool::new(false))
            .expect("job completes");
        assert_eq!(done.get(&0), Some(&(Json::Null, 10)));
    }

    #[test]
    fn a_job_finishes_only_after_its_cells_published() {
        use std::sync::atomic::AtomicBool;
        use std::sync::mpsc;
        let d = Dispatcher::new(Duration::from_millis(1), 3);
        enqueue_cell(&d, 1, 0);
        d.next().unwrap();
        let published = AtomicBool::new(false);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel();
        let (d, published) = (&d, &published);
        std::thread::scope(|s| {
            // Owned here, so a failed assertion drops it and unblocks
            // the publisher instead of hanging the scope.
            let release_tx = release_tx;
            s.spawn(move || {
                d.complete(1, 0, Json::Null, 5, || {
                    started_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    published.store(true, Ordering::SeqCst);
                })
            });
            started_rx.recv().unwrap();
            // Mid-publish, the cell is neither stealable nor finished.
            assert!(d.lock().tasks[&(1, 0)].settled());
            s.spawn(move || {
                let done = d.wait_job(1, &[0], &AtomicBool::new(false));
                done_tx
                    .send((done, published.load(Ordering::SeqCst)))
                    .unwrap();
            });
            assert!(
                done_rx.recv_timeout(Duration::from_millis(100)).is_err(),
                "job finished while its cell was still publishing"
            );
            release_tx.send(()).unwrap();
            let (done, was_published) = done_rx.recv().unwrap();
            assert!(was_published, "job finished before publish returned");
            assert_eq!(done.unwrap().get(&0), Some(&(Json::Null, 5)));
        });
    }

    #[test]
    fn broken_dispatches_retry_then_fail_with_cell_names() {
        let d = Dispatcher::new(Duration::from_secs(60), 2);
        enqueue_cell(&d, 1, 1);
        for _ in 0..2 {
            let a = d.next().unwrap();
            assert_eq!((a.job_id, a.cell), (1, 1));
            d.fail_attempt(1, 1, "worker hung up");
        }
        let err = d
            .wait_job(1, &[1], &AtomicBool::new(false))
            .expect_err("attempt budget exhausted");
        assert!(err.contains("cell 1"), "failure names the cell: {err}");
        assert!(
            err.contains("worker hung up"),
            "failure keeps the cause: {err}"
        );
    }

    #[test]
    fn saturation_requeues_without_burning_attempts() {
        let d = Dispatcher::new(Duration::from_secs(60), 1);
        enqueue_cell(&d, 1, 0);
        // With a budget of one attempt, any counted failure would kill
        // the cell — saturation must not.
        for _ in 0..5 {
            let a = d.next().unwrap();
            d.release_saturated(a.job_id, a.cell);
        }
        let a = d.next().unwrap();
        assert!(d.complete(a.job_id, a.cell, Json::Null, 1, || {}));
        assert!(d.wait_job(1, &[0], &AtomicBool::new(false)).is_ok());
    }

    #[test]
    fn overdue_cells_are_stolen_and_first_completion_wins() {
        let d = Dispatcher::new(Duration::from_millis(1), 3);
        enqueue_cell(&d, 1, 0);
        let original = d.next().unwrap();
        assert!(!original.stolen);
        std::thread::sleep(Duration::from_millis(5));
        let duplicate = d.next().unwrap();
        assert!(duplicate.stolen, "overdue cell was not stolen");
        assert_eq!((duplicate.job_id, duplicate.cell), (1, 0));
        // The duplicate finishes first; the original's late failure
        // must not resurrect the cell.
        assert!(d.complete(1, 0, Json::Null, 7, || {}));
        d.fail_attempt(1, 0, "original worker timed out");
        let done = d.wait_job(1, &[0], &AtomicBool::new(false)).unwrap();
        assert_eq!(done.get(&0), Some(&(Json::Null, 7)));
    }

    #[test]
    fn cancel_drains_pending_cells() {
        let d = Dispatcher::new(Duration::from_secs(60), 3);
        let cancel = enqueue_cell(&d, 1, 0);
        cancel.store(true, Ordering::Relaxed);
        let err = d.wait_job(1, &[0], &cancel).expect_err("cancelled");
        assert!(err.contains("cancelled"));
        assert_eq!(d.ready_depth(), 0);
    }
}
