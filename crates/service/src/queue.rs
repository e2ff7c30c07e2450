//! The bounded job queue and job registry.
//!
//! One `Mutex<State>` guards everything; two condvars split the
//! wake-ups: `takers` wakes workers waiting for work, `watchers` wakes
//! stream connections waiting for a job's next event. Backpressure is
//! explicit — a submit against a full queue is *rejected* with a
//! retry-after hint rather than blocking the connection, so a client
//! always learns the queue state in bounded time.
//!
//! `twl-serviced`'s workers take *cells*, not jobs
//! ([`JobQueue::claim_cell`]): an idle worker takes the next unclaimed
//! cell of the oldest started job that still has one, and starts the
//! next queued job only when no started job has, so jobs keep their
//! FIFO order while every worker helps with the oldest. The worker that
//! records a job's last outstanding cell is handed the job's
//! [`JobEnding`] and finishes it. The fleet coordinator's planners still
//! take whole jobs ([`JobQueue::claim`]); a queue serves one or the
//! other.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use twl_telemetry::json::Json;
use twl_telemetry::{counter, gauge};

use crate::job::JobSpec;
use crate::wire::{JobEvent, JobSnapshot};

/// Where a job is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// A worker is executing cells.
    Running,
    /// All cells finished; the result is available.
    Completed,
    /// A cell panicked (e.g. incompatible geometry) or execution hit an
    /// internal error.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobStatus {
    /// The wire/checkpoint label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Queued => "queued",
            Self::Running => "running",
            Self::Completed => "completed",
            Self::Failed => "failed",
            Self::Cancelled => "cancelled",
        }
    }

    /// Parses a wire/checkpoint label.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown label.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label {
            "queued" => Ok(Self::Queued),
            "running" => Ok(Self::Running),
            "completed" => Ok(Self::Completed),
            "failed" => Ok(Self::Failed),
            "cancelled" => Ok(Self::Cancelled),
            other => Err(format!("unknown job status `{other}`")),
        }
    }

    /// Whether the job can no longer change state.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(self, Self::Completed | Self::Failed | Self::Cancelled)
    }
}

/// Why a submit was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRejection {
    /// Human-readable reason (`queue full`, `daemon is shutting down`).
    pub reason: String,
    /// Suggested wait before retrying.
    pub retry_after_ms: u64,
}

/// Everything a worker needs to execute one claimed job.
#[derive(Debug)]
pub struct ClaimedJob {
    /// The job id.
    pub job_id: u64,
    /// The spec to run.
    pub spec: JobSpec,
    /// Cells already finished (non-empty when resuming from a
    /// checkpoint).
    pub completed_cells: BTreeMap<u64, Json>,
    /// Set by [`JobQueue::cancel`]; the executor checks it between
    /// cells.
    pub cancel: Arc<AtomicBool>,
    /// How long the job sat queued before this claim (for the
    /// queue-wait span and histogram; restored jobs count from the
    /// daemon restart, not the original submit).
    pub queued_for: Duration,
}

/// A started job, shared by every worker that runs one of its cells.
#[derive(Debug)]
pub struct RunningJob {
    /// The job id.
    pub job_id: u64,
    /// The spec to run.
    pub spec: JobSpec,
    /// When the job started (the wall-time histogram's origin).
    pub started: Instant,
    /// Version of the newest checkpoint written, if any.
    saved: Mutex<Option<u64>>,
}

impl RunningJob {
    /// Runs `save` under this job's checkpoint lock, unless a checkpoint
    /// at least as new as `version` was already written, and returns
    /// whether it ran. Mid-run checkpoints pass the number of cells they
    /// hold and the terminal one passes `u64::MAX`, so the saves of
    /// several workers land on disk in order and none overwrites the
    /// terminal checkpoint.
    pub fn save_in_order(&self, version: u64, save: impl FnOnce()) -> bool {
        let mut saved = self.saved.lock().unwrap_or_else(PoisonError::into_inner);
        if saved.is_some_and(|newest| newest >= version) {
            return false;
        }
        save();
        *saved = Some(version);
        true
    }
}

/// One unit of work from [`JobQueue::claim_cell`].
#[derive(Debug)]
pub struct CellTask {
    /// The job the work belongs to.
    pub job: Arc<RunningJob>,
    /// What to do.
    pub work: CellWork,
    /// Set when this claim started the job.
    pub start: Option<JobStart>,
}

/// What a [`CellTask`] asks of its worker.
#[derive(Debug)]
pub enum CellWork {
    /// Run this cell, then report it through [`JobQueue::complete_cell`].
    Run(usize),
    /// No cell of the job is left to run or running: finish the job.
    Finish(JobEnding),
}

/// What the worker that started a job learns about it.
#[derive(Debug)]
pub struct JobStart {
    /// How long the job sat queued (restored jobs count from the daemon
    /// restart, not the original submit).
    pub queued_for: Duration,
    /// Cells already finished (non-empty when resuming a checkpoint).
    pub completed_cells: BTreeMap<u64, Json>,
}

/// How a job ends once none of its cells is left to run or running.
#[derive(Debug)]
pub struct JobEnding {
    /// `Completed`, `Failed` or `Cancelled`.
    pub status: JobStatus,
    /// Every cell finished, by index.
    pub completed_cells: BTreeMap<u64, Json>,
    /// The failure message, unless the job completed.
    pub error: Option<String>,
}

/// What [`JobQueue::complete_cell`] hands back to the worker.
#[derive(Debug, Default)]
pub struct CellRecorded {
    /// The completed cells to checkpoint, when the job crossed its
    /// checkpoint interval with this cell.
    pub checkpoint: Option<BTreeMap<u64, Json>>,
    /// Set when this was the job's last outstanding cell: the caller
    /// finishes the job.
    pub ending: Option<JobEnding>,
}

/// The cell-level state of a job started by [`JobQueue::claim_cell`].
#[derive(Debug)]
struct CellRun {
    job: Arc<RunningJob>,
    /// Cells not yet handed out, highest index first (so `pop` walks
    /// the matrix in order).
    todo: Vec<usize>,
    in_flight: usize,
    failure: Option<String>,
    writes_since_checkpoint: u64,
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    status: JobStatus,
    cells_total: u64,
    completed_cells: BTreeMap<u64, Json>,
    result: Option<Json>,
    error: Option<String>,
    events: Vec<JobEvent>,
    cancel: Arc<AtomicBool>,
    submitted_at: Instant,
    started_at: Option<Instant>,
    last_cell_at: Option<Instant>,
    /// Cells finished by *this* run (resumed checkpoint cells excluded),
    /// the denominator the ETA extrapolates from.
    cells_run: u64,
    writes_done: u64,
    rate_wps: f64,
    run: Option<CellRun>,
}

impl JobEntry {
    fn new(spec: JobSpec, cells_total: u64) -> Self {
        Self {
            spec,
            status: JobStatus::Queued,
            cells_total,
            completed_cells: BTreeMap::new(),
            result: None,
            error: None,
            events: vec![JobEvent::Queued],
            cancel: Arc::new(AtomicBool::new(false)),
            submitted_at: Instant::now(),
            started_at: None,
            last_cell_at: None,
            cells_run: 0,
            writes_done: 0,
            rate_wps: 0.0,
            run: None,
        }
    }

    /// Moves the job to `Running`, starts its progress clock, and
    /// publishes the `Started` event.
    fn start(&mut self) {
        self.status = JobStatus::Running;
        self.started_at = Some(Instant::now());
        self.last_cell_at = None;
        self.cells_run = 0;
        self.events.push(JobEvent::Started);
    }

    /// Stores one finished cell, folds its device writes into the EWMA
    /// throughput, and publishes a progress-carrying `CellDone` event.
    #[allow(clippy::cast_precision_loss)]
    fn note_cell(&mut self, cell: u64, report: Json, device_writes: u64) {
        let now = Instant::now();
        let (scheme, workload) = self
            .spec
            .describe_cell(usize::try_from(cell).expect("cell index fits usize"));
        self.completed_cells.insert(cell, report);
        self.writes_done = self.writes_done.saturating_add(device_writes);
        // Instantaneous rate over this cell's interval, smoothed
        // exponentially so one slow cell doesn't whipsaw the ETA.
        let since = self.last_cell_at.or(self.started_at).unwrap_or(now);
        let dt = now.duration_since(since).as_secs_f64().max(1e-6);
        let inst = device_writes as f64 / dt;
        self.rate_wps = if self.cells_run == 0 {
            inst
        } else {
            0.7 * self.rate_wps + 0.3 * inst
        };
        self.last_cell_at = Some(now);
        self.cells_run += 1;
        let (writes_done, rate_wps, eta_ms) = self.progress();
        self.events.push(JobEvent::CellDone {
            cell,
            total: self.cells_total,
            scheme,
            workload,
            writes_done,
            rate_wps,
            eta_ms,
        });
    }

    /// The job's next piece of cell work, if it has one now: its next
    /// unclaimed cell, or its ending (see `take_ending`).
    fn next_work(&mut self) -> Option<(Arc<RunningJob>, CellWork)> {
        let run = self.run.as_mut()?;
        if let Some(index) = run.todo.pop() {
            run.in_flight += 1;
            return Some((Arc::clone(&run.job), CellWork::Run(index)));
        }
        self.take_ending()
            .map(|(job, ending)| (job, CellWork::Finish(ending)))
    }

    /// Once none of the job's cells is left to claim or running, closes
    /// its cell run and returns its ending.
    fn take_ending(&mut self) -> Option<(Arc<RunningJob>, JobEnding)> {
        if !self
            .run
            .as_ref()
            .is_some_and(|r| r.todo.is_empty() && r.in_flight == 0)
        {
            return None;
        }
        let run = self.run.take()?;
        let (status, error) = match run.failure {
            Some(message) => (JobStatus::Failed, Some(message)),
            None if self.completed_cells.len() as u64 == self.cells_total => {
                (JobStatus::Completed, None)
            }
            None => (JobStatus::Cancelled, Some("job cancelled".to_owned())),
        };
        let ending = JobEnding {
            status,
            completed_cells: self.completed_cells.clone(),
            error,
        };
        Some((run.job, ending))
    }

    /// The optional progress triple (writes, EWMA rate, ETA) for
    /// snapshots and `CellDone` events. All three stay `None` until a
    /// cell finishes, so pre-progress frames keep their old shape; the
    /// ETA additionally disappears once the job is terminal.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    fn progress(&self) -> (Option<u64>, Option<f64>, Option<u64>) {
        if self.cells_run == 0 {
            return (None, None, None);
        }
        let writes = Some(self.writes_done);
        // One decimal is plenty for a throughput readout and keeps the
        // JSON encoding short and stable.
        let rate = Some((self.rate_wps * 10.0).round() / 10.0);
        let eta = match (self.status, self.started_at) {
            (JobStatus::Running, Some(started)) => {
                let done = self.completed_cells.len() as u64;
                let remaining = self.cells_total.saturating_sub(done);
                if remaining == 0 {
                    None
                } else {
                    let elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
                    let per_cell_ms = elapsed_ms / self.cells_run as f64;
                    Some((per_cell_ms * remaining as f64).round() as u64)
                }
            }
            _ => None,
        };
        (writes, rate, eta)
    }

    fn snapshot(&self, job_id: u64) -> JobSnapshot {
        let (writes_done, rate_wps, eta_ms) = self.progress();
        JobSnapshot {
            job_id,
            kind: self.spec.kind.label().to_owned(),
            status: self.status.label().to_owned(),
            cells_done: self.completed_cells.len() as u64,
            cells_total: self.cells_total,
            writes_done,
            rate_wps,
            eta_ms,
            error: self.error.clone(),
        }
    }
}

#[derive(Debug)]
struct State {
    next_id: u64,
    pending: VecDeque<u64>,
    /// Jobs started by [`JobQueue::claim_cell`] whose ending has not
    /// been handed out yet, oldest first.
    started: VecDeque<u64>,
    jobs: BTreeMap<u64, JobEntry>,
    shutting_down: bool,
}

impl State {
    /// The next cell work of the oldest started job that has any.
    fn next_started_work(&mut self) -> Option<(Arc<RunningJob>, CellWork)> {
        let jobs = &mut self.jobs;
        let (position, work) = self.started.iter().enumerate().find_map(|(position, id)| {
            jobs.get_mut(id)
                .and_then(JobEntry::next_work)
                .map(|work| (position, work))
        })?;
        if matches!(work.1, CellWork::Finish(_)) {
            self.started.remove(position);
        }
        Some(work)
    }
}

/// The bounded job queue shared by connections and workers.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<State>,
    takers: Condvar,
    watchers: Condvar,
    capacity: usize,
    retry_after_ms: u64,
}

/// Terminal information handed to a stream once a job finishes.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// The terminal status.
    pub status: JobStatus,
    /// The result document, if the job completed.
    pub result: Option<Json>,
    /// The failure message, if it did not.
    pub error: Option<String>,
}

impl JobQueue {
    /// Creates a queue holding at most `capacity` pending jobs.
    #[must_use]
    pub fn new(capacity: usize, retry_after_ms: u64) -> Self {
        Self {
            state: Mutex::new(State {
                next_id: 1,
                pending: VecDeque::new(),
                started: VecDeque::new(),
                jobs: BTreeMap::new(),
                shutting_down: false,
            }),
            takers: Condvar::new(),
            watchers: Condvar::new(),
            capacity: capacity.max(1),
            retry_after_ms,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn publish_depth(state: &State) {
        let depth = i64::try_from(state.pending.len()).unwrap_or(i64::MAX);
        gauge!("twl.service.queue.depth").set(depth);
    }

    /// Enqueues a job.
    ///
    /// # Errors
    ///
    /// Rejects (without blocking) when the queue is full or the daemon
    /// is draining; the rejection carries a retry-after hint.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitRejection> {
        let mut state = self.lock();
        if state.shutting_down {
            counter!("twl.service.jobs.rejected").inc();
            return Err(SubmitRejection {
                reason: "daemon is shutting down".to_owned(),
                retry_after_ms: self.retry_after_ms,
            });
        }
        if state.pending.len() >= self.capacity {
            counter!("twl.service.jobs.rejected").inc();
            return Err(SubmitRejection {
                reason: format!("queue full ({} pending jobs)", state.pending.len()),
                retry_after_ms: self.retry_after_ms,
            });
        }
        let job_id = state.next_id;
        state.next_id += 1;
        let cells_total = spec.cell_count() as u64;
        state.jobs.insert(job_id, JobEntry::new(spec, cells_total));
        state.pending.push_back(job_id);
        counter!("twl.service.jobs.queued").inc();
        Self::publish_depth(&state);
        drop(state);
        self.takers.notify_one();
        self.watchers.notify_all();
        Ok(job_id)
    }

    /// Re-registers a job from a checkpoint at daemon start. Non-terminal
    /// jobs (queued or interrupted mid-run) are re-enqueued; terminal
    /// ones are registered so `status`/`stream` still answer for them.
    pub fn restore(
        &self,
        job_id: u64,
        spec: JobSpec,
        status: JobStatus,
        completed_cells: BTreeMap<u64, Json>,
        result: Option<Json>,
        error: Option<String>,
    ) {
        let mut state = self.lock();
        state.next_id = state.next_id.max(job_id + 1);
        let (status, requeue) = if status.is_terminal() {
            (status, false)
        } else {
            // A job that was `running` when the daemon died restarts as
            // queued; its completed cells are kept so only missing ones
            // re-run.
            (JobStatus::Queued, true)
        };
        let cells_total = spec.cell_count() as u64;
        let mut entry = JobEntry::new(spec, cells_total);
        entry.status = status;
        entry.completed_cells = completed_cells;
        entry.result = result;
        entry.error = error;
        if status.is_terminal() {
            entry.events.push(JobEvent::Finished {
                status: status.label().to_owned(),
            });
        }
        state.jobs.insert(job_id, entry);
        if requeue {
            state.pending.push_back(job_id);
            counter!("twl.service.jobs.queued").inc();
        }
        Self::publish_depth(&state);
        drop(state);
        self.takers.notify_one();
    }

    /// Blocks until a job is available and claims it whole, or returns
    /// `None` once the daemon is shutting down (queued jobs stay
    /// persisted; a planner never starts new work while draining). The
    /// fleet coordinator's planners claim this way.
    pub fn claim(&self) -> Option<ClaimedJob> {
        let mut state = self.lock();
        loop {
            if state.shutting_down {
                return None;
            }
            if let Some(job_id) = state.pending.pop_front() {
                Self::publish_depth(&state);
                let entry = state.jobs.get_mut(&job_id).expect("pending job exists");
                return Some(ClaimedJob {
                    job_id,
                    spec: entry.spec.clone(),
                    completed_cells: entry.completed_cells.clone(),
                    cancel: Arc::clone(&entry.cancel),
                    queued_for: entry.submitted_at.elapsed(),
                });
            }
            state = self
                .takers
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Blocks until there is cell work and claims it, or returns `None`
    /// once the daemon is shutting down and no started job has work
    /// left (a draining daemon finishes the jobs it started but starts
    /// no queued one).
    ///
    /// Work comes from the oldest started job that has any: its next
    /// unclaimed cell in matrix order, or its ending once none of its
    /// cells is left to claim or running. Only when no started job has
    /// work does the claim start the next queued job (moving it to
    /// `Running` and publishing `Started`), and then the task carries a
    /// [`JobStart`].
    pub fn claim_cell(&self) -> Option<CellTask> {
        let mut state = self.lock();
        let mut start = None;
        loop {
            if let Some((job, work)) = state.next_started_work() {
                drop(state);
                if start.is_some() {
                    // Idle workers can help with the new job's other cells.
                    self.takers.notify_all();
                    self.watchers.notify_all();
                }
                return Some(CellTask { job, work, start });
            }
            if state.shutting_down {
                return None;
            }
            if let Some(job_id) = state.pending.pop_front() {
                Self::publish_depth(&state);
                let entry = state.jobs.get_mut(&job_id).expect("pending job exists");
                entry.start();
                start = Some(JobStart {
                    queued_for: entry.submitted_at.elapsed(),
                    completed_cells: entry.completed_cells.clone(),
                });
                let total = usize::try_from(entry.cells_total).expect("cell count fits usize");
                let todo = (0..total)
                    .rev()
                    .filter(|&i| !entry.completed_cells.contains_key(&(i as u64)))
                    .collect();
                entry.run = Some(CellRun {
                    job: Arc::new(RunningJob {
                        job_id,
                        spec: entry.spec.clone(),
                        started: Instant::now(),
                        saved: Mutex::new(None),
                    }),
                    todo,
                    in_flight: 0,
                    failure: None,
                    writes_since_checkpoint: 0,
                });
                // No older started job has work, so the next pass hands
                // out this one's first cell (or, with every cell already
                // done, its ending).
                state.started.push_back(job_id);
                continue;
            }
            state = self
                .takers
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Records the outcome of a cell claimed through
    /// [`JobQueue::claim_cell`]: a report and its device writes, or the
    /// message of a cell that panicked (which fails the job: no further
    /// cell of it is handed out). With `checkpoint_every`, the job's
    /// device writes since its last checkpoint are counted, and the
    /// completed cells come back to be saved once they reach it. When
    /// this was the job's last outstanding cell, the job's ending comes
    /// back too, and the caller finishes the job.
    ///
    /// # Panics
    ///
    /// Panics if the job has no cell run (the cell was not claimed
    /// through [`JobQueue::claim_cell`]).
    pub fn complete_cell(
        &self,
        job_id: u64,
        cell: usize,
        outcome: Result<(Json, u64), String>,
        checkpoint_every: Option<u64>,
    ) -> CellRecorded {
        let mut state = self.lock();
        let entry = state.jobs.get_mut(&job_id).expect("claimed job exists");
        let run = entry.run.as_mut().expect("cell of a started job");
        run.in_flight -= 1;
        let mut recorded = CellRecorded::default();
        match outcome {
            Ok((report, device_writes)) => {
                run.writes_since_checkpoint += device_writes;
                let due =
                    checkpoint_every.is_some_and(|every| run.writes_since_checkpoint >= every);
                if due {
                    run.writes_since_checkpoint = 0;
                }
                entry.note_cell(cell as u64, report, device_writes);
                if due {
                    recorded.checkpoint = Some(entry.completed_cells.clone());
                }
            }
            Err(message) => {
                run.todo.clear();
                run.failure.get_or_insert(message);
            }
        }
        if let Some((_, ending)) = entry.take_ending() {
            state.started.retain(|&id| id != job_id);
            recorded.ending = Some(ending);
        }
        drop(state);
        self.watchers.notify_all();
        recorded
    }

    /// Marks a claimed job running, starts its progress clock, and
    /// publishes the `Started` event.
    pub fn mark_running(&self, job_id: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(&job_id) {
            entry.start();
        }
        drop(state);
        self.watchers.notify_all();
    }

    /// Records one finished cell (with the device writes it performed),
    /// folds the writes into the job's EWMA throughput, and publishes a
    /// progress-carrying `CellDone` event.
    pub fn record_cell(&self, job_id: u64, cell: u64, report: Json, device_writes: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(&job_id) {
            entry.note_cell(cell, report, device_writes);
        }
        drop(state);
        self.watchers.notify_all();
    }

    /// Publishes a `Checkpointed` event after the executor persisted
    /// progress (unless the job already finished, so `Finished` stays
    /// the last event).
    pub fn record_checkpoint(&self, job_id: u64, cells_done: u64) {
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(&job_id) {
            if !entry.status.is_terminal() {
                entry.events.push(JobEvent::Checkpointed { cells_done });
            }
        }
        drop(state);
        self.watchers.notify_all();
    }

    /// Moves a job to a terminal state and publishes `Finished`.
    ///
    /// # Panics
    ///
    /// Panics if `status` is not terminal.
    pub fn finish(
        &self,
        job_id: u64,
        status: JobStatus,
        result: Option<Json>,
        error: Option<String>,
    ) {
        assert!(status.is_terminal(), "finish needs a terminal status");
        let mut state = self.lock();
        if let Some(entry) = state.jobs.get_mut(&job_id) {
            entry.status = status;
            entry.result = result;
            entry.error = error;
            entry.events.push(JobEvent::Finished {
                status: status.label().to_owned(),
            });
        }
        drop(state);
        match status {
            JobStatus::Completed => counter!("twl.service.jobs.completed").inc(),
            JobStatus::Failed => counter!("twl.service.jobs.failed").inc(),
            JobStatus::Cancelled => counter!("twl.service.jobs.cancelled").inc(),
            JobStatus::Queued | JobStatus::Running => unreachable!("terminal asserted above"),
        }
        self.watchers.notify_all();
    }

    /// Requests cancellation. Queued jobs are finished as cancelled on
    /// the spot; running jobs get their flag set and no further cell of
    /// them is claimed (cells already running finish). Returns `None` for an unknown job and
    /// `Some(false)` for one already terminal.
    pub fn cancel(&self, job_id: u64) -> Option<bool> {
        let mut state = self.lock();
        let entry = state.jobs.get_mut(&job_id)?;
        match entry.status {
            JobStatus::Completed | JobStatus::Failed | JobStatus::Cancelled => Some(false),
            JobStatus::Running => {
                entry.cancel.store(true, Ordering::Relaxed);
                if let Some(run) = entry.run.as_mut() {
                    // No further cell is handed out; the job ends once
                    // its running cells report, or at the next claim if
                    // none is running.
                    run.todo.clear();
                    drop(state);
                    self.takers.notify_all();
                }
                Some(true)
            }
            JobStatus::Queued => {
                entry.cancel.store(true, Ordering::Relaxed);
                entry.status = JobStatus::Cancelled;
                entry.error = Some("job cancelled".to_owned());
                entry.events.push(JobEvent::Finished {
                    status: JobStatus::Cancelled.label().to_owned(),
                });
                state.pending.retain(|&id| id != job_id);
                counter!("twl.service.jobs.cancelled").inc();
                Self::publish_depth(&state);
                drop(state);
                self.watchers.notify_all();
                Some(true)
            }
        }
    }

    /// Snapshots one job (or all jobs, oldest first).
    #[must_use]
    pub fn snapshot(&self, job_id: Option<u64>) -> Vec<JobSnapshot> {
        let state = self.lock();
        match job_id {
            Some(id) => state
                .jobs
                .get(&id)
                .map(|e| vec![e.snapshot(id)])
                .unwrap_or_default(),
            None => state.jobs.iter().map(|(id, e)| e.snapshot(*id)).collect(),
        }
    }

    /// The job's spec and completed cells, for checkpointing a terminal
    /// transition the executor did not drive (queued-job cancellation).
    #[must_use]
    pub fn job_state(
        &self,
        job_id: u64,
    ) -> Option<(JobSpec, JobStatus, Option<Json>, Option<String>)> {
        let state = self.lock();
        state
            .jobs
            .get(&job_id)
            .map(|e| (e.spec.clone(), e.status, e.result.clone(), e.error.clone()))
    }

    /// Blocks until job `job_id` has events past `cursor` or reaches a
    /// terminal state, then returns the new events, the advanced
    /// cursor, and — once the cursor has drained all events of a
    /// terminal job — the terminal information. Returns `None` for an
    /// unknown job.
    #[must_use]
    pub fn next_events(
        &self,
        job_id: u64,
        cursor: usize,
    ) -> Option<(Vec<JobEvent>, usize, Option<Finished>)> {
        let mut state = self.lock();
        loop {
            let entry = state.jobs.get(&job_id)?;
            if entry.events.len() > cursor {
                let events: Vec<JobEvent> = entry.events[cursor..].to_vec();
                let new_cursor = entry.events.len();
                let done = entry.status.is_terminal().then(|| Finished {
                    status: entry.status,
                    result: entry.result.clone(),
                    error: entry.error.clone(),
                });
                return Some((events, new_cursor, done));
            }
            if entry.status.is_terminal() {
                return Some((
                    Vec::new(),
                    cursor,
                    Some(Finished {
                        status: entry.status,
                        result: entry.result.clone(),
                        error: entry.error.clone(),
                    }),
                ));
            }
            state = self
                .watchers
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Pending (not yet claimed) jobs.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.lock().pending.len()
    }

    /// Starts the drain: submits are rejected from now on and workers
    /// stop claiming; jobs already running finish normally.
    pub fn begin_shutdown(&self) {
        let mut state = self.lock();
        state.shutting_down = true;
        drop(state);
        self.takers.notify_all();
        self.watchers.notify_all();
    }

    /// Whether the drain has started.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.lock().shutting_down
    }

    /// The retry hint handed to rejected submitters.
    #[must_use]
    pub fn retry_after_ms(&self) -> u64 {
        self.retry_after_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_attacks::AttackKind;
    use twl_lifetime::{SchemeKind, SimLimits};
    use twl_pcm::PcmConfig;

    fn spec() -> JobSpec {
        JobSpec {
            kind: crate::job::JobKind::AttackMatrix,
            pcm: PcmConfig::scaled(64, 500, 3),
            limits: SimLimits::default(),
            schemes: vec![SchemeKind::Nowl.into()],
            attacks: vec![AttackKind::Repeat.into()],
            benchmarks: vec![],
            fault: None,
        }
    }

    fn four_cells() -> JobSpec {
        let mut spec = spec();
        spec.schemes = vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()];
        spec.attacks = vec![AttackKind::Repeat.into(), AttackKind::Scan.into()];
        spec
    }

    fn run_index(task: &CellTask) -> usize {
        match task.work {
            CellWork::Run(index) => index,
            CellWork::Finish(_) => panic!("expected a cell, got the job's ending"),
        }
    }

    fn done(queue: &JobQueue, task: &CellTask, every: Option<u64>) -> CellRecorded {
        let index = run_index(task);
        queue.complete_cell(
            task.job.job_id,
            index,
            Ok((twl_telemetry::json::int(index as u64), 10)),
            every,
        )
    }

    #[test]
    fn cell_claims_help_the_oldest_job_before_starting_the_next() {
        let queue = JobQueue::new(8, 100);
        let first = queue.submit(four_cells()).unwrap();
        let second = queue.submit(four_cells()).unwrap();
        let a = queue.claim_cell().unwrap();
        assert_eq!((a.job.job_id, run_index(&a)), (first, 0));
        assert!(a.start.is_some(), "the first claim starts the job");
        assert_eq!(queue.snapshot(Some(first))[0].status, "running");
        assert_eq!(queue.depth(), 1, "the second job is still queued");
        // Three more workers: all on the first job, in matrix order.
        let rest: Vec<CellTask> = (0..3).map(|_| queue.claim_cell().unwrap()).collect();
        for (task, want) in rest.iter().zip(1..) {
            assert_eq!((task.job.job_id, run_index(task)), (first, want));
            assert!(task.start.is_none());
        }
        // The first job has nothing left to claim: the next claim starts
        // the second one while the first job's cells still run.
        let b = queue.claim_cell().unwrap();
        assert_eq!((b.job.job_id, run_index(&b)), (second, 0));
        assert!(b.start.is_some());
        // Out-of-order completions; only the last one ends the job.
        for task in [&rest[2], &a, &rest[0]] {
            assert!(done(&queue, task, None).ending.is_none());
        }
        let ending = done(&queue, &rest[1], None)
            .ending
            .expect("last cell ends the job");
        assert_eq!(ending.status, JobStatus::Completed);
        assert_eq!(
            ending.completed_cells.keys().copied().collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
        assert_eq!(ending.error, None);
    }

    #[test]
    fn cancel_stops_cell_claims_and_ends_the_job_once_its_cells_report() {
        let queue = JobQueue::new(8, 100);
        let id = queue.submit(four_cells()).unwrap();
        let later = queue.submit(spec()).unwrap();
        let a = queue.claim_cell().unwrap();
        let b = queue.claim_cell().unwrap();
        assert_eq!(queue.cancel(id), Some(true));
        // No cell of the cancelled job is handed out after the cancel:
        // the next claim starts the next job instead.
        let c = queue.claim_cell().unwrap();
        assert_eq!(c.job.job_id, later);
        // The running cells still report; the last of them ends the job.
        assert!(done(&queue, &a, None).ending.is_none());
        let ending = done(&queue, &b, None)
            .ending
            .expect("ends the cancelled job");
        assert_eq!(ending.status, JobStatus::Cancelled);
        assert_eq!(ending.completed_cells.len(), 2);
        assert_eq!(ending.error.as_deref(), Some("job cancelled"));
    }

    #[test]
    fn cancel_between_cells_hands_the_ending_to_the_next_claim() {
        let queue = JobQueue::new(8, 100);
        let id = queue.submit(four_cells()).unwrap();
        let a = queue.claim_cell().unwrap();
        assert!(done(&queue, &a, None).ending.is_none());
        assert_eq!(queue.cancel(id), Some(true));
        let task = queue.claim_cell().unwrap();
        let CellWork::Finish(ending) = task.work else {
            panic!("expected the cancelled job's ending");
        };
        assert_eq!((task.job.job_id, ending.status), (id, JobStatus::Cancelled));
        // Handed out once: the queue is idle again.
        queue.begin_shutdown();
        assert!(queue.claim_cell().is_none());
    }

    #[test]
    fn a_failed_cell_fails_the_job_without_further_claims() {
        let queue = JobQueue::new(8, 100);
        let id = queue.submit(four_cells()).unwrap();
        let later = queue.submit(spec()).unwrap();
        let a = queue.claim_cell().unwrap();
        let b = queue.claim_cell().unwrap();
        let failed = queue.complete_cell(id, run_index(&a), Err("boom".to_owned()), None);
        assert!(failed.ending.is_none(), "cell 1 is still running");
        assert_eq!(queue.claim_cell().unwrap().job.job_id, later);
        let ending = done(&queue, &b, None).ending.expect("ends the failed job");
        assert_eq!(ending.status, JobStatus::Failed);
        assert_eq!(ending.error.as_deref(), Some("boom"));
    }

    #[test]
    fn resumed_cells_are_skipped_and_checkpoints_follow_the_interval() {
        let queue = JobQueue::new(8, 100);
        let mut cells = BTreeMap::new();
        cells.insert(1u64, Json::Null);
        queue.restore(3, four_cells(), JobStatus::Running, cells, None, None);
        let claims: Vec<CellTask> = (0..3).map(|_| queue.claim_cell().unwrap()).collect();
        let indices: Vec<usize> = claims.iter().map(run_index).collect();
        assert_eq!(indices, vec![0, 2, 3], "cell 1 came from the checkpoint");
        assert_eq!(claims[0].start.as_ref().unwrap().completed_cells.len(), 1);
        // Every 20 device writes: each cell reports 10.
        assert!(done(&queue, &claims[0], Some(20)).checkpoint.is_none());
        let due = done(&queue, &claims[1], Some(20))
            .checkpoint
            .expect("interval crossed");
        assert_eq!(due.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
        let last = done(&queue, &claims[2], Some(20));
        assert!(last.checkpoint.is_none());
        assert_eq!(last.ending.unwrap().status, JobStatus::Completed);

        // A resumed job with every cell done ends at its first claim.
        let mut all = BTreeMap::new();
        all.insert(0u64, Json::Null);
        queue.restore(9, spec(), JobStatus::Running, all, None, None);
        let task = queue.claim_cell().unwrap();
        assert!(task.start.is_some());
        assert!(matches!(
            task.work,
            CellWork::Finish(JobEnding {
                status: JobStatus::Completed,
                ..
            })
        ));
    }

    #[test]
    fn checkpoints_save_in_order() {
        let queue = JobQueue::new(8, 100);
        queue.submit(spec()).unwrap();
        let task = queue.claim_cell().unwrap();
        let job = &task.job;
        assert!(job.save_in_order(2, || {}));
        assert!(!job.save_in_order(1, || panic!("an older save must not run")));
        assert!(job.save_in_order(u64::MAX, || {}));
        assert!(!job.save_in_order(3, || panic!("nothing overwrites the terminal save")));
    }

    #[test]
    fn draining_workers_finish_started_jobs_but_start_none() {
        let queue = JobQueue::new(8, 100);
        let id = queue.submit(four_cells()).unwrap();
        queue.submit(spec()).unwrap();
        let a = queue.claim_cell().unwrap();
        queue.begin_shutdown();
        let rest: Vec<CellTask> = (0..3).map(|_| queue.claim_cell().unwrap()).collect();
        assert!(rest.iter().all(|t| t.job.job_id == id));
        assert!(queue.claim_cell().is_none(), "the queued job stays queued");
        for task in rest.iter().chain([&a]) {
            done(&queue, task, None);
        }
        assert_eq!(queue.depth(), 1);
    }

    #[test]
    fn full_queue_rejects_with_retry_hint() {
        let queue = JobQueue::new(2, 250);
        assert!(queue.submit(spec()).is_ok());
        assert!(queue.submit(spec()).is_ok());
        let rejection = queue.submit(spec()).unwrap_err();
        assert!(rejection.reason.contains("queue full"));
        assert_eq!(rejection.retry_after_ms, 250);
        assert_eq!(queue.depth(), 2);
    }

    #[test]
    fn claim_drains_fifo_and_finish_publishes_result() {
        let queue = JobQueue::new(8, 100);
        let first = queue.submit(spec()).unwrap();
        let second = queue.submit(spec()).unwrap();
        let claimed = queue.claim().unwrap();
        assert_eq!(claimed.job_id, first);
        queue.mark_running(first);
        queue.finish(first, JobStatus::Completed, Some(Json::Null), None);
        let (_, _, done) = queue.next_events(first, 0).unwrap();
        assert_eq!(done.unwrap().status, JobStatus::Completed);
        assert_eq!(queue.claim().unwrap().job_id, second);
    }

    #[test]
    fn shutdown_rejects_submits_and_stops_claims() {
        let queue = JobQueue::new(8, 100);
        queue.submit(spec()).unwrap();
        queue.begin_shutdown();
        assert!(queue
            .submit(spec())
            .unwrap_err()
            .reason
            .contains("shutting down"));
        // Even with a pending job, claims stop: queued work is persisted,
        // not started, during a drain.
        assert!(queue.claim().is_none());
    }

    #[test]
    fn cancel_dequeues_queued_jobs() {
        let queue = JobQueue::new(8, 100);
        let id = queue.submit(spec()).unwrap();
        assert_eq!(queue.cancel(id), Some(true));
        assert_eq!(queue.depth(), 0);
        assert_eq!(queue.cancel(id), Some(false));
        assert_eq!(queue.cancel(999), None);
        let snap = queue.snapshot(Some(id));
        assert_eq!(snap[0].status, "cancelled");
    }

    #[test]
    fn restore_requeues_interrupted_jobs_and_keeps_terminal_ones() {
        let queue = JobQueue::new(8, 100);
        let mut cells = BTreeMap::new();
        cells.insert(0u64, Json::Null);
        queue.restore(5, spec(), JobStatus::Running, cells.clone(), None, None);
        queue.restore(
            6,
            spec(),
            JobStatus::Completed,
            cells,
            Some(Json::Null),
            None,
        );
        // Interrupted job 5 is queued again with its progress intact.
        let claimed = queue.claim().unwrap();
        assert_eq!(claimed.job_id, 5);
        assert_eq!(claimed.completed_cells.len(), 1);
        // Terminal job 6 is queryable but not runnable.
        assert_eq!(queue.snapshot(Some(6))[0].status, "completed");
        assert_eq!(queue.depth(), 0);
        // New ids keep counting past the restored ones.
        assert_eq!(queue.submit(spec()).unwrap(), 7);
    }

    #[test]
    fn progress_appears_once_cells_complete() {
        let queue = JobQueue::new(8, 100);
        let mut two_cells = spec();
        two_cells.attacks = vec![AttackKind::Repeat.into(), AttackKind::Scan.into()];
        let id = queue.submit(two_cells).unwrap();

        // Queued: no progress fields yet (old snapshot shape).
        let snap = &queue.snapshot(Some(id))[0];
        assert_eq!(snap.writes_done, None);
        assert_eq!(snap.rate_wps, None);
        assert_eq!(snap.eta_ms, None);

        let claimed = queue.claim().unwrap();
        assert!(claimed.queued_for.as_nanos() > 0);
        queue.mark_running(id);
        queue.record_cell(id, 0, Json::Null, 5_000);

        // Running with 1 of 2 cells done: all three fields live.
        let snap = &queue.snapshot(Some(id))[0];
        assert_eq!(snap.writes_done, Some(5_000));
        assert!(snap.rate_wps.unwrap() > 0.0);
        assert!(snap.eta_ms.is_some(), "one cell remains, so an ETA exists");
        let JobEvent::CellDone {
            writes_done,
            rate_wps,
            ..
        } = queue.next_events(id, 2).unwrap().0[0].clone()
        else {
            panic!("expected the CellDone event");
        };
        assert_eq!(writes_done, Some(5_000));
        assert!(rate_wps.unwrap() > 0.0);

        queue.record_cell(id, 1, Json::Null, 7_000);
        queue.finish(id, JobStatus::Completed, Some(Json::Null), None);

        // Terminal: the total sticks, the ETA is gone.
        let snap = &queue.snapshot(Some(id))[0];
        assert_eq!(snap.writes_done, Some(12_000));
        assert_eq!(snap.eta_ms, None);
    }

    #[test]
    fn streams_see_events_in_order_across_threads() {
        let queue = Arc::new(JobQueue::new(8, 100));
        let id = queue.submit(spec()).unwrap();
        let watcher = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || {
                let mut cursor = 0;
                let mut seen = Vec::new();
                loop {
                    let (events, next, done) = queue.next_events(id, cursor).unwrap();
                    seen.extend(events);
                    cursor = next;
                    if done.is_some() {
                        return seen;
                    }
                }
            })
        };
        queue.mark_running(id);
        queue.record_cell(id, 0, Json::Null, 1_000);
        queue.finish(id, JobStatus::Completed, Some(Json::Null), None);
        let seen = watcher.join().unwrap();
        assert_eq!(seen[0], JobEvent::Queued);
        assert_eq!(seen[1], JobEvent::Started);
        assert!(matches!(seen[2], JobEvent::CellDone { cell: 0, .. }));
        assert!(matches!(seen.last(), Some(JobEvent::Finished { .. })));
    }
}
