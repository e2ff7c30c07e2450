//! The `twl-wire/v1` request/response schema.
//!
//! Frames are the length-prefixed JSON documents of [`crate::framing`];
//! this module gives them types. Every frame is an object with a
//! `"type"` discriminant. The protocol is versioned through the
//! `hello` handshake: a client opens with
//! `{"type":"hello","proto":"twl-wire/v1"}` and the daemon refuses
//! mismatched versions before any other traffic.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use twl_telemetry::json::{int, num, str, Json};

use crate::job::{req_str, req_u64, JobSpec};

/// Inserts `key` only when the value is present — optional fields are
/// *omitted*, not nulled, so documents written before the field existed
/// re-encode byte-identically.
fn opt_insert(obj: &mut Json, key: &str, value: Option<Json>) {
    if let (Json::Obj(map), Some(v)) = (obj, value) {
        map.insert(key.to_owned(), v);
    }
}

fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(f) => f
            .as_f64()
            .map(Some)
            .ok_or_else(|| format!("non-numeric `{key}`")),
    }
}

/// The protocol version this crate speaks.
pub const PROTOCOL: &str = "twl-wire/v1";

/// A client-to-daemon frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Version handshake; must be the first frame on a connection.
    Hello {
        /// The protocol version the client speaks.
        proto: String,
    },
    /// Enqueue a job.
    Submit {
        /// The job to run.
        spec: JobSpec,
    },
    /// Snapshot one job (or all jobs) without blocking.
    Status {
        /// Restrict to one job; `None` lists everything.
        job_id: Option<u64>,
    },
    /// Follow one job's progress events until it finishes.
    Stream {
        /// The job to follow.
        job_id: u64,
    },
    /// Ask a queued or running job to stop.
    Cancel {
        /// The job to cancel.
        job_id: u64,
    },
    /// Fetch a Prometheus text-format snapshot of the daemon's metrics
    /// registry and per-job progress gauges.
    Metrics,
    /// Execute exactly one matrix cell of `spec` and return its encoded
    /// report — the fleet coordinator's worker interface. A plain
    /// daemon serves it inline; saturation comes back as `rejected`.
    RunCell {
        /// The job the cell belongs to.
        spec: JobSpec,
        /// The cell index in matrix order.
        cell: u64,
    },
    /// Add a worker daemon to the fleet (coordinator only). A plain
    /// `twl-serviced` answers with an `error` frame and keeps serving.
    RegisterWorker {
        /// The worker's `host:port`.
        addr: String,
    },
    /// Drain in-flight jobs, persist queued ones, and exit.
    Shutdown,
}

impl Request {
    /// The request's `type` tag on the wire.
    #[must_use]
    pub fn type_name(&self) -> &'static str {
        match self {
            Self::Hello { .. } => "hello",
            Self::Submit { .. } => "submit",
            Self::Status { .. } => "status",
            Self::Stream { .. } => "stream",
            Self::Cancel { .. } => "cancel",
            Self::Metrics => "metrics",
            Self::RunCell { .. } => "run_cell",
            Self::RegisterWorker { .. } => "register_worker",
            Self::Shutdown => "shutdown",
        }
    }

    /// Encodes the request as a frame body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Self::Hello { proto } => Json::obj([("type", str("hello")), ("proto", str(proto))]),
            Self::Submit { spec } => Json::obj([("type", str("submit")), ("spec", spec.to_json())]),
            Self::Status { job_id } => match job_id {
                Some(id) => Json::obj([("type", str("status")), ("job_id", int(*id))]),
                None => Json::obj([("type", str("status"))]),
            },
            Self::Stream { job_id } => {
                Json::obj([("type", str("stream")), ("job_id", int(*job_id))])
            }
            Self::Cancel { job_id } => {
                Json::obj([("type", str("cancel")), ("job_id", int(*job_id))])
            }
            Self::Metrics => Json::obj([("type", str("metrics"))]),
            Self::RunCell { spec, cell } => Json::obj([
                ("type", str("run_cell")),
                ("spec", spec.to_json()),
                ("cell", int(*cell)),
            ]),
            Self::RegisterWorker { addr } => {
                Json::obj([("type", str("register_worker")), ("addr", str(addr))])
            }
            Self::Shutdown => Json::obj([("type", str("shutdown"))]),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem (unknown type, missing
    /// field, malformed spec).
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match req_str(v, "type")? {
            "hello" => Ok(Self::Hello {
                proto: req_str(v, "proto")?.to_owned(),
            }),
            "submit" => Ok(Self::Submit {
                spec: JobSpec::from_json(v.get("spec").ok_or("submit is missing `spec`")?)?,
            }),
            "status" => Ok(Self::Status {
                job_id: match v.get("job_id") {
                    None | Some(Json::Null) => None,
                    Some(id) => Some(id.as_u64().ok_or("non-integer `job_id`")?),
                },
            }),
            "stream" => Ok(Self::Stream {
                job_id: req_u64(v, "job_id")?,
            }),
            "cancel" => Ok(Self::Cancel {
                job_id: req_u64(v, "job_id")?,
            }),
            "metrics" => Ok(Self::Metrics),
            "run_cell" => Ok(Self::RunCell {
                spec: JobSpec::from_json(v.get("spec").ok_or("run_cell is missing `spec`")?)?,
                cell: req_u64(v, "cell")?,
            }),
            "register_worker" => Ok(Self::RegisterWorker {
                addr: req_str(v, "addr")?.to_owned(),
            }),
            "shutdown" => Ok(Self::Shutdown),
            other => Err(format!("unknown request type `{other}`")),
        }
    }
}

/// A point-in-time view of one job, as reported by `status`.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSnapshot {
    /// The job's daemon-assigned id.
    pub job_id: u64,
    /// The job kind label.
    pub kind: String,
    /// `queued`, `running`, `completed`, `failed`, or `cancelled`.
    pub status: String,
    /// Matrix cells finished so far.
    pub cells_done: u64,
    /// Total matrix cells.
    pub cells_total: u64,
    /// Device writes completed so far; absent until the job has run at
    /// least one cell (and on frames from daemons that predate it).
    pub writes_done: Option<u64>,
    /// Smoothed (EWMA) device-write throughput in writes/s; same
    /// presence rules as `writes_done`.
    pub rate_wps: Option<f64>,
    /// Estimated milliseconds until the job finishes; absent when no
    /// estimate exists (not started, finished, or pre-PR-6 daemon).
    pub eta_ms: Option<u64>,
    /// The failure message, if the job failed.
    pub error: Option<String>,
}

impl JobSnapshot {
    fn to_json(&self) -> Json {
        let mut obj = Json::obj([
            ("job_id", int(self.job_id)),
            ("kind", str(&self.kind)),
            ("status", str(&self.status)),
            ("cells_done", int(self.cells_done)),
            ("cells_total", int(self.cells_total)),
            ("error", self.error.as_deref().map_or(Json::Null, str)),
        ]);
        opt_insert(&mut obj, "writes_done", self.writes_done.map(int));
        opt_insert(&mut obj, "rate_wps", self.rate_wps.map(num));
        opt_insert(&mut obj, "eta_ms", self.eta_ms.map(int));
        obj
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        Ok(Self {
            job_id: req_u64(v, "job_id")?,
            kind: req_str(v, "kind")?.to_owned(),
            status: req_str(v, "status")?.to_owned(),
            cells_done: req_u64(v, "cells_done")?,
            cells_total: req_u64(v, "cells_total")?,
            writes_done: opt_u64(v, "writes_done")?,
            rate_wps: opt_f64(v, "rate_wps")?,
            eta_ms: opt_u64(v, "eta_ms")?,
            error: match v.get("error") {
                None | Some(Json::Null) => None,
                Some(e) => Some(e.as_str().ok_or("non-string `error`")?.to_owned()),
            },
        })
    }
}

/// One progress event on a streamed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent {
    /// The job entered the queue.
    Queued,
    /// A worker picked the job up.
    Started,
    /// One matrix cell finished.
    CellDone {
        /// Cell index in matrix order.
        cell: u64,
        /// Total cells in the matrix.
        total: u64,
        /// The cell's scheme label.
        scheme: String,
        /// The cell's workload name.
        workload: String,
        /// Cumulative device writes after this cell; absent on frames
        /// from daemons that predate progress reporting.
        writes_done: Option<u64>,
        /// Smoothed device-write throughput in writes/s.
        rate_wps: Option<f64>,
        /// Estimated milliseconds to job completion.
        eta_ms: Option<u64>,
    },
    /// Progress was persisted to the checkpoint directory.
    Checkpointed {
        /// Cells covered by the checkpoint.
        cells_done: u64,
    },
    /// The job reached a terminal state.
    Finished {
        /// The terminal status label.
        status: String,
    },
}

impl JobEvent {
    fn to_json(&self) -> Json {
        match self {
            Self::Queued => Json::obj([("what", str("queued"))]),
            Self::Started => Json::obj([("what", str("started"))]),
            Self::CellDone {
                cell,
                total,
                scheme,
                workload,
                writes_done,
                rate_wps,
                eta_ms,
            } => {
                let mut obj = Json::obj([
                    ("what", str("cell_done")),
                    ("cell", int(*cell)),
                    ("total", int(*total)),
                    ("scheme", str(scheme)),
                    ("workload", str(workload)),
                ]);
                opt_insert(&mut obj, "writes_done", writes_done.map(int));
                opt_insert(&mut obj, "rate_wps", rate_wps.map(num));
                opt_insert(&mut obj, "eta_ms", eta_ms.map(int));
                obj
            }
            Self::Checkpointed { cells_done } => Json::obj([
                ("what", str("checkpointed")),
                ("cells_done", int(*cells_done)),
            ]),
            Self::Finished { status } => {
                Json::obj([("what", str("finished")), ("status", str(status))])
            }
        }
    }

    fn from_json(v: &Json) -> Result<Self, String> {
        match req_str(v, "what")? {
            "queued" => Ok(Self::Queued),
            "started" => Ok(Self::Started),
            "cell_done" => Ok(Self::CellDone {
                cell: req_u64(v, "cell")?,
                total: req_u64(v, "total")?,
                scheme: req_str(v, "scheme")?.to_owned(),
                workload: req_str(v, "workload")?.to_owned(),
                writes_done: opt_u64(v, "writes_done")?,
                rate_wps: opt_f64(v, "rate_wps")?,
                eta_ms: opt_u64(v, "eta_ms")?,
            }),
            "checkpointed" => Ok(Self::Checkpointed {
                cells_done: req_u64(v, "cells_done")?,
            }),
            "finished" => Ok(Self::Finished {
                status: req_str(v, "status")?.to_owned(),
            }),
            other => Err(format!("unknown event `{other}`")),
        }
    }
}

/// A daemon-to-client frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The handshake succeeded.
    HelloOk {
        /// The protocol version the daemon speaks.
        proto: String,
        /// Parallel `run_cell` executions the daemon will accept;
        /// absent on frames from daemons that predate the fleet
        /// protocol (treat as unknown, not zero).
        slots: Option<u64>,
    },
    /// The job was queued.
    Submitted {
        /// The assigned job id.
        job_id: u64,
    },
    /// The queue is full (or draining); try again later.
    Rejected {
        /// Why the job was not queued.
        reason: String,
        /// Suggested wait before retrying.
        retry_after_ms: u64,
    },
    /// Status snapshots.
    StatusOk {
        /// One entry per known job, oldest first.
        jobs: Vec<JobSnapshot>,
    },
    /// One progress event on a streamed job.
    Event {
        /// The job the event belongs to.
        job_id: u64,
        /// The event.
        event: JobEvent,
    },
    /// A streamed job completed; this is the final frame.
    JobResult {
        /// The finished job.
        job_id: u64,
        /// The result document (`{"kind":...,"reports":[...]}`).
        result: Json,
    },
    /// A streamed job failed or was cancelled; this is the final frame.
    JobFailed {
        /// The failed job.
        job_id: u64,
        /// What went wrong.
        error: String,
    },
    /// Outcome of a cancel request.
    CancelOk {
        /// The targeted job.
        job_id: u64,
        /// `false` if the job had already reached a terminal state.
        cancelled: bool,
    },
    /// A Prometheus text-format metrics page.
    MetricsOk {
        /// The exposition page (text format v0.0.4).
        text: String,
    },
    /// One cell finished (reply to `run_cell`).
    CellOk {
        /// The cell index that ran.
        cell: u64,
        /// The encoded report (`f64`s round-trip bit-exactly).
        report: Json,
        /// Device writes the cell absorbed.
        device_writes: u64,
    },
    /// A worker joined the fleet (reply to `register_worker`).
    WorkerOk {
        /// The worker's `host:port` as registered.
        addr: String,
        /// The worker's advertised `run_cell` parallelism.
        slots: u64,
    },
    /// The daemon is draining and will exit.
    ShutdownOk,
    /// The request could not be served; the connection stays usable
    /// unless the error was a protocol violation.
    Error {
        /// What went wrong.
        message: String,
    },
}

impl Response {
    /// Encodes the response as a frame body.
    #[must_use]
    pub fn to_json(&self) -> Json {
        match self {
            Self::HelloOk { proto, slots } => {
                let mut obj = Json::obj([("type", str("hello_ok")), ("proto", str(proto))]);
                opt_insert(&mut obj, "slots", slots.map(int));
                obj
            }
            Self::Submitted { job_id } => {
                Json::obj([("type", str("submitted")), ("job_id", int(*job_id))])
            }
            Self::Rejected {
                reason,
                retry_after_ms,
            } => Json::obj([
                ("type", str("rejected")),
                ("reason", str(reason)),
                ("retry_after_ms", int(*retry_after_ms)),
            ]),
            Self::StatusOk { jobs } => Json::obj([
                ("type", str("status_ok")),
                (
                    "jobs",
                    Json::Arr(jobs.iter().map(JobSnapshot::to_json).collect()),
                ),
            ]),
            Self::Event { job_id, event } => Json::obj([
                ("type", str("event")),
                ("job_id", int(*job_id)),
                ("event", event.to_json()),
            ]),
            Self::JobResult { job_id, result } => Json::obj([
                ("type", str("result")),
                ("job_id", int(*job_id)),
                ("result", result.clone()),
            ]),
            Self::JobFailed { job_id, error } => Json::obj([
                ("type", str("job_failed")),
                ("job_id", int(*job_id)),
                ("error", str(error)),
            ]),
            Self::CancelOk { job_id, cancelled } => Json::obj([
                ("type", str("cancel_ok")),
                ("job_id", int(*job_id)),
                ("cancelled", Json::Bool(*cancelled)),
            ]),
            Self::MetricsOk { text } => {
                Json::obj([("type", str("metrics_ok")), ("text", str(text))])
            }
            Self::CellOk {
                cell,
                report,
                device_writes,
            } => Json::obj([
                ("type", str("cell_ok")),
                ("cell", int(*cell)),
                ("report", report.clone()),
                ("device_writes", int(*device_writes)),
            ]),
            Self::WorkerOk { addr, slots } => Json::obj([
                ("type", str("worker_ok")),
                ("addr", str(addr)),
                ("slots", int(*slots)),
            ]),
            Self::ShutdownOk => Json::obj([("type", str("shutdown_ok"))]),
            Self::Error { message } => {
                Json::obj([("type", str("error")), ("message", str(message))])
            }
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        match req_str(v, "type")? {
            "hello_ok" => Ok(Self::HelloOk {
                proto: req_str(v, "proto")?.to_owned(),
                slots: opt_u64(v, "slots")?,
            }),
            "submitted" => Ok(Self::Submitted {
                job_id: req_u64(v, "job_id")?,
            }),
            "rejected" => Ok(Self::Rejected {
                reason: req_str(v, "reason")?.to_owned(),
                retry_after_ms: req_u64(v, "retry_after_ms")?,
            }),
            "status_ok" => Ok(Self::StatusOk {
                jobs: v
                    .get("jobs")
                    .and_then(Json::as_arr)
                    .ok_or("status_ok is missing `jobs`")?
                    .iter()
                    .map(JobSnapshot::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "event" => Ok(Self::Event {
                job_id: req_u64(v, "job_id")?,
                event: JobEvent::from_json(v.get("event").ok_or("event frame missing `event`")?)?,
            }),
            "result" => Ok(Self::JobResult {
                job_id: req_u64(v, "job_id")?,
                result: v
                    .get("result")
                    .ok_or("result frame missing `result`")?
                    .clone(),
            }),
            "job_failed" => Ok(Self::JobFailed {
                job_id: req_u64(v, "job_id")?,
                error: req_str(v, "error")?.to_owned(),
            }),
            "cancel_ok" => Ok(Self::CancelOk {
                job_id: req_u64(v, "job_id")?,
                cancelled: match v.get("cancelled") {
                    Some(Json::Bool(b)) => *b,
                    _ => return Err("missing or non-boolean `cancelled`".into()),
                },
            }),
            "metrics_ok" => Ok(Self::MetricsOk {
                text: req_str(v, "text")?.to_owned(),
            }),
            "cell_ok" => Ok(Self::CellOk {
                cell: req_u64(v, "cell")?,
                report: v
                    .get("report")
                    .ok_or("cell_ok frame missing `report`")?
                    .clone(),
                device_writes: req_u64(v, "device_writes")?,
            }),
            "worker_ok" => Ok(Self::WorkerOk {
                addr: req_str(v, "addr")?.to_owned(),
                slots: req_u64(v, "slots")?,
            }),
            "shutdown_ok" => Ok(Self::ShutdownOk),
            "error" => Ok(Self::Error {
                message: req_str(v, "message")?.to_owned(),
            }),
            other => Err(format!("unknown response type `{other}`")),
        }
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
            pcm: PcmConfig::scaled(128, 2_000, 8),
            limits: SimLimits::default(),
            schemes: vec![SchemeKind::TwlSwp.into()],
            attacks: vec![AttackKind::Repeat.into()],
            benchmarks: vec![],
            fault: None,
        }
    }

    #[test]
    fn requests_round_trip() {
        let requests = [
            Request::Hello {
                proto: PROTOCOL.to_owned(),
            },
            Request::Submit { spec: spec() },
            Request::Status { job_id: None },
            Request::Status { job_id: Some(3) },
            Request::Stream { job_id: 5 },
            Request::Cancel { job_id: 5 },
            Request::Metrics,
            Request::RunCell {
                spec: spec(),
                cell: 3,
            },
            Request::RegisterWorker {
                addr: "127.0.0.1:7782".to_owned(),
            },
            Request::Shutdown,
        ];
        for req in requests {
            let text = req.to_json().to_compact();
            let back = Request::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let responses = [
            Response::HelloOk {
                proto: PROTOCOL.to_owned(),
                slots: None,
            },
            Response::HelloOk {
                proto: PROTOCOL.to_owned(),
                slots: Some(8),
            },
            Response::CellOk {
                cell: 2,
                report: Json::obj([("years", num(4.25))]),
                device_writes: 123_456,
            },
            Response::WorkerOk {
                addr: "127.0.0.1:7782".to_owned(),
                slots: 8,
            },
            Response::Submitted { job_id: 1 },
            Response::Rejected {
                reason: "queue full".to_owned(),
                retry_after_ms: 500,
            },
            Response::StatusOk {
                jobs: vec![
                    JobSnapshot {
                        job_id: 1,
                        kind: "attack_matrix".to_owned(),
                        status: "running".to_owned(),
                        cells_done: 2,
                        cells_total: 4,
                        writes_done: None,
                        rate_wps: None,
                        eta_ms: None,
                        error: None,
                    },
                    JobSnapshot {
                        job_id: 2,
                        kind: "attack_matrix".to_owned(),
                        status: "running".to_owned(),
                        cells_done: 2,
                        cells_total: 4,
                        writes_done: Some(1_500_000),
                        rate_wps: Some(125_000.5),
                        eta_ms: Some(12_000),
                        error: None,
                    },
                ],
            },
            Response::Event {
                job_id: 1,
                event: JobEvent::CellDone {
                    cell: 2,
                    total: 4,
                    scheme: "TWL_swp".to_owned(),
                    workload: "repeat".to_owned(),
                    writes_done: None,
                    rate_wps: None,
                    eta_ms: None,
                },
            },
            Response::Event {
                job_id: 2,
                event: JobEvent::CellDone {
                    cell: 2,
                    total: 4,
                    scheme: "TWL_swp".to_owned(),
                    workload: "repeat".to_owned(),
                    writes_done: Some(1_500_000),
                    rate_wps: Some(125_000.5),
                    eta_ms: Some(12_000),
                },
            },
            Response::MetricsOk {
                text: "# TYPE twl_service_queue_depth gauge\ntwl_service_queue_depth 0\n"
                    .to_owned(),
            },
            Response::Event {
                job_id: 1,
                event: JobEvent::Checkpointed { cells_done: 3 },
            },
            Response::JobResult {
                job_id: 1,
                result: Json::obj([("kind", str("attack_matrix"))]),
            },
            Response::JobFailed {
                job_id: 1,
                error: "boom".to_owned(),
            },
            Response::CancelOk {
                job_id: 1,
                cancelled: true,
            },
            Response::ShutdownOk,
            Response::Error {
                message: "nope".to_owned(),
            },
        ];
        for resp in responses {
            let text = resp.to_json().to_compact();
            let back = Response::from_json(&Json::parse(&text).unwrap()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn progress_fields_are_optional_and_omitted_when_absent() {
        // Frames exactly as a pre-PR-6 daemon wrote them: no
        // writes_done / rate_wps / eta_ms keys anywhere.
        let old_event =
            r#"{"cell":1,"scheme":"NOWL","total":4,"what":"cell_done","workload":"repeat"}"#;
        let event = JobEvent::from_json(&Json::parse(old_event).unwrap()).unwrap();
        assert!(matches!(
            event,
            JobEvent::CellDone {
                writes_done: None,
                rate_wps: None,
                eta_ms: None,
                ..
            }
        ));
        assert_eq!(event.to_json().to_compact(), old_event);

        let old_snapshot = concat!(
            r#"{"cells_done":2,"cells_total":4,"error":null,"#,
            r#""job_id":1,"kind":"attack_matrix","status":"running"}"#
        );
        let snap = JobSnapshot::from_json(&Json::parse(old_snapshot).unwrap()).unwrap();
        assert_eq!(snap.writes_done, None);
        assert_eq!(snap.rate_wps, None);
        assert_eq!(snap.eta_ms, None);
        assert_eq!(snap.to_json().to_compact(), old_snapshot);

        // A pre-fleet daemon's handshake has no `slots`; it decodes as
        // unknown capacity and re-encodes without the key.
        let old_hello = r#"{"proto":"twl-wire/v1","type":"hello_ok"}"#;
        let hello = Response::from_json(&Json::parse(old_hello).unwrap()).unwrap();
        assert_eq!(
            hello,
            Response::HelloOk {
                proto: PROTOCOL.to_owned(),
                slots: None,
            }
        );
        assert_eq!(hello.to_json().to_compact(), old_hello);
    }

    #[test]
    fn unknown_types_are_rejected() {
        let v = Json::obj([("type", str("frobnicate"))]);
        assert!(Request::from_json(&v).is_err());
        assert!(Response::from_json(&v).is_err());
        assert!(Request::from_json(&Json::Null).is_err());
    }
}
