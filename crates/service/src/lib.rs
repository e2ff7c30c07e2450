#![warn(missing_docs)]

//! `twl-service`: simulation-as-a-service for the tossup-wl workspace.
//!
//! Two binaries and the library behind them:
//!
//! * **`twl-serviced`** — a std-only, multi-threaded TCP daemon that
//!   queues lifetime-simulation jobs (attack/workload/degradation
//!   matrices and single runs), executes them on a worker pool sized
//!   like the in-process sweeps (`TWL_THREADS` honored via
//!   [`twl_lifetime::pool`]), streams per-job progress, and checkpoints
//!   long jobs to disk so a killed daemon resumes with bit-identical
//!   results.
//! * **`twl-ctl`** — the client CLI: submit, watch, cancel, inspect,
//!   and shut down, with table or JSON output.
//!
//! The pieces, bottom-up:
//!
//! * [`framing`] — length-prefixed JSON frames with explicit
//!   closed/truncated/oversized error taxonomy.
//! * [`wire`] — the `twl-wire/v1` request/response schema.
//! * [`job`] — job specs, per-cell execution, and the report codecs
//!   whose `f64` fields round-trip bit-exactly (the foundation of the
//!   resume-equals-rerun guarantee).
//! * [`checkpoint`] — atomic per-job JSON files storing completed
//!   cells.
//! * [`queue`] — the bounded job queue with reject-based backpressure.
//! * [`net`] — the one `twl-wire/v1` server loop ([`serve`] over a
//!   [`WireHandler`]) shared by every daemon, and socket helpers.
//! * [`server`] / [`client`] — the daemon and its client.
//!
//! Telemetry: the daemon publishes `twl.service.*` counters (jobs
//! queued/completed/failed/cancelled/rejected), the shared loop's
//! `twl.wire.*` counters (connections, protocol errors, idle
//! timeouts), a queue-depth gauge, and a per-job wall-time histogram
//! through `twl-telemetry`; with `--trace-dir` each job's simulation
//! records land in their own `job-<id>.trace.jsonl` via the
//! scope-routed sink.

pub mod checkpoint;
pub mod client;
pub mod framing;
pub mod job;
pub mod net;
pub mod queue;
pub mod server;
pub mod wire;

pub use checkpoint::{write_atomic, Checkpoint, CheckpointDir, CHECKPOINT_SCHEMA};
pub use client::{CellOutcome, Client, ClientError, SubmitOutcome, BACKOFF_CAP_MS};
pub use framing::{read_frame, write_frame, FrameError, MAX_FRAME_BYTES};
pub use job::{decode_result, encode_result, JobKind, JobReports, JobSpec};
pub use net::{
    guard_frame_len, idle_deadline, is_idle_timeout, prepare_stream, serve, Reply, WireHandler,
};
pub use queue::{JobQueue, JobStatus, SubmitRejection};
pub use server::{
    job_reply, render_metrics_page, Server, ServiceConfig, EXIT_AFTER_CHECKPOINTS_ENV,
};
pub use wire::{JobEvent, JobSnapshot, Request, Response, PROTOCOL};
