//! `twl-serviced`: the simulation-as-a-service daemon.
//!
//! ```text
//! twl-serviced [--addr HOST:PORT] [--queue-depth N] [--workers N]
//!              [--checkpoint-dir DIR] [--checkpoint-interval-writes N]
//!              [--trace-dir DIR] [--retry-after-ms N] [--idle-timeout-ms N]
//! ```
//!
//! * `--addr` defaults to `127.0.0.1:7781`; port 0 picks a free port.
//!   The daemon prints `twl-serviced listening on <addr>` once bound.
//! * `--queue-depth` bounds *pending* jobs; submits beyond it are
//!   rejected with a retry-after hint (explicit backpressure).
//! * `--workers` sizes the job worker pool (default: `TWL_THREADS` or
//!   the machine's parallelism, like every in-process sweep).
//! * `--checkpoint-dir` enables durability: jobs are persisted at
//!   submit time, every `--checkpoint-interval-writes` device writes
//!   while running, and at each terminal transition; a restarted
//!   daemon resumes interrupted jobs with bit-identical results.
//! * `--trace-dir` routes each job's simulation telemetry into its own
//!   `job-<id>.trace.jsonl` (inspect with `twl-stats`).
//! * `--idle-timeout-ms` closes connections that sit idle between
//!   requests (default 300000; 0 disables), so a stalled or half-open
//!   peer cannot pin a connection thread indefinitely.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use twl_service::{Server, ServiceConfig};
use twl_telemetry::RoutingJsonlSink;

const USAGE: &str = "usage: twl-serviced [--addr HOST:PORT] [--queue-depth N] [--workers N] \
[--checkpoint-dir DIR] [--checkpoint-interval-writes N] [--trace-dir DIR] [--retry-after-ms N] \
[--idle-timeout-ms N]";

fn parse_args(args: &[String]) -> Result<(ServiceConfig, Option<PathBuf>), String> {
    let mut config = ServiceConfig::default();
    let mut trace_dir = None;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.to_owned(),
            "--queue-depth" => {
                config.queue_capacity = value("--queue-depth")?
                    .parse()
                    .map_err(|e| format!("bad --queue-depth: {e}"))?;
            }
            "--workers" => {
                config.workers = value("--workers")?
                    .parse()
                    .map_err(|e| format!("bad --workers: {e}"))?;
            }
            "--checkpoint-dir" => {
                config.checkpoint_dir = Some(PathBuf::from(value("--checkpoint-dir")?));
            }
            "--checkpoint-interval-writes" => {
                config.checkpoint_interval_writes = value("--checkpoint-interval-writes")?
                    .parse()
                    .map_err(|e| format!("bad --checkpoint-interval-writes: {e}"))?;
            }
            "--trace-dir" => trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--retry-after-ms" => {
                config.retry_after_ms = value("--retry-after-ms")?
                    .parse()
                    .map_err(|e| format!("bad --retry-after-ms: {e}"))?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --idle-timeout-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok((config, trace_dir))
}

fn run(args: &[String]) -> Result<(), String> {
    let (config, trace_dir) = parse_args(args)?;
    if let Some(dir) = trace_dir {
        let sink = RoutingJsonlSink::create(&dir)
            .map_err(|e| format!("cannot open trace dir {}: {e}", dir.display()))?;
        twl_telemetry::install_sink(sink);
        eprintln!("telemetry: per-job traces under {}", dir.display());
    }
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    twl_service::server::announce(addr);
    server.run().map_err(|e| format!("daemon failed: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
