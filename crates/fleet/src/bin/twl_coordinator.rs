//! `twl-coordinator`: the distributed sweep coordinator.
//!
//! ```text
//! twl-coordinator [--addr HOST:PORT] [--worker HOST:PORT]...
//!                 [--cache-dir DIR] [--cache-max-bytes N]
//!                 [--queue-depth N] [--retry-after-ms N]
//!                 [--idle-timeout-ms N] [--connect-timeout-ms N]
//!                 [--lease-timeout-ms N] [--steal-after-ms N]
//!                 [--max-attempts N] [--planners N]
//! ```
//!
//! * `--addr` defaults to `127.0.0.1:7791`; port 0 picks a free port.
//!   The coordinator prints `twl-coordinator listening on <addr>` once
//!   bound. Point an unchanged `twl-ctl` at this address.
//! * `--worker` (repeatable) registers a running `twl-serviced` at
//!   startup; more workers can join later with
//!   `twl-ctl register-worker`. A startup worker that is down is
//!   skipped with a warning, not fatal.
//! * `--cache-dir` enables the content-addressed cell cache: finished
//!   cell reports persist there keyed by their simulation inputs, so a
//!   resubmitted or overlapping sweep re-simulates nothing.
//!   `--cache-max-bytes` bounds it (default 256 MiB, LRU eviction).
//! * `--lease-timeout-ms` is the dispatch lease: a worker that has not
//!   answered a cell within it is presumed dead and the cell is
//!   re-dispatched (up to `--max-attempts` broken attempts, then the
//!   job reports a partial failure naming the lost cells).
//! * `--steal-after-ms` is the patience window before an idle slot
//!   duplicates a cell still in flight on a slow worker (first
//!   completion wins; cells are pure, so the race is safe).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use twl_fleet::{Coordinator, FleetConfig};

const USAGE: &str = "usage: twl-coordinator [--addr HOST:PORT] [--worker HOST:PORT]... \
[--cache-dir DIR] [--cache-max-bytes N] [--queue-depth N] [--retry-after-ms N] \
[--idle-timeout-ms N] [--connect-timeout-ms N] [--lease-timeout-ms N] [--steal-after-ms N] \
[--max-attempts N] [--planners N]";

fn parse_args(args: &[String]) -> Result<FleetConfig, String> {
    let mut config = FleetConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        fn num<T: std::str::FromStr>(name: &str, raw: &str) -> Result<T, String>
        where
            T::Err: std::fmt::Display,
        {
            raw.parse().map_err(|e| format!("bad {name}: {e}"))
        }
        match flag.as_str() {
            "--addr" => config.addr = value("--addr")?.to_owned(),
            "--worker" => config.workers.push(value("--worker")?.to_owned()),
            "--cache-dir" => config.cache_dir = Some(PathBuf::from(value("--cache-dir")?)),
            "--cache-max-bytes" => {
                config.cache_max_bytes = num("--cache-max-bytes", value("--cache-max-bytes")?)?;
            }
            "--queue-depth" => {
                config.queue_capacity = num("--queue-depth", value("--queue-depth")?)?;
            }
            "--retry-after-ms" => {
                config.retry_after_ms = num("--retry-after-ms", value("--retry-after-ms")?)?;
            }
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = num("--idle-timeout-ms", value("--idle-timeout-ms")?)?;
            }
            "--connect-timeout-ms" => {
                config.connect_timeout_ms =
                    num("--connect-timeout-ms", value("--connect-timeout-ms")?)?;
            }
            "--lease-timeout-ms" => {
                config.lease_timeout_ms = num("--lease-timeout-ms", value("--lease-timeout-ms")?)?;
            }
            "--steal-after-ms" => {
                config.steal_after_ms = num("--steal-after-ms", value("--steal-after-ms")?)?;
            }
            "--max-attempts" => {
                config.max_attempts = num("--max-attempts", value("--max-attempts")?)?;
            }
            "--planners" => config.planners = num("--planners", value("--planners")?)?,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    Ok(config)
}

fn run(args: &[String]) -> Result<(), String> {
    let config = parse_args(args)?;
    let coordinator =
        Coordinator::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = coordinator.local_addr().map_err(|e| e.to_string())?;
    twl_fleet::coordinator::announce(addr);
    coordinator
        .run()
        .map_err(|e| format!("coordinator failed: {e}"))
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
