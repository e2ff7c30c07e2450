//! `twl-blk`: client CLI for `twl-blockd`.
//!
//! ```text
//! twl-blk drive  --addr HOST:PORT [--ops N] [--seed N]
//! twl-blk replay --trace FILE [--pages N] [--bytes-per-page N]
//!                [--endurance N] [--scheme SPEC] [--seed N]
//!                [--spare-fraction F] [--fault-seed N]
//! ```
//!
//! * `drive` connects as an NBD client and issues `--ops` operations of
//!   the deterministic mixed workload (seeded writes/reads/trims/
//!   flushes), then disconnects cleanly. The same generator backs the
//!   integration tests and the CI smoke job.
//! * `replay` rebuilds the wear pipeline offline from a captured
//!   `capture.trace` and prints the resulting wear state as
//!   `twl_blockdev_* <value>` lines — byte-identical to the matching
//!   gauge samples on a live daemon's metrics page, so equality is one
//!   `grep`-and-diff away.

#![forbid(unsafe_code)]

use std::fs::File;
use std::io::BufReader;
use std::path::PathBuf;
use std::process::ExitCode;

use twl_blockdev::{drive_mixed, GatewayConfig, NbdClient, WearGateway};
use twl_workloads::read_trace;

const USAGE: &str = "usage: twl-blk drive --addr HOST:PORT [--ops N] [--seed N]\n\
       twl-blk replay --trace FILE [--pages N] [--endurance N] [--scheme SPEC] \
[--seed N] [--spare-fraction F] [--fault-seed N]";

fn run_drive(args: &[String]) -> Result<(), String> {
    let mut addr = None;
    let mut ops = 2000u64;
    let mut seed = 1u64;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => addr = Some(value("--addr")?.to_owned()),
            "--ops" => {
                ops = value("--ops")?
                    .parse()
                    .map_err(|e| format!("bad --ops: {e}"))?
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let addr = addr.ok_or_else(|| format!("drive needs --addr\n{USAGE}"))?;
    let mut client =
        NbdClient::connect(addr.as_str()).map_err(|e| format!("cannot connect: {e}"))?;
    println!("connected: export of {} bytes", client.export_bytes());
    let report = drive_mixed(&mut client, ops, seed).map_err(|e| format!("drive failed: {e}"))?;
    client
        .disconnect()
        .map_err(|e| format!("disconnect failed: {e}"))?;
    println!(
        "drove {ops} ops (seed {seed}): {} writes ({} B), {} reads, {} trims, {} flushes, {} enospc",
        report.writes, report.bytes_written, report.reads, report.trims, report.flushes,
        report.enospc
    );
    Ok(())
}

fn run_replay(args: &[String]) -> Result<(), String> {
    let mut trace = None;
    let mut config = GatewayConfig::default();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--trace" => trace = Some(PathBuf::from(value("--trace")?)),
            "--pages" => {
                config.pages = value("--pages")?
                    .parse()
                    .map_err(|e| format!("bad --pages: {e}"))?;
            }
            "--endurance" => {
                config.mean_endurance = value("--endurance")?
                    .parse()
                    .map_err(|e| format!("bad --endurance: {e}"))?;
            }
            "--scheme" => {
                config.scheme = value("--scheme")?
                    .parse()
                    .map_err(|e| format!("bad --scheme: {e}"))?;
            }
            "--seed" => {
                config.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--spare-fraction" => {
                config.spare_fraction = value("--spare-fraction")?
                    .parse()
                    .map_err(|e| format!("bad --spare-fraction: {e}"))?;
            }
            "--fault-seed" => {
                config.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("bad --fault-seed: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    let trace = trace.ok_or_else(|| format!("replay needs --trace\n{USAGE}"))?;
    let file = File::open(&trace).map_err(|e| format!("cannot open {}: {e}", trace.display()))?;
    let cmds = read_trace(BufReader::new(file)).map_err(|e| format!("bad trace: {e}"))?;
    let gateway = WearGateway::replay(config, &cmds).map_err(|e| format!("replay failed: {e}"))?;
    let probe = gateway.probe();
    // The exact lines a live daemon's metrics page carries for these
    // gauges — diffable against a scrape with a single grep.
    println!("twl_blockdev_capture_cmds {}", probe.capture_len);
    println!("twl_blockdev_end_of_life {}", u8::from(probe.end_of_life));
    println!("twl_blockdev_pages_retired {}", probe.pages_retired);
    println!("twl_blockdev_spares_remaining {}", probe.spares_remaining);
    println!(
        "twl_blockdev_wear_device_writes {}",
        probe.stats.device_writes
    );
    println!(
        "twl_blockdev_wear_logical_writes {}",
        probe.stats.logical_writes
    );
    println!("twl_blockdev_wear_map_hash {}", probe.wear_map_hash);
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("drive") => run_drive(&args[1..]),
        Some("replay") => run_replay(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
