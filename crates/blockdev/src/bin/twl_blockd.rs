//! `twl-blockd`: the NBD daemon serving a wear-leveled simulated PCM.
//!
//! ```text
//! twl-blockd [--addr HOST:PORT] [--control-addr HOST:PORT]
//!            [--pages N] [--bytes-per-page N] [--endurance N]
//!            [--scheme SPEC] [--seed N] [--spare-fraction F]
//!            [--fault-seed N] [--state-dir DIR] [--idle-timeout-ms N]
//! ```
//!
//! * `--addr` (default `127.0.0.1:10809`, the NBD IANA port) is the
//!   data port; `--control-addr` (default `127.0.0.1:7783`) speaks
//!   `twl-wire/v1` for `twl-ctl metrics` / `twl-top` / shutdown. Port 0
//!   picks a free port; the daemon prints
//!   `twl-blockd listening on <addr>` and
//!   `twl-blockd control on <addr>` once bound.
//! * `--scheme` takes any `SchemeSpec` label (`TWL_swp`,
//!   `SR[inner=5,outer=9]`, …); the export is `--pages` ×
//!   `--bytes-per-page` bytes.
//! * `--state-dir` enables persistence: FLUSH/disconnect/shutdown
//!   write `store.img` + `capture.trace` + `meta.json` atomically, and
//!   a restarted daemon restores the data image and replays the
//!   capture into a bit-identical wear state.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use twl_blockdev::{BlockServer, BlockdevConfig};

const USAGE: &str = "usage: twl-blockd [--addr HOST:PORT] [--control-addr HOST:PORT] \
[--pages N] [--bytes-per-page N] [--endurance N] [--scheme SPEC] [--seed N] \
[--spare-fraction F] [--fault-seed N] [--state-dir DIR] [--idle-timeout-ms N]";

struct Args {
    config: BlockdevConfig,
    addr: String,
    control_addr: String,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut config = BlockdevConfig::default();
    let mut addr = "127.0.0.1:10809".to_owned();
    let mut control_addr = "127.0.0.1:7783".to_owned();
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => addr = value("--addr")?.to_owned(),
            "--control-addr" => control_addr = value("--control-addr")?.to_owned(),
            "--pages" => {
                config.gateway.pages = value("--pages")?
                    .parse()
                    .map_err(|e| format!("bad --pages: {e}"))?;
            }
            "--bytes-per-page" => {
                config.bytes_per_page = value("--bytes-per-page")?
                    .parse()
                    .map_err(|e| format!("bad --bytes-per-page: {e}"))?;
            }
            "--endurance" => {
                config.gateway.mean_endurance = value("--endurance")?
                    .parse()
                    .map_err(|e| format!("bad --endurance: {e}"))?;
            }
            "--scheme" => {
                config.gateway.scheme = value("--scheme")?
                    .parse()
                    .map_err(|e| format!("bad --scheme: {e}"))?;
            }
            "--seed" => {
                config.gateway.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--spare-fraction" => {
                config.gateway.spare_fraction = value("--spare-fraction")?
                    .parse()
                    .map_err(|e| format!("bad --spare-fraction: {e}"))?;
            }
            "--fault-seed" => {
                config.gateway.fault_seed = value("--fault-seed")?
                    .parse()
                    .map_err(|e| format!("bad --fault-seed: {e}"))?;
            }
            "--state-dir" => config.state_dir = Some(PathBuf::from(value("--state-dir")?)),
            "--idle-timeout-ms" => {
                config.idle_timeout_ms = value("--idle-timeout-ms")?
                    .parse()
                    .map_err(|e| format!("bad --idle-timeout-ms: {e}"))?;
            }
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if config.bytes_per_page == 0 {
        return Err("--bytes-per-page must be positive".to_owned());
    }
    Ok(Args {
        config,
        addr,
        control_addr,
    })
}

fn run(args: &[String]) -> Result<(), String> {
    let args = parse_args(args)?;
    let server = BlockServer::bind(&args.config, args.addr.as_str(), args.control_addr.as_str())
        .map_err(|e| format!("cannot start: {e}"))?;
    println!(
        "twl-blockd serving {} pages x {} B ({}) via {}",
        args.config.gateway.pages,
        args.config.bytes_per_page,
        human_bytes(args.config.geometry().export_bytes()),
        args.config.gateway.scheme
    );
    println!("twl-blockd listening on {}", server.data_addr());
    println!("twl-blockd control on {}", server.control_addr());
    server.run().map_err(|e| format!("daemon failed: {e}"))
}

fn human_bytes(v: u64) -> String {
    match v {
        0..=1023 => format!("{v} B"),
        1024..=1_048_575 => format!("{} KiB", v / 1024),
        1_048_576..=1_073_741_823 => format!("{} MiB", v / 1_048_576),
        _ => format!("{} GiB", v / 1_073_741_824),
    }
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
