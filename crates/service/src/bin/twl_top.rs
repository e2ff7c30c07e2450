//! `twl-top`: a live terminal dashboard for a `twl-serviced` daemon.
//!
//! ```text
//! twl-top [--addr HOST:PORT] [--interval SECS] [--once]
//! ```
//!
//! Each refresh polls the daemon twice over `twl-wire/v1` — a `status`
//! snapshot for the job table and a `metrics` scrape for the
//! daemon-wide counters — and redraws a single screen: a header with
//! queue depth, worker utilization, and lifetime job totals, then one
//! row per job with a progress bar, throughput, and ETA (the optional
//! `JobSnapshot` progress fields, shown blank until a job reports
//! them).
//!
//! Pointed at a `twl-coordinator` (same protocol), the scrape carries
//! the `twl_fleet_*` families and the dashboard adds a fleet section:
//! cache hit ratio, in-flight/stolen/retried/failed cell counters, and
//! one row per registered worker with its slots, in-flight cells,
//! served total, and dispatch failures.
//!
//! Pointed at a `twl-blockd` (same protocol again), the scrape carries
//! the `twl_blockdev_*` families instead and the dashboard shows the
//! block-device section: export size, op counters, the wear pipeline's
//! logical/device write totals, retirement and spare-pool state, and
//! the capture length — with an END OF LIFE banner once the spare pool
//! is exhausted.
//!
//! `--once` renders a single frame without clearing the screen and
//! exits — what the CI smoke job and scripts use. The default address
//! is `$TWL_SERVICE_ADDR` or `127.0.0.1:7781`.

use std::process::ExitCode;
use std::time::Duration;

use twl_service::wire::JobSnapshot;
use twl_service::Client;
use twl_telemetry::prom::{parse_exposition, scalar_samples, PromSample};

const USAGE: &str = "usage: twl-top [--addr HOST:PORT] [--interval SECS] [--once]";

/// Daemon-wide numbers pulled out of one metrics scrape.
#[derive(Debug, Default)]
struct DaemonStats {
    queue_depth: f64,
    workers_busy: f64,
    workers_total: f64,
    completed: f64,
    failed: f64,
    cancelled: f64,
}

/// One registered worker's `twl_fleet_worker_*` row.
#[derive(Debug)]
struct FleetWorker {
    addr: String,
    slots: f64,
    inflight: f64,
    served: f64,
    failures: f64,
}

/// Coordinator-only numbers; `None` when the scrape carries no
/// `twl_fleet_*` families (a plain `twl-serviced`).
#[derive(Debug)]
struct FleetStats {
    cache_hits: f64,
    cache_misses: f64,
    inflight: f64,
    stolen: f64,
    retried: f64,
    failed: f64,
    workers: Vec<FleetWorker>,
}

fn fleet_stats(samples: &[PromSample], flat: &impl Fn(&str) -> f64) -> Option<FleetStats> {
    let mut workers: Vec<FleetWorker> = Vec::new();
    for s in samples {
        let Some(addr) = s.label("worker") else {
            continue;
        };
        let i = match workers.iter().position(|w| w.addr == addr) {
            Some(i) => i,
            None => {
                workers.push(FleetWorker {
                    addr: addr.to_owned(),
                    slots: 0.0,
                    inflight: 0.0,
                    served: 0.0,
                    failures: 0.0,
                });
                workers.len() - 1
            }
        };
        match s.name.as_str() {
            "twl_fleet_worker_slots" => workers[i].slots = s.value,
            "twl_fleet_worker_inflight" => workers[i].inflight = s.value,
            "twl_fleet_worker_cells_served" => workers[i].served = s.value,
            "twl_fleet_worker_failures" => workers[i].failures = s.value,
            _ => {}
        }
    }
    let any_fleet_counter = samples.iter().any(|s| s.name.starts_with("twl_fleet_"));
    if workers.is_empty() && !any_fleet_counter {
        return None;
    }
    Some(FleetStats {
        cache_hits: flat("twl_fleet_cache_hits"),
        cache_misses: flat("twl_fleet_cache_misses"),
        inflight: flat("twl_fleet_cells_inflight"),
        stolen: flat("twl_fleet_cells_stolen"),
        retried: flat("twl_fleet_cells_retried"),
        failed: flat("twl_fleet_cells_failed"),
        workers,
    })
}

/// Block-daemon numbers; `None` when the scrape carries no
/// `twl_blockdev_*` families (not a `twl-blockd`).
#[derive(Debug)]
struct BlockdevStats {
    export_bytes: f64,
    reads: f64,
    writes: f64,
    trims: f64,
    flushes: f64,
    bytes_written: f64,
    logical_writes: f64,
    device_writes: f64,
    pages_retired: f64,
    spares_remaining: f64,
    capture_cmds: f64,
    end_of_life: bool,
}

fn blockdev_stats(samples: &[PromSample], flat: &impl Fn(&str) -> f64) -> Option<BlockdevStats> {
    if !samples.iter().any(|s| s.name.starts_with("twl_blockdev_")) {
        return None;
    }
    Some(BlockdevStats {
        export_bytes: flat("twl_blockdev_export_bytes"),
        reads: flat("twl_blockdev_reads"),
        writes: flat("twl_blockdev_writes"),
        trims: flat("twl_blockdev_trims"),
        flushes: flat("twl_blockdev_flushes"),
        bytes_written: flat("twl_blockdev_bytes_written"),
        logical_writes: flat("twl_blockdev_wear_logical_writes"),
        device_writes: flat("twl_blockdev_wear_device_writes"),
        pages_retired: flat("twl_blockdev_pages_retired"),
        spares_remaining: flat("twl_blockdev_spares_remaining"),
        capture_cmds: flat("twl_blockdev_capture_cmds"),
        end_of_life: flat("twl_blockdev_end_of_life") > 0.0,
    })
}

type Scrape = (DaemonStats, Option<FleetStats>, Option<BlockdevStats>);

fn scrape(client: &mut Client) -> Result<Scrape, String> {
    let text = client.metrics().map_err(|e| e.to_string())?;
    let samples = parse_exposition(&text).map_err(|e| format!("bad metrics page: {e}"))?;
    let flat = scalar_samples(&samples);
    let get = |name: &str| flat.get(name).copied().unwrap_or(0.0);
    let stats = DaemonStats {
        queue_depth: get("twl_service_queue_depth"),
        workers_busy: get("twl_service_workers_busy"),
        workers_total: get("twl_service_workers_total"),
        completed: get("twl_service_jobs_completed"),
        failed: get("twl_service_jobs_failed"),
        cancelled: get("twl_service_jobs_cancelled"),
    };
    let fleet = fleet_stats(&samples, &get);
    let blockdev = blockdev_stats(&samples, &get);
    Ok((stats, fleet, blockdev))
}

fn progress_bar(done: u64, total: u64, width: usize) -> String {
    let filled = if total == 0 {
        0
    } else {
        (done as usize).saturating_mul(width) / (total as usize).max(1)
    };
    let mut bar = String::with_capacity(width + 2);
    bar.push('[');
    for i in 0..width {
        bar.push(if i < filled { '#' } else { '.' });
    }
    bar.push(']');
    bar
}

#[allow(clippy::cast_precision_loss)]
fn job_row(job: &JobSnapshot) -> Vec<String> {
    let percent = (job.cells_done * 100)
        .checked_div(job.cells_total)
        .unwrap_or(100);
    vec![
        job.job_id.to_string(),
        job.kind.clone(),
        job.status.clone(),
        format!(
            "{} {percent:>3}%",
            progress_bar(job.cells_done, job.cells_total, 16)
        ),
        format!("{}/{}", job.cells_done, job.cells_total),
        job.writes_done.map_or_else(String::new, |w| w.to_string()),
        job.rate_wps.map_or_else(String::new, |r| format!("{r:.0}")),
        job.eta_ms
            .map_or_else(String::new, |e| format!("{:.1}s", e as f64 / 1e3)),
        job.error.clone().unwrap_or_default(),
    ]
}

fn render_fleet(fleet: &FleetStats) -> String {
    let lookups = fleet.cache_hits + fleet.cache_misses;
    let hit_ratio = if lookups > 0.0 {
        format!("{:.1}%", 100.0 * fleet.cache_hits / lookups)
    } else {
        "n/a".to_owned()
    };
    let mut out = format!(
        "fleet — cache hit ratio {hit_ratio} ({:.0}/{:.0}), cells {:.0} in flight, \
         {:.0} stolen / {:.0} retried / {:.0} failed\n",
        fleet.cache_hits, lookups, fleet.inflight, fleet.stolen, fleet.retried, fleet.failed,
    );
    if fleet.workers.is_empty() {
        out.push_str("no workers registered\n\n");
        return out;
    }
    let rows: Vec<Vec<String>> = fleet
        .workers
        .iter()
        .map(|w| {
            vec![
                w.addr.clone(),
                format!("{:.0}", w.slots),
                format!("{:.0}", w.inflight),
                format!("{:.0}", w.served),
                format!("{:.0}", w.failures),
            ]
        })
        .collect();
    out.push_str(&twl_telemetry::format_table(
        &["worker", "slots", "inflight", "served", "failures"],
        &rows,
    ));
    out.push('\n');
    out
}

/// `4096 B` / `1.5 KiB` / `2.0 GiB` — export sizes are round numbers,
/// one decimal is plenty.
fn human_bytes(bytes: f64) -> String {
    const UNITS: [&str; 4] = ["KiB", "MiB", "GiB", "TiB"];
    if bytes < 1024.0 {
        return format!("{bytes:.0} B");
    }
    let mut value = bytes;
    let mut unit = "B";
    for next in UNITS {
        if value < 1024.0 {
            break;
        }
        value /= 1024.0;
        unit = next;
    }
    format!("{value:.1} {unit}")
}

fn render_blockdev(blk: &BlockdevStats) -> String {
    let amplification = if blk.logical_writes > 0.0 {
        format!("{:.3}x", blk.device_writes / blk.logical_writes)
    } else {
        "n/a".to_owned()
    };
    let mut out = format!(
        "blockdev — export {}, ops {:.0} wr / {:.0} rd / {:.0} trim / {:.0} flush \
         ({} written)\n\
         wear — {:.0} logical -> {:.0} device writes (amp {amplification}), \
         {:.0} pages retired, {:.0} spares left, capture {:.0} cmds\n",
        human_bytes(blk.export_bytes),
        blk.writes,
        blk.reads,
        blk.trims,
        blk.flushes,
        human_bytes(blk.bytes_written),
        blk.logical_writes,
        blk.device_writes,
        blk.pages_retired,
        blk.spares_remaining,
        blk.capture_cmds,
    );
    if blk.end_of_life {
        out.push_str("*** END OF LIFE: spare pool exhausted, writes return ENOSPC ***\n");
    }
    out.push('\n');
    out
}

fn render_frame(
    addr: &str,
    stats: &DaemonStats,
    fleet: Option<&FleetStats>,
    blockdev: Option<&BlockdevStats>,
    jobs: &[JobSnapshot],
) -> String {
    let daemon = if blockdev.is_some() {
        "twl-blockd"
    } else if fleet.is_some() {
        "twl-coordinator"
    } else {
        "twl-serviced"
    };
    let mut out = format!(
        "{daemon} {addr} — queue depth {:.0}, workers {:.0}/{:.0} busy, \
         jobs {:.0} completed / {:.0} failed / {:.0} cancelled\n\n",
        stats.queue_depth,
        stats.workers_busy,
        stats.workers_total,
        stats.completed,
        stats.failed,
        stats.cancelled,
    );
    if let Some(fleet) = fleet {
        out.push_str(&render_fleet(fleet));
    }
    if let Some(blockdev) = blockdev {
        out.push_str(&render_blockdev(blockdev));
    }
    if jobs.is_empty() {
        out.push_str("no jobs\n");
        return out;
    }
    let rows: Vec<Vec<String>> = jobs.iter().map(job_row).collect();
    out.push_str(&twl_telemetry::format_table(
        &[
            "job", "kind", "status", "progress", "cells", "writes", "wr/s", "eta", "error",
        ],
        &rows,
    ));
    out
}

fn poll(addr: &str) -> Result<String, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let jobs = client.status(None).map_err(|e| e.to_string())?;
    let (stats, fleet, blockdev) = scrape(&mut client)?;
    Ok(render_frame(
        addr,
        &stats,
        fleet.as_ref(),
        blockdev.as_ref(),
        &jobs,
    ))
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut addr =
        std::env::var("TWL_SERVICE_ADDR").unwrap_or_else(|_| "127.0.0.1:7781".to_owned());
    let mut interval = Duration::from_secs(2);
    let mut once = false;
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--addr" => addr = iter.next().ok_or("--addr needs a value")?.clone(),
            "--interval" => {
                let secs: f64 = iter
                    .next()
                    .ok_or("--interval needs a value")?
                    .parse()
                    .map_err(|e| format!("bad --interval: {e}"))?;
                if secs <= 0.0 || secs.is_nan() {
                    return Err("--interval must be positive".into());
                }
                interval = Duration::from_secs_f64(secs);
            }
            "--once" => once = true,
            other => return Err(format!("unknown flag {other}\n{USAGE}")),
        }
    }
    if once {
        print!("{}", poll(&addr)?);
        return Ok(ExitCode::SUCCESS);
    }
    loop {
        match poll(&addr) {
            // ESC[2J clears the screen, ESC[H homes the cursor: a full
            // redraw per frame, no terminal library needed.
            Ok(frame) => print!("\x1b[2J\x1b[H{frame}"),
            // A daemon restart shouldn't kill the dashboard; show the
            // error and keep polling.
            Err(e) => println!("\x1b[2J\x1b[H{addr}: {e}"),
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        std::thread::sleep(interval);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
