//! `twl-ctl`: the client CLI for `twl-serviced`.
//!
//! ```text
//! twl-ctl [connection flags] ping
//! twl-ctl [connection flags] submit [spec flags] [--wait] [--format table|json]
//! twl-ctl [connection flags] status [JOB_ID] [--format table|json]
//! twl-ctl [connection flags] wait JOB_ID [--format table|json]
//! twl-ctl [connection flags] cancel JOB_ID
//! twl-ctl [connection flags] metrics [--lint]
//! twl-ctl [connection flags] register-worker WORKER_ADDR
//! twl-ctl [connection flags] shutdown
//! twl-ctl run-local [spec flags] [--format table|json]
//! ```
//!
//! Every command works unchanged against a `twl-coordinator` — the
//! fleet daemon speaks the same `twl-wire/v1` protocol.
//! `register-worker` joins a running `twl-serviced` to a coordinator's
//! fleet (a plain daemon answers it with an explanatory error), and
//! `ping` reports the advertised cell-slot count, which for a
//! coordinator is the whole fleet's total.
//!
//! Connection flags: `--addr HOST:PORT`, `--connect-timeout-ms N`
//! (default 10000), and `--timeout-ms N` (per-reply read deadline,
//! default 30000; 0 disables either). The read deadline is lifted
//! automatically while streaming a job with `wait` or `submit --wait`,
//! so long simulations never trip it — it exists to keep the CLI from
//! hanging on a dead daemon, coordinator, or network.
//!
//! Spec flags: `--kind K` (attack_matrix, workload_matrix,
//! degradation_matrix, lifetime_run), `--pages N`, `--endurance N`,
//! `--seed N`, `--sigma F`, `--schemes A,B`, `--workloads A,B` (or its
//! alias `--attacks`), `--benchmarks A,B`, `--max-writes N`,
//! `--retries N` (submit retries under backpressure), or `--spec FILE`
//! to submit a raw JSON spec.
//!
//! `--schemes` takes full spec labels (`TWL_swp[ti=8,pair=rnd:7],BWL`),
//! and a repeatable `--scheme-param k=v` applies one override to every
//! scheme in the list — so a parameter study is one flag away from the
//! default matrix:
//!
//! ```text
//! twl-ctl submit --schemes "TWL_swp[ti=8],TWL_swp[ti=64]" --attacks scan --wait
//! ```
//!
//! The workload axis is specs too: `--workloads` takes any
//! `twl_workloads::WorkloadSpec` labels — attack modes, PARSEC
//! generators, or `TRACE[path=...]` capture replays — and a repeatable
//! `--workload-param k=v` applies one override to every workload on
//! the job's active axis:
//!
//! ```text
//! twl-ctl submit --workloads "TRACE[path=capture.trace,seed=3]" --wait
//! twl-ctl submit --workloads inconsistent --workload-param group=8 --wait
//! ```
//!
//! `run-local` takes the same spec flags but runs every cell in this
//! process (no daemon) and prints the same result document `submit
//! --wait` would — the seam CI uses to diff a serviced sweep against a
//! direct in-process run.
//!
//! The default address is `$TWL_SERVICE_ADDR` or `127.0.0.1:7781`.
//! Progress events go to stderr; results go to stdout — `--format
//! json` emits the result document verbatim for scripting, the default
//! table matches the twl-bench binaries.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use twl_service::job::{encode_result, JobKind, JobReports, JobSpec};
use twl_service::wire::{JobEvent, JobSnapshot};
use twl_service::{decode_result, Client, SubmitOutcome};
use twl_telemetry::json::{int, num, str, Json};
use twl_telemetry::spec::{self, ParamSet};

use twl_lifetime::{
    parse_spec_list, DegradationReport, LifetimeReport, SchemeKind, SchemeSpec, SimLimits,
};
use twl_pcm::PcmConfig;
use twl_workloads::{parse_workload_list, WorkloadSpec};

const USAGE: &str = "usage: twl-ctl [--addr HOST:PORT] [--connect-timeout-ms N] [--timeout-ms N] \
<ping|submit|status|wait|cancel|metrics|register-worker|shutdown|run-local> [...]
run `twl-ctl` with no command for the full flag list";

#[derive(Clone, Copy, PartialEq, Eq)]
enum Format {
    Table,
    Json,
}

fn parse_format(value: &str) -> Result<Format, String> {
    match value {
        "table" => Ok(Format::Table),
        "json" => Ok(Format::Json),
        other => Err(format!("unknown format `{other}` (expected table or json)")),
    }
}

struct SpecFlags {
    kind: JobKind,
    pages: u64,
    endurance: u64,
    seed: u64,
    sigma: Option<f64>,
    schemes: Vec<SchemeSpec>,
    attacks: Vec<WorkloadSpec>,
    benchmarks: Vec<WorkloadSpec>,
    max_writes: Option<u64>,
    spec_file: Option<String>,
    scheme_params: Vec<String>,
    workload_params: Vec<String>,
}

impl Default for SpecFlags {
    fn default() -> Self {
        Self {
            kind: JobKind::AttackMatrix,
            pages: 4096,
            endurance: 50_000,
            seed: 42,
            sigma: None,
            schemes: SchemeKind::FIG6.iter().map(|&k| k.into()).collect(),
            attacks: twl_attacks::AttackKind::ALL
                .map(WorkloadSpec::from)
                .to_vec(),
            benchmarks: twl_workloads::ParsecBenchmark::ALL
                .map(WorkloadSpec::from)
                .to_vec(),
            max_writes: None,
            spec_file: None,
            scheme_params: Vec::new(),
            workload_params: Vec::new(),
        }
    }
}

impl SpecFlags {
    /// Consumes one spec flag (with its value drawn from `value`);
    /// returns `Ok(false)` if `flag` is not a spec flag.
    fn consume(
        &mut self,
        flag: &str,
        value: &mut dyn FnMut(&str) -> Result<String, String>,
    ) -> Result<bool, String> {
        match flag {
            "--kind" => self.kind = JobKind::parse(&value("--kind")?)?,
            "--pages" => {
                self.pages = value("--pages")?
                    .parse()
                    .map_err(|e| format!("bad --pages: {e}"))?;
            }
            "--endurance" => {
                self.endurance = value("--endurance")?
                    .parse()
                    .map_err(|e| format!("bad --endurance: {e}"))?;
            }
            "--seed" => {
                self.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--sigma" => {
                self.sigma = Some(
                    value("--sigma")?
                        .parse()
                        .map_err(|e| format!("bad --sigma: {e}"))?,
                );
            }
            "--schemes" => self.schemes = parse_spec_list(&value("--schemes")?)?,
            "--scheme-param" => self.scheme_params.push(value(flag)?),
            "--workloads" | "--attacks" => {
                self.attacks = parse_workload_list(&value(flag)?)?;
            }
            "--workload-param" => self.workload_params.push(value(flag)?),
            "--benchmarks" => {
                self.benchmarks = parse_workload_list(&value("--benchmarks")?)?;
            }
            "--max-writes" => {
                self.max_writes = Some(
                    value("--max-writes")?
                        .parse()
                        .map_err(|e| format!("bad --max-writes: {e}"))?,
                );
            }
            "--spec" => self.spec_file = Some(value("--spec")?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn build(mut self) -> Result<JobSpec, String> {
        if let Some(path) = &self.spec_file {
            if !self.scheme_params.is_empty() {
                return Err("--scheme-param does not combine with --spec (put the overrides in the spec file)".into());
            }
            if !self.workload_params.is_empty() {
                return Err("--workload-param does not combine with --spec (put the overrides in the spec file)".into());
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read spec file {path}: {e}"))?;
            let spec = JobSpec::from_json(&Json::parse(&text)?)?;
            spec.validate()?;
            return Ok(spec);
        }
        self.schemes = with_params(
            std::mem::take(&mut self.schemes),
            &self.scheme_params,
            "--scheme-param",
        )?;
        // Workload overrides apply to the axis the job kind sweeps, so
        // an attack matrix's defaults-filled `benchmarks` list never
        // rejects an attack-only key (and vice versa).
        let axis = if self.kind == JobKind::WorkloadMatrix {
            &mut self.benchmarks
        } else {
            &mut self.attacks
        };
        *axis = with_params(
            std::mem::take(axis),
            &self.workload_params,
            "--workload-param",
        )?;
        let mut builder = PcmConfig::builder();
        builder
            .pages(self.pages)
            .mean_endurance(self.endurance)
            .seed(self.seed);
        if let Some(sigma) = self.sigma {
            builder.sigma_fraction(sigma);
        }
        let pcm = builder.build().map_err(|e| e.to_string())?;
        let limits = self
            .max_writes
            .map_or_else(SimLimits::default, |n| SimLimits {
                max_logical_writes: n,
            });
        let spec = JobSpec {
            kind: self.kind,
            pcm,
            limits,
            schemes: self.schemes,
            attacks: self.attacks,
            benchmarks: self.benchmarks,
            fault: None,
        };
        spec.validate()?;
        Ok(spec)
    }
}

/// Applies repeated `key=value` flag overrides to every spec through the
/// same grammar path a label's `[k=v,...]` block takes.
fn with_params<P: ParamSet>(
    specs: Vec<P>,
    params: &[String],
    flag: &str,
) -> Result<Vec<P>, String> {
    specs
        .into_iter()
        .map(|s| {
            let kind = s.kind();
            spec::apply(s, params.iter().map(String::as_str))
                .map_err(|e| format!("bad {flag} for {kind}: {e}"))
        })
        .collect()
}

fn addr_default() -> String {
    std::env::var("TWL_SERVICE_ADDR").unwrap_or_else(|_| "127.0.0.1:7781".to_owned())
}

fn print_event(event: &JobEvent) {
    match event {
        JobEvent::Queued => eprintln!("job queued"),
        JobEvent::Started => eprintln!("job started"),
        JobEvent::CellDone {
            cell,
            total,
            scheme,
            workload,
            rate_wps,
            eta_ms,
            ..
        } => {
            #[allow(clippy::cast_precision_loss)]
            let progress = match (rate_wps, eta_ms) {
                (Some(r), Some(e)) => format!(" [{r:.0} wr/s, eta {:.1}s]", *e as f64 / 1e3),
                (Some(r), None) => format!(" [{r:.0} wr/s]"),
                _ => String::new(),
            };
            eprintln!(
                "cell {}/{total} done: {scheme} under {workload}{progress}",
                cell + 1
            );
        }
        JobEvent::Checkpointed { cells_done } => {
            eprintln!("checkpointed ({cells_done} cells persisted)");
        }
        JobEvent::Finished { status } => eprintln!("job finished: {status}"),
    }
}

fn lifetime_rows(reports: &[LifetimeReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.workload.clone(),
                r.logical_writes.to_string(),
                r.device_writes.to_string(),
                format!("{:.4}", r.capacity_fraction),
                format!("{:.3}", r.years),
                format!("{:.4}", r.swap_per_write),
                format!("{:.4}", r.wear_gini),
            ]
        })
        .collect()
}

fn degradation_rows(reports: &[DegradationReport]) -> Vec<Vec<String>> {
    reports
        .iter()
        .map(|r| {
            vec![
                r.scheme.clone(),
                r.workload.clone(),
                r.device_writes.to_string(),
                r.corrected_groups.to_string(),
                r.retired_pages.to_string(),
                format!("{:?}", r.end),
                format!("{:.3}", r.years),
            ]
        })
        .collect()
}

fn print_result(result: &Json, format: Format) -> Result<(), String> {
    match format {
        Format::Json => {
            println!("{}", result.to_compact());
            Ok(())
        }
        Format::Table => match decode_result(result)? {
            JobReports::Lifetime(reports) => {
                print!(
                    "{}",
                    twl_telemetry::format_table(
                        &[
                            "scheme",
                            "workload",
                            "logical_wr",
                            "device_wr",
                            "capacity",
                            "years",
                            "swap/wr",
                            "gini"
                        ],
                        &lifetime_rows(&reports),
                    )
                );
                Ok(())
            }
            JobReports::Degradation(reports) => {
                print!(
                    "{}",
                    twl_telemetry::format_table(
                        &[
                            "scheme",
                            "workload",
                            "device_wr",
                            "corrected",
                            "retired",
                            "end",
                            "years"
                        ],
                        &degradation_rows(&reports),
                    )
                );
                Ok(())
            }
        },
    }
}

fn print_status(jobs: &[JobSnapshot], format: Format) {
    match format {
        Format::Json => {
            let arr = Json::Arr(
                jobs.iter()
                    .map(|j| {
                        let mut obj = Json::obj([
                            ("job_id", int(j.job_id)),
                            ("kind", str(&j.kind)),
                            ("status", str(&j.status)),
                            ("cells_done", int(j.cells_done)),
                            ("cells_total", int(j.cells_total)),
                            ("error", j.error.as_deref().map_or(Json::Null, str)),
                        ]);
                        if let Json::Obj(map) = &mut obj {
                            if let Some(w) = j.writes_done {
                                map.insert("writes_done".to_owned(), int(w));
                            }
                            if let Some(r) = j.rate_wps {
                                map.insert("rate_wps".to_owned(), num(r));
                            }
                            if let Some(e) = j.eta_ms {
                                map.insert("eta_ms".to_owned(), int(e));
                            }
                        }
                        obj
                    })
                    .collect(),
            );
            println!("{}", arr.to_compact());
        }
        Format::Table => {
            #[allow(clippy::cast_precision_loss)]
            let rows: Vec<Vec<String>> = jobs
                .iter()
                .map(|j| {
                    vec![
                        j.job_id.to_string(),
                        j.kind.clone(),
                        j.status.clone(),
                        format!("{}/{}", j.cells_done, j.cells_total),
                        j.rate_wps.map_or_else(String::new, |r| format!("{r:.0}")),
                        j.eta_ms
                            .map_or_else(String::new, |e| format!("{:.1}s", e as f64 / 1e3)),
                        j.error.clone().unwrap_or_default(),
                    ]
                })
                .collect();
            print!(
                "{}",
                twl_telemetry::format_table(
                    &["job", "kind", "status", "cells", "wr/s", "eta", "error"],
                    &rows
                )
            );
        }
    }
}

/// Turns a `--*-timeout-ms` value into a deadline; `0` disables it.
fn parse_timeout(flag: &str, value: &str) -> Result<Option<std::time::Duration>, String> {
    let ms: u64 = value.parse().map_err(|e| format!("bad {flag}: {e}"))?;
    Ok((ms > 0).then(|| std::time::Duration::from_millis(ms)))
}

#[allow(clippy::too_many_lines)]
fn run(args: &[String]) -> Result<ExitCode, String> {
    let mut addr = addr_default();
    let mut connect_timeout = Some(std::time::Duration::from_millis(10_000));
    let mut read_timeout = Some(std::time::Duration::from_millis(30_000));
    let mut rest = args;
    while let [flag, value, tail @ ..] = rest {
        match flag.as_str() {
            "--addr" => addr = value.clone(),
            "--connect-timeout-ms" => {
                connect_timeout = parse_timeout("--connect-timeout-ms", value)?;
            }
            "--timeout-ms" => read_timeout = parse_timeout("--timeout-ms", value)?,
            _ => break,
        }
        rest = tail;
    }
    let connect = || {
        Client::connect_with_timeouts(&addr, connect_timeout, read_timeout).map_err(|e| {
            format!("cannot reach daemon at {addr}: {e} (connection flags tune the deadlines)")
        })
    };
    let [command, command_args @ ..] = rest else {
        return Err(USAGE.to_owned());
    };

    match command.as_str() {
        "ping" => {
            let client = connect()?;
            match client.slots() {
                Some(slots) => println!(
                    "ok: daemon at {addr} speaks {} ({slots} cell slots)",
                    twl_service::PROTOCOL
                ),
                None => println!("ok: daemon at {addr} speaks {}", twl_service::PROTOCOL),
            }
            Ok(ExitCode::SUCCESS)
        }
        "register-worker" => {
            let [worker] = command_args else {
                return Err("register-worker needs exactly one WORKER_ADDR".to_owned());
            };
            let mut client = connect()?;
            let (echoed, slots) = client.register_worker(worker).map_err(|e| e.to_string())?;
            println!("registered worker {echoed} ({slots} slots)");
            Ok(ExitCode::SUCCESS)
        }
        "submit" => {
            let mut flags = SpecFlags::default();
            let mut wait = false;
            let mut format = Format::Table;
            let mut retries = 1u32;
            let mut iter = command_args.iter();
            while let Some(flag) = iter.next() {
                let mut value = |name: &str| {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--retries" => {
                        retries = value("--retries")?
                            .parse()
                            .map_err(|e| format!("bad --retries: {e}"))?;
                    }
                    "--wait" => wait = true,
                    "--format" => format = parse_format(&value("--format")?)?,
                    other => {
                        if !flags.consume(other, &mut value)? {
                            return Err(format!("unknown submit flag {other}"));
                        }
                    }
                }
            }
            let spec = flags.build()?;
            let mut client = connect()?;
            if retries > 1 {
                let job_id = client
                    .submit_with_retry(&spec, retries)
                    .map_err(|e| e.to_string())?;
                eprintln!("submitted job {job_id}");
                if wait {
                    client.set_read_timeout(None).map_err(|e| e.to_string())?;
                    let result = client
                        .wait(job_id, print_event)
                        .map_err(|e| e.to_string())?;
                    print_result(&result, format)?;
                } else {
                    println!("{job_id}");
                }
                return Ok(ExitCode::SUCCESS);
            }
            match client.submit(&spec).map_err(|e| e.to_string())? {
                SubmitOutcome::Accepted(job_id) => {
                    eprintln!("submitted job {job_id}");
                    if wait {
                        client.set_read_timeout(None).map_err(|e| e.to_string())?;
                        let result = client
                            .wait(job_id, print_event)
                            .map_err(|e| e.to_string())?;
                        print_result(&result, format)?;
                    } else {
                        println!("{job_id}");
                    }
                    Ok(ExitCode::SUCCESS)
                }
                SubmitOutcome::Rejected {
                    reason,
                    retry_after_ms,
                } => {
                    eprintln!("rejected: {reason} (retry after {retry_after_ms} ms)");
                    Ok(ExitCode::FAILURE)
                }
            }
        }
        "status" => {
            let mut job_id = None;
            let mut format = Format::Table;
            let mut iter = command_args.iter();
            while let Some(arg) = iter.next() {
                if arg == "--format" {
                    let value = iter.next().ok_or("--format needs a value")?;
                    format = parse_format(value)?;
                } else {
                    job_id = Some(
                        arg.parse()
                            .map_err(|e| format!("bad job id `{arg}`: {e}"))?,
                    );
                }
            }
            let mut client = connect()?;
            let jobs = client.status(job_id).map_err(|e| e.to_string())?;
            print_status(&jobs, format);
            Ok(ExitCode::SUCCESS)
        }
        "wait" => {
            let mut job_id = None;
            let mut format = Format::Table;
            let mut iter = command_args.iter();
            while let Some(arg) = iter.next() {
                if arg == "--format" {
                    let value = iter.next().ok_or("--format needs a value")?;
                    format = parse_format(value)?;
                } else {
                    job_id = Some(
                        arg.parse()
                            .map_err(|e| format!("bad job id `{arg}`: {e}"))?,
                    );
                }
            }
            let job_id = job_id.ok_or("wait needs a JOB_ID")?;
            let mut client = connect()?;
            client.set_read_timeout(None).map_err(|e| e.to_string())?;
            let result = client
                .wait(job_id, print_event)
                .map_err(|e| e.to_string())?;
            print_result(&result, format)?;
            Ok(ExitCode::SUCCESS)
        }
        "cancel" => {
            let [job_id] = command_args else {
                return Err("cancel needs exactly one JOB_ID".to_owned());
            };
            let job_id = job_id
                .parse()
                .map_err(|e| format!("bad job id `{job_id}`: {e}"))?;
            let mut client = connect()?;
            let cancelled = client.cancel(job_id).map_err(|e| e.to_string())?;
            println!(
                "{}",
                if cancelled {
                    "cancelled"
                } else {
                    "already finished"
                }
            );
            Ok(ExitCode::SUCCESS)
        }
        "metrics" => {
            let mut lint = false;
            for arg in command_args {
                match arg.as_str() {
                    "--lint" => lint = true,
                    other => return Err(format!("unknown metrics flag {other}")),
                }
            }
            let mut client = connect()?;
            let text = client.metrics().map_err(|e| e.to_string())?;
            if lint {
                let samples = twl_telemetry::prom::parse_exposition(&text)
                    .map_err(|e| format!("exposition lint failed: {e}"))?;
                eprintln!("lint ok: {} samples", samples.len());
            }
            print!("{text}");
            Ok(ExitCode::SUCCESS)
        }
        "shutdown" => {
            let mut client = connect()?;
            client.shutdown().map_err(|e| e.to_string())?;
            println!("daemon draining");
            Ok(ExitCode::SUCCESS)
        }
        "run-local" => {
            let mut flags = SpecFlags::default();
            let mut format = Format::Table;
            let mut iter = command_args.iter();
            while let Some(flag) = iter.next() {
                let mut value = |name: &str| {
                    iter.next()
                        .cloned()
                        .ok_or_else(|| format!("{name} needs a value"))
                };
                match flag.as_str() {
                    "--format" => format = parse_format(&value("--format")?)?,
                    other => {
                        if !flags.consume(other, &mut value)? {
                            return Err(format!("unknown run-local flag {other}"));
                        }
                    }
                }
            }
            let spec = flags.build()?;
            let total = spec.cell_count();
            let reports: Vec<Json> = (0..total)
                .map(|index| {
                    let (scheme, workload) = spec.describe_cell(index);
                    let (report, _) = spec.run_cell(index);
                    eprintln!("cell {}/{total} done: {scheme} under {workload}", index + 1);
                    report
                })
                .collect();
            let result = encode_result(spec.kind, reports);
            print_result(&result, format)?;
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!("unknown command `{other}`\n{USAGE}")),
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
