//! `twl-stats`: inspect twl-telemetry JSONL traces.
//!
//! ```text
//! twl-stats <trace.jsonl> [--format table|json]   per-scheme summary
//! twl-stats --spans <trace.jsonl>                 span self-time profile
//!           [--format table|json]
//! twl-stats --diff <old.jsonl> <new.jsonl>        wear-out regression check
//!           [--tolerance 0.05]
//! ```
//!
//! `--format json` emits one machine-readable JSON document (see
//! [`render_summary_json`]) so `twl-ctl` and CI can assert on inspector
//! output without screen-scraping tables. `--spans` folds the trace's
//! `span` records into a per-phase self-time profile (see
//! [`render_span_table`]). `--diff` exits non-zero when the new trace
//! regresses lifetime, write amplification, or wear inequality beyond
//! the tolerance, so it can gate CI. A missing, unreadable, or
//! non-trace input exits non-zero with an error on stderr.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use twl_telemetry::{
    diff_traces, render_span_json, render_span_table, render_summary_json, render_summary_table,
    Trace,
};

const USAGE: &str = "usage:
  twl-stats <trace.jsonl> [--format table|json]
  twl-stats --spans <trace.jsonl> [--format table|json]
  twl-stats --diff <old.jsonl> <new.jsonl> [--tolerance <fraction>]";

fn load(path: &str) -> Result<Trace, String> {
    let trace = Trace::load(path).map_err(|e| format!("cannot read trace `{path}`: {e}"))?;
    // A file where *nothing* parsed is almost certainly not a trace at
    // all (wrong path, wrong format); an empty report would hide that.
    if trace.records.is_empty() && trace.skipped > 0 {
        return Err(format!(
            "`{path}` contains no twl-telemetry records ({} unparseable lines) — not a trace file?",
            trace.skipped
        ));
    }
    Ok(trace)
}

fn render(trace: &Trace, spans: bool, fmt: &str) -> Result<String, String> {
    match (spans, fmt) {
        (false, "table") => Ok(render_summary_table(trace)),
        (false, "json") => Ok(render_summary_json(trace) + "\n"),
        (true, "table") => Ok(render_span_table(trace)),
        (true, "json") => Ok(render_span_json(trace) + "\n"),
        (_, other) => Err(format!("unknown format `{other}`\n{USAGE}")),
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    // Peel off the `--spans` mode flag wherever it appears; the rest of
    // the grammar is shared with the summary view.
    let spans = args.iter().any(|a| a == "--spans");
    let args: Vec<String> = args.iter().filter(|a| *a != "--spans").cloned().collect();
    match &args[..] {
        [path] if path != "--diff" && !path.starts_with("--") => {
            let trace = load(path)?;
            print!("{}", render(&trace, spans, "table")?);
            Ok(ExitCode::SUCCESS)
        }
        // `--format` is accepted on either side of the path.
        [path, fmt_flag, fmt] | [fmt_flag, fmt, path]
            if fmt_flag == "--format" && !path.starts_with("--") =>
        {
            let trace = load(path)?;
            print!("{}", render(&trace, spans, fmt)?);
            Ok(ExitCode::SUCCESS)
        }
        [flag, rest @ ..] if flag == "--diff" => {
            let (old_path, new_path, tolerance) = match rest {
                [old, new] => (old, new, 0.05),
                [old, new, tol_flag, tol] if tol_flag == "--tolerance" => (
                    old,
                    new,
                    tol.parse::<f64>()
                        .map_err(|e| format!("bad tolerance `{tol}`: {e}"))?,
                ),
                _ => return Err(USAGE.to_owned()),
            };
            let old = load(old_path)?;
            let new = load(new_path)?;
            let regressions = diff_traces(&old, &new, tolerance);
            if regressions.is_empty() {
                println!(
                    "ok: no wear-out regressions ({} cells checked, tolerance {:.1}%)",
                    new.summaries().count(),
                    tolerance * 100.0
                );
                Ok(ExitCode::SUCCESS)
            } else {
                println!(
                    "{} regression(s) past {:.1}%:",
                    regressions.len(),
                    tolerance * 100.0
                );
                for r in &regressions {
                    println!("  {}", r.describe());
                }
                Ok(ExitCode::FAILURE)
            }
        }
        _ => Err(USAGE.to_owned()),
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
