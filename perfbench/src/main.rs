//! The repository benchmark: four workloads that reach the simulator,
//! the service, the fleet and the block device only through their
//! public APIs, an oracle check per workload, and a traced run that
//! splits the time into layers.
//!
//! ```text
//! twl-perfbench --workload <attack-matrix|paper-scale|fleet-sweep|nbd-session>
//!               --seed <n> --seconds <s> --trace <0|1>
//! twl-perfbench --write-expected <attack-matrix|paper-scale>
//! ```
//!
//! Human-readable detail goes to standard output line by line; the last
//! line is one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. See `perfbench/README.md` for what every number means.

mod fleet;
mod matrix;
mod nbd;
mod stats;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

/// At most this many simulation threads and client connections, so the
/// figures mean the same on every host the benchmark runs on.
pub const THREADS: usize = 2;

/// One named measurement with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (cells, job submissions, NBD requests).
    pub attempted: u64,
    /// Operations that failed or whose output disagreed with the oracle.
    pub failed: u64,
    /// Every oracle check that failed, for the log.
    pub errors: Vec<String>,
    /// The metrics the final JSON line carries.
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    /// Records a failed check: counts it and keeps the message.
    pub fn fail(&mut self, message: String) {
        eprintln!("CHECK FAILED: {message}");
        self.failed += 1;
        self.errors.push(message);
    }
}

/// Run parameters every workload shares.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub seed: u64,
    pub budget: Duration,
    /// Scratch space for state, cache and checkpoint directories;
    /// removed when the run ends.
    pub scratch: PathBuf,
}

impl RunConfig {
    /// A fresh, empty directory under the run's scratch space.
    pub fn dir(&self, name: &str) -> PathBuf {
        let dir = self.scratch.join(name);
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("create scratch directory");
        dir
    }
}

/// Prints one detail line: `metric <name> <value> <unit> [note]`.
pub fn detail(name: &str, value: f64, unit: &str, note: &str) {
    if note.is_empty() {
        println!("metric {name} {value} {unit}");
    } else {
        println!("metric {name} {value} {unit} {note}");
    }
}

/// The process's peak resident set, in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: twl-perfbench --workload <attack-matrix|paper-scale|fleet-sweep|nbd-session> \
         --seed <n> --seconds <s> --trace <0|1>\n       \
         twl-perfbench --write-expected <attack-matrix|paper-scale>"
    );
    ExitCode::from(2)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut write_expected = None;
    let mut i = 0;
    while i < args.len() {
        let Some(value) = args.get(i + 1) else {
            return usage();
        };
        match args[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return usage(),
            },
            "--seconds" => match value.parse() {
                Ok(v) if v > 0 => seconds = v,
                _ => return usage(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return usage(),
            },
            "--write-expected" => write_expected = Some(value.clone()),
            _ => return usage(),
        }
        i += 2;
    }

    if let Some(which) = write_expected {
        return match matrix::write_expected(&which) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = workload else {
        return usage();
    };

    let scratch = Path::new(".bench_tmp").join(format!("run-{}", std::process::id()));
    let cfg = RunConfig {
        seed,
        budget: Duration::from_secs(seconds),
        scratch: scratch.clone(),
    };
    println!(
        "run workload={workload} seed={seed} seconds={seconds} trace={} threads={THREADS} \
         available_parallelism={}",
        u8::from(trace),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let outcome = match (workload.as_str(), trace) {
        ("attack-matrix" | "paper-scale", false) => matrix::run(&workload, &cfg),
        ("fleet-sweep", false) => fleet::run(&cfg),
        ("nbd-session", false) => nbd::run(&cfg),
        ("attack-matrix" | "paper-scale" | "fleet-sweep" | "nbd-session", true) => {
            traced(&workload, &cfg)
        }
        _ => {
            std::fs::remove_dir_all(&scratch).ok();
            return usage();
        }
    };
    std::fs::remove_dir_all(&scratch).ok();
    if std::fs::read_dir(".bench_tmp").is_ok_and(|mut d| d.next().is_none()) {
        std::fs::remove_dir(".bench_tmp").ok();
    }

    let correct = outcome.failed == 0 && outcome.errors.is_empty() && outcome.attempted > 0;
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The traced run: every layer's mirror, whatever `--workload` names, so
/// the per-layer metric set is complete on every traced run. The named
/// workload only decides the order and is echoed in the log.
fn traced(workload: &str, cfg: &RunConfig) -> Outcome {
    println!("traced run of every layer (requested workload: {workload})");
    let mut out = Outcome::default();
    for part in [
        matrix::traced("attack-matrix", cfg),
        matrix::traced("paper-scale", cfg),
        fleet::traced(cfg),
        nbd::traced(cfg),
    ] {
        out.attempted += part.attempted;
        out.failed += part.failed;
        out.errors.extend(part.errors);
        out.metrics.extend(part.metrics);
    }
    out
}
