#![warn(missing_docs)]

//! Shared harness utilities for the table/figure-regenerating binaries.
//!
//! Every binary in this crate regenerates one table or figure of the
//! DAC'17 paper — see `DESIGN.md` §4 for the index. The binaries share a
//! scaled experiment device (configurable via CLI flags) and the simple
//! fixed-width table printer in this module.

use std::env;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_telemetry::{JsonlSink, TelemetryRecord};

/// Tables printed so far by this process (for CSV file naming).
static TABLE_COUNTER: AtomicU32 = AtomicU32::new(0);

/// Scaled-device parameters for an experiment run, parsed from CLI args.
///
/// Flags (all optional):
///
/// * `--pages N` — device pages (default 4096; must be an even power of
///   two for cross-scheme comparability).
/// * `--endurance N` — mean endurance in writes (default 50 000).
/// * `--seed N` — process-variation seed (default 42).
/// * `--quick` — divide endurance by 10 for a fast smoke run.
///
/// # Examples
///
/// ```
/// use twl_bench::ExperimentConfig;
///
/// let config = ExperimentConfig::from_args(["--pages", "1024", "--quick"]);
/// assert_eq!(config.pages, 1024);
/// assert_eq!(config.mean_endurance, 5_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Device pages.
    pub pages: u64,
    /// Mean endurance per page.
    pub mean_endurance: u64,
    /// Process-variation seed.
    pub seed: u64,
}

impl ExperimentConfig {
    /// Parses flags from an iterator of argument strings.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed flags.
    pub fn from_args<I, S>(args: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mut config = Self {
            pages: 4096,
            mean_endurance: 50_000,
            seed: 42,
        };
        let mut quick = false;
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut grab = |name: &str| -> u64 {
                iter.next()
                    .unwrap_or_else(|| panic!("{name} needs a value"))
                    .as_ref()
                    .parse()
                    .unwrap_or_else(|_| panic!("{name} needs an integer value"))
            };
            match arg.as_ref() {
                "--pages" => config.pages = grab("--pages"),
                "--endurance" => config.mean_endurance = grab("--endurance"),
                "--seed" => config.seed = grab("--seed"),
                "--quick" => quick = true,
                other => panic!("unknown flag {other}; see twl-bench docs"),
            }
        }
        if quick {
            config.mean_endurance = (config.mean_endurance / 10).max(1_000);
        }
        config
    }

    /// Parses the process's CLI arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::from_args(env::args().skip(1))
    }

    /// Builds the scaled PCM device.
    #[must_use]
    pub fn device(&self) -> PcmDevice {
        PcmDevice::new(&self.pcm_config())
    }

    /// The scaled device configuration.
    #[must_use]
    pub fn pcm_config(&self) -> PcmConfig {
        PcmConfig::scaled(self.pages, self.mean_endurance, self.seed)
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::from_args(std::iter::empty::<&str>())
    }
}

/// Installs the JSONL trace sink for a bench binary and emits the run
/// header.
///
/// The trace lands at `results/<tool>.trace.jsonl` by default; the
/// `TWL_TRACE_OUT` environment variable overrides the path, and the
/// values `0`, `none`, or `off` disable tracing entirely. Inspect the
/// result with `cargo run --bin twl-stats -- <trace>`.
pub fn init_telemetry(tool: &str, config: &ExperimentConfig) {
    let path = match env::var("TWL_TRACE_OUT") {
        Ok(v) if v == "0" || v.eq_ignore_ascii_case("none") || v.eq_ignore_ascii_case("off") => {
            return;
        }
        Ok(v) => PathBuf::from(v),
        Err(_) => PathBuf::from("results").join(format!("{tool}.trace.jsonl")),
    };
    match JsonlSink::create(&path) {
        Ok(sink) => {
            twl_telemetry::install_sink(sink);
            twl_telemetry::emit(&TelemetryRecord::RunStart {
                tool: tool.to_owned(),
                pages: config.pages,
                mean_endurance: config.mean_endurance,
                seed: config.seed,
            });
            eprintln!("telemetry: tracing to {}", path.display());
        }
        Err(e) => eprintln!("warning: telemetry disabled ({}: {e})", path.display()),
    }
}

/// Dumps the global metrics registry into the trace and flushes/removes
/// every sink. Call once at the end of `main`.
pub fn finish_telemetry() {
    if twl_telemetry::enabled() {
        twl_telemetry::emit(&TelemetryRecord::Counters(
            twl_telemetry::global().snapshot(),
        ));
    }
    twl_telemetry::clear_sinks();
}

/// Prints a fixed-width table: a header row, a separator, then rows.
///
/// When the `TWL_BENCH_CSV_DIR` environment variable names a directory,
/// the table is additionally written there as
/// `<binary>_<n>.csv` for downstream plotting.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    if let Ok(dir) = env::var("TWL_BENCH_CSV_DIR") {
        if let Err(e) = write_csv(&dir, headers, rows) {
            eprintln!("warning: could not write CSV to {dir}: {e}");
        }
    }
    print!("{}", twl_telemetry::format_table(headers, rows));
}

/// Writes the table as CSV into `dir`, naming the file after the
/// running binary and a per-process table counter.
fn write_csv(dir: &str, headers: &[&str], rows: &[Vec<String>]) -> std::io::Result<()> {
    let n = TABLE_COUNTER.fetch_add(1, Ordering::Relaxed);
    let exe = env::current_exe()
        .ok()
        .and_then(|p| p.file_stem().map(|s| s.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "table".to_owned());
    // Strip cargo's test-binary hash suffix if present.
    let exe = exe.split('-').next().unwrap_or("table").to_owned();
    let path: PathBuf = [dir, &format!("{exe}_{n}.csv")].iter().collect();
    let escape = |cell: &str| {
        if cell.contains([',', '"', '\n']) {
            format!("\"{}\"", cell.replace('"', "\"\""))
        } else {
            cell.to_owned()
        }
    };
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| escape(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let c = ExperimentConfig::default();
        assert_eq!(c.pages, 4096);
        assert_eq!(c.mean_endurance, 50_000);
        assert_eq!(c.seed, 42);
    }

    #[test]
    fn flags_override() {
        let c =
            ExperimentConfig::from_args(["--pages", "512", "--endurance", "9000", "--seed", "7"]);
        assert_eq!((c.pages, c.mean_endurance, c.seed), (512, 9000, 7));
    }

    #[test]
    fn quick_divides_endurance() {
        let c = ExperimentConfig::from_args(["--quick"]);
        assert_eq!(c.mean_endurance, 5_000);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = ExperimentConfig::from_args(["--bogus"]);
    }

    #[test]
    fn csv_export_writes_a_file() {
        let dir = std::env::temp_dir().join("twl_bench_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let dir_str = dir.to_string_lossy().into_owned();
        write_csv(&dir_str, &["a", "b"], &[vec!["1".into(), "x,y".into()]]).unwrap();
        let written: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().ends_with(".csv"))
            .collect();
        assert!(!written.is_empty());
        let content = std::fs::read_to_string(written[0].path()).unwrap();
        assert!(content.starts_with("a,b\n"));
        assert!(content.contains("\"x,y\""));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn device_builds() {
        let c = ExperimentConfig::from_args(["--pages", "64", "--endurance", "1000"]);
        assert_eq!(c.device().page_count(), 64);
    }
}
