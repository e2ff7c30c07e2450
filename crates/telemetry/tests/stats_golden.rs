//! Golden output of `twl-stats`: the summary and `--spans` tables for a
//! small trace built here, byte for byte. Both render through
//! `format_table`, the layout the bench binaries, `twl-ctl` and
//! `twl-top` print.

#![forbid(unsafe_code)]

use std::process::Command;

use twl_telemetry::{SchemeSummary, TelemetryRecord};

fn summary(scheme: &str, workload: &str, years: f64, completed: bool) -> TelemetryRecord {
    TelemetryRecord::Summary(SchemeSummary {
        scheme: scheme.to_owned(),
        workload: workload.to_owned(),
        logical_writes: 1_000,
        device_writes: 1_250,
        swaps: 125,
        swap_per_write: 0.125,
        extra_write_ratio: 0.25,
        alarm_rate: 0.5,
        capacity_fraction: 1.0,
        years,
        wear_gini: 0.0625,
        completed,
    })
}

fn span(name: &str, label: &str, parent: Option<&str>, incl: u64, excl: u64) -> TelemetryRecord {
    TelemetryRecord::Span {
        name: name.to_owned(),
        label: label.to_owned(),
        parent: parent.map(str::to_owned),
        depth: u64::from(parent.is_some()),
        count: 1,
        inclusive_us: incl,
        exclusive_us: excl,
    }
}

/// Writes the trace and runs `twl-stats` on it with `args` in front.
fn stats(name: &str, args: &[&str]) -> String {
    let records = [
        TelemetryRecord::RunStart {
            tool: "golden".to_owned(),
            pages: 256,
            mean_endurance: 2_000,
            seed: 42,
        },
        summary("TWL_swp[ti=8]", "repeat", 12.25, true),
        summary("NOWL", "inconsistent[group=8,stride=64]", 0.5, false),
        TelemetryRecord::Degradation {
            scheme: "NOWL".to_owned(),
            workload: "scan".to_owned(),
            at_logical_writes: 900,
            at_device_writes: 1_000,
            corrected_groups: 3,
            retired_pages: 2,
            spares_remaining: 14,
            capacity_fraction: 0.875,
        },
        span("job", "job-1", None, 2_000, 500),
        span("drive", "TWL_swp", Some("job"), 1_500, 1_500),
    ];
    let dir = std::env::temp_dir().join(format!("twl-stats-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join(format!("{name}.jsonl"));
    let lines: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    std::fs::write(&path, lines).expect("write trace");
    let path_str = path.to_string_lossy().into_owned();
    let out = Command::new(env!("CARGO_BIN_EXE_twl-stats"))
        .args(args)
        .arg(&path_str)
        .output()
        .expect("run twl-stats");
    std::fs::remove_file(&path).ok();
    assert!(out.status.success(), "twl-stats failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn summary_output_is_pinned() {
    let expected = concat!(
        "trace: tool=golden pages=256 mean_endurance=2000 seed=42\n",
        "\n",
        "         scheme                         workload  swap/wr  extra-wr  alarm  years    gini  wear-p50  wear-p99  wear-max  wearout\n",
        "  --------------------------------------------------------------------------------------------------------------------------------\n",
        "  TWL_swp[ti=8]                           repeat  0.12500    25.00%  0.500  12.25  0.0625         -         -         -      yes\n",
        "           NOWL  inconsistent[group=8,stride=64]  0.12500    25.00%  0.500   0.50  0.0625         -         -         -   budget\n",
        "\n",
        "degradation (final point per cell):\n",
        "  scheme  workload  points  dev-writes  corrected  retired  spares  capacity\n",
        "  ----------------------------------------------------------------------------\n",
        "    NOWL      scan       1        1000          3        2      14     87.5%\n",
    );
    assert_eq!(stats("summary", &[]), expected);
}

#[test]
fn span_output_is_pinned() {
    let expected = concat!(
        "  phase    label  spans  count  incl-ms  excl-ms   self\n",
        "  -------------------------------------------------------\n",
        "  drive  TWL_swp      1      1    1.500    1.500  75.0%\n",
        "    job    job-1      1      1    2.000    0.500  25.0%\n",
        "total self-time: 2.000 ms over 2 phase rows\n",
    );
    assert_eq!(stats("spans", &["--spans"]), expected);
}
