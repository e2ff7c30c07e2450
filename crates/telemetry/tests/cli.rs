//! `twl-stats` CLI contract: a missing or non-trace input must exit
//! non-zero with a diagnostic on stderr (never an empty report), while
//! a real trace — including a spans-only one — renders fine.

#![forbid(unsafe_code)]

use std::process::Command;

use twl_telemetry::TelemetryRecord;

fn twl_stats(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_twl-stats"))
        .args(args)
        .output()
        .expect("run twl-stats")
}

#[test]
fn missing_file_exits_nonzero_with_a_diagnostic() {
    let out = twl_stats(&["/nonexistent/telemetry/trace.jsonl"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot read trace"),
        "unhelpful error: {stderr}"
    );
}

#[test]
fn garbage_file_exits_nonzero_instead_of_an_empty_report() {
    let dir = std::env::temp_dir().join(format!("twl-stats-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("not-a-trace.txt");
    std::fs::write(&path, "this is\nnot a telemetry trace\n").expect("write garbage");

    for mode in [&["--spans"][..], &[][..]] {
        let mut args: Vec<&str> = mode.to_vec();
        let path_str = path.to_string_lossy().into_owned();
        args.push(&path_str);
        let out = twl_stats(&args);
        assert!(!out.status.success(), "garbage accepted in mode {mode:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("not a trace file"),
            "unhelpful error: {stderr}"
        );
        assert!(out.stdout.is_empty(), "no report should print");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn span_trace_renders_a_profile_table() {
    let dir = std::env::temp_dir().join(format!("twl-stats-span-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let path = dir.join("spans.jsonl");
    let records = [
        TelemetryRecord::Span {
            name: "drive".to_owned(),
            label: "TWL_swp".to_owned(),
            parent: Some("job".to_owned()),
            depth: 1,
            count: 1,
            inclusive_us: 900,
            exclusive_us: 900,
        },
        TelemetryRecord::Span {
            name: "job".to_owned(),
            label: "job-1".to_owned(),
            parent: None,
            depth: 0,
            count: 1,
            inclusive_us: 1_000,
            exclusive_us: 100,
        },
    ];
    let lines: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
    std::fs::write(&path, lines).expect("write trace");

    let path_str = path.to_string_lossy().into_owned();
    let out = twl_stats(&["--spans", &path_str]);
    assert!(out.status.success(), "twl-stats --spans failed: {out:?}");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(table.contains("drive"), "missing phase row: {table}");
    assert!(table.contains("total self-time"), "missing footer: {table}");

    let out = twl_stats(&["--spans", &path_str, "--format", "json"]);
    assert!(out.status.success());
    let json = String::from_utf8_lossy(&out.stdout);
    assert!(json.contains("\"spans\""), "missing spans array: {json}");
    std::fs::remove_dir_all(&dir).ok();
}
