//! `twl-telemetry`: the unified observability layer for the tossup-wl
//! workspace.
//!
//! The pieces:
//!
//! 1. **Metrics registry** ([`Registry`], [`global`]) — monotonic
//!    counters, gauges, and fixed-bucket histograms behind `&'static`
//!    handles, so hot paths (the wear-leveling engine, the memory
//!    controller) record without threading `&mut` state through their
//!    APIs. The [`counter!`], [`gauge!`] and [`histogram!`] macros cache
//!    the lookup per call site; steady state is one relaxed atomic op.
//! 2. **Wear-map sampling** ([`WearMapSampler`], [`WearSummary`]) —
//!    per-page write-count histograms plus Gini / CoV wear-inequality
//!    summaries captured every N writes into a bounded ring buffer.
//! 3. **Sinks** ([`Sink`], [`MemorySink`], [`JsonlSink`], [`emit`]) —
//!    pluggable record destinations: in-memory for tests, buffered
//!    schema-versioned JSONL files for benchmark tools, and the
//!    scope-routed [`RoutingJsonlSink`] that fans one pipeline out to
//!    per-job trace files keyed by a thread-local label
//!    ([`ScopeGuard`]) — how the `twl-service` daemon gives every job
//!    its own trace. When no sink is installed, [`emit`] costs one
//!    relaxed atomic load.
//! 4. **Spans** ([`SpanGuard`], [`span!`], [`AggregateSpan`]) —
//!    wall-clock phase timing with parent/child nesting via a
//!    thread-local span stack, emitted as `span` records; entirely off
//!    the simulation RNG path, and free when no sink is installed.
//! 5. **Prometheus exposition** ([`prom`]) — renders a
//!    [`MetricsSnapshot`] as a text-format (v0.0.4) scrape page, with a
//!    matching parser/format-lint.
//! 6. **Inspection** ([`Trace`], [`render_summary_table`],
//!    [`render_summary_json`], [`render_span_table`], [`diff_traces`])
//!    — the library behind the `twl-stats` binary: loads JSONL traces,
//!    renders per-scheme tables (or one machine-readable JSON
//!    document), folds span records into self-time profiles, and flags
//!    wear-out regressions between two traces. [`format_table`] is the
//!    fixed-width table the bench binaries, `twl-ctl`, `twl-top` and
//!    `twl-stats` share.
//! 7. **Spec grammar** ([`spec`]) — the one `KIND[k=v,...]` label
//!    grammar and JSON codec behind `SchemeSpec` and `WorkloadSpec`.
//!
//! Every emitted record carries [`SCHEMA_VERSION`] so traces remain
//! self-describing as the schema evolves.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod inspect;
mod metrics;
mod record;
mod route;
mod sink;
mod span;
mod wear;

pub mod json;
pub mod prom;
pub mod spec;

/// Schema tag stamped on every JSONL record.
pub const SCHEMA_VERSION: &str = "twl-telemetry/v1";

pub use inspect::{
    diff_traces, render_span_json, render_span_table, render_summary_json, render_summary_table,
    DegradationCell, Regression, SpanProfileRow, Trace,
};
pub use metrics::{
    global, quantile_from_buckets, Counter, Gauge, Histogram, HistogramSnapshot, MetricsSnapshot,
    Registry,
};
pub use record::{SchemeSummary, TelemetryRecord};
pub use route::{clear_scope, current_scope, set_scope, RoutingJsonlSink, ScopeGuard};
pub use sink::{
    clear_sinks, emit, enabled, flush_sinks, install_sink, set_enabled, JsonlSink, MemorySink, Sink,
};
pub use span::{emit_measured, set_spans_enabled, spans_enabled, AggregateSpan, SpanGuard};
pub use wear::{WearMapSampler, WearSnapshot, WearSummary, WEAR_BUCKETS};

/// Renders a fixed-width table — a header row, a separator, then rows —
/// as a string ending in a newline. The bench binaries print their
/// tables through it, and `twl-ctl` and `twl-top` render daemon output
/// through it, so the two match byte for byte.
///
/// # Panics
///
/// Panics if a row's length differs from the header's.
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let mut out = String::new();
    let line = |out: &mut String, cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        out.push_str("  ");
        out.push_str(&joined.join("  "));
        out.push('\n');
    };
    line(
        &mut out,
        &headers.iter().map(|h| (*h).to_owned()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
    out.push_str("  ");
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        line(&mut out, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_table_aligns_columns() {
        let rendered = format_table(
            &["scheme", "years"],
            &[
                vec!["NOWL".into(), "0.5".into()],
                vec!["TWL_swp".into(), "12.25".into()],
            ],
        );
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("scheme"));
        assert!(lines[1].chars().all(|c| c == '-' || c == ' '));
        assert!(lines[3].contains("TWL_swp"));
        assert!(rendered.ends_with('\n'));
    }
}
