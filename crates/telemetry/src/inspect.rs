//! Trace inspection: load a JSONL trace, render per-scheme tables, and
//! compare two traces for wear-out regressions.
//!
//! This is the library half of the `twl-stats` binary — kept out of the
//! binary so the table and diff logic is unit-testable.

use std::collections::BTreeMap;
use std::path::Path;

use crate::format_table;
use crate::record::{SchemeSummary, TelemetryRecord};
use crate::wear::WearSnapshot;

/// A loaded trace: the parsed records plus a count of skipped lines.
#[derive(Debug, Default)]
pub struct Trace {
    /// Records in file order.
    pub records: Vec<TelemetryRecord>,
    /// Lines that failed to parse (tolerated, but reported).
    pub skipped: usize,
}

impl Trace {
    /// Parses JSONL text; unparseable lines are counted, not fatal.
    #[must_use]
    pub fn parse(text: &str) -> Self {
        let mut trace = Self::default();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match TelemetryRecord::from_jsonl(line) {
                Ok(record) => trace.records.push(record),
                Err(_) => trace.skipped += 1,
            }
        }
        trace
    }

    /// Loads a trace file.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the file cannot be read.
    pub fn load(path: impl AsRef<Path>) -> std::io::Result<Self> {
        Ok(Self::parse(&std::fs::read_to_string(path)?))
    }

    /// The run header, if the trace carries one.
    #[must_use]
    pub fn run_start(&self) -> Option<(&str, u64, u64, u64)> {
        self.records.iter().find_map(|r| match r {
            TelemetryRecord::RunStart {
                tool,
                pages,
                mean_endurance,
                seed,
            } => Some((tool.as_str(), *pages, *mean_endurance, *seed)),
            _ => None,
        })
    }

    /// All scheme summaries in file order.
    pub fn summaries(&self) -> impl Iterator<Item = &SchemeSummary> {
        self.records.iter().filter_map(|r| match r {
            TelemetryRecord::Summary(s) => Some(s),
            _ => None,
        })
    }

    /// The last wear snapshot recorded for a (scheme, workload) cell.
    #[must_use]
    pub fn final_wear(&self, scheme: &str, workload: &str) -> Option<&WearSnapshot> {
        self.records.iter().rev().find_map(|r| match r {
            TelemetryRecord::Wear {
                scheme: s,
                workload: w,
                snapshot,
            } if s == scheme && w == workload => Some(snapshot),
            _ => None,
        })
    }

    /// Degradation points folded per (scheme, workload) cell in
    /// first-appearance order: the point count plus the last point's
    /// state — how far each cell degraded by the end of its run.
    #[must_use]
    pub fn degradation_cells(&self) -> Vec<DegradationCell> {
        let mut cells: Vec<DegradationCell> = Vec::new();
        for r in &self.records {
            let TelemetryRecord::Degradation {
                scheme,
                workload,
                at_device_writes,
                corrected_groups,
                retired_pages,
                spares_remaining,
                capacity_fraction,
                ..
            } = r
            else {
                continue;
            };
            match cells
                .iter_mut()
                .find(|c| &c.scheme == scheme && &c.workload == workload)
            {
                Some(cell) => {
                    cell.points += 1;
                    cell.at_device_writes = *at_device_writes;
                    cell.corrected_groups = *corrected_groups;
                    cell.retired_pages = *retired_pages;
                    cell.spares_remaining = *spares_remaining;
                    cell.capacity_fraction = *capacity_fraction;
                }
                None => cells.push(DegradationCell {
                    scheme: scheme.clone(),
                    workload: workload.clone(),
                    points: 1,
                    at_device_writes: *at_device_writes,
                    corrected_groups: *corrected_groups,
                    retired_pages: *retired_pages,
                    spares_remaining: *spares_remaining,
                    capacity_fraction: *capacity_fraction,
                }),
            }
        }
        cells
    }

    /// Alarm records counted per scheme.
    #[must_use]
    pub fn alarms_by_scheme(&self) -> BTreeMap<&str, u64> {
        let mut out = BTreeMap::new();
        for r in &self.records {
            if let TelemetryRecord::Alarm { scheme, .. } = r {
                *out.entry(scheme.as_str()).or_insert(0) += 1;
            }
        }
        out
    }

    /// The last metrics-registry dump in the trace, if any.
    #[must_use]
    pub fn final_counters(&self) -> Option<&crate::MetricsSnapshot> {
        self.records.iter().rev().find_map(|r| match r {
            TelemetryRecord::Counters(snap) => Some(snap),
            _ => None,
        })
    }

    /// Folds every `span` record into a self-time profile: one row per
    /// (phase name, label), ordered by total exclusive time descending
    /// so the hottest phase is on top.
    #[must_use]
    pub fn span_profile(&self) -> Vec<SpanProfileRow> {
        let mut rows: Vec<SpanProfileRow> = Vec::new();
        for r in &self.records {
            let TelemetryRecord::Span {
                name,
                label,
                count,
                inclusive_us,
                exclusive_us,
                ..
            } = r
            else {
                continue;
            };
            match rows
                .iter_mut()
                .find(|row| &row.name == name && &row.label == label)
            {
                Some(row) => {
                    row.spans += 1;
                    row.count += count;
                    row.inclusive_us += inclusive_us;
                    row.exclusive_us += exclusive_us;
                }
                None => rows.push(SpanProfileRow {
                    name: name.clone(),
                    label: label.clone(),
                    spans: 1,
                    count: *count,
                    inclusive_us: *inclusive_us,
                    exclusive_us: *exclusive_us,
                }),
            }
        }
        rows.sort_by(|a, b| {
            b.exclusive_us
                .cmp(&a.exclusive_us)
                .then_with(|| a.name.cmp(&b.name))
                .then_with(|| a.label.cmp(&b.label))
        });
        rows
    }
}

/// One aggregated row of a span profile (see [`Trace::span_profile`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanProfileRow {
    /// Phase name.
    pub name: String,
    /// Grouping label (scheme, workload, job id; may be empty).
    pub label: String,
    /// Number of `span` records folded into the row.
    pub spans: u64,
    /// Total timed sections (≥ `spans`; aggregates fold many).
    pub count: u64,
    /// Total wall-clock microseconds, children included.
    pub inclusive_us: u64,
    /// Total self-time microseconds, children excluded.
    pub exclusive_us: u64,
}

/// One (scheme, workload) cell's degradation state, folded from its
/// `degradation_point` records (see [`Trace::degradation_cells`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationCell {
    /// Scheme of the cell.
    pub scheme: String,
    /// Workload or attack of the cell.
    pub workload: String,
    /// Number of degradation points recorded (≈ retirements observed).
    pub points: u64,
    /// Device writes at the last point.
    pub at_device_writes: u64,
    /// Cell-group faults corrected by the last point.
    pub corrected_groups: u64,
    /// Pages retired by the last point.
    pub retired_pages: u64,
    /// Spares still available at the last point.
    pub spares_remaining: u64,
    /// Physical capacity fraction remaining at the last point.
    pub capacity_fraction: f64,
}

/// Renders the per-scheme summary table: swap/write ratio, extra-write
/// percentage, alarm rate, lifetime, and wear percentiles (joined from
/// the cell's final wear snapshot when present).
#[must_use]
pub fn render_summary_table(trace: &Trace) -> String {
    let mut out = String::new();
    if let Some((tool, pages, endurance, seed)) = trace.run_start() {
        out.push_str(&format!(
            "trace: tool={tool} pages={pages} mean_endurance={endurance} seed={seed}\n\n"
        ));
    }
    let rows: Vec<Vec<String>> = trace
        .summaries()
        .map(|s| {
            let (p50, p99, max) = trace.final_wear(&s.scheme, &s.workload).map_or(
                (String::from("-"), String::from("-"), String::from("-")),
                |w| {
                    (
                        w.summary.p50.to_string(),
                        w.summary.p99.to_string(),
                        w.summary.max.to_string(),
                    )
                },
            );
            vec![
                s.scheme.clone(),
                s.workload.clone(),
                format!("{:.5}", s.swap_per_write),
                format!("{:.2}%", s.extra_write_ratio * 100.0),
                format!("{:.3}", s.alarm_rate),
                format!("{:.2}", s.years),
                format!("{:.4}", s.wear_gini),
                p50,
                p99,
                max,
                if s.completed { "yes" } else { "budget" }.to_owned(),
            ]
        })
        .collect();
    let degradation = trace.degradation_cells();
    if rows.is_empty() && degradation.is_empty() {
        out.push_str("no scheme_summary records in trace\n");
    } else if !rows.is_empty() {
        out.push_str(&format_table(
            &[
                "scheme", "workload", "swap/wr", "extra-wr", "alarm", "years", "gini", "wear-p50",
                "wear-p99", "wear-max", "wearout",
            ],
            &rows,
        ));
    }
    if !degradation.is_empty() {
        if !rows.is_empty() {
            out.push('\n');
        }
        out.push_str("degradation (final point per cell):\n");
        let deg_rows: Vec<Vec<String>> = degradation
            .iter()
            .map(|c| {
                vec![
                    c.scheme.clone(),
                    c.workload.clone(),
                    c.points.to_string(),
                    c.at_device_writes.to_string(),
                    c.corrected_groups.to_string(),
                    c.retired_pages.to_string(),
                    c.spares_remaining.to_string(),
                    format!("{:.1}%", c.capacity_fraction * 100.0),
                ]
            })
            .collect();
        out.push_str(&format_table(
            &[
                "scheme",
                "workload",
                "points",
                "dev-writes",
                "corrected",
                "retired",
                "spares",
                "capacity",
            ],
            &deg_rows,
        ));
    }
    if let Some(snap) = trace.final_counters() {
        if !snap.histograms.is_empty() {
            if !rows.is_empty() || !degradation.is_empty() {
                out.push('\n');
            }
            out.push_str("metrics histograms (final dump):\n");
            let hist_rows: Vec<Vec<String>> = snap
                .histograms
                .iter()
                .map(|h| {
                    vec![
                        h.name.clone(),
                        h.count.to_string(),
                        format!("{:.1}", h.mean()),
                        format!("{:.1}", h.quantile(0.50)),
                        format!("{:.1}", h.quantile(0.90)),
                        format!("{:.1}", h.quantile(0.99)),
                        h.max.to_string(),
                    ]
                })
                .collect();
            out.push_str(&format_table(
                &["histogram", "count", "mean", "p50", "p90", "p99", "max"],
                &hist_rows,
            ));
        }
    }
    if trace.skipped > 0 {
        out.push_str(&format!(
            "\n({} unparseable lines skipped)\n",
            trace.skipped
        ));
    }
    out
}

/// Renders [`Trace::span_profile`] as a table: per (phase, label) call
/// counts, inclusive/exclusive totals, and each row's share of the
/// trace's total self-time.
#[must_use]
pub fn render_span_table(trace: &Trace) -> String {
    let profile = trace.span_profile();
    if profile.is_empty() {
        return "no span records in trace\n".to_owned();
    }
    let total_exclusive: u64 = profile.iter().map(|r| r.exclusive_us).sum();
    let rows: Vec<Vec<String>> = profile
        .iter()
        .map(|r| {
            let share = if total_exclusive == 0 {
                0.0
            } else {
                r.exclusive_us as f64 / total_exclusive as f64 * 100.0
            };
            vec![
                r.name.clone(),
                if r.label.is_empty() {
                    "-".to_owned()
                } else {
                    r.label.clone()
                },
                r.spans.to_string(),
                r.count.to_string(),
                format!("{:.3}", r.inclusive_us as f64 / 1000.0),
                format!("{:.3}", r.exclusive_us as f64 / 1000.0),
                format!("{share:.1}%"),
            ]
        })
        .collect();
    let mut out = format_table(
        &[
            "phase", "label", "spans", "count", "incl-ms", "excl-ms", "self",
        ],
        &rows,
    );
    out.push_str(&format!(
        "total self-time: {:.3} ms over {} phase rows\n",
        total_exclusive as f64 / 1000.0,
        profile.len()
    ));
    out
}

/// The JSON twin of [`render_span_table`]: one document with a
/// `spans` array (name, label, spans, count, inclusive_us,
/// exclusive_us, self_fraction) plus `total_exclusive_us`.
#[must_use]
pub fn render_span_json(trace: &Trace) -> String {
    use crate::json::{int, num, str, Json};
    let profile = trace.span_profile();
    let total_exclusive: u64 = profile.iter().map(|r| r.exclusive_us).sum();
    let spans: Vec<Json> = profile
        .iter()
        .map(|r| {
            let share = if total_exclusive == 0 {
                0.0
            } else {
                r.exclusive_us as f64 / total_exclusive as f64
            };
            Json::obj([
                ("name", str(&r.name)),
                ("label", str(&r.label)),
                ("spans", int(r.spans)),
                ("count", int(r.count)),
                ("inclusive_us", int(r.inclusive_us)),
                ("exclusive_us", int(r.exclusive_us)),
                ("self_fraction", num(share)),
            ])
        })
        .collect();
    Json::obj([
        ("schema", str(crate::SCHEMA_VERSION)),
        ("spans", Json::Arr(spans)),
        ("total_exclusive_us", int(total_exclusive)),
        (
            "skipped",
            int(u64::try_from(trace.skipped).unwrap_or(u64::MAX)),
        ),
    ])
    .to_compact()
}

/// Renders the same per-scheme summary as [`render_summary_table`], but
/// as one machine-readable JSON document, so `twl-ctl` and CI can
/// assert on inspector output without screen-scraping tables.
///
/// Shape: `{"schema", "run"?, "summaries": [...], "degradation": [...],
/// "alarms": {scheme: count}, "skipped"}`. Each summary object carries
/// every [`SchemeSummary`] field plus `wear_p50`/`wear_p99`/`wear_max`
/// joined from the cell's final wear snapshot when present.
#[must_use]
pub fn render_summary_json(trace: &Trace) -> String {
    use crate::json::{int, num, str, Json};
    let mut root: BTreeMap<String, Json> = BTreeMap::new();
    root.insert(
        "schema".to_owned(),
        Json::Str(crate::SCHEMA_VERSION.to_owned()),
    );
    if let Some((tool, pages, endurance, seed)) = trace.run_start() {
        root.insert(
            "run".to_owned(),
            Json::obj([
                ("tool", str(tool)),
                ("pages", int(pages)),
                ("mean_endurance", int(endurance)),
                ("seed", int(seed)),
            ]),
        );
    }
    let summaries: Vec<Json> = trace
        .summaries()
        .map(|s| {
            let mut obj = match TelemetryRecord::Summary(s.clone()).to_json() {
                Json::Obj(map) => map,
                _ => unreachable!("summary records serialize to objects"),
            };
            // The table form joins wear percentiles; the JSON form does
            // the same so both views carry identical information.
            if let Some(w) = trace.final_wear(&s.scheme, &s.workload) {
                obj.insert("wear_p50".to_owned(), int(w.summary.p50));
                obj.insert("wear_p99".to_owned(), int(w.summary.p99));
                obj.insert("wear_max".to_owned(), int(w.summary.max));
            }
            // The `schema`/`kind` discriminators belong to the record
            // framing, not to a summary row inside this document.
            obj.remove("schema");
            obj.remove("kind");
            Json::Obj(obj)
        })
        .collect();
    root.insert("summaries".to_owned(), Json::Arr(summaries));
    let degradation: Vec<Json> = trace
        .degradation_cells()
        .iter()
        .map(|c| {
            Json::obj([
                ("scheme", str(&c.scheme)),
                ("workload", str(&c.workload)),
                ("points", int(c.points)),
                ("at_device_writes", int(c.at_device_writes)),
                ("corrected_groups", int(c.corrected_groups)),
                ("retired_pages", int(c.retired_pages)),
                ("spares_remaining", int(c.spares_remaining)),
                ("capacity_fraction", num(c.capacity_fraction)),
            ])
        })
        .collect();
    root.insert("degradation".to_owned(), Json::Arr(degradation));
    let alarms: BTreeMap<String, Json> = trace
        .alarms_by_scheme()
        .into_iter()
        .map(|(scheme, count)| (scheme.to_owned(), int(count)))
        .collect();
    root.insert("alarms".to_owned(), Json::Obj(alarms));
    let histograms: Vec<Json> = trace
        .final_counters()
        .map(|snap| {
            snap.histograms
                .iter()
                .map(|h| {
                    Json::obj([
                        ("name", str(&h.name)),
                        ("count", int(h.count)),
                        ("sum", int(h.sum)),
                        ("max", int(h.max)),
                        ("mean", num(h.mean())),
                        ("p50", num(h.quantile(0.50))),
                        ("p90", num(h.quantile(0.90))),
                        ("p99", num(h.quantile(0.99))),
                    ])
                })
                .collect()
        })
        .unwrap_or_default();
    root.insert("histograms".to_owned(), Json::Arr(histograms));
    root.insert(
        "skipped".to_owned(),
        int(u64::try_from(trace.skipped).unwrap_or(u64::MAX)),
    );
    Json::Obj(root).to_compact()
}

/// One detected regression between two traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Regression {
    /// Scheme of the regressed cell.
    pub scheme: String,
    /// Workload of the regressed cell.
    pub workload: String,
    /// Which quantity moved (`years`, `extra_write_ratio`, `wear_gini`).
    pub metric: &'static str,
    /// Value in the baseline trace.
    pub old: f64,
    /// Value in the new trace.
    pub new: f64,
}

impl Regression {
    /// Human-readable one-liner.
    #[must_use]
    pub fn describe(&self) -> String {
        format!(
            "{}/{}: {} regressed {:.4} -> {:.4}",
            self.scheme, self.workload, self.metric, self.old, self.new
        )
    }
}

/// Compares matching (scheme, workload) cells of two traces and reports
/// wear-out regressions: lifetime shrinking, write amplification or wear
/// inequality growing, each by more than `tolerance` (a fraction, e.g.
/// `0.05` = 5%).
#[must_use]
pub fn diff_traces(old: &Trace, new: &Trace, tolerance: f64) -> Vec<Regression> {
    let old_cells: BTreeMap<(String, String), &SchemeSummary> = old
        .summaries()
        .map(|s| ((s.scheme.clone(), s.workload.clone()), s))
        .collect();
    let mut regressions = Vec::new();
    for s in new.summaries() {
        let Some(base) = old_cells.get(&(s.scheme.clone(), s.workload.clone())) else {
            continue;
        };
        // Lifetime: lower is worse.
        if s.years < base.years * (1.0 - tolerance) {
            regressions.push(Regression {
                scheme: s.scheme.clone(),
                workload: s.workload.clone(),
                metric: "years",
                old: base.years,
                new: s.years,
            });
        }
        // Write amplification: higher is worse. Absolute floor avoids
        // flagging noise around zero.
        if s.extra_write_ratio > base.extra_write_ratio * (1.0 + tolerance)
            && s.extra_write_ratio - base.extra_write_ratio > 1e-6
        {
            regressions.push(Regression {
                scheme: s.scheme.clone(),
                workload: s.workload.clone(),
                metric: "extra_write_ratio",
                old: base.extra_write_ratio,
                new: s.extra_write_ratio,
            });
        }
        // Wear inequality: higher is worse.
        if s.wear_gini > base.wear_gini * (1.0 + tolerance) && s.wear_gini - base.wear_gini > 1e-6 {
            regressions.push(Regression {
                scheme: s.scheme.clone(),
                workload: s.workload.clone(),
                metric: "wear_gini",
                old: base.wear_gini,
                new: s.wear_gini,
            });
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wear::WearSummary;

    fn summary(scheme: &str, years: f64, extra: f64, gini: f64) -> TelemetryRecord {
        TelemetryRecord::Summary(SchemeSummary {
            scheme: scheme.to_owned(),
            workload: "uniform".to_owned(),
            logical_writes: 1000,
            device_writes: 1100,
            swaps: 50,
            swap_per_write: 0.05,
            extra_write_ratio: extra,
            alarm_rate: 0.0,
            capacity_fraction: 0.9,
            years,
            wear_gini: gini,
            completed: true,
        })
    }

    fn trace_of(records: Vec<TelemetryRecord>) -> Trace {
        let text: String = records.iter().map(|r| r.to_jsonl() + "\n").collect();
        Trace::parse(&text)
    }

    #[test]
    fn table_joins_summary_with_final_wear() {
        let trace = trace_of(vec![
            TelemetryRecord::RunStart {
                tool: "fig8_lifetime".to_owned(),
                pages: 1024,
                mean_endurance: 1_000_000,
                seed: 7,
            },
            summary("twl-swp", 6.5, 0.025, 0.01),
            TelemetryRecord::Wear {
                scheme: "twl-swp".to_owned(),
                workload: "uniform".to_owned(),
                snapshot: WearSnapshot {
                    seq: 0,
                    at_writes: 1000,
                    summary: WearSummary::from_counts(&[5, 6, 7, 8]),
                },
            },
        ]);
        let table = render_summary_table(&trace);
        assert!(table.contains("twl-swp"), "table:\n{table}");
        assert!(table.contains("2.50%"), "extra-write %:\n{table}");
        assert!(table.contains('8'), "wear max joined:\n{table}");
        assert!(table.contains("fig8_lifetime"), "header:\n{table}");
    }

    #[test]
    fn degradation_points_fold_into_a_final_state_table() {
        let point = |at: u64, retired: u64, spares: u64| TelemetryRecord::Degradation {
            scheme: "NOWL".to_owned(),
            workload: "repeat".to_owned(),
            at_logical_writes: at,
            at_device_writes: at + retired,
            corrected_groups: retired * 3,
            retired_pages: retired,
            spares_remaining: spares,
            capacity_fraction: 1.0 - retired as f64 / 100.0,
        };
        let trace = trace_of(vec![point(1_000, 1, 3), point(2_000, 4, 0)]);
        let cells = trace.degradation_cells();
        assert_eq!(cells.len(), 1);
        assert_eq!(cells[0].points, 2);
        assert_eq!(cells[0].retired_pages, 4);
        assert_eq!(cells[0].spares_remaining, 0);
        let table = render_summary_table(&trace);
        assert!(table.contains("degradation"), "table:\n{table}");
        assert!(table.contains("96.0%"), "capacity:\n{table}");
        assert!(
            !table.contains("no scheme_summary"),
            "degradation-only traces are not empty:\n{table}"
        );
    }

    #[test]
    fn json_summary_is_parseable_and_joins_wear() {
        use crate::json::Json;
        use crate::wear::WearSummary;
        let trace = trace_of(vec![
            TelemetryRecord::RunStart {
                tool: "twl-serviced".to_owned(),
                pages: 128,
                mean_endurance: 2_000,
                seed: 8,
            },
            summary("twl-swp", 6.5, 0.025, 0.01),
            TelemetryRecord::Wear {
                scheme: "twl-swp".to_owned(),
                workload: "uniform".to_owned(),
                snapshot: WearSnapshot {
                    seq: 0,
                    at_writes: 1000,
                    summary: WearSummary::from_counts(&[5, 6, 7, 8]),
                },
            },
        ]);
        let doc = Json::parse(&render_summary_json(&trace)).expect("valid JSON");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("twl-telemetry/v1")
        );
        assert_eq!(
            doc.get("run")
                .and_then(|r| r.get("tool"))
                .and_then(Json::as_str),
            Some("twl-serviced")
        );
        let summaries = doc.get("summaries").and_then(Json::as_arr).unwrap();
        assert_eq!(summaries.len(), 1);
        assert_eq!(
            summaries[0].get("scheme").and_then(Json::as_str),
            Some("twl-swp")
        );
        assert_eq!(summaries[0].get("wear_max").and_then(Json::as_u64), Some(8));
        assert_eq!(summaries[0].get("years").and_then(Json::as_f64), Some(6.5));
        assert!(
            summaries[0].get("kind").is_none(),
            "framing fields stripped"
        );
        assert_eq!(doc.get("skipped").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn diff_flags_lifetime_drop_only_past_tolerance() {
        let old = trace_of(vec![summary("a", 10.0, 0.02, 0.01)]);
        let ok = trace_of(vec![summary("a", 9.8, 0.02, 0.01)]);
        let bad = trace_of(vec![summary("a", 8.0, 0.02, 0.01)]);
        assert!(diff_traces(&old, &ok, 0.05).is_empty());
        let regs = diff_traces(&old, &bad, 0.05);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "years");
    }

    #[test]
    fn diff_flags_amplification_and_gini_growth() {
        let old = trace_of(vec![summary("a", 10.0, 0.02, 0.01)]);
        let bad = trace_of(vec![summary("a", 10.0, 0.04, 0.03)]);
        let metrics: Vec<&str> = diff_traces(&old, &bad, 0.05)
            .into_iter()
            .map(|r| r.metric)
            .collect();
        assert_eq!(metrics, vec!["extra_write_ratio", "wear_gini"]);
    }

    #[test]
    fn diff_ignores_cells_missing_from_baseline() {
        let old = trace_of(vec![summary("a", 10.0, 0.02, 0.01)]);
        let new = trace_of(vec![summary("b", 1.0, 0.5, 0.9)]);
        assert!(diff_traces(&old, &new, 0.05).is_empty());
    }

    fn span(
        name: &str,
        label: &str,
        parent: Option<&str>,
        incl: u64,
        excl: u64,
    ) -> TelemetryRecord {
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

    #[test]
    fn span_profile_folds_by_phase_and_label() {
        let trace = trace_of(vec![
            span("drive", "TWL_swp", Some("cell"), 900, 900),
            span("cell", "TWL_swp", None, 1000, 100),
            span("drive", "NOWL", Some("cell"), 400, 400),
            span("cell", "NOWL", None, 500, 100),
            span("drive", "TWL_swp", Some("cell"), 300, 300),
            span("cell", "TWL_swp", None, 350, 50),
        ]);
        let profile = trace.span_profile();
        assert_eq!(profile.len(), 4, "{profile:?}");
        // Hottest self-time first: TWL_swp drive (900+300).
        assert_eq!(profile[0].name, "drive");
        assert_eq!(profile[0].label, "TWL_swp");
        assert_eq!(profile[0].spans, 2);
        assert_eq!(profile[0].inclusive_us, 1200);
        assert_eq!(profile[0].exclusive_us, 1200);

        let table = render_span_table(&trace);
        assert!(table.contains("phase"), "table:\n{table}");
        assert!(table.contains("TWL_swp"), "table:\n{table}");
        assert!(table.contains("total self-time"), "table:\n{table}");

        use crate::json::Json;
        let doc = Json::parse(&render_span_json(&trace)).expect("valid JSON");
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans.len(), 4);
        assert_eq!(
            doc.get("total_exclusive_us").and_then(Json::as_u64),
            Some(900 + 300 + 400 + 100 + 100 + 50)
        );
    }

    #[test]
    fn empty_span_profile_renders_a_note() {
        let trace = trace_of(vec![summary("a", 1.0, 0.0, 0.0)]);
        assert_eq!(render_span_table(&trace), "no span records in trace\n");
    }

    #[test]
    fn summary_surfaces_histogram_percentiles() {
        use crate::metrics::HistogramSnapshot;
        let trace = trace_of(vec![
            summary("a", 1.0, 0.0, 0.0),
            TelemetryRecord::Counters(crate::MetricsSnapshot {
                counters: vec![],
                gauges: vec![],
                histograms: vec![HistogramSnapshot {
                    name: "twl.job.wall_ms".to_owned(),
                    count: 4,
                    sum: 40,
                    max: 16,
                    buckets: vec![0, 0, 1, 2, 1],
                }],
            }),
        ]);
        let table = render_summary_table(&trace);
        assert!(table.contains("metrics histograms"), "table:\n{table}");
        assert!(table.contains("twl.job.wall_ms"), "table:\n{table}");
        use crate::json::Json;
        let doc = Json::parse(&render_summary_json(&trace)).expect("valid JSON");
        let hists = doc.get("histograms").and_then(Json::as_arr).unwrap();
        assert_eq!(hists.len(), 1);
        let p99 = hists[0].get("p99").and_then(Json::as_f64).unwrap();
        assert!(p99 > 0.0 && p99 <= 16.0, "p99 clamped to max: {p99}");
    }

    #[test]
    fn unparseable_lines_are_counted_not_fatal() {
        let trace = Trace::parse("not json\n\n{\"schema\":\"bogus\"}\n");
        assert_eq!(trace.records.len(), 0);
        assert_eq!(trace.skipped, 2);
    }
}
