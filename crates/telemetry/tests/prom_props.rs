//! Property tests for the Prometheus exposition: pages rendered from
//! arbitrary registry states must lint clean, keep `_bucket` series
//! cumulative/monotone, and agree between `_count` and the `+Inf`
//! bucket — plus label-escaping round-trips through the parser.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_telemetry::prom::{
    escape_label_value, parse_exposition, render_exposition, scalar_samples, PromWriter,
};
use twl_telemetry::{HistogramSnapshot, MetricsSnapshot};

fn snapshot_from(
    counters: Vec<u64>,
    gauges: Vec<i64>,
    histogram_samples: Vec<Vec<u64>>,
) -> MetricsSnapshot {
    let mut snap = MetricsSnapshot::default();
    for (i, v) in counters.into_iter().enumerate() {
        snap.counters.push((format!("prop.counter.{i}"), v));
    }
    for (i, v) in gauges.into_iter().enumerate() {
        snap.gauges.push((format!("prop.gauge.{i}"), v));
    }
    for (i, samples) in histogram_samples.into_iter().enumerate() {
        // Feed a real Histogram so the snapshot's buckets/count/sum/max
        // relationships are exactly what the registry would produce.
        let h = twl_telemetry::Histogram::new();
        for s in samples {
            h.record(s);
        }
        snap.histograms.push(HistogramSnapshot {
            name: format!("prop.hist.{i}"),
            count: h.count(),
            sum: h.sum(),
            max: h.max(),
            buckets: h.bucket_counts(),
        });
    }
    snap
}

proptest! {
    /// Any registry state renders to a page the lint accepts, with
    /// every counter/gauge value surviving the round trip.
    #[test]
    fn random_registry_states_render_lintable_pages(
        counters in proptest::collection::vec(0u64..u64::MAX / 2, 0..4),
        gauges in proptest::collection::vec(0u64..2000, 0..4),
        hist in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000_000, 0..40),
            0..3,
        ),
    ) {
        // The vendored proptest only samples unsigned ranges; shift to
        // cover negative gauge values too.
        let gauges: Vec<i64> = gauges.into_iter().map(|v| v as i64 - 1000).collect();
        let snap = snapshot_from(counters.clone(), gauges, hist);
        let page = render_exposition(&snap);
        let samples = parse_exposition(&page).expect("page lints clean");
        let flat = scalar_samples(&samples);
        for (name, v) in &snap.counters {
            let exposed = flat[&name.replace('.', "_")];
            prop_assert_eq!(exposed, *v as f64);
        }
        for (name, v) in &snap.gauges {
            let exposed = flat[&name.replace('.', "_")];
            prop_assert_eq!(exposed, *v as f64);
        }
    }

    /// The `_bucket` series is cumulative (non-decreasing in `le`
    /// order) and its `+Inf` sample equals `_count`, which equals the
    /// number of recorded samples.
    #[test]
    fn histogram_buckets_are_cumulative_and_match_count(
        samples in proptest::collection::vec(0u64..u64::MAX, 0..60),
    ) {
        let snap = snapshot_from(vec![], vec![], vec![samples.clone()]);
        let page = render_exposition(&snap);
        let parsed = parse_exposition(&page).expect("page lints clean");
        let buckets: Vec<f64> = parsed
            .iter()
            .filter(|s| s.name == "prop_hist_0_bucket")
            .map(|s| s.value)
            .collect();
        prop_assert!(!buckets.is_empty());
        for pair in buckets.windows(2) {
            prop_assert!(pair[0] <= pair[1], "cumulative counts decreased: {buckets:?}");
        }
        let flat = scalar_samples(&parsed);
        prop_assert_eq!(*buckets.last().unwrap(), flat["prop_hist_0_count"]);
        prop_assert_eq!(flat["prop_hist_0_count"], samples.len() as f64);
    }

    /// Label values with quotes, backslashes, and newlines round-trip
    /// exactly through escape → render → parse.
    #[test]
    fn label_values_roundtrip(
        raw in proptest::collection::vec(0u8..5, 0..12),
    ) {
        // Map digits onto the troublesome alphabet.
        let value: String = raw
            .iter()
            .map(|b| ['a', '\\', '"', '\n', 'z'][*b as usize])
            .collect();
        let mut w = PromWriter::new();
        w.gauge_family("prop_label_gauge", &[(&[("job", value.as_str())], 1.0)]);
        let parsed = parse_exposition(&w.finish()).expect("label page lints clean");
        prop_assert_eq!(parsed.len(), 1);
        prop_assert_eq!(parsed[0].label("job"), Some(value.as_str()));
        // And the escaper alone never produces raw quotes/newlines.
        let escaped = escape_label_value(&value);
        prop_assert!(!escaped.contains('\n'));
    }
}

/// Quantile estimates never leave the observed [0, max] envelope and
/// stay monotone in `q` — checked against the same random sample sets.
#[test]
fn quantiles_bounded_and_monotone() {
    let h = twl_telemetry::Histogram::new();
    assert_eq!(h.quantile(0.99), 0.0, "empty histogram reports 0");
    let samples: Vec<u64> = (0..257u64)
        .map(|i| i.wrapping_mul(2654435761) % 100_000)
        .collect();
    for &s in &samples {
        h.record(s);
    }
    let mut prev = 0.0;
    for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let v = h.quantile(q);
        assert!(v >= 0.0 && v <= h.max() as f64, "q={q} v={v}");
        assert!(v >= prev, "quantiles must be monotone in q");
        prev = v;
    }
}
