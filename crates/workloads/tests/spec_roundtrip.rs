//! Round-trip properties of the workload-spec grammar: any canonical
//! [`WorkloadSpec`] survives `label → parse` and `to_json → from_json`
//! without loss, and kind labels survive `Display → FromStr` in any
//! case. These are the contracts the service wire format, checkpoint
//! files, fleet cell keys, and `twl-ctl --workloads` all lean on —
//! the workload mirror of `twl-lifetime`'s scheme-spec round trip.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_attacks::AttackKind;
use twl_workloads::{
    AttackParams, ParsecBenchmark, ParsecParams, TraceParams, WorkloadKind, WorkloadParams,
    WorkloadSpec,
};

fn attack_kind_strategy() -> impl Strategy<Value = AttackKind> {
    (0u64..AttackKind::ALL.len() as u64).prop_map(|i| AttackKind::ALL[i as usize])
}

fn benchmark_strategy() -> impl Strategy<Value = ParsecBenchmark> {
    (0u64..ParsecBenchmark::ALL.len() as u64).prop_map(|i| ParsecBenchmark::ALL[i as usize])
}

/// Every kind that is canonical without parameters (TRACE needs `path`).
fn bare_kind_strategy() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        attack_kind_strategy().prop_map(WorkloadKind::Attack),
        benchmark_strategy().prop_map(WorkloadKind::Parsec),
    ]
}

fn kind_strategy() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![bare_kind_strategy(), Just(WorkloadKind::Trace)]
}

/// Makes any strategy optional: half the draws are `None`.
fn opt<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some)]
}

/// A strictly positive finite float with a round-trippable short form.
fn positive_f64() -> impl Strategy<Value = f64> {
    #[allow(clippy::cast_precision_loss)]
    (1u64..100_000_000).prop_map(|v| v as f64 / 1000.0)
}

/// A probability in `[0, 1]`.
fn fraction() -> impl Strategy<Value = f64> {
    #[allow(clippy::cast_precision_loss)]
    (0u64..1001).prop_map(|v| v as f64 / 1000.0)
}

fn attack_spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        // Repeat: only `target` applies.
        opt(0u64..10_000).prop_map(|target| WorkloadSpec {
            kind: WorkloadKind::Attack(AttackKind::Repeat),
            params: WorkloadParams::Attack(AttackParams {
                target,
                ..AttackParams::default()
            }),
        }
        .canonical()),
        // Random: only `seed` applies.
        opt(any::<u64>()).prop_map(|seed| WorkloadSpec {
            kind: WorkloadKind::Attack(AttackKind::Random),
            params: WorkloadParams::Attack(AttackParams {
                seed,
                ..AttackParams::default()
            }),
        }
        .canonical()),
        // Inconsistent: the four firehose/victim phase knobs.
        (
            opt(1u64..100_000),
            opt(2u64..100_000),
            opt(1u64..1_000_000),
            opt(1u64..1_000_000),
        )
            .prop_map(
                |(group_size, victim_stride, min_phase_writes, phase_timeout_writes)| {
                    WorkloadSpec {
                        kind: WorkloadKind::Attack(AttackKind::Inconsistent),
                        params: WorkloadParams::Attack(AttackParams {
                            group_size,
                            victim_stride,
                            min_phase_writes,
                            phase_timeout_writes,
                            ..AttackParams::default()
                        }),
                    }
                    .canonical()
                }
            ),
    ]
}

fn parsec_spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (
        benchmark_strategy(),
        opt(positive_f64()),
        opt(2u64..1_000_000),
        opt(fraction()),
        opt(any::<u64>()),
    )
        .prop_map(|(bench, zipf_alpha, footprint, read_fraction, seed)| {
            WorkloadSpec {
                kind: WorkloadKind::Parsec(bench),
                params: WorkloadParams::Parsec(ParsecParams {
                    zipf_alpha,
                    footprint,
                    read_fraction,
                    seed,
                }),
            }
            .canonical()
        })
}

fn trace_spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    (any::<u64>(), opt(any::<u64>()), opt(positive_f64())).prop_map(
        |(stamp, seed, bandwidth_mbps)| {
            WorkloadSpec {
                kind: WorkloadKind::Trace,
                params: WorkloadParams::Trace(TraceParams {
                    path: format!("captures/run-{stamp:016x}.trace"),
                    seed,
                    bandwidth_mbps,
                }),
            }
            .canonical()
        },
    )
}

fn spec_strategy() -> impl Strategy<Value = WorkloadSpec> {
    prop_oneof![
        bare_kind_strategy().prop_map(WorkloadSpec::new),
        attack_spec_strategy(),
        parsec_spec_strategy(),
        trace_spec_strategy(),
    ]
}

proptest! {
    /// `label()` is parseable and parses back to the same spec.
    #[test]
    fn spec_labels_round_trip(spec in spec_strategy()) {
        spec.validate().expect("generated specs are valid");
        let label = spec.label();
        let parsed: WorkloadSpec = label
            .parse()
            .unwrap_or_else(|e| panic!("label `{label}` does not parse: {e}"));
        prop_assert_eq!(&parsed, &spec);
        // Parsing is idempotent: the reparsed spec renders the same label.
        prop_assert_eq!(parsed.label(), label);
    }

    /// The JSON codec is lossless, including through the text form.
    #[test]
    fn spec_json_round_trips(spec in spec_strategy()) {
        let encoded = spec.to_json();
        let decoded = WorkloadSpec::from_json(&encoded)
            .unwrap_or_else(|e| panic!("{spec} does not decode from its own JSON: {e}"));
        prop_assert_eq!(&decoded, &spec);
        let text = encoded.to_compact();
        let reparsed = twl_telemetry::json::Json::parse(&text)
            .unwrap_or_else(|e| panic!("compact JSON for {spec} does not reparse: {e}"));
        let redecoded = WorkloadSpec::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("{spec} does not decode through text: {e}"));
        prop_assert_eq!(redecoded, spec);
    }

    /// Default specs encode as the bare kind string — the wire form
    /// every pre-WorkloadSpec frame used — and decode back losslessly.
    #[test]
    fn default_specs_encode_as_bare_strings(kind in bare_kind_strategy()) {
        let spec = WorkloadSpec::new(kind);
        let encoded = spec.to_json();
        prop_assert_eq!(encoded.to_compact(), format!("\"{}\"", kind.label()));
        prop_assert_eq!(WorkloadSpec::from_json(&encoded).unwrap(), spec);
    }

    /// Kind labels round-trip case-insensitively.
    #[test]
    fn kind_labels_round_trip(kind in kind_strategy()) {
        prop_assert_eq!(kind.label().parse::<WorkloadKind>(), Ok(kind));
        prop_assert_eq!(kind.label().to_uppercase().parse::<WorkloadKind>(), Ok(kind));
        prop_assert_eq!(kind.label().to_lowercase().parse::<WorkloadKind>(), Ok(kind));
    }
}
