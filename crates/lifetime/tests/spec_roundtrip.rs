//! Round-trip properties of the scheme-spec grammar: any canonical
//! [`SchemeSpec`] survives `label → parse` and `to_json → from_json`
//! without loss, and kind labels survive `Display → FromStr` in any
//! case. These are the contracts the service wire format, checkpoint
//! files, and `twl-ctl --schemes` all lean on.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_core::PairingStrategy;
use twl_lifetime::{
    BwlParams, SchemeKind, SchemeParams, SchemeSpec, SrParams, StartGapParams, TwlParams,
};

fn kind_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Nowl),
        Just(SchemeKind::Sr),
        Just(SchemeKind::Bwl),
        Just(SchemeKind::Wrl),
        Just(SchemeKind::StartGap),
        Just(SchemeKind::TwlSwp),
        Just(SchemeKind::TwlAp),
    ]
}

fn pairing_strategy() -> impl Strategy<Value = PairingStrategy> {
    prop_oneof![
        Just(PairingStrategy::StrongWeak),
        Just(PairingStrategy::Adjacent),
        (0u64..1000).prop_map(|seed| PairingStrategy::Random { seed }),
    ]
}

/// Makes any strategy optional: half the draws are `None`.
fn opt<S>(inner: S) -> impl Strategy<Value = Option<S::Value>>
where
    S: Strategy + 'static,
    S::Value: Clone + 'static,
{
    prop_oneof![Just(None), inner.prop_map(Some)]
}

fn twl_spec_strategy(kind: SchemeKind) -> impl Strategy<Value = SchemeSpec> {
    (
        opt(1u64..10_000),
        opt(prop_oneof![(1u64..100_000).boxed(), Just(u64::MAX).boxed()]),
        opt(pairing_strategy()),
        opt(any::<bool>()),
        opt(any::<bool>()),
    )
        .prop_map(
            move |(ti, ip, pairing, optimized_swap, dynamic_endurance)| {
                SchemeSpec {
                    kind,
                    params: SchemeParams::Twl(TwlParams {
                        toss_up_interval: ti,
                        inter_pair_swap_interval: ip,
                        pairing,
                        optimized_swap,
                        dynamic_endurance,
                    }),
                }
                .canonical()
            },
        )
}

fn spec_strategy() -> impl Strategy<Value = SchemeSpec> {
    prop_oneof![
        kind_strategy().prop_map(SchemeSpec::new),
        twl_spec_strategy(SchemeKind::TwlSwp),
        twl_spec_strategy(SchemeKind::TwlAp),
        (opt(1u64..1_000_000), opt(1u64..100), opt(any::<bool>())).prop_map(|(e, t, r)| {
            SchemeSpec {
                kind: SchemeKind::Bwl,
                params: SchemeParams::Bwl(BwlParams {
                    epoch_writes: e,
                    initial_hot_threshold: t,
                    band_repair: r,
                }),
            }
            .canonical()
        }),
        (opt(1u64..100_000), opt(1u64..100_000)).prop_map(|(inner, outer)| {
            SchemeSpec {
                kind: SchemeKind::Sr,
                params: SchemeParams::Sr(SrParams {
                    inner_interval: inner,
                    outer_interval: outer,
                }),
            }
            .canonical()
        }),
        opt(1u64..100_000).prop_map(|gap| {
            SchemeSpec {
                kind: SchemeKind::StartGap,
                params: SchemeParams::StartGap(StartGapParams { gap_interval: gap }),
            }
            .canonical()
        }),
    ]
}

proptest! {
    /// `label()` is parseable and parses back to the same spec.
    #[test]
    fn spec_labels_round_trip(spec in spec_strategy()) {
        let label = spec.label();
        let parsed: SchemeSpec = label
            .parse()
            .unwrap_or_else(|e| panic!("label `{label}` does not parse: {e}"));
        prop_assert_eq!(parsed, spec);
        // Parsing is idempotent: the reparsed spec renders the same label.
        prop_assert_eq!(parsed.label(), label);
    }

    /// The JSON codec is lossless, including through the text form.
    #[test]
    fn spec_json_round_trips(spec in spec_strategy()) {
        let encoded = spec.to_json();
        let decoded = SchemeSpec::from_json(&encoded)
            .unwrap_or_else(|e| panic!("{spec} does not decode from its own JSON: {e}"));
        prop_assert_eq!(decoded, spec);
        let text = encoded.to_compact();
        let reparsed = twl_telemetry::json::Json::parse(&text)
            .unwrap_or_else(|e| panic!("compact JSON for {spec} does not reparse: {e}"));
        let redecoded = SchemeSpec::from_json(&reparsed)
            .unwrap_or_else(|e| panic!("{spec} does not decode through text: {e}"));
        prop_assert_eq!(redecoded, spec);
    }

    /// Kind labels round-trip case-insensitively.
    #[test]
    fn kind_labels_round_trip(kind in kind_strategy()) {
        prop_assert_eq!(kind.label().parse::<SchemeKind>(), Ok(kind));
        prop_assert_eq!(kind.label().to_uppercase().parse::<SchemeKind>(), Ok(kind));
        prop_assert_eq!(kind.label().to_lowercase().parse::<SchemeKind>(), Ok(kind));
    }
}
