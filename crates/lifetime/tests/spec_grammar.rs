//! One table of label and JSON shapes, run against both spec types:
//! `SchemeSpec` and `WorkloadSpec` share one `KIND[k=v,...]` grammar, so
//! every shape must get the same verdict from both.

use twl_lifetime::{parse_spec_list, SchemeSpec};
use twl_telemetry::json::Json;
use twl_workloads::{parse_workload_list, TraceParams, WorkloadKind, WorkloadParams, WorkloadSpec};

/// The spellings one spec type fills a shape with.
struct Vocab {
    /// `{K}`: a kind that takes parameters.
    kind: &'static str,
    /// `{P}`: a valid `key=value` for `kind`.
    param: &'static str,
    /// `{KEY}`: the key of `param`, alone.
    key: &'static str,
    /// `{Q}`: a second valid `key=value` for `kind`.
    other: &'static str,
    /// `{K2}`, `{K3}`: two more kinds, for lists.
    kind2: &'static str,
    kind3: &'static str,
    /// `{JK}`: the JSON key behind `key`.
    json_key: &'static str,
}

const SCHEME: Vocab = Vocab {
    kind: "TWL_swp",
    param: "ti=8",
    key: "ti",
    other: "ip=32",
    kind2: "BWL",
    kind3: "NOWL",
    json_key: "toss_up_interval",
};

const WORKLOAD: Vocab = Vocab {
    kind: "inconsistent",
    param: "group=8",
    key: "group",
    other: "stride=64",
    kind2: "scan",
    kind3: "repeat",
    json_key: "group_size",
};

fn fill(shape: &str, v: &Vocab) -> String {
    shape
        .replace("{K2}", v.kind2)
        .replace("{K3}", v.kind3)
        .replace("{K}", v.kind)
        .replace("{P}", v.param)
        .replace("{Q}", v.other)
        .replace("{KEY}", v.key)
        .replace("{JK}", v.json_key)
}

/// Label shapes and what the list parser must make of them: `None`
/// rejects, `Some(labels)` accepts and renders those labels.
const LABEL_SHAPES: &[(&str, Option<&[&str]>)] = &[
    ("{K}[{P}]", Some(&["{K}[{P}]"])),
    (" {K} [{P}] ", Some(&["{K}[{P}]"])),
    ("{K}", Some(&["{K}"])),
    // Unterminated, empty, and key-without-value blocks.
    ("{K}[{P}", None),
    ("{K}[", None),
    ("{K}[]", None),
    ("{K}[ ]", None),
    ("{K}[{KEY}]", None),
    ("{K}[={P}]", None),
    ("{K}[{P},]", None),
    // Stray brackets.
    ("{K}[{P}]]", None),
    ("{K}[[{P}]", None),
    ("{K}]", None),
    // Unknown kinds.
    ("mystery", None),
    ("mystery[{P}]", None),
    // Lists with no label in them.
    ("", None),
    ("  ", None),
    (",,", None),
    (" , ", None),
    // Commas inside brackets do not split; blanks around items and
    // empty items do not count.
    (
        "{K}[{P},{Q}], {K2} ,{K3}",
        Some(&["{K}[{P},{Q}]", "{K2}", "{K3}"]),
    ),
    (",{K}[{P},{Q}],,{K2},", Some(&["{K}[{P},{Q}]", "{K2}"])),
];

/// JSON shapes and whether the decoder accepts them.
const JSON_SHAPES: &[(&str, bool)] = &[
    (r#""{K}[{P}]""#, true),
    (r#"{"kind":"{K}"}"#, true),
    (r#"{"kind":"{K}","params":{}}"#, true),
    (r#"{"kind":"{K}","params":{"{JK}":8}}"#, true),
    (r#"{"kind":"{K}","params":{"{KEY}":8}}"#, true),
    (r#"{"kind":"{K}","params":{"{JK}":"8"}}"#, true),
    // Integer keys take integers only.
    (r#"{"kind":"{K}","params":{"{JK}":8.0}}"#, false),
    (r#"{"kind":"{K}","params":{"{JK}":-8}}"#, false),
    (
        r#"{"kind":"{K}","params":{"{JK}":18446744073709551616}}"#,
        false,
    ),
    (r#"{"kind":"{K}","params":{"{JK}":null}}"#, false),
    (r#"{"kind":"{K}","params":{"{JK}":[8]}}"#, false),
    (r#"{"kind":"{K}","params":{"bogus":8}}"#, false),
    (r#"{"kind":"{K}","params":[]}"#, false),
    (r#"{"kind":"mystery"}"#, false),
    (r#"{"kind":8}"#, false),
    (r#"{"params":{}}"#, false),
    (r#""{K}[""#, false),
    ("8", false),
    ("null", false),
];

fn scheme_list(s: &str) -> Result<Vec<String>, String> {
    parse_spec_list(s).map(|specs| specs.iter().map(SchemeSpec::label).collect())
}

fn workload_list(s: &str) -> Result<Vec<String>, String> {
    parse_workload_list(s).map(|specs| specs.iter().map(WorkloadSpec::label).collect())
}

#[test]
fn every_label_shape_gets_the_same_verdict_from_both_specs() {
    for &(shape, expected) in LABEL_SHAPES {
        for (vocab, got, single) in [
            (
                &SCHEME,
                scheme_list(&fill(shape, &SCHEME)),
                fill(shape, &SCHEME)
                    .parse::<SchemeSpec>()
                    .map(|s| s.label()),
            ),
            (
                &WORKLOAD,
                workload_list(&fill(shape, &WORKLOAD)),
                fill(shape, &WORKLOAD)
                    .parse::<WorkloadSpec>()
                    .map(|s| s.label()),
            ),
        ] {
            let input = fill(shape, vocab);
            let want: Option<Vec<String>> =
                expected.map(|labels| labels.iter().map(|l| fill(l, vocab)).collect());
            assert_eq!(got.clone().ok(), want, "list `{input}`: {got:?}");
            // A single label parses exactly when the list holds one.
            let want_single = want.filter(|l| l.len() == 1).map(|mut l| l.remove(0));
            assert_eq!(
                single.clone().ok(),
                want_single,
                "label `{input}`: {single:?}"
            );
        }
    }
}

#[test]
fn every_json_shape_gets_the_same_verdict_from_both_specs() {
    for &(shape, accept) in JSON_SHAPES {
        let scheme = Json::parse(&fill(shape, &SCHEME)).and_then(|j| SchemeSpec::from_json(&j));
        let workload =
            Json::parse(&fill(shape, &WORKLOAD)).and_then(|j| WorkloadSpec::from_json(&j));
        assert_eq!(scheme.is_ok(), accept, "scheme `{shape}`: {scheme:?}");
        assert_eq!(workload.is_ok(), accept, "workload `{shape}`: {workload:?}");
    }
}

/// A trace path is free text inside the grammar, so it must survive the
/// label round trip: no delimiters and no padding the parser would trim.
#[test]
fn trace_paths_that_break_the_label_round_trip_are_rejected() {
    for path in [
        " a.trace",
        "a.trace ",
        "\ta.trace",
        "a,b.trace",
        "a[b].trace",
    ] {
        let json = Json::obj([
            ("kind", Json::Str("TRACE".into())),
            ("params", Json::obj([("path", Json::Str(path.into()))])),
        ]);
        assert!(
            WorkloadSpec::from_json(&json).is_err(),
            "path `{path}` decoded"
        );
        let spec = WorkloadSpec {
            kind: WorkloadKind::Trace,
            params: WorkloadParams::Trace(TraceParams {
                path: path.to_owned(),
                ..TraceParams::default()
            }),
        };
        assert!(spec.validate().is_err(), "path `{path}` validated");
    }
    // Padding in a label is grammar whitespace, trimmed before the path
    // is set: the spec it names round-trips.
    let spec: WorkloadSpec = "TRACE[path= a b.trace ]".parse().unwrap();
    assert_eq!(spec.label(), "TRACE[path=a b.trace]");
    assert_eq!(spec.label().parse::<WorkloadSpec>(), Ok(spec.clone()));
    assert_eq!(WorkloadSpec::from_json(&spec.to_json()), Ok(spec));
}
