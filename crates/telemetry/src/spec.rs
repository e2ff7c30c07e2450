//! The one `KIND[k=v,...]` spec grammar.
//!
//! A spec names a configuration: a kind plus parameter overrides that
//! default to the paper's values. `SchemeSpec` (twl-lifetime) and
//! `WorkloadSpec` (twl-workloads) both speak this grammar: a canonical
//! label (`TWL_swp[ti=8]`; overridden keys only, in a fixed order; a
//! default spec is the bare kind), its parser, a list parser that splits
//! at bracket depth zero, and a JSON codec (the bare kind string for a
//! default spec, `{"kind", "params"}` with long field names otherwise).
//! A spec type supplies a [`ParamSet`]; the functions here do the rest.

use std::collections::BTreeMap;
use std::fmt::Display;
use std::str::FromStr;

use crate::json::{int, num, str, Json};

/// One overridden parameter, as it appears in a label and in JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// The short label key (`ti`).
    pub key: &'static str,
    /// The label value (`8`, `off`, `rnd:7`).
    pub text: String,
    /// The long JSON key (`toss_up_interval`).
    pub json_key: &'static str,
    /// The JSON value.
    pub json: Json,
}

impl Field {
    fn new(key: &'static str, json_key: &'static str, text: String, json: Json) -> Self {
        Self {
            key,
            text,
            json_key,
            json,
        }
    }

    /// An unsigned integer parameter, if overridden.
    #[must_use]
    pub fn int(key: &'static str, json_key: &'static str, v: Option<u64>) -> Option<Self> {
        v.map(|v| Self::new(key, json_key, v.to_string(), int(v)))
    }

    /// A float parameter, if overridden; labeled as the JSON codec
    /// prints it.
    #[must_use]
    pub fn num(key: &'static str, json_key: &'static str, v: Option<f64>) -> Option<Self> {
        v.map(|v| Self::new(key, json_key, num(v).to_compact(), num(v)))
    }

    /// A boolean parameter, if overridden: `0`/`1` in the label,
    /// `false`/`true` in JSON.
    #[must_use]
    pub fn flag(key: &'static str, json_key: &'static str, v: Option<bool>) -> Option<Self> {
        v.map(|v| Self::new(key, json_key, u8::from(v).to_string(), Json::Bool(v)))
    }

    /// A text parameter, if overridden.
    #[must_use]
    pub fn text(key: &'static str, json_key: &'static str, v: Option<&str>) -> Option<Self> {
        v.map(|v| Self::new(key, json_key, v.to_owned(), str(v)))
    }

    /// This parameter with another label value (`ip=off`); the JSON
    /// value is unchanged.
    #[must_use]
    pub fn labeled(mut self, text: &str) -> Self {
        text.clone_into(&mut self.text);
        self
    }
}

/// What a spec type supplies to share the grammar. `From<Kind>` builds
/// the paper-default spec of a kind.
pub trait ParamSet: From<Self::Kind> {
    /// The kind: displays as its label, parses one case-insensitively.
    type Kind: Copy + Display + FromStr<Err = String>;

    /// The noun error messages use (`"scheme"`, `"workload"`).
    const NOUN: &'static str;

    /// The spec's kind.
    fn kind(&self) -> Self::Kind;

    /// The parameter table, in label order: `None` for each parameter
    /// left at its default.
    fn fields(&self) -> Vec<Option<Field>>;

    /// Applies one override, by label key or JSON key.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown key or a bad value.
    fn set(&mut self, key: &str, value: &str) -> Result<(), String>;

    /// Checks that every override fits the kind and is in range.
    ///
    /// # Errors
    ///
    /// Returns a message naming the bad parameter.
    fn validate(&self) -> Result<(), String>;

    /// Whether the spec is never the default one because its kind's
    /// parameters are load-bearing (a trace needs its path).
    fn never_default(&self) -> bool {
        false
    }
}

/// Whether `spec` has no effective overrides.
pub fn is_default<P: ParamSet>(spec: &P) -> bool {
    !spec.never_default() && spec.fields().iter().all(Option::is_none)
}

/// `spec`, or the default spec of its kind if it has no effective
/// overrides, so equal configurations compare equal.
pub fn canonical<P: ParamSet>(spec: P) -> P {
    if is_default(&spec) {
        P::from(spec.kind())
    } else {
        spec
    }
}

/// The canonical label: `KIND`, or `KIND[k=v,...]`.
pub fn label<P: ParamSet>(spec: &P) -> String {
    let parts: Vec<String> = spec
        .fields()
        .into_iter()
        .flatten()
        .map(|f| format!("{}={}", f.key, f.text))
        .collect();
    if parts.is_empty() {
        spec.kind().to_string()
    } else {
        format!("{}[{}]", spec.kind(), parts.join(","))
    }
}

/// Encodes a spec: the bare kind string for a default spec, a
/// `{"kind", "params"}` object otherwise.
pub fn to_json<P: ParamSet>(spec: &P) -> Json {
    let kind = str(&spec.kind().to_string());
    if is_default(spec) {
        return kind;
    }
    let params: BTreeMap<String, Json> = spec
        .fields()
        .into_iter()
        .flatten()
        .map(|f| (f.json_key.to_owned(), f.json))
        .collect();
    Json::obj([("kind", kind), ("params", Json::Obj(params))])
}

/// Decodes a label string or a `{"kind", "params"}` object. Numbers
/// reach [`ParamSet::set`] as compact JSON text (so an integer key
/// rejects `8.0` and `-1`), booleans as `0`/`1`.
///
/// # Errors
///
/// Returns a message on an unknown kind or key, or a bad value.
pub fn from_json<P: ParamSet>(v: &Json) -> Result<P, String> {
    let noun = P::NOUN;
    match v {
        Json::Str(s) => parse(s),
        Json::Obj(_) => {
            let kind = v
                .get("kind")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{noun} spec object is missing string `kind`"))?
                .parse()?;
            let mut spec = P::from(kind);
            if let Some(params) = v.get("params") {
                let Json::Obj(map) = params else {
                    return Err(format!("{noun} spec `params` is not an object"));
                };
                for (key, value) in map {
                    let rendered = match value {
                        Json::Bool(b) => u8::from(*b).to_string(),
                        Json::Str(s) => s.clone(),
                        Json::Int(_) | Json::Float(_) => value.to_compact(),
                        other => {
                            return Err(format!(
                                "parameter `{key}` has unsupported value {other:?}"
                            ))
                        }
                    };
                    spec.set(key, &rendered)?;
                }
            }
            spec.validate()?;
            Ok(canonical(spec))
        }
        other => Err(format!(
            "{noun} spec is neither string nor object: {other:?}"
        )),
    }
}

/// Parses a label: `KIND` or `KIND[k=v,...]`.
///
/// # Errors
///
/// Returns a message on a malformed label, an unknown kind, or a bad
/// parameter.
pub fn parse<P: ParamSet>(s: &str) -> Result<P, String> {
    let s = s.trim();
    let (kind, params) = match s.find('[') {
        Some(i) => {
            let Some(inner) = s[i + 1..].strip_suffix(']') else {
                return Err(format!(
                    "malformed {} spec `{s}` (expected `KIND[k=v,...]`)",
                    P::NOUN
                ));
            };
            (&s[..i], Some(inner))
        }
        None => (s, None),
    };
    let spec = P::from(kind.parse()?);
    if params.is_some_and(|inner| inner.trim().is_empty()) {
        return Err(format!("empty parameter list in `{s}`"));
    }
    apply(spec, params.into_iter().flat_map(|inner| inner.split(',')))
}

/// Applies `key=value` overrides (trimmed) in order, then validates and
/// canonicalizes: the path of a label's `[...]` block, shared by
/// command-line overrides.
///
/// # Errors
///
/// Returns a message on an item without `=`, an unknown key, a bad
/// value, or a spec that fails validation.
pub fn apply<'a, P: ParamSet>(
    mut spec: P,
    params: impl IntoIterator<Item = &'a str>,
) -> Result<P, String> {
    for kv in params {
        let (key, value) = kv
            .split_once('=')
            .ok_or_else(|| format!("parameter `{kv}` is not `key=value`"))?;
        spec.set(key.trim(), value.trim())?;
    }
    spec.validate()?;
    Ok(canonical(spec))
}

/// Parses a comma-separated list of labels; commas inside `[...]` do
/// not split, and blank items are skipped.
///
/// # Errors
///
/// Returns the first label's parse error, or a message if the list
/// holds no label.
pub fn parse_list<P: ParamSet>(s: &str) -> Result<Vec<P>, String> {
    let mut items = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '[' => depth += 1,
            ']' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                items.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    items.push(&s[start..]);
    let specs = items
        .into_iter()
        .filter(|item| !item.trim().is_empty())
        .map(parse)
        .collect::<Result<Vec<P>, String>>()?;
    if specs.is_empty() {
        return Err(format!("empty {} list", P::NOUN));
    }
    Ok(specs)
}

/// Checks that a text value survives the label round trip: no `,`, `[`
/// or `]`, and no leading or trailing whitespace (the parser trims it).
///
/// # Errors
///
/// Returns a message naming `what` and the value.
pub fn check_text(what: &str, value: &str) -> Result<(), String> {
    if value.contains([',', '[', ']']) || value.trim() != value {
        return Err(format!(
            "{what} cannot contain `,`, `[`, or `]`, or start or end with whitespace (got `{value}`)"
        ));
    }
    Ok(())
}

/// Parses an unsigned integer value for `key`.
///
/// # Errors
///
/// Returns a message naming `key`.
pub fn parse_u64(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|_| format!("`{key}` wants an unsigned integer, got `{value}`"))
}

/// Parses a finite float value for `key`.
///
/// # Errors
///
/// Returns a message naming `key`.
pub fn parse_f64(key: &str, value: &str) -> Result<f64, String> {
    value
        .parse::<f64>()
        .ok()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("`{key}` wants a finite number, got `{value}`"))
}

/// Parses a boolean value for `key`: `0`/`false` or `1`/`true`.
///
/// # Errors
///
/// Returns a message naming `key`.
pub fn parse_flag(key: &str, value: &str) -> Result<bool, String> {
    match value {
        "0" | "false" => Ok(false),
        "1" | "true" => Ok(true),
        _ => Err(format!("`{key}` wants 0/1, got `{value}`")),
    }
}

/// The error for a key `kind` does not know.
pub fn unknown_key(kind: impl Display, key: &str) -> String {
    format!("unknown parameter `{key}` for {kind}")
}
