//! Workload factory: every write pattern in the workspace, as data.
//!
//! Two layers of identity live here, mirroring the scheme side
//! (`SchemeSpec` in `twl-lifetime`). [`WorkloadKind`] names a write
//! pattern — one of the four attack modes, one of the thirteen PARSEC
//! generators, or a captured block trace — and [`WorkloadSpec`] names a
//! *configuration* of one: a kind plus a typed set of parameter
//! overrides that default to the paper's values. A spec has a canonical
//! string label (`inconsistent[group=8,stride=64]`,
//! `TRACE[path=capture.trace,seed=3]`), a `FromStr`/`Display` round
//! trip, and a JSON codec, so every experiment — a sweep matrix cell, a
//! service job, a fleet cache key — can carry the exact write pattern
//! it ran as data.
//! The grammar and the codec are the shared ones in
//! [`twl_telemetry::spec`]; this module supplies the workload parameter
//! table.
//!
//! Default-parameter specs are indistinguishable from their bare kind:
//! they build the identical stream (same code path, same RNG draws as
//! `Attack::new` / `ParsecBenchmark::workload`), render as the bare
//! kind label, and encode as a bare label string in JSON — which is
//! also the backward-compatibility story for job specs and checkpoints
//! written before `WorkloadSpec` existed, whose `attacks` and
//! `benchmarks` lists were bare strings.
//!
//! [`WorkloadSpec::build`] produces a [`BuiltWorkload`], a uniform
//! [`AttackStream`] the lifetime simulator drives like any attack; the
//! trace kind streams through [`TraceWorkload`], which honors the
//! `next_run` batchability contract so the event-skipping fast path
//! engages on write runs in the capture.

use std::error::Error;
use std::fmt;
use std::fs::File;
use std::io::BufReader;
use std::str::FromStr;
use twl_attacks::{
    Attack, AttackKind, AttackStream, InconsistentAttack, InconsistentConfig, RandomAttack,
    RepeatAttack, ScanAttack,
};
use twl_pcm::LogicalPageAddr;
use twl_telemetry::json::Json;
use twl_telemetry::spec::{self, parse_f64, parse_u64, Field, ParamSet};
use twl_wl_core::WriteOutcome;

use crate::parsec::ParsecBenchmark;
use crate::synthetic::{SyntheticWorkload, WorkloadConfig};
use crate::trace::read_trace;
use crate::zipf::zipf_alpha_for_hot_share;

/// Every write pattern the workspace can instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum WorkloadKind {
    /// One of the four adversarial modes of Fig. 6.
    Attack(AttackKind),
    /// One of the thirteen synthetic PARSEC generators of Table 2.
    Parsec(ParsecBenchmark),
    /// A captured binary trace (e.g. a `twl-blockd` `capture.trace`),
    /// replayed in a loop as the paper does with its gem5 traces.
    Trace,
}

impl WorkloadKind {
    /// The canonical label: the attack's or benchmark's historical wire
    /// name (lowercase), or `TRACE`.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Attack(kind) => attack_label(*kind),
            Self::Parsec(bench) => bench.name(),
            Self::Trace => "TRACE",
        }
    }
}

impl fmt::Display for WorkloadKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for WorkloadKind {
    type Err = String;

    /// Parses a kind label, case-insensitively.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let folded = s.trim().to_ascii_lowercase();
        if folded == "trace" {
            return Ok(Self::Trace);
        }
        if let Some(kind) = AttackKind::ALL
            .iter()
            .copied()
            .find(|k| attack_label(*k) == folded)
        {
            return Ok(Self::Attack(kind));
        }
        if let Some(bench) = ParsecBenchmark::ALL
            .iter()
            .copied()
            .find(|b| b.name() == folded)
        {
            return Ok(Self::Parsec(bench));
        }
        Err(format!(
            "unknown workload `{s}` (expected an attack mode, a PARSEC benchmark, or TRACE)"
        ))
    }
}

/// The stable wire name of an attack mode (matches its `Display`).
fn attack_label(kind: AttackKind) -> &'static str {
    match kind {
        AttackKind::Repeat => "repeat",
        AttackKind::Random => "random",
        AttackKind::Scan => "scan",
        AttackKind::Inconsistent => "inconsistent",
        _ => unreachable!("AttackKind is non_exhaustive but these are all current variants"),
    }
}

/// Why a workload spec is ill-formed or could not be instantiated.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// The parameter overrides do not fit the kind.
    InvalidParams {
        /// The workload kind.
        kind: WorkloadKind,
        /// Human-readable explanation.
        reason: String,
    },
    /// The spec is well-formed but cannot be built against this device
    /// or trace file.
    Unbuildable {
        /// The spec's canonical label.
        label: String,
        /// Human-readable explanation.
        reason: String,
    },
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidParams { kind, reason } => {
                write!(f, "invalid parameters for {kind}: {reason}")
            }
            Self::Unbuildable { label, reason } => {
                write!(f, "cannot build workload {label}: {reason}")
            }
        }
    }
}

impl Error for WorkloadError {}

/// Attack parameter overrides (`None` keeps the default). Which fields
/// apply depends on the attack mode; [`WorkloadSpec::validate`] rejects
/// overrides on the wrong mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct AttackParams {
    /// Repeat: the fixed logical page to hammer (default 0).
    pub target: Option<u64>,
    /// Random: the RNG seed (default: the device seed).
    pub seed: Option<u64>,
    /// Inconsistent: firehose group size (default: `for_pages`).
    pub group_size: Option<u64>,
    /// Inconsistent: victim stride (default: `for_pages`).
    pub victim_stride: Option<u64>,
    /// Inconsistent: minimum writes per phase (default: `for_pages`).
    pub min_phase_writes: Option<u64>,
    /// Inconsistent: phase timeout in writes (default: `for_pages`).
    pub phase_timeout_writes: Option<u64>,
}

/// PARSEC generator parameter overrides (`None` keeps the Table 2
/// calibration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ParsecParams {
    /// Zipf exponent (default: calibrated from the benchmark's Table 2
    /// locality ratio).
    pub zipf_alpha: Option<f64>,
    /// Written-page footprint (default: half the device).
    pub footprint: Option<u64>,
    /// Fraction of commands that are reads (default 0.55).
    pub read_fraction: Option<f64>,
    /// Base RNG seed (default: the device seed; the benchmark's
    /// bandwidth bits are XORed in either way, as `workload()` does).
    pub seed: Option<u64>,
}

/// Trace replay parameters. `path` is required; the rest default.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TraceParams {
    /// Path of the binary trace file (`twl-workloads` codec, as written
    /// by `twl-blockd` and `trace_tool`).
    pub path: String,
    /// Rotation seed: replay starts `seed % writes` into the capture's
    /// write sequence (default 0, the capture order).
    pub seed: Option<u64>,
    /// Calibration bandwidth in MB/s for lifetime-in-years reporting
    /// (default: the 8 GiB/s attack calibration).
    pub bandwidth_mbps: Option<f64>,
}

/// Typed per-kind parameter overrides.
///
/// `Default` means "the paper configuration"; the other variants carry
/// override fields for one workload family. A variant whose fields are
/// all `None` is semantically `Default` (except `Trace`, whose `path`
/// is mandatory); [`WorkloadSpec::canonical`] normalizes it away.
#[derive(Debug, Default, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadParams {
    /// Paper-default configuration.
    #[default]
    Default,
    /// Overrides for an attack mode.
    Attack(AttackParams),
    /// Overrides for a PARSEC generator.
    Parsec(ParsecParams),
    /// Trace replay configuration.
    Trace(TraceParams),
}

/// A workload *configuration*: a kind plus typed parameter overrides.
///
/// The unit of workload identity everywhere write patterns travel as
/// data — sweep matrices, service jobs, checkpoints, fleet cache keys,
/// bench tables. Construct one with [`WorkloadSpec::new`] (paper
/// defaults), tweak it with [`WorkloadSpec::set_param`], or parse a
/// label:
///
/// ```
/// use twl_workloads::WorkloadSpec;
///
/// let spec: WorkloadSpec = "inconsistent[group=8,stride=64]".parse().unwrap();
/// assert_eq!(spec.label(), "inconsistent[group=8,stride=64]");
/// let plain: WorkloadSpec = "repeat".parse().unwrap();
/// assert!(plain.is_default());
/// let trace: WorkloadSpec = "TRACE[path=capture.trace,seed=3]".parse().unwrap();
/// assert_eq!(trace.label(), "TRACE[path=capture.trace,seed=3]");
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// The write pattern.
    pub kind: WorkloadKind,
    /// Parameter overrides (paper defaults when `Default`).
    pub params: WorkloadParams,
}

impl From<WorkloadKind> for WorkloadSpec {
    fn from(kind: WorkloadKind) -> Self {
        Self::new(kind)
    }
}

impl From<AttackKind> for WorkloadSpec {
    fn from(kind: AttackKind) -> Self {
        Self::new(WorkloadKind::Attack(kind))
    }
}

impl From<ParsecBenchmark> for WorkloadSpec {
    fn from(bench: ParsecBenchmark) -> Self {
        Self::new(WorkloadKind::Parsec(bench))
    }
}

impl From<&WorkloadSpec> for WorkloadSpec {
    fn from(spec: &WorkloadSpec) -> Self {
        spec.clone()
    }
}

impl WorkloadSpec {
    /// The paper-default spec for `kind`.
    #[must_use]
    pub fn new(kind: WorkloadKind) -> Self {
        Self {
            kind,
            params: WorkloadParams::Default,
        }
    }

    /// A trace-replay spec for the capture at `path`.
    #[must_use]
    pub fn trace(path: &str) -> Self {
        Self {
            kind: WorkloadKind::Trace,
            params: WorkloadParams::Trace(TraceParams {
                path: path.to_owned(),
                ..TraceParams::default()
            }),
        }
    }

    /// Whether this spec is the paper-default configuration (no
    /// effective overrides). Trace specs are never default: their path
    /// is load-bearing.
    #[must_use]
    pub fn is_default(&self) -> bool {
        spec::is_default(self)
    }

    /// Normalizes an all-`None` params variant back to
    /// [`WorkloadParams::Default`], so equal configurations compare
    /// equal.
    #[must_use]
    pub fn canonical(self) -> Self {
        spec::canonical(self)
    }

    /// The canonical label: the kind label, plus `[k=v,...]` for any
    /// overridden parameters in a fixed key order. Round-trips through
    /// [`FromStr`] and is what reports, telemetry scopes, cache keys,
    /// and service events use for this spec.
    #[must_use]
    pub fn label(&self) -> String {
        spec::label(self)
    }

    /// Applies one `key=value` override, creating the right params
    /// variant for this spec's kind. Keys are the short label-grammar
    /// names (`target`, `seed`, `group`, `stride`, `minphase`,
    /// `timeout`, `alpha`, `fp`, `rf`, `path`, `bw`); the long JSON
    /// field names are accepted as aliases.
    ///
    /// # Errors
    ///
    /// Returns a message if the key is unknown for the kind or the
    /// value does not parse; the spec is then unchanged.
    pub fn set_param(&mut self, key: &str, value: &str) -> Result<(), String> {
        let kind = self.kind;
        let unknown = || Err(spec::unknown_key(kind, key));
        self.params = match kind {
            WorkloadKind::Attack(attack) => {
                let mut p = match self.params {
                    WorkloadParams::Attack(p) => p,
                    _ => AttackParams::default(),
                };
                match (attack, key) {
                    (AttackKind::Repeat, "target") => p.target = Some(parse_u64(key, value)?),
                    (AttackKind::Random, "seed") => p.seed = Some(parse_u64(key, value)?),
                    (AttackKind::Inconsistent, "group" | "group_size") => {
                        p.group_size = Some(parse_u64(key, value)?);
                    }
                    (AttackKind::Inconsistent, "stride" | "victim_stride") => {
                        p.victim_stride = Some(parse_u64(key, value)?);
                    }
                    (AttackKind::Inconsistent, "minphase" | "min_phase_writes") => {
                        p.min_phase_writes = Some(parse_u64(key, value)?);
                    }
                    (AttackKind::Inconsistent, "timeout" | "phase_timeout_writes") => {
                        p.phase_timeout_writes = Some(parse_u64(key, value)?);
                    }
                    _ => return unknown(),
                }
                WorkloadParams::Attack(p)
            }
            WorkloadKind::Parsec(_) => {
                let mut p = match self.params {
                    WorkloadParams::Parsec(p) => p,
                    _ => ParsecParams::default(),
                };
                match key {
                    "alpha" | "zipf_alpha" => p.zipf_alpha = Some(parse_f64(key, value)?),
                    "fp" | "footprint" => p.footprint = Some(parse_u64(key, value)?),
                    "rf" | "read_fraction" => p.read_fraction = Some(parse_f64(key, value)?),
                    "seed" => p.seed = Some(parse_u64(key, value)?),
                    _ => return unknown(),
                }
                WorkloadParams::Parsec(p)
            }
            WorkloadKind::Trace => {
                let mut p = match &self.params {
                    WorkloadParams::Trace(p) => p.clone(),
                    _ => TraceParams::default(),
                };
                match key {
                    "path" => value.clone_into(&mut p.path),
                    "seed" => p.seed = Some(parse_u64(key, value)?),
                    "bw" | "bandwidth_mbps" => p.bandwidth_mbps = Some(parse_f64(key, value)?),
                    _ => return unknown(),
                }
                WorkloadParams::Trace(p)
            }
        };
        Ok(())
    }

    /// Checks that the params variant matches the kind and every
    /// override is in range.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError::InvalidParams`] on a mismatched
    /// variant, an override for the wrong attack mode, or an
    /// out-of-range value.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        let invalid = |reason: String| WorkloadError::InvalidParams {
            kind: self.kind,
            reason,
        };
        match (self.kind, &self.params) {
            (WorkloadKind::Trace, WorkloadParams::Default) => {
                Err(invalid("a TRACE workload needs a `path` parameter".into()))
            }
            (_, WorkloadParams::Default) => Ok(()),
            (WorkloadKind::Attack(attack), WorkloadParams::Attack(p)) => {
                if p.target.is_some() && attack != AttackKind::Repeat {
                    return Err(invalid("`target` only applies to the repeat attack".into()));
                }
                if p.seed.is_some() && attack != AttackKind::Random {
                    return Err(invalid("`seed` only applies to the random attack".into()));
                }
                let inconsistent_only = [
                    ("group", p.group_size.is_some()),
                    ("stride", p.victim_stride.is_some()),
                    ("minphase", p.min_phase_writes.is_some()),
                    ("timeout", p.phase_timeout_writes.is_some()),
                ];
                for (key, set) in inconsistent_only {
                    if set && attack != AttackKind::Inconsistent {
                        return Err(invalid(format!(
                            "`{key}` only applies to the inconsistent attack"
                        )));
                    }
                }
                if p.group_size == Some(0) {
                    return Err(invalid("group size must be positive".into()));
                }
                if let Some(g) = p.group_size {
                    if u32::try_from(g).is_err() {
                        return Err(invalid("group size must fit in 32 bits".into()));
                    }
                }
                if matches!(p.victim_stride, Some(v) if v <= 1) {
                    return Err(invalid("victim stride must exceed 1".into()));
                }
                Ok(())
            }
            (WorkloadKind::Parsec(_), WorkloadParams::Parsec(p)) => {
                if p.footprint == Some(0) {
                    return Err(invalid("footprint must be positive".into()));
                }
                if let Some(a) = p.zipf_alpha {
                    if !a.is_finite() || a < 0.0 {
                        return Err(invalid("zipf alpha must be finite and non-negative".into()));
                    }
                }
                if let Some(rf) = p.read_fraction {
                    if !rf.is_finite() || !(0.0..=1.0).contains(&rf) {
                        return Err(invalid("read fraction must be a probability".into()));
                    }
                }
                Ok(())
            }
            (WorkloadKind::Trace, WorkloadParams::Trace(p)) => {
                if p.path.is_empty() {
                    return Err(invalid("a TRACE workload needs a `path` parameter".into()));
                }
                spec::check_text("trace path", &p.path).map_err(invalid)?;
                if let Some(bw) = p.bandwidth_mbps {
                    if !bw.is_finite() || bw <= 0.0 {
                        return Err(invalid("bandwidth must be positive".into()));
                    }
                }
                Ok(())
            }
            (kind, params) => Err(invalid(format!(
                "{params:?} overrides do not apply to {kind}"
            ))),
        }
    }

    /// The write bandwidth this workload pins for lifetime-in-years
    /// calibration, if any: a PARSEC generator carries its Table 2
    /// bandwidth, a trace may override via `bw=`; attacks (and traces
    /// without `bw`) use the 8 GiB/s attack calibration.
    #[must_use]
    pub fn bandwidth_mbps(&self) -> Option<f64> {
        match (&self.kind, &self.params) {
            (WorkloadKind::Parsec(bench), _) => Some(bench.write_bandwidth_mbps()),
            (WorkloadKind::Trace, WorkloadParams::Trace(p)) => p.bandwidth_mbps,
            _ => None,
        }
    }

    /// Whether this workload generates addresses against the scheme's
    /// logical space (attacks and trace replays, which address exactly
    /// what the scheme exposes) rather than the raw device page count
    /// (the PARSEC generators, which historically address `pcm.pages`).
    #[must_use]
    pub fn addresses_scheme_space(&self) -> bool {
        !matches!(self.kind, WorkloadKind::Parsec(_))
    }

    /// Encodes the spec: a bare label string for default-params specs
    /// (byte-identical to the pre-`WorkloadSpec` wire format), a
    /// `{"kind", "params"}` object otherwise.
    #[must_use]
    pub fn to_json(&self) -> Json {
        spec::to_json(self)
    }

    /// Decodes a spec: either a bare label string (possibly with the
    /// `[k=v,...]` suffix) or a `{"kind", "params"}` object.
    ///
    /// # Errors
    ///
    /// Returns a message on an unknown kind, an unknown parameter key,
    /// or an out-of-range value.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        spec::from_json(v)
    }

    /// Instantiates the stream. `pages` is the logical address space
    /// the workload writes into ([`WorkloadSpec::addresses_scheme_space`]
    /// tells the caller whether that is the scheme's logical page count
    /// or the raw device page count); `seed` is the device seed, used
    /// wherever the pre-spec factories used it, so default specs build
    /// bit-identical streams to `Attack::new(kind, pages, seed)` and
    /// `bench.workload(pages, seed)`.
    ///
    /// # Errors
    ///
    /// Returns [`WorkloadError`] on invalid params, an override that
    /// does not fit the device, or an unreadable/write-free trace.
    ///
    /// # Panics
    ///
    /// Panics (like the underlying factories) on a zero-page space.
    pub fn build(&self, pages: u64, seed: u64) -> Result<BuiltWorkload, WorkloadError> {
        self.validate()?;
        let label = self.label();
        let unbuildable = |reason: String| WorkloadError::Unbuildable {
            label: label.clone(),
            reason,
        };
        let stream = match self.kind {
            WorkloadKind::Attack(attack) => {
                let p = match &self.params {
                    WorkloadParams::Attack(p) => *p,
                    _ => AttackParams::default(),
                };
                Stream::Attack(match attack {
                    AttackKind::Repeat => {
                        let target = p.target.unwrap_or(0);
                        if target >= pages {
                            return Err(unbuildable(format!(
                                "repeat target {target} is outside the {pages}-page logical space"
                            )));
                        }
                        Attack::Repeat(RepeatAttack::new(LogicalPageAddr::new(target)))
                    }
                    AttackKind::Random => {
                        Attack::Random(RandomAttack::new(pages, p.seed.unwrap_or(seed)))
                    }
                    AttackKind::Scan => Attack::Scan(ScanAttack::new(pages)),
                    AttackKind::Inconsistent => {
                        let mut config = InconsistentConfig::for_pages(pages);
                        if let Some(group) = p.group_size {
                            config.group_size = group;
                            // `for_pages` sets the firehose width to the
                            // group size; an overridden group keeps that
                            // invariant.
                            config.firehose_ranks =
                                u32::try_from(group).expect("validated to fit in 32 bits");
                        }
                        if let Some(stride) = p.victim_stride {
                            config.victim_stride = stride;
                        }
                        if let Some(writes) = p.min_phase_writes {
                            config.min_phase_writes = writes;
                        }
                        if let Some(writes) = p.phase_timeout_writes {
                            config.phase_timeout_writes = writes;
                        }
                        if config.working_set() > pages {
                            return Err(unbuildable(format!(
                                "inconsistent working set {} exceeds the {pages}-page logical \
                                 space",
                                config.working_set()
                            )));
                        }
                        Attack::Inconsistent(InconsistentAttack::new(&config))
                    }
                    _ => {
                        unreachable!(
                            "AttackKind is non_exhaustive but these are all current variants"
                        )
                    }
                })
            }
            WorkloadKind::Parsec(bench) => {
                let p = match &self.params {
                    WorkloadParams::Parsec(p) => *p,
                    _ => ParsecParams::default(),
                };
                let footprint = p.footprint.unwrap_or((pages / 2).max(2));
                if footprint > pages {
                    return Err(unbuildable(format!(
                        "footprint {footprint} exceeds the {pages}-page device"
                    )));
                }
                #[allow(clippy::cast_precision_loss)]
                let alpha = p.zipf_alpha.unwrap_or_else(|| {
                    zipf_alpha_for_hot_share(bench.locality_ratio() / pages as f64, footprint)
                });
                Stream::Synthetic(SyntheticWorkload::new(&WorkloadConfig {
                    pages,
                    footprint,
                    zipf_alpha: alpha,
                    read_fraction: p.read_fraction.unwrap_or(0.55),
                    seed: p.seed.unwrap_or(seed) ^ bench.write_bandwidth_mbps().to_bits(),
                }))
            }
            WorkloadKind::Trace => {
                let p = match &self.params {
                    WorkloadParams::Trace(p) => p.clone(),
                    _ => unreachable!("validate() requires trace params"),
                };
                Stream::Trace(
                    TraceWorkload::open(&p.path, pages, p.seed.unwrap_or(0))
                        .map_err(unbuildable)?,
                )
            }
        };
        Ok(BuiltWorkload { label, stream })
    }
}

impl fmt::Display for WorkloadSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// The workload side of the shared label grammar: the parameter table
/// below is everything `twl_telemetry::spec` needs to label, parse and
/// encode a [`WorkloadSpec`].
impl ParamSet for WorkloadSpec {
    type Kind = WorkloadKind;
    const NOUN: &'static str = "workload";

    fn kind(&self) -> WorkloadKind {
        self.kind
    }

    fn fields(&self) -> Vec<Option<Field>> {
        match &self.params {
            WorkloadParams::Default => vec![],
            WorkloadParams::Attack(p) => vec![
                Field::int("target", "target", p.target),
                Field::int("seed", "seed", p.seed),
                Field::int("group", "group_size", p.group_size),
                Field::int("stride", "victim_stride", p.victim_stride),
                Field::int("minphase", "min_phase_writes", p.min_phase_writes),
                Field::int("timeout", "phase_timeout_writes", p.phase_timeout_writes),
            ],
            WorkloadParams::Parsec(p) => vec![
                Field::num("alpha", "zipf_alpha", p.zipf_alpha),
                Field::int("fp", "footprint", p.footprint),
                Field::num("rf", "read_fraction", p.read_fraction),
                Field::int("seed", "seed", p.seed),
            ],
            WorkloadParams::Trace(p) => vec![
                Field::text("path", "path", Some(&p.path)),
                Field::int("seed", "seed", p.seed),
                Field::num("bw", "bandwidth_mbps", p.bandwidth_mbps),
            ],
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.set_param(key, value)
    }

    fn validate(&self) -> Result<(), String> {
        WorkloadSpec::validate(self).map_err(|e| e.to_string())
    }

    fn never_default(&self) -> bool {
        self.kind == WorkloadKind::Trace
    }
}

impl FromStr for WorkloadSpec {
    type Err = String;

    /// Parses a canonical label: `KIND` or `KIND[k=v,...]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        spec::parse(s)
    }
}

/// Parses a comma-separated list of workload spec labels, where commas
/// inside `[...]` parameter blocks do not split
/// (`"inconsistent[group=8,stride=64],scan"` is two specs).
///
/// # Errors
///
/// Returns the first label's parse error.
pub fn parse_workload_list(s: &str) -> Result<Vec<WorkloadSpec>, String> {
    spec::parse_list(s)
}

/// A replayable capture: the write commands of a binary trace file,
/// mapped into the logical space and looped, as the paper loops its
/// gem5 traces (§5.1) and as `twl-blk replay` consumes a `twl-blockd`
/// `capture.trace`.
///
/// Honors the [`AttackStream`] batchability contract: a declared run
/// covers consecutive equal addresses in the capture, the stream's only
/// state is its position, and feedback is ignored — so the
/// event-skipping batched driver is bit-identical to scalar replay.
#[derive(Debug, Clone)]
pub struct TraceWorkload {
    writes: Vec<u64>,
    pos: usize,
}

impl TraceWorkload {
    /// Loads the capture at `path`, keeping only its writes, each
    /// mapped `addr % pages` into the logical space. Replay starts
    /// `start_seed % writes` into the sequence.
    ///
    /// # Errors
    ///
    /// Returns a message if the file cannot be read, is not a valid
    /// trace, or contains no writes.
    pub fn open(path: &str, pages: u64, start_seed: u64) -> Result<Self, String> {
        let file = File::open(path).map_err(|e| format!("cannot open trace {path}: {e}"))?;
        let trace = read_trace(BufReader::new(file))
            .map_err(|e| format!("cannot read trace {path}: {e}"))?;
        let writes: Vec<u64> = trace
            .iter()
            .filter(|c| c.is_write())
            .map(|c| c.la.index() % pages)
            .collect();
        if writes.is_empty() {
            return Err(format!("trace {path} contains no writes"));
        }
        let pos = usize::try_from(start_seed % writes.len() as u64).expect("pos < len");
        Ok(Self { writes, pos })
    }

    /// Write commands in the capture (one full loop).
    #[must_use]
    pub fn write_count(&self) -> usize {
        self.writes.len()
    }

    fn next_write(&mut self) -> LogicalPageAddr {
        let la = self.writes[self.pos];
        self.pos = (self.pos + 1) % self.writes.len();
        LogicalPageAddr::new(la)
    }

    fn next_run(&mut self, max: u64) -> (LogicalPageAddr, u64) {
        let n = self.writes.len();
        let la = self.writes[self.pos];
        let mut len: u64 = 1;
        while len < max {
            if len as usize >= n {
                // Every command in the capture writes this address, so
                // every future loop will too: commit the whole budget.
                len = max;
                break;
            }
            if self.writes[(self.pos + len as usize) % n] != la {
                break;
            }
            len += 1;
        }
        self.pos = (self.pos + usize::try_from(len % n.max(1) as u64).expect("len mod n < n"))
            .checked_rem(n)
            .unwrap_or(0);
        (LogicalPageAddr::new(la), len)
    }
}

/// A built workload: a canonical label plus the concrete stream, driven
/// by the lifetime simulator through the [`AttackStream`] interface.
///
/// Default-parameter specs wrap the exact streams the kind factories
/// build (same constructors, same RNG draws), so driving a
/// `BuiltWorkload` is bit-identical to driving `Attack::new(kind, pages,
/// seed)` or `bench.workload(pages, seed)` directly.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    label: String,
    stream: Stream,
}

/// An attack (built as its `Attack` variant directly, so spec
/// overrides apply), a PARSEC generator, or a trace replay.
#[derive(Debug, Clone)]
enum Stream {
    Attack(Attack),
    Synthetic(SyntheticWorkload),
    Trace(TraceWorkload),
}

impl BuiltWorkload {
    /// The generator underneath, for workloads built from a synthetic
    /// benchmark (trace generation wants `next_cmd`, which includes
    /// reads).
    #[must_use]
    pub fn as_synthetic_mut(&mut self) -> Option<&mut SyntheticWorkload> {
        match &mut self.stream {
            Stream::Synthetic(w) => Some(w),
            _ => None,
        }
    }
}

impl AttackStream for BuiltWorkload {
    fn name(&self) -> &str {
        &self.label
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        match &mut self.stream {
            Stream::Attack(a) => a.next_write(feedback),
            Stream::Synthetic(w) => w.next_write_la(),
            Stream::Trace(t) => t.next_write(),
        }
    }

    fn next_run(&mut self, feedback: Option<&WriteOutcome>, max: u64) -> (LogicalPageAddr, u64) {
        match &mut self.stream {
            Stream::Attack(a) => a.next_run(feedback, max),
            // The synthetic generators ignore feedback and vary their
            // address per write: runs of one.
            Stream::Synthetic(w) => (w.next_write_la(), 1),
            Stream::Trace(t) => t.next_run(max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{write_trace, MemCmd, MemOp};
    use twl_attacks::Attack;

    fn addrs(stream: &mut dyn AttackStream, n: usize) -> Vec<u64> {
        (0..n).map(|_| stream.next_write(None).index()).collect()
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in AttackKind::ALL {
            let k = WorkloadKind::Attack(kind);
            assert_eq!(k.label().parse::<WorkloadKind>().unwrap(), k);
        }
        for bench in ParsecBenchmark::ALL {
            let k = WorkloadKind::Parsec(bench);
            assert_eq!(k.label().parse::<WorkloadKind>().unwrap(), k);
        }
        assert_eq!(
            "trace".parse::<WorkloadKind>().unwrap(),
            WorkloadKind::Trace
        );
        assert_eq!("SCAN".parse::<WorkloadKind>().unwrap().label(), "scan");
        assert!("parsec".parse::<WorkloadKind>().is_err());
    }

    #[test]
    fn default_specs_render_and_encode_as_bare_kinds() {
        let spec = WorkloadSpec::from(AttackKind::Scan);
        assert!(spec.is_default());
        assert_eq!(spec.label(), "scan");
        assert_eq!(spec.to_json().to_compact(), "\"scan\"");
        let spec = WorkloadSpec::from(ParsecBenchmark::ALL[2]);
        assert_eq!(spec.to_json().to_compact(), "\"canneal\"");
    }

    #[test]
    fn spec_labels_round_trip() {
        for label in [
            "repeat[target=5]",
            "random[seed=99]",
            "inconsistent[group=8,stride=64,minphase=4096,timeout=8192]",
            "canneal[alpha=1.25,fp=128,rf=0.4,seed=7]",
            "TRACE[path=/tmp/x.trace,seed=3,bw=512.5]",
        ] {
            let spec: WorkloadSpec = label.parse().unwrap();
            assert_eq!(spec.label(), label);
            let back = WorkloadSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(back, spec);
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        // Grammar-level shapes are in twl-lifetime's
        // `tests/spec_grammar.rs`; these are the workload-specific verdicts.
        for bad in [
            "scan[seed=1]",
            "repeat[seed=1]",
            "repeat[target=]",
            "inconsistent[group=0]",
            "inconsistent[stride=1]",
            "canneal[rf=1.5]",
            "canneal[fp=0]",
            "TRACE",
            "TRACE[seed=1]",
            "TRACE[path=]",
        ] {
            assert!(bad.parse::<WorkloadSpec>().is_err(), "{bad} parsed");
        }
    }

    #[test]
    fn list_splits_outside_brackets() {
        let specs = parse_workload_list("inconsistent[group=8,stride=64], scan").unwrap();
        assert_eq!(specs.len(), 2);
        assert_eq!(specs[1].label(), "scan");
        assert!(parse_workload_list(" , ").is_err());
    }

    #[test]
    fn default_attack_builds_are_bit_identical_to_the_factory() {
        for kind in AttackKind::ALL {
            let spec = WorkloadSpec::from(kind);
            let mut built = spec.build(64, 7).unwrap();
            let mut legacy = Attack::new(kind, 64, 7);
            assert_eq!(built.name(), legacy.name());
            assert_eq!(addrs(&mut built, 200), addrs(&mut legacy, 200), "{kind}");
        }
    }

    #[test]
    fn default_parsec_builds_are_bit_identical_to_the_factory() {
        let bench = ParsecBenchmark::ALL[2];
        let mut built = WorkloadSpec::from(bench).build(128, 42).unwrap();
        let mut legacy = bench.workload(128, 42);
        for _ in 0..200 {
            assert_eq!(
                built.next_write(None).index(),
                legacy.next_write_la().index()
            );
        }
    }

    #[test]
    fn overridden_repeat_targets_move_the_hammer() {
        let spec: WorkloadSpec = "repeat[target=9]".parse().unwrap();
        let mut built = spec.build(64, 0).unwrap();
        assert_eq!(built.next_write(None).index(), 9);
        assert!(spec.build(8, 0).is_err(), "target outside the space");
    }

    #[test]
    fn trace_workload_replays_writes_in_a_loop() {
        let path = std::env::temp_dir().join("twl_spec_test_loop.trace");
        let cmds: Vec<MemCmd> = [3u64, 3, 7, 200]
            .iter()
            .map(|&la| MemCmd {
                op: MemOp::Write,
                la: LogicalPageAddr::new(la),
            })
            .chain(std::iter::once(MemCmd {
                op: MemOp::Read,
                la: LogicalPageAddr::new(1),
            }))
            .collect();
        let mut file = std::fs::File::create(&path).unwrap();
        write_trace(&mut file, &cmds).unwrap();
        let spec = WorkloadSpec::trace(path.to_str().unwrap());
        let mut built = spec.build(64, 0).unwrap();
        // 200 % 64 = 8; reads are dropped; the loop wraps.
        assert_eq!(addrs(&mut built, 6), vec![3, 3, 7, 8, 3, 3]);
        // Batched replay declares the duplicate-address run.
        let mut batched = spec.build(64, 0).unwrap();
        let (la, len) = AttackStream::next_run(&mut batched, None, 1000);
        assert_eq!((la.index(), len), (3, 2));
        let (la, len) = AttackStream::next_run(&mut batched, None, 1000);
        assert_eq!((la.index(), len), (7, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn trace_seed_rotates_the_start_and_missing_traces_are_typed_errors() {
        let path = std::env::temp_dir().join("twl_spec_test_rotate.trace");
        let cmds: Vec<MemCmd> = [1u64, 2, 3]
            .iter()
            .map(|&la| MemCmd {
                op: MemOp::Write,
                la: LogicalPageAddr::new(la),
            })
            .collect();
        let mut file = std::fs::File::create(&path).unwrap();
        write_trace(&mut file, &cmds).unwrap();
        let spec: WorkloadSpec = format!("TRACE[path={},seed=5]", path.display())
            .parse()
            .unwrap();
        let mut built = spec.build(64, 0).unwrap();
        // 5 % 3 = 2: replay starts at the third write.
        assert_eq!(addrs(&mut built, 4), vec![3, 1, 2, 3]);
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            spec.build(64, 0),
            Err(WorkloadError::Unbuildable { .. })
        ));
    }

    #[test]
    fn bandwidth_calibration_sources() {
        assert_eq!(WorkloadSpec::from(AttackKind::Scan).bandwidth_mbps(), None);
        assert_eq!(
            WorkloadSpec::from(ParsecBenchmark::Vips).bandwidth_mbps(),
            Some(3309.0)
        );
        let spec: WorkloadSpec = "TRACE[path=x.trace,bw=256]".parse().unwrap();
        assert_eq!(spec.bandwidth_mbps(), Some(256.0));
    }
}
