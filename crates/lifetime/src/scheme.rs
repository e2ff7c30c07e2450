//! Scheme factory: every wear leveler in the workspace, as data.
//!
//! Two layers of identity live here. [`SchemeKind`] names an algorithm
//! (`TWL_swp`, `SR`, …); [`SchemeSpec`] names a *configuration* of one —
//! a kind plus a typed set of parameter overrides that default to the
//! paper's values. A spec is a small `Copy` value with a canonical
//! string label (`TWL_swp[ti=8,pair=rnd:7]`), a `FromStr`/`Display`
//! round trip, and a JSON codec, so every experiment in the workspace
//! — a sweep matrix cell, a service job, a checkpoint — can carry the
//! exact scheme configuration it ran as data.
//! The grammar and the codec are the shared ones in
//! [`twl_telemetry::spec`]; this module supplies the scheme parameter
//! table.
//!
//! Default-parameter specs are indistinguishable from their bare kind:
//! they build the identical engine (same code path, same RNG streams),
//! render as the bare kind label, and encode as a bare label string in
//! JSON — which is also the backward-compatibility story for job specs
//! and checkpoints written before `SchemeSpec` existed.

use std::error::Error;
use std::fmt;
use std::str::FromStr;
use twl_baselines::{
    BloomFilterWl, BwlConfig, SecurityRefresh, SrConfig, StartGap, StartGapConfig,
    WearRateLeveling, WrlConfig,
};
use twl_core::{PairingStrategy, TossUpWearLeveling, TwlConfig};
use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_telemetry::json::Json;
use twl_telemetry::spec::{self, parse_flag, parse_u64, Field, ParamSet};
use twl_wl_core::{BatchOutcome, Nowl, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// Every scheme the workspace can instantiate, in the paper's naming.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchemeKind {
    /// No wear leveling.
    Nowl,
    /// Security Refresh (two-level).
    Sr,
    /// Bloom-filter wear leveling.
    Bwl,
    /// Wear-rate leveling.
    Wrl,
    /// Start-Gap.
    StartGap,
    /// Toss-up WL with strong-weak pairing (the paper's `TWL_swp`).
    TwlSwp,
    /// Toss-up WL with adjacent pairing (the paper's `TWL_ap`).
    TwlAp,
}

impl SchemeKind {
    /// Every kind, in declaration order.
    pub const ALL: [SchemeKind; 7] = [
        Self::Nowl,
        Self::Sr,
        Self::Bwl,
        Self::Wrl,
        Self::StartGap,
        Self::TwlSwp,
        Self::TwlAp,
    ];

    /// The schemes of Fig. 6, in its legend order.
    pub const FIG6: [SchemeKind; 5] = [Self::Bwl, Self::Sr, Self::TwlAp, Self::TwlSwp, Self::Nowl];

    /// The schemes of Figs. 8–9 (TWL means `TWL_swp`).
    pub const FIG8: [SchemeKind; 4] = [Self::Bwl, Self::Sr, Self::TwlSwp, Self::Nowl];

    /// Display label as used in the paper's figures.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::Nowl => "NOWL",
            Self::Sr => "SR",
            Self::Bwl => "BWL",
            Self::Wrl => "WRL",
            Self::StartGap => "StartGap",
            Self::TwlSwp => "TWL_swp",
            Self::TwlAp => "TWL_ap",
        }
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for SchemeKind {
    type Err = String;

    /// Parses a figure label, case-insensitively. `TWL` is accepted as
    /// an alias for `TWL_swp` (the paper's headline variant).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let folded = s.trim().to_ascii_lowercase();
        if folded == "twl" {
            return Ok(Self::TwlSwp);
        }
        Self::ALL
            .iter()
            .copied()
            .find(|k| k.label().to_ascii_lowercase() == folded)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::ALL.iter().map(SchemeKind::label).collect();
                format!(
                    "unknown scheme `{s}` (expected one of {})",
                    known.join(", ")
                )
            })
    }
}

/// Why a scheme could not be built or a spec is ill-formed.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemeError {
    /// The requested region does not fit the device.
    InvalidRegion {
        /// Requested region size in pages.
        pages: u64,
        /// The device's total page count.
        device_pages: u64,
    },
    /// A parameter override is invalid for the scheme.
    InvalidParams {
        /// The scheme the override targets.
        kind: SchemeKind,
        /// What is wrong with it.
        reason: String,
    },
    /// The scheme rejects the region geometry (e.g. Security Refresh
    /// on a non-power-of-two page count).
    Geometry {
        /// The scheme that rejected the geometry.
        kind: SchemeKind,
        /// The scheme's own error message.
        reason: String,
    },
}

impl fmt::Display for SchemeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::InvalidRegion {
                pages,
                device_pages,
            } => write!(
                f,
                "scheme region of {pages} pages outside a {device_pages}-page device"
            ),
            Self::InvalidParams { kind, reason } => {
                write!(f, "invalid parameters for {kind}: {reason}")
            }
            Self::Geometry { kind, reason } => {
                write!(f, "{kind} rejects the region geometry: {reason}")
            }
        }
    }
}

impl Error for SchemeError {}

/// TWL parameter overrides (`None` keeps the paper default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TwlParams {
    /// Writes per page between toss-up decisions (paper: 32).
    pub toss_up_interval: Option<u64>,
    /// Writes per pair between inter-pair swaps (paper: 128);
    /// `u64::MAX` disables them (label `ip=off`).
    pub inter_pair_swap_interval: Option<u64>,
    /// Pairing strategy override (the kind's own default otherwise).
    pub pairing: Option<PairingStrategy>,
    /// `true` for the optimized 2-write swap, `false` for the naive
    /// 3-write swap (label `swap=2` / `swap=3`).
    pub optimized_swap: Option<bool>,
    /// Track measured wear instead of nominal endurance.
    pub dynamic_endurance: Option<bool>,
}

/// BWL parameter overrides (`None` keeps the scaled preset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BwlParams {
    /// Writes per epoch.
    pub epoch_writes: Option<u64>,
    /// Initial hot-page threshold.
    pub initial_hot_threshold: Option<u64>,
    /// Enable band repair (the BWL paper's refinement).
    pub band_repair: Option<bool>,
}

/// Security Refresh parameter overrides (`None` keeps the
/// endurance-scaled preset).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SrParams {
    /// Inner-level swap interval in writes.
    pub inner_interval: Option<u64>,
    /// Outer-level swap interval in writes.
    pub outer_interval: Option<u64>,
}

/// Start-Gap parameter overrides (`None` keeps the default).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct StartGapParams {
    /// Writes between gap moves (paper: 100).
    pub gap_interval: Option<u64>,
}

/// Typed per-scheme parameter overrides.
///
/// `Default` (the common case) means "the paper configuration"; the
/// other variants carry `Option` override fields for one scheme family.
/// A variant whose fields are all `None` is semantically `Default`;
/// [`SchemeSpec::canonical`] normalizes it away.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum SchemeParams {
    /// Paper-default configuration.
    #[default]
    Default,
    /// Overrides for the TWL kinds.
    Twl(TwlParams),
    /// Overrides for BWL.
    Bwl(BwlParams),
    /// Overrides for Security Refresh.
    Sr(SrParams),
    /// Overrides for Start-Gap.
    StartGap(StartGapParams),
}

/// A scheme *configuration*: a kind plus typed parameter overrides.
///
/// The unit of scheme identity everywhere schemes travel as data —
/// sweep matrices, service jobs, checkpoints, bench tables. Construct
/// one with [`SchemeSpec::new`] (paper defaults), tweak it with
/// [`SchemeSpec::set_param`], or parse a label:
///
/// ```
/// use twl_lifetime::SchemeSpec;
///
/// let spec: SchemeSpec = "TWL_swp[ti=8,pair=rnd:7]".parse().unwrap();
/// assert_eq!(spec.label(), "TWL_swp[ti=8,pair=rnd:7]");
/// let plain: SchemeSpec = "BWL".parse().unwrap();
/// assert!(plain.is_default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SchemeSpec {
    /// The algorithm.
    pub kind: SchemeKind,
    /// Parameter overrides (paper defaults when `Default`).
    pub params: SchemeParams,
}

impl From<SchemeKind> for SchemeSpec {
    fn from(kind: SchemeKind) -> Self {
        Self::new(kind)
    }
}

impl From<&SchemeSpec> for SchemeSpec {
    fn from(spec: &SchemeSpec) -> Self {
        *spec
    }
}

impl SchemeSpec {
    /// The paper-default spec for `kind`.
    #[must_use]
    pub fn new(kind: SchemeKind) -> Self {
        Self {
            kind,
            params: SchemeParams::Default,
        }
    }

    /// Whether this spec is the paper-default configuration (no
    /// effective overrides).
    #[must_use]
    pub fn is_default(&self) -> bool {
        spec::is_default(self)
    }

    /// Normalizes an all-`None` params variant back to
    /// [`SchemeParams::Default`], so equal configurations compare equal.
    #[must_use]
    pub fn canonical(self) -> Self {
        spec::canonical(self)
    }

    /// The canonical label: the kind label, plus `[k=v,...]` for any
    /// overridden parameters in a fixed key order. Round-trips through
    /// [`FromStr`] and is what reports, telemetry scopes, and service
    /// events use for this spec.
    #[must_use]
    pub fn label(&self) -> String {
        spec::label(self)
    }

    /// Applies one `key=value` override, creating the right params
    /// variant for this spec's kind. Keys are the short label-grammar
    /// names (`ti`, `ip`, `pair`, `swap`, `dyn`, `epoch`, `thr`,
    /// `repair`, `inner`, `outer`, `gap`); the long JSON field names
    /// are accepted as aliases.
    ///
    /// # Errors
    ///
    /// Returns a message if the key is unknown for the kind or the
    /// value does not parse; the spec is then unchanged.
    pub fn set_param(&mut self, key: &str, value: &str) -> Result<(), String> {
        let kind = self.kind;
        let unknown = || Err(spec::unknown_key(kind, key));
        self.params = match kind {
            SchemeKind::TwlSwp | SchemeKind::TwlAp => {
                let mut p = match self.params {
                    SchemeParams::Twl(p) => p,
                    _ => TwlParams::default(),
                };
                match key {
                    "ti" | "toss_up_interval" => p.toss_up_interval = Some(parse_u64(key, value)?),
                    "ip" | "inter_pair_swap_interval" => {
                        p.inter_pair_swap_interval = Some(if value == "off" {
                            u64::MAX
                        } else {
                            parse_u64(key, value)?
                        });
                    }
                    "pair" | "pairing" => p.pairing = Some(parse_pairing(value)?),
                    "swap" => {
                        p.optimized_swap = Some(match value {
                            "2" => true,
                            "3" => false,
                            _ => return Err(format!("`swap` must be 2 or 3, got `{value}`")),
                        });
                    }
                    "optimized_swap" => p.optimized_swap = Some(parse_flag(key, value)?),
                    "dyn" | "dynamic_endurance" => {
                        p.dynamic_endurance = Some(parse_flag(key, value)?);
                    }
                    _ => return unknown(),
                }
                SchemeParams::Twl(p)
            }
            SchemeKind::Bwl => {
                let mut p = match self.params {
                    SchemeParams::Bwl(p) => p,
                    _ => BwlParams::default(),
                };
                match key {
                    "epoch" | "epoch_writes" => p.epoch_writes = Some(parse_u64(key, value)?),
                    "thr" | "initial_hot_threshold" => {
                        p.initial_hot_threshold = Some(parse_u64(key, value)?);
                    }
                    "repair" | "band_repair" => p.band_repair = Some(parse_flag(key, value)?),
                    _ => return unknown(),
                }
                SchemeParams::Bwl(p)
            }
            SchemeKind::Sr => {
                let mut p = match self.params {
                    SchemeParams::Sr(p) => p,
                    _ => SrParams::default(),
                };
                match key {
                    "inner" | "inner_interval" => p.inner_interval = Some(parse_u64(key, value)?),
                    "outer" | "outer_interval" => p.outer_interval = Some(parse_u64(key, value)?),
                    _ => return unknown(),
                }
                SchemeParams::Sr(p)
            }
            SchemeKind::StartGap => match key {
                "gap" | "gap_interval" => SchemeParams::StartGap(StartGapParams {
                    gap_interval: Some(parse_u64(key, value)?),
                }),
                _ => return unknown(),
            },
            SchemeKind::Nowl | SchemeKind::Wrl => {
                return Err(format!("{kind} takes no parameters (got `{key}`)"));
            }
        };
        Ok(())
    }

    /// Checks that the params variant matches the kind and every
    /// override is in range.
    ///
    /// # Errors
    ///
    /// Returns [`SchemeError::InvalidParams`] on a mismatched variant
    /// or an out-of-range value (zero intervals, mostly).
    pub fn validate(&self) -> Result<(), SchemeError> {
        let invalid = |reason: String| SchemeError::InvalidParams {
            kind: self.kind,
            reason,
        };
        match (self.kind, &self.params) {
            (_, SchemeParams::Default) => Ok(()),
            (SchemeKind::TwlSwp | SchemeKind::TwlAp, SchemeParams::Twl(p)) => {
                if p.toss_up_interval == Some(0) {
                    return Err(invalid("toss-up interval must be positive".into()));
                }
                if p.inter_pair_swap_interval == Some(0) {
                    return Err(invalid("inter-pair swap interval must be positive".into()));
                }
                Ok(())
            }
            (SchemeKind::Bwl, SchemeParams::Bwl(p)) => {
                if p.epoch_writes == Some(0) {
                    return Err(invalid("epoch writes must be positive".into()));
                }
                Ok(())
            }
            (SchemeKind::Sr, SchemeParams::Sr(p)) => {
                if p.inner_interval == Some(0) || p.outer_interval == Some(0) {
                    return Err(invalid("refresh intervals must be positive".into()));
                }
                Ok(())
            }
            (SchemeKind::StartGap, SchemeParams::StartGap(p)) => {
                if p.gap_interval == Some(0) {
                    return Err(invalid("gap interval must be positive".into()));
                }
                Ok(())
            }
            (kind, params) => Err(invalid(format!(
                "{params:?} overrides do not apply to {kind}"
            ))),
        }
    }

    /// Encodes the spec: a bare label string for default-params specs
    /// (byte-identical to the pre-`SchemeSpec` wire format), a
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
}

/// The scheme side of the shared label grammar: the parameter table
/// below is everything `twl_telemetry::spec` needs to label, parse and
/// encode a [`SchemeSpec`].
impl ParamSet for SchemeSpec {
    type Kind = SchemeKind;
    const NOUN: &'static str = "scheme";

    fn kind(&self) -> SchemeKind {
        self.kind
    }

    fn fields(&self) -> Vec<Option<Field>> {
        match self.params {
            SchemeParams::Default => vec![],
            SchemeParams::Twl(p) => {
                let ip_off = p.inter_pair_swap_interval == Some(u64::MAX);
                let swap = if p.optimized_swap == Some(true) {
                    "2"
                } else {
                    "3"
                };
                vec![
                    Field::int("ti", "toss_up_interval", p.toss_up_interval),
                    Field::int("ip", "inter_pair_swap_interval", p.inter_pair_swap_interval)
                        .map(|f| if ip_off { f.labeled("off") } else { f }),
                    Field::text("pair", "pairing", p.pairing.map(pairing_label).as_deref()),
                    Field::flag("swap", "optimized_swap", p.optimized_swap)
                        .map(|f| f.labeled(swap)),
                    Field::flag("dyn", "dynamic_endurance", p.dynamic_endurance),
                ]
            }
            SchemeParams::Bwl(p) => vec![
                Field::int("epoch", "epoch_writes", p.epoch_writes),
                Field::int("thr", "initial_hot_threshold", p.initial_hot_threshold),
                Field::flag("repair", "band_repair", p.band_repair),
            ],
            SchemeParams::Sr(p) => vec![
                Field::int("inner", "inner_interval", p.inner_interval),
                Field::int("outer", "outer_interval", p.outer_interval),
            ],
            SchemeParams::StartGap(p) => vec![Field::int("gap", "gap_interval", p.gap_interval)],
        }
    }

    fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        self.set_param(key, value)
    }

    fn validate(&self) -> Result<(), String> {
        SchemeSpec::validate(self).map_err(|e| e.to_string())
    }
}

impl fmt::Display for SchemeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

impl FromStr for SchemeSpec {
    type Err = String;

    /// Parses a canonical label: `KIND` or `KIND[k=v,...]`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        spec::parse(s)
    }
}

/// Parses a comma-separated list of scheme spec labels, where commas
/// inside `[...]` parameter blocks do not split
/// (`"TWL_swp[ti=8,ip=32],BWL"` is two specs).
///
/// # Errors
///
/// Returns the first label's parse error.
pub fn parse_spec_list(s: &str) -> Result<Vec<SchemeSpec>, String> {
    spec::parse_list(s)
}

fn pairing_label(p: PairingStrategy) -> String {
    match p {
        PairingStrategy::StrongWeak => "swp".to_owned(),
        PairingStrategy::Adjacent => "ap".to_owned(),
        PairingStrategy::Random { seed } => format!("rnd:{seed}"),
        // `PairingStrategy` is non-exhaustive; future strategies must
        // add a label here before specs can carry them.
        _ => unreachable!("unlabeled pairing strategy"),
    }
}

fn parse_pairing(value: &str) -> Result<PairingStrategy, String> {
    match value {
        "swp" => Ok(PairingStrategy::StrongWeak),
        "ap" => Ok(PairingStrategy::Adjacent),
        _ => match value.strip_prefix("rnd:") {
            Some(seed) => Ok(PairingStrategy::Random {
                seed: parse_u64("pair seed", seed)?,
            }),
            None => Err(format!(
                "unknown pairing `{value}` (expected swp, ap, or rnd:SEED)"
            )),
        },
    }
}

/// Renames a scheme without touching its behavior: every method
/// delegates (including `write_batch` and `read`, so fast paths and
/// latency accounting survive) while `name()` reports the spec label.
/// Forwarding `write_batch` runs the inner scheme's own loop with its
/// own quiet-stretch hooks, so those are not forwarded.
/// Built only for non-default specs — default specs keep the engine's
/// own name and its exact pre-`SchemeSpec` code path.
struct Relabeled {
    name: String,
    inner: Box<dyn WearLeveler>,
}

impl WearLeveler for Relabeled {
    fn name(&self) -> &str {
        &self.name
    }

    fn page_count(&self) -> u64 {
        self.inner.page_count()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.inner.translate(la)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        self.inner.write(la, device)
    }

    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        self.inner.write_batch(la, n, device)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        self.inner.write_batch_cap(wear_margin)
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        self.inner.read(la, device)
    }

    fn stats(&self) -> &WlStats {
        self.inner.stats()
    }
}

/// Builds the scheme a spec describes for the whole of `device`.
///
/// # Errors
///
/// Returns a [`SchemeError`] if the spec is ill-formed or the device
/// geometry is incompatible.
pub fn build_scheme_spec(
    spec: &SchemeSpec,
    device: &PcmDevice,
) -> Result<Box<dyn WearLeveler>, SchemeError> {
    build_scheme_spec_for_region(spec, device, device.page_count())
}

/// Builds the scheme a spec describes over only the first `pages` slots
/// of `device`.
///
/// This is how schemes run on a spare-augmented device
/// (`twl_faults::provision`): the scheme addresses the data region and
/// never sees the spare tail. Endurance-aware schemes (the TWL
/// variants) get the truncated endurance map, which is identical to
/// what a `pages`-page device with the same seed would draw.
///
/// Non-default specs come back wrapped so `name()` reports the spec's
/// label — reports and telemetry scopes then carry the full
/// configuration, not just the algorithm name.
///
/// # Errors
///
/// Returns [`SchemeError::InvalidRegion`] if `pages` is zero or exceeds
/// the device's page count, [`SchemeError::InvalidParams`] on a bad
/// override, and [`SchemeError::Geometry`] if the scheme rejects the
/// region (e.g. a non-power-of-two page count for Security Refresh).
pub fn build_scheme_spec_for_region(
    spec: &SchemeSpec,
    device: &PcmDevice,
    pages: u64,
) -> Result<Box<dyn WearLeveler>, SchemeError> {
    spec.validate()?;
    if pages == 0 || pages > device.page_count() {
        return Err(SchemeError::InvalidRegion {
            pages,
            device_pages: device.page_count(),
        });
    }
    let geometry = |e: &dyn fmt::Display| SchemeError::Geometry {
        kind: spec.kind,
        reason: e.to_string(),
    };
    let built: Box<dyn WearLeveler> = match spec.kind {
        SchemeKind::Nowl => Box::new(Nowl::new(pages)),
        SchemeKind::Sr => {
            let mut cfg = SrConfig::for_scaled_device(pages, device.config().mean_endurance)
                .map_err(|e| geometry(&e))?;
            if let SchemeParams::Sr(p) = &spec.params {
                if let Some(v) = p.inner_interval {
                    cfg.inner_interval = v;
                }
                if let Some(v) = p.outer_interval {
                    cfg.outer_interval = v;
                }
            }
            Box::new(SecurityRefresh::new(&cfg, pages).map_err(|e| geometry(&e))?)
        }
        SchemeKind::Bwl => {
            let mut cfg = BwlConfig::for_pages(pages);
            if let SchemeParams::Bwl(p) = &spec.params {
                if let Some(v) = p.epoch_writes {
                    cfg.epoch_writes = v;
                }
                if let Some(v) = p.initial_hot_threshold {
                    cfg.initial_hot_threshold = v;
                }
                if let Some(v) = p.band_repair {
                    cfg.band_repair = v;
                }
            }
            Box::new(BloomFilterWl::new(&cfg, pages))
        }
        SchemeKind::Wrl => Box::new(WearRateLeveling::new(&WrlConfig::for_pages(pages), pages)),
        SchemeKind::StartGap => {
            let mut cfg = StartGapConfig::default();
            if let SchemeParams::StartGap(p) = &spec.params {
                if let Some(v) = p.gap_interval {
                    cfg.gap_interval = v;
                }
            }
            Box::new(StartGap::new(&cfg, pages))
        }
        SchemeKind::TwlSwp | SchemeKind::TwlAp => {
            let mut builder = TwlConfig::builder();
            if spec.kind == SchemeKind::TwlAp {
                builder.pairing(PairingStrategy::Adjacent);
            }
            if let SchemeParams::Twl(p) = &spec.params {
                if let Some(v) = p.toss_up_interval {
                    builder.toss_up_interval(v);
                }
                if let Some(v) = p.inter_pair_swap_interval {
                    builder.inter_pair_swap_interval(v);
                }
                if let Some(v) = p.pairing {
                    builder.pairing(v);
                }
                if let Some(v) = p.optimized_swap {
                    builder.optimized_swap(v);
                }
                if let Some(v) = p.dynamic_endurance {
                    builder.dynamic_endurance(v);
                }
            }
            let cfg = builder.build().map_err(|e| SchemeError::InvalidParams {
                kind: spec.kind,
                reason: e.to_string(),
            })?;
            Box::new(TossUpWearLeveling::new(
                &cfg,
                &device.endurance_map().truncated(pages as usize),
            ))
        }
    };
    let label = spec.label();
    Ok(if built.name() == label {
        built
    } else {
        Box::new(Relabeled {
            name: label,
            inner: built,
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;

    fn device(pages: u64) -> PcmDevice {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(10_000)
            .build()
            .unwrap();
        PcmDevice::new(&pcm)
    }

    #[test]
    fn every_kind_builds_on_default_device() {
        let device = device(256);
        for kind in SchemeKind::ALL {
            let scheme = build_scheme_spec(&kind.into(), &device).unwrap();
            assert_eq!(scheme.name(), kind.label(), "kind {kind}");
        }
    }

    #[test]
    fn sr_rejects_non_power_of_two() {
        let pcm = PcmConfig::builder()
            .pages(192)
            .mean_endurance(10_000)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        assert!(matches!(
            build_scheme_spec(&SchemeKind::Sr.into(), &device),
            Err(SchemeError::Geometry { .. })
        ));
    }

    #[test]
    fn bad_regions_are_typed_errors_not_panics() {
        let device = device(256);
        assert_eq!(
            build_scheme_spec_for_region(&SchemeKind::Nowl.into(), &device, 0).err(),
            Some(SchemeError::InvalidRegion {
                pages: 0,
                device_pages: 256
            }),
        );
        assert!(matches!(
            build_scheme_spec_for_region(&SchemeKind::Nowl.into(), &device, 257),
            Err(SchemeError::InvalidRegion { .. })
        ));
    }

    #[test]
    fn region_schemes_ignore_the_spare_tail() {
        // A 256+spare device: schemes built for the 256-page region
        // must report exactly 256 pages and (for TWL) use the same
        // endurance data a plain 256-page device would.
        let pcm = PcmConfig::builder()
            .pages(272)
            .mean_endurance(10_000)
            .seed(3)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        for kind in [SchemeKind::Sr, SchemeKind::TwlSwp, SchemeKind::Nowl] {
            let scheme = build_scheme_spec_for_region(&kind.into(), &device, 256).unwrap();
            assert_eq!(scheme.page_count(), 256, "kind {kind}");
        }
        // SR rejects the non-power-of-two full device but accepts the
        // power-of-two region.
        assert!(build_scheme_spec(&SchemeKind::Sr.into(), &device).is_err());
    }

    #[test]
    fn figure_sets_are_consistent() {
        assert_eq!(SchemeKind::FIG6.len(), 5);
        assert_eq!(SchemeKind::FIG8.len(), 4);
    }

    #[test]
    fn kind_labels_round_trip() {
        for kind in SchemeKind::ALL {
            assert_eq!(kind.label().parse::<SchemeKind>(), Ok(kind));
            assert_eq!(kind.label().to_lowercase().parse::<SchemeKind>(), Ok(kind));
        }
        assert_eq!("TWL".parse::<SchemeKind>(), Ok(SchemeKind::TwlSwp));
        assert!("bogus".parse::<SchemeKind>().is_err());
    }

    #[test]
    fn spec_labels_round_trip() {
        for label in [
            "TWL_swp[ti=8]",
            "TWL_swp[ti=8,ip=off,pair=rnd:7,swap=3,dyn=1]",
            "TWL_ap[ip=512]",
            "BWL[epoch=1024,thr=4,repair=0]",
            "SR[inner=16,outer=64]",
            "StartGap[gap=50]",
            "NOWL",
        ] {
            let spec: SchemeSpec = label.parse().unwrap();
            assert_eq!(spec.label(), label);
            assert_eq!(spec.label().parse::<SchemeSpec>(), Ok(spec));
            let decoded = SchemeSpec::from_json(&spec.to_json()).unwrap();
            assert_eq!(decoded, spec, "json round trip for {label}");
        }
    }

    #[test]
    fn bad_specs_are_rejected() {
        // Grammar-level shapes are in `tests/spec_grammar.rs`; these are
        // the scheme-specific verdicts.
        assert!("TWL_swp[ti=0]".parse::<SchemeSpec>().is_err());
        assert!("NOWL[ti=8]".parse::<SchemeSpec>().is_err());
        assert!("SR[gap=5]".parse::<SchemeSpec>().is_err());
        assert!("TWL_swp[pair=xyz]".parse::<SchemeSpec>().is_err());
        let mismatched = SchemeSpec {
            kind: SchemeKind::Nowl,
            params: SchemeParams::Twl(TwlParams {
                toss_up_interval: Some(8),
                ..TwlParams::default()
            }),
        };
        assert!(mismatched.validate().is_err());
    }

    #[test]
    fn spec_lists_split_outside_brackets() {
        let specs = parse_spec_list("TWL_swp[ti=8,ip=32], BWL ,NOWL").unwrap();
        assert_eq!(specs.len(), 3);
        assert_eq!(specs[0].label(), "TWL_swp[ti=8,ip=32]");
        assert_eq!(specs[1].kind, SchemeKind::Bwl);
        assert!(parse_spec_list("  ").is_err());
    }

    #[test]
    fn default_specs_build_unwrapped_engines() {
        let device = device(256);
        for kind in SchemeKind::ALL {
            let spec = SchemeSpec::new(kind);
            let scheme = build_scheme_spec(&spec, &device).unwrap();
            assert_eq!(scheme.name(), kind.label());
        }
    }

    #[test]
    fn non_default_specs_carry_their_label() {
        let device = device(256);
        let spec: SchemeSpec = "TWL_swp[ti=8,pair=rnd:7]".parse().unwrap();
        let scheme = build_scheme_spec(&spec, &device).unwrap();
        assert_eq!(scheme.name(), "TWL_swp[ti=8,pair=rnd:7]");
        let sg: SchemeSpec = "StartGap[gap=50]".parse().unwrap();
        assert_eq!(
            build_scheme_spec(&sg, &device).unwrap().name(),
            "StartGap[gap=50]"
        );
    }

    #[test]
    fn explicit_defaults_behave_like_defaults() {
        // An override equal to the paper default changes the label but
        // not the engine's behavior.
        let device = device(64);
        let spec: SchemeSpec = "TWL_swp[ti=32]".parse().unwrap();
        let mut a = build_scheme_spec(&spec, &device).unwrap();
        let mut b = build_scheme_spec(&SchemeKind::TwlSwp.into(), &device).unwrap();
        let mut da = PcmDevice::new(device.config());
        let mut db = PcmDevice::new(device.config());
        for i in 0..5_000u64 {
            let la = LogicalPageAddr::new(i % 64);
            let ra = a.write(la, &mut da);
            let rb = b.write(la, &mut db);
            assert_eq!(ra.is_ok(), rb.is_ok());
        }
        assert_eq!(a.stats().device_writes, b.stats().device_writes);
        assert_eq!(
            a.translate(LogicalPageAddr::new(7)),
            b.translate(LogicalPageAddr::new(7))
        );
    }
}
