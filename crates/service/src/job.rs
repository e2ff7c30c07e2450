//! Job specifications and the JSON codecs for specs and reports.
//!
//! A job is a matrix of independent *cells* (see
//! `twl_lifetime::sweep`): scheme × attack, scheme × benchmark, or a
//! single lifetime run. Each cell is a pure function of the spec and
//! the cell index, which is what makes jobs checkpointable — a resumed
//! daemon re-runs only the missing cells and the assembled result is
//! bit-identical to an uninterrupted run.
//!
//! All floating-point fields ride the wire through
//! [`twl_telemetry::json::Json`], whose writer emits the shortest
//! round-tripping decimal form — decoding recovers the exact `f64`
//! bits, so reports compare equal (`==`) across a network or
//! checkpoint round trip.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use std::collections::BTreeMap;

use twl_faults::{CorrectionPolicy, FaultConfig};
use twl_lifetime::{
    run_degradation_cell, run_lifetime_cell, DegradationEnd, DegradationPoint, DegradationReport,
    LifetimeReport, SchemeSpec, SimLimits,
};
use twl_pcm::{PcmConfig, PhysicalPageAddr};
use twl_telemetry::json::{int, num, str, Json};
use twl_workloads::WorkloadSpec;

/// What a job computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// Scheme × attack lifetime grid (Fig. 6).
    AttackMatrix,
    /// Scheme × PARSEC-benchmark lifetime grid (Fig. 8).
    WorkloadMatrix,
    /// Scheme × attack graceful-degradation grid.
    DegradationMatrix,
    /// A single scheme-under-attack lifetime run.
    LifetimeRun,
}

impl JobKind {
    /// Wire label (`"attack_matrix"`, …).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::AttackMatrix => "attack_matrix",
            Self::WorkloadMatrix => "workload_matrix",
            Self::DegradationMatrix => "degradation_matrix",
            Self::LifetimeRun => "lifetime_run",
        }
    }

    /// Parses a wire label.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown label.
    pub fn parse(label: &str) -> Result<Self, String> {
        match label {
            "attack_matrix" => Ok(Self::AttackMatrix),
            "workload_matrix" => Ok(Self::WorkloadMatrix),
            "degradation_matrix" => Ok(Self::DegradationMatrix),
            "lifetime_run" => Ok(Self::LifetimeRun),
            other => Err(format!("unknown job kind `{other}`")),
        }
    }
}

/// A complete, self-contained description of one job.
///
/// Timing always stays at the DAC'17 default — the wire schema carries
/// only the fields that affect wear behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to compute.
    pub kind: JobKind,
    /// The scaled device every cell draws from.
    pub pcm: PcmConfig,
    /// Per-cell safety limits.
    pub limits: SimLimits,
    /// Scheme configurations, in matrix-major order. Bare kinds are
    /// default-params specs; parameter studies carry overrides.
    pub schemes: Vec<SchemeSpec>,
    /// Workloads for attack/degradation matrices and lifetime runs
    /// (the wire's `attacks` list) — attack modes by default, but any
    /// [`WorkloadSpec`] (including `TRACE[path=...]` replays) is a
    /// valid cell coordinate.
    pub attacks: Vec<WorkloadSpec>,
    /// Workloads for workload matrices (the wire's `benchmarks` list).
    pub benchmarks: Vec<WorkloadSpec>,
    /// Fault model for degradation matrices; `None` means
    /// [`FaultConfig::default`].
    pub fault: Option<FaultConfig>,
}

impl JobSpec {
    /// Checks the spec is runnable.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.schemes.is_empty() {
            return Err("spec needs at least one scheme".into());
        }
        for scheme in &self.schemes {
            scheme.validate().map_err(|e| e.to_string())?;
        }
        for workload in self.attacks.iter().chain(&self.benchmarks) {
            workload.validate().map_err(|e| e.to_string())?;
        }
        match self.kind {
            JobKind::AttackMatrix | JobKind::DegradationMatrix => {
                if self.attacks.is_empty() {
                    return Err("spec needs at least one attack".into());
                }
            }
            JobKind::WorkloadMatrix => {
                if self.benchmarks.is_empty() {
                    return Err("spec needs at least one benchmark".into());
                }
            }
            JobKind::LifetimeRun => {
                if self.schemes.len() != 1 || self.attacks.len() != 1 {
                    return Err("a lifetime_run takes exactly one scheme and one attack".into());
                }
            }
        }
        if self.kind == JobKind::DegradationMatrix {
            self.fault_config().validate()?;
        }
        Ok(())
    }

    /// The effective fault configuration.
    #[must_use]
    pub fn fault_config(&self) -> FaultConfig {
        self.fault.clone().unwrap_or_default()
    }

    /// The workload axis this job's kind sweeps: `benchmarks` for a
    /// workload matrix, `attacks` for everything else.
    #[must_use]
    pub fn workload_axis(&self) -> &[WorkloadSpec] {
        match self.kind {
            JobKind::WorkloadMatrix => &self.benchmarks,
            _ => &self.attacks,
        }
    }

    /// Cells in this job's matrix.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.schemes.len() * self.workload_axis().len()
    }

    /// `(scheme label, workload label)` of cell `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= cell_count()`.
    #[must_use]
    pub fn describe_cell(&self, index: usize) -> (String, String) {
        let (scheme, workload) = self.cell(index);
        (scheme.label(), workload.label())
    }

    /// The scheme and workload specs of cell `index`: cells run
    /// scheme-major over [`JobSpec::workload_axis`].
    ///
    /// # Panics
    ///
    /// Panics if `index >= cell_count()`.
    #[must_use]
    pub fn cell(&self, index: usize) -> (SchemeSpec, &WorkloadSpec) {
        assert!(index < self.cell_count(), "cell index out of range");
        let axis = self.workload_axis();
        match (
            self.schemes.get(index / axis.len()),
            axis.get(index % axis.len()),
        ) {
            (Some(&scheme), Some(workload)) => (scheme, workload),
            _ => unreachable!("an index below schemes × axis names a cell"),
        }
    }

    /// Runs cell `index` and returns its encoded report plus the device
    /// writes it absorbed (the unit the checkpoint interval counts).
    ///
    /// Deterministic: depends only on the spec and the index, exactly
    /// like the matrix helpers in `twl_lifetime::sweep`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the scheme/workload cannot
    /// be built for the device geometry (the executor catches the
    /// latter and fails the job instead of the daemon).
    #[must_use]
    pub fn run_cell(&self, index: usize) -> (Json, u64) {
        let (scheme, workload) = self.cell(index);
        if self.kind == JobKind::DegradationMatrix {
            let report = run_degradation_cell(
                &self.pcm,
                &self.fault_config(),
                scheme,
                workload,
                &self.limits,
            );
            let writes = report.device_writes;
            (degradation_report_to_json(&report), writes)
        } else {
            let report = run_lifetime_cell(&self.pcm, scheme, workload, &self.limits);
            let writes = report.device_writes;
            (lifetime_report_to_json(&report), writes)
        }
    }

    /// Encodes the spec for the wire and the checkpoint file.
    #[must_use]
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind", str(self.kind.label())),
            ("pcm", pcm_to_json(&self.pcm)),
            (
                "limits",
                Json::obj([("max_logical_writes", int(self.limits.max_logical_writes))]),
            ),
            (
                "schemes",
                Json::Arr(self.schemes.iter().map(SchemeSpec::to_json).collect()),
            ),
            (
                "attacks",
                Json::Arr(self.attacks.iter().map(WorkloadSpec::to_json).collect()),
            ),
            (
                "benchmarks",
                Json::Arr(self.benchmarks.iter().map(WorkloadSpec::to_json).collect()),
            ),
        ];
        if let Some(fault) = &self.fault {
            pairs.push(("fault", fault_to_json(fault)));
        }
        Json::obj(pairs)
    }

    /// Decodes a spec.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or invalid field.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let kind = JobKind::parse(req_str(v, "kind")?)?;
        let pcm = pcm_from_json(v.get("pcm").ok_or("spec is missing `pcm`")?)?;
        let limits = match v.get("limits") {
            Some(limits) => SimLimits {
                max_logical_writes: req_u64(limits, "max_logical_writes")?,
            },
            None => SimLimits::default(),
        };
        let schemes = v
            .get("schemes")
            .and_then(Json::as_arr)
            .ok_or("missing or non-array `schemes`")?
            .iter()
            .map(SchemeSpec::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let attacks = workload_list(v, "attacks")?;
        let benchmarks = workload_list(v, "benchmarks")?;
        let fault = match v.get("fault") {
            Some(f) => Some(fault_from_json(f)?),
            None => None,
        };
        Ok(Self {
            kind,
            pcm,
            limits,
            schemes,
            attacks,
            benchmarks,
            fault,
        })
    }
}

/// The reports a finished job carries, decoded.
#[derive(Debug, Clone, PartialEq)]
pub enum JobReports {
    /// Lifetime reports (attack/workload matrices, lifetime runs).
    Lifetime(Vec<LifetimeReport>),
    /// Degradation reports (degradation matrices).
    Degradation(Vec<DegradationReport>),
}

/// Assembles a job result document from per-cell reports in index
/// order: `{"kind": ..., "reports": [...]}`.
#[must_use]
pub fn encode_result(kind: JobKind, reports: Vec<Json>) -> Json {
    Json::obj([("kind", str(kind.label())), ("reports", Json::Arr(reports))])
}

/// Decodes a job result document back into typed reports.
///
/// # Errors
///
/// Returns a message naming the first malformed field.
pub fn decode_result(v: &Json) -> Result<JobReports, String> {
    let kind = JobKind::parse(req_str(v, "kind")?)?;
    let reports = v
        .get("reports")
        .and_then(Json::as_arr)
        .ok_or("result is missing `reports`")?;
    match kind {
        JobKind::DegradationMatrix => reports
            .iter()
            .map(degradation_report_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map(JobReports::Degradation),
        _ => reports
            .iter()
            .map(lifetime_report_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map(JobReports::Lifetime),
    }
}

/// Encodes a [`LifetimeReport`] with exact numeric round-tripping.
#[must_use]
pub fn lifetime_report_to_json(r: &LifetimeReport) -> Json {
    Json::obj([
        ("scheme", str(&r.scheme)),
        ("workload", str(&r.workload)),
        ("logical_writes", int(r.logical_writes)),
        ("device_writes", int(r.device_writes)),
        (
            "failed_page",
            r.failed_page.map_or(Json::Null, |p| int(p.index())),
        ),
        ("completed", Json::Bool(r.completed)),
        ("capacity_fraction", num(r.capacity_fraction)),
        ("years", num(r.years)),
        ("swap_per_write", num(r.swap_per_write)),
        ("extra_write_ratio", num(r.extra_write_ratio)),
        ("wear_gini", num(r.wear_gini)),
    ])
}

/// Decodes a [`LifetimeReport`].
///
/// # Errors
///
/// Returns a message naming the first missing or invalid field.
pub fn lifetime_report_from_json(v: &Json) -> Result<LifetimeReport, String> {
    Ok(LifetimeReport {
        scheme: req_str(v, "scheme")?.to_owned(),
        workload: req_str(v, "workload")?.to_owned(),
        logical_writes: req_u64(v, "logical_writes")?,
        device_writes: req_u64(v, "device_writes")?,
        failed_page: opt_u64(v, "failed_page")?.map(PhysicalPageAddr::new),
        completed: req_bool(v, "completed")?,
        capacity_fraction: req_f64(v, "capacity_fraction")?,
        years: req_f64(v, "years")?,
        swap_per_write: req_f64(v, "swap_per_write")?,
        extra_write_ratio: req_f64(v, "extra_write_ratio")?,
        wear_gini: req_f64(v, "wear_gini")?,
    })
}

/// Encodes a [`DegradationReport`] with exact numeric round-tripping.
#[must_use]
pub fn degradation_report_to_json(r: &DegradationReport) -> Json {
    let point = |p: &DegradationPoint| {
        Json::obj([
            ("logical_writes", int(p.logical_writes)),
            ("device_writes", int(p.device_writes)),
            ("corrected_groups", int(p.corrected_groups)),
            ("retired_pages", int(p.retired_pages)),
            ("spares_remaining", int(p.spares_remaining)),
        ])
    };
    let opt = |v: Option<u64>| v.map_or(Json::Null, int);
    Json::obj([
        ("scheme", str(&r.scheme)),
        ("workload", str(&r.workload)),
        ("data_pages", int(r.data_pages)),
        ("spare_pages", int(r.spare_pages)),
        ("logical_writes", int(r.logical_writes)),
        ("device_writes", int(r.device_writes)),
        ("corrected_groups", int(r.corrected_groups)),
        ("retired_pages", int(r.retired_pages)),
        (
            "first_fault_device_writes",
            opt(r.first_fault_device_writes),
        ),
        (
            "first_retirement_device_writes",
            opt(r.first_retirement_device_writes),
        ),
        (
            "spare_exhausted_device_writes",
            opt(r.spare_exhausted_device_writes),
        ),
        (
            "end",
            str(match r.end {
                DegradationEnd::SpareExhausted => "spare_exhausted",
                DegradationEnd::WriteBudget => "write_budget",
            }),
        ),
        ("capacity_fraction", num(r.capacity_fraction)),
        ("years", num(r.years)),
        ("wear_gini", num(r.wear_gini)),
        ("curve", Json::Arr(r.curve.iter().map(point).collect())),
    ])
}

/// Decodes a [`DegradationReport`].
///
/// # Errors
///
/// Returns a message naming the first missing or invalid field.
pub fn degradation_report_from_json(v: &Json) -> Result<DegradationReport, String> {
    let end = match req_str(v, "end")? {
        "spare_exhausted" => DegradationEnd::SpareExhausted,
        "write_budget" => DegradationEnd::WriteBudget,
        other => return Err(format!("unknown degradation end `{other}`")),
    };
    let curve = v
        .get("curve")
        .and_then(Json::as_arr)
        .ok_or("degradation report is missing `curve`")?
        .iter()
        .map(|p| {
            Ok(DegradationPoint {
                logical_writes: req_u64(p, "logical_writes")?,
                device_writes: req_u64(p, "device_writes")?,
                corrected_groups: req_u64(p, "corrected_groups")?,
                retired_pages: req_u64(p, "retired_pages")?,
                spares_remaining: req_u64(p, "spares_remaining")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(DegradationReport {
        scheme: req_str(v, "scheme")?.to_owned(),
        workload: req_str(v, "workload")?.to_owned(),
        data_pages: req_u64(v, "data_pages")?,
        spare_pages: req_u64(v, "spare_pages")?,
        logical_writes: req_u64(v, "logical_writes")?,
        device_writes: req_u64(v, "device_writes")?,
        corrected_groups: req_u64(v, "corrected_groups")?,
        retired_pages: req_u64(v, "retired_pages")?,
        first_fault_device_writes: opt_u64(v, "first_fault_device_writes")?,
        first_retirement_device_writes: opt_u64(v, "first_retirement_device_writes")?,
        spare_exhausted_device_writes: opt_u64(v, "spare_exhausted_device_writes")?,
        end,
        capacity_fraction: req_f64(v, "capacity_fraction")?,
        years: req_f64(v, "years")?,
        wear_gini: req_f64(v, "wear_gini")?,
        curve,
    })
}

fn pcm_to_json(c: &PcmConfig) -> Json {
    Json::obj([
        ("pages", int(c.pages)),
        ("page_size_bytes", int(c.page_size_bytes)),
        ("line_size_bytes", int(c.line_size_bytes)),
        ("mean_endurance", int(c.mean_endurance)),
        ("sigma_fraction", num(c.sigma_fraction)),
        ("seed", int(c.seed)),
        ("banks", int(u64::from(c.banks))),
    ])
}

fn pcm_from_json(v: &Json) -> Result<PcmConfig, String> {
    let mut builder = PcmConfig::builder();
    builder
        .pages(req_u64(v, "pages")?)
        .mean_endurance(req_u64(v, "mean_endurance")?)
        .seed(req_u64(v, "seed")?);
    if let Some(f) = v.get("sigma_fraction") {
        builder.sigma_fraction(f.as_f64().ok_or("`sigma_fraction` must be a number")?);
    }
    if let Some(n) = v.get("page_size_bytes") {
        builder.page_size_bytes(n.as_u64().ok_or("`page_size_bytes` must be an integer")?);
    }
    if let Some(n) = v.get("line_size_bytes") {
        builder.line_size_bytes(n.as_u64().ok_or("`line_size_bytes` must be an integer")?);
    }
    if let Some(n) = v.get("banks") {
        let banks = n.as_u64().ok_or("`banks` must be an integer")?;
        builder.banks(u32::try_from(banks).map_err(|_| "`banks` is out of range")?);
    }
    builder.build().map_err(|e| e.to_string())
}

fn fault_to_json(f: &FaultConfig) -> Json {
    Json::obj([
        (
            "cell_groups_per_page",
            int(u64::from(f.cell_groups_per_page)),
        ),
        ("group_sigma_fraction", num(f.group_sigma_fraction)),
        ("policy", str(&f.policy.label())),
        ("spare_fraction", num(f.spare_fraction)),
        ("seed", int(f.seed)),
    ])
}

fn fault_from_json(v: &Json) -> Result<FaultConfig, String> {
    let policy_label = req_str(v, "policy")?;
    let policy = parse_policy(policy_label)?;
    let groups = req_u64(v, "cell_groups_per_page")?;
    Ok(FaultConfig {
        cell_groups_per_page: u32::try_from(groups)
            .map_err(|_| "`cell_groups_per_page` is out of range")?,
        group_sigma_fraction: req_f64(v, "group_sigma_fraction")?,
        policy,
        spare_fraction: req_f64(v, "spare_fraction")?,
        seed: req_u64(v, "seed")?,
    })
}

/// Parses a correction-policy label (`"ECP6"`, `"SAFER8"`).
fn parse_policy(label: &str) -> Result<CorrectionPolicy, String> {
    let bad = || format!("unknown correction policy `{label}` (expected ECP<n> or SAFER<n>)");
    if let Some(n) = label.strip_prefix("ECP") {
        let entries = n.parse().map_err(|_| bad())?;
        Ok(CorrectionPolicy::Ecp { entries })
    } else if let Some(n) = label.strip_prefix("SAFER") {
        let groups = n.parse().map_err(|_| bad())?;
        Ok(CorrectionPolicy::Safer { groups })
    } else {
        Err(bad())
    }
}

/// Encodes a completed-cells map with string keys (JSON object keys).
#[must_use]
pub fn cells_to_json(cells: &BTreeMap<u64, Json>) -> Json {
    Json::Obj(
        cells
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

/// Decodes a completed-cells map.
///
/// # Errors
///
/// Returns a message on a non-object value or a non-numeric key.
pub fn cells_from_json(v: &Json) -> Result<BTreeMap<u64, Json>, String> {
    match v {
        Json::Obj(map) => map
            .iter()
            .map(|(k, v)| {
                let index = k
                    .parse::<u64>()
                    .map_err(|_| format!("bad cell index `{k}`"))?;
                Ok((index, v.clone()))
            })
            .collect(),
        _ => Err("completed cells must be an object".into()),
    }
}

/// Decodes a workload-spec list: each entry a bare label string
/// (pre-`WorkloadSpec` frames) or a `{"kind", "params"}` object.
fn workload_list(v: &Json, key: &str) -> Result<Vec<WorkloadSpec>, String> {
    let arr = v
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("missing or non-array `{key}`"))?;
    arr.iter().map(WorkloadSpec::from_json).collect()
}

pub(crate) fn req_str<'a>(v: &'a Json, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| format!("missing or non-string `{key}`"))
}

pub(crate) fn req_u64(v: &Json, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("missing or non-integer `{key}`"))
}

pub(crate) fn opt_u64(v: &Json, key: &str) -> Result<Option<u64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(n) => n
            .as_u64()
            .map(Some)
            .ok_or_else(|| format!("non-integer `{key}`")),
    }
}

pub(crate) fn req_f64(v: &Json, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric `{key}`"))
}

pub(crate) fn req_bool(v: &Json, key: &str) -> Result<bool, String> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(format!("missing or non-boolean `{key}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_attacks::AttackKind;
    use twl_lifetime::SchemeKind;

    fn spec() -> JobSpec {
        JobSpec {
            kind: JobKind::AttackMatrix,
            pcm: PcmConfig::scaled(128, 2_000, 8),
            limits: SimLimits::default(),
            schemes: vec![SchemeKind::Nowl.into(), SchemeKind::TwlSwp.into()],
            attacks: vec![AttackKind::Repeat.into(), AttackKind::Scan.into()],
            benchmarks: vec![],
            fault: None,
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let original = spec();
        let back = JobSpec::from_json(&original.to_json()).unwrap();
        assert_eq!(back, original);

        let degradation = JobSpec {
            kind: JobKind::DegradationMatrix,
            fault: Some(FaultConfig {
                cell_groups_per_page: 8,
                group_sigma_fraction: 0.15,
                policy: CorrectionPolicy::Safer { groups: 3 },
                spare_fraction: 0.05,
                seed: 4,
            }),
            ..spec()
        };
        let back = JobSpec::from_json(&degradation.to_json()).unwrap();
        assert_eq!(back, degradation);
    }

    #[test]
    fn spec_json_survives_the_text_form() {
        let original = spec();
        let text = original.to_json().to_compact();
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, original);
    }

    #[test]
    fn validation_names_problems() {
        let mut s = spec();
        s.schemes.clear();
        assert!(s.validate().unwrap_err().contains("scheme"));

        let mut s = spec();
        s.kind = JobKind::WorkloadMatrix;
        assert!(s.validate().unwrap_err().contains("benchmark"));

        let mut s = spec();
        s.kind = JobKind::LifetimeRun;
        assert!(s.validate().unwrap_err().contains("exactly one"));

        assert!(spec().validate().is_ok());
    }

    #[test]
    fn cells_run_in_matrix_order_and_reports_round_trip() {
        let s = JobSpec {
            pcm: PcmConfig::scaled(64, 500, 3),
            ..spec()
        };
        assert_eq!(s.cell_count(), 4);
        assert_eq!(s.describe_cell(0), ("NOWL".to_owned(), "repeat".to_owned()));
        assert_eq!(
            s.describe_cell(3),
            ("TWL_swp".to_owned(), "scan".to_owned())
        );
        let (encoded, writes) = s.run_cell(1);
        let report = lifetime_report_from_json(&encoded).unwrap();
        assert_eq!(report.scheme, "NOWL");
        assert_eq!(report.workload, "scan");
        assert_eq!(report.device_writes, writes);
        // The text form (what actually crosses the wire) is bit-exact.
        let text = encoded.to_compact();
        let back = lifetime_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn degradation_reports_round_trip_bit_exactly() {
        let s = JobSpec {
            kind: JobKind::DegradationMatrix,
            pcm: PcmConfig::scaled(64, 500, 3),
            schemes: vec![SchemeKind::Nowl.into()],
            attacks: vec![AttackKind::Repeat.into()],
            fault: Some(FaultConfig {
                cell_groups_per_page: 8,
                group_sigma_fraction: 0.15,
                policy: CorrectionPolicy::Ecp { entries: 2 },
                spare_fraction: 0.05,
                seed: 4,
            }),
            ..spec()
        };
        let (encoded, _) = s.run_cell(0);
        let text = encoded.to_compact();
        let report = degradation_report_from_json(&Json::parse(&text).unwrap()).unwrap();
        let direct = twl_lifetime::run_degradation_cell(
            &s.pcm,
            &s.fault_config(),
            SchemeKind::Nowl,
            AttackKind::Repeat,
            &s.limits,
        );
        assert_eq!(report, direct);
    }

    #[test]
    fn result_document_round_trips() {
        let s = JobSpec {
            pcm: PcmConfig::scaled(64, 500, 3),
            schemes: vec![SchemeKind::Nowl.into()],
            attacks: vec![AttackKind::Repeat.into()],
            ..spec()
        };
        let (cell, _) = s.run_cell(0);
        let result = encode_result(s.kind, vec![cell]);
        match decode_result(&result).unwrap() {
            JobReports::Lifetime(reports) => {
                assert_eq!(reports.len(), 1);
                assert_eq!(reports[0].scheme, "NOWL");
            }
            JobReports::Degradation(_) => panic!("wrong report type"),
        }
    }

    #[test]
    fn label_parsers_reject_unknowns() {
        assert!("twl_swp".parse::<SchemeKind>().is_ok());
        assert!("bogus".parse::<SchemeKind>().is_err());
        assert!("REPEAT".parse::<WorkloadSpec>().is_ok());
        assert!("bogus".parse::<WorkloadSpec>().is_err());
        assert!("Vips".parse::<WorkloadSpec>().is_ok());
        assert!(parse_policy("ECP6").is_ok());
        assert!(parse_policy("SAFER8").is_ok());
        assert!(parse_policy("RAID5").is_err());
    }

    #[test]
    fn trace_and_parameterized_workloads_round_trip_the_spec_codec() {
        let s = JobSpec {
            attacks: vec![
                "inconsistent[group=4,stride=8]".parse().unwrap(),
                "TRACE[path=/tmp/x.trace,seed=3]".parse().unwrap(),
            ],
            ..spec()
        };
        let back = JobSpec::from_json(&s.to_json()).unwrap();
        assert_eq!(back, s);
        let text = s.to_json().to_compact();
        assert!(text.contains("\"kind\":\"TRACE\""));
        assert!(text.contains("\"path\":\"/tmp/x.trace\""));
        let back = JobSpec::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.describe_cell(1).1, "TRACE[path=/tmp/x.trace,seed=3]");
    }

    #[test]
    fn cells_map_round_trips() {
        let mut cells = BTreeMap::new();
        cells.insert(0u64, int(1));
        cells.insert(7u64, str("x"));
        let back = cells_from_json(&cells_to_json(&cells)).unwrap();
        assert_eq!(back, cells);
        assert!(cells_from_json(&int(3)).is_err());
    }
}
