//! Content addressing for matrix cells.
//!
//! A cell is a pure function of the device config, the simulation
//! limits, the scheme, the workload, and (for degradation matrices)
//! the fault model — [`twl_service::JobSpec::run_cell`] depends on
//! nothing else. The [`CellKey`] hashes exactly those inputs, so two
//! jobs that share a cell (same scheme × workload on the same device)
//! share one cache entry even when the surrounding matrices differ.
//!
//! # Schema evolution
//!
//! The descriptor document carries a `schema` field pinned to
//! [`SCHEMA`]. The rules, enforced by the golden fixtures in
//! `tests/fixtures/pr7_cellkeys.json`:
//!
//! * Any change that alters simulation results — new descriptor
//!   fields, canonicalization changes, engine behaviour changes that
//!   shift report bytes — MUST bump the schema version. Old cache
//!   entries then miss (their keys embed the old version) instead of
//!   replaying stale reports.
//! * Fields that do not affect results (matrix shape, sibling cells,
//!   benchmarks of an attack matrix) MUST stay out of the descriptor;
//!   that is what makes the cache shareable across jobs.
//! * Descriptor keys are emitted in the canonical sorted order of
//!   [`Json::to_compact`]; the golden fixtures pin the exact bytes.
//! * Trace cells additionally pin `workload_hash` — the SHA-256 of the
//!   trace file's bytes — because a path is a location, not content:
//!   entries are shared exactly when the replayed writes are identical,
//!   and never across re-captures (pinned by
//!   `tests/fixtures/pr10_cellkeys.json`).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing
    )
)]

use twl_service::job::JobKind;
use twl_service::JobSpec;
use twl_telemetry::json::{str, Json};
use twl_workloads::{WorkloadKind, WorkloadParams};

use crate::sha256::sha256_hex;

/// The versioned descriptor schema a [`CellKey`] hashes.
pub const SCHEMA: &str = "twl-cellkey/v1";

/// The content address of one matrix cell: the SHA-256 of its
/// canonical descriptor document, as 64 lowercase hex characters.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey(String);

impl CellKey {
    /// Computes the key for cell `index` of `spec`.
    ///
    /// # Errors
    ///
    /// Fails if the cell replays a trace whose file cannot be read (the
    /// key pins the trace *content*).
    ///
    /// # Panics
    ///
    /// Panics if `index >= spec.cell_count()` (same contract as
    /// [`JobSpec::run_cell`]).
    pub fn try_of(spec: &JobSpec, index: usize) -> Result<Self, String> {
        let descriptor = Self::descriptor(spec, index)?;
        Ok(Self(sha256_hex(descriptor.to_compact().as_bytes())))
    }

    /// [`CellKey::try_of`] for cells known to be hashable.
    ///
    /// # Panics
    ///
    /// Panics where [`CellKey::try_of`] fails or panics.
    #[must_use]
    pub fn of(spec: &JobSpec, index: usize) -> Self {
        let key = Self::try_of(spec, index);
        assert!(key.is_ok(), "cell {index} cannot be keyed: {key:?}");
        key.unwrap_or_else(|_| unreachable!("asserted above"))
    }

    /// The canonical descriptor document the key hashes — exposed so
    /// the golden fixtures can pin its exact bytes.
    ///
    /// # Errors
    ///
    /// Fails if the cell replays a trace whose file cannot be read.
    ///
    /// # Panics
    ///
    /// Panics if `index >= spec.cell_count()`.
    pub fn descriptor(spec: &JobSpec, index: usize) -> Result<Json, String> {
        // The cell kind follows the *workload family*, not the matrix
        // shape: attack matrices and lifetime runs execute the
        // identical attack cell, so they share a cell kind (and cache
        // entries); synthetic-generator, trace-replay, and degradation
        // cells produce different report shapes or sampling and stay
        // distinct.
        let (scheme, workload_spec) = spec.cell(index);
        let workload = workload_spec.label();
        let cell_kind = match (spec.kind, &workload_spec.kind) {
            (JobKind::DegradationMatrix, _) => "degradation",
            (_, WorkloadKind::Trace) => "trace",
            (_, WorkloadKind::Parsec(_)) => "workload",
            _ => "attack",
        };

        // Borrow the spec's own wire encoding for the device, limits,
        // and fault sub-documents so the descriptor can never drift
        // from what the worker actually receives. The probe pins the
        // *effective* fault config, so `fault: None` and an explicit
        // default hash identically.
        let mut probe = spec.clone();
        probe.fault = Some(spec.fault_config());
        let encoded = probe.to_json();
        let sub = |key: &str| encoded.get(key).cloned().unwrap_or(Json::Null);

        let mut pairs = vec![
            ("cell_kind", str(cell_kind)),
            ("limits", sub("limits")),
            ("pcm", sub("pcm")),
            ("schema", str(SCHEMA)),
            ("scheme", str(&scheme.canonical().label())),
            ("workload", str(&workload)),
        ];
        if spec.kind == JobKind::DegradationMatrix {
            pairs.push(("fault", sub("fault")));
        }
        // A trace label names a *path*, which is not content: the same
        // path can hold different captures on different machines. The
        // descriptor therefore pins the SHA-256 of the trace bytes, so
        // cache entries are shared exactly when the replayed writes are
        // identical — and never across re-captures.
        if let WorkloadParams::Trace(trace) = &workload_spec.params {
            let bytes = std::fs::read(&trace.path)
                .map_err(|e| format!("cannot hash trace {}: {e}", trace.path))?;
            pairs.push(("workload_hash", str(&sha256_hex(&bytes))));
        }
        Ok(Json::obj(pairs))
    }

    /// The 64-hex-character key text.
    #[must_use]
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Parses a key previously produced by [`CellKey::of`] (e.g. a
    /// cache file name).
    ///
    /// # Errors
    ///
    /// Rejects anything that is not exactly 64 lowercase hex
    /// characters.
    pub fn parse(text: &str) -> Result<Self, String> {
        if text.len() == 64
            && text
                .bytes()
                .all(|b| b.is_ascii_hexdigit() && !b.is_ascii_uppercase())
        {
            Ok(Self(text.to_owned()))
        } else {
            Err(format!("`{text}` is not a 64-hex-character cell key"))
        }
    }
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_attacks::AttackKind;
    use twl_lifetime::{SchemeKind, SimLimits};
    use twl_pcm::PcmConfig;

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
    fn keys_are_stable_and_distinct_per_cell() {
        let spec = spec();
        let keys: Vec<CellKey> = (0..spec.cell_count())
            .map(|i| CellKey::of(&spec, i))
            .collect();
        for (i, key) in keys.iter().enumerate() {
            assert_eq!(CellKey::of(&spec, i), *key, "cell {i} key unstable");
            assert_eq!(key.as_str().len(), 64);
        }
        for i in 0..keys.len() {
            for j in i + 1..keys.len() {
                assert_ne!(keys[i], keys[j], "cells {i} and {j} collide");
            }
        }
    }

    #[test]
    fn matrix_shape_does_not_leak_into_the_key() {
        // The same (scheme, attack) cell inside a 2x2 matrix and as a
        // single-cell matrix must share a key — that is what lets two
        // different sweeps share cache entries.
        let big = spec();
        let mut small = spec();
        small.schemes = vec![SchemeKind::TwlSwp.into()];
        small.attacks = vec![AttackKind::Scan.into()];
        // TWL_swp × scan is cell 3 of the 2x2 matrix, cell 0 of the 1x1.
        assert_eq!(CellKey::of(&big, 3), CellKey::of(&small, 0));
    }

    #[test]
    fn lifetime_runs_share_attack_matrix_entries() {
        let mut run = spec();
        run.kind = JobKind::LifetimeRun;
        run.schemes = vec![SchemeKind::Nowl.into()];
        run.attacks = vec![AttackKind::Repeat.into()];
        assert_eq!(CellKey::of(&spec(), 0), CellKey::of(&run, 0));
    }

    #[test]
    fn every_simulation_input_perturbs_the_key() {
        let base = CellKey::of(&spec(), 0);

        let mut other = spec();
        other.pcm = PcmConfig::scaled(128, 2_000, 9);
        assert_ne!(CellKey::of(&other, 0), base, "seed ignored");

        let mut other = spec();
        other.limits = SimLimits {
            max_logical_writes: 1,
        };
        assert_ne!(CellKey::of(&other, 0), base, "limits ignored");

        let mut other = spec();
        other.schemes[0] = "TWL_swp[ti=64]".parse().unwrap();
        assert_ne!(CellKey::of(&other, 0), base, "scheme params ignored");

        // Degradation cells must not collide with attack cells even for
        // the same scheme × attack: their reports decode differently.
        let mut other = spec();
        other.kind = JobKind::DegradationMatrix;
        assert_ne!(CellKey::of(&other, 0), base, "cell kind ignored");
    }

    #[test]
    fn parse_round_trips_and_rejects_garbage() {
        let key = CellKey::of(&spec(), 0);
        assert_eq!(CellKey::parse(key.as_str()).unwrap(), key);
        assert!(CellKey::parse("deadbeef").is_err());
        assert!(CellKey::parse(&key.as_str().to_uppercase()).is_err());
        assert!(CellKey::parse(&format!("{}x", &key.as_str()[..63])).is_err());
    }
}
