#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Lifetime simulation for the `tossup-wl` workspace.
//!
//! Drives attacks ([`twl_attacks`]) or PARSEC-like workloads
//! ([`twl_workloads`]) against a [`twl_pcm::PcmDevice`] protected by any
//! [`twl_wl_core::WearLeveler`] until the first page wears out — the
//! paper's lifetime methodology (§5.1) — and converts the result into
//! calibrated years comparable with the paper's figures.
//!
//! * [`SchemeSpec`] / [`build_scheme_spec`] — a factory over every
//!   scheme in the workspace, so sweeps can be written as data
//!   ([`build_scheme_spec_for_region`] scopes a scheme to the data
//!   region of a spare-augmented device). A bare [`SchemeKind`] converts
//!   into its paper-default spec.
//! * Every write stream — an attack, a PARSEC generator or a captured
//!   trace — is a [`twl_workloads::WorkloadSpec`] whose
//!   [`twl_workloads::BuiltWorkload`] is an [`twl_attacks::AttackStream`],
//!   so one set of entry points serves attacks (Fig. 6) and workloads
//!   (Fig. 8) alike.
//! * [`run_attack`] — a fail-stop run.
//! * [`run_degradation_attack`] — a graceful-degradation run over a
//!   `twl_faults::FaultDomain`: cell faults are corrected within the
//!   ECP/SAFER budget, uncorrectable pages retire to spares, and the
//!   run ends at spare-pool exhaustion with a full
//!   [`DegradationReport`] curve instead of a single failure point.
//! * [`run_attack_unbatched`] / [`run_degradation_attack_unbatched`] —
//!   the per-write oracles. All four `run_*attack*` functions share one
//!   simulation loop; an oracle drives it through scalar adapters, so
//!   it only ever calls `WearLeveler::write` and
//!   `AttackStream::next_write`.
//! * [`run_lifetime_banked`] — one run split into
//!   [`twl_pcm::PcmConfig::banks`] independent wear-leveling domains
//!   fanned out on the worker pool and merged in bank order;
//!   bit-identical for any worker count, so a single large cell scales
//!   across cores without giving up determinism.
//! * [`lifetime_matrix`] / [`degradation_matrix`] — scheme × workload
//!   grids on the bounded worker pool of [`pool`];
//!   [`run_lifetime_cell`] and [`run_degradation_cell`] run one grid
//!   slot in isolation, bit-identical to its matrix position (the unit
//!   of checkpoint/resume in `twl-service`).
//! * [`LifetimeReport`] — writes survived, fraction of ideal capacity,
//!   calibrated years.
//! * [`Calibration`] — the years conversion (see `DESIGN.md` §3): the
//!   scaled device's *capacity fraction* is scale-invariant, and years
//!   are `fraction × ideal_years(bandwidth)` on the paper's nominal
//!   32 GB / 10⁸-endurance device, with the paper's own ≈1.92× traffic
//!   constant folded in so Table 2's ideal column reproduces exactly.
//!
//! # Examples
//!
//! ```
//! use twl_lifetime::{build_scheme_spec, run_attack, Calibration, SchemeKind, SimLimits};
//! use twl_attacks::{Attack, AttackKind};
//! use twl_pcm::{PcmConfig, PcmDevice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error + Send + Sync>> {
//! let pcm = PcmConfig::builder().pages(256).mean_endurance(2_000).seed(1).build()?;
//! let mut device = PcmDevice::new(&pcm);
//! let mut scheme = build_scheme_spec(&SchemeKind::TwlSwp.into(), &device)?;
//! let mut attack = Attack::new(AttackKind::Repeat, 256, 0);
//! let report = run_attack(
//!     scheme.as_mut(), &mut device, &mut attack,
//!     &SimLimits::default(), &Calibration::attack_8gbps(),
//! );
//! assert!(report.capacity_fraction > 0.0);
//! # Ok(())
//! # }
//! ```

mod banked;
mod calibrate;
pub mod pool;
mod report;
mod scheme;
mod sim;
mod sweep;

pub use banked::{run_lifetime_banked, run_lifetime_banked_on, BankedLifetimeReport};
pub use calibrate::{Calibration, IDEAL_CALIBRATION, SECONDS_PER_YEAR};
pub use report::{DegradationEnd, DegradationPoint, DegradationReport, LifetimeReport};
pub use scheme::{
    build_scheme_spec, build_scheme_spec_for_region, parse_spec_list, BwlParams, SchemeError,
    SchemeKind, SchemeParams, SchemeSpec, SrParams, StartGapParams, TwlParams,
};
pub use sim::{
    run_attack, run_attack_unbatched, run_degradation_attack, run_degradation_attack_unbatched,
    SimLimits,
};
pub use sweep::{
    degradation_matrix, gmean_years, lifetime_matrix, run_degradation_cell, run_lifetime_cell,
};
