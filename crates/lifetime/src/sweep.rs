//! Experiment matrices: run scheme × workload grids in one call. The
//! workload axis is a [`WorkloadSpec`], so attacks (Fig. 6), PARSEC
//! generators (Fig. 8) and captured traces are all just coordinates.
//!
//! The figure-regenerating binaries in `twl-bench` are thin wrappers
//! over these helpers; library users get the same sweeps as data.
//!
//! Each matrix is a grid of *cells*, and every cell is independent: it
//! builds its own fresh device (and scheme, and attack) from the shared
//! [`PcmConfig`], so a cell's report is a pure function of the config
//! and the cell coordinates. The single-cell entry points
//! ([`run_lifetime_cell`], [`run_degradation_cell`]) expose exactly the
//! computation one matrix slot performs — that is what makes matrix
//! jobs resumable in `twl-service`: a checkpoint stores completed
//! cells, and a resumed run re-executes only the missing ones, with
//! results bit-identical to an uninterrupted sweep.

use crate::pool::run_cells;
use crate::{
    build_scheme_spec, build_scheme_spec_for_region, run_attack, run_degradation_attack,
    Calibration, DegradationReport, LifetimeReport, SchemeError, SchemeSpec, SimLimits,
};
use twl_faults::{provision, FaultConfig};
use twl_pcm::{PcmConfig, PcmDevice};
use twl_wl_core::WearLeveler;
use twl_workloads::{BuiltWorkload, WorkloadSpec};

/// The calibration a workload spec pins: a PARSEC generator (or a trace
/// with a `bw=` override) carries its own write bandwidth; attacks use
/// the paper's 8 GiB/s attack rate.
pub(crate) fn calibration_for(workload: &WorkloadSpec) -> Calibration {
    match workload.bandwidth_mbps() {
        Some(bw) => Calibration::for_bandwidth_mbps(bw),
        None => Calibration::attack_8gbps(),
    }
}

/// Unwraps a cell's scheme and builds its write stream over the page
/// space `workload` addresses: the scheme's logical space for attacks
/// and traces, the raw `device_pages` for the PARSEC generators.
/// `target` names the device in the panic messages.
///
/// # Panics
///
/// Panics if the scheme could not be built or the workload cannot be
/// built for the chosen page space.
pub(crate) fn build_cell(
    spec: &SchemeSpec,
    scheme: Result<Box<dyn WearLeveler>, SchemeError>,
    workload: &WorkloadSpec,
    device_pages: u64,
    seed: u64,
    target: &str,
) -> (Box<dyn WearLeveler>, BuiltWorkload) {
    let scheme = scheme.unwrap_or_else(|e| panic!("cannot build {spec} for {target}: {e}"));
    let pages = if workload.addresses_scheme_space() {
        scheme.page_count()
    } else {
        device_pages
    };
    let stream = workload
        .build(pages, seed)
        .unwrap_or_else(|e| panic!("cannot build workload for {target}: {e}"));
    (scheme, stream)
}

/// Runs one cell of a [`lifetime_matrix`]: the scheme `spec` describes
/// under `workload`'s write stream on a fresh device drawn from `pcm`,
/// with the workload's calibration ([`WorkloadSpec::bandwidth_mbps`]).
///
/// Deterministic: the report depends only on the arguments (for a
/// `TRACE` workload, on the trace file's contents). Accepts bare kinds
/// ([`crate::SchemeKind`], [`twl_attacks::AttackKind`],
/// [`twl_workloads::ParsecBenchmark`]) or full specs on either axis;
/// default-parameter specs reproduce the legacy attack/workload cells
/// bit-identically.
///
/// # Panics
///
/// Panics if the scheme cannot be built for the device geometry or the
/// workload cannot be built for the logical space (e.g. an unreadable
/// trace file).
#[must_use]
pub fn run_lifetime_cell(
    pcm: &PcmConfig,
    spec: impl Into<SchemeSpec>,
    workload: impl Into<WorkloadSpec>,
    limits: &SimLimits,
) -> LifetimeReport {
    let spec = spec.into();
    let workload = workload.into();
    let calibration = calibration_for(&workload);
    let build_span = twl_telemetry::span!("cell.build", spec.to_string());
    let mut device = PcmDevice::new(pcm);
    let scheme = build_scheme_spec(&spec, &device);
    let (mut scheme, mut stream) =
        build_cell(&spec, scheme, &workload, pcm.pages, pcm.seed, "this device");
    drop(build_span);
    run_attack(
        scheme.as_mut(),
        &mut device,
        &mut stream,
        limits,
        &calibration,
    )
}

/// Runs one cell of a [`degradation_matrix`]: `scheme` under
/// `workload` on a fresh fault-tolerant domain provisioned from `pcm`
/// and `fault_cfg`, followed to spare-pool exhaustion.
///
/// Deterministic: the report depends only on the arguments.
///
/// # Panics
///
/// Panics if the fault config is invalid, the scheme cannot be built
/// for the data-region geometry, or the workload cannot be built for
/// the logical space.
#[must_use]
pub fn run_degradation_cell(
    pcm: &PcmConfig,
    fault_cfg: &FaultConfig,
    spec: impl Into<SchemeSpec>,
    workload: impl Into<WorkloadSpec>,
    limits: &SimLimits,
) -> DegradationReport {
    let spec = spec.into();
    let workload = workload.into();
    let calibration = calibration_for(&workload);
    let build_span = twl_telemetry::span!("cell.build", spec.to_string());
    let mut domain =
        provision(pcm, fault_cfg).unwrap_or_else(|e| panic!("cannot provision domain: {e}"));
    let scheme = build_scheme_spec_for_region(&spec, &domain.device, domain.data_pages);
    let (mut scheme, mut stream) = build_cell(
        &spec,
        scheme,
        &workload,
        domain.data_pages,
        pcm.seed,
        "this device",
    );
    drop(build_span);
    run_degradation_attack(
        scheme.as_mut(),
        &mut domain,
        &mut stream,
        limits,
        &calibration,
    )
}

/// Runs every scheme in `schemes` against every workload in
/// `workloads` on a fresh device drawn from `pcm`, returning reports
/// in `schemes`-major order — Fig. 6's scheme × attack grid and
/// Fig. 8's scheme × benchmark grid alike. Both axes are specs, so
/// attacks, PARSEC generators (each with its own bandwidth
/// calibration), and captured traces mix freely as cell coordinates.
///
/// `schemes` may be bare [`crate::SchemeKind`]s (paper defaults) or
/// full [`SchemeSpec`]s — parameter studies are just another matrix.
///
/// # Panics
///
/// Panics if a scheme or workload cannot be built for the device (e.g.
/// Security Refresh on a non-power-of-two page count).
///
/// # Examples
///
/// ```
/// use twl_lifetime::{lifetime_matrix, SchemeKind, SimLimits};
/// use twl_attacks::AttackKind;
/// use twl_pcm::PcmConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let pcm = PcmConfig::builder().pages(128).mean_endurance(2_000).seed(1).build()?;
/// let reports = lifetime_matrix(
///     &pcm,
///     &[SchemeKind::Nowl, SchemeKind::TwlSwp],
///     &[AttackKind::Repeat],
///     &SimLimits::default(),
/// );
/// assert_eq!(reports.len(), 2);
/// assert!(reports[1].years > reports[0].years);
/// # Ok(())
/// # }
/// ```
#[must_use]
pub fn lifetime_matrix<S, W>(
    pcm: &PcmConfig,
    schemes: &[S],
    workloads: &[W],
    limits: &SimLimits,
) -> Vec<LifetimeReport>
where
    S: Clone + Into<SchemeSpec>,
    W: Clone + Into<WorkloadSpec>,
{
    let cells: Vec<(SchemeSpec, WorkloadSpec)> = schemes
        .iter()
        .flat_map(|s| {
            let spec: SchemeSpec = s.clone().into();
            workloads.iter().map(move |w| (spec, w.clone().into()))
        })
        .collect();
    run_cells(&cells, |cell| {
        run_lifetime_cell(pcm, cell.0, &cell.1, limits)
    })
}

/// Runs every scheme against every attack on a fresh fault-tolerant
/// domain (`pcm` data region + spares per `fault_cfg`), following each
/// run through correction and retirement to spare-pool exhaustion.
/// Reports come back in `schemes`-major order.
///
/// # Panics
///
/// Panics if the fault config is invalid or a scheme cannot be built
/// for the data-region geometry.
#[must_use]
pub fn degradation_matrix<S, W>(
    pcm: &PcmConfig,
    fault_cfg: &FaultConfig,
    schemes: &[S],
    attacks: &[W],
    limits: &SimLimits,
) -> Vec<DegradationReport>
where
    S: Clone + Into<SchemeSpec>,
    W: Clone + Into<WorkloadSpec>,
{
    let cells: Vec<(SchemeSpec, WorkloadSpec)> = schemes
        .iter()
        .flat_map(|s| {
            let spec: SchemeSpec = s.clone().into();
            attacks.iter().map(move |w| (spec, w.clone().into()))
        })
        .collect();
    run_cells(&cells, |cell| {
        run_degradation_cell(pcm, fault_cfg, cell.0, &cell.1, limits)
    })
}

/// Geometric mean of the reports' lifetimes in years (the paper's
/// `Gmean` column), treating non-positive entries as a tiny epsilon.
#[must_use]
pub fn gmean_years(reports: &[LifetimeReport]) -> f64 {
    if reports.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = reports.iter().map(|r| r.years.max(1e-9).ln()).sum();
    (log_sum / reports.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeKind;
    use twl_attacks::AttackKind;
    use twl_workloads::ParsecBenchmark;

    fn pcm() -> PcmConfig {
        PcmConfig::builder()
            .pages(128)
            .mean_endurance(2_000)
            .seed(8)
            .build()
            .expect("valid config")
    }

    #[test]
    fn attack_matrix_shape_and_order() {
        let reports = lifetime_matrix(
            &pcm(),
            &[SchemeKind::Nowl, SchemeKind::TwlSwp],
            &[AttackKind::Repeat, AttackKind::Scan],
            &SimLimits::default(),
        );
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].scheme, "NOWL");
        assert_eq!(reports[0].workload, "repeat");
        assert_eq!(reports[1].workload, "scan");
        assert_eq!(reports[2].scheme, "TWL_swp");
    }

    #[test]
    fn single_cells_equal_their_matrix_slots() {
        let pcm = pcm();
        let limits = SimLimits::default();
        let matrix = lifetime_matrix(
            &pcm,
            &[SchemeKind::Nowl, SchemeKind::TwlSwp],
            &[AttackKind::Repeat, AttackKind::Scan],
            &limits,
        );
        // Re-running any one cell in isolation is bit-identical to the
        // matrix slot — the contract checkpoint/resume relies on.
        assert_eq!(
            run_lifetime_cell(&pcm, SchemeKind::TwlSwp, AttackKind::Scan, &limits),
            matrix[3]
        );
        assert_eq!(
            run_lifetime_cell(&pcm, SchemeKind::Nowl, AttackKind::Repeat, &limits),
            matrix[0]
        );
    }

    #[test]
    fn workload_matrix_uses_per_benchmark_calibration() {
        let reports = lifetime_matrix(
            &pcm(),
            &[SchemeKind::Nowl],
            &[ParsecBenchmark::Vips, ParsecBenchmark::Streamcluster],
            &SimLimits::default(),
        );
        assert_eq!(reports.len(), 2);
        // Same device, same scheme: capacity fractions are comparable,
        // but streamcluster's years dwarf vips' because its bandwidth
        // is ~275x lower.
        assert!(reports[1].years > 20.0 * reports[0].years);
    }

    #[test]
    fn degradation_matrix_runs_to_spare_exhaustion() {
        let fault_cfg = FaultConfig {
            cell_groups_per_page: 8,
            group_sigma_fraction: 0.15,
            policy: twl_faults::CorrectionPolicy::Ecp { entries: 2 },
            spare_fraction: 0.05,
            seed: 4,
        };
        let reports = degradation_matrix(
            &pcm(),
            &fault_cfg,
            &[SchemeKind::Nowl, SchemeKind::TwlSwp],
            &[AttackKind::Repeat],
            &SimLimits::default(),
        );
        assert_eq!(reports.len(), 2);
        for r in &reports {
            assert_eq!(r.end, crate::DegradationEnd::SpareExhausted, "{}", r.scheme);
            assert_eq!(r.data_pages, 128);
            assert_eq!(r.retired_pages, r.spare_pages);
            assert!(r.curve.len() >= 2);
        }
        // TWL spreads the attack, so it reaches spare exhaustion later.
        assert!(reports[1].device_writes > reports[0].device_writes);
        // And its cell entry point reproduces the matrix slot exactly.
        assert_eq!(
            run_degradation_cell(
                &pcm(),
                &fault_cfg,
                SchemeKind::TwlSwp,
                AttackKind::Repeat,
                &SimLimits::default(),
            ),
            reports[1]
        );
    }

    #[test]
    fn gmean_handles_zeroes() {
        let reports = lifetime_matrix(
            &pcm(),
            &[SchemeKind::Nowl],
            &[AttackKind::Repeat],
            &SimLimits::default(),
        );
        let g = gmean_years(&reports);
        assert!(g >= 0.0 && g.is_finite());
        assert_eq!(gmean_years(&[]), 0.0);
    }
}
