//! Intra-cell parallelism: one lifetime run split across independent
//! wear-leveling bank regions.
//!
//! A real PCM module wear-levels in bounded hardware domains — remap
//! tables cover a bank, not the whole device (Table 1's 32-bank
//! layout). The matrix sweeps already exploit *inter*-cell parallelism
//! (many independent runs at once); this module adds the *intra*-cell
//! kind: one (scheme, attack) run over a large device is partitioned
//! into [`twl_pcm::PcmConfig::banks`] independent domains, each with
//! its own device region, scheme instance, write stream, and RNG seed,
//! fanned out on the shared [`crate::pool`] and folded back in bank
//! order.
//!
//! Determinism is the contract everything downstream leans on: the
//! partition is fixed by the config (never by the worker count), each
//! bank's seed is a pure function of `(pcm.seed, bank index)`, and the
//! merge is an ordered reduction over bank index — so a run under
//! `TWL_THREADS=32` is bit-identical to the same run under
//! `TWL_THREADS=1`. The merged result is an ordinary
//! [`LifetimeReport`], so the sweep, service, and fleet layers consume
//! banked runs without change.

use crate::sweep::{build_cell, calibration_for};
use crate::{
    build_scheme_spec, pool, run_attack, Calibration, LifetimeReport, SchemeSpec, SimLimits,
};
use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
use twl_rng::SplitMix64;
use twl_wl_core::WlStats;
use twl_workloads::WorkloadSpec;

/// One banked run: the deterministic merge plus the per-bank detail it
/// was folded from.
#[derive(Debug, Clone, PartialEq)]
pub struct BankedLifetimeReport {
    /// The ordered reduction over all banks — an ordinary report, so
    /// every existing consumer works unchanged.
    pub merged: LifetimeReport,
    /// Per-bank reports, in bank order.
    pub banks: Vec<LifetimeReport>,
}

/// Derives bank `bank`'s RNG seed from the device seed: draw `bank + 1`
/// of a [`SplitMix64`] stream, reached in O(1) by jump-ahead. Each
/// region gets an independent, well-mixed stream that depends only on
/// `(seed, bank)` — never on scheduling.
#[must_use]
fn bank_seed(seed: u64, bank: u64) -> u64 {
    let mut sm = SplitMix64::seed_from(seed);
    sm.jump_ahead(bank);
    sm.next_u64()
}

/// The per-bank geometry: `pcm` shrunk to one bank's pages with that
/// bank's derived seed.
///
/// # Panics
///
/// Panics if the page count does not split evenly into `pcm.banks`
/// regions of at least two (even) pages — pairing schemes bond pages
/// two by two, so a lopsided split would change scheme semantics
/// between the banked and whole-device geometries.
fn bank_config(pcm: &PcmConfig, bank: u64) -> PcmConfig {
    let banks = u64::from(pcm.banks.max(1));
    assert!(
        pcm.pages.is_multiple_of(banks),
        "banked run needs pages ({}) divisible by banks ({banks})",
        pcm.pages
    );
    let bank_pages = pcm.pages / banks;
    assert!(
        bank_pages >= 2 && bank_pages.is_multiple_of(2),
        "banked run needs at least two (even) pages per bank, got {bank_pages}"
    );
    PcmConfig {
        pages: bank_pages,
        seed: bank_seed(pcm.seed, bank),
        ..pcm.clone()
    }
}

/// What one bank contributes to the merge: its report plus the exact
/// counters and wear map the merged metrics are recomputed from.
struct BankOutcome {
    report: LifetimeReport,
    stats: WlStats,
    endurance_total: u128,
    wear: Vec<u32>,
}

/// Folds bank outcomes (in bank order) into one device-level report.
///
/// Aggregate semantics: every bank runs to its own first failure (or
/// the shared write budget), so sums of logical and device writes are
/// exact, the merged capacity fraction is the endurance-weighted mean
/// of the banks', ratios are recomputed from summed [`WlStats`]
/// counters (not averaged ratios), and the Gini coefficient is
/// computed over the concatenated wear maps. `failed_page` reports the
/// weakest bank's failure at its device-global frame address;
/// `completed` means every bank actually reached wear-out.
fn merge(outcomes: &[BankOutcome], bank_pages: u64, calibration: &Calibration) -> LifetimeReport {
    let mut stats = WlStats::new();
    let mut logical_writes = 0u64;
    let mut device_writes = 0u64;
    let mut endurance_total = 0u128;
    let mut wear = Vec::with_capacity(outcomes.len() * bank_pages as usize);
    let mut weakest: Option<(f64, u64, PhysicalPageAddr)> = None;
    for (bank, outcome) in outcomes.iter().enumerate() {
        stats.absorb(&outcome.stats);
        logical_writes += outcome.report.logical_writes;
        device_writes += outcome.report.device_writes;
        endurance_total += outcome.endurance_total;
        wear.extend_from_slice(&outcome.wear);
        if let Some(page) = outcome.report.failed_page {
            let frac = outcome.report.capacity_fraction;
            if weakest.is_none_or(|(f, _, _)| frac < f) {
                weakest = Some((frac, bank as u64, page));
            }
        }
    }
    let capacity_fraction = device_writes as f64 / endurance_total as f64;
    LifetimeReport {
        scheme: outcomes[0].report.scheme.clone(),
        workload: outcomes[0].report.workload.clone(),
        logical_writes,
        device_writes,
        failed_page: weakest
            .map(|(_, bank, page)| PhysicalPageAddr::new(bank * bank_pages + page.index())),
        completed: outcomes.iter().all(|o| o.report.completed),
        capacity_fraction,
        years: calibration.years(capacity_fraction),
        swap_per_write: stats.swap_per_write(),
        extra_write_ratio: stats.extra_write_ratio(),
        wear_gini: twl_pcm::wear_gini(&wear),
    }
}

fn run_banked_on(
    workers: usize,
    pcm: &PcmConfig,
    spec: &SchemeSpec,
    calibration: &Calibration,
    run_bank: impl Fn(&PcmConfig) -> BankOutcome + Sync,
) -> BankedLifetimeReport {
    let banks = u64::from(pcm.banks.max(1));
    let configs: Vec<PcmConfig> = (0..banks).map(|b| bank_config(pcm, b)).collect();
    let bank_pages = configs[0].pages;
    let _span = twl_telemetry::span!("banked_run", spec.to_string());
    let outcomes = pool::run_cells_on(&configs, workers, &run_bank);
    let merged = merge(&outcomes, bank_pages, calibration);
    BankedLifetimeReport {
        merged,
        banks: outcomes.into_iter().map(|o| o.report).collect(),
    }
}

/// Runs `spec` under any workload spec as [`PcmConfig::banks`]
/// independent bank regions on the shared worker pool and merges the
/// results in bank order. Bit-identical for any worker count. Each bank
/// builds the workload against its own geometry and derived seed, so
/// banks stay decorrelated (a trace replay starts each bank at its own
/// seed-rotated offset). A PARSEC workload needs each *bank* large
/// enough for the benchmark's locality ratio (≳1024 pages per bank, see
/// [`twl_workloads::ParsecBenchmark::workload`]).
///
/// # Panics
///
/// Panics if the scheme or workload cannot be built for the bank
/// geometry or the page count does not split evenly into even-sized
/// banks.
#[must_use]
pub fn run_lifetime_banked(
    pcm: &PcmConfig,
    spec: impl Into<SchemeSpec>,
    workload: impl Into<WorkloadSpec>,
    limits: &SimLimits,
) -> BankedLifetimeReport {
    run_lifetime_banked_on(
        pool::worker_count(pcm.banks.max(1) as usize),
        pcm,
        spec,
        workload,
        limits,
    )
}

/// [`run_lifetime_banked`] with an explicit worker count — the seam the
/// determinism tests pin (`workers = 1` versus `workers = n` must be
/// bit-identical).
///
/// # Panics
///
/// As [`run_lifetime_banked`], plus `workers == 0`.
#[must_use]
pub fn run_lifetime_banked_on(
    workers: usize,
    pcm: &PcmConfig,
    spec: impl Into<SchemeSpec>,
    workload: impl Into<WorkloadSpec>,
    limits: &SimLimits,
) -> BankedLifetimeReport {
    let spec = spec.into();
    let workload = workload.into();
    let calibration = calibration_for(&workload);
    run_banked_on(workers, pcm, &spec, &calibration, |cfg| {
        let mut device = PcmDevice::new(cfg);
        let scheme = build_scheme_spec(&spec, &device);
        let (mut scheme, mut stream) =
            build_cell(&spec, scheme, &workload, cfg.pages, cfg.seed, "a bank");
        let report = run_attack(
            scheme.as_mut(),
            &mut device,
            &mut stream,
            limits,
            &calibration,
        );
        BankOutcome {
            report,
            stats: *scheme.stats(),
            endurance_total: device.endurance_map().total(),
            wear: device.wear_table().to_vec(),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SchemeKind;
    use twl_attacks::AttackKind;

    fn config(pages: u64, banks: u32) -> PcmConfig {
        let mut pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(2_000)
            .seed(42)
            .build()
            .expect("valid config");
        pcm.banks = banks;
        pcm
    }

    #[test]
    fn bank_seeds_are_distinct_and_pure() {
        let seeds: Vec<u64> = (0..8).map(|b| bank_seed(42, b)).collect();
        let again: Vec<u64> = (0..8).map(|b| bank_seed(42, b)).collect();
        assert_eq!(seeds, again);
        for (i, a) in seeds.iter().enumerate() {
            for b in &seeds[i + 1..] {
                assert_ne!(a, b, "bank seeds must differ");
            }
        }
    }

    #[test]
    fn merged_totals_are_bank_sums() {
        let pcm = config(64, 4);
        let limits = SimLimits::default();
        let banked =
            run_lifetime_banked_on(1, &pcm, SchemeKind::TwlSwp, AttackKind::Repeat, &limits);
        assert_eq!(banked.banks.len(), 4);
        assert_eq!(
            banked.merged.logical_writes,
            banked.banks.iter().map(|b| b.logical_writes).sum::<u64>()
        );
        assert_eq!(
            banked.merged.device_writes,
            banked.banks.iter().map(|b| b.device_writes).sum::<u64>()
        );
        assert!(banked.merged.completed);
        assert!(banked.merged.failed_page.is_some());
        assert!(banked.merged.capacity_fraction > 0.0);
        assert!((0.0..=1.0).contains(&banked.merged.wear_gini));
    }

    #[test]
    #[should_panic(expected = "divisible by banks")]
    fn lopsided_split_is_rejected() {
        let pcm = config(64, 3);
        let limits = SimLimits::default();
        let _ = run_lifetime_banked_on(1, &pcm, SchemeKind::Nowl, AttackKind::Repeat, &limits);
    }
}
