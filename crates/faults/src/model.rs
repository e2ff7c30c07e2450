//! The cell-level fault model: per-group wear-out thresholds.

use crate::FaultConfig;
use std::convert::Infallible;
use std::sync::Arc;
use twl_pcm::{EnduranceMap, InternTable, PcmConfig, PhysicalPageAddr};
use twl_rng::{GaussianSampler, SplitMix64};

/// The fields a provisioned device's thresholds depend on: its
/// [`PcmConfig::endurance_key`], then the fault seed, the group count and
/// `group_sigma_fraction.to_bits()`.
type ModelKey = ((u64, u64, u64, u64), u64, u32, u64);

/// Drawn thresholds by the fields they were drawn from.
static LIVE_MODELS: InternTable<ModelKey, Vec<u64>> = InternTable::new();

fn model_key(device_cfg: &PcmConfig, config: &FaultConfig) -> ModelKey {
    (
        device_cfg.endurance_key(),
        config.seed,
        config.cell_groups_per_page,
        config.group_sigma_fraction.to_bits(),
    )
}

/// Precomputed per-group wear-out thresholds for every physical page.
///
/// A page with tested endurance `E` gets `cell_groups_per_page`
/// independent group thresholds drawn from Gaussian(`E`,
/// `group_sigma_fraction` × `E`), clipped below at 1 and sorted
/// ascending. Once the page's wear crosses a group's threshold, that
/// group has a permanent stuck-at fault; the number of faulty groups at
/// any wear level is a simple partition point in the sorted row.
///
/// The draws are keyed on `(config.seed, page index)` only, so a model
/// regenerated with the same seed over the same endurance map is
/// bit-identical regardless of visit order — the determinism contract
/// the proptests pin down.
///
/// A model is immutable, so clones share one threshold allocation, and
/// [`crate::provision`] hands every domain drawn from the same configs
/// the same thresholds while any of them is alive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFaultModel {
    /// The rows, page after page. The values sit in their own
    /// allocation, not inline in the `Arc`, so the intern table's `Weak`
    /// pins only the small `Arc` header once the last holder drops.
    thresholds: Arc<Vec<u64>>,
    groups: u32,
}

impl CellFaultModel {
    /// Draws thresholds for every page in `endurance`.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`FaultConfig::validate`]).
    #[must_use]
    pub fn generate(endurance: &EnduranceMap, config: &FaultConfig) -> Self {
        config.validate().expect("invalid fault config");
        let groups = config.cell_groups_per_page as usize;
        let mut thresholds = Vec::with_capacity(endurance.len() * groups);
        for (page, e) in endurance.iter() {
            // A fixed odd multiplier decorrelates per-page streams while
            // keeping the draw independent of visit order.
            let mut rng = SplitMix64::seed_from(
                config
                    .seed
                    .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(page.index() + 1)),
            );
            let sampler = GaussianSampler::new(e as f64, config.group_sigma_fraction * e as f64);
            let row_start = thresholds.len();
            for _ in 0..groups {
                thresholds.push(sampler.sample_clipped(&mut rng, 1.0).round() as u64);
            }
            thresholds[row_start..].sort_unstable();
        }
        Self {
            thresholds: Arc::new(thresholds),
            groups: config.cell_groups_per_page,
        }
    }

    /// [`CellFaultModel::generate`] for a device built from `device_cfg`;
    /// `endurance` must be the map `device_cfg` draws. While any model drawn
    /// from the same device fields, fault seed, group count and group
    /// sigma is alive, this returns one sharing its thresholds instead
    /// of drawing again — a 256-page domain's 64-group draw is about
    /// 0.6 ms, repeated by every cell of a matrix. Once every holder has
    /// dropped, the thresholds are freed and the next call draws afresh,
    /// to an equal model. Two threads that miss at the same moment both
    /// draw (no lock is held while drawing); the second to finish adopts
    /// the first's thresholds.
    ///
    /// # Panics
    ///
    /// Panics if `config` is invalid (see [`FaultConfig::validate`]).
    #[must_use]
    pub(crate) fn generate_shared(
        device_cfg: &PcmConfig,
        endurance: &EnduranceMap,
        config: &FaultConfig,
    ) -> Self {
        let Ok(thresholds) = LIVE_MODELS.get_or_try_make(model_key(device_cfg, config), || {
            Ok::<_, Infallible>(Self::generate(endurance, config).thresholds)
        });
        Self {
            thresholds,
            groups: config.cell_groups_per_page,
        }
    }

    /// Cell groups tracked per page.
    #[must_use]
    pub fn groups_per_page(&self) -> u32 {
        self.groups
    }

    /// Number of pages covered.
    #[must_use]
    pub fn page_count(&self) -> usize {
        self.thresholds.len() / self.groups as usize
    }

    /// The sorted group thresholds of one page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn row(&self, page: PhysicalPageAddr) -> &[u64] {
        let g = self.groups as usize;
        let start = page.as_usize() * g;
        &self.thresholds[start..start + g]
    }

    /// Number of groups on `page` that have failed at wear level `wear`.
    ///
    /// A group fails once wear *reaches* its threshold.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn faults_at(&self, page: PhysicalPageAddr, wear: u64) -> u32 {
        self.row(page).partition_point(|&t| t <= wear) as u32
    }

    /// Wear level at which the first group on `page` fails.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn first_fault_wear(&self, page: PhysicalPageAddr) -> u64 {
        self.row(page)[0]
    }

    /// Wear level at which `page` exceeds a correction budget of
    /// `budget` groups (i.e. the `budget + 1`-th group failure), or
    /// `None` if the page never accumulates that many faults.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn uncorrectable_wear(&self, page: PhysicalPageAddr, budget: u32) -> Option<u64> {
        self.row(page).get(budget as usize).copied()
    }
}

/// Whether two models read the same threshold allocation.
#[cfg(test)]
pub(crate) fn shares_thresholds(a: &CellFaultModel, b: &CellFaultModel) -> bool {
    Arc::ptr_eq(&a.thresholds, &b.thresholds)
}

/// Whether the intern table holds an entry, live or dead, for the
/// thresholds of a device built from `device_cfg` under `config`.
#[cfg(test)]
pub(crate) fn is_interned(device_cfg: &PcmConfig, config: &FaultConfig) -> bool {
    LIVE_MODELS.contains(&model_key(device_cfg, config))
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::{EnduranceMap, PcmConfig};

    fn model(pages: u64, seed: u64) -> (EnduranceMap, CellFaultModel) {
        let map = EnduranceMap::generate(&PcmConfig::scaled(pages, 100_000, 1)).unwrap();
        let cfg = FaultConfig {
            seed,
            ..FaultConfig::default()
        };
        let m = CellFaultModel::generate(&map, &cfg);
        (map, m)
    }

    #[test]
    fn rows_are_sorted_and_positive() {
        let (_, m) = model(64, 3);
        for p in 0..64 {
            let row = m.row(PhysicalPageAddr::new(p));
            assert_eq!(row.len(), 64);
            assert!(row[0] >= 1);
            assert!(row.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn faults_accumulate_with_wear() {
        let (_, m) = model(8, 5);
        let p = PhysicalPageAddr::new(2);
        assert_eq!(m.faults_at(p, 0), 0);
        let first = m.first_fault_wear(p);
        assert_eq!(m.faults_at(p, first - 1), 0);
        assert!(m.faults_at(p, first) >= 1);
        assert_eq!(m.faults_at(p, u64::MAX), 64);
        let unc = m.uncorrectable_wear(p, 6).unwrap();
        assert_eq!(m.faults_at(p, unc - 1).min(7), m.faults_at(p, unc - 1));
        assert!(m.faults_at(p, unc) >= 7);
        assert_eq!(m.uncorrectable_wear(p, 64), None);
    }

    #[test]
    fn thresholds_track_page_endurance() {
        let (map, m) = model(256, 9);
        for (p, e) in map.iter() {
            let row = m.row(p);
            let mean = row.iter().sum::<u64>() as f64 / row.len() as f64;
            // 64 draws at sigma 0.05·E: the sample mean sits well
            // within ±5 % of E.
            assert!(
                (mean / e as f64 - 1.0).abs() < 0.05,
                "page {p}: mean {mean} vs endurance {e}"
            );
        }
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let (_, a) = model(64, 7);
        let (_, b) = model(64, 7);
        let (_, c) = model(64, 8);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
