//! The cell-level fault model: per-group wear-out thresholds.

use crate::FaultConfig;
use twl_pcm::{EnduranceMap, PhysicalPageAddr};
use twl_rng::{GaussianSampler, SplitMix64};

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
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellFaultModel {
    thresholds: Vec<u64>,
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
