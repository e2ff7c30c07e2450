//! Data-comparison-write (DCW) analysis model.
//!
//! §4.4 of the paper assumes *"data comparison write is employed
//! \[16\]"* (Zhou et al., ISCA 2009): before writing a line, PCM reads
//! the old contents and programs only the cells that actually change.
//! At the page-wear accounting granularity this repository uses, DCW is
//! a constant scale factor on wear per page write — it cancels out of
//! every normalized result and is folded into the years calibration
//! (`DESIGN.md` §3). This module makes the factor explicit and
//! computable, so absolute-wear analyses can reason about it.
//!
//! The model: a page write changes each line independently with
//! probability `dirty_line_fraction`, and within a dirty line each bit
//! flips with probability `bit_flip_fraction`. Zhou et al. report ~15 %
//! of bits changing for typical workloads; a wear-out attacker writes
//! adversarial data that flips everything.

/// Fraction of bits a typical (benign) page write flips, per the DCW
/// paper's characterization.
pub const BENIGN_BIT_FLIP_FRACTION: f64 = 0.15;

/// The DCW wear model.
///
/// # Examples
///
/// ```
/// use twl_pcm::DcwModel;
///
/// let benign = DcwModel::benign();
/// // A benign page write wears cells at ~15% of a full write.
/// assert!((benign.cell_wear_fraction() - 0.15).abs() < 1e-9);
/// // An attacker gets no discount.
/// assert_eq!(DcwModel::adversarial().cell_wear_fraction(), 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DcwModel {
    /// Probability a line of the page is touched at all by a write.
    pub dirty_line_fraction: f64,
    /// Probability a bit within a touched line flips.
    pub bit_flip_fraction: f64,
}

impl DcwModel {
    /// A model with explicit parameters.
    ///
    /// # Panics
    ///
    /// Panics if either fraction is outside `[0, 1]`.
    #[must_use]
    pub fn new(dirty_line_fraction: f64, bit_flip_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&dirty_line_fraction) && (0.0..=1.0).contains(&bit_flip_fraction),
            "fractions must be probabilities"
        );
        Self {
            dirty_line_fraction,
            bit_flip_fraction,
        }
    }

    /// Typical benign traffic: every line of the written page touched,
    /// ~15 % of bits flipped (Zhou+ ISCA'09).
    #[must_use]
    pub fn benign() -> Self {
        Self::new(1.0, BENIGN_BIT_FLIP_FRACTION)
    }

    /// A wear-out attacker alternating inverted data: every cell flips
    /// on every write — DCW gives no protection.
    #[must_use]
    pub fn adversarial() -> Self {
        Self::new(1.0, 1.0)
    }

    /// Expected fraction of the page's cells worn per page write
    /// (1.0 = a full non-DCW write).
    #[must_use]
    pub fn cell_wear_fraction(&self) -> f64 {
        self.dirty_line_fraction * self.bit_flip_fraction
    }

    /// Expected lifetime multiplier DCW buys over non-DCW writes, under
    /// the (optimistic) assumption that flipped bits are uniformly
    /// spread so cell-level wear stays even.
    ///
    /// # Panics
    ///
    /// Panics if the model never wears anything (both fractions zero).
    #[must_use]
    pub fn lifetime_multiplier(&self) -> f64 {
        let f = self.cell_wear_fraction();
        assert!(
            f > 0.0,
            "a write that changes nothing has no lifetime meaning"
        );
        1.0 / f
    }

    /// Wear-out-attack advantage: the ratio between an adversary's and
    /// this model's per-write wear. The gap is one more reason the
    /// paper's attacker is so effective: crafted data wears cells
    /// ~6.7x faster than benign traffic even before any remapping
    /// games.
    #[must_use]
    pub fn adversarial_advantage(&self) -> f64 {
        Self::adversarial().cell_wear_fraction() / self.cell_wear_fraction()
    }
}

impl Default for DcwModel {
    fn default() -> Self {
        Self::benign()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benign_matches_dcw_paper() {
        let m = DcwModel::benign();
        assert!((m.lifetime_multiplier() - 1.0 / 0.15).abs() < 1e-9);
    }

    #[test]
    fn adversary_gets_no_discount() {
        let m = DcwModel::adversarial();
        assert_eq!(m.lifetime_multiplier(), 1.0);
        assert_eq!(m.adversarial_advantage(), 1.0);
    }

    #[test]
    fn benign_adversary_gap_is_large() {
        let gap = DcwModel::benign().adversarial_advantage();
        assert!((gap - 1.0 / 0.15).abs() < 1e-9, "gap = {gap}");
    }

    #[test]
    fn partial_dirtiness_compounds() {
        let m = DcwModel::new(0.5, 0.2);
        assert!((m.cell_wear_fraction() - 0.1).abs() < 1e-12);
        assert!((m.lifetime_multiplier() - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "fractions must be probabilities")]
    fn out_of_range_rejected() {
        let _ = DcwModel::new(1.5, 0.1);
    }

    #[test]
    #[should_panic(expected = "no lifetime meaning")]
    fn zero_wear_lifetime_panics() {
        let _ = DcwModel::new(0.0, 0.0).lifetime_multiplier();
    }
}
