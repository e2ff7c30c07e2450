//! Fault-model and correction-policy configuration.

/// How many stuck-at cell-group faults a page can absorb before it is
/// declared uncorrectable.
///
/// Both policies are modeled at the granularity the fault model tracks —
/// cell *groups* — so a policy's strength is simply its fault budget:
///
/// * [`CorrectionPolicy::Ecp`] models Error-Correcting Pointers
///   (Schechter et al., ISCA'10): `entries` pointer/replacement-cell
///   pairs per page, each repairing one failed group. ECP-6 is the
///   canonical design point (~12 % overhead at 64-byte lines).
/// * [`CorrectionPolicy::Safer`] models SAFER (Seong et al.,
///   MICRO'10)-style dynamic partitioning: the page is repartitioned so
///   each partition holds at most one failed group, correctable via
///   inversion coding. We adopt the simplification that a SAFER-`k`
///   page survives up to `groups` failed groups; the dynamic
///   repartitioning itself is not simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CorrectionPolicy {
    /// ECP-style: one correction entry per failed cell group.
    Ecp {
        /// Correction entries per page.
        entries: u32,
    },
    /// SAFER-style: survives up to `groups` failed groups per page.
    Safer {
        /// Maximum failed groups a page survives.
        groups: u32,
    },
}

impl CorrectionPolicy {
    /// The number of failed groups a page absorbs before becoming
    /// uncorrectable.
    #[must_use]
    pub fn budget(self) -> u32 {
        match self {
            Self::Ecp { entries } => entries,
            Self::Safer { groups } => groups,
        }
    }

    /// Short label for tables and traces (`"ECP6"`, `"SAFER8"`).
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Ecp { entries } => format!("ECP{entries}"),
            Self::Safer { groups } => format!("SAFER{groups}"),
        }
    }
}

impl Default for CorrectionPolicy {
    /// ECP-6, the design point of the original ECP paper.
    fn default() -> Self {
        Self::Ecp { entries: 6 }
    }
}

/// Configuration of the cell-level fault model and degradation machinery.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Cell groups tracked per page. Each group fails independently once
    /// its own endurance threshold is crossed.
    pub cell_groups_per_page: u32,
    /// Per-group endurance spread as a fraction of the page endurance:
    /// group thresholds are Gaussian(E_page, `group_sigma_fraction` ×
    /// E_page). Intra-page variation is tighter than inter-page
    /// variation (cells on one page share locality), hence the default
    /// well below the device-level 0.11.
    pub group_sigma_fraction: f64,
    /// The correction policy absorbing group faults.
    pub policy: CorrectionPolicy,
    /// Spare pages provisioned per data page (e.g. 0.05 = 5 % spare
    /// capacity). Rounded up to a whole, even page count.
    pub spare_fraction: f64,
    /// Seed for the per-group threshold draws, independent of the
    /// device's endurance-map seed.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            cell_groups_per_page: 64,
            group_sigma_fraction: 0.05,
            policy: CorrectionPolicy::default(),
            spare_fraction: 0.05,
            seed: 0xFA17,
        }
    }
}

impl FaultConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.cell_groups_per_page == 0 {
            return Err("cell_groups_per_page must be positive".into());
        }
        if !(self.group_sigma_fraction.is_finite() && self.group_sigma_fraction >= 0.0) {
            return Err("group_sigma_fraction must be finite and non-negative".into());
        }
        if !(self.spare_fraction.is_finite() && self.spare_fraction > 0.0) {
            return Err("spare_fraction must be finite and positive".into());
        }
        if self.policy.budget() >= self.cell_groups_per_page {
            return Err(format!(
                "correction budget {} must be below cell_groups_per_page {}",
                self.policy.budget(),
                self.cell_groups_per_page
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert_eq!(FaultConfig::default().validate(), Ok(()));
        assert_eq!(CorrectionPolicy::default().budget(), 6);
    }

    #[test]
    fn labels_and_budgets() {
        assert_eq!(CorrectionPolicy::Ecp { entries: 6 }.label(), "ECP6");
        assert_eq!(CorrectionPolicy::Safer { groups: 8 }.label(), "SAFER8");
        assert_eq!(CorrectionPolicy::Safer { groups: 8 }.budget(), 8);
    }

    #[test]
    fn invalid_configs_are_named() {
        let mut c = FaultConfig {
            cell_groups_per_page: 0,
            ..FaultConfig::default()
        };
        assert!(c.validate().unwrap_err().contains("cell_groups_per_page"));
        c.cell_groups_per_page = 4;
        c.policy = CorrectionPolicy::Ecp { entries: 4 };
        assert!(c.validate().unwrap_err().contains("budget"));
        c.policy = CorrectionPolicy::Ecp { entries: 1 };
        c.spare_fraction = 0.0;
        assert!(c.validate().unwrap_err().contains("spare_fraction"));
    }
}
