//! Lifetime simulation results.

use twl_pcm::PhysicalPageAddr;

/// Result of one lifetime run.
///
/// # Examples
///
/// ```
/// use twl_lifetime::LifetimeReport;
///
/// fn print(report: &LifetimeReport) {
///     println!("{:.2} years ({:.1}% of ideal)", report.years,
///              100.0 * report.capacity_fraction);
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeReport {
    /// Scheme under test.
    pub scheme: String,
    /// Workload or attack that drove the run.
    pub workload: String,
    /// Logical writes serviced before the first page failure.
    pub logical_writes: u64,
    /// Device page writes absorbed (includes migration overhead).
    pub device_writes: u64,
    /// The page whose wear-out ended the run, if the run completed.
    pub failed_page: Option<PhysicalPageAddr>,
    /// Whether a page actually wore out (`false` = the write budget ran
    /// out first and the numbers are a lower bound).
    pub completed: bool,
    /// `device_writes / total device endurance` — the scale-invariant
    /// lifetime measure (1.0 = ideal).
    pub capacity_fraction: f64,
    /// Calibrated lifetime in years on the nominal device.
    pub years: f64,
    /// Swap operations per logical write (Fig. 7a's metric).
    pub swap_per_write: f64,
    /// Overhead device writes per logical write.
    pub extra_write_ratio: f64,
    /// Gini coefficient of final wear (0 = perfectly level).
    pub wear_gini: f64,
}

impl LifetimeReport {
    /// Lifetime normalized to ideal (Fig. 8's y-axis).
    #[must_use]
    pub fn normalized_lifetime(&self) -> f64 {
        self.capacity_fraction
    }
}

/// Why a degradation run stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationEnd {
    /// A retirement found the spare pool empty — true end of life.
    SpareExhausted,
    /// The logical-write budget ran out first; every metric is a lower
    /// bound.
    WriteBudget,
}

/// One point on the degradation curve, captured at each page retirement
/// and at the end of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPoint {
    /// Logical writes serviced so far.
    pub logical_writes: u64,
    /// Device writes absorbed so far.
    pub device_writes: u64,
    /// Cell-group faults corrected so far.
    pub corrected_groups: u64,
    /// Physical pages retired so far.
    pub retired_pages: u64,
    /// Spare pages still available.
    pub spares_remaining: u64,
}

/// Result of one graceful-degradation run: a curve instead of a single
/// failure point.
///
/// Where [`LifetimeReport`] ends at the first worn-out page, this report
/// follows the device through cell faults, ECP-style correction, and
/// page retirements all the way to spare-pool exhaustion. Capacity here
/// is *physical*: the fraction of frames not yet retired (slots stay
/// fully serviceable until spares run out, so logical capacity is a step
/// function that drops to zero exactly at [`DegradationEnd::SpareExhausted`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// Scheme under test.
    pub scheme: String,
    /// Workload or attack that drove the run.
    pub workload: String,
    /// Pages in the scheme-addressable data region.
    pub data_pages: u64,
    /// Pages provisioned as retirement spares.
    pub spare_pages: u64,
    /// Logical writes serviced over the whole run.
    pub logical_writes: u64,
    /// Device writes absorbed over the whole run.
    pub device_writes: u64,
    /// Cell-group faults corrected over the whole run.
    pub corrected_groups: u64,
    /// Physical pages retired over the whole run.
    pub retired_pages: u64,
    /// Device writes when the first cell fault was corrected.
    pub first_fault_device_writes: Option<u64>,
    /// Device writes when the first page was retired.
    pub first_retirement_device_writes: Option<u64>,
    /// Device writes when the spare pool ran dry.
    pub spare_exhausted_device_writes: Option<u64>,
    /// Why the run stopped.
    pub end: DegradationEnd,
    /// `device_writes / total device endurance` — comparable with
    /// [`LifetimeReport::capacity_fraction`], but measured to spare
    /// exhaustion rather than first wear-out.
    pub capacity_fraction: f64,
    /// Calibrated lifetime in years to the end of the run.
    pub years: f64,
    /// Gini coefficient of final wear across all physical pages.
    pub wear_gini: f64,
    /// The degradation curve: one point per retirement, plus a final
    /// point at the end of the run.
    pub curve: Vec<DegradationPoint>,
}

impl DegradationReport {
    /// Fraction of physical frames still alive at the end of the run.
    #[must_use]
    pub fn surviving_capacity(&self) -> f64 {
        let total = self.data_pages + self.spare_pages;
        1.0 - self.retired_pages as f64 / total as f64
    }

    /// Device writes at which physical capacity loss first reached
    /// `fraction` (e.g. `0.01` = 1 % of frames retired), or `None` if
    /// the run never degraded that far.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < fraction <= 1.0`.
    #[must_use]
    pub fn device_writes_to_capacity_loss(&self, fraction: f64) -> Option<u64> {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "capacity-loss fraction must be in (0, 1]"
        );
        let total = self.data_pages + self.spare_pages;
        let needed = (fraction * total as f64).ceil() as u64;
        self.curve
            .iter()
            .find(|p| p.retired_pages >= needed)
            .map(|p| p.device_writes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_degradation() -> DegradationReport {
        DegradationReport {
            scheme: "TWL_swp".into(),
            workload: "repeat".into(),
            data_pages: 96,
            spare_pages: 4,
            logical_writes: 10_000,
            device_writes: 10_400,
            corrected_groups: 25,
            retired_pages: 4,
            first_fault_device_writes: Some(7_000),
            first_retirement_device_writes: Some(8_000),
            spare_exhausted_device_writes: Some(10_400),
            end: DegradationEnd::SpareExhausted,
            capacity_fraction: 0.9,
            years: 5.0,
            wear_gini: 0.05,
            curve: vec![
                DegradationPoint {
                    logical_writes: 7_900,
                    device_writes: 8_000,
                    corrected_groups: 10,
                    retired_pages: 1,
                    spares_remaining: 3,
                },
                DegradationPoint {
                    logical_writes: 10_000,
                    device_writes: 10_400,
                    corrected_groups: 25,
                    retired_pages: 4,
                    spares_remaining: 0,
                },
            ],
        }
    }

    #[test]
    fn degradation_capacity_queries() {
        let report = sample_degradation();
        assert!((report.surviving_capacity() - 0.96).abs() < 1e-12);
        // 1% of 100 pages = 1 retired page: first curve point.
        assert_eq!(report.device_writes_to_capacity_loss(0.01), Some(8_000));
        // 4% needs all four retirements.
        assert_eq!(report.device_writes_to_capacity_loss(0.04), Some(10_400));
        // Never lost half the device.
        assert_eq!(report.device_writes_to_capacity_loss(0.5), None);
    }

    #[test]
    fn normalized_lifetime_is_capacity_fraction() {
        let report = LifetimeReport {
            scheme: "TWL_swp".into(),
            workload: "scan".into(),
            logical_writes: 100,
            device_writes: 110,
            failed_page: Some(PhysicalPageAddr::new(3)),
            completed: true,
            capacity_fraction: 0.62,
            years: 4.1,
            swap_per_write: 0.015,
            extra_write_ratio: 0.022,
            wear_gini: 0.1,
        };
        assert_eq!(report.normalized_lifetime(), 0.62);
    }
}
