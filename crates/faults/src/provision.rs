//! Provisioning: build a spare-augmented device plus its fault engine.

use crate::{CellFaultModel, FaultConfig, FaultEngine};
use twl_pcm::{PcmConfig, PcmDevice, PcmError, PhysicalPageAddr, WearPolicy};

/// A device provisioned for graceful degradation, paired with the fault
/// engine that keeps it serviceable.
///
/// The device holds `data_pages + spare_pages` physical pages; slots
/// `0..data_pages` are the data region wear-leveling schemes address,
/// the tail is the spare pool. Build schemes over the data region only
/// (its endurance map is
/// `device.endurance_map().truncated(data_pages)`).
#[derive(Debug)]
pub struct FaultDomain {
    /// The spare-augmented device: unlimited wear policy, write log
    /// enabled, spare pool installed.
    pub device: PcmDevice,
    /// The fault engine covering every physical page (spares included).
    pub engine: FaultEngine,
    /// Pages in the scheme-addressable data region.
    pub data_pages: u64,
    /// Pages reserved as retirement spares.
    pub spare_pages: u64,
}

/// Number of spare pages a `spare_fraction` buys for `data_pages`,
/// rounded up to a whole even count (the device page total must stay
/// even) and at least 2.
#[must_use]
pub fn spare_pages_for(data_pages: u64, spare_fraction: f64) -> u64 {
    let raw = (data_pages as f64 * spare_fraction).ceil() as u64;
    raw.max(2).next_multiple_of(2)
}

/// Builds a [`FaultDomain`]: a device with `data_cfg.pages` data pages
/// plus a spare tail sized by `fault_cfg.spare_fraction`, running under
/// [`WearPolicy::Unlimited`] with its write log feeding a
/// [`FaultEngine`].
///
/// Because the endurance map draws pages sequentially from the seed, the
/// data region's endurance values are identical to those of a plain
/// `data_cfg` device — adding spares does not perturb the experiment's
/// process variation.
///
/// # Errors
///
/// Returns [`PcmError::InvalidConfig`] if either configuration is
/// invalid.
pub fn provision(data_cfg: &PcmConfig, fault_cfg: &FaultConfig) -> Result<FaultDomain, PcmError> {
    fault_cfg.validate().map_err(PcmError::InvalidConfig)?;
    let data_pages = data_cfg.pages;
    let spare_pages = spare_pages_for(data_pages, fault_cfg.spare_fraction);
    let mut total_cfg = data_cfg.clone();
    total_cfg.pages = data_pages + spare_pages;
    let mut device = PcmDevice::new(&total_cfg);
    device.set_wear_policy(WearPolicy::Unlimited);
    device.enable_write_log();
    device.set_spare_pool(
        (data_pages..data_pages + spare_pages)
            .map(PhysicalPageAddr::new)
            .collect(),
    );
    let model = CellFaultModel::generate(device.endurance_map(), fault_cfg);
    let engine = FaultEngine::new(model, fault_cfg.policy);
    Ok(FaultDomain {
        device,
        engine,
        data_pages,
        spare_pages,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::EnduranceMap;

    #[test]
    fn spare_sizing_is_even_and_floored() {
        assert_eq!(spare_pages_for(100, 0.05), 6, "ceil(5) bumped to even");
        assert_eq!(spare_pages_for(100, 0.04), 4);
        assert_eq!(spare_pages_for(4, 0.01), 2, "floor of 2");
    }

    #[test]
    fn provision_preserves_data_region_endurance() {
        let data_cfg = PcmConfig::scaled(64, 10_000, 5);
        let domain = provision(&data_cfg, &FaultConfig::default()).unwrap();
        assert_eq!(domain.data_pages, 64);
        assert_eq!(domain.spare_pages, 4);
        assert_eq!(domain.device.page_count(), 68);
        assert_eq!(domain.device.spares_remaining(), 4);
        let plain = EnduranceMap::generate(&data_cfg).unwrap();
        assert_eq!(domain.device.endurance_map().truncated(64), plain);
        assert_eq!(domain.engine.model().page_count(), 68);
    }

    #[test]
    fn invalid_fault_config_is_rejected() {
        let data_cfg = PcmConfig::scaled(64, 10_000, 5);
        let bad = FaultConfig {
            spare_fraction: 0.0,
            ..FaultConfig::default()
        };
        assert!(matches!(
            provision(&data_cfg, &bad),
            Err(PcmError::InvalidConfig(_))
        ));
    }
}
