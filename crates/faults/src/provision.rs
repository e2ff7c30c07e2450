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
/// The fault model is drawn once per configuration, not once per
/// domain: while any domain provisioned from the same device fields
/// (seed, pages, mean endurance, sigma — spares included), fault seed,
/// group count and group sigma is alive, a new domain's engine shares
/// its thresholds, as the device shares its endurance map (see
/// `EnduranceMap::generate`). A matrix's cells, which provision equal
/// domains side by side, thus draw the model once. Nothing is kept once
/// the last domain drops.
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
    let model = CellFaultModel::generate_shared(&total_cfg, device.endurance_map(), fault_cfg);
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
    use crate::model::{is_interned, shares_thresholds};
    use crate::CorrectionPolicy;
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

    /// A device config with a mean endurance no other test draws, so no
    /// other test can hold (or drop) these models.
    fn private_cfg(pages: u64, seed: u64) -> PcmConfig {
        PcmConfig::scaled(pages, 6_543_210, seed)
    }

    #[test]
    fn equal_configs_share_one_fault_model() {
        let data_cfg = private_cfg(32, 1);
        let fault_cfg = FaultConfig::default();
        let a = provision(&data_cfg, &fault_cfg).unwrap();
        let b = provision(&data_cfg, &fault_cfg).unwrap();
        assert!(shares_thresholds(a.engine.model(), b.engine.model()));
        // The correction policy does not shape the thresholds.
        let ecp = FaultConfig {
            policy: CorrectionPolicy::Ecp { entries: 2 },
            ..fault_cfg
        };
        let c = provision(&data_cfg, &ecp).unwrap();
        assert!(shares_thresholds(a.engine.model(), c.engine.model()));
        // Shared or drawn, the model is the one a plain draw gives.
        let plain = CellFaultModel::generate(a.device.endurance_map(), &fault_cfg);
        assert_eq!(*b.engine.model(), plain);
        assert!(!shares_thresholds(&plain, a.engine.model()));
    }

    #[test]
    fn any_keyed_field_change_draws_its_own_model() {
        let data_cfg = private_cfg(32, 2);
        let fault_cfg = FaultConfig::default();
        let base = provision(&data_cfg, &fault_cfg).unwrap();
        let pcm_variants = [
            private_cfg(32, 3),
            private_cfg(64, 2),
            PcmConfig::scaled(32, 6_543_211, 2),
            PcmConfig {
                sigma_fraction: data_cfg.sigma_fraction * 2.0,
                ..data_cfg.clone()
            },
        ];
        let fault_variants = [
            FaultConfig {
                seed: fault_cfg.seed + 1,
                ..fault_cfg
            },
            FaultConfig {
                cell_groups_per_page: fault_cfg.cell_groups_per_page / 2,
                ..fault_cfg
            },
            FaultConfig {
                group_sigma_fraction: fault_cfg.group_sigma_fraction * 2.0,
                ..fault_cfg
            },
            // More spares: the device, hence the key, has more pages.
            FaultConfig {
                spare_fraction: fault_cfg.spare_fraction * 4.0,
                ..fault_cfg
            },
        ];
        let others = pcm_variants
            .iter()
            .map(|pcm| provision(pcm, &fault_cfg).unwrap())
            .chain(
                fault_variants
                    .iter()
                    .map(|fault| provision(&data_cfg, fault).unwrap()),
            );
        for (i, other) in others.enumerate() {
            assert!(
                !shares_thresholds(base.engine.model(), other.engine.model()),
                "variant {i} shared the base model"
            );
        }
    }

    #[test]
    fn no_model_outlives_its_domains() {
        let data_cfg = private_cfg(16, 4);
        let fault_cfg = FaultConfig::default();
        let total_cfg = PcmConfig {
            pages: 16 + spare_pages_for(16, fault_cfg.spare_fraction),
            ..data_cfg.clone()
        };
        let domain = provision(&data_cfg, &fault_cfg).unwrap();
        let first = domain.engine.model().clone();
        drop(domain);
        // The clone still holds the thresholds: a new domain shares them.
        let again = provision(&data_cfg, &fault_cfg).unwrap();
        assert!(shares_thresholds(&first, again.engine.model()));
        drop((first, again));
        // Every holder is gone; the next insert sweeps the dead entry.
        for seed in 5..9 {
            drop(provision(&private_cfg(16, seed), &fault_cfg).unwrap());
        }
        let live = provision(&private_cfg(16, 9), &fault_cfg).unwrap();
        assert!(!is_interned(&total_cfg, &fault_cfg));
        assert!((5..9).all(|seed| !is_interned(
            &PcmConfig {
                pages: total_cfg.pages,
                ..private_cfg(16, seed)
            },
            &fault_cfg
        )));
        drop(live);
        // A redraw after the sweep equals the freed model.
        let redrawn = provision(&data_cfg, &fault_cfg).unwrap();
        let plain = CellFaultModel::generate(redrawn.device.endurance_map(), &fault_cfg);
        assert_eq!(*redrawn.engine.model(), plain);
    }
}
