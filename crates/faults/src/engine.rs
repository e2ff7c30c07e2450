//! The fault engine: drains device writes, advances cell faults,
//! corrects within the policy budget, and retires uncorrectable pages.

use crate::{CellFaultModel, CorrectionPolicy};
use twl_pcm::{table, PcmDevice, PcmError, PhysicalPageAddr};
use twl_telemetry::{counter, gauge};

/// One page retirement performed during [`FaultEngine::absorb`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retirement {
    /// The slot whose backing page went uncorrectable.
    pub slot: PhysicalPageAddr,
    /// The physical page retired.
    pub dead_page: PhysicalPageAddr,
    /// The spare physical page now backing the slot.
    pub spare: PhysicalPageAddr,
}

/// What one [`FaultEngine::absorb`] call did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AbsorbReport {
    /// Cell-group faults newly corrected (within budget) this call.
    pub corrected_now: u64,
    /// Pages retired this call, in order.
    pub retirements: Vec<Retirement>,
}

impl AbsorbReport {
    /// Whether this call observed nothing new.
    #[must_use]
    pub fn is_quiet(&self) -> bool {
        self.corrected_now == 0 && self.retirements.is_empty()
    }
}

/// Tracks cell faults across a device and keeps it serviceable by
/// correcting within the policy budget and retiring pages past it.
///
/// Drive it by enabling the device's write log
/// ([`PcmDevice::enable_write_log`]) and calling
/// [`FaultEngine::absorb`] after every serviced write (or batch): the
/// engine drains the log, advances each touched page's fault count from
/// its wear, and handles budget overflow by retiring the page through
/// [`PcmDevice::retire_page`]. Retirement copy-writes are re-drained in
/// the same call, so a spare that is itself near death cascades
/// correctly.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    model: CellFaultModel,
    policy: CorrectionPolicy,
    budget: u32,
    /// Absorbed (corrected) fault count per physical page.
    faults: Vec<u32>,
    /// Pages declared uncorrectable and retired.
    dead: Vec<bool>,
    corrected_groups: u64,
    uncorrectable_pages: u64,
    scratch: Vec<PhysicalPageAddr>,
}

impl FaultEngine {
    /// Creates an engine over `model` with the given correction policy.
    #[must_use]
    pub fn new(model: CellFaultModel, policy: CorrectionPolicy) -> Self {
        let pages = model.page_count();
        Self {
            model,
            policy,
            budget: policy.budget(),
            faults: table::filled(pages, 0),
            dead: table::filled(pages, false),
            corrected_groups: 0,
            uncorrectable_pages: 0,
            scratch: Vec::new(),
        }
    }

    /// The fault model thresholds the engine runs on.
    #[must_use]
    pub fn model(&self) -> &CellFaultModel {
        &self.model
    }

    /// The active correction policy.
    #[must_use]
    pub fn policy(&self) -> CorrectionPolicy {
        self.policy
    }

    /// Total cell-group faults corrected so far.
    #[must_use]
    pub fn corrected_groups(&self) -> u64 {
        self.corrected_groups
    }

    /// Pages declared uncorrectable so far.
    #[must_use]
    pub fn uncorrectable_pages(&self) -> u64 {
        self.uncorrectable_pages
    }

    /// Currently-corrected fault count on a physical page.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn faults_on(&self, page: PhysicalPageAddr) -> u32 {
        self.faults[page.as_usize()]
    }

    /// Whether a physical page has been declared uncorrectable.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[must_use]
    pub fn is_dead(&self, page: PhysicalPageAddr) -> bool {
        self.dead[page.as_usize()]
    }

    /// The pages the most recent [`FaultEngine::absorb`] drained from
    /// the write log — including retirement copy-writes. May contain
    /// duplicates; empty before the first absorb.
    ///
    /// [`crate::EventHorizon::note`] queues these, so a refresh visits
    /// only the pages whose wear can have moved.
    #[must_use]
    pub fn touched(&self) -> &[PhysicalPageAddr] {
        &self.scratch
    }

    /// Drains the device's write log and advances fault state for every
    /// touched page: newly-failed groups are corrected while the page's
    /// total stays within the policy budget; a page crossing the budget
    /// is retired to a spare. A logged page costs one compare of its
    /// wear against its next unfailed group threshold; the page's full
    /// fault count is looked up only when that group has failed. Also
    /// refreshes the `twl.faults.spares_remaining` gauge and the
    /// corrected / retired / uncorrectable counters.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::SparesExhausted`] when a retirement finds the
    /// spare pool empty — the device's graceful-degradation end of life.
    /// Engine totals ([`FaultEngine::corrected_groups`], …) remain valid
    /// and include everything absorbed before the failure.
    pub fn absorb(&mut self, device: &mut PcmDevice) -> Result<AbsorbReport, PcmError> {
        let mut report = AbsorbReport::default();
        self.scratch.clear();
        device.drain_write_log(&mut self.scratch);
        // Index loop: retirements append their copy-writes to `scratch`.
        let mut i = 0;
        while i < self.scratch.len() {
            let page = self.scratch[i];
            i += 1;
            let p = page.as_usize();
            if self.dead[p] {
                continue;
            }
            let wear = u64::from(device.wear_table()[p]);
            let known = self.faults[p];
            // The row is sorted, so a group past the `known` ones has
            // failed exactly when the next threshold is within reach.
            if self
                .model
                .row(page)
                .get(known as usize)
                .is_none_or(|&next| next > wear)
            {
                continue;
            }
            let now = self.model.faults_at(page, wear);
            if now <= self.budget {
                let newly = u64::from(now - known);
                self.faults[p] = now;
                self.corrected_groups += newly;
                report.corrected_now += newly;
                counter!("twl.faults.corrected").add(newly);
                continue;
            }
            // Budget crossed. Credit the groups correction still
            // absorbed on the way over, then retire the page.
            let newly = u64::from(self.budget.saturating_sub(known));
            self.faults[p] = self.budget;
            self.corrected_groups += newly;
            report.corrected_now += newly;
            counter!("twl.faults.corrected").add(newly);
            self.dead[p] = true;
            self.uncorrectable_pages += 1;
            counter!("twl.faults.uncorrectable").inc();
            let slot = device.owner_of(page);
            let spare = device.retire_page(slot).inspect_err(|_| {
                gauge!("twl.faults.spares_remaining").set(device.spares_remaining() as i64);
            })?;
            counter!("twl.faults.retired").inc();
            gauge!("twl.faults.spares_remaining").set(device.spares_remaining() as i64);
            report.retirements.push(Retirement {
                slot,
                dead_page: page,
                spare,
            });
            // The migration copy-write is in the log now; pick it up in
            // this same pass.
            device.drain_write_log(&mut self.scratch);
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FaultConfig;
    use twl_pcm::{PcmConfig, WearPolicy};

    fn tiny_setup(spares: u64) -> (PcmDevice, FaultEngine) {
        // 4 data pages + spares, uniform endurance 100, 4 groups/page.
        let pages = 4 + spares;
        let config = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100)
            .sigma_fraction(0.0)
            .seed(0)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&config);
        device.set_wear_policy(WearPolicy::Unlimited);
        device.enable_write_log();
        device.set_spare_pool((4..pages).map(PhysicalPageAddr::new).collect());
        let fault_cfg = FaultConfig {
            cell_groups_per_page: 4,
            group_sigma_fraction: 0.2,
            policy: CorrectionPolicy::Ecp { entries: 2 },
            seed: 11,
            ..FaultConfig::default()
        };
        let model = CellFaultModel::generate(device.endurance_map(), &fault_cfg);
        let engine = FaultEngine::new(model, fault_cfg.policy);
        (device, engine)
    }

    #[test]
    fn quiet_absorb_before_any_fault() {
        let (mut device, mut engine) = tiny_setup(2);
        device.write_page(PhysicalPageAddr::new(0)).unwrap();
        let report = engine.absorb(&mut device).unwrap();
        assert!(report.is_quiet());
        assert_eq!(engine.corrected_groups(), 0);
    }

    #[test]
    fn hammering_one_slot_corrects_then_retires() {
        let (mut device, mut engine) = tiny_setup(2);
        let slot = PhysicalPageAddr::new(1);
        let unc = engine.model().uncorrectable_wear(slot, 2).unwrap();
        let mut retired = Vec::new();
        for _ in 0..2 * unc {
            device.write_page(slot).unwrap();
            let report = engine.absorb(&mut device).unwrap();
            retired.extend(report.retirements);
            if !retired.is_empty() {
                break;
            }
        }
        assert_eq!(retired.len(), 1, "slot's page retires past the budget");
        assert_eq!(retired[0].slot, slot);
        assert_eq!(retired[0].dead_page, slot, "identity map before remap");
        assert!(engine.is_dead(slot));
        assert!(device.is_retired(slot));
        assert_eq!(device.resolve(slot), retired[0].spare);
        // Correction absorbed exactly the budget on the dead page.
        assert_eq!(engine.faults_on(slot), 2);
        assert!(engine.corrected_groups() >= 2);
        assert_eq!(engine.uncorrectable_pages(), 1);
    }

    #[test]
    fn spare_exhaustion_propagates() {
        let (mut device, mut engine) = tiny_setup(2);
        let slot = PhysicalPageAddr::new(0);
        // Hammer one slot through its original page and both spares.
        let result: Result<(), PcmError> = loop {
            if let Err(e) = device.write_page(slot) {
                break Err(e);
            }
            match engine.absorb(&mut device) {
                Ok(_) => {}
                Err(e) => break Err(e),
            }
        };
        assert_eq!(result.unwrap_err(), PcmError::SparesExhausted { slot });
        assert_eq!(device.spares_remaining(), 0);
        assert_eq!(device.retired_pages(), 2);
        assert_eq!(engine.uncorrectable_pages(), 3, "original + both spares");
    }

    #[test]
    fn batch_jump_past_budget_credits_exactly_the_budget() {
        // A page that goes from pristine to way past the budget between
        // two absorbs must still retire exactly once with `budget`
        // groups credited as corrected.
        let (mut device, mut engine) = tiny_setup(2);
        let slot = PhysicalPageAddr::new(3);
        let unc = engine.model().uncorrectable_wear(slot, 2).unwrap();
        for _ in 0..unc + 10 {
            device.write_page(slot).unwrap();
        }
        let report = engine.absorb(&mut device).unwrap();
        assert_eq!(report.retirements.len(), 1);
        assert_eq!(report.corrected_now, 2, "partial credit up to the budget");
        assert_eq!(engine.corrected_groups(), 2);
        assert_eq!(engine.uncorrectable_pages(), 1);
    }
}
