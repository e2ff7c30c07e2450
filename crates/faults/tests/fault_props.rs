//! Property tests for the fault subsystem, pinning down the three
//! invariants ISSUE 2 calls out:
//!
//! * ECP-style correction never "uncorrects": absorbed fault counts and
//!   corrected-group totals only grow, and an uncorrectable verdict
//!   latches.
//! * Retirement preserves logical-address contents across the remap —
//!   modeled with a shadow map of slot contents that must survive every
//!   retirement the engine performs.
//! * The cell-fault model is a pure function of its seed.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_faults::{CellFaultModel, CorrectionPolicy, FaultConfig, FaultEngine};
use twl_pcm::{PcmConfig, PcmDevice, PcmError, PhysicalPageAddr, WearPolicy};

const DATA_PAGES: u64 = 8;
const SPARES: u64 = 6;

/// A tiny domain with aggressive intra-page variation so faults and
/// retirements appear within a few hundred writes.
fn tiny_domain(seed: u64) -> (PcmDevice, FaultEngine) {
    let config = PcmConfig::builder()
        .pages(DATA_PAGES + SPARES)
        .mean_endurance(120)
        .sigma_fraction(0.10)
        .seed(seed)
        .build()
        .unwrap();
    let mut device = PcmDevice::new(&config);
    device.set_wear_policy(WearPolicy::Unlimited);
    device.enable_write_log();
    device.set_spare_pool(
        (DATA_PAGES..DATA_PAGES + SPARES)
            .map(PhysicalPageAddr::new)
            .collect(),
    );
    let fault_cfg = FaultConfig {
        cell_groups_per_page: 8,
        group_sigma_fraction: 0.25,
        policy: CorrectionPolicy::Ecp { entries: 3 },
        seed: seed ^ 0xFA17,
        ..FaultConfig::default()
    };
    let model = CellFaultModel::generate(device.endurance_map(), &fault_cfg);
    let engine = FaultEngine::new(model, fault_cfg.policy);
    (device, engine)
}

proptest! {
    /// Monotone absorption: per-page fault counts, the corrected-group
    /// total, and the uncorrectable-page count never decrease, and a
    /// dead page stays dead.
    #[test]
    fn correction_never_uncorrects(
        seed in 0u64..64,
        writes in proptest::collection::vec(0u64..DATA_PAGES, 1..600),
    ) {
        let (mut device, mut engine) = tiny_domain(seed);
        let pages = device.page_count() as usize;
        let mut prev_faults = vec![0u32; pages];
        let mut prev_dead = vec![false; pages];
        let mut prev_corrected = 0u64;
        let mut prev_uncorrectable = 0u64;
        for &w in &writes {
            device.write_page(PhysicalPageAddr::new(w)).unwrap();
            let exhausted = match engine.absorb(&mut device) {
                Ok(_) => false,
                Err(PcmError::SparesExhausted { .. }) => true,
                Err(e) => panic!("unexpected error: {e}"),
            };
            prop_assert!(engine.corrected_groups() >= prev_corrected);
            prop_assert!(engine.uncorrectable_pages() >= prev_uncorrectable);
            for p in 0..pages {
                let pa = PhysicalPageAddr::new(p as u64);
                prop_assert!(
                    engine.faults_on(pa) >= prev_faults[p],
                    "page {p} faults shrank"
                );
                prop_assert!(!prev_dead[p] || engine.is_dead(pa), "page {p} resurrected");
                prev_faults[p] = engine.faults_on(pa);
                prev_dead[p] = engine.is_dead(pa);
            }
            prev_corrected = engine.corrected_groups();
            prev_uncorrectable = engine.uncorrectable_pages();
            if exhausted {
                break;
            }
        }
    }

    /// Retirement transparency: track each slot's logical contents in a
    /// shadow map; after any number of retirements, every slot still
    /// resolves to a live physical page holding its contents, and no
    /// two slots share a backing page.
    #[test]
    fn retirement_preserves_slot_contents(
        seed in 0u64..64,
        writes in proptest::collection::vec(0u64..DATA_PAGES, 1..600),
    ) {
        let (mut device, mut engine) = tiny_domain(seed);
        // contents[phys] = the slot whose data the physical page holds.
        let mut contents: Vec<Option<u64>> =
            (0..device.page_count()).map(Some).collect();
        for &w in &writes {
            device.write_page(PhysicalPageAddr::new(w)).unwrap();
            match engine.absorb(&mut device) {
                Ok(report) => {
                    for r in &report.retirements {
                        // The device copies the slot's data to the spare.
                        prop_assert_eq!(
                            contents[r.dead_page.as_usize()],
                            Some(r.slot.index()),
                            "retired page did not hold its slot's data"
                        );
                        contents[r.spare.as_usize()] = Some(r.slot.index());
                        contents[r.dead_page.as_usize()] = None;
                    }
                }
                Err(PcmError::SparesExhausted { .. }) => break,
                Err(e) => panic!("unexpected error: {e}"),
            }
            let mut backing_seen = vec![false; device.page_count() as usize];
            for slot in 0..DATA_PAGES {
                let sa = PhysicalPageAddr::new(slot);
                let phys = device.resolve(sa);
                prop_assert!(!device.is_retired(phys), "slot {slot} backed by a dead page");
                prop_assert_eq!(
                    contents[phys.as_usize()],
                    Some(slot),
                    "slot {} lost its contents across remap",
                    slot
                );
                prop_assert_eq!(device.owner_of(phys), sa);
                prop_assert!(!backing_seen[phys.as_usize()], "two slots share a page");
                backing_seen[phys.as_usize()] = true;
            }
        }
    }

    /// Determinism: the model is a pure function of (endurance map,
    /// fault config), and two identically-seeded domains replaying the
    /// same writes agree on every observable.
    #[test]
    fn fault_model_is_deterministic(
        seed in 0u64..256,
        writes in proptest::collection::vec(0u64..DATA_PAGES, 1..300),
    ) {
        let (mut dev_a, mut eng_a) = tiny_domain(seed);
        let (mut dev_b, mut eng_b) = tiny_domain(seed);
        for p in 0..(DATA_PAGES + SPARES) {
            let pa = PhysicalPageAddr::new(p);
            prop_assert_eq!(eng_a.model().row(pa), eng_b.model().row(pa));
        }
        for &w in &writes {
            let pa = PhysicalPageAddr::new(w);
            dev_a.write_page(pa).unwrap();
            dev_b.write_page(pa).unwrap();
            let ra = eng_a.absorb(&mut dev_a);
            let rb = eng_b.absorb(&mut dev_b);
            prop_assert_eq!(&ra, &rb, "replay diverged");
            if ra.is_err() {
                break;
            }
        }
        prop_assert_eq!(eng_a.corrected_groups(), eng_b.corrected_groups());
        prop_assert_eq!(dev_a.retired_pages(), dev_b.retired_pages());
        prop_assert_eq!(dev_a.total_writes(), dev_b.total_writes());
    }
}
