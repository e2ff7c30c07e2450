//! The device's `u32` wear table against a reference model that keeps
//! every counter in a `u64` and so can never wrap: scalar writes, bulk
//! writes and retirements, under both wear policies, with some pages
//! driven to the counter's limit. Wear, write totals, the first failure
//! and every returned error must be identical.

use proptest::prelude::*;
use twl_pcm::{EnduranceMap, PcmConfig, PcmDevice, PcmError, PhysicalPageAddr, WearPolicy};
use twl_rng::{SimRng, SplitMix64};

/// The wear counter's limit under [`WearPolicy::Unlimited`].
const LIMIT: u64 = u32::MAX as u64;

/// A device model with `u64` tables and a slot map built up front.
struct Reference {
    endurance: Vec<u64>,
    wear: Vec<u64>,
    unlimited: bool,
    total: u64,
    first_failure: Option<PhysicalPageAddr>,
    /// Slot → physical page.
    forward: Vec<u64>,
    /// Spare pages, handed out from the end.
    spares: Vec<u64>,
}

impl Reference {
    fn limit(&self, phys: usize) -> u64 {
        if self.unlimited {
            LIMIT
        } else {
            self.endurance[phys]
        }
    }

    fn write_n(&mut self, slot: u64, n: u64) -> (u64, Option<PcmError>) {
        let p = self.forward[slot as usize] as usize;
        let landed = n.min(self.limit(p).saturating_sub(self.wear[p]));
        self.wear[p] += landed;
        self.total += landed;
        if landed == n {
            return (landed, None);
        }
        let addr = PhysicalPageAddr::new(slot);
        let writes = self.wear[p];
        let error = if self.unlimited {
            PcmError::WearOverflow { addr, writes }
        } else {
            self.first_failure.get_or_insert(addr);
            PcmError::PageWornOut { addr, writes }
        };
        (landed, Some(error))
    }

    fn retire(&mut self, slot: u64) -> Result<PhysicalPageAddr, PcmError> {
        let Some(&spare) = self.spares.last() else {
            return Err(PcmError::SparesExhausted {
                slot: PhysicalPageAddr::new(slot),
            });
        };
        if self.wear[spare as usize] >= LIMIT {
            return Err(PcmError::WearOverflow {
                addr: PhysicalPageAddr::new(spare),
                writes: self.wear[spare as usize],
            });
        }
        self.spares.pop();
        self.forward[slot as usize] = spare;
        self.wear[spare as usize] += 1;
        self.total += 1;
        Ok(PhysicalPageAddr::new(spare))
    }
}

/// A bulk-write length: small, around the page's endurance, next to the
/// counter's limit, or past it.
fn length(rng: &mut SplitMix64, endurance: u64) -> u64 {
    match rng.next_bounded(6) {
        0 => rng.next_bounded(4),
        1 => rng.next_bounded(2 * endurance + 2),
        2 => LIMIT - 2 + rng.next_bounded(4),
        3 => LIMIT / 2 + rng.next_bounded(3),
        4 => u64::MAX - rng.next_bounded(2),
        _ => rng.next_bounded(1 << 34),
    }
}

/// Runs one seeded sequence, returning which errors it met:
/// `(wear-outs, counter overflows)`.
fn run(seed: u64) -> (bool, bool) {
    let mut rng = SplitMix64::seed_from(seed);
    let pages = 2 * (2 + rng.next_bounded(5));
    let spares = 1 + rng.next_bounded(2);
    let data = pages - spares;
    let unlimited = rng.next_bounded(2) == 0;
    let endurance: Vec<u64> = (0..pages)
        .map(|_| match rng.next_bounded(3) {
            0 => 1 + rng.next_bounded(8),
            1 => 1 + rng.next_bounded(1000),
            _ => LIMIT - rng.next_bounded(3),
        })
        .collect();
    let config = PcmConfig::builder().pages(pages).build().unwrap();
    let mut device =
        PcmDevice::with_endurance(&config, EnduranceMap::from_values(endurance.clone()));
    let spare_pages: Vec<u64> = (data..pages).collect();
    device.set_spare_pool(
        spare_pages
            .iter()
            .copied()
            .map(PhysicalPageAddr::new)
            .collect(),
    );
    let mut reference = Reference {
        wear: vec![0; pages as usize],
        unlimited,
        total: 0,
        first_failure: None,
        forward: (0..pages).collect(),
        spares: spare_pages.into_iter().rev().collect(),
        endurance,
    };
    if unlimited {
        device.set_wear_policy(WearPolicy::Unlimited);
    }
    let mut met = (false, false);
    for step in 0..200 {
        let op = rng.next_bounded(10);
        // Unlimited writes may also land on the spare tail directly, so a
        // spare can reach the counter's limit before a retirement hands
        // it out. (Fail-stop runs leave spares alone: a retirement's copy
        // ignores endurance, and the snapshot check would then refuse.)
        let slot = rng.next_bounded(if op < 9 && unlimited { pages } else { data });
        let addr = PhysicalPageAddr::new(slot);
        let what = match op {
            0..=3 => {
                let got = device.write_page(addr);
                let (_, want) = reference.write_n(slot, 1);
                assert_eq!(got.err(), want, "seed {seed} step {step}: write {slot}");
                "write"
            }
            4..=8 => {
                let p = reference.forward[slot as usize] as usize;
                let n = length(&mut rng, reference.endurance[p]);
                let got = device.write_page_n(addr, n);
                let (landed, failure) = reference.write_n(slot, n);
                met.0 |= matches!(failure, Some(PcmError::PageWornOut { .. }));
                met.1 |= matches!(failure, Some(PcmError::WearOverflow { .. }));
                assert_eq!(
                    (got.landed, got.failure),
                    (landed, failure),
                    "seed {seed} step {step}: write_page_n({slot}, {n})"
                );
                "bulk"
            }
            _ => {
                let got = device.retire_page(addr);
                assert_eq!(
                    got,
                    reference.retire(slot),
                    "seed {seed} step {step}: retire {slot}"
                );
                "retire"
            }
        };
        let wear = device.wear_counters();
        assert_eq!(
            wear, reference.wear,
            "seed {seed} step {step} ({what}): wear"
        );
        assert_eq!(
            device.total_writes(),
            reference.total,
            "seed {seed} step {step}: total"
        );
        assert_eq!(
            device.first_failure(),
            reference.first_failure,
            "seed {seed} step {step}: first failure"
        );
        for s in 0..pages {
            let s = PhysicalPageAddr::new(s);
            let want = reference.forward[s.as_usize()];
            assert_eq!(
                device.resolve(s).index(),
                want,
                "seed {seed} step {step}: slot map"
            );
            assert_eq!(device.wear(s), reference.wear[want as usize]);
        }
    }
    let restored = PcmDevice::restore(device.snapshot()).unwrap();
    assert_eq!(
        restored.wear_counters(),
        device.wear_counters(),
        "seed {seed}: restore"
    );
    met
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn u32_device_matches_u64_reference(seed in any::<u64>()) {
        run(seed);
    }
}

/// Fixed seeds that meet both a fail-stop wear-out and an unlimited
/// counter reaching its limit.
#[test]
fn fixed_seeds_reach_wear_out_and_the_counter_limit() {
    let met = (0..64).map(run).fold((0, 0), |(w, o), (a, b)| {
        (w + usize::from(a), o + usize::from(b))
    });
    assert!(
        met.0 > 0 && met.1 > 0,
        "wear-outs and overflows met: {met:?}"
    );
}
