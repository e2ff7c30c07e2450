//! Property-based tests over the workspace's core invariants.
//!
//! The single most important invariant in a wear-leveling simulator is
//! that *every scheme's logical→physical mapping remains a bijection
//! under arbitrary traffic* — a broken mapping silently corrupts data
//! in a real device and silently mis-measures wear in a simulator. The
//! properties here drive every scheme with arbitrary write sequences
//! and check the permutation, plus conservation laws (every device
//! write accounted) and the statistical contracts of the substrate
//! (Feistel bijectivity, toss-up proportions, Zipf calibration).

use proptest::prelude::*;
use std::collections::HashSet;
use tossup_wl::lifetime::{build_scheme_spec, SchemeKind};
use tossup_wl::pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
use tossup_wl::rng::{FeistelPermutation, SimRng, SplitMix64};
use tossup_wl::workloads::{zipf_alpha_for_hot_share, Zipf};

const PAGES: u64 = 64;

fn scheme_strategy() -> impl Strategy<Value = SchemeKind> {
    prop_oneof![
        Just(SchemeKind::Nowl),
        Just(SchemeKind::Sr),
        Just(SchemeKind::Bwl),
        Just(SchemeKind::Wrl),
        Just(SchemeKind::StartGap),
        Just(SchemeKind::TwlSwp),
        Just(SchemeKind::TwlAp),
    ]
}

proptest! {
    /// Any scheme, any write sequence: the mapping stays a permutation
    /// and every logical page is readable where the scheme says it is.
    #[test]
    fn mapping_stays_bijective(
        kind in scheme_strategy(),
        seed in 0u64..1000,
        writes in proptest::collection::vec(0u64..PAGES, 1..400),
    ) {
        let pcm = PcmConfig::builder()
            .pages(PAGES)
            .mean_endurance(1_000_000)
            .seed(seed)
            .build()
            .expect("valid config");
        let mut device = PcmDevice::new(&pcm);
        let mut scheme = build_scheme_spec(&kind.into(), &device).expect("builds");
        let logical = scheme.page_count();
        for &w in &writes {
            scheme.write(LogicalPageAddr::new(w % logical), &mut device).expect("no wear-out");
        }
        let mapped: HashSet<u64> = (0..logical)
            .map(|l| scheme.translate(LogicalPageAddr::new(l)).index())
            .collect();
        prop_assert_eq!(mapped.len() as u64, logical, "translation must stay injective");
        for l in 0..logical {
            let pa = scheme.translate(LogicalPageAddr::new(l));
            prop_assert!(pa.index() < PAGES, "translation must stay in the device");
        }
    }

    /// Conservation: the scheme's accounting of device writes matches
    /// the device's own counters exactly, for every scheme.
    #[test]
    fn device_writes_are_conserved(
        kind in scheme_strategy(),
        seed in 0u64..1000,
        writes in proptest::collection::vec(0u64..PAGES, 1..300),
    ) {
        let pcm = PcmConfig::builder()
            .pages(PAGES)
            .mean_endurance(1_000_000)
            .seed(seed)
            .build()
            .expect("valid config");
        let mut device = PcmDevice::new(&pcm);
        let mut scheme = build_scheme_spec(&kind.into(), &device).expect("builds");
        let logical = scheme.page_count();
        for &w in &writes {
            scheme.write(LogicalPageAddr::new(w % logical), &mut device).expect("no wear-out");
        }
        prop_assert_eq!(scheme.stats().device_writes, device.total_writes());
        prop_assert_eq!(scheme.stats().logical_writes, writes.len() as u64);
        prop_assert!(scheme.stats().device_writes >= scheme.stats().logical_writes);
    }

    /// The Feistel permutation is a bijection with an exact inverse for
    /// any key, width, and round count.
    #[test]
    fn feistel_is_bijective(
        key in any::<u64>(),
        bits in (1u32..8).prop_map(|b| b * 2),
        rounds in 1u32..8,
        probe in any::<u64>(),
    ) {
        let perm = FeistelPermutation::new(bits, key, rounds);
        let v = probe & (perm.domain() - 1);
        prop_assert!(perm.permute(v) < perm.domain());
        prop_assert_eq!(perm.invert(perm.permute(v)), v);
    }

    /// `bernoulli_ratio` is unbiased: over many draws the hit rate
    /// approaches num/den for arbitrary ratios.
    #[test]
    fn bernoulli_ratio_is_unbiased(seed in any::<u64>(), num in 0u64..100, extra in 1u64..100) {
        let den = num + extra;
        let mut rng = SplitMix64::seed_from(seed);
        let trials = 20_000;
        let hits = (0..trials).filter(|_| rng.bernoulli_ratio(num, den)).count();
        let p = hits as f64 / trials as f64;
        let expect = num as f64 / den as f64;
        // Binomial std dev is at most 0.5/sqrt(n) ≈ 0.0035; allow 6σ.
        prop_assert!((p - expect).abs() < 0.022, "p {p} vs {expect}");
    }

    /// Zipf calibration: the solved exponent reproduces the requested
    /// hottest-page share across the Table 2 range.
    #[test]
    fn zipf_calibration_roundtrips(share_ppm in 600u64..100_000, footprint in 64u64..4096) {
        let share = share_ppm as f64 / 1_000_000.0;
        prop_assume!(share > 1.5 / footprint as f64);
        let alpha = zipf_alpha_for_hot_share(share, footprint);
        let achieved = Zipf::new(footprint, alpha).hottest_share();
        prop_assert!((achieved - share).abs() / share < 0.03,
            "share {share} footprint {footprint} -> alpha {alpha} -> {achieved}");
    }

    /// Endurance maps are always positive and exactly sized.
    #[test]
    fn endurance_maps_are_well_formed(pages in 1u64..256, seed in any::<u64>()) {
        let pages = pages * 2;
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(10_000)
            .seed(seed)
            .build()
            .expect("valid config");
        let device = PcmDevice::new(&pcm);
        let map = device.endurance_map();
        prop_assert_eq!(map.len() as u64, pages);
        prop_assert!(map.min() >= 1);
        prop_assert!(map.total() >= u128::from(pages));
    }
}

/// The TWL toss allocates request traffic in proportion to endurance —
/// checked as a statistical property over a wide ratio range.
#[test]
fn toss_up_requests_follow_endurance_ratio() {
    use tossup_wl::pcm::EnduranceMap;
    use tossup_wl::twl::{PairingStrategy, TossUpWearLeveling, TwlConfig};
    use tossup_wl::wl::WearLeveler;

    for (e_a, e_b) in [
        (1_000_000, 1_000_000),
        (3_000_000, 1_000_000),
        (9_000_000, 1_000_000),
    ] {
        let pcm = PcmConfig::builder()
            .pages(2)
            .mean_endurance(10_000_000)
            .sigma_fraction(0.0)
            .build()
            .expect("valid config");
        let endurance = EnduranceMap::from_values(vec![e_a, e_b]);
        let mut device = PcmDevice::with_endurance(&pcm, endurance);
        let config = TwlConfig::builder()
            .toss_up_interval(1)
            .inter_pair_swap_interval(u64::MAX)
            .pairing(PairingStrategy::Adjacent)
            .build()
            .expect("valid TWL config");
        let mut twl = TossUpWearLeveling::new(&config, device.endurance_map());
        let n = 60_000u64;
        let mut to_a = 0u64;
        for _ in 0..n {
            let out = twl
                .write(LogicalPageAddr::new(0), &mut device)
                .expect("healthy");
            if out.pa.index() == 0 {
                to_a += 1;
            }
        }
        let measured = to_a as f64 / n as f64;
        let expected = e_a as f64 / (e_a + e_b) as f64;
        assert!(
            (measured - expected).abs() < 0.02,
            "E ratio {e_a}/{e_b}: measured {measured}, expected {expected}"
        );
    }
}
