//! Toss-up pair construction (the SWPT of Fig. 5).

use twl_pcm::{table, EnduranceMap, PhysicalPageAddr};
use twl_rng::{SimRng, Xoshiro256StarStar};

/// How physical pages are bonded into toss-up pairs.
///
/// §4.3 proposes **Strong-Weak Pairing** to minimize swap frequency and
/// even out per-pair total endurance; the naive alternative evaluated as
/// `TWL_ap` in Fig. 6 bonds physically adjacent pages. A uniformly random
/// bonding is included as an extra ablation point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum PairingStrategy {
    /// Sort pages by endurance; bond the k-th strongest with the k-th
    /// weakest (paper §4.3, `TWL_swp`).
    StrongWeak,
    /// Bond physically adjacent pages `(2i, 2i+1)` (paper Fig. 6,
    /// `TWL_ap`).
    Adjacent,
    /// Bond uniformly random pages (ablation).
    Random {
        /// Shuffle seed.
        seed: u64,
    },
}

impl PairingStrategy {
    /// The scheme-name suffix the paper uses for this strategy.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            Self::StrongWeak => "swp",
            Self::Adjacent => "ap",
            Self::Random { .. } => "rnd",
        }
    }
}

/// The strong-weak pair table (SWPT): a fixed involution bonding every
/// physical page with exactly one partner.
///
/// Pairs are *physical* bonds: inter-pair swaps move logical data between
/// frames but never rewire partners.
///
/// # Examples
///
/// ```
/// use twl_core::{PairTable, PairingStrategy};
/// use twl_pcm::{EnduranceMap, PhysicalPageAddr};
///
/// let endurance = EnduranceMap::from_values(vec![10, 40, 20, 30]);
/// let pairs = PairTable::build(&endurance, PairingStrategy::StrongWeak);
/// // Weakest (PA0, E=10) bonds with strongest (PA1, E=40).
/// assert_eq!(pairs.partner(PhysicalPageAddr::new(0)).index(), 1);
/// assert_eq!(pairs.partner(PhysicalPageAddr::new(2)).index(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairTable {
    partner: Vec<u64>,
}

impl PairTable {
    /// Builds the pair table for the given endurance map and strategy.
    ///
    /// # Panics
    ///
    /// Panics if the map has fewer than 2 pages or an odd page count.
    #[must_use]
    pub fn build(endurance: &EnduranceMap, strategy: PairingStrategy) -> Self {
        let n = endurance.len();
        assert!(n >= 2, "pairing needs at least 2 pages");
        assert!(n.is_multiple_of(2), "pairing needs an even page count");
        twl_telemetry::counter!("twl.core.pair_builds").inc();
        let mut partner = table::filled(n, 0u64);
        match strategy {
            PairingStrategy::StrongWeak => {
                let sorted = endurance.sorted_by_endurance();
                for k in 0..n / 2 {
                    let weak = sorted[k];
                    let strong = sorted[n - 1 - k];
                    partner[weak.as_usize()] = strong.index();
                    partner[strong.as_usize()] = weak.index();
                }
            }
            PairingStrategy::Adjacent => {
                for i in (0..n).step_by(2) {
                    partner[i] = (i + 1) as u64;
                    partner[i + 1] = i as u64;
                }
            }
            PairingStrategy::Random { seed } => {
                let mut order: Vec<u64> = (0..n as u64).collect();
                let mut rng = Xoshiro256StarStar::seed_from(seed);
                // Fisher-Yates shuffle, then bond consecutive entries.
                for i in (1..n).rev() {
                    let j = rng.next_bounded(i as u64 + 1) as usize;
                    order.swap(i, j);
                }
                for pair in order.chunks(2) {
                    partner[pair[0] as usize] = pair[1];
                    partner[pair[1] as usize] = pair[0];
                }
            }
        }
        Self { partner }
    }

    /// Number of pages (twice the number of pairs).
    #[must_use]
    pub fn len(&self) -> u64 {
        self.partner.len() as u64
    }

    /// Whether the table is empty (never true — construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.partner.is_empty()
    }

    /// The bonded partner of a physical page.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is out of range.
    #[must_use]
    pub fn partner(&self, pa: PhysicalPageAddr) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.partner[pa.as_usize()])
    }

    /// Iterates each pair once, as `(low_member, high_member)`.
    pub fn pairs(&self) -> impl Iterator<Item = (PhysicalPageAddr, PhysicalPageAddr)> + '_ {
        self.partner.iter().enumerate().filter_map(|(i, &p)| {
            if (i as u64) < p {
                Some((PhysicalPageAddr::new(i as u64), PhysicalPageAddr::new(p)))
            } else {
                None
            }
        })
    }

    /// Verifies the involution invariant: every page has exactly one
    /// partner distinct from itself, symmetrically.
    #[must_use]
    pub fn is_valid_involution(&self) -> bool {
        self.partner.iter().enumerate().all(|(i, &p)| {
            p != i as u64
                && (p as usize) < self.partner.len()
                && self.partner[p as usize] == i as u64
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;

    fn map(n: u64, seed: u64) -> EnduranceMap {
        let c = PcmConfig::builder()
            .pages(n)
            .mean_endurance(100_000)
            .seed(seed)
            .build()
            .unwrap();
        EnduranceMap::generate(&c)
    }

    #[test]
    fn all_strategies_build_involutions() {
        let endurance = map(256, 3);
        for strategy in [
            PairingStrategy::StrongWeak,
            PairingStrategy::Adjacent,
            PairingStrategy::Random { seed: 5 },
        ] {
            let pairs = PairTable::build(&endurance, strategy);
            assert!(pairs.is_valid_involution(), "strategy {strategy:?}");
            assert_eq!(pairs.pairs().count(), 128);
        }
    }

    #[test]
    fn strong_weak_minimizes_pair_sum_spread() {
        let endurance = map(1024, 7);
        let swp = PairTable::build(&endurance, PairingStrategy::StrongWeak);
        let ap = PairTable::build(&endurance, PairingStrategy::Adjacent);
        let spread = |t: &PairTable| {
            let sums: Vec<u64> = t
                .pairs()
                .map(|(a, b)| endurance.endurance(a) + endurance.endurance(b))
                .collect();
            (*sums.iter().max().unwrap() - *sums.iter().min().unwrap()) as f64
        };
        assert!(
            spread(&swp) < spread(&ap) / 2.0,
            "SWP should concentrate pair sums: swp={} ap={}",
            spread(&swp),
            spread(&ap)
        );
    }

    #[test]
    fn strong_weak_bonds_extremes() {
        let endurance = EnduranceMap::from_values(vec![5, 1, 9, 7, 3, 11]);
        let pairs = PairTable::build(&endurance, PairingStrategy::StrongWeak);
        // Sorted: PA1(1) PA4(3) PA0(5) PA3(7) PA2(9) PA5(11).
        assert_eq!(pairs.partner(PhysicalPageAddr::new(1)).index(), 5);
        assert_eq!(pairs.partner(PhysicalPageAddr::new(4)).index(), 2);
        assert_eq!(pairs.partner(PhysicalPageAddr::new(0)).index(), 3);
    }

    #[test]
    fn adjacent_bonds_neighbours() {
        let endurance = map(8, 1);
        let pairs = PairTable::build(&endurance, PairingStrategy::Adjacent);
        for i in (0..8).step_by(2) {
            assert_eq!(pairs.partner(PhysicalPageAddr::new(i)).index(), i + 1);
        }
    }

    #[test]
    fn random_pairing_is_seed_deterministic() {
        let endurance = map(64, 2);
        let a = PairTable::build(&endurance, PairingStrategy::Random { seed: 9 });
        let b = PairTable::build(&endurance, PairingStrategy::Random { seed: 9 });
        let c = PairTable::build(&endurance, PairingStrategy::Random { seed: 10 });
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "even page count")]
    fn odd_pages_panic() {
        let endurance = EnduranceMap::from_values(vec![1, 2, 3]);
        let _ = PairTable::build(&endurance, PairingStrategy::Adjacent);
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use twl_pcm::PcmConfig;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every strategy yields a valid involution on any even-sized
        /// endurance map.
        #[test]
        fn strategies_always_produce_involutions(
            pairs in 1u64..200,
            seed in any::<u64>(),
            strategy_pick in 0u8..3,
        ) {
            let pages = pairs * 2;
            let pcm = PcmConfig::builder()
                .pages(pages)
                .mean_endurance(50_000)
                .seed(seed)
                .build()
                .expect("valid config");
            let endurance = EnduranceMap::generate(&pcm);
            let strategy = match strategy_pick {
                0 => PairingStrategy::StrongWeak,
                1 => PairingStrategy::Adjacent,
                _ => PairingStrategy::Random { seed },
            };
            let table = PairTable::build(&endurance, strategy);
            prop_assert!(table.is_valid_involution());
            prop_assert_eq!(table.pairs().count() as u64, pairs);
        }

        /// Strong-weak pairing minimizes the spread of pair endurance
        /// sums versus adjacent pairing, for any PV draw large enough
        /// for the statistics to bite.
        #[test]
        fn swp_pair_sums_are_tighter_than_adjacent(seed in any::<u64>()) {
            let pcm = PcmConfig::builder()
                .pages(512)
                .mean_endurance(100_000)
                .seed(seed)
                .build()
                .expect("valid config");
            let endurance = EnduranceMap::generate(&pcm);
            let spread = |strategy| {
                let table = PairTable::build(&endurance, strategy);
                let sums: Vec<u64> = table
                    .pairs()
                    .map(|(a, b)| endurance.endurance(a) + endurance.endurance(b))
                    .collect();
                (*sums.iter().max().expect("non-empty")
                    - *sums.iter().min().expect("non-empty")) as f64
            };
            prop_assert!(
                spread(PairingStrategy::StrongWeak) < spread(PairingStrategy::Adjacent)
            );
        }
    }
}
