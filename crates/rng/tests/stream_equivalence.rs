//! Property tests pinning the bulk RNG paths to the scalar draw order.
//!
//! The simulator's bit-identity contracts are all phrased in terms of
//! *sequential* `next_u64` draws; the fast paths (`fill_u64`,
//! `jump_ahead`, the [`RngBuffer`] FIFO) are pure optimizations and
//! must be indistinguishable from that reference — for every seed,
//! every length, every offset, and every interleaving.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use twl_rng::{RngBuffer, SimRng, SplitMix64, Xoshiro256StarStar};

/// Sequential reference: `n` scalar draws.
fn scalar_draws(rng: &mut impl SimRng, n: usize) -> Vec<u64> {
    (0..n).map(|_| rng.next_u64()).collect()
}

proptest! {
    /// `fill_u64` produces exactly the scalar stream, and leaves the
    /// generator in exactly the scalar-path state (checked by drawing
    /// past the filled span), for arbitrary split points.
    #[test]
    fn xoshiro_fill_matches_scalar_draws(
        seed in any::<u64>(),
        lens in proptest::collection::vec(0usize..200, 1..6),
    ) {
        let mut bulk = Xoshiro256StarStar::seed_from(seed);
        let mut scalar = Xoshiro256StarStar::seed_from(seed);
        for len in lens {
            let mut out = vec![0u64; len];
            bulk.fill_u64(&mut out);
            prop_assert_eq!(out, scalar_draws(&mut scalar, len));
        }
        prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
    }

    #[test]
    fn splitmix_fill_matches_scalar_draws(
        seed in any::<u64>(),
        lens in proptest::collection::vec(0usize..200, 1..6),
    ) {
        let mut bulk = SplitMix64::seed_from(seed);
        let mut scalar = SplitMix64::seed_from(seed);
        for len in lens {
            let mut out = vec![0u64; len];
            bulk.fill_u64(&mut out);
            prop_assert_eq!(out, scalar_draws(&mut scalar, len));
        }
        prop_assert_eq!(bulk.next_u64(), scalar.next_u64());
    }

    /// Jumping `n` draws ahead lands on exactly the value the scalar
    /// path reaches after `n` discarded draws — for xoshiro the skip is
    /// a scramble-free state walk, so this pins the two update
    /// functions against each other.
    #[test]
    fn xoshiro_jump_ahead_matches_discarded_draws(
        seed in any::<u64>(),
        skip in 0u64..500,
    ) {
        let mut jumped = Xoshiro256StarStar::seed_from(seed);
        jumped.jump_ahead(skip);
        let mut scalar = Xoshiro256StarStar::seed_from(seed);
        for _ in 0..skip {
            let _ = scalar.next_u64();
        }
        prop_assert_eq!(scalar_draws(&mut jumped, 4), scalar_draws(&mut scalar, 4));
    }

    /// SplitMix's O(1) jump is a closed-form multiply-add; large skips
    /// must agree with composition (jump(a) ∘ jump(b) = jump(a + b))
    /// and with the scalar walk for the low bits we can afford to step.
    #[test]
    fn splitmix_jump_ahead_matches_discarded_draws(
        seed in any::<u64>(),
        skip in 0u64..2_000,
        huge in any::<u64>(),
    ) {
        let mut jumped = SplitMix64::seed_from(seed);
        jumped.jump_ahead(skip);
        let mut scalar = SplitMix64::seed_from(seed);
        for _ in 0..skip {
            let _ = scalar.next_u64();
        }
        prop_assert_eq!(scalar_draws(&mut jumped, 4), scalar_draws(&mut scalar, 4));

        let mut composed = SplitMix64::seed_from(seed);
        composed.jump_ahead(huge);
        composed.jump_ahead(skip);
        let mut direct = SplitMix64::seed_from(seed);
        direct.jump_ahead(huge.wrapping_add(skip));
        prop_assert_eq!(composed.next_u64(), direct.next_u64());
    }

    /// Any interleaving of prefetches and draws through [`RngBuffer`]
    /// observes the inner generator's exact stream — a consumer cannot
    /// tell buffered values from live draws.
    #[test]
    fn rng_buffer_interleavings_are_invisible(
        seed in any::<u64>(),
        ops in proptest::collection::vec((0usize..64, 1usize..48), 1..12),
    ) {
        let mut buffered = RngBuffer::new(Xoshiro256StarStar::seed_from(seed));
        let mut scalar = Xoshiro256StarStar::seed_from(seed);
        for (prefetch, draws) in ops {
            buffered.prefetch(prefetch);
            for _ in 0..draws {
                prop_assert_eq!(buffered.next_u64(), scalar.next_u64());
            }
        }
    }
}
