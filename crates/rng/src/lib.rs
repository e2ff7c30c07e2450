#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Deterministic random-number generation for the `tossup-wl` simulator.
//!
//! Two families of generators live here, mirroring the two places the
//! DAC'17 *Toss-up Wear Leveling* paper needs randomness:
//!
//! * **Hardware-style RNGs** — [`FeistelRng`] models the 8-bit-wide
//!   Feistel-network generator the paper budgets at fewer than 128 logic
//!   gates (§5.4, borrowed from Start-Gap). [`FeistelPermutation`]
//!   generalizes the same network to an arbitrary-width *bijective*
//!   address scrambler, which is what Security Refresh and Start-Gap
//!   style schemes use to randomize address maps.
//! * **Simulation RNGs** — [`SplitMix64`] and [`Xoshiro256StarStar`] are
//!   fast, seedable generators used for everything on the simulation side
//!   (process-variation sampling, workload generation, attack address
//!   choices).
//!
//! Every generator is constructed from an explicit seed: two runs of the
//! simulator with the same seeds produce bit-identical results.
//!
//! # Examples
//!
//! ```
//! use twl_rng::{SimRng, Xoshiro256StarStar};
//!
//! let mut rng = Xoshiro256StarStar::seed_from(42);
//! let a = rng.next_u64();
//! let mut rng2 = Xoshiro256StarStar::seed_from(42);
//! assert_eq!(a, rng2.next_u64());
//! ```

mod buffer;
mod feistel;
mod gauss;
mod splitmix;
mod xoshiro;

pub use buffer::RngBuffer;
pub use feistel::{FeistelPermutation, FeistelRng, FEISTEL_DEFAULT_ROUNDS};
pub use gauss::GaussianSampler;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256StarStar;

/// Convenience trait unifying the simulator-side generators.
///
/// All simulator RNGs are seeded from a single `u64` so experiment
/// configurations stay small and printable. The trait is object-safe so
/// heterogeneous scheme implementations can share a `&mut dyn SimRng`.
///
/// # Examples
///
/// ```
/// use twl_rng::{SimRng, SplitMix64};
///
/// fn roll(rng: &mut dyn SimRng) -> u64 {
///     rng.next_u64() % 6 + 1
/// }
/// let mut rng = SplitMix64::seed_from(7);
/// let v = roll(&mut rng);
/// assert!((1..=6).contains(&v));
/// ```
pub trait SimRng {
    /// Returns the next 64 random bits.
    fn next_u64(&mut self) -> u64;

    /// Fills `out` with the next `out.len()` values of the stream, in
    /// draw order — exactly equivalent to that many
    /// [`SimRng::next_u64`] calls.
    ///
    /// The provided implementation loops; generators override it with a
    /// register-resident bulk pass (see
    /// [`Xoshiro256StarStar::fill_u64`]).
    fn fill_u64(&mut self, out: &mut [u64]) {
        for slot in out {
            *slot = self.next_u64();
        }
    }

    /// Returns a uniformly distributed value in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift rejection method, so the result is
    /// unbiased for every `bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    fn next_bounded(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Returns a uniformly distributed `f64` in `[0, 1)`.
    #[inline]
    fn next_unit_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Returns `true` with probability `num / den`.
    ///
    /// This is the integer-compare formulation used by the hardware
    /// toss-up (`alpha < E_A / (E_A + E_B)` becomes a bounded-integer
    /// comparison), avoiding floating point in the modelled datapath.
    ///
    /// # Panics
    ///
    /// Panics if `den == 0` or `num > den`.
    fn bernoulli_ratio(&mut self, num: u64, den: u64) -> bool {
        assert!(den > 0, "denominator must be positive");
        assert!(num <= den, "probability numerator exceeds denominator");
        self.next_bounded(den) < num
    }
}

impl SimRng for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        SplitMix64::next_u64(self)
    }

    fn fill_u64(&mut self, out: &mut [u64]) {
        SplitMix64::fill_u64(self, out);
    }
}

impl SimRng for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        Xoshiro256StarStar::next_u64(self)
    }

    fn fill_u64(&mut self, out: &mut [u64]) {
        Xoshiro256StarStar::fill_u64(self, out);
    }
}

impl SimRng for FeistelRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        FeistelRng::next_u64(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_is_in_range() {
        let mut rng = SplitMix64::seed_from(1);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..100 {
                assert!(rng.next_bounded(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = Xoshiro256StarStar::seed_from(9);
        for _ in 0..1000 {
            let v = rng.next_unit_f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn bernoulli_extremes() {
        let mut rng = SplitMix64::seed_from(3);
        for _ in 0..50 {
            assert!(rng.bernoulli_ratio(5, 5));
            assert!(!rng.bernoulli_ratio(0, 5));
        }
    }

    #[test]
    fn bernoulli_ratio_is_calibrated() {
        let mut rng = Xoshiro256StarStar::seed_from(11);
        let trials = 200_000;
        let hits = (0..trials).filter(|_| rng.bernoulli_ratio(3, 10)).count();
        let p = hits as f64 / trials as f64;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn bounded_zero_panics() {
        let mut rng = SplitMix64::seed_from(1);
        let _ = rng.next_bounded(0);
    }

    #[test]
    fn sim_rng_is_object_safe() {
        let mut rng = SplitMix64::seed_from(2);
        let dyn_rng: &mut dyn SimRng = &mut rng;
        let _ = dyn_rng.next_u64();
    }
}
