//! SplitMix64: a tiny, high-quality 64-bit generator.
//!
//! Used both as a standalone simulation RNG and as the seed expander for
//! [`Xoshiro256StarStar`](crate::Xoshiro256StarStar), following the
//! reference recommendation by Blackman & Vigna.

/// A SplitMix64 pseudo-random number generator.
///
/// SplitMix64 passes BigCrush, has a full 2⁶⁴ period, and is the standard
/// way to expand a single `u64` seed into larger generator states. It is
/// the default workhorse RNG for small simulator components.
///
/// # Examples
///
/// ```
/// use twl_rng::SplitMix64;
///
/// let mut rng = SplitMix64::seed_from(0);
/// // Known first output of SplitMix64 seeded with 0.
/// assert_eq!(rng.next_u64(), 0xE220A8397B1DCDAF);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SplitMix64 {
    state: u64,
}

/// The golden-ratio increment of the SplitMix64 state sequence.
const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    #[inline]
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(GOLDEN);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Fills `out` with the next `out.len()` values of the stream, in
    /// draw order — exactly equivalent to that many
    /// [`SplitMix64::next_u64`] calls.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let mut state = self.state;
        for slot in out {
            state = state.wrapping_add(GOLDEN);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        self.state = state;
    }

    /// Advances the generator by `n` draws in O(1).
    ///
    /// The SplitMix64 state walks an additive sequence
    /// (`state += GOLDEN` per draw), so skipping `n` draws is a single
    /// wrapping multiply-add. Afterwards the generator produces exactly
    /// the values `n` sequential [`SplitMix64::next_u64`] calls would
    /// have led to.
    #[inline]
    pub fn jump_ahead(&mut self, n: u64) {
        self.state = self.state.wrapping_add(GOLDEN.wrapping_mul(n));
    }
}

impl Default for SplitMix64 {
    fn default() -> Self {
        Self::seed_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vector() {
        // Reference values from the canonical C implementation with seed
        // 1234567.
        let mut rng = SplitMix64::seed_from(1234567);
        let v: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(v[0], 6457827717110365317);
        assert_eq!(v[1], 3203168211198807973);
        assert_eq!(v[2], 9817491932198370423);
    }

    #[test]
    fn distinct_seeds_diverge() {
        let mut a = SplitMix64::seed_from(1);
        let mut b = SplitMix64::seed_from(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }
}
