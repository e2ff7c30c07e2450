//! xoshiro256**: the main simulation generator.

use crate::SplitMix64;

/// A xoshiro256** pseudo-random number generator.
///
/// This is the generator recommended by Blackman & Vigna for all-purpose
/// 64-bit work: 256 bits of state, period 2²⁵⁶−1, excellent statistical
/// quality. The simulator uses it wherever long streams are consumed
/// (workload generation, endurance sampling, attack address selection).
///
/// The 256-bit state is expanded from a single `u64` seed with
/// [`SplitMix64`], per the reference guidance.
///
/// # Examples
///
/// ```
/// use twl_rng::Xoshiro256StarStar;
///
/// let mut rng = Xoshiro256StarStar::seed_from(7);
/// let first = rng.next_u64();
/// assert_ne!(first, rng.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded to the full 256-bit state via SplitMix64, so
    /// even adjacent seeds produce uncorrelated streams.
    #[must_use]
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = SplitMix64::seed_from(seed);
        Self {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
        }
    }

    /// Returns the next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Fills `out` with the next `out.len()` values of the stream, in
    /// draw order — exactly equivalent to that many
    /// [`Xoshiro256StarStar::next_u64`] calls. Keeping the 256-bit state
    /// in registers across the whole run lets an event-dense batch draw
    /// its randomness in one pass.
    pub fn fill_u64(&mut self, out: &mut [u64]) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for slot in out {
            *slot = s1.wrapping_mul(5).rotate_left(7).wrapping_mul(9);
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Advances the generator by `n` draws, discarding the outputs.
    ///
    /// Equivalent to calling [`Xoshiro256StarStar::next_u64`] `n` times
    /// and ignoring the results, but skips the `**` output scramble and
    /// keeps the state in registers, so it runs at a few cycles per
    /// step. There is no closed form for arbitrary `n` (contrast
    /// [`SplitMix64::jump_ahead`](crate::SplitMix64::jump_ahead)); for
    /// partitioning a stream into parallel substreams use the O(1)
    /// fixed-distance [`Xoshiro256StarStar::jump`] instead.
    pub fn jump_ahead(&mut self, n: u64) {
        let [mut s0, mut s1, mut s2, mut s3] = self.s;
        for _ in 0..n {
            let t = s1 << 17;
            s2 ^= s0;
            s3 ^= s1;
            s1 ^= s2;
            s0 ^= s3;
            s2 ^= t;
            s3 = s3.rotate_left(45);
        }
        self.s = [s0, s1, s2, s3];
    }

    /// Advances the generator 2¹²⁸ steps, for partitioning one stream
    /// into non-overlapping parallel substreams.
    pub fn jump(&mut self) {
        const JUMP: [u64; 4] = [
            0x180E_C6D3_3CFD_0ABA,
            0xD5A6_1266_F0C9_392C,
            0xA958_2618_E03F_C9AA,
            0x39AB_DC45_29B1_661C,
        ];
        let mut s = [0u64; 4];
        for j in JUMP {
            for b in 0..64 {
                if j & (1u64 << b) != 0 {
                    s[0] ^= self.s[0];
                    s[1] ^= self.s[1];
                    s[2] ^= self.s[2];
                    s[3] ^= self.s[3];
                }
                self.next_u64();
            }
        }
        self.s = s;
    }
}

impl Default for Xoshiro256StarStar {
    fn default() -> Self {
        Self::seed_from(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let mut a = Xoshiro256StarStar::seed_from(99);
        let mut b = Xoshiro256StarStar::seed_from(99);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn jump_produces_disjoint_prefix() {
        let mut a = Xoshiro256StarStar::seed_from(5);
        let mut b = a.clone();
        b.jump();
        let xs: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        assert!(xs.iter().all(|x| !ys.contains(x)));
    }

    #[test]
    fn rough_uniformity() {
        // Chi-square over 16 buckets stays within a generous band.
        let mut rng = Xoshiro256StarStar::seed_from(2024);
        let mut buckets = [0u64; 16];
        let n = 160_000;
        for _ in 0..n {
            buckets[(rng.next_u64() >> 60) as usize] += 1;
        }
        let expected = n as f64 / 16.0;
        let chi2: f64 = buckets
            .iter()
            .map(|&c| {
                let d = c as f64 - expected;
                d * d / expected
            })
            .sum();
        // 15 degrees of freedom: p=0.001 critical value is 37.7.
        assert!(chi2 < 37.7, "chi2 = {chi2}");
    }
}
