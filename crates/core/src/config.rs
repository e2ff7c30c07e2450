//! TWL configuration.

use crate::PairingStrategy;
use std::error::Error;
use std::fmt;

/// Error returned for invalid [`TwlConfig`] parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwlConfigError(String);

impl fmt::Display for TwlConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid TWL configuration: {}", self.0)
    }
}

impl Error for TwlConfigError {}

/// Configuration of [`TossUpWearLeveling`](crate::TossUpWearLeveling).
///
/// Defaults follow the paper's evaluated setting (Table 1 / §5.2):
/// toss-up interval 32, inter-pair swap interval 128, strong-weak
/// pairing, the optimized two-write swap, and toss-up probabilities from
/// the factory-tested (initial) endurance table.
///
/// # Examples
///
/// ```
/// use twl_core::{PairingStrategy, TwlConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = TwlConfig::builder()
///     .toss_up_interval(16)
///     .pairing(PairingStrategy::Adjacent)
///     .build()?;
/// assert_eq!(config.toss_up_interval, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TwlConfig {
    /// Trigger the toss-up every this many writes to a page (§4.3).
    pub toss_up_interval: u64,
    /// Swap the written page with a random page every this many global
    /// writes (§4.1; paper fixes 128, matching Security Refresh).
    pub inter_pair_swap_interval: u64,
    /// How pages are bonded into toss-up pairs.
    pub pairing: PairingStrategy,
    /// Use the optimized two-write "swap-then-write" (§4.1). Disabling
    /// it models the naive three-write swap as an ablation.
    pub optimized_swap: bool,
    /// Toss on *remaining* endurance instead of factory-tested initial
    /// endurance (ablation; the paper uses initial).
    pub dynamic_endurance: bool,
    /// Seed for the toss-up RNG and inter-pair target selection.
    pub rng_seed: u64,
    /// Latency of the hardware RNG in cycles (Table 1: 4).
    pub rng_latency: u64,
    /// Latency of the TWL control logic in cycles (Table 1: 5).
    pub control_latency: u64,
    /// Latency of one table access in cycles (Table 1: 10).
    pub table_latency: u64,
}

impl TwlConfig {
    /// Starts building a configuration from the paper's defaults.
    #[must_use]
    pub fn builder() -> TwlConfigBuilder {
        TwlConfigBuilder::new()
    }

    /// The paper's evaluated configuration (toss-up interval 32,
    /// inter-pair interval 128, strong-weak pairing).
    #[must_use]
    pub fn dac17() -> Self {
        Self::builder().build().expect("defaults are valid")
    }

    /// The naive adjacent-pairing variant evaluated as `TWL_ap` in
    /// Fig. 6.
    #[must_use]
    pub fn dac17_adjacent() -> Self {
        Self::builder()
            .pairing(PairingStrategy::Adjacent)
            .build()
            .expect("defaults are valid")
    }

    /// Engine latency charged on a write that does *not* toss
    /// (SWPT + RT/ET lookups + control).
    #[must_use]
    pub fn base_write_latency(&self) -> u64 {
        self.control_latency + 2 * self.table_latency
    }

    /// Engine latency charged on a tossing write (adds the RNG).
    #[must_use]
    pub fn toss_write_latency(&self) -> u64 {
        self.base_write_latency() + self.rng_latency
    }
}

impl Default for TwlConfig {
    fn default() -> Self {
        Self::dac17()
    }
}

/// Builder for [`TwlConfig`].
#[derive(Debug, Clone)]
pub struct TwlConfigBuilder {
    config: TwlConfig,
}

impl TwlConfigBuilder {
    /// Creates a builder seeded with the paper's defaults.
    #[must_use]
    pub fn new() -> Self {
        Self {
            config: TwlConfig {
                toss_up_interval: 32,
                inter_pair_swap_interval: 128,
                pairing: PairingStrategy::StrongWeak,
                optimized_swap: true,
                dynamic_endurance: false,
                rng_seed: 0x7055_5057,
                rng_latency: 4,
                control_latency: 5,
                table_latency: 10,
            },
        }
    }

    /// Sets the toss-up interval (writes per page between tosses).
    pub fn toss_up_interval(&mut self, writes: u64) -> &mut Self {
        self.config.toss_up_interval = writes;
        self
    }

    /// Sets the inter-pair swap interval (global writes between swaps).
    pub fn inter_pair_swap_interval(&mut self, writes: u64) -> &mut Self {
        self.config.inter_pair_swap_interval = writes;
        self
    }

    /// Sets the pairing strategy.
    pub fn pairing(&mut self, pairing: PairingStrategy) -> &mut Self {
        self.config.pairing = pairing;
        self
    }

    /// Enables/disables the optimized two-write swap.
    pub fn optimized_swap(&mut self, enabled: bool) -> &mut Self {
        self.config.optimized_swap = enabled;
        self
    }

    /// Enables tossing on remaining (dynamic) endurance.
    pub fn dynamic_endurance(&mut self, enabled: bool) -> &mut Self {
        self.config.dynamic_endurance = enabled;
        self
    }

    /// Sets the RNG seed.
    pub fn rng_seed(&mut self, seed: u64) -> &mut Self {
        self.config.rng_seed = seed;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`TwlConfigError`] if either interval is zero.
    pub fn build(&self) -> Result<TwlConfig, TwlConfigError> {
        if self.config.toss_up_interval == 0 {
            return Err(TwlConfigError("toss-up interval must be positive".into()));
        }
        if self.config.inter_pair_swap_interval == 0 {
            return Err(TwlConfigError(
                "inter-pair swap interval must be positive".into(),
            ));
        }
        Ok(self.config.clone())
    }
}

impl Default for TwlConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table1() {
        let c = TwlConfig::dac17();
        assert_eq!(c.toss_up_interval, 32);
        assert_eq!(c.inter_pair_swap_interval, 128);
        assert_eq!(c.pairing, PairingStrategy::StrongWeak);
        assert!(c.optimized_swap);
        assert!(!c.dynamic_endurance);
        assert_eq!(c.rng_latency, 4);
        assert_eq!(c.control_latency, 5);
        assert_eq!(c.table_latency, 10);
    }

    #[test]
    fn latencies_compose() {
        let c = TwlConfig::dac17();
        assert_eq!(c.base_write_latency(), 25);
        assert_eq!(c.toss_write_latency(), 29);
    }

    #[test]
    fn zero_intervals_rejected() {
        assert!(TwlConfig::builder().toss_up_interval(0).build().is_err());
        assert!(TwlConfig::builder()
            .inter_pair_swap_interval(0)
            .build()
            .is_err());
    }

    #[test]
    fn adjacent_preset() {
        assert_eq!(
            TwlConfig::dac17_adjacent().pairing,
            PairingStrategy::Adjacent
        );
    }
}
