//! Device timing parameters (Table 1 of the paper).

/// PCM access latencies in CPU cycles, per Table 1 of the paper:
/// `read/set/reset latency: 250/2000/250-cycle` at 2 GHz.
///
/// A full page write is dominated by SET pulses; the memory-controller
/// model charges [`PcmTiming::write_latency`] per page-sized write and
/// [`PcmTiming::read_latency`] per read.
///
/// # Examples
///
/// ```
/// use twl_pcm::PcmTiming;
///
/// let t = PcmTiming::dac17();
/// assert_eq!(t.read_latency, 250);
/// assert_eq!(t.write_latency(), 2000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PcmTiming {
    /// Cycles to read a line/page from the array.
    pub read_latency: u64,
    /// Cycles for a SET pulse (the slow crystallization write).
    pub set_latency: u64,
    /// Cycles for a RESET pulse (fast amorphization).
    pub reset_latency: u64,
}

impl PcmTiming {
    /// The DAC'17 Table 1 configuration: 250/2000/250 cycles.
    #[must_use]
    pub const fn dac17() -> Self {
        Self {
            read_latency: 250,
            set_latency: 2000,
            reset_latency: 250,
        }
    }

    /// Effective latency of a write, bounded by the slower SET pulse.
    ///
    /// SET and RESET pulses to different bits of a line overlap in the
    /// array, so a write completes when the slowest pulse does.
    #[must_use]
    pub const fn write_latency(&self) -> u64 {
        if self.set_latency > self.reset_latency {
            self.set_latency
        } else {
            self.reset_latency
        }
    }

    /// Cycles to migrate one page to another frame: a read of the source
    /// followed by a write of the destination.
    #[must_use]
    pub const fn migrate_latency(&self) -> u64 {
        self.read_latency + self.write_latency()
    }
}

impl Default for PcmTiming {
    fn default() -> Self {
        Self::dac17()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dac17_values() {
        let t = PcmTiming::dac17();
        assert_eq!(t.set_latency, 2000);
        assert_eq!(t.reset_latency, 250);
        assert_eq!(t.write_latency(), 2000);
        assert_eq!(t.migrate_latency(), 2250);
    }

    #[test]
    fn default_is_dac17() {
        assert_eq!(PcmTiming::default(), PcmTiming::dac17());
    }

    #[test]
    fn write_latency_uses_max_pulse() {
        let t = PcmTiming {
            read_latency: 1,
            set_latency: 5,
            reset_latency: 9,
        };
        assert_eq!(t.write_latency(), 9);
    }
}
