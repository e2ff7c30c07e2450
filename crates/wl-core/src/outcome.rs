//! Per-request outcomes returned by wear-leveling schemes.

use twl_pcm::PhysicalPageAddr;

/// Result of servicing one logical write through a wear-leveling scheme.
///
/// Besides the physical landing address, the outcome carries the cost
/// model the rest of the stack consumes:
///
/// * `device_writes` — how many PCM page writes the request actually
///   caused (1 for a plain write; 2 for TWL's optimized swap-then-write;
///   more for epoch-style bulk swaps).
/// * `engine_cycles` — pipeline latency added by the scheme's tables and
///   logic on the request path (Table 1: RNG 4, control 5, tables 10).
/// * `blocking_cycles` — time the memory was blocked migrating pages.
///   This is what the attacker can observe with `rdtsc`-style timing and
///   uses to detect swap phases (§3.2, footnote 1).
///
/// # Examples
///
/// ```
/// use twl_pcm::PhysicalPageAddr;
/// use twl_wl_core::WriteOutcome;
///
/// let outcome = WriteOutcome::plain(PhysicalPageAddr::new(7));
/// assert_eq!(outcome.device_writes, 1);
/// assert!(!outcome.swapped);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Physical page that received the logical data.
    pub pa: PhysicalPageAddr,
    /// Total device page writes performed servicing this request.
    pub device_writes: u32,
    /// Whether any page migration/swap happened.
    pub swapped: bool,
    /// Scheme-logic latency added to the request, in cycles.
    pub engine_cycles: u64,
    /// Cycles the memory was blocked by migrations (attacker-visible).
    pub blocking_cycles: u64,
}

impl WriteOutcome {
    /// A plain one-page write with no scheme overhead.
    #[must_use]
    pub fn plain(pa: PhysicalPageAddr) -> Self {
        Self {
            pa,
            device_writes: 1,
            swapped: false,
            engine_cycles: 0,
            blocking_cycles: 0,
        }
    }

    /// Extra device writes beyond the one the program asked for.
    #[must_use]
    pub fn overhead_writes(&self) -> u32 {
        self.device_writes.saturating_sub(1)
    }
}

/// Result of servicing a batch of identical logical writes
/// (`WearLeveler::write_batch`).
///
/// A batch is observably equivalent to `serviced` (+1 on failure)
/// sequential `write` calls: `serviced` counts the writes that fully
/// completed, `last` is the outcome the final completed write produced
/// (the timing side channel consumes this once per event rather than
/// once per write — plain stretches between events all share one
/// outcome), and `failure` is the error the `serviced + 1`-th write hit,
/// if any.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BatchOutcome {
    /// Logical writes that completed.
    pub serviced: u64,
    /// Outcome of the last completed write (`None` iff `serviced == 0`).
    pub last: Option<WriteOutcome>,
    /// Error that stopped the batch early, if any.
    pub failure: Option<twl_pcm::PcmError>,
}

/// Result of servicing one logical read.
///
/// Reads never wear PCM; the outcome only reports where the data lives
/// and the table-lookup latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Physical page the data was read from.
    pub pa: PhysicalPageAddr,
    /// Scheme-logic latency added to the request, in cycles.
    pub engine_cycles: u64,
}

impl ReadOutcome {
    /// A read with no scheme overhead.
    #[must_use]
    pub fn plain(pa: PhysicalPageAddr) -> Self {
        Self {
            pa,
            engine_cycles: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_write_has_no_overhead() {
        let o = WriteOutcome::plain(PhysicalPageAddr::new(0));
        assert_eq!(o.overhead_writes(), 0);
        assert_eq!(o.blocking_cycles, 0);
    }

    #[test]
    fn overhead_counts_extra_writes() {
        let mut o = WriteOutcome::plain(PhysicalPageAddr::new(0));
        o.device_writes = 3;
        o.swapped = true;
        assert_eq!(o.overhead_writes(), 2);
    }

    #[test]
    fn read_outcome_plain() {
        let r = ReadOutcome::plain(PhysicalPageAddr::new(9));
        assert_eq!(r.pa.index(), 9);
        assert_eq!(r.engine_cycles, 0);
    }
}
