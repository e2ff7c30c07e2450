//! The L1 → L2 → PCM stack.

use crate::{Cache, CacheConfig, CacheStats};
use twl_pcm::LogicalPageAddr;
use twl_workloads::MemCmd;

/// Aggregate statistics of a hierarchy run.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HierarchyStats {
    /// L1 counters.
    pub l1: CacheStats,
    /// L2 counters.
    pub l2: CacheStats,
    /// Program accesses fed in.
    pub cpu_accesses: u64,
    /// Page-granularity commands emitted towards the PCM.
    pub memory_commands: u64,
}

impl HierarchyStats {
    /// Fraction of CPU accesses that reached memory (lower = better
    /// filtering).
    #[must_use]
    pub fn memory_traffic_ratio(&self) -> f64 {
        if self.cpu_accesses == 0 {
            0.0
        } else {
            self.memory_commands as f64 / self.cpu_accesses as f64
        }
    }
}

/// A two-level write-back cache hierarchy that converts byte-address
/// program accesses into page-granularity PCM commands.
///
/// L1 misses fill from L2; L1 dirty evictions write into L2; L2 misses
/// and dirty evictions become PCM reads and writes (at the page
/// granularity the wear-leveling layer operates on, per §4.4).
///
/// # Examples
///
/// ```
/// use twl_cache::CacheHierarchy;
///
/// let mut hierarchy = CacheHierarchy::dac17(4096);
/// let to_memory = hierarchy.access(0xABCD, true);
/// // A cold write misses both levels: one page read (fill) reaches PCM.
/// assert_eq!(to_memory.len(), 1);
/// assert!(!to_memory[0].is_write());
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Cache,
    l2: Cache,
    page_bytes: u64,
    stats: HierarchyStats,
}

impl CacheHierarchy {
    /// Builds the Table 1 hierarchy over pages of `page_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two at least as large
    /// as the L2 line.
    #[must_use]
    pub fn dac17(page_bytes: u64) -> Self {
        Self::new(
            &CacheConfig::l1_dac17(),
            &CacheConfig::l2_dac17(),
            page_bytes,
        )
    }

    /// Builds a hierarchy from explicit level configurations.
    ///
    /// # Panics
    ///
    /// Panics if either geometry is invalid or `page_bytes` is not a
    /// power of two ≥ the L2 line size.
    #[must_use]
    pub fn new(l1: &CacheConfig, l2: &CacheConfig, page_bytes: u64) -> Self {
        assert!(
            page_bytes.is_power_of_two() && page_bytes >= l2.line_bytes,
            "page must be a power of two at least one L2 line"
        );
        Self {
            l1: Cache::new(l1),
            l2: Cache::new(l2),
            page_bytes,
            stats: HierarchyStats::default(),
        }
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        let mut s = self.stats;
        s.l1 = self.l1.stats();
        s.l2 = self.l2.stats();
        s
    }

    fn page_of(&self, addr: u64) -> LogicalPageAddr {
        LogicalPageAddr::new(addr / self.page_bytes)
    }

    /// Feeds one program access; returns the PCM commands it caused
    /// (possibly none on cache hits).
    pub fn access(&mut self, addr: u64, is_write: bool) -> Vec<MemCmd> {
        self.stats.cpu_accesses += 1;
        let mut to_memory = Vec::new();

        let l1_result = self.l1.access(addr, is_write);
        // L1 dirty evictions are writes into L2.
        if let Some(wb) = l1_result.writeback {
            if let Some(l2_wb) = self.l2.access(wb, true).writeback {
                to_memory.push(MemCmd::write(self.page_of(l2_wb)));
            }
        }
        // L1 fills read through L2.
        if let Some(fill) = l1_result.fill {
            let l2_result = self.l2.access(fill, false);
            if let Some(l2_wb) = l2_result.writeback {
                to_memory.push(MemCmd::write(self.page_of(l2_wb)));
            }
            if l2_result.fill.is_some() {
                to_memory.push(MemCmd::read(self.page_of(fill)));
            }
        }

        self.stats.memory_commands += to_memory.len() as u64;
        to_memory
    }

    /// Flushes both levels, returning the final write traffic.
    pub fn flush(&mut self) -> Vec<MemCmd> {
        let mut to_memory = Vec::new();
        for wb in self.l1.flush() {
            if let Some(l2_wb) = self.l2.access(wb, true).writeback {
                to_memory.push(MemCmd::write(self.page_of(l2_wb)));
            }
        }
        for wb in self.l2.flush() {
            to_memory.push(MemCmd::write(self.page_of(wb)));
        }
        self.stats.memory_commands += to_memory.len() as u64;
        to_memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CacheHierarchy {
        CacheHierarchy::new(
            &CacheConfig {
                size_bytes: 512,
                ways: 2,
                line_bytes: 64,
            },
            &CacheConfig {
                size_bytes: 2048,
                ways: 2,
                line_bytes: 128,
            },
            4096,
        )
    }

    #[test]
    fn hit_traffic_never_reaches_memory() {
        let mut h = tiny();
        h.access(0, true);
        for _ in 0..100 {
            assert!(h.access(0, true).is_empty(), "L1 hits stay on chip");
        }
        assert_eq!(h.stats().memory_commands, 1, "only the cold fill");
    }

    #[test]
    fn cold_miss_reads_one_page() {
        let mut h = tiny();
        let cmds = h.access(8192, false);
        assert_eq!(cmds.len(), 1);
        assert!(!cmds[0].is_write());
        assert_eq!(cmds[0].la.index(), 2);
    }

    #[test]
    fn dirty_data_eventually_writes_back_to_the_right_page() {
        let mut h = tiny();
        h.access(3 * 4096 + 256, true);
        let flushed = h.flush();
        let writes: Vec<_> = flushed.iter().filter(|c| c.is_write()).collect();
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].la.index(), 3);
    }

    #[test]
    fn write_traffic_is_filtered_versus_raw() {
        // A looping working set larger than L1 but inside L2: memory
        // sees only the cold fills, not the loop traffic.
        let mut h = tiny();
        let lines = 16u64; // 16 x 64B = 1 KB: exceeds 512B L1, fits 2KB L2
        for _ in 0..50 {
            for i in 0..lines {
                h.access(i * 64, true);
            }
        }
        let stats = h.stats();
        assert!(
            stats.memory_traffic_ratio() < 0.05,
            "ratio {}",
            stats.memory_traffic_ratio()
        );
        assert!(stats.l2.hit_rate() > 0.5);
    }

    #[test]
    fn flush_is_idempotent() {
        let mut h = tiny();
        h.access(0, true);
        let first = h.flush();
        assert!(!first.is_empty());
        assert!(h.flush().is_empty());
    }
}
