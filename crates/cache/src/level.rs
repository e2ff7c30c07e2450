//! One set-associative, write-back, write-allocate cache level.

use crate::CacheConfig;

/// A cache way: the line's tag, dirty bit, and LRU timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    last_used: u64,
}

impl Way {
    const EMPTY: Way = Way {
        tag: 0,
        valid: false,
        dirty: false,
        last_used: 0,
    };
}

/// Outcome of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// Whether the line was present.
    pub hit: bool,
    /// Byte address of a dirty line evicted to make room (the traffic
    /// the next level down sees as a write).
    pub writeback: Option<u64>,
    /// Byte address of the line fetched on a miss (the traffic the next
    /// level down sees as a read).
    pub fill: Option<u64>,
}

/// Running hit/miss/write-back counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that hit.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Dirty evictions emitted.
    pub writebacks: u64,
}

impl CacheStats {
    /// Hit rate over all accesses (0 when never accessed).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache with LRU
/// replacement.
///
/// # Examples
///
/// ```
/// use twl_cache::{Cache, CacheConfig};
///
/// let mut cache = Cache::new(&CacheConfig::l1_dac17());
/// let miss = cache.access(0x40, true);
/// assert!(!miss.hit);
/// assert_eq!(miss.fill, Some(0x40));
/// let hit = cache.access(0x40, false);
/// assert!(hit.hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    sets: Vec<Way>,
    clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration geometry is invalid (see
    /// [`CacheConfig::is_valid`]).
    #[must_use]
    pub fn new(config: &CacheConfig) -> Self {
        assert!(config.is_valid(), "invalid cache geometry: {config:?}");
        let entries = (config.sets() * u64::from(config.ways)) as usize;
        Self {
            config: *config,
            sets: vec![Way::EMPTY; entries],
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The cache geometry.
    #[must_use]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_index(&self, addr: u64) -> u64 {
        (addr / self.config.line_bytes) & (self.config.sets() - 1)
    }

    fn tag(&self, addr: u64) -> u64 {
        addr / self.config.line_bytes / self.config.sets()
    }

    fn line_base(&self, set: u64, tag: u64) -> u64 {
        (tag * self.config.sets() + set) * self.config.line_bytes
    }

    /// Accesses the byte address; `is_write` marks the line dirty.
    ///
    /// On a miss, the least-recently-used way is evicted (reported in
    /// [`AccessResult::writeback`] when dirty) and the line is filled
    /// (write-allocate, reported in [`AccessResult::fill`]).
    pub fn access(&mut self, addr: u64, is_write: bool) -> AccessResult {
        self.clock += 1;
        let set = self.set_index(addr);
        let tag = self.tag(addr);
        let ways = self.config.ways as usize;
        let base = set as usize * ways;
        let slots = &mut self.sets[base..base + ways];

        // Hit path.
        if let Some(way) = slots.iter_mut().find(|w| w.valid && w.tag == tag) {
            way.last_used = self.clock;
            way.dirty |= is_write;
            self.stats.hits += 1;
            return AccessResult {
                hit: true,
                writeback: None,
                fill: None,
            };
        }

        // Miss: evict LRU (prefer invalid ways).
        self.stats.misses += 1;
        let victim = slots
            .iter_mut()
            .min_by_key(|w| if w.valid { w.last_used + 1 } else { 0 })
            .expect("ways > 0");
        let writeback = (victim.valid && victim.dirty).then(|| {
            let evicted_tag = victim.tag;
            self.stats.writebacks += 1;
            (evicted_tag * self.config.sets() + set) * self.config.line_bytes
        });
        *victim = Way {
            tag,
            valid: true,
            dirty: is_write,
            last_used: self.clock,
        };
        AccessResult {
            hit: false,
            writeback,
            fill: Some(self.line_base(set, tag)),
        }
    }

    /// Flushes every dirty line, returning their byte addresses (used
    /// at end-of-trace to account outstanding write traffic).
    pub fn flush(&mut self) -> Vec<u64> {
        let sets = self.config.sets();
        let ways = self.config.ways as usize;
        let line = self.config.line_bytes;
        let mut out = Vec::new();
        for set in 0..sets {
            for w in &mut self.sets[set as usize * ways..(set as usize + 1) * ways] {
                if w.valid && w.dirty {
                    out.push((w.tag * sets + set) * line);
                    w.dirty = false;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512 B.
        Cache::new(&CacheConfig {
            size_bytes: 512,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn address_decomposition_roundtrips() {
        let cache = tiny();
        for addr in [0u64, 64, 4096, 123_456 & !63] {
            let set = cache.set_index(addr);
            let tag = cache.tag(addr);
            assert_eq!(cache.line_base(set, tag), addr & !63);
        }
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut cache = tiny();
        // Three lines mapping to set 0: addresses 0, 256, 512 (4 sets x 64B stride = 256).
        cache.access(0, false);
        cache.access(256, false);
        cache.access(0, false); // touch 0 again -> 256 is LRU
        let res = cache.access(512, false);
        assert!(!res.hit);
        // 256 evicted (clean -> no writeback); 0 still resident.
        assert!(res.writeback.is_none());
        assert!(cache.access(0, false).hit);
        assert!(!cache.access(256, false).hit);
    }

    #[test]
    fn dirty_eviction_emits_writeback_with_correct_address() {
        let mut cache = tiny();
        cache.access(256, true); // dirty line in set 0
        cache.access(0, false);
        let res = cache.access(512, false); // evicts 256
        assert_eq!(res.writeback, Some(256));
    }

    #[test]
    fn clean_eviction_is_silent() {
        let mut cache = tiny();
        cache.access(256, false);
        cache.access(0, false);
        let res = cache.access(512, false);
        assert!(res.writeback.is_none());
        assert_eq!(cache.stats().writebacks, 0);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut cache = tiny();
        cache.access(0, false); // clean fill
        cache.access(0, true); // dirty it via a hit
        cache.access(256, false);
        let res = cache.access(512, false); // evict LRU = 0
        assert_eq!(res.writeback, Some(0));
    }

    #[test]
    fn flush_returns_all_dirty_lines_once() {
        let mut cache = tiny();
        cache.access(0, true);
        cache.access(64, true);
        cache.access(128, false);
        let mut flushed = cache.flush();
        flushed.sort_unstable();
        assert_eq!(flushed, vec![0, 64]);
        assert!(cache.flush().is_empty(), "second flush is a no-op");
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut cache = Cache::new(&CacheConfig::l1_dac17());
        for round in 0..10u64 {
            for line in 0..64u64 {
                cache.access(line * 64, line % 2 == 0);
            }
            if round == 0 {
                assert_eq!(cache.stats().misses, 64);
            }
        }
        // 64 lines of 64B = 4 KB fits easily in 32 KB: all later rounds hit.
        assert_eq!(cache.stats().misses, 64);
        assert_eq!(cache.stats().hits, 9 * 64);
        assert!(cache.stats().hit_rate() > 0.89);
    }
}
