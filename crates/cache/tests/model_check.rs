//! Model-checking property test: the set-associative cache must agree
//! with a trivially-correct reference implementation on every access of
//! arbitrary traces.

#![forbid(unsafe_code)]

use proptest::prelude::*;
use std::collections::HashMap;
use twl_cache::{Cache, CacheConfig};

/// A deliberately naive reference cache: per set, a vector of
/// (tag, dirty) in LRU order (front = LRU).
struct ReferenceCache {
    config: CacheConfig,
    sets: HashMap<u64, Vec<(u64, bool)>>,
}

impl ReferenceCache {
    fn new(config: CacheConfig) -> Self {
        Self {
            config,
            sets: HashMap::new(),
        }
    }

    fn set_and_tag(&self, addr: u64) -> (u64, u64) {
        let line = addr / self.config.line_bytes;
        (line % self.config.sets(), line / self.config.sets())
    }

    /// Returns (hit, writeback address).
    fn access(&mut self, addr: u64, is_write: bool) -> (bool, Option<u64>) {
        let (set, tag) = self.set_and_tag(addr);
        let ways = self.sets.entry(set).or_default();
        if let Some(pos) = ways.iter().position(|&(t, _)| t == tag) {
            let (t, dirty) = ways.remove(pos);
            ways.push((t, dirty || is_write));
            return (true, None);
        }
        let mut writeback = None;
        if ways.len() == self.config.ways as usize {
            let (victim_tag, dirty) = ways.remove(0);
            if dirty {
                writeback = Some((victim_tag * self.config.sets() + set) * self.config.line_bytes);
            }
        }
        ways.push((tag, is_write));
        (false, writeback)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cache_matches_reference_model(
        accesses in proptest::collection::vec((0u64..4096, any::<bool>()), 1..600),
        ways in 1u32..4,
    ) {
        let config = CacheConfig {
            size_bytes: 64 * u64::from(ways) * 8, // 8 sets
            ways,
            line_bytes: 64,
        };
        prop_assume!(config.is_valid());
        let mut dut = Cache::new(&config);
        let mut reference = ReferenceCache::new(config);
        for &(word, is_write) in &accesses {
            let addr = word * 8; // 8-byte word addresses
            let expected = reference.access(addr, is_write);
            let actual = dut.access(addr, is_write);
            prop_assert_eq!(actual.hit, expected.0, "hit mismatch at {}", addr);
            prop_assert_eq!(actual.writeback, expected.1, "writeback mismatch at {}", addr);
            if !actual.hit {
                prop_assert_eq!(actual.fill, Some(addr & !63), "fill must fetch the line");
            }
        }
    }

    #[test]
    fn flush_agrees_with_dirty_state(
        accesses in proptest::collection::vec((0u64..1024, any::<bool>()), 1..300),
    ) {
        let config = CacheConfig {
            size_bytes: 1024,
            ways: 2,
            line_bytes: 64,
        };
        let mut dut = Cache::new(&config);
        let mut reference = ReferenceCache::new(config);
        for &(word, is_write) in &accesses {
            let addr = word * 8;
            reference.access(addr, is_write);
            dut.access(addr, is_write);
        }
        let mut flushed = dut.flush();
        flushed.sort_unstable();
        let mut expected: Vec<u64> = reference
            .sets
            .iter()
            .flat_map(|(&set, ways)| {
                ways.iter().filter(|&&(_, d)| d).map(move |&(tag, _)| {
                    (tag * config.sets() + set) * config.line_bytes
                })
            })
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(flushed, expected);
    }
}
