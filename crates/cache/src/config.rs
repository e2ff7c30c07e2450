//! Cache-level configuration.

/// Geometry of one cache level.
///
/// # Examples
///
/// ```
/// use twl_cache::CacheConfig;
///
/// let l2 = CacheConfig::l2_dac17();
/// assert_eq!(l2.sets(), 2 * 1024 * 1024 / 128 / 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: u32,
    /// Line size in bytes (power of two).
    pub line_bytes: u64,
}

impl CacheConfig {
    /// Table 1's data L1: 32 KB, 2-way, 64-byte lines.
    #[must_use]
    pub const fn l1_dac17() -> Self {
        Self {
            size_bytes: 32 * 1024,
            ways: 2,
            line_bytes: 64,
        }
    }

    /// Table 1's shared L2: 2 MB, 8-way, 128-byte lines.
    #[must_use]
    pub const fn l2_dac17() -> Self {
        Self {
            size_bytes: 2 * 1024 * 1024,
            ways: 8,
            line_bytes: 128,
        }
    }

    /// Number of sets.
    ///
    /// # Panics
    ///
    /// Panics (in [`Cache::new`](crate::Cache::new)) if the geometry is
    /// inconsistent; here a plain division.
    #[must_use]
    pub const fn sets(&self) -> u64 {
        self.size_bytes / self.line_bytes / self.ways as u64
    }

    /// Validates the geometry: positive power-of-two line size, at
    /// least one way, and a power-of-two set count.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.line_bytes > 0
            && self.line_bytes.is_power_of_two()
            && self.ways > 0
            && self.size_bytes > 0
            && self
                .size_bytes
                .is_multiple_of(self.line_bytes * self.ways as u64)
            && self.sets() > 0
            && self.sets().is_power_of_two()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_geometries_are_valid() {
        assert!(CacheConfig::l1_dac17().is_valid());
        assert!(CacheConfig::l2_dac17().is_valid());
        assert_eq!(CacheConfig::l1_dac17().sets(), 256);
        assert_eq!(CacheConfig::l2_dac17().sets(), 2048);
    }

    #[test]
    fn bad_geometries_are_rejected() {
        let mut c = CacheConfig::l1_dac17();
        c.line_bytes = 100;
        assert!(!c.is_valid());
        c = CacheConfig::l1_dac17();
        c.ways = 0;
        assert!(!c.is_valid());
        c = CacheConfig::l1_dac17();
        c.size_bytes = 3000;
        assert!(!c.is_valid());
    }
}
