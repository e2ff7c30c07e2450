//! Address-mapping and counter tables (RT, WNT/WCT of the paper).

use twl_pcm::{table, LogicalPageAddr, PhysicalPageAddr};

/// The remapping table (RT): a bijection between logical and physical
/// page addresses with a maintained inverse.
///
/// Every scheme in the paper keeps this table (Fig. 1, Fig. 5). The
/// inverse map makes page swaps O(1) and lets tests assert the core
/// invariant — *the mapping is a permutation at all times* — cheaply.
///
/// Both directions hold `u32` page indices, so a table covers at most
/// 2³² pages; the paper's 8,388,608-page device needs 23 bits per entry
/// ([`RemappingTable::entry_bits`]).
///
/// # Examples
///
/// ```
/// use twl_pcm::{LogicalPageAddr, PhysicalPageAddr};
/// use twl_wl_core::RemappingTable;
///
/// let mut rt = RemappingTable::identity(8);
/// rt.swap_physical(PhysicalPageAddr::new(0), PhysicalPageAddr::new(5));
/// assert_eq!(rt.translate(LogicalPageAddr::new(0)).index(), 5);
/// assert_eq!(rt.translate(LogicalPageAddr::new(5)).index(), 0);
/// assert!(rt.is_bijective());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemappingTable {
    forward: Vec<u32>,
    inverse: Vec<u32>,
}

impl RemappingTable {
    /// Creates the identity mapping over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0` or `pages > 2³²`.
    #[must_use]
    pub fn identity(pages: u64) -> Self {
        assert!(pages > 0, "remapping table cannot be empty");
        let last = u32::try_from(pages - 1).expect("remapping table indexes pages with u32");
        Self {
            forward: table::collected(pages as usize, 0..=last),
            inverse: table::collected(pages as usize, 0..=last),
        }
    }

    /// Number of pages.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.forward.len() as u64
    }

    /// Whether the table is empty (never true — construction forbids it).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.forward.is_empty()
    }

    /// Logical → physical translation.
    ///
    /// # Panics
    ///
    /// Panics if `la` is out of range.
    #[must_use]
    pub fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        PhysicalPageAddr::new(u64::from(self.forward[la.as_usize()]))
    }

    /// Physical → logical reverse translation.
    ///
    /// # Panics
    ///
    /// Panics if `pa` is out of range.
    #[must_use]
    pub fn reverse(&self, pa: PhysicalPageAddr) -> LogicalPageAddr {
        LogicalPageAddr::new(u64::from(self.inverse[pa.as_usize()]))
    }

    /// Swaps the logical contents of two physical pages: whatever logical
    /// addresses mapped to `a` and `b` now map to `b` and `a`.
    ///
    /// This is the primitive behind every data migration: after the
    /// device copies page contents, the table swap makes it architectural.
    ///
    /// # Panics
    ///
    /// Panics if either address is out of range.
    pub fn swap_physical(&mut self, a: PhysicalPageAddr, b: PhysicalPageAddr) {
        // `forward[inverse[x]] == x` holds for every frame `x`, so
        // swapping the two logical pages' entries points each at the
        // other frame.
        let la_a = self.inverse[a.as_usize()] as usize;
        let la_b = self.inverse[b.as_usize()] as usize;
        self.forward.swap(la_a, la_b);
        self.inverse.swap(a.as_usize(), b.as_usize());
    }

    /// Swaps the physical frames of two logical pages.
    ///
    /// # Panics
    ///
    /// Panics if either address is out of range.
    pub fn swap_logical(&mut self, a: LogicalPageAddr, b: LogicalPageAddr) {
        let pa_a = self.translate(a);
        let pa_b = self.translate(b);
        self.swap_physical(pa_a, pa_b);
    }

    /// Verifies the permutation invariant (O(n); for tests/debugging).
    #[must_use]
    pub fn is_bijective(&self) -> bool {
        self.forward
            .iter()
            .enumerate()
            .all(|(la, &pa)| self.inverse.get(pa as usize).map(|&l| l as usize) == Some(la))
    }

    /// Bits per entry for the hardware-overhead model: ⌈log₂ pages⌉.
    #[must_use]
    pub fn entry_bits(&self) -> u32 {
        u64::BITS - (self.len() - 1).leading_zeros()
    }
}

/// A per-logical-page write counter table (the WNT of wear-rate leveling
/// and the WCT of TWL).
///
/// # Examples
///
/// ```
/// use twl_pcm::LogicalPageAddr;
/// use twl_wl_core::WriteCounterTable;
///
/// let mut wct = WriteCounterTable::new(4);
/// let la = LogicalPageAddr::new(2);
/// assert_eq!(wct.increment(la), 1);
/// assert_eq!(wct.count(la), 1);
/// wct.reset_all();
/// assert_eq!(wct.count(la), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteCounterTable {
    counts: Vec<u64>,
}

impl WriteCounterTable {
    /// Creates a zeroed table over `pages` pages.
    #[must_use]
    pub fn new(pages: u64) -> Self {
        Self {
            counts: table::filled(pages as usize, 0),
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.counts.len() as u64
    }

    /// Whether the table has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Increments a logical page's counter, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `la` is out of range.
    pub fn increment(&mut self, la: LogicalPageAddr) -> u64 {
        self.add(la, 1)
    }

    /// Adds `n` to a logical page's counter in O(1), returning the new
    /// value — equivalent to `n` [`WriteCounterTable::increment`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `la` is out of range.
    pub fn add(&mut self, la: LogicalPageAddr, n: u64) -> u64 {
        let c = &mut self.counts[la.as_usize()];
        *c += n;
        *c
    }

    /// Current count for a logical page.
    ///
    /// # Panics
    ///
    /// Panics if `la` is out of range.
    #[must_use]
    pub fn count(&self, la: LogicalPageAddr) -> u64 {
        self.counts[la.as_usize()]
    }

    /// Resets one counter.
    ///
    /// # Panics
    ///
    /// Panics if `la` is out of range.
    pub fn reset(&mut self, la: LogicalPageAddr) {
        self.counts[la.as_usize()] = 0;
    }

    /// Zeroes every counter (start of a new prediction epoch).
    pub fn reset_all(&mut self) {
        self.counts.fill(0);
    }

    /// Logical addresses sorted by descending count (hottest first).
    #[must_use]
    pub fn hottest_first(&self) -> Vec<LogicalPageAddr> {
        let mut order: Vec<usize> = (0..self.counts.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse((self.counts[i], i as u64)));
        order
            .into_iter()
            .map(|i| LogicalPageAddr::new(i as u64))
            .collect()
    }

    /// Raw counters, indexed by logical page.
    #[must_use]
    pub fn as_slice(&self) -> &[u64] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_translates_to_self() {
        let rt = RemappingTable::identity(16);
        for i in 0..16 {
            assert_eq!(rt.translate(LogicalPageAddr::new(i)).index(), i);
            assert_eq!(rt.reverse(PhysicalPageAddr::new(i)).index(), i);
        }
        assert!(rt.is_bijective());
    }

    #[test]
    fn swap_physical_maintains_inverse() {
        let mut rt = RemappingTable::identity(8);
        rt.swap_physical(PhysicalPageAddr::new(1), PhysicalPageAddr::new(6));
        rt.swap_physical(PhysicalPageAddr::new(6), PhysicalPageAddr::new(3));
        assert!(rt.is_bijective());
        // LA1 -> PA6 -> PA3 chain.
        assert_eq!(rt.translate(LogicalPageAddr::new(1)).index(), 3);
        assert_eq!(rt.reverse(PhysicalPageAddr::new(3)).index(), 1);
    }

    #[test]
    fn swap_logical_swaps_frames() {
        let mut rt = RemappingTable::identity(8);
        rt.swap_logical(LogicalPageAddr::new(0), LogicalPageAddr::new(7));
        assert_eq!(rt.translate(LogicalPageAddr::new(0)).index(), 7);
        assert_eq!(rt.translate(LogicalPageAddr::new(7)).index(), 0);
        assert!(rt.is_bijective());
    }

    #[test]
    fn self_swap_is_identity() {
        let mut rt = RemappingTable::identity(4);
        rt.swap_physical(PhysicalPageAddr::new(2), PhysicalPageAddr::new(2));
        assert!(rt.is_bijective());
        assert_eq!(rt.translate(LogicalPageAddr::new(2)).index(), 2);
    }

    #[test]
    fn entry_bits_rounds_up() {
        assert_eq!(RemappingTable::identity(2).entry_bits(), 1);
        assert_eq!(RemappingTable::identity(8).entry_bits(), 3);
        assert_eq!(RemappingTable::identity(9).entry_bits(), 4);
        assert_eq!(RemappingTable::identity(8_388_608).entry_bits(), 23);
    }

    #[test]
    fn counters_track_and_sort() {
        let mut wct = WriteCounterTable::new(4);
        for _ in 0..5 {
            wct.increment(LogicalPageAddr::new(2));
        }
        wct.increment(LogicalPageAddr::new(0));
        let order = wct.hottest_first();
        assert_eq!(order[0].index(), 2);
        assert_eq!(order[1].index(), 0);
        wct.reset(LogicalPageAddr::new(2));
        assert_eq!(wct.count(LogicalPageAddr::new(2)), 0);
        assert_eq!(wct.count(LogicalPageAddr::new(0)), 1);
    }

    #[test]
    fn bulk_add_matches_repeated_increment() {
        let mut bulk = WriteCounterTable::new(4);
        let mut seq = WriteCounterTable::new(4);
        let la = LogicalPageAddr::new(3);
        assert_eq!(bulk.add(la, 5), 5);
        for _ in 0..5 {
            seq.increment(la);
        }
        assert_eq!(bulk, seq);
        assert_eq!(bulk.add(la, 0), 5, "adding zero is a no-op");
    }

    #[test]
    #[should_panic(expected = "remapping table cannot be empty")]
    fn empty_table_panics() {
        let _ = RemappingTable::identity(0);
    }
}
