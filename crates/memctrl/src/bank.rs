//! Bank-level device occupancy.

use twl_pcm::PhysicalPageAddr;

/// Tracks per-bank busy times of the PCM array.
///
/// Pages are interleaved across banks by low address bits (page *p*
/// lives in bank `p mod banks`, Table 1's 32-bank layout). A request to
/// a busy bank waits for it; requests to distinct banks overlap. A
/// *blocking* operation (bulk migration that must appear atomic to the
/// memory) seizes every bank.
///
/// # Examples
///
/// ```
/// use twl_memctrl::BankArray;
/// use twl_pcm::PhysicalPageAddr;
///
/// let mut banks = BankArray::new(4);
/// let done_a = banks.occupy(PhysicalPageAddr::new(0), 0.0, 100.0);
/// let done_b = banks.occupy(PhysicalPageAddr::new(1), 0.0, 100.0);
/// assert_eq!(done_a, 100.0);
/// assert_eq!(done_b, 100.0, "different banks overlap");
/// let done_c = banks.occupy(PhysicalPageAddr::new(4), 0.0, 100.0);
/// assert_eq!(done_c, 200.0, "same bank as A serializes");
/// ```
#[derive(Debug, Clone)]
pub struct BankArray {
    busy_until: Vec<f64>,
}

impl BankArray {
    /// Creates an idle array of `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics if `banks == 0`.
    #[must_use]
    pub fn new(banks: u32) -> Self {
        assert!(banks > 0, "need at least one bank");
        Self {
            busy_until: vec![0.0; banks as usize],
        }
    }

    fn bank_of(&self, pa: PhysicalPageAddr) -> usize {
        (pa.index() % self.busy_until.len() as u64) as usize
    }

    /// Schedules an access to `pa`'s bank starting no earlier than
    /// `now` and lasting `duration` cycles; returns the completion time.
    pub fn occupy(&mut self, pa: PhysicalPageAddr, now: f64, duration: f64) -> f64 {
        let bank = self.bank_of(pa);
        let start = now.max(self.busy_until[bank]);
        self.busy_until[bank] = start + duration;
        self.busy_until[bank]
    }

    /// Seizes every bank for `duration` cycles starting no earlier than
    /// `now` (atomic bulk migration); returns the completion time.
    pub fn occupy_all(&mut self, now: f64, duration: f64) -> f64 {
        twl_telemetry::counter!("twl.memctrl.full_blockings").inc();
        let start = self.busy_until.iter().fold(now, |acc, &b| acc.max(b));
        let end = start + duration;
        for b in &mut self.busy_until {
            *b = end;
        }
        end
    }

    /// Earliest time every bank is idle.
    #[must_use]
    pub fn all_idle_at(&self) -> f64 {
        self.busy_until.iter().fold(0.0, |acc, &b| acc.max(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleaving_maps_by_low_bits() {
        let banks = BankArray::new(8);
        assert_eq!(banks.bank_of(PhysicalPageAddr::new(13)), 5);
        assert_eq!(banks.bank_of(PhysicalPageAddr::new(21)), 5);
    }

    #[test]
    fn same_bank_serializes_different_banks_overlap() {
        let mut banks = BankArray::new(2);
        let a = banks.occupy(PhysicalPageAddr::new(0), 0.0, 50.0);
        let b = banks.occupy(PhysicalPageAddr::new(2), 0.0, 50.0);
        let c = banks.occupy(PhysicalPageAddr::new(1), 0.0, 50.0);
        assert_eq!(a, 50.0);
        assert_eq!(b, 100.0);
        assert_eq!(c, 50.0);
    }

    #[test]
    fn occupy_all_waits_for_stragglers() {
        let mut banks = BankArray::new(4);
        banks.occupy(PhysicalPageAddr::new(3), 0.0, 500.0);
        let end = banks.occupy_all(100.0, 10.0);
        assert_eq!(end, 510.0);
        // Everything after the atomic op starts at its end.
        let next = banks.occupy(PhysicalPageAddr::new(0), 0.0, 1.0);
        assert_eq!(next, 511.0);
    }

    #[test]
    fn idle_array_starts_at_zero() {
        let banks = BankArray::new(3);
        assert_eq!(banks.all_idle_at(), 0.0);
    }
}
