//! The PCM device: wear accounting, fail-stop pages, and the graceful-
//! degradation substrate (redirects, spare pool, write log).
//!
//! Two wear regimes are supported, selected by [`WearPolicy`]:
//!
//! * [`WearPolicy::FailStop`] (the default, the DAC'17 methodology):
//!   a page whose wear reaches its tested endurance permanently fails
//!   its next write with [`PcmError::PageWornOut`].
//! * [`WearPolicy::Unlimited`]: writes always land and wear keeps
//!   counting past the tested endurance. This is the substrate for
//!   cell-level fault modeling (`twl-faults`), where wear-out manifests
//!   as progressive stuck-at cell-group faults absorbed by an ECP-style
//!   corrector rather than a binary page death.
//!
//! For graceful degradation the device additionally separates *slots*
//! (the stable addresses wear-leveling schemes manage) from *physical
//! pages* (the frames that actually wear). Initially the mapping is the
//! identity; [`PcmDevice::retire_page`] rebinds a slot to a page from
//! the spare pool, so schemes keep issuing the same addresses while the
//! device transparently serves them from healthy frames. The slot maps
//! are only materialized by the first retirement: until then every
//! write indexes the wear table directly, with no dependent load
//! through a page-count-sized map.

use crate::{table, EnduranceMap, PcmConfig, PcmError, PhysicalPageAddr, WearStats};

/// What happens when a page's wear reaches its tested endurance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WearPolicy {
    /// Writes past the tested endurance fail with
    /// [`PcmError::PageWornOut`] — the paper's first-wear-out lifetime
    /// methodology.
    #[default]
    FailStop,
    /// Writes always succeed and wear counts past the tested endurance;
    /// failure semantics are delegated to a cell-level fault model
    /// (see the `twl-faults` crate).
    Unlimited,
}

/// A serializable checkpoint of a device's full wear state.
///
/// Long lifetime simulations (10^8+ writes) can persist progress and
/// resume later; a snapshot restores bit-identical device behaviour.
/// The transient write log is *not* captured: a restored device starts
/// with logging disabled and an empty log.
///
/// # Examples
///
/// ```
/// use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder().pages(8).mean_endurance(100).build()?;
/// let mut device = PcmDevice::new(&config);
/// device.write_page(PhysicalPageAddr::new(1))?;
/// let snapshot = device.snapshot();
/// let restored = PcmDevice::restore(snapshot)?;
/// assert_eq!(restored.wear(PhysicalPageAddr::new(1)), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSnapshot {
    config: PcmConfig,
    endurance: EnduranceMap,
    wear: Vec<u64>,
    total_writes: u64,
    first_failure: Option<PhysicalPageAddr>,
    policy: WearPolicy,
    forward: Vec<u64>,
    back: Vec<u64>,
    retired: Vec<bool>,
    spares: Vec<u64>,
    retired_count: u64,
}

/// Outcome of a bulk page write ([`PcmDevice::write_page_n`]).
///
/// Carries how many of the requested writes landed (wear was charged)
/// and, when the batch hit the page's endurance mid-way, the exact error
/// the `landed + 1`-th per-write call would have returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BulkWrite {
    /// Writes that landed before any failure (all `n` on success).
    pub landed: u64,
    /// The wear-out the batch ran into, if any. Identical to the error
    /// a sequence of [`PcmDevice::write_page`] calls would have produced
    /// on the first failing write.
    pub failure: Option<PcmError>,
}

impl BulkWrite {
    /// Whether every requested write landed.
    #[must_use]
    pub fn complete(&self) -> bool {
        self.failure.is_none()
    }
}

/// A simulated PCM array with per-page wear accounting.
///
/// Every write to a slot increments the backing physical page's wear
/// counter; under the default [`WearPolicy::FailStop`], once the counter
/// reaches the page's (process-variation-drawn) endurance the write
/// fails with [`PcmError::PageWornOut`] and the page is permanently
/// dead. The lifetime simulator treats the first such failure as
/// end-of-life, matching the paper's methodology ("until a PCM page
/// wears out", §5.1). Under [`WearPolicy::Unlimited`] the device defers
/// end-of-life to the `twl-faults` cell-fault/retirement machinery.
///
/// # Examples
///
/// ```
/// use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = PcmConfig::builder().pages(16).mean_endurance(100).seed(1).build()?;
/// let mut device = PcmDevice::new(&config);
/// let pa = PhysicalPageAddr::new(0);
/// device.write_page(pa)?;
/// assert_eq!(device.remaining(pa), device.endurance(pa) - 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PcmDevice {
    config: PcmConfig,
    endurance: EnduranceMap,
    /// Writes absorbed by each physical page. `u32` holds any fail-stop
    /// wear, which stops at the page's `u32` endurance; under
    /// [`WearPolicy::Unlimited`] a write past `u32::MAX` fails with
    /// [`PcmError::WearOverflow`] instead of wrapping. Snapshots and
    /// [`PcmDevice::wear`] widen to `u64`.
    wear: Vec<u32>,
    total_writes: u64,
    first_failure: Option<PhysicalPageAddr>,
    policy: WearPolicy,
    /// Slot → physical page, or empty while the mapping is the
    /// identity: the first [`PcmDevice::retire_page`] builds it. Held as
    /// `u32` so the translate step touches half the cache lines;
    /// snapshots widen to `u64` (and write the identity out in full) to
    /// keep the serialized form byte-identical.
    forward: Vec<u32>,
    /// Physical page → owning slot (inverse of `forward` on live pages);
    /// empty exactly when `forward` is.
    back: Vec<u32>,
    /// Physical pages permanently taken out of service.
    retired: Vec<bool>,
    /// Physical pages reserved as replacements, popped from the end.
    spares: Vec<u64>,
    retired_count: u64,
    /// When `Some`, every physical page write is appended here.
    write_log: Option<Vec<PhysicalPageAddr>>,
}

impl PcmDevice {
    /// Creates a device, drawing the endurance map from `config`.
    ///
    /// # Panics
    ///
    /// Panics with [`EnduranceMap::generate`]'s error if a page's draw
    /// exceeds `u32::MAX`, which a config that
    /// [`crate::PcmConfigBuilder::build`] accepted never does.
    #[must_use]
    pub fn new(config: &PcmConfig) -> Self {
        let endurance = EnduranceMap::generate(config).unwrap_or_else(|e| panic!("{e}"));
        Self::with_endurance(config, endurance)
    }

    /// Creates a device with an explicit endurance map (tests, custom PV
    /// models).
    ///
    /// # Panics
    ///
    /// Panics if the map's length differs from `config.pages`.
    #[must_use]
    pub fn with_endurance(config: &PcmConfig, endurance: EnduranceMap) -> Self {
        assert_eq!(
            endurance.len() as u64,
            config.pages,
            "endurance map size must match page count"
        );
        assert!(
            config.pages <= u64::from(u32::MAX),
            "slot maps index pages with u32"
        );
        let pages = endurance.len();
        Self {
            config: config.clone(),
            wear: table::filled(pages, 0),
            endurance,
            total_writes: 0,
            first_failure: None,
            policy: WearPolicy::FailStop,
            forward: Vec::new(),
            back: Vec::new(),
            retired: table::filled(pages, false),
            spares: Vec::new(),
            retired_count: 0,
            write_log: None,
        }
    }

    /// The device configuration.
    #[must_use]
    pub fn config(&self) -> &PcmConfig {
        &self.config
    }

    /// The process-variation endurance map (the manufacturer-tested ET).
    #[must_use]
    pub fn endurance_map(&self) -> &EnduranceMap {
        &self.endurance
    }

    /// Number of pages.
    #[must_use]
    pub fn page_count(&self) -> u64 {
        self.config.pages
    }

    /// The active wear policy.
    #[must_use]
    pub fn wear_policy(&self) -> WearPolicy {
        self.policy
    }

    /// Selects what happens when wear reaches the tested endurance.
    pub fn set_wear_policy(&mut self, policy: WearPolicy) {
        self.policy = policy;
    }

    /// Starts recording every physical page write into the write log.
    ///
    /// The log is how the `twl-faults` engine learns which pages changed
    /// without scanning the whole wear map; drain it with
    /// [`PcmDevice::drain_write_log`] after every serviced request.
    pub fn enable_write_log(&mut self) {
        if self.write_log.is_none() {
            self.write_log = Some(Vec::new());
        }
    }

    /// Moves all logged physical page writes into `out` (appending),
    /// leaving the log empty. A no-op when logging is disabled.
    pub fn drain_write_log(&mut self, out: &mut Vec<PhysicalPageAddr>) {
        if let Some(log) = &mut self.write_log {
            out.append(log);
        }
    }

    /// Reserves `spares` physical pages as retirement replacements.
    ///
    /// Spare pages should not be addressed by wear-leveling schemes:
    /// provision the device with `data_pages + spare_pages` pages and
    /// build schemes over the data region only (see
    /// `twl_faults::provision`). Replacements are handed out in the
    /// order given.
    ///
    /// # Panics
    ///
    /// Panics if any spare is out of range or already retired.
    pub fn set_spare_pool(&mut self, spares: Vec<PhysicalPageAddr>) {
        for &pa in &spares {
            assert!(
                pa.index() < self.config.pages,
                "spare {pa} outside the device"
            );
            assert!(!self.retired[pa.as_usize()], "spare {pa} already retired");
        }
        // Popped from the end, so store in reverse to hand out in order.
        self.spares = spares.iter().rev().map(|pa| pa.index()).collect();
    }

    /// Spare pages still available for retirement remaps.
    #[must_use]
    pub fn spares_remaining(&self) -> u64 {
        self.spares.len() as u64
    }

    /// Physical pages permanently retired so far.
    #[must_use]
    pub fn retired_pages(&self) -> u64 {
        self.retired_count
    }

    /// Whether a *physical* page has been retired.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range.
    #[must_use]
    pub fn is_retired(&self, phys: PhysicalPageAddr) -> bool {
        self.retired[phys.as_usize()]
    }

    /// The physical page currently backing `slot`.
    ///
    /// Identity until a retirement rebinds the slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    #[must_use]
    pub fn resolve(&self, slot: PhysicalPageAddr) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.physical(slot) as u64)
    }

    /// The slot a live physical page currently serves.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range.
    #[inline]
    #[must_use]
    pub fn owner_of(&self, phys: PhysicalPageAddr) -> PhysicalPageAddr {
        if self.back.is_empty() {
            self.assert_in_range(phys);
            phys
        } else {
            PhysicalPageAddr::new(u64::from(self.back[phys.as_usize()]))
        }
    }

    /// The physical page index backing `slot`, skipping the slot map
    /// while it is the identity.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    #[inline]
    fn physical(&self, slot: PhysicalPageAddr) -> usize {
        if self.forward.is_empty() {
            self.assert_in_range(slot);
            slot.as_usize()
        } else {
            self.forward[slot.as_usize()] as usize
        }
    }

    /// The range check an unmaterialized slot map cannot make by
    /// indexing.
    #[inline]
    fn assert_in_range(&self, addr: PhysicalPageAddr) {
        assert!(
            addr.index() < self.config.pages,
            "{addr} outside a {}-page device",
            self.config.pages
        );
    }

    /// Retires the physical page currently backing `slot` and rebinds
    /// the slot to a page from the spare pool.
    ///
    /// The slot's logical contents migrate with the rebind: the device
    /// models the copy as one write to the replacement page (wear is
    /// charged there and the write is logged), so schemes running above
    /// observe nothing — the same slot address keeps working.
    ///
    /// # Errors
    ///
    /// * [`PcmError::AddrOutOfRange`] for an invalid slot.
    /// * [`PcmError::SparesExhausted`] when the spare pool is empty —
    ///   end of life under graceful degradation.
    pub fn retire_page(&mut self, slot: PhysicalPageAddr) -> Result<PhysicalPageAddr, PcmError> {
        self.check_addr(slot)?;
        let Some(&spare) = self.spares.last() else {
            return Err(PcmError::SparesExhausted { slot });
        };
        if self.wear[spare as usize] == u32::MAX {
            return Err(PcmError::WearOverflow {
                addr: PhysicalPageAddr::new(spare),
                writes: u64::from(u32::MAX),
            });
        }
        self.spares.pop();
        if self.forward.is_empty() {
            let pages = self.config.pages as u32;
            self.forward = table::collected(pages as usize, 0..pages);
            self.back = table::collected(pages as usize, 0..pages);
        }
        let old = self.forward[slot.as_usize()] as usize;
        self.retired[old] = true;
        self.retired_count += 1;
        self.forward[slot.as_usize()] = spare as u32;
        self.back[spare as usize] = slot.index() as u32;
        // Migrate the slot's contents onto the replacement.
        self.account_write(spare as usize);
        Ok(PhysicalPageAddr::new(spare))
    }

    /// Validates a slot/physical address.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::AddrOutOfRange`] if `addr` is past the end of
    /// the device.
    #[inline]
    pub fn check_addr(&self, addr: PhysicalPageAddr) -> Result<(), PcmError> {
        if addr.index() < self.config.pages {
            Ok(())
        } else {
            Err(PcmError::AddrOutOfRange {
                index: addr.index(),
                pages: self.config.pages,
            })
        }
    }

    /// Charges one write to `phys`, whose wear the caller has checked
    /// is below its limit ([`PcmDevice::wear_limit`]).
    #[inline]
    fn account_write(&mut self, phys: usize) {
        self.wear[phys] += 1;
        self.total_writes += 1;
        if let Some(log) = &mut self.write_log {
            log.push(PhysicalPageAddr::new(phys as u64));
        }
    }

    /// Writes one page, accounting wear on the backing physical page.
    ///
    /// # Errors
    ///
    /// * [`PcmError::AddrOutOfRange`] for an invalid address.
    /// * [`PcmError::PageWornOut`] under [`WearPolicy::FailStop`] when
    ///   the backing page's endurance is already exhausted. The first
    ///   failure is latched and reported by [`PcmDevice::first_failure`].
    ///   Under [`WearPolicy::Unlimited`] writes never fail this way.
    /// * [`PcmError::WearOverflow`] under [`WearPolicy::Unlimited`] when
    ///   the backing page's wear counter is already at `u32::MAX`.
    #[inline]
    pub fn write_page(&mut self, addr: PhysicalPageAddr) -> Result<(), PcmError> {
        self.check_addr(addr)?;
        let phys = self.physical(addr);
        if self.wear[phys] >= self.wear_limit(phys) {
            return Err(self.refuse(addr, phys));
        }
        self.account_write(phys);
        Ok(())
    }

    /// The wear at which `phys` takes no more writes: its tested
    /// endurance under [`WearPolicy::FailStop`], and the counter's
    /// `u32::MAX` under [`WearPolicy::Unlimited`].
    #[inline]
    fn wear_limit(&self, phys: usize) -> u32 {
        match self.policy {
            WearPolicy::FailStop => self.endurance.values()[phys],
            WearPolicy::Unlimited => u32::MAX,
        }
    }

    /// The error for a write to `addr` (backed by `phys`) at its wear
    /// limit; a fail-stop wear-out also latches the first failure.
    #[cold]
    fn refuse(&mut self, addr: PhysicalPageAddr, phys: usize) -> PcmError {
        let writes = u64::from(self.wear[phys]);
        match self.policy {
            WearPolicy::FailStop => {
                if self.first_failure.is_none() {
                    self.first_failure = Some(addr);
                }
                PcmError::PageWornOut { addr, writes }
            }
            WearPolicy::Unlimited => PcmError::WearOverflow { addr, writes },
        }
    }

    /// Writes one page `n` times in O(1), the bulk backbone of the
    /// event-skipping fast path.
    ///
    /// Exactly equivalent to `n` sequential [`PcmDevice::write_page`]
    /// calls: under [`WearPolicy::FailStop`] only the writes that fit
    /// under the backing page's tested endurance land, and
    /// [`BulkWrite::failure`] then carries the error the first failing
    /// per-write call would have returned (the first-failure latch is
    /// set identically). The write log coalesces the whole stretch into
    /// a single entry — downstream fault absorption derives fault state
    /// from wear counters, not from log multiplicity — and snapshots
    /// taken after a bulk write restore exactly (wear still sums to the
    /// write total).
    ///
    /// Under [`WearPolicy::Unlimited`] the writes that would carry the
    /// page's wear counter past `u32::MAX` do not land either:
    /// [`BulkWrite::failure`] is then [`PcmError::WearOverflow`].
    ///
    /// `n == 0` is a no-op that reports zero writes landed.
    pub fn write_page_n(&mut self, addr: PhysicalPageAddr, n: u64) -> BulkWrite {
        if let Err(e) = self.check_addr(addr) {
            return BulkWrite {
                landed: 0,
                failure: Some(e),
            };
        }
        let phys = self.physical(addr);
        let room = self.wear_limit(phys).saturating_sub(self.wear[phys]);
        let landed = u32::try_from(n).map_or(room, |n| n.min(room));
        if landed > 0 {
            self.wear[phys] += landed;
            self.total_writes += u64::from(landed);
            if let Some(log) = &mut self.write_log {
                log.push(PhysicalPageAddr::new(phys as u64));
            }
        }
        let landed = u64::from(landed);
        let failure = (landed < n).then(|| self.refuse(addr, phys));
        BulkWrite { landed, failure }
    }

    /// Reads one page. Reads do not wear PCM.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::AddrOutOfRange`] for an invalid address.
    pub fn read_page(&self, addr: PhysicalPageAddr) -> Result<(), PcmError> {
        self.check_addr(addr)
    }

    /// Wear (writes absorbed so far) of the physical page backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn wear(&self, addr: PhysicalPageAddr) -> u64 {
        u64::from(self.wear[self.physical(addr)])
    }

    /// Tested endurance of the physical page backing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn endurance(&self, addr: PhysicalPageAddr) -> u64 {
        self.endurance.endurance(self.resolve(addr))
    }

    /// Remaining writes before the page backing `addr` reaches its
    /// tested endurance (saturating at 0 under [`WearPolicy::Unlimited`]).
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[inline]
    #[must_use]
    pub fn remaining(&self, addr: PhysicalPageAddr) -> u64 {
        self.endurance(addr).saturating_sub(self.wear(addr))
    }

    /// Fills `out` (reusing its allocation) with the remaining
    /// endurance of every slot, in slot order — `out[s]` equals
    /// `self.remaining(s)`, at most the page's `u32` endurance.
    ///
    /// One fused pass over the flat slot/wear/endurance tables; schemes
    /// that rank all frames at an epoch boundary use this instead of
    /// per-frame [`PcmDevice::remaining`] calls, which would re-resolve
    /// the slot indirection on every comparison.
    pub fn remaining_table(&self, out: &mut Vec<u32>) {
        table::reset(out, self.config.pages as usize);
        let endurance = self.endurance.values();
        if self.forward.is_empty() {
            out.extend(
                endurance
                    .iter()
                    .zip(&self.wear)
                    .map(|(&e, &w)| e.saturating_sub(w)),
            );
        } else {
            out.extend(self.forward.iter().map(|&phys| {
                let p = phys as usize;
                endurance[p].saturating_sub(self.wear[p])
            }));
        }
    }

    /// Whether the page backing `addr` has exhausted its tested
    /// endurance.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    #[must_use]
    pub fn is_worn_out(&self, addr: PhysicalPageAddr) -> bool {
        self.remaining(addr) == 0
    }

    /// Total successful page writes absorbed by the device.
    #[must_use]
    pub fn total_writes(&self) -> u64 {
        self.total_writes
    }

    /// The slot whose write first failed with
    /// [`PcmError::PageWornOut`], if any.
    ///
    /// This latches the first *failing write* under
    /// [`WearPolicy::FailStop`] — i.e. the paper's end-of-life event. It
    /// is `None` while every write has succeeded, even if some page is
    /// already at its endurance limit but has not been written since
    /// (contrast [`PcmDevice::any_page_exhausted`]), and always `None`
    /// under [`WearPolicy::Unlimited`], where wear-out is expressed as
    /// cell faults instead of failed writes.
    #[must_use]
    pub fn first_failure(&self) -> Option<PhysicalPageAddr> {
        self.first_failure
    }

    /// Whether any physical page's wear has reached its tested
    /// endurance — the page is *worn*.
    ///
    /// "Worn" is not "dead": under [`WearPolicy::FailStop`] a worn page
    /// fails its *next* write (so this predicate flags imminent death
    /// before [`PcmDevice::first_failure`] latches anything), while
    /// under [`WearPolicy::Unlimited`] a worn page keeps absorbing
    /// writes and only dies when the cell-fault layer retires it. This
    /// scans live wear state, including retired pages (which are by
    /// construction worn or dead).
    #[must_use]
    pub fn any_page_exhausted(&self) -> bool {
        self.wear
            .iter()
            .zip(self.endurance.iter())
            .any(|(&w, (_, e))| u64::from(w) >= e)
    }

    /// Snapshot of wear statistics.
    #[must_use]
    pub fn wear_stats(&self) -> WearStats {
        WearStats::compute(&self.wear, &self.endurance)
    }

    /// Per-physical-page wear counters (indexed by physical page), as
    /// stored: at most `u32::MAX` each (see [`PcmError::WearOverflow`]).
    #[inline]
    #[must_use]
    pub fn wear_table(&self) -> &[u32] {
        &self.wear
    }

    /// Per-physical-page wear counters (indexed by physical page),
    /// widened to `u64`: a copy of [`PcmDevice::wear_table`].
    #[must_use]
    pub fn wear_counters(&self) -> Vec<u64> {
        self.wear.iter().map(|&w| u64::from(w)).collect()
    }

    /// Captures the full device state for later [`PcmDevice::restore`].
    #[must_use]
    pub fn snapshot(&self) -> DeviceSnapshot {
        DeviceSnapshot {
            config: self.config.clone(),
            endurance: self.endurance.clone(),
            wear: self.wear_counters(),
            total_writes: self.total_writes,
            first_failure: self.first_failure,
            policy: self.policy,
            forward: widen_slot_map(&self.forward, self.config.pages),
            back: widen_slot_map(&self.back, self.config.pages),
            retired: self.retired.clone(),
            spares: self.spares.clone(),
            retired_count: self.retired_count,
        }
    }

    /// Rebuilds a device from a snapshot.
    ///
    /// # Errors
    ///
    /// Returns [`PcmError::InvalidConfig`] if the snapshot is internally
    /// inconsistent (mismatched lengths, wear totals, wear exceeding
    /// endurance under [`WearPolicy::FailStop`], a wear counter past
    /// `u32::MAX`, or a broken slot map).
    pub fn restore(snapshot: DeviceSnapshot) -> Result<Self, PcmError> {
        let pages = snapshot.config.pages as usize;
        if snapshot.endurance.len() != pages
            || snapshot.wear.len() != pages
            || snapshot.forward.len() != pages
            || snapshot.back.len() != pages
            || snapshot.retired.len() != pages
        {
            return Err(PcmError::InvalidConfig(
                "snapshot table sizes do not match its config".into(),
            ));
        }
        if snapshot.wear.iter().sum::<u64>() != snapshot.total_writes {
            return Err(PcmError::InvalidConfig(
                "snapshot wear counters do not sum to its write total".into(),
            ));
        }
        if snapshot.policy == WearPolicy::FailStop {
            for ((_, e), &w) in snapshot.endurance.iter().zip(snapshot.wear.iter()) {
                if w > e {
                    return Err(PcmError::InvalidConfig(
                        "snapshot wear exceeds page endurance".into(),
                    ));
                }
            }
        }
        if snapshot.config.pages > u64::from(u32::MAX) {
            return Err(PcmError::InvalidConfig(
                "slot maps index pages with u32".into(),
            ));
        }
        for (slot, &phys) in snapshot.forward.iter().enumerate() {
            if phys as usize >= pages {
                return Err(PcmError::InvalidConfig(
                    "snapshot slot map points outside the device".into(),
                ));
            }
            // A consumed spare's own slot keeps a stale identity entry
            // (spare slots are never addressed); any other
            // non-inverting pair is a corrupt map.
            if snapshot.back[phys as usize] != slot as u64 && phys as usize != slot {
                return Err(PcmError::InvalidConfig(
                    "snapshot slot map is not invertible".into(),
                ));
            }
        }
        for &slot in &snapshot.back {
            if slot as usize >= pages {
                return Err(PcmError::InvalidConfig(
                    "snapshot slot map points outside the device".into(),
                ));
            }
        }
        // A device that never retired a page restores onto the same
        // identity fast path it was snapshotted from.
        let identity = |map: &[u64]| map.iter().enumerate().all(|(i, &v)| v == i as u64);
        let (forward, back) = if identity(&snapshot.forward) && identity(&snapshot.back) {
            (Vec::new(), Vec::new())
        } else {
            let narrow = |map: &[u64]| {
                map.iter()
                    .map(|&v| u32::try_from(v).expect("entries are below `pages`, which fits u32"))
                    .collect()
            };
            (narrow(&snapshot.forward), narrow(&snapshot.back))
        };
        let wear = snapshot
            .wear
            .iter()
            .map(|&w| u32::try_from(w))
            .collect::<Result<_, _>>()
            .map_err(|_| {
                PcmError::InvalidConfig("snapshot wear counter exceeds u32::MAX".into())
            })?;
        Ok(Self {
            config: snapshot.config,
            endurance: snapshot.endurance,
            wear,
            total_writes: snapshot.total_writes,
            first_failure: snapshot.first_failure,
            policy: snapshot.policy,
            forward,
            back,
            retired: snapshot.retired,
            spares: snapshot.spares,
            retired_count: snapshot.retired_count,
            write_log: None,
        })
    }
}

/// A slot map in its serialized `u64` form; an unmaterialized (identity)
/// map is written out in full.
fn widen_slot_map(map: &[u32], pages: u64) -> Vec<u64> {
    if map.is_empty() {
        (0..pages).collect()
    } else {
        map.iter().map(|&v| u64::from(v)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn device(pages: u64, endurance: u64) -> PcmDevice {
        let config = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(endurance)
            .sigma_fraction(0.0)
            .seed(0)
            .build()
            .unwrap();
        PcmDevice::new(&config)
    }

    #[test]
    fn wear_accumulates_until_failure() {
        let mut dev = device(4, 3);
        let pa = PhysicalPageAddr::new(2);
        for i in 1..=3 {
            dev.write_page(pa).unwrap();
            assert_eq!(dev.wear(pa), i);
        }
        let err = dev.write_page(pa).unwrap_err();
        assert_eq!(
            err,
            PcmError::PageWornOut {
                addr: pa,
                writes: 3
            }
        );
        assert_eq!(dev.first_failure(), Some(pa));
        assert!(dev.is_worn_out(pa));
        assert_eq!(dev.total_writes(), 3);
    }

    #[test]
    fn bulk_write_matches_sequential_writes() {
        let mut bulk = device(4, 10);
        let mut seq = device(4, 10);
        let pa = PhysicalPageAddr::new(1);
        let out = bulk.write_page_n(pa, 7);
        assert_eq!(
            out,
            BulkWrite {
                landed: 7,
                failure: None
            }
        );
        assert!(out.complete());
        for _ in 0..7 {
            seq.write_page(pa).unwrap();
        }
        assert_eq!(bulk.wear(pa), seq.wear(pa));
        assert_eq!(bulk.total_writes(), seq.total_writes());
    }

    #[test]
    fn bulk_write_detects_mid_batch_wear_out() {
        let mut dev = device(4, 5);
        let pa = PhysicalPageAddr::new(0);
        dev.write_page(pa).unwrap();
        let out = dev.write_page_n(pa, 10);
        assert_eq!(out.landed, 4, "exactly the writes under endurance land");
        assert_eq!(
            out.failure,
            Some(PcmError::PageWornOut {
                addr: pa,
                writes: 5
            })
        );
        assert_eq!(dev.first_failure(), Some(pa));
        assert_eq!(dev.wear(pa), 5);
        assert_eq!(dev.total_writes(), 5);
    }

    #[test]
    fn bulk_write_on_worn_page_lands_nothing() {
        let mut dev = device(4, 2);
        let pa = PhysicalPageAddr::new(3);
        dev.write_page_n(pa, 2);
        let out = dev.write_page_n(pa, 3);
        assert_eq!(out.landed, 0);
        assert_eq!(
            out.failure,
            Some(PcmError::PageWornOut {
                addr: pa,
                writes: 2
            })
        );
        assert_eq!(dev.total_writes(), 2);
    }

    #[test]
    fn bulk_write_zero_is_a_noop() {
        let mut dev = device(4, 2);
        let pa = PhysicalPageAddr::new(0);
        let out = dev.write_page_n(pa, 0);
        assert_eq!(
            out,
            BulkWrite {
                landed: 0,
                failure: None
            }
        );
        assert_eq!(dev.total_writes(), 0);
        assert_eq!(dev.first_failure(), None);
    }

    #[test]
    fn bulk_write_unlimited_never_fails() {
        let mut dev = device(4, 2);
        dev.set_wear_policy(WearPolicy::Unlimited);
        let pa = PhysicalPageAddr::new(1);
        let out = dev.write_page_n(pa, 100);
        assert_eq!(out.landed, 100);
        assert!(out.complete());
        assert_eq!(dev.wear(pa), 100);
        assert_eq!(dev.first_failure(), None);
    }

    #[test]
    fn bulk_write_out_of_range_is_reported() {
        let mut dev = device(4, 10);
        let out = dev.write_page_n(PhysicalPageAddr::new(4), 3);
        assert_eq!(out.landed, 0);
        assert!(matches!(
            out.failure,
            Some(PcmError::AddrOutOfRange { index: 4, pages: 4 })
        ));
        assert_eq!(dev.first_failure(), None, "range errors are not wear-out");
    }

    #[test]
    fn bulk_write_coalesces_one_log_entry() {
        let mut dev = device(4, 10);
        dev.enable_write_log();
        dev.write_page_n(PhysicalPageAddr::new(2), 5);
        let mut log = Vec::new();
        dev.drain_write_log(&mut log);
        assert_eq!(log, vec![PhysicalPageAddr::new(2)]);
    }

    #[test]
    fn bulk_write_snapshot_roundtrips() {
        let mut dev = device(8, 50);
        dev.write_page_n(PhysicalPageAddr::new(3), 17);
        let restored = PcmDevice::restore(dev.snapshot()).unwrap();
        assert_eq!(restored.wear(PhysicalPageAddr::new(3)), 17);
        assert_eq!(restored.total_writes(), 17);
    }

    #[test]
    fn out_of_range_is_reported() {
        let mut dev = device(4, 10);
        let err = dev.write_page(PhysicalPageAddr::new(4)).unwrap_err();
        assert!(matches!(
            err,
            PcmError::AddrOutOfRange { index: 4, pages: 4 }
        ));
        assert!(dev.read_page(PhysicalPageAddr::new(9)).is_err());
    }

    #[test]
    fn reads_do_not_wear() {
        let dev = device(4, 10);
        dev.read_page(PhysicalPageAddr::new(1)).unwrap();
        assert_eq!(dev.wear(PhysicalPageAddr::new(1)), 0);
    }

    #[test]
    fn first_failure_latches_earliest() {
        let mut dev = device(4, 1);
        let a = PhysicalPageAddr::new(0);
        let b = PhysicalPageAddr::new(1);
        dev.write_page(a).unwrap();
        dev.write_page(b).unwrap();
        let _ = dev.write_page(b);
        let _ = dev.write_page(a);
        assert_eq!(dev.first_failure(), Some(b));
    }

    #[test]
    fn any_page_exhausted_scans_state() {
        let mut dev = device(4, 2);
        assert!(!dev.any_page_exhausted());
        let pa = PhysicalPageAddr::new(0);
        dev.write_page(pa).unwrap();
        dev.write_page(pa).unwrap();
        assert!(dev.any_page_exhausted());
        assert!(
            dev.first_failure().is_none(),
            "no failing write happened yet"
        );
    }

    #[test]
    fn unlimited_policy_wears_past_endurance() {
        let mut dev = device(4, 2);
        dev.set_wear_policy(WearPolicy::Unlimited);
        let pa = PhysicalPageAddr::new(1);
        for _ in 0..5 {
            dev.write_page(pa).unwrap();
        }
        assert_eq!(dev.wear(pa), 5);
        assert_eq!(dev.remaining(pa), 0, "remaining saturates");
        assert!(dev.any_page_exhausted(), "page is worn");
        assert_eq!(dev.first_failure(), None, "but no write ever failed");
    }

    #[test]
    fn write_log_records_resolved_pages() {
        let mut dev = device(4, 10);
        dev.enable_write_log();
        dev.write_page(PhysicalPageAddr::new(3)).unwrap();
        dev.write_page(PhysicalPageAddr::new(0)).unwrap();
        let mut log = Vec::new();
        dev.drain_write_log(&mut log);
        assert_eq!(
            log,
            vec![PhysicalPageAddr::new(3), PhysicalPageAddr::new(0)]
        );
        log.clear();
        dev.drain_write_log(&mut log);
        assert!(log.is_empty(), "drain empties the log");
    }

    #[test]
    fn retirement_rebinds_slot_to_spare() {
        let mut dev = device(6, 10);
        dev.enable_write_log();
        // Pages 4 and 5 are spares; slots 0..4 are the data region.
        dev.set_spare_pool(vec![PhysicalPageAddr::new(4), PhysicalPageAddr::new(5)]);
        let slot = PhysicalPageAddr::new(2);
        dev.write_page(slot).unwrap();
        let spare = dev.retire_page(slot).unwrap();
        assert_eq!(spare, PhysicalPageAddr::new(4));
        assert_eq!(dev.resolve(slot), spare);
        assert_eq!(dev.owner_of(spare), slot);
        assert!(dev.is_retired(PhysicalPageAddr::new(2)));
        assert_eq!(dev.retired_pages(), 1);
        assert_eq!(dev.spares_remaining(), 1);
        // The migration copy was charged to the spare and logged.
        assert_eq!(dev.wear(slot), 1, "slot wear now reads the spare's");
        let mut log = Vec::new();
        dev.drain_write_log(&mut log);
        assert_eq!(log, vec![PhysicalPageAddr::new(2), spare]);
        // Subsequent writes to the slot wear the spare.
        dev.write_page(slot).unwrap();
        assert_eq!(dev.wear_counters()[4], 2);
        assert_eq!(dev.wear_counters()[2], 1, "retired page wears no more");
    }

    #[test]
    fn spare_exhaustion_is_reported() {
        let mut dev = device(4, 10);
        dev.set_spare_pool(vec![PhysicalPageAddr::new(3)]);
        let slot = PhysicalPageAddr::new(0);
        dev.retire_page(slot).unwrap();
        let err = dev.retire_page(slot).unwrap_err();
        assert_eq!(err, PcmError::SparesExhausted { slot });
    }

    #[test]
    fn snapshot_roundtrip_preserves_behaviour() {
        let mut dev = device(8, 5);
        let pa = PhysicalPageAddr::new(2);
        for _ in 0..3 {
            dev.write_page(pa).unwrap();
        }
        let mut restored = PcmDevice::restore(dev.snapshot()).unwrap();
        assert_eq!(restored.wear(pa), 3);
        assert_eq!(restored.total_writes(), 3);
        // Two more writes exhaust the page in both.
        for _ in 0..2 {
            dev.write_page(pa).unwrap();
            restored.write_page(pa).unwrap();
        }
        assert_eq!(
            dev.write_page(pa).unwrap_err(),
            restored.write_page(pa).unwrap_err()
        );
    }

    #[test]
    fn snapshot_roundtrip_preserves_retirements() {
        let mut dev = device(6, 4);
        dev.set_wear_policy(WearPolicy::Unlimited);
        dev.set_spare_pool(vec![PhysicalPageAddr::new(4), PhysicalPageAddr::new(5)]);
        let slot = PhysicalPageAddr::new(1);
        for _ in 0..6 {
            dev.write_page(slot).unwrap();
        }
        dev.retire_page(slot).unwrap();
        let restored = PcmDevice::restore(dev.snapshot()).unwrap();
        assert_eq!(restored.wear_policy(), WearPolicy::Unlimited);
        assert_eq!(restored.resolve(slot), PhysicalPageAddr::new(4));
        assert_eq!(restored.owner_of(PhysicalPageAddr::new(4)), slot);
        assert!(restored.is_retired(PhysicalPageAddr::new(1)));
        assert_eq!(restored.spares_remaining(), 1);
        assert_eq!(restored.retired_pages(), 1);
    }

    #[test]
    fn tampered_snapshot_is_rejected() {
        let mut dev = device(4, 5);
        dev.write_page(PhysicalPageAddr::new(0)).unwrap();
        let mut snap = dev.snapshot();
        // Inflate the write total without touching the counters.
        snap.total_writes += 1;
        assert!(matches!(
            PcmDevice::restore(snap),
            Err(PcmError::InvalidConfig(_))
        ));
    }

    /// `device` with its slot maps built up front: the reference the
    /// identity fast path must match.
    fn eager_device(pages: u64, endurance: u64) -> PcmDevice {
        let mut dev = device(pages, endurance);
        dev.forward = (0..pages as u32).collect();
        dev.back = (0..pages as u32).collect();
        dev
    }

    /// Asserts every slot-map observer agrees between `lazy` and `eager`.
    fn assert_same_view(lazy: &PcmDevice, eager: &PcmDevice) {
        for i in 0..lazy.page_count() {
            let pa = PhysicalPageAddr::new(i);
            assert_eq!(lazy.resolve(pa), eager.resolve(pa), "resolve {i}");
            assert_eq!(lazy.owner_of(pa), eager.owner_of(pa), "owner_of {i}");
            assert_eq!(lazy.is_retired(pa), eager.is_retired(pa), "is_retired {i}");
            assert_eq!(lazy.wear(pa), eager.wear(pa), "wear {i}");
            assert_eq!(lazy.endurance(pa), eager.endurance(pa), "endurance {i}");
        }
        let (mut a, mut b) = (Vec::new(), Vec::new());
        lazy.remaining_table(&mut a);
        eager.remaining_table(&mut b);
        assert_eq!(a, b);
        let per_slot: Vec<u32> = (0..eager.page_count())
            .map(|i| u32::try_from(eager.remaining(PhysicalPageAddr::new(i))).unwrap())
            .collect();
        assert_eq!(a, per_slot, "remaining_table is remaining() in slot order");
        assert_eq!(lazy.snapshot(), eager.snapshot());
    }

    #[test]
    fn never_retired_snapshot_writes_explicit_identity_maps() {
        let mut dev = device(8, 50);
        dev.write_page_n(PhysicalPageAddr::new(5), 9);
        assert!(dev.forward.is_empty(), "no retirement, no slot map");
        let explicit = DeviceSnapshot {
            forward: (0..8).collect(),
            back: (0..8).collect(),
            ..dev.snapshot()
        };
        assert_eq!(dev.snapshot(), explicit);
        let restored = PcmDevice::restore(explicit).unwrap();
        assert!(
            restored.forward.is_empty() && restored.back.is_empty(),
            "an identity snapshot restores onto the identity fast path"
        );
        assert_eq!(restored.wear(PhysicalPageAddr::new(5)), 9);
        assert_same_view(&restored, &dev);
    }

    #[test]
    fn identity_fast_path_matches_eager_maps_across_retirements() {
        let (mut lazy, mut eager) = (device(10, 20), eager_device(10, 20));
        let spares = vec![PhysicalPageAddr::new(8), PhysicalPageAddr::new(9)];
        for dev in [&mut lazy, &mut eager] {
            dev.set_wear_policy(WearPolicy::Unlimited);
            dev.set_spare_pool(spares.clone());
            for slot in 0..8 {
                dev.write_page_n(PhysicalPageAddr::new(slot), slot * 3 + 1);
            }
        }
        assert_same_view(&lazy, &eager);
        for slot in [3, 5] {
            let slot = PhysicalPageAddr::new(slot);
            assert_eq!(lazy.retire_page(slot), eager.retire_page(slot));
            assert!(!lazy.forward.is_empty(), "retirement builds the maps");
            assert_same_view(&lazy, &eager);
            for dev in [&mut lazy, &mut eager] {
                dev.write_page(slot).unwrap();
                dev.write_page_n(PhysicalPageAddr::new(4), 2);
            }
            assert_same_view(&lazy, &eager);
        }
        let restored = PcmDevice::restore(lazy.snapshot()).unwrap();
        assert_same_view(&restored, &eager);
    }

    #[test]
    fn out_of_range_slot_map_queries_panic_before_and_after_retirement() {
        let mut dev = device(4, 10);
        let past = PhysicalPageAddr::new(4);
        for retired in [false, true] {
            if retired {
                dev.set_spare_pool(vec![PhysicalPageAddr::new(3)]);
                dev.retire_page(PhysicalPageAddr::new(0)).unwrap();
            }
            let panics = |query: &dyn Fn(&PcmDevice)| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| query(&dev))).is_err()
            };
            assert!(panics(&|d| _ = d.resolve(past)), "resolve, {retired}");
            assert!(panics(&|d| _ = d.owner_of(past)), "owner_of, {retired}");
            assert!(panics(&|d| _ = d.is_retired(past)), "is_retired, {retired}");
            assert!(panics(&|d| _ = d.wear(past)), "wear, {retired}");
            assert!(panics(&|d| _ = d.endurance(past)), "endurance, {retired}");
        }
    }

    #[test]
    fn unlimited_wear_stops_at_the_counter_limit() {
        let mut dev = device(4, 2);
        dev.set_wear_policy(WearPolicy::Unlimited);
        let pa = PhysicalPageAddr::new(1);
        let limit = u64::from(u32::MAX);
        assert!(dev.write_page_n(pa, limit - 1).complete());
        assert_eq!(dev.wear(pa), limit - 1);
        let overflow = PcmError::WearOverflow {
            addr: pa,
            writes: limit,
        };
        // The last value the counter holds lands; the write after it
        // fails loudly instead of wrapping to 0.
        let out = dev.write_page_n(pa, 2);
        assert_eq!(out.landed, 1);
        assert_eq!(out.failure, Some(overflow.clone()));
        assert_eq!(dev.wear(pa), limit);
        assert_eq!(dev.write_page(pa), Err(overflow.clone()));
        let out = dev.write_page_n(pa, u64::MAX);
        assert_eq!((out.landed, out.failure), (0, Some(overflow)));
        assert_eq!(dev.wear(pa), limit);
        assert_eq!(dev.total_writes(), limit);
        assert_eq!(dev.first_failure(), None, "an overflow is not wear-out");
        // A retirement's copy onto a spare at the limit fails the same
        // way, before anything moves.
        dev.set_spare_pool(vec![pa]);
        let slot = PhysicalPageAddr::new(0);
        assert!(matches!(
            dev.retire_page(slot),
            Err(PcmError::WearOverflow { .. })
        ));
        assert_eq!((dev.spares_remaining(), dev.retired_pages()), (1, 0));
        assert_eq!(dev.resolve(slot), slot);
    }

    #[test]
    fn restore_refuses_wear_past_u32() {
        let mut dev = device(4, 5);
        dev.set_wear_policy(WearPolicy::Unlimited);
        let mut snap = dev.snapshot();
        snap.wear[2] = u64::from(u32::MAX) + 1;
        snap.total_writes = snap.wear[2];
        assert!(matches!(
            PcmDevice::restore(snap),
            Err(PcmError::InvalidConfig(msg)) if msg.contains("u32::MAX")
        ));
    }

    #[test]
    fn with_endurance_size_mismatch_panics() {
        let config = PcmConfig::builder().pages(4).build().unwrap();
        let map = EnduranceMap::from_values(vec![1, 2]);
        let result = std::panic::catch_unwind(|| PcmDevice::with_endurance(&config, map));
        assert!(result.is_err());
    }
}
