//! Exact pacing for batched fault absorption.
//!
//! The graceful-degradation driver wants to service thousands of writes
//! per [`FaultEngine::absorb`] call, but the per-write reference
//! semantics observe each fault event — the first corrected group, every
//! retirement — at the exact logical write whose wear crossed the
//! threshold. [`EventHorizon`] reconciles the two: it tracks, for every
//! physical page, how many device writes of wear that page can still
//! take before its *next observable event*, and exposes the minimum over
//! all pages as the batch's **wear margin**. A batch guaranteed to grow
//! no page's wear by `margin` or more (see
//! `WearLeveler::write_batch_cap` in `twl-wl-core`) cannot cross any
//! event mid-batch, so absorbing once at the batch boundary detects
//! exactly what per-write absorption would have — at the same device
//! write count. As wear approaches a threshold the margin shrinks, the
//! driver's batches shrink with it, and the crossing write always runs
//! as a batch of one: the same granularity the per-write loop has.
//!
//! Only a multi-write batch reads the margin; a single write is
//! event-safe by itself, since the absorb after it catches any crossing
//! at that write. So the horizon refreshes lazily: after each absorb the
//! driver only [notes](EventHorizon::note) the touched pages, and
//! [`EventHorizon::refresh`] re-derives their distances just before a
//! multi-write batch asks for the margin. A page's distance depends only
//! on its current wear, its death and the phase below, so the deferred
//! refresh yields the same margin an eager one would.
//!
//! Observable events, by phase:
//!
//! * **First-fault watch** (until any group has been corrected): the
//!   first threshold of every page — the earliest crossing anywhere sets
//!   the report's `first_fault_device_writes`.
//! * **Retirement-only** (afterwards): only the budget-crossing
//!   threshold of each live page. Intermediate group corrections remain
//!   invisible in the report (their totals are recomputed from wear at
//!   absorb time, which is batch-size independent), so they need no
//!   pacing.

use crate::FaultEngine;
use twl_pcm::{table, PcmDevice, PhysicalPageAddr};

/// Distance sentinel for pages with no further observable events
/// (dead pages, or live pages whose fault budget exceeds their group
/// count).
const NEVER: u64 = u64::MAX;

/// Tracks every page's wear-distance to its next observable fault event
/// and answers "how much single-page wear is safe before the next
/// absorb" in O(1).
///
/// The distances live in an in-place min tree of `2 × pages` `u64`
/// slots — 16 bytes per physical page, about 141 MB for the paper's
/// 8,388,608 pages plus 5 % spares — allocated once at construction.
/// [`EventHorizon::refresh`] rewrites the leaves of the pages noted
/// since the last refresh and repairs only the ancestors whose minimum
/// moved; [`EventHorizon::wear_margin`] reads the root.
#[derive(Debug)]
pub struct EventHorizon {
    /// Bottom-up min tree: page `p`'s distance is the leaf at
    /// `pages + p`, and `tree[i] = min(tree[2i], tree[2i + 1])` for `i`
    /// in `1..pages`, so `tree[1]` is the minimum over all pages (slot
    /// 0 is unused). Any page count works; nothing is padded.
    tree: Vec<u64>,
    /// Whether the first-fault event has already fired, leaving only
    /// retirements to watch.
    retirement_only: bool,
    /// Pages absorbed since the last refresh, duplicates included. Never
    /// longer than the page count: past that, the next refresh rebuilds
    /// every leaf instead.
    pending: Vec<PhysicalPageAddr>,
    /// Whether the next refresh must rebuild the whole tree (the pending
    /// list overflowed, or the phase switched).
    stale: bool,
}

impl EventHorizon {
    /// Builds the horizon for the engine's current fault state and the
    /// device's current wear.
    #[must_use]
    pub fn new(engine: &FaultEngine, device: &PcmDevice) -> Self {
        let pages = engine.model().page_count();
        let mut horizon = Self {
            tree: table::filled(2 * pages, NEVER),
            retirement_only: engine.corrected_groups() > 0,
            pending: Vec::new(),
            stale: false,
        };
        horizon.rebuild(engine, device);
        horizon
    }

    /// The largest wear growth no single page can reach without
    /// crossing an observable event: a batch that grows every page's
    /// wear by *strictly less than* this is event-free.
    ///
    /// The margin is as of the last [`EventHorizon::refresh`] (or
    /// [`EventHorizon::observe`]); pages noted since are not in it yet.
    /// Returns `u64::MAX` when no page has a future event.
    #[must_use]
    pub fn wear_margin(&self) -> u64 {
        self.tree.get(1).copied().unwrap_or(NEVER)
    }

    /// Notes an absorb: queues the pages the engine touched (including
    /// retirement copy-writes) for the next refresh, and switches to
    /// retirement-only watching once the first group correction has
    /// happened. Costs one append per touched page; no distance is
    /// computed until [`EventHorizon::refresh`].
    pub fn note(&mut self, engine: &FaultEngine) {
        if !self.retirement_only && engine.corrected_groups() > 0 {
            // First fault fired: every page's next event jumps from its
            // first threshold to its budget-crossing threshold. One full
            // rebuild per run.
            self.retirement_only = true;
            self.overflow();
            return;
        }
        if self.stale {
            return;
        }
        let touched = engine.touched();
        if self.pending.len() + touched.len() > self.tree.len() / 2 {
            // Rebuilding costs one pass over the pages, so a list this
            // long would take longer to apply than to replace.
            self.overflow();
            return;
        }
        self.pending.extend_from_slice(touched);
    }

    /// Brings the margin up to date with every absorb noted since the
    /// last refresh: re-derives the distance of each noted page from its
    /// current wear, or rebuilds the whole tree when the pending list
    /// overflowed or the phase switched.
    pub fn refresh(&mut self, engine: &FaultEngine, device: &PcmDevice) {
        if std::mem::take(&mut self.stale) {
            self.rebuild(engine, device);
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        for &page in &pending {
            let d = self.distance(page, engine, device);
            self.set(page.as_usize(), d);
        }
        self.pending = pending;
        self.pending.clear();
    }

    /// Notes an absorb and refreshes at once: the margin afterwards
    /// covers it. Equivalent to [`EventHorizon::note`] followed by
    /// [`EventHorizon::refresh`].
    pub fn observe(&mut self, engine: &FaultEngine, device: &PcmDevice) {
        self.note(engine);
        self.refresh(engine, device);
    }

    /// Drops the pending list in favour of a full rebuild at the next
    /// refresh.
    fn overflow(&mut self) {
        self.stale = true;
        self.pending.clear();
    }

    /// Writes page `p`'s leaf and recomputes its ancestors, stopping at
    /// the first whose minimum did not move: none above it can have.
    /// A lowered leaf climbs only while it undercuts an ancestor; a
    /// raised one (a page death) only while it was an ancestor's
    /// minimum.
    fn set(&mut self, p: usize, d: u64) {
        let mut i = self.tree.len() / 2 + p;
        if self.tree[i] == d {
            return;
        }
        self.tree[i] = d;
        i /= 2;
        while i >= 1 {
            let min = self.tree[2 * i].min(self.tree[2 * i + 1]);
            if self.tree[i] == min {
                break;
            }
            self.tree[i] = min;
            i /= 2;
        }
    }

    /// Wear-distance from `page`'s current wear to its next observable
    /// event under the current phase.
    fn distance(&self, page: PhysicalPageAddr, engine: &FaultEngine, device: &PcmDevice) -> u64 {
        if engine.is_dead(page) {
            return NEVER;
        }
        let threshold = if self.retirement_only {
            engine
                .model()
                .uncorrectable_wear(page, engine.policy().budget())
        } else {
            // Budget-0 policies retire on the very first fault, which is
            // the same threshold the first-fault watch tracks.
            Some(engine.model().first_fault_wear(page))
        };
        let Some(threshold) = threshold else {
            return NEVER;
        };
        let wear = u64::from(device.wear_table()[page.as_usize()]);
        // A group fails once wear *reaches* its threshold, so a page one
        // short of it has margin 1 — only a single-write batch is safe.
        // An already-crossed threshold (possible only transiently, mid
        // phase switch) degenerates to per-write pacing rather than
        // underflowing.
        threshold.saturating_sub(wear).max(1)
    }

    /// Recomputes every leaf from scratch, then every inner node once
    /// (construction, the first-fault phase switch, and a pending list
    /// that overflowed).
    fn rebuild(&mut self, engine: &FaultEngine, device: &PcmDevice) {
        let pages = self.tree.len() / 2;
        for p in 0..pages {
            let page = PhysicalPageAddr::new(u64::try_from(p).expect("page count fits u64"));
            self.tree[pages + p] = self.distance(page, engine, device);
        }
        for i in (1..pages).rev() {
            self.tree[i] = self.tree[2 * i].min(self.tree[2 * i + 1]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellFaultModel, CorrectionPolicy, FaultConfig};
    use twl_pcm::{PcmConfig, WearPolicy};
    use twl_rng::SplitMix64;

    fn setup(data: u64, spares: u64, entries: u32) -> (PcmDevice, FaultEngine) {
        let pages = data + spares;
        let config = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(100)
            .sigma_fraction(0.0)
            .seed(0)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&config);
        device.set_wear_policy(WearPolicy::Unlimited);
        device.enable_write_log();
        device.set_spare_pool((data..pages).map(PhysicalPageAddr::new).collect());
        let fault_cfg = FaultConfig {
            cell_groups_per_page: 4,
            group_sigma_fraction: 0.2,
            policy: CorrectionPolicy::Ecp { entries },
            seed: 11,
            ..FaultConfig::default()
        };
        let model = CellFaultModel::generate(device.endurance_map(), &fault_cfg);
        let engine = FaultEngine::new(model, fault_cfg.policy);
        (device, engine)
    }

    #[test]
    fn fresh_margin_is_the_earliest_first_fault() {
        let (device, engine) = setup(4, 2, 2);
        let horizon = EventHorizon::new(&engine, &device);
        let expected = (0..engine.model().page_count() as u64)
            .map(|p| engine.model().first_fault_wear(PhysicalPageAddr::new(p)))
            .min()
            .unwrap();
        assert_eq!(horizon.wear_margin(), expected.max(1));
    }

    #[test]
    fn margin_shrinks_as_the_watched_page_wears() {
        let (mut device, mut engine) = setup(4, 2, 2);
        let mut horizon = EventHorizon::new(&engine, &device);
        let before = horizon.wear_margin();
        let victim = PhysicalPageAddr::new(0);
        device.write_page_n(victim, before / 2);
        engine.absorb(&mut device).unwrap();
        horizon.observe(&engine, &device);
        let after = horizon.wear_margin();
        assert!(
            after < before,
            "margin {after} did not shrink from {before}"
        );
        // The victim's own distance dropped by exactly the wear added
        // (unless another page's first threshold is still nearer).
        let wear = device.wear_counters()[0];
        let victim_dist = engine.model().first_fault_wear(victim) - wear;
        assert!(after <= victim_dist);
    }

    #[test]
    fn first_fault_switches_to_retirement_watch() {
        let (mut device, mut engine) = setup(4, 2, 2);
        let mut horizon = EventHorizon::new(&engine, &device);
        let victim = PhysicalPageAddr::new(0);
        // Cross the victim's first threshold exactly.
        let first = engine.model().first_fault_wear(victim);
        device.write_page_n(victim, first);
        let report = engine.absorb(&mut device).unwrap();
        assert!(report.corrected_now > 0);
        horizon.observe(&engine, &device);
        // The margin is now the distance to the nearest budget-crossing
        // threshold, not the (already passed) first-fault threshold.
        let budget = engine.policy().budget();
        let expected = (0..engine.model().page_count() as u64)
            .map(PhysicalPageAddr::new)
            .filter_map(|p| {
                let t = engine.model().uncorrectable_wear(p, budget)?;
                Some(
                    t.saturating_sub(device.wear_counters()[p.as_usize()])
                        .max(1),
                )
            })
            .min()
            .unwrap();
        assert_eq!(horizon.wear_margin(), expected);
    }

    #[test]
    fn dead_pages_leave_the_horizon() {
        let (mut device, mut engine) = setup(4, 2, 0);
        let mut horizon = EventHorizon::new(&engine, &device);
        let margin = horizon.wear_margin();
        // Budget 0: the first fault retires the page outright. The
        // margin may belong to a spare, so scan the whole pool.
        let victim = (0..engine.model().page_count() as u64)
            .map(PhysicalPageAddr::new)
            .min_by_key(|&p| engine.model().first_fault_wear(p))
            .unwrap();
        assert_eq!(engine.model().first_fault_wear(victim), margin);
        device.write_page_n(victim, margin);
        let report = engine.absorb(&mut device).unwrap();
        assert_eq!(report.retirements.len(), 1);
        assert!(engine.is_dead(victim));
        horizon.observe(&engine, &device);
        // The new margin belongs to the nearest *live* page (budget 0
        // never corrects, so the watch stays on first thresholds).
        let expected = (0..engine.model().page_count() as u64)
            .map(PhysicalPageAddr::new)
            .filter(|&p| !engine.is_dead(p))
            .map(|p| {
                engine
                    .model()
                    .first_fault_wear(p)
                    .saturating_sub(device.wear_counters()[p.as_usize()])
                    .max(1)
            })
            .min()
            .unwrap();
        assert_eq!(horizon.wear_margin(), expected);
    }

    /// The margin recomputed from scratch: the nearest next observable
    /// event over every live page.
    fn brute_force_margin(engine: &FaultEngine, device: &PcmDevice) -> u64 {
        let budget = engine.policy().budget();
        (0..engine.model().page_count() as u64)
            .map(PhysicalPageAddr::new)
            .filter(|&p| !engine.is_dead(p))
            .filter_map(|p| {
                let threshold = if engine.corrected_groups() > 0 {
                    engine.model().uncorrectable_wear(p, budget)?
                } else {
                    engine.model().first_fault_wear(p)
                };
                Some(
                    threshold
                        .saturating_sub(device.wear_counters()[p.as_usize()])
                        .max(1),
                )
            })
            .min()
            .unwrap_or(NEVER)
    }

    #[test]
    fn margin_matches_brute_force_through_phase_switch_and_deaths() {
        // An eager horizon observes every absorb; a lazy one only notes
        // them and refreshes after a random number of absorbs — at times
        // past the page count, so its pending list overflows, and across
        // the first fault, so the phase switches while pages are pending.
        let (mut overflows, mut pending_switches) = (0, 0);
        // Page counts 6, 10 and 22: none a power of two.
        for (data, spares) in [(4, 2), (7, 3), (18, 4)] {
            for entries in [0, 2] {
                for seed in 0..4u64 {
                    let (mut device, mut engine) = setup(data, spares, entries);
                    let pages = (data + spares) as usize;
                    let mut eager = EventHorizon::new(&engine, &device);
                    let mut lazy = EventHorizon::new(&engine, &device);
                    assert_eq!(eager.tree.len(), 2 * pages);
                    assert_eq!(eager.wear_margin(), brute_force_margin(&engine, &device));
                    let mut rng = SplitMix64::seed_from(seed);
                    let mut switched = false;
                    let mut until_refresh = 0;
                    let exhausted = loop {
                        let slot = PhysicalPageAddr::new(rng.next_u64() % data);
                        device.write_page_n(slot, 1 + rng.next_u64() % 12);
                        let absorbed = engine.absorb(&mut device);
                        eager.observe(&engine, &device);
                        let case = format!("{pages} pages, {entries} entries, seed {seed}");
                        assert_eq!(eager.tree.len(), 2 * pages, "{case}");
                        let brute = brute_force_margin(&engine, &device);
                        assert_eq!(eager.wear_margin(), brute, "{case}");
                        let (was_pending, was_switched) =
                            (!lazy.pending.is_empty(), lazy.retirement_only);
                        lazy.note(&engine);
                        assert!(lazy.pending.len() <= pages, "{case}");
                        if was_pending && lazy.stale {
                            if lazy.retirement_only == was_switched {
                                overflows += 1;
                            } else {
                                pending_switches += 1;
                            }
                        }
                        if until_refresh == 0 {
                            lazy.refresh(&engine, &device);
                            assert!(lazy.pending.is_empty() && !lazy.stale, "{case}");
                            assert_eq!(lazy.wear_margin(), brute, "{case}");
                            assert_eq!(lazy.tree, eager.tree, "{case}");
                            until_refresh = rng.next_u64() % (2 * pages as u64);
                        } else {
                            until_refresh -= 1;
                        }
                        switched |= engine.corrected_groups() > 0;
                        if absorbed.is_err() {
                            break true;
                        }
                        if device.total_writes() > 100_000 {
                            break false;
                        }
                    };
                    assert!(exhausted, "the run reaches spare exhaustion");
                    assert!(engine.uncorrectable_pages() > spares, "pages died");
                    // Budget 0 never corrects, so only an ECP run
                    // switches phase.
                    assert_eq!(switched, entries > 0);
                }
            }
        }
        assert!(overflows > 0, "some pending list overflowed");
        assert!(
            pending_switches > 0,
            "some phase switch found pages pending"
        );
    }
}
