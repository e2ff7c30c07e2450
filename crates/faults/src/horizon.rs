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
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use twl_pcm::{table, PcmDevice, PhysicalPageAddr};

/// Distance sentinel for pages with no further observable events
/// (dead pages, or live pages whose fault budget exceeds their group
/// count).
const NEVER: u64 = u64::MAX;

/// Tracks every page's wear-distance to its next observable fault event
/// and answers "how much single-page wear is safe before the next
/// absorb" in O(log pages).
///
/// Distances only shrink as wear grows, and only pages the fault engine
/// actually touched can have moved, so the structure is a lazy min-heap
/// over a dense distance table: [`EventHorizon::observe`] refreshes the
/// touched pages after each absorb, and [`EventHorizon::wear_margin`]
/// pops stale heap entries until the top matches the table.
#[derive(Debug)]
pub struct EventHorizon {
    /// Current wear-distance to the next event, per physical page.
    dist: Vec<u64>,
    /// Lazy min-heap of `(distance, page)`; entries whose distance no
    /// longer matches `dist` are discarded on pop.
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    /// Whether the first-fault event has already fired, leaving only
    /// retirements to watch.
    retirement_only: bool,
}

impl EventHorizon {
    /// Builds the horizon for the engine's current fault state and the
    /// device's current wear.
    #[must_use]
    pub fn new(engine: &FaultEngine, device: &PcmDevice) -> Self {
        let pages = engine.model().page_count();
        let mut horizon = Self {
            dist: table::filled(pages, NEVER),
            heap: BinaryHeap::with_capacity(pages),
            retirement_only: engine.corrected_groups() > 0,
        };
        horizon.rebuild(engine, device);
        horizon
    }

    /// The largest wear growth no single page can reach without
    /// crossing an observable event: a batch that grows every page's
    /// wear by *strictly less than* this is event-free.
    ///
    /// Returns `u64::MAX` when no page has a future event.
    pub fn wear_margin(&mut self) -> u64 {
        while let Some(&Reverse((d, page))) = self.heap.peek() {
            if self.dist[usize::try_from(page).expect("page index fits usize")] == d {
                return d;
            }
            self.heap.pop();
        }
        NEVER
    }

    /// Refreshes the horizon after an absorb: re-derives the distance of
    /// every page the engine touched (including retirement copy-writes)
    /// and switches to retirement-only watching once the first group
    /// correction has happened.
    pub fn observe(&mut self, engine: &FaultEngine, device: &PcmDevice) {
        if !self.retirement_only && engine.corrected_groups() > 0 {
            // First fault fired: every page's next event jumps from its
            // first threshold to its budget-crossing threshold. One full
            // rebuild per run.
            self.retirement_only = true;
            self.rebuild(engine, device);
            return;
        }
        for i in 0..engine.touched().len() {
            let page = engine.touched()[i];
            self.update(page, engine, device);
        }
    }

    /// Recomputes one page's distance and records it in the table and
    /// heap.
    fn update(&mut self, page: PhysicalPageAddr, engine: &FaultEngine, device: &PcmDevice) {
        let d = self.distance(page, engine, device);
        if self.dist[page.as_usize()] != d {
            self.dist[page.as_usize()] = d;
            if d != NEVER {
                self.heap.push(Reverse((d, page.index())));
            }
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
        let wear = device.wear_counters()[page.as_usize()];
        // A group fails once wear *reaches* its threshold, so a page one
        // short of it has margin 1 — only a single-write batch is safe.
        // An already-crossed threshold (possible only transiently, mid
        // phase switch) degenerates to per-write pacing rather than
        // underflowing.
        threshold.saturating_sub(wear).max(1)
    }

    /// Recomputes every page from scratch (construction and the
    /// first-fault phase switch).
    fn rebuild(&mut self, engine: &FaultEngine, device: &PcmDevice) {
        self.heap.clear();
        for i in 0..self.dist.len() {
            let page = PhysicalPageAddr::new(u64::try_from(i).expect("page count fits u64"));
            let d = self.distance(page, engine, device);
            self.dist[i] = d;
            if d != NEVER {
                self.heap.push(Reverse((d, page.index())));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellFaultModel, CorrectionPolicy, FaultConfig};
    use twl_pcm::{PcmConfig, WearPolicy};

    fn setup(spares: u64, entries: u32) -> (PcmDevice, FaultEngine) {
        let pages = 4 + spares;
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
        device.set_spare_pool((4..pages).map(PhysicalPageAddr::new).collect());
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
        let (device, engine) = setup(2, 2);
        let mut horizon = EventHorizon::new(&engine, &device);
        let expected = (0..engine.model().page_count() as u64)
            .map(|p| engine.model().first_fault_wear(PhysicalPageAddr::new(p)))
            .min()
            .unwrap();
        assert_eq!(horizon.wear_margin(), expected.max(1));
    }

    #[test]
    fn margin_shrinks_as_the_watched_page_wears() {
        let (mut device, mut engine) = setup(2, 2);
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
        let (mut device, mut engine) = setup(2, 2);
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
        let (mut device, mut engine) = setup(2, 0);
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
}
