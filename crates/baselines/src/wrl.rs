//! Wear-Rate Leveling (Dong et al., DAC 2011).
//!
//! The canonical *prediction–swap–running* PV-aware scheme of Fig. 1:
//! a write-number table (WNT) records per-page traffic during a
//! prediction phase; at the phase boundary, predicted-hot logical pages
//! are remapped onto the frames with the most remaining endurance and
//! predicted-cold pages onto the weakest frames; a running phase (10×
//! longer, per the paper) then trusts the prediction.
//!
//! This is exactly the scheme the inconsistent-write attack of §3
//! defeats: the swap phase *publishes* the weak frames by parking the
//! attacker's coldest addresses on them.

use twl_pcm::{LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_wl_core::{
    ReadOutcome, RemappingTable, WearLeveler, WlStats, WriteCounterTable, WriteOutcome,
};

/// Configuration of [`WearRateLeveling`].
///
/// # Examples
///
/// ```
/// use twl_baselines::WrlConfig;
///
/// let config = WrlConfig::for_pages(1024);
/// assert_eq!(config.running_multiple, 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WrlConfig {
    /// Length of the prediction phase in logical writes.
    pub prediction_writes: u64,
    /// Running phase length as a multiple of the prediction phase
    /// (paper: 10×).
    pub running_multiple: u64,
    /// How many hot→strong and cold→weak pairs to remap per swap phase.
    pub swap_top_k: usize,
    /// Engine cycles per WNT update during prediction.
    pub table_latency: u64,
}

impl WrlConfig {
    /// Defaults scaled to a device of `pages` pages: predict for two
    /// writes per page on average, remap the top eighth.
    #[must_use]
    pub fn for_pages(pages: u64) -> Self {
        Self {
            prediction_writes: (pages * 2).max(64),
            running_multiple: 10,
            swap_top_k: (pages as usize / 8).max(4),
            table_latency: 10,
        }
    }
}

/// Phase of the prediction–swap–running cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Counting writes into the WNT; `remaining` writes left.
    Prediction { remaining: u64 },
    /// Trusting the last prediction; `remaining` writes left.
    Running { remaining: u64 },
}

/// Wear-Rate Leveling (see the module docs above).
#[derive(Debug, Clone)]
pub struct WearRateLeveling {
    config: WrlConfig,
    rt: RemappingTable,
    wnt: WriteCounterTable,
    phase: Phase,
    swap_phases: u64,
    stats: WlStats,
}

impl WearRateLeveling {
    /// Creates the scheme over `pages` pages.
    ///
    /// # Panics
    ///
    /// Panics if `pages == 0`, `swap_top_k * 2 > pages`, or either phase
    /// length is zero.
    #[must_use]
    pub fn new(config: &WrlConfig, pages: u64) -> Self {
        assert!(pages > 0, "device must have pages");
        assert!(
            config.swap_top_k as u64 * 2 <= pages,
            "hot and cold swap sets must not overlap"
        );
        assert!(
            config.prediction_writes > 0 && config.running_multiple > 0,
            "phase lengths must be positive"
        );
        Self {
            config: config.clone(),
            rt: RemappingTable::identity(pages),
            wnt: WriteCounterTable::new(pages),
            phase: Phase::Prediction {
                remaining: config.prediction_writes,
            },
            swap_phases: 0,
            stats: WlStats::new(),
        }
    }

    /// Number of swap phases executed so far.
    #[must_use]
    pub fn swap_phases(&self) -> u64 {
        self.swap_phases
    }

    /// The live remapping table (for invariant tests).
    #[must_use]
    pub fn remapping_table(&self) -> &RemappingTable {
        &self.rt
    }

    /// Executes the swap phase: hot→strong then cold→weak, each pair
    /// migrated with two device writes. Returns `(migrations, blocking)`.
    fn swap_phase(&mut self, device: &mut PcmDevice) -> Result<(u32, u64), PcmError> {
        self.swap_phases += 1;
        let k = self.config.swap_top_k;
        let by_heat = self.wnt.hottest_first();
        // Frames ranked by remaining endurance (wear-rate leveling works
        // on remaining life, not raw endurance).
        let mut frames: Vec<PhysicalPageAddr> =
            (0..self.rt.len()).map(PhysicalPageAddr::new).collect();
        frames.sort_by_key(|&pa| std::cmp::Reverse(device.remaining(pa)));

        let migrate = device.config().timing.migrate_latency();
        let mut migrations = 0u32;
        let mut blocking = 0u64;
        let mut do_swap = |rt: &mut RemappingTable,
                           la: LogicalPageAddr,
                           target: PhysicalPageAddr,
                           device: &mut PcmDevice|
         -> Result<(), PcmError> {
            let current = rt.translate(la);
            if current == target {
                return Ok(());
            }
            // Exchange data of the two frames, then update the table.
            device.write_page(current)?;
            device.write_page(target)?;
            rt.swap_physical(current, target);
            migrations += 2;
            blocking += 2 * migrate;
            Ok(())
        };

        // Hot logical pages onto the strongest frames...
        for i in 0..k {
            do_swap(&mut self.rt, by_heat[i], frames[i], device)?;
        }
        // ...and cold logical pages onto the weakest frames (this is the
        // mapping the inconsistent-write attacker reverse-engineers).
        let n = by_heat.len();
        for i in 0..k {
            do_swap(
                &mut self.rt,
                by_heat[n - 1 - i],
                frames[frames.len() - 1 - i],
                device,
            )?;
        }

        self.wnt.reset_all();
        Ok((migrations, blocking))
    }
}

impl WearLeveler for WearRateLeveling {
    fn name(&self) -> &str {
        "WRL"
    }

    fn page_count(&self) -> u64 {
        self.rt.len()
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        self.rt.translate(la)
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // One request write plus at most one leveling swap pair per
        // logical write — at most three device writes to any one frame.
        (wear_margin.saturating_sub(1) / 4).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let mut engine_cycles = self.config.table_latency; // RT lookup
        let mut device_writes = 1u32;
        let mut blocking_cycles = 0u64;
        let mut swapped = false;

        let pa = self.rt.translate(la);
        device.write_page(pa)?;

        match self.phase {
            Phase::Prediction { ref mut remaining } => {
                self.wnt.increment(la);
                engine_cycles += self.config.table_latency; // WNT update
                *remaining -= 1;
                if *remaining == 0 {
                    let (migrations, blocking) = self.swap_phase(device)?;
                    device_writes += migrations;
                    blocking_cycles += blocking;
                    swapped = migrations > 0;
                    self.phase = Phase::Running {
                        remaining: self.config.prediction_writes * self.config.running_multiple,
                    };
                }
            }
            Phase::Running { ref mut remaining } => {
                *remaining -= 1;
                if *remaining == 0 {
                    self.phase = Phase::Prediction {
                        remaining: self.config.prediction_writes,
                    };
                }
            }
        }

        let outcome = WriteOutcome {
            pa,
            device_writes,
            swapped,
            engine_cycles,
            blocking_cycles,
        };
        self.stats.record_write(&outcome);
        Ok(outcome)
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.rt.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.table_latency,
        })
    }

    fn stats(&self) -> &WlStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PcmConfig;
    use twl_rng::{SimRng, Xoshiro256StarStar};

    fn setup(pages: u64) -> (PcmDevice, WearRateLeveling) {
        let pcm = PcmConfig::builder()
            .pages(pages)
            .mean_endurance(1_000_000)
            .seed(8)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        let wrl = WearRateLeveling::new(&WrlConfig::for_pages(pages), pages);
        (device, wrl)
    }

    #[test]
    fn hot_pages_land_on_strong_frames_after_swap() {
        let (mut device, mut wrl) = setup(64);
        let hot = LogicalPageAddr::new(7);
        // Make LA7 clearly the hottest through the prediction phase.
        let prediction = wrl.config.prediction_writes;
        for i in 0..prediction {
            let la = if i % 2 == 0 {
                hot
            } else {
                LogicalPageAddr::new(i % 64)
            };
            wrl.write(la, &mut device).unwrap();
        }
        assert_eq!(wrl.swap_phases(), 1);
        // LA7 must now live on the frame with the most remaining life.
        let strongest = (0..64)
            .map(PhysicalPageAddr::new)
            .max_by_key(|&pa| device.remaining(pa))
            .unwrap();
        assert_eq!(wrl.translate(hot), strongest);
        assert!(wrl.remapping_table().is_bijective());
    }

    #[test]
    fn cold_pages_land_on_weak_frames_after_swap() {
        let (mut device, mut wrl) = setup(64);
        // Never write LA63 during prediction: it is maximally cold.
        let prediction = wrl.config.prediction_writes;
        for i in 0..prediction {
            wrl.write(LogicalPageAddr::new(i % 63), &mut device)
                .unwrap();
        }
        assert_eq!(wrl.swap_phases(), 1);
        let weakest = (0..64)
            .map(PhysicalPageAddr::new)
            .min_by_key(|&pa| device.remaining(pa))
            .unwrap();
        // One of the never-written pages occupies the weakest frame; LA63
        // is the coldest by tie-break order only if it sorts last, so
        // check the weakest frame hosts *some* unwritten logical page.
        let resident = wrl.remapping_table().reverse(weakest);
        assert_eq!(
            wrl.wnt.count(resident),
            0,
            "weakest frame must host a cold page"
        );
    }

    #[test]
    fn swap_phase_emits_observable_blocking() {
        let (mut device, mut wrl) = setup(64);
        let prediction = wrl.config.prediction_writes;
        let mut max_blocking = 0;
        for i in 0..prediction + 10 {
            let out = wrl
                .write(LogicalPageAddr::new(i % 32), &mut device)
                .unwrap();
            max_blocking = max_blocking.max(out.blocking_cycles);
        }
        assert!(
            max_blocking >= 2 * device.config().timing.migrate_latency(),
            "the swap phase must block long enough for the attacker to see"
        );
    }

    #[test]
    fn phases_alternate_with_10x_running() {
        let (mut device, mut wrl) = setup(64);
        let p = wrl.config.prediction_writes;
        for i in 0..(p + 10 * p + p) {
            wrl.write(LogicalPageAddr::new(i % 64), &mut device)
                .unwrap();
        }
        assert_eq!(wrl.swap_phases(), 2);
    }

    #[test]
    fn mapping_stays_bijective_under_random_traffic() {
        let (mut device, mut wrl) = setup(128);
        let mut rng = Xoshiro256StarStar::seed_from(21);
        for _ in 0..30_000 {
            wrl.write(LogicalPageAddr::new(rng.next_bounded(128)), &mut device)
                .unwrap();
        }
        assert!(wrl.remapping_table().is_bijective());
        assert_eq!(wrl.stats().device_writes, device.total_writes());
    }

    #[test]
    #[should_panic(expected = "hot and cold swap sets must not overlap")]
    fn oversized_swap_k_panics() {
        let mut config = WrlConfig::for_pages(8);
        config.swap_top_k = 5;
        let _ = WearRateLeveling::new(&config, 8);
    }
}
