//! Start-Gap wear leveling (Qureshi et al., MICRO 2009).
//!
//! The ancestor of the randomized-remapping family: one spare frame (the
//! *gap*) rotates through the address space, shifting every logical page
//! by one frame per full rotation, on top of a static Feistel address
//! randomization. Not part of the DAC'17 evaluation, but included as the
//! origin of both Security Refresh's design and TWL's Feistel RNG, and
//! as an extra PV-unaware baseline for the benches.

use twl_pcm::{table, LogicalPageAddr, PcmDevice, PcmError, PhysicalPageAddr};
use twl_rng::FeistelPermutation;
use twl_wl_core::{BatchOutcome, ReadOutcome, WearLeveler, WlStats, WriteOutcome};

/// Configuration of [`StartGap`].
///
/// # Examples
///
/// ```
/// use twl_baselines::StartGapConfig;
///
/// let config = StartGapConfig::default();
/// assert_eq!(config.gap_interval, 100);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StartGapConfig {
    /// Writes between gap movements (the paper's ψ = 100).
    pub gap_interval: u64,
    /// Key for the static Feistel randomization.
    pub seed: u64,
    /// Disable the static randomization (ablation: plain rotation only).
    pub randomize: bool,
    /// Engine cycles per request for gap/start arithmetic.
    pub remap_latency: u64,
}

impl Default for StartGapConfig {
    fn default() -> Self {
        Self {
            gap_interval: 100,
            seed: 0x57A7_16AF,
            randomize: true,
            remap_latency: 2,
        }
    }
}

/// Start-Gap wear leveling (see the module docs above).
///
/// Manages `frames − 1` logical pages over `frames` physical frames; the
/// remaining frame is the moving gap.
///
/// Start-Gap moves a hammered address to a new frame only once per full
/// gap rotation (`frames x gap_interval` writes), so a repeat attack
/// defeats it whenever that round exceeds the page endurance — a known
/// limitation of the original design (its successors, Security Refresh
/// and the PV-aware schemes, exist in part to fix it), reproduced
/// faithfully here.
#[derive(Debug, Clone)]
pub struct StartGap {
    config: StartGapConfig,
    /// frame_of[l] = current physical frame of logical page l.
    frame_of: Vec<u64>,
    /// resident[f] = logical page currently in frame f (None = the gap).
    resident: Vec<Option<u64>>,
    gap: u64,
    perm: Option<FeistelPermutation>,
    writes: u64,
    gap_moves: u64,
    stats: WlStats,
}

impl StartGap {
    /// Creates the scheme over a device of `frames` physical frames
    /// (managing `frames − 1` logical pages).
    ///
    /// # Panics
    ///
    /// Panics if `frames < 2` or `gap_interval == 0`.
    #[must_use]
    pub fn new(config: &StartGapConfig, frames: u64) -> Self {
        assert!(
            frames >= 2,
            "start-gap needs at least one page plus the gap"
        );
        assert!(config.gap_interval > 0, "gap interval must be positive");
        let logical = frames - 1;
        // Static randomization domain: the next power of two ≥ logical;
        // out-of-range values cycle-walk back into range.
        let bits = {
            let b = 64 - (logical - 1).leading_zeros().min(63);
            // Feistel needs an even width ≥ 2.
            let b = b.max(2);
            if b.is_multiple_of(2) {
                b
            } else {
                b + 1
            }
        };
        let perm = config
            .randomize
            .then(|| FeistelPermutation::new(bits, config.seed, 4));
        let mut scheme = Self {
            config: *config,
            frame_of: table::filled(logical as usize, 0),
            resident: table::filled(frames as usize, None),
            gap: frames - 1,
            perm,

            writes: 0,
            gap_moves: 0,
            stats: WlStats::new(),
        };
        for l in 0..logical {
            let f = scheme.randomized(l);
            scheme.frame_of[l as usize] = f;
            scheme.resident[f as usize] = Some(l);
        }
        scheme
    }

    /// Static randomization of a logical index into `[0, logical)`,
    /// via cycle-walking the Feistel permutation.
    fn randomized(&self, l: u64) -> u64 {
        let logical = self.frame_of.len() as u64;
        match &self.perm {
            None => l,
            Some(perm) => {
                let mut v = l;
                loop {
                    v = perm.permute(v);
                    if v < logical {
                        return v;
                    }
                }
            }
        }
    }

    /// Number of gap movements so far.
    #[must_use]
    pub fn gap_moves(&self) -> u64 {
        self.gap_moves
    }

    /// Current gap frame.
    #[must_use]
    pub fn gap(&self) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.gap)
    }

    /// Moves the gap one frame backwards, migrating the displaced page.
    fn move_gap(&mut self, device: &mut PcmDevice) -> Result<u64, PcmError> {
        let frames = self.resident.len() as u64;
        let neighbor = (self.gap + frames - 1) % frames;
        if let Some(l) = self.resident[neighbor as usize] {
            device.write_page(PhysicalPageAddr::new(self.gap))?;
            self.frame_of[l as usize] = self.gap;
            self.resident[self.gap as usize] = Some(l);
        }
        self.resident[neighbor as usize] = None;
        self.gap = neighbor;
        self.gap_moves += 1;
        twl_telemetry::counter!("twl.baselines.start_gap.gap_moves").inc();
        Ok(device.config().timing.migrate_latency())
    }
}

impl WearLeveler for StartGap {
    fn name(&self) -> &str {
        "StartGap"
    }

    fn page_count(&self) -> u64 {
        self.frame_of.len() as u64
    }

    fn translate(&self, la: LogicalPageAddr) -> PhysicalPageAddr {
        PhysicalPageAddr::new(self.frame_of[la.as_usize()])
    }

    fn write_batch_cap(&self, wear_margin: u64) -> u64 {
        // Worst case per logical write on any one frame: the request
        // write plus the gap-rotation write landing on the same frame.
        (wear_margin.saturating_sub(1) / 2).max(1)
    }

    fn write(
        &mut self,
        la: LogicalPageAddr,
        device: &mut PcmDevice,
    ) -> Result<WriteOutcome, PcmError> {
        let mut device_writes = 1u32;
        let mut blocking_cycles = 0u64;
        let mut swapped = false;

        let pa = self.translate(la);
        device.write_page(pa)?;

        self.writes += 1;
        if self.writes.is_multiple_of(self.config.gap_interval) {
            blocking_cycles += self.move_gap(device)?;
            device_writes += 1;
            swapped = true;
        }

        let outcome = WriteOutcome {
            pa,
            device_writes,
            swapped,
            engine_cycles: self.config.remap_latency,
            blocking_cycles,
        };
        self.stats.record_write(&outcome);
        Ok(outcome)
    }

    fn write_batch(&mut self, la: LogicalPageAddr, n: u64, device: &mut PcmDevice) -> BatchOutcome {
        let mut batch = BatchOutcome::default();
        let mut remaining = n;
        while remaining > 0 {
            // Between gap movements the translation is frozen, so every
            // write up to (not including) the next interval boundary is
            // a plain wear bump on the same frame.
            let to_gap = self.config.gap_interval - self.writes % self.config.gap_interval;
            let plain = remaining.min(to_gap - 1);
            if plain > 0 {
                let pa = self.translate(la);
                let bulk = device.write_page_n(pa, plain);
                self.writes += bulk.landed;
                if bulk.landed > 0 {
                    let outcome = WriteOutcome {
                        pa,
                        device_writes: 1,
                        swapped: false,
                        engine_cycles: self.config.remap_latency,
                        blocking_cycles: 0,
                    };
                    self.stats.record_write_n(&outcome, bulk.landed);
                    batch.serviced += bulk.landed;
                    batch.last = Some(outcome);
                }
                if let Some(e) = bulk.failure {
                    batch.failure = Some(e);
                    return batch;
                }
                remaining -= plain;
                if remaining == 0 {
                    break;
                }
            }
            // The gap-moving write runs through the scalar path.
            match self.write(la, device) {
                Ok(outcome) => {
                    batch.serviced += 1;
                    batch.last = Some(outcome);
                    remaining -= 1;
                }
                Err(e) => {
                    batch.failure = Some(e);
                    return batch;
                }
            }
        }
        batch
    }

    fn read(&mut self, la: LogicalPageAddr, device: &PcmDevice) -> Result<ReadOutcome, PcmError> {
        let pa = self.translate(la);
        device.read_page(pa)?;
        Ok(ReadOutcome {
            pa,
            engine_cycles: self.config.remap_latency,
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

    fn setup(frames: u64) -> (PcmDevice, StartGap) {
        let pcm = PcmConfig::builder()
            .pages(frames)
            .mean_endurance(1_000_000)
            .seed(4)
            .build()
            .unwrap();
        let device = PcmDevice::new(&pcm);
        let sg = StartGap::new(&StartGapConfig::default(), frames);
        (device, sg)
    }

    #[test]
    fn initial_layout_is_consistent() {
        let (_, sg) = setup(64);
        for l in 0..63u64 {
            let f = sg.translate(LogicalPageAddr::new(l));
            assert_eq!(sg.resident[f.as_usize()], Some(l));
        }
        assert_eq!(sg.resident[sg.gap as usize], None);
    }

    #[test]
    fn gap_rotates_and_mapping_stays_consistent() {
        let (mut device, mut sg) = setup(64);
        let mut rng = Xoshiro256StarStar::seed_from(2);
        for _ in 0..20_000 {
            let la = LogicalPageAddr::new(rng.next_bounded(63));
            sg.write(la, &mut device).unwrap();
        }
        assert_eq!(sg.gap_moves(), 200);
        // Consistency: every logical page has exactly one frame, and the
        // gap frame is empty.
        let mut seen = [false; 64];
        for l in 0..63u64 {
            let f = sg.translate(LogicalPageAddr::new(l)).as_usize();
            assert!(!seen[f]);
            seen[f] = true;
        }
        assert!(!seen[sg.gap().as_usize()]);
    }

    #[test]
    fn write_batch_matches_sequential_writes() {
        let (mut dev_bulk, mut bulk) = setup(64);
        let (mut dev_seq, mut seq) = setup(64);
        let la = LogicalPageAddr::new(7);
        // Sizes straddling the 100-write gap interval.
        for &n in &[1u64, 50, 49, 100, 101, 250] {
            let batch = bulk.write_batch(la, n, &mut dev_bulk);
            assert_eq!(batch.serviced, n);
            let mut last = None;
            for _ in 0..n {
                last = Some(seq.write(la, &mut dev_seq).unwrap());
            }
            assert_eq!(batch.last, last, "n = {n}");
        }
        assert_eq!(bulk.stats(), seq.stats());
        assert_eq!(bulk.gap_moves(), seq.gap_moves());
        assert_eq!(bulk.gap(), seq.gap());
        assert_eq!(dev_bulk.wear_counters(), dev_seq.wear_counters());
        assert!(bulk.gap_moves() >= 5, "the stress actually moved the gap");
    }

    #[test]
    fn repeat_traffic_spreads_over_rotation() {
        let pcm = PcmConfig::builder()
            .pages(16)
            .mean_endurance(100_000_000)
            .seed(1)
            .build()
            .unwrap();
        let mut device = PcmDevice::new(&pcm);
        let config = StartGapConfig {
            gap_interval: 4,
            ..StartGapConfig::default()
        };
        let mut sg = StartGap::new(&config, 16);
        let la = LogicalPageAddr::new(0);
        // One full rotation needs frames × interval writes.
        for _ in 0..16 * 4 * 4 {
            sg.write(la, &mut device).unwrap();
        }
        let touched = device.wear_counters().iter().filter(|&&w| w > 0).count();
        assert!(
            touched > 8,
            "rotation must spread a repeat attack, touched {touched}"
        );
    }
}
