//! The inconsistent-write attack (paper §3.2, Fig. 3).

use crate::{AttackStream, SwapDetector};
use twl_pcm::LogicalPageAddr;
use twl_wl_core::WriteOutcome;

/// Configuration of [`InconsistentAttack`].
///
/// # Examples
///
/// ```
/// use twl_attacks::InconsistentConfig;
///
/// let config = InconsistentConfig::for_pages(8192);
/// assert_eq!(config.group_size, 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InconsistentConfig {
    /// Addresses per tier group. The attack uses two groups of this
    /// size (`LA_0 .. LA_{2g-1}`): one plays the *victim* tier (written
    /// just often enough to be observed and classified cold), the other
    /// the *firehose* tier (a steep geometric intensity gradient). The
    /// roles swap at every reversal.
    pub group_size: u64,
    /// How many of the firehose group's addresses carry the geometric
    /// boost (the top address alone takes ≈half the firehose traffic,
    /// like Fig. 3's `90` of `190`).
    pub firehose_ranks: u32,
    /// One victim write is interleaved every `victim_stride` writes, so
    /// each victim accumulates a small, *nonzero* count per prediction
    /// window — enough to be seen, never enough to look warm. This is
    /// the "write number properly set" of §3.2.
    pub victim_stride: u64,
    /// Base write count of the hottest firehose address per sweep.
    pub firehose_base: u64,
    /// Blocking-cycles threshold for swap-phase detection.
    pub detect_threshold_cycles: u64,
    /// Ignore detections until the current phase has lasted this many
    /// writes. The scheme needs time to observe the victims as cold and
    /// park them before a reversal pays off; flipping on every detected
    /// background swap would outrun the prediction machinery.
    pub min_phase_writes: u64,
    /// Force a reversal after this many writes without a detected swap.
    /// An adaptive scheme that reaches a stable mapping stops producing
    /// observable swaps; a patient attacker flips anyway to re-poison
    /// the prediction.
    pub phase_timeout_writes: u64,
}

impl InconsistentConfig {
    /// Defaults for a device of `pages` pages: two 32-address groups,
    /// 16 boosted ranks, one victim write per `pages/2` writes,
    /// detection at 8 page-migrations' blocking (18 000 cycles at
    /// DAC'17 timing), timeout at 32 writes per page.
    #[must_use]
    pub fn for_pages(pages: u64) -> Self {
        let group_size = 16.min(pages / 2).max(1);
        Self {
            group_size,
            firehose_ranks: group_size as u32,
            victim_stride: (pages / 2).max(4),
            firehose_base: 256,
            detect_threshold_cycles: 8 * 2250,
            min_phase_writes: (pages * 32).max(2048),
            phase_timeout_writes: (pages * 64).max(4096),
        }
    }

    /// Total addresses the attack touches.
    #[must_use]
    pub fn working_set(&self) -> u64 {
        2 * self.group_size
    }
}

/// The paper's inconsistent-write attack.
///
/// Repeats two steps (§3.2):
///
/// * **Step-1**: present an inconsistent-looking but front-loaded write
///   distribution: the *victim* group receives a trickle (one write per
///   [`InconsistentConfig::victim_stride`] writes — observed, but
///   unambiguously cold), while the *firehose* group takes a steep
///   geometric gradient. A PV-aware prediction scheme maps the firehose
///   onto strong frames and parks the victims on the weakest frames.
///   Meanwhile, watch response times for the swap phase.
/// * **Step-2**: when a swap phase is detected (or the scheme goes
///   quiet past the timeout), *swap the two groups' roles*: the freshly
///   weak-parked victims now take the firehose — intensive writes land
///   exactly on the weakest frames, and the previous firehose (parked
///   on strong frames) becomes the next round's victims.
///
/// Against TWL the reversal changes nothing, because TWL never
/// predicted anything.
///
/// # Examples
///
/// ```
/// use twl_attacks::{AttackStream, InconsistentAttack, InconsistentConfig};
///
/// let mut attack = InconsistentAttack::new(&InconsistentConfig::for_pages(256));
/// let la = attack.next_write(None);
/// assert!(la.index() < 64);
/// assert!(!attack.reversed());
/// ```
#[derive(Debug, Clone)]
pub struct InconsistentAttack {
    config: InconsistentConfig,
    detector: SwapDetector,
    /// false: low group = victims, high group = firehose (step-1);
    /// true: roles swapped (step-2).
    reversed: bool,
    writes: u64,
    writes_since_flip: u64,
    /// Round-robin position within the victim group.
    victim_next: u64,
    /// Firehose sweep state: rank from the top (0 = hottest) and writes
    /// remaining at that rank.
    fire_rank: u32,
    fire_remaining: u64,
    reversals: u64,
    timeout_flips: u64,
}

impl InconsistentAttack {
    /// Creates the attack.
    ///
    /// # Panics
    ///
    /// Panics if the group size, stride, or firehose configuration is
    /// zero.
    #[must_use]
    pub fn new(config: &InconsistentConfig) -> Self {
        assert!(config.group_size > 0, "attack needs a non-empty group");
        assert!(config.victim_stride > 1, "victim stride must exceed 1");
        assert!(
            config.firehose_ranks > 0 && u64::from(config.firehose_ranks) <= config.group_size,
            "firehose ranks must fit in the group"
        );
        assert!(config.firehose_base > 0, "firehose base must be positive");
        Self {
            config: *config,
            detector: SwapDetector::new(config.detect_threshold_cycles),
            reversed: false,
            writes: 0,
            writes_since_flip: 0,
            victim_next: 0,
            fire_rank: 0,
            fire_remaining: config.firehose_base,
            reversals: 0,
            timeout_flips: 0,
        }
    }

    /// Whether the groups' roles are currently swapped.
    #[must_use]
    pub fn reversed(&self) -> bool {
        self.reversed
    }

    /// Number of detection-triggered reversals so far.
    #[must_use]
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Number of reversals forced by the phase timeout.
    #[must_use]
    pub fn timeout_flips(&self) -> u64 {
        self.timeout_flips
    }

    /// The victim group's address for round-robin slot `i`: the low
    /// group in step-1, the high group in step-2.
    fn victim_address(&self, i: u64) -> LogicalPageAddr {
        if self.reversed {
            LogicalPageAddr::new(self.config.group_size + i)
        } else {
            LogicalPageAddr::new(i)
        }
    }

    /// The firehose address `from_top` places from its top. The
    /// firehose always ascends from its group's *lowest* index, because
    /// that is the member a deterministic cold-ranking parks deepest
    /// (among equally-cold victims, ties break by address) — step-2's
    /// hottest address is exactly step-1's most-reliably-parked victim.
    fn firehose_address(&self, from_top: u32) -> LogicalPageAddr {
        if self.reversed {
            LogicalPageAddr::new(u64::from(from_top))
        } else {
            LogicalPageAddr::new(self.config.group_size + u64::from(from_top))
        }
    }

    /// Firehose writes at `from_top` per sweep: geometric halving.
    fn firehose_weight(&self, from_top: u32) -> u64 {
        (self.config.firehose_base >> from_top).max(1)
    }

    fn flip(&mut self) {
        self.reversed = !self.reversed;
        self.writes_since_flip = 0;
        self.victim_next = 0;
        self.fire_rank = 0;
        self.fire_remaining = self.firehose_weight(0);
    }
}

impl AttackStream for InconsistentAttack {
    fn name(&self) -> &str {
        "inconsistent"
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        self.writes += 1;
        self.writes_since_flip += 1;
        let mut flip = false;
        if let Some(out) = feedback {
            let detected = self.detector.observe(out);
            if detected && self.writes_since_flip >= self.config.min_phase_writes {
                flip = true;
                self.reversals += 1;
            }
        }
        if !flip && self.writes_since_flip >= self.config.phase_timeout_writes {
            flip = true;
            self.timeout_flips += 1;
        }
        if flip {
            self.flip();
        }

        // Interleave the victim trickle.
        if self.writes.is_multiple_of(self.config.victim_stride) {
            let la = self.victim_address(self.victim_next);
            self.victim_next = (self.victim_next + 1) % self.config.group_size;
            return la;
        }

        // Firehose sweep, hottest-first.
        let la = self.firehose_address(self.fire_rank);
        self.fire_remaining -= 1;
        if self.fire_remaining == 0 {
            self.fire_rank += 1;
            if self.fire_rank == self.config.firehose_ranks {
                self.fire_rank = 0;
            }
            self.fire_remaining = self.firehose_weight(self.fire_rank);
        }
        la
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twl_pcm::PhysicalPageAddr;

    fn no_block() -> WriteOutcome {
        WriteOutcome::plain(PhysicalPageAddr::new(0))
    }

    fn big_block() -> WriteOutcome {
        let mut out = WriteOutcome::plain(PhysicalPageAddr::new(0));
        out.blocking_cycles = 1_000_000;
        out
    }

    fn config() -> InconsistentConfig {
        InconsistentConfig {
            group_size: 32,
            firehose_ranks: 16,
            victim_stride: 64,
            firehose_base: 256,
            detect_threshold_cycles: 10_000,
            min_phase_writes: 0,
            phase_timeout_writes: u64::MAX,
        }
    }

    fn counts_over(attack: &mut InconsistentAttack, writes: u64) -> Vec<u64> {
        let mut counts = vec![0u64; attack.config.working_set() as usize];
        for _ in 0..writes {
            counts[attack.next_write(Some(&no_block())).as_usize()] += 1;
        }
        counts
    }

    #[test]
    fn step1_firehose_hits_high_group_victims_low() {
        let mut attack = InconsistentAttack::new(&config());
        let counts = counts_over(&mut attack, 20_000);
        let top: u64 = counts[32..].iter().sum();
        let low: u64 = counts[..32].iter().sum();
        assert!(top > 20 * low, "firehose {top} vs victims {low}");
        // Victims are written (observably cold), roughly evenly.
        assert!(counts[..32].iter().all(|&c| c > 0));
        // The firehose top is its group's lowest index (the address the
        // scheme will park deepest when roles flip).
        assert!(counts[32] as f64 / top as f64 > 0.4, "{counts:?}");
    }

    #[test]
    fn reversal_swaps_roles_and_aims_at_la0() {
        let mut attack = InconsistentAttack::new(&config());
        let _ = attack.next_write(Some(&big_block()));
        assert!(attack.reversed());
        assert_eq!(attack.reversals(), 1);
        let counts = counts_over(&mut attack, 20_000);
        let low: u64 = counts[..32].iter().sum();
        let high: u64 = counts[32..].iter().sum();
        assert!(low > 20 * high, "reversed firehose {low} vs victims {high}");
        // LA0 — the coldest of step-1 — takes the brunt of step-2.
        assert!(counts[0] as f64 / low as f64 > 0.4, "{counts:?}");
    }

    #[test]
    fn victims_trickle_at_the_stride() {
        let mut attack = InconsistentAttack::new(&config());
        let counts = counts_over(&mut attack, 64 * 32);
        // One victim write per stride: 64*32/64 = 32 victim writes,
        // round-robin → exactly one each.
        assert!(counts[..32].iter().all(|&c| c == 1), "{counts:?}");
    }

    #[test]
    fn timeout_forces_reversal_when_scheme_goes_quiet() {
        let mut cfg = config();
        cfg.phase_timeout_writes = 500;
        let mut attack = InconsistentAttack::new(&cfg);
        for _ in 0..1000 {
            let _ = attack.next_write(Some(&no_block()));
        }
        assert_eq!(attack.timeout_flips(), 2);
        assert_eq!(attack.reversals(), 0);
        assert!(!attack.reversed(), "two flips return to step-1");
    }

    #[test]
    fn no_detection_without_blocking() {
        let mut attack = InconsistentAttack::new(&config());
        for _ in 0..1000 {
            let _ = attack.next_write(Some(&no_block()));
        }
        assert_eq!(attack.reversals(), 0);
        assert!(!attack.reversed());
    }

    #[test]
    fn addresses_stay_in_working_set() {
        let mut attack = InconsistentAttack::new(&InconsistentConfig::for_pages(256));
        for i in 0..10_000u64 {
            let fb = if i % 977 == 0 {
                big_block()
            } else {
                no_block()
            };
            let la = attack.next_write(Some(&fb));
            assert!(la.index() < 64, "la = {la}");
        }
    }

    #[test]
    fn tiny_device_clamps() {
        let config = InconsistentConfig::for_pages(16);
        assert_eq!(config.working_set(), 16);
        let mut attack = InconsistentAttack::new(&config);
        for _ in 0..100 {
            assert!(attack.next_write(Some(&no_block())).index() < 16);
        }
    }
}
