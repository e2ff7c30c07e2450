#![warn(missing_docs)]

//! Wear-out attack generators (paper §3 and §5.2).
//!
//! The attack model (Fig. 2): a malicious program issues arbitrary
//! `(op, LA, data)` commands to the PCM and can *time* each response
//! (`rdtsc`). Swap phases block the memory, so their latency spikes are
//! attacker-visible — this crate's [`SwapDetector`] is exactly that side
//! channel, fed from the [`WriteOutcome::blocking_cycles`] each request
//! reports.
//!
//! Four attack modes are evaluated in Fig. 6:
//!
//! * [`RepeatAttack`] — hammer one fixed address (Qureshi+, HPCA'11).
//! * [`RandomAttack`] — uniformly random addresses.
//! * [`ScanAttack`] — consecutive addresses, wrapping.
//! * [`InconsistentAttack`] — the paper's contribution (§3.2): show an
//!   ascending write-intensity distribution until a swap phase is
//!   detected, then *reverse* the distribution, so predicted-cold
//!   addresses (which prediction-based schemes park on weak frames) take
//!   the intensive writes.
//!
//! # Examples
//!
//! ```
//! use twl_attacks::{Attack, AttackKind, AttackStream};
//!
//! let mut attack = Attack::new(AttackKind::Scan, 128, 0);
//! let first = attack.next_write(None);
//! let second = attack.next_write(None);
//! assert_eq!(second.index(), first.index() + 1);
//! ```

mod detect;
mod inconsistent;
mod modes;

pub use detect::SwapDetector;
pub use inconsistent::{InconsistentAttack, InconsistentConfig};
pub use modes::{RandomAttack, RepeatAttack, ScanAttack};

use std::fmt;
use twl_pcm::LogicalPageAddr;
use twl_wl_core::WriteOutcome;

/// A feedback-driven stream of attack writes.
///
/// `feedback` carries the outcome of the *previous* write (`None` before
/// the first), from which the attacker may extract timing. The trait is
/// object-safe so the lifetime simulator can drive any attack uniformly.
pub trait AttackStream {
    /// The attack's display name.
    fn name(&self) -> &str;

    /// Produces the next logical address to write.
    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr;

    /// Produces the next *run* of writes: an address and how many
    /// consecutive writes (at most `max`) the stream commits to issuing
    /// there before it needs feedback again.
    ///
    /// This is the batchability contract of the event-skipping fast
    /// path: declaring a run of `len` promises the stream would have
    /// produced the same address for the next `len` calls to
    /// [`AttackStream::next_write`] *regardless of the feedback* those
    /// calls would have seen, and that one `next_run` call advances the
    /// stream's internal state exactly as `len` `next_write` calls
    /// would. Feedback-adaptive attacks (and any stream that varies its
    /// address per write) keep the default run length of 1, which
    /// degrades the batched driver to exact per-write behaviour —
    /// feedback is consulted before every run.
    fn next_run(&mut self, feedback: Option<&WriteOutcome>, max: u64) -> (LogicalPageAddr, u64) {
        let _ = max;
        (self.next_write(feedback), 1)
    }
}

/// The four attack modes of Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AttackKind {
    /// Fix one address to write.
    Repeat,
    /// Write addresses are random.
    Random,
    /// Write addresses are consecutive.
    Scan,
    /// Reverse the write-intensity distribution around detected swaps.
    Inconsistent,
}

impl AttackKind {
    /// All four modes, in the paper's Fig. 6 order.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::Repeat,
        AttackKind::Random,
        AttackKind::Scan,
        AttackKind::Inconsistent,
    ];
}

impl fmt::Display for AttackKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Self::Repeat => "repeat",
            Self::Random => "random",
            Self::Scan => "scan",
            Self::Inconsistent => "inconsistent",
        };
        f.write_str(s)
    }
}

/// A uniform wrapper over the four attack modes.
///
/// # Examples
///
/// ```
/// use twl_attacks::{Attack, AttackKind, AttackStream};
///
/// let mut attack = Attack::new(AttackKind::Repeat, 64, 7);
/// let a = attack.next_write(None);
/// let b = attack.next_write(None);
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub enum Attack {
    /// See [`RepeatAttack`].
    Repeat(RepeatAttack),
    /// See [`RandomAttack`].
    Random(RandomAttack),
    /// See [`ScanAttack`].
    Scan(ScanAttack),
    /// See [`InconsistentAttack`].
    Inconsistent(InconsistentAttack),
}

impl Attack {
    /// Builds an attack of the given kind against a device of `pages`
    /// pages, with deterministic randomness from `seed`.
    #[must_use]
    pub fn new(kind: AttackKind, pages: u64, seed: u64) -> Self {
        match kind {
            AttackKind::Repeat => Self::Repeat(RepeatAttack::new(LogicalPageAddr::new(0))),
            AttackKind::Random => Self::Random(RandomAttack::new(pages, seed)),
            AttackKind::Scan => Self::Scan(ScanAttack::new(pages)),
            AttackKind::Inconsistent => Self::Inconsistent(InconsistentAttack::new(
                &InconsistentConfig::for_pages(pages),
            )),
        }
    }

    /// The kind this attack was built as.
    #[must_use]
    pub fn kind(&self) -> AttackKind {
        match self {
            Self::Repeat(_) => AttackKind::Repeat,
            Self::Random(_) => AttackKind::Random,
            Self::Scan(_) => AttackKind::Scan,
            Self::Inconsistent(_) => AttackKind::Inconsistent,
        }
    }
}

impl AttackStream for Attack {
    fn name(&self) -> &str {
        match self {
            Self::Repeat(a) => a.name(),
            Self::Random(a) => a.name(),
            Self::Scan(a) => a.name(),
            Self::Inconsistent(a) => a.name(),
        }
    }

    fn next_write(&mut self, feedback: Option<&WriteOutcome>) -> LogicalPageAddr {
        match self {
            Self::Repeat(a) => a.next_write(feedback),
            Self::Random(a) => a.next_write(feedback),
            Self::Scan(a) => a.next_write(feedback),
            Self::Inconsistent(a) => a.next_write(feedback),
        }
    }

    fn next_run(&mut self, feedback: Option<&WriteOutcome>, max: u64) -> (LogicalPageAddr, u64) {
        match self {
            Self::Repeat(a) => a.next_run(feedback, max),
            Self::Random(a) => a.next_run(feedback, max),
            Self::Scan(a) => a.next_run(feedback, max),
            Self::Inconsistent(a) => a.next_run(feedback, max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_every_kind() {
        for kind in AttackKind::ALL {
            let mut attack = Attack::new(kind, 64, 1);
            assert_eq!(attack.kind(), kind);
            let la = attack.next_write(None);
            assert!(la.index() < 64);
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(AttackKind::Inconsistent.to_string(), "inconsistent");
        assert_eq!(AttackKind::Scan.to_string(), "scan");
    }
}

#[cfg(test)]
mod property_tests {
    use super::*;
    use proptest::prelude::*;
    use twl_pcm::PhysicalPageAddr;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every attack mode stays inside the logical address space for
        /// any page count and any feedback pattern the simulator could
        /// produce.
        #[test]
        fn attacks_stay_in_range(
            kind_pick in 0u8..4,
            pages in 2u64..5000,
            seed in any::<u64>(),
            blockings in proptest::collection::vec(0u64..200_000, 1..300),
        ) {
            let kind = AttackKind::ALL[kind_pick as usize];
            let mut attack = Attack::new(kind, pages, seed);
            let mut feedback = None;
            for &blocking in &blockings {
                let la = attack.next_write(feedback.as_ref());
                prop_assert!(la.index() < pages, "{kind}: {la} out of {pages}");
                let mut out = WriteOutcome::plain(PhysicalPageAddr::new(la.index()));
                out.blocking_cycles = blocking;
                feedback = Some(out);
            }
        }

        /// The scan attack is a permutation generator: over one full
        /// sweep it touches every page exactly once.
        #[test]
        fn scan_sweep_is_a_permutation(pages in 1u64..2000) {
            let mut attack = Attack::new(AttackKind::Scan, pages, 0);
            let mut seen = vec![false; pages as usize];
            for _ in 0..pages {
                let la = attack.next_write(None);
                prop_assert!(!seen[la.as_usize()]);
                seen[la.as_usize()] = true;
            }
            prop_assert!(seen.iter().all(|&s| s));
        }
    }
}
