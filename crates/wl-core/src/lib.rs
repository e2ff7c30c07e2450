#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Wear-leveling abstractions shared by every scheme in `tossup-wl`.
//!
//! The crate defines:
//!
//! * [`WearLeveler`] — the trait all schemes implement (TWL, Security
//!   Refresh, bloom-filter WL, wear-rate leveling, Start-Gap, NOWL). The
//!   simulators in `twl-lifetime` and `twl-memctrl` are generic over it.
//! * [`WriteOutcome`] / [`ReadOutcome`] — per-request results carrying the
//!   physical address used, how many device writes were spent, and the
//!   latency the request experienced. The *blocking* component of that
//!   latency is the side channel the paper's attacker observes to detect
//!   swap phases (§3.2, footnote 1).
//! * [`RemappingTable`] — the logical→physical table (RT in Fig. 1/5) with
//!   a maintained inverse, so swaps are O(1) and the bijection invariant
//!   is checkable.
//! * [`WriteCounterTable`] — the WNT/WCT of the paper.
//! * [`WlStats`] — uniform accounting of logical writes, device writes,
//!   swaps and latency across schemes.
//! * [`Nowl`] — the "no wear leveling" identity baseline.
//! * [`AttackMonitor`] / [`MisraGries`] — online malicious-write-stream
//!   detection in the style of the paper's reference \[11\] (Qureshi+,
//!   HPCA 2011).
//!
//! # Examples
//!
//! ```
//! use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
//! use twl_wl_core::{Nowl, WearLeveler};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = PcmConfig::builder().pages(64).mean_endurance(1000).seed(0).build()?;
//! let mut device = PcmDevice::new(&config);
//! let mut scheme = Nowl::new(config.pages);
//! let outcome = scheme.write(LogicalPageAddr::new(5), &mut device)?;
//! assert_eq!(outcome.pa.index(), 5);
//! # Ok(())
//! # }
//! ```

mod monitor;
mod nowl;
mod outcome;
mod stats;
mod tables;
mod traits;

pub use monitor::{AttackMonitor, MisraGries};
pub use nowl::Nowl;
pub use outcome::{BatchOutcome, ReadOutcome, WriteOutcome};
pub use stats::WlStats;
pub use tables::{RemappingTable, WriteCounterTable};
pub use traits::WearLeveler;
