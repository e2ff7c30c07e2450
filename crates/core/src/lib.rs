#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # Toss-up Wear Leveling (TWL)
//!
//! The primary contribution of *Toss-up Wear Leveling: Protecting
//! Phase-Change Memories from Inconsistent Write Patterns* (Zhang & Sun,
//! DAC 2017), implemented as a [`WearLeveler`](twl_wl_core::WearLeveler).
//!
//! ## How it works (paper §4)
//!
//! Prior PV-aware schemes *predict* hot addresses and map them to strong
//! pages; a malicious program that reverses its write distribution after
//! every swap phase turns that prediction into a weapon (§3). TWL never
//! predicts. Instead:
//!
//! 1. **Toss-up pairs** — every strong page is bonded with a weak page
//!    ([`PairTable`], built by [`PairingStrategy::StrongWeak`] sorting).
//! 2. **Toss-up** — when a write arrives at either page of a pair, a
//!    random draw sends it to page A with probability
//!    `E_A / (E_A + E_B)`, so the *stronger page takes proportionally
//!    more wear no matter what the program does*.
//! 3. **Swap judge** — if the toss picks the page that does not currently
//!    hold the data, the pair swaps first ("swap-then-write", optimized
//!    from 3 device writes down to 2).
//! 4. **Interval-triggered toss-up** — the toss only runs every
//!    [`TwlConfig::toss_up_interval`] writes to a page (paper picks 32,
//!    ≈2.2 % extra writes).
//! 5. **Inter-pair swap** — every
//!    [`TwlConfig::inter_pair_swap_interval`] (=128) writes the written
//!    page swaps with a uniformly random page, spreading traffic across
//!    pairs.
//!
//! ## Example
//!
//! ```
//! use twl_core::{TossUpWearLeveling, TwlConfig};
//! use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
//! use twl_wl_core::WearLeveler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pcm = PcmConfig::builder().pages(128).mean_endurance(10_000).seed(1).build()?;
//! let mut device = PcmDevice::new(&pcm);
//! let twl_config = TwlConfig::builder().toss_up_interval(32).build()?;
//! let mut twl = TossUpWearLeveling::new(&twl_config, device.endurance_map());
//!
//! for i in 0..1000u64 {
//!     twl.write(LogicalPageAddr::new(i % 128), &mut device)?;
//! }
//! assert!(twl.stats().device_writes >= 1000);
//! # Ok(())
//! # }
//! ```

mod config;
mod engine;
mod overhead;
mod pairing;

pub use config::{TwlConfig, TwlConfigBuilder, TwlConfigError};
pub use engine::{swap_probability, TossUpWearLeveling};
pub use overhead::TwlOverhead;
pub use pairing::{PairTable, PairingStrategy};
