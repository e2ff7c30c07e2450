#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Prior wear-leveling schemes the DAC'17 paper compares against.
//!
//! All schemes implement [`twl_wl_core::WearLeveler`] and run on the same
//! [`twl_pcm::PcmDevice`] substrate as TWL:
//!
//! * [`SecurityRefresh`] — Seong, Woo & Lee (ISCA 2010): dynamically
//!   randomized address mapping via per-region XOR keys with gradual
//!   two-level refresh. The paper's representative of *traditional*
//!   (PV-unaware) wear leveling ("SR" in Figs. 6, 8, 9).
//! * [`BloomFilterWl`] — Yun, Lee & Yoo (DATE 2012): PV-aware
//!   prediction-based leveling using counting Bloom filters and dynamic
//!   thresholds to detect hot/cold pages ("BWL" in Figs. 6, 8, 9); the
//!   paper's state-of-the-art PV-aware victim of the inconsistent-write
//!   attack.
//! * [`WearRateLeveling`] — Dong et al. (DAC 2011): the canonical
//!   prediction–swap–running flow of Fig. 1, with a full write-number
//!   table and epoch-end sorting. Used to illustrate the attack (§3.2).
//! * [`StartGap`] — Qureshi et al. (MICRO 2009): gap rotation plus static
//!   Feistel address randomization. Not in the paper's evaluation but the
//!   ancestor of SR and the source of TWL's RNG; included for
//!   completeness.
//! * [`OnDemandPagePairing`] — Asadinia et al. (DAC 2014), the paper's
//!   reference \[1\]: graceful degradation by re-pairing failed pages onto
//!   healthy hosts on demand.
//! * [`CountingBloomFilter`] / [`BloomFilter`] — the probabilistic
//!   membership substrate BWL is built on.
//!
//! # Examples
//!
//! ```
//! use twl_baselines::{SecurityRefresh, SrConfig};
//! use twl_pcm::{LogicalPageAddr, PcmConfig, PcmDevice};
//! use twl_wl_core::WearLeveler;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pcm = PcmConfig::builder().pages(256).mean_endurance(100_000).seed(1).build()?;
//! let mut device = PcmDevice::new(&pcm);
//! let mut sr = SecurityRefresh::new(&SrConfig::for_pages(256)?, 256)?;
//! sr.write(LogicalPageAddr::new(3), &mut device)?;
//! # Ok(())
//! # }
//! ```

mod adaptive;
mod bloom;
mod bwl;
mod od3p;
mod security_refresh;
mod start_gap;
mod wrl;

pub use adaptive::AdaptiveSecurityRefresh;
pub use bloom::{BloomFilter, CountingBloomFilter};
pub use bwl::{BloomFilterWl, BwlConfig};
pub use od3p::{Od3pConfig, OnDemandPagePairing};
pub use security_refresh::{SecurityRefresh, SrConfig, SrError};
pub use start_gap::{StartGap, StartGapConfig};
pub use wrl::{WearRateLeveling, WrlConfig};
