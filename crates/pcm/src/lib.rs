#![warn(missing_docs)]
#![deny(unsafe_code)]

//! Phase-change-memory device model for the `tossup-wl` simulator.
//!
//! This crate is the hardware substrate under every wear-leveling scheme:
//! a page-addressable PCM array whose per-page write endurance follows the
//! process-variation (PV) model of the DAC'17 paper (§5.1): a Gaussian
//! with mean 10⁸ writes and standard deviation 11 % of the mean, tested
//! and stored at page granularity.
//!
//! The device is deliberately *dumb*: it exposes page reads and writes,
//! accounts wear, and fails a page permanently once its endurance is
//! exhausted. Address remapping, swaps, and timing policy all live in
//! higher layers (`twl-wl-core`, `twl-memctrl`).
//!
//! # Examples
//!
//! ```
//! use twl_pcm::{PcmConfig, PcmDevice, PhysicalPageAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = PcmConfig::builder()
//!     .pages(256)
//!     .mean_endurance(1_000)
//!     .seed(7)
//!     .build()?;
//! let mut device = PcmDevice::new(&config);
//! device.write_page(PhysicalPageAddr::new(3))?;
//! assert_eq!(device.wear(PhysicalPageAddr::new(3)), 1);
//! # Ok(())
//! # }
//! ```

mod addr;
mod config;
mod device;
mod endurance;
mod error;
mod intern;
mod stats;
pub mod table;
mod timing;

pub use addr::{LogicalPageAddr, PhysicalPageAddr};
pub use config::{PcmConfig, PcmConfigBuilder};
pub use device::{BulkWrite, DeviceSnapshot, PcmDevice, WearPolicy};
pub use endurance::EnduranceMap;
pub use error::PcmError;
pub use intern::InternTable;
pub use stats::{wear_gini, WearStats};
pub use timing::PcmTiming;
