#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `twl-faults`: cell-level fault injection, ECP/SAFER-style correction,
//! and spare-pool page retirement for the `tossup-wl` simulator.
//!
//! The base stack models the DAC'17 methodology, where the first
//! [`twl_pcm::PcmError::PageWornOut`] ends the device's life. Real PCM
//! degrades cell-by-cell and survives long past its first failed bit:
//! error-correcting pointers absorb stuck-at cells, and uncorrectable
//! pages are remapped to spares. This crate adds that graceful
//! degradation as three layers:
//!
//! 1. **Cell fault model** ([`CellFaultModel`]) — every page gets
//!    `cell_groups_per_page` independent wear-out thresholds drawn
//!    around its tested endurance (deterministic per [`FaultConfig`]
//!    seed). Wear crossing a threshold is a permanent stuck-at group
//!    fault.
//! 2. **Correction** ([`CorrectionPolicy`]) — ECP-style entries or
//!    SAFER-style group budgets absorb faults until the per-page budget
//!    is exceeded.
//! 3. **Retirement** ([`FaultEngine`]) — an uncorrectable page is
//!    retired through [`twl_pcm::PcmDevice::retire_page`], transparently
//!    rebinding its slot to a spare so schemes keep running on the
//!    shrunken pool; an empty spare pool
//!    ([`twl_pcm::PcmError::SparesExhausted`]) is the new end of life.
//!
//! [`provision`] wires all three onto a spare-augmented device. The
//! engine publishes `twl.faults.corrected` / `twl.faults.retired` /
//! `twl.faults.uncorrectable` counters and a
//! `twl.faults.spares_remaining` gauge through `twl-telemetry`.
//!
//! # Examples
//!
//! ```
//! use twl_faults::{provision, FaultConfig};
//! use twl_pcm::{PcmConfig, PhysicalPageAddr};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let data_cfg = PcmConfig::scaled(64, 1_000, 7);
//! let mut domain = provision(&data_cfg, &FaultConfig::default())?;
//! domain.device.write_page(PhysicalPageAddr::new(3))?;
//! let report = domain.engine.absorb(&mut domain.device)?;
//! assert!(report.is_quiet(), "one write causes no faults");
//! # Ok(())
//! # }
//! ```

mod config;
mod engine;
mod horizon;
mod model;
mod provision;

pub use config::{CorrectionPolicy, FaultConfig};
pub use engine::{AbsorbReport, FaultEngine, Retirement};
pub use horizon::EventHorizon;
pub use model::CellFaultModel;
pub use provision::{provision, spare_pages_for, FaultDomain};
