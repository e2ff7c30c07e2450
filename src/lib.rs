#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # tossup-wl — Toss-up Wear Leveling for Phase-Change Memories
//!
//! A full reproduction of *Toss-up Wear Leveling: Protecting Phase-Change
//! Memories from Inconsistent Write Patterns* (Zhang & Sun, DAC 2017) as a
//! Rust workspace. This facade crate re-exports the public APIs of every
//! subsystem so applications can depend on a single crate.
//!
//! ## Subsystems
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`rng`] | `twl-rng` | Feistel hardware RNG, simulation PRNGs |
//! | [`pcm`] | `twl-pcm` | PCM device model with process-variation endurance |
//! | [`wl`] | `twl-wl-core` | `WearLeveler` trait, tables, NOWL baseline |
//! | [`twl`] | `twl-core` | Toss-up Wear Leveling (the paper's contribution) |
//! | [`baselines`] | `twl-baselines` | Security Refresh, BWL, WRL, Start-Gap |
//! | [`attacks`] | `twl-attacks` | repeat/random/scan/inconsistent attacks |
//! | [`workloads`] | `twl-workloads` | PARSEC-like synthetic traces |
//! | [`memctrl`] | `twl-memctrl` | Memory-controller timing model |
//! | [`faults`] | `twl-faults` | Cell faults, ECP correction, page retirement |
//! | [`lifetime`] | `twl-lifetime` | Lifetime simulation & calibration |
//! | [`telemetry`] | `twl-telemetry` | Metrics, wear sampling, JSONL traces |
//!
//! ## Quickstart
//!
//! ```
//! use tossup_wl::pcm::{PcmConfig, PcmDevice};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = PcmConfig::builder()
//!     .pages(1024)
//!     .mean_endurance(10_000)
//!     .seed(42)
//!     .build()?;
//! let device = PcmDevice::new(&config);
//! assert_eq!(device.page_count(), 1024);
//! # Ok(())
//! # }
//! ```

pub use twl_attacks as attacks;
pub use twl_baselines as baselines;
pub use twl_core as twl;
pub use twl_faults as faults;
pub use twl_lifetime as lifetime;
pub use twl_memctrl as memctrl;
pub use twl_pcm as pcm;
pub use twl_rng as rng;
pub use twl_telemetry as telemetry;
pub use twl_wl_core as wl;
pub use twl_workloads as workloads;
