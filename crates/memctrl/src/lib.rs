#![warn(missing_docs)]

//! Memory-controller timing model for the `tossup-wl` simulator.
//!
//! Reproduces the execution-time side of the paper's evaluation (Fig. 9)
//! without a full CPU simulator: a closed-loop CPU issues each request
//! one compute gap after the previous one completes, the gap set by the
//! benchmark's measured bandwidth (Table 2), and a single PCM channel
//! whose banks overlap device latency services it. Three costs separate
//! the schemes:
//!
//! * **engine cycles** — scheme logic on the request path (Bloom
//!   filters and lists for BWL every write; TWL's tables plus an RNG
//!   only on tossing writes; SR's XOR datapath);
//! * **blocking cycles** — page migrations serialize the channel; bulk
//!   epoch swaps stall the requester (this is also the attacker's side
//!   channel);
//! * **extra device writes** — overhead writes occupy banks.
//!
//! Every request's memory latency sits on the critical path, so a swap
//! burst extends execution time exactly as a blocked memory bus would.
//! Execution time is the completion time of the last request; two models
//! compute it, a coarse one ([`simulate_execution`]) and one with explicit
//! bank scheduling ([`simulate_execution_banked`]). Normalizing a scheme's
//! execution time by NOWL's on the identical command stream yields Fig. 9.
//!
//! # Examples
//!
//! ```
//! use twl_memctrl::{MemCtrlConfig, simulate_execution};
//! use twl_pcm::{PcmConfig, PcmDevice};
//! use twl_wl_core::Nowl;
//! use twl_workloads::{SyntheticWorkload, WorkloadConfig};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let pcm = PcmConfig::builder().pages(256).mean_endurance(1_000_000).build()?;
//! let mut device = PcmDevice::new(&pcm);
//! let mut scheme = Nowl::new(256);
//! let mut workload = SyntheticWorkload::new(&WorkloadConfig {
//!     pages: 256, footprint: 128, zipf_alpha: 0.8, read_fraction: 0.5, seed: 1,
//! });
//! let report = simulate_execution(
//!     &MemCtrlConfig::default(), &mut scheme, &mut device, &mut workload, 10_000)?;
//! assert!(report.total_cycles > 0);
//! # Ok(())
//! # }
//! ```

mod bank;
mod config;
mod sim;

pub use bank::BankArray;
pub use config::MemCtrlConfig;
pub use sim::{simulate_execution, simulate_execution_banked, PerfReport};
