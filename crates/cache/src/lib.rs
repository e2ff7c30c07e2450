#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! CPU cache hierarchy for the `tossup-wl` simulator.
//!
//! Table 1 of the paper runs an 8-core CPU with 32 KB 2-way L1 caches
//! and a shared 2 MB 8-way L2 in front of the PCM; the memory traces
//! the wear-leveling schemes see are the *post-cache* write stream
//! (L2 write-backs), not raw program accesses. This crate provides that
//! substrate:
//!
//! * [`Cache`] — one set-associative, write-back, write-allocate cache
//!   level with LRU replacement.
//! * [`CacheHierarchy`] — an L1+L2 stack that turns a byte-address
//!   access stream into page-granularity PCM commands.
//! * [`CpuWorkload`] — a synthetic program-level access generator
//!   (Zipf-skewed regions with sequential bursts) whose filtered output
//!   looks like a PARSEC-style memory trace.
//!
//! The attack model does not use caches — §3.1 lets the compromised OS
//! turn them off — which is why the attack and lifetime crates drive
//! the PCM directly. The cache stack exists for end-to-end trace
//! generation and for studying how cache filtering shapes the write
//! stream (see the `cache_filter` example).
//!
//! # Examples
//!
//! ```
//! use twl_cache::{Cache, CacheConfig};
//!
//! let mut l1 = Cache::new(&CacheConfig::l1_dac17());
//! // First touch misses, second hits.
//! assert!(!l1.access(0x1000, false).hit);
//! assert!(l1.access(0x1000, true).hit);
//! ```

mod config;
mod cpu;
mod hierarchy;
mod level;

pub use config::CacheConfig;
pub use cpu::{CpuWorkload, CpuWorkloadConfig};
pub use hierarchy::{CacheHierarchy, HierarchyStats};
pub use level::{AccessResult, Cache, CacheStats};
