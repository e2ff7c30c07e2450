#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `twl-fleet`: a distributed sweep fabric for the tossup-wl workspace.
//!
//! The `twl-coordinator` daemon speaks the same `twl-wire/v1` protocol
//! as `twl-serviced` — an unchanged `twl-ctl` submits, streams, and
//! cancels against it — but instead of executing cells itself it
//! shards each job's matrix across a fleet of registered `twl-serviced`
//! workers:
//!
//! * **Content-addressed cache first.** Every cell has a stable
//!   [`CellKey`] (the SHA-256 of its canonical simulation inputs);
//!   reports land in an on-disk, size-bounded, integrity-checked
//!   [`CellCache`], so a warm resubmission of a sweep re-simulates
//!   nothing and two overlapping sweeps share entries.
//! * **Work stealing.** Cells stuck on a slow worker past the patience
//!   window are duplicated onto idle slots; cell purity makes the race
//!   safe and the first completion wins.
//! * **Bounded re-dispatch.** A dead or timed-out worker fails the
//!   attempt and the cell re-enters the queue, up to the attempt
//!   budget; past it the job completes as a partial failure naming the
//!   lost cells instead of hanging.
//! * **Streaming.** Cell completions (cache hits included) stream to
//!   the submitting client as they happen, exactly like a single-node
//!   run.
//!
//! The pieces, bottom-up: [`sha256`](mod@sha256) (std-only FIPS 180-4 digest),
//! [`cellkey`] (versioned content addressing), [`cache`] (the durable
//! report store), [`dispatch`] (the shared work pool with stealing and
//! retries), and [`coordinator`] (the daemon gluing them to the wire).

pub mod cache;
pub mod cellkey;
pub mod coordinator;
pub mod dispatch;
pub mod sha256;

pub use cache::{CachedCell, CellCache, ENTRY_SCHEMA};
pub use cellkey::{CellKey, SCHEMA};
pub use coordinator::{Coordinator, FleetConfig};
pub use dispatch::{Assignment, Dispatcher};
pub use sha256::{sha256, sha256_hex};
