#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! `twl-blockdev`: a network-block-device frontend for the simulated
//! PCM — real filesystem traffic through the paper's wear pipeline.
//!
//! Two binaries and the library behind them:
//!
//! * **`twl-blockd`** — a std-only userspace NBD server. The data port
//!   speaks the newstyle-fixed handshake and the `READ`/`WRITE`/
//!   `FLUSH`/`TRIM`/`DISC` transmission subset (the kernel's
//!   `nbd-client` can attach it as `/dev/nbd0`); a second port speaks
//!   `twl-wire/v1`, so `twl-ctl metrics` and `twl-top` work against it
//!   unmodified. Block bytes live in a RAM [`BlockStore`]; every page a
//!   write touches becomes a logical write through a configurable
//!   wear-leveling scheme on a fault-provisioned device, and spare-pool
//!   exhaustion surfaces to the client as `ENOSPC`.
//! * **`twl-blk`** — the client CLI: drive deterministic mixed traffic
//!   at a daemon, or replay a captured trace offline and print the
//!   wear state it must reproduce.
//!
//! The pieces, bottom-up:
//!
//! * [`nbd`] — the wire subset: codec, handshake halves, errnos.
//! * [`store`] — the byte store with atomic snapshot/restore.
//! * [`mapping`] — block→page geometry (`pages_touched`).
//! * [`gateway`] — scheme + fault engine + capture; deterministic
//!   replay is both the audit trail and the restart path.
//! * [`server`] — the daemon: both listeners, persistence, shutdown.
//! * [`client`] — the in-process client and the shared traffic driver.

pub mod client;
pub mod gateway;
pub mod mapping;
pub mod nbd;
pub mod server;
pub mod store;

pub use client::{drive_mixed, DriveReport, NbdClient};
pub use gateway::{GatewayConfig, GatewayError, GatewayProbe, WearGateway};
pub use mapping::BlockGeometry;
pub use nbd::NbdError;
pub use server::{publish_probe, BlockServer, BlockdevConfig, ShutdownHandle, META_SCHEMA};
pub use store::{BlockStore, OutOfRange};
