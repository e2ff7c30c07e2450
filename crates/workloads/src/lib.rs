#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! Synthetic PARSEC-like workloads for the `tossup-wl` simulator.
//!
//! The paper collects gem5 traces of 13 PARSEC benchmarks (Table 2) and
//! replays them in loops. We do not have gem5 or the trace files, so
//! this crate builds the closest synthetic equivalent (see `DESIGN.md`
//! §3): every benchmark becomes a [`SyntheticWorkload`] — a deterministic
//! stream of page-granularity reads and writes whose
//!
//! * **write bandwidth** is the measured value from Table 2,
//! * **page-popularity skew** is a Zipf distribution whose exponent is
//!   *calibrated per benchmark* so that the simulated
//!   "lifetime without wear leveling / ideal lifetime" ratio matches the
//!   one the paper reports in Table 2 (the only locality information
//!   Table 2 exposes), and
//! * **hot pages are scattered** across the logical space by a Feistel
//!   permutation, as they would be under any real allocator.
//!
//! [`ParsecBenchmark`] carries the Table 2 ground truth; [`Zipf`] is the
//! sampler; the `trace` module holds the `MemCmd` stream types and a simple
//! binary codec for persisting traces.
//!
//! The `spec` module is the workload analogue of the scheme side's
//! `SchemeSpec`: [`WorkloadSpec`] names any write pattern in the
//! workspace — attack modes, PARSEC generators, or captured block
//! traces ([`TraceWorkload`]) — as serializable data with canonical
//! `KIND[k=v,...]` labels, and [`WorkloadSpec::build`] turns one into a
//! uniform [`BuiltWorkload`] stream the lifetime simulator can drive.

mod parsec;
mod spec;
mod synthetic;
mod trace;
mod zipf;

pub use parsec::ParsecBenchmark;
pub use spec::{
    parse_workload_list, AttackParams, BuiltWorkload, ParsecParams, TraceParams, TraceWorkload,
    WorkloadError, WorkloadKind, WorkloadParams, WorkloadSpec,
};
pub use synthetic::{SyntheticWorkload, WorkloadConfig};
pub use trace::{read_trace, write_trace, MemCmd, MemOp, TraceWriter};
pub use zipf::{zipf_alpha_for_hot_share, Zipf};
