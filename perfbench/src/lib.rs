//! A measured-wall benchmark of the eda flow.
//!
//! Four workloads (`mesh-cold`, `fabric-edit`, `batch-serve`,
//! `daemon-mix`) each report the end-to-end metrics of
//! [`bench::END_TO_END`] from an untraced run, as walls normalized to the
//! reference host's speed ([`calib`]), and the per-layer metrics of
//! [`bench::PER_LAYER`] from a separate traced run whose spans wrap the
//! benchmark's own calls into each layer. See `README.md` beside this
//! crate for the workloads, the metric table and how to run them.

pub mod bench;
pub mod calib;
pub mod daemon_mix;
pub mod host;
pub mod replay;
pub mod stats;
pub mod trace;
pub mod workloads;
