//! End-to-end benchmark of the composed continuous-join path:
//! `StreamService` → (`ShardCoordinator` | `DistCoordinator`) → MTB engine.
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how each per-layer metric maps to an end-to-end one.

#![deny(missing_docs)]

pub mod client;
pub mod deploy;
pub mod report;
pub mod trace;
