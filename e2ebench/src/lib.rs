//! End-to-end benchmark of the Charon workspace: a fixed slice of the
//! paper's Fig. 6 brightening workload over the seven zoo networks,
//! under a region budget, through four workloads that drive the public
//! APIs of `charon`, `server` and `server::cluster`.
//!
//! See `README.md` beside this crate for the workloads, the metrics and
//! how to run them.

pub mod affinity;
pub mod alloc;
pub mod engine;
pub mod gate;
pub mod outcome;
pub mod service;
pub mod slice;
pub mod stats;
pub mod trace;
pub mod workload;
