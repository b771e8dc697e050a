//! Host-speed benchmark of the SCC simulator.
//!
//! Three seeded workloads (`bulk_bcast`, `small_bcast`,
//! `audited_soak`) drive the simulator through its public entry points
//! only, one `run_spmd` scenario at a time from a single thread.
//! See `README.md` in this directory for the workloads, the metrics and
//! the layer each one belongs to.

pub mod bench;
pub mod check;
pub mod host;
pub mod pinned;
pub mod run;
pub mod stats;
pub mod timed;
pub mod workload;
