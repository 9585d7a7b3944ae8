//! End-to-end and per-layer benchmark of the MAMUT fleet simulator.
//!
//! Each layer is measured from outside the program, by timing calls into
//! the public trait objects the fleet already accepts (`Controller`
//! through its `ControllerFactory`, `Dispatcher`, `Autoscaler`,
//! `Rebalancer`, and the warm-start factory) and by reading public
//! counters after the run. See `README.md` for the workloads, the metric
//! map and how to run it.

#![forbid(unsafe_code)]

pub mod probes;
pub mod report;
pub mod workloads;
