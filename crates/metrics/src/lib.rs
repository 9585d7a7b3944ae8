//! Metrics, QoS accounting and reporting utilities for the MAMUT workspace.
//!
//! The paper reports four kinds of artifacts, all of which need plumbing:
//!
//! * **∆ (QoS violations)** — the percentage of frames processed below the
//!   24 FPS target ([`QosTracker`]), optionally refined by the play-out
//!   buffer model the paper sketches in §III-D(a);
//! * **summary statistics** — average power, threads, frequency, PSNR …
//!   ([`RunningStats`], Welford's algorithm, mergeable across repetitions);
//! * **execution traces** — per-frame time series behind Fig. 5
//!   ([`Trace`], with CSV export);
//! * **tables** — Markdown/plain renderings of Table I/II-style results
//!   ([`Table`]);
//! * **fleet aggregation** — per-node and cluster-wide utilization, pool
//!   size and tail accounting from node-epoch samples ([`fleet`]);
//! * **tail ledgers** — bounded-memory p50/p95/p99 QoS-slack and
//!   frame-latency reservoirs for long fleet runs ([`TailLedger`]).
//!
//! # Example
//!
//! ```
//! use mamut_metrics::{QosTracker, RunningStats};
//!
//! let mut qos = QosTracker::new(24.0);
//! qos.record_frame(1.0 / 30.0, 30.0); // fast frame, healthy window
//! qos.record_frame(1.0 / 20.0, 20.0); // slow frame, window dipped
//! assert_eq!(qos.violation_percent(), 50.0);
//!
//! let mut s = RunningStats::new();
//! s.push(1.0);
//! s.push(3.0);
//! assert_eq!(s.mean(), 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod fleet;
mod ledger;
mod percentile;
mod qos;
mod stats;
mod table;
mod trace;

pub use fleet::{FleetAggregate, NodeAggregate, UtilizationHistogram};
pub use ledger::{TailLedger, CLUSTER_TAIL_CAPACITY, NODE_TAIL_CAPACITY};
pub use percentile::PercentileTracker;
pub use qos::QosTracker;
pub use stats::RunningStats;
pub use table::{Align, Table};
pub use trace::{Trace, TraceRow};
