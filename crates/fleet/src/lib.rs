//! Multi-node fleet simulation for MAMUT: session churn, dispatch
//! policies, and parallel node execution.
//!
//! The paper evaluates one dual-Xeon server; serving "heavy traffic from
//! millions of users" is a *fleet* problem — many such servers behind a
//! dispatcher, with users joining and leaving continuously (the framing
//! of the KaaS follow-up to MAMUT and of Fu & van der Schaar's
//! multi-user QoS work). This crate composes the single-server pieces
//! into that layer:
//!
//! * [`Workload`] — seeded session-churn generator (Poisson-like
//!   arrivals, HR/LR mix, live vs. VOD duration profiles) plus replay of
//!   explicit arrival traces;
//! * [`Dispatcher`] — placement policies: [`RoundRobin`],
//!   [`LeastLoaded`], [`PowerAware`], and [`AdmissionGated`] (which
//!   reuses the single-server admission planner to refuse or queue
//!   sessions a node cannot fit);
//! * [`FleetSim`] — the epoch loop: dispatch at boundaries, advance all
//!   nodes **in parallel across OS threads** (nodes are independent
//!   within an epoch, so results are identical for any worker count),
//!   with per-node controller factories so MAMUT, mono-agent and
//!   heuristic nodes can be mixed in one cluster;
//! * [`Autoscaler`] — elastic pool sizing: [`ThresholdScaler`]
//!   (utilization/QoS watermarks with hysteresis and cooldown),
//!   [`PredictiveScaler`] (EWMA of the arrival rate through Little's
//!   law) and [`ForecastScaler`] (any [`Forecaster`] — seasonal-naive
//!   or Holt-Winters — provisioning ahead of predicted load) grow and
//!   shrink the pool per epoch; shrinking drains live sessions to
//!   peers before a node is decommissioned, growing commissions
//!   clock-aligned nodes that warm-start from the knowledge store;
//! * [`FleetSummary`] — per-node and cluster-wide ∆, power and energy
//!   read from the nodes, rejected/queued counts, autoscale events, and
//!   the pool-size timeline and utilization histogram from
//!   `mamut_metrics::fleet`;
//! * [`ShardedFleetSim`] — regions/cells of nodes, each a full
//!   `FleetSim` with its own autoscaler, rebalancer and knowledge-store
//!   shard, driven in lockstep with periodic inter-shard knowledge sync
//!   and cross-shard session overflow — the 1k–10k-node scale-out
//!   topology (see `docs/ARCHITECTURE.md`);
//! * [`FaultPlan`] / [`CheckpointPolicy`] — deterministic fault
//!   injection (crashes, thermal throttles, sync loss, shard
//!   partitions) with periodic bit-exact session checkpoints: a crashed
//!   node's sessions are recovered onto survivors from the last
//!   [`CheckpointBundle`], re-done work is accounted (never silently
//!   lost), replacements warm-start from the knowledge store, and the
//!   summary reports availability and MTTR. Chaos runs stay
//!   byte-identical across worker counts;
//! * [`TelemetryMode`] / [`FleetTrace`] — deterministic structured
//!   event tracing: typed simulated-time events from dispatch decisions
//!   to crash recovery, a bounded flight-recorder mode that dumps
//!   automatically on typed errors, a canonical `MAMUTTL` binary codec,
//!   and Chrome `trace_event` / CSV exporters.
//!
//! # Example
//!
//! ```
//! use mamut_core::{FixedController, KnobSettings};
//! use mamut_fleet::{
//!     FleetConfig, FleetSim, LeastLoaded, Workload, WorkloadConfig,
//! };
//!
//! let workload = Workload::try_generate(&WorkloadConfig {
//!     sessions: 6,
//!     vod_frames: (24, 48),
//!     live_frames: (48, 96),
//!     ..WorkloadConfig::default()
//! })
//! .expect("valid workload config");
//! let mut fleet = FleetSim::new(
//!     FleetConfig::default(),
//!     Box::new(LeastLoaded::new()),
//!     workload,
//! );
//! for _ in 0..2 {
//!     fleet.add_node(Box::new(|req| {
//!         let threads = if req.hr { 10 } else { 4 };
//!         Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
//!     }));
//! }
//! let summary = fleet.run().unwrap();
//! assert_eq!(summary.total_sessions, 6);
//! println!("{summary}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod autoscale;
mod dispatch;
mod error;
mod fault;
mod forecast;
mod knowledge;
mod node;
mod rebalance;
mod shard;
mod sim;
mod summary;
mod telemetry;
mod workload;

pub use autoscale::{
    Autoscaler, ForecastScaler, PolicySource, PredictiveScaler, ScaleDecision, ScaleSignals,
    ThresholdScaler,
};
pub use dispatch::{
    AdmissionGated, DispatchDecision, Dispatcher, GateMode, LeastLoaded, NodeView, PowerAware,
    RoundRobin,
};
pub use error::FleetError;
pub use fault::{
    CheckpointBundle, CheckpointPolicy, FaultEvent, FaultPlan, NodeCheckpoint, SessionCheckpoint,
    CHECKPOINT_FORMAT,
};
pub use forecast::{Forecaster, HoltWinters, SeasonalNaive, FORECAST_FORMAT};
pub use knowledge::{
    warm_start_factory, ClassKnowledge, KnowledgeStore, MergePolicy, PublishOutcome, SessionClass,
    SharedKnowledgeStore, STORE_FORMAT,
};
pub use node::{ControllerFactory, FleetNode, MigratedSession, NodeState};
pub use rebalance::{MigrationDirective, PowerQosBalance, Rebalancer, UtilizationBalance};
pub use shard::{ShardConfig, ShardedFleetSim, ShardedFleetSummary};
pub use sim::{FleetConfig, FleetSim, NodeProvisioner};
pub use summary::{FleetSummary, NodeReport};
pub use telemetry::{
    FleetTrace, TelemetryEvent, TelemetryMode, TracedEvent, COORDINATOR_LANE, TRACE_FORMAT,
};
pub use workload::{SessionRequest, Workload, WorkloadConfig, WorkloadError};
