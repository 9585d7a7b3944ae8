//! # MAMUT — Multi-Agent Reinforcement Learning for Efficient Real-Time
//! # Multi-User Video Transcoding
//!
//! A faithful, self-contained Rust reproduction of the DATE 2019 paper by
//! Costero et al. The paper's contribution — three cooperating Q-learning
//! agents tuning the HEVC quantization parameter, the WPP thread count and
//! the per-core DVFS frequency of every transcoding session — lives in
//! [`control`] ([`mamut_core`]); everything the original evaluation ran on
//! (Kvazaar, JCT-VC sequences, a dual-Xeon server with RAPL) is rebuilt as
//! calibrated simulation substrates in the sibling crates, re-exported
//! here under one roof:
//!
//! | module        | crate             | contents                                  |
//! |---------------|-------------------|-------------------------------------------|
//! | [`control`]   | `mamut-core`      | states, rewards, agents, Algorithm 1      |
//! | [`video`]     | `mamut-video`     | JCT-VC-like content models                |
//! | [`encoder`]   | `mamut-encoder`   | analytic HEVC encoder/decoder, WPP        |
//! | [`platform`]  | `mamut-platform`  | topology, DVFS, power, contention         |
//! | [`transcode`] | `mamut-transcode` | discrete-event multi-user server          |
//! | [`baselines`] | `mamut-baselines` | mono-agent QL + heuristic baselines       |
//! | [`metrics`]   | `mamut-metrics`   | QoS (∆), stats, traces, tables            |
//! | [`fleet`]     | `mamut-fleet`     | cluster, churn, dispatch, KaaS, migration |
//! | [`scenario`]  | `mamut-scenario`  | workload scenarios, seasonal forecasting  |
//! | [`fleetrl`]   | `mamut-fleetrl`   | learned fleet scaling & dispatch          |
//!
//! Learned state is portable: every [`prelude::Controller`] snapshots to
//! a versioned binary form (`control::snapshot`), fleets share knowledge
//! through a [`prelude::KnowledgeStore`] and migrate live sessions
//! between nodes — see `examples/warm_start.rs`.
//!
//! # Quickstart
//!
//! ```
//! use mamut::prelude::*;
//!
//! // One 1080p user served by MAMUT on the simulated server:
//! let spec = mamut::video::catalog::by_name("Kimono")
//!     .unwrap()
//!     .with_frame_count(48)
//!     .unwrap();
//! let config = MamutConfig::paper_hr();
//! let constraints = config.constraints;
//! let controller = MamutController::new(config).unwrap();
//!
//! let mut server = ServerSim::with_default_platform();
//! server.add_session(
//!     SessionConfig::single_video(spec, 1).with_constraints(constraints),
//!     Box::new(controller),
//! );
//! let summary = server.run_to_completion(1_000_000).unwrap();
//! assert_eq!(summary.sessions[0].frames, 48);
//! ```
//!
//! See `examples/` for multi-user scenarios, live constraint changes and
//! controller comparisons, and `crates/bench/benches/` for the scripts
//! that regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mamut_baselines as baselines;
pub use mamut_core as control;
pub use mamut_encoder as encoder;
pub use mamut_fleet as fleet;
pub use mamut_fleetrl as fleetrl;
pub use mamut_metrics as metrics;
pub use mamut_platform as platform;
pub use mamut_scenario as scenario;
pub use mamut_transcode as transcode;
pub use mamut_video as video;

/// The most commonly used types, for glob import.
///
/// ```
/// use mamut::prelude::*;
/// let _ = MamutConfig::paper_lr();
/// ```
pub mod prelude {
    pub use mamut_baselines::{
        FixedController, HeuristicConfig, HeuristicController, MonoAgentConfig, MonoAgentController,
    };
    pub use mamut_core::{
        Constraints, Controller, KnobSettings, MamutConfig, MamutController, Observation,
        PolicySnapshot, SnapshotError,
    };
    pub use mamut_encoder::{HevcEncoder, Preset};
    pub use mamut_fleet::{
        AdmissionGated, Autoscaler, CheckpointPolicy, Dispatcher, FaultPlan, FleetConfig, FleetSim,
        FleetSummary, FleetTrace, ForecastScaler, Forecaster, GateMode, HoltWinters,
        KnowledgeStore, LeastLoaded, MergePolicy, NodeView, PowerAware, PowerQosBalance,
        PredictiveScaler, Rebalancer, RoundRobin, SeasonalNaive, SessionClass, ShardConfig,
        ShardedFleetSim, ShardedFleetSummary, TelemetryEvent, TelemetryMode, ThresholdScaler,
        TracedEvent, UtilizationBalance, Workload, WorkloadConfig, WorkloadError,
    };
    pub use mamut_fleetrl::{FleetPolicy, RlDispatch, RlScaler, TrainConfig, Trainer};
    pub use mamut_platform::Platform;
    pub use mamut_scenario::{MixProfile, Phase, RealizedScenario, Scenario, ScenarioError};
    pub use mamut_transcode::{MixSpec, RunSummary, ServerSim, SessionConfig};
    pub use mamut_video::{catalog, Playlist, Resolution, SequenceSpec};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_resolve() {
        use crate::prelude::*;
        let cfg = MamutConfig::paper_hr();
        assert_eq!(cfg.constraints.target_fps, 24.0);
        let p = Platform::xeon_e5_2667_v4();
        assert_eq!(p.topology().hw_threads(), 32);
        assert!(catalog::by_name("Kimono").is_ok());
    }
}
