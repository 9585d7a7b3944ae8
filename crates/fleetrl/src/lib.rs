//! Fleet-level RL control for MAMUT: learned dispatch and scaling
//! trained offline on the scenario catalog.
//!
//! The paper learns per-session knob control (QP, threads, DVFS) with
//! small tabular Q-agents. This crate applies the same recipe one level
//! up, to the decisions the *fleet* makes every epoch — how many nodes
//! to run and which node gets the next session:
//!
//! * [`FleetFeaturizer`] buckets the autoscaler's observations
//!   ([`ScaleSignals`](mamut_fleet::ScaleSignals)-level utilization,
//!   QoS slack, forecast error, power headroom, pool size) into a
//!   compact discrete state (432 states);
//! * [`FleetPolicy`] is a tabular Q-learner over the joint action space
//!   of scale moves × dispatch preferences ([`JointAction`], 9
//!   actions), ε-greedy on a decaying [`EpsilonSchedule`], with its
//!   full state — Q-table, visit counts, schedule position, RNG —
//!   portable through the `MAMUTFP` snapshot codec
//!   ([`FleetPolicy::snapshot_state`]);
//! * [`RlScaler`] / [`RlDispatch`] adapt one shared [`PolicyDriver`] to
//!   the fleet's existing [`Autoscaler`](mamut_fleet::Autoscaler) and
//!   [`Dispatcher`](mamut_fleet::Dispatcher) traits, so a learned
//!   policy drops into [`FleetSim`](mamut_fleet::FleetSim) wherever a
//!   heuristic went before — and reports its decision provenance
//!   (greedy vs. exploratory) into the fleet summary;
//! * [`Trainer`] rolls seeded episodes against
//!   `mamut_scenario::catalog` presets, records `(s, a, r, s′)`
//!   transitions, replays them in deterministic shuffled passes, and
//!   evaluates greedily — byte-identical for any fleet worker count.
//!
//! # Example
//!
//! ```
//! use mamut_fleetrl::{TrainConfig, Trainer};
//! use mamut_scenario::catalog;
//!
//! let mut trainer = Trainer::new(TrainConfig {
//!     episodes_per_scenario: 1,
//!     ..TrainConfig::default()
//! });
//! let report = trainer.train_scenario(&catalog::daily_vod());
//! assert!(report.transitions > 0);
//!
//! // The learned policy races the heuristic stack on identical terms:
//! let summary = trainer.evaluate(&catalog::daily_vod());
//! assert!(summary.greedy_actions > 0);
//!
//! // And travels as bytes, like every other learned state in MAMUT:
//! let snapshot = trainer.snapshot_state();
//! let mut fresh = Trainer::new(TrainConfig::default());
//! fresh.warm_start(&snapshot).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adapter;
mod featurize;
mod harness;
mod policy;

pub use adapter::{PolicyDriver, RlConfig, RlDispatch, RlScaler, SharedDriver, Transition};
pub use featurize::{FeatureConfig, FleetFeaturizer, FleetState};
pub use harness::{heuristic_reference, sweep_factory, TrainConfig, TrainReport, Trainer};
pub use policy::{
    DispatchPref, EpsilonSchedule, FleetPolicy, JointAction, ScaleMove, FLEET_POLICY_FORMAT,
};
