//! Composable workload scenarios and seasonal forecasting for the
//! MAMUT fleet.
//!
//! The fleet's base [`Workload`](mamut_fleet::Workload) generator
//! churns one shape of traffic: seeded Poisson-ish arrivals at a fixed
//! mean rate. Real deployments face *time-varying* load — diurnal
//! cycles, flash crowds around live events, content mixes drifting
//! between regions — the dynamics that motivate time-varying multi-user
//! video optimization (Fu & van der Schaar) and live-streaming viewer
//! surges (digital-twin collaborative transcoding). This crate models
//! them in three layers:
//!
//! 1. **A composable scenario DSL** — a [`Scenario`] is a seeded,
//!    deterministic chain of arrival [`Phase`]s ([`Phase::Steady`],
//!    [`Phase::Diurnal`], [`Phase::FlashCrowd`],
//!    [`Phase::RegionalShift`], [`Phase::ContentDrift`]), realized into
//!    the fleet's `Workload`/`SessionRequest` stream by thinning a
//!    non-homogeneous arrival process. A [`catalog`] of named presets
//!    (`daily_vod`, `live_final`, `flash_mob`,
//!    `regional_follow_the_sun`) covers the standard shapes.
//! 2. **Forecasting** — the fleet's [`Forecaster`] trait with
//!    [`SeasonalNaive`] and [`HoltWinters`] (additive trend + seasonal)
//!    predictors, re-exported here next to the scenarios they are
//!    evaluated on; a [`ForecastScaler`] feeds either through Little's
//!    law to provision *ahead* of predicted load (compare against the
//!    EWMA [`PredictiveScaler`](mamut_fleet::PredictiveScaler) on the
//!    same presets — `examples/scenario_sweep.rs`).
//! 3. **Persistence** — realized traces encode through the same
//!    std-only binary codec as policy snapshots
//!    ([`RealizedScenario::encode`] /
//!    [`RealizedScenario::decode`], module [`trace`]), and
//!    forecaster state travels via
//!    [`Forecaster::snapshot_state`] — so whole sweeps are replayable
//!    byte-for-byte across process restarts.
//!
//! # Example
//!
//! ```
//! use mamut_scenario::{catalog, HoltWinters, Phase, MixProfile, Scenario};
//! use mamut_fleet::ForecastScaler;
//!
//! // A preset, realized deterministically:
//! let realized = catalog::daily_vod().realize().unwrap();
//! assert!(!realized.is_empty());
//!
//! // Or composed by hand:
//! let custom = Scenario::new("launch_day", 7)
//!     .then(Phase::Steady {
//!         duration_s: 60.0,
//!         rate_hz: 0.5,
//!         mix: MixProfile::vod_heavy(),
//!     })
//!     .then(Phase::FlashCrowd {
//!         duration_s: 90.0,
//!         base_rate_hz: 0.5,
//!         peak_rate_hz: 3.0,
//!         event_at_s: 20.0,
//!         ramp_s: 10.0,
//!         decay_s: 15.0,
//!         mix: MixProfile::live_heavy(),
//!     });
//! let workload = custom.realize().unwrap().workload();
//! assert!(workload.horizon_s() < 150.0);
//!
//! // The seasonal scaler that provisions ahead of the diurnal rise:
//! let _scaler = ForecastScaler::new(Box::new(HoltWinters::new(32)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
mod phase;
mod scenario;
pub mod sizing;
pub mod trace;

pub use phase::{MixProfile, Phase};
pub use scenario::{RealizedScenario, Scenario, ScenarioError};
pub use trace::SCENARIO_FORMAT;

// The forecasting layer lives in `mamut-fleet` (the `ForecastScaler`
// consumes it inside the autoscaler), but it is evaluated against the
// scenarios defined here — re-exported so scenario-driven code needs
// one import.
pub use mamut_fleet::{ForecastScaler, Forecaster, HoltWinters, SeasonalNaive};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reexports_resolve() {
        let mut f = HoltWinters::new(8);
        f.observe(4, 1.0);
        assert!(f.forecast_hz(1) > 0.0);
        assert_eq!(catalog::all().len(), 4);
    }
}
