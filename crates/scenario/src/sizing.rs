//! Canonical elastic-fleet sizing for the preset catalog: the epoch
//! grid, Little's-law constants and scaler builders shared by
//! `examples/scenario_sweep.rs`, `benches/scenario_forecast.rs` and
//! `tests/scenario_determinism.rs`.
//!
//! The pinned counts of the `fleetbench` `elastic_mamut` workload and
//! the sweep's asserted seasonal-vs-EWMA win both depend on this
//! configuration, so it lives in one place: retune it here and every
//! consumer — example assertion, benchmark, determinism matrix — moves
//! together instead of drifting apart behind copy-pasted constants.

use mamut_fleet::{ForecastScaler, HoltWinters, PredictiveScaler};

use crate::catalog;
use crate::scenario::RealizedScenario;

/// Fleet epoch length (virtual seconds): long enough that per-epoch
/// arrival counts carry the seasonal signal over Poisson noise.
pub const SWEEP_EPOCH_S: f64 = 8.0;

/// Concurrent sessions one node is provisioned for — near capacity at
/// the catalog's thread mix, so a scaler that mistimes the pool
/// actually hurts QoS.
pub const SWEEP_SESSIONS_PER_NODE: f64 = 3.5;

/// Contention margin on the trace-derived mean residence: sessions run
/// below the nominal frame rate when nodes fill up, so they stay
/// resident longer than `frames / target_fps` says.
pub const RESIDENCE_MARGIN: f64 = 1.5;

/// Pool limits shared by both scalers.
pub const SWEEP_POOL: (usize, usize) = (1, 32);

/// Cooldown between scaling events, shared by both scalers.
pub const SWEEP_COOLDOWN_EPOCHS: u64 = 2;

/// Epochs of lead the forecast scaler provisions ahead by.
pub const SWEEP_LEAD_EPOCHS: u64 = 1;

/// Holt-Winters smoothing (α, β, γ) tuned for the catalog's noisy
/// per-epoch counts: smooth level, near-dormant trend, slow seasonal
/// updates.
pub const SWEEP_SMOOTHING: (f64, f64, f64) = (0.25, 0.02, 0.2);

/// Epochs per catalog "day" on the sweep's epoch grid — the season
/// length the seasonal predictors are configured with.
pub fn season_epochs() -> usize {
    (catalog::DAY_S / SWEEP_EPOCH_S) as usize
}

/// Expected session residence for a realized trace: the mean session
/// length at the paper's 24 FPS target, padded by [`RESIDENCE_MARGIN`].
/// Both scalers get the same value — it is workload knowledge, not
/// policy.
pub fn trace_mean_session_s(realized: &RealizedScenario) -> f64 {
    let frames: u64 = realized.arrivals.iter().map(|r| r.frames).sum();
    frames as f64 / realized.len().max(1) as f64 / 24.0 * RESIDENCE_MARGIN
}

/// The seasonal contender: a [`ForecastScaler`] around Holt-Winters
/// with the canonical sweep sizing for `realized`.
pub fn seasonal_sweep_scaler(realized: &RealizedScenario) -> ForecastScaler {
    let (alpha, beta, gamma) = SWEEP_SMOOTHING;
    ForecastScaler::new(Box::new(
        HoltWinters::new(season_epochs()).with_smoothing(alpha, beta, gamma),
    ))
    .with_lead_epochs(SWEEP_LEAD_EPOCHS)
    .with_mean_session_s(trace_mean_session_s(realized))
    .with_sessions_per_node(SWEEP_SESSIONS_PER_NODE)
    .with_limits(SWEEP_POOL.0, SWEEP_POOL.1)
    .with_cooldown(SWEEP_COOLDOWN_EPOCHS)
}

/// The reactive baseline: the EWMA [`PredictiveScaler`] with the same
/// sizing constants, so a sweep isolates *what the scaler believes
/// about the future*.
pub fn ewma_sweep_scaler(realized: &RealizedScenario) -> PredictiveScaler {
    PredictiveScaler::new()
        .with_mean_session_s(trace_mean_session_s(realized))
        .with_sessions_per_node(SWEEP_SESSIONS_PER_NODE)
        .with_limits(SWEEP_POOL.0, SWEEP_POOL.1)
        .with_cooldown(SWEEP_COOLDOWN_EPOCHS)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn season_divides_the_day_exactly() {
        assert!(season_epochs() >= 2);
        assert_eq!(season_epochs() as f64 * SWEEP_EPOCH_S, catalog::DAY_S);
    }

    #[test]
    fn residence_derives_from_the_trace() {
        let realized = catalog::daily_vod().realize().unwrap();
        let w = trace_mean_session_s(&realized);
        // VOD-heavy mix: ~4–10 s clips plus margin lands near 12 s.
        assert!((8.0..=18.0).contains(&w), "implausible residence {w}");
        let scaler = seasonal_sweep_scaler(&realized);
        assert_eq!(scaler.lead_epochs, SWEEP_LEAD_EPOCHS);
        assert!((scaler.mean_session_s - w).abs() < 1e-12);
        let ewma = ewma_sweep_scaler(&realized);
        assert!((ewma.mean_session_s - w).abs() < 1e-12);
    }
}
