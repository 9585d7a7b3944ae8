//! Reward functions — Eq. 1, Eq. 2 and the constraint penalties of §III-D.
//!
//! All four rewards are summed into the scalar used for Q-updates; the
//! weights default to 1.0 each but are configurable for ablation studies.

use crate::{Constraints, Observation};

/// Penalty used by the paper for every violated objective/constraint.
pub const VIOLATION_PENALTY: f64 = -4.0;

/// Lower bound of acceptable PSNR for 8-bit lossy video (dB).
pub const PSNR_MIN_DB: f64 = 30.0;

/// Upper bound of useful PSNR for 8-bit lossy video (dB).
pub const PSNR_MAX_DB: f64 = 50.0;

/// Eq. 2 coefficient `a`, solving `a·e − b = 1` and `a·e^0.6 − b = 0`.
pub fn psnr_coefficient_a() -> f64 {
    1.0 / (std::f64::consts::E - 0.6_f64.exp())
}

/// Eq. 2 coefficient `b = a·e^0.6`.
pub fn psnr_coefficient_b() -> f64 {
    psnr_coefficient_a() * 0.6_f64.exp()
}

/// Per-signal reward weights (1.0 each in the paper).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RewardWeights {
    /// Weight of the throughput reward (Eq. 1).
    pub fps: f64,
    /// Weight of the quality reward (Eq. 2).
    pub psnr: f64,
    /// Weight of the bitrate constraint penalty.
    pub bitrate: f64,
    /// Weight of the power constraint penalty.
    pub power: f64,
}

impl Default for RewardWeights {
    fn default() -> Self {
        RewardWeights {
            fps: 1.0,
            psnr: 1.0,
            bitrate: 1.0,
            power: 1.0,
        }
    }
}

/// Eq. 1 — throughput reward.
///
/// `-4` below the target; `1 / (FPS − (target−1))` at or above it, so the
/// maximum reward (1.0) is earned exactly at the target and overshooting
/// earns progressively less ("achieving larger FPS may result in wasting
/// resources").
///
/// # Example
///
/// ```
/// use mamut_core::reward::fps_reward;
///
/// assert_eq!(fps_reward(20.0, 24.0), -4.0);
/// assert_eq!(fps_reward(24.0, 24.0), 1.0);
/// assert!(fps_reward(30.0, 24.0) < fps_reward(25.0, 24.0));
/// ```
pub fn fps_reward(fps: f64, target_fps: f64) -> f64 {
    if fps < target_fps {
        VIOLATION_PENALTY
    } else {
        1.0 / (fps - (target_fps - 1.0))
    }
}

/// Eq. 2 — quality reward.
///
/// `-4` outside [30, 50] dB; inside, `a·e^(PSNR/50) − b` rising from 0 at
/// 30 dB to 1 at 50 dB.
///
/// # Example
///
/// ```
/// use mamut_core::reward::psnr_reward;
///
/// assert_eq!(psnr_reward(25.0), -4.0);
/// assert!(psnr_reward(30.0).abs() < 1e-12);
/// assert!((psnr_reward(50.0) - 1.0).abs() < 1e-12);
/// assert_eq!(psnr_reward(55.0), -4.0);
/// ```
pub fn psnr_reward(psnr_db: f64) -> f64 {
    if !(PSNR_MIN_DB..=PSNR_MAX_DB).contains(&psnr_db) {
        VIOLATION_PENALTY
    } else {
        psnr_coefficient_a() * (psnr_db / 50.0).exp() - psnr_coefficient_b()
    }
}

/// Bitrate constraint reward: `-4` above the user's bandwidth, else 0.
pub fn bitrate_reward(bitrate_mbps: f64, bandwidth_mbps: f64) -> f64 {
    if bitrate_mbps > bandwidth_mbps {
        VIOLATION_PENALTY
    } else {
        0.0
    }
}

/// Power constraint reward: `-4` at or above `Pcap`, else 0.
pub fn power_reward(power_w: f64, power_cap_w: f64) -> f64 {
    if power_w >= power_cap_w {
        VIOLATION_PENALTY
    } else {
        0.0
    }
}

/// Weighted sum of all four rewards for one observation.
pub fn total_reward(obs: &Observation, c: &Constraints, w: &RewardWeights) -> f64 {
    w.fps * fps_reward(obs.fps, c.target_fps)
        + w.psnr * psnr_reward(obs.psnr_db)
        + w.bitrate * bitrate_reward(obs.bitrate_mbps, c.bandwidth_mbps)
        + w.power * power_reward(obs.power_w, c.power_cap_w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq2_coefficients_match_their_defining_equations() {
        let a = psnr_coefficient_a();
        let b = psnr_coefficient_b();
        assert!((a * std::f64::consts::E - b - 1.0).abs() < 1e-12);
        assert!((a * 0.6_f64.exp() - b).abs() < 1e-12);
        // numeric values of the two Eq. 2 coefficients
        assert!((a - 1.115869).abs() < 1e-4);
        assert!((b - 2.033247).abs() < 1e-4);
    }

    #[test]
    fn fps_reward_peaks_exactly_at_target() {
        assert_eq!(fps_reward(24.0, 24.0), 1.0);
        let mut last = 1.0;
        for fps in [25.0, 26.0, 28.0, 30.0, 40.0] {
            let r = fps_reward(fps, 24.0);
            assert!(r > 0.0 && r < last, "fps = {fps}");
            last = r;
        }
    }

    #[test]
    fn fps_reward_penalizes_any_miss() {
        assert_eq!(fps_reward(23.999, 24.0), VIOLATION_PENALTY);
        assert_eq!(fps_reward(1.0, 24.0), VIOLATION_PENALTY);
    }

    #[test]
    fn fps_reward_respects_custom_target() {
        assert_eq!(fps_reward(29.0, 30.0), VIOLATION_PENALTY);
        assert_eq!(fps_reward(30.0, 30.0), 1.0);
    }

    #[test]
    fn psnr_reward_is_monotone_inside_the_band() {
        let mut last = -1.0;
        let mut p = 30.0;
        while p <= 50.0 {
            let r = psnr_reward(p);
            assert!(r > last, "psnr = {p}");
            last = r;
            p += 0.5;
        }
    }

    #[test]
    fn psnr_reward_penalizes_both_tails() {
        assert_eq!(psnr_reward(29.99), VIOLATION_PENALTY);
        assert_eq!(psnr_reward(50.01), VIOLATION_PENALTY);
    }

    #[test]
    fn constraint_rewards_are_binary() {
        assert_eq!(bitrate_reward(5.9, 6.0), 0.0);
        assert_eq!(bitrate_reward(6.0, 6.0), 0.0);
        assert_eq!(bitrate_reward(6.1, 6.0), VIOLATION_PENALTY);
        assert_eq!(power_reward(139.0, 140.0), 0.0);
        assert_eq!(power_reward(140.0, 140.0), VIOLATION_PENALTY);
    }

    #[test]
    fn total_reward_sums_components() {
        let obs = Observation {
            fps: 24.0,
            psnr_db: 50.0,
            bitrate_mbps: 7.0,
            power_w: 150.0,
        };
        let c = Constraints::paper_defaults();
        let w = RewardWeights::default();
        let expect = 1.0 + 1.0 + VIOLATION_PENALTY + VIOLATION_PENALTY;
        assert!((total_reward(&obs, &c, &w) - expect).abs() < 1e-12);
    }

    #[test]
    fn weights_scale_components() {
        let obs = Observation {
            fps: 20.0, // -4
            psnr_db: 40.0,
            bitrate_mbps: 2.0,
            power_w: 80.0,
        };
        let c = Constraints::paper_defaults();
        let w = RewardWeights {
            fps: 0.5,
            psnr: 0.0,
            bitrate: 1.0,
            power: 1.0,
        };
        assert!((total_reward(&obs, &c, &w) - (-2.0)).abs() < 1e-12);
    }

    #[test]
    fn best_steady_state_beats_overshoot() {
        // A controller sitting exactly at 24 FPS with great quality must
        // outscore one burning resources at 35 FPS with the same quality.
        let c = Constraints::paper_defaults();
        let w = RewardWeights::default();
        let at_target = Observation {
            fps: 24.0,
            psnr_db: 42.0,
            bitrate_mbps: 4.0,
            power_w: 90.0,
        };
        let overshoot = Observation {
            fps: 35.0,
            ..at_target
        };
        assert!(total_reward(&at_target, &c, &w) > total_reward(&overshoot, &c, &w));
    }
}
