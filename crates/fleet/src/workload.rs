//! Session-churn workload generation: timed arrivals of HR/LR, live/VOD
//! transcoding sessions, plus replay of explicit arrival traces.
//!
//! The paper's evaluation fixes the session mix for a whole run; a fleet
//! faces *churn* — users join and leave continuously. Arrivals follow
//! Poisson-like exponential interarrivals (the standard model for
//! independent user populations), the HR/LR split follows a configurable
//! ratio, and durations come from two profiles: **live** sessions (long,
//! an event being streamed while it happens) and **VOD** sessions (short
//! clips transcoded on demand). Everything is driven by one seeded RNG,
//! so a workload is a pure function of its config — the property the
//! fleet determinism tests pin down.

use std::sync::OnceLock;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mamut_transcode::SessionConfig;
use mamut_video::{catalog, SequenceSpec};

/// One session arrival the dispatcher must place (or turn away).
#[derive(Debug, Clone, PartialEq)]
pub struct SessionRequest {
    /// Stable request id (ordinal in the workload).
    pub id: u64,
    /// Virtual arrival time (seconds).
    pub arrival_s: f64,
    /// High-resolution (1080p) stream? Otherwise 832×480.
    pub hr: bool,
    /// Live stream (long duration profile)? Otherwise VOD.
    pub live: bool,
    /// Frames the session will transcode before departing.
    pub frames: u64,
    /// Content seed for the session's video source.
    pub seed: u64,
}

impl SessionRequest {
    /// The catalog sequence this session transcodes (picked by seed from
    /// the matching resolution class, truncated to the session length).
    pub fn spec(&self) -> SequenceSpec {
        // Each class's catalog entries, built once: a spec is then one
        // clone of the picked entry.
        static CLASSES: OnceLock<[Vec<SequenceSpec>; 2]> = OnceLock::new();
        let [hr, lr] = CLASSES.get_or_init(|| [catalog::class_b(), catalog::class_c()]);
        let pool = if self.hr { hr } else { lr };
        pool[(self.seed as usize) % pool.len()]
            .with_frame_count(self.frames.max(1))
            .expect("session lengths are non-zero")
    }

    /// The simulator session config for this request.
    pub fn session_config(&self) -> SessionConfig {
        SessionConfig::single_video(self.spec(), self.seed)
    }
}

/// A structurally invalid [`WorkloadConfig`]: the typed rejection the
/// builder validation returns instead of panicking mid-generation or
/// silently producing an empty or degenerate workload.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum WorkloadError {
    /// `sessions` was zero — the workload would be silently empty.
    NoSessions,
    /// `mean_interarrival_s` was zero, negative, or not finite.
    NonPositiveRate {
        /// The offending mean interarrival time.
        mean_interarrival_s: f64,
    },
    /// A ratio field was not a finite value in `[0, 1]`.
    RatioOutOfRange {
        /// Which ratio (`"hr_ratio"` or `"live_ratio"`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A session-length bound was zero frames.
    ZeroFrames {
        /// Which profile (`"vod_frames"` or `"live_frames"`).
        field: &'static str,
    },
    /// A session-length range had `min > max`.
    InvertedFrames {
        /// Which profile (`"vod_frames"` or `"live_frames"`).
        field: &'static str,
        /// The inverted bounds.
        bounds: (u64, u64),
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::NoSessions => {
                write!(f, "workload config generates zero sessions")
            }
            WorkloadError::NonPositiveRate {
                mean_interarrival_s,
            } => write!(
                f,
                "mean interarrival time must be finite and positive, got {mean_interarrival_s}"
            ),
            WorkloadError::RatioOutOfRange { field, value } => {
                write!(f, "{field} must be a finite value in [0, 1], got {value}")
            }
            WorkloadError::ZeroFrames { field } => {
                write!(f, "{field} bounds must be at least one frame")
            }
            WorkloadError::InvertedFrames { field, bounds } => {
                write!(
                    f,
                    "{field} range is inverted: min {} > max {}",
                    bounds.0, bounds.1
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

/// Parameters of a generated churn workload.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadConfig {
    /// RNG seed; same config ⇒ identical workload.
    pub seed: u64,
    /// Total arrivals to generate.
    pub sessions: usize,
    /// Mean of the exponential interarrival time (seconds).
    pub mean_interarrival_s: f64,
    /// Fraction of sessions that are HR (1080p).
    pub hr_ratio: f64,
    /// Fraction of sessions that are live (long profile).
    pub live_ratio: f64,
    /// VOD session length, uniform in `[min, max]` frames.
    pub vod_frames: (u64, u64),
    /// Live session length, uniform in `[min, max]` frames.
    pub live_frames: (u64, u64),
}

impl Default for WorkloadConfig {
    /// A briskly churning mixed workload: one arrival every ~2 s, 40 %
    /// HR, half live; VOD clips of 5–15 s, live events of 20–50 s (at
    /// the paper's 24 FPS target).
    fn default() -> Self {
        WorkloadConfig {
            seed: 1,
            sessions: 24,
            mean_interarrival_s: 2.0,
            hr_ratio: 0.4,
            live_ratio: 0.5,
            vod_frames: (120, 360),
            live_frames: (480, 1_200),
        }
    }
}

impl WorkloadConfig {
    /// Overrides the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the number of sessions.
    pub fn with_sessions(mut self, sessions: usize) -> Self {
        self.sessions = sessions;
        self
    }

    /// Checks the config for structural validity: a non-empty session
    /// count, a finite positive arrival rate, ratios in `[0, 1]` and
    /// well-formed session-length ranges.
    ///
    /// # Errors
    ///
    /// The first [`WorkloadError`] found, in field order.
    pub fn validate(&self) -> Result<(), WorkloadError> {
        if self.sessions == 0 {
            return Err(WorkloadError::NoSessions);
        }
        if !(self.mean_interarrival_s.is_finite() && self.mean_interarrival_s > 0.0) {
            return Err(WorkloadError::NonPositiveRate {
                mean_interarrival_s: self.mean_interarrival_s,
            });
        }
        for (field, value) in [("hr_ratio", self.hr_ratio), ("live_ratio", self.live_ratio)] {
            if !(value.is_finite() && (0.0..=1.0).contains(&value)) {
                return Err(WorkloadError::RatioOutOfRange { field, value });
            }
        }
        for (field, bounds) in [
            ("vod_frames", self.vod_frames),
            ("live_frames", self.live_frames),
        ] {
            if bounds.0 == 0 || bounds.1 == 0 {
                return Err(WorkloadError::ZeroFrames { field });
            }
            if bounds.0 > bounds.1 {
                return Err(WorkloadError::InvertedFrames { field, bounds });
            }
        }
        Ok(())
    }
}

/// A timed list of session arrivals, sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    arrivals: Vec<SessionRequest>,
}

impl Workload {
    /// Generates a churn workload from `config` (deterministic),
    /// validating it first.
    ///
    /// # Errors
    ///
    /// [`WorkloadError`] when the config is structurally invalid — zero
    /// sessions, a non-positive or non-finite arrival rate, ratios
    /// outside `[0, 1]`, or degenerate session-length ranges.
    pub fn try_generate(config: &WorkloadConfig) -> Result<Workload, WorkloadError> {
        config.validate()?;
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mean = config.mean_interarrival_s;
        let mut t = 0.0;
        let mut arrivals = Vec::with_capacity(config.sessions);
        for id in 0..config.sessions as u64 {
            // Exponential interarrival: -mean · ln(1 - U), U ∈ [0, 1).
            let u: f64 = rng.gen_range(0.0..1.0);
            t += -mean * (1.0 - u).ln();
            let hr = rng.gen_bool(config.hr_ratio);
            let live = rng.gen_bool(config.live_ratio);
            let (lo, hi) = if live {
                config.live_frames
            } else {
                config.vod_frames
            };
            let frames = rng.gen_range(lo..=hi);
            let seed = rng.gen_range(0..u64::MAX);
            arrivals.push(SessionRequest {
                id,
                arrival_s: t,
                hr,
                live,
                frames,
                seed,
            });
        }
        Ok(Workload { arrivals })
    }

    /// Wraps an explicit arrival trace (sorted by arrival time; ties keep
    /// their given order). This is the replay path: captured production
    /// traces or hand-built worst cases run through the same dispatcher
    /// and fleet loop as generated workloads. A non-finite arrival time
    /// sorts to an end of the trace here; a fleet run rejects it with
    /// [`FleetError::InvalidConfig`](crate::FleetError::InvalidConfig)
    /// before its first epoch.
    pub fn replay(mut arrivals: Vec<SessionRequest>) -> Workload {
        arrivals.sort_by(|a, b| a.arrival_s.total_cmp(&b.arrival_s));
        Workload { arrivals }
    }

    /// The arrivals, in time order.
    pub fn arrivals(&self) -> &[SessionRequest] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the workload is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Time of the last arrival (0.0 for an empty workload).
    pub fn horizon_s(&self) -> f64 {
        self.arrivals.last().map_or(0.0, |r| r.arrival_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn generate(config: &WorkloadConfig) -> Workload {
        Workload::try_generate(config).expect("valid workload config")
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadConfig::default();
        assert_eq!(generate(&cfg), generate(&cfg));
        let other = generate(&cfg.clone().with_seed(2));
        assert_ne!(generate(&cfg), other);
    }

    #[test]
    fn arrivals_are_sorted_and_sized() {
        let w = generate(&WorkloadConfig::default().with_sessions(50));
        assert_eq!(w.len(), 50);
        for pair in w.arrivals().windows(2) {
            assert!(pair[0].arrival_s <= pair[1].arrival_s);
        }
        assert!(w.horizon_s() > 0.0);
    }

    #[test]
    fn ratios_shape_the_mix() {
        let cfg = WorkloadConfig {
            sessions: 400,
            hr_ratio: 0.25,
            live_ratio: 0.0,
            ..WorkloadConfig::default()
        };
        let w = generate(&cfg);
        let hr = w.arrivals().iter().filter(|r| r.hr).count();
        assert!((60..=140).contains(&hr), "hr count {hr} far from 25 %");
        assert!(w.arrivals().iter().all(|r| !r.live));
        assert!(w.arrivals().iter().all(|r| (120..=360).contains(&r.frames)));
    }

    #[test]
    fn live_sessions_are_longer() {
        let cfg = WorkloadConfig {
            sessions: 200,
            live_ratio: 0.5,
            ..WorkloadConfig::default()
        };
        let w = generate(&cfg);
        let mean = |live: bool| {
            let xs: Vec<u64> = w
                .arrivals()
                .iter()
                .filter(|r| r.live == live)
                .map(|r| r.frames)
                .collect();
            xs.iter().sum::<u64>() as f64 / xs.len().max(1) as f64
        };
        assert!(mean(true) > 2.0 * mean(false));
    }

    #[test]
    fn requests_build_matching_specs() {
        let w = generate(&WorkloadConfig::default());
        for r in w.arrivals() {
            let spec = r.spec();
            assert_eq!(spec.resolution().is_high_resolution(), r.hr);
            assert_eq!(spec.frame_count(), r.frames);
            let cfg = r.session_config();
            assert_eq!(cfg.seed, r.seed);
        }
    }

    #[test]
    fn zero_sessions_config_is_rejected() {
        let cfg = WorkloadConfig::default().with_sessions(0);
        assert_eq!(
            Workload::try_generate(&cfg).unwrap_err(),
            WorkloadError::NoSessions
        );
    }

    #[test]
    fn non_positive_or_non_finite_rate_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let cfg = WorkloadConfig {
                mean_interarrival_s: bad,
                ..WorkloadConfig::default()
            };
            assert!(
                matches!(
                    Workload::try_generate(&cfg),
                    Err(WorkloadError::NonPositiveRate { .. })
                ),
                "rate {bad} slipped through"
            );
        }
    }

    #[test]
    fn out_of_range_ratios_are_rejected() {
        for (hr, live, field) in [
            (1.5, 0.5, "hr_ratio"),
            (-0.1, 0.5, "hr_ratio"),
            (f64::NAN, 0.5, "hr_ratio"),
            (0.5, 2.0, "live_ratio"),
            (0.5, f64::NAN, "live_ratio"),
        ] {
            let cfg = WorkloadConfig {
                hr_ratio: hr,
                live_ratio: live,
                ..WorkloadConfig::default()
            };
            match Workload::try_generate(&cfg) {
                Err(WorkloadError::RatioOutOfRange { field: f, .. }) => assert_eq!(f, field),
                other => panic!("({hr}, {live}) yielded {other:?}"),
            }
        }
    }

    #[test]
    fn degenerate_frame_ranges_are_rejected() {
        let zero = WorkloadConfig {
            vod_frames: (0, 100),
            ..WorkloadConfig::default()
        };
        assert_eq!(
            Workload::try_generate(&zero).unwrap_err(),
            WorkloadError::ZeroFrames {
                field: "vod_frames"
            }
        );
        let inverted = WorkloadConfig {
            live_frames: (500, 100),
            ..WorkloadConfig::default()
        };
        assert_eq!(
            Workload::try_generate(&inverted).unwrap_err(),
            WorkloadError::InvertedFrames {
                field: "live_frames",
                bounds: (500, 100)
            }
        );
    }

    #[test]
    fn valid_config_passes_validation_and_generates() {
        let cfg = WorkloadConfig::default();
        assert_eq!(cfg.validate(), Ok(()));
        assert_eq!(Workload::try_generate(&cfg).unwrap().len(), cfg.sessions);
    }

    #[test]
    fn error_display_is_informative() {
        assert!(WorkloadError::NoSessions.to_string().contains("zero"));
        let e = WorkloadError::RatioOutOfRange {
            field: "hr_ratio",
            value: 2.0,
        };
        assert!(e.to_string().contains("hr_ratio"));
        let e = WorkloadError::InvertedFrames {
            field: "vod_frames",
            bounds: (9, 3),
        };
        assert!(e.to_string().contains("9"));
    }

    #[test]
    fn replay_sorts_by_time() {
        let mk = |id, t| SessionRequest {
            id,
            arrival_s: t,
            hr: false,
            live: false,
            frames: 10,
            seed: id,
        };
        let w = Workload::replay(vec![mk(0, 3.0), mk(1, 1.0), mk(2, 2.0)]);
        let ids: Vec<u64> = w.arrivals().iter().map(|r| r.id).collect();
        assert_eq!(ids, vec![1, 2, 0]);
    }
}
