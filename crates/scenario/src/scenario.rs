//! Scenario composition and realization: phases chain into a seeded,
//! deterministic non-homogeneous arrival process, realized into the
//! fleet's [`Workload`] form by thinning.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mamut_fleet::{SessionRequest, Workload};

use crate::phase::Phase;

/// A structurally invalid [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum ScenarioError {
    /// The scenario has no phases — it would realize into nothing.
    NoPhases,
    /// A phase carried an out-of-range or non-finite parameter.
    InvalidPhase {
        /// Index of the offending phase.
        phase: usize,
        /// Which parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::NoPhases => write!(f, "scenario has no phases"),
            ScenarioError::InvalidPhase { phase, what, value } => {
                write!(f, "phase {phase}: invalid {what} ({value})")
            }
        }
    }
}

impl std::error::Error for ScenarioError {}

/// A seeded, deterministic composition of arrival phases.
///
/// A scenario is a *description*: phases chained back-to-back, plus the
/// RNG seed that makes its realization a pure function of the value.
/// [`Scenario::realize`] turns it into a concrete
/// [`RealizedScenario`] — timed session arrivals plus phase-boundary
/// marks — by thinning a homogeneous arrival process against each
/// phase's instantaneous rate curve.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    name: String,
    seed: u64,
    phases: Vec<Phase>,
}

impl Scenario {
    /// An empty scenario; chain phases with [`Scenario::then`].
    pub fn new(name: impl Into<String>, seed: u64) -> Self {
        Scenario {
            name: name.into(),
            seed,
            phases: Vec::new(),
        }
    }

    /// Appends a phase after everything added so far.
    #[must_use]
    pub fn then(mut self, phase: Phase) -> Self {
        self.phases.push(phase);
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The realization seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Overrides the realization seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The composed phases, in order.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }

    /// Total scenario length (sum of phase durations, virtual seconds).
    pub fn horizon_s(&self) -> f64 {
        self.phases.iter().map(Phase::duration_s).sum()
    }

    /// The instantaneous arrival rate at absolute time `t` (0 outside
    /// the scenario).
    pub fn rate_hz_at(&self, t: f64) -> f64 {
        let mut start = 0.0;
        for phase in &self.phases {
            let end = start + phase.duration_s();
            if t < end {
                return if t >= start {
                    phase.rate_hz_at(t - start)
                } else {
                    0.0
                };
            }
            start = end;
        }
        0.0
    }

    /// Phase boundaries as `(start_s, label)`, in order.
    pub fn phase_starts(&self) -> Vec<(f64, &'static str)> {
        let mut out = Vec::with_capacity(self.phases.len());
        let mut start = 0.0;
        for phase in &self.phases {
            out.push((start, phase.label()));
            start += phase.duration_s();
        }
        out
    }

    /// Validates every phase.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::NoPhases`] for an empty scenario, or the first
    /// [`ScenarioError::InvalidPhase`] found.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.phases.is_empty() {
            return Err(ScenarioError::NoPhases);
        }
        for (i, phase) in self.phases.iter().enumerate() {
            phase.validate(i)?;
        }
        Ok(())
    }

    /// Realizes the scenario into timed arrivals (deterministic: same
    /// scenario value ⇒ byte-identical realization).
    ///
    /// Arrivals come from thinning: within each phase a homogeneous
    /// process at the phase's peak rate proposes candidate instants
    /// (exponential gaps), and each candidate survives with probability
    /// `λ(t) / λ_max` — the standard exact simulation of a
    /// non-homogeneous Poisson process. Surviving arrivals draw their
    /// class, length and content seed from the phase's mix *at that
    /// instant*, so evolving mixes (regional shift, content drift) show
    /// up inside a single phase.
    ///
    /// # Errors
    ///
    /// [`ScenarioError`] when [`Scenario::validate`] rejects the
    /// description.
    pub fn realize(&self) -> Result<RealizedScenario, ScenarioError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut arrivals = Vec::new();
        let mut marks = Vec::with_capacity(self.phases.len());
        let mut phase_start = 0.0;
        for phase in &self.phases {
            marks.push((phase_start, phase.label().to_owned()));
            let duration = phase.duration_s();
            let lambda_max = phase.peak_rate_hz();
            if lambda_max > 0.0 {
                let mut t = 0.0;
                loop {
                    // Candidate gap at the envelope rate: -ln(1 − U)/λ_max.
                    let u: f64 = rng.gen_range(0.0..1.0);
                    t += -(1.0 - u).ln() / lambda_max;
                    if t >= duration {
                        break;
                    }
                    let keep: f64 = rng.gen_range(0.0..1.0);
                    if keep * lambda_max <= phase.rate_hz_at(t) {
                        let mix = phase.mix_at(t);
                        let hr = rng.gen_bool(mix.hr_ratio.clamp(0.0, 1.0));
                        let live = rng.gen_bool(mix.live_ratio.clamp(0.0, 1.0));
                        let (lo, hi) = if live {
                            mix.live_frames
                        } else {
                            mix.vod_frames
                        };
                        let frames = rng.gen_range(lo..=hi.max(lo));
                        let seed = rng.gen_range(0..u64::MAX);
                        arrivals.push(SessionRequest {
                            id: 0, // assigned below, once the count is known
                            arrival_s: phase_start + t,
                            hr,
                            live,
                            frames,
                            seed,
                        });
                    }
                }
            }
            phase_start += duration;
        }
        for (id, request) in arrivals.iter_mut().enumerate() {
            request.id = id as u64;
        }
        Ok(RealizedScenario {
            name: self.name.clone(),
            seed: self.seed,
            horizon_s: phase_start,
            arrivals,
            marks,
        })
    }
}

/// A realized scenario: the concrete arrival trace one [`Scenario`]
/// value deterministically produces, plus its phase-boundary marks.
///
/// This is the replayable unit: feed [`RealizedScenario::workload`] to
/// a `FleetSim`, annotate the run with
/// [`RealizedScenario::phase_marks`], and persist the whole thing
/// byte-for-byte through [`RealizedScenario::encode`] (see
/// [`crate::trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedScenario {
    /// The producing scenario's name.
    pub name: String,
    /// The producing scenario's seed.
    pub seed: u64,
    /// Total scenario length (virtual seconds).
    pub horizon_s: f64,
    /// Timed session arrivals, sorted by arrival time.
    pub arrivals: Vec<SessionRequest>,
    /// Phase boundaries as `(start_s, label)`.
    pub marks: Vec<(f64, String)>,
}

impl RealizedScenario {
    /// The realized arrivals as a fleet [`Workload`] (replay path).
    pub fn workload(&self) -> Workload {
        Workload::replay(self.arrivals.clone())
    }

    /// Number of realized arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the realization produced no arrivals.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Splits the realized arrivals into `regions` per-shard workloads
    /// for a sharded fleet: each arrival is assigned a region by a
    /// seeded draw (one `StdRng` stream derived from the scenario seed
    /// and the region count, consumed in arrival order), so the split
    /// is deterministic, every arrival lands in exactly one region, and
    /// re-splitting the same realization always produces the same
    /// partition. Arrival times and session parameters are untouched —
    /// a region's workload is simply the subsequence routed to it.
    ///
    /// `regions == 0` is treated as 1 (the degenerate single-shard
    /// split, which returns the full workload).
    pub fn regional_workloads(&self, regions: usize) -> Vec<Workload> {
        let regions = regions.max(1);
        let mut rng =
            StdRng::seed_from_u64(self.seed ^ (regions as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut buckets: Vec<Vec<SessionRequest>> = vec![Vec::new(); regions];
        for request in &self.arrivals {
            let region = rng.gen_range(0..regions);
            buckets[region].push(request.clone());
        }
        buckets.into_iter().map(Workload::replay).collect()
    }

    /// Phase marks quantized to a fleet's epoch grid, for
    /// `FleetSim::set_phase_marks`: a phase starting mid-epoch is
    /// attributed to the next boundary, matching how the fleet admits
    /// arrivals (quantized up, never early).
    pub fn phase_marks(&self, epoch_s: f64) -> Vec<(u64, String)> {
        let epoch_s = epoch_s.max(1e-9);
        self.marks
            .iter()
            .map(|(t, label)| ((t / epoch_s).ceil() as u64, label.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phase::MixProfile;

    fn two_phase() -> Scenario {
        Scenario::new("test", 7)
            .then(Phase::Steady {
                duration_s: 30.0,
                rate_hz: 1.0,
                mix: MixProfile::vod_heavy(),
            })
            .then(Phase::FlashCrowd {
                duration_s: 40.0,
                base_rate_hz: 0.5,
                peak_rate_hz: 4.0,
                event_at_s: 10.0,
                ramp_s: 5.0,
                decay_s: 8.0,
                mix: MixProfile::live_heavy(),
            })
    }

    #[test]
    fn realization_is_deterministic_and_sorted() {
        let s = two_phase();
        let a = s.realize().unwrap();
        let b = s.realize().unwrap();
        assert_eq!(a, b);
        assert!(!a.is_empty());
        for pair in a.arrivals.windows(2) {
            assert!(pair[0].arrival_s <= pair[1].arrival_s);
        }
        for (i, r) in a.arrivals.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival_s < s.horizon_s());
        }
        // A different seed yields a different trace.
        assert_ne!(a, s.clone().with_seed(8).realize().unwrap());
    }

    #[test]
    fn realized_counts_track_the_rate_integral() {
        // ∫λ over phase 1 is 30; a realization within ±50 % of that is
        // evidence the thinning is at the right scale (seeded, so this
        // is a fixed check, not a flaky statistical one).
        let s = Scenario::new("steady", 3).then(Phase::Steady {
            duration_s: 30.0,
            rate_hz: 1.0,
            mix: MixProfile::vod_heavy(),
        });
        let n = s.realize().unwrap().len();
        assert!((15..=45).contains(&n), "got {n} arrivals for ∫λ = 30");
    }

    #[test]
    fn thinning_concentrates_arrivals_at_the_peak() {
        let s = Scenario::new("diurnal", 5).then(Phase::Diurnal {
            duration_s: 200.0,
            mean_rate_hz: 1.0,
            amplitude: 1.0,
            period_s: 200.0,
            phase_offset_s: 150.0, // trough at t = 0, peak at t = 100
            mix: MixProfile::vod_heavy(),
        });
        let r = s.realize().unwrap();
        let in_window = |lo: f64, hi: f64| {
            r.arrivals
                .iter()
                .filter(|a| a.arrival_s >= lo && a.arrival_s < hi)
                .count()
        };
        // Same-width windows around the trough edges and the peak: the
        // peak 40 s must carry several times the arrivals of either
        // trough-side 40 s.
        let trough = in_window(0.0, 20.0) + in_window(180.0, 200.0);
        let peak = in_window(80.0, 120.0);
        assert!(
            peak > 3 * trough.max(1),
            "peak window {peak} vs trough windows {trough}"
        );
    }

    #[test]
    fn evolving_mix_shows_up_across_one_phase() {
        let s = Scenario::new("shift", 11).then(Phase::RegionalShift {
            duration_s: 400.0,
            rate_hz: 1.0,
            from: MixProfile {
                live_ratio: 0.0,
                ..MixProfile::vod_heavy()
            },
            to: MixProfile {
                live_ratio: 1.0,
                ..MixProfile::live_heavy()
            },
        });
        let r = s.realize().unwrap();
        let live_share = |lo: f64, hi: f64| {
            let (live, all) = r
                .arrivals
                .iter()
                .filter(|a| a.arrival_s >= lo && a.arrival_s < hi)
                .fold((0usize, 0usize), |(l, n), a| (l + a.live as usize, n + 1));
            live as f64 / all.max(1) as f64
        };
        assert!(live_share(0.0, 100.0) < 0.4);
        assert!(live_share(300.0, 400.0) > 0.6);
    }

    #[test]
    fn workload_and_marks_feed_the_fleet() {
        let r = two_phase().realize().unwrap();
        let w = r.workload();
        assert_eq!(w.len(), r.len());
        assert_eq!(r.marks.len(), 2);
        assert_eq!(r.marks[0], (0.0, "steady".to_owned()));
        assert_eq!(r.marks[1], (30.0, "flash-crowd".to_owned()));
        assert_eq!(
            r.phase_marks(4.0),
            vec![(0, "steady".to_owned()), (8, "flash-crowd".to_owned())]
        );
    }

    #[test]
    fn regional_split_partitions_every_arrival_deterministically() {
        let r = two_phase().realize().unwrap();
        let regions = r.regional_workloads(3);
        assert_eq!(regions.len(), 3);
        // A partition: every arrival lands in exactly one region.
        let total: usize = regions.iter().map(Workload::len).sum();
        assert_eq!(total, r.len());
        let mut ids: Vec<u64> = regions
            .iter()
            .flat_map(|w| w.arrivals().iter().map(|a| a.id))
            .collect();
        ids.sort_unstable();
        let mut expected: Vec<u64> = r.arrivals.iter().map(|a| a.id).collect();
        expected.sort_unstable();
        assert_eq!(ids, expected);
        // Within a region, arrival order (and times) are preserved.
        for w in &regions {
            assert!(w
                .arrivals()
                .windows(2)
                .all(|p| p[0].arrival_s <= p[1].arrival_s));
        }
        // Deterministic: the same realization splits identically.
        let again = r.regional_workloads(3);
        for (a, b) in regions.iter().zip(&again) {
            assert_eq!(a.arrivals(), b.arrivals());
        }
        // Different region counts draw from distinct streams but still
        // partition; 0 degrades to the single-shard split.
        assert_eq!(
            r.regional_workloads(1)[0].arrivals(),
            &r.arrivals[..],
            "single region is the whole trace"
        );
        assert_eq!(r.regional_workloads(0).len(), 1);
        // With enough arrivals the draw actually spreads load.
        assert!(
            regions.iter().filter(|w| !w.is_empty()).count() > 1,
            "split never used more than one region"
        );
    }

    #[test]
    fn invalid_scenarios_are_rejected_with_typed_errors() {
        assert_eq!(
            Scenario::new("empty", 1).realize().unwrap_err(),
            ScenarioError::NoPhases
        );
        let bad_rate = Scenario::new("bad", 1).then(Phase::Steady {
            duration_s: 10.0,
            rate_hz: f64::NAN,
            mix: MixProfile::vod_heavy(),
        });
        assert!(matches!(
            bad_rate.realize().unwrap_err(),
            ScenarioError::InvalidPhase {
                phase: 0,
                what: "rate_hz",
                ..
            }
        ));
        let bad_amplitude = Scenario::new("bad", 1).then(Phase::Diurnal {
            duration_s: 10.0,
            mean_rate_hz: 1.0,
            amplitude: 1.5,
            period_s: 10.0,
            phase_offset_s: 0.0,
            mix: MixProfile::vod_heavy(),
        });
        assert!(matches!(
            bad_amplitude.realize().unwrap_err(),
            ScenarioError::InvalidPhase {
                what: "amplitude",
                ..
            }
        ));
        let bad_mix = Scenario::new("bad", 1).then(Phase::Steady {
            duration_s: 10.0,
            rate_hz: 1.0,
            mix: MixProfile {
                vod_frames: (0, 10),
                ..MixProfile::vod_heavy()
            },
        });
        assert!(matches!(
            bad_mix.realize().unwrap_err(),
            ScenarioError::InvalidPhase {
                what: "vod_frames",
                ..
            }
        ));
        let zero_duration = Scenario::new("bad", 1).then(Phase::Steady {
            duration_s: 0.0,
            rate_hz: 1.0,
            mix: MixProfile::vod_heavy(),
        });
        assert!(matches!(
            zero_duration.realize().unwrap_err(),
            ScenarioError::InvalidPhase {
                what: "duration_s",
                ..
            }
        ));
    }

    #[test]
    fn zero_rate_phases_realize_empty_but_still_mark() {
        let s = Scenario::new("silence", 1).then(Phase::Steady {
            duration_s: 10.0,
            rate_hz: 0.0,
            mix: MixProfile::vod_heavy(),
        });
        let r = s.realize().unwrap();
        assert!(r.is_empty());
        assert_eq!(r.marks.len(), 1);
        assert_eq!(r.horizon_s, 10.0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = ScenarioError::InvalidPhase {
            phase: 2,
            what: "amplitude",
            value: 9.0,
        };
        assert!(e.to_string().contains("phase 2"));
        assert!(e.to_string().contains("amplitude"));
        assert!(ScenarioError::NoPhases.to_string().contains("no phases"));
    }
}
