//! Experiment harness reproducing every table and figure of the MAMUT
//! paper.
//!
//! Each `benches/*.rs` target is a standalone binary (`harness = false`)
//! that prints the corresponding table/series; this library holds the
//! shared machinery: controller factories, scenario runners, pretraining
//! and multi-seed aggregation. The remaining benches (`fleet_*`,
//! `server_hot_path`, `snapshot_codec`, ...) are plain timings of one
//! layer each; the repository's performance benchmark, with its pinned
//! counts and digests, is `fleetbench/`.
//!
//! # Protocol
//!
//! The paper reports averages of five repetitions on a *trained* system
//! (reinforcement-learning managers learn online; by the time measurements
//! are taken the Q-tables have seen the workload). We reproduce that with
//! [`RunPlan::pretrain_frames`]: controllers first drive the same mix with
//! shifted content seeds, then are moved into the measured run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use mamut_baselines::{HeuristicConfig, HeuristicController, MonoAgentConfig, MonoAgentController};
use mamut_core::{Constraints, Controller, MamutConfig, MamutController};
use mamut_metrics::RunningStats;
use mamut_transcode::{
    homogeneous_sessions, scenario_ii_sessions, MixSpec, RunSummary, ServerSim, SessionConfig,
};

/// Which run-time manager drives every session of a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ControllerKind {
    /// The paper's multi-agent system.
    Mamut,
    /// Mono-agent Q-learning baseline (reduced joint grid).
    MonoAgent,
    /// Rule-based baseline (Grellert-style).
    Heuristic,
}

impl ControllerKind {
    /// All controllers in the paper's comparison order.
    pub const ALL: [ControllerKind; 3] = [
        ControllerKind::Heuristic,
        ControllerKind::MonoAgent,
        ControllerKind::Mamut,
    ];

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            ControllerKind::Mamut => "MAMUT",
            ControllerKind::MonoAgent => "Mono-agent",
            ControllerKind::Heuristic => "Heuristic",
        }
    }

    /// Builds a controller instance for one session.
    pub fn build(&self, is_hr: bool, constraints: Constraints, seed: u64) -> Box<dyn Controller> {
        match self {
            ControllerKind::Mamut => {
                let cfg = if is_hr {
                    MamutConfig::paper_hr()
                } else {
                    MamutConfig::paper_lr()
                }
                .with_seed(seed)
                .with_constraints(constraints);
                Box::new(MamutController::new(cfg).expect("paper config is valid"))
            }
            ControllerKind::MonoAgent => {
                let cfg = if is_hr {
                    MonoAgentConfig::paper_hr()
                } else {
                    MonoAgentConfig::paper_lr()
                }
                .with_seed(seed)
                .with_constraints(constraints);
                Box::new(MonoAgentController::new(cfg).expect("paper config is valid"))
            }
            ControllerKind::Heuristic => {
                let cfg = if is_hr {
                    HeuristicConfig::paper_hr()
                } else {
                    HeuristicConfig::paper_lr()
                };
                Box::new(HeuristicController::new(cfg).expect("paper config is valid"))
            }
        }
    }
}

/// How a single run is set up.
#[derive(Debug, Clone, Copy)]
pub struct RunPlan {
    /// Frames per video in the measured run.
    pub frames: u64,
    /// Online-learning warm-up frames before measurement (0 = cold start).
    pub pretrain_frames: u64,
    /// Safety cap on simulator events.
    pub max_events: u64,
}

impl Default for RunPlan {
    fn default() -> Self {
        RunPlan {
            frames: 500,
            pretrain_frames: 12_000,
            max_events: 50_000_000,
        }
    }
}

/// A function building one controller per session: arguments are
/// `(is_hr, constraints, per-session seed)`.
pub type ControllerFactory<'a> = &'a dyn Fn(bool, Constraints, u64) -> Box<dyn Controller>;

/// Builds controllers (one per session) for a mix, seeding each uniquely.
fn build_controllers(
    factory: ControllerFactory<'_>,
    sessions: &[SessionConfig],
    seed: u64,
) -> Vec<Box<dyn Controller>> {
    sessions
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let is_hr = s
                .playlist
                .get(0)
                .expect("playlists are non-empty")
                .resolution()
                .is_high_resolution();
            factory(is_hr, s.constraints, seed.wrapping_add(i as u64 * 31))
        })
        .collect()
}

fn run_with_controllers(
    sessions: Vec<SessionConfig>,
    controllers: Vec<Box<dyn Controller>>,
    max_events: u64,
) -> (RunSummary, Vec<Box<dyn Controller>>) {
    let mut server = ServerSim::with_default_platform();
    for (cfg, ctl) in sessions.into_iter().zip(controllers) {
        server.add_session(cfg, ctl);
    }
    let summary = server
        .run_to_completion(max_events)
        .expect("experiment within event budget");
    (summary, server.into_controllers())
}

/// Runs one Scenario-I style homogeneous/mixed run with a custom
/// controller factory (used by the ablation studies).
pub fn run_mix_with_factory(
    factory: ControllerFactory<'_>,
    mix: MixSpec,
    plan: RunPlan,
    seed: u64,
) -> RunSummary {
    let mut controllers =
        build_controllers(factory, &homogeneous_sessions(mix, plan.frames, seed), seed);
    if plan.pretrain_frames > 0 {
        let warm = homogeneous_sessions(mix, plan.pretrain_frames, seed.wrapping_add(50_000));
        let (_, trained) = run_with_controllers(warm, controllers, plan.max_events);
        controllers = trained;
    }
    let measured = homogeneous_sessions(mix, plan.frames, seed);
    run_with_controllers(measured, controllers, plan.max_events).0
}

/// Runs one Scenario-I style homogeneous/mixed run: optional pretraining
/// pass (same mix, shifted content seeds) followed by the measured run.
pub fn run_mix(kind: ControllerKind, mix: MixSpec, plan: RunPlan, seed: u64) -> RunSummary {
    run_mix_with_factory(&|hr, c, s| kind.build(hr, c, s), mix, plan, seed)
}

/// Runs one Scenario-II batch: initial video + `followers` random videos
/// per stream, after optional pretraining on the same mix shape.
pub fn run_scenario_ii(
    kind: ControllerKind,
    mix: MixSpec,
    followers: usize,
    plan: RunPlan,
    seed: u64,
) -> RunSummary {
    let mut controllers = build_controllers(
        &|hr, c, s| kind.build(hr, c, s),
        &scenario_ii_sessions(mix, followers, plan.frames, seed),
        seed,
    );
    if plan.pretrain_frames > 0 {
        let warm = homogeneous_sessions(mix, plan.pretrain_frames, seed.wrapping_add(50_000));
        let (_, trained) = run_with_controllers(warm, controllers, plan.max_events);
        controllers = trained;
    }
    let measured = scenario_ii_sessions(mix, followers, plan.frames, seed);
    run_with_controllers(measured, controllers, plan.max_events).0
}

/// Multi-seed aggregate of the metrics the paper tabulates.
#[derive(Debug, Clone, Default)]
pub struct Aggregate {
    /// Server power (W).
    pub watts: RunningStats,
    /// Mean threads per session (`Nth`).
    pub nth: RunningStats,
    /// Mean FPS per session.
    pub fps: RunningStats,
    /// Mean ∆ (percentage of frames below target).
    pub delta: RunningStats,
    /// Mean PSNR (dB).
    pub psnr: RunningStats,
    /// Mean frequency (GHz).
    pub freq: RunningStats,
    /// HR-only thread/frequency means (Table I columns).
    pub nth_hr: RunningStats,
    /// HR-only frequency mean.
    pub freq_hr: RunningStats,
    /// LR-only thread mean.
    pub nth_lr: RunningStats,
    /// LR-only frequency mean.
    pub freq_lr: RunningStats,
}

impl Aggregate {
    /// Folds one run into the aggregate.
    pub fn push(&mut self, summary: &RunSummary) {
        self.watts.push(summary.mean_power_w);
        self.nth.push(summary.mean_threads());
        self.fps.push(summary.mean_fps());
        self.delta.push(summary.mean_violation_percent());
        self.psnr.push(summary.mean_psnr_db());
        self.freq.push(summary.mean_freq_ghz());
        for s in &summary.sessions {
            if s.is_hr {
                self.nth_hr.push(s.mean_threads);
                self.freq_hr.push(s.mean_freq_ghz);
            } else {
                self.nth_lr.push(s.mean_threads);
                self.freq_lr.push(s.mean_freq_ghz);
            }
        }
    }
}

/// Runs `repetitions` seeded repetitions of a Scenario-I mix and
/// aggregates them (the paper averages five).
pub fn aggregate_mix(
    kind: ControllerKind,
    mix: MixSpec,
    plan: RunPlan,
    repetitions: u64,
) -> Aggregate {
    let mut agg = Aggregate::default();
    for rep in 0..repetitions {
        let summary = run_mix(kind, mix, plan, 1_000 + rep * 7);
        agg.push(&summary);
    }
    agg
}

/// Runs `repetitions` seeded repetitions of a Scenario-II batch.
pub fn aggregate_scenario_ii(
    kind: ControllerKind,
    mix: MixSpec,
    followers: usize,
    plan: RunPlan,
    repetitions: u64,
) -> Aggregate {
    let mut agg = Aggregate::default();
    for rep in 0..repetitions {
        let summary = run_scenario_ii(kind, mix, followers, plan, 2_000 + rep * 13);
        agg.push(&summary);
    }
    agg
}

/// Formats a float with one decimal (table cells).
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with two decimals (table cells).
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controller_factory_builds_each_kind() {
        let c = Constraints::paper_defaults();
        for kind in ControllerKind::ALL {
            let hr = kind.build(true, c, 1);
            let lr = kind.build(false, c, 1);
            assert!(!hr.name().is_empty());
            assert_eq!(hr.name(), lr.name());
        }
    }

    #[test]
    fn quick_mix_runs_end_to_end() {
        let plan = RunPlan {
            frames: 60,
            pretrain_frames: 0,
            max_events: 1_000_000,
        };
        for kind in ControllerKind::ALL {
            let s = run_mix(kind, MixSpec::new(1, 1), plan, 3);
            assert_eq!(s.sessions.len(), 2);
            assert_eq!(s.sessions[0].frames, 60);
            assert!(s.mean_power_w > 40.0);
        }
    }

    #[test]
    fn aggregate_accumulates_reps() {
        let plan = RunPlan {
            frames: 40,
            pretrain_frames: 0,
            max_events: 1_000_000,
        };
        let agg = aggregate_mix(ControllerKind::Heuristic, MixSpec::new(1, 0), plan, 2);
        assert_eq!(agg.watts.count(), 2);
        assert_eq!(agg.nth_hr.count(), 2);
        assert_eq!(agg.nth_lr.count(), 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(f1(2.34567), "2.3");
        assert_eq!(f2(2.34567), "2.35");
    }
}
