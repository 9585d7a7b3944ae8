//! The offline training harness: seeded episode rollouts against the
//! scenario catalog plus replay passes over the recorded transitions.
//!
//! Training is simulation-native — no live fleet is touched. Each
//! episode reseeds a scenario, realizes its deterministic arrival
//! trace, and drives a [`FleetSim`] whose autoscaler and dispatcher are
//! the learned [`RlScaler`]/[`RlDispatch`] pair in ε-greedy training
//! mode; the driver records every `(s, a, r, s′)` step. After the
//! scenario's episodes, a seeded shuffle replays the accumulated buffer
//! through extra Q-backups — the usual experience-replay trick, here
//! fully deterministic so the 1/2/8-worker CI matrix trains
//! byte-identical policies.
//!
//! Everything the sim needs besides the policy — epoch grid, pool
//! limits, node platform, controller factory, rebalancer — comes from
//! `mamut_scenario::sizing`'s canonical sweep configuration, so a
//! trained policy races the heuristic stack on identical terms.

use mamut_core::snapshot::SnapshotError;
use mamut_core::{FixedController, KnobSettings};
use mamut_fleet::{ControllerFactory, FleetConfig, FleetSim, FleetSummary, PowerQosBalance};
use mamut_platform::Platform;
use mamut_scenario::sizing::{SWEEP_EPOCH_S, SWEEP_POOL, SWEEP_SESSIONS_PER_NODE};
use mamut_scenario::{sizing, Scenario};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::adapter::{PolicyDriver, RlConfig, RlDispatch, RlScaler, SharedDriver, Transition};
use crate::featurize::{FeatureConfig, FleetFeaturizer};
use crate::policy::{EpsilonSchedule, FleetPolicy};

/// Training-run configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Reward weights and observation shape.
    pub rl: RlConfig,
    /// Q-learning rate.
    pub alpha: f64,
    /// Discount factor.
    pub gamma: f64,
    /// Exploration schedule across the whole run.
    pub schedule: EpsilonSchedule,
    /// Episodes rolled out per scenario (each reseeds the arrival
    /// process, so the policy sees fresh noise on the same shape).
    pub episodes_per_scenario: usize,
    /// Seeded-shuffle passes over a scenario's transition buffer after
    /// its episodes complete.
    pub replay_passes: usize,
    /// Master seed for exploration and replay shuffles.
    pub seed: u64,
    /// Fleet worker threads (results are identical for any value).
    pub workers: usize,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            rl: RlConfig {
                features: FeatureConfig {
                    pool: SWEEP_POOL,
                    ..FeatureConfig::default()
                },
                sessions_per_node: SWEEP_SESSIONS_PER_NODE,
                ..RlConfig::default()
            },
            alpha: 0.15,
            gamma: 0.92,
            schedule: EpsilonSchedule::default(),
            episodes_per_scenario: 6,
            replay_passes: 2,
            seed: 9,
            workers: 4,
        }
    }
}

/// What one scenario's training pass produced.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainReport {
    /// Scenario name.
    pub scenario: String,
    /// Episodes rolled out.
    pub episodes: usize,
    /// Transitions recorded across those episodes.
    pub transitions: u64,
    /// Mean per-step reward over the recorded transitions.
    pub mean_reward: f64,
    /// The exploration rate after this scenario's training.
    pub epsilon_after: f64,
}

/// The canonical sweep controller factory (same knobs as
/// `examples/scenario_sweep.rs`, so RL and heuristic stacks transcode
/// identically).
pub fn sweep_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

/// Offline trainer: owns the shared [`PolicyDriver`] and rolls
/// episodes against scenarios.
#[derive(Debug)]
pub struct Trainer {
    cfg: TrainConfig,
    driver: SharedDriver,
    transitions_seen: u64,
}

impl Trainer {
    /// A trainer with a fresh zero-initialized policy.
    pub fn new(cfg: TrainConfig) -> Self {
        let n_states = FleetFeaturizer::new(cfg.rl.features.clone()).n_states();
        let policy = FleetPolicy::new(n_states, cfg.seed)
            .with_learning(cfg.alpha, cfg.gamma)
            .with_schedule(cfg.schedule.clone());
        let driver = PolicyDriver::new(cfg.rl.clone(), policy).into_shared();
        Trainer {
            cfg,
            driver,
            transitions_seen: 0,
        }
    }

    /// The shared driver (for wiring extra adapters or inspection).
    pub fn driver(&self) -> SharedDriver {
        self.driver.clone()
    }

    /// Serializes the learned policy (see [`FleetPolicy::snapshot_state`]);
    /// [`Trainer::warm_start`] restores it into another trainer.
    pub fn snapshot_state(&self) -> Vec<u8> {
        self.driver.lock().expect("driver lock").snapshot_state()
    }

    /// Warm-starts the policy from a snapshot captured by another
    /// trainer (the transfer-study path: the restored ε-schedule
    /// position and Q-table carry over, so training continues instead
    /// of restarting).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a fleet-policy state of
    /// matching shape.
    pub fn warm_start(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.driver
            .lock()
            .expect("driver lock")
            .restore_state(bytes)
    }

    /// Transitions consumed over the trainer's lifetime (rollout steps;
    /// replay passes revisit them without recounting).
    pub fn transitions_seen(&self) -> u64 {
        self.transitions_seen
    }

    /// Rolls `episodes_per_scenario` training episodes of `scenario`
    /// (each on a fresh arrival seed), then replays the recorded buffer
    /// `replay_passes` times in seeded-shuffle order.
    pub fn train_scenario(&mut self, scenario: &Scenario) -> TrainReport {
        let mut buffer: Vec<Transition> = Vec::new();
        for episode in 0..self.cfg.episodes_per_scenario {
            // Reseed deterministically per episode: same shape, fresh
            // Poisson noise.
            let reseeded = scenario
                .clone()
                .with_seed(scenario.seed().wrapping_add(7919 * (episode as u64 + 1)));
            let realized = reseeded.realize().expect("catalog scenarios are valid");
            {
                let mut d = self.driver.lock().expect("driver lock");
                d.set_train(true);
                d.begin_episode();
                d.set_mean_session_s(sizing::trace_mean_session_s(&realized));
            }
            self.run_fleet(&realized.workload());
            let mut fresh = self.driver.lock().expect("driver lock").take_transitions();
            self.transitions_seen += fresh.len() as u64;
            buffer.append(&mut fresh);
        }

        // Seeded-shuffle replay: extra backups over the same evidence.
        // The shuffle stream derives from the policy's own step counter
        // — restored with every snapshot — so a warm-started trainer
        // replays exactly like the original would have.
        let mut d = self.driver.lock().expect("driver lock");
        let mut replay_rng = StdRng::seed_from_u64(
            self.cfg
                .seed
                .wrapping_add(d.policy().steps().wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        );
        let mut order: Vec<usize> = (0..buffer.len()).collect();
        for _ in 0..self.cfg.replay_passes {
            // Fisher–Yates over the scenario's buffer.
            for i in (1..order.len()).rev() {
                let j = replay_rng.gen_range(0..=i);
                order.swap(i, j);
            }
            for &i in &order {
                let t = buffer[i];
                d.policy_mut()
                    .update(t.state, t.action, t.reward, t.next_state);
            }
        }
        let mean_reward = if buffer.is_empty() {
            0.0
        } else {
            buffer.iter().map(|t| t.reward).sum::<f64>() / buffer.len() as f64
        };
        TrainReport {
            scenario: scenario.name().to_owned(),
            episodes: self.cfg.episodes_per_scenario,
            transitions: buffer.len() as u64,
            mean_reward,
            epsilon_after: d.policy().epsilon(),
        }
    }

    /// Trains every scenario in order, returning one report each.
    pub fn train_catalog(&mut self, scenarios: &[Scenario]) -> Vec<TrainReport> {
        scenarios.iter().map(|s| self.train_scenario(s)).collect()
    }

    /// Runs `scenario` (at its canonical seed) under the *greedy*
    /// policy — no exploration, no updates — and returns the fleet
    /// summary for comparison against heuristic stacks.
    pub fn evaluate(&self, scenario: &Scenario) -> FleetSummary {
        let realized = scenario.realize().expect("catalog scenarios are valid");
        {
            let mut d = self.driver.lock().expect("driver lock");
            d.set_train(false);
            d.begin_episode();
            d.set_mean_session_s(sizing::trace_mean_session_s(&realized));
        }
        self.run_fleet(&realized.workload())
    }

    /// One fleet run under the current driver mode, on the canonical
    /// sweep grid.
    fn run_fleet(&self, workload: &mamut_fleet::Workload) -> FleetSummary {
        let mut fleet = FleetSim::new(
            FleetConfig::default()
                .with_epoch_s(SWEEP_EPOCH_S)
                .with_worker_threads(self.cfg.workers),
            Box::new(RlDispatch::new(self.driver.clone())),
            workload.clone(),
        );
        fleet.add_node(sweep_factory());
        fleet.set_autoscaler(
            Box::new(RlScaler::new(self.driver.clone())),
            Box::new(|| (Platform::xeon_e5_2667_v4(), sweep_factory())),
        );
        fleet.set_rebalancer(Box::new(
            PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
        ));
        fleet.run().expect("fleet run completes")
    }
}

/// The heuristic reference stack on the same grid: seasonal
/// Holt-Winters scaler, least-loaded dispatch, power/QoS rebalancing —
/// the strongest non-learned combination the repo ships. Used by the
/// example and tests as the baseline a trained policy must match.
pub fn heuristic_reference(scenario: &Scenario, workers: usize) -> FleetSummary {
    let realized = scenario.realize().expect("catalog scenarios are valid");
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(workers),
        Box::new(mamut_fleet::LeastLoaded::new()),
        realized.workload(),
    );
    fleet.add_node(sweep_factory());
    fleet.set_autoscaler(
        Box::new(sizing::seasonal_sweep_scaler(&realized)),
        Box::new(|| (Platform::xeon_e5_2667_v4(), sweep_factory())),
    );
    fleet.set_rebalancer(Box::new(
        PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
    ));
    fleet.run().expect("fleet run completes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamut_scenario::catalog;

    fn quick_cfg() -> TrainConfig {
        TrainConfig {
            episodes_per_scenario: 2,
            replay_passes: 1,
            ..TrainConfig::default()
        }
    }

    #[test]
    fn training_records_transitions_and_decays_epsilon() {
        let mut t = Trainer::new(quick_cfg());
        let report = t.train_scenario(&catalog::daily_vod());
        assert_eq!(report.episodes, 2);
        // Three 16-epoch days plus the drain tail, minus the first
        // boundary, per episode.
        assert!(report.transitions > 80, "diurnal days are many epochs");
        assert_eq!(t.transitions_seen(), report.transitions);
        assert!(report.epsilon_after < EpsilonSchedule::default().start);
        assert!(report.mean_reward.is_finite());
    }

    #[test]
    fn training_is_deterministic_across_worker_counts() {
        let snap = |workers: usize| {
            let mut t = Trainer::new(TrainConfig {
                workers,
                ..quick_cfg()
            });
            t.train_scenario(&catalog::flash_mob());
            t.snapshot_state()
        };
        let reference = snap(1);
        assert_eq!(reference, snap(2), "2 workers diverged");
        assert_eq!(reference, snap(8), "8 workers diverged");
    }

    #[test]
    fn evaluation_is_greedy_and_repeatable() {
        let mut t = Trainer::new(quick_cfg());
        t.train_scenario(&catalog::daily_vod());
        let before = t.snapshot_state();
        let a = t.evaluate(&catalog::daily_vod());
        let b = t.evaluate(&catalog::daily_vod());
        assert_eq!(a.to_string(), b.to_string(), "greedy eval must repeat");
        assert_eq!(t.snapshot_state(), before, "evaluation must not learn");
        assert!(a.greedy_actions > 0, "eval decisions are all greedy");
        assert_eq!(a.exploratory_actions, 0);
    }

    #[test]
    fn warm_start_resumes_the_schedule_instead_of_restarting() {
        let mut donor = Trainer::new(quick_cfg());
        donor.train_scenario(&catalog::daily_vod());
        let bytes = donor.snapshot_state();

        let mut cold = Trainer::new(quick_cfg());
        let mut warm = Trainer::new(quick_cfg());
        warm.warm_start(&bytes).unwrap();
        let cold_report = cold.train_scenario(&catalog::live_final());
        let warm_report = warm.train_scenario(&catalog::live_final());
        // The restored ε-schedule position means the warm trainer
        // explores strictly less on the new scenario.
        assert!(warm_report.epsilon_after < cold_report.epsilon_after);
    }
}
