use rand::rngs::StdRng;
use rand::SeedableRng;

use mamut_core::reward::{total_reward, RewardWeights};
use mamut_core::snapshot::{PolicySnapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use mamut_core::{
    Agent, AgentKind, Constraints, Controller, CoreError, KnobSettings, LearningRateParams,
    Observation, ObservationAccumulator, Phase, State, STATE_COUNT,
};

/// Configuration of the mono-agent Q-learning baseline.
///
/// The defaults reproduce the paper's adaptation of \[8\]: a reduced joint
/// grid spanning the same ranges as MAMUT's action sets, decisions every
/// 6 frames, and the same reward machinery. The learning rate keeps only
/// the visit-count term of Eq. 3 (`β/Num(s,a)`) — there are no peer agents
/// whose exploration could gate it.
#[derive(Debug, Clone, PartialEq)]
pub struct MonoAgentConfig {
    /// QP grid (reduced granularity).
    pub qp_values: Vec<u8>,
    /// Thread-count grid (reduced granularity).
    pub thread_values: Vec<u32>,
    /// DVFS grid in GHz (reduced granularity).
    pub dvfs_values_ghz: Vec<f64>,
    /// Decision period in frames (6 — the fastest MAMUT agent's cadence).
    pub period: u64,
    /// Discount factor γ.
    pub gamma: f64,
    /// Learning-rate parameters (β′ is forced to 0 at construction).
    pub learning: LearningRateParams,
    /// Default constraints.
    pub constraints: Constraints,
    /// Reward weights.
    pub reward_weights: RewardWeights,
    /// Knobs in force before the first decision.
    pub initial_knobs: KnobSettings,
    /// RNG seed for exploration.
    pub seed: u64,
}

impl MonoAgentConfig {
    /// Paper-style reduced grid for HR streams:
    /// QP {22,27,32,37} × threads {2,4,8,12} × freq {1.6,2.3,2.9,3.2}.
    pub fn paper_hr() -> Self {
        MonoAgentConfig {
            qp_values: vec![22, 27, 32, 37],
            thread_values: vec![2, 4, 8, 12],
            dvfs_values_ghz: vec![1.6, 2.3, 2.9, 3.2],
            period: 6,
            gamma: 0.6,
            learning: LearningRateParams::paper_defaults(),
            constraints: Constraints::paper_defaults(),
            reward_weights: RewardWeights::default(),
            initial_knobs: KnobSettings::new(32, 6, 2.6),
            seed: 0,
        }
    }

    /// Paper-style reduced grid for LR streams:
    /// QP {22,27,32,37} × threads {1,2,4,5} × freq {1.6,2.3,2.9,3.2}.
    pub fn paper_lr() -> Self {
        MonoAgentConfig {
            thread_values: vec![1, 2, 4, 5],
            initial_knobs: KnobSettings::new(32, 3, 2.6),
            ..MonoAgentConfig::paper_hr()
        }
    }

    /// Replaces the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }

    /// Number of joint actions in the grid.
    pub fn joint_action_count(&self) -> usize {
        self.qp_values.len() * self.thread_values.len() * self.dvfs_values_ghz.len()
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for empty grids, a zero period, or invalid
    /// learning parameters.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.qp_values.is_empty() {
            return Err(CoreError::EmptyActionSet("qp"));
        }
        if self.thread_values.is_empty() {
            return Err(CoreError::EmptyActionSet("threads"));
        }
        if self.dvfs_values_ghz.is_empty() {
            return Err(CoreError::EmptyActionSet("dvfs"));
        }
        if self.period == 0 {
            return Err(CoreError::InvalidSchedule("period must be at least 1"));
        }
        if !(self.gamma.is_finite() && (0.0..1.0).contains(&self.gamma)) {
            return Err(CoreError::InvalidParam {
                name: "gamma",
                value: self.gamma,
            });
        }
        self.learning.validate()
    }
}

/// The mono-agent Q-learning baseline (paper §V-A, adapted from \[8\]).
///
/// One Q-table over the joint `(QP, threads, frequency)` grid. Exploration,
/// phase thresholds and NULL-slot averaging work exactly as in MAMUT so the
/// comparison isolates the *decomposition* — what the paper credits for the
/// 15× faster learning and the better QoS under load.
pub struct MonoAgentController {
    config: MonoAgentConfig,
    /// Joint actions as concrete knob vectors, row-major over
    /// (qp, threads, freq).
    grid: Vec<KnobSettings>,
    agent: Agent,
    knobs: KnobSettings,
    rng: StdRng,
    pending: Option<Pending>,
    exploration_decisions: u64,
    exploitation_decisions: u64,
}

#[derive(Debug, Clone)]
struct Pending {
    state: usize,
    action: usize,
    acc: ObservationAccumulator,
}

impl std::fmt::Debug for MonoAgentController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonoAgentController")
            .field("knobs", &self.knobs)
            .field("grid_len", &self.grid.len())
            .field("exploration_decisions", &self.exploration_decisions)
            .field("exploitation_decisions", &self.exploitation_decisions)
            .finish_non_exhaustive()
    }
}

impl MonoAgentController {
    /// Builds the controller.
    ///
    /// # Errors
    ///
    /// Returns any [`CoreError`] from [`MonoAgentConfig::validate`].
    pub fn new(config: MonoAgentConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let mut grid = Vec::with_capacity(config.joint_action_count());
        for &qp in &config.qp_values {
            for &threads in &config.thread_values {
                for &freq in &config.dvfs_values_ghz {
                    grid.push(KnobSettings::new(qp, threads, freq));
                }
            }
        }
        // No peers: drop the Eq. 3 peer term so exploitation is reachable.
        let learning = LearningRateParams {
            beta_prime: 0.0,
            ..config.learning
        };
        let agent = Agent::new(
            AgentKind::Joint,
            STATE_COUNT,
            grid.len(),
            learning,
            config.gamma,
        );
        Ok(MonoAgentController {
            knobs: config.initial_knobs,
            rng: StdRng::seed_from_u64(config.seed),
            grid,
            agent,
            pending: None,
            exploration_decisions: 0,
            exploitation_decisions: 0,
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &MonoAgentConfig {
        &self.config
    }

    /// The underlying agent (diagnostics).
    pub fn agent(&self) -> &Agent {
        &self.agent
    }

    /// Decisions taken while exploring.
    pub fn exploration_decisions(&self) -> u64 {
        self.exploration_decisions
    }

    /// Decisions taken while exploiting (either exploiting phase).
    pub fn exploitation_decisions(&self) -> u64 {
        self.exploitation_decisions
    }

    fn finalize_pending(&mut self, fallback: &Observation, c: &Constraints) -> usize {
        let Some(p) = self.pending.take() else {
            return State::from_observation(fallback, c).index();
        };
        let mean = p.acc.mean().unwrap_or(*fallback);
        let next_state = State::from_observation(&mean, c).index();
        let reward = total_reward(&mean, c, &self.config.reward_weights);
        self.agent.observe(p.state, p.action, reward, next_state, 0);
        next_state
    }
}

impl Controller for MonoAgentController {
    fn name(&self) -> &str {
        "mono-agent"
    }

    fn begin_frame(
        &mut self,
        frame: u64,
        obs: &Observation,
        constraints: &Constraints,
    ) -> Option<KnobSettings> {
        if !frame.is_multiple_of(self.config.period) {
            return None;
        }
        let state = self.finalize_pending(obs, constraints);
        let phase = self.agent.state_phase(state, 0);
        let action = match phase {
            Phase::Exploration => {
                self.exploration_decisions += 1;
                self.agent.explore(state, 0, &mut self.rng)
            }
            _ => {
                self.exploitation_decisions += 1;
                self.agent.greedy(state)
            }
        };
        self.knobs = self.grid[action];
        self.pending = Some(Pending {
            state,
            action,
            acc: ObservationAccumulator::new(),
        });
        Some(self.knobs)
    }

    fn end_frame(&mut self, _frame: u64, obs: &Observation, _constraints: &Constraints) {
        if let Some(p) = &mut self.pending {
            p.acc.push(obs);
        }
    }

    fn snapshot(&self) -> PolicySnapshot {
        let mut w = SnapshotWriter::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        match &self.pending {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_u32(p.state as u32);
                w.put_u32(p.action as u32);
                p.acc.write_to(&mut w);
            }
        }
        PolicySnapshot {
            controller: "mono-agent".to_owned(),
            knobs: self.knobs,
            exploration_decisions: self.exploration_decisions,
            exploitation_decisions: self.exploitation_decisions,
            agents: vec![self.agent.to_snapshot()],
            extra: w.into_bytes(),
        }
    }

    fn restore(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_controller("mono-agent")?;
        // Nothing is written before every check has passed: `extra`
        // decodes into locals, then the table restores all or nothing.
        let agent = std::slice::from_mut(&mut self.agent);
        if snapshot.extra.is_empty() {
            Agent::restore_all(agent, &snapshot.agents)?;
            // Knowledge-only restore: fresh execution state, zeroed
            // decision counters (they count this controller's own
            // decisions — see `MamutController::restore`).
            self.pending = None;
            self.exploration_decisions = 0;
            self.exploitation_decisions = 0;
        } else {
            let mut r = SnapshotReader::new(&snapshot.extra);
            let mut rng_state = [0u64; 4];
            for word in &mut rng_state {
                *word = r.get_u64()?;
            }
            let pending = if r.get_bool()? {
                let state = r.get_u32()? as usize;
                let action = r.get_u32()? as usize;
                if state >= STATE_COUNT || action >= self.grid.len() {
                    return Err(SnapshotError::Corrupt("pending decision out of range"));
                }
                Some(Pending {
                    state,
                    action,
                    acc: ObservationAccumulator::read_from(&mut r)?,
                })
            } else {
                None
            };
            r.expect_end()?;
            Agent::restore_all(agent, &snapshot.agents)?;
            self.pending = pending;
            self.rng = StdRng::from_state(rng_state);
            self.exploration_decisions = snapshot.exploration_decisions;
            self.exploitation_decisions = snapshot.exploitation_decisions;
        }
        self.knobs = snapshot.knobs;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fps: f64) -> Observation {
        Observation {
            fps,
            psnr_db: 34.0,
            bitrate_mbps: 4.0,
            power_w: 80.0,
        }
    }

    #[test]
    fn grid_has_64_joint_actions_as_in_the_paper() {
        assert_eq!(MonoAgentConfig::paper_hr().joint_action_count(), 64);
        assert_eq!(MonoAgentConfig::paper_lr().joint_action_count(), 64);
        let ctl = MonoAgentController::new(MonoAgentConfig::paper_hr()).unwrap();
        assert_eq!(ctl.agent().n_actions(), 64);
    }

    #[test]
    fn acts_every_six_frames() {
        let mut ctl = MonoAgentController::new(MonoAgentConfig::paper_hr()).unwrap();
        let c = Constraints::paper_defaults();
        let mut frames = Vec::new();
        for f in 0..24 {
            if ctl.begin_frame(f, &obs(24.0), &c).is_some() {
                frames.push(f);
            }
            ctl.end_frame(f, &obs(24.0), &c);
        }
        assert_eq!(frames, vec![0, 6, 12, 18]);
    }

    #[test]
    fn knobs_always_come_from_the_grid() {
        let cfg = MonoAgentConfig::paper_lr().with_seed(3);
        let grid_qp = cfg.qp_values.clone();
        let grid_th = cfg.thread_values.clone();
        let grid_f = cfg.dvfs_values_ghz.clone();
        let mut ctl = MonoAgentController::new(cfg).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..600 {
            if let Some(k) = ctl.begin_frame(f, &obs(24.0), &c) {
                assert!(grid_qp.contains(&k.qp));
                assert!(grid_th.contains(&k.threads));
                assert!(grid_f.iter().any(|&v| (v - k.freq_ghz).abs() < 1e-12));
            }
            ctl.end_frame(f, &obs(24.0), &c);
        }
    }

    #[test]
    fn learns_much_slower_than_needed_for_quick_convergence() {
        // With 64 actions per state, exploration of one state takes at
        // least 64 decisions — the structural reason for the paper's "15×
        // slower" observation. After 600 frames (100 decisions) the agent
        // must still be exploring a stationary state.
        let mut ctl = MonoAgentController::new(MonoAgentConfig::paper_hr().with_seed(1)).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..600 {
            ctl.begin_frame(f, &obs(24.5), &c);
            ctl.end_frame(f, &obs(24.5), &c);
        }
        assert!(ctl.exploration_decisions() > 90);
        assert_eq!(ctl.exploitation_decisions(), 0);
    }

    #[test]
    fn eventually_reaches_exploitation_on_stationary_input() {
        let mut ctl = MonoAgentController::new(MonoAgentConfig::paper_hr().with_seed(2)).unwrap();
        let c = Constraints::paper_defaults();
        // 64 actions × ~7 visits × 6 frames ≈ 2.7k frames minimum; give 6k.
        for f in 0..6_000 {
            ctl.begin_frame(f, &obs(24.5), &c);
            ctl.end_frame(f, &obs(24.5), &c);
        }
        assert!(
            ctl.exploitation_decisions() > 0,
            "still pure exploration after 6k frames"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let mk = || MonoAgentController::new(MonoAgentConfig::paper_hr().with_seed(9)).unwrap();
        let (mut a, mut b) = (mk(), mk());
        let c = Constraints::paper_defaults();
        for f in 0..300 {
            let o = obs(23.0 + (f % 4) as f64);
            assert_eq!(a.begin_frame(f, &o, &c), b.begin_frame(f, &o, &c));
            a.end_frame(f, &o, &c);
            b.end_frame(f, &o, &c);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = MonoAgentConfig::paper_hr();
        cfg.qp_values.clear();
        assert!(MonoAgentController::new(cfg).is_err());
        let mut cfg = MonoAgentConfig::paper_hr();
        cfg.period = 0;
        assert!(MonoAgentController::new(cfg).is_err());
        let mut cfg = MonoAgentConfig::paper_hr();
        cfg.gamma = 1.0;
        assert!(MonoAgentController::new(cfg).is_err());
    }

    #[test]
    fn name_is_stable() {
        let ctl = MonoAgentController::new(MonoAgentConfig::paper_hr()).unwrap();
        assert_eq!(ctl.name(), "mono-agent");
    }

    #[test]
    fn snapshot_restore_replays_identical_decisions() {
        let cfg = MonoAgentConfig::paper_hr().with_seed(5);
        let mut original = MonoAgentController::new(cfg.clone()).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..900u64 {
            original.begin_frame(f, &obs(22.0 + (f % 6) as f64), &c);
            original.end_frame(f, &obs(22.0 + (f % 6) as f64), &c);
        }
        let bytes = Controller::snapshot(&original).encode();
        let snap = PolicySnapshot::decode(&bytes).unwrap();
        let mut restored = MonoAgentController::new(cfg.with_seed(31)).unwrap();
        restored.restore(&snap).unwrap();
        for f in 900..2_400u64 {
            let o = obs(20.0 + (f % 8) as f64);
            assert_eq!(
                original.begin_frame(f, &o, &c),
                restored.begin_frame(f, &o, &c),
                "diverged at frame {f}"
            );
            original.end_frame(f, &o, &c);
            restored.end_frame(f, &o, &c);
        }
        assert_eq!(
            Controller::snapshot(&original).encode(),
            Controller::snapshot(&restored).encode()
        );
    }

    #[test]
    fn a_failed_restore_writes_nothing() {
        let trained = |seed, fps| {
            let cfg = MonoAgentConfig::paper_hr().with_seed(seed);
            let mut ctl = MonoAgentController::new(cfg).unwrap();
            let c = Constraints::paper_defaults();
            for f in 0..901u64 {
                ctl.begin_frame(f, &obs(fps), &c);
                ctl.end_frame(f, &obs(fps), &c);
            }
            ctl
        };
        let mut ctl = trained(5, 24.5);
        let before = Controller::snapshot(&ctl).encode();
        // Trained apart, so its table differs from `ctl`'s.
        let full = Controller::snapshot(&trained(6, 27.5));
        let mut bad_extra = full.clone();
        bad_extra.extra.pop();
        let mut bad_table = full;
        bad_table.agents[0].n_actions += 1;
        for bad in [bad_extra, bad_table.clone(), bad_table.into_knowledge()] {
            assert!(ctl.restore(&bad).is_err());
            assert_eq!(Controller::snapshot(&ctl).encode(), before);
        }
    }

    #[test]
    fn restore_rejects_foreign_snapshots() {
        let mut ctl = MonoAgentController::new(MonoAgentConfig::paper_hr()).unwrap();
        let mut snap = Controller::snapshot(&ctl);
        snap.controller = "mamut".into();
        assert!(ctl.restore(&snap).is_err());
    }
}
