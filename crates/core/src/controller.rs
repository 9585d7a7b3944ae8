use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::observation::ObservationAccumulator;
use crate::reward::total_reward;
use crate::snapshot::{PolicySnapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::{
    exploitation, Agent, AgentKind, Constraints, Controller, CoreError, KnobSettings, MamutConfig,
    Observation, Phase, Sequencer, State, STATE_COUNT,
};

/// A decision awaiting its outcome: agent `agent` took `action` in `state`
/// and observations are being accumulated until the next decision frame.
#[derive(Debug, Clone)]
struct Pending {
    agent: usize,
    state: usize,
    action: usize,
    acc: ObservationAccumulator,
}

/// Per-agent maturity snapshot (see [`MamutController::maturity`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentMaturity {
    /// States visited by this agent (any action taken there).
    pub visited_states: usize,
    /// Visited states currently in the exploitation phase.
    pub exploiting_states: usize,
    /// Total decisions this agent has made.
    pub decisions: u64,
}

/// Learning-progress snapshot across all agents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MaturityReport {
    /// One entry per agent, in `AgentKind::ALL` order.
    pub per_agent: Vec<AgentMaturity>,
}

impl MaturityReport {
    /// Fraction of visited states in exploitation, over all agents
    /// (1.0 when nothing has been visited yet — nothing left to learn).
    pub fn exploitation_fraction(&self) -> f64 {
        let visited: usize = self.per_agent.iter().map(|a| a.visited_states).sum();
        let exploiting: usize = self.per_agent.iter().map(|a| a.exploiting_states).sum();
        if visited == 0 {
            1.0
        } else {
            exploiting as f64 / visited as f64
        }
    }
}

/// The MAMUT run-time manager: three cooperating Q-learning agents driving
/// one transcoding session (paper §III–§IV).
///
/// See the [crate documentation](crate) for the control-flow overview and
/// [`MamutConfig`] for knobs. One controller instance manages one video
/// stream; in multi-user deployments each stream gets its own controller
/// (the paper: "other videos … with their corresponding contents and
/// agents"), coupled only through the shared power observation.
pub struct MamutController {
    config: MamutConfig,
    sequencer: Sequencer,
    agents: Vec<Agent>,
    knobs: KnobSettings,
    rng: StdRng,
    pending: Option<Pending>,
    /// Ring of recent decision phases, for convergence diagnostics.
    recent_phases: VecDeque<Phase>,
    decisions_per_agent: Vec<u64>,
    exploration_decisions: u64,
    exploitation_decisions: u64,
}

impl std::fmt::Debug for MamutController {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MamutController")
            .field("knobs", &self.knobs)
            .field("decisions_per_agent", &self.decisions_per_agent)
            .field("exploration_decisions", &self.exploration_decisions)
            .field("exploitation_decisions", &self.exploitation_decisions)
            .finish_non_exhaustive()
    }
}

/// Capacity of the recent-phase diagnostic ring.
const RECENT_PHASE_WINDOW: usize = 64;

impl MamutController {
    /// Builds a controller from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns any [`CoreError`] surfaced by [`MamutConfig::validate`].
    pub fn new(config: MamutConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let sequencer = config.sequencer()?;
        let agents = AgentKind::ALL
            .iter()
            .map(|&kind| {
                Agent::new(
                    kind,
                    STATE_COUNT,
                    config.actions.len(kind),
                    config.learning,
                    config.gamma,
                )
            })
            .collect();
        Ok(MamutController {
            knobs: config.initial_knobs,
            rng: StdRng::seed_from_u64(config.seed),
            sequencer,
            agents,
            pending: None,
            recent_phases: VecDeque::with_capacity(RECENT_PHASE_WINDOW),
            decisions_per_agent: vec![0; AgentKind::ALL.len()],
            exploration_decisions: 0,
            exploitation_decisions: 0,
            config,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &MamutConfig {
        &self.config
    }

    /// Current knob settings.
    pub fn knobs(&self) -> KnobSettings {
        self.knobs
    }

    /// Read access to an agent (diagnostics, tests, benches).
    pub fn agent(&self, kind: AgentKind) -> &Agent {
        &self.agents[kind.index()]
    }

    /// `Σ_{j≠i} min_{a∈A_j} Num(a)` — the Eq. 3 peer term for agent `i`.
    ///
    /// With the `beta_prime = 0` ablation this value is still computed but
    /// has no effect on α. The sum saturates: knowledge-store merges
    /// accumulate action counts with saturating arithmetic, so agents
    /// warm-started from heavily synced fleet knowledge can legitimately
    /// sit at counts near `u32::MAX`, and a wrapping sum would *invert*
    /// the Eq. 3 schedule (enormous peer progress reads as almost none).
    fn peer_min_sum(&self, agent: usize) -> u32 {
        self.agents
            .iter()
            .enumerate()
            .filter(|(j, _)| *j != agent)
            .map(|(_, a)| a.min_action_count())
            .fold(0, u32::saturating_add)
    }

    /// Finalizes the pending update, if any, and returns the state the
    /// system is now in (bucketed from the averaged observation).
    fn finalize_pending(&mut self, fallback_obs: &Observation, c: &Constraints) -> usize {
        let Some(p) = self.pending.take() else {
            return State::from_observation(fallback_obs, c).index();
        };
        let mean = if self.config.null_averaging {
            p.acc.mean().unwrap_or(*fallback_obs)
        } else {
            // Ablation: bootstrap from the raw latest observation instead
            // of the NULL-slot average.
            *fallback_obs
        };
        let next_state = State::from_observation(&mean, c).index();
        let reward = total_reward(&mean, c, &self.config.reward_weights);
        let peer_min = self.peer_min_sum(p.agent);
        self.agents[p.agent].observe(p.state, p.action, reward, next_state, peer_min);
        next_state
    }

    /// Picks an action for `actor` at `state` (frame context given by
    /// `frame` for the look-ahead chain) and records diagnostics.
    fn decide(&mut self, actor: usize, state: usize, frame: u64) -> usize {
        let peer_min = self.peer_min_sum(actor);
        let phase = self.agents[actor].state_phase(state, peer_min);
        match phase {
            Phase::Exploration => {
                self.exploration_decisions += 1;
                self.push_phase(Phase::Exploration);
                self.agents[actor].explore(state, peer_min, &mut self.rng)
            }
            Phase::ExplorationExploitation => {
                self.exploitation_decisions += 1;
                self.push_phase(Phase::ExplorationExploitation);
                // §IV-A: no random actions, but keep updating. Greedy on the
                // agent's own table (the chain may not be trustworthy yet).
                self.agents[actor].greedy(state)
            }
            Phase::Exploitation => {
                self.exploitation_decisions += 1;
                self.push_phase(Phase::Exploitation);
                let chain = self.sequencer.chain_after(frame);
                // §IV-C: cooperative look-ahead only when the downstream
                // agents have also left exploration for this state.
                let chain_ready = chain.iter().all(|&j| {
                    let pm = self.peer_min_sum(j);
                    self.agents[j].state_phase(state, pm) > Phase::Exploration
                });
                if self.config.cooperative_lookahead && chain_ready {
                    exploitation::choose_action(&self.agents, actor, &chain, state)
                } else {
                    self.agents[actor].greedy(state)
                }
            }
        }
    }

    fn push_phase(&mut self, phase: Phase) {
        if self.recent_phases.len() == RECENT_PHASE_WINDOW {
            self.recent_phases.pop_front();
        }
        self.recent_phases.push_back(phase);
    }

    /// Learning-progress snapshot.
    pub fn maturity(&self) -> MaturityReport {
        let per_agent = self
            .agents
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let (exploiting, visited) =
                    a.states_at_phase(Phase::Exploitation, self.peer_min_sum(i));
                AgentMaturity {
                    visited_states: visited,
                    exploiting_states: exploiting,
                    decisions: self.decisions_per_agent[i],
                }
            })
            .collect();
        MaturityReport { per_agent }
    }

    /// Fraction of the most recent decisions (up to 64) made outside the
    /// exploration phase — a cheap convergence signal for experiments.
    pub fn recent_exploitation_fraction(&self) -> f64 {
        if self.recent_phases.is_empty() {
            return 0.0;
        }
        let non_exploring = self
            .recent_phases
            .iter()
            .filter(|p| **p != Phase::Exploration)
            .count();
        non_exploring as f64 / self.recent_phases.len() as f64
    }

    /// Total decisions taken while in the exploration phase.
    pub fn exploration_decisions(&self) -> u64 {
        self.exploration_decisions
    }

    /// Total decisions taken in the two exploiting phases.
    pub fn exploitation_decisions(&self) -> u64 {
        self.exploitation_decisions
    }

    /// Encodes the controller-private execution state (RNG, per-agent
    /// decision counts, phase ring, pending update window) for the
    /// snapshot's `extra` section.
    fn encode_private(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        for word in self.rng.state() {
            w.put_u64(word);
        }
        w.put_u32(self.decisions_per_agent.len() as u32);
        for &d in &self.decisions_per_agent {
            w.put_u64(d);
        }
        w.put_u32(self.recent_phases.len() as u32);
        for &p in &self.recent_phases {
            w.put_u8(phase_code(p));
        }
        match &self.pending {
            None => w.put_bool(false),
            Some(p) => {
                w.put_bool(true);
                w.put_u32(p.agent as u32);
                w.put_u32(p.state as u32);
                w.put_u32(p.action as u32);
                p.acc.write_to(&mut w);
            }
        }
        w.into_bytes()
    }

    /// Restores a full snapshot: decodes what
    /// [`MamutController::encode_private`] wrote into locals, copies the
    /// tables, and only then writes the execution state, so a failed
    /// restore leaves the controller untouched.
    fn restore_full(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(&snapshot.extra);
        let mut rng_state = [0u64; 4];
        for word in &mut rng_state {
            *word = r.get_u64()?;
        }
        let n_agents = r.get_u32()? as usize;
        if n_agents != self.decisions_per_agent.len() {
            return Err(SnapshotError::ShapeMismatch("decision counter length"));
        }
        let mut decisions = Vec::with_capacity(n_agents);
        for _ in 0..n_agents {
            decisions.push(r.get_u64()?);
        }
        let n_phases = r.get_u32()? as usize;
        if n_phases > RECENT_PHASE_WINDOW {
            return Err(SnapshotError::Corrupt("phase ring too long"));
        }
        let mut phases = VecDeque::with_capacity(RECENT_PHASE_WINDOW);
        for _ in 0..n_phases {
            phases.push_back(phase_from_code(r.get_u8()?)?);
        }
        let pending = if r.get_bool()? {
            let agent = r.get_u32()? as usize;
            let state = r.get_u32()? as usize;
            let action = r.get_u32()? as usize;
            if agent >= self.agents.len() || state >= STATE_COUNT {
                return Err(SnapshotError::Corrupt("pending decision out of range"));
            }
            if action >= self.agents[agent].n_actions() {
                return Err(SnapshotError::Corrupt("pending action out of range"));
            }
            Some(Pending {
                agent,
                state,
                action,
                acc: ObservationAccumulator::read_from(&mut r)?,
            })
        } else {
            None
        };
        r.expect_end()?;
        Agent::restore_all(&mut self.agents, &snapshot.agents)?;
        self.rng = StdRng::from_state(rng_state);
        self.decisions_per_agent = decisions;
        self.recent_phases = phases;
        self.pending = pending;
        self.exploration_decisions = snapshot.exploration_decisions;
        self.exploitation_decisions = snapshot.exploitation_decisions;
        Ok(())
    }
}

fn phase_code(phase: Phase) -> u8 {
    match phase {
        Phase::Exploration => 0,
        Phase::ExplorationExploitation => 1,
        Phase::Exploitation => 2,
    }
}

fn phase_from_code(code: u8) -> Result<Phase, SnapshotError> {
    match code {
        0 => Ok(Phase::Exploration),
        1 => Ok(Phase::ExplorationExploitation),
        2 => Ok(Phase::Exploitation),
        _ => Err(SnapshotError::Corrupt("unknown phase code")),
    }
}

impl Controller for MamutController {
    fn name(&self) -> &str {
        "mamut"
    }

    fn begin_frame(
        &mut self,
        frame: u64,
        obs: &Observation,
        constraints: &Constraints,
    ) -> Option<KnobSettings> {
        let actor = self.sequencer.agent_at(frame)?;
        // Close the previous decision's observation window; its averaged
        // next-state doubles as the current state for the new decision.
        let state = self.finalize_pending(obs, constraints);
        let action = self.decide(actor, state, frame);
        self.decisions_per_agent[actor] += 1;
        let kind = AgentKind::ALL[actor];
        self.config.actions.apply(kind, action, &mut self.knobs);
        self.pending = Some(Pending {
            agent: actor,
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
        PolicySnapshot {
            controller: "mamut".to_owned(),
            knobs: self.knobs,
            exploration_decisions: self.exploration_decisions,
            exploitation_decisions: self.exploitation_decisions,
            agents: self.agents.iter().map(Agent::to_snapshot).collect(),
            extra: self.encode_private(),
        }
    }

    fn restore(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_controller("mamut")?;
        if snapshot.extra.is_empty() {
            Agent::restore_all(&mut self.agents, &snapshot.agents)?;
            // Knowledge-only snapshot (e.g. from a fleet store): adopt
            // the learned tables and operating point, keep this
            // controller's own RNG stream, and zero the decision
            // counters — they describe decisions *this* controller
            // makes, which is exactly what warm-start experiments
            // measure against a cold start.
            self.pending = None;
            self.recent_phases.clear();
            self.decisions_per_agent.fill(0);
            self.exploration_decisions = 0;
            self.exploitation_decisions = 0;
        } else {
            self.restore_full(snapshot)?;
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

    fn run_frames(ctl: &mut MamutController, frames: std::ops::Range<u64>, fps: f64) {
        let c = Constraints::paper_defaults();
        for f in frames {
            ctl.begin_frame(f, &obs(fps), &c);
            ctl.end_frame(f, &obs(fps), &c);
        }
    }

    #[test]
    fn construction_validates_config() {
        assert!(MamutController::new(MamutConfig::paper_hr()).is_ok());
        let bad = MamutConfig::paper_hr().with_learning(crate::LearningRateParams {
            beta: -1.0,
            ..crate::LearningRateParams::paper_defaults()
        });
        assert!(MamutController::new(bad).is_err());
    }

    #[test]
    fn decisions_follow_the_paper_schedule() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr()).unwrap();
        let c = Constraints::paper_defaults();
        let mut decision_frames = Vec::new();
        for f in 0..24 {
            if ctl.begin_frame(f, &obs(24.0), &c).is_some() {
                decision_frames.push(f);
            }
            ctl.end_frame(f, &obs(24.0), &c);
        }
        assert_eq!(decision_frames, vec![0, 1, 2, 8, 13, 14, 20]);
    }

    #[test]
    fn each_decision_changes_at_most_its_own_knob() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(3)).unwrap();
        let c = Constraints::paper_defaults();
        let before = ctl.knobs();
        // Frame 0 is a QP decision: threads/freq must be untouched.
        let after = ctl.begin_frame(0, &obs(24.0), &c).unwrap();
        assert_eq!(after.threads, before.threads);
        assert_eq!(after.freq_ghz, before.freq_ghz);
        ctl.end_frame(0, &obs(24.0), &c);
        // Frame 1 is a thread decision: qp/freq must be untouched.
        let after1 = ctl.begin_frame(1, &obs(24.0), &c).unwrap();
        assert_eq!(after1.qp, after.qp);
        assert_eq!(after1.freq_ghz, after.freq_ghz);
    }

    #[test]
    fn exploration_tries_every_action_eventually() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(1)).unwrap();
        // Stationary observations → a single state: the DVFS agent must try
        // all 6 frequencies during exploration.
        run_frames(&mut ctl, 0..2_000, 24.5);
        let dvfs = ctl.agent(AgentKind::Dvfs);
        for a in 0..dvfs.n_actions() {
            assert!(dvfs.action_count(a) > 0, "dvfs action {a} never tried");
        }
        let qp = ctl.agent(AgentKind::Qp);
        for a in 0..qp.n_actions() {
            assert!(qp.action_count(a) > 0, "qp action {a} never tried");
        }
    }

    #[test]
    fn stationary_environment_reaches_exploitation() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(2)).unwrap();
        run_frames(&mut ctl, 0..40_000, 24.5);
        let m = ctl.maturity();
        assert!(
            m.exploitation_fraction() > 0.5,
            "exploitation fraction = {} after 40k frames",
            m.exploitation_fraction()
        );
        assert!(ctl.recent_exploitation_fraction() > 0.9);
    }

    #[test]
    fn determinism_same_seed_same_decisions() {
        let mk = || MamutController::new(MamutConfig::paper_hr().with_seed(11)).unwrap();
        let mut a = mk();
        let mut b = mk();
        let c = Constraints::paper_defaults();
        for f in 0..500 {
            let o = obs(23.0 + (f % 5) as f64);
            assert_eq!(a.begin_frame(f, &o, &c), b.begin_frame(f, &o, &c));
            a.end_frame(f, &o, &c);
            b.end_frame(f, &o, &c);
        }
    }

    #[test]
    fn different_seeds_explore_differently() {
        let c = Constraints::paper_defaults();
        let mut actions_a = Vec::new();
        let mut actions_b = Vec::new();
        for (seed, log) in [(1u64, &mut actions_a), (2u64, &mut actions_b)] {
            let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(seed)).unwrap();
            for f in 0..200 {
                if let Some(k) = ctl.begin_frame(f, &obs(24.0), &c) {
                    log.push(k);
                }
                ctl.end_frame(f, &obs(24.0), &c);
            }
        }
        assert_ne!(actions_a, actions_b);
    }

    #[test]
    fn null_frames_accumulate_into_the_update() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr()).unwrap();
        let c = Constraints::paper_defaults();
        // DVFS decision at frame 2, then NULL frames 3..7 with varying fps.
        for f in 0..=2 {
            ctl.begin_frame(f, &obs(24.0), &c);
            ctl.end_frame(f, &obs(24.0), &c);
        }
        for f in 3..8 {
            ctl.begin_frame(f, &obs(24.0), &c);
            ctl.end_frame(f, &obs(20.0 + f as f64), &c);
        }
        let p = ctl.pending.as_ref().expect("pending dvfs update");
        assert_eq!(p.agent, AgentKind::Dvfs.index());
        // Frames 2..=7 were accumulated (decision frame + 5 NULL frames).
        assert_eq!(p.acc.count(), 6);
    }

    #[test]
    fn maturity_report_counts_visited_states() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(5)).unwrap();
        run_frames(&mut ctl, 0..600, 24.5);
        let m = ctl.maturity();
        assert_eq!(m.per_agent.len(), 3);
        assert!(m.per_agent.iter().any(|a| a.visited_states > 0));
        let total: u64 = m.per_agent.iter().map(|a| a.decisions).sum();
        assert!(total > 0);
    }

    #[test]
    fn knobs_always_come_from_the_action_space() {
        let cfg = MamutConfig::paper_lr().with_seed(7);
        let space = cfg.actions.clone();
        let mut ctl = MamutController::new(cfg).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..1_000 {
            if let Some(k) = ctl.begin_frame(f, &obs(24.0), &c) {
                assert!(space.qp_values().contains(&k.qp));
                assert!(space.thread_values().contains(&k.threads));
                assert!(space
                    .dvfs_values_ghz()
                    .iter()
                    .any(|&v| (v - k.freq_ghz).abs() < 1e-12));
            }
            ctl.end_frame(f, &obs(24.0), &c);
        }
    }

    #[test]
    fn ablation_flags_are_respected_in_construction() {
        let cfg = MamutConfig::paper_hr()
            .with_null_averaging(false)
            .with_cooperative_lookahead(false);
        let ctl = MamutController::new(cfg).unwrap();
        assert!(!ctl.config().null_averaging);
        assert!(!ctl.config().cooperative_lookahead);
    }

    #[test]
    fn exploitation_fraction_of_fresh_controller_is_one() {
        let ctl = MamutController::new(MamutConfig::paper_hr()).unwrap();
        assert_eq!(ctl.maturity().exploitation_fraction(), 1.0);
        assert_eq!(ctl.recent_exploitation_fraction(), 0.0);
    }

    #[test]
    fn snapshot_restore_replays_identical_decisions() {
        let cfg = MamutConfig::paper_hr().with_seed(21);
        let mut original = MamutController::new(cfg.clone()).unwrap();
        run_frames(&mut original, 0..1_000, 24.5);
        // Capture mid-run (a pending update window is live), ship the
        // bytes, restore into a differently seeded fresh controller.
        let bytes = Controller::snapshot(&original).encode();
        let snap = crate::snapshot::PolicySnapshot::decode(&bytes).unwrap();
        let mut restored = MamutController::new(cfg.with_seed(99)).unwrap();
        restored.restore(&snap).unwrap();
        let c = Constraints::paper_defaults();
        for f in 1_000..3_000u64 {
            let o = obs(20.0 + (f % 9) as f64);
            assert_eq!(
                original.begin_frame(f, &o, &c),
                restored.begin_frame(f, &o, &c),
                "decisions diverged at frame {f}"
            );
            original.end_frame(f, &o, &c);
            restored.end_frame(f, &o, &c);
        }
        assert_eq!(
            Controller::snapshot(&original).encode(),
            Controller::snapshot(&restored).encode(),
            "states diverged after identical replay"
        );
    }

    #[test]
    fn knowledge_only_restore_warm_starts_tables() {
        let mut trained = MamutController::new(MamutConfig::paper_hr().with_seed(2)).unwrap();
        run_frames(&mut trained, 0..40_000, 24.5);
        let knowledge = Controller::snapshot(&trained).into_knowledge();
        let mut fresh = MamutController::new(MamutConfig::paper_hr().with_seed(77)).unwrap();
        fresh.restore(&knowledge).unwrap();
        // Knowledge-only restores zero the decision counters: they count
        // this controller's own decisions from its warm birth onward.
        assert_eq!(fresh.exploration_decisions(), 0);
        assert_eq!(fresh.exploitation_decisions(), 0);
        // The tables are mature: the warm-started controller must make
        // almost all of its new decisions outside exploration.
        run_frames(&mut fresh, 0..2_000, 24.5);
        let explored = fresh.exploration_decisions();
        let total = explored + fresh.exploitation_decisions();
        assert!(
            (explored as f64) < 0.2 * total as f64,
            "warm start still explored {explored} of {total} decisions"
        );
    }

    #[test]
    fn restore_rejects_foreign_and_misshapen_snapshots() {
        let mut ctl = MamutController::new(MamutConfig::paper_hr()).unwrap();
        let mut wrong = Controller::snapshot(&ctl);
        wrong.controller = "heuristic".into();
        assert!(matches!(
            ctl.restore(&wrong),
            Err(crate::snapshot::SnapshotError::WrongController { .. })
        ));
        // LR tables (5 thread actions) must not restore into an HR
        // controller (12 thread actions).
        let lr = MamutController::new(MamutConfig::paper_lr()).unwrap();
        assert!(matches!(
            ctl.restore(&Controller::snapshot(&lr)),
            Err(crate::snapshot::SnapshotError::ShapeMismatch(_))
        ));
        // A failed restore must leave the controller fully usable.
        let c = Constraints::paper_defaults();
        assert!(ctl.begin_frame(0, &obs(24.0), &c).is_some());
    }

    /// A controller trained at `seed` and `fps`, mid-run (a pending
    /// update window is live).
    fn trained(seed: u64, fps: f64) -> MamutController {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(seed)).unwrap();
        run_frames(&mut ctl, 0..3_001, fps);
        ctl
    }

    #[test]
    fn a_bad_last_table_fails_the_restore_before_any_agent_is_written() {
        let mut ctl = trained(4, 24.5);
        let before = Controller::snapshot(&ctl).encode();
        // Trained apart, so its first two tables differ from `ctl`'s.
        let mut full = Controller::snapshot(&trained(8, 27.5));
        full.agents[2].n_actions += 1;
        for snap in [full.clone(), full.into_knowledge()] {
            assert_eq!(
                ctl.restore(&snap),
                Err(SnapshotError::ShapeMismatch("action count differs"))
            );
            assert_eq!(Controller::snapshot(&ctl).encode(), before);
        }
    }

    #[test]
    fn a_truncated_extra_fails_the_restore_before_the_tables_are_written() {
        let mut ctl = trained(4, 24.5);
        let before = Controller::snapshot(&ctl).encode();
        let mut snap = Controller::snapshot(&trained(8, 27.5));
        snap.extra.pop();
        assert_eq!(ctl.restore(&snap), Err(SnapshotError::Truncated));
        assert_eq!(Controller::snapshot(&ctl).encode(), before);
    }
}
