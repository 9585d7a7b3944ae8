use rand::Rng;

use crate::snapshot::{AgentSnapshot, SnapshotError};
use crate::{AgentKind, LearningRateParams, Phase, QTable, TransitionModel};

/// One Q-learning agent: a Q-table, a transition model, visit counters and
/// the Eq. 3 learning-rate schedule.
///
/// An agent holds its knowledge and the two rules every tabular
/// controller applies to it the same way: the §IV-A exploration pick
/// ([`Agent::explore`]) and an all-or-nothing table restore
/// ([`Agent::restore_all`]). *When* an agent acts and *how* the agents'
/// choices combine is the controller's job (schedule + Algorithm 1). This
/// keeps the same type reusable for MAMUT's three specialist agents and
/// for the mono-agent baseline's single joint-action agent.
///
/// # Example
///
/// ```
/// use mamut_core::{Agent, AgentKind, LearningRateParams};
///
/// let mut ag = Agent::new(AgentKind::Dvfs, 10, 6, LearningRateParams::paper_defaults(), 0.6);
/// // Take action 2 in state 0, earn reward 1.0, land in state 3:
/// ag.observe(0, 2, 1.0, 3, 0);
/// assert_eq!(ag.visits(0, 2), 1);
/// assert!(ag.q_table().get(0, 2) > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Agent {
    kind: AgentKind,
    q: QTable,
    transitions: TransitionModel,
    action_counts: Vec<u32>,
    lr: LearningRateParams,
    gamma: f64,
}

impl Agent {
    /// Creates an agent over `n_states × n_actions` with discount `gamma`.
    ///
    /// # Panics
    ///
    /// Panics if `n_states` or `n_actions` is zero (propagated from
    /// [`QTable::new`]).
    pub fn new(
        kind: AgentKind,
        n_states: usize,
        n_actions: usize,
        lr: LearningRateParams,
        gamma: f64,
    ) -> Self {
        Agent {
            kind,
            q: QTable::new(n_states, n_actions),
            transitions: TransitionModel::new(n_states, n_actions),
            action_counts: vec![0; n_actions],
            lr,
            gamma,
        }
    }

    /// Which knob this agent owns.
    pub fn kind(&self) -> AgentKind {
        self.kind
    }

    /// Number of actions available to this agent.
    pub fn n_actions(&self) -> usize {
        self.q.n_actions()
    }

    /// Read access to the Q-table (Algorithm 1 peers read each other).
    pub fn q_table(&self) -> &QTable {
        &self.q
    }

    /// Read access to the transition model.
    pub fn transitions(&self) -> &TransitionModel {
        &self.transitions
    }

    /// `Num(s, a)` — visits of a state-action pair.
    pub fn visits(&self, state: usize, action: usize) -> u32 {
        self.transitions.count(state, action)
    }

    /// Global `Num(a)` — times this agent has taken `action` anywhere.
    pub fn action_count(&self, action: usize) -> u32 {
        self.action_counts[action]
    }

    /// `min_{a ∈ A_i} Num(a)` — the term peers read in Eq. 3.
    pub fn min_action_count(&self) -> u32 {
        self.action_counts.iter().copied().min().unwrap_or(0)
    }

    /// Eq. 3 learning rate of a pair given the peers' exploration progress.
    pub fn alpha(&self, state: usize, action: usize, peer_min_sum: u32) -> f64 {
        self.lr.alpha(self.visits(state, action), peer_min_sum)
    }

    /// Phase of `state` (§IV-A, §IV-C):
    ///
    /// * **Exploration** while *any* action's α is at or above α_th1 — the
    ///   paper starts exploration-exploitation "when the learning rate for
    ///   each state-action pair drops below αth1";
    /// * **Exploitation** once, additionally, the α of the *greedy* action
    ///   drops below α_th2. The gate is on the greedy pair because in the
    ///   exploration-exploitation phase only greedy actions are taken, so
    ///   only their learning rates keep falling; requiring every pair to
    ///   pass α_th2 would make exploitation unreachable;
    /// * **ExplorationExploitation** in between.
    pub fn state_phase(&self, state: usize, peer_min_sum: u32) -> Phase {
        for a in 0..self.n_actions() {
            let phase = self.lr.phase_of_alpha(self.alpha(state, a, peer_min_sum));
            if phase == Phase::Exploration {
                return Phase::Exploration;
            }
        }
        let greedy_alpha = self.alpha(state, self.greedy(state), peer_min_sum);
        if self.lr.phase_of_alpha(greedy_alpha) == Phase::Exploitation {
            Phase::Exploitation
        } else {
            Phase::ExplorationExploitation
        }
    }

    /// The §IV-A exploration pick in `state`: one uniform draw among the
    /// untried actions while any remain, else among the actions whose α
    /// is still at or above α_th1, else the greedy action (no draw). Each
    /// pool is taken in index order.
    pub fn explore(&self, state: usize, peer_min_sum: u32, rng: &mut impl Rng) -> usize {
        let exploring = |a| {
            let alpha = self.alpha(state, a, peer_min_sum);
            self.lr.phase_of_alpha(alpha) == Phase::Exploration
        };
        self.draw(rng, |a| self.visits(state, a) == 0)
            .or_else(|| self.draw(rng, exploring))
            .unwrap_or_else(|| self.greedy(state))
    }

    /// One uniform draw among the actions `in_pool` accepts, if any.
    fn draw(&self, rng: &mut impl Rng, in_pool: impl Fn(usize) -> bool) -> Option<usize> {
        let mut pool = (0..self.n_actions()).filter(|&a| in_pool(a));
        match pool.clone().count() {
            0 => None,
            n => pool.nth(rng.gen_range(0..n)),
        }
    }

    /// Greedy action in `state` from this agent's own Q-table.
    pub fn greedy(&self, state: usize) -> usize {
        self.q.argmax(state)
    }

    /// Records one completed interaction and updates the Q-table with the
    /// Eq. 3 learning rate:
    /// `Q(s,a) ← Q(s,a) + α·(r + γ·max_a' Q(s',a') − Q(s,a))`.
    pub fn observe(
        &mut self,
        state: usize,
        action: usize,
        reward: f64,
        next_state: usize,
        peer_min_sum: u32,
    ) {
        self.transitions.record(state, action, next_state);
        self.action_counts[action] = self.action_counts[action].saturating_add(1);
        let alpha = self.alpha(state, action, peer_min_sum).min(1.0); // first visits can push Eq. 3 above 1; clamp for stability
        let bootstrap = self.q.max_q(next_state);
        let target = reward + self.gamma * bootstrap;
        self.q.update(state, action, target, alpha);
    }

    /// Discount factor γ.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// Learning-rate parameters.
    pub fn learning_params(&self) -> &LearningRateParams {
        &self.lr
    }

    /// Captures the agent's learned state in portable form.
    pub fn to_snapshot(&self) -> AgentSnapshot {
        AgentSnapshot {
            kind: self.kind,
            n_states: self.q.n_states() as u32,
            n_actions: self.q.n_actions() as u32,
            q: self.q.values().to_vec(),
            action_counts: self.action_counts.clone(),
            transitions: self.transitions.records().to_vec(),
        }
    }

    /// Overwrites each agent's learned state from the snapshot at the
    /// same position, all or nothing: every snapshot is checked against
    /// its agent before any agent is written. The tables are copied in
    /// place, transition records included, so a restore allocates only
    /// what a record list must grow by. Learning parameters (β, γ,
    /// thresholds) are *not* in a snapshot — they stay whatever each agent
    /// was built with.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ShapeMismatch`] if the counts differ, or a
    /// snapshot's kind, state count, action count or table lengths differ
    /// from its agent's, or one of its transition records lies outside
    /// them. No agent is then changed.
    pub fn restore_all(agents: &mut [Agent], snaps: &[AgentSnapshot]) -> Result<(), SnapshotError> {
        if agents.len() != snaps.len() {
            return Err(SnapshotError::ShapeMismatch("agent count differs"));
        }
        for (agent, snap) in agents.iter().zip(snaps) {
            agent.check(snap)?;
        }
        for (agent, snap) in agents.iter_mut().zip(snaps) {
            agent.transitions.load(&snap.transitions);
            agent.q.load_values(&snap.q);
            agent.action_counts.copy_from_slice(&snap.action_counts);
        }
        Ok(())
    }

    /// Checks that `snap` fits this agent, as [`Agent::restore_all`]
    /// requires.
    fn check(&self, snap: &AgentSnapshot) -> Result<(), SnapshotError> {
        if snap.kind != self.kind {
            return Err(SnapshotError::ShapeMismatch("agent kind differs"));
        }
        if snap.n_states as usize != self.q.n_states() {
            return Err(SnapshotError::ShapeMismatch("state count differs"));
        }
        if snap.n_actions as usize != self.q.n_actions() {
            return Err(SnapshotError::ShapeMismatch("action count differs"));
        }
        if snap.q.len() != self.q.values().len()
            || snap.action_counts.len() != self.action_counts.len()
        {
            return Err(SnapshotError::ShapeMismatch("table length differs"));
        }
        self.transitions.check(&snap.transitions)
    }

    /// Number of states whose phase is at least `phase` among those visited
    /// (a state counts as visited when any of its actions has been taken).
    pub fn states_at_phase(&self, phase: Phase, peer_min_sum: u32) -> (usize, usize) {
        let mut visited = 0;
        let mut at_phase = 0;
        for s in 0..self.q.n_states() {
            let any_visit = (0..self.n_actions()).any(|a| self.visits(s, a) > 0);
            if !any_visit {
                continue;
            }
            visited += 1;
            if self.state_phase(s, peer_min_sum) >= phase {
                at_phase += 1;
            }
        }
        (at_phase, visited)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn agent(n_actions: usize) -> Agent {
        Agent::new(
            AgentKind::Qp,
            6,
            n_actions,
            LearningRateParams::paper_defaults(),
            0.6,
        )
    }

    /// Asserts that `explore` in state 0 draws uniformly from `pool` in
    /// index order: on every RNG stream it picks the action at the index
    /// that stream's one `gen_range` draw names.
    fn assert_explores(ag: &Agent, pool: &[usize]) {
        for seed in 0..64 {
            let k = StdRng::seed_from_u64(seed).gen_range(0..pool.len());
            let picked = ag.explore(0, 1000, &mut StdRng::seed_from_u64(seed));
            assert_eq!(picked, pool[k], "seed {seed}");
        }
    }

    #[test]
    fn fresh_agent_is_fully_exploring() {
        let ag = agent(3);
        assert_eq!(ag.state_phase(0, 1000), Phase::Exploration);
        assert_explores(&ag, &[0, 1, 2]);
        assert_eq!(ag.min_action_count(), 0);
    }

    #[test]
    fn observe_updates_q_toward_reward() {
        let mut ag = agent(2);
        ag.observe(0, 1, 2.0, 0, 10);
        let q = ag.q_table().get(0, 1);
        assert!(q > 0.0 && q <= 2.0, "q = {q}");
        assert_eq!(ag.visits(0, 1), 1);
        assert_eq!(ag.action_count(1), 1);
    }

    #[test]
    fn bootstrap_uses_next_state_value() {
        let mut ag = agent(2);
        // Seed next-state value through repeated rewards in state 1.
        for _ in 0..50 {
            ag.observe(1, 0, 1.0, 1, 1000);
        }
        let v_next = ag.q_table().max_q(1);
        assert!(v_next > 1.0, "converges toward r/(1-γ): {v_next}");
        // One observation from state 0 into state 1 must exceed the raw
        // reward thanks to the bootstrap term.
        ag.observe(0, 0, 0.0, 1, 1000);
        assert!(ag.q_table().get(0, 0) > 0.0);
    }

    #[test]
    fn q_approaches_fixed_point_under_constant_reward() {
        // Fixed point of Q = r + γQ is 1/(1−0.6) = 2.5. With the Eq. 3
        // harmonic step (α ≈ β/n) convergence is slow but monotone: the
        // estimate must move well past the raw reward and never overshoot.
        let mut ag = agent(1);
        let mut prev = 0.0;
        for _ in 0..5_000 {
            ag.observe(0, 0, 1.0, 0, 100_000);
            let q = ag.q_table().get(0, 0);
            assert!(q >= prev - 1e-12, "estimate must be non-decreasing");
            prev = q;
        }
        let q = ag.q_table().get(0, 0);
        assert!(q > 1.2, "q = {q} should be well above the raw reward");
        assert!(
            q <= 2.5 + 1e-9,
            "q = {q} must not overshoot the fixed point"
        );
    }

    #[test]
    fn phase_progression_with_visits_and_peers() {
        let mut ag = agent(2);
        // Visit both actions 4 times with peers fully explored:
        // α = 0.3/4 + 0.2/1001 ≈ 0.075 → ExplorationExploitation.
        for _ in 0..4 {
            ag.observe(0, 0, 0.0, 0, 1000);
            ag.observe(0, 1, 0.0, 0, 1000);
        }
        assert_eq!(ag.state_phase(0, 1000), Phase::ExplorationExploitation);
        // 3 more visits each: α = 0.3/7 + ... ≈ 0.043 → Exploitation.
        for _ in 0..3 {
            ag.observe(0, 0, 0.0, 0, 1000);
            ag.observe(0, 1, 0.0, 0, 1000);
        }
        assert_eq!(ag.state_phase(0, 1000), Phase::Exploitation);
    }

    #[test]
    fn peer_term_keeps_state_out_of_exploitation() {
        let mut ag = agent(1);
        for _ in 0..100 {
            ag.observe(0, 0, 0.0, 0, 0);
        }
        // β'/(1+0) = 0.2 > α_th2 ⇒ never exploitation while peers idle.
        assert_ne!(ag.state_phase(0, 0), Phase::Exploitation);
        assert_eq!(ag.state_phase(0, 1000), Phase::Exploitation);
    }

    #[test]
    fn new_state_reenters_exploration() {
        let mut ag = agent(1);
        for _ in 0..10 {
            ag.observe(0, 0, 0.0, 0, 1000);
        }
        assert_eq!(ag.state_phase(0, 1000), Phase::Exploitation);
        // State 5 has never been seen: exploration, per §IV-C.
        assert_eq!(ag.state_phase(5, 1000), Phase::Exploration);
    }

    #[test]
    fn explore_draws_untried_then_exploring_then_greedy() {
        let mut ag = agent(4);
        // Action 2 has one visit (α ≈ 0.3, still exploring), but untried
        // actions come first.
        ag.observe(0, 2, 0.0, 0, 1000);
        assert_explores(&ag, &[0, 1, 3]);
        // Every action tried: four visits take actions 1 and 3 below
        // α_th1 (α ≈ 0.075), so only actions 0 and 2 are drawn.
        for _ in 0..4 {
            ag.observe(0, 1, 0.0, 0, 1000);
            ag.observe(0, 3, 5.0, 0, 1000);
        }
        ag.observe(0, 0, 0.0, 0, 1000);
        assert_explores(&ag, &[0, 2]);
        // Nothing left in exploration: the greedy action, with no draw.
        for _ in 0..3 {
            ag.observe(0, 0, 0.0, 0, 1000);
            ag.observe(0, 2, 0.0, 0, 1000);
        }
        let mut rng = StdRng::seed_from_u64(5);
        assert_eq!(ag.explore(0, 1000, &mut rng), 3);
        assert_eq!(rng.state(), StdRng::seed_from_u64(5).state());
    }

    #[test]
    fn greedy_follows_q_values() {
        let mut ag = agent(3);
        for _ in 0..5 {
            ag.observe(0, 1, 5.0, 0, 1000);
            ag.observe(0, 0, -1.0, 0, 1000);
            ag.observe(0, 2, 1.0, 0, 1000);
        }
        assert_eq!(ag.greedy(0), 1);
    }

    #[test]
    fn states_at_phase_counts_only_visited() {
        let mut ag = agent(1);
        for _ in 0..10 {
            ag.observe(0, 0, 0.0, 0, 1000);
        }
        ag.observe(2, 0, 0.0, 2, 1000);
        let (exploiting, visited) = ag.states_at_phase(Phase::Exploitation, 1000);
        assert_eq!(visited, 2);
        assert_eq!(exploiting, 1);
    }

    #[test]
    fn min_action_count_tracks_least_tried() {
        let mut ag = agent(3);
        ag.observe(0, 0, 0.0, 0, 0);
        ag.observe(0, 0, 0.0, 0, 0);
        ag.observe(0, 1, 0.0, 0, 0);
        assert_eq!(ag.min_action_count(), 0); // action 2 untried
        ag.observe(0, 2, 0.0, 0, 0);
        assert_eq!(ag.min_action_count(), 1);
    }
}
