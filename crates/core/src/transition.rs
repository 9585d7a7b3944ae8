/// Empirical state-transition model `P(s --a--> s')`.
///
/// §IV-A of the paper: the environment is stochastic (content varies, other
/// agents act, other videos share the machine), so every observed transition
/// is counted and `P(s --a--> s') = Num(s --a--> s') / Num(s, a)` is updated
/// throughout learning. Algorithm 1 consumes these probabilities to compute
/// expected Q-values along the agent chain.
///
/// # Example
///
/// ```
/// let mut t = mamut_core::TransitionModel::new(4, 2);
/// t.record(0, 1, 2);
/// t.record(0, 1, 2);
/// t.record(0, 1, 3);
/// assert_eq!(t.count(0, 1), 3);
/// assert!((t.prob(0, 1, 2) - 2.0 / 3.0).abs() < 1e-12);
/// assert!((t.prob(0, 1, 3) - 1.0 / 3.0).abs() < 1e-12);
/// assert_eq!(t.prob(0, 1, 0), 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransitionModel {
    n_states: usize,
    n_actions: usize,
    /// Successor counts per (state, action): sparse `(next_state, count)`
    /// pairs sorted by `next_state`, so iteration order is fixed.
    counts: Vec<Vec<(u32, u32)>>,
    /// Total visits per (state, action) — the paper's `Num(s, a)`.
    totals: Vec<u32>,
}

impl TransitionModel {
    /// Creates an empty model.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(n_states: usize, n_actions: usize) -> Self {
        assert!(n_states > 0, "TransitionModel needs at least one state");
        assert!(n_actions > 0, "TransitionModel needs at least one action");
        TransitionModel {
            n_states,
            n_actions,
            counts: vec![Vec::new(); n_states * n_actions],
            totals: vec![0; n_states * n_actions],
        }
    }

    #[inline]
    fn idx(&self, state: usize, action: usize) -> usize {
        debug_assert!(state < self.n_states);
        debug_assert!(action < self.n_actions);
        state * self.n_actions + action
    }

    /// Records one observed transition.
    ///
    /// Counts saturate at `u32::MAX` rather than wrapping — models
    /// restored from visit-weighted knowledge merges (which saturate by
    /// design) can arrive here already near the ceiling.
    pub fn record(&mut self, state: usize, action: usize, next_state: usize) {
        self.record_many(state, action, next_state, 1);
    }

    /// `Num(s, a)` — times `action` was taken in `state`.
    pub fn count(&self, state: usize, action: usize) -> u32 {
        self.totals[self.idx(state, action)]
    }

    /// `P(s --a--> s')`, 0.0 if the pair was never visited.
    pub fn prob(&self, state: usize, action: usize, next_state: usize) -> f64 {
        let i = self.idx(state, action);
        let total = self.totals[i];
        if total == 0 {
            return 0.0;
        }
        let cell = &self.counts[i];
        let n = match cell.binary_search_by_key(&(next_state as u32), |&(s2, _)| s2) {
            Ok(at) => cell[at].1,
            Err(_) => 0,
        };
        f64::from(n) / f64::from(total)
    }

    /// Iterates over `(next_state, probability)` successors of `(s, a)`
    /// in ascending `next_state` order.
    ///
    /// Empty if the pair was never visited. Probabilities sum to 1 otherwise.
    pub fn successors(
        &self,
        state: usize,
        action: usize,
    ) -> impl Iterator<Item = (usize, f64)> + '_ {
        let i = self.idx(state, action);
        let total = self.totals[i];
        self.counts[i].iter().map(move |&(s2, n)| {
            let p = if total == 0 {
                0.0
            } else {
                f64::from(n) / f64::from(total)
            };
            (s2 as usize, p)
        })
    }

    /// Number of distinct successors observed for `(s, a)`.
    pub fn successor_count(&self, state: usize, action: usize) -> usize {
        self.counts[self.idx(state, action)].len()
    }

    /// Every recorded transition as `(state, action, next_state, count)`,
    /// sorted — the canonical order portable snapshots serialize.
    pub fn records(&self) -> Vec<(usize, usize, usize, u32)> {
        let mut out = Vec::new();
        for state in 0..self.n_states {
            for action in 0..self.n_actions {
                let i = state * self.n_actions + action;
                for &(next, count) in &self.counts[i] {
                    out.push((state, action, next as usize, count));
                }
            }
        }
        out
    }

    /// Adds `count` observations of `(state, action) → next_state` in one
    /// step — the bulk path used when restoring a snapshot.
    pub fn record_many(&mut self, state: usize, action: usize, next_state: usize, count: u32) {
        debug_assert!(next_state < self.n_states);
        let i = self.idx(state, action);
        let cell = &mut self.counts[i];
        let next = next_state as u32;
        match cell.binary_search_by_key(&next, |&(s2, _)| s2) {
            Ok(at) => cell[at].1 = cell[at].1.saturating_add(count),
            Err(at) => cell.insert(at, (next, count)),
        }
        self.totals[i] = self.totals[i].saturating_add(count);
    }

    /// Resets the model to empty (restore starts from a clean slate).
    pub fn clear(&mut self) {
        for m in &mut self.counts {
            m.clear();
        }
        self.totals.fill(0);
    }

    /// Number of states this model covers.
    pub fn n_states(&self) -> usize {
        self.n_states
    }

    /// Number of actions this model covers.
    pub fn n_actions(&self) -> usize {
        self.n_actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unvisited_pairs_have_zero_probability_everywhere() {
        let t = TransitionModel::new(3, 2);
        assert_eq!(t.count(0, 0), 0);
        assert_eq!(t.prob(0, 0, 1), 0.0);
        assert_eq!(t.successors(0, 0).count(), 0);
    }

    #[test]
    fn probabilities_normalize() {
        let mut t = TransitionModel::new(5, 1);
        for s2 in [1usize, 1, 2, 3, 3, 3] {
            t.record(0, 0, s2);
        }
        let sum: f64 = t.successors(0, 0).map(|(_, p)| p).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((t.prob(0, 0, 3) - 0.5).abs() < 1e-12);
        assert_eq!(t.successor_count(0, 0), 3);
    }

    #[test]
    fn counts_are_per_state_action_pair() {
        let mut t = TransitionModel::new(3, 2);
        t.record(0, 0, 1);
        t.record(0, 1, 2);
        t.record(1, 0, 0);
        assert_eq!(t.count(0, 0), 1);
        assert_eq!(t.count(0, 1), 1);
        assert_eq!(t.count(1, 0), 1);
        assert_eq!(t.count(1, 1), 0);
    }

    #[test]
    fn deterministic_transition_has_probability_one() {
        let mut t = TransitionModel::new(2, 1);
        for _ in 0..10 {
            t.record(0, 0, 1);
        }
        assert_eq!(t.prob(0, 0, 1), 1.0);
        assert_eq!(t.prob(0, 0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn zero_states_panics() {
        let _ = TransitionModel::new(0, 1);
    }

    #[test]
    fn successor_order_does_not_depend_on_insertion_order() {
        let transitions = [(0, 1, 4), (0, 1, 2), (0, 1, 7), (0, 1, 2), (0, 1, 0)];
        let mut forward = TransitionModel::new(8, 2);
        let mut backward = TransitionModel::new(8, 2);
        for &(s, a, s2) in &transitions {
            forward.record(s, a, s2);
        }
        for &(s, a, s2) in transitions.iter().rev() {
            backward.record(s, a, s2);
        }
        let seq = |t: &TransitionModel| -> Vec<(usize, u64)> {
            t.successors(0, 1)
                .map(|(s2, p)| (s2, p.to_bits()))
                .collect()
        };
        assert_eq!(seq(&forward), seq(&backward));
        let order: Vec<usize> = forward.successors(0, 1).map(|(s2, _)| s2).collect();
        assert_eq!(order, vec![0, 2, 4, 7]);
    }

    #[test]
    fn self_transitions_are_allowed() {
        let mut t = TransitionModel::new(2, 1);
        t.record(1, 0, 1);
        assert_eq!(t.prob(1, 0, 1), 1.0);
    }
}
