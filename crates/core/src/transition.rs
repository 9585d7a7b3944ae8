use crate::snapshot::{SnapshotError, TransitionRecord};

/// Empirical state-transition model `P(s --a--> s')`.
///
/// §IV-A of the paper: the environment is stochastic (content varies, other
/// agents act, other videos share the machine), so every observed transition
/// is counted and `P(s --a--> s') = Num(s --a--> s') / Num(s, a)` is updated
/// throughout learning. Algorithm 1 consumes these probabilities to compute
/// expected Q-values along the agent chain.
///
/// The counts keep a snapshot's layout, one [`TransitionRecord`] list
/// sorted by `(state, action, next_state)`, so a snapshot is a copy of
/// the list. A (state, action) cell's successors are one run of it, found
/// by dense offsets kept beside the dense totals `Num(s, a)`.
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
    /// Every observed transition with its count, sorted by
    /// `(state, action, next_state)` with no key twice and no zero count.
    records: Vec<TransitionRecord>,
    /// Cell `i`'s run is `records[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
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
            records: Vec::new(),
            offsets: vec![0; n_states * n_actions + 1],
            totals: vec![0; n_states * n_actions],
        }
    }

    #[inline]
    fn idx(&self, state: usize, action: usize) -> usize {
        debug_assert!(state < self.n_states && action < self.n_actions);
        state * self.n_actions + action
    }

    /// The records of `(state, action)`: one run of the sorted list, in
    /// ascending `next_state` order.
    fn cell(&self, state: usize, action: usize) -> &[TransitionRecord] {
        let i = self.idx(state, action);
        // One range check for both ends and no panic path in the
        // look-ahead's hot loop; the fallbacks never fire on offsets kept
        // in step with the list.
        let &[start, end] = &self.offsets[i..i + 2] else {
            return &[];
        };
        let run = self.records.get(start as usize..end as usize);
        run.unwrap_or_default()
    }

    /// Records one observed transition.
    ///
    /// Counts saturate at `u32::MAX` rather than wrapping — models
    /// restored from visit-weighted knowledge merges (which saturate by
    /// design) can arrive here already near the ceiling.
    pub fn record(&mut self, state: usize, action: usize, next_state: usize) {
        debug_assert!(next_state < self.n_states);
        let i = self.idx(state, action);
        let start = self.offsets[i] as usize;
        let run = &mut self.records[start..self.offsets[i + 1] as usize];
        match run.binary_search_by_key(&(next_state as u32), |r| r.next_state) {
            Ok(at) => run[at].count = run[at].count.saturating_add(1),
            Err(at) => {
                let new = TransitionRecord {
                    state: state as u32,
                    action: action as u32,
                    next_state: next_state as u32,
                    count: 1,
                };
                self.records.insert(start + at, new);
                for offset in &mut self.offsets[i + 1..] {
                    *offset += 1;
                }
            }
        }
        self.totals[i] = self.totals[i].saturating_add(1);
    }

    /// `Num(s, a)` — times `action` was taken in `state`.
    pub fn count(&self, state: usize, action: usize) -> u32 {
        self.totals[self.idx(state, action)]
    }

    /// `P(s --a--> s')`, 0.0 if the pair was never visited.
    pub fn prob(&self, state: usize, action: usize, next_state: usize) -> f64 {
        self.successors(state, action)
            .find(|&(s2, _)| s2 == next_state)
            .map_or(0.0, |(_, p)| p)
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
        let total = self.count(state, action);
        self.cell(state, action).iter().map(move |r| {
            let p = if total == 0 {
                0.0
            } else {
                f64::from(r.count) / f64::from(total)
            };
            (r.next_state as usize, p)
        })
    }

    /// Number of distinct successors observed for `(s, a)`.
    pub fn successor_count(&self, state: usize, action: usize) -> usize {
        self.cell(state, action).len()
    }

    /// Every recorded transition, sorted by `(state, action, next_state)`
    /// with no key twice and no zero count: the canonical order snapshots
    /// serialize.
    pub fn records(&self) -> &[TransitionRecord] {
        &self.records
    }

    /// Checks that every record's state, action and successor lie inside
    /// this model, as [`TransitionModel::load`] requires.
    pub(crate) fn check(&self, records: &[TransitionRecord]) -> Result<(), SnapshotError> {
        if records.iter().any(|r| {
            r.state as usize >= self.n_states
                || r.next_state as usize >= self.n_states
                || r.action as usize >= self.n_actions
        }) {
            return Err(SnapshotError::ShapeMismatch("transition out of range"));
        }
        Ok(())
    }

    /// Replaces the model's counts with `records`, which passed
    /// [`TransitionModel::check`] and may come in any order and repeat a
    /// key: repeats add up with saturation, as if every record had been
    /// recorded that many times, and a key whose count adds up to zero
    /// is dropped, since it was never visited.
    pub(crate) fn load(&mut self, records: &[TransitionRecord]) {
        debug_assert!(self.check(records).is_ok());
        self.records.clear();
        self.records.extend_from_slice(records);
        // In place, and one linear pass on the canonical order every
        // producer writes, so a restore allocates the same for any size.
        self.records.sort_unstable();
        self.records.dedup_by(|later, kept| {
            let repeat = (later.state, later.action, later.next_state)
                == (kept.state, kept.action, kept.next_state);
            if repeat {
                kept.count = kept.count.saturating_add(later.count);
            }
            repeat
        });
        self.records.retain(|r| r.count > 0);
        self.totals.fill(0);
        self.offsets.fill(0);
        for r in &self.records {
            let i = r.state as usize * self.n_actions + r.action as usize;
            self.totals[i] = self.totals[i].saturating_add(r.count);
            self.offsets[i + 1] += 1;
        }
        // Run lengths to run ends.
        self.offsets.iter_mut().fold(0, |end, offset| {
            *offset += end;
            *offset
        });
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

    /// A checked load, as `Agent::restore_all` makes one.
    fn restore(t: &mut TransitionModel, records: &[TransitionRecord]) -> Result<(), SnapshotError> {
        t.check(records)?;
        t.load(records);
        Ok(())
    }

    fn rec(state: u32, action: u32, next_state: u32, count: u32) -> TransitionRecord {
        TransitionRecord {
            state,
            action,
            next_state,
            count,
        }
    }

    /// Everything a reader can observe of a model: its records, every
    /// cell's total and successors (probabilities bitwise) and every
    /// probability.
    fn observe(t: &TransitionModel) -> (Vec<TransitionRecord>, Vec<u32>, Vec<(usize, u64)>) {
        let (mut totals, mut successors) = (Vec::new(), Vec::new());
        for s in 0..t.n_states() {
            for a in 0..t.n_actions() {
                totals.push(t.count(s, a));
                successors.extend(t.successors(s, a).map(|(s2, p)| (s2, p.to_bits())));
                successors.extend((0..t.n_states()).map(|s2| (s2, t.prob(s, a, s2).to_bits())));
            }
        }
        (t.records().to_vec(), totals, successors)
    }

    #[test]
    fn restoring_shuffled_repeated_records_equals_recording_them() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let key = |r: &TransitionRecord| (r.state, r.action, r.next_state);
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let n_states = rng.gen_range(1..7usize);
            let n_actions = rng.gen_range(1..4usize);
            let mut records = Vec::new();
            for _ in 0..rng.gen_range(0..40usize) {
                records.push(rec(
                    rng.gen_range(0..n_states as u32),
                    rng.gen_range(0..n_actions as u32),
                    rng.gen_range(0..n_states as u32),
                    rng.gen_range(1..4u32),
                ));
            }
            for i in (1..records.len()).rev() {
                records.swap(i, rng.gen_range(0..=i));
            }
            let mut recorded = TransitionModel::new(n_states, n_actions);
            for r in &records {
                for _ in 0..r.count {
                    recorded.record(r.state as usize, r.action as usize, r.next_state as usize);
                }
            }
            // Restore replaces what the model held before.
            let mut restored = TransitionModel::new(n_states, n_actions);
            restored.record(0, 0, 0);
            restore(&mut restored, &records).unwrap();
            assert_eq!(observe(&restored), observe(&recorded), "seed {seed}");
            assert_eq!(restored, recorded, "seed {seed}: offsets and totals too");
            assert!(restored
                .records()
                .windows(2)
                .all(|w| key(&w[0]) < key(&w[1])));
        }
    }

    #[test]
    fn restored_repeats_saturate_in_the_record_and_the_total() {
        let mut t = TransitionModel::new(3, 2);
        restore(&mut t, &[rec(1, 1, 2, 5), rec(1, 1, 2, u32::MAX - 1)]).unwrap();
        assert_eq!(t.records(), &[rec(1, 1, 2, u32::MAX)]);
        assert_eq!(t.count(1, 1), u32::MAX);
        t.record(1, 1, 2);
        assert_eq!(t.records(), &[rec(1, 1, 2, u32::MAX)]);
        assert_eq!(t.count(1, 1), u32::MAX);
    }

    #[test]
    fn an_out_of_range_record_is_refused_and_changes_nothing() {
        let mut t = TransitionModel::new(3, 2);
        t.record(0, 1, 2);
        let before = t.clone();
        for bad in [rec(3, 0, 0, 1), rec(0, 2, 0, 1), rec(0, 0, 3, 1)] {
            assert_eq!(
                restore(&mut t, &[rec(1, 0, 1, 4), bad]),
                Err(SnapshotError::ShapeMismatch("transition out of range"))
            );
            assert_eq!(t, before);
        }
    }

    #[test]
    fn a_zero_count_record_loads_as_never_visited() {
        let mut t = TransitionModel::new(3, 2);
        restore(&mut t, &[rec(0, 0, 1, 0)]).unwrap();
        assert_eq!(t.records(), &[]);
        assert_eq!(t.count(0, 0), 0);
        assert_eq!(t.successors(0, 0).count(), 0);
        assert_eq!(t.successor_count(0, 0), 0);
        assert_eq!(t, TransitionModel::new(3, 2), "offsets and totals too");
        // Repeats merge before zero counts drop.
        restore(&mut t, &[rec(0, 0, 1, 0), rec(1, 1, 2, 0), rec(0, 0, 1, 2)]).unwrap();
        assert_eq!(t.records(), &[rec(0, 0, 1, 2)]);
        assert_eq!(t.successors(0, 0).collect::<Vec<_>>(), vec![(1, 1.0)]);
        assert_eq!(t.successor_count(1, 1), 0);
    }
}
