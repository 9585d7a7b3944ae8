//! The fleet-level tabular Q-policy: a joint scale × dispatch action
//! space, ε-greedy selection on a decaying schedule, and a portable
//! state codec.
//!
//! This is the paper's per-session learning loop lifted one level up:
//! where a session agent picks QP/threads/DVFS from a small Q-table, the
//! fleet policy picks "grow, hold or shrink the pool" jointly with
//! "which placement preference the dispatcher should follow". The table
//! is tiny (432 states × 9 actions), so training against the scenario
//! catalog converges in seconds and the whole learned state travels in a
//! few tens of kilobytes through the same snapshot primitives as
//! controller policies and forecaster state.

use mamut_core::snapshot::{Format, SnapshotError};
use mamut_core::QTable;
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Framing of an encoded fleet-policy state.
pub const FLEET_POLICY_FORMAT: Format = Format {
    magic: b"MAMUTFP\0",
    version: 1,
};

/// Type tag carried in every encoded policy state.
const POLICY_TAG: &str = "fleet-q";

/// The pool-sizing component of a joint action: a learned residual on
/// the Little's-law base target the driver computes from its blended
/// forecast (see `PolicyDriver::plan` in the adapter module).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleMove {
    /// Run one node *under* the forecast's base target.
    Shrink,
    /// Follow the base target exactly.
    Hold,
    /// Provision one node *over* the base target.
    Grow,
}

/// The dispatch-preference component of a joint action: which node
/// ordering the learned dispatcher follows until the next decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPref {
    /// Place on the least thread-utilized node.
    LeastLoaded,
    /// Place on the node with the most power headroom.
    PowerHeadroom,
    /// Place on the node with the most QoS slack.
    QosSlack,
}

/// One joint action: a scale move plus a dispatch preference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JointAction {
    /// Pool-sizing component.
    pub scale: ScaleMove,
    /// Dispatch-preference component.
    pub pref: DispatchPref,
}

/// Scale moves in index order.
const SCALE_MOVES: [ScaleMove; 3] = [ScaleMove::Shrink, ScaleMove::Hold, ScaleMove::Grow];
/// Dispatch preferences in index order.
const PREFS: [DispatchPref; 3] = [
    DispatchPref::LeastLoaded,
    DispatchPref::PowerHeadroom,
    DispatchPref::QosSlack,
];

impl JointAction {
    /// Number of joint actions (3 scale moves × 3 preferences).
    pub const COUNT: usize = SCALE_MOVES.len() * PREFS.len();

    /// The action at dense index `i` (`i < JointAction::COUNT`).
    pub fn from_index(i: usize) -> JointAction {
        JointAction {
            scale: SCALE_MOVES[i / PREFS.len()],
            pref: PREFS[i % PREFS.len()],
        }
    }

    /// Dense index in `0..JointAction::COUNT`.
    pub fn index(&self) -> usize {
        let s = SCALE_MOVES
            .iter()
            .position(|m| m == &self.scale)
            .expect("listed");
        let p = PREFS.iter().position(|q| q == &self.pref).expect("listed");
        s * PREFS.len() + p
    }
}

/// Linearly decaying exploration-rate schedule: ε runs from `start` to
/// `end` over `decay_steps` policy decisions, then stays at `end`.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonSchedule {
    /// ε at step 0.
    pub start: f64,
    /// ε after the decay completes.
    pub end: f64,
    /// Decisions over which ε decays (0 → always `end`).
    pub decay_steps: u64,
}

impl EpsilonSchedule {
    /// ε at decision `step`.
    pub fn value(&self, step: u64) -> f64 {
        if self.decay_steps == 0 || step >= self.decay_steps {
            return self.end;
        }
        let f = step as f64 / self.decay_steps as f64;
        self.start + (self.end - self.start) * f
    }
}

impl Default for EpsilonSchedule {
    fn default() -> Self {
        EpsilonSchedule {
            start: 0.4,
            end: 0.02,
            decay_steps: 4_000,
        }
    }
}

/// A tabular Q-learning policy over the joint fleet action space.
///
/// Selection and updates are fully deterministic for a given seed and
/// call sequence; [`FleetPolicy::snapshot_state`] captures everything —
/// Q-values, visit counts, the ε schedule position and the RNG state —
/// so a restored policy replays byte-identical decisions.
#[derive(Debug, Clone)]
pub struct FleetPolicy {
    /// Q-values over `n_states × JointAction::COUNT`.
    q: QTable,
    /// Per-(state, action) selection counts, row-major like `q`.
    visits: Vec<u32>,
    /// Learning rate in `(0, 1]`.
    pub alpha: f64,
    /// Discount factor in `[0, 1)`.
    pub gamma: f64,
    schedule: EpsilonSchedule,
    /// Selections made over the policy's lifetime (drives the schedule).
    steps: u64,
    greedy_selections: u64,
    exploratory_selections: u64,
    rng: StdRng,
}

impl FleetPolicy {
    /// A zero-initialized policy over `n_states` featurizer states,
    /// seeded for reproducible exploration.
    ///
    /// # Panics
    ///
    /// Panics if `n_states` is zero (propagated from [`QTable::new`]).
    pub fn new(n_states: usize, seed: u64) -> Self {
        FleetPolicy {
            q: QTable::new(n_states, JointAction::COUNT),
            visits: vec![0; n_states * JointAction::COUNT],
            alpha: 0.15,
            gamma: 0.92,
            schedule: EpsilonSchedule::default(),
            steps: 0,
            greedy_selections: 0,
            exploratory_selections: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Overrides the learning rate and discount factor.
    pub fn with_learning(mut self, alpha: f64, gamma: f64) -> Self {
        self.alpha = alpha.clamp(1e-6, 1.0);
        self.gamma = gamma.clamp(0.0, 0.999_999);
        self
    }

    /// Overrides the exploration schedule.
    pub fn with_schedule(mut self, schedule: EpsilonSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// States in the Q-table.
    pub fn n_states(&self) -> usize {
        self.q.n_states()
    }

    /// Selections made over the policy's lifetime.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Greedy selections made over the policy's lifetime.
    pub fn greedy_selections(&self) -> u64 {
        self.greedy_selections
    }

    /// Exploratory (random) selections made over the policy's lifetime.
    pub fn exploratory_selections(&self) -> u64 {
        self.exploratory_selections
    }

    /// The exploration rate the *next* training selection will use.
    pub fn epsilon(&self) -> f64 {
        self.schedule.value(self.steps)
    }

    /// The Q-value of `(state, action)`.
    pub fn q_value(&self, state: usize, action: JointAction) -> f64 {
        self.q.get(state, action.index())
    }

    /// Times `(state, action)` was selected.
    pub fn visit_count(&self, state: usize, action: JointAction) -> u32 {
        self.visits[state * JointAction::COUNT + action.index()]
    }

    /// Total selections recorded in the visit table.
    pub fn total_visits(&self) -> u64 {
        self.visits.iter().map(|&v| u64::from(v)).sum()
    }

    /// The greedy action in `state` (ties: lowest action index, so
    /// evaluation is deterministic).
    pub fn greedy(&self, state: usize) -> JointAction {
        JointAction::from_index(self.q.argmax(state))
    }

    /// ε-greedy training selection in `state`: with probability ε (from
    /// the decaying schedule) a uniformly random action, otherwise the
    /// greedy one. Advances the schedule, counters and visit table.
    /// Returns the action and whether it was exploratory.
    pub fn select(&mut self, state: usize) -> (JointAction, bool) {
        let eps = self.schedule.value(self.steps);
        self.steps += 1;
        // Both random draws happen unconditionally so the RNG stream —
        // and therefore every later decision — does not depend on which
        // branch a particular ε landed in.
        let explore = self.rng.gen_bool(eps);
        let random_index = self.rng.gen_range(0..JointAction::COUNT);
        let action = if explore {
            self.exploratory_selections += 1;
            JointAction::from_index(random_index)
        } else {
            self.greedy_selections += 1;
            self.greedy(state)
        };
        let cell = state * JointAction::COUNT + action.index();
        self.visits[cell] = self.visits[cell].saturating_add(1);
        (action, explore)
    }

    /// One Q-learning backup:
    /// `Q(s,a) += α (r + γ·max_a' Q(s',a') − Q(s,a))`.
    pub fn update(&mut self, state: usize, action: JointAction, reward: f64, next_state: usize) {
        let target = reward + self.gamma * self.q.max_q(next_state);
        self.q.update(state, action.index(), target, self.alpha);
    }

    /// Serializes the policy's full state — Q-values, visit counts,
    /// learning parameters, schedule position and RNG — through the
    /// std-only snapshot codec, so a restored policy replays
    /// byte-identical decisions. Encoding is canonical: encode → decode
    /// → encode round-trips to the very same bytes.
    pub fn snapshot_state(&self) -> Vec<u8> {
        let mut w = FLEET_POLICY_FORMAT.writer();
        w.put_str(POLICY_TAG);
        w.put_u32(self.q.n_states() as u32);
        w.put_u32(JointAction::COUNT as u32);
        w.put_f64(self.alpha);
        w.put_f64(self.gamma);
        w.put_f64(self.schedule.start);
        w.put_f64(self.schedule.end);
        w.put_u64(self.schedule.decay_steps);
        w.put_u64(self.steps);
        w.put_u64(self.greedy_selections);
        w.put_u64(self.exploratory_selections);
        for s in self.rng.state() {
            w.put_u64(s);
        }
        for &q in self.q.values() {
            w.put_f64(q);
        }
        for &v in &self.visits {
            w.put_u32(v);
        }
        w.into_bytes()
    }

    /// Restores state captured by [`FleetPolicy::snapshot_state`] into a
    /// policy of the same shape.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a fleet-policy state,
    /// were written by a newer codec, or disagree with this policy's
    /// state/action space. A failed restore leaves the policy untouched.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let restored = FLEET_POLICY_FORMAT.read(bytes, |r| {
            r.expect_tag(POLICY_TAG)?;
            let n_states = r.get_u32()? as usize;
            let n_actions = r.get_u32()? as usize;
            if n_states != self.q.n_states() || n_actions != JointAction::COUNT {
                return Err(SnapshotError::ShapeMismatch(
                    "fleet-policy table dimensions differ",
                ));
            }
            let alpha = r.get_finite("non-finite alpha")?;
            let gamma = r.get_finite("non-finite gamma")?;
            let schedule = EpsilonSchedule {
                start: r.get_finite("non-finite epsilon start")?,
                end: r.get_finite("non-finite epsilon end")?,
                decay_steps: r.get_u64()?,
            };
            let steps = r.get_u64()?;
            let greedy_selections = r.get_u64()?;
            let exploratory_selections = r.get_u64()?;
            let mut rng_state = [0u64; 4];
            for s in &mut rng_state {
                *s = r.get_u64()?;
            }
            let cells = n_states * n_actions;
            let mut values = Vec::with_capacity(r.bound_count(cells, 8)?);
            for _ in 0..cells {
                values.push(r.get_finite("non-finite q-value")?);
            }
            let mut q = QTable::new(n_states, n_actions);
            q.load_values(&values);
            let mut visits = Vec::with_capacity(r.bound_count(cells, 4)?);
            for _ in 0..cells {
                visits.push(r.get_u32()?);
            }
            Ok(FleetPolicy {
                q,
                visits,
                alpha,
                gamma,
                schedule,
                steps,
                greedy_selections,
                exploratory_selections,
                rng: StdRng::from_state(rng_state),
            })
        })?;
        *self = restored;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joint_action_index_is_a_bijection() {
        for i in 0..JointAction::COUNT {
            assert_eq!(JointAction::from_index(i).index(), i);
        }
        assert_eq!(JointAction::COUNT, 9);
    }

    #[test]
    fn schedule_decays_linearly_then_floors() {
        let s = EpsilonSchedule {
            start: 0.5,
            end: 0.1,
            decay_steps: 4,
        };
        assert!((s.value(0) - 0.5).abs() < 1e-12);
        assert!((s.value(2) - 0.3).abs() < 1e-12);
        assert!((s.value(4) - 0.1).abs() < 1e-12);
        assert!((s.value(400) - 0.1).abs() < 1e-12);
        let flat = EpsilonSchedule {
            start: 0.9,
            end: 0.05,
            decay_steps: 0,
        };
        assert!((flat.value(0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn update_moves_q_toward_the_backup_target() {
        let mut p = FleetPolicy::new(4, 7).with_learning(0.5, 0.9);
        let a = JointAction::from_index(3);
        // Next state has a known best of 2.0.
        let best_next = JointAction::from_index(1);
        p.update(2, best_next, 2.0 / 0.5 * 1.0, 2); // seed Q(2,1) via a raw backup
        let seeded = p.q_value(2, best_next);
        assert!(seeded > 0.0);
        p.update(0, a, 1.0, 2);
        let expect = 0.5 * (1.0 + 0.9 * seeded);
        assert!((p.q_value(0, a) - expect).abs() < 1e-12);
    }

    #[test]
    fn greedy_breaks_ties_toward_the_lowest_index() {
        let p = FleetPolicy::new(2, 1);
        // All-zero row: the greedy action must be index 0, always.
        assert_eq!(p.greedy(0).index(), 0);
        assert_eq!(p.greedy(1).index(), 0);
    }

    #[test]
    fn selection_is_deterministic_for_a_seed_and_counts_sources() {
        let run = |seed| {
            let mut p = FleetPolicy::new(8, seed).with_schedule(EpsilonSchedule {
                start: 0.5,
                end: 0.5,
                decay_steps: 0,
            });
            (0..200)
                .map(|s| p.select(s % 8).0.index())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43), "different seeds explore differently");

        let mut p = FleetPolicy::new(8, 42).with_schedule(EpsilonSchedule {
            start: 0.5,
            end: 0.5,
            decay_steps: 0,
        });
        for s in 0..200 {
            p.select(s % 8);
        }
        assert_eq!(p.steps(), 200);
        assert_eq!(p.greedy_selections() + p.exploratory_selections(), 200);
        assert!(p.exploratory_selections() > 50, "ε = 0.5 must explore");
        assert_eq!(p.total_visits(), 200);
    }

    #[test]
    fn snapshot_round_trip_is_exact_and_continues_identically() {
        let mut a = FleetPolicy::new(6, 11);
        for s in 0..60usize {
            let (act, _) = a.select(s % 6);
            a.update(s % 6, act, (s % 3) as f64 - 1.0, (s + 1) % 6);
        }
        let bytes = a.snapshot_state();
        let mut b = FleetPolicy::new(6, 999); // seed overwritten by restore
        b.restore_state(&bytes).unwrap();
        assert_eq!(b.snapshot_state(), bytes, "canonical re-encode");
        // The restored policy replays the original's future exactly.
        for s in 0..60usize {
            let (aa, ae) = a.select(s % 6);
            let (ba, be) = b.select(s % 6);
            assert_eq!(aa, ba);
            assert_eq!(ae, be);
            a.update(s % 6, aa, 0.5, (s + 2) % 6);
            b.update(s % 6, ba, 0.5, (s + 2) % 6);
        }
        assert_eq!(a.snapshot_state(), b.snapshot_state());
    }

    #[test]
    fn codec_rejects_foreign_and_mangled_streams() {
        let p = FleetPolicy::new(4, 5);
        let bytes = p.snapshot_state();
        let mut fresh = FleetPolicy::new(4, 5);
        // Wrong shape.
        let mut other = FleetPolicy::new(5, 5);
        assert!(matches!(
            other.restore_state(&bytes),
            Err(SnapshotError::ShapeMismatch(_))
        ));
        // Non-finite learning parameters.
        let mut nan_alpha = bytes.clone();
        let alpha_at = 8 + 2 + 4 + POLICY_TAG.len() + 4 + 4;
        nan_alpha[alpha_at..alpha_at + 8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        assert_eq!(
            fresh.restore_state(&nan_alpha),
            Err(SnapshotError::Corrupt("non-finite alpha"))
        );
        // A failed restore leaves the policy untouched.
        assert_eq!(fresh.snapshot_state(), bytes);
    }
}
