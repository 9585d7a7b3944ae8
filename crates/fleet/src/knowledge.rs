//! Knowledge-as-a-service for the fleet: a store of learned policies,
//! keyed by session class and controller type, that warm-starts new
//! sessions.
//!
//! The KaaS follow-up to MAMUT observes that a freshly admitted stream
//! pays the full exploration cost even though thousands of similar
//! streams have already learned the same environment. The
//! [`KnowledgeStore`] closes that loop:
//!
//! * finished sessions **publish** their
//!   [`PolicySnapshot`](mamut_core::snapshot::PolicySnapshot) (stripped
//!   to knowledge-only form — tables and counters, no RNG/execution
//!   state) keyed by [`SessionClass`] (HR or LR) *and* controller tag,
//!   so mixed-controller fleets accumulate knowledge side by side;
//! * publishes **merge** under a [`MergePolicy`] — last-writer-wins or a
//!   per-cell visit-weighted average of Q-values, with visit counts and
//!   transition statistics accumulated;
//! * [`warm_start_factory`] wraps any
//!   [`ControllerFactory`](crate::ControllerFactory) so each new session
//!   is **seeded** from the store before its first frame (silently
//!   falling back to a cold start when the store has nothing compatible).
//!
//! The store is shared across nodes behind `Arc<Mutex<…>>`
//! ([`SharedKnowledgeStore`]); every access happens on the coordinating
//! thread at epoch boundaries (publish during harvest, seed during
//! dispatch), so fleet determinism is preserved for any worker count.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mamut_core::snapshot::{
    AgentSnapshot, Format, PolicySnapshot, SnapshotError, TransitionRecord,
};
use mamut_core::Controller;

use crate::node::ControllerFactory;
use crate::workload::SessionRequest;

/// The knowledge key: which kind of stream a policy was learned on.
///
/// HR and LR streams have different action spaces (thread caps) and
/// different operating points, so their knowledge never mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SessionClass {
    /// High-resolution (1080p) streams.
    Hr,
    /// Low-resolution (832×480) streams.
    Lr,
}

impl SessionClass {
    /// The class of an arriving request.
    pub fn of_request(request: &SessionRequest) -> SessionClass {
        SessionClass::of_hr(request.hr)
    }

    /// The class for an HR flag.
    pub fn of_hr(hr: bool) -> SessionClass {
        if hr {
            SessionClass::Hr
        } else {
            SessionClass::Lr
        }
    }
}

impl std::fmt::Display for SessionClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SessionClass::Hr => "HR",
            SessionClass::Lr => "LR",
        })
    }
}

/// How a publish combines with knowledge already in the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// The newest publish wins outright.
    Replace,
    /// Q-values merge per state-action cell, weighted by each side's
    /// visit count (`Num(s, a)`); visit counts and transition statistics
    /// accumulate. Falls back to replacement when the incoming tables
    /// are structurally incompatible (different controller type or
    /// shapes).
    VisitWeighted,
}

/// What happened to a published snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// First knowledge for this class.
    Inserted,
    /// Merged into existing knowledge.
    Merged,
    /// Replaced existing knowledge (policy said so, or shapes differed).
    Replaced,
}

/// Merged knowledge for one session class.
#[derive(Debug, Clone)]
pub struct ClassKnowledge {
    /// The merged, knowledge-only snapshot new sessions are seeded from.
    pub snapshot: PolicySnapshot,
    /// Sessions that have contributed to this entry.
    pub contributions: u64,
    /// Incremental visit-weighted merge state (per-cell visit totals and
    /// transition counts), built lazily on the first merge. With it, a
    /// publish costs O(incoming) work against the accumulated tables
    /// instead of re-deriving both sides' visit matrices and rebuilding
    /// the full transition map from scratch every time.
    acc: Option<MergeState>,
}

/// Accumulated per-agent merge state mirroring `snapshot.agents`.
#[derive(Debug, Clone)]
struct MergeState {
    agents: Vec<AgentMergeState>,
}

#[derive(Debug, Clone)]
struct AgentMergeState {
    /// Dense `Num(s, a)` totals across all contributions (saturating, as
    /// the per-publish visit matrices themselves saturate).
    visits: Vec<u32>,
    /// Transition counts keyed `(state, action, next_state)` — the
    /// canonical sorted order, so regenerating the snapshot's record
    /// list is a linear walk, never a re-sort.
    transitions: BTreeMap<(u32, u32, u32), u32>,
}

impl MergeState {
    fn from_snapshot(snapshot: &PolicySnapshot) -> MergeState {
        MergeState {
            agents: snapshot
                .agents
                .iter()
                .map(|a| AgentMergeState {
                    visits: a.visit_matrix(),
                    transitions: a
                        .transitions
                        .iter()
                        .map(|t| ((t.state, t.action, t.next_state), t.count))
                        .collect(),
                })
                .collect(),
        }
    }
}

impl AgentMergeState {
    /// Folds `new` into `agent` in place: per-cell visit-weighted Q
    /// average (plain average where neither side has visits), saturating
    /// action/transition count accumulation, canonical record
    /// regeneration from the maintained map.
    fn merge_agent(&mut self, agent: &mut AgentSnapshot, new: &AgentSnapshot) {
        let visits_new = new.visit_matrix();
        for (i, (q, &qn)) in agent.q.iter_mut().zip(&new.q).enumerate() {
            let (vo, vn) = (f64::from(self.visits[i]), f64::from(visits_new[i]));
            *q = if vo + vn > 0.0 {
                (vo * *q + vn * qn) / (vo + vn)
            } else {
                0.5 * (*q + qn)
            };
            self.visits[i] = self.visits[i].saturating_add(visits_new[i]);
        }
        for (a, &b) in agent.action_counts.iter_mut().zip(&new.action_counts) {
            *a = a.saturating_add(b);
        }
        for t in &new.transitions {
            let slot = self
                .transitions
                .entry((t.state, t.action, t.next_state))
                .or_insert(0);
            *slot = slot.saturating_add(t.count);
        }
        agent.transitions.clear();
        agent.transitions.extend(self.transitions.iter().map(
            |(&(state, action, next_state), &count)| TransitionRecord {
                state,
                action,
                next_state,
                count,
            },
        ));
    }
}

impl ClassKnowledge {
    fn inserted(snapshot: PolicySnapshot) -> ClassKnowledge {
        ClassKnowledge {
            snapshot,
            contributions: 1,
            acc: None,
        }
    }

    /// Visit-weighted merge of `incoming` into the accumulated snapshot,
    /// or `false` when the shapes are structurally incompatible (the
    /// caller replaces instead).
    fn merge_in(&mut self, incoming: &PolicySnapshot) -> bool {
        if self.snapshot.controller != incoming.controller
            || self.snapshot.agents.len() != incoming.agents.len()
        {
            return false;
        }
        let compatible = self
            .snapshot
            .agents
            .iter()
            .zip(&incoming.agents)
            .all(|(a, b)| {
                a.kind == b.kind && a.n_states == b.n_states && a.n_actions == b.n_actions
            });
        if !compatible {
            return false;
        }
        let acc = self
            .acc
            .get_or_insert_with(|| MergeState::from_snapshot(&self.snapshot));
        for (agent, (st, new)) in self
            .snapshot
            .agents
            .iter_mut()
            .zip(acc.agents.iter_mut().zip(&incoming.agents))
        {
            st.merge_agent(agent, new);
        }
        // The operating point follows the newest contributor: knobs are a
        // live setting, not an average-able statistic.
        self.snapshot.knobs = incoming.knobs;
        self.snapshot.exploration_decisions += incoming.exploration_decisions;
        self.snapshot.exploitation_decisions += incoming.exploitation_decisions;
        true
    }
}

/// The fleet's policy repository: finished sessions publish their
/// learned tables here; new sessions of the same class are seeded from
/// the merged knowledge (see [`warm_start_factory`]).
#[derive(Debug)]
pub struct KnowledgeStore {
    policy: MergePolicy,
    /// Knowledge keyed by `(class, controller tag)`: mixed-controller
    /// fleets publish side by side — a finishing heuristic session can
    /// never displace the MAMUT tables accumulated for its class.
    entries: BTreeMap<(SessionClass, String), ClassKnowledge>,
    publishes: u64,
    seeds_served: u64,
    seed_attempts: u64,
}

/// A store shared between warm-start factories and the fleet loop.
pub type SharedKnowledgeStore = Arc<Mutex<KnowledgeStore>>;

/// Framing of an encoded [`KnowledgeStore`].
pub const STORE_FORMAT: Format = Format {
    magic: b"MAMUTKS\0",
    version: 1,
};

impl KnowledgeStore {
    /// Creates an empty store with the given merge policy.
    pub fn new(policy: MergePolicy) -> Self {
        KnowledgeStore {
            policy,
            entries: BTreeMap::new(),
            publishes: 0,
            seeds_served: 0,
            seed_attempts: 0,
        }
    }

    /// Wraps the store for sharing with factories and a `FleetSim`.
    pub fn into_shared(self) -> SharedKnowledgeStore {
        Arc::new(Mutex::new(self))
    }

    /// The merge policy in force.
    pub fn policy(&self) -> MergePolicy {
        self.policy
    }

    /// Publishes one controller's snapshot under `class`. The snapshot is
    /// reduced to knowledge-only form (execution state stripped) before
    /// it enters the store.
    pub fn publish(&mut self, class: SessionClass, snapshot: &PolicySnapshot) -> PublishOutcome {
        self.publishes += 1;
        let key = (class, snapshot.controller.clone());
        match self.entries.get_mut(&key) {
            None => {
                self.entries.insert(
                    key,
                    ClassKnowledge::inserted(snapshot.clone().into_knowledge()),
                );
                PublishOutcome::Inserted
            }
            Some(existing) => {
                existing.contributions += 1;
                match self.policy {
                    MergePolicy::Replace => {
                        existing.snapshot = snapshot.clone().into_knowledge();
                        existing.acc = None;
                        PublishOutcome::Replaced
                    }
                    MergePolicy::VisitWeighted => {
                        // The merge reads tables only, so the incoming
                        // snapshot is never cloned on this path.
                        if existing.merge_in(snapshot) {
                            PublishOutcome::Merged
                        } else {
                            existing.snapshot = snapshot.clone().into_knowledge();
                            existing.acc = None;
                            PublishOutcome::Replaced
                        }
                    }
                }
            }
        }
    }

    /// The merged knowledge a `controller`-tagged session of `class`
    /// would be seeded from, if any peer has published.
    pub fn knowledge(&self, class: SessionClass, controller: &str) -> Option<&ClassKnowledge> {
        self.entries.get(&(class, controller.to_owned()))
    }

    /// Seeds a freshly built controller from the knowledge published by
    /// its own kind for `class`. Returns whether a warm start actually
    /// happened — `false` when the store has nothing for the
    /// `(class, controller)` pair or the knowledge is shape-incompatible,
    /// in which case the controller is left cold and untouched.
    pub fn seed(&mut self, class: SessionClass, controller: &mut dyn Controller) -> bool {
        self.seed_attempts += 1;
        let key = (class, controller.name().to_owned());
        let Some(entry) = self.entries.get(&key) else {
            return false;
        };
        if controller.restore(&entry.snapshot).is_ok() {
            self.seeds_served += 1;
            true
        } else {
            false
        }
    }

    /// Total publishes accepted (all classes).
    pub fn publishes(&self) -> u64 {
        self.publishes
    }

    /// Sessions successfully warm-started from the store.
    pub fn seeds_served(&self) -> u64 {
        self.seeds_served
    }

    /// Seeding attempts, successful or not.
    pub fn seed_attempts(&self) -> u64 {
        self.seed_attempts
    }

    /// Folds every entry of `other` into this store under this store's
    /// merge policy — the inter-shard sync primitive. Knowledge-wise
    /// this is exactly what publishing other's merged entries here would
    /// do (the visit-weighted merge is associative: weighting by
    /// accumulated visit totals makes merging two merged entries equal
    /// the flat fold over all contributors), and contribution counts
    /// accumulate. The `publishes`/seed counters are **not** touched:
    /// absorbing moves knowledge between stores, it is not a session
    /// finishing — so per-shard invariants like "publishes == sessions
    /// served" survive any number of syncs.
    pub fn absorb(&mut self, other: &KnowledgeStore) {
        for (key, incoming) in &other.entries {
            match self.entries.get_mut(key) {
                None => {
                    self.entries.insert(
                        key.clone(),
                        ClassKnowledge {
                            snapshot: incoming.snapshot.clone(),
                            contributions: incoming.contributions,
                            // Derived state: rebuilt lazily (and exactly)
                            // on the first merge, same as after a restore.
                            acc: None,
                        },
                    );
                }
                Some(existing) => {
                    existing.contributions += incoming.contributions;
                    let replace = match self.policy {
                        MergePolicy::Replace => true,
                        MergePolicy::VisitWeighted => !existing.merge_in(&incoming.snapshot),
                    };
                    if replace {
                        existing.snapshot = incoming.snapshot.clone();
                        existing.acc = None;
                    }
                }
            }
        }
    }

    /// Replaces this store's knowledge with `global`'s — the second half
    /// of a sync round: shards are absorbed into a fleet-wide fold, then
    /// each shard adopts the fold so all regions seed from the same
    /// merged tables. Local counters (`publishes`, seeds) are kept;
    /// entries and their contribution counts become the global ones.
    pub fn adopt_knowledge(&mut self, global: &KnowledgeStore) {
        self.entries = global
            .entries
            .iter()
            .map(|(key, entry)| {
                (
                    key.clone(),
                    ClassKnowledge {
                        snapshot: entry.snapshot.clone(),
                        contributions: entry.contributions,
                        acc: None,
                    },
                )
            })
            .collect();
    }

    /// Serializes the whole store — merge policy, every class's merged
    /// knowledge, contribution and service counters — under
    /// [`STORE_FORMAT`], so accumulated fleet knowledge survives process
    /// restarts and scenario sweeps can chain runs.
    ///
    /// The encoding is canonical (entries in key order, each policy in
    /// its canonical snapshot form), so encode → decode → encode is
    /// byte-identical. The incremental merge accumulator is *not*
    /// encoded: it is derived state, rebuilt lazily on the first merge
    /// after a decode, and the rebuild is exact — merges after a decode
    /// produce bitwise the same tables as merges without one.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = STORE_FORMAT.writer();
        w.put_u8(match self.policy {
            MergePolicy::Replace => 0,
            MergePolicy::VisitWeighted => 1,
        });
        w.put_u64(self.publishes);
        w.put_u64(self.seeds_served);
        w.put_u64(self.seed_attempts);
        w.put_u32(self.entries.len() as u32);
        for ((class, controller), entry) in &self.entries {
            w.put_u8(match class {
                SessionClass::Hr => 0,
                SessionClass::Lr => 1,
            });
            w.put_str(controller);
            w.put_u64(entry.contributions);
            w.put_bytes(&entry.snapshot.encode());
        }
        w.into_bytes()
    }

    /// Rebuilds a store from bytes produced by [`KnowledgeStore::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a framing error (see [`Format::read`]), a
    /// truncated or corrupt body, or an embedded policy snapshot that
    /// fails to decode.
    pub fn decode(bytes: &[u8]) -> Result<KnowledgeStore, SnapshotError> {
        STORE_FORMAT.read(bytes, |r| {
            let policy = match r.get_u8()? {
                0 => MergePolicy::Replace,
                1 => MergePolicy::VisitWeighted,
                _ => return Err(SnapshotError::Corrupt("unknown merge policy")),
            };
            let publishes = r.get_u64()?;
            let seeds_served = r.get_u64()?;
            let seed_attempts = r.get_u64()?;
            // Class byte, empty tag, contributions, empty snapshot.
            let n_entries = r.get_count(1 + 4 + 8 + 4)?;
            let mut entries = BTreeMap::new();
            for _ in 0..n_entries {
                let class = match r.get_u8()? {
                    0 => SessionClass::Hr,
                    1 => SessionClass::Lr,
                    _ => return Err(SnapshotError::Corrupt("unknown session class")),
                };
                let controller = r.get_str()?;
                let contributions = r.get_u64()?;
                let snapshot = PolicySnapshot::decode(&r.get_bytes()?)?;
                if entries
                    .insert(
                        (class, controller),
                        ClassKnowledge {
                            snapshot,
                            contributions,
                            acc: None,
                        },
                    )
                    .is_some()
                {
                    return Err(SnapshotError::Corrupt("duplicate knowledge entry"));
                }
            }
            Ok(KnowledgeStore {
                policy,
                entries,
                publishes,
                seeds_served,
                seed_attempts,
            })
        })
    }
}

/// Per-cell visit-weighted merge of two knowledge snapshots, or `None`
/// when they are structurally incompatible.
///
/// The naive pairwise reference the store used before the incremental
/// accumulator: it re-derives both sides' visit matrices and rebuilds
/// the transition map per call. Kept under test as the oracle the
/// incremental [`ClassKnowledge::merge_in`] is proven equivalent to.
#[cfg(test)]
fn visit_weighted_merge(old: &PolicySnapshot, new: &PolicySnapshot) -> Option<PolicySnapshot> {
    if old.controller != new.controller || old.agents.len() != new.agents.len() {
        return None;
    }
    let mut agents = Vec::with_capacity(old.agents.len());
    for (a, b) in old.agents.iter().zip(&new.agents) {
        agents.push(merge_agent(a, b)?);
    }
    Some(PolicySnapshot {
        controller: new.controller.clone(),
        // The operating point follows the newest contributor: knobs are a
        // live setting, not an average-able statistic.
        knobs: new.knobs,
        exploration_decisions: old.exploration_decisions + new.exploration_decisions,
        exploitation_decisions: old.exploitation_decisions + new.exploitation_decisions,
        agents,
        extra: Vec::new(),
    })
}

#[cfg(test)]
fn merge_agent(old: &AgentSnapshot, new: &AgentSnapshot) -> Option<AgentSnapshot> {
    if old.kind != new.kind || old.n_states != new.n_states || old.n_actions != new.n_actions {
        return None;
    }
    let visits_old = old.visit_matrix();
    let visits_new = new.visit_matrix();
    let q = old
        .q
        .iter()
        .zip(&new.q)
        .enumerate()
        .map(|(i, (&qo, &qn))| {
            let (vo, vn) = (f64::from(visits_old[i]), f64::from(visits_new[i]));
            if vo + vn > 0.0 {
                (vo * qo + vn * qn) / (vo + vn)
            } else {
                0.5 * (qo + qn)
            }
        })
        .collect();
    let action_counts = old
        .action_counts
        .iter()
        .zip(&new.action_counts)
        .map(|(&a, &b)| a.saturating_add(b))
        .collect();
    let mut counts: BTreeMap<(u32, u32, u32), u32> = BTreeMap::new();
    for t in old.transitions.iter().chain(&new.transitions) {
        let slot = counts.entry((t.state, t.action, t.next_state)).or_insert(0);
        *slot = slot.saturating_add(t.count);
    }
    let transitions = counts
        .into_iter()
        .map(|((state, action, next_state), count)| TransitionRecord {
            state,
            action,
            next_state,
            count,
        })
        .collect();
    Some(AgentSnapshot {
        kind: old.kind,
        n_states: old.n_states,
        n_actions: old.n_actions,
        q,
        action_counts,
        transitions,
    })
}

/// Wraps a controller factory so every session it builds is seeded from
/// the store before its first frame. Cold starts happen transparently
/// when the store has no compatible knowledge for the session's class.
pub fn warm_start_factory(
    store: SharedKnowledgeStore,
    base: ControllerFactory,
) -> ControllerFactory {
    Box::new(move |request| {
        let mut controller = base(request);
        if let Ok(mut store) = store.lock() {
            store.seed(SessionClass::of_request(request), controller.as_mut());
        }
        controller
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamut_core::{Constraints, KnobSettings, MamutConfig, MamutController, Observation};

    fn trained(seed: u64, frames: u64) -> MamutController {
        let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(seed)).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..frames {
            let o = Observation {
                fps: 24.0 + (f % 5) as f64,
                psnr_db: 34.0,
                bitrate_mbps: 4.0,
                power_w: 80.0,
            };
            ctl.begin_frame(f, &o, &c);
            ctl.end_frame(f, &o, &c);
        }
        ctl
    }

    #[test]
    fn publish_and_seed_round_trip() {
        let teacher = trained(1, 30_000);
        let mut store = KnowledgeStore::new(MergePolicy::Replace);
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&teacher)),
            PublishOutcome::Inserted
        );
        let mut pupil = MamutController::new(MamutConfig::paper_hr().with_seed(9)).unwrap();
        assert!(store.seed(SessionClass::Hr, &mut pupil));
        assert_eq!(store.seeds_served(), 1);
        // The pupil adopted the teacher's tables.
        let k = store.knowledge(SessionClass::Hr, "mamut").unwrap();
        assert_eq!(Controller::snapshot(&pupil).agents, k.snapshot.agents);
        // No LR knowledge yet.
        let mut lr = MamutController::new(MamutConfig::paper_lr()).unwrap();
        assert!(!store.seed(SessionClass::Lr, &mut lr));
    }

    #[test]
    fn incompatible_knowledge_leaves_controller_cold() {
        // HR knowledge (12 thread actions) cannot seed an LR controller.
        let teacher = trained(1, 5_000);
        let mut store = KnowledgeStore::new(MergePolicy::Replace);
        store.publish(SessionClass::Lr, &Controller::snapshot(&teacher)); // mislabeled
        let mut pupil = MamutController::new(MamutConfig::paper_lr()).unwrap();
        assert!(!store.seed(SessionClass::Lr, &mut pupil));
        assert_eq!(store.seeds_served(), 0);
        assert_eq!(store.seed_attempts(), 1);
    }

    #[test]
    fn foreign_controller_publishes_never_clobber_class_knowledge() {
        // A mixed fleet: a heuristic session finishing must not displace
        // the MAMUT tables for its class — entries are keyed by
        // (class, controller tag).
        use mamut_baselines::{HeuristicConfig, HeuristicController};
        let teacher = trained(1, 30_000);
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &Controller::snapshot(&teacher));
        let heuristic = HeuristicController::new(HeuristicConfig::paper_hr()).unwrap();
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&heuristic)),
            PublishOutcome::Inserted,
            "tableless snapshot lands in its own entry"
        );
        // MAMUT seeding still works off the intact tables.
        let mut pupil = MamutController::new(MamutConfig::paper_hr().with_seed(3)).unwrap();
        assert!(store.seed(SessionClass::Hr, &mut pupil));
        assert!(store
            .knowledge(SessionClass::Hr, "heuristic")
            .is_some_and(|k| k.snapshot.agents.is_empty()));
    }

    #[test]
    fn visit_weighted_merge_weights_by_visits() {
        let mut a = PolicySnapshot::tableless("t", KnobSettings::new(32, 4, 2.6));
        a.agents.push(AgentSnapshot {
            kind: mamut_core::AgentKind::Qp,
            n_states: 1,
            n_actions: 1,
            q: vec![1.0],
            action_counts: vec![3],
            transitions: vec![TransitionRecord {
                state: 0,
                action: 0,
                next_state: 0,
                count: 3,
            }],
        });
        let mut b = a.clone();
        b.agents[0].q = vec![4.0];
        b.agents[0].action_counts = vec![1];
        b.agents[0].transitions[0].count = 1;
        let merged = visit_weighted_merge(&a, &b).unwrap();
        // (3·1 + 1·4) / 4 = 1.75
        assert!((merged.agents[0].q[0] - 1.75).abs() < 1e-12);
        assert_eq!(merged.agents[0].action_counts, vec![4]);
        assert_eq!(merged.agents[0].transitions[0].count, 4);
    }

    #[test]
    fn merge_policy_governs_publishes() {
        let teacher_a = trained(1, 8_000);
        let teacher_b = trained(2, 8_000);
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &Controller::snapshot(&teacher_a));
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&teacher_b)),
            PublishOutcome::Merged
        );
        let k = store.knowledge(SessionClass::Hr, "mamut").unwrap();
        assert_eq!(k.contributions, 2);
        let merged_visits: u64 = k.snapshot.agents.iter().map(|a| a.total_visits()).sum();
        let sep: u64 = [&teacher_a, &teacher_b]
            .iter()
            .flat_map(|t| Controller::snapshot(*t).agents)
            .map(|a| a.total_visits())
            .sum();
        assert_eq!(merged_visits, sep, "visits accumulate across publishes");
        // Structurally different knowledge replaces instead of merging.
        let lr = MamutController::new(MamutConfig::paper_lr()).unwrap();
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&lr)),
            PublishOutcome::Replaced
        );
    }

    #[test]
    fn incremental_store_merge_equals_the_pairwise_fold() {
        // The store's in-place accumulator must produce exactly what a
        // left fold of the naive pairwise merge produces — same Q-values
        // (bitwise), same counts, same canonical transition order —
        // across a chain of differently trained contributors.
        let teachers: Vec<_> = (0..4).map(|i| trained(10 + i, 4_000 + 2_000 * i)).collect();
        let snapshots: Vec<_> = teachers
            .iter()
            .map(|t| Controller::snapshot(t).into_knowledge())
            .collect();

        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        for s in &snapshots {
            store.publish(SessionClass::Hr, s);
        }
        let merged = &store.knowledge(SessionClass::Hr, "mamut").unwrap().snapshot;

        let folded = snapshots[1..].iter().fold(snapshots[0].clone(), |acc, s| {
            visit_weighted_merge(&acc, s).expect("same shape")
        });

        assert_eq!(merged.agents.len(), folded.agents.len());
        for (m, f) in merged.agents.iter().zip(&folded.agents) {
            let m_bits: Vec<u64> = m.q.iter().map(|q| q.to_bits()).collect();
            let f_bits: Vec<u64> = f.q.iter().map(|q| q.to_bits()).collect();
            assert_eq!(m_bits, f_bits, "Q tables must match bitwise");
            assert_eq!(m.action_counts, f.action_counts);
            assert_eq!(m.transitions, f.transitions);
        }
        assert_eq!(merged.exploration_decisions, folded.exploration_decisions);
        assert_eq!(merged.exploitation_decisions, folded.exploitation_decisions);
        assert_eq!(merged.knobs, folded.knobs);
    }

    #[test]
    fn replace_after_merging_resets_the_accumulator() {
        // A shape-incompatible publish replaces the entry; merges after
        // that must accumulate from the replacement, not from stale
        // visit totals of the displaced knowledge.
        let hr_a = trained(1, 6_000);
        let hr_b = trained(2, 6_000);
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &Controller::snapshot(&hr_a));
        store.publish(SessionClass::Hr, &Controller::snapshot(&hr_b));
        // LR tables have a different shape: forces a replace.
        let lr = MamutController::new(MamutConfig::paper_lr().with_seed(3)).unwrap();
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&lr)),
            PublishOutcome::Replaced
        );
        let lr_visits: u64 = Controller::snapshot(&lr)
            .agents
            .iter()
            .map(|a| a.total_visits())
            .sum();
        let k = store.knowledge(SessionClass::Hr, "mamut").unwrap();
        let stored: u64 = k.snapshot.agents.iter().map(|a| a.total_visits()).sum();
        assert_eq!(stored, lr_visits, "replacement discards old visit totals");
        // And a follow-up merge accumulates on top of the replacement.
        let lr2 = MamutController::new(MamutConfig::paper_lr().with_seed(4)).unwrap();
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&lr2)),
            PublishOutcome::Merged
        );
    }

    #[test]
    fn visit_weighted_merge_into_an_empty_store_inserts() {
        // The merge policy only matters from the second publish on: the
        // first contribution to an empty store must land as-is.
        let teacher = trained(4, 5_000);
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        assert_eq!(
            store.publish(SessionClass::Hr, &Controller::snapshot(&teacher)),
            PublishOutcome::Inserted
        );
        let k = store.knowledge(SessionClass::Hr, "mamut").unwrap();
        assert_eq!(k.contributions, 1);
        assert_eq!(
            k.snapshot.agents,
            Controller::snapshot(&teacher).into_knowledge().agents
        );
    }

    #[test]
    fn visit_weighted_merge_with_zero_total_visits_averages() {
        // Neither side has visited the cell: the merge cannot weight by
        // visits, so it falls back to the arithmetic mean instead of
        // dividing by zero.
        let mut a = PolicySnapshot::tableless("t", KnobSettings::new(32, 4, 2.6));
        a.agents.push(AgentSnapshot {
            kind: mamut_core::AgentKind::Qp,
            n_states: 1,
            n_actions: 1,
            q: vec![2.0],
            action_counts: vec![0],
            transitions: Vec::new(),
        });
        let mut b = a.clone();
        b.agents[0].q = vec![6.0];
        let merged = visit_weighted_merge(&a, &b).unwrap();
        assert!((merged.agents[0].q[0] - 4.0).abs() < 1e-12, "plain average");
        assert_eq!(merged.agents[0].action_counts, vec![0]);
        assert!(merged.agents[0].transitions.is_empty());
        // Through the store: two zero-visit publishes still merge cleanly.
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Lr, &a);
        assert_eq!(store.publish(SessionClass::Lr, &b), PublishOutcome::Merged);
        let k = store.knowledge(SessionClass::Lr, "t").unwrap();
        assert!((k.snapshot.agents[0].q[0] - 4.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_merges_knowledge_without_counting_publishes() {
        let (a, b) = (trained(1, 8_000), trained(2, 8_000));
        // Reference: both sessions publish into one store.
        let mut flat = KnowledgeStore::new(MergePolicy::VisitWeighted);
        flat.publish(SessionClass::Hr, &Controller::snapshot(&a));
        flat.publish(SessionClass::Hr, &Controller::snapshot(&b));
        // Sharded: one publish per store, then a sync absorb.
        let mut east = KnowledgeStore::new(MergePolicy::VisitWeighted);
        let mut west = KnowledgeStore::new(MergePolicy::VisitWeighted);
        east.publish(SessionClass::Hr, &Controller::snapshot(&a));
        west.publish(SessionClass::Hr, &Controller::snapshot(&b));
        east.absorb(&west);
        assert_eq!(east.publishes(), 1, "absorb is not a publish");
        let merged = east.knowledge(SessionClass::Hr, "mamut").unwrap();
        let reference = flat.knowledge(SessionClass::Hr, "mamut").unwrap();
        assert_eq!(merged.contributions, 2);
        assert_eq!(
            merged.snapshot.encode(),
            reference.snapshot.encode(),
            "absorbing a single-contributor store equals publishing it here"
        );
        // Absorbing into an empty store copies entries wholesale.
        let mut empty = KnowledgeStore::new(MergePolicy::VisitWeighted);
        empty.absorb(&east);
        assert_eq!(empty.publishes(), 0);
        assert_eq!(
            empty
                .knowledge(SessionClass::Hr, "mamut")
                .unwrap()
                .snapshot
                .encode(),
            merged.snapshot.encode()
        );
    }

    #[test]
    fn adopt_keeps_local_counters_and_takes_global_tables() {
        let mut global = KnowledgeStore::new(MergePolicy::VisitWeighted);
        global.publish(SessionClass::Hr, &Controller::snapshot(&trained(1, 8_000)));
        global.publish(SessionClass::Hr, &Controller::snapshot(&trained(2, 8_000)));
        let mut shard = KnowledgeStore::new(MergePolicy::VisitWeighted);
        shard.publish(SessionClass::Hr, &Controller::snapshot(&trained(3, 4_000)));
        shard.adopt_knowledge(&global);
        assert_eq!(shard.publishes(), 1, "local history survives adoption");
        let adopted = shard.knowledge(SessionClass::Hr, "mamut").unwrap();
        let source = global.knowledge(SessionClass::Hr, "mamut").unwrap();
        assert_eq!(adopted.contributions, source.contributions);
        assert_eq!(adopted.snapshot.encode(), source.snapshot.encode());
        // The adopted entry merges cleanly afterwards (acc rebuilds).
        assert_eq!(
            shard.publish(SessionClass::Hr, &Controller::snapshot(&trained(4, 4_000))),
            PublishOutcome::Merged
        );
    }

    #[test]
    fn store_snapshot_restore_round_trips_byte_identically() {
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &Controller::snapshot(&trained(1, 8_000)));
        store.publish(SessionClass::Hr, &Controller::snapshot(&trained(2, 8_000)));
        store.publish(SessionClass::Lr, &{
            let lr = MamutController::new(MamutConfig::paper_lr().with_seed(3)).unwrap();
            Controller::snapshot(&lr)
        });
        let mut pupil = MamutController::new(MamutConfig::paper_hr().with_seed(9)).unwrap();
        assert!(store.seed(SessionClass::Hr, &mut pupil));

        let bytes = store.encode();
        let back = KnowledgeStore::decode(&bytes).unwrap();
        assert_eq!(back.policy(), MergePolicy::VisitWeighted);
        assert_eq!(back.publishes(), store.publishes());
        assert_eq!(back.seeds_served(), store.seeds_served());
        assert_eq!(back.seed_attempts(), store.seed_attempts());
        assert_eq!(back.encode(), bytes, "re-encoding is byte-identical");

        // Warm starts survive the "restart": the restored store seeds a
        // fresh controller with exactly the tables the original would.
        let mut a = MamutController::new(MamutConfig::paper_hr().with_seed(7)).unwrap();
        let mut b = MamutController::new(MamutConfig::paper_hr().with_seed(7)).unwrap();
        let mut back = back;
        assert!(store.seed(SessionClass::Hr, &mut a));
        assert!(back.seed(SessionClass::Hr, &mut b));
        assert_eq!(
            Controller::snapshot(&a).encode(),
            Controller::snapshot(&b).encode()
        );
    }

    #[test]
    fn merges_after_a_restore_match_merges_without_one() {
        // The accumulator is derived state: a store that restarts
        // between publishes must end bitwise identical to one that
        // never did.
        let snaps: Vec<_> = (0..3)
            .map(|i| Controller::snapshot(&trained(20 + i, 5_000)))
            .collect();
        let mut continuous = KnowledgeStore::new(MergePolicy::VisitWeighted);
        continuous.publish(SessionClass::Hr, &snaps[0]);
        continuous.publish(SessionClass::Hr, &snaps[1]);

        let mut restarted = KnowledgeStore::decode(
            &{
                let mut s = KnowledgeStore::new(MergePolicy::VisitWeighted);
                s.publish(SessionClass::Hr, &snaps[0]);
                s.publish(SessionClass::Hr, &snaps[1]);
                s
            }
            .encode(),
        )
        .unwrap();

        continuous.publish(SessionClass::Hr, &snaps[2]);
        restarted.publish(SessionClass::Hr, &snaps[2]);
        assert_eq!(continuous.encode(), restarted.encode());
    }

    #[test]
    fn store_restore_rejects_mangled_streams() {
        let mut store = KnowledgeStore::new(MergePolicy::Replace);
        store.publish(SessionClass::Hr, &Controller::snapshot(&trained(1, 2_000)));
        let bytes = store.encode();
        assert!(matches!(
            KnowledgeStore::decode(b"NOTASTORE...."),
            Err(SnapshotError::BadMagic)
        ));
        let mut newer = bytes.clone();
        newer[8] = 0xFF; // bump the version word
        assert!(matches!(
            KnowledgeStore::decode(&newer),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        for cut in 8..bytes.len() {
            assert!(
                KnowledgeStore::decode(&bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
        let mut trailing = bytes;
        trailing.push(0);
        assert!(KnowledgeStore::decode(&trailing).is_err());
    }

    #[test]
    fn warm_start_factory_with_no_class_entry_stays_cold() {
        // An empty store: the factory must hand out the base controller
        // untouched (and count the failed attempt), not fail or block.
        let shared = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let factory = warm_start_factory(
            Arc::clone(&shared),
            Box::new(|req| {
                let cfg = if req.hr {
                    MamutConfig::paper_hr()
                } else {
                    MamutConfig::paper_lr()
                };
                Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
            }),
        );
        let request = SessionRequest {
            id: 0,
            arrival_s: 0.0,
            hr: true,
            live: false,
            frames: 100,
            seed: 3,
        };
        let controller = factory(&request);
        let visits: u64 = controller
            .snapshot()
            .agents
            .iter()
            .map(|a| a.total_visits())
            .sum();
        assert_eq!(visits, 0, "cold start: no knowledge to adopt");
        let store = shared.lock().unwrap();
        assert_eq!(store.seed_attempts(), 1);
        assert_eq!(store.seeds_served(), 0);
        assert!(store.knowledge(SessionClass::Hr, "mamut").is_none());
    }

    #[test]
    fn warm_start_factory_seeds_transparently() {
        let teacher = trained(3, 30_000);
        let mut store = KnowledgeStore::new(MergePolicy::Replace);
        store.publish(SessionClass::Hr, &Controller::snapshot(&teacher));
        let shared = store.into_shared();
        let factory = warm_start_factory(
            Arc::clone(&shared),
            Box::new(|req| {
                let cfg = if req.hr {
                    MamutConfig::paper_hr()
                } else {
                    MamutConfig::paper_lr()
                };
                Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
            }),
        );
        let hr_request = SessionRequest {
            id: 0,
            arrival_s: 0.0,
            hr: true,
            live: false,
            frames: 100,
            seed: 11,
        };
        let visits = |c: &dyn Controller| -> u64 {
            c.snapshot().agents.iter().map(|a| a.total_visits()).sum()
        };
        let warm = factory(&hr_request);
        assert!(visits(warm.as_ref()) > 0, "tables adopted");
        let lr_request = SessionRequest {
            hr: false,
            ..hr_request.clone()
        };
        let cold = factory(&lr_request);
        assert_eq!(visits(cold.as_ref()), 0, "no LR knowledge");
        assert_eq!(shared.lock().unwrap().seeds_served(), 1);
        assert_eq!(shared.lock().unwrap().seed_attempts(), 2);
    }
}
