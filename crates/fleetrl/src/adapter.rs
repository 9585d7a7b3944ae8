//! Fleet-loop adapters: one learned policy driving both the autoscaler
//! and the dispatcher.
//!
//! The policy's joint action couples a scale move with a dispatch
//! preference, but the fleet loop consults two separate traits
//! ([`Autoscaler`](mamut_fleet::Autoscaler) and
//! [`Dispatcher`](mamut_fleet::Dispatcher)). A shared [`PolicyDriver`]
//! bridges the two: [`RlScaler`] runs the whole per-epoch decision
//! (featurize → reward the previous action → Q-update → select) and
//! stashes the chosen dispatch preference; [`RlDispatch`] reads that
//! preference when sessions arrive within the epoch. Both run on the
//! coordinating thread, never nested, so the mutex is uncontended and
//! determinism for any worker count comes for free — exactly like every
//! other fleet policy.

use std::sync::{Arc, Mutex};

use mamut_core::snapshot::SnapshotError;
use mamut_fleet::{
    Autoscaler, DispatchDecision, Dispatcher, ForecastScaler, HoltWinters, LeastLoaded, NodeView,
    PolicySource, PowerAware, ScaleDecision, ScaleSignals, SessionRequest,
};

use crate::featurize::{FeatureConfig, FleetFeaturizer};
use crate::policy::{DispatchPref, FleetPolicy, JointAction, ScaleMove};

/// Reward weights and observation shape for the learned fleet control.
#[derive(Debug, Clone, PartialEq)]
pub struct RlConfig {
    /// Featurizer bucket edges and pool limits.
    pub features: FeatureConfig,
    /// Reward penalty per unit of pool fraction (node-epochs are what
    /// the fleet pays for; this is the "smaller pool" pressure).
    pub w_pool: f64,
    /// Reward penalty per unit of mean power-cap fraction.
    pub w_power: f64,
    /// Season length (epochs) of the driver's internal Holt-Winters
    /// forecaster, whose one-step error feeds the state.
    pub season_epochs: usize,
    /// Concurrent sessions one node is sized for (the Little's-law
    /// divisor; keep in sync with the sweep's sizing constants).
    pub sessions_per_node: f64,
}

impl Default for RlConfig {
    fn default() -> Self {
        RlConfig {
            features: FeatureConfig::default(),
            w_pool: 0.6,
            w_power: 0.2,
            season_epochs: 16,
            sessions_per_node: 3.5,
        }
    }
}

/// One recorded `(s, a, r, s′)` step, consumed by the offline trainer's
/// replay passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transition {
    /// Featurized state the action was taken in.
    pub state: usize,
    /// The joint action taken.
    pub action: JointAction,
    /// Reward observed at the next epoch boundary.
    pub reward: f64,
    /// Featurized successor state.
    pub next_state: usize,
}

/// The shared decision core behind [`RlScaler`] and [`RlDispatch`].
///
/// Owns the policy, the featurizer and a private one-epoch-lead
/// [`ForecastScaler`] over a Holt-Winters forecaster, whose planned rate
/// is the Little's-law base target; records transitions for replay when
/// in training mode.
#[derive(Debug)]
pub struct PolicyDriver {
    policy: FleetPolicy,
    featurizer: FleetFeaturizer,
    /// Sizes the base target; only its observation and rate planning are
    /// used, never its own `plan`.
    scaler: ForecastScaler,
    prev_forecast_hz: Option<f64>,
    prev: Option<(usize, JointAction)>,
    train: bool,
    pref: DispatchPref,
    last_source: PolicySource,
    transitions: Vec<Transition>,
    w_pool: f64,
    w_power: f64,
    season_epochs: usize,
}

/// A [`PolicyDriver`] shared between the scaler and dispatcher halves.
pub type SharedDriver = Arc<Mutex<PolicyDriver>>;

impl PolicyDriver {
    /// A driver around an explicit `policy` (its state count must match
    /// the featurizer `config` describes).
    ///
    /// # Panics
    ///
    /// When `policy.n_states()` differs from the featurizer's.
    pub fn new(config: RlConfig, policy: FleetPolicy) -> Self {
        let featurizer = FleetFeaturizer::new(config.features.clone());
        assert_eq!(
            policy.n_states(),
            featurizer.n_states(),
            "policy shape must match the featurizer"
        );
        PolicyDriver {
            policy,
            featurizer,
            scaler: base_scaler(config.season_epochs, config.sessions_per_node, 10.0),
            prev_forecast_hz: None,
            prev: None,
            train: false,
            pref: DispatchPref::LeastLoaded,
            last_source: PolicySource::Heuristic,
            transitions: Vec::new(),
            w_pool: config.w_pool,
            w_power: config.w_power,
            season_epochs: config.season_epochs,
        }
    }

    /// A driver with a fresh zero-initialized policy seeded from `seed`.
    pub fn seeded(config: RlConfig, seed: u64) -> Self {
        let n_states = FleetFeaturizer::new(config.features.clone()).n_states();
        PolicyDriver::new(config, FleetPolicy::new(n_states, seed))
    }

    /// Wraps the driver for sharing between [`RlScaler`] and
    /// [`RlDispatch`].
    pub fn into_shared(self) -> SharedDriver {
        Arc::new(Mutex::new(self))
    }

    /// Switches between ε-greedy training (transitions recorded, online
    /// Q-updates applied) and pure greedy evaluation.
    pub fn set_train(&mut self, train: bool) {
        self.train = train;
    }

    /// Resets per-episode observation state (forecaster, pending
    /// transition) without touching the learned policy — called between
    /// training episodes so one scenario's tail never rewards another's
    /// opening action.
    pub fn begin_episode(&mut self) {
        self.scaler = base_scaler(
            self.season_epochs,
            self.scaler.sessions_per_node,
            self.scaler.mean_session_s,
        );
        self.prev_forecast_hz = None;
        self.prev = None;
        self.pref = DispatchPref::LeastLoaded;
        self.last_source = PolicySource::Heuristic;
    }

    /// Sets the expected session residence (virtual seconds) the
    /// Little's-law base target is computed from — workload knowledge
    /// the heuristic scalers also receive, not policy.
    pub fn set_mean_session_s(&mut self, mean_session_s: f64) {
        self.scaler.mean_session_s = mean_session_s.max(1e-9);
    }

    /// Drains the transitions recorded since the last call.
    pub fn take_transitions(&mut self) -> Vec<Transition> {
        std::mem::take(&mut self.transitions)
    }

    /// Read access to the learned policy.
    pub fn policy(&self) -> &FleetPolicy {
        &self.policy
    }

    /// Mutable access to the learned policy (replay passes go through
    /// here).
    pub fn policy_mut(&mut self) -> &mut FleetPolicy {
        &mut self.policy
    }

    /// Serializes the learned policy (see
    /// [`FleetPolicy::snapshot_state`]).
    pub fn snapshot_state(&self) -> Vec<u8> {
        self.policy.snapshot_state()
    }

    /// Restores the learned policy (see
    /// [`FleetPolicy::restore_state`]).
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a fleet-policy state of
    /// this policy's shape.
    pub fn restore_state(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        self.policy.restore_state(bytes)
    }

    /// Mean-QoS-slack reward minus pool-size and power penalties.
    fn reward(&self, signals: &ScaleSignals) -> f64 {
        let (_, max_nodes) = self.featurizer.config().pool;
        if signals.active.is_empty() {
            // An empty pool serves nobody: the worst slack, no offsets.
            return 0.0;
        }
        let n = signals.active.len() as f64;
        let slack = signals.active.iter().map(NodeView::qos_slack).sum::<f64>() / n;
        let pool_fraction = n / (max_nodes.max(1) as f64);
        let power_fraction = signals
            .active
            .iter()
            .map(|v| {
                if v.power_cap_w > 0.0 {
                    (v.power_w / v.power_cap_w).clamp(0.0, 1.0)
                } else {
                    0.0
                }
            })
            .sum::<f64>()
            / n;
        slack - self.w_pool * pool_fraction - self.w_power * power_fraction
    }

    /// The whole per-epoch decision; called from [`RlScaler::plan`].
    ///
    /// The learned action is a *residual* on a Little's-law base
    /// target: the policy picks an offset of −1/0/+1 nodes around what
    /// the blended forecast says the pool should be, plus the dispatch
    /// preference. The base target carries the fleet through ramps the
    /// way the heuristic scalers do; the policy learns *when* the
    /// forecast under- or over-calls demand.
    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        let instant_hz = signals.arrivals_due as f64 / signals.epoch_s.max(1e-9);
        let forecast_err = match self.prev_forecast_hz {
            Some(f) => {
                let denom = 0.5 * (instant_hz + f);
                if denom <= 1e-9 {
                    0.0
                } else {
                    (instant_hz - f) / denom
                }
            }
            None => 0.0,
        };
        let state = self.featurizer.featurize(signals, forecast_err);

        // Reward the previous boundary's action with what it led to.
        if let Some((prev_state, prev_action)) = self.prev {
            let reward = self.reward(signals);
            if self.train {
                self.policy
                    .update(prev_state, prev_action, reward, state.index);
                self.transitions.push(Transition {
                    state: prev_state,
                    action: prev_action,
                    reward,
                    next_state: state.index,
                });
            }
        }

        let (action, exploratory) = if self.train {
            self.policy.select(state.index)
        } else {
            (self.policy.greedy(state.index), false)
        };
        self.pref = action.pref;
        self.last_source = if exploratory {
            PolicySource::Exploratory
        } else {
            PolicySource::Greedy
        };
        self.prev = Some((state.index, action));

        self.scaler.observe(signals);
        self.prev_forecast_hz = Some(self.scaler.forecaster().forecast_hz(1));

        // Little's law on the blended rate, plus the queued backlog,
        // then the learned offset.
        let (min_nodes, max_nodes) = self.featurizer.config().pool;
        let expected = self.scaler.planned_rate_hz(signals.epoch_s) * self.scaler.mean_session_s
            + signals.queued_sessions as f64;
        let base = (expected / self.scaler.sessions_per_node).ceil() as i64;
        let offset = match action.scale {
            ScaleMove::Shrink => -1,
            ScaleMove::Hold => 0,
            ScaleMove::Grow => 1,
        };
        let desired = (base + offset).clamp(min_nodes as i64, max_nodes as i64) as usize;
        let pool = signals.active.len();
        match desired.cmp(&pool) {
            std::cmp::Ordering::Greater => ScaleDecision::Grow(desired - pool),
            std::cmp::Ordering::Less => ScaleDecision::Shrink(pool - desired),
            std::cmp::Ordering::Equal => ScaleDecision::Hold,
        }
    }

    /// Places `request` following the current dispatch preference.
    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        match self.pref {
            DispatchPref::LeastLoaded => LeastLoaded.dispatch(request, nodes),
            DispatchPref::PowerHeadroom => PowerAware.dispatch(request, nodes),
            DispatchPref::QosSlack => nodes
                .iter()
                .max_by(|a, b| {
                    a.qos_slack()
                        .total_cmp(&b.qos_slack())
                        .then(b.utilization().total_cmp(&a.utilization()))
                        .then(b.node_id.cmp(&a.node_id))
                })
                .map_or(DispatchDecision::Reject, |n| {
                    DispatchDecision::Assign(n.node_id)
                }),
        }
    }
}

/// The Little's-law sizing behind the base target: a [`ForecastScaler`]
/// over a fresh Holt-Winters season that plans one epoch ahead. The
/// fields are set directly, so sessions per node keep the configured
/// value unclamped.
fn base_scaler(
    season_epochs: usize,
    sessions_per_node: f64,
    mean_session_s: f64,
) -> ForecastScaler {
    let mut scaler =
        ForecastScaler::new(Box::new(HoltWinters::new(season_epochs))).with_lead_epochs(1);
    scaler.sessions_per_node = sessions_per_node;
    scaler.mean_session_s = mean_session_s;
    scaler
}

/// The learned pool-sizing half: an [`Autoscaler`] that delegates every
/// epoch boundary to the shared [`PolicyDriver`].
#[derive(Debug)]
pub struct RlScaler {
    driver: SharedDriver,
}

impl RlScaler {
    /// A scaler over `driver`.
    pub fn new(driver: SharedDriver) -> Self {
        RlScaler { driver }
    }
}

impl Autoscaler for RlScaler {
    fn name(&self) -> &'static str {
        "rl-scaler"
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        self.driver.lock().expect("driver lock").plan(signals)
    }

    fn decision_source(&self) -> PolicySource {
        self.driver.lock().expect("driver lock").last_source
    }

    fn decision_detail(&self) -> Option<String> {
        let driver = self.driver.lock().expect("driver lock");
        driver.prev.map(|(state, action)| {
            format!(
                "state={state} scale={:?} pref={:?}",
                action.scale, action.pref
            )
        })
    }
}

/// The learned placement half: a [`Dispatcher`] that follows the
/// dispatch preference the policy chose at the last epoch boundary.
#[derive(Debug)]
pub struct RlDispatch {
    driver: SharedDriver,
}

impl RlDispatch {
    /// A dispatcher over `driver`.
    pub fn new(driver: SharedDriver) -> Self {
        RlDispatch { driver }
    }
}

impl Dispatcher for RlDispatch {
    fn name(&self) -> &'static str {
        "rl-dispatch"
    }

    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        self.driver
            .lock()
            .expect("driver lock")
            .dispatch(request, nodes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(node_id: usize, threads: u32, qos_violation: f64, power_w: f64) -> NodeView {
        NodeView {
            node_id,
            active_sessions: (threads / 4) as usize,
            threads_demanded: threads,
            planned_threads: threads,
            hw_threads: 32,
            power_w,
            power_cap_w: 120.0,
            qos_violation_percent: qos_violation,
            resident_shapes: Vec::new(),
        }
    }

    fn signals<'a>(active: &'a [NodeView], arrivals: usize) -> ScaleSignals<'a> {
        ScaleSignals {
            epoch: 0,
            epoch_s: 1.0,
            active,
            arrivals_due: arrivals,
            queued_sessions: 0,
            pending_sessions: 0,
        }
    }

    fn request() -> SessionRequest {
        SessionRequest {
            id: 0,
            arrival_s: 0.0,
            hr: false,
            live: false,
            frames: 32,
            seed: 0,
        }
    }

    #[test]
    fn the_learned_offset_rides_a_clamped_littles_law_target() {
        let cfg = RlConfig {
            features: FeatureConfig {
                pool: (1, 2),
                ..FeatureConfig::default()
            },
            ..RlConfig::default()
        };
        let mut driver = PolicyDriver::seeded(cfg, 1);
        let one = [view(0, 4, 0.0, 50.0)];
        let two = [view(0, 4, 0.0, 50.0), view(1, 4, 0.0, 50.0)];
        // mean_session_s = 10, sessions_per_node = 3.5: zero arrivals
        // put the base target at the floor (1); 35 arrivals/epoch push
        // it far past the ceiling (2).
        for (nodes, arrivals, mv, expect) in [
            // Floor: desired = clamp(0 − 1) = 1 = pool.
            (&one[..], 0, ScaleMove::Shrink, ScaleDecision::Hold),
            // Even a +1 offset obeys the target: demand says one node.
            (&two[..], 0, ScaleMove::Grow, ScaleDecision::Shrink(1)),
            // Demand lifts the base target past the ceiling.
            (&one[..], 35, ScaleMove::Hold, ScaleDecision::Grow(1)),
            // Ceiling: desired clamps to 2 = pool.
            (&two[..], 35, ScaleMove::Grow, ScaleDecision::Hold),
        ] {
            driver.begin_episode();
            let s = driver.featurizer.featurize(&signals(nodes, arrivals), 0.0);
            let a = JointAction {
                scale: mv,
                pref: DispatchPref::LeastLoaded,
            };
            // Lift this action above everything else in this state so
            // the greedy pick is forced.
            driver.policy_mut().update(s.index, a, 1_000.0, s.index);
            assert_eq!(driver.plan(&signals(nodes, arrivals)), expect, "{mv:?}");
        }
    }

    #[test]
    fn eval_mode_is_greedy_and_records_nothing() {
        let mut driver = PolicyDriver::seeded(RlConfig::default(), 3);
        driver.set_train(false);
        let nodes = [view(0, 8, 0.0, 60.0)];
        for _ in 0..10 {
            driver.plan(&signals(&nodes, 1));
        }
        assert!(driver.take_transitions().is_empty());
        assert_eq!(driver.last_source, PolicySource::Greedy);
        assert_eq!(driver.policy().steps(), 0, "greedy eval never advances ε");
    }

    #[test]
    fn training_records_one_transition_per_boundary_after_the_first() {
        let mut driver = PolicyDriver::seeded(RlConfig::default(), 3);
        driver.set_train(true);
        let nodes = [view(0, 8, 0.0, 60.0)];
        for _ in 0..10 {
            driver.plan(&signals(&nodes, 1));
        }
        assert_eq!(driver.take_transitions().len(), 9);
        // A new episode severs the (s, a) chain.
        driver.begin_episode();
        driver.plan(&signals(&nodes, 1));
        assert!(driver.take_transitions().is_empty());
    }

    #[test]
    fn reward_prefers_healthy_small_low_power_fleets() {
        let driver = PolicyDriver::seeded(RlConfig::default(), 3);
        let healthy_small = [view(0, 8, 0.0, 50.0)];
        let suffering: Vec<NodeView> = (0..8).map(|i| view(i, 30, 40.0, 110.0)).collect();
        let r_good = driver.reward(&signals(&healthy_small, 0));
        let r_bad = driver.reward(&signals(&suffering, 0));
        assert!(
            r_good > r_bad + 0.3,
            "healthy {r_good} must clearly beat suffering {r_bad}"
        );
        assert_eq!(driver.reward(&signals(&[], 0)), 0.0);
    }

    #[test]
    fn dispatch_follows_the_stashed_preference() {
        let mut driver = PolicyDriver::seeded(RlConfig::default(), 3);
        // node 0: busy, lots of headroom; node 1: idle, little headroom,
        // poor QoS; node 2: idle, medium headroom, perfect QoS.
        let nodes = [
            view(0, 24, 2.0, 40.0),
            view(1, 2, 30.0, 110.0),
            view(2, 2, 0.0, 80.0),
        ];
        let req = request();
        for (pref, expect) in [
            (DispatchPref::LeastLoaded, 1), // ties on util broken by sessions/id
            (DispatchPref::PowerHeadroom, 0),
            (DispatchPref::QosSlack, 2),
        ] {
            driver.pref = pref;
            assert_eq!(
                driver.dispatch(&req, &nodes),
                DispatchDecision::Assign(expect),
                "{pref:?}"
            );
        }
        assert_eq!(driver.dispatch(&req, &[]), DispatchDecision::Reject);
    }
}
