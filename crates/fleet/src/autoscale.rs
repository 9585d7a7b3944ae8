//! Elastic pool sizing: grow and shrink the node pool with demand.
//!
//! The paper keeps one server inside real-time/power budgets; at fleet
//! scale the pool itself must follow load — the KaaS resource-management
//! line and digital-twin collaborative transcoding both provision
//! capacity ahead of predicted demand instead of paying for a worst-case
//! pool around the clock. The [`Autoscaler`] is consulted once per epoch
//! boundary on the coordinating thread (so scaling inherits the fleet's
//! worker-count determinism) and answers with a pool-size decision; the
//! fleet executes it:
//!
//! * **grow** — commission fresh nodes through the installed
//!   [`NodeProvisioner`](crate::NodeProvisioner), clock-aligned to the
//!   boundary and (when a knowledge store is attached) warm-starting
//!   every session they build from the fleet's merged knowledge;
//! * **shrink** — drain a node's live sessions to its peers via the
//!   migration path ([`FleetNode::drain`](crate::FleetNode::drain) →
//!   [`attach_session`](crate::FleetNode::attach_session)), then retire
//!   it. Drain always precedes decommission: no session is ever dropped.
//!
//! Three policies ship: [`ThresholdScaler`] reacts to observed
//! utilization/QoS with hysteresis and a cooldown, [`PredictiveScaler`]
//! follows an EWMA of the arrival rate through Little's law, and
//! [`ForecastScaler`] provisions *ahead* of predicted load by feeding
//! any [`Forecaster`](crate::Forecaster) (seasonal-naive, Holt-Winters)
//! through the same law.

use std::cmp::Ordering;

use crate::dispatch::NodeView;
use crate::forecast::Forecaster;

/// What the autoscaler sees at one epoch boundary. Views cover the
/// *active* pool only — draining or retired nodes are no longer capacity.
#[derive(Debug)]
pub struct ScaleSignals<'a> {
    /// The epoch about to be simulated.
    pub epoch: u64,
    /// Epoch length (virtual seconds).
    pub epoch_s: f64,
    /// Read-only views of the active nodes, in id order.
    pub active: &'a [NodeView],
    /// Arrivals due for dispatch at this boundary.
    pub arrivals_due: usize,
    /// Sessions parked in the retry queue by a gating dispatcher.
    pub queued_sessions: usize,
    /// Arrivals still in the future (demand yet to come).
    pub pending_sessions: usize,
}

impl ScaleSignals<'_> {
    /// Mean thread-demand utilization over the active pool (0.0 when
    /// the pool is empty).
    pub fn mean_utilization(&self) -> f64 {
        if self.active.is_empty() {
            0.0
        } else {
            self.active.iter().map(NodeView::utilization).sum::<f64>() / self.active.len() as f64
        }
    }

    /// Mean QoS violation percentage over the active pool (0.0 when the
    /// pool is empty).
    pub fn mean_qos_violation_percent(&self) -> f64 {
        if self.active.is_empty() {
            0.0
        } else {
            self.active
                .iter()
                .map(|n| n.qos_violation_percent)
                .sum::<f64>()
                / self.active.len() as f64
        }
    }

    /// Sessions currently in the system: resident on active nodes or
    /// waiting in the retry queue.
    pub fn sessions_in_system(&self) -> usize {
        self.active.iter().map(|n| n.active_sessions).sum::<usize>() + self.queued_sessions
    }
}

/// One epoch boundary's pool-size decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleDecision {
    /// Keep the pool as it is.
    Hold,
    /// Commission this many fresh nodes.
    Grow(usize),
    /// Drain and retire this many nodes.
    Shrink(usize),
}

/// Where an autoscaler's last decision came from: a hand-tuned rule, a
/// learned policy exploiting its value estimates, or a learned policy
/// exploring. The fleet folds this into its per-run policy counters
/// ([`FleetSummary`](crate::FleetSummary) renders them), mirroring the
/// per-session exploration/exploitation split of the paper's agents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicySource {
    /// A hand-tuned rule (thresholds, EWMA, forecasting).
    Heuristic,
    /// A learned policy's greedy (argmax) pick.
    Greedy,
    /// A learned policy's ε-greedy exploratory draw.
    Exploratory,
}

/// An elastic pool-sizing policy, consulted once per epoch boundary.
///
/// `Send` for the same reason as [`Dispatcher`](crate::Dispatcher): the
/// fleet owning it may move across threads, but planning itself always
/// runs on the coordinating thread.
pub trait Autoscaler: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Plans this boundary's pool change. The fleet clamps the result to
    /// its own limits: shrink never empties the pool (at least one
    /// active node survives) and grow never pushes the lifetime pool
    /// past `FleetConfig::max_pool_nodes`.
    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision;

    /// Where the most recent [`Autoscaler::plan`] decision came from.
    /// Hand-tuned policies keep the default; learned policies report
    /// greedy vs. exploratory so the fleet's policy counters mirror the
    /// per-session exploration stats.
    fn decision_source(&self) -> PolicySource {
        PolicySource::Heuristic
    }

    /// Optional provenance for the most recent [`Autoscaler::plan`]
    /// decision, recorded into the telemetry event stream when tracing
    /// is enabled (the fleet never calls this otherwise, so policies
    /// can format freely without taxing the hot path). Learned policies
    /// report which joint action they took and why; heuristics can name
    /// the watermark that fired.
    fn decision_detail(&self) -> Option<String> {
        None
    }
}

/// Reactive scaling on utilization and QoS watermarks.
///
/// Grows when the pool runs hot (mean utilization above the high
/// watermark, QoS distress above the ceiling, or a gating dispatcher
/// queueing arrivals it cannot place); shrinks when the pool idles below
/// the low watermark with QoS healthy. The gap between the watermarks is
/// the hysteresis band — a fleet sitting between them holds — and a
/// cooldown keeps consecutive scaling events apart so one burst cannot
/// thrash the pool.
#[derive(Debug, Clone)]
pub struct ThresholdScaler {
    /// Grow when mean utilization exceeds this (high watermark).
    pub grow_above: f64,
    /// Shrink when mean utilization falls below this (low watermark;
    /// keep well under `grow_above` — the gap is the hysteresis band).
    pub shrink_below: f64,
    /// Grow when the pool-mean QoS violation percentage exceeds this,
    /// regardless of utilization (QoS headroom exhausted).
    pub qos_ceiling_percent: f64,
    /// Never shrink below this many active nodes.
    pub min_nodes: usize,
    /// Never grow above this many active nodes.
    pub max_nodes: usize,
    /// Epochs that must pass after a scaling event before the next one.
    pub cooldown_epochs: u64,
    last_scale_epoch: Option<u64>,
}

impl ThresholdScaler {
    /// Conservative defaults: grow above 75 % / shrink below 30 %
    /// utilization, 10 % QoS ceiling, pool of 1–8 nodes, 3-epoch
    /// cooldown.
    pub fn new() -> Self {
        ThresholdScaler {
            grow_above: 0.75,
            shrink_below: 0.30,
            qos_ceiling_percent: 10.0,
            min_nodes: 1,
            max_nodes: 8,
            cooldown_epochs: 3,
            last_scale_epoch: None,
        }
    }

    /// Overrides the utilization watermarks (hysteresis band between).
    pub fn with_watermarks(mut self, shrink_below: f64, grow_above: f64) -> Self {
        self.shrink_below = shrink_below;
        self.grow_above = grow_above;
        self
    }

    /// Overrides the pool-size limits.
    pub fn with_limits(mut self, min_nodes: usize, max_nodes: usize) -> Self {
        self.min_nodes = min_nodes.max(1);
        self.max_nodes = max_nodes.max(self.min_nodes);
        self
    }

    /// Overrides the QoS ceiling (percent of frames under target).
    pub fn with_qos_ceiling(mut self, percent: f64) -> Self {
        self.qos_ceiling_percent = percent;
        self
    }

    /// Overrides the cooldown between scaling events.
    pub fn with_cooldown(mut self, epochs: u64) -> Self {
        self.cooldown_epochs = epochs;
        self
    }
}

impl Default for ThresholdScaler {
    fn default() -> Self {
        ThresholdScaler::new()
    }
}

impl Autoscaler for ThresholdScaler {
    fn name(&self) -> &'static str {
        "threshold"
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        if cooling_down(self.last_scale_epoch, self.cooldown_epochs, signals.epoch) {
            return ScaleDecision::Hold;
        }
        let pool = signals.active.len();
        let utilization = signals.mean_utilization();
        let qos = signals.mean_qos_violation_percent();
        let hot = utilization > self.grow_above
            || qos > self.qos_ceiling_percent
            || signals.queued_sessions > 0;
        if hot && pool < self.max_nodes {
            self.last_scale_epoch = Some(signals.epoch);
            return ScaleDecision::Grow(1);
        }
        let idle = utilization < self.shrink_below
            && qos <= self.qos_ceiling_percent
            && signals.queued_sessions == 0;
        if idle && pool > self.min_nodes {
            self.last_scale_epoch = Some(signals.epoch);
            return ScaleDecision::Shrink(1);
        }
        ScaleDecision::Hold
    }
}

/// Whether a scaler that last changed the pool at `last_scale_epoch`
/// must still hold at `epoch`: fewer than `cooldown_epochs` have passed.
fn cooling_down(last_scale_epoch: Option<u64>, cooldown_epochs: u64, epoch: u64) -> bool {
    last_scale_epoch.is_some_and(|last| epoch.saturating_sub(last) < cooldown_epochs)
}

/// Little's-law sizing, shared by [`PredictiveScaler`] and
/// [`ForecastScaler`]: `concurrency` resident sessions (arrival rate ×
/// residence) plus the backlog already waiting, `sessions_per_node` to a
/// node, clamped to `min_nodes..=max_nodes`. Grows or shrinks the pool
/// to that size, stamping `last_scale_epoch` when it changes.
fn littles_law(
    signals: &ScaleSignals,
    last_scale_epoch: &mut Option<u64>,
    concurrency: f64,
    sessions_per_node: f64,
    (min_nodes, max_nodes): (usize, usize),
) -> ScaleDecision {
    let expected = concurrency + signals.queued_sessions as f64;
    let target = ((expected / sessions_per_node).ceil() as usize).clamp(min_nodes, max_nodes);
    let pool = signals.active.len();
    let decision = match target.cmp(&pool) {
        Ordering::Greater => ScaleDecision::Grow(target - pool),
        Ordering::Less => ScaleDecision::Shrink(pool - target),
        Ordering::Equal => return ScaleDecision::Hold,
    };
    *last_scale_epoch = Some(signals.epoch);
    decision
}

/// Predictive scaling on an EWMA of the arrival rate.
///
/// Tracks the churn workload's arrival rate with an exponentially
/// weighted moving average and sizes the pool by Little's law: expected
/// concurrency `L = λ · W` (arrival rate times expected session
/// residence), plus the queue backlog, divided by the per-node session
/// capacity. Capacity follows *predicted* load rather than waiting for
/// utilization to hurt — the digital-twin line of collaborative
/// transcoding.
#[derive(Debug, Clone)]
pub struct PredictiveScaler {
    /// EWMA smoothing factor in `(0, 1]`; higher chases bursts faster.
    pub alpha: f64,
    /// Expected session residence time (virtual seconds) — the `W` of
    /// Little's law.
    pub mean_session_s: f64,
    /// Concurrent sessions one node is provisioned for.
    pub sessions_per_node: f64,
    /// Never shrink below this many active nodes.
    pub min_nodes: usize,
    /// Never grow above this many active nodes.
    pub max_nodes: usize,
    /// Epochs that must pass after a scaling event before the next one.
    pub cooldown_epochs: u64,
    rate_hz: f64,
    primed: bool,
    last_scale_epoch: Option<u64>,
}

impl PredictiveScaler {
    /// Defaults: α = 0.3, 20 s expected residence, 4 sessions per node,
    /// pool of 1–16 nodes, 2-epoch cooldown.
    pub fn new() -> Self {
        PredictiveScaler {
            alpha: 0.3,
            mean_session_s: 20.0,
            sessions_per_node: 4.0,
            min_nodes: 1,
            max_nodes: 16,
            cooldown_epochs: 2,
            rate_hz: 0.0,
            primed: false,
            last_scale_epoch: None,
        }
    }

    /// Overrides the EWMA smoothing factor (clamped into `(0, 1]`).
    pub fn with_alpha(mut self, alpha: f64) -> Self {
        self.alpha = alpha.clamp(1e-6, 1.0);
        self
    }

    /// Overrides the expected session residence time.
    pub fn with_mean_session_s(mut self, seconds: f64) -> Self {
        self.mean_session_s = seconds.max(0.0);
        self
    }

    /// Overrides the per-node session capacity.
    pub fn with_sessions_per_node(mut self, sessions: f64) -> Self {
        self.sessions_per_node = sessions.max(1e-6);
        self
    }

    /// Overrides the pool-size limits.
    pub fn with_limits(mut self, min_nodes: usize, max_nodes: usize) -> Self {
        self.min_nodes = min_nodes.max(1);
        self.max_nodes = max_nodes.max(self.min_nodes);
        self
    }

    /// Overrides the cooldown between scaling events.
    pub fn with_cooldown(mut self, epochs: u64) -> Self {
        self.cooldown_epochs = epochs;
        self
    }

    /// The current smoothed arrival-rate estimate (Hz).
    pub fn rate_hz(&self) -> f64 {
        self.rate_hz
    }
}

impl Default for PredictiveScaler {
    fn default() -> Self {
        PredictiveScaler::new()
    }
}

impl Autoscaler for PredictiveScaler {
    fn name(&self) -> &'static str {
        "predictive-ewma"
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        // The rate estimate updates every boundary, cooldown or not —
        // holding must not blind the predictor to the burst it is
        // holding through.
        let instant_hz = signals.arrivals_due as f64 / signals.epoch_s.max(1e-9);
        self.rate_hz = if self.primed {
            self.alpha * instant_hz + (1.0 - self.alpha) * self.rate_hz
        } else {
            self.primed = true;
            instant_hz
        };
        if cooling_down(self.last_scale_epoch, self.cooldown_epochs, signals.epoch) {
            return ScaleDecision::Hold;
        }
        littles_law(
            signals,
            &mut self.last_scale_epoch,
            self.rate_hz * self.mean_session_s,
            self.sessions_per_node,
            (self.min_nodes, self.max_nodes),
        )
    }
}

/// Forecast-driven scaling: provisions capacity *ahead* of predicted
/// load.
///
/// Where [`PredictiveScaler`] smooths the observed arrival rate (and so
/// always lags it), a `ForecastScaler` consults a
/// [`Forecaster`](crate::Forecaster) — seasonal-naive, Holt-Winters, or
/// anything else implementing the trait — and provisions for predicted
/// *concurrency*, not predicted instantaneous rate. The distinction
/// matters on transients: sessions admitted during the last
/// `mean_session_s` seconds are still resident, so the concurrency `h`
/// epochs ahead follows Little's law with the *mean arrival rate over
/// the residence window ending there* — trailing observations blended
/// with leading forecasts. Sizing from the instantaneous forecast alone
/// would tear capacity down the moment the rate falls, while the
/// sessions that arrived at the peak still need it.
///
/// The pool is sized for the worst windowed rate over the next
/// `lead_epochs` boundaries: on seasonal traffic (diurnal cycles,
/// scheduled live events) it starts growing before the rise arrives and
/// sheds as the resident load — not merely the rate — drains away.
pub struct ForecastScaler {
    /// Epochs of lead time: the pool is sized for the worst windowed
    /// rate predicted over the next `lead_epochs` boundaries (≥ 1).
    pub lead_epochs: u64,
    /// Expected session residence time (virtual seconds) — the `W` of
    /// Little's law.
    pub mean_session_s: f64,
    /// Concurrent sessions one node is provisioned for.
    pub sessions_per_node: f64,
    /// Never shrink below this many active nodes.
    pub min_nodes: usize,
    /// Never grow above this many active nodes.
    pub max_nodes: usize,
    /// Epochs that must pass after a scaling event before the next one.
    pub cooldown_epochs: u64,
    forecaster: Box<dyn Forecaster>,
    /// Observed rates of the most recent epochs (back of the deque is
    /// the newest), as much history as one residence window needs.
    recent_hz: std::collections::VecDeque<f64>,
    last_scale_epoch: Option<u64>,
}

impl std::fmt::Debug for ForecastScaler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ForecastScaler")
            .field("forecaster", &self.forecaster.name())
            .field("lead_epochs", &self.lead_epochs)
            .field("mean_session_s", &self.mean_session_s)
            .field("sessions_per_node", &self.sessions_per_node)
            .finish_non_exhaustive()
    }
}

impl ForecastScaler {
    /// A scaler around `forecaster` with the same sizing defaults as
    /// [`PredictiveScaler`] (20 s expected residence, 4 sessions per
    /// node, pool of 1–16 nodes, 2-epoch cooldown) and 2 epochs of lead.
    pub fn new(forecaster: Box<dyn Forecaster>) -> Self {
        ForecastScaler {
            lead_epochs: 2,
            mean_session_s: 20.0,
            sessions_per_node: 4.0,
            min_nodes: 1,
            max_nodes: 16,
            cooldown_epochs: 2,
            forecaster,
            recent_hz: std::collections::VecDeque::new(),
            last_scale_epoch: None,
        }
    }

    /// Overrides the lead time (clamped to ≥ 1 epoch).
    pub fn with_lead_epochs(mut self, epochs: u64) -> Self {
        self.lead_epochs = epochs.max(1);
        self
    }

    /// Overrides the expected session residence time.
    pub fn with_mean_session_s(mut self, seconds: f64) -> Self {
        self.mean_session_s = seconds.max(0.0);
        self
    }

    /// Overrides the per-node session capacity.
    pub fn with_sessions_per_node(mut self, sessions: f64) -> Self {
        self.sessions_per_node = sessions.max(1e-6);
        self
    }

    /// Overrides the pool-size limits.
    pub fn with_limits(mut self, min_nodes: usize, max_nodes: usize) -> Self {
        self.min_nodes = min_nodes.max(1);
        self.max_nodes = max_nodes.max(self.min_nodes);
        self
    }

    /// Overrides the cooldown between scaling events.
    pub fn with_cooldown(mut self, epochs: u64) -> Self {
        self.cooldown_epochs = epochs;
        self
    }

    /// The predictor driving the scaler (e.g. to persist its state with
    /// [`Forecaster::snapshot_state`](crate::Forecaster::snapshot_state)
    /// after a run).
    pub fn forecaster(&self) -> &dyn Forecaster {
        self.forecaster.as_ref()
    }

    /// Mutable access to the predictor (e.g. to restore persisted state
    /// before a run).
    pub fn forecaster_mut(&mut self) -> &mut dyn Forecaster {
        self.forecaster.as_mut()
    }

    /// Residence window length in epochs for an epoch of `epoch_s`
    /// seconds (≥ 1): how many boundaries' arrivals are concurrently
    /// resident.
    fn window_epochs(&self, epoch_s: f64) -> i64 {
        ((self.mean_session_s / epoch_s.max(1e-9)).ceil() as i64).max(1)
    }

    /// The rate at offset `j ≤ 0` epochs from the newest observation
    /// (0 = the current epoch's arrivals; before the run began = 0, the
    /// literal truth for a cold-started fleet).
    fn observed_hz(&self, j: i64) -> f64 {
        let idx = self.recent_hz.len() as i64 - 1 + j;
        if idx >= 0 {
            self.recent_hz[idx as usize]
        } else {
            0.0
        }
    }

    /// The concurrency-driving rate the pool is sized for (Hz): the
    /// worst, over the next `lead_epochs` boundaries, of the mean
    /// arrival rate across the residence window ending at each boundary
    /// — trailing observations blended with leading forecasts.
    pub fn planned_rate_hz(&self, epoch_s: f64) -> f64 {
        let window = self.window_epochs(epoch_s);
        let mut worst: f64 = 0.0;
        for h in 1..=self.lead_epochs.max(1) as i64 {
            let sum: f64 = (h - window + 1..=h)
                .map(|j| {
                    if j <= 0 {
                        self.observed_hz(j)
                    } else {
                        self.forecaster.forecast_hz(j as u64)
                    }
                })
                .sum();
            worst = worst.max(sum / window as f64);
        }
        worst
    }
}

impl Autoscaler for ForecastScaler {
    fn name(&self) -> &'static str {
        "forecast"
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        // The predictor observes every boundary, cooldown or not — a
        // seasonal model that skipped epochs would lose its phase.
        self.forecaster
            .observe(signals.arrivals_due, signals.epoch_s);
        let instant_hz = signals.arrivals_due as f64 / signals.epoch_s.max(1e-9);
        self.recent_hz.push_back(instant_hz);
        while self.recent_hz.len() as i64 > self.window_epochs(signals.epoch_s) {
            self.recent_hz.pop_front();
        }
        if cooling_down(self.last_scale_epoch, self.cooldown_epochs, signals.epoch) {
            return ScaleDecision::Hold;
        }
        // Little's law on the windowed rate.
        let concurrency = self.planned_rate_hz(signals.epoch_s) * self.mean_session_s;
        littles_law(
            signals,
            &mut self.last_scale_epoch,
            concurrency,
            self.sessions_per_node,
            (self.min_nodes, self.max_nodes),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(node_id: usize, threads: u32, sessions: usize, qos_violation: f64) -> NodeView {
        NodeView {
            node_id,
            active_sessions: sessions,
            threads_demanded: threads,
            planned_threads: threads,
            hw_threads: 32,
            power_w: 60.0,
            power_cap_w: 120.0,
            qos_violation_percent: qos_violation,
            resident_shapes: Vec::new(),
        }
    }

    fn signals<'a>(epoch: u64, active: &'a [NodeView], queued: usize) -> ScaleSignals<'a> {
        ScaleSignals {
            epoch,
            epoch_s: 1.0,
            active,
            arrivals_due: 0,
            queued_sessions: queued,
            pending_sessions: 0,
        }
    }

    #[test]
    fn threshold_grows_on_hot_pool_and_holds_in_the_band() {
        let mut s = ThresholdScaler::new().with_cooldown(0);
        let hot = [view(0, 30, 5, 0.0), view(1, 28, 5, 0.0)];
        assert_eq!(s.plan(&signals(0, &hot, 0)), ScaleDecision::Grow(1));
        let mid = [view(0, 16, 3, 0.0), view(1, 14, 3, 0.0)];
        assert_eq!(s.plan(&signals(1, &mid, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn threshold_grows_on_qos_distress_even_when_utilization_is_low() {
        let mut s = ThresholdScaler::new().with_cooldown(0);
        let suffering = [view(0, 8, 2, 40.0)];
        assert_eq!(s.plan(&signals(0, &suffering, 0)), ScaleDecision::Grow(1));
    }

    #[test]
    fn threshold_grows_on_queue_backlog() {
        let mut s = ThresholdScaler::new().with_cooldown(0);
        let idle = [view(0, 4, 1, 0.0)];
        assert_eq!(s.plan(&signals(0, &idle, 3)), ScaleDecision::Grow(1));
    }

    #[test]
    fn threshold_shrinks_an_idle_pool_but_respects_min_nodes() {
        let mut s = ThresholdScaler::new().with_cooldown(0).with_limits(1, 8);
        let idle = [view(0, 2, 1, 0.0), view(1, 0, 0, 0.0)];
        assert_eq!(s.plan(&signals(0, &idle, 0)), ScaleDecision::Shrink(1));
        let floor = [view(0, 2, 1, 0.0)];
        assert_eq!(s.plan(&signals(1, &floor, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn threshold_cooldown_spaces_scaling_events() {
        let mut s = ThresholdScaler::new().with_cooldown(3);
        let hot = [view(0, 30, 5, 0.0)];
        assert_eq!(s.plan(&signals(0, &hot, 0)), ScaleDecision::Grow(1));
        assert_eq!(s.plan(&signals(1, &hot, 0)), ScaleDecision::Hold);
        assert_eq!(s.plan(&signals(2, &hot, 0)), ScaleDecision::Hold);
        assert_eq!(s.plan(&signals(3, &hot, 0)), ScaleDecision::Grow(1));
    }

    #[test]
    fn threshold_max_nodes_caps_growth() {
        let mut s = ThresholdScaler::new().with_cooldown(0).with_limits(1, 2);
        let hot = [view(0, 30, 5, 0.0), view(1, 30, 5, 0.0)];
        assert_eq!(s.plan(&signals(0, &hot, 0)), ScaleDecision::Hold);
    }

    #[test]
    fn predictive_follows_the_arrival_rate() {
        let mut s = PredictiveScaler::new()
            .with_alpha(1.0) // no smoothing: track the instant rate
            .with_mean_session_s(10.0)
            .with_sessions_per_node(5.0)
            .with_cooldown(0)
            .with_limits(1, 16);
        let pool = [view(0, 8, 2, 0.0)];
        // 2 arrivals/s × 10 s residence = 20 concurrent / 5 per node = 4.
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 2;
        assert_eq!(s.plan(&sig), ScaleDecision::Grow(3));
        assert!((s.rate_hz() - 2.0).abs() < 1e-12);
        // Rate collapses to zero: back down to the minimum.
        let big: Vec<NodeView> = (0..4).map(|i| view(i, 2, 1, 0.0)).collect();
        let quiet = signals(1, &big, 0);
        assert_eq!(s.plan(&quiet), ScaleDecision::Shrink(3));
    }

    #[test]
    fn predictive_ewma_smooths_bursts() {
        let mut s = PredictiveScaler::new().with_alpha(0.5).with_cooldown(0);
        let pool = [view(0, 8, 2, 0.0)];
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 8;
        s.plan(&sig); // primes at 8 Hz
        assert!((s.rate_hz() - 8.0).abs() < 1e-12);
        let mut sig = signals(1, &pool, 0);
        sig.arrivals_due = 0;
        s.plan(&sig);
        assert!((s.rate_hz() - 4.0).abs() < 1e-12, "EWMA halves, not zeroes");
    }

    #[test]
    fn predictive_updates_rate_during_cooldown() {
        let mut s = PredictiveScaler::new().with_alpha(1.0).with_cooldown(10);
        let pool = [view(0, 8, 2, 0.0)];
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 4;
        s.plan(&sig); // first decision starts the cooldown
        let mut sig = signals(1, &pool, 0);
        sig.arrivals_due = 6;
        assert_eq!(s.plan(&sig), ScaleDecision::Hold, "cooling down");
        assert!((s.rate_hz() - 6.0).abs() < 1e-12, "estimate still tracked");
    }

    #[test]
    fn forecast_scaler_provisions_ahead_of_a_seasonal_rise() {
        use crate::forecast::SeasonalNaive;
        // Season: 3 quiet epochs, then 3 busy ones. After one observed
        // season the scaler must grow while arrivals are still quiet,
        // because the predictor sees the busy slots inside its lead.
        // (mean_session_s = epoch_s ⇒ residence window of one epoch —
        // the target is the pure forecast.)
        let mut s = ForecastScaler::new(Box::new(SeasonalNaive::new(6)))
            .with_lead_epochs(2)
            .with_mean_session_s(1.0)
            .with_sessions_per_node(0.5)
            .with_cooldown(0)
            .with_limits(1, 16);
        let season = [0usize, 0, 0, 10, 10, 10];
        let pool = [view(0, 4, 1, 0.0)];
        let mut last = ScaleDecision::Hold;
        for (epoch, &due) in season.iter().chain(&season[..3]).enumerate() {
            let mut sig = signals(epoch as u64, &pool, 0);
            sig.arrivals_due = due;
            last = s.plan(&sig);
        }
        // Epoch 8 observed (still quiet); epochs 9–10 are forecast busy:
        // 10 Hz × 1 s / 0.5 per node = 20 nodes, clamped to 16 → grow 15.
        assert_eq!(last, ScaleDecision::Grow(15));
        assert!((s.planned_rate_hz(1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn forecast_scaler_sheds_ahead_of_a_seasonal_fall() {
        use crate::forecast::SeasonalNaive;
        let mut s = ForecastScaler::new(Box::new(SeasonalNaive::new(4)))
            .with_lead_epochs(1)
            .with_mean_session_s(1.0)
            .with_sessions_per_node(2.0)
            .with_cooldown(0)
            .with_limits(1, 16);
        let big: Vec<NodeView> = (0..6).map(|i| view(i, 4, 1, 0.0)).collect();
        // One full season: busy, busy, quiet, quiet. At the last busy
        // epoch of season two, the next slot is forecast quiet — shrink
        // while the current epoch is still loud (sessions are short:
        // residence is one epoch, so nothing lingers).
        for (epoch, due) in [10usize, 10, 0, 0, 10, 10].iter().enumerate() {
            let mut sig = signals(epoch as u64, &big, 0);
            sig.arrivals_due = *due;
            let decision = s.plan(&sig);
            if epoch == 5 {
                assert_eq!(decision, ScaleDecision::Shrink(5), "fall not anticipated");
            }
        }
    }

    #[test]
    fn forecast_scaler_holds_capacity_while_resident_sessions_drain() {
        // A predictor that (correctly) says the rate is about to be
        // zero: with 3-epoch residence, the pool must NOT collapse the
        // moment the rate forecast does — the burst's sessions are
        // still resident, and the windowed rate decays over the next
        // window instead of snapping to zero.
        struct Silence;
        impl crate::forecast::Forecaster for Silence {
            fn name(&self) -> &'static str {
                "silence"
            }
            fn observe(&mut self, _arrivals: usize, _epoch_s: f64) {}
            fn forecast_hz(&self, _horizon: u64) -> f64 {
                0.0
            }
            fn snapshot_state(&self) -> Vec<u8> {
                Vec::new()
            }
            fn restore_state(
                &mut self,
                _bytes: &[u8],
            ) -> Result<(), mamut_core::snapshot::SnapshotError> {
                Ok(())
            }
        }
        let mut s = ForecastScaler::new(Box::new(Silence))
            .with_lead_epochs(1)
            .with_mean_session_s(3.0) // 3-epoch residence window
            .with_sessions_per_node(6.0)
            .with_cooldown(0)
            .with_limits(1, 16);
        let pool = [view(0, 4, 1, 0.0)];
        // A 12 Hz burst epoch: windowed rate = (0 + 12 + f(1)=0)/3 = 4,
        // concurrency 4 Hz × 3 s = 12 → 2 nodes: capacity is kept for
        // the resident sessions even though the forecast says silence.
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 12;
        assert_eq!(s.plan(&sig), ScaleDecision::Grow(1));
        assert!((s.planned_rate_hz(1.0) - 4.0).abs() < 1e-12);
        // Two quiet epochs later the window has drained: back to min.
        let two: Vec<NodeView> = (0..2).map(|i| view(i, 4, 1, 0.0)).collect();
        for epoch in 1..3 {
            let decision = s.plan(&signals(epoch, &two, 0));
            if epoch == 2 {
                assert_eq!(decision, ScaleDecision::Shrink(1), "window never drained");
            }
        }
    }

    #[test]
    fn forecast_scaler_observes_through_cooldown() {
        use crate::forecast::SeasonalNaive;
        let mut s = ForecastScaler::new(Box::new(SeasonalNaive::new(2))).with_cooldown(10);
        let pool = [view(0, 4, 1, 0.0)];
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 8;
        s.plan(&sig); // first decision starts the cooldown
        let mut sig = signals(1, &pool, 0);
        sig.arrivals_due = 6;
        assert_eq!(s.plan(&sig), ScaleDecision::Hold, "cooling down");
        // Both epochs were still observed by the predictor.
        assert_eq!(s.forecaster().forecast_hz(1), 8.0);
        assert_eq!(s.forecaster().forecast_hz(2), 6.0);
    }

    #[test]
    fn forecast_scaler_clamps_zero_lead_to_one() {
        use crate::forecast::SeasonalNaive;
        // lead_epochs = 0 would make planned_rate_hz an empty max (0 Hz
        // forever); the builder clamps to 1 so the scaler always looks
        // at least one boundary ahead.
        let s = ForecastScaler::new(Box::new(SeasonalNaive::new(4))).with_lead_epochs(0);
        assert_eq!(s.lead_epochs, 1);
        // And planned_rate_hz itself guards the field being forced to 0.
        let mut forced = ForecastScaler::new(Box::new(SeasonalNaive::new(4)))
            .with_mean_session_s(1.0)
            .with_cooldown(0);
        forced.lead_epochs = 0;
        let pool = [view(0, 4, 1, 0.0)];
        let mut sig = signals(0, &pool, 0);
        sig.arrivals_due = 6;
        forced.plan(&sig);
        assert!(
            forced.planned_rate_hz(1.0) > 0.0,
            "zero lead must still see the observed window"
        );
    }

    #[test]
    fn forecast_scaler_with_no_history_shrinks_to_the_floor() {
        use crate::forecast::HoltWinters;
        // First boundary ever, zero arrivals observed: the windowed rate
        // is 0 Hz, so the target is min_nodes — an over-provisioned cold
        // pool sheds instead of crashing on empty history.
        let mut s = ForecastScaler::new(Box::new(HoltWinters::new(8)))
            .with_mean_session_s(4.0)
            .with_sessions_per_node(2.0)
            .with_cooldown(0)
            .with_limits(1, 16);
        let big: Vec<NodeView> = (0..4).map(|i| view(i, 2, 1, 0.0)).collect();
        assert_eq!(s.plan(&signals(0, &big, 0)), ScaleDecision::Shrink(3));
        assert_eq!(s.planned_rate_hz(1.0), 0.0);
    }

    #[test]
    fn heuristic_scalers_report_a_heuristic_source() {
        use crate::autoscale::PolicySource;
        let mut t = ThresholdScaler::new();
        t.plan(&signals(0, &[view(0, 4, 1, 0.0)], 0));
        assert_eq!(t.decision_source(), PolicySource::Heuristic);
        assert_eq!(
            PredictiveScaler::new().decision_source(),
            PolicySource::Heuristic
        );
    }

    #[test]
    fn signals_summarize_the_pool() {
        let nodes = [view(0, 16, 3, 20.0), view(1, 8, 1, 0.0)];
        let sig = ScaleSignals {
            epoch: 0,
            epoch_s: 1.0,
            active: &nodes,
            arrivals_due: 2,
            queued_sessions: 2,
            pending_sessions: 5,
        };
        assert!((sig.mean_utilization() - (0.5 + 0.25) / 2.0).abs() < 1e-12);
        assert!((sig.mean_qos_violation_percent() - 10.0).abs() < 1e-12);
        assert_eq!(sig.sessions_in_system(), 6);
        let empty = signals(0, &[], 0);
        assert_eq!(empty.mean_utilization(), 0.0);
        assert_eq!(empty.mean_qos_violation_percent(), 0.0);
    }
}
