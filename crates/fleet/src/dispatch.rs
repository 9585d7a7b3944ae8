//! Dispatch policies: which node serves the next arriving session.
//!
//! The dispatcher sees one [`NodeView`] per node — a *read-only* view of
//! active sessions, thread demand, instantaneous power, and the planning
//! shapes of the sessions already resident — and answers with a
//! placement, a deferral to the next epoch, or a rejection. (Views were
//! previously called "node snapshots"; that word now belongs exclusively
//! to [`PolicySnapshot`](mamut_core::snapshot::PolicySnapshot), the
//! portable learned-state capture.) Policies range from the oblivious
//! ([`RoundRobin`]) through load- and power-sensitive placement
//! ([`LeastLoaded`], [`PowerAware`]) to model-based admission control
//! ([`AdmissionGated`], which reuses the single-server
//! [`AdmissionPlanner`] from `mamut-transcode` to refuse placements the
//! shared-machine model predicts would sink every resident stream below
//! real time).

use std::cmp::Ordering;

use mamut_platform::Platform;
use mamut_transcode::{AdmissionPlanner, StreamShape};

use crate::workload::SessionRequest;

/// A dispatcher's (or rebalancer's) read-only view of one node.
///
/// Produced by [`FleetNode::view`](crate::FleetNode::view) from counters
/// the node maintains as sessions arrive, leave and finish — building
/// the view never mutates the node.
#[derive(Debug, Clone)]
pub struct NodeView {
    /// Node id (index in the fleet).
    pub node_id: usize,
    /// Sessions still transcoding.
    pub active_sessions: usize,
    /// Threads those sessions collectively request *right now* (a just-
    /// admitted session reports its starting knobs until its controller
    /// first acts).
    pub threads_demanded: u32,
    /// Thread demand of the resident planning shapes — what the sessions
    /// are expected to ramp to. Placement uses the max of both, so
    /// several sessions admitted within one epoch weigh in at full
    /// planned size rather than their not-yet-started defaults.
    pub planned_threads: u32,
    /// Hardware threads the node offers.
    pub hw_threads: u32,
    /// Instantaneous power at current knobs (W).
    pub power_w: f64,
    /// Node power budget (W) for headroom-based placement.
    pub power_cap_w: f64,
    /// Percentage of the resident sessions' frames delivered below the
    /// FPS target *over the last simulated epoch* (0.0 on an empty or
    /// freshly loaded node) — the QoS distress signal autoscalers and
    /// QoS-aware rebalancers act on. Windowed on purpose: a stream that
    /// suffered through a long-past burst must not read as distressed
    /// forever.
    pub qos_violation_percent: f64,
    /// Planning shapes of the resident (unfinished) sessions.
    pub resident_shapes: Vec<StreamShape>,
}

/// The one ordering of node utilizations, shared by placement, draining,
/// rebalancing and overflow routing. Utilizations are non-negative thread
/// ratios, so `total_cmp` agrees with numeric order on them — and unlike
/// `partial_cmp` it has no failure case to unwrap.
pub(crate) fn cmp_utilization(a: f64, b: f64) -> Ordering {
    a.total_cmp(&b)
}

impl NodeView {
    /// Thread demand over hardware threads (may exceed 1.0). Uses the
    /// larger of current and planned demand — see [`NodeView::planned_threads`].
    pub fn utilization(&self) -> f64 {
        if self.hw_threads == 0 {
            0.0
        } else {
            f64::from(self.threads_demanded.max(self.planned_threads)) / f64::from(self.hw_threads)
        }
    }

    /// Power headroom under the node budget (may be negative).
    pub fn power_headroom_w(&self) -> f64 {
        self.power_cap_w - self.power_w
    }

    /// QoS slack in `[0, 1]`: the fraction of resident frames delivered
    /// on time (1.0 on an empty node — nothing is suffering).
    pub fn qos_slack(&self) -> f64 {
        (1.0 - self.qos_violation_percent / 100.0).clamp(0.0, 1.0)
    }
}

/// Outcome of one dispatch query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchDecision {
    /// Place the session on this node now.
    Assign(usize),
    /// Hold the session in the pending queue and retry next epoch.
    Queue,
    /// Turn the session away.
    Reject,
}

/// A fleet dispatch policy.
///
/// `Send` so a fleet (which owns its dispatcher) can move across threads;
/// dispatch itself always runs on the coordinating thread between epochs.
pub trait Dispatcher: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides where `request` goes given the current node snapshots.
    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision;
}

/// Cycles through nodes in order, ignoring load entirely.
#[derive(Debug, Clone, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// Creates a round-robin dispatcher starting at node 0.
    pub fn new() -> Self {
        RoundRobin::default()
    }
}

impl Dispatcher for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn dispatch(&mut self, _request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        if nodes.is_empty() {
            return DispatchDecision::Reject;
        }
        let pick = self.next % nodes.len();
        self.next = (self.next + 1) % nodes.len();
        DispatchDecision::Assign(nodes[pick].node_id)
    }
}

/// Places each session on the node with the lowest thread utilization
/// (ties: fewer active sessions, then lower id).
#[derive(Debug, Clone, Default)]
pub struct LeastLoaded;

impl LeastLoaded {
    /// Creates a least-loaded dispatcher.
    pub fn new() -> Self {
        LeastLoaded
    }
}

impl Dispatcher for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn dispatch(&mut self, _request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        let best = nodes.iter().min_by(|a, b| {
            cmp_utilization(a.utilization(), b.utilization())
                .then(a.active_sessions.cmp(&b.active_sessions))
                .then(a.node_id.cmp(&b.node_id))
        });
        match best {
            Some(n) => DispatchDecision::Assign(n.node_id),
            None => DispatchDecision::Reject,
        }
    }
}

/// Places each session on the node with the most power headroom — the
/// fleet-level analogue of the paper's power-aware knob choices (a node
/// far below its budget can absorb a new stream without DVFS backoff).
#[derive(Debug, Clone, Default)]
pub struct PowerAware;

impl PowerAware {
    /// Creates a power-aware dispatcher.
    pub fn new() -> Self {
        PowerAware
    }
}

impl Dispatcher for PowerAware {
    fn name(&self) -> &'static str {
        "power-aware"
    }

    fn dispatch(&mut self, _request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        let best = nodes.iter().max_by(|a, b| {
            a.power_headroom_w()
                .total_cmp(&b.power_headroom_w())
                // max_by keeps the *last* maximal element; order ids so
                // ties resolve to the lowest id deterministically.
                .then(b.node_id.cmp(&a.node_id))
        });
        match best {
            Some(n) => DispatchDecision::Assign(n.node_id),
            None => DispatchDecision::Reject,
        }
    }
}

/// What [`AdmissionGated`] does with a session no node can fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateMode {
    /// Park it in the queue and retry next epoch (until capacity drains).
    Queue,
    /// Turn it away immediately.
    Reject,
}

/// Model-based admission control around an inner placement policy.
///
/// The inner policy proposes a node; the gate asks the single-server
/// [`AdmissionPlanner`] whether that node, with the new stream added to
/// its resident shapes, is still predicted to hold every stream at the
/// target FPS. If not, the gate scans the remaining nodes in ascending
/// utilization order and takes the first feasible one; when none fits,
/// the session is queued or rejected per [`GateMode`].
pub struct AdmissionGated {
    inner: Box<dyn Dispatcher>,
    planner: AdmissionPlanner,
    mode: GateMode,
}

impl AdmissionGated {
    /// Gates `inner` with a planner for `platform` at `target_fps`.
    pub fn new(
        inner: Box<dyn Dispatcher>,
        platform: Platform,
        target_fps: f64,
        mode: GateMode,
    ) -> Self {
        AdmissionGated {
            inner,
            planner: AdmissionPlanner::new(platform, target_fps),
            mode,
        }
    }

    fn feasible_on(&self, node: &NodeView, shape: &StreamShape) -> bool {
        let mut mix = node.resident_shapes.clone();
        mix.push(shape.clone());
        self.planner.admit(&mix).feasible
    }
}

impl Dispatcher for AdmissionGated {
    fn name(&self) -> &'static str {
        "admission-gated"
    }

    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        if nodes.is_empty() {
            return DispatchDecision::Reject;
        }
        let shape = StreamShape::for_spec(&request.spec());
        // The inner policy's pick gets the first word…
        if let DispatchDecision::Assign(id) = self.inner.dispatch(request, nodes) {
            if let Some(node) = nodes.iter().find(|n| n.node_id == id) {
                if self.feasible_on(node, &shape) {
                    return DispatchDecision::Assign(id);
                }
            }
        }
        // …then any node, least-utilized first.
        let mut order: Vec<&NodeView> = nodes.iter().collect();
        order.sort_by(|a, b| {
            cmp_utilization(a.utilization(), b.utilization()).then(a.node_id.cmp(&b.node_id))
        });
        for node in order {
            if self.feasible_on(node, &shape) {
                return DispatchDecision::Assign(node.node_id);
            }
        }
        match self.mode {
            GateMode::Queue => DispatchDecision::Queue,
            GateMode::Reject => DispatchDecision::Reject,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(node_id: usize, threads: u32, power_w: f64) -> NodeView {
        NodeView {
            node_id,
            active_sessions: (threads / 4) as usize,
            threads_demanded: threads,
            planned_threads: threads,
            hw_threads: 32,
            power_w,
            power_cap_w: 120.0,
            qos_violation_percent: 0.0,
            resident_shapes: Vec::new(),
        }
    }

    fn request(hr: bool) -> SessionRequest {
        SessionRequest {
            id: 0,
            arrival_s: 0.0,
            hr,
            live: false,
            frames: 100,
            seed: 7,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let nodes = vec![
            snapshot(0, 0, 60.0),
            snapshot(1, 0, 60.0),
            snapshot(2, 0, 60.0),
        ];
        let mut rr = RoundRobin::new();
        let picks: Vec<DispatchDecision> = (0..5)
            .map(|_| rr.dispatch(&request(true), &nodes))
            .collect();
        assert_eq!(
            picks,
            vec![
                DispatchDecision::Assign(0),
                DispatchDecision::Assign(1),
                DispatchDecision::Assign(2),
                DispatchDecision::Assign(0),
                DispatchDecision::Assign(1),
            ]
        );
    }

    #[test]
    fn least_loaded_picks_lowest_utilization() {
        let nodes = vec![
            snapshot(0, 24, 100.0),
            snapshot(1, 8, 70.0),
            snapshot(2, 16, 85.0),
        ];
        assert_eq!(
            LeastLoaded::new().dispatch(&request(true), &nodes),
            DispatchDecision::Assign(1)
        );
    }

    #[test]
    fn least_loaded_breaks_ties_by_id() {
        let nodes = vec![snapshot(1, 8, 70.0), snapshot(0, 8, 70.0)];
        assert_eq!(
            LeastLoaded::new().dispatch(&request(true), &nodes),
            DispatchDecision::Assign(0)
        );
    }

    #[test]
    fn power_aware_picks_most_headroom() {
        let nodes = vec![
            snapshot(0, 8, 110.0),
            snapshot(1, 8, 75.0),
            snapshot(2, 8, 90.0),
        ];
        assert_eq!(
            PowerAware::new().dispatch(&request(true), &nodes),
            DispatchDecision::Assign(1)
        );
        let tied = vec![snapshot(1, 8, 75.0), snapshot(0, 8, 75.0)];
        assert_eq!(
            PowerAware::new().dispatch(&request(true), &tied),
            DispatchDecision::Assign(0)
        );
    }

    #[test]
    fn empty_fleet_rejects() {
        assert_eq!(
            RoundRobin::new().dispatch(&request(true), &[]),
            DispatchDecision::Reject
        );
        assert_eq!(
            LeastLoaded::new().dispatch(&request(true), &[]),
            DispatchDecision::Reject
        );
        assert_eq!(
            PowerAware::new().dispatch(&request(true), &[]),
            DispatchDecision::Reject
        );
    }

    fn gated(mode: GateMode) -> AdmissionGated {
        AdmissionGated::new(
            Box::new(RoundRobin::new()),
            Platform::xeon_e5_2667_v4(),
            24.0,
            mode,
        )
    }

    #[test]
    fn gate_admits_on_an_empty_node() {
        let nodes = vec![snapshot(0, 0, 52.0)];
        assert_eq!(
            gated(GateMode::Queue).dispatch(&request(true), &nodes),
            DispatchDecision::Assign(0)
        );
    }

    #[test]
    fn gate_redirects_away_from_a_full_node() {
        // Node 0 packed with HR shapes (infeasible for one more), node 1
        // empty: round robin proposes 0 first, the gate lands on 1.
        let hr_shape = StreamShape::for_spec(&request(true).spec());
        let mut full = snapshot(0, 60, 130.0);
        full.resident_shapes = vec![hr_shape; 8];
        let nodes = vec![full, snapshot(1, 0, 52.0)];
        assert_eq!(
            gated(GateMode::Queue).dispatch(&request(true), &nodes),
            DispatchDecision::Assign(1)
        );
    }

    #[test]
    fn gate_queues_or_rejects_when_nothing_fits() {
        let hr_shape = StreamShape::for_spec(&request(true).spec());
        let mut full = snapshot(0, 60, 130.0);
        full.resident_shapes = vec![hr_shape; 8];
        let nodes = vec![full];
        assert_eq!(
            gated(GateMode::Queue).dispatch(&request(true), &nodes),
            DispatchDecision::Queue
        );
        assert_eq!(
            gated(GateMode::Reject).dispatch(&request(true), &nodes),
            DispatchDecision::Reject
        );
    }
}
