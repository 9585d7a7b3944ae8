//! Inter-epoch session migration policies.
//!
//! At every epoch boundary — after all nodes have advanced to the same
//! virtual time and before the next wave of arrivals is dispatched — the
//! fleet asks its [`Rebalancer`] (if one is installed) which nodes
//! should shed load. The fleet then moves one live session per directive
//! (the node's [`migration_candidate`](crate::FleetNode::migration_candidate)),
//! controller and in-flight frame included, from the source to the
//! target node. Everything runs on the coordinating thread between
//! epochs, so migration is deterministic regardless of how many worker
//! threads advance the nodes.

use crate::dispatch::{cmp_utilization, NodeView};

/// One migration order: move a session from node `from` to node `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MigrationDirective {
    /// Node shedding a session.
    pub from: usize,
    /// Node receiving it.
    pub to: usize,
}

/// A fleet rebalance policy, consulted once per epoch boundary.
///
/// `Send` for the same reason as [`Dispatcher`](crate::Dispatcher): the
/// fleet owning it may move across threads, but planning itself always
/// runs on the coordinating thread.
pub trait Rebalancer: Send {
    /// Policy name for reports.
    fn name(&self) -> &'static str;

    /// Plans this boundary's migrations given read-only node views.
    /// Directives are executed in order; each moves at most one session.
    fn plan(&mut self, epoch: u64, nodes: &[NodeView]) -> Vec<MigrationDirective>;
}

/// Moves sessions from the most- to the least-utilized node whenever the
/// utilization gap exceeds a threshold — the fleet-level analogue of the
/// paper's thread-count knob, operating on placement instead of WPP
/// parallelism.
#[derive(Debug, Clone)]
pub struct UtilizationBalance {
    /// Minimum utilization gap (fraction of hardware threads) between
    /// donor and receiver before a move is worth its disruption.
    pub min_gap: f64,
    /// Directives per epoch boundary (each moves one session). Pairs are
    /// formed outside-in: busiest→idlest, then second-busiest→second-idlest.
    pub max_moves: usize,
}

impl UtilizationBalance {
    /// A conservative default: one move per boundary once the gap
    /// reaches 25 % of a node's hardware threads.
    pub fn new() -> Self {
        UtilizationBalance {
            min_gap: 0.25,
            max_moves: 1,
        }
    }

    /// Overrides the utilization gap threshold.
    pub fn with_min_gap(mut self, min_gap: f64) -> Self {
        self.min_gap = min_gap;
        self
    }

    /// Overrides the per-boundary move budget.
    pub fn with_max_moves(mut self, max_moves: usize) -> Self {
        self.max_moves = max_moves;
        self
    }
}

impl Default for UtilizationBalance {
    fn default() -> Self {
        UtilizationBalance::new()
    }
}

impl Rebalancer for UtilizationBalance {
    fn name(&self) -> &'static str {
        "utilization-balance"
    }

    fn plan(&mut self, _epoch: u64, nodes: &[NodeView]) -> Vec<MigrationDirective> {
        if nodes.len() < 2 {
            return Vec::new();
        }
        // Sort by utilization descending; ties by id so planning is
        // deterministic for identical loads.
        let mut order: Vec<&NodeView> = nodes.iter().collect();
        order.sort_by(|a, b| {
            cmp_utilization(b.utilization(), a.utilization()).then(a.node_id.cmp(&b.node_id))
        });
        let mut directives = Vec::new();
        let pairs = self.max_moves.min(nodes.len() / 2);
        for i in 0..pairs {
            let donor = order[i];
            let receiver = order[order.len() - 1 - i];
            if donor.active_sessions == 0 {
                continue;
            }
            if donor.utilization() - receiver.utilization() < self.min_gap {
                break; // order is sorted: later pairs have smaller gaps
            }
            directives.push(MigrationDirective {
                from: donor.node_id,
                to: receiver.node_id,
            });
        }
        directives
    }
}

/// Moves sessions from the most- to the least-*distressed* node, where
/// distress blends power-budget pressure and QoS violations instead of
/// thread utilization alone. A node may look moderately utilized yet be
/// burning its entire power budget (dense HR streams at high frequency),
/// or look busy while every stream comfortably makes real time — this
/// policy reads the signals the paper actually constrains (power cap,
/// FPS target) rather than the proxy.
#[derive(Debug, Clone)]
pub struct PowerQosBalance {
    /// Weight of the power-pressure term (fraction of the node budget in
    /// use) in the distress score.
    pub power_weight: f64,
    /// Weight of the QoS term (fraction of resident frames under target)
    /// in the distress score.
    pub qos_weight: f64,
    /// Minimum donor-receiver distress gap before a move is worth its
    /// disruption.
    pub min_gap: f64,
    /// Directives per epoch boundary (each moves one session). Pairs are
    /// formed outside-in: most-distressed → least-distressed, and so on.
    pub max_moves: usize,
}

impl PowerQosBalance {
    /// Defaults: equal power/QoS weighting, one move per boundary once
    /// the distress gap reaches 0.2.
    pub fn new() -> Self {
        PowerQosBalance {
            power_weight: 1.0,
            qos_weight: 1.0,
            min_gap: 0.2,
            max_moves: 1,
        }
    }

    /// Overrides the power/QoS term weights.
    pub fn with_weights(mut self, power_weight: f64, qos_weight: f64) -> Self {
        self.power_weight = power_weight;
        self.qos_weight = qos_weight;
        self
    }

    /// Overrides the distress-gap threshold.
    pub fn with_min_gap(mut self, min_gap: f64) -> Self {
        self.min_gap = min_gap;
        self
    }

    /// Overrides the per-boundary move budget.
    pub fn with_max_moves(mut self, max_moves: usize) -> Self {
        self.max_moves = max_moves;
        self
    }

    /// A node's distress: how much of its power budget is spent plus how
    /// badly its residents miss real time, weighted. Higher = worse off.
    /// (Equivalently: low power headroom and low QoS slack score high.)
    pub fn distress(&self, node: &NodeView) -> f64 {
        let power_pressure = if node.power_cap_w > 0.0 {
            (node.power_w / node.power_cap_w).max(0.0)
        } else {
            0.0
        };
        self.power_weight * power_pressure + self.qos_weight * (1.0 - node.qos_slack())
    }
}

impl Default for PowerQosBalance {
    fn default() -> Self {
        PowerQosBalance::new()
    }
}

impl Rebalancer for PowerQosBalance {
    fn name(&self) -> &'static str {
        "power-qos-balance"
    }

    fn plan(&mut self, _epoch: u64, nodes: &[NodeView]) -> Vec<MigrationDirective> {
        if nodes.len() < 2 {
            return Vec::new();
        }
        // Sort by distress descending; ties by id so planning is
        // deterministic for identical loads.
        let mut order: Vec<&NodeView> = nodes.iter().collect();
        order.sort_by(|a, b| {
            self.distress(b)
                .partial_cmp(&self.distress(a))
                .expect("distress is finite")
                .then(a.node_id.cmp(&b.node_id))
        });
        let mut directives = Vec::new();
        let pairs = self.max_moves.min(nodes.len() / 2);
        for i in 0..pairs {
            let donor = order[i];
            let receiver = order[order.len() - 1 - i];
            if donor.active_sessions == 0 {
                continue;
            }
            if self.distress(donor) - self.distress(receiver) < self.min_gap {
                break; // order is sorted: later pairs have smaller gaps
            }
            directives.push(MigrationDirective {
                from: donor.node_id,
                to: receiver.node_id,
            });
        }
        directives
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(node_id: usize, threads: u32, sessions: usize) -> NodeView {
        NodeView {
            node_id,
            active_sessions: sessions,
            threads_demanded: threads,
            planned_threads: threads,
            hw_threads: 32,
            power_w: 60.0,
            power_cap_w: 120.0,
            qos_violation_percent: 0.0,
            resident_shapes: Vec::new(),
        }
    }

    #[test]
    fn balanced_fleet_stays_put() {
        let nodes = vec![view(0, 8, 2), view(1, 8, 2)];
        assert!(UtilizationBalance::new().plan(0, &nodes).is_empty());
    }

    #[test]
    fn wide_gap_moves_busiest_to_idlest() {
        let nodes = vec![view(0, 4, 1), view(1, 28, 5), view(2, 12, 3)];
        let plan = UtilizationBalance::new().plan(3, &nodes);
        assert_eq!(plan, vec![MigrationDirective { from: 1, to: 0 }]);
    }

    #[test]
    fn empty_donor_is_skipped() {
        // Node 1 has high planned threads but zero live sessions (all
        // finished this epoch): nothing to move.
        let mut busy_but_empty = view(1, 28, 0);
        busy_but_empty.active_sessions = 0;
        let nodes = vec![view(0, 2, 1), busy_but_empty];
        assert!(UtilizationBalance::new().plan(0, &nodes).is_empty());
    }

    #[test]
    fn move_budget_caps_pairs() {
        let nodes = vec![view(0, 30, 6), view(1, 28, 5), view(2, 2, 1), view(3, 0, 0)];
        let plan = UtilizationBalance::new().with_max_moves(2).plan(0, &nodes);
        assert_eq!(
            plan,
            vec![
                MigrationDirective { from: 0, to: 3 },
                MigrationDirective { from: 1, to: 2 },
            ]
        );
    }

    #[test]
    fn single_node_never_plans() {
        assert!(UtilizationBalance::new()
            .plan(0, &[view(0, 30, 6)])
            .is_empty());
    }

    fn distressed(node_id: usize, power_w: f64, qos_violation: f64, sessions: usize) -> NodeView {
        let mut v = view(node_id, 8, sessions);
        v.power_w = power_w;
        v.qos_violation_percent = qos_violation;
        v
    }

    #[test]
    fn power_qos_moves_off_the_power_pressed_node_despite_equal_utilization() {
        // Same thread demand everywhere; node 1 burns its whole budget.
        let nodes = vec![
            distressed(0, 60.0, 0.0, 2),
            distressed(1, 118.0, 0.0, 2),
            distressed(2, 55.0, 0.0, 2),
        ];
        let plan = PowerQosBalance::new().plan(0, &nodes);
        assert_eq!(plan, vec![MigrationDirective { from: 1, to: 2 }]);
        // UtilizationBalance is blind to this: identical utilization.
        assert!(UtilizationBalance::new().plan(0, &nodes).is_empty());
    }

    #[test]
    fn power_qos_moves_off_the_qos_starved_node() {
        let nodes = vec![distressed(0, 60.0, 45.0, 3), distressed(1, 60.0, 0.0, 1)];
        let plan = PowerQosBalance::new().plan(0, &nodes);
        assert_eq!(plan, vec![MigrationDirective { from: 0, to: 1 }]);
    }

    #[test]
    fn power_qos_holds_inside_the_gap() {
        let nodes = vec![distressed(0, 62.0, 2.0, 2), distressed(1, 58.0, 0.0, 2)];
        assert!(PowerQosBalance::new().plan(0, &nodes).is_empty());
    }

    #[test]
    fn power_qos_weights_steer_the_score() {
        let power_pressed = distressed(0, 115.0, 0.0, 2);
        let qos_starved = distressed(1, 40.0, 80.0, 2);
        let power_first = PowerQosBalance::new().with_weights(1.0, 0.0);
        assert!(power_first.distress(&power_pressed) > power_first.distress(&qos_starved));
        let qos_first = PowerQosBalance::new().with_weights(0.0, 1.0);
        assert!(qos_first.distress(&qos_starved) > qos_first.distress(&power_pressed));
    }

    #[test]
    fn power_qos_skips_empty_donors_and_single_nodes() {
        let nodes = vec![distressed(0, 118.0, 0.0, 0), distressed(1, 40.0, 0.0, 1)];
        assert!(PowerQosBalance::new().plan(0, &nodes).is_empty());
        assert!(PowerQosBalance::new()
            .plan(0, &[distressed(0, 118.0, 50.0, 4)])
            .is_empty());
    }

    #[test]
    fn power_qos_move_budget_caps_pairs() {
        let nodes = vec![
            distressed(0, 118.0, 30.0, 4),
            distressed(1, 110.0, 20.0, 3),
            distressed(2, 45.0, 0.0, 1),
            distressed(3, 40.0, 0.0, 0),
        ];
        let plan = PowerQosBalance::new().with_max_moves(2).plan(0, &nodes);
        assert_eq!(
            plan,
            vec![
                MigrationDirective { from: 0, to: 3 },
                MigrationDirective { from: 1, to: 2 },
            ]
        );
    }
}
