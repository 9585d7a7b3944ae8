//! Fleet-level aggregation: rolling per-node and cluster-wide QoS, power
//! and utilization accounting for multi-server simulations.
//!
//! The fleet simulator (`mamut-fleet`) feeds plain numbers in here — this
//! crate stays a leaf with no knowledge of servers or sessions, the same
//! way [`QosTracker`](crate::QosTracker) only sees frame timings. Per
//! node the aggregate keeps the ∆ numerator/denominator (violations over
//! frames), energy totals, and a utilization series;
//! cluster-wide it folds those into a frames-weighted ∆, dispatch
//! outcome counts, and a histogram of node-epoch utilization samples.

use crate::{RunningStats, TailLedger, CLUSTER_TAIL_CAPACITY, NODE_TAIL_CAPACITY};

/// Number of buckets in a [`UtilizationHistogram`] (deciles).
pub const UTILIZATION_BUCKETS: usize = 10;

/// Histogram of utilization samples in deciles of `[0, 1]`.
///
/// Samples above 1.0 (an oversubscribed node) land in the top bucket, so
/// the histogram answers "how often was a node near saturation" without
/// losing overload events.
///
/// # Example
///
/// ```
/// let mut h = mamut_metrics::fleet::UtilizationHistogram::new();
/// h.record(0.05);
/// h.record(0.55);
/// h.record(1.4); // oversubscribed: clamps into the top decile
/// assert_eq!(h.counts()[0], 1);
/// assert_eq!(h.counts()[5], 1);
/// assert_eq!(h.counts()[9], 1);
/// assert_eq!(h.total(), 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UtilizationHistogram {
    counts: [u64; UTILIZATION_BUCKETS],
}

impl UtilizationHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        UtilizationHistogram::default()
    }

    /// Records one utilization sample (clamped into `[0, 1]`; NaN ignored).
    pub fn record(&mut self, utilization: f64) {
        if !utilization.is_finite() {
            return;
        }
        let clamped = utilization.clamp(0.0, 1.0);
        let bucket = ((clamped * UTILIZATION_BUCKETS as f64) as usize).min(UTILIZATION_BUCKETS - 1);
        self.counts[bucket] += 1;
    }

    /// Per-decile sample counts.
    pub fn counts(&self) -> &[u64; UTILIZATION_BUCKETS] {
        &self.counts
    }

    /// Folds another histogram's samples into this one, bucket by bucket
    /// — used to roll per-shard utilization up into a cluster-wide view.
    pub fn merge(&mut self, other: &UtilizationHistogram) {
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Compact textual rendering (`0-10%:3 … 90-100%:1`), skipping empty
    /// buckets.
    pub fn render(&self) -> String {
        let mut parts = Vec::new();
        for (i, &n) in self.counts.iter().enumerate() {
            if n > 0 {
                parts.push(format!("{}-{}%:{}", i * 10, (i + 1) * 10, n));
            }
        }
        if parts.is_empty() {
            "(no samples)".to_owned()
        } else {
            parts.join(" ")
        }
    }
}

/// Rolling per-node aggregate, fed once per node epoch.
#[derive(Debug, Clone, Default)]
pub struct NodeAggregate {
    /// Frames completed on this node.
    pub frames: u64,
    /// Frames below the FPS target (∆ numerator).
    pub violations: u64,
    /// Energy drawn by this node (J).
    pub energy_j: f64,
    /// Time this node has been simulated (s).
    pub duration_s: f64,
    /// Thread-demand utilization samples, one per epoch.
    pub utilization: RunningStats,
    /// Per-epoch QoS-slack / frame-latency tail ledger (bounded reservoir
    /// when built through [`FleetAggregate::new`]).
    pub tail: TailLedger,
}

impl NodeAggregate {
    /// The node's ∆: percentage of frames below target (0.0 if no frames).
    pub fn violation_percent(&self) -> f64 {
        if self.frames == 0 {
            0.0
        } else {
            100.0 * self.violations as f64 / self.frames as f64
        }
    }

    /// Lifetime mean power (0.0 before any time elapses).
    pub fn mean_power_w(&self) -> f64 {
        if self.duration_s <= 0.0 {
            0.0
        } else {
            self.energy_j / self.duration_s
        }
    }
}

/// Cluster-wide aggregate over all nodes and dispatch decisions.
#[derive(Debug, Clone, Default)]
pub struct FleetAggregate {
    /// Per-node aggregates in node-id order.
    pub nodes: Vec<NodeAggregate>,
    /// Sessions the dispatcher rejected outright.
    pub rejected_sessions: u64,
    /// Times a session was parked in the pending queue (one session can
    /// be queued over several epochs; each wait epoch counts).
    pub queued_waits: u64,
    /// Sessions moved between nodes at epoch boundaries.
    pub migrations: u64,
    /// Sessions seeded from a knowledge store instead of starting cold.
    pub warm_starts: u64,
    /// Nodes commissioned by an autoscaler after the run started.
    pub scale_ups: u64,
    /// Nodes drained and decommissioned by an autoscaler.
    pub scale_downs: u64,
    /// Live sessions migrated off a node while it was being drained for
    /// decommission (counted separately from rebalance migrations).
    pub drained_sessions: u64,
    /// Powered node-epochs simulated: each epoch a node spends in the
    /// active pool counts once. With a fixed pool this is
    /// `epochs × nodes`; an elastic pool's saving shows up here.
    pub node_epochs: u64,
    /// Active-pool-size timeline as `(epoch, size)` change points: the
    /// pool had `size` nodes from `epoch` until the next entry.
    pub pool_timeline: Vec<(u64, usize)>,
    /// Node-epoch utilization samples across the whole fleet.
    pub utilization: UtilizationHistogram,
    /// Epoch decisions a learned fleet policy took greedily (argmax of
    /// its value estimates) — the fleet-layer analogue of a session
    /// controller's exploitation decisions.
    pub greedy_actions: u64,
    /// Epoch decisions a learned fleet policy took exploratorily
    /// (ε-greedy random draws).
    pub exploratory_actions: u64,
    /// Epoch decisions planned by a hand-tuned (non-learned) policy.
    pub heuristic_decisions: u64,
    /// Scale events (grow or shrink, before clamping) decided by a
    /// learned policy.
    pub learned_scale_events: u64,
    /// Scale events decided by a heuristic policy.
    pub heuristic_scale_events: u64,
    /// Nodes lost to injected fail-stop crashes.
    pub crashes: u64,
    /// Thermal-throttle events applied to nodes (frequency caps).
    pub throttles: u64,
    /// Sessions re-created on survivors after a crash (from checkpoint
    /// or, failing that, from scratch).
    pub sessions_recovered: u64,
    /// Frames that must be transcoded again because they were completed
    /// after the last checkpoint on a node that then crashed. Lost work
    /// is never silently dropped — it lands here.
    pub frames_redone: u64,
    /// Frames lost with no surviving node to re-do them on (a crash with
    /// zero surviving capacity). Zero in any healthy configuration.
    pub frames_lost: u64,
    /// Arrivals shed (rejected instead of queued) while the fleet was
    /// running degraded below its capacity watermark.
    pub shed_sessions: u64,
    /// Node-epochs spent waiting for a crashed node's replacement: the
    /// denominator complement of availability.
    pub down_node_epochs: u64,
    /// Sum of per-crash recovery times in epochs (crash to replacement
    /// in service); divide by [`FleetAggregate::recoveries`] for MTTR.
    pub mttr_epochs_total: u64,
    /// Crashes whose replacement node has entered service.
    pub recoveries: u64,
    /// Fleet checkpoints captured over the run.
    pub checkpoints: u64,
    /// Cluster-wide per-epoch tail ledger (every node's productive epochs
    /// fold in here as well as into their own node's ledger).
    pub tail: TailLedger,
}

/// A per-node aggregate whose tail ledger is a bounded reservoir seeded
/// from the node id — deterministic, and flat-memory at 10k nodes.
fn node_aggregate(node: usize) -> NodeAggregate {
    NodeAggregate {
        tail: TailLedger::bounded(NODE_TAIL_CAPACITY, node as u64),
        ..NodeAggregate::default()
    }
}

impl FleetAggregate {
    /// Creates an aggregate for `nodes` nodes.
    pub fn new(nodes: usize) -> Self {
        FleetAggregate {
            nodes: (0..nodes).map(node_aggregate).collect(),
            tail: TailLedger::bounded(CLUSTER_TAIL_CAPACITY, u64::from(u32::MAX)),
            ..FleetAggregate::default()
        }
    }

    /// Counts a session rejected by the dispatcher.
    pub fn record_rejection(&mut self) {
        self.rejected_sessions += 1;
    }

    /// Counts one epoch of queueing delay for a pending session.
    pub fn record_queued_wait(&mut self) {
        self.queued_waits += 1;
    }

    /// Counts one inter-node session migration.
    pub fn record_migration(&mut self) {
        self.migrations += 1;
    }

    /// Grows the per-node aggregates to cover node ids `0..nodes` (an
    /// autoscaler commissioned new nodes mid-run).
    pub fn ensure_nodes(&mut self, nodes: usize) {
        while self.nodes.len() < nodes {
            self.nodes.push(node_aggregate(self.nodes.len()));
        }
    }

    /// Counts one node commissioned by the autoscaler.
    pub fn record_scale_up(&mut self) {
        self.scale_ups += 1;
    }

    /// Counts one node drained and decommissioned by the autoscaler.
    pub fn record_scale_down(&mut self) {
        self.scale_downs += 1;
    }

    /// Counts one live session migrated off a draining node.
    pub fn record_drained_session(&mut self) {
        self.drained_sessions += 1;
    }

    /// Records the active pool size at an epoch boundary; the timeline
    /// stores change points only, so repeated sizes collapse.
    pub fn record_pool_size(&mut self, epoch: u64, size: usize) {
        if self.pool_timeline.last().map(|&(_, s)| s) != Some(size) {
            self.pool_timeline.push((epoch, size));
        }
    }

    /// Largest active pool size seen over the run (0 before any sample).
    pub fn peak_nodes(&self) -> usize {
        self.pool_timeline
            .iter()
            .map(|&(_, s)| s)
            .max()
            .unwrap_or(0)
    }

    /// Overwrites one node's running totals without recording an epoch
    /// sample — used when a node is decommissioned mid-run, so frames
    /// that migrated away with its drained sessions are not counted both
    /// in its final row and on their destination nodes.
    pub fn resample_node_totals(
        &mut self,
        node: usize,
        frames: u64,
        violations: u64,
        energy_j: f64,
        duration_s: f64,
    ) {
        let agg = &mut self.nodes[node];
        agg.frames = frames;
        agg.violations = violations;
        agg.energy_j = energy_j;
        agg.duration_s = duration_s;
    }

    /// Counts one epoch decision by the fleet policy that planned it.
    /// `learned` says whether a learned (RL) policy or a hand-tuned
    /// heuristic made the call; for learned policies `exploratory`
    /// distinguishes ε-greedy draws from greedy argmax picks; `scaled`
    /// is true when the decision changed the pool size (grow or shrink).
    pub fn record_policy_decision(&mut self, learned: bool, exploratory: bool, scaled: bool) {
        if learned {
            if exploratory {
                self.exploratory_actions += 1;
            } else {
                self.greedy_actions += 1;
            }
            if scaled {
                self.learned_scale_events += 1;
            }
        } else {
            self.heuristic_decisions += 1;
            if scaled {
                self.heuristic_scale_events += 1;
            }
        }
    }

    /// Records how many sessions were warm-started over the run (the
    /// fleet reads the final figure off its knowledge store).
    pub fn set_warm_starts(&mut self, warm_starts: u64) {
        self.warm_starts = warm_starts;
    }

    /// Counts one injected fail-stop node crash.
    pub fn record_crash(&mut self) {
        self.crashes += 1;
    }

    /// Counts one thermal-throttle event.
    pub fn record_throttle(&mut self) {
        self.throttles += 1;
    }

    /// Counts one session re-created on a survivor after a crash, with
    /// the frames it must transcode again (everything past its last
    /// checkpoint, or its whole history on a cold restart).
    pub fn record_recovered_session(&mut self, frames_redone: u64) {
        self.sessions_recovered += 1;
        self.frames_redone += frames_redone;
    }

    /// Counts frames lost outright because no survivor could host the
    /// session (should stay zero; a nonzero value is a red flag).
    pub fn record_lost_frames(&mut self, frames: u64) {
        self.frames_lost += frames;
    }

    /// Counts one arrival shed during degraded operation.
    pub fn record_shed_session(&mut self) {
        self.shed_sessions += 1;
    }

    /// Counts one epoch during which a crashed node's replacement was
    /// still pending (one per missing node per epoch).
    pub fn record_down_node_epoch(&mut self) {
        self.down_node_epochs += 1;
    }

    /// Counts one completed recovery: a replacement in service
    /// `mttr_epochs` after its predecessor crashed.
    pub fn record_recovery(&mut self, mttr_epochs: u64) {
        self.recoveries += 1;
        self.mttr_epochs_total += mttr_epochs;
    }

    /// Counts one fleet checkpoint capture.
    pub fn record_checkpoint(&mut self) {
        self.checkpoints += 1;
    }

    /// Availability as a percentage of demanded node-epochs actually
    /// served: `100 · up / (up + down)`. 100.0 when nothing ran.
    pub fn availability_percent(&self) -> f64 {
        let total = self.node_epochs + self.down_node_epochs;
        if total == 0 {
            100.0
        } else {
            100.0 * self.node_epochs as f64 / total as f64
        }
    }

    /// Mean time to recovery in epochs over completed recoveries (0.0
    /// before any recovery).
    pub fn mean_mttr_epochs(&self) -> f64 {
        if self.recoveries == 0 {
            0.0
        } else {
            self.mttr_epochs_total as f64 / self.recoveries as f64
        }
    }

    /// Folds one node epoch into the aggregate. `frames`/`violations`/
    /// `energy_j`/`duration_s` are the node's *running totals* (the
    /// sources all expose totals, not deltas); `utilization` is this
    /// epoch's thread-demand fraction.
    #[allow(clippy::too_many_arguments)]
    pub fn record_node_epoch(
        &mut self,
        node: usize,
        frames: u64,
        violations: u64,
        energy_j: f64,
        duration_s: f64,
        utilization: f64,
    ) {
        let agg = &mut self.nodes[node];
        // The tail ledgers want this epoch's increment, not the running
        // total; the previous totals are still in the aggregate, so the
        // delta falls out before the overwrite. An idle node reports
        // unchanged totals (delta 0) and adds no sample.
        let frames_delta = frames.saturating_sub(agg.frames);
        let violations_delta = violations.saturating_sub(agg.violations);
        let busy_delta = (duration_s - agg.duration_s).max(0.0);
        agg.frames = frames;
        agg.violations = violations;
        agg.energy_j = energy_j;
        agg.duration_s = duration_s;
        agg.utilization.push(utilization);
        if frames_delta > 0 {
            agg.tail
                .record_epoch(frames_delta, violations_delta, busy_delta);
            self.tail
                .record_epoch(frames_delta, violations_delta, busy_delta);
        }
        self.utilization.record(utilization);
        self.node_epochs += 1;
    }

    /// Frames completed across the cluster.
    pub fn total_frames(&self) -> u64 {
        self.nodes.iter().map(|n| n.frames).sum()
    }

    /// Cluster-wide ∆, weighted by frames (a node that served more frames
    /// counts proportionally — the fleet analogue of the paper's ∆).
    pub fn cluster_violation_percent(&self) -> f64 {
        let frames = self.total_frames();
        if frames == 0 {
            0.0
        } else {
            let violations: u64 = self.nodes.iter().map(|n| n.violations).sum();
            100.0 * violations as f64 / frames as f64
        }
    }

    /// Mean node power over the run (total energy / total node-time).
    pub fn mean_power_w(&self) -> f64 {
        let time: f64 = self.nodes.iter().map(|n| n.duration_s).sum();
        if time <= 0.0 {
            0.0
        } else {
            self.nodes.iter().map(|n| n.energy_j).sum::<f64>() / time
        }
    }

    /// Total cluster energy (J).
    pub fn total_energy_j(&self) -> f64 {
        self.nodes.iter().map(|n| n.energy_j).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_bounds() {
        let mut h = UtilizationHistogram::new();
        h.record(0.0);
        h.record(0.09);
        h.record(0.1);
        h.record(0.99);
        h.record(1.0);
        h.record(2.5);
        h.record(-1.0);
        h.record(f64::NAN);
        assert_eq!(h.counts()[0], 3); // 0.0, 0.09, clamped -1.0
        assert_eq!(h.counts()[1], 1); // 0.1
        assert_eq!(h.counts()[9], 3); // 0.99, 1.0, clamped 2.5
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_merge_adds_bucket_counts() {
        let mut a = UtilizationHistogram::new();
        a.record(0.05);
        a.record(0.95);
        let mut b = UtilizationHistogram::new();
        b.record(0.08);
        b.record(0.55);
        a.merge(&b);
        assert_eq!(a.counts()[0], 2);
        assert_eq!(a.counts()[5], 1);
        assert_eq!(a.counts()[9], 1);
        assert_eq!(a.total(), 4);
        // Merging an empty histogram is a no-op.
        a.merge(&UtilizationHistogram::new());
        assert_eq!(a.total(), 4);
    }

    #[test]
    fn histogram_render_skips_empty_buckets() {
        let mut h = UtilizationHistogram::new();
        assert_eq!(h.render(), "(no samples)");
        h.record(0.25);
        h.record(0.25);
        assert_eq!(h.render(), "20-30%:2");
    }

    #[test]
    fn node_aggregate_percentages() {
        let mut n = NodeAggregate::default();
        assert_eq!(n.violation_percent(), 0.0);
        assert_eq!(n.mean_power_w(), 0.0);
        n.frames = 200;
        n.violations = 30;
        n.energy_j = 500.0;
        n.duration_s = 10.0;
        assert!((n.violation_percent() - 15.0).abs() < 1e-12);
        assert!((n.mean_power_w() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn cluster_delta_is_frames_weighted() {
        let mut f = FleetAggregate::new(2);
        // Node 0: 900 frames, 0 violations; node 1: 100 frames, all bad.
        f.record_node_epoch(0, 900, 0, 9_000.0, 100.0, 0.4);
        f.record_node_epoch(1, 100, 100, 1_000.0, 100.0, 0.9);
        assert!((f.cluster_violation_percent() - 10.0).abs() < 1e-12);
        assert_eq!(f.total_frames(), 1_000);
        assert!((f.mean_power_w() - 50.0).abs() < 1e-12);
        assert_eq!(f.utilization.total(), 2);
    }

    #[test]
    fn record_overwrites_totals_not_sums() {
        let mut f = FleetAggregate::new(1);
        f.record_node_epoch(0, 10, 1, 100.0, 1.0, 0.5);
        f.record_node_epoch(0, 25, 2, 260.0, 2.0, 0.6);
        assert_eq!(f.nodes[0].frames, 25);
        assert_eq!(f.nodes[0].violations, 2);
        assert_eq!(f.nodes[0].utilization.count(), 2);
        assert_eq!(f.node_epochs, 2);
        assert!((f.total_energy_j() - 260.0).abs() < 1e-12);
    }

    #[test]
    fn pool_timeline_keeps_change_points_only() {
        let mut f = FleetAggregate::new(2);
        f.record_pool_size(0, 2);
        f.record_pool_size(1, 2);
        f.record_pool_size(2, 4);
        f.record_pool_size(3, 4);
        f.record_pool_size(7, 3);
        assert_eq!(f.pool_timeline, vec![(0, 2), (2, 4), (7, 3)]);
        assert_eq!(f.peak_nodes(), 4);
        assert_eq!(FleetAggregate::default().peak_nodes(), 0);
    }

    #[test]
    fn ensure_nodes_grows_without_shrinking() {
        let mut f = FleetAggregate::new(2);
        f.record_node_epoch(0, 10, 0, 50.0, 1.0, 0.5);
        f.ensure_nodes(4);
        assert_eq!(f.nodes.len(), 4);
        assert_eq!(f.nodes[0].frames, 10, "existing rows survive growth");
        f.ensure_nodes(3);
        assert_eq!(f.nodes.len(), 4, "never shrinks");
    }

    #[test]
    fn resample_overwrites_totals_without_an_epoch_sample() {
        let mut f = FleetAggregate::new(1);
        f.record_node_epoch(0, 100, 10, 500.0, 5.0, 0.8);
        f.resample_node_totals(0, 40, 4, 500.0, 5.0);
        assert_eq!(f.nodes[0].frames, 40);
        assert_eq!(f.nodes[0].violations, 4);
        assert_eq!(f.node_epochs, 1, "resample is not an epoch");
        assert_eq!(f.nodes[0].utilization.count(), 1);
    }

    #[test]
    fn policy_decision_counters_split_by_source() {
        let mut f = FleetAggregate::new(1);
        f.record_policy_decision(true, false, true); // learned greedy grow
        f.record_policy_decision(true, true, false); // learned exploratory hold
        f.record_policy_decision(true, false, false); // learned greedy hold
        f.record_policy_decision(false, false, true); // heuristic shrink
        f.record_policy_decision(false, false, false); // heuristic hold
        assert_eq!(f.greedy_actions, 2);
        assert_eq!(f.exploratory_actions, 1);
        assert_eq!(f.heuristic_decisions, 2);
        assert_eq!(f.learned_scale_events, 1);
        assert_eq!(f.heuristic_scale_events, 1);
    }

    #[test]
    fn fault_counters_and_resilience_ratios() {
        let mut f = FleetAggregate::new(2);
        assert_eq!(f.availability_percent(), 100.0, "no samples means no loss");
        assert_eq!(f.mean_mttr_epochs(), 0.0);
        f.record_node_epoch(0, 10, 0, 50.0, 1.0, 0.5);
        f.record_node_epoch(1, 10, 0, 50.0, 1.0, 0.5);
        f.record_crash();
        f.record_throttle();
        f.record_recovered_session(30);
        f.record_recovered_session(0);
        f.record_shed_session();
        f.record_down_node_epoch();
        f.record_down_node_epoch();
        f.record_recovery(2);
        f.record_recovery(4);
        f.record_checkpoint();
        assert_eq!(f.crashes, 1);
        assert_eq!(f.throttles, 1);
        assert_eq!(f.sessions_recovered, 2);
        assert_eq!(f.frames_redone, 30);
        assert_eq!(f.frames_lost, 0);
        assert_eq!(f.shed_sessions, 1);
        assert_eq!(f.checkpoints, 1);
        assert!((f.availability_percent() - 50.0).abs() < 1e-12);
        assert!((f.mean_mttr_epochs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn tail_ledgers_sample_epoch_deltas_only() {
        let mut f = FleetAggregate::new(1);
        f.record_node_epoch(0, 10, 1, 100.0, 1.0, 0.5); // +10 frames, +1 late
        f.record_node_epoch(0, 10, 1, 150.0, 2.0, 0.0); // idle epoch: no delta
        f.record_node_epoch(0, 30, 6, 300.0, 3.0, 0.7); // +20 frames, +5 late
        assert_eq!(f.nodes[0].tail.epochs_sampled(), 2);
        assert_eq!(f.tail.epochs_sampled(), 2);
        assert_eq!(
            f.nodes[0].tail.qos_slack_percentiles(&[100.0]),
            vec![Some(0.9)]
        );
        assert_eq!(
            f.tail.frame_latency_percentiles_ms(&[100.0]),
            vec![Some(100.0)]
        );
    }

    #[test]
    fn autoscale_counters_accumulate() {
        let mut f = FleetAggregate::new(1);
        f.record_scale_up();
        f.record_scale_up();
        f.record_scale_down();
        f.record_drained_session();
        f.record_drained_session();
        f.record_drained_session();
        assert_eq!(f.scale_ups, 2);
        assert_eq!(f.scale_downs, 1);
        assert_eq!(f.drained_sessions, 3);
    }
}
