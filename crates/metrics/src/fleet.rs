//! Fleet-level aggregation: what a multi-server simulation derives from
//! its node-epoch samples.
//!
//! The fleet simulator (`mamut-fleet`) feeds plain numbers in here — this
//! crate stays a leaf with no knowledge of servers or sessions, the same
//! way [`QosTracker`](crate::QosTracker) only sees frame timings. Per
//! node the aggregate keeps a utilization series and a tail ledger;
//! cluster-wide it keeps the active-pool timeline, a histogram of
//! node-epoch utilization samples and a tail ledger of its own. A node's
//! frame, ∆, energy and power totals are not kept here: the node owns
//! them, and the fleet's summary reads them from it.

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
///
/// `frames`, `violations` and `duration_s` are the node's running totals
/// as of its last sample: the baseline its next epoch's increase is taken
/// against, not a report of the node.
#[derive(Debug, Clone, Default)]
pub struct NodeAggregate {
    /// Frames the node had completed at its last sample.
    pub frames: u64,
    /// Frames below the FPS target at the last sample.
    pub violations: u64,
    /// Simulated time at the last sample (s).
    pub duration_s: f64,
    /// Thread-demand utilization samples, one per epoch.
    pub utilization: RunningStats,
    /// Per-epoch QoS-slack / frame-latency tail ledger (bounded reservoir
    /// when built through [`FleetAggregate::new`]).
    pub tail: TailLedger,
}

/// Cluster-wide aggregate over all nodes' epoch samples.
#[derive(Debug, Clone, Default)]
pub struct FleetAggregate {
    /// Per-node aggregates in node-id order.
    pub nodes: Vec<NodeAggregate>,
    /// Powered node-epochs simulated: each epoch a node spends in the
    /// active pool counts once. With a fixed pool this is
    /// `epochs × nodes`; an elastic pool's saving shows up here.
    pub node_epochs: u64,
    /// Active-pool-size timeline as `(epoch, size)` change points: the
    /// pool had `size` nodes from `epoch` until the next entry.
    pub pool_timeline: Vec<(u64, usize)>,
    /// Node-epoch utilization samples across the whole fleet.
    pub utilization: UtilizationHistogram,
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

    /// Grows the per-node aggregates to cover node ids `0..nodes` (an
    /// autoscaler commissioned new nodes mid-run).
    pub fn ensure_nodes(&mut self, nodes: usize) {
        while self.nodes.len() < nodes {
            self.nodes.push(node_aggregate(self.nodes.len()));
        }
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

    /// Folds one node epoch into the aggregate. `frames`/`violations`/
    /// `duration_s` are the node's *running totals* (the node exposes
    /// totals, not deltas); they become the baseline of its next epoch.
    /// `utilization` is this epoch's thread-demand fraction.
    pub fn record_node_epoch(
        &mut self,
        node: usize,
        frames: u64,
        violations: u64,
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
    fn cluster_delta_is_frames_weighted() {
        let mut f = FleetAggregate::new(2);
        // Node 0: 900 frames, 0 violations; node 1: 100 frames, all bad.
        f.record_node_epoch(0, 900, 0, 100.0, 0.4);
        f.record_node_epoch(1, 100, 100, 100.0, 0.9);
        assert_eq!(f.utilization.total(), 2);
    }

    #[test]
    fn record_overwrites_totals_not_sums() {
        let mut f = FleetAggregate::new(1);
        f.record_node_epoch(0, 10, 1, 1.0, 0.5);
        f.record_node_epoch(0, 25, 2, 2.0, 0.6);
        assert_eq!(f.nodes[0].frames, 25);
        assert_eq!(f.nodes[0].violations, 2);
        assert_eq!(f.nodes[0].utilization.count(), 2);
        assert_eq!(f.node_epochs, 2);
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
        f.record_node_epoch(0, 10, 0, 1.0, 0.5);
        f.ensure_nodes(4);
        assert_eq!(f.nodes.len(), 4);
        assert_eq!(f.nodes[0].frames, 10, "existing rows survive growth");
        f.ensure_nodes(3);
        assert_eq!(f.nodes.len(), 4, "never shrinks");
    }

    #[test]
    fn tail_ledgers_sample_epoch_deltas_only() {
        let mut f = FleetAggregate::new(1);
        f.record_node_epoch(0, 10, 1, 1.0, 0.5); // +10 frames, +1 late
        f.record_node_epoch(0, 10, 1, 2.0, 0.0); // idle epoch: no delta
        f.record_node_epoch(0, 30, 6, 3.0, 0.7); // +20 frames, +5 late
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
}
