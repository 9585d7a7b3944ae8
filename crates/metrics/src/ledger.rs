//! Tail-latency ledgers: per-epoch QoS-slack and frame-latency samples
//! folded into percentile trackers, so summaries can report p50/p95/p99
//! tails next to the mean ∆.
//!
//! The fleet layer feeds one sample per *productive* node-epoch (an epoch
//! in which the node completed at least one frame): the epoch's QoS slack
//! (share of frames that met their deadline) and its mean frame latency.
//! Idle epochs contribute nothing, so a node that sits idle between
//! bursts adds no samples.

use crate::PercentileTracker;

/// Reservoir size of a per-node ledger: at most 2 KiB of samples per
/// tracker, allocated as samples arrive, keeps a 10k-node fleet's ledgers
/// under 40 MiB no matter how long the run is.
pub const NODE_TAIL_CAPACITY: usize = 256;

/// Reservoir size of a cluster-wide ledger.
pub const CLUSTER_TAIL_CAPACITY: usize = 4_096;

/// Percentile ledger over per-epoch QoS slack and frame latency.
///
/// # Example
///
/// ```
/// let mut t = mamut_metrics::TailLedger::bounded(64, 0);
/// t.record_epoch(100, 5, 4.0); // 100 frames, 5 late, 4 s busy
/// assert_eq!(t.qos_slack_percentiles(&[50.0]), vec![Some(0.95)]);
/// assert_eq!(t.frame_latency_percentiles_ms(&[50.0]), vec![Some(40.0)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TailLedger {
    /// Per-epoch QoS slack in `[0, 1]`: `1 − violations/frames`.
    qos_slack: PercentileTracker,
    /// Per-epoch mean frame latency in milliseconds: `busy_s / frames`.
    frame_latency_ms: PercentileTracker,
}

impl TailLedger {
    /// An unbounded ledger (exact percentiles, memory grows with epochs).
    pub fn new() -> Self {
        TailLedger::default()
    }

    /// A ledger whose trackers keep at most `capacity` samples each as
    /// deterministic seeded reservoirs — see
    /// [`PercentileTracker::bounded`].
    pub fn bounded(capacity: usize, seed: u64) -> Self {
        TailLedger {
            qos_slack: PercentileTracker::bounded(capacity, seed),
            // Decorrelate the two eviction streams without a second seed.
            frame_latency_ms: PercentileTracker::bounded(capacity, seed ^ 0xA5A5_A5A5_A5A5_A5A5),
        }
    }

    /// Folds one node-epoch in: `frames` completed this epoch, of which
    /// `violations` missed the FPS target, over `busy_s` seconds of
    /// simulated time. Epochs with zero frames are ignored (idle nodes
    /// have no latency tail to speak of).
    pub fn record_epoch(&mut self, frames: u64, violations: u64, busy_s: f64) {
        if frames == 0 {
            return;
        }
        let slack = 1.0 - violations as f64 / frames as f64;
        self.qos_slack.push(slack.clamp(0.0, 1.0));
        if busy_s > 0.0 {
            self.frame_latency_ms.push(1_000.0 * busy_s / frames as f64);
        }
    }

    /// Productive node-epochs sampled (including any the reservoirs
    /// evicted).
    pub fn epochs_sampled(&self) -> u64 {
        self.qos_slack.seen()
    }

    /// Whether no productive epoch has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.qos_slack.seen() == 0
    }

    /// QoS-slack percentiles (nearest rank), `None` per entry when empty
    /// or the percentile is outside `(0, 100]`.
    pub fn qos_slack_percentiles(&self, ps: &[f64]) -> Vec<Option<f64>> {
        self.qos_slack.percentiles(ps)
    }

    /// Frame-latency percentiles in milliseconds.
    pub fn frame_latency_percentiles_ms(&self, ps: &[f64]) -> Vec<Option<f64>> {
        self.frame_latency_ms.percentiles(ps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ledger_answers_none() {
        let t = TailLedger::new();
        assert!(t.is_empty());
        assert_eq!(t.qos_slack_percentiles(&[95.0]), vec![None]);
        assert_eq!(t.frame_latency_percentiles_ms(&[99.0]), vec![None]);
    }

    #[test]
    fn zero_frame_epochs_are_ignored() {
        let mut t = TailLedger::new();
        t.record_epoch(0, 0, 4.0);
        assert!(t.is_empty());
        assert_eq!(t.epochs_sampled(), 0);
    }

    #[test]
    fn slack_and_latency_from_known_epochs() {
        let mut t = TailLedger::new();
        t.record_epoch(10, 0, 1.0); // slack 1.0, 100 ms/frame
        t.record_epoch(10, 5, 2.0); // slack 0.5, 200 ms/frame
        t.record_epoch(10, 10, 4.0); // slack 0.0, 400 ms/frame
        assert_eq!(t.epochs_sampled(), 3);
        assert_eq!(t.qos_slack_percentiles(&[50.0]), vec![Some(0.5)]);
        assert_eq!(
            t.frame_latency_percentiles_ms(&[50.0, 100.0]),
            vec![Some(200.0), Some(400.0)]
        );
    }

    #[test]
    fn zero_busy_time_records_slack_but_no_latency() {
        let mut t = TailLedger::new();
        t.record_epoch(5, 1, 0.0);
        assert_eq!(t.qos_slack_percentiles(&[50.0]), vec![Some(0.8)]);
        assert_eq!(t.frame_latency_percentiles_ms(&[50.0]), vec![None]);
    }

    #[test]
    fn bounded_ledger_is_deterministic() {
        let feed = || {
            let mut t = TailLedger::bounded(32, 11);
            for i in 0..5_000u64 {
                t.record_epoch(100 + i % 7, i % 50, 2.0 + (i % 13) as f64);
            }
            (
                t.qos_slack_percentiles(&[50.0, 95.0, 99.0]),
                t.frame_latency_percentiles_ms(&[50.0, 95.0, 99.0]),
            )
        };
        assert_eq!(feed(), feed());
    }
}
