//! Fleet-level run report: per-node rows plus cluster-wide aggregates.

use mamut_metrics::{Align, Table, UtilizationHistogram};

/// One node's row in a [`FleetSummary`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeReport {
    /// Node id.
    pub node_id: usize,
    /// Sessions admitted over the run.
    pub sessions: u64,
    /// Sessions received from peers via migration.
    pub migrated_in: u64,
    /// Sessions handed off to peers via migration.
    pub migrated_out: u64,
    /// Whether the autoscaler retired this node before the run ended.
    pub retired: bool,
    /// Frames completed.
    pub frames: u64,
    /// The node's ∆ (percentage of frames below target).
    pub violation_percent: f64,
    /// Lifetime mean power (W).
    pub mean_power_w: f64,
    /// Energy drawn (J).
    pub energy_j: f64,
    /// Mean thread-demand utilization over epochs.
    pub mean_utilization: f64,
    /// p95 of the node's per-epoch QoS slack (1 − violation fraction;
    /// higher is better), from its bounded tail ledger. `None` until the
    /// node has processed a productive epoch.
    pub qos_slack_p95: Option<f64>,
    /// p99 of the node's per-epoch mean frame latency (ms), from its
    /// bounded tail ledger. `None` without a productive epoch.
    pub frame_latency_p99_ms: Option<f64>,
}

/// Whole-fleet results: what `examples/fleet_churn.rs` prints and the
/// determinism tests compare byte-for-byte (the [`std::fmt::Display`]
/// rendering contains only virtual-time quantities — never wall-clock —
/// so it is identical across runs and worker-thread counts).
///
/// The summary is also the run's only tally: [`FleetSim`] resets one at
/// the start of each run and counts every event (rejection, migration,
/// scale event, policy decision, fault, checkpoint, fault mark) straight
/// into it as it happens. At the end of the run it fills in the derived
/// fields: node rows and cluster ∆/power/energy/frames from each node's
/// own totals, percentiles, availability and MTTR.
///
/// Per-session rows are not copied in here: drill down through
/// [`FleetSim::nodes`](crate::FleetSim::nodes) and
/// [`FleetNode::summary`](crate::FleetNode::summary), or
/// [`ShardedFleetSim::shards`](crate::ShardedFleetSim::shards) for a
/// sharded run.
///
/// [`FleetSim`]: crate::FleetSim
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetSummary {
    /// Dispatch policy that drove the run.
    pub policy: String,
    /// Epochs simulated.
    pub epochs: u64,
    /// Virtual duration (s).
    pub duration_s: f64,
    /// Per-node rows in id order.
    pub nodes: Vec<NodeReport>,
    /// Cluster-wide ∆, frames-weighted.
    pub cluster_violation_percent: f64,
    /// Mean node power (W).
    pub mean_power_w: f64,
    /// Total cluster energy (J).
    pub total_energy_j: f64,
    /// Frames completed across the cluster.
    pub total_frames: u64,
    /// Sessions admitted across the cluster.
    pub total_sessions: u64,
    /// Sessions the dispatcher rejected.
    pub rejected_sessions: u64,
    /// Session-epochs spent waiting in the pending queue.
    pub queued_waits: u64,
    /// Sessions migrated between nodes at epoch boundaries.
    pub migrations: u64,
    /// Sessions warm-started from the knowledge store instead of
    /// learning from scratch.
    pub warm_starts: u64,
    /// Nodes the autoscaler commissioned mid-run.
    pub scale_ups: u64,
    /// Nodes the autoscaler drained and retired mid-run.
    pub scale_downs: u64,
    /// Live sessions migrated off draining nodes before decommission.
    pub drained_sessions: u64,
    /// Powered node-epochs over the run (`epochs × nodes` for a fixed
    /// pool; the elastic saving shows up here).
    pub node_epochs: u64,
    /// Largest active pool size over the run.
    pub peak_nodes: usize,
    /// Active-pool-size change points as `(epoch, size)`.
    pub pool_timeline: Vec<(u64, usize)>,
    /// Scenario phase boundaries (see
    /// [`FleetSim::set_phase_marks`](crate::FleetSim::set_phase_marks))
    /// and fault marks (`crash:n<id>`, `throttle:n<id>`,
    /// `recovered:n<id>`) as `(epoch, label)`, sorted by epoch then
    /// label. They are rendered inline in the pool-size timeline, so
    /// autoscaler behavior is legible against the phase or fault that
    /// drove it. Empty for an unannotated, fault-free run.
    pub phase_marks: Vec<(u64, String)>,
    /// Node-epoch utilization histogram.
    pub utilization: UtilizationHistogram,
    /// Epoch decisions a learned fleet policy took greedily (argmax) —
    /// the fleet-layer analogue of per-session exploitation decisions.
    pub greedy_actions: u64,
    /// Epoch decisions a learned fleet policy took exploratorily
    /// (ε-greedy draws).
    pub exploratory_actions: u64,
    /// Epoch decisions planned by a hand-tuned (non-learned) policy.
    pub heuristic_decisions: u64,
    /// Scale events (grow or shrink) decided by a learned policy.
    pub learned_scale_events: u64,
    /// Scale events decided by a heuristic policy.
    pub heuristic_scale_events: u64,
    /// Injected fail-stop node crashes.
    pub crashes: u64,
    /// Thermal-throttle events applied to nodes.
    pub throttles: u64,
    /// Sessions re-created on survivors after crashes.
    pub sessions_recovered: u64,
    /// Frames re-transcoded because a crash discarded post-checkpoint
    /// work (a cold restart re-does the whole session). Lost work is
    /// accounted here, never silently dropped.
    pub frames_redone: u64,
    /// Frames lost with no survivor to re-do them on (zero in any
    /// healthy configuration).
    pub frames_lost: u64,
    /// Arrivals shed while the fleet ran degraded below its capacity
    /// watermark.
    pub shed_sessions: u64,
    /// Node-epochs spent waiting on crashed nodes' replacements.
    pub down_node_epochs: u64,
    /// Crashes whose replacement node entered service.
    pub recoveries: u64,
    /// Fleet checkpoints captured.
    pub checkpoints: u64,
    /// Availability: percentage of demanded node-epochs actually served.
    pub availability_percent: f64,
    /// Mean time to recovery in epochs (0.0 without a recovery).
    pub mean_mttr_epochs: f64,
    /// Cluster-wide p50 of per-node-epoch QoS slack (1 − violation
    /// fraction), from the bounded tail ledger. `None` before any
    /// productive node-epoch.
    pub qos_slack_p50: Option<f64>,
    /// Cluster-wide p95 of per-node-epoch QoS slack.
    pub qos_slack_p95: Option<f64>,
    /// Cluster-wide p99 of per-node-epoch QoS slack.
    pub qos_slack_p99: Option<f64>,
    /// Cluster-wide p95 of per-node-epoch mean frame latency (ms).
    pub frame_latency_p95_ms: Option<f64>,
    /// Cluster-wide p99 of per-node-epoch mean frame latency (ms).
    pub frame_latency_p99_ms: Option<f64>,
    /// Telemetry events recorded over the run (0 with tracing off —
    /// which also gates the summary's `telemetry:` line, keeping
    /// untraced renderings byte-identical to historical output).
    pub trace_events: u64,
}

impl FleetSummary {
    /// The per-node table rendered in [`std::fmt::Display`]. Retired
    /// nodes carry a `†` marker; the migration columns count sessions
    /// received from (`mig+`) and handed to (`mig-`) peers, whether by
    /// rebalancing or by drain-before-decommission. The tail columns
    /// (`slack p95`, `lat p99 ms`) render `-` for a node that never had
    /// a productive epoch.
    pub fn node_table(&self) -> Table {
        let mut t = Table::new(vec![
            "node".into(),
            "sessions".into(),
            "mig+".into(),
            "mig-".into(),
            "frames".into(),
            "delta%".into(),
            "power W".into(),
            "energy J".into(),
            "util".into(),
            "slack p95".into(),
            "lat p99 ms".into(),
        ]);
        t.set_alignments(vec![
            Align::Left,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
            Align::Right,
        ]);
        for n in &self.nodes {
            let marker = if n.retired { "†" } else { "" };
            t.add_row(vec![
                format!("n{}{}", n.node_id, marker),
                n.sessions.to_string(),
                n.migrated_in.to_string(),
                n.migrated_out.to_string(),
                n.frames.to_string(),
                format!("{:.2}", n.violation_percent),
                format!("{:.1}", n.mean_power_w),
                format!("{:.0}", n.energy_j),
                format!("{:.2}", n.mean_utilization),
                n.qos_slack_p95
                    .map(|v| format!("{v:.3}"))
                    .unwrap_or_else(|| "-".to_owned()),
                n.frame_latency_p99_ms
                    .map(|v| format!("{v:.1}"))
                    .unwrap_or_else(|| "-".to_owned()),
            ]);
        }
        t
    }

    /// Compact `epoch:size` rendering of the pool-size timeline, with
    /// any scenario phase boundaries interleaved as `[label@e<epoch>]`
    /// markers (a mark sorts before pool samples at the same epoch, so
    /// a phase reads as annotating the sizes that follow it).
    pub fn render_pool_timeline(&self) -> String {
        if self.pool_timeline.is_empty() && self.phase_marks.is_empty() {
            return "(no samples)".to_owned();
        }
        let mut parts = Vec::with_capacity(self.pool_timeline.len() + self.phase_marks.len());
        let mut samples = self.pool_timeline.iter().peekable();
        for (epoch, label) in &self.phase_marks {
            while let Some(&&(e, size)) = samples.peek() {
                if e >= *epoch {
                    break;
                }
                parts.push(format!("e{e}:{size}"));
                samples.next();
            }
            parts.push(format!("[{label}@e{epoch}]"));
        }
        for &(e, size) in samples {
            parts.push(format!("e{e}:{size}"));
        }
        parts.join(" ")
    }
}

impl std::fmt::Display for FleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "FleetSummary [{}] — {} nodes, {} epochs, {:.1} s virtual",
            self.policy,
            self.nodes.len(),
            self.epochs,
            self.duration_s
        )?;
        write!(f, "{}", self.node_table().to_plain())?;
        writeln!(
            f,
            "cluster: delta {:.2}% | {} sessions ({} rejected, {} queued-waits, {} migrated, {} warm-started) | {} frames | {:.1} W mean | {:.0} J",
            self.cluster_violation_percent,
            self.total_sessions,
            self.rejected_sessions,
            self.queued_waits,
            self.migrations,
            self.warm_starts,
            self.total_frames,
            self.mean_power_w,
            self.total_energy_j
        )?;
        writeln!(
            f,
            "pool: {} peak node(s) | {} node-epochs | {} scale-ups | {} scale-downs | {} drained",
            self.peak_nodes,
            self.node_epochs,
            self.scale_ups,
            self.scale_downs,
            self.drained_sessions
        )?;
        // Only learned-policy runs render the policy line: heuristic
        // runs keep their historical byte-for-byte output.
        if self.greedy_actions + self.exploratory_actions > 0 {
            writeln!(
                f,
                "policy: {} greedy / {} exploratory decisions | scale events: {} learned, {} heuristic",
                self.greedy_actions,
                self.exploratory_actions,
                self.learned_scale_events,
                self.heuristic_scale_events
            )?;
        }
        // Fault block: only chaos runs render it, so fault-free runs keep
        // their historical byte-for-byte output (the checkpoint count
        // rides inside the block rather than gating it — a checkpointed
        // but fault-free run also stays untouched).
        if self.crashes + self.throttles + self.shed_sessions > 0 {
            writeln!(
                f,
                "faults: {} crashes | {} throttled | {} recovered ({} frames redone, {} lost) | {} shed | {} checkpoints",
                self.crashes,
                self.throttles,
                self.sessions_recovered,
                self.frames_redone,
                self.frames_lost,
                self.shed_sessions,
                self.checkpoints
            )?;
            writeln!(
                f,
                "resilience: {:.2}% availability | {} down node-epochs | MTTR {:.1} epochs over {} recoveries",
                self.availability_percent,
                self.down_node_epochs,
                self.mean_mttr_epochs,
                self.recoveries
            )?;
        }
        // Telemetry block: only traced runs render it, so tracing-off
        // runs keep their historical byte-for-byte output.
        if self.trace_events > 0 {
            let pct = |v: Option<f64>, digits: usize| {
                v.map(|x| format!("{x:.digits$}"))
                    .unwrap_or_else(|| "-".to_owned())
            };
            writeln!(
                f,
                "telemetry: {} events | qos-slack p50/p95/p99 {}/{}/{} | frame-lat p95/p99 {}/{} ms",
                self.trace_events,
                pct(self.qos_slack_p50, 3),
                pct(self.qos_slack_p95, 3),
                pct(self.qos_slack_p99, 3),
                pct(self.frame_latency_p95_ms, 1),
                pct(self.frame_latency_p99_ms, 1)
            )?;
        }
        if self.pool_timeline.len() > 1 || !self.phase_marks.is_empty() {
            writeln!(f, "pool-size timeline: {}", self.render_pool_timeline())?;
        }
        writeln!(f, "node-epoch utilization: {}", self.utilization.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(node_id: usize, sessions: u64, frames: u64, violation_percent: f64) -> NodeReport {
        NodeReport {
            node_id,
            sessions,
            frames,
            violation_percent,
            ..NodeReport::default()
        }
    }

    /// A fixed two-node pool: 400 frames at 10 % ∆ plus 100 on time.
    fn sample() -> FleetSummary {
        FleetSummary {
            policy: "least-loaded".into(),
            epochs: 10,
            duration_s: 10.0,
            nodes: vec![node(0, 3, 400, 10.0), node(1, 2, 100, 0.0)],
            cluster_violation_percent: 8.0,
            mean_power_w: 70.0,
            total_energy_j: 1_400.0,
            total_frames: 500,
            total_sessions: 5,
            rejected_sessions: 1,
            node_epochs: 2,
            peak_nodes: 2,
            pool_timeline: vec![(0, 2)],
            availability_percent: 100.0,
            ..FleetSummary::default()
        }
    }

    /// An elastic pool that grew to two nodes, then drained node 0 into
    /// node 1 and retired it.
    fn elastic_sample() -> FleetSummary {
        FleetSummary {
            nodes: vec![
                NodeReport {
                    migrated_out: 2,
                    retired: true,
                    ..node(0, 3, 400, 10.0)
                },
                NodeReport {
                    migrated_in: 2,
                    ..node(1, 1, 100, 0.0)
                },
            ],
            total_sessions: 4,
            rejected_sessions: 0,
            migrations: 1,
            scale_ups: 1,
            scale_downs: 1,
            drained_sessions: 2,
            pool_timeline: vec![(0, 1), (3, 2), (8, 1)],
            ..sample()
        }
    }

    #[test]
    fn display_mentions_policy_nodes_and_delta() {
        let text = sample().to_string();
        assert!(text.contains("least-loaded"));
        assert!(text.contains("n0"));
        assert!(text.contains("n1"));
        assert!(text.contains("delta 8.00%"));
        assert!(text.contains("1 rejected"));
    }

    #[test]
    fn display_renders_every_counter() {
        // Migration, warm-start and autoscale counters must all be
        // visible in the rendered summary, not just in the struct.
        let text = elastic_sample().to_string();
        assert!(text.contains("1 migrated"), "{text}");
        assert!(text.contains("warm-started"), "{text}");
        assert!(text.contains("1 scale-ups"), "{text}");
        assert!(text.contains("1 scale-downs"), "{text}");
        assert!(text.contains("2 drained"), "{text}");
        assert!(text.contains("2 node-epochs"), "{text}");
        assert!(text.contains("2 peak node(s)"), "{text}");
        assert!(
            text.contains("pool-size timeline: e0:1 e3:2 e8:1"),
            "{text}"
        );
        assert!(text.contains("n0†"), "retired marker missing: {text}");
        // Per-node migration columns are rendered.
        assert!(text.contains("mig+"), "{text}");
        assert!(text.contains("mig-"), "{text}");
    }

    #[test]
    fn policy_counters_render_only_for_learned_runs() {
        // Heuristic runs (even with heuristic decisions recorded) keep
        // their historical rendering…
        let heuristic = FleetSummary {
            heuristic_decisions: 1,
            heuristic_scale_events: 1,
            ..sample()
        };
        assert!(!heuristic.to_string().contains("policy:"), "{heuristic}");
        // …while a learned run gets the greedy/exploratory split and the
        // scale-event attribution.
        let learned = FleetSummary {
            greedy_actions: 2,
            exploratory_actions: 1,
            learned_scale_events: 1,
            ..heuristic
        };
        let text = learned.to_string();
        assert!(
            text.contains("policy: 2 greedy / 1 exploratory decisions"),
            "{text}"
        );
        assert!(
            text.contains("scale events: 1 learned, 1 heuristic"),
            "{text}"
        );
    }

    #[test]
    fn fault_block_renders_only_for_chaos_runs() {
        // A fault-free run (even a checkpointed one) keeps its
        // historical rendering…
        let quiet = FleetSummary {
            checkpoints: 1,
            ..sample()
        };
        let text = quiet.to_string();
        assert!(!text.contains("faults:"), "{text}");
        assert!(!text.contains("resilience:"), "{text}");
        // …while a chaos run renders every fault counter.
        let chaos = FleetSummary {
            crashes: 1,
            throttles: 1,
            sessions_recovered: 1,
            frames_redone: 37,
            shed_sessions: 1,
            down_node_epochs: 2,
            recoveries: 1,
            availability_percent: 50.0,
            mean_mttr_epochs: 2.0,
            ..quiet
        };
        let text = chaos.to_string();
        assert!(
            text.contains(
                "faults: 1 crashes | 1 throttled | 1 recovered (37 frames redone, 0 lost) | 1 shed | 1 checkpoints"
            ),
            "{text}"
        );
        assert!(
            text.contains(
                "resilience: 50.00% availability | 2 down node-epochs | MTTR 2.0 epochs over 1 recoveries"
            ),
            "{text}"
        );
    }

    #[test]
    fn fixed_pool_display_skips_the_timeline_line() {
        let text = sample().to_string();
        assert!(text.contains("pool: 2 peak node(s)"), "{text}");
        assert!(!text.contains("pool-size timeline"), "{text}");
    }

    #[test]
    fn phase_marks_interleave_with_the_pool_timeline() {
        let mut s = elastic_sample();
        s.phase_marks = vec![
            (0, "diurnal".into()),
            (5, "flash-crowd".into()),
            (9, "tail".into()),
        ];
        assert_eq!(
            s.render_pool_timeline(),
            "[diurnal@e0] e0:1 e3:2 [flash-crowd@e5] e8:1 [tail@e9]"
        );
        let text = s.to_string();
        assert!(
            text.contains("[flash-crowd@e5]"),
            "marks missing from display: {text}"
        );
    }

    #[test]
    fn phase_marks_render_even_for_a_fixed_pool() {
        // A fixed pool normally skips the timeline line; an annotated
        // run must still show where its phases fell.
        let mut s = sample();
        s.phase_marks = vec![(2, "steady".into())];
        assert!(s
            .to_string()
            .contains("pool-size timeline: e0:2 [steady@e2]"));
    }

    #[test]
    fn display_is_reproducible() {
        assert_eq!(sample().to_string(), sample().to_string());
        assert_eq!(elastic_sample().to_string(), elastic_sample().to_string());
    }
}
