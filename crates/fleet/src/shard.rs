//! Sharded fleet coordination: regions/cells of nodes, each a full
//! [`FleetSim`] with its own dispatcher, autoscaler, rebalancer and
//! knowledge store, driven in lockstep by one [`ShardedFleetSim`].
//!
//! A single coordinator tops out well below the "millions of users"
//! target: one global rebalance/autoscale pass per epoch, every node
//! visited every epoch, one `Arc<Mutex>` knowledge store. Sharding
//! splits the fleet the way real deployments do — by region or cell —
//! so per-epoch coordination cost is per-shard, and the expensive global
//! operations become explicit, infrequent exchanges:
//!
//! * **knowledge sync** — every [`ShardConfig::sync_interval`] epochs
//!   the shard stores are folded into a fleet-wide store (the
//!   visit-weighted merge is associative, so the fold equals flat
//!   publishing) and every shard adopts the fold; publish counters stay
//!   local, so per-shard invariants survive any number of syncs. Each
//!   shard owns its store: two shards holding one are rejected at
//!   [`ShardedFleetSim::run`];
//! * **session overflow** — after every lockstep epoch, if the busiest
//!   shard's mean utilization exceeds the high watermark while the
//!   idlest sits below the low one, a live session migrates across the
//!   shard boundary over the same `detach_session`/`attach_session`
//!   path rebalancers use inside a shard.
//!
//! Each lockstep epoch runs every shard's pre-advance steps (checkpoint
//! and faults, autoscale, dispatch) in shard order, then one advance of
//! every shard's active nodes — one fan-out per epoch, however many
//! shards — then every shard's post-advance steps (record, harvest,
//! rebalance) in shard order, then the cross-shard steps above. All but
//! the advance runs on the coordinating thread, and shards share no
//! state during it, so the whole stack inherits the fleet's
//! byte-identical determinism for any worker count. A single-shard
//! configuration is the degenerate case: its summary is byte-for-byte
//! what the wrapped [`FleetSim`] would have produced on its own.

use std::sync::Arc;

use mamut_metrics::UtilizationHistogram;

use crate::dispatch::cmp_utilization;
use crate::error::FleetError;
use crate::fault::{FaultEvent, FaultPlan};
use crate::knowledge::KnowledgeStore;
use crate::sim::{Advance, FleetSim};
use crate::summary::FleetSummary;
use crate::telemetry::{
    FleetTrace, TelemetryCollector, TelemetryEvent, TelemetryMode, COORDINATOR_LANE,
};

/// Coordination parameters for a sharded fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardConfig {
    /// Epochs between inter-shard knowledge syncs (0 disables syncing).
    /// Shards without a knowledge store neither contribute nor adopt.
    pub sync_interval: u64,
    /// Mean-utilization watermark above which a shard sheds load.
    pub overflow_high: f64,
    /// Mean-utilization watermark below which a shard accepts overflow.
    pub overflow_low: f64,
    /// Max sessions moved across shard boundaries per epoch (utilization
    /// is re-read after every move, so a burst drains gradually instead
    /// of thrashing).
    pub max_overflow_per_epoch: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            sync_interval: 8,
            overflow_high: 0.85,
            overflow_low: 0.5,
            max_overflow_per_epoch: 2,
        }
    }
}

impl ShardConfig {
    /// Overrides the knowledge-sync cadence (0 disables syncing).
    pub fn with_sync_interval(mut self, epochs: u64) -> Self {
        self.sync_interval = epochs;
        self
    }

    /// Overrides the overflow watermarks (shed above `high`, accept
    /// below `low`).
    pub fn with_overflow_watermarks(mut self, low: f64, high: f64) -> Self {
        self.overflow_low = low;
        self.overflow_high = high;
        self
    }

    /// Overrides the per-epoch cross-shard migration budget.
    pub fn with_max_overflow_per_epoch(mut self, moves: usize) -> Self {
        self.max_overflow_per_epoch = moves;
        self
    }
}

/// A fleet of fleets: named shards driven in lockstep epochs with
/// periodic knowledge sync and cross-shard session overflow.
pub struct ShardedFleetSim {
    config: ShardConfig,
    shards: Vec<(String, FleetSim)>,
    /// The summary this run will return: cross-shard events are counted
    /// straight into it, and `run` fills in the shard summaries.
    report: ShardedFleetSummary,
    /// Coordinator copy of the fault plan: sync-loss and partition
    /// events execute here; node-level events run inside the shards.
    fault_plan: FaultPlan,
    /// Cursor into the plan's (epoch-sorted) event list.
    next_fault: usize,
    /// Upcoming sync rounds to suppress (injected sync loss).
    sync_loss_rounds: u64,
    /// Partitioned shards as `(shard, until_epoch)`: cut off from
    /// overflow routing and knowledge sync (their nodes keep serving).
    partitions: Vec<(usize, u64)>,
    /// Coordinator-lane event recording (sync rounds, overflow routing);
    /// the per-shard timelines live inside the shards themselves.
    telemetry: TelemetryCollector,
}

impl std::fmt::Debug for ShardedFleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedFleetSim")
            .field("shards", &self.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardedFleetSim {
    /// Creates an empty sharded coordinator. Shards are added with
    /// [`ShardedFleetSim::add_shard`].
    pub fn new(config: ShardConfig) -> Self {
        ShardedFleetSim {
            config,
            shards: Vec::new(),
            report: ShardedFleetSummary::default(),
            fault_plan: FaultPlan::new(),
            next_fault: 0,
            sync_loss_rounds: 0,
            partitions: Vec::new(),
            telemetry: TelemetryCollector::default(),
        }
    }

    /// Switches structured event tracing on or off for the whole sharded
    /// deployment: every shard records its own timeline and the
    /// coordinator records sync/overflow events on the
    /// [`COORDINATOR_LANE`]. Shards added later take the same mode.
    pub fn set_telemetry(&mut self, mode: TelemetryMode) {
        self.telemetry.set_mode(mode);
        for (_, sim) in &mut self.shards {
            sim.set_telemetry(mode);
        }
    }

    /// The merged deployment-wide trace: per-shard timelines on their
    /// shard-index lanes plus coordinator events, grouped by epoch (the
    /// coordinator's events sort after the shard work of the epoch they
    /// followed — mirroring the lockstep loop).
    pub fn trace(&self) -> FleetTrace {
        let epoch_s = self
            .shards
            .first()
            .map(|(_, sim)| sim.config().epoch_s)
            .unwrap_or(1.0);
        let mut parts: Vec<(u32, FleetTrace)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(index, (_, sim))| (index as u32, sim.trace()))
            .collect();
        parts.push((COORDINATOR_LANE, self.telemetry.trace(epoch_s)));
        FleetTrace::merge_sharded(epoch_s, parts)
    }

    /// Records one coordinator-lane event, stamped with the lockstep
    /// epoch the shards just completed (the coordinator runs between
    /// epochs, at the boundary instant).
    fn record_coordinator(&mut self, event: TelemetryEvent) {
        if !self.telemetry.enabled() {
            return;
        }
        let completed = self.shards[0].1.epoch();
        let at_us =
            (completed as f64 * self.shards[0].1.config().epoch_s * 1_000_000.0).round() as u64;
        self.telemetry
            .record(completed.saturating_sub(1), at_us, event);
    }

    /// Installs a fault plan across the sharded deployment (shards added
    /// later take it too). Node-level events (crashes, thermal
    /// throttles) are executed by the shard their `(shard, node)`
    /// address names; coordinator-level events run here: a
    /// [`FaultEvent::SyncLoss`] suppresses the next due knowledge-sync
    /// rounds, and a [`FaultEvent::ShardPartition`] cuts a shard off
    /// from overflow routing and knowledge sync for its duration (the
    /// shard's nodes keep serving — the partition severs coordination,
    /// not the shard).
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        for (_, sim) in &mut self.shards {
            sim.set_fault_plan(plan.clone());
        }
        self.fault_plan = plan;
    }

    /// Adds a shard: a fully configured [`FleetSim`] (nodes, dispatcher,
    /// workload, optional autoscaler/rebalancer/store) under a region
    /// name. Shards step in the order they were added. All shards must
    /// share one epoch length — lockstep epochs are what keep clocks
    /// aligned for cross-shard migration (checked at `run`). The shard
    /// learns its index and takes the deployment's fault plan and
    /// telemetry mode, replacing any it was configured with on its own.
    pub fn add_shard(&mut self, name: impl Into<String>, mut sim: FleetSim) -> usize {
        let index = self.shards.len();
        sim.set_shard_index(index);
        sim.set_fault_plan(self.fault_plan.clone());
        sim.set_telemetry(self.telemetry.mode());
        self.shards.push((name.into(), sim));
        index
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards with their region names, in shard order: read-only
    /// drill-down, each shard's [`FleetSim::nodes`] holding the
    /// per-session rows behind its summary.
    pub fn shards(&self) -> &[(String, FleetSim)] {
        &self.shards
    }

    /// Runs every shard's workload to completion in lockstep epochs.
    /// Each epoch runs every shard's pre-advance steps in shard order,
    /// one advance of every shard's active nodes, every shard's
    /// post-advance steps in shard order, then the cross-shard steps.
    /// Each run reports its own cross-shard counts: they are counted
    /// into a summary reset when the run starts.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] without shards (or from a shard without
    /// nodes). [`FleetError::InvalidConfig`] when an overflow watermark
    /// is not finite, `overflow_low` exceeds `overflow_high`, shards
    /// disagree on the epoch length, or two shards hold the same
    /// knowledge store; these are checked before any shard steps. Any
    /// shard error surfaces unchanged: one from a shard's checkpoint,
    /// fault, autoscale or dispatch step surfaces before any node of that
    /// epoch advances, and a node failure is the one with the lowest
    /// `(shard, node)` address. [`FleetError::EpochBudgetExhausted`] when
    /// a shard's workload cannot drain within its epoch budget. Every
    /// run first drops each shard's previous flight-recorder dump. On an
    /// error once the shards step, every traced shard keeps a dump of
    /// this run (see [`FleetSim::flight_dump`]); a run rejected by the
    /// checks above, or by a shard's own, leaves none.
    pub fn run(&mut self) -> Result<ShardedFleetSummary, FleetError> {
        for (_, sim) in &mut self.shards {
            sim.clear_flight_dump();
        }
        self.begin_run()?;
        let result = self.run_epochs();
        if result.is_err() {
            for (_, sim) in &mut self.shards {
                sim.capture_flight_dump();
            }
        }
        result
    }

    /// Checks the shards against each other, then resets run-scoped
    /// state: the cross-shard report, every shard's run
    /// ([`FleetSim::begin_run`]) and the coordinator's telemetry.
    fn begin_run(&mut self) -> Result<(), FleetError> {
        self.report = ShardedFleetSummary::default();
        if self.shards.is_empty() {
            return Err(FleetError::NoNodes);
        }
        // A NaN or infinite watermark silently disables overflow routing;
        // inverted ones make a shard hot and cold at once, so shards would
        // trade sessions back and forth.
        let (low, high) = (self.config.overflow_low, self.config.overflow_high);
        if !(low.is_finite() && high.is_finite() && low <= high) {
            return Err(FleetError::InvalidConfig(format!(
                "overflow watermarks must be finite with low <= high, got {low} and {high}"
            )));
        }
        let epoch_s = self.shards[0].1.config().epoch_s;
        for (name, sim) in &self.shards {
            if sim.config().epoch_s != epoch_s {
                return Err(FleetError::InvalidConfig(format!(
                    "shard {name} has epoch_s {} but shard {} set {epoch_s} — \
                     lockstep shards must share one epoch length",
                    sim.config().epoch_s,
                    self.shards[0].0,
                )));
            }
        }
        // Each shard owns its store. One advance serves every shard, so
        // every shard seeds an epoch's new sessions before any shard
        // harvests that epoch; on a shared store each shard would also
        // count the other's warm starts as its own.
        for (index, (name, sim)) in self.shards.iter().enumerate() {
            let Some(store) = sim.knowledge_ref() else {
                continue;
            };
            let earlier = self.shards[..index]
                .iter()
                .find(|(_, other)| other.knowledge_ref().is_some_and(|o| Arc::ptr_eq(o, store)));
            if let Some((first, _)) = earlier {
                return Err(FleetError::InvalidConfig(format!(
                    "shards {first} and {name} share one knowledge store — \
                     each shard needs its own (knowledge sync spreads it)"
                )));
            }
        }
        for (_, sim) in &mut self.shards {
            sim.begin_run()?;
        }
        self.telemetry.reset();
        Ok(())
    }

    fn run_epochs(&mut self) -> Result<ShardedFleetSummary, FleetError> {
        loop {
            for (_, sim) in &mut self.shards {
                sim.pre_advance()?;
            }
            Advance::new(self.shards.iter_mut().map(|(_, sim)| sim)).run()?;
            for (_, sim) in &mut self.shards {
                sim.post_advance()?;
            }
            if self.shards.len() > 1 {
                let epoch = self.shards[0].1.epoch();
                self.apply_coordinator_faults(epoch);
                self.route_overflow()?;
                if self.config.sync_interval > 0 && epoch.is_multiple_of(self.config.sync_interval)
                {
                    if self.sync_loss_rounds > 0 {
                        self.sync_loss_rounds -= 1;
                        self.report.sync_rounds_lost += 1;
                        self.record_coordinator(TelemetryEvent::SyncRoundLost);
                    } else {
                        let stores = self.sync_knowledge();
                        if stores > 0 {
                            self.record_coordinator(TelemetryEvent::KnowledgeSync {
                                stores: stores as u32,
                            });
                        }
                    }
                }
            }
            self.telemetry.end_epoch();
            if self.shards.iter().all(|(_, sim)| sim.is_drained()) {
                break;
            }
            // Only an undrained shard can be stuck: a shard that finished
            // early keeps stepping in lockstep (cheap idle epochs, ticked
            // on the coordinator) without burning its own budget.
            for (_, sim) in &self.shards {
                if !sim.is_drained() && sim.epoch() >= sim.config().max_epochs {
                    return Err(FleetError::EpochBudgetExhausted {
                        epochs: sim.epoch(),
                    });
                }
            }
        }
        let epochs = self.shards[0].1.epoch();
        let epoch_s = self.shards[0].1.config().epoch_s;
        let shards = self
            .shards
            .iter_mut()
            .map(|(name, sim)| (name.clone(), sim.finish_run()))
            .collect();
        Ok(ShardedFleetSummary {
            epochs,
            duration_s: epochs as f64 * epoch_s,
            shards,
            ..std::mem::take(&mut self.report)
        })
    }

    /// Executes coordinator-level fault events due by `epoch` (sync loss
    /// and shard partitions) and advances the partition bookkeeping.
    /// Node-level events in the same plan are skipped here — each shard
    /// executes its own through its plan copy.
    fn apply_coordinator_faults(&mut self, epoch: u64) {
        self.partitions.retain(|&(_, until)| until > epoch);
        for event in self.fault_plan.take_due(&mut self.next_fault, epoch) {
            match event {
                FaultEvent::SyncLoss { rounds, .. } => {
                    self.sync_loss_rounds += rounds;
                }
                FaultEvent::ShardPartition {
                    shard,
                    duration_epochs,
                    ..
                } if shard < self.shards.len() => {
                    self.partitions
                        .push((shard, epoch + duration_epochs.max(1)));
                }
                _ => {} // node-level events belong to their shard
            }
        }
        self.report.partition_epochs += self.partitions.len() as u64;
    }

    /// Shard indices currently cut off from coordination.
    fn partitioned(&self) -> std::collections::BTreeSet<usize> {
        self.partitions.iter().map(|&(shard, _)| shard).collect()
    }

    /// Moves up to the per-epoch budget of sessions from the shard above
    /// the high watermark to the shard below the low one. Utilization is
    /// re-read after every move; ties break toward the lower shard id,
    /// so routing is deterministic.
    fn route_overflow(&mut self) -> Result<(), FleetError> {
        for _ in 0..self.config.max_overflow_per_epoch {
            // A partitioned shard is unreachable: it neither sheds nor
            // accepts overflow until the partition heals.
            let cut = self.partitioned();
            let utils: std::collections::BTreeMap<usize, f64> = (0..self.shards.len())
                .filter(|i| !cut.contains(i))
                .map(|i| (i, self.shards[i].1.mean_active_utilization()))
                .collect();
            let eligible = || utils.keys().copied();
            let max =
                eligible().max_by(|&a, &b| cmp_utilization(utils[&a], utils[&b]).then(b.cmp(&a)));
            let min =
                eligible().min_by(|&a, &b| cmp_utilization(utils[&a], utils[&b]).then(a.cmp(&b)));
            // With one reachable shard, it is both source and target.
            let (Some(source), Some(target)) = (max, min) else {
                return Ok(());
            };
            if source == target
                || utils[&source] <= self.config.overflow_high
                || utils[&target] >= self.config.overflow_low
            {
                return Ok(());
            }
            let Some(migrated) = self.shards[source].1.overflow_detach()? else {
                return Ok(()); // the hot shard holds no live session
            };
            let session = migrated.request.id;
            self.shards[target].1.overflow_attach(migrated);
            self.report.inter_shard_migrations += 1;
            self.record_coordinator(TelemetryEvent::OverflowMigration {
                session,
                from_shard: source as u32,
                to_shard: target as u32,
            });
        }
        Ok(())
    }

    /// One knowledge-sync round: fold every reachable shard's store
    /// (shard-id order) into a fleet-wide store, then every one of them
    /// adopts the fold. Each shard holds its own store (`run` rejects a
    /// shared one); shards without a store are skipped. Publish and seed
    /// counters stay local — syncing moves knowledge, it is not a session
    /// finishing. Returns the number of stores that exchanged knowledge
    /// (0 when nothing synced).
    fn sync_knowledge(&mut self) -> usize {
        let cut = self.partitioned();
        // A partitioned shard's store neither contributes to nor adopts
        // the fold this round.
        let stores: Vec<_> = self
            .shards
            .iter()
            .enumerate()
            .filter(|(index, _)| !cut.contains(index))
            .filter_map(|(_, (_, sim))| sim.knowledge_ref())
            .collect();
        if stores.len() < 2 {
            return 0; // nothing to exchange
        }
        let policy = stores[0].lock().expect("knowledge store poisoned").policy();
        let mut global = KnowledgeStore::new(policy);
        for store in &stores {
            global.absorb(&store.lock().expect("knowledge store poisoned"));
        }
        for store in &stores {
            store
                .lock()
                .expect("knowledge store poisoned")
                .adopt_knowledge(&global);
        }
        self.report.knowledge_syncs += 1;
        stores.len()
    }
}

/// Whole-cluster results of a sharded run: per-shard [`FleetSummary`]s
/// plus the cross-shard counters, with frames-weighted cluster rollups.
/// The [`std::fmt::Display`] rendering prefixes every per-shard row with
/// `shard=<name>` — including each shard's pool-size timeline — so a
/// sharded run is debuggable from the summary alone.
///
/// Like each shard's [`FleetSummary`], it is the run's only tally of
/// its counters: [`ShardedFleetSim::run`] resets one when it starts and
/// counts overflow migrations, sync rounds (held or lost) and
/// partitioned shard-epochs straight into it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardedFleetSummary {
    /// Lockstep epochs simulated (identical across shards).
    pub epochs: u64,
    /// Virtual duration (s).
    pub duration_s: f64,
    /// Per-shard summaries in shard-id order, with their region names.
    pub shards: Vec<(String, FleetSummary)>,
    /// Sessions moved across shard boundaries by the overflow router.
    pub inter_shard_migrations: u64,
    /// Knowledge-sync rounds performed.
    pub knowledge_syncs: u64,
    /// Sync rounds that were due but suppressed by injected sync loss.
    pub sync_rounds_lost: u64,
    /// Shard-epochs spent partitioned from the coordinator.
    pub partition_epochs: u64,
}

impl ShardedFleetSummary {
    /// Frames completed across every shard.
    pub fn total_frames(&self) -> u64 {
        self.shards.iter().map(|(_, s)| s.total_frames).sum()
    }

    /// Sessions admitted across every shard.
    pub fn total_sessions(&self) -> u64 {
        self.shards.iter().map(|(_, s)| s.total_sessions).sum()
    }

    /// Powered node-epochs across every shard.
    pub fn node_epochs(&self) -> u64 {
        self.shards.iter().map(|(_, s)| s.node_epochs).sum()
    }

    /// Total cluster energy (J) across every shard.
    pub fn total_energy_j(&self) -> f64 {
        self.shards.iter().map(|(_, s)| s.total_energy_j).sum()
    }

    /// Cluster-wide ∆, frames-weighted across shards (the same weighting
    /// [`FleetSummary`] applies across nodes).
    pub fn cluster_violation_percent(&self) -> f64 {
        let frames = self.total_frames();
        if frames == 0 {
            return 0.0;
        }
        let weighted: f64 = self
            .shards
            .iter()
            .map(|(_, s)| s.cluster_violation_percent * s.total_frames as f64)
            .sum();
        weighted / frames as f64
    }

    /// Node-epoch utilization across every shard, bucket-merged.
    pub fn utilization(&self) -> UtilizationHistogram {
        let mut merged = UtilizationHistogram::new();
        for (_, s) in &self.shards {
            merged.merge(&s.utilization);
        }
        merged
    }
}

impl std::fmt::Display for ShardedFleetSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "ShardedFleetSummary — {} shard(s), {} epochs, {:.1} s virtual | {} inter-shard migrations | {} knowledge syncs",
            self.shards.len(),
            self.epochs,
            self.duration_s,
            self.inter_shard_migrations,
            self.knowledge_syncs
        )?;
        // Only chaos runs render the coordinator-fault line, so
        // fault-free sharded runs keep their historical output.
        if self.sync_rounds_lost + self.partition_epochs > 0 {
            writeln!(
                f,
                "coordinator faults: {} sync rounds lost | {} partitioned shard-epochs",
                self.sync_rounds_lost, self.partition_epochs
            )?;
        }
        for (name, s) in &self.shards {
            writeln!(
                f,
                "shard={name} [{}]: {} nodes | delta {:.2}% | {} sessions ({} mig+, {} mig-) | {} frames | {} node-epochs | {} scale-ups | {} scale-downs",
                s.policy,
                s.nodes.len(),
                s.cluster_violation_percent,
                s.total_sessions,
                s.nodes.iter().map(|n| n.migrated_in).sum::<u64>(),
                s.nodes.iter().map(|n| n.migrated_out).sum::<u64>(),
                s.total_frames,
                s.node_epochs,
                s.scale_ups,
                s.scale_downs
            )?;
            if s.crashes + s.throttles + s.shed_sessions > 0 {
                writeln!(
                    f,
                    "shard={name} faults: {} crashes | {} throttled | {} recovered ({} frames redone) | {} shed | {:.2}% availability | MTTR {:.1} epochs",
                    s.crashes,
                    s.throttles,
                    s.sessions_recovered,
                    s.frames_redone,
                    s.shed_sessions,
                    s.availability_percent,
                    s.mean_mttr_epochs
                )?;
            }
            // Traced runs also surface the shard's tail ledgers; off
            // runs keep their historical output byte-for-byte.
            if s.trace_events > 0 {
                let pct = |v: Option<f64>, digits: usize| {
                    v.map(|x| format!("{x:.digits$}"))
                        .unwrap_or_else(|| "-".to_owned())
                };
                writeln!(
                    f,
                    "shard={name} telemetry: {} events | qos-slack p95/p99 {}/{} | frame-lat p95/p99 {}/{} ms",
                    s.trace_events,
                    pct(s.qos_slack_p95, 3),
                    pct(s.qos_slack_p99, 3),
                    pct(s.frame_latency_p95_ms, 1),
                    pct(s.frame_latency_p99_ms, 1)
                )?;
            }
            if s.pool_timeline.len() > 1 || !s.phase_marks.is_empty() {
                writeln!(
                    f,
                    "shard={name} pool-size timeline: {}",
                    s.render_pool_timeline()
                )?;
            }
        }
        writeln!(
            f,
            "cluster: delta {:.2}% | {} sessions | {} frames | {} node-epochs | {:.0} J",
            self.cluster_violation_percent(),
            self.total_sessions(),
            self.total_frames(),
            self.node_epochs(),
            self.total_energy_j()
        )?;
        writeln!(
            f,
            "cluster node-epoch utilization: {}",
            self.utilization().render()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{LeastLoaded, RoundRobin};
    use crate::knowledge::{KnowledgeStore, MergePolicy, SessionClass};
    use crate::node::{ControllerFactory, FleetNode};
    use crate::sim::FleetConfig;
    use crate::workload::{SessionRequest, Workload, WorkloadConfig};
    use mamut_core::{FixedController, KnobSettings};

    fn fixed_factory() -> ControllerFactory {
        Box::new(|req| {
            let threads = if req.hr { 10 } else { 4 };
            Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
        })
    }

    fn workload(seed: u64, sessions: usize) -> Workload {
        Workload::try_generate(&WorkloadConfig {
            seed,
            sessions,
            mean_interarrival_s: 1.0,
            vod_frames: (30, 90),
            live_frames: (90, 180),
            ..WorkloadConfig::default()
        })
        .expect("valid workload config")
    }

    fn shard_sim(seed: u64, sessions: usize, nodes: usize) -> FleetSim {
        let mut sim = FleetSim::new(
            FleetConfig::default().with_worker_threads(2),
            Box::new(LeastLoaded::new()),
            workload(seed, sessions),
        );
        for _ in 0..nodes {
            sim.add_node(fixed_factory());
        }
        sim
    }

    #[test]
    fn no_shards_errors() {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        assert_eq!(sharded.run().unwrap_err(), FleetError::NoNodes);
    }

    #[test]
    fn mismatched_epoch_lengths_error() {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        sharded.add_shard("a", shard_sim(1, 4, 2));
        let mut odd = FleetSim::new(
            FleetConfig::default().with_epoch_s(0.5),
            Box::new(RoundRobin::new()),
            workload(2, 4),
        );
        odd.add_node(fixed_factory());
        sharded.add_shard("b", odd);
        assert!(matches!(
            sharded.run().unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
    }

    #[test]
    fn single_shard_is_byte_identical_to_the_unsharded_fleet() {
        let plain = shard_sim(11, 8, 3).run().unwrap();
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        sharded.add_shard("solo", shard_sim(11, 8, 3));
        let summary = sharded.run().unwrap();
        assert_eq!(summary.shards.len(), 1);
        assert_eq!(summary.inter_shard_migrations, 0);
        assert_eq!(summary.knowledge_syncs, 0);
        assert_eq!(
            summary.shards[0].1, plain,
            "degenerate config must not drift"
        );
        assert_eq!(summary.shards[0].1.to_string(), plain.to_string());
    }

    #[test]
    fn lockstep_shards_serve_every_arrival() {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        sharded.add_shard("east", shard_sim(21, 6, 2));
        sharded.add_shard("west", shard_sim(22, 10, 2));
        let summary = sharded.run().unwrap();
        assert_eq!(summary.total_sessions(), 16);
        assert_eq!(
            summary.total_frames(),
            summary
                .shards
                .iter()
                .map(|(_, s)| s.total_frames)
                .sum::<u64>()
        );
        assert!(summary.total_frames() > 0);
        // Lockstep: both shards report the run's epoch count.
        for (_, s) in &summary.shards {
            assert_eq!(s.epochs, summary.epochs);
        }
        let text = summary.to_string();
        assert!(text.contains("shard=east"), "{text}");
        assert!(text.contains("shard=west"), "{text}");
        assert!(text.contains("cluster:"), "{text}");
    }

    /// Six 600-frame HR sessions on a one-node shard next to an idle
    /// two-node shard, under watermarks the hot shard crosses.
    fn hot_and_cold() -> ShardedFleetSim {
        let hot_arrivals: Vec<SessionRequest> = (0..6)
            .map(|i| SessionRequest {
                id: i,
                arrival_s: 0.1 * i as f64,
                hr: true,
                live: false,
                frames: 600,
                seed: i,
            })
            .collect();
        let mut hot = FleetSim::new(
            FleetConfig::default(),
            Box::new(LeastLoaded::new()),
            Workload::replay(hot_arrivals),
        );
        hot.add_node(fixed_factory());
        let mut cold = FleetSim::new(
            FleetConfig::default(),
            Box::new(LeastLoaded::new()),
            Workload::replay(Vec::new()),
        );
        cold.add_node(fixed_factory());
        cold.add_node(fixed_factory());
        let mut sharded =
            ShardedFleetSim::new(ShardConfig::default().with_overflow_watermarks(0.5, 0.9));
        sharded.add_shard("hot", hot);
        sharded.add_shard("cold", cold);
        sharded
    }

    /// An overloaded one-node shard next to an idle one: the router must
    /// shed sessions across the boundary and nothing may be lost.
    #[test]
    fn overflow_routes_sessions_from_hot_to_cold_shards() {
        let expected_frames = 6 * 600;
        let mut sharded = hot_and_cold();
        let summary = sharded.run().unwrap();
        assert!(
            summary.inter_shard_migrations > 0,
            "the hot shard never shed load: {summary}"
        );
        assert_eq!(
            summary.total_frames(),
            expected_frames,
            "moves never lose frames"
        );
        let cold_in: u64 = summary.shards[1]
            .1
            .nodes
            .iter()
            .map(|n| n.migrated_in)
            .sum();
        assert_eq!(cold_in, summary.inter_shard_migrations);
        assert!(
            summary.shards[1].1.total_frames > 0,
            "overflow sessions finish on the cold shard"
        );
        // Every session keeps one row, on the node of whichever shard it
        // finished in.
        let runs: Vec<_> = sharded
            .shards()
            .iter()
            .flat_map(|(_, sim)| sim.nodes())
            .map(FleetNode::summary)
            .collect();
        let rows: Vec<_> = runs.iter().flat_map(|run| &run.sessions).collect();
        assert_eq!(rows.len() as u64, summary.total_sessions());
        let frames: u64 = rows.iter().map(|row| row.frames).sum();
        assert_eq!(frames, summary.total_frames());
        let text = summary.to_string();
        assert!(text.contains("inter-shard migrations"), "{text}");
    }

    #[test]
    fn a_rerun_reports_only_its_own_cross_shard_counts() {
        let mut sharded = hot_and_cold();
        let first = sharded.run().unwrap();
        assert_eq!(first.inter_shard_migrations, 3, "{first}");
        // The first run drained both workloads: the second has no live
        // session to route, and must not repeat the first run's count.
        let second = sharded.run().unwrap();
        assert_eq!(second.inter_shard_migrations, 0, "{second}");
        assert_eq!(second.knowledge_syncs, 0);
        assert_eq!(second.sync_rounds_lost, 0);
        assert_eq!(second.partition_epochs, 0);
    }

    #[test]
    fn knowledge_syncs_spread_tables_without_faking_publishes() {
        use mamut_core::{MamutConfig, MamutController};
        let learner_factory = || -> ControllerFactory {
            Box::new(|req| {
                let cfg = if req.hr {
                    MamutConfig::paper_hr()
                } else {
                    MamutConfig::paper_lr()
                };
                Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
            })
        };
        let mut sharded = ShardedFleetSim::new(ShardConfig::default().with_sync_interval(2));
        let mut stores = Vec::new();
        for (i, name) in ["east", "west"].iter().enumerate() {
            let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
            let mut sim = FleetSim::new(
                FleetConfig::default(),
                Box::new(LeastLoaded::new()),
                workload(31 + i as u64, 6),
            );
            sim.add_node(learner_factory());
            sim.add_node(learner_factory());
            sim.set_knowledge_store(Arc::clone(&store));
            sharded.add_shard(*name, sim);
            stores.push(store);
        }
        let summary = sharded.run().unwrap();
        assert!(summary.knowledge_syncs > 0, "sync cadence never fired");
        for (store, (_, shard)) in stores.iter().zip(&summary.shards) {
            let store = store.lock().unwrap();
            assert_eq!(
                store.publishes(),
                shard.total_sessions,
                "sync must not count as publishing"
            );
            // After the final sync both shards hold the fleet-wide fold.
            assert!(store.knowledge(SessionClass::Hr, "mamut").is_some());
        }
        let east = stores[0].lock().unwrap();
        let west = stores[1].lock().unwrap();
        let (a, b) = (
            east.knowledge(SessionClass::Hr, "mamut"),
            west.knowledge(SessionClass::Hr, "mamut"),
        );
        if let (Some(a), Some(b)) = (a, b) {
            if summary.epochs.is_multiple_of(2) {
                // The run ended on a sync boundary: stores are identical.
                assert_eq!(a.snapshot.encode(), b.snapshot.encode());
            }
        }
    }

    #[test]
    fn node_faults_execute_only_in_their_addressed_shard() {
        // The plan and telemetry mode reach every shard whether they are
        // set before or after the shards are added.
        let configure = |sharded: &mut ShardedFleetSim| {
            sharded.set_fault_plan(crate::fault::FaultPlan::new().with_crash_in(2, 1, 0));
            sharded.set_telemetry(TelemetryMode::Full);
        };
        let run = |configure_first: bool| {
            let mut sharded = ShardedFleetSim::new(ShardConfig::default());
            if configure_first {
                configure(&mut sharded);
            }
            sharded.add_shard("east", shard_sim(21, 6, 2));
            sharded.add_shard("west", shard_sim(22, 10, 2));
            if !configure_first {
                configure(&mut sharded);
            }
            let summary = sharded.run().unwrap();
            (summary, sharded.trace().encode())
        };
        let (summary, trace) = run(false);
        assert_eq!(summary.shards[0].1.crashes, 0, "east was never addressed");
        assert_eq!(summary.shards[1].1.crashes, 1);
        assert_eq!(summary.total_sessions(), 16, "no arrival was lost");
        let text = summary.to_string();
        assert!(text.contains("shard=west faults: 1 crashes"), "{text}");
        assert!(!text.contains("shard=east faults:"), "{text}");
        assert!(
            run(true) == (summary, trace),
            "configuring before adding shards changed the run"
        );
    }

    #[test]
    fn invalid_overflow_watermarks_error_before_any_shard_steps() {
        for (low, high) in [(f64::NAN, 0.9), (0.5, f64::INFINITY), (0.9, 0.5)] {
            let config = ShardConfig::default().with_overflow_watermarks(low, high);
            let mut sharded = ShardedFleetSim::new(config);
            sharded.add_shard("east", shard_sim(21, 6, 2));
            let err = sharded.run().unwrap_err();
            assert!(matches!(err, FleetError::InvalidConfig(_)), "{err:?}");
            assert_eq!(sharded.shards[0].1.epoch(), 0, "a shard stepped");
        }
    }

    #[test]
    fn shards_sharing_a_knowledge_store_are_rejected_before_any_shard_steps() {
        let shared = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let own = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        for (i, (name, store)) in [("east", &shared), ("west", &own), ("north", &shared)]
            .into_iter()
            .enumerate()
        {
            let mut sim = shard_sim(21 + i as u64, 6, 2);
            sim.set_knowledge_store(Arc::clone(store));
            sharded.add_shard(name, sim);
        }
        let err = sharded.run().unwrap_err();
        match &err {
            FleetError::InvalidConfig(message) => {
                assert!(message.contains("east and north"), "{message}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        for (name, sim) in &sharded.shards {
            assert_eq!(sim.epoch(), 0, "shard {name} stepped");
        }
        assert_eq!(shared.lock().unwrap().seeds_served(), 0);
    }

    #[test]
    fn sync_loss_suppresses_due_rounds_then_recovers() {
        use mamut_core::{MamutConfig, MamutController};
        let learner_factory = || -> ControllerFactory {
            Box::new(|req| {
                let cfg = if req.hr {
                    MamutConfig::paper_hr()
                } else {
                    MamutConfig::paper_lr()
                };
                Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
            })
        };
        let build = |plan: Option<crate::fault::FaultPlan>| {
            let mut sharded = ShardedFleetSim::new(ShardConfig::default().with_sync_interval(2));
            for (i, name) in ["east", "west"].iter().enumerate() {
                let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
                let mut sim = FleetSim::new(
                    FleetConfig::default(),
                    Box::new(LeastLoaded::new()),
                    workload(31 + i as u64, 6),
                );
                sim.add_node(learner_factory());
                sim.add_node(learner_factory());
                sim.set_knowledge_store(Arc::clone(&store));
                sharded.add_shard(*name, sim);
            }
            if let Some(plan) = plan {
                sharded.set_fault_plan(plan);
            }
            sharded.run().unwrap()
        };
        let quiet = build(None);
        let lossy = build(Some(crate::fault::FaultPlan::new().with_sync_loss(1, 2)));
        assert_eq!(lossy.sync_rounds_lost, 2, "{lossy}");
        assert_eq!(
            lossy.knowledge_syncs + lossy.sync_rounds_lost,
            quiet.knowledge_syncs,
            "a lost round is a sync that would otherwise have happened"
        );
        let text = lossy.to_string();
        assert!(
            text.contains("coordinator faults: 2 sync rounds lost"),
            "{text}"
        );
        assert!(!quiet.to_string().contains("coordinator faults:"));
    }

    #[test]
    fn partitioned_shards_are_cut_off_from_overflow() {
        let build = |plan: Option<crate::fault::FaultPlan>| {
            let mut sharded = hot_and_cold();
            if let Some(plan) = plan {
                sharded.set_fault_plan(plan);
            }
            sharded.run().unwrap()
        };
        let open = build(None);
        assert!(open.inter_shard_migrations > 0, "precondition: {open}");
        // Partition the cold shard for the whole run: with fewer than
        // two reachable shards the router has nowhere to move sessions.
        let cut = build(Some(
            crate::fault::FaultPlan::new().with_partition(1, 1, 10_000),
        ));
        assert_eq!(cut.inter_shard_migrations, 0, "{cut}");
        assert!(cut.partition_epochs > 0);
        assert_eq!(cut.total_frames(), open.total_frames(), "nothing lost");
        let text = cut.to_string();
        assert!(text.contains("partitioned shard-epochs"), "{text}");
    }

    #[test]
    fn sharded_runs_are_reproducible() {
        let build = || {
            let mut sharded = ShardedFleetSim::new(ShardConfig::default());
            sharded.add_shard("east", shard_sim(41, 6, 2));
            sharded.add_shard("west", shard_sim(42, 6, 2));
            sharded
        };
        let a = build().run().unwrap();
        let b = build().run().unwrap();
        assert_eq!(a, b);
        assert_eq!(a.to_string(), b.to_string());
    }
}
