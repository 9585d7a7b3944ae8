//! The fleet event loop: dispatch arrivals at epoch boundaries, advance
//! every node through the epoch in parallel, aggregate fleet metrics.
//!
//! # Time model
//!
//! Virtual time advances in fixed-length epochs. At each boundary the
//! coordinator (one thread) drains due arrivals through the dispatch
//! policy — queued leftovers first, FIFO — then hands the nodes to a
//! scoped thread pool that advances each one to the next boundary.
//! Within an epoch nodes are independent (a session placed at a
//! boundary starts at that boundary; nothing moves mid-epoch), so node
//! advancement is embarrassingly parallel and, crucially,
//! **deterministic regardless of worker count**: every node computes
//! exactly the same event sequence whether the fleet runs on 1 thread
//! or 16, and aggregation always folds nodes in id order.
//!
//! Everything stateful beyond node advancement happens on the
//! coordinating thread *between* epochs, in a fixed order: finished
//! sessions publish their learned policies to the knowledge store (if
//! one is attached, in node-id order), then the rebalance policy (if
//! one is installed) migrates live sessions between the time-aligned
//! nodes — so knowledge sharing and migration inherit the same
//! worker-count independence.
//!
//! # Accounting across migration
//!
//! A session carries its QoS history with it: after a move, its frames
//! and violations count toward the *destination* node's per-node rows
//! (per-node totals are re-sampled every epoch). Cluster-wide totals
//! are unaffected — a migration is a move, not an admission.

use std::collections::VecDeque;
use std::sync::Arc;

use mamut_metrics::fleet::FleetAggregate;
use mamut_platform::Platform;

use crate::autoscale::{Autoscaler, ScaleDecision, ScaleSignals};
use crate::dispatch::{cmp_utilization, DispatchDecision, Dispatcher, NodeView};
use crate::error::FleetError;
use crate::fault::{CheckpointBundle, CheckpointPolicy, FaultEvent, FaultPlan, NodeCheckpoint};
use crate::knowledge::{warm_start_factory, SharedKnowledgeStore};
use crate::node::{ControllerFactory, FleetNode, MigratedSession};
use crate::rebalance::Rebalancer;
use crate::summary::{FleetSummary, NodeFacts};
use crate::telemetry::{FleetTrace, TelemetryCollector, TelemetryEvent, TelemetryMode};
use crate::workload::{SessionRequest, Workload};

/// Builds the hardware and controller factory for a node the autoscaler
/// commissions mid-run. Consulted once per scale-up; if a knowledge
/// store is attached the fleet wraps the returned factory in
/// [`warm_start_factory`] itself, so provide the *cold* factory here.
pub type NodeProvisioner = Box<dyn FnMut() -> (Platform, ControllerFactory) + Send>;

/// Fleet-level simulation parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetConfig {
    /// Epoch length (virtual seconds); arrivals quantize up to the next
    /// boundary (admitted slightly late, never before they arrive).
    pub epoch_s: f64,
    /// OS worker threads advancing nodes within an epoch (clamped to
    /// `[1, nodes]`). Results do not depend on this value.
    pub worker_threads: usize,
    /// Per-node power budget (W) exposed to power-aware dispatch.
    pub power_cap_w: f64,
    /// Guard: max completions one node may process per epoch.
    pub max_events_per_epoch: u64,
    /// Guard: max epochs before the run is declared stuck.
    pub max_epochs: u64,
    /// Guard: hard ceiling on lifetime pool size (initial plus every
    /// node an autoscaler ever commissions). A runaway `Grow` decision
    /// is clamped here — the backstop behind whatever `max_nodes` the
    /// scaling policy itself enforces.
    pub max_pool_nodes: usize,
    /// Idle-node fast path: a node whose sessions have all finished has
    /// its next event beyond every epoch horizon, so the coordinator
    /// parks it in a *dormant set* — skipping its per-epoch utilization
    /// sample, advance, harvest and metrics work — and replays the
    /// missed idle epochs exactly (same boundaries, same sensor records,
    /// same aggregate pushes) the moment the node is touched again. Results
    /// are byte-identical with the flag on or off; per-epoch coordinator
    /// cost scales with *active* nodes instead of pool size.
    pub idle_fast_path: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            epoch_s: 1.0,
            worker_threads: 4,
            power_cap_w: 120.0,
            max_events_per_epoch: 10_000_000,
            max_epochs: 100_000,
            max_pool_nodes: 512,
            idle_fast_path: true,
        }
    }
}

impl FleetConfig {
    /// Overrides the worker-thread count.
    pub fn with_worker_threads(mut self, workers: usize) -> Self {
        self.worker_threads = workers;
        self
    }

    /// Overrides the epoch length.
    pub fn with_epoch_s(mut self, epoch_s: f64) -> Self {
        self.epoch_s = epoch_s;
        self
    }

    /// Enables or disables the idle-node fast path (on by default).
    pub fn with_idle_fast_path(mut self, enabled: bool) -> Self {
        self.idle_fast_path = enabled;
        self
    }
}

/// A cluster of transcoding nodes behind one dispatcher.
pub struct FleetSim {
    config: FleetConfig,
    dispatcher: Box<dyn Dispatcher>,
    nodes: Vec<FleetNode>,
    pending: VecDeque<SessionRequest>,
    queued: VecDeque<SessionRequest>,
    aggregate: FleetAggregate,
    epoch: u64,
    rebalancer: Option<Box<dyn Rebalancer>>,
    knowledge: Option<SharedKnowledgeStore>,
    autoscaler: Option<Box<dyn Autoscaler>>,
    provisioner: Option<NodeProvisioner>,
    phase_marks: Vec<(u64, String)>,
    /// Idle nodes parked by the fast path: node id → first epoch whose
    /// advance was skipped (BTreeMap for deterministic iteration at
    /// settle time). A parked node's view and QoS totals cannot change,
    /// so they are read off the node itself at wake time.
    dormant: std::collections::BTreeMap<usize, u64>,
    /// Warm starts already served when the run began (finish subtracts
    /// it so the summary counts this run's seeds only).
    seeds_at_start: u64,
    /// Scripted faults to inject between epochs (an empty plan by
    /// default).
    fault_plan: FaultPlan,
    /// Periodic checkpoint capture (off by default).
    checkpoint_policy: Option<CheckpointPolicy>,
    /// Latest encoded checkpoint bundle — what a crash recovers from.
    checkpoint: Option<Vec<u8>>,
    /// Crashed nodes awaiting replacement as `(ready_epoch,
    /// crash_epoch)`; each pending entry accrues one down-node-epoch per
    /// epoch until its replacement enters service.
    pending_replacements: Vec<(u64, u64)>,
    /// Live thermal throttles as `(node, until_epoch)`.
    throttles: Vec<(usize, u64)>,
    /// Cursor into the fault plan's (epoch-sorted) event list.
    next_fault: usize,
    /// Structured event recording (off by default). Also owns the
    /// crash/throttle/recovery marks faults emit — those are kept in
    /// every mode and merged with the scenario's phase marks into the
    /// summary timeline.
    telemetry: TelemetryCollector,
    /// Encoded flight-recorder dump captured automatically when a typed
    /// error aborted the last `run` (None after a clean run).
    flight_dump: Option<Vec<u8>>,
    /// This fleet's index in a sharded deployment (0 standalone): fault
    /// events name a `(shard, node)` pair and only the owning shard
    /// executes node-level events.
    shard_index: usize,
}

impl std::fmt::Debug for FleetSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetSim")
            .field("nodes", &self.nodes.len())
            .field("epoch", &self.epoch)
            .field("pending", &self.pending.len())
            .field("queued", &self.queued.len())
            .finish_non_exhaustive()
    }
}

impl FleetSim {
    /// Creates a fleet over `workload` with a dispatch policy. Nodes are
    /// added afterwards with [`FleetSim::add_node`].
    pub fn new(config: FleetConfig, dispatcher: Box<dyn Dispatcher>, workload: Workload) -> Self {
        FleetSim {
            config,
            dispatcher,
            pending: workload.arrivals().to_vec().into(),
            queued: VecDeque::new(),
            nodes: Vec::new(),
            aggregate: FleetAggregate::default(),
            epoch: 0,
            rebalancer: None,
            knowledge: None,
            autoscaler: None,
            provisioner: None,
            phase_marks: Vec::new(),
            dormant: std::collections::BTreeMap::new(),
            seeds_at_start: 0,
            fault_plan: FaultPlan::new(),
            checkpoint_policy: None,
            checkpoint: None,
            pending_replacements: Vec::new(),
            throttles: Vec::new(),
            next_fault: 0,
            telemetry: TelemetryCollector::default(),
            flight_dump: None,
            shard_index: 0,
        }
    }

    /// Installs a scripted fault plan: its events fire on the
    /// coordinator between epochs (in epoch order), so chaos runs stay
    /// byte-identical across worker counts. Crashed nodes' sessions are
    /// recovered onto survivors from the last checkpoint (or restarted
    /// from scratch without one — re-done, never silently lost), and a
    /// replacement node is commissioned
    /// [`FaultPlan::replacement_delay_epochs`] later when a provisioner
    /// is installed (via [`FleetSim::set_autoscaler`]). While the active
    /// pool sits below the plan's degrade watermark × the peak pool
    /// size, new arrivals are shed instead of queued.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// Installs periodic checkpointing: every
    /// [`CheckpointPolicy::interval_epochs`] epochs the coordinator
    /// captures every live session (bit-exact, non-destructive) plus the
    /// knowledge store into an in-memory [`CheckpointBundle`]. Capture
    /// never perturbs the simulation — a checkpointed run without faults
    /// is byte-identical to an uncheckpointed one.
    pub fn set_checkpoint_policy(&mut self, policy: CheckpointPolicy) {
        self.checkpoint_policy = Some(policy);
    }

    /// Tells the fleet which shard it is in a sharded deployment, so it
    /// executes exactly the fault events addressed to it.
    pub(crate) fn set_shard_index(&mut self, index: usize) {
        self.shard_index = index;
    }

    /// The latest encoded checkpoint bundle, if one has been captured.
    pub fn latest_checkpoint(&self) -> Option<&[u8]> {
        self.checkpoint.as_deref()
    }

    /// Switches structured event tracing on or off (see
    /// [`TelemetryMode`]). Recording never changes simulation results:
    /// a traced run's summary is byte-identical to an untraced one, and
    /// the trace itself is byte-identical across worker counts. With
    /// tracing off every hook reduces to a single branch.
    pub fn set_telemetry(&mut self, mode: TelemetryMode) {
        self.telemetry.set_mode(mode);
    }

    /// The active telemetry recording mode.
    pub fn telemetry_mode(&self) -> TelemetryMode {
        self.telemetry.mode()
    }

    /// The events recorded so far (the retained window, in
    /// flight-recorder mode), assembled into a [`FleetTrace`].
    pub fn trace(&self) -> FleetTrace {
        self.telemetry.trace(self.config.epoch_s)
    }

    /// The encoded (`MAMUTTL`) trace the flight recorder dumped when the
    /// last [`FleetSim::run`] aborted with a typed error; `None` after a
    /// clean run or with telemetry off.
    pub fn flight_dump(&self) -> Option<&[u8]> {
        self.flight_dump.as_deref()
    }

    /// Simulated time of an epoch boundary in integer microseconds —
    /// the timestamp every event recorded at that boundary carries.
    fn epoch_us(&self, epoch: u64) -> u64 {
        (epoch as f64 * self.config.epoch_s * 1_000_000.0).round() as u64
    }

    /// Annotates the run with workload phase boundaries (`(epoch,
    /// label)`): the summary renders them inline in its pool-size
    /// timeline so autoscaler behavior is legible against the scenario
    /// phase that drove it. Marks are sorted by epoch; labels are free
    /// text (scenario realizations provide them pre-quantized to the
    /// fleet's epoch length).
    pub fn set_phase_marks(&mut self, mut marks: Vec<(u64, String)>) {
        marks.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        self.phase_marks = marks;
    }

    /// Installs an inter-epoch session migration policy. Without one,
    /// sessions stay where the dispatcher put them.
    pub fn set_rebalancer(&mut self, rebalancer: Box<dyn Rebalancer>) {
        self.rebalancer = Some(rebalancer);
    }

    /// Installs an elastic pool-sizing policy plus the provisioner that
    /// builds the nodes it commissions. Consulted once per epoch
    /// boundary (on the coordinator — determinism across worker counts
    /// is preserved):
    ///
    /// * a **grow** decision commissions fresh nodes, clock-aligned to
    ///   the boundary; if a knowledge store is attached the new node's
    ///   factory is wrapped in [`warm_start_factory`] so its sessions
    ///   inherit the fleet's merged knowledge from frame one;
    /// * a **shrink** decision drains the least-utilized node's live
    ///   sessions to its peers over the migration path, then retires it
    ///   (drain before decommission — no session is ever dropped). The
    ///   fleet never retires its last active node, whatever the policy
    ///   says.
    ///
    /// Nodes added with [`FleetSim::add_node`] before `run` form the
    /// initial pool.
    pub fn set_autoscaler(
        &mut self,
        autoscaler: Box<dyn Autoscaler>,
        provisioner: NodeProvisioner,
    ) {
        self.autoscaler = Some(autoscaler);
        self.provisioner = Some(provisioner);
    }

    /// Attaches a shared knowledge store: every session that finishes
    /// publishes its learned policy there (in node-id order at each
    /// boundary). Pair it with
    /// [`warm_start_factory`](crate::warm_start_factory) on the node
    /// factories to close the KaaS loop — and reuse the same store
    /// across runs to carry knowledge between whole workloads.
    pub fn set_knowledge_store(&mut self, store: SharedKnowledgeStore) {
        self.knowledge = Some(store);
    }

    /// Adds a node on the paper's default platform. The factory decides
    /// which controller drives each session placed on this node — mixing
    /// factories across nodes mixes run-time managers across the fleet.
    pub fn add_node(&mut self, factory: ControllerFactory) -> usize {
        self.add_node_on(Platform::xeon_e5_2667_v4(), factory)
    }

    /// Adds a node on an explicit platform model.
    pub fn add_node_on(&mut self, platform: Platform, factory: ControllerFactory) -> usize {
        let id = self.nodes.len();
        let node = FleetNode::new(id, platform, self.config.power_cap_w, factory);
        self.nodes.push(node);
        id
    }

    /// Number of nodes ever part of the fleet (including retired ones).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes currently in the active pool.
    pub fn active_node_count(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_active()).count()
    }

    /// The nodes, in id order (retired nodes included — their history
    /// stays in the report).
    pub fn nodes(&self) -> &[FleetNode] {
        &self.nodes
    }

    /// Every active node's view, in id order — built only for the
    /// policies that read views (dispatcher, autoscaler, rebalancer);
    /// the fleet's own choices read [`FleetNode::utilization`].
    fn active_views(&self) -> Vec<NodeView> {
        self.nodes
            .iter()
            .filter(|n| n.is_active())
            .map(FleetNode::view)
            .collect()
    }

    /// The least-utilized active node other than `skip`, lowest id on
    /// ties: where drained, recovered and overflowing sessions land.
    fn least_utilized(&self, skip: Option<usize>) -> Option<usize> {
        self.nodes
            .iter()
            .filter(|n| n.is_active() && Some(n.id()) != skip)
            .map(|n| (n.id(), n.utilization()))
            .min_by(|a, b| cmp_utilization(a.1, b.1).then(a.0.cmp(&b.0)))
            .map(|(id, _)| id)
    }

    /// Parks every active node whose sessions have all finished: its
    /// next event lies beyond every epoch horizon, so per-epoch work on
    /// it is pure idle accounting — deferred to [`FleetSim::wake_node`]
    /// and replayed exactly there. Runs at the top of each epoch, after
    /// the previous epoch's harvest, so a parked node has nothing left
    /// to publish.
    fn update_dormant(&mut self) {
        let epoch = self.epoch;
        for node in &self.nodes {
            if node.is_active() && node.all_finished() {
                self.dormant.entry(node.id()).or_insert(epoch);
            }
        }
    }

    /// Un-parks a dormant node, replaying every skipped epoch exactly:
    /// each missed boundary gets the same `run_epoch` call (one idle
    /// sensor record per epoch — identical fp sequence to the unskipped
    /// run) and the same aggregate record the live loop would have made.
    /// `end_exclusive` is the first epoch the caller will handle
    /// normally: the current epoch for pre-advance wakes (dispatch,
    /// decommission, settle), the next for post-advance wakes
    /// (rebalance-attach after this epoch's advance).
    fn wake_node(&mut self, id: usize, end_exclusive: u64) -> Result<(), FleetError> {
        let Some(from_epoch) = self.dormant.remove(&id) else {
            return Ok(());
        };
        let max_events = self.config.max_events_per_epoch;
        for k in from_epoch..end_exclusive {
            let until = (k + 1) as f64 * self.config.epoch_s;
            let node = &mut self.nodes[id];
            node.run_epoch(until, max_events)
                .map_err(|source| FleetError::Node { node: id, source })?;
            let (frames, violations) = node.qos_totals();
            let sensor = node.server().sensor();
            self.aggregate.record_node_epoch(
                id,
                frames,
                violations,
                sensor.total_energy_j(),
                sensor.total_time_s(),
                node.utilization(),
            );
        }
        Ok(())
    }

    /// Replays every still-dormant node through the end of the run so
    /// idle time and energy are fully accounted before the summary.
    fn settle_dormant(&mut self) -> Result<(), FleetError> {
        let parked: Vec<usize> = self.dormant.keys().copied().collect();
        for id in parked {
            self.wake_node(id, self.epoch)?;
        }
        Ok(())
    }

    /// Runs the whole workload to completion: every arrival dispatched
    /// (or rejected), every admitted session transcoded to the end.
    ///
    /// # Errors
    ///
    /// [`FleetError::NoNodes`] without nodes; [`FleetError::Node`] if a
    /// node's simulator trips its event budget;
    /// [`FleetError::EpochBudgetExhausted`] if the workload cannot drain
    /// (e.g. a gating policy queues a session no node can ever fit).
    pub fn run(&mut self) -> Result<FleetSummary, FleetError> {
        let result = self.run_inner();
        if result.is_err() && self.telemetry.enabled() {
            // The flight recorder's whole point: when a typed error
            // aborts the run, the retained event window survives the
            // unwind as an encoded trace.
            self.flight_dump = Some(self.trace().encode());
        }
        result
    }

    fn run_inner(&mut self) -> Result<FleetSummary, FleetError> {
        self.begin_run()?;
        loop {
            self.step_epoch()?;
            if self.is_drained() {
                break;
            }
            if self.epoch >= self.config.max_epochs {
                return Err(FleetError::EpochBudgetExhausted { epochs: self.epoch });
            }
        }
        self.finish_run()
    }

    /// Validates the configuration and resets run-scoped state. The
    /// sharded coordinator calls this once per shard before driving
    /// epochs itself; [`FleetSim::run`] is exactly `begin_run` + a
    /// `step_epoch` loop + `finish_run`.
    pub(crate) fn begin_run(&mut self) -> Result<(), FleetError> {
        if self.nodes.is_empty() {
            return Err(FleetError::NoNodes);
        }
        if !(self.config.epoch_s.is_finite() && self.config.epoch_s > 0.0) {
            return Err(FleetError::InvalidConfig(format!(
                "epoch_s must be positive, got {}",
                self.config.epoch_s
            )));
        }
        self.aggregate = FleetAggregate::new(self.nodes.len());
        self.dormant.clear();
        self.seeds_at_start = self.seeds_served();
        self.checkpoint = None;
        self.pending_replacements.clear();
        self.throttles.clear();
        self.next_fault = 0;
        self.telemetry.reset();
        self.flight_dump = None;
        Ok(())
    }

    /// Simulates one epoch: autoscale, dispatch, advance, record,
    /// harvest, rebalance — the exact op order the monolithic loop used,
    /// so a run driven step-by-step is byte-identical to `run`.
    pub(crate) fn step_epoch(&mut self) -> Result<(), FleetError> {
        let epoch_start = self.epoch as f64 * self.config.epoch_s;
        let boundary = (self.epoch + 1) as f64 * self.config.epoch_s;
        if self.config.idle_fast_path {
            self.update_dormant();
        }
        if self.telemetry.enabled() {
            let at_us = self.epoch_us(self.epoch);
            self.telemetry.record(
                self.epoch,
                at_us,
                TelemetryEvent::EpochBegin {
                    active_nodes: self.active_node_count() as u32,
                },
            );
            // Scenario phase boundaries land in the trace at their epoch
            // (they stay a separate summary input — only fault marks go
            // through `record_mark`).
            for (epoch, label) in &self.phase_marks {
                if *epoch == self.epoch {
                    self.telemetry.record(
                        self.epoch,
                        at_us,
                        TelemetryEvent::Mark {
                            label: label.clone(),
                        },
                    );
                }
            }
        }
        self.capture_checkpoint();
        self.inject_faults(epoch_start)?;
        self.autoscale(epoch_start)?;
        self.aggregate
            .record_pool_size(self.epoch, self.active_node_count());
        self.dispatch_due(epoch_start)?;
        // The nodes advancing this epoch (active, not parked), with their
        // utilization sampled after placement, before advancement: it
        // describes the demand each node carries *through* the epoch
        // being simulated. Only these burn a node-epoch; dormant nodes'
        // samples are replayed at wake time.
        let awake: Vec<(usize, f64)> = self
            .nodes
            .iter()
            .filter(|n| n.is_active() && !self.dormant.contains_key(&n.id()))
            .map(|n| (n.id(), n.utilization()))
            .collect();
        self.advance_nodes(boundary)?;
        for &(id, util) in &awake {
            let node = &self.nodes[id];
            let (frames, violations) = node.qos_totals();
            let sensor = node.server().sensor();
            self.aggregate.record_node_epoch(
                id,
                frames,
                violations,
                sensor.total_energy_j(),
                sensor.total_time_s(),
                util,
            );
        }
        // Session completions and knowledge harvest both read each awake
        // node's finished-session list, which holds exactly this epoch's
        // advance: they run after it and before any wake replay (which
        // would restart a woken node's list). Node-id order, then
        // session-id order, keeps both independent of the worker count.
        if self.telemetry.enabled() {
            let at_end_us = self.epoch_us(self.epoch + 1);
            for &(id, _) in &awake {
                for &(_, session, frames) in self.nodes[id].finished_sessions() {
                    self.telemetry.record(
                        self.epoch,
                        at_end_us,
                        TelemetryEvent::SessionEnd {
                            session,
                            node: id as u32,
                            frames,
                        },
                    );
                }
            }
        }
        self.harvest_knowledge(&awake);
        self.rebalance()?;
        self.telemetry.record(
            self.epoch,
            self.epoch_us(self.epoch + 1),
            TelemetryEvent::EpochEnd,
        );
        self.telemetry.end_epoch();
        self.epoch += 1;
        Ok(())
    }

    /// Whether the workload is fully served: no arrivals left to place
    /// and every admitted session transcoded to the end.
    pub(crate) fn is_drained(&self) -> bool {
        self.pending.is_empty()
            && self.queued.is_empty()
            && self.nodes.iter().all(FleetNode::all_finished)
    }

    /// Settles dormant nodes and assembles the run report.
    pub(crate) fn finish_run(&mut self) -> Result<FleetSummary, FleetError> {
        self.settle_dormant()?;
        self.aggregate
            .set_warm_starts(self.seeds_served() - self.seeds_at_start);
        let facts: Vec<NodeFacts> = self
            .nodes
            .iter()
            .map(|n| NodeFacts {
                sessions: n.sessions_admitted(),
                migrated_in: n.sessions_migrated_in(),
                migrated_out: n.sessions_migrated_out(),
                retired: !n.is_active(),
            })
            .collect();
        // Crash/recovery marks were recorded as faults fired (kept in
        // every telemetry mode); interleave them with the scenario's
        // pre-sorted phase marks by epoch.
        let mut marks = self.phase_marks.clone();
        marks.extend(self.telemetry.marks().iter().cloned());
        marks.sort_by(|a, b| a.0.cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let mut summary = FleetSummary::assemble(
            self.dispatcher.name().to_owned(),
            self.epoch,
            self.epoch as f64 * self.config.epoch_s,
            &facts,
            &self.aggregate,
            marks,
            self.nodes.iter().map(FleetNode::summary).collect(),
        );
        summary.trace_events = self.telemetry.events_recorded();
        Ok(summary)
    }

    /// Epochs simulated so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The fleet configuration in force.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// The attached knowledge store, if any (the sharded coordinator
    /// syncs shard stores through this).
    pub(crate) fn knowledge_ref(&self) -> Option<&SharedKnowledgeStore> {
        self.knowledge.as_ref()
    }

    /// Mean thread-demand utilization over the active pool (0.0 when
    /// empty) — the load signal the sharded coordinator's overflow
    /// router compares across shards.
    pub(crate) fn mean_active_utilization(&self) -> f64 {
        let active = || self.nodes.iter().filter(|n| n.is_active());
        match active().count() {
            0 => 0.0,
            count => active().map(FleetNode::utilization).sum::<f64>() / count as f64,
        }
    }

    /// Detaches one live session for cross-shard overflow: the migration
    /// candidate (most frames remaining) of the busiest active node that
    /// has one, lowest id on ties. `None` when no node holds a live
    /// session.
    pub(crate) fn overflow_detach(&mut self) -> Result<Option<MigratedSession>, FleetError> {
        let donor = self
            .nodes
            .iter()
            .filter(|n| n.is_active())
            .filter_map(|n| Some((n.id(), n.utilization(), n.migration_candidate()?)))
            .min_by(|a, b| cmp_utilization(b.1, a.1).then(a.0.cmp(&b.0)));
        donor
            .map(|(id, _, sid)| self.nodes[id].detach_session(sid))
            .transpose()
    }

    /// Attaches an overflow session from a peer shard onto the
    /// least-utilized active node (lowest id on ties), waking it first
    /// if the fast path had parked it. Called between epochs, after
    /// every shard has stepped, so clocks are aligned at the boundary.
    pub(crate) fn overflow_attach(
        &mut self,
        migrated: MigratedSession,
    ) -> Result<usize, FleetError> {
        let target = self
            .least_utilized(None)
            .expect("pool never drains below one active node");
        self.wake_node(target, self.epoch)?;
        Ok(self.nodes[target].attach_session(migrated))
    }

    /// Consults the autoscaler (if installed) and executes its decision:
    /// commission fresh clock-aligned nodes, or drain-and-retire the
    /// least-utilized ones. Runs on the coordinator at the epoch start,
    /// before arrivals are dispatched, so a commissioned node can serve
    /// this boundary's arrivals and a retiring node stops taking new
    /// work immediately.
    fn autoscale(&mut self, epoch_start: f64) -> Result<(), FleetError> {
        if self.autoscaler.is_none() {
            return Ok(());
        }
        let views = self.active_views();
        let arrivals_due = self
            .pending
            .iter()
            .take_while(|r| r.arrival_s <= epoch_start)
            .count();
        let signals = ScaleSignals {
            epoch: self.epoch,
            epoch_s: self.config.epoch_s,
            active: &views,
            arrivals_due,
            queued_sessions: self.queued.len(),
            pending_sessions: self.pending.len() - arrivals_due,
        };
        let scaler = self.autoscaler.as_mut().expect("presence checked above");
        let decision = scaler.plan(&signals);
        let source = scaler.decision_source();
        self.aggregate.record_policy_decision(
            source != crate::autoscale::PolicySource::Heuristic,
            source == crate::autoscale::PolicySource::Exploratory,
            decision != ScaleDecision::Hold,
        );
        if self.telemetry.enabled() {
            let delta = match decision {
                ScaleDecision::Hold => 0,
                ScaleDecision::Grow(count) => count as i64,
                ScaleDecision::Shrink(count) => -(count as i64),
            };
            // The detail string is policy provenance for the trace only;
            // it is built exclusively here, so tracing-off runs never
            // pay for its formatting.
            let detail = self
                .autoscaler
                .as_ref()
                .expect("presence checked above")
                .decision_detail()
                .unwrap_or_default();
            self.telemetry.record(
                self.epoch,
                self.epoch_us(self.epoch),
                TelemetryEvent::Autoscale {
                    delta,
                    source,
                    detail,
                },
            );
        }
        match decision {
            ScaleDecision::Hold => Ok(()),
            ScaleDecision::Grow(count) => self.commission_nodes(count, epoch_start),
            ScaleDecision::Shrink(count) => self.decommission_nodes(count),
        }
    }

    /// Commissions `count` fresh nodes through the provisioner, clocks
    /// aligned to the boundary, factories warm-start-wrapped when a
    /// knowledge store is attached. Growth is clamped so the lifetime
    /// pool never exceeds [`FleetConfig::max_pool_nodes`] — the backstop
    /// against a runaway scaling policy.
    fn commission_nodes(&mut self, count: usize, epoch_start: f64) -> Result<(), FleetError> {
        let count = count.min(self.config.max_pool_nodes.saturating_sub(self.nodes.len()));
        for _ in 0..count {
            let (platform, factory) = (self
                .provisioner
                .as_mut()
                .expect("set_autoscaler installs a provisioner"))(
            );
            let factory = match &self.knowledge {
                Some(store) => warm_start_factory(Arc::clone(store), factory),
                None => factory,
            };
            let id = self.nodes.len();
            let mut node = FleetNode::new(id, platform, self.config.power_cap_w, factory);
            node.align_clock(epoch_start)
                .map_err(|source| FleetError::Node { node: id, source })?;
            self.nodes.push(node);
            self.aggregate.ensure_nodes(self.nodes.len());
            self.aggregate.record_scale_up();
            self.telemetry.record(
                self.epoch,
                self.epoch_us(self.epoch),
                TelemetryEvent::NodeCommission { node: id as u32 },
            );
        }
        Ok(())
    }

    /// Drains and retires up to `count` nodes — least-utilized first,
    /// ties retiring the newest — but never the last active node.
    fn decommission_nodes(&mut self, count: usize) -> Result<(), FleetError> {
        for _ in 0..count {
            if self.active_node_count() <= 1 {
                break; // the pool never empties, whatever the policy says
            }
            let (victim, _) = self
                .nodes
                .iter()
                .filter(|n| n.is_active())
                .map(|n| (n.id(), n.utilization()))
                .min_by(|a, b| cmp_utilization(a.1, b.1).then(b.0.cmp(&a.0)))
                .expect("two or more active nodes");
            self.drain_and_retire(victim)?;
        }
        Ok(())
    }

    /// Migrates every live session off `victim` (least-utilized active
    /// peer takes each, recomputed per session so consecutive placements
    /// see each other's load), then powers the node down.
    fn drain_and_retire(&mut self, victim: usize) -> Result<(), FleetError> {
        // A dormant victim must account its skipped idle epochs before
        // its clock stops for good (retired nodes are never settled).
        self.wake_node(victim, self.epoch)?;
        let drained = self.nodes[victim].drain()?;
        for migrated in drained {
            let session = migrated.request.id;
            let target = self
                .least_utilized(Some(victim))
                .expect("pool never drains below one active node");
            self.wake_node(target, self.epoch)?;
            self.nodes[target].attach_session(migrated);
            self.aggregate.record_drained_session();
            if self.telemetry.enabled() {
                let at_us = self.epoch_us(self.epoch);
                self.telemetry.record(
                    self.epoch,
                    at_us,
                    TelemetryEvent::SessionDetach {
                        session,
                        node: victim as u32,
                    },
                );
                self.telemetry.record(
                    self.epoch,
                    at_us,
                    TelemetryEvent::SessionAttach {
                        session,
                        node: target as u32,
                    },
                );
            }
        }
        // Final resample of the retired node's row: its drained sessions
        // took their QoS history to their new homes, so without this the
        // departed frames would be counted on both rows.
        self.resample_node_totals(victim);
        self.nodes[victim].retire()?;
        self.aggregate.record_scale_down();
        self.telemetry.record(
            self.epoch,
            self.epoch_us(self.epoch),
            TelemetryEvent::NodeRetire {
                node: victim as u32,
            },
        );
        Ok(())
    }

    /// Captures a fleet checkpoint when the policy's interval comes due:
    /// every live session on every awake node, bit-exact, plus the
    /// knowledge store. Pure observation — session clocks, rngs and fp
    /// sequences are untouched, so capture never changes results.
    fn capture_checkpoint(&mut self) {
        let Some(policy) = self.checkpoint_policy else {
            return;
        };
        if policy.interval_epochs == 0
            || self.epoch == 0
            || !self.epoch.is_multiple_of(policy.interval_epochs)
        {
            return;
        }
        // Parked and retired nodes hold no live sessions, so they drop
        // out with the other empty captures.
        let nodes: Vec<NodeCheckpoint> = self
            .nodes
            .iter()
            .map(|n| NodeCheckpoint {
                node: n.id(),
                sessions: n.checkpoint_sessions(),
            })
            .filter(|n| !n.sessions.is_empty())
            .collect();
        let knowledge = self
            .knowledge
            .as_ref()
            .map(|store| store.lock().expect("knowledge store poisoned").encode());
        let sessions: u32 = nodes.iter().map(|n| n.sessions.len() as u32).sum();
        let bundle = CheckpointBundle {
            epoch: self.epoch,
            nodes,
            knowledge,
        };
        let encoded = bundle.encode();
        self.telemetry.record(
            self.epoch,
            self.epoch_us(self.epoch),
            TelemetryEvent::CheckpointCaptured {
                sessions,
                bytes: encoded.len() as u64,
            },
        );
        self.checkpoint = Some(encoded);
        self.aggregate.record_checkpoint();
    }

    /// Executes the fault plan's events due this epoch plus the ongoing
    /// fault bookkeeping: replacements that come due are commissioned,
    /// expired throttles are lifted, new crashes and throttles land, and
    /// every still-missing node accrues one down-node-epoch. All of it
    /// runs on the coordinator between epochs, in a fixed order, so
    /// chaos runs are deterministic across worker counts.
    fn inject_faults(&mut self, epoch_start: f64) -> Result<(), FleetError> {
        if self.fault_plan.events().is_empty()
            && self.pending_replacements.is_empty()
            && self.throttles.is_empty()
        {
            return Ok(());
        }
        // 1. Replacements whose delay has elapsed enter service first, so
        //    a node commissioned this boundary can take this boundary's
        //    arrivals (same rule as autoscale grow).
        let due: Vec<(u64, u64)> = self
            .pending_replacements
            .iter()
            .copied()
            .filter(|&(ready, _)| ready <= self.epoch)
            .collect();
        self.pending_replacements
            .retain(|&(ready, _)| ready > self.epoch);
        for (_, crashed_at) in due {
            let before = self.nodes.len();
            self.commission_nodes(1, epoch_start)?;
            if self.nodes.len() > before {
                self.telemetry.record_mark(
                    self.epoch,
                    self.epoch_us(self.epoch),
                    format!("recovered:n{before}"),
                );
                self.aggregate.record_recovery(self.epoch - crashed_at);
            }
        }
        // 2. Expired throttles are lifted.
        let expired: Vec<usize> = self
            .throttles
            .iter()
            .filter(|&&(_, until)| until <= self.epoch)
            .map(|&(node, _)| node)
            .collect();
        self.throttles.retain(|&(_, until)| until > self.epoch);
        for node in expired {
            if self.nodes[node].is_active() {
                self.wake_node(node, self.epoch)?;
                self.nodes[node].set_freq_cap(None);
                self.telemetry.record(
                    self.epoch,
                    self.epoch_us(self.epoch),
                    TelemetryEvent::ThrottleEnd { node: node as u32 },
                );
            }
        }
        // 3. New events due this epoch fire in plan order.
        for event in self.fault_plan.take_due(&mut self.next_fault, self.epoch) {
            match event {
                FaultEvent::NodeCrash { shard, node, .. } if shard == self.shard_index => {
                    self.crash_node(node)?;
                }
                FaultEvent::ThermalThrottle {
                    shard,
                    node,
                    freq_cap_ghz,
                    duration_epochs,
                    ..
                } if shard == self.shard_index
                    && node < self.nodes.len()
                    && self.nodes[node].is_active() =>
                {
                    self.wake_node(node, self.epoch)?;
                    self.nodes[node].set_freq_cap(Some(freq_cap_ghz));
                    let until_epoch = self.epoch + duration_epochs.max(1);
                    self.throttles.push((node, until_epoch));
                    let at_us = self.epoch_us(self.epoch);
                    self.telemetry
                        .record_mark(self.epoch, at_us, format!("throttle:n{node}"));
                    self.telemetry.record(
                        self.epoch,
                        at_us,
                        TelemetryEvent::ThrottleStart {
                            node: node as u32,
                            freq_cap_ghz,
                            until_epoch,
                        },
                    );
                    self.aggregate.record_throttle();
                }
                // Coordinator-level events (and events addressed to other
                // shards) are not this fleet's to execute.
                _ => {}
            }
        }
        // 4. Availability accounting: each crashed node still awaiting
        //    its replacement is one demanded-but-unserved node-epoch.
        for _ in 0..self.pending_replacements.len() {
            self.aggregate.record_down_node_epoch();
        }
        Ok(())
    }

    /// Fail-stop crash of `node`: its live sessions die with it and are
    /// recovered onto the least-utilized survivors — bit-exact from the
    /// last checkpoint when one covers them (work since the checkpoint
    /// is re-done and counted), from scratch otherwise (the whole
    /// session is re-done). Either way no frame is silently lost. The
    /// last active node never crashes (mirroring the decommission
    /// floor): a plan that targets it is a no-op.
    fn crash_node(&mut self, victim: usize) -> Result<(), FleetError> {
        if victim >= self.nodes.len()
            || !self.nodes[victim].is_active()
            || self.active_node_count() <= 1
        {
            return Ok(());
        }
        // A dormant victim settles its idle history before dying.
        self.wake_node(victim, self.epoch)?;
        let lost = self.nodes[victim].crash_kill()?;
        self.throttles.retain(|&(node, _)| node != victim);
        self.telemetry.record_mark(
            self.epoch,
            self.epoch_us(self.epoch),
            format!("crash:n{victim}"),
        );
        self.telemetry.record(
            self.epoch,
            self.epoch_us(self.epoch),
            TelemetryEvent::NodeCrash {
                node: victim as u32,
                sessions_lost: lost.len() as u32,
            },
        );
        self.aggregate.record_crash();
        let bundle = self
            .checkpoint
            .as_ref()
            .and_then(|bytes| CheckpointBundle::decode(bytes).ok());
        let covered = bundle
            .as_ref()
            .map(|b| b.sessions_of(victim))
            .unwrap_or_default();
        for (request, frames_at_crash) in lost {
            // Least-utilized active survivor, recomputed per session so
            // consecutive recoveries see each other's load — the same
            // rule drain-and-retire uses.
            let target = self
                .least_utilized(None)
                .expect("crash guard keeps at least one active node");
            self.wake_node(target, self.epoch)?;
            let ck = covered.get(&request.id);
            let restored =
                self.nodes[target].adopt_recovered(&request, ck.map(|c| c.bytes.as_slice()));
            let redone = if restored {
                let ck = ck.expect("restored implies a checkpoint entry");
                frames_at_crash.saturating_sub(ck.frames_completed)
            } else {
                frames_at_crash
            };
            self.telemetry.record(
                self.epoch,
                self.epoch_us(self.epoch),
                TelemetryEvent::SessionRecovered {
                    session: request.id,
                    node: target as u32,
                    frames_redone: redone,
                    from_checkpoint: restored,
                },
            );
            self.aggregate.record_recovered_session(redone);
        }
        // The victim's row keeps only what stayed: finished sessions'
        // history. Its dead sessions' QoS moved (or restarted) elsewhere.
        self.resample_node_totals(victim);
        if self.provisioner.is_some() {
            let delay = self.fault_plan.replacement_delay_epochs.max(1);
            self.pending_replacements
                .push((self.epoch + delay, self.epoch));
        }
        Ok(())
    }

    /// Re-samples `node`'s per-node row after sessions left it outside
    /// an advance (drain, crash), so their history counts only where it
    /// went.
    fn resample_node_totals(&mut self, node: usize) {
        let (frames, violations) = self.nodes[node].qos_totals();
        let sensor = self.nodes[node].server().sensor();
        self.aggregate.resample_node_totals(
            node,
            frames,
            violations,
            sensor.total_energy_j(),
            sensor.total_time_s(),
        );
    }

    /// Whether the fleet is running degraded: the fault plan set a
    /// degrade watermark and the active pool has fallen below that
    /// fraction of the peak pool size. While degraded, new arrivals are
    /// shed so the survivors' existing sessions keep their QoS.
    fn degraded(&self) -> bool {
        let Some(watermark) = self.fault_plan.degrade_watermark else {
            return false;
        };
        (self.active_node_count() as f64) < watermark * self.aggregate.peak_nodes() as f64
    }

    /// Warm starts served by the attached store so far (0 without one).
    fn seeds_served(&self) -> u64 {
        self.knowledge
            .as_ref()
            .map(|store| {
                store
                    .lock()
                    .expect("knowledge store poisoned")
                    .seeds_served()
            })
            .unwrap_or(0)
    }

    /// Publishes the policies of sessions that finished during this
    /// epoch's advance to the knowledge store, `awake` nodes in id order
    /// (determinism). Parked and retired nodes did not advance, so they
    /// have nothing new to publish.
    fn harvest_knowledge(&self, awake: &[(usize, f64)]) {
        let Some(store) = &self.knowledge else {
            return;
        };
        let mut store = store.lock().expect("knowledge store poisoned");
        for &(id, _) in awake {
            self.nodes[id].harvest_finished(&mut store);
        }
    }

    /// Runs the rebalance policy and executes its directives: one
    /// migration candidate per directive, moved with controller and
    /// in-flight frame between the time-aligned nodes.
    fn rebalance(&mut self) -> Result<(), FleetError> {
        if self.rebalancer.is_none() {
            return Ok(());
        }
        let views = self.active_views();
        let directives = self
            .rebalancer
            .as_mut()
            .expect("presence checked above")
            .plan(self.epoch, &views);
        for directive in directives {
            let (from, to) = (directive.from, directive.to);
            let valid = from < self.nodes.len()
                && to < self.nodes.len()
                && from != to
                && self.nodes[from].is_active()
                && self.nodes[to].is_active();
            if !valid {
                return Err(FleetError::InvalidMigration {
                    from,
                    to,
                    nodes: self.nodes.len(),
                });
            }
            let Some(sid) = self.nodes[from].migration_candidate() else {
                continue; // the donor drained during this epoch
            };
            // Rebalance runs after this epoch's advance, so a dormant
            // receiver replays through the *next* epoch's start to align
            // clocks at the boundary. (A dormant donor never gets here:
            // all its sessions finished, so it has no candidate.)
            self.wake_node(to, self.epoch + 1)?;
            let migrated = self.nodes[from].detach_session(sid)?;
            let session = migrated.request.id;
            // No mid-flight publish here: the session keeps learning and
            // publishes exactly once, at finish, from whichever node
            // hosts it then — so visit-weighted merges never count a
            // trajectory twice.
            self.nodes[to].attach_session(migrated);
            self.aggregate.record_migration();
            if self.telemetry.enabled() {
                // Rebalance runs after this epoch's advance: the move
                // happens at the *next* boundary.
                let at_us = self.epoch_us(self.epoch + 1);
                self.telemetry.record(
                    self.epoch,
                    at_us,
                    TelemetryEvent::SessionDetach {
                        session,
                        node: from as u32,
                    },
                );
                self.telemetry.record(
                    self.epoch,
                    at_us,
                    TelemetryEvent::SessionAttach {
                        session,
                        node: to as u32,
                    },
                );
            }
        }
        Ok(())
    }

    /// Routes queued leftovers and arrivals due by `now` (an epoch start)
    /// through the dispatch policy. Arrivals quantize *up*: a session
    /// arriving mid-epoch is admitted at the next boundary — slightly
    /// late, never before it exists (placement must stay causal for the
    /// policy comparisons to mean anything).
    fn dispatch_due(&mut self, now: f64) -> Result<(), FleetError> {
        if self.queued.is_empty() && !self.pending.front().is_some_and(|r| r.arrival_s <= now) {
            return Ok(()); // quiet boundary: skip the view build entirely
        }
        let mut due: Vec<SessionRequest> = self.queued.drain(..).collect();
        while self.pending.front().is_some_and(|r| r.arrival_s <= now) {
            due.push(self.pending.pop_front().expect("front checked"));
        }
        let at_us = self.epoch_us(self.epoch);
        if self.degraded() {
            // Graceful degradation: below the watermark the survivors
            // protect the sessions they already carry; new work is shed
            // (visible in the summary), not queued into a backlog the
            // diminished pool cannot serve.
            for request in &due {
                self.telemetry.record(
                    self.epoch,
                    at_us,
                    TelemetryEvent::DispatchShed {
                        session: request.id,
                    },
                );
                self.aggregate.record_shed_session();
                self.aggregate.record_rejection();
            }
            return Ok(());
        }
        // Views are built once per round and patched in place after each
        // placement: an admit changes only the assigned node's state, so
        // re-reading that node's counters and appending the one admitted
        // shape keeps consecutive placements in one epoch exactly as
        // informed as rebuilding everything (the decisions are
        // byte-identical; the cost drops from O(pool) to O(1) per admit).
        // Only active nodes are offered — a retired (or
        // never-commissioned) node takes no work.
        let mut views = self.active_views();
        for request in due {
            match self.dispatcher.dispatch(&request, &views) {
                DispatchDecision::Assign(id)
                    if id < self.nodes.len() && self.nodes[id].is_active() =>
                {
                    self.wake_node(id, self.epoch)?;
                    self.nodes[id].admit(&request);
                    self.telemetry.record(
                        self.epoch,
                        at_us,
                        TelemetryEvent::DispatchAssign {
                            session: request.id,
                            node: id as u32,
                        },
                    );
                    let pos = views
                        .binary_search_by_key(&id, |v| v.node_id)
                        .expect("active nodes all have views, in id order");
                    self.nodes[id].patch_view_after_admit(&mut views[pos]);
                }
                DispatchDecision::Assign(id) => {
                    // A policy bug, not a capacity rejection — surface it.
                    return Err(FleetError::InvalidDispatch {
                        node: id,
                        nodes: self.nodes.len(),
                    });
                }
                DispatchDecision::Reject => {
                    self.telemetry.record(
                        self.epoch,
                        at_us,
                        TelemetryEvent::DispatchReject {
                            session: request.id,
                        },
                    );
                    self.aggregate.record_rejection();
                }
                DispatchDecision::Queue => {
                    self.telemetry.record(
                        self.epoch,
                        at_us,
                        TelemetryEvent::DispatchQueue {
                            session: request.id,
                        },
                    );
                    self.aggregate.record_queued_wait();
                    self.queued.push_back(request);
                }
            }
        }
        Ok(())
    }

    /// Advances every *active* node to `boundary`, fanning nodes out over
    /// scoped OS threads (retired nodes are powered off and stay where
    /// their clocks stopped). Nodes are partitioned into contiguous
    /// chunks; each worker advances its chunk sequentially, each node's
    /// end-of-epoch prune included. Since nodes share nothing within an
    /// epoch, the partition affects wall-clock time only. A node whose
    /// advance panics (a misbehaving controller, say) is caught on its
    /// worker and reported as [`FleetError::WorkerPanicked`]; the first
    /// failure in node-id order wins, whatever the worker count.
    fn advance_nodes(&mut self, boundary: f64) -> Result<(), FleetError> {
        let dormant = &self.dormant;
        let mut active: Vec<&mut FleetNode> = self
            .nodes
            .iter_mut()
            .filter(|n| n.is_active() && !dormant.contains_key(&n.id()))
            .collect();
        if active.is_empty() {
            return Ok(());
        }
        let workers = self.config.worker_threads.clamp(1, active.len());
        let chunk_len = active.len().div_ceil(workers);
        let max_events = self.config.max_events_per_epoch;
        let failures: Vec<FleetError> = std::thread::scope(|scope| {
            let handles: Vec<_> = active
                .chunks_mut(chunk_len)
                .map(|chunk| {
                    scope.spawn(move || {
                        let mut errs = Vec::new();
                        for node in chunk {
                            let id = node.id();
                            let advance = std::panic::AssertUnwindSafe(|| {
                                node.run_epoch(boundary, max_events)
                            });
                            match std::panic::catch_unwind(advance) {
                                Ok(Ok(_)) => {}
                                Ok(Err(source)) => errs.push(FleetError::Node { node: id, source }),
                                Err(_) => errs.push(FleetError::WorkerPanicked { node: id }),
                            }
                        }
                        errs
                    })
                })
                .collect();
            handles
                .into_iter()
                // Every node's advance is caught above, so a worker
                // itself never unwinds.
                .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        match failures.into_iter().next() {
            Some(failure) => Err(failure),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::{LeastLoaded, NodeView, RoundRobin};
    use crate::workload::WorkloadConfig;
    use mamut_core::{FixedController, KnobSettings};

    fn fixed_factory() -> ControllerFactory {
        Box::new(|req| {
            let threads = if req.hr { 10 } else { 4 };
            Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
        })
    }

    fn small_workload(seed: u64) -> Workload {
        Workload::generate(&WorkloadConfig {
            seed,
            sessions: 8,
            mean_interarrival_s: 1.0,
            vod_frames: (30, 90),
            live_frames: (90, 180),
            ..WorkloadConfig::default()
        })
    }

    fn fleet(nodes: usize, workers: usize, dispatcher: Box<dyn Dispatcher>) -> FleetSim {
        let mut sim = FleetSim::new(
            FleetConfig::default().with_worker_threads(workers),
            dispatcher,
            small_workload(11),
        );
        for _ in 0..nodes {
            sim.add_node(fixed_factory());
        }
        sim
    }

    #[test]
    fn no_nodes_errors() {
        let mut sim = FleetSim::new(
            FleetConfig::default(),
            Box::new(RoundRobin::new()),
            small_workload(1),
        );
        assert_eq!(sim.run().unwrap_err(), FleetError::NoNodes);
    }

    #[test]
    fn bad_epoch_errors() {
        let mut sim = FleetSim::new(
            FleetConfig {
                epoch_s: 0.0,
                ..FleetConfig::default()
            },
            Box::new(RoundRobin::new()),
            small_workload(1),
        );
        sim.add_node(fixed_factory());
        assert!(matches!(
            sim.run().unwrap_err(),
            FleetError::InvalidConfig(_)
        ));
    }

    #[test]
    fn out_of_range_assignment_surfaces_the_policy_bug() {
        struct OffByOne;
        impl Dispatcher for OffByOne {
            fn name(&self) -> &'static str {
                "off-by-one"
            }
            fn dispatch(
                &mut self,
                _request: &SessionRequest,
                nodes: &[NodeView],
            ) -> DispatchDecision {
                DispatchDecision::Assign(nodes.len())
            }
        }
        let mut sim = fleet(2, 1, Box::new(OffByOne));
        assert_eq!(
            sim.run().unwrap_err(),
            FleetError::InvalidDispatch { node: 2, nodes: 2 }
        );
    }

    #[test]
    fn every_arrival_lands_and_finishes() {
        let mut sim = fleet(3, 2, Box::new(RoundRobin::new()));
        let summary = sim.run().unwrap();
        assert_eq!(summary.total_sessions + summary.rejected_sessions, 8);
        assert_eq!(summary.rejected_sessions, 0, "round robin rejects nobody");
        assert!(summary.total_frames > 0);
        assert!(summary.epochs > 0);
        assert!(sim.nodes().iter().all(FleetNode::all_finished));
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let run = |workers: usize| {
            fleet(4, workers, Box::new(LeastLoaded::new()))
                .run()
                .unwrap()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(4));
        assert_eq!(one, run(9));
    }

    #[test]
    fn same_seed_same_summary() {
        let run = || fleet(2, 2, Box::new(RoundRobin::new())).run().unwrap();
        assert_eq!(run(), run());
    }

    #[test]
    fn rebalancer_moves_sessions_and_preserves_cluster_totals() {
        use crate::rebalance::UtilizationBalance;
        // Round-robin onto 2 nodes with everything long-lived lands an
        // uneven mix; an aggressive balancer must actually migrate.
        let run = |balance: bool| {
            let mut sim = FleetSim::new(
                FleetConfig::default().with_worker_threads(2),
                Box::new(RoundRobin::new()),
                small_workload(11),
            );
            for _ in 0..2 {
                sim.add_node(fixed_factory());
            }
            if balance {
                sim.set_rebalancer(Box::new(UtilizationBalance::new().with_min_gap(0.05)));
            }
            sim.run().unwrap()
        };
        let still = run(false);
        let moved = run(true);
        assert_eq!(still.migrations, 0);
        assert!(moved.migrations > 0, "aggressive balancer never moved");
        // Moves shuffle placement, not existence: same admissions, same
        // cluster-wide frame count.
        assert_eq!(moved.total_sessions, still.total_sessions);
        assert_eq!(moved.total_frames, still.total_frames);
    }

    #[test]
    fn migration_is_deterministic_across_worker_counts() {
        use crate::rebalance::UtilizationBalance;
        let run = |workers: usize| {
            let mut sim = FleetSim::new(
                FleetConfig::default().with_worker_threads(workers),
                Box::new(RoundRobin::new()),
                small_workload(5),
            );
            for _ in 0..3 {
                sim.add_node(fixed_factory());
            }
            sim.set_rebalancer(Box::new(UtilizationBalance::new().with_min_gap(0.05)));
            sim.run().unwrap().to_string()
        };
        let one = run(1);
        assert_eq!(one, run(3));
        assert_eq!(one, run(8));
    }

    #[test]
    fn bad_migration_directive_surfaces_the_policy_bug() {
        struct SelfLoop;
        impl crate::rebalance::Rebalancer for SelfLoop {
            fn name(&self) -> &'static str {
                "self-loop"
            }
            fn plan(
                &mut self,
                _epoch: u64,
                _nodes: &[NodeView],
            ) -> Vec<crate::rebalance::MigrationDirective> {
                vec![crate::rebalance::MigrationDirective { from: 0, to: 0 }]
            }
        }
        let mut sim = fleet(2, 1, Box::new(RoundRobin::new()));
        sim.set_rebalancer(Box::new(SelfLoop));
        assert_eq!(
            sim.run().unwrap_err(),
            FleetError::InvalidMigration {
                from: 0,
                to: 0,
                nodes: 2
            }
        );
    }

    #[test]
    fn finished_sessions_publish_to_the_attached_store() {
        use crate::knowledge::{KnowledgeStore, MergePolicy};
        let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let mut sim = fleet(2, 2, Box::new(RoundRobin::new()));
        sim.set_knowledge_store(std::sync::Arc::clone(&store));
        let summary = sim.run().unwrap();
        let store = store.lock().unwrap();
        assert_eq!(
            store.publishes(),
            summary.total_sessions,
            "every finished session publishes exactly once"
        );
        assert_eq!(summary.warm_starts, 0, "no warm-start factory attached");
    }

    #[test]
    fn migrated_sessions_still_publish_exactly_once() {
        use crate::knowledge::{KnowledgeStore, MergePolicy};
        use crate::rebalance::UtilizationBalance;
        let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let mut sim = fleet(2, 2, Box::new(RoundRobin::new()));
        sim.set_knowledge_store(std::sync::Arc::clone(&store));
        sim.set_rebalancer(Box::new(UtilizationBalance::new().with_min_gap(0.05)));
        let summary = sim.run().unwrap();
        assert!(summary.migrations > 0, "rebalancer never moved a session");
        assert_eq!(
            store.lock().unwrap().publishes(),
            summary.total_sessions,
            "a migrated session must publish once at finish, not per hop"
        );
    }

    fn burst_request(id: u64, arrival_s: f64, hr: bool, frames: u64) -> SessionRequest {
        SessionRequest {
            id,
            arrival_s,
            hr,
            live: false,
            frames,
            seed: id,
        }
    }

    /// Quiet start, an HR burst from t = 5 s, then a long two-stream
    /// tail — the shape an elastic pool exists for. One burst stream is
    /// much longer than the rest so the tail has a busy node and a
    /// near-idle one, which is what forces a drain on shrink.
    fn bursty_workload() -> Workload {
        let mut arrivals = vec![
            burst_request(0, 0.0, false, 150),
            burst_request(1, 0.5, false, 1_500),
        ];
        arrivals.push(burst_request(2, 5.0, true, 1_200));
        for i in 0..7 {
            arrivals.push(burst_request(3 + i, 5.4 + 0.4 * i as f64, true, 300));
        }
        // Late LR stragglers: by now the first LR session has finished
        // and published, so nodes commissioned during the burst can
        // warm-start these from the store.
        arrivals.push(burst_request(10, 8.3, false, 200));
        arrivals.push(burst_request(11, 9.1, false, 200));
        Workload::replay(arrivals)
    }

    fn provisioner() -> crate::sim::NodeProvisioner {
        Box::new(|| {
            (
                Platform::xeon_e5_2667_v4(),
                Box::new(|req: &SessionRequest| {
                    let threads = if req.hr { 10 } else { 4 };
                    Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
                        as Box<dyn mamut_core::Controller>
                }),
            )
        })
    }

    fn elastic_fleet(workers: usize) -> FleetSim {
        use crate::autoscale::ThresholdScaler;
        let mut sim = FleetSim::new(
            FleetConfig::default().with_worker_threads(workers),
            Box::new(LeastLoaded::new()),
            bursty_workload(),
        );
        sim.add_node(fixed_factory());
        sim.set_autoscaler(
            Box::new(
                ThresholdScaler::new()
                    .with_limits(1, 4)
                    .with_cooldown(1)
                    .with_watermarks(0.45, 0.8),
            ),
            provisioner(),
        );
        // Autoscaling rides on migration: without a rebalancer a burst
        // that already landed would pile up on the old pool while the
        // commissioned nodes idle.
        sim.set_rebalancer(Box::new(
            crate::rebalance::PowerQosBalance::new()
                .with_min_gap(0.3)
                .with_max_moves(2),
        ));
        sim
    }

    #[test]
    fn autoscaler_grows_through_the_burst_and_retires_after() {
        let mut sim = elastic_fleet(2);
        let summary = sim.run().unwrap();
        let arrivals = bursty_workload().len() as u64;
        assert_eq!(summary.total_sessions, arrivals, "every arrival served");
        assert_eq!(summary.rejected_sessions, 0);
        assert!(summary.scale_ups > 0, "burst must grow the pool");
        assert!(summary.scale_downs > 0, "quiet tail must shrink it");
        assert!(summary.peak_nodes > 1);
        assert!(
            summary.pool_timeline.len() > 2,
            "pool changed size over the run: {:?}",
            summary.pool_timeline
        );
        // The elastic pool must be cheaper than powering the peak pool
        // for the whole run.
        assert!(
            summary.node_epochs < summary.epochs * summary.peak_nodes as u64,
            "{} node-epochs vs {} epochs × {} peak",
            summary.node_epochs,
            summary.epochs,
            summary.peak_nodes
        );
        // Retired nodes are flagged in the per-node rows, and commissioned
        // nodes actually served sessions.
        assert!(summary.nodes.iter().any(|n| n.retired));
        assert!(summary.nodes.len() > 1);
        assert!(
            summary.nodes[1..].iter().any(|n| n.sessions > 0),
            "a commissioned node took arrivals"
        );
        // Nothing was lost in the moves: cluster frames cover every
        // session's full length.
        let expected_frames: u64 = bursty_workload().arrivals().iter().map(|r| r.frames).sum();
        assert_eq!(summary.total_frames, expected_frames);
        assert!(sim.nodes().iter().all(FleetNode::all_finished));
    }

    #[test]
    fn autoscaling_is_deterministic_across_worker_counts() {
        let run = |workers: usize| elastic_fleet(workers).run().unwrap().to_string();
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    /// Shrinks relentlessly once sessions are in flight — exercises the
    /// drain-before-decommission path and the one-active-node floor.
    struct ShrinkAfter(u64);
    impl crate::autoscale::Autoscaler for ShrinkAfter {
        fn name(&self) -> &'static str {
            "shrink-after"
        }
        fn plan(
            &mut self,
            signals: &crate::autoscale::ScaleSignals,
        ) -> crate::autoscale::ScaleDecision {
            if signals.epoch >= self.0 {
                crate::autoscale::ScaleDecision::Shrink(5)
            } else {
                crate::autoscale::ScaleDecision::Hold
            }
        }
    }

    #[test]
    fn shrink_drains_live_sessions_and_never_empties_the_pool() {
        let run = |shrink: bool| {
            let mut sim = fleet(3, 2, Box::new(LeastLoaded::new()));
            if shrink {
                // By epoch 3 every node holds live sessions, so retiring
                // two nodes must migrate real work to the survivor.
                sim.set_autoscaler(Box::new(ShrinkAfter(3)), provisioner());
            }
            sim.run().unwrap()
        };
        let fixed = run(false);
        let summary = run(true);
        assert_eq!(summary.scale_downs, 2, "two of three nodes retired");
        assert!(
            summary.drained_sessions > 0,
            "retiring loaded nodes must drain their sessions: {summary}"
        );
        assert_eq!(summary.total_sessions, 8, "the survivor served everything");
        assert_eq!(
            summary.pool_timeline.last().map(|&(_, s)| s),
            Some(1),
            "exactly one active node remains: {:?}",
            summary.pool_timeline
        );
        // Drains move sessions, they never lose them: cluster-wide frame
        // totals match the fixed pool serving the same workload.
        assert_eq!(summary.total_frames, fixed.total_frames);
        assert!(
            summary.node_epochs < fixed.node_epochs,
            "retiring nodes must stop burning node-epochs: {} vs {}",
            summary.node_epochs,
            fixed.node_epochs
        );
    }

    #[test]
    fn runaway_grow_is_clamped_to_the_pool_ceiling() {
        struct AlwaysGrow;
        impl crate::autoscale::Autoscaler for AlwaysGrow {
            fn name(&self) -> &'static str {
                "always-grow"
            }
            fn plan(
                &mut self,
                _signals: &crate::autoscale::ScaleSignals,
            ) -> crate::autoscale::ScaleDecision {
                crate::autoscale::ScaleDecision::Grow(10_000)
            }
        }
        let mut sim = FleetSim::new(
            FleetConfig {
                max_pool_nodes: 5,
                ..FleetConfig::default().with_worker_threads(2)
            },
            Box::new(LeastLoaded::new()),
            small_workload(11),
        );
        sim.add_node(fixed_factory());
        sim.set_autoscaler(Box::new(AlwaysGrow), provisioner());
        let summary = sim.run().unwrap();
        assert_eq!(sim.node_count(), 5, "growth stops at max_pool_nodes");
        assert_eq!(summary.scale_ups, 4);
        assert_eq!(summary.total_sessions, 8);
    }

    #[test]
    fn commissioned_nodes_warm_start_when_a_store_is_attached() {
        use crate::knowledge::{KnowledgeStore, MergePolicy};
        let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let mut sim = elastic_fleet(2);
        sim.set_knowledge_store(std::sync::Arc::clone(&store));
        let summary = sim.run().unwrap();
        assert!(summary.scale_ups > 0);
        // Sessions finished before the burst published; sessions built on
        // commissioned nodes were seeded from the store (the fleet wraps
        // the provisioner's factory itself).
        assert!(
            summary.warm_starts > 0,
            "commissioned nodes must seed from the store: {summary}"
        );
        assert_eq!(store.lock().unwrap().publishes(), summary.total_sessions);
    }

    #[test]
    fn idle_fast_path_is_byte_identical_to_the_slow_path() {
        // The elastic fleet exercises every wake point: dispatch admits
        // onto parked nodes, the rebalancer attaches to them, shrink
        // drains through them, and settle replays the stragglers.
        let run = |fast: bool| {
            let mut sim = elastic_fleet(2);
            sim.config.idle_fast_path = fast;
            sim.run().unwrap().to_string()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn step_driven_run_parks_idle_nodes_and_matches_run() {
        // Four round-robin nodes, staggered finishes: early finishers
        // must end up in the dormant set mid-run, and the step-by-step
        // drive must reproduce `run()` exactly.
        let mut sim = fleet(4, 1, Box::new(RoundRobin::new()));
        sim.begin_run().unwrap();
        let mut ever_dormant = 0usize;
        loop {
            sim.step_epoch().unwrap();
            ever_dormant = ever_dormant.max(sim.dormant.len());
            if sim.is_drained() {
                break;
            }
        }
        let stepped = sim.finish_run().unwrap();
        assert!(ever_dormant > 0, "early finishers were never parked");
        let whole = fleet(4, 1, Box::new(RoundRobin::new())).run().unwrap();
        assert_eq!(stepped, whole);
    }

    use crate::fault::{CheckpointPolicy, FaultPlan};

    /// An autoscaler that never scales — installed in chaos tests only
    /// to provide the provisioner that crash replacement draws from.
    struct HoldScaler;
    impl crate::autoscale::Autoscaler for HoldScaler {
        fn name(&self) -> &'static str {
            "hold"
        }
        fn plan(
            &mut self,
            _signals: &crate::autoscale::ScaleSignals,
        ) -> crate::autoscale::ScaleDecision {
            crate::autoscale::ScaleDecision::Hold
        }
    }

    fn chaos_fleet(workers: usize) -> FleetSim {
        let mut sim = FleetSim::new(
            FleetConfig::default().with_worker_threads(workers),
            Box::new(LeastLoaded::new()),
            bursty_workload(),
        );
        for _ in 0..3 {
            sim.add_node(fixed_factory());
        }
        sim
    }

    #[test]
    fn checkpointed_fault_free_run_is_byte_identical() {
        let plain = chaos_fleet(2).run().unwrap();
        let mut sim = chaos_fleet(2);
        sim.set_checkpoint_policy(CheckpointPolicy::every(2));
        let checkpointed = sim.run().unwrap();
        assert!(checkpointed.checkpoints > 0, "the cadence never fired");
        assert!(sim.latest_checkpoint().is_some());
        // Capture is pure observation: same results, same rendering.
        assert_eq!(checkpointed.to_string(), plain.to_string());
        assert_eq!(checkpointed.total_frames, plain.total_frames);
    }

    #[test]
    fn crash_recovery_conserves_every_frame() {
        let expected_frames: u64 = bursty_workload().arrivals().iter().map(|r| r.frames).sum();
        let mut sim = chaos_fleet(2);
        sim.set_checkpoint_policy(CheckpointPolicy::every(2));
        sim.set_fault_plan(FaultPlan::new().with_crash(3, 0));
        let summary = sim.run().unwrap();
        assert_eq!(summary.crashes, 1);
        assert!(
            summary.sessions_recovered > 0,
            "the crashed node held live sessions: {summary}"
        );
        assert_eq!(summary.frames_lost, 0);
        assert_eq!(
            summary.total_frames, expected_frames,
            "recovery re-does work, it never loses frames: {summary}"
        );
        assert!(
            summary.phase_marks.iter().any(|(_, l)| l == "crash:n0"),
            "crash mark missing: {:?}",
            summary.phase_marks
        );
        let text = summary.to_string();
        assert!(text.contains("faults: 1 crashes"), "{text}");
        assert!(text.contains("[crash:n0@e3]"), "{text}");
    }

    #[test]
    fn cold_restart_without_checkpoints_redoes_whole_sessions() {
        let expected_frames: u64 = bursty_workload().arrivals().iter().map(|r| r.frames).sum();
        let mut sim = chaos_fleet(2);
        sim.set_fault_plan(FaultPlan::new().with_crash(3, 0));
        let summary = sim.run().unwrap();
        assert_eq!(summary.crashes, 1);
        assert!(summary.sessions_recovered > 0);
        assert_eq!(summary.total_frames, expected_frames);
        // Without a checkpoint every lost frame is re-done from scratch.
        assert!(
            summary.frames_redone > 0,
            "a crash at epoch 3 lost in-progress work: {summary}"
        );
    }

    #[test]
    fn checkpoints_bound_the_redone_work() {
        let run = |checkpointed: bool| {
            let mut sim = chaos_fleet(2);
            if checkpointed {
                sim.set_checkpoint_policy(CheckpointPolicy::every(2));
            }
            sim.set_fault_plan(FaultPlan::new().with_crash(5, 0));
            sim.run().unwrap()
        };
        let cold = run(false);
        let warm = run(true);
        assert!(
            warm.frames_redone < cold.frames_redone,
            "a checkpoint 1 epoch before the crash must beat restart-from-zero: \
             {} redone vs {} cold",
            warm.frames_redone,
            cold.frames_redone
        );
        assert_eq!(warm.total_frames, cold.total_frames);
    }

    #[test]
    fn thermal_throttle_caps_a_node_then_lifts() {
        let expected_frames: u64 = bursty_workload().arrivals().iter().map(|r| r.frames).sum();
        let quiet = chaos_fleet(2).run().unwrap();
        let mut sim = chaos_fleet(2);
        sim.set_fault_plan(FaultPlan::new().with_throttle(2, 0, 1.8, 3));
        let summary = sim.run().unwrap();
        assert_eq!(summary.throttles, 1);
        assert_eq!(summary.crashes, 0);
        assert_eq!(
            summary.total_frames, expected_frames,
            "throttling loses nothing"
        );
        assert!(
            summary.total_energy_j != quiet.total_energy_j || summary.epochs != quiet.epochs,
            "a 1.8 GHz cap on a 2.9 GHz node must be visible somewhere"
        );
        let text = summary.to_string();
        assert!(text.contains("[throttle:n0@e2]"), "{text}");
    }

    #[test]
    fn crashed_nodes_are_replaced_after_the_delay() {
        let mut sim = chaos_fleet(2);
        sim.set_autoscaler(Box::new(HoldScaler), provisioner());
        sim.set_checkpoint_policy(CheckpointPolicy::every(2));
        sim.set_fault_plan(FaultPlan::new().with_crash(3, 0).with_replacement_delay(2));
        let summary = sim.run().unwrap();
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.recoveries, 1);
        assert!((summary.mean_mttr_epochs - 2.0).abs() < 1e-12, "{summary}");
        assert_eq!(summary.down_node_epochs, 2, "missing for exactly the delay");
        assert!(summary.availability_percent < 100.0);
        assert_eq!(summary.nodes.len(), 4, "a replacement joined the pool");
        assert!(
            summary.phase_marks.iter().any(|(_, l)| l == "recovered:n3"),
            "{:?}",
            summary.phase_marks
        );
        let text = summary.to_string();
        assert!(text.contains("[recovered:n3@e5]"), "{text}");
        assert!(text.contains("resilience:"), "{text}");
    }

    #[test]
    fn degraded_pool_sheds_new_arrivals() {
        let arrivals = vec![
            burst_request(0, 0.0, false, 800),
            burst_request(1, 0.2, false, 800),
            burst_request(2, 5.0, false, 100),
            burst_request(3, 6.0, false, 100),
        ];
        let mut sim = FleetSim::new(
            FleetConfig::default().with_worker_threads(2),
            Box::new(LeastLoaded::new()),
            Workload::replay(arrivals),
        );
        for _ in 0..2 {
            sim.add_node(fixed_factory());
        }
        // No provisioner: the crashed node is never replaced, so the
        // pool sits at 1 < 0.9 × 2 until the end — the late arrivals
        // must be shed, not queued into a backlog.
        sim.set_fault_plan(
            FaultPlan::new()
                .with_crash(2, 0)
                .with_degrade_watermark(0.9),
        );
        let summary = sim.run().unwrap();
        assert_eq!(summary.crashes, 1);
        assert_eq!(summary.shed_sessions, 2, "{summary}");
        assert_eq!(summary.rejected_sessions, 2);
        assert_eq!(summary.total_sessions, 2, "recovery is not an admission");
        assert_eq!(
            summary.total_frames, 1_600,
            "the early sessions finish in full"
        );
        let text = summary.to_string();
        assert!(text.contains("2 shed"), "{text}");
    }

    #[test]
    fn the_last_active_node_never_crashes() {
        let mut sim = fleet(1, 1, Box::new(LeastLoaded::new()));
        sim.set_fault_plan(FaultPlan::new().with_crash(1, 0));
        let summary = sim.run().unwrap();
        assert_eq!(summary.crashes, 0, "the floor holds: {summary}");
        assert_eq!(summary.frames_lost, 0);
        assert_eq!(summary.total_sessions, 8);
    }

    #[test]
    fn chaos_runs_are_deterministic_across_worker_counts() {
        let run = |workers: usize| {
            let mut sim = chaos_fleet(workers);
            sim.set_autoscaler(Box::new(HoldScaler), provisioner());
            sim.set_checkpoint_policy(CheckpointPolicy::every(2));
            sim.set_fault_plan(
                FaultPlan::new()
                    .with_crash(3, 0)
                    .with_throttle(4, 2, 1.8, 3)
                    .with_crash(6, 1),
            );
            sim.run().unwrap().to_string()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));
    }

    /// A controller that panics when it reaches a fixed frame.
    struct PanicAt {
        inner: FixedController,
        frame: u64,
    }

    impl mamut_core::Controller for PanicAt {
        fn name(&self) -> &str {
            "panic-at"
        }
        fn begin_frame(
            &mut self,
            frame: u64,
            obs: &mamut_core::Observation,
            constraints: &mamut_core::Constraints,
        ) -> Option<KnobSettings> {
            assert!(frame < self.frame, "controller blew up at frame {frame}");
            self.inner.begin_frame(frame, obs, constraints)
        }
        fn end_frame(
            &mut self,
            frame: u64,
            obs: &mamut_core::Observation,
            constraints: &mamut_core::Constraints,
        ) {
            self.inner.end_frame(frame, obs, constraints);
        }
        fn snapshot(&self) -> mamut_core::snapshot::PolicySnapshot {
            self.inner.snapshot()
        }
        fn restore(
            &mut self,
            snapshot: &mamut_core::snapshot::PolicySnapshot,
        ) -> Result<(), mamut_core::snapshot::SnapshotError> {
            self.inner.restore(snapshot)
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn a_panicking_node_fails_the_run_with_a_typed_error_and_a_flight_dump() {
        for workers in [1, 2] {
            let mut sim = FleetSim::new(
                FleetConfig::default().with_worker_threads(workers),
                Box::new(RoundRobin::new()),
                small_workload(11),
            );
            sim.add_node(fixed_factory());
            sim.add_node(Box::new(|_| {
                Box::new(PanicAt {
                    inner: FixedController::new(KnobSettings::new(32, 4, 2.9)),
                    frame: 10,
                })
            }));
            sim.add_node(fixed_factory());
            sim.set_telemetry(TelemetryMode::FlightRecorder { epochs: 4 });
            assert_eq!(
                sim.run().unwrap_err(),
                FleetError::WorkerPanicked { node: 1 },
                "{workers} workers"
            );
            assert!(sim.flight_dump().is_some(), "{workers} workers");
        }
    }

    #[test]
    fn nodes_idle_along_with_their_busy_peers() {
        // One node serves everything; the other must still account idle
        // time for the full duration.
        let mut sim = fleet(2, 2, Box::new(RoundRobin::new()));
        let summary = sim.run().unwrap();
        let duration = summary.duration_s;
        for run in &summary.node_runs {
            assert!((run.duration_s - duration).abs() < 1e-9);
        }
    }
}
