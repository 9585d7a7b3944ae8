//! Deterministic structured event tracing for the fleet.
//!
//! Every stateful decision the coordinator takes — dispatch, autoscale,
//! migration, checkpoint, fault injection, recovery, knowledge sync —
//! can be recorded as a typed [`TelemetryEvent`] stamped with the epoch
//! and *simulated* time it happened at. Because the coordinator does all
//! of this between epochs in a fixed order, and per-node session events
//! are buffered on the node that owns them and drained in node-id order,
//! the resulting [`FleetTrace`] is byte-identical no matter how many OS
//! worker threads advanced the nodes — the same invariant the summaries
//! already obey, extended to the full decision timeline.
//!
//! Three recording modes ([`TelemetryMode`]):
//!
//! * `Off` (default) — every hook is a single branch; nothing allocates.
//! * `Full` — every event of the run is retained.
//! * `FlightRecorder { epochs }` — only the last `epochs` completed
//!   epochs are retained (plus the one in progress); when a typed error
//!   aborts the run, the simulator encodes the recording automatically
//!   so the crash site's recent history survives the unwind.
//!
//! The collector records trace events only. Fault marks are kept by the
//! run's [`FleetSummary`](crate::FleetSummary) in every mode; a traced
//! run also records each one as a [`TelemetryEvent::Mark`].
//!
//! Traces serialize through the workspace snapshot layer under the
//! `MAMUTTL` magic (canonical encode: re-encoding a decoded trace is
//! byte-identical) and export to Chrome `trace_event` JSON — load the
//! file in `chrome://tracing` or [Perfetto](https://ui.perfetto.dev) —
//! and to CSV.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

use mamut_core::snapshot::Format;
use mamut_core::SnapshotError;

use crate::autoscale::PolicySource;

/// Framing of an encoded [`FleetTrace`].
pub const TRACE_FORMAT: Format = Format {
    magic: b"MAMUTTL\0",
    version: 1,
};

/// Lane index [`FleetTrace::merge_sharded`] assigns to coordinator-level
/// events (knowledge sync, overflow routing) so they never collide with
/// a real shard index.
pub const COORDINATOR_LANE: u32 = u32::MAX;

/// What the telemetry layer records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TelemetryMode {
    /// Record nothing; every instrumentation hook reduces to one branch.
    #[default]
    Off,
    /// Retain every event of the run.
    Full,
    /// Retain only the last `epochs` completed epochs of events; older
    /// blocks are dropped (counted in [`FleetTrace::dropped_epochs`]).
    FlightRecorder {
        /// How many completed epochs of history to keep.
        epochs: usize,
    },
}

/// One typed, simulated-time-stamped fleet event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// An epoch is about to be stepped with this many active nodes.
    EpochBegin {
        /// Active (non-retired) nodes entering the epoch.
        active_nodes: u32,
    },
    /// The epoch's node advancement and accounting completed.
    EpochEnd,
    /// The dispatcher admitted a session onto a node.
    DispatchAssign {
        /// Session (request) id.
        session: u64,
        /// Node the session was admitted on.
        node: u32,
    },
    /// The dispatcher parked a session in the pending queue.
    DispatchQueue {
        /// Session (request) id.
        session: u64,
    },
    /// The dispatcher rejected a session outright.
    DispatchReject {
        /// Session (request) id.
        session: u64,
    },
    /// A session was shed because the fleet was running degraded.
    DispatchShed {
        /// Session (request) id.
        session: u64,
    },
    /// The autoscaler planned a pool-size change (or an explicit hold).
    Autoscale {
        /// Signed pool delta: `+n` grow, `-n` shrink, `0` hold.
        delta: i64,
        /// Who made the call: heuristic, learned-greedy or exploratory.
        source: PolicySource,
        /// Optional policy-specific provenance (see
        /// [`Autoscaler::decision_detail`](crate::Autoscaler::decision_detail)).
        detail: String,
    },
    /// A node was commissioned into the active pool.
    NodeCommission {
        /// The new node's id.
        node: u32,
    },
    /// A node was drained and retired from the active pool.
    NodeRetire {
        /// The retired node's id.
        node: u32,
    },
    /// A fail-stop crash killed a node.
    NodeCrash {
        /// The crashed node's id.
        node: u32,
        /// Live sessions lost with it (before recovery).
        sessions_lost: u32,
    },
    /// A thermal throttle capped a node's DVFS frequency.
    ThrottleStart {
        /// The throttled node's id.
        node: u32,
        /// The imposed frequency cap (GHz).
        freq_cap_ghz: f64,
        /// First epoch at which the cap lifts.
        until_epoch: u64,
    },
    /// A thermal throttle expired and the frequency cap lifted.
    ThrottleEnd {
        /// The node whose cap lifted.
        node: u32,
    },
    /// A crashed session was re-created on a survivor.
    SessionRecovered {
        /// Session (request) id.
        session: u64,
        /// Node the session was restored onto.
        node: u32,
        /// Frames that must be transcoded again.
        frames_redone: u64,
        /// Whether a checkpoint seeded the restart (vs. from scratch).
        from_checkpoint: bool,
    },
    /// A fleet checkpoint was captured.
    CheckpointCaptured {
        /// Sessions covered by the bundle.
        sessions: u32,
        /// Encoded bundle size in bytes.
        bytes: u64,
    },
    /// A live session was detached from a node (migration out).
    SessionDetach {
        /// Session (request) id.
        session: u64,
        /// Node the session left.
        node: u32,
    },
    /// A live session was attached to a node (migration in).
    SessionAttach {
        /// Session (request) id.
        session: u64,
        /// Node the session landed on.
        node: u32,
    },
    /// A session completed its last frame during this epoch.
    SessionEnd {
        /// Session (request) id.
        session: u64,
        /// Node the session finished on.
        node: u32,
        /// Lifetime frames the session completed (migrations carry the
        /// count with the session).
        frames: u64,
    },
    /// A periodic cross-shard knowledge sync round completed.
    KnowledgeSync {
        /// Shard stores that participated in the fold.
        stores: u32,
    },
    /// A scheduled sync round was suppressed by injected sync loss.
    SyncRoundLost,
    /// A session moved between shards through watermark overflow routing.
    OverflowMigration {
        /// Session (request) id.
        session: u64,
        /// Shard the session left.
        from_shard: u32,
        /// Shard the session landed on.
        to_shard: u32,
    },
    /// A free-form annotation (scenario phase boundaries, fault marks).
    Mark {
        /// The annotation text, e.g. `crash:n0` or `flash-crowd`.
        label: String,
    },
}

impl TelemetryEvent {
    /// Stable kebab-case name of the event kind (CSV/Chrome `name`
    /// column, conservation counting).
    pub fn kind(&self) -> &'static str {
        match self {
            TelemetryEvent::EpochBegin { .. } => "epoch-begin",
            TelemetryEvent::EpochEnd => "epoch-end",
            TelemetryEvent::DispatchAssign { .. } => "dispatch-assign",
            TelemetryEvent::DispatchQueue { .. } => "dispatch-queue",
            TelemetryEvent::DispatchReject { .. } => "dispatch-reject",
            TelemetryEvent::DispatchShed { .. } => "dispatch-shed",
            TelemetryEvent::Autoscale { .. } => "autoscale",
            TelemetryEvent::NodeCommission { .. } => "node-commission",
            TelemetryEvent::NodeRetire { .. } => "node-retire",
            TelemetryEvent::NodeCrash { .. } => "node-crash",
            TelemetryEvent::ThrottleStart { .. } => "throttle-start",
            TelemetryEvent::ThrottleEnd { .. } => "throttle-end",
            TelemetryEvent::SessionRecovered { .. } => "session-recovered",
            TelemetryEvent::CheckpointCaptured { .. } => "checkpoint",
            TelemetryEvent::SessionDetach { .. } => "session-detach",
            TelemetryEvent::SessionAttach { .. } => "session-attach",
            TelemetryEvent::SessionEnd { .. } => "session-end",
            TelemetryEvent::KnowledgeSync { .. } => "knowledge-sync",
            TelemetryEvent::SyncRoundLost => "sync-round-lost",
            TelemetryEvent::OverflowMigration { .. } => "overflow-migration",
            TelemetryEvent::Mark { .. } => "mark",
        }
    }

    /// The node the event concerns, when it concerns exactly one.
    pub fn node(&self) -> Option<u32> {
        match *self {
            TelemetryEvent::DispatchAssign { node, .. }
            | TelemetryEvent::NodeCommission { node }
            | TelemetryEvent::NodeRetire { node }
            | TelemetryEvent::NodeCrash { node, .. }
            | TelemetryEvent::ThrottleStart { node, .. }
            | TelemetryEvent::ThrottleEnd { node }
            | TelemetryEvent::SessionRecovered { node, .. }
            | TelemetryEvent::SessionDetach { node, .. }
            | TelemetryEvent::SessionAttach { node, .. }
            | TelemetryEvent::SessionEnd { node, .. } => Some(node),
            _ => None,
        }
    }

    /// The session the event concerns, when it concerns exactly one.
    pub fn session(&self) -> Option<u64> {
        match *self {
            TelemetryEvent::DispatchAssign { session, .. }
            | TelemetryEvent::DispatchQueue { session }
            | TelemetryEvent::DispatchReject { session }
            | TelemetryEvent::DispatchShed { session }
            | TelemetryEvent::SessionRecovered { session, .. }
            | TelemetryEvent::SessionDetach { session, .. }
            | TelemetryEvent::SessionAttach { session, .. }
            | TelemetryEvent::SessionEnd { session, .. }
            | TelemetryEvent::OverflowMigration { session, .. } => Some(session),
            _ => None,
        }
    }
}

/// A [`TelemetryEvent`] with its position on the simulated timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TracedEvent {
    /// Epoch the event belongs to.
    pub epoch: u64,
    /// Simulated time of the event in integer microseconds (events at an
    /// epoch boundary carry the boundary instant; integer µs keep the
    /// exported timestamps free of float-formatting noise).
    pub at_us: u64,
    /// Shard lane ([`FleetTrace::merge_sharded`] fills this in; `0` for
    /// an unsharded fleet, [`COORDINATOR_LANE`] for coordinator events).
    pub shard: u32,
    /// The event itself.
    pub event: TelemetryEvent,
}

/// Minimum encoded size of one event (epoch + at_us + shard + kind tag):
/// the pre-allocation guard for the declared event count.
const MIN_EVENT_BYTES: usize = 8 + 8 + 4 + 1;

fn encode_policy_source(source: PolicySource) -> u8 {
    match source {
        PolicySource::Heuristic => 0,
        PolicySource::Greedy => 1,
        PolicySource::Exploratory => 2,
    }
}

fn decode_policy_source(tag: u8) -> Result<PolicySource, SnapshotError> {
    match tag {
        0 => Ok(PolicySource::Heuristic),
        1 => Ok(PolicySource::Greedy),
        2 => Ok(PolicySource::Exploratory),
        _ => Err(SnapshotError::Corrupt("invalid policy source tag")),
    }
}

/// A complete recorded trace: the deterministic event timeline of one
/// fleet run (or, in flight-recorder mode, its retained suffix).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetTrace {
    /// Epoch length of the run that produced the trace (seconds of
    /// simulated time), so consumers can convert epochs ↔ timestamps.
    pub epoch_s: f64,
    /// Completed epochs the flight recorder dropped before the first
    /// retained event (0 in `Full` mode).
    pub dropped_epochs: u64,
    /// Events in timeline order.
    pub events: Vec<TracedEvent>,
}

impl FleetTrace {
    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Counts retained events of one [`TelemetryEvent::kind`].
    pub fn count_kind(&self, kind: &str) -> u64 {
        self.events
            .iter()
            .filter(|e| e.event.kind() == kind)
            .count() as u64
    }

    /// Merges per-shard traces (and optionally a coordinator lane keyed
    /// [`COORDINATOR_LANE`]) into one timeline: events are grouped by
    /// epoch, lanes kept in the order given within an epoch, and each
    /// event stamped with its lane. Pass the coordinator part last so
    /// its sync/overflow events sort after the shard work of the same
    /// epoch — mirroring the lockstep coordinator, which runs after the
    /// shards have stepped.
    pub fn merge_sharded(epoch_s: f64, parts: Vec<(u32, FleetTrace)>) -> FleetTrace {
        let mut events = Vec::new();
        let mut dropped_epochs = 0;
        for (lane, mut part) in parts {
            dropped_epochs += part.dropped_epochs;
            for event in &mut part.events {
                event.shard = lane;
            }
            events.append(&mut part.events);
        }
        // Stable: within an epoch, lanes keep the order they were given
        // in and each lane keeps its own event order.
        events.sort_by_key(|e| e.epoch);
        FleetTrace {
            epoch_s,
            dropped_epochs,
            events,
        }
    }

    /// Canonical binary encoding under [`TRACE_FORMAT`]: decoding then
    /// re-encoding reproduces the bytes exactly.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = TRACE_FORMAT.writer();
        w.put_f64(self.epoch_s);
        w.put_u64(self.dropped_epochs);
        w.put_u32(self.events.len() as u32);
        for traced in &self.events {
            w.put_u64(traced.epoch);
            w.put_u64(traced.at_us);
            w.put_u32(traced.shard);
            match &traced.event {
                TelemetryEvent::EpochBegin { active_nodes } => {
                    w.put_u8(0);
                    w.put_u32(*active_nodes);
                }
                TelemetryEvent::EpochEnd => w.put_u8(1),
                TelemetryEvent::DispatchAssign { session, node } => {
                    w.put_u8(2);
                    w.put_u64(*session);
                    w.put_u32(*node);
                }
                TelemetryEvent::DispatchQueue { session } => {
                    w.put_u8(3);
                    w.put_u64(*session);
                }
                TelemetryEvent::DispatchReject { session } => {
                    w.put_u8(4);
                    w.put_u64(*session);
                }
                TelemetryEvent::DispatchShed { session } => {
                    w.put_u8(5);
                    w.put_u64(*session);
                }
                TelemetryEvent::Autoscale {
                    delta,
                    source,
                    detail,
                } => {
                    w.put_u8(6);
                    w.put_u64(*delta as u64);
                    w.put_u8(encode_policy_source(*source));
                    w.put_str(detail);
                }
                TelemetryEvent::NodeCommission { node } => {
                    w.put_u8(7);
                    w.put_u32(*node);
                }
                TelemetryEvent::NodeRetire { node } => {
                    w.put_u8(8);
                    w.put_u32(*node);
                }
                TelemetryEvent::NodeCrash {
                    node,
                    sessions_lost,
                } => {
                    w.put_u8(9);
                    w.put_u32(*node);
                    w.put_u32(*sessions_lost);
                }
                TelemetryEvent::ThrottleStart {
                    node,
                    freq_cap_ghz,
                    until_epoch,
                } => {
                    w.put_u8(10);
                    w.put_u32(*node);
                    w.put_f64(*freq_cap_ghz);
                    w.put_u64(*until_epoch);
                }
                TelemetryEvent::ThrottleEnd { node } => {
                    w.put_u8(11);
                    w.put_u32(*node);
                }
                TelemetryEvent::SessionRecovered {
                    session,
                    node,
                    frames_redone,
                    from_checkpoint,
                } => {
                    w.put_u8(12);
                    w.put_u64(*session);
                    w.put_u32(*node);
                    w.put_u64(*frames_redone);
                    w.put_bool(*from_checkpoint);
                }
                TelemetryEvent::CheckpointCaptured { sessions, bytes } => {
                    w.put_u8(13);
                    w.put_u32(*sessions);
                    w.put_u64(*bytes);
                }
                TelemetryEvent::SessionDetach { session, node } => {
                    w.put_u8(14);
                    w.put_u64(*session);
                    w.put_u32(*node);
                }
                TelemetryEvent::SessionAttach { session, node } => {
                    w.put_u8(15);
                    w.put_u64(*session);
                    w.put_u32(*node);
                }
                TelemetryEvent::SessionEnd {
                    session,
                    node,
                    frames,
                } => {
                    w.put_u8(16);
                    w.put_u64(*session);
                    w.put_u32(*node);
                    w.put_u64(*frames);
                }
                TelemetryEvent::KnowledgeSync { stores } => {
                    w.put_u8(17);
                    w.put_u32(*stores);
                }
                TelemetryEvent::SyncRoundLost => w.put_u8(18),
                TelemetryEvent::OverflowMigration {
                    session,
                    from_shard,
                    to_shard,
                } => {
                    w.put_u8(19);
                    w.put_u64(*session);
                    w.put_u32(*from_shard);
                    w.put_u32(*to_shard);
                }
                TelemetryEvent::Mark { label } => {
                    w.put_u8(20);
                    w.put_str(label);
                }
            }
        }
        w.into_bytes()
    }

    /// Decodes an encoded trace, rejecting framing errors (see
    /// [`Format::read`]), truncation and malformed shapes.
    pub fn decode(bytes: &[u8]) -> Result<FleetTrace, SnapshotError> {
        TRACE_FORMAT.read(bytes, |r| {
            let epoch_s = r.get_f64()?;
            let dropped_epochs = r.get_u64()?;
            let count = r.get_count(MIN_EVENT_BYTES)?;
            let mut events = Vec::with_capacity(count);
            for _ in 0..count {
                let epoch = r.get_u64()?;
                let at_us = r.get_u64()?;
                let shard = r.get_u32()?;
                let event = match r.get_u8()? {
                    0 => TelemetryEvent::EpochBegin {
                        active_nodes: r.get_u32()?,
                    },
                    1 => TelemetryEvent::EpochEnd,
                    2 => TelemetryEvent::DispatchAssign {
                        session: r.get_u64()?,
                        node: r.get_u32()?,
                    },
                    3 => TelemetryEvent::DispatchQueue {
                        session: r.get_u64()?,
                    },
                    4 => TelemetryEvent::DispatchReject {
                        session: r.get_u64()?,
                    },
                    5 => TelemetryEvent::DispatchShed {
                        session: r.get_u64()?,
                    },
                    6 => TelemetryEvent::Autoscale {
                        delta: r.get_u64()? as i64,
                        source: decode_policy_source(r.get_u8()?)?,
                        detail: r.get_str()?,
                    },
                    7 => TelemetryEvent::NodeCommission { node: r.get_u32()? },
                    8 => TelemetryEvent::NodeRetire { node: r.get_u32()? },
                    9 => TelemetryEvent::NodeCrash {
                        node: r.get_u32()?,
                        sessions_lost: r.get_u32()?,
                    },
                    10 => TelemetryEvent::ThrottleStart {
                        node: r.get_u32()?,
                        freq_cap_ghz: r.get_f64()?,
                        until_epoch: r.get_u64()?,
                    },
                    11 => TelemetryEvent::ThrottleEnd { node: r.get_u32()? },
                    12 => TelemetryEvent::SessionRecovered {
                        session: r.get_u64()?,
                        node: r.get_u32()?,
                        frames_redone: r.get_u64()?,
                        from_checkpoint: r.get_bool()?,
                    },
                    13 => TelemetryEvent::CheckpointCaptured {
                        sessions: r.get_u32()?,
                        bytes: r.get_u64()?,
                    },
                    14 => TelemetryEvent::SessionDetach {
                        session: r.get_u64()?,
                        node: r.get_u32()?,
                    },
                    15 => TelemetryEvent::SessionAttach {
                        session: r.get_u64()?,
                        node: r.get_u32()?,
                    },
                    16 => TelemetryEvent::SessionEnd {
                        session: r.get_u64()?,
                        node: r.get_u32()?,
                        frames: r.get_u64()?,
                    },
                    17 => TelemetryEvent::KnowledgeSync {
                        stores: r.get_u32()?,
                    },
                    18 => TelemetryEvent::SyncRoundLost,
                    19 => TelemetryEvent::OverflowMigration {
                        session: r.get_u64()?,
                        from_shard: r.get_u32()?,
                        to_shard: r.get_u32()?,
                    },
                    20 => TelemetryEvent::Mark {
                        label: r.get_str()?,
                    },
                    _ => return Err(SnapshotError::Corrupt("unknown telemetry event kind")),
                };
                events.push(TracedEvent {
                    epoch,
                    at_us,
                    shard,
                    event,
                });
            }
            Ok(FleetTrace {
                epoch_s,
                dropped_epochs,
                events,
            })
        })
    }

    /// Exports the trace as Chrome `trace_event` JSON (the JSON-object
    /// format with a `traceEvents` array), loadable in `chrome://tracing`
    /// or Perfetto. Epochs become complete (`X`) spans on thread 0 of
    /// each shard lane, sessions become `X` spans from dispatch to
    /// completion on the node thread that finished them, and every other
    /// event becomes an instant (`i`) event. Timestamps are the integer
    /// simulated microseconds carried by the events, so the export is as
    /// deterministic as the trace itself.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 96);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        // Open epochs per lane, open sessions per id: matched to emit
        // spans when their end event arrives.
        let mut open_epochs: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
        let mut open_sessions: BTreeMap<u64, u64> = BTreeMap::new();
        let mut emit = |out: &mut String, body: &str| {
            if !std::mem::take(&mut first) {
                out.push(',');
            }
            out.push_str(body);
        };
        for traced in &self.events {
            let pid = traced.shard;
            match &traced.event {
                TelemetryEvent::EpochBegin { active_nodes } => {
                    open_epochs.insert(pid, (traced.epoch, traced.at_us));
                    emit(
                        &mut out,
                        &format!(
                            "{{\"name\":\"epoch-begin\",\"ph\":\"i\",\"s\":\"p\",\"ts\":{},\
                             \"pid\":{pid},\"tid\":0,\"args\":{{\"epoch\":{},\
                             \"active_nodes\":{active_nodes}}}}}",
                            traced.at_us, traced.epoch
                        ),
                    );
                }
                TelemetryEvent::EpochEnd => {
                    if let Some((epoch, began_us)) = open_epochs.remove(&pid) {
                        let dur = traced.at_us.saturating_sub(began_us);
                        emit(
                            &mut out,
                            &format!(
                                "{{\"name\":\"epoch\",\"ph\":\"X\",\"ts\":{began_us},\
                                 \"dur\":{dur},\"pid\":{pid},\"tid\":0,\
                                 \"args\":{{\"epoch\":{epoch}}}}}"
                            ),
                        );
                    }
                }
                TelemetryEvent::DispatchAssign { session, node } => {
                    open_sessions.insert(*session, traced.at_us);
                    emit(
                        &mut out,
                        &format!(
                            "{{\"name\":\"dispatch-assign\",\"ph\":\"i\",\"s\":\"t\",\
                             \"ts\":{},\"pid\":{pid},\"tid\":{node},\
                             \"args\":{{\"session\":{session}}}}}",
                            traced.at_us
                        ),
                    );
                }
                TelemetryEvent::SessionEnd {
                    session,
                    node,
                    frames,
                } => {
                    if let Some(began_us) = open_sessions.remove(session) {
                        let dur = traced.at_us.saturating_sub(began_us);
                        emit(
                            &mut out,
                            &format!(
                                "{{\"name\":\"session\",\"ph\":\"X\",\"ts\":{began_us},\
                                 \"dur\":{dur},\"pid\":{pid},\"tid\":{node},\
                                 \"args\":{{\"session\":{session},\"frames\":{frames}}}}}"
                            ),
                        );
                    } else {
                        emit(
                            &mut out,
                            &format!(
                                "{{\"name\":\"session-end\",\"ph\":\"i\",\"s\":\"t\",\
                                 \"ts\":{},\"pid\":{pid},\"tid\":{node},\
                                 \"args\":{{\"session\":{session},\"frames\":{frames}}}}}",
                                traced.at_us
                            ),
                        );
                    }
                }
                other => {
                    let tid = other.node().unwrap_or(0);
                    let mut args = String::new();
                    if let Some(session) = other.session() {
                        let _ = write!(args, "\"session\":{session}");
                    }
                    if let TelemetryEvent::Autoscale {
                        delta,
                        source,
                        detail,
                    } = other
                    {
                        let _ = write!(args, "\"delta\":{delta},\"source\":\"{:?}\"", source);
                        if !detail.is_empty() {
                            let _ = write!(args, ",\"detail\":\"{}\"", escape_json(detail));
                        }
                    }
                    if let TelemetryEvent::Mark { label } = other {
                        let _ = write!(args, "\"label\":\"{}\"", escape_json(label));
                    }
                    emit(
                        &mut out,
                        &format!(
                            "{{\"name\":\"{}\",\"ph\":\"i\",\"s\":\"g\",\"ts\":{},\
                             \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}",
                            other.kind(),
                            traced.at_us
                        ),
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }

    /// Exports the trace as CSV: one line per event with the epoch,
    /// timestamp, lane, kind, optional session/node and a detail column
    /// (autoscale provenance, mark labels), RFC-4180 quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::with_capacity(64 + self.events.len() * 48);
        out.push_str("epoch,at_us,shard,event,session,node,detail\n");
        for traced in &self.events {
            let session = traced
                .event
                .session()
                .map(|s| s.to_string())
                .unwrap_or_default();
            let node = traced
                .event
                .node()
                .map(|n| n.to_string())
                .unwrap_or_default();
            let detail = match &traced.event {
                TelemetryEvent::Autoscale {
                    delta,
                    source,
                    detail,
                } => {
                    if detail.is_empty() {
                        format!("delta={delta} source={source:?}")
                    } else {
                        format!("delta={delta} source={source:?} {detail}")
                    }
                }
                TelemetryEvent::Mark { label } => label.clone(),
                TelemetryEvent::EpochBegin { active_nodes } => {
                    format!("active_nodes={active_nodes}")
                }
                TelemetryEvent::NodeCrash { sessions_lost, .. } => {
                    format!("sessions_lost={sessions_lost}")
                }
                TelemetryEvent::SessionRecovered {
                    frames_redone,
                    from_checkpoint,
                    ..
                } => format!("frames_redone={frames_redone} from_checkpoint={from_checkpoint}"),
                TelemetryEvent::CheckpointCaptured { sessions, bytes } => {
                    format!("sessions={sessions} bytes={bytes}")
                }
                TelemetryEvent::ThrottleStart {
                    freq_cap_ghz,
                    until_epoch,
                    ..
                } => format!("cap_ghz={freq_cap_ghz:.2} until_epoch={until_epoch}"),
                TelemetryEvent::SessionEnd { frames, .. } => format!("frames={frames}"),
                TelemetryEvent::KnowledgeSync { stores } => format!("stores={stores}"),
                TelemetryEvent::OverflowMigration {
                    from_shard,
                    to_shard,
                    ..
                } => format!("from_shard={from_shard} to_shard={to_shard}"),
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{},{},{},{},{session},{node},{}",
                traced.epoch,
                traced.at_us,
                traced.shard,
                traced.event.kind(),
                csv_field(&detail)
            );
        }
        out
    }
}

/// Escapes a string for embedding inside a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Quotes a CSV field when it contains a delimiter, quote or newline
/// (RFC 4180: embedded quotes double).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_owned()
    }
}

/// The recording side: per-epoch event blocks with flight-recorder
/// trimming. It records trace events only; fault marks are kept by the
/// run's summary, in every mode.
///
/// Lives inside [`FleetSim`](crate::FleetSim); every hook checks
/// [`TelemetryCollector::enabled`] first, so with tracing off the whole
/// layer costs one branch per hook.
#[derive(Debug, Default)]
pub(crate) struct TelemetryCollector {
    mode: TelemetryMode,
    /// Completed epochs' events, front = oldest retained.
    blocks: VecDeque<Vec<TracedEvent>>,
    /// Events of the epoch in progress.
    current: Vec<TracedEvent>,
    dropped_epochs: u64,
    events_recorded: u64,
}

impl TelemetryCollector {
    /// Switches the recording mode (takes effect immediately).
    pub(crate) fn set_mode(&mut self, mode: TelemetryMode) {
        self.mode = mode;
    }

    /// The active recording mode.
    pub(crate) fn mode(&self) -> TelemetryMode {
        self.mode
    }

    /// Whether events are being recorded at all — the one branch every
    /// instrumentation hook pays when tracing is off.
    #[inline]
    pub(crate) fn enabled(&self) -> bool {
        self.mode != TelemetryMode::Off
    }

    /// Clears all recorded state (mode survives) — called by
    /// `begin_run` so reruns start from an empty timeline.
    pub(crate) fn reset(&mut self) {
        self.blocks.clear();
        self.current.clear();
        self.dropped_epochs = 0;
        self.events_recorded = 0;
    }

    /// Records one event into the current epoch block (no-op when off).
    pub(crate) fn record(&mut self, epoch: u64, at_us: u64, event: TelemetryEvent) {
        if self.enabled() {
            self.events_recorded += 1;
            self.current.push(TracedEvent {
                epoch,
                at_us,
                shard: 0,
                event,
            });
        }
    }

    /// Seals the epoch in progress and applies flight-recorder trimming.
    pub(crate) fn end_epoch(&mut self) {
        if !self.enabled() {
            return;
        }
        self.blocks.push_back(std::mem::take(&mut self.current));
        if let TelemetryMode::FlightRecorder { epochs } = self.mode {
            while self.blocks.len() > epochs.max(1) {
                self.blocks.pop_front();
                self.dropped_epochs += 1;
            }
        }
    }

    /// Events recorded over the run, including any the flight recorder
    /// has since dropped.
    pub(crate) fn events_recorded(&self) -> u64 {
        self.events_recorded
    }

    /// Assembles the retained events into a [`FleetTrace`].
    pub(crate) fn trace(&self, epoch_s: f64) -> FleetTrace {
        let mut events = Vec::with_capacity(
            self.blocks.iter().map(Vec::len).sum::<usize>() + self.current.len(),
        );
        for block in &self.blocks {
            events.extend(block.iter().cloned());
        }
        events.extend(self.current.iter().cloned());
        FleetTrace {
            epoch_s,
            dropped_epochs: self.dropped_epochs,
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> FleetTrace {
        FleetTrace {
            epoch_s: 2.0,
            dropped_epochs: 3,
            events: vec![
                TracedEvent {
                    epoch: 0,
                    at_us: 0,
                    shard: 0,
                    event: TelemetryEvent::EpochBegin { active_nodes: 2 },
                },
                TracedEvent {
                    epoch: 0,
                    at_us: 0,
                    shard: 0,
                    event: TelemetryEvent::DispatchAssign {
                        session: 7,
                        node: 1,
                    },
                },
                TracedEvent {
                    epoch: 0,
                    at_us: 0,
                    shard: 0,
                    event: TelemetryEvent::Autoscale {
                        delta: -2,
                        source: PolicySource::Exploratory,
                        detail: "q=0.5, \"raw\"".to_owned(),
                    },
                },
                TracedEvent {
                    epoch: 1,
                    at_us: 2_000_000,
                    shard: 0,
                    event: TelemetryEvent::Mark {
                        label: "crash:n0".to_owned(),
                    },
                },
                TracedEvent {
                    epoch: 1,
                    at_us: 2_000_000,
                    shard: 0,
                    event: TelemetryEvent::SessionRecovered {
                        session: 7,
                        node: 1,
                        frames_redone: 12,
                        from_checkpoint: true,
                    },
                },
                TracedEvent {
                    epoch: 1,
                    at_us: 4_000_000,
                    shard: 0,
                    event: TelemetryEvent::SessionEnd {
                        session: 7,
                        node: 1,
                        frames: 48,
                    },
                },
                TracedEvent {
                    epoch: 1,
                    at_us: 4_000_000,
                    shard: 0,
                    event: TelemetryEvent::EpochEnd,
                },
            ],
        }
    }

    #[test]
    fn codec_round_trip_is_byte_identical() {
        let trace = sample_trace();
        let bytes = trace.encode();
        let decoded = FleetTrace::decode(&bytes).expect("decodes");
        assert_eq!(decoded, trace);
        assert_eq!(decoded.encode(), bytes, "canonical re-encode");
    }

    #[test]
    fn every_event_kind_round_trips() {
        let all = vec![
            TelemetryEvent::EpochBegin { active_nodes: 1 },
            TelemetryEvent::EpochEnd,
            TelemetryEvent::DispatchAssign {
                session: 1,
                node: 2,
            },
            TelemetryEvent::DispatchQueue { session: 3 },
            TelemetryEvent::DispatchReject { session: 4 },
            TelemetryEvent::DispatchShed { session: 5 },
            TelemetryEvent::Autoscale {
                delta: 3,
                source: PolicySource::Heuristic,
                detail: String::new(),
            },
            TelemetryEvent::NodeCommission { node: 6 },
            TelemetryEvent::NodeRetire { node: 7 },
            TelemetryEvent::NodeCrash {
                node: 8,
                sessions_lost: 2,
            },
            TelemetryEvent::ThrottleStart {
                node: 9,
                freq_cap_ghz: 1.8,
                until_epoch: 11,
            },
            TelemetryEvent::ThrottleEnd { node: 9 },
            TelemetryEvent::SessionRecovered {
                session: 10,
                node: 0,
                frames_redone: 0,
                from_checkpoint: false,
            },
            TelemetryEvent::CheckpointCaptured {
                sessions: 4,
                bytes: 1024,
            },
            TelemetryEvent::SessionDetach {
                session: 11,
                node: 1,
            },
            TelemetryEvent::SessionAttach {
                session: 11,
                node: 2,
            },
            TelemetryEvent::SessionEnd {
                session: 11,
                node: 2,
                frames: 99,
            },
            TelemetryEvent::KnowledgeSync { stores: 8 },
            TelemetryEvent::SyncRoundLost,
            TelemetryEvent::OverflowMigration {
                session: 12,
                from_shard: 0,
                to_shard: 3,
            },
            TelemetryEvent::Mark {
                label: "phase".to_owned(),
            },
        ];
        let trace = FleetTrace {
            epoch_s: 1.0,
            dropped_epochs: 0,
            events: all
                .into_iter()
                .enumerate()
                .map(|(i, event)| TracedEvent {
                    epoch: i as u64,
                    at_us: i as u64 * 1_000_000,
                    shard: (i % 3) as u32,
                    event,
                })
                .collect(),
        };
        let decoded = FleetTrace::decode(&trace.encode()).expect("decodes");
        assert_eq!(decoded, trace);
    }

    #[test]
    fn truncated_bytes_are_rejected() {
        let bytes = sample_trace().encode();
        for cut in [5, 10, 29, 31, bytes.len() - 1] {
            assert!(
                FleetTrace::decode(&bytes[..cut]).is_err(),
                "decode of {cut}-byte prefix should fail"
            );
        }
        // Trailing garbage is a shape error, not silently ignored.
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(FleetTrace::decode(&longer).is_err());
    }

    #[test]
    fn huge_counts_and_unknown_kinds_are_rejected() {
        let good = sample_trace().encode();
        // A declared event count far beyond the buffer is truncation, not
        // an allocation attempt.
        let mut huge = good.clone();
        let count_at = 8 + 2 + 8 + 8;
        huge[count_at..count_at + 4].copy_from_slice(&0xFFFF_FFFFu32.to_le_bytes());
        assert!(matches!(
            FleetTrace::decode(&huge),
            Err(SnapshotError::Truncated)
        ));
        // An unknown kind tag is a corrupt shape.
        let mut bad_kind = good;
        let first_kind_at = count_at + 4 + 8 + 8 + 4;
        bad_kind[first_kind_at] = 0xEE;
        assert!(matches!(
            FleetTrace::decode(&bad_kind),
            Err(SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn chrome_export_pairs_spans_and_escapes_strings() {
        let json = sample_trace().to_chrome_json();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        // The epoch 0 begin has no end in the sample, so no epoch span;
        // the session span pairs dispatch (ts 0) with end (ts 4s).
        assert!(json.contains("\"name\":\"session\",\"ph\":\"X\",\"ts\":0,\"dur\":4000000"));
        assert!(json.contains("\"label\":\"crash:n0\""));
        // The autoscale detail's quote survives as an escaped quote.
        assert!(json.contains("\\\"raw\\\""));
        // Structural sanity: braces and brackets balance outside strings.
        let (mut depth, mut in_str, mut esc) = (0i64, false, false);
        for c in json.chars() {
            if esc {
                esc = false;
                continue;
            }
            match c {
                '\\' if in_str => esc = true,
                '"' => in_str = !in_str,
                '{' | '[' if !in_str => depth += 1,
                '}' | ']' if !in_str => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0, "unbalanced JSON");
        assert!(!in_str, "unterminated string");
    }

    #[test]
    fn csv_export_has_one_line_per_event() {
        let trace = sample_trace();
        let csv = trace.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + trace.len());
        assert_eq!(lines[0], "epoch,at_us,shard,event,session,node,detail");
        assert!(lines[3].starts_with("0,0,0,autoscale,,,"));
        // The autoscale detail contains a comma and quotes → quoted field.
        assert!(lines[3].contains("\"delta=-2 source=Exploratory q=0.5, \"\"raw\"\"\""));
        assert!(lines[4].ends_with("crash:n0"));
    }

    #[test]
    fn collector_off_records_nothing_but_keeps_marks() {
        // Fault marks survive tracing off in the run's summary, not here
        // (`fleet_chaos` renders `[crash:n0@e3]` from an untraced run).
        let mut c = TelemetryCollector::default();
        assert!(!c.enabled());
        c.record(0, 0, TelemetryEvent::EpochEnd);
        c.end_epoch();
        assert_eq!(c.events_recorded(), 0);
        assert!(c.trace(1.0).is_empty());
    }

    #[test]
    fn collector_full_keeps_everything_in_order() {
        let mut c = TelemetryCollector::default();
        c.set_mode(TelemetryMode::Full);
        for epoch in 0..3u64 {
            c.record(
                epoch,
                epoch * 1_000_000,
                TelemetryEvent::EpochBegin { active_nodes: 1 },
            );
            c.record(epoch, (epoch + 1) * 1_000_000, TelemetryEvent::EpochEnd);
            c.end_epoch();
        }
        let trace = c.trace(1.0);
        assert_eq!(trace.len(), 6);
        assert_eq!(trace.dropped_epochs, 0);
        assert_eq!(c.events_recorded(), 6);
        let epochs: Vec<u64> = trace.events.iter().map(|e| e.epoch).collect();
        assert_eq!(epochs, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn flight_recorder_keeps_only_the_tail() {
        let mut c = TelemetryCollector::default();
        c.set_mode(TelemetryMode::FlightRecorder { epochs: 2 });
        for epoch in 0..5u64 {
            c.record(epoch, epoch, TelemetryEvent::EpochBegin { active_nodes: 1 });
            c.end_epoch();
        }
        let trace = c.trace(1.0);
        assert_eq!(trace.dropped_epochs, 3);
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events[0].epoch, 3);
        assert_eq!(trace.events[1].epoch, 4);
        assert_eq!(c.events_recorded(), 5, "recorded counts include dropped");
    }

    #[test]
    fn collector_reset_clears_state_but_keeps_mode() {
        let mut c = TelemetryCollector::default();
        c.set_mode(TelemetryMode::Full);
        c.record(0, 0, TelemetryEvent::EpochEnd);
        c.end_epoch();
        c.reset();
        assert!(c.enabled());
        assert_eq!(c.events_recorded(), 0);
        assert!(c.trace(1.0).is_empty());
    }

    #[test]
    fn merge_sharded_orders_lanes_within_epochs() {
        let shard = |_lane: u32, epochs: &[u64]| FleetTrace {
            epoch_s: 1.0,
            dropped_epochs: 0,
            events: epochs
                .iter()
                .map(|&epoch| TracedEvent {
                    epoch,
                    at_us: epoch,
                    shard: 0,
                    event: TelemetryEvent::EpochEnd,
                })
                .collect(),
        };
        let merged = FleetTrace::merge_sharded(
            1.0,
            vec![
                (0, shard(0, &[0, 1])),
                (1, shard(1, &[0, 1])),
                (COORDINATOR_LANE, shard(0, &[0])),
            ],
        );
        let lanes: Vec<(u64, u32)> = merged.events.iter().map(|e| (e.epoch, e.shard)).collect();
        assert_eq!(
            lanes,
            vec![(0, 0), (0, 1), (0, COORDINATOR_LANE), (1, 0), (1, 1)]
        );
    }

    #[test]
    fn kind_helpers_cover_sessions_and_nodes() {
        let e = TelemetryEvent::DispatchAssign {
            session: 5,
            node: 2,
        };
        assert_eq!(e.kind(), "dispatch-assign");
        assert_eq!(e.session(), Some(5));
        assert_eq!(e.node(), Some(2));
        assert_eq!(TelemetryEvent::EpochEnd.session(), None);
        assert_eq!(TelemetryEvent::EpochEnd.node(), None);
        let t = sample_trace();
        assert_eq!(t.count_kind("mark"), 1);
        assert_eq!(t.count_kind("epoch-begin"), 1);
        assert_eq!(t.count_kind("nope"), 0);
    }
}
