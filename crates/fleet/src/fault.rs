//! Deterministic fault injection and checkpoint/recovery for the fleet.
//!
//! Real fleets lose nodes. The paper's evaluation never does — one
//! server, one run — but a fleet reproduction that cannot survive a
//! crash is a fair-weather artifact. This module makes failure a
//! *scripted, replayable input*: a [`FaultPlan`] is an explicit list of
//! [`FaultEvent`]s (node crashes, thermal throttles, knowledge-sync
//! losses, shard partitions) keyed by epoch, injected by the coordinator
//! between epochs — never mid-epoch, so worker-count determinism is
//! untouched. The same plan against the same workload produces the same
//! summary, byte for byte, which is what makes chaos runs testable.
//!
//! Recovery rides on a [`CheckpointPolicy`]: every `interval_epochs` the
//! coordinator captures each node's live sessions through the session
//! checkpoint codec into one `MAMUTCK` bundle (see
//! [`CheckpointBundle`]). When a node crashes, its live sessions are
//! restored from the last bundle and re-attached to survivors; frames
//! transcoded since the capture are *re-done*, counted in
//! `frames_redone`, and nothing is silently lost.

use std::collections::BTreeMap;

use mamut_core::snapshot::Format;
use mamut_core::SnapshotError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::workload::SessionRequest;

/// Framing of an encoded [`CheckpointBundle`].
pub const CHECKPOINT_FORMAT: Format = Format {
    magic: b"MAMUTCK\0",
    version: 1,
};

/// One scripted fault, keyed by the epoch at whose start it fires.
///
/// Node-level events carry a `shard` index so one plan can script a
/// whole [`ShardedFleetSim`](crate::ShardedFleetSim); a standalone
/// [`FleetSim`](crate::FleetSim) is shard `0`. Coordinator-level events
/// (`SyncLoss`, `ShardPartition`) only have an effect under the sharded
/// coordinator.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultEvent {
    /// Fail-stop crash: the node is killed at the start of `epoch`,
    /// live sessions and all. Survivors adopt its sessions from the
    /// last checkpoint (or from scratch on a checkpoint miss).
    NodeCrash {
        /// Epoch at whose start the node dies.
        epoch: u64,
        /// Shard holding the node (0 for an unsharded fleet).
        shard: usize,
        /// Node id within the shard.
        node: usize,
    },
    /// Thermal throttle: the node's effective DVFS frequency is capped
    /// at `freq_cap_ghz` for `duration_epochs` epochs. Controllers keep
    /// announcing their knobs; the silicon just refuses to deliver.
    ThermalThrottle {
        /// Epoch at whose start the cap engages.
        epoch: u64,
        /// Shard holding the node (0 for an unsharded fleet).
        shard: usize,
        /// Node id within the shard.
        node: usize,
        /// Ceiling on effective frequency (GHz).
        freq_cap_ghz: f64,
        /// Epochs the cap stays engaged.
        duration_epochs: u64,
    },
    /// Knowledge-sync loss: the next `rounds` inter-shard sync rounds
    /// are dropped (sharded runs only; shards keep learning locally).
    SyncLoss {
        /// Epoch at whose boundary the loss begins.
        epoch: u64,
        /// Sync rounds suppressed.
        rounds: u64,
    },
    /// Shard partition: the shard is cut off from overflow routing and
    /// knowledge sync for `duration_epochs` (sharded runs only).
    ShardPartition {
        /// Epoch at whose boundary the partition begins.
        epoch: u64,
        /// Partitioned shard index.
        shard: usize,
        /// Epochs the partition lasts.
        duration_epochs: u64,
    },
}

impl FaultEvent {
    /// The epoch at whose start/boundary this event fires.
    pub fn epoch(&self) -> u64 {
        match self {
            FaultEvent::NodeCrash { epoch, .. }
            | FaultEvent::ThermalThrottle { epoch, .. }
            | FaultEvent::SyncLoss { epoch, .. }
            | FaultEvent::ShardPartition { epoch, .. } => *epoch,
        }
    }
}

/// A deterministic fault schedule plus the recovery knobs the
/// coordinator applies when its events fire. Build one with the
/// `with_*` methods (events are kept sorted by epoch, stable within an
/// epoch) or generate a seeded random one with [`FaultPlan::chaos`].
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Epochs between a crash and the commissioning of its replacement
    /// node (through the fleet's provisioner; minimum 1). This is the
    /// scripted mean-time-to-repair.
    pub replacement_delay_epochs: u64,
    /// Graceful-degradation watermark: when the active pool falls below
    /// this fraction of its peak size, `Queue` dispatch decisions are
    /// converted to sheds (counted rejections) so surviving nodes are
    /// not buried under a backlog they cannot serve. `None` disables
    /// shedding.
    pub degrade_watermark: Option<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::new()
    }
}

impl FaultPlan {
    /// An empty plan: no faults, replacements after 2 epochs, no
    /// degradation watermark.
    pub fn new() -> Self {
        FaultPlan {
            events: Vec::new(),
            replacement_delay_epochs: 2,
            degrade_watermark: None,
        }
    }

    /// The scripted events, sorted by epoch.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The events due by `epoch` that the walk at `cursor` has not yet
    /// taken, in plan order; advances `cursor` past them. A coordinator
    /// keeps one cursor per run and calls this once per epoch.
    pub(crate) fn take_due(&self, cursor: &mut usize, epoch: u64) -> Vec<FaultEvent> {
        let start = *cursor;
        *cursor += self.events[start..]
            .iter()
            .take_while(|event| event.epoch() <= epoch)
            .count();
        self.events[start..*cursor].to_vec()
    }

    fn push(&mut self, event: FaultEvent) {
        self.events.push(event);
        self.events.sort_by_key(FaultEvent::epoch);
    }

    /// Adds a node crash on the unsharded fleet (shard 0).
    pub fn with_crash(self, epoch: u64, node: usize) -> Self {
        self.with_crash_in(epoch, 0, node)
    }

    /// Adds a node crash on an explicit shard.
    pub fn with_crash_in(mut self, epoch: u64, shard: usize, node: usize) -> Self {
        self.push(FaultEvent::NodeCrash { epoch, shard, node });
        self
    }

    /// Adds a thermal throttle on the unsharded fleet (shard 0).
    pub fn with_throttle(
        self,
        epoch: u64,
        node: usize,
        freq_cap_ghz: f64,
        duration_epochs: u64,
    ) -> Self {
        self.with_throttle_in(epoch, 0, node, freq_cap_ghz, duration_epochs)
    }

    /// Adds a thermal throttle on an explicit shard.
    pub fn with_throttle_in(
        mut self,
        epoch: u64,
        shard: usize,
        node: usize,
        freq_cap_ghz: f64,
        duration_epochs: u64,
    ) -> Self {
        self.push(FaultEvent::ThermalThrottle {
            epoch,
            shard,
            node,
            freq_cap_ghz,
            duration_epochs,
        });
        self
    }

    /// Adds a knowledge-sync loss (sharded runs only).
    pub fn with_sync_loss(mut self, epoch: u64, rounds: u64) -> Self {
        self.push(FaultEvent::SyncLoss { epoch, rounds });
        self
    }

    /// Adds a shard partition (sharded runs only).
    pub fn with_partition(mut self, epoch: u64, shard: usize, duration_epochs: u64) -> Self {
        self.push(FaultEvent::ShardPartition {
            epoch,
            shard,
            duration_epochs,
        });
        self
    }

    /// Overrides the crash-to-replacement delay (clamped to at least 1).
    pub fn with_replacement_delay(mut self, epochs: u64) -> Self {
        self.replacement_delay_epochs = epochs.max(1);
        self
    }

    /// Sets the graceful-degradation watermark (fraction of peak pool).
    pub fn with_degrade_watermark(mut self, watermark: f64) -> Self {
        self.degrade_watermark = Some(watermark);
        self
    }

    /// Generates a seeded random chaos schedule for an unsharded fleet:
    /// `crashes` node crashes and as many thermal throttles, spread over
    /// `(0, epochs)` against a pool of `nodes` nodes. Same seed, same
    /// plan — a chaos run is as replayable as a scripted one.
    pub fn chaos(seed: u64, epochs: u64, nodes: usize, crashes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::new();
        let span = epochs.max(2);
        let pool = nodes.max(1);
        for _ in 0..crashes {
            let epoch = rng.gen_range(1..span);
            let node = rng.gen_range(0..pool);
            plan = plan.with_crash(epoch, node);
        }
        for _ in 0..crashes {
            let epoch = rng.gen_range(1..span);
            let node = rng.gen_range(0..pool);
            let cap = rng.gen_range(1.2..2.4);
            let duration = rng.gen_range(1..=4);
            plan = plan.with_throttle(epoch, node, cap, duration);
        }
        plan
    }
}

/// Cadence of coordinator checkpoints: every `interval_epochs` the
/// fleet captures a [`CheckpointBundle`] of all live sessions. Capture
/// is an observer — a checkpointed run's summary is byte-identical to
/// an uncheckpointed one unless a crash actually consumes the bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Epochs between captures (0 disables checkpointing).
    pub interval_epochs: u64,
}

impl CheckpointPolicy {
    /// A policy capturing every `interval_epochs` epochs.
    pub fn every(interval_epochs: u64) -> Self {
        CheckpointPolicy { interval_epochs }
    }
}

/// One live session inside a [`CheckpointBundle`]: the request that
/// created it (enough to rebuild config and controller through the
/// node's factory), its frame count at capture (the re-done-work
/// baseline), and the session checkpoint bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionCheckpoint {
    /// The arrival that created this session.
    pub request: SessionRequest,
    /// Frames the session had completed at capture time.
    pub frames_completed: u64,
    /// Serialized session state (`TranscodeSession` checkpoint codec).
    pub bytes: Vec<u8>,
}

/// One node's live sessions inside a [`CheckpointBundle`].
#[derive(Debug, Clone, PartialEq)]
pub struct NodeCheckpoint {
    /// Node id within the fleet.
    pub node: usize,
    /// Live (unfinished) sessions resident at capture, in id order.
    pub sessions: Vec<SessionCheckpoint>,
}

/// A fleet-wide recovery image: every node's live sessions plus the
/// knowledge store, captured at one epoch boundary and serialized under
/// the `MAMUTCK` magic. The fleet keeps only the latest bundle; a crash
/// decodes it to restore the victim's sessions onto survivors.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointBundle {
    /// Epoch at whose start the capture ran.
    pub epoch: u64,
    /// Per-node live-session captures, in node-id order.
    pub nodes: Vec<NodeCheckpoint>,
    /// Knowledge-store snapshot at capture, if a store was attached.
    pub knowledge: Option<Vec<u8>>,
}

impl CheckpointBundle {
    /// Serializes the bundle under [`CHECKPOINT_FORMAT`].
    pub fn encode(&self) -> Vec<u8> {
        let mut w = CHECKPOINT_FORMAT.writer();
        w.put_u64(self.epoch);
        w.put_u32(self.nodes.len() as u32);
        for node in &self.nodes {
            w.put_u64(node.node as u64);
            w.put_u32(node.sessions.len() as u32);
            for s in &node.sessions {
                w.put_u64(s.request.id);
                w.put_f64(s.request.arrival_s);
                w.put_bool(s.request.hr);
                w.put_bool(s.request.live);
                w.put_u64(s.request.frames);
                w.put_u64(s.request.seed);
                w.put_u64(s.frames_completed);
                w.put_bytes(&s.bytes);
            }
        }
        match &self.knowledge {
            None => w.put_bool(false),
            Some(bytes) => {
                w.put_bool(true);
                w.put_bytes(bytes);
            }
        }
        w.into_bytes()
    }

    /// Decodes a bundle produced by [`CheckpointBundle::encode`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] on a framing error (see [`Format::read`]) or a
    /// truncated/corrupt body.
    pub fn decode(bytes: &[u8]) -> Result<CheckpointBundle, SnapshotError> {
        CHECKPOINT_FORMAT.read(bytes, |r| {
            let epoch = r.get_u64()?;
            // Node id and session count.
            let n_nodes = r.get_count(8 + 4)?;
            let mut nodes = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                let node = r.get_u64()? as usize;
                // Request (id, arrival, hr, live, frames, seed), frames
                // completed and an empty byte string.
                let n_sessions = r.get_count(34 + 8 + 4)?;
                let mut sessions = Vec::with_capacity(n_sessions);
                for _ in 0..n_sessions {
                    let request = SessionRequest {
                        id: r.get_u64()?,
                        arrival_s: r.get_f64()?,
                        hr: r.get_bool()?,
                        live: r.get_bool()?,
                        frames: r.get_u64()?,
                        seed: r.get_u64()?,
                    };
                    let frames_completed = r.get_u64()?;
                    let bytes = r.get_bytes()?;
                    sessions.push(SessionCheckpoint {
                        request,
                        frames_completed,
                        bytes,
                    });
                }
                nodes.push(NodeCheckpoint { node, sessions });
            }
            let knowledge = if r.get_bool()? {
                Some(r.get_bytes()?)
            } else {
                None
            };
            Ok(CheckpointBundle {
                epoch,
                nodes,
                knowledge,
            })
        })
    }

    /// The checkpointed sessions of `node`, keyed by request id.
    pub fn sessions_of(&self, node: usize) -> BTreeMap<u64, &SessionCheckpoint> {
        self.nodes
            .iter()
            .filter(|n| n.node == node)
            .flat_map(|n| n.sessions.iter())
            .map(|s| (s.request.id, s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: u64) -> SessionRequest {
        SessionRequest {
            id,
            arrival_s: 0.5 * id as f64,
            hr: id.is_multiple_of(2),
            live: false,
            frames: 100 + id,
            seed: id,
        }
    }

    fn bundle() -> CheckpointBundle {
        CheckpointBundle {
            epoch: 12,
            nodes: vec![
                NodeCheckpoint {
                    node: 0,
                    sessions: vec![SessionCheckpoint {
                        request: request(1),
                        frames_completed: 40,
                        bytes: vec![1, 2, 3, 4],
                    }],
                },
                NodeCheckpoint {
                    node: 2,
                    sessions: vec![
                        SessionCheckpoint {
                            request: request(2),
                            frames_completed: 7,
                            bytes: vec![9, 9],
                        },
                        SessionCheckpoint {
                            request: request(3),
                            frames_completed: 0,
                            bytes: Vec::new(),
                        },
                    ],
                },
            ],
            knowledge: Some(vec![5, 6, 7]),
        }
    }

    #[test]
    fn bundle_round_trips() {
        let original = bundle();
        let bytes = original.encode();
        assert_eq!(&bytes[..8], CHECKPOINT_FORMAT.magic);
        let decoded = CheckpointBundle::decode(&bytes).unwrap();
        assert_eq!(decoded, original);
        let by_id = decoded.sessions_of(2);
        assert_eq!(by_id.len(), 2);
        assert_eq!(by_id[&2].frames_completed, 7);
        assert!(decoded.sessions_of(1).is_empty());
    }

    #[test]
    fn crafted_counts_are_truncation_not_allocations() {
        // Magic, version, epoch and a node count of u32::MAX in 22 bytes:
        // the count cannot fit the input, so it must not size a buffer.
        let mut w = CHECKPOINT_FORMAT.writer();
        w.put_u64(3);
        w.put_u32(u32::MAX);
        assert_eq!(
            CheckpointBundle::decode(&w.into_bytes()),
            Err(SnapshotError::Truncated)
        );
        // The same for a node's session count.
        let mut w = CHECKPOINT_FORMAT.writer();
        w.put_u64(3);
        w.put_u32(1);
        w.put_u64(0);
        w.put_u32(u32::MAX);
        assert_eq!(
            CheckpointBundle::decode(&w.into_bytes()),
            Err(SnapshotError::Truncated)
        );
    }

    #[test]
    fn newer_versions_are_rejected() {
        let mut bytes = bundle().encode();
        // The version u16 sits right after the 8-byte magic.
        bytes[8] = 0xFF;
        bytes[9] = 0xFF;
        assert!(matches!(
            CheckpointBundle::decode(&bytes),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn plan_builders_keep_events_sorted() {
        let plan = FaultPlan::new()
            .with_throttle(9, 1, 1.8, 3)
            .with_crash(4, 0)
            .with_sync_loss(2, 1)
            .with_partition(6, 1, 2)
            .with_crash(4, 2);
        let epochs: Vec<u64> = plan.events().iter().map(FaultEvent::epoch).collect();
        assert_eq!(epochs, vec![2, 4, 4, 6, 9]);
        // Stable within an epoch: the two crashes keep insertion order.
        assert_eq!(
            plan.events()[1],
            FaultEvent::NodeCrash {
                epoch: 4,
                shard: 0,
                node: 0
            }
        );
        assert_eq!(
            plan.events()[2],
            FaultEvent::NodeCrash {
                epoch: 4,
                shard: 0,
                node: 2
            }
        );
    }

    #[test]
    fn replacement_delay_is_at_least_one_epoch() {
        assert_eq!(
            FaultPlan::new()
                .with_replacement_delay(0)
                .replacement_delay_epochs,
            1
        );
        assert_eq!(
            FaultPlan::new()
                .with_replacement_delay(5)
                .replacement_delay_epochs,
            5
        );
    }

    #[test]
    fn chaos_is_seed_deterministic() {
        let a = FaultPlan::chaos(7, 40, 4, 3);
        let b = FaultPlan::chaos(7, 40, 4, 3);
        assert_eq!(a, b);
        let c = FaultPlan::chaos(8, 40, 4, 3);
        assert_ne!(a, c);
        assert_eq!(a.events().len(), 6, "3 crashes + 3 throttles");
        for e in a.events() {
            assert!(e.epoch() >= 1 && e.epoch() < 40);
        }
    }
}
