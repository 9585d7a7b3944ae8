//! Every `MAMUT??` codec against hostile input, from one table.
//!
//! Each entry holds one non-trivial sample of a format plus a
//! decode-then-re-encode function. The checks are the same for all:
//! canonical re-encode, a pinned FNV-1a digest of the sample bytes
//! (wire identity), rejection of every prefix, of a foreign magic, of a
//! newer version and of a trailing byte, no panic on any single-bit flip,
//! and no allocation far larger than the input when any aligned 4-byte
//! window claims `u32::MAX` items.
//!
//! A counting global allocator records the largest single allocation, so
//! the file holds exactly one `#[test]`: no concurrent test can allocate
//! while a decode is being measured.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mamut::control::snapshot::{Format, POLICY_FORMAT};
use mamut::control::{AgentKind, AgentSnapshot, KnobSettings, PolicySnapshot, TransitionRecord};
use mamut::fleet::{
    CheckpointBundle, FleetTrace, Forecaster, HoltWinters, KnowledgeStore, MergePolicy,
    NodeCheckpoint, PolicySource, SeasonalNaive, SessionCheckpoint, SessionClass, SessionRequest,
    TelemetryEvent, TracedEvent, CHECKPOINT_FORMAT, FORECAST_FORMAT, STORE_FORMAT, TRACE_FORMAT,
};
use mamut::fleetrl::{FleetPolicy, FLEET_POLICY_FORMAT};
use mamut::prelude::SnapshotError;
use mamut::scenario::{RealizedScenario, SCENARIO_FORMAT};

/// Records the largest single allocation while `TRACKING` is set.
struct PeakAllocator;

static TRACKING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if TRACKING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: PeakAllocator = PeakAllocator;

/// Decodes bytes of one format and re-encodes the decoded value.
type RoundTrip = fn(&[u8]) -> Result<Vec<u8>, SnapshotError>;

struct Codec {
    name: &'static str,
    format: Format,
    sample: Vec<u8>,
    /// FNV-1a of `sample`, pinned so any change to a wire format shows.
    digest: u64,
    round_trip: RoundTrip,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn policy_sample() -> PolicySnapshot {
    let agent = |kind, n_states: u32, n_actions: u32| AgentSnapshot {
        kind,
        n_states,
        n_actions,
        q: (0..n_states * n_actions)
            .map(|i| f64::from(i) * 0.5 - 1.0)
            .collect(),
        action_counts: (0..n_actions).map(|a| 3 + a).collect(),
        transitions: vec![
            TransitionRecord {
                state: 0,
                action: 1,
                next_state: n_states - 1,
                count: 4,
            },
            TransitionRecord {
                state: n_states - 1,
                action: 0,
                next_state: 0,
                count: 2,
            },
        ],
    };
    PolicySnapshot {
        controller: "mamut".into(),
        knobs: KnobSettings::new(32, 8, 2.6),
        exploration_decisions: 120,
        exploitation_decisions: 480,
        agents: vec![agent(AgentKind::Qp, 3, 2), agent(AgentKind::Dvfs, 2, 3)],
        extra: vec![1, 2, 3, 4, 5],
    }
}

fn store_sample() -> Vec<u8> {
    let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
    let first = policy_sample();
    let mut second = policy_sample();
    second.agents[0].q[0] = 7.25;
    second.agents[0].transitions[0].count = 9;
    store.publish(SessionClass::Hr, &first);
    store.publish(SessionClass::Hr, &second);
    store.publish(SessionClass::Lr, &first);
    store.encode()
}

fn seasonal_sample() -> Vec<u8> {
    let mut f = SeasonalNaive::new(4);
    for c in [3, 1, 4, 1, 5, 9] {
        f.observe(c, 2.0);
    }
    f.snapshot_state()
}

fn holt_winters_sample() -> Vec<u8> {
    let mut f = HoltWinters::new(3);
    for c in [2, 6, 4, 3, 7, 5, 4] {
        f.observe(c, 1.0);
    }
    f.snapshot_state()
}

fn request(id: u64, arrival_s: f64) -> SessionRequest {
    SessionRequest {
        id,
        arrival_s,
        hr: id.is_multiple_of(2),
        live: id.is_multiple_of(3),
        frames: 40 + id,
        seed: 1000 + id,
    }
}

fn scenario_sample() -> Vec<u8> {
    RealizedScenario {
        name: "hostile".into(),
        seed: 42,
        horizon_s: 60.0,
        arrivals: vec![request(0, 0.5), request(1, 2.0), request(2, 2.0)],
        marks: vec![(0.0, "calm".into()), (30.0, "rush".into())],
    }
    .encode()
}

fn fleet_policy_sample() -> Vec<u8> {
    let mut p = FleetPolicy::new(3, 5);
    for s in 0..12usize {
        let (a, _) = p.select(s % 3);
        p.update(s % 3, a, (s % 4) as f64 - 1.5, (s + 1) % 3);
    }
    p.snapshot_state()
}

fn checkpoint_sample() -> Vec<u8> {
    let session = |id: u64, frames_completed, bytes: Vec<u8>| SessionCheckpoint {
        request: request(id, id as f64),
        frames_completed,
        bytes,
    };
    CheckpointBundle {
        epoch: 12,
        nodes: vec![
            NodeCheckpoint {
                node: 0,
                sessions: vec![session(1, 40, vec![1, 2, 3, 4])],
            },
            NodeCheckpoint {
                node: 2,
                sessions: vec![session(2, 7, vec![9, 9]), session(3, 0, Vec::new())],
            },
        ],
        knowledge: Some(store_sample()),
    }
    .encode()
}

fn trace_sample() -> Vec<u8> {
    use TelemetryEvent::*;
    let events = vec![
        EpochBegin { active_nodes: 3 },
        DispatchAssign {
            session: 1,
            node: 0,
        },
        DispatchQueue { session: 2 },
        DispatchReject { session: 3 },
        DispatchShed { session: 4 },
        Autoscale {
            delta: -1,
            source: PolicySource::Exploratory,
            detail: "forecast 3.5 Hz".into(),
        },
        NodeCommission { node: 3 },
        NodeRetire { node: 1 },
        NodeCrash {
            node: 2,
            sessions_lost: 4,
        },
        ThrottleStart {
            node: 0,
            freq_cap_ghz: 1.8,
            until_epoch: 9,
        },
        ThrottleEnd { node: 0 },
        SessionRecovered {
            session: 5,
            node: 3,
            frames_redone: 11,
            from_checkpoint: true,
        },
        CheckpointCaptured {
            sessions: 6,
            bytes: 4096,
        },
        SessionDetach {
            session: 6,
            node: 0,
        },
        SessionAttach {
            session: 6,
            node: 3,
        },
        SessionEnd {
            session: 1,
            node: 0,
            frames: 48,
        },
        KnowledgeSync { stores: 2 },
        SyncRoundLost,
        OverflowMigration {
            session: 7,
            from_shard: 1,
            to_shard: 0,
        },
        Mark {
            label: "peak".into(),
        },
        EpochEnd,
    ];
    FleetTrace {
        epoch_s: 2.0,
        dropped_epochs: 1,
        events: events
            .into_iter()
            .enumerate()
            .map(|(i, event)| TracedEvent {
                epoch: 4 + i as u64 / 8,
                at_us: 8_000_000 + 1_000 * i as u64,
                shard: (i % 3) as u32,
                event,
            })
            .collect(),
    }
    .encode()
}

fn codecs() -> Vec<Codec> {
    vec![
        Codec {
            name: "PS",
            format: POLICY_FORMAT,
            sample: policy_sample().encode(),
            digest: 0xcaa7_4c2f_c138_e33f,
            round_trip: |b| PolicySnapshot::decode(b).map(|s| s.encode()),
        },
        Codec {
            name: "KS",
            format: STORE_FORMAT,
            sample: store_sample(),
            digest: 0x6ac9_d448_2d9c_33da,
            round_trip: |b| KnowledgeStore::decode(b).map(|s| s.encode()),
        },
        Codec {
            name: "FC seasonal-naive",
            format: FORECAST_FORMAT,
            sample: seasonal_sample(),
            digest: 0xd7f0_260e_ee25_d16c,
            round_trip: |b| {
                let mut f = SeasonalNaive::new(4);
                f.restore_state(b).map(|()| f.snapshot_state())
            },
        },
        Codec {
            name: "FC holt-winters",
            format: FORECAST_FORMAT,
            sample: holt_winters_sample(),
            digest: 0x939d_272e_9aa5_da16,
            round_trip: |b| {
                let mut f = HoltWinters::new(3);
                f.restore_state(b).map(|()| f.snapshot_state())
            },
        },
        Codec {
            name: "SC",
            format: SCENARIO_FORMAT,
            sample: scenario_sample(),
            digest: 0x1e89_ba54_7906_c20f,
            round_trip: |b| RealizedScenario::decode(b).map(|s| s.encode()),
        },
        Codec {
            name: "FP",
            format: FLEET_POLICY_FORMAT,
            sample: fleet_policy_sample(),
            digest: 0x591c_a1c5_ee31_1963,
            round_trip: |b| {
                let mut p = FleetPolicy::new(3, 0);
                p.restore_state(b).map(|()| p.snapshot_state())
            },
        },
        Codec {
            name: "CK",
            format: CHECKPOINT_FORMAT,
            sample: checkpoint_sample(),
            digest: 0x80ed_cbb4_6ee6_a0e7,
            round_trip: |b| CheckpointBundle::decode(b).map(|c| c.encode()),
        },
        Codec {
            name: "TL",
            format: TRACE_FORMAT,
            sample: trace_sample(),
            digest: 0x6692_4a21_91a8_1b54,
            round_trip: |b| FleetTrace::decode(b).map(|t| t.encode()),
        },
    ]
}

/// Runs `round_trip` on `bytes` and returns the largest single
/// allocation it made.
fn largest_allocation(round_trip: RoundTrip, bytes: &[u8]) -> usize {
    LARGEST.store(0, Ordering::SeqCst);
    TRACKING.store(true, Ordering::SeqCst);
    let _ = round_trip(bytes);
    TRACKING.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

#[test]
fn every_codec_survives_hostile_input() {
    for Codec {
        name,
        format,
        sample,
        digest,
        round_trip,
    } in codecs()
    {
        assert_eq!(&sample[..8], format.magic, "{name}: framing");
        assert_eq!(round_trip(&sample), Ok(sample.clone()), "{name}: re-encode");
        assert_eq!(fnv1a(&sample), digest, "{name}: wire bytes changed");

        for cut in 0..sample.len() {
            let result = round_trip(&sample[..cut]);
            if cut < 8 {
                assert_eq!(result, Err(SnapshotError::BadMagic), "{name}: cut at {cut}");
            } else {
                assert!(result.is_err(), "{name}: cut at {cut} slipped through");
            }
        }

        let mut foreign = sample.clone();
        foreign[..8].copy_from_slice(b"MAMUTXX\0");
        assert_eq!(round_trip(&foreign), Err(SnapshotError::BadMagic), "{name}");

        let newer = format.version + 1;
        let mut future = sample.clone();
        future[8..10].copy_from_slice(&newer.to_le_bytes());
        assert_eq!(
            round_trip(&future),
            Err(SnapshotError::UnsupportedVersion(newer)),
            "{name}: newer version"
        );

        let mut trailing = sample.clone();
        trailing.push(0);
        assert!(round_trip(&trailing).is_err(), "{name}: trailing byte");

        for bit in 0..sample.len() * 8 {
            let mut flipped = sample.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let _ = round_trip(&flipped);
        }

        // A decoded value may legitimately be a few times larger in
        // memory than on the wire; a count claiming `u32::MAX` items must
        // not turn into an allocation beyond that.
        let limit = 8 * sample.len() + 1024;
        for at in (0..sample.len().saturating_sub(3)).step_by(4) {
            let mut huge = sample.clone();
            huge[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            let largest = largest_allocation(round_trip, &huge);
            assert!(
                largest <= limit,
                "{name}: u32::MAX at byte {at} allocated {largest} bytes for a {}-byte input",
                sample.len()
            );
        }
    }
}
