//! Deterministic fleet telemetry: the structured event trace must be
//! byte-identical across worker thread counts (CI runs this file in the
//! same 1/2/8-worker `MAMUT_FLEET_WORKERS` matrix as
//! `fleet_determinism.rs`), recording must never perturb the simulation
//! itself, the `MAMUTTL` codec must round-trip losslessly, and the
//! flight recorder must surface the crash-site tail when a typed error
//! aborts a run.

use mamut::fleet::{
    ControllerFactory, DispatchDecision, Dispatcher, FleetError, NodeView, PolicySource,
    SessionRequest, TRACE_FORMAT,
};
use mamut::prelude::*;
use proptest::prelude::*;

/// Worker counts to compare against the sequential reference: the
/// `MAMUT_FLEET_WORKERS` env list when present, `default` otherwise.
fn worker_counts(default: &[usize]) -> Vec<usize> {
    match std::env::var("MAMUT_FLEET_WORKERS") {
        Ok(list) => list
            .split(',')
            .map(|w| {
                w.trim()
                    .parse()
                    .unwrap_or_else(|_| panic!("bad MAMUT_FLEET_WORKERS entry {w:?}"))
            })
            .collect(),
        Err(_) => default.to_vec(),
    }
}

fn factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn provisioner() -> mamut::fleet::NodeProvisioner {
    Box::new(|| {
        (
            Platform::xeon_e5_2667_v4(),
            Box::new(|req: &SessionRequest| {
                let threads = if req.hr { 10 } else { 4 };
                Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
                    as Box<dyn Controller>
            }) as ControllerFactory,
        )
    })
}

fn workload(seed: u64) -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed,
        sessions: 16,
        mean_interarrival_s: 0.5,
        hr_ratio: 0.5,
        live_ratio: 0.4,
        vod_frames: (120, 300),
        live_frames: (300, 720),
    })
    .expect("valid workload config")
}

/// A chaos fleet — crashes, a throttle, checkpoints and autoscaling —
/// so the trace exercises every event family at once.
fn chaos_fleet(workers: usize, telemetry: Option<TelemetryMode>) -> FleetSim {
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        workload(9),
    );
    for _ in 0..4 {
        fleet.add_node(factory());
    }
    fleet.set_autoscaler(
        Box::new(ThresholdScaler::new().with_limits(2, 8)),
        provisioner(),
    );
    fleet.set_checkpoint_policy(CheckpointPolicy::every(2));
    fleet.set_fault_plan(
        FaultPlan::new()
            .with_crash(3, 0)
            .with_throttle(4, 2, 1.8, 3)
            .with_crash(6, 1)
            .with_replacement_delay(2),
    );
    if let Some(mode) = telemetry {
        fleet.set_telemetry(mode);
    }
    fleet
}

#[test]
fn traces_are_byte_identical_across_worker_counts() {
    let trace_bytes = |workers| {
        let mut fleet = chaos_fleet(workers, Some(TelemetryMode::Full));
        fleet.run().expect("chaos run completes");
        fleet.trace().encode()
    };
    let sequential = trace_bytes(1);
    assert_eq!(&sequential[..8], TRACE_FORMAT.magic);
    for workers in worker_counts(&[2, 8]) {
        assert_eq!(
            sequential,
            trace_bytes(workers),
            "trace diverged at {workers} workers"
        );
    }
}

#[test]
fn tracing_never_perturbs_the_simulation() {
    let plain = chaos_fleet(2, None).run().expect("plain run completes");
    let mut traced = chaos_fleet(2, Some(TelemetryMode::Full))
        .run()
        .expect("traced run completes");
    assert!(traced.trace_events > 0);
    assert!(traced.to_string().contains("telemetry:"), "{traced}");
    // Identical physics: only the event counter may differ.
    traced.trace_events = 0;
    assert_eq!(traced, plain);
    assert_eq!(traced.to_string(), plain.to_string());
}

#[test]
fn tracing_off_matches_a_never_configured_run() {
    let untouched = chaos_fleet(2, None).run().expect("run completes");
    let mut off = chaos_fleet(2, Some(TelemetryMode::Off));
    let summary = off.run().expect("run completes");
    assert_eq!(summary, untouched);
    assert_eq!(summary.to_string(), untouched.to_string());
    assert!(off.trace().is_empty());
    // Fault marks render either way — the collector is their single
    // source of truth in every mode.
    assert!(summary.to_string().contains("[crash:n0@e3]"), "{summary}");
}

#[test]
fn idle_fast_path_does_not_change_the_trace() {
    let trace_with = |fast_path| {
        let mut fleet = FleetSim::new(
            FleetConfig::default()
                .with_worker_threads(2)
                .with_idle_fast_path(fast_path),
            Box::new(LeastLoaded::new()),
            workload(17),
        );
        for _ in 0..3 {
            fleet.add_node(factory());
        }
        fleet.set_telemetry(TelemetryMode::Full);
        fleet.run().expect("run completes");
        fleet.trace().encode()
    };
    assert_eq!(trace_with(true), trace_with(false));
}

#[test]
fn a_chaos_trace_round_trips_and_conserves_events() {
    let mut fleet = chaos_fleet(2, Some(TelemetryMode::Full));
    let summary = fleet.run().expect("chaos run completes");
    let trace = fleet.trace();

    // Event conservation against the summary's own counters.
    assert_eq!(trace.count_kind("node-crash"), summary.crashes);
    assert_eq!(trace.count_kind("checkpoint"), summary.checkpoints);
    assert_eq!(trace.count_kind("dispatch-shed"), summary.shed_sessions);
    assert_eq!(
        trace.count_kind("session-recovered"),
        summary.sessions_recovered
    );
    assert_eq!(trace.count_kind("dispatch-assign"), summary.total_sessions);
    assert_eq!(trace.count_kind("session-end"), summary.total_sessions);
    assert_eq!(trace.count_kind("epoch-begin"), summary.epochs);
    assert_eq!(trace.count_kind("epoch-end"), summary.epochs);
    assert_eq!(trace.len() as u64, summary.trace_events);

    // Lossless codec: decode(encode) == trace, and re-encoding the
    // decoded trace reproduces the exact bytes.
    let bytes = trace.encode();
    let decoded = FleetTrace::decode(&bytes).expect("trace decodes");
    assert_eq!(decoded, trace);
    assert_eq!(decoded.encode(), bytes);

    // Truncation is rejected, not misread.
    assert!(FleetTrace::decode(&bytes[..bytes.len() - 1]).is_err());
    assert!(FleetTrace::decode(&bytes[..8]).is_err());
}

/// Dispatches normally until a late arrival shows up, then returns an
/// out-of-range node id — the smallest way to abort `run()` with a
/// typed error from deep inside the epoch loop.
struct FailingDispatch {
    inner: LeastLoaded,
    fail_after_s: f64,
}

impl Dispatcher for FailingDispatch {
    fn name(&self) -> &'static str {
        "failing-dispatch"
    }

    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        if request.arrival_s >= self.fail_after_s {
            return DispatchDecision::Assign(usize::MAX);
        }
        self.inner.dispatch(request, nodes)
    }
}

#[test]
fn flight_recorder_dumps_the_tail_on_a_typed_error() {
    // One arrival per second; the poisoned dispatch fires on the 9th,
    // well past the 3-epoch recorder window.
    let arrivals = (0..10)
        .map(|i| SessionRequest {
            id: i,
            arrival_s: i as f64,
            hr: false,
            live: false,
            frames: 60,
            seed: i,
        })
        .collect();
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(2),
        Box::new(FailingDispatch {
            inner: LeastLoaded::new(),
            fail_after_s: 8.5,
        }),
        Workload::replay(arrivals),
    );
    for _ in 0..4 {
        fleet.add_node(factory());
    }
    fleet.set_telemetry(TelemetryMode::FlightRecorder { epochs: 3 });
    let err = fleet.run().expect_err("the poisoned dispatch must abort");
    assert!(matches!(err, FleetError::InvalidDispatch { .. }), "{err}");

    let dump = fleet.flight_dump().expect("flight recorder dumped");
    let trace = FleetTrace::decode(dump).expect("dump decodes");
    assert!(!trace.is_empty());
    assert!(
        trace.dropped_epochs > 0,
        "a 6-epoch run kept in a 3-epoch recorder must have dropped blocks"
    );
    // Only the tail survives: every retained event is recent.
    let first_epoch = trace.events.iter().map(|e| e.epoch).min().unwrap();
    assert!(first_epoch >= trace.dropped_epochs);
    // A successful re-run clears the dump.
    let mut healthy = chaos_fleet(2, Some(TelemetryMode::FlightRecorder { epochs: 4 }));
    healthy.run().expect("healthy run completes");
    assert!(healthy.flight_dump().is_none());
    assert!(healthy.trace().dropped_epochs > 0);
}

#[test]
fn sharded_traces_carry_coordinator_lane_events() {
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
    let build = || {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default().with_sync_interval(2));
        for (i, name) in ["east", "west"].iter().enumerate() {
            let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
            let mut sim = FleetSim::new(
                FleetConfig::default().with_worker_threads(2),
                Box::new(LeastLoaded::new()),
                workload(31 + i as u64),
            );
            sim.add_node(learner_factory());
            sim.add_node(learner_factory());
            sim.set_knowledge_store(std::sync::Arc::clone(&store));
            sharded.add_shard(*name, sim);
        }
        sharded.set_telemetry(TelemetryMode::Full);
        sharded
    };
    let mut sharded = build();
    let summary = sharded.run().expect("sharded run completes");
    let trace = sharded.trace();

    assert_eq!(trace.count_kind("knowledge-sync"), summary.knowledge_syncs);
    assert!(summary.knowledge_syncs > 0, "sync cadence never fired");
    // Coordinator events live on their own lane; shard events on 0/1.
    let lanes: std::collections::BTreeSet<u32> = trace.events.iter().map(|e| e.shard).collect();
    assert!(lanes.contains(&0) && lanes.contains(&1));
    assert!(lanes.contains(&mamut::fleet::COORDINATOR_LANE));
    // Shard rows surface the tail ledgers for traced runs.
    let text = summary.to_string();
    assert!(text.contains("shard=east telemetry:"), "{text}");

    // The merged deployment trace round-trips like a flat one.
    let bytes = trace.encode();
    assert_eq!(FleetTrace::decode(&bytes).expect("decodes"), trace);

    // And the whole merged trace is deterministic across repeat runs.
    let mut again = build();
    again.run().expect("sharded run completes");
    assert_eq!(again.trace().encode(), bytes);
}

/// One representative event per sampled shape, covering every field
/// type the codec serializes (unsigned, signed, float, bool, strings
/// with separators and quotes).
fn arbitrary_event(pick: u64, a: u64, b: u64, f: f64) -> TelemetryEvent {
    let labels = ["", "crash:n0", "tail, \"quoted\"", "phase=flash_mob"];
    let label = labels[(b % labels.len() as u64) as usize].to_owned();
    let sources = [
        PolicySource::Heuristic,
        PolicySource::Greedy,
        PolicySource::Exploratory,
    ];
    match pick % 12 {
        0 => TelemetryEvent::EpochBegin {
            active_nodes: a as u32,
        },
        1 => TelemetryEvent::EpochEnd,
        2 => TelemetryEvent::DispatchAssign {
            session: a,
            node: b as u32,
        },
        3 => TelemetryEvent::Autoscale {
            delta: a as i64 - b as i64,
            source: sources[(a % 3) as usize],
            detail: label,
        },
        4 => TelemetryEvent::NodeCrash {
            node: a as u32,
            sessions_lost: b as u32,
        },
        5 => TelemetryEvent::ThrottleStart {
            node: a as u32,
            freq_cap_ghz: f,
            until_epoch: b,
        },
        6 => TelemetryEvent::SessionRecovered {
            session: a,
            node: b as u32,
            frames_redone: b,
            from_checkpoint: a.is_multiple_of(2),
        },
        7 => TelemetryEvent::CheckpointCaptured {
            sessions: a as u32,
            bytes: b,
        },
        8 => TelemetryEvent::SessionEnd {
            session: a,
            node: b as u32,
            frames: a.wrapping_mul(3),
        },
        9 => TelemetryEvent::OverflowMigration {
            session: a,
            from_shard: a as u32,
            to_shard: b as u32,
        },
        10 => TelemetryEvent::KnowledgeSync { stores: a as u32 },
        _ => TelemetryEvent::Mark { label },
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary event sequences survive the `MAMUTTL` codec bit-exactly
    /// — including the float payloads, which round-trip through bits,
    /// not decimal formatting.
    #[test]
    fn mamuttl_codec_round_trips_arbitrary_traces(
        seed in 0u64..1_000_000,
        len in 0usize..64,
        epoch_s in 0.25f64..4.0,
        dropped in 0u64..10,
    ) {
        let mut state = seed;
        let events: Vec<TracedEvent> = (0..len)
            .map(|i| {
                let (pick, a, b) =
                    (splitmix64(&mut state), splitmix64(&mut state), splitmix64(&mut state));
                TracedEvent {
                    epoch: i as u64 / 3,
                    at_us: (i as u64) * 250_000,
                    shard: (a % 3) as u32,
                    event: arbitrary_event(pick, a % 1000, b % 1000, (b % 50) as f64 * 0.1),
                }
            })
            .collect();
        let trace = FleetTrace { epoch_s, dropped_epochs: dropped, events };
        let bytes = trace.encode();
        prop_assert_eq!(&bytes[..8], TRACE_FORMAT.magic);
        let decoded = FleetTrace::decode(&bytes)
            .map_err(|e| format!("decode failed: {e:?}"))?;
        prop_assert_eq!(&decoded, &trace);
        prop_assert_eq!(decoded.encode(), bytes);
        // Truncation anywhere is a typed error, never a bogus trace.
        if !trace.events.is_empty() {
            prop_assert!(FleetTrace::decode(&bytes[..bytes.len() - 1]).is_err());
        }
    }
}
