//! Fleet determinism: the same workload seed and dispatch policy must
//! yield a byte-identical `FleetSummary` across runs AND across worker
//! thread counts — the parallel epoch loop is an execution detail, not a
//! source of nondeterminism.
//!
//! The worker counts exercised against the 1-worker reference come from
//! `MAMUT_FLEET_WORKERS` when set (a comma-separated list, e.g.
//! `MAMUT_FLEET_WORKERS=8`); CI runs this file as a matrix over 1, 2 and
//! 8 workers so cross-worker byte-identity is pinned on real runners,
//! not just locally. Unset, the defaults below cover the same ground.

use std::sync::Arc;

use mamut::fleet::{
    warm_start_factory, KnowledgeStore, MergePolicy, PowerQosBalance, SessionRequest,
    ThresholdScaler, UtilizationBalance,
};
use mamut::prelude::*;

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

/// FNV-1a 64 of `bytes`: a short fingerprint of a knowledge store's
/// encoding or of a whole reference text. Publishes are snapshots
/// captured on worker threads, and merged Q-values are order-sensitive
/// floats, so the store's bytes are compared across worker counts along
/// with the summary.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn factory() -> mamut::fleet::ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn mamut_factory() -> mamut::fleet::ControllerFactory {
    Box::new(|req| {
        let cfg = if req.hr {
            MamutConfig::paper_hr()
        } else {
            MamutConfig::paper_lr()
        };
        Box::new(MamutController::new(cfg.with_seed(req.seed)).expect("paper config is valid"))
    })
}

fn workload(seed: u64) -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed,
        sessions: 20,
        mean_interarrival_s: 0.5,
        hr_ratio: 0.5,
        live_ratio: 0.4,
        vod_frames: (30, 90),
        live_frames: (90, 240),
    })
    .expect("valid workload config")
}

fn dispatcher(name: &str) -> Box<dyn Dispatcher> {
    match name {
        "round-robin" => Box::new(RoundRobin::new()),
        "least-loaded" => Box::new(LeastLoaded::new()),
        "power-aware" => Box::new(PowerAware::new()),
        "admission-gated" => Box::new(AdmissionGated::new(
            Box::new(LeastLoaded::new()),
            Platform::xeon_e5_2667_v4(),
            24.0,
            GateMode::Queue,
        )),
        other => panic!("unknown policy {other}"),
    }
}

/// Runs a 4-node fleet and returns the rendered `FleetSummary` — the
/// byte representation the tests compare.
fn summary_text(policy: &str, workers: usize, seed: u64) -> String {
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        dispatcher(policy),
        workload(seed),
    );
    for _ in 0..4 {
        fleet.add_node(factory());
    }
    fleet.run().expect("fleet run completes").to_string()
}

const POLICIES: [&str; 4] = [
    "round-robin",
    "least-loaded",
    "power-aware",
    "admission-gated",
];

#[test]
fn repeated_runs_are_byte_identical() {
    for policy in POLICIES {
        let a = summary_text(policy, 4, 7);
        let b = summary_text(policy, 4, 7);
        assert_eq!(a, b, "policy {policy} not reproducible");
    }
}

#[test]
fn worker_thread_count_never_changes_the_summary() {
    for policy in POLICIES {
        let sequential = summary_text(policy, 1, 7);
        for workers in worker_counts(&[2, 3, 8, 16]) {
            assert_eq!(
                sequential,
                summary_text(policy, workers, 7),
                "policy {policy} diverged at {workers} workers"
            );
        }
    }
}

#[test]
fn different_seeds_actually_differ() {
    // Sanity check that the byte-comparison above is not vacuous.
    assert_ne!(
        summary_text("least-loaded", 4, 7),
        summary_text("least-loaded", 4, 8)
    );
}

/// A learning fleet with migration *and* knowledge sharing enabled: the
/// full tentpole stack must stay byte-identical across worker counts.
fn learning_summary_text(workers: usize, seed: u64) -> String {
    let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        dispatcher("least-loaded"),
        workload(seed),
    );
    for _ in 0..4 {
        fleet.add_node(warm_start_factory(Arc::clone(&store), mamut_factory()));
    }
    fleet.set_knowledge_store(Arc::clone(&store));
    fleet.set_rebalancer(Box::new(UtilizationBalance::new().with_min_gap(0.1)));
    let summary = fleet.run().expect("fleet run completes");
    let store = store.lock().unwrap();
    format!(
        "{summary}migrations={} warm_starts={} store_publishes={} store_digest={:016x}",
        summary.migrations,
        summary.warm_starts,
        store.publishes(),
        fnv1a(&store.encode())
    )
}

#[test]
fn migration_and_warm_start_preserve_worker_count_determinism() {
    let sequential = learning_summary_text(1, 7);
    for workers in worker_counts(&[2, 4, 16]) {
        assert_eq!(
            sequential,
            learning_summary_text(workers, 7),
            "learning fleet diverged at {workers} workers"
        );
    }
    // Knowledge actually flowed: later sessions were seeded.
    assert!(
        sequential.contains("warm_starts=") && !sequential.contains("warm_starts=0 "),
        "no warm starts in {sequential}"
    );
}

/// The full PR 3 stack — elastic autoscaling (grow *and* drain/retire),
/// power/QoS-aware rebalancing, knowledge sharing and warm starts, all
/// at once — must stay byte-identical across worker counts: every
/// scaling and migration decision runs on the coordinator between
/// epochs.
fn elastic_summary_text(workers: usize) -> String {
    // Quiet start, hard burst, quiet tail: forces both directions of
    // scaling within one run.
    let burst: Vec<SessionRequest> = {
        let quiet = Workload::try_generate(&WorkloadConfig {
            seed: 7,
            sessions: 6,
            mean_interarrival_s: 2.5,
            hr_ratio: 0.5,
            live_ratio: 0.3,
            vod_frames: (60, 150),
            live_frames: (300, 600),
        })
        .expect("valid workload config");
        let spike = Workload::try_generate(&WorkloadConfig {
            seed: 8,
            sessions: 10,
            mean_interarrival_s: 0.2,
            hr_ratio: 0.5,
            live_ratio: 0.2,
            vod_frames: (60, 150),
            live_frames: (300, 600),
        })
        .expect("valid workload config");
        quiet
            .arrivals()
            .iter()
            .cloned()
            .chain(spike.arrivals().iter().cloned().map(|mut r| {
                r.arrival_s += 12.0;
                r
            }))
            .collect()
    };
    let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        dispatcher("least-loaded"),
        Workload::replay(burst),
    );
    for _ in 0..2 {
        fleet.add_node(warm_start_factory(Arc::clone(&store), mamut_factory()));
    }
    fleet.set_knowledge_store(Arc::clone(&store));
    fleet.set_rebalancer(Box::new(
        PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
    ));
    fleet.set_autoscaler(
        Box::new(
            ThresholdScaler::new()
                .with_limits(2, 5)
                .with_watermarks(0.35, 0.75)
                .with_cooldown(1),
        ),
        Box::new(|| {
            (
                Platform::xeon_e5_2667_v4(),
                Box::new(|req: &SessionRequest| {
                    let cfg = if req.hr {
                        MamutConfig::paper_hr()
                    } else {
                        MamutConfig::paper_lr()
                    };
                    Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
                        as Box<dyn Controller>
                }),
            )
        }),
    );
    let summary = fleet.run().expect("fleet run completes");
    let store = store.lock().unwrap();
    format!(
        "{summary}scale_ups={} scale_downs={} drained={} store_publishes={} store_digest={:016x}",
        summary.scale_ups,
        summary.scale_downs,
        summary.drained_sessions,
        store.publishes(),
        fnv1a(&store.encode())
    )
}

#[test]
fn autoscaling_with_migration_and_knowledge_preserves_determinism() {
    let sequential = elastic_summary_text(1);
    for workers in worker_counts(&[2, 4, 16]) {
        assert_eq!(
            sequential,
            elastic_summary_text(workers),
            "elastic fleet diverged at {workers} workers"
        );
    }
    // The run exercised what it claims to: the pool breathed.
    assert!(
        !sequential.contains("scale_ups=0"),
        "pool never grew: {sequential}"
    );
    assert!(
        !sequential.contains("scale_downs=0"),
        "pool never shrank: {sequential}"
    );
    // Pinned bytes: scale events, drains and warm starts are counters no
    // benchmark digest covers. A deliberate physics change re-pins this
    // along with `fleetbench/pinned.json`.
    assert_eq!(
        fnv1a(sequential.as_bytes()),
        0x1b13_361c_2a1b_66c8,
        "elastic summary drifted:\n{sequential}"
    );
}

/// The sharded coordinator over a full catalog scenario — regional
/// workload split, per-shard elastic autoscaling, rebalancing, knowledge
/// shards with periodic inter-shard sync, cross-shard overflow and idle
/// nodes ticking on the coordinator — must stay byte-identical across
/// worker counts: every cross-shard decision runs on the coordinator
/// between epochs, and per-shard workers only advance independent nodes.
fn sharded_summary_text(workers: usize) -> String {
    let realized = mamut::scenario::catalog::regional_follow_the_sun()
        .realize()
        .expect("catalog preset realizes");
    let mut sharded = ShardedFleetSim::new(ShardConfig::default().with_sync_interval(2));
    for (region, workload) in realized.regional_workloads(3).into_iter().enumerate() {
        let store = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
        let mut sim = FleetSim::new(
            FleetConfig::default()
                .with_epoch_s(8.0)
                .with_worker_threads(workers),
            dispatcher("least-loaded"),
            workload,
        );
        sim.add_node(warm_start_factory(Arc::clone(&store), mamut_factory()));
        sim.set_knowledge_store(Arc::clone(&store));
        sim.set_rebalancer(Box::new(
            PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
        ));
        sim.set_autoscaler(
            Box::new(
                ThresholdScaler::new()
                    .with_limits(1, 8)
                    .with_watermarks(0.45, 0.8)
                    .with_cooldown(1),
            ),
            Box::new(|| {
                (
                    Platform::xeon_e5_2667_v4(),
                    Box::new(|req: &SessionRequest| {
                        let cfg = if req.hr {
                            MamutConfig::paper_hr()
                        } else {
                            MamutConfig::paper_lr()
                        };
                        Box::new(MamutController::new(cfg.with_seed(req.seed)).unwrap())
                            as Box<dyn Controller>
                    }),
                )
            }),
        );
        sim.set_phase_marks(realized.phase_marks(8.0));
        sharded.add_shard(format!("region{region}"), sim);
    }
    let summary = sharded.run().expect("sharded run completes");
    format!(
        "{summary}overflow={} syncs={}",
        summary.inter_shard_migrations, summary.knowledge_syncs
    )
}

#[test]
fn sharded_full_stack_preserves_worker_count_determinism() {
    let sequential = sharded_summary_text(1);
    for workers in worker_counts(&[2, 8]) {
        assert_eq!(
            sequential,
            sharded_summary_text(workers),
            "sharded fleet diverged at {workers} workers"
        );
    }
    // The run exercised what it claims to: knowledge moved between
    // shards, and the whole regional trace was served.
    assert!(!sequential.contains("syncs=0"), "no syncs in {sequential}");
    assert!(
        sequential.contains("759 sessions"),
        "regional split lost arrivals: {sequential}"
    );
    // Pinned bytes: inter-shard migrations and knowledge syncs of a full
    // stack no benchmark digest covers. A deliberate physics change
    // re-pins this along with `fleetbench/pinned.json`.
    assert_eq!(
        fnv1a(sequential.as_bytes()),
        0x151b_749f_3816_3258,
        "sharded summary drifted:\n{sequential}"
    );
}

#[test]
fn replayed_traces_are_as_deterministic_as_generated_ones() {
    let trace: Vec<_> = workload(7).arrivals().to_vec();
    let run = |workers: usize| {
        let mut fleet = FleetSim::new(
            FleetConfig::default().with_worker_threads(workers),
            dispatcher("least-loaded"),
            Workload::replay(trace.clone()),
        );
        for _ in 0..4 {
            fleet.add_node(factory());
        }
        fleet.run().expect("fleet run completes").to_string()
    };
    assert_eq!(run(1), run(6));
    // Replaying the generated trace reproduces the generated run.
    assert_eq!(run(4), summary_text("least-loaded", 4, 7));
}
