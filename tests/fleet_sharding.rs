//! Sharded-coordinator edge cases exercised through the public facade:
//! cross-shard session overflow landing in a shard that is itself
//! draining a node and the single-shard degenerate configuration have to
//! compose without changing the physics, at any worker count and with
//! shards that ask for different worker counts; node failures in several
//! shards of one advance report the lowest `(shard, node)`, and a run
//! rejected before it steps leaves no flight dump behind. CI executes
//! this file in the same 1/2/8-worker `MAMUT_FLEET_WORKERS` matrix as
//! `fleet_determinism.rs`.

use mamut::fleet::{Autoscaler, FleetError, ScaleDecision, ScaleSignals, SessionRequest};
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

fn factory() -> mamut::fleet::ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn request(id: u64, arrival_s: f64, hr: bool, frames: u64) -> SessionRequest {
    SessionRequest {
        id,
        arrival_s,
        hr,
        live: false,
        frames,
        seed: id,
    }
}

/// Retires one node at a fixed epoch — the smallest policy that puts a
/// shard mid-drain at a chosen moment.
struct ShrinkOnce {
    at_epoch: u64,
    done: bool,
}

impl Autoscaler for ShrinkOnce {
    fn name(&self) -> &'static str {
        "shrink-once"
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        if !self.done && signals.epoch == self.at_epoch {
            self.done = true;
            ScaleDecision::Shrink(1)
        } else {
            ScaleDecision::Hold
        }
    }
}

/// Hot shard: one node buried under long HR sessions, utilization far
/// above the overflow high watermark for many epochs.
fn hot_shard(workers: usize) -> FleetSim {
    let arrivals = (0..8).map(|i| request(i, 0.0, true, 600)).collect();
    let mut sim = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        Workload::replay(arrivals),
    );
    sim.add_node(factory());
    sim
}

/// Cold shard: three lightly loaded nodes, with one retired mid-run
/// while it still holds a live session — overflow from the hot shard
/// keeps arriving during and after the drain.
fn cold_shard(workers: usize) -> FleetSim {
    let arrivals = (100..103).map(|i| request(i, 0.0, false, 400)).collect();
    let mut sim = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        Workload::replay(arrivals),
    );
    for _ in 0..3 {
        sim.add_node(factory());
    }
    sim.set_autoscaler(
        Box::new(ShrinkOnce {
            at_epoch: 2,
            done: false,
        }),
        Box::new(|| (Platform::xeon_e5_2667_v4(), factory())),
    );
    sim
}

/// The hot/cold deployment with each shard's own worker count: one
/// advance serves both shards at the larger of the two.
fn run(hot_workers: usize, cold_workers: usize) -> ShardedFleetSummary {
    let mut sharded =
        ShardedFleetSim::new(ShardConfig::default().with_overflow_watermarks(0.5, 0.9));
    sharded.add_shard("hot", hot_shard(hot_workers));
    sharded.add_shard("cold", cold_shard(cold_workers));
    sharded.run().expect("sharded run completes")
}

#[test]
fn overflow_lands_in_a_draining_shard_without_losing_work() {
    let summary = run(2, 2);
    let (_, hot) = &summary.shards[0];
    let (_, cold) = &summary.shards[1];

    // The hot/cold imbalance overflowed sessions into the cold shard...
    assert!(
        summary.inter_shard_migrations > 0,
        "no overflow happened:\n{summary}"
    );
    let cold_in: u64 = cold.nodes.iter().map(|n| n.migrated_in).sum();
    assert!(
        cold_in >= summary.inter_shard_migrations,
        "cold shard saw {cold_in} inbound migrations, expected at least {}",
        summary.inter_shard_migrations
    );

    // ...while the cold shard was retiring a node that held a session.
    assert_eq!(cold.scale_downs, 1, "the shrink never happened:\n{cold}");
    assert!(
        cold.drained_sessions >= 1,
        "the retired node was empty — the drain path went unexercised:\n{cold}"
    );
    assert!(cold.nodes.iter().any(|n| n.retired));

    // Conservation: every frame of every arrival ran exactly once.
    let expected_frames = 8 * 600 + 3 * 400;
    assert_eq!(summary.total_frames(), expected_frames);
    assert_eq!(summary.total_sessions(), 11);
    assert_eq!(hot.total_sessions + cold.total_sessions, 11);
}

#[test]
fn overflow_into_draining_shard_is_deterministic() {
    let reference = run(1, 1).to_string();
    let uniform = worker_counts(&[2, 8]).into_iter().map(|w| (w, w));
    for (hot, cold) in uniform.chain([(1, 8), (8, 1)]) {
        assert_eq!(
            reference,
            run(hot, cold).to_string(),
            "diverged at {hot}/{cold} workers"
        );
    }
}

/// A shard of two nodes with a fixed-knob factory on every node but
/// `panicking`, whose factory panics on its first session: four
/// sessions at t = 0 go round-robin, two to each node, so the panic
/// fires in the advance of epoch 0.
fn shard_with_panicking_node(workers: usize, panicking: usize, first_id: u64) -> FleetSim {
    let arrivals = (first_id..first_id + 4)
        .map(|i| request(i, 0.0, false, 60))
        .collect();
    let mut sim = FleetSim::new(
        FleetConfig::default().with_worker_threads(workers),
        Box::new(RoundRobin::new()),
        Workload::replay(arrivals),
    );
    for node in 0..2 {
        if node == panicking {
            sim.add_node(Box::new(|_| panic!("factory blew up")));
        } else {
            sim.add_node(factory());
        }
    }
    sim
}

#[test]
fn the_lowest_shard_then_node_failure_wins_the_advance() {
    // Shard 0's node 1 and shard 1's node 0 fail in the same advance. A
    // node-id-only rule would report node 0. Every shard's flight
    // recorder survives the failure.
    for workers in worker_counts(&[1, 2, 8]) {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        sharded.add_shard("east", shard_with_panicking_node(workers, 1, 0));
        sharded.add_shard("west", shard_with_panicking_node(workers, 0, 100));
        sharded.set_telemetry(TelemetryMode::FlightRecorder { epochs: 4 });
        assert_eq!(
            sharded.run().unwrap_err(),
            FleetError::WorkerPanicked { node: 1 },
            "{workers} workers"
        );
        for (name, sim) in sharded.shards() {
            let dump = sim.flight_dump().expect("a traced shard keeps its dump");
            let trace = FleetTrace::decode(dump).expect("the dump decodes");
            assert!(!trace.is_empty(), "{name}, {workers} workers");
        }
    }
}

#[test]
fn a_rerun_rejected_before_stepping_dumps_nothing() {
    // A clean first run leaves its events in shard 0's flight recorder,
    // a failed one leaves a dump as well. The rerun fails its
    // epoch-length check before any shard resets, so a dump kept or
    // taken then would hold the first run's events.
    for first_run_fails in [false, true] {
        let mut sharded = ShardedFleetSim::new(ShardConfig::default());
        sharded.set_telemetry(TelemetryMode::FlightRecorder { epochs: 4 });
        if first_run_fails {
            sharded.add_shard("east", shard_with_panicking_node(2, 1, 0));
            assert!(sharded.run().is_err());
            assert!(sharded.shards()[0].1.flight_dump().is_some());
        } else {
            sharded.add_shard("east", hot_shard(2));
            sharded.run().expect("the first run completes");
        }
        let mut late = FleetSim::new(
            FleetConfig::default().with_epoch_s(0.5),
            Box::new(LeastLoaded::new()),
            Workload::replay(vec![request(100, 0.0, false, 60)]),
        );
        late.add_node(factory());
        sharded.add_shard("west", late);
        assert!(matches!(sharded.run(), Err(FleetError::InvalidConfig(_))));
        for (name, sim) in sharded.shards() {
            let stale = sim.flight_dump().map(<[u8]>::len);
            assert_eq!(
                stale, None,
                "{name} holds a dump of this many bytes (first run fails: {first_run_fails})"
            );
        }
    }
}

#[test]
fn single_shard_config_matches_the_unsharded_fleet() {
    let mut sharded = ShardedFleetSim::new(ShardConfig::default());
    sharded.add_shard("only", hot_shard(2));
    let sharded_summary = sharded.run().expect("single-shard run completes");
    let plain = hot_shard(2).run().expect("plain run completes");
    assert_eq!(sharded_summary.shards[0].1.to_string(), plain.to_string());
    assert_eq!(sharded_summary.inter_shard_migrations, 0);
    assert_eq!(sharded_summary.knowledge_syncs, 0);
}
