//! Sharded fleet: the `regional_follow_the_sun` catalog preset split
//! across regional shards, each an elastic fleet of its own.
//!
//! The scenario models demand following the sun across regions; the
//! sharded coordinator models the deployment that serves it — one shard
//! per region, each with its own dispatcher, threshold autoscaler,
//! rebalancer and knowledge-store shard, stepping in lockstep epochs
//! with periodic inter-shard knowledge sync and cross-shard session
//! overflow.
//!
//! The run asserts the tentpole claims of the sharding layer:
//!
//! * every realized arrival is served by exactly one shard — the
//!   regional split is a partition and migration never loses work;
//! * a single-shard configuration is byte-for-byte identical to the
//!   plain unsharded `FleetSim` on the same trace;
//! * the whole sharded stack — split, lockstep epochs, overflow,
//!   knowledge sync, idle nodes ticking on the coordinator — renders
//!   byte-identically across fleet worker counts.
//!
//! Run with: `cargo run --release --example sharded_fleet`

use mamut::fleet::ControllerFactory;
use mamut::prelude::*;
use mamut::scenario::catalog;
use mamut::scenario::sizing::{SWEEP_COOLDOWN_EPOCHS, SWEEP_EPOCH_S, SWEEP_POOL};

const REGIONS: &[&str] = &["apac", "emea", "amer"];

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

/// One regional shard: an elastic fleet over the region's slice of the
/// trace, annotated with the scenario's phase marks so its pool
/// timeline reads against the workload phases.
fn shard(realized: &RealizedScenario, workload: Workload, workers: usize) -> FleetSim {
    let mut sim = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        workload,
    );
    sim.add_node(fixed_factory());
    sim.set_autoscaler(
        Box::new(
            ThresholdScaler::new()
                .with_limits(SWEEP_POOL.0, SWEEP_POOL.1)
                .with_cooldown(SWEEP_COOLDOWN_EPOCHS)
                .with_watermarks(0.45, 0.8),
        ),
        Box::new(|| (Platform::xeon_e5_2667_v4(), fixed_factory())),
    );
    sim.set_rebalancer(Box::new(
        PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
    ));
    sim.set_knowledge_store(KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared());
    sim.set_phase_marks(realized.phase_marks(SWEEP_EPOCH_S));
    sim
}

fn run_sharded(realized: &RealizedScenario, workers: usize) -> ShardedFleetSummary {
    let mut sharded = ShardedFleetSim::new(ShardConfig::default().with_sync_interval(4));
    for (name, workload) in REGIONS
        .iter()
        .zip(realized.regional_workloads(REGIONS.len()))
    {
        sharded.add_shard(*name, shard(realized, workload, workers));
    }
    sharded.run().expect("sharded run")
}

fn main() {
    let realized = catalog::regional_follow_the_sun()
        .realize()
        .expect("catalog preset realizes");
    println!(
        "trace: {} — {} arrivals over {:.0} s virtual\n",
        realized.name,
        realized.len(),
        realized.horizon_s
    );

    let summary = run_sharded(&realized, 2);
    println!("{summary}");

    // Partition + conservation: every arrival served somewhere, exactly
    // once, and migration moved sessions without losing frames.
    let expected_frames: u64 = realized.arrivals.iter().map(|r| r.frames).sum();
    assert_eq!(
        summary.total_sessions(),
        realized.len() as u64,
        "every regional arrival must be served"
    );
    assert_eq!(
        summary.total_frames(),
        expected_frames,
        "sharding must not lose frames"
    );

    // Single-shard degenerate case: byte-for-byte the unsharded fleet.
    let mut solo = ShardedFleetSim::new(ShardConfig::default());
    solo.add_shard("solo", shard(&realized, realized.workload(), 2));
    let solo_summary = solo.run().expect("single-shard run");
    let plain = shard(&realized, realized.workload(), 2)
        .run()
        .expect("plain run");
    assert_eq!(
        solo_summary.shards[0].1.to_string(),
        plain.to_string(),
        "single-shard config must reproduce the unsharded output"
    );
    println!("single-shard degenerate case matches the unsharded fleet byte-for-byte");

    // Worker-count independence of the whole sharded stack.
    let one = run_sharded(&realized, 1).to_string();
    let eight = run_sharded(&realized, 8).to_string();
    assert_eq!(one, summary.to_string(), "1 vs 2 workers diverged");
    assert_eq!(one, eight, "1 vs 8 workers diverged");
    println!("byte-identical across 1/2/8 fleet workers");
}
