//! **Fleet scaling** — weak-scaling sweep of the multi-node fleet
//! simulator: 1 → 16 nodes with the per-node arrival load held constant
//! (`SESSIONS_PER_NODE` arrivals per node), dispatched least-loaded,
//! every session driven by a MAMUT controller learning online.
//!
//! Two wall-clock columns compare the sequential epoch loop (1 worker)
//! with one OS worker per node; the virtual-time columns (∆, power) are
//! byte-identical between the two by construction — `cargo test` pins
//! that down, this bench shows what the parallelism buys.
//!
//! The sharded coordinator at cluster scale (1k and 10k nodes) is
//! measured by the `fleetbench/` benchmark's `burst_1k` and `sparse_10k`
//! workloads.
//!
//! Run with: `cargo bench --bench fleet_scaling`

use std::time::Instant;

use mamut_bench::ControllerKind;
use mamut_core::Constraints;
use mamut_fleet::{
    ControllerFactory, FleetConfig, FleetSim, FleetSummary, LeastLoaded, Workload, WorkloadConfig,
};
use mamut_metrics::{Align, Table};

/// Arrivals per node, the same at every fleet size.
const SESSIONS_PER_NODE: usize = 8;

/// MAMUT-managed sessions: the Q-learning updates give each node-epoch
/// enough CPU work that the thread fan-out has something to parallelize
/// (a heuristic-only fleet simulates so fast the spawn cost dominates).
fn mamut_factory() -> ControllerFactory {
    Box::new(|req| ControllerKind::Mamut.build(req.hr, Constraints::paper_defaults(), req.seed))
}

fn workload(nodes: usize) -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed: 5,
        sessions: SESSIONS_PER_NODE * nodes,
        // Same offered load per node regardless of fleet size.
        mean_interarrival_s: 4.0 / nodes as f64,
        hr_ratio: 0.5,
        live_ratio: 0.5,
        vod_frames: (240, 720),
        live_frames: (960, 2_400),
    })
    .expect("valid workload config")
}

fn run(nodes: usize, workers: usize) -> (FleetSummary, f64) {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(4.0)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        workload(nodes),
    );
    for _ in 0..nodes {
        fleet.add_node(mamut_factory());
    }
    let start = Instant::now();
    let summary = fleet.run().expect("fleet run completes");
    (summary, start.elapsed().as_secs_f64())
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "fleet weak scaling — {SESSIONS_PER_NODE} sessions/node, least-loaded dispatch, \
         {cores} CPU(s) available"
    );
    println!(
        "(speedup is bounded by the CPU count; MAMUT controllers learn online from cold start, \
         so delta% includes the learning transient)\n"
    );
    let mut table = Table::new(vec![
        "nodes".into(),
        "sessions".into(),
        "frames".into(),
        "delta%".into(),
        "power W".into(),
        "wall 1w (s)".into(),
        "wall Nw (s)".into(),
        "speedup".into(),
    ]);
    table.set_alignments(vec![Align::Right; 8]);
    for nodes in [1, 2, 4, 8, 16] {
        let (summary, wall_seq) = run(nodes, 1);
        let (parallel, wall_par) = run(nodes, nodes);
        assert_eq!(
            summary.to_string(),
            parallel.to_string(),
            "worker count changed the physics"
        );
        table.add_row(vec![
            nodes.to_string(),
            summary.total_sessions.to_string(),
            summary.total_frames.to_string(),
            format!("{:.2}", summary.cluster_violation_percent),
            format!("{:.1}", summary.mean_power_w),
            format!("{wall_seq:.3}"),
            format!("{wall_par:.3}"),
            format!("{:.2}x", wall_seq / wall_par.max(1e-9)),
        ]);
    }
    println!("{}", table.to_plain());
}
