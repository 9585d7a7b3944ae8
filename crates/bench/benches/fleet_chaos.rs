//! **Fleet chaos** — the price of surviving failures: a fixed
//! multi-crash [`FaultPlan`] (two crashes plus a thermal throttle) runs
//! against the same fleet twice, once restoring sessions from periodic
//! checkpoints and once cold-restarting them from frame zero. The
//! virtual-time columns (frames redone, availability, recovery epochs)
//! are deterministic and byte-identical across worker counts; the wall
//! clock measures what the checkpoint capture costs.
//!
//! Run with: `cargo bench --bench fleet_chaos`

use std::time::Instant;

use mamut_core::{Controller, FixedController, KnobSettings};
use mamut_fleet::{
    CheckpointPolicy, ControllerFactory, FaultPlan, FleetConfig, FleetSim, FleetSummary,
    LeastLoaded, NodeProvisioner, SessionRequest, ThresholdScaler, Workload, WorkloadConfig,
};
use mamut_metrics::{Align, Table};
use mamut_platform::Platform;

/// Arrivals in the workload.
const SESSIONS: usize = 96;

fn factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn provisioner() -> NodeProvisioner {
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

fn workload() -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed: 13,
        sessions: SESSIONS,
        mean_interarrival_s: 0.25,
        hr_ratio: 0.5,
        live_ratio: 0.4,
        vod_frames: (240, 600),
        live_frames: (600, 1_500),
    })
    .expect("valid workload config")
}

/// Two crashes with live sessions aboard, plus a mid-run throttle.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with_crash(4, 0)
        .with_throttle(5, 2, 1.8, 3)
        .with_crash(7, 1)
        .with_replacement_delay(2)
}

fn run(workers: usize, checkpoint_interval: Option<u64>) -> (FleetSummary, f64) {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(2.0)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        workload(),
    );
    for _ in 0..4 {
        fleet.add_node(factory());
    }
    fleet.set_autoscaler(
        Box::new(
            ThresholdScaler::new()
                .with_limits(4, 8)
                // Scale-down only when nearly idle, so the plan's crash
                // victims are still alive when their epochs arrive.
                .with_watermarks(0.1, 0.8)
                .with_cooldown(2),
        ),
        provisioner(),
    );
    if let Some(interval) = checkpoint_interval {
        fleet.set_checkpoint_policy(CheckpointPolicy::every(interval));
    }
    fleet.set_fault_plan(plan());
    let start = Instant::now();
    let summary = fleet.run().expect("chaos run completes");
    (summary, start.elapsed().as_secs_f64())
}

fn main() {
    println!(
        "fleet chaos — {SESSIONS} sessions, 2 crashes + 1 throttle, 4-node pool \
         with replacement\n"
    );

    let (checkpointed, chk_wall) = run(8, Some(2));
    let (sequential, _) = run(1, Some(2));
    assert_eq!(
        checkpointed.to_string(),
        sequential.to_string(),
        "worker count changed the chaos physics"
    );
    let (cold, cold_wall) = run(8, None);

    for summary in [&checkpointed, &cold] {
        assert_eq!(summary.crashes, 2, "both crashes must fire: {summary}");
        assert_eq!(summary.frames_lost, 0, "no frame may vanish: {summary}");
    }
    assert_eq!(
        checkpointed.total_frames, cold.total_frames,
        "recovery mode must not change delivered frames"
    );
    assert!(
        checkpointed.frames_redone <= cold.frames_redone,
        "checkpoints must bound the re-done work"
    );

    let mut table = Table::new(vec![
        "recovery".into(),
        "frames".into(),
        "redone".into(),
        "recovered".into(),
        "avail%".into(),
        "MTTR ep".into(),
        "wall (s)".into(),
    ]);
    table.set_alignments(vec![Align::Right; 7]);
    for (label, summary, wall) in [
        ("checkpointed", &checkpointed, chk_wall),
        ("cold-restart", &cold, cold_wall),
    ] {
        table.add_row(vec![
            label.into(),
            summary.total_frames.to_string(),
            summary.frames_redone.to_string(),
            summary.sessions_recovered.to_string(),
            format!("{:.2}", summary.availability_percent),
            format!("{:.1}", summary.mean_mttr_epochs),
            format!("{wall:.3}"),
        ]);
    }
    println!("{}", table.to_plain());
}
