//! Scenario sweep: EWMA vs. seasonal forecasting across the workload
//! catalog.
//!
//! Every preset in `mamut_scenario::catalog` is realized into its
//! deterministic arrival trace and served twice by the same elastic
//! fleet — once sized by the reactive-EWMA [`PredictiveScaler`], once
//! by a [`ForecastScaler`] wrapping an additive Holt-Winters predictor
//! whose season matches the scenario's "day". Everything else (nodes,
//! dispatch, rebalancing, sizing constants, pool limits) is identical,
//! so the delta isolates *what the scaler believes about the future*.
//!
//! The punchline is the diurnal preset: a seasonal predictor has seen
//! the daily shape before, so it provisions ahead of the morning ramp
//! (fewer QoS violations) and sheds ahead of the evening fall (fewer
//! node-epochs). The run asserts that win, and also that the whole
//! stack — realization, forecasting, autoscaling, phase marks — is
//! byte-identical across fleet worker counts.
//!
//! Run with: `cargo run --release --example scenario_sweep`

use mamut::fleet::ControllerFactory;
use mamut::metrics::{Align, Table};
use mamut::prelude::*;
use mamut::scenario::catalog;
use mamut::scenario::sizing::{
    self, SWEEP_EPOCH_S, SWEEP_LEAD_EPOCHS, SWEEP_POOL, SWEEP_SESSIONS_PER_NODE,
};

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

/// Both scalers come from `mamut_scenario::sizing` — the canonical
/// sweep configuration, which the `elastic_mamut` benchmark workload
/// also runs — so the only difference between the two runs is what the
/// scaler believes about the future.
fn scaler(seasonal: bool, realized: &RealizedScenario) -> Box<dyn Autoscaler> {
    if seasonal {
        Box::new(sizing::seasonal_sweep_scaler(realized))
    } else {
        Box::new(sizing::ewma_sweep_scaler(realized))
    }
}

fn run(realized: &RealizedScenario, seasonal: bool, workers: usize) -> FleetSummary {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        realized.workload(),
    );
    fleet.add_node(fixed_factory());
    fleet.set_autoscaler(
        scaler(seasonal, realized),
        Box::new(|| (Platform::xeon_e5_2667_v4(), fixed_factory())),
    );
    // Elasticity rides on migration: spread landed load onto nodes the
    // scaler just commissioned (same policy for both scalers).
    fleet.set_rebalancer(Box::new(
        PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
    ));
    fleet.set_phase_marks(realized.phase_marks(SWEEP_EPOCH_S));
    fleet.run().expect("fleet run completes")
}

fn main() {
    println!(
        "scenario sweep — elastic fleet ({}-{} nodes, {:.0} sessions/node), EWMA vs seasonal \
         (Holt-Winters, season = {} epochs, lead = {SWEEP_LEAD_EPOCHS})\n",
        SWEEP_POOL.0,
        SWEEP_POOL.1,
        SWEEP_SESSIONS_PER_NODE,
        sizing::season_epochs()
    );
    let mut table = Table::new(vec![
        "scenario".into(),
        "arrivals".into(),
        "ewma ne".into(),
        "hw ne".into(),
        "ewma d%".into(),
        "hw d%".into(),
        "ewma up/dn".into(),
        "hw up/dn".into(),
    ]);
    table.set_alignments(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);

    let mut diurnal: Option<(FleetSummary, FleetSummary)> = None;
    for scenario in catalog::all() {
        let realized = scenario.realize().expect("catalog presets are valid");
        let ewma = run(&realized, false, 4);
        let hw = run(&realized, true, 4);
        for summary in [&ewma, &hw] {
            assert_eq!(
                summary.total_sessions + summary.rejected_sessions,
                realized.len() as u64,
                "every arrival accounted for"
            );
        }
        assert_eq!(
            hw.total_frames, ewma.total_frames,
            "both scalers serve the same frames"
        );
        table.add_row(vec![
            scenario.name().to_owned(),
            realized.len().to_string(),
            ewma.node_epochs.to_string(),
            hw.node_epochs.to_string(),
            format!("{:.2}", ewma.cluster_violation_percent),
            format!("{:.2}", hw.cluster_violation_percent),
            format!("{}/{}", ewma.scale_ups, ewma.scale_downs),
            format!("{}/{}", hw.scale_ups, hw.scale_downs),
        ]);
        if scenario.name() == "daily_vod" {
            diurnal = Some((ewma, hw));
        }
    }
    println!("{}", table.to_plain());
    println!("(ne = node-epochs, d% = cluster QoS violation percent)\n");

    // --- The tentpole claim: seasonal forecasting beats EWMA on the
    // diurnal preset — strictly better QoS at no extra capacity, or
    // >=10 % capacity saved within half a QoS point. ---
    let (ewma, hw) = diurnal.expect("catalog contains daily_vod");
    println!("daily_vod, seasonal scaler:");
    print!("{hw}");
    println!("\ndaily_vod, EWMA scaler:");
    print!("{ewma}");
    let qos_gap = hw.cluster_violation_percent - ewma.cluster_violation_percent;
    let epoch_saving = 1.0 - hw.node_epochs as f64 / ewma.node_epochs.max(1) as f64;
    println!(
        "\n=> seasonal vs EWMA on daily_vod: {:+.2} QoS points, {:.0}% node-epochs saved ({} -> {})",
        qos_gap,
        100.0 * epoch_saving,
        ewma.node_epochs,
        hw.node_epochs
    );
    let strictly_better_qos = hw.cluster_violation_percent < ewma.cluster_violation_percent
        && hw.node_epochs <= ewma.node_epochs;
    let much_cheaper = epoch_saving >= 0.10 && qos_gap <= 0.5;
    assert!(
        strictly_better_qos || much_cheaper,
        "seasonal forecasting must beat EWMA on the diurnal preset: \
         qos gap {qos_gap:+.2}, node-epochs {} vs {}",
        hw.node_epochs,
        ewma.node_epochs
    );

    // --- Determinism: the full scenario stack (realization, forecast
    // scaler, rebalancer, phase marks) is byte-identical across worker
    // counts. ---
    let realized = catalog::daily_vod().realize().unwrap();
    let reference = run(&realized, true, 1).to_string();
    for workers in [2, 4, 8] {
        assert_eq!(
            reference,
            run(&realized, true, workers).to_string(),
            "scenario stack diverged at {workers} workers"
        );
    }
    assert!(
        reference.contains("[diurnal@e0]"),
        "phase marks missing from the summary:\n{reference}"
    );
    println!("\ndeterminism: byte-identical across 1/2/4/8 workers, phase marks rendered");
}
