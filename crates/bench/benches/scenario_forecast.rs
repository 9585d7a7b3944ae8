//! **Scenario & forecasting** — cost of the scenario layer and the
//! seasonal-forecasting autoscaler on top of it:
//!
//! * realization cost of the whole preset catalog (thinning a
//!   non-homogeneous arrival process into a concrete trace);
//! * the trace codec (encode + decode of a realized scenario);
//! * the per-epoch cost of a Holt-Winters observe + forecast step —
//!   this runs on the fleet coordinator every boundary, so it must stay
//!   negligible next to node advancement;
//! * end-to-end throughput of the diurnal preset served by an elastic
//!   fleet under the seasonal [`ForecastScaler`], plus its
//!   deterministic arrival/node-epoch counters (they only move when
//!   scenario realization or scaling semantics change).
//!
//! Run with: `cargo bench --bench scenario_forecast`

use std::time::Instant;

use mamut_fleet::{
    ControllerFactory, FleetConfig, FleetSim, FleetSummary, Forecaster, HoltWinters, LeastLoaded,
};
use mamut_platform::Platform;
use mamut_scenario::sizing::{self, SWEEP_EPOCH_S, SWEEP_SMOOTHING};
use mamut_scenario::{catalog, RealizedScenario};

/// Timed catalog realizations (and trace codec round trips).
const REALIZE_REPS: usize = 50;
/// Holt-Winters steps per timing pass.
const STEP_REPS: usize = 200_000;
/// Timed diurnal fleet runs; the best one counts.
const FLEET_REPS: usize = 5;

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(mamut_core::FixedController::new(
            mamut_core::KnobSettings::new(32, threads, 2.9),
        ))
    })
}

fn run_fleet(realized: &RealizedScenario) -> (FleetSummary, f64) {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(4),
        Box::new(LeastLoaded::new()),
        realized.workload(),
    );
    fleet.add_node(fixed_factory());
    fleet.set_autoscaler(
        // The canonical sweep configuration, shared with
        // examples/scenario_sweep.rs.
        Box::new(sizing::seasonal_sweep_scaler(realized)),
        Box::new(|| (Platform::xeon_e5_2667_v4(), fixed_factory())),
    );
    fleet.set_phase_marks(realized.phase_marks(SWEEP_EPOCH_S));
    let start = Instant::now();
    let summary = fleet.run().expect("fleet run completes");
    (summary, start.elapsed().as_secs_f64())
}

fn mean_ns<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(f());
    }
    start.elapsed().as_nanos() as f64 / reps as f64
}

fn main() {
    println!("scenario & forecasting bench");

    // Catalog realization: the whole preset set, trace materialized.
    let realize_ns = mean_ns(REALIZE_REPS, || {
        catalog::all()
            .iter()
            .map(|s| s.realize().expect("presets are valid").len())
            .sum::<usize>()
    });
    let diurnal = catalog::daily_vod().realize().unwrap();
    println!(
        "catalog realization: {:.1} µs ({} presets, {} diurnal arrivals)",
        realize_ns / 1e3,
        catalog::all().len(),
        diurnal.len()
    );

    // Trace codec: encode + decode of the realized diurnal preset.
    let trace_bytes = diurnal.encode();
    let codec_ns = mean_ns(REALIZE_REPS, || {
        let bytes = diurnal.encode();
        RealizedScenario::decode(&bytes).expect("round trip")
    });
    println!(
        "trace codec (encode+decode): {:.1} µs ({} bytes)",
        codec_ns / 1e3,
        trace_bytes.len()
    );

    // One Holt-Winters observe + forecast step, primed state.
    let (alpha, beta, gamma) = SWEEP_SMOOTHING;
    let mut hw = HoltWinters::new(sizing::season_epochs()).with_smoothing(alpha, beta, gamma);
    for epoch in 0..64u64 {
        hw.observe((8 + (epoch % 16) * 3) as usize, SWEEP_EPOCH_S);
    }
    // Min of three passes, like the criterion shim: the op is ~10 ns,
    // so a single-pass mean would mostly report scheduler jitter.
    let mut epoch = 0u64;
    let step_ns = (0..3)
        .map(|_| {
            mean_ns(STEP_REPS, || {
                hw.observe((8 + (epoch % 16) * 3) as usize, SWEEP_EPOCH_S);
                epoch += 1;
                hw.forecast_hz(1)
            })
        })
        .fold(f64::INFINITY, f64::min);
    println!("holt-winters observe+forecast: {step_ns:.0} ns/epoch");

    // End-to-end: the diurnal preset under the seasonal scaler.
    let (summary, first_wall) = run_fleet(&diurnal);
    let best_wall = (1..FLEET_REPS)
        .map(|_| run_fleet(&diurnal).1)
        .fold(first_wall, f64::min);
    let frames_per_s = summary.total_frames as f64 / best_wall.max(1e-9);
    println!(
        "diurnal fleet run: {} sessions, {} frames, {} node-epochs, {:.2}% delta, \
         {:.3} s wall ({:.2} M frames/s)",
        summary.total_sessions,
        summary.total_frames,
        summary.node_epochs,
        summary.cluster_violation_percent,
        best_wall,
        frames_per_s / 1e6
    );
}
