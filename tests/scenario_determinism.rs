//! Scenario determinism: a `Scenario` value is a pure function — its
//! realization must be byte-identical across repeated runs, its trace
//! codec must round-trip exactly, and driving a realized scenario
//! through the full fleet stack (seasonal forecast autoscaler, phase
//! marks) must render the same summary for any worker count.
//!
//! Like `tests/fleet_determinism.rs`, the worker counts exercised
//! against the 1-worker reference come from `MAMUT_FLEET_WORKERS` when
//! set (comma-separated); CI runs this file as a matrix over 1, 2 and
//! 8 workers.

use mamut::fleet::ControllerFactory;
use mamut::prelude::*;
use mamut::scenario::catalog;
use mamut::scenario::sizing::{self, SWEEP_EPOCH_S};
use proptest::prelude::*;

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

/// A scenario whose every phase parameter is drawn from proptest
/// scalars — arbitrary shapes, always structurally valid.
fn synth_scenario(
    seed: u64,
    steady_rate: f64,
    diurnal_amp: f64,
    peak: f64,
    shift: f64,
) -> Scenario {
    let mix = MixProfile {
        hr_ratio: (shift * 0.9).clamp(0.0, 1.0),
        live_ratio: (diurnal_amp * 0.8).clamp(0.0, 1.0),
        vod_frames: (24 + (seed % 48), 96 + (seed % 96)),
        live_frames: (120, 240 + (seed % 120)),
    };
    Scenario::new("synth", seed)
        .then(Phase::Steady {
            duration_s: 10.0 + steady_rate,
            rate_hz: steady_rate,
            mix,
        })
        .then(Phase::Diurnal {
            duration_s: 40.0,
            mean_rate_hz: steady_rate.max(0.2),
            amplitude: diurnal_amp.clamp(0.0, 1.0),
            period_s: 20.0,
            phase_offset_s: shift * 20.0,
            mix,
        })
        .then(Phase::FlashCrowd {
            duration_s: 30.0,
            base_rate_hz: steady_rate * 0.5,
            peak_rate_hz: steady_rate * 0.5 + peak,
            event_at_s: 5.0 + shift * 10.0,
            ramp_s: 1.0 + shift * 4.0,
            decay_s: 2.0 + peak,
            mix,
        })
        .then(Phase::RegionalShift {
            duration_s: 20.0,
            rate_hz: steady_rate,
            from: mix,
            to: MixProfile::live_heavy(),
        })
        .then(Phase::ContentDrift {
            duration_s: 20.0,
            rate_hz: steady_rate,
            mix,
            hr_from: (shift * 0.5).clamp(0.0, 1.0),
            hr_to: (0.5 + shift * 0.5).clamp(0.0, 1.0),
            length_scale_from: 0.5 + shift,
            length_scale_to: 1.5,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any scenario realizes byte-identically across repeated runs, and
    /// its trace codec round-trips exactly (same struct, same bytes).
    #[test]
    fn realization_and_trace_are_byte_identical(
        seed in 0u64..u64::MAX,
        steady_rate in 0.1f64..4.0,
        diurnal_amp in 0.0f64..1.0,
        peak in 0.5f64..8.0,
        shift in 0.0f64..1.0,
    ) {
        let scenario = synth_scenario(seed, steady_rate, diurnal_amp, peak, shift);
        let a = scenario.realize().expect("synth scenarios are valid");
        let b = scenario.realize().expect("synth scenarios are valid");
        prop_assert_eq!(&a, &b, "same value, different realization");
        let bytes = a.encode();
        prop_assert_eq!(&bytes, &b.encode(), "same trace, different bytes");
        let decoded = RealizedScenario::decode(&bytes).expect("own bytes decode");
        prop_assert_eq!(&decoded, &a);
        prop_assert_eq!(decoded.encode(), bytes, "re-encode drifted");
    }
}

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

/// The full scenario stack — realized preset, seasonal forecast
/// autoscaler, power/QoS rebalancing, phase marks — rendered to the
/// summary text the CI matrix compares across worker counts.
fn stack_summary_text(realized: &RealizedScenario, workers: usize) -> String {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(workers),
        Box::new(LeastLoaded::new()),
        realized.workload(),
    );
    fleet.add_node(fixed_factory());
    fleet.set_autoscaler(
        Box::new(sizing::seasonal_sweep_scaler(realized)),
        Box::new(|| (Platform::xeon_e5_2667_v4(), fixed_factory())),
    );
    fleet.set_rebalancer(Box::new(
        PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2),
    ));
    fleet.set_phase_marks(realized.phase_marks(SWEEP_EPOCH_S));
    fleet.run().expect("fleet run completes").to_string()
}

#[test]
fn scenario_stack_is_deterministic_across_worker_counts() {
    // live_final exercises three phases (steady, flash crowd, tail) and
    // both scaling directions at a CI-friendly size.
    let realized = catalog::live_final().realize().unwrap();
    let reference = stack_summary_text(&realized, 1);
    for workers in worker_counts(&[2, 8]) {
        assert_eq!(
            reference,
            stack_summary_text(&realized, workers),
            "scenario stack diverged at {workers} workers"
        );
    }
    // The run exercised what it claims: elastic pool plus phase marks.
    assert!(reference.contains("[flash-crowd@e4]"), "{reference}");
    assert!(reference.contains("scale-ups"), "{reference}");
}

#[test]
fn catalog_presets_realize_identically_every_time() {
    for scenario in catalog::all() {
        let a = scenario.realize().unwrap();
        let b = scenario.realize().unwrap();
        assert_eq!(a.encode(), b.encode(), "{} drifted", scenario.name());
    }
}

#[test]
fn replaying_a_decoded_trace_reproduces_the_run() {
    // Persist → restart → replay: the decoded trace must drive the
    // fleet to the very same summary as the fresh realization.
    let realized = catalog::flash_mob().realize().unwrap();
    let decoded = RealizedScenario::decode(&realized.encode()).unwrap();
    assert_eq!(
        stack_summary_text(&realized, 2),
        stack_summary_text(&decoded, 2)
    );
}

#[test]
fn forecaster_state_round_trip_is_exact_mid_run() {
    // Persisting the predictor between "days" must not change what it
    // forecasts — the chained-runs path of scenario persistence.
    let mut original = HoltWinters::new(16).with_smoothing(0.3, 0.05, 0.25);
    for epoch in 0..40u64 {
        original.observe((4 + (epoch % 16) * 2) as usize, 8.0);
    }
    let mut restored = HoltWinters::new(16);
    restored.restore_state(&original.snapshot_state()).unwrap();
    for epoch in 40..80u64 {
        original.observe((4 + (epoch % 16) * 2) as usize, 8.0);
        restored.observe((4 + (epoch % 16) * 2) as usize, 8.0);
    }
    for h in 1..=16 {
        assert_eq!(
            original.forecast_hz(h).to_bits(),
            restored.forecast_hz(h).to_bits(),
            "forecast diverged at horizon {h}"
        );
    }
    assert_eq!(original.snapshot_state(), restored.snapshot_state());
}
