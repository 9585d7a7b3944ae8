//! Chaos runs: deterministic fault injection, checkpoint/recovery and
//! graceful degradation. A multi-crash plan must conserve every frame
//! (re-done work is accounted, never silently lost) and the whole run
//! must stay byte-identical across worker thread counts — CI executes
//! this file in the same 1/2/8-worker `MAMUT_FLEET_WORKERS` matrix as
//! `fleet_determinism.rs`.

use mamut::fleet::{ControllerFactory, SessionRequest};
use mamut::prelude::*;
use mamut::transcode::TranscodeSession;
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

/// FNV-1a 64 of `bytes`: a short fingerprint of a summary's rendering.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

/// Sessions long enough that mid-ramp crashes always interrupt live
/// work (short VOD clips would finish before the first fault fires).
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

/// The multi-crash plan under test: two mid-run crashes, a thermal
/// throttle and a short replacement delay.
fn plan() -> FaultPlan {
    FaultPlan::new()
        .with_crash(3, 0)
        .with_throttle(4, 2, 1.8, 3)
        .with_crash(6, 1)
        .with_replacement_delay(2)
}

fn chaos_run(workers: usize, with_faults: bool, with_checkpoints: bool) -> FleetSummary {
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
    if with_checkpoints {
        fleet.set_checkpoint_policy(CheckpointPolicy::every(2));
    }
    if with_faults {
        fleet.set_fault_plan(plan());
    }
    fleet.run().expect("chaos run completes")
}

#[test]
fn multi_crash_chaos_conserves_every_frame() {
    let expected_frames: u64 = workload(9).arrivals().iter().map(|r| r.frames).sum();
    let summary = chaos_run(2, true, true);
    assert_eq!(summary.crashes, 2);
    assert!(summary.sessions_recovered > 0, "{summary}");
    assert_eq!(summary.frames_lost, 0, "{summary}");
    assert_eq!(
        summary.total_frames, expected_frames,
        "crashes re-do work, they never lose frames: {summary}"
    );
    // Both crashed nodes were replaced after the configured delay.
    assert_eq!(summary.recoveries, 2);
    assert!((summary.mean_mttr_epochs - 2.0).abs() < 1e-12, "{summary}");
    assert!(summary.availability_percent < 100.0);
    assert!(summary.checkpoints > 0);
    let text = summary.to_string();
    assert!(text.contains("faults: 2 crashes"), "{text}");
    assert!(text.contains("resilience:"), "{text}");
    assert!(text.contains("[crash:n0@e3]"), "{text}");
}

#[test]
fn chaos_runs_are_byte_identical_across_worker_counts() {
    let render = |workers| chaos_run(workers, true, true).to_string();
    let sequential = render(1);
    for workers in worker_counts(&[2, 8]) {
        assert_eq!(
            sequential,
            render(workers),
            "chaos run diverged at {workers} workers"
        );
    }
    assert!(sequential.contains("faults:"), "{sequential}");
    // Pinned bytes: the fault and resilience lines render counters no
    // benchmark digest covers. A deliberate physics change re-pins this
    // along with `fleetbench/pinned.json`.
    assert_eq!(
        fnv1a(sequential.as_bytes()),
        0x6133_6a4a_1be2_101a,
        "chaos summary drifted:\n{sequential}"
    );
}

#[test]
fn an_empty_plan_and_no_checkpoints_change_nothing() {
    // The fault machinery must be pay-for-what-you-use: wiring an empty
    // plan (or none at all) yields the exact bytes of a plain run.
    let plain = chaos_run(2, false, false);
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(2),
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
    fleet.set_fault_plan(FaultPlan::new());
    let empty_plan = fleet.run().expect("run completes");
    assert_eq!(empty_plan.to_string(), plain.to_string());
    assert_eq!(empty_plan, plain);
}

#[test]
fn seeded_chaos_plans_are_deterministic() {
    assert_eq!(FaultPlan::chaos(1, 20, 4, 3), FaultPlan::chaos(1, 20, 4, 3));
    assert_ne!(FaultPlan::chaos(1, 20, 4, 3), FaultPlan::chaos(2, 20, 4, 3));
    // And a generated plan runs to completion like a hand-written one.
    let mut fleet = FleetSim::new(
        FleetConfig::default().with_worker_threads(2),
        Box::new(LeastLoaded::new()),
        workload(9),
    );
    for _ in 0..4 {
        fleet.add_node(factory());
    }
    fleet.set_checkpoint_policy(CheckpointPolicy::every(3));
    fleet.set_fault_plan(FaultPlan::chaos(1, 12, 4, 2));
    let summary = fleet.run().expect("generated chaos completes");
    let expected_frames: u64 = workload(9).arrivals().iter().map(|r| r.frames).sum();
    assert_eq!(summary.total_frames, expected_frames);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Cut a session mid-frame at an arbitrary point, checkpoint it,
    /// then detach the original: the session restored from the bytes
    /// and the detached original, each continuing on its own fresh
    /// clock-aligned server, must deliver bit-identical streams — the
    /// checkpoint codec is a lossless round trip of live session state.
    #[test]
    fn checkpoint_restore_continue_is_bit_identical(
        qp_idx in 0usize..7,
        threads in 1u32..13,
        freq_idx in 0usize..6,
        seed in 0u64..50,
        cut_s in 0.4f64..3.0,
    ) {
        let qp = [22u8, 25, 27, 29, 32, 35, 37][qp_idx];
        let freq = [1.6, 1.9, 2.3, 2.6, 2.9, 3.2][freq_idx];
        let spec = catalog::by_name("ParkScene")
            .unwrap()
            .with_frame_count(240)
            .unwrap();
        let config = SessionConfig::single_video(spec, seed);
        let controller =
            || Box::new(FixedController::new(KnobSettings::new(qp, threads, freq)));

        let mut origin = ServerSim::with_default_platform();
        let id = origin.add_session(config.clone(), controller());
        origin.run_epoch(cut_s, 1_000_000).unwrap();
        let bytes = origin
            .checkpoint_session(id)
            .expect("live session checkpoints");
        let original = origin.detach_session(id).expect("session detaches");
        let restored = TranscodeSession::restore_checkpoint(config, controller(), &bytes)
            .expect("checkpoint restores");

        let resume = |session: TranscodeSession| {
            let mut server = ServerSim::with_default_platform();
            server.align_clock(origin.time()).unwrap();
            server.attach_session(session);
            server.run_to_completion(1_000_000).unwrap()
        };
        let continued = resume(original);
        let resumed = resume(restored);

        let (lhs, rhs) = (&resumed.sessions[0], &continued.sessions[0]);
        prop_assert_eq!(lhs.frames, rhs.frames);
        prop_assert_eq!(lhs.mean_fps.to_bits(), rhs.mean_fps.to_bits());
        prop_assert_eq!(lhs.mean_psnr_db.to_bits(), rhs.mean_psnr_db.to_bits());
        prop_assert_eq!(lhs.mean_bitrate_mbps.to_bits(), rhs.mean_bitrate_mbps.to_bits());
        prop_assert_eq!(lhs.violations, rhs.violations);
        prop_assert_eq!(lhs.mean_threads.to_bits(), rhs.mean_threads.to_bits());
        prop_assert_eq!(resumed.energy_j.to_bits(), continued.energy_j.to_bits());
        prop_assert_eq!(resumed.duration_s.to_bits(), continued.duration_s.to_bits());
        // And nothing was lost relative to an uninterrupted twin: the
        // full clip is delivered either way.
        let mut twin = ServerSim::with_default_platform();
        twin.add_session(
            SessionConfig::single_video(
                catalog::by_name("ParkScene").unwrap().with_frame_count(240).unwrap(),
                seed,
            ),
            controller(),
        );
        let reference = twin.run_to_completion(1_000_000).unwrap();
        prop_assert_eq!(lhs.frames, reference.sessions[0].frames);
    }
}
