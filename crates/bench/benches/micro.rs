//! **E7 — controller-overhead claim (§V-A)**: "the measured overhead
//! introduced by the system is negligible (less than 0.05 % of the
//! encoding time)".
//!
//! Criterion micro-benchmarks of the hot paths. At a 24 FPS target the
//! frame budget is ≈41.7 ms, so 0.05 % is ≈20 µs — every per-frame
//! operation below must land well under that (the callback walk times
//! about 617 frames per iteration).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mamut_core::exploitation::choose_action;
use mamut_core::snapshot::PolicySnapshot;
use mamut_core::{
    AgentKind, Constraints, Controller, MamutConfig, MamutController, Observation, State,
    STATE_COUNT,
};
use mamut_encoder::{HevcEncoder, Preset};
use mamut_transcode::{homogeneous_sessions, MixSpec, ServerSim};
use mamut_video::{FrameInfo, Resolution};

/// The full snapshot of an HR MAMUT controller that served a
/// 30,000-frame 1080p stream on the simulated server.
fn server_trained() -> PolicySnapshot {
    let mut server = ServerSim::with_default_platform();
    let session = homogeneous_sessions(MixSpec::new(1, 0), 30_000, 3).remove(0);
    let config = MamutConfig::paper_hr().with_seed(3);
    server.add_session(
        session,
        Box::new(MamutController::new(config).expect("valid")),
    );
    server
        .run_to_completion(100_000_000)
        .expect("training completes");
    server.into_controllers()[0].snapshot()
}

/// A fresh controller restored from `trained`.
fn restored(trained: &PolicySnapshot) -> MamutController {
    let mut ctl = MamutController::new(MamutConfig::paper_hr()).expect("valid");
    ctl.restore(trained).expect("same shape");
    ctl
}

/// One observation per state, in state-index order: every combination
/// of the FPS, PSNR, bitrate and power buckets.
fn every_bucket(c: &Constraints) -> Vec<Observation> {
    let mut walk = Vec::with_capacity(STATE_COUNT);
    for fps_over_target in [-1.0, 1.0, 3.0, 5.0, 7.0] {
        for psnr_db in [28.0, 33.0, 38.0, 43.0, 48.0, 52.0] {
            for bitrate_mbps in [2.0, 4.5, 8.0] {
                for power_w in [0.8 * c.power_cap_w, 1.2 * c.power_cap_w] {
                    walk.push(Observation {
                        fps: c.target_fps + fps_over_target,
                        psnr_db,
                        bitrate_mbps,
                        power_w,
                    });
                }
            }
        }
    }
    for (i, obs) in walk.iter().enumerate() {
        assert_eq!(State::from_observation(obs, c).index(), i);
    }
    walk
}

fn bench_controller(c: &mut Criterion) {
    let constraints = Constraints::paper_defaults();
    let obs = Observation {
        fps: 25.0,
        psnr_db: 34.0,
        bitrate_mbps: 4.0,
        power_w: 80.0,
    };
    let trained = server_trained();
    let walk = every_bucket(&constraints);

    // The frame callbacks of 180 decisions, one in each state, on the
    // server-trained controller: each observation fills the window the
    // next decision closes, so that decision lands in the observation's
    // state. One iteration is about 617 callback pairs (7 decisions per
    // 24 frames); states the stream never reached take the exploration
    // pick, mature ones Algorithm 1's look-ahead.
    c.bench_function("mamut_frame_callbacks_every_state", |b| {
        let mut ctl = restored(&trained);
        let mut frame = 0u64;
        ctl.begin_frame(frame, &walk[0], &constraints);
        b.iter(|| {
            for obs in &walk {
                ctl.end_frame(frame, obs, &constraints);
                frame += 1;
                while ctl
                    .begin_frame(black_box(frame), obs, &constraints)
                    .is_none()
                {
                    ctl.end_frame(frame, obs, &constraints);
                    frame += 1;
                }
            }
        });
    });

    c.bench_function("state_from_observation", |b| {
        b.iter(|| State::from_observation(black_box(&obs), black_box(&constraints)));
    });

    // Algorithm 1 for every state, AGqp acting with the other two agents
    // after it, on the server-trained controller: each choice walks the
    // transition model's successors.
    c.bench_function("choose_action_every_state", |b| {
        let ctl = restored(&trained);
        let agents: Vec<_> = AgentKind::ALL.map(|k| ctl.agent(k).clone()).into();
        b.iter(|| {
            (0..STATE_COUNT)
                .map(|s| choose_action(black_box(&agents), 0, &[1, 2], s))
                .sum::<usize>()
        });
    });
}

fn bench_encoder_model(c: &mut Criterion) {
    let enc = HevcEncoder::new(Resolution::FULL_HD, Preset::Ultrafast);
    let frame = FrameInfo {
        index: 0,
        complexity: 1.1,
        scene_cut: false,
    };
    c.bench_function("encoder_model_encode", |b| {
        b.iter(|| enc.encode(black_box(32), black_box(&frame)));
    });
}

fn bench_server_step(c: &mut Criterion) {
    c.bench_function("server_step_4_sessions", |b| {
        b.iter_batched(
            || {
                let mut server = ServerSim::with_default_platform();
                for (i, cfg) in homogeneous_sessions(MixSpec::new(2, 2), 100_000, 5)
                    .into_iter()
                    .enumerate()
                {
                    let is_hr = cfg
                        .playlist
                        .get(0)
                        .expect("non-empty")
                        .resolution()
                        .is_high_resolution();
                    let constraints = cfg.constraints;
                    server.add_session(
                        cfg,
                        mamut_bench::ControllerKind::Mamut.build(is_hr, constraints, i as u64),
                    );
                }
                server
            },
            |mut server| {
                for _ in 0..64 {
                    server.step();
                }
                black_box(server.time())
            },
            criterion::BatchSize::LargeInput,
        );
    });
}

criterion_group!(
    name = micro;
    config = Criterion::default().sample_size(30);
    targets = bench_controller, bench_encoder_model, bench_server_step
);
criterion_main!(micro);
