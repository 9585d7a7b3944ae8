//! **E7 — controller-overhead claim (§V-A)**: "the measured overhead
//! introduced by the system is negligible (less than 0.05 % of the
//! encoding time)".
//!
//! Criterion micro-benchmarks of the hot paths. At a 24 FPS target the
//! frame budget is ≈41.7 ms, so 0.05 % is ≈20 µs — every per-frame
//! operation below must land well under that.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mamut_core::exploitation::choose_action;
use mamut_core::{
    AgentKind, Constraints, Controller, MamutConfig, MamutController, Observation, State,
    STATE_COUNT,
};
use mamut_encoder::{HevcEncoder, Preset};
use mamut_transcode::{homogeneous_sessions, MixSpec, ServerSim};
use mamut_video::{FrameInfo, Resolution};

fn trained_controller() -> MamutController {
    let mut ctl =
        MamutController::new(MamutConfig::paper_hr().with_seed(3)).expect("paper config is valid");
    let c = Constraints::paper_defaults();
    let mut obs = Observation {
        fps: 25.0,
        psnr_db: 34.0,
        bitrate_mbps: 4.0,
        power_w: 80.0,
    };
    for f in 0..30_000u64 {
        obs.fps = 24.0 + ((f % 13) as f64) * 0.5;
        ctl.begin_frame(f, &obs, &c);
        ctl.end_frame(f, &obs, &c);
    }
    ctl
}

fn bench_controller(c: &mut Criterion) {
    let constraints = Constraints::paper_defaults();
    let obs = Observation {
        fps: 25.0,
        psnr_db: 34.0,
        bitrate_mbps: 4.0,
        power_w: 80.0,
    };

    c.bench_function("mamut_frame_callback_pair", |b| {
        let mut ctl = trained_controller();
        let mut frame = 0u64;
        b.iter(|| {
            let k = ctl.begin_frame(black_box(frame), &obs, &constraints);
            ctl.end_frame(frame, &obs, &constraints);
            frame += 1;
            black_box(k)
        });
    });

    c.bench_function("state_from_observation", |b| {
        b.iter(|| State::from_observation(black_box(&obs), black_box(&constraints)));
    });

    // Algorithm 1 for every state, AGqp acting with the other two agents
    // after it, on an HR controller trained by serving a 30,000-frame
    // stream: each choice walks the transition model's successors. The
    // callback pair above mostly lands on frames without a cooperative
    // choice, so it cannot time this read path.
    c.bench_function("choose_action_every_state", |b| {
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
        let controllers = server.into_controllers();
        let trained = controllers[0]
            .as_any()
            .downcast_ref::<MamutController>()
            .expect("MAMUT");
        let agents: Vec<_> = AgentKind::ALL.map(|k| trained.agent(k).clone()).into();
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
