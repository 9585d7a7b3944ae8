//! Reproducibility: identical seeds must give bit-identical results across
//! the whole stack (content, learning, event loop, metrics).

use mamut::prelude::*;
use mamut::transcode::homogeneous_sessions;

/// A server with one paper-config MAMUT controller per session of `mix`.
fn mamut_server(mix: MixSpec, frames: u64, seed: u64) -> ServerSim {
    let mut server = ServerSim::with_default_platform();
    for (i, cfg) in homogeneous_sessions(mix, frames, seed)
        .into_iter()
        .enumerate()
    {
        let is_hr = cfg
            .playlist
            .get(0)
            .expect("non-empty")
            .resolution()
            .is_high_resolution();
        let mcfg = if is_hr {
            MamutConfig::paper_hr()
        } else {
            MamutConfig::paper_lr()
        }
        .with_seed(seed + i as u64);
        server.add_session(cfg, Box::new(MamutController::new(mcfg).expect("valid")));
    }
    server
}

fn full_run(seed: u64) -> RunSummary {
    let mut server = mamut_server(MixSpec::new(2, 1), 150, seed);
    server.run_to_completion(10_000_000).expect("run completes")
}

#[test]
fn identical_seeds_are_bit_identical() {
    let a = full_run(77);
    let b = full_run(77);
    assert_eq!(a.duration_s, b.duration_s);
    assert_eq!(a.energy_j, b.energy_j);
    assert_eq!(a.sessions.len(), b.sessions.len());
    for (x, y) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(x, y);
    }
}

#[test]
fn different_seeds_differ() {
    let a = full_run(78);
    let b = full_run(79);
    assert_ne!(
        (a.duration_s, a.energy_j),
        (b.duration_s, b.energy_j),
        "different seeds should explore differently"
    );
}

#[test]
fn heuristic_is_deterministic_without_any_seed() {
    let run = || {
        let mut server = ServerSim::with_default_platform();
        for cfg in homogeneous_sessions(MixSpec::new(1, 1), 120, 5) {
            let is_hr = cfg
                .playlist
                .get(0)
                .expect("non-empty")
                .resolution()
                .is_high_resolution();
            let hcfg = if is_hr {
                HeuristicConfig::paper_hr()
            } else {
                HeuristicConfig::paper_lr()
            };
            server.add_session(
                cfg,
                Box::new(HeuristicController::new(hcfg).expect("valid")),
            );
        }
        server.run_to_completion(10_000_000).expect("run completes")
    };
    let a = run();
    let b = run();
    assert_eq!(a.sessions, b.sessions);
}

/// FNV-1a 64 of `bytes`: a short fingerprint of a run's results.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Algorithm 1 end to end: one HR and one LR stream under paper-config
/// MAMUT (cooperative look-ahead on) until every agent exploits some
/// states. The digest covers the run's duration and energy and every
/// controller's learned tables, so a successor list or probability that
/// reads differently changes the look-ahead's choices, and the digest.
#[test]
fn the_cooperative_look_ahead_run_is_pinned() {
    assert!(MamutConfig::paper_hr().cooperative_lookahead);
    assert!(MamutConfig::paper_lr().cooperative_lookahead);
    let mut server = mamut_server(MixSpec::new(1, 1), 8_000, 41);
    let summary = server
        .run_to_completion(100_000_000)
        .expect("run completes");
    let mut bytes = Vec::new();
    bytes.extend(summary.duration_s.to_bits().to_le_bytes());
    bytes.extend(summary.energy_j.to_bits().to_le_bytes());
    for ctl in server.into_controllers() {
        let mamut = ctl
            .as_any()
            .downcast_ref::<MamutController>()
            .expect("MAMUT");
        let maturity = mamut.maturity();
        assert!(
            maturity.per_agent.iter().all(|a| a.exploiting_states > 0),
            "{maturity:?}"
        );
        bytes.extend(ctl.snapshot().encode());
    }
    assert_eq!(fnv1a(&bytes), 0xf7c7_bed5_f0a2_b042);
}
