//! The incremental event engine against its naive oracle.
//!
//! The oracle (`ServerSim::set_naive_engine`, `oracle` feature) re-derives
//! the full rate vector, throughput scale, power draw and the earliest
//! completion from scratch on every event and scans linearly for the
//! minimum — no cache survives an event. The incremental engine may only
//! skip work its rate-epoch bookkeeping proves unchanged, so any missed
//! invalidation (a knob edit, a playlist resolution switch, a constraint
//! change, a migration, a boundary hit, a frequency cap set or lifted),
//! stale aggregate or power term, or heap-vs-scan disagreement shows up
//! here as a bit-level divergence.
//! The incremental twin also archives every finished session after each
//! epoch, as a fleet node does, while the oracle archives nothing and
//! walks every slot in each rebuild: the engine's rebuild, which walks
//! only the live slots, must not miss a session the oracle sees.
//! Both modes share the anchored-work event semantics; the physics of
//! that arithmetic are pinned separately by the hand-computation,
//! epoch-slicing, migration and materialization tests in
//! `crates/transcode`.
//!
//! Every comparison is exact: f64s are compared through `to_bits`, whole
//! summaries through `PartialEq` — byte-identical, not approximately equal.

use mamut::prelude::*;
use proptest::prelude::*;

/// Sampled shape of one randomized workload.
#[derive(Debug, Clone)]
struct Scenario {
    sessions: usize,
    frames: u64,
    seed: u64,
    epoch_s: f64,
    /// Epoch index at which every session's constraints tighten.
    constraint_epoch: u64,
    /// Epoch index at which one live session migrates to a second server.
    migrate_epoch: u64,
    /// Epoch index at which server A is throttled to 2.0 GHz.
    throttle_epoch: u64,
    /// Epochs the throttle stays on before it lifts.
    throttle_epochs: u64,
    /// Lead-in frames driven through `run_frames` before epoch slicing.
    lead_frames: u64,
}

fn controller(i: usize, hr: bool, seed: u64) -> Box<dyn Controller> {
    match (seed as usize + i) % 3 {
        0 => {
            let cfg = if hr {
                MamutConfig::paper_hr()
            } else {
                MamutConfig::paper_lr()
            };
            Box::new(MamutController::new(cfg.with_seed(seed ^ i as u64)).expect("valid config"))
        }
        1 => {
            let cfg = if hr {
                HeuristicConfig::paper_hr()
            } else {
                HeuristicConfig::paper_lr()
            };
            Box::new(HeuristicController::new(cfg).expect("valid config"))
        }
        _ => {
            let knobs = if hr {
                KnobSettings::new(32, 8, 2.9)
            } else {
                KnobSettings::new(34, 4, 2.6)
            };
            Box::new(FixedController::new(knobs))
        }
    }
}

fn build_server(sc: &Scenario, naive: bool) -> ServerSim {
    let mut srv = ServerSim::with_default_platform();
    srv.set_naive_engine(naive);
    for i in 0..sc.sessions {
        let hr = (sc.seed >> i) & 1 == 0;
        let name = if hr { "Kimono" } else { "BQMall" };
        let spec = catalog::by_name(name)
            .expect("catalog sequence")
            .with_frame_count(sc.frames)
            .expect("positive frames");
        srv.add_session(
            SessionConfig::single_video(spec, sc.seed.wrapping_add(i as u64)),
            controller(i, hr, sc.seed),
        );
    }
    srv
}

/// Archives every finished session on `srv`.
fn archive_finished(srv: &mut ServerSim) {
    let finished: Vec<usize> = srv
        .sessions()
        .iter()
        .filter(|s| s.is_finished())
        .map(|s| s.id())
        .collect();
    for id in finished {
        srv.archive_session(id)
            .expect("a finished session archives");
    }
}

/// Drives one engine flavour through the whole scenario: a `run_frames`
/// lead-in, epoch-sliced advancement across two servers, a mid-run
/// constraint change, a mid-run migration, and a throttle on server A
/// that lifts a few epochs later. The incremental flavour archives the
/// finished sessions on both servers after every epoch. Returns
/// everything observable.
fn drive(sc: &Scenario, naive: bool) -> (RunSummary, RunSummary, u64, u64, u64) {
    let mut a = build_server(sc, naive);
    let mut b = ServerSim::with_default_platform();
    b.set_naive_engine(naive);

    if sc.lead_frames > 0 {
        a.run_frames(sc.lead_frames, 10_000_000).expect("lead-in");
    }
    // Bring b level with a before slicing (b idles the gap away).
    b.run_epoch(a.time(), 10_000_000).expect("align");

    let mut t = a.time();
    let mut epoch = 0u64;
    while !(a.all_finished() && b.all_finished()) {
        epoch += 1;
        assert!(epoch < 10_000, "scenario failed to converge");
        t += sc.epoch_s;
        a.run_epoch(t, 10_000_000).expect("epoch a");
        b.run_epoch(t, 10_000_000).expect("epoch b");
        if !naive {
            archive_finished(&mut a);
            archive_finished(&mut b);
        }
        if epoch == sc.throttle_epoch {
            a.set_freq_cap(Some(2.0));
        }
        if epoch == sc.throttle_epoch + sc.throttle_epochs {
            a.set_freq_cap(None);
        }
        if epoch == sc.constraint_epoch {
            let tight = Constraints {
                power_cap_w: 70.0,
                bandwidth_mbps: 2.0,
                ..Constraints::paper_defaults()
            };
            a.set_constraints_all(tight);
            if let Ok(s) = a.session(0) {
                let mut c = s.constraints();
                c.target_fps = 22.0;
                let _ = a.set_constraints(0, c);
            }
        }
        if epoch == sc.migrate_epoch {
            let migrant = a
                .sessions()
                .iter()
                .find(|s| !s.is_finished())
                .map(|s| s.id());
            if let Some(id) = migrant {
                let session = a.detach_session(id).expect("live session detaches");
                b.attach_session(session);
            }
        }
    }
    (
        a.summary(),
        b.summary(),
        a.time().to_bits(),
        b.time().to_bits(),
        a.sensor().total_energy_j().to_bits() ^ b.sensor().total_energy_j().to_bits(),
    )
}

/// Exact per-session fingerprint (every f64 through its bits).
fn fingerprint(summary: &RunSummary) -> Vec<(u64, u64, u64, u64, u64)> {
    summary
        .sessions
        .iter()
        .map(|s| {
            (
                s.frames,
                s.violations,
                s.mean_fps.to_bits(),
                s.mean_psnr_db.to_bits(),
                s.mean_bitrate_mbps.to_bits(),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn incremental_engine_is_bit_identical_to_the_naive_oracle(
        sessions in 1usize..5,
        frames in 25u64..90,
        seed in 0u64..1_000_000,
        epoch_ms in 80u64..900,
        constraint_epoch in 1u64..6,
        migrate_epoch in 1u64..6,
        throttle_epoch in 1u64..6,
        throttle_epochs in 1u64..4,
        lead_frames in 0u64..12,
    ) {
        let sc = Scenario {
            sessions,
            frames,
            seed,
            epoch_s: epoch_ms as f64 / 1_000.0,
            constraint_epoch,
            migrate_epoch,
            throttle_epoch,
            throttle_epochs,
            lead_frames,
        };
        let incremental = drive(&sc, false);
        let oracle = drive(&sc, true);
        prop_assert_eq!(&incremental.0, &oracle.0, "server A summaries diverge");
        prop_assert_eq!(&incremental.1, &oracle.1, "server B summaries diverge");
        prop_assert_eq!(fingerprint(&incremental.0), fingerprint(&oracle.0));
        prop_assert_eq!(fingerprint(&incremental.1), fingerprint(&oracle.1));
        prop_assert_eq!(incremental.2, oracle.2, "virtual clocks diverge");
        prop_assert_eq!(incremental.3, oracle.3, "virtual clocks diverge");
        prop_assert_eq!(incremental.4, oracle.4, "energy integrals diverge");
    }
}

/// The blunt single-server case on a longer horizon: pure
/// `run_to_completion`, no slicing, heavier learning churn.
#[test]
fn long_mamut_run_matches_oracle_exactly() {
    let run = |naive: bool| {
        let mut srv = ServerSim::with_default_platform();
        srv.set_naive_engine(naive);
        for i in 0..4usize {
            let hr = i.is_multiple_of(2);
            let name = if hr { "Kimono" } else { "BQMall" };
            let spec = catalog::by_name(name)
                .unwrap()
                .with_frame_count(400)
                .unwrap();
            let cfg = if hr {
                MamutConfig::paper_hr()
            } else {
                MamutConfig::paper_lr()
            };
            srv.add_session(
                SessionConfig::single_video(spec, i as u64),
                Box::new(MamutController::new(cfg.with_seed(7 + i as u64)).unwrap()),
            );
        }
        let summary = srv.run_to_completion(10_000_000).unwrap();
        (summary, srv.time().to_bits())
    };
    let (inc, t_inc) = run(false);
    let (ora, t_ora) = run(true);
    assert_eq!(inc, ora, "summaries must be byte-identical");
    assert_eq!(t_inc, t_ora, "clocks must be byte-identical");
}

/// The incremental engine must actually be incremental: under fixed
/// knobs the rate vector is rebuilt a handful of times while thousands
/// of events reuse it (the oracle rebuilds once per event).
#[test]
fn rate_epochs_stay_rare_in_steady_state() {
    let mut srv = ServerSim::with_default_platform();
    for i in 0..8usize {
        let spec = catalog::by_name(if i.is_multiple_of(2) {
            "Kimono"
        } else {
            "BQMall"
        })
        .unwrap()
        .with_frame_count(500)
        .unwrap();
        srv.add_session(
            SessionConfig::single_video(spec, i as u64),
            Box::new(FixedController::new(KnobSettings::new(32, 6, 2.9))),
        );
    }
    srv.run_to_completion(10_000_000).unwrap();
    assert!(
        srv.rate_epochs() <= 10,
        "fixed-knob run must reuse the rate cache, rebuilt {} times",
        srv.rate_epochs()
    );
}
