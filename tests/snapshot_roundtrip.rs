//! Portable-snapshot invariants: the binary codec must round-trip
//! byte-identically for arbitrary learned state, and a restored
//! controller must be indistinguishable from the original.

use mamut::control::snapshot::{AgentSnapshot, PolicySnapshot, SnapshotError, TransitionRecord};
use mamut::control::{AgentKind, STATE_COUNT};
use mamut::prelude::*;
use proptest::prelude::*;

/// Builds a pseudo-random agent table from proptest-drawn scalars. The
/// generator mixes the drawn seed so every case explores a different
/// table, while staying a pure function of the inputs.
fn synth_agent(seed: u64, n_states: usize, n_actions: usize, fill: usize) -> AgentSnapshot {
    let mut x = seed | 1;
    let mut next = move || {
        // SplitMix64 step: cheap, deterministic, well mixed.
        x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let q = (0..n_states * n_actions)
        .map(|_| (next() as i64 as f64) / (1u64 << 40) as f64)
        .collect();
    let action_counts = (0..n_actions).map(|_| (next() % 500) as u32).collect();
    let transitions = (0..fill)
        .map(|_| TransitionRecord {
            state: (next() % n_states as u64) as u32,
            action: (next() % n_actions as u64) as u32,
            next_state: (next() % n_states as u64) as u32,
            count: (next() % 200 + 1) as u32,
        })
        .collect();
    AgentSnapshot {
        kind: AgentKind::Qp,
        n_states: n_states as u32,
        n_actions: n_actions as u32,
        q,
        action_counts,
        transitions,
    }
}

proptest! {
    #[test]
    fn encode_decode_encode_is_byte_identical(
        seed in 0u64..u64::MAX,
        n_states in 1usize..40,
        n_actions in 1usize..16,
        fill in 0usize..64,
        qp in 0u8..52,
        threads in 1u32..16,
    ) {
        let snap = PolicySnapshot {
            controller: "prop".into(),
            knobs: KnobSettings::new(qp, threads, 2.6),
            exploration_decisions: seed % 10_000,
            exploitation_decisions: seed % 7_777,
            agents: vec![
                synth_agent(seed, n_states, n_actions, fill),
                synth_agent(seed ^ 0xABCD, n_actions, n_states, fill / 2),
            ],
            extra: seed.to_le_bytes().to_vec(),
        };
        let bytes = snap.encode();
        let decoded = PolicySnapshot::decode(&bytes).unwrap();
        let reencoded = decoded.encode();
        prop_assert_eq!(&bytes, &reencoded);
        // And a second decode sees the very same structure.
        prop_assert_eq!(decoded, PolicySnapshot::decode(&reencoded).unwrap());
    }

    #[test]
    fn truncated_streams_never_decode(
        seed in 0u64..u64::MAX,
        fill in 0usize..32,
        cut_back in 1usize..48,
    ) {
        let snap = PolicySnapshot {
            controller: "prop".into(),
            knobs: KnobSettings::new(32, 4, 2.6),
            exploration_decisions: 1,
            exploitation_decisions: 2,
            agents: vec![synth_agent(seed, 12, 5, fill)],
            extra: vec![7; (seed % 9) as usize],
        };
        let bytes = snap.encode();
        let cut = bytes.len().saturating_sub(cut_back);
        prop_assert!(PolicySnapshot::decode(&bytes[..cut]).is_err());
    }

    #[test]
    fn trained_mamut_snapshot_round_trips_exactly(
        seed in 0u64..1_000,
        frames in 100u64..1_500,
    ) {
        let cfg = MamutConfig::paper_hr().with_seed(seed);
        let mut ctl = MamutController::new(cfg).unwrap();
        let c = Constraints::paper_defaults();
        for f in 0..frames {
            let o = Observation {
                fps: 20.0 + (f % 11) as f64,
                psnr_db: 30.0 + (f % 7) as f64,
                bitrate_mbps: 2.0 + (f % 5) as f64,
                power_w: 70.0 + (f % 13) as f64,
            };
            ctl.begin_frame(f, &o, &c);
            ctl.end_frame(f, &o, &c);
        }
        let snap = Controller::snapshot(&ctl);
        let bytes = snap.encode();
        let decoded = PolicySnapshot::decode(&bytes).unwrap();
        prop_assert_eq!(decoded.encode(), bytes);
        prop_assert_eq!(decoded.agents.len(), 3);
        for agent in &decoded.agents {
            prop_assert_eq!(agent.n_states as usize, STATE_COUNT);
        }
    }
}

/// The restored-controller equivalence the tentpole hangs on, end to
/// end through the byte codec: identical decisions from the cut frame
/// onward, driven through a full transcoding session rather than
/// synthetic observations.
#[test]
fn restored_controller_is_indistinguishable_inside_a_server() {
    let spec = catalog::by_name("Kimono")
        .unwrap()
        .with_frame_count(600)
        .unwrap();
    let run = |controller: Box<dyn Controller>| {
        let mut server = ServerSim::with_default_platform();
        let id = server.add_session(SessionConfig::single_video(spec.clone(), 4), controller);
        server.run_to_completion(1_000_000).unwrap();
        let summary = server.summary();
        (
            summary.sessions[id].mean_fps,
            summary.sessions[id].mean_psnr_db,
            summary.duration_s,
            server.into_controllers().remove(0).snapshot().encode(),
        )
    };

    // Train a controller over the first half of the stream.
    let mut trainer = ServerSim::with_default_platform();
    let half = catalog::by_name("Kimono")
        .unwrap()
        .with_frame_count(300)
        .unwrap();
    let cfg = MamutConfig::paper_hr().with_seed(8);
    trainer.add_session(
        SessionConfig::single_video(half, 4),
        Box::new(MamutController::new(cfg.clone()).unwrap()),
    );
    trainer.run_to_completion(1_000_000).unwrap();
    let trained = trainer.into_controllers().remove(0);
    let bytes = trained.snapshot().encode();

    // Clone it through the codec and race the two over the same video.
    let revive = || {
        let snap = PolicySnapshot::decode(&bytes).unwrap();
        let mut ctl = MamutController::new(cfg.clone()).unwrap();
        ctl.restore(&snap).unwrap();
        Box::new(ctl) as Box<dyn Controller>
    };
    assert_eq!(run(revive()), run(revive()));
}

#[test]
fn decode_rejects_garbage_and_wrong_versions() {
    assert_eq!(
        PolicySnapshot::decode(b"garbage"),
        Err(SnapshotError::BadMagic)
    );
    let good = PolicySnapshot::tableless("fixed", KnobSettings::new(32, 4, 2.6)).encode();
    let mut versioned = good.clone();
    versioned[8] = 0x7F; // inflate the version field past POLICY_FORMAT.version
    assert!(matches!(
        PolicySnapshot::decode(&versioned),
        Err(SnapshotError::UnsupportedVersion(_))
    ));
    assert!(PolicySnapshot::decode(&good).is_ok());
}
