//! Fleet-RL determinism: offline training and greedy evaluation are
//! pure functions of the training configuration — the learned policy's
//! snapshot bytes and the evaluation summary must be identical for any
//! fleet worker count (and its counts equal to pinned values), and a
//! snapshot restored into a fresh trainer must continue exactly like the
//! original.
//!
//! Like `tests/fleet_determinism.rs`, the worker counts exercised
//! against the 1-worker reference come from `MAMUT_FLEET_WORKERS` when
//! set (comma-separated); CI runs this file as a matrix over 1, 2 and
//! 8 workers.

use mamut::fleet::FleetSummary;
use mamut::fleetrl::{TrainConfig, Trainer};
use mamut::scenario::catalog;

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

fn quick_cfg(workers: usize) -> TrainConfig {
    TrainConfig {
        episodes_per_scenario: 2,
        replay_passes: 1,
        workers,
        ..TrainConfig::default()
    }
}

/// Train on two contrasting presets and evaluate a third; return the
/// policy bytes, the transitions learned and the evaluation summary.
fn train_and_eval(workers: usize) -> (Vec<u8>, u64, FleetSummary) {
    let mut trainer = Trainer::new(quick_cfg(workers));
    trainer.train_scenario(&catalog::daily_vod());
    trainer.train_scenario(&catalog::flash_mob());
    let summary = trainer.evaluate(&catalog::live_final());
    (
        trainer.snapshot_state(),
        trainer.transitions_seen(),
        summary,
    )
}

#[test]
fn training_and_evaluation_are_identical_across_worker_counts() {
    let (reference_policy, reference_transitions, reference_eval) = train_and_eval(1);
    let reference_summary = reference_eval.to_string();
    for workers in worker_counts(&[2, 8]) {
        let (policy, transitions, eval) = train_and_eval(workers);
        assert_eq!(
            reference_policy, policy,
            "trained policy diverged at {workers} workers"
        );
        assert_eq!(
            reference_transitions, transitions,
            "transitions diverged at {workers} workers"
        );
        assert_eq!(
            reference_summary,
            eval.to_string(),
            "evaluation diverged at {workers} workers"
        );
    }
    // Exact pins: these counts move only when featurization, the reward,
    // the ε schedule or the fleet physics change.
    assert_eq!(reference_transitions, 122, "transitions learned");
    assert_eq!(
        reference_eval.node_epochs, 225,
        "greedy-evaluation node-epochs"
    );
    // The evaluation run carries learned-policy provenance.
    assert!(
        reference_summary.contains("policy:"),
        "policy counters missing:\n{reference_summary}"
    );
    // Pinned bytes: the `policy:` line renders counters no benchmark
    // digest covers. A deliberate change to the learner or the fleet
    // physics re-pins this along with `fleetbench/pinned.json`.
    assert_eq!(
        fnv1a(reference_summary.as_bytes()),
        0xe28e_9b3e_c757_5748,
        "evaluation summary drifted:\n{reference_summary}"
    );
}

#[test]
fn a_restored_trainer_continues_exactly_like_the_original() {
    let mut original = Trainer::new(quick_cfg(4));
    original.train_scenario(&catalog::daily_vod());
    let checkpoint = original.snapshot_state();

    let mut resumed = Trainer::new(quick_cfg(4));
    resumed
        .warm_start(&checkpoint)
        .expect("checkpoint restores");

    // Same future training on both: byte-identical policies after.
    let a = original.train_scenario(&catalog::live_final());
    let b = resumed.train_scenario(&catalog::live_final());
    assert_eq!(a, b, "training reports diverged after restore");
    assert_eq!(
        original.snapshot_state(),
        resumed.snapshot_state(),
        "policies diverged after identical post-restore training"
    );
    assert_eq!(
        original.evaluate(&catalog::flash_mob()).to_string(),
        resumed.evaluate(&catalog::flash_mob()).to_string()
    );
}
