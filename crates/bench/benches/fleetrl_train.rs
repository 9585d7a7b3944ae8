//! **Fleet-RL training** — cost of the offline learning loop the
//! `mamut-fleetrl` trainer runs over the scenario catalog:
//!
//! * wall-clock throughput of a fixed two-preset training curriculum
//!   (seeded episode rollouts through the fleet simulator plus the
//!   replay passes), reported as learned transitions per second;
//! * the deterministic transition count and the greedy-evaluation
//!   node-epochs that training produces (they only move when
//!   featurization, the reward, the ε schedule or the fleet physics
//!   change; `tests/fleetrl_determinism.rs` pins this curriculum's
//!   transition count and its policy's node-epochs on `live_final`).
//!
//! Run with: `cargo bench --bench fleetrl_train`

use std::time::Instant;

use mamut_fleetrl::{TrainConfig, Trainer};
use mamut_scenario::catalog;

/// Timed repetitions of the curriculum; the best one counts.
const REPS: usize = 5;

/// The fixed curriculum every repetition times: a diurnal preset and a
/// bursty one, two episodes each, one replay pass. Small enough to
/// repeat, big enough that the fleet rollouts dominate the shuffle.
fn curriculum() -> TrainConfig {
    TrainConfig {
        episodes_per_scenario: 2,
        replay_passes: 1,
        workers: 4,
        ..TrainConfig::default()
    }
}

fn train_once() -> (Trainer, f64) {
    let mut trainer = Trainer::new(curriculum());
    let start = Instant::now();
    trainer.train_scenario(&catalog::daily_vod());
    trainer.train_scenario(&catalog::flash_mob());
    (trainer, start.elapsed().as_secs_f64())
}

fn main() {
    println!("fleet-rl training bench");

    let (trainer, first_wall) = train_once();
    let transitions = trainer.transitions_seen();
    let best_wall = (1..REPS).map(|_| train_once().1).fold(first_wall, f64::min);
    let transitions_per_s = transitions as f64 / best_wall.max(1e-9);
    println!(
        "training curriculum: {} transitions in {:.3} s wall ({:.0} transitions/s)",
        transitions, best_wall, transitions_per_s
    );

    // Greedy evaluation of the trained policy on the diurnal preset —
    // a deterministic function of the curriculum.
    let eval = trainer.evaluate(&catalog::daily_vod());
    println!(
        "greedy eval on daily_vod: {} node-epochs, {:.2}% delta, {} sessions",
        eval.node_epochs, eval.cluster_violation_percent, eval.total_sessions
    );
}
