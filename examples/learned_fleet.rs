//! Learned fleet control: a trained RL policy races the heuristic
//! stack across the scenario catalog.
//!
//! The `mamut_fleetrl` trainer rolls seeded episodes of every catalog
//! preset, learning a joint scale × dispatch policy from QoS-slack
//! rewards with pool-size and power penalties. The trained policy then
//! replays each scenario greedily against the strongest non-learned
//! stack the repo ships (seasonal Holt-Winters scaler + least-loaded
//! dispatch + power/QoS rebalancing) on an identical fleet. The run
//! asserts the learned policy wins or ties — no more node-epochs and
//! essentially no worse QoS — on at least two presets.
//!
//! A transfer study follows: a policy trained only on `daily_vod`
//! warm-starts training on `live_final`, resuming the decayed
//! exploration schedule instead of re-exploring from scratch — the
//! fleet-level analogue of the knowledge-as-a-service warm start for
//! session controllers.
//!
//! Run with: `cargo run --release --example learned_fleet`

use mamut::fleetrl::{heuristic_reference, TrainConfig, Trainer};
use mamut::metrics::{Align, Table};
use mamut::prelude::*;
use mamut::scenario::catalog;

/// QoS tolerance for a "tie": within a quarter violation point.
const QOS_MARGIN: f64 = 0.25;

/// Training rounds over the whole catalog (each round re-rolls every
/// scenario on fresh episode seeds, advancing the ε schedule).
const CATALOG_ROUNDS: usize = 2;

fn win_or_tie(rl: &FleetSummary, heur: &FleetSummary) -> bool {
    rl.node_epochs <= heur.node_epochs
        && rl.cluster_violation_percent <= heur.cluster_violation_percent + QOS_MARGIN
}

fn main() {
    let cfg = TrainConfig::default();
    println!(
        "learned fleet control — tabular Q over {} states x 9 joint actions, \
         {} episodes/scenario x {} catalog rounds, replay x{}\n",
        mamut::fleetrl::FleetFeaturizer::default().n_states(),
        cfg.episodes_per_scenario,
        CATALOG_ROUNDS,
        cfg.replay_passes,
    );

    // --- Offline training on the whole catalog. ---
    let mut trainer = Trainer::new(cfg);
    for round in 0..CATALOG_ROUNDS {
        for report in trainer.train_catalog(&catalog::all()) {
            println!(
                "  round {round}: {:<24} {:>5} transitions, mean reward {:+.3}, eps -> {:.3}",
                report.scenario, report.transitions, report.mean_reward, report.epsilon_after
            );
        }
    }
    println!(
        "\ntrained on {} transitions total\n",
        trainer.transitions_seen()
    );

    // --- The race: greedy learned policy vs. the heuristic stack. ---
    let mut table = Table::new(vec![
        "scenario".into(),
        "arrivals".into(),
        "heur ne".into(),
        "rl ne".into(),
        "heur d%".into(),
        "rl d%".into(),
        "rl up/dn".into(),
        "outcome".into(),
    ]);
    table.set_alignments(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Left,
    ]);

    let mut wins = 0usize;
    let mut diurnal_rl: Option<FleetSummary> = None;
    for scenario in catalog::all() {
        let realized = scenario.realize().expect("catalog presets are valid");
        let rl = trainer.evaluate(&scenario);
        let heur = heuristic_reference(&scenario, 4);
        for summary in [&rl, &heur] {
            assert_eq!(
                summary.total_sessions + summary.rejected_sessions,
                realized.len() as u64,
                "every arrival accounted for"
            );
        }
        let ok = win_or_tie(&rl, &heur);
        wins += usize::from(ok);
        table.add_row(vec![
            scenario.name().to_owned(),
            realized.len().to_string(),
            heur.node_epochs.to_string(),
            rl.node_epochs.to_string(),
            format!("{:.2}", heur.cluster_violation_percent),
            format!("{:.2}", rl.cluster_violation_percent),
            format!("{}/{}", rl.scale_ups, rl.scale_downs),
            if ok { "win/tie".into() } else { "loss".into() },
        ]);
        if scenario.name() == "daily_vod" {
            diurnal_rl = Some(rl);
        }
    }
    println!("{}", table.to_plain());
    println!(
        "(ne = node-epochs; win/tie = no more node-epochs and QoS within {QOS_MARGIN} points)\n"
    );
    assert!(
        wins >= 2,
        "the trained policy must win or tie on at least two catalog scenarios, got {wins}"
    );
    println!("=> learned policy wins or ties on {wins}/4 catalog scenarios\n");

    // The fleet summary carries policy provenance for learned runs.
    let rl = diurnal_rl.expect("catalog contains daily_vod");
    println!("daily_vod, learned policy:");
    print!("{rl}");
    let rendered = rl.to_string();
    assert!(
        rendered.contains("policy:"),
        "learned runs must render policy provenance counters:\n{rendered}"
    );
    assert!(rl.greedy_actions > 0 && rl.exploratory_actions == 0);

    // --- Transfer study: daily_vod knowledge warm-starts live_final. ---
    println!("\ntransfer study — daily_vod -> live_final:");
    let mut donor = Trainer::new(TrainConfig::default());
    donor.train_scenario(&catalog::daily_vod());
    let snapshot = donor.snapshot_state();

    // The policy snapshot is canonical: restore -> re-encode is
    // byte-identical (the portability contract every MAMUT learned
    // state honors).
    let mut probe = Trainer::new(TrainConfig::default());
    probe.warm_start(&snapshot).expect("snapshot restores");
    assert_eq!(
        probe.snapshot_state(),
        snapshot,
        "snapshot round-trip drifted"
    );

    let mut cold = Trainer::new(TrainConfig::default());
    let cold_report = cold.train_scenario(&catalog::live_final());
    let mut warm = Trainer::new(TrainConfig::default());
    warm.warm_start(&snapshot).expect("snapshot restores");
    let warm_report = warm.train_scenario(&catalog::live_final());

    let cold_explore = cold
        .driver()
        .lock()
        .unwrap()
        .policy()
        .exploratory_selections();
    let warm_donor_explore = {
        let d = warm.driver();
        let g = d.lock().unwrap();
        g.policy().exploratory_selections()
    };
    let donor_explore = donor
        .driver()
        .lock()
        .unwrap()
        .policy()
        .exploratory_selections();
    let warm_explore = warm_donor_explore - donor_explore;
    println!(
        "  cold: eps {:.3} after {} transitions, {} exploratory steps",
        cold_report.epsilon_after, cold_report.transitions, cold_explore
    );
    println!(
        "  warm: eps {:.3} after {} transitions, {} exploratory steps on live_final",
        warm_report.epsilon_after, warm_report.transitions, warm_explore
    );
    assert!(
        warm_report.epsilon_after < cold_report.epsilon_after,
        "warm start must resume the decayed schedule"
    );
    assert!(
        warm_explore < cold_explore,
        "warm start must explore less on the new scenario ({warm_explore} vs {cold_explore})"
    );

    let cold_eval = cold.evaluate(&catalog::live_final());
    let warm_eval = warm.evaluate(&catalog::live_final());
    println!(
        "  eval on live_final: cold {} ne / {:.2} d%, warm {} ne / {:.2} d%",
        cold_eval.node_epochs,
        cold_eval.cluster_violation_percent,
        warm_eval.node_epochs,
        warm_eval.cluster_violation_percent
    );
    println!("\n=> warm start transfers: less exploration on the new scenario, schedule resumed");
}
