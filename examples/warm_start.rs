//! Warm start vs. cold start: the knowledge-as-a-service payoff.
//!
//! Phase 1 trains one HR and one LR MAMUT controller to maturity on a
//! single server and publishes their learned policies into a
//! [`KnowledgeStore`]. Phase 2 runs the *same* churn workload (same
//! seed) through two identical fleets of MAMUT nodes — one starting
//! every session cold, one seeding every session from the store — and
//! compares how many decisions each fleet spends in the exploration
//! phase before reaching exploitation. Each fleet counts them from the
//! knowledge its finished sessions publish: the cold fleet publishes to
//! a store of its own that nothing seeds from.
//!
//! The cold fleet pays the full per-stream learning time the paper
//! describes; the seeded fleet inherits mature Q-tables and goes
//! straight to work. The learning-time reduction printed at the end is
//! the fleet-scale version of the KaaS follow-up's headline result.
//!
//! Run with: `cargo run --release --example warm_start`

use std::sync::Arc;

use mamut::fleet::{
    warm_start_factory, ControllerFactory, KnowledgeStore, MergePolicy, SessionClass,
    SharedKnowledgeStore,
};
use mamut::prelude::*;

/// Frames each teacher session trains for in phase 1.
const TRAINING_FRAMES: u64 = 20_000;

fn mamut_factory() -> ControllerFactory {
    Box::new(|req| {
        let cfg = if req.hr {
            MamutConfig::paper_hr()
        } else {
            MamutConfig::paper_lr()
        };
        Box::new(MamutController::new(cfg.with_seed(req.seed)).expect("paper config is valid"))
    })
}

/// Phase 1: train one teacher per session class on a real server and
/// publish both policies.
fn train_store() -> SharedKnowledgeStore {
    let mut server = ServerSim::with_default_platform();
    let hr = catalog::by_name("Kimono")
        .unwrap()
        .with_frame_count(TRAINING_FRAMES)
        .unwrap();
    let lr = catalog::by_name("BQMall")
        .unwrap()
        .with_frame_count(TRAINING_FRAMES)
        .unwrap();
    server.add_session(
        SessionConfig::single_video(hr, 1),
        Box::new(MamutController::new(MamutConfig::paper_hr().with_seed(1)).unwrap()),
    );
    server.add_session(
        SessionConfig::single_video(lr, 2),
        Box::new(MamutController::new(MamutConfig::paper_lr().with_seed(2)).unwrap()),
    );
    server
        .run_to_completion(100_000_000)
        .expect("training run completes");

    let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
    for session in server.sessions() {
        let class = SessionClass::of_hr(session.is_high_resolution());
        let snapshot = session.controller().snapshot();
        println!(
            "  teacher {class}: {} exploration / {} exploitation decisions published",
            snapshot.exploration_decisions, snapshot.exploitation_decisions
        );
        store.publish(class, &snapshot);
    }
    store.into_shared()
}

/// The churn both fleets face: 16 mixed sessions over ~half a minute.
fn churn() -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed: 77,
        sessions: 16,
        mean_interarrival_s: 1.5,
        hr_ratio: 0.5,
        live_ratio: 0.3,
        vod_frames: (120, 300),
        live_frames: (400, 900),
    })
    .expect("valid workload config")
}

struct FleetResult {
    summary: FleetSummary,
    exploration: u64,
    exploitation: u64,
}

/// `(exploration, exploitation)` decisions summed over the store's MAMUT
/// knowledge of both session classes.
fn mamut_decisions(store: &SharedKnowledgeStore) -> (u64, u64) {
    let store = store.lock().expect("store lock");
    [SessionClass::Hr, SessionClass::Lr]
        .into_iter()
        .filter_map(|class| store.knowledge(class, "mamut"))
        .fold((0, 0), |(explore, exploit), k| {
            (
                explore + k.snapshot.exploration_decisions,
                exploit + k.snapshot.exploitation_decisions,
            )
        })
}

/// Phase 2: run the churn through a 2-node MAMUT fleet whose finished
/// sessions publish to `store`, seeding every new session from it when
/// `seeded`. The decisions the run's sessions made are what their
/// publishes added to the store.
fn run_fleet(store: &SharedKnowledgeStore, seeded: bool) -> FleetResult {
    let mut fleet = FleetSim::new(
        FleetConfig::default(),
        Box::new(LeastLoaded::new()),
        churn(),
    );
    for _ in 0..2 {
        let base = mamut_factory();
        fleet.add_node(if seeded {
            warm_start_factory(Arc::clone(store), base)
        } else {
            base
        });
    }
    fleet.set_knowledge_store(Arc::clone(store));
    let before = mamut_decisions(store);
    let summary = fleet.run().expect("fleet run completes");
    let after = mamut_decisions(store);
    FleetResult {
        summary,
        exploration: after.0 - before.0,
        exploitation: after.1 - before.1,
    }
}

fn main() {
    println!("== phase 1: training teachers ({TRAINING_FRAMES} frames each) ==");
    let store = train_store();

    println!("\n== phase 2: same churn workload, cold vs. store-seeded ==");
    let sink = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
    let cold = run_fleet(&sink, false);
    let warm = run_fleet(&store, true);

    let fraction = |r: &FleetResult| {
        let total = r.exploration + r.exploitation;
        if total == 0 {
            0.0
        } else {
            100.0 * r.exploration as f64 / total as f64
        }
    };
    println!("\ncold fleet:");
    print!("{}", cold.summary);
    println!(
        "\nwarm fleet ({} sessions seeded):",
        warm.summary.warm_starts
    );
    print!("{}", warm.summary);

    println!("\n                  cold        warm");
    println!(
        "exploration   {:>8}    {:>8}",
        cold.exploration, warm.exploration
    );
    println!(
        "exploitation  {:>8}    {:>8}",
        cold.exploitation, warm.exploitation
    );
    println!(
        "explore %     {:>7.1}%    {:>7.1}%",
        fraction(&cold),
        fraction(&warm)
    );

    assert!(
        warm.summary.warm_starts > 0,
        "the store must seed at least one session"
    );
    assert!(
        warm.exploration < cold.exploration,
        "store-seeded fleet should explore less: warm {} vs cold {}",
        warm.exploration,
        cold.exploration
    );
    let reduction = 100.0 * (1.0 - warm.exploration as f64 / cold.exploration.max(1) as f64);
    println!(
        "\n=> warm start cut exploration decisions by {:.0}% ({} -> {})",
        reduction, cold.exploration, warm.exploration
    );
}
