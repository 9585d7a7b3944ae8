//! A warm start copies tables in place: seeding a controller from a
//! knowledge-only snapshot costs the same number of heap allocations
//! however many transition records the snapshot carries. Each agent's
//! records land in its model's one buffer, so a seed into a cold
//! controller allocates once per agent (that buffer's first growth),
//! never per visited cell, and stages no copy of any table.
//!
//! This test lives alone in its own binary, with a counting global
//! allocator, so no concurrent test can allocate while a restore is
//! being measured.

use mamut::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// The knowledge an HR MAMUT controller learns serving one 1080p stream
/// of `frames` frames on the simulated server.
fn trained_knowledge(frames: u64) -> PolicySnapshot {
    let spec = mamut::video::catalog::by_name("Kimono")
        .expect("catalog sequence")
        .with_frame_count(frames)
        .expect("non-zero length");
    let config = MamutConfig::paper_hr().with_seed(3);
    let mut server = ServerSim::with_default_platform();
    server.add_session(
        SessionConfig::single_video(spec, 3).with_constraints(config.constraints),
        Box::new(MamutController::new(config).expect("paper config is valid")),
    );
    server
        .run_to_completion(100_000_000)
        .expect("training completes");
    let controllers = server.into_controllers();
    controllers[0].snapshot().into_knowledge()
}

/// Allocations made by one knowledge-only restore into a cold HR
/// controller (built before counting starts).
fn seed_allocations(knowledge: &PolicySnapshot) -> u64 {
    let mut cold = MamutController::new(MamutConfig::paper_hr().with_seed(9)).expect("valid");
    let before = allocations();
    cold.restore(knowledge).expect("same shape");
    let allocations = allocations() - before;
    assert_eq!(cold.snapshot().agents, knowledge.agents, "restore copies");
    allocations
}

#[test]
fn seed_allocations_do_not_depend_on_the_record_count() {
    let short = trained_knowledge(300);
    let long = trained_knowledge(30_000);
    let records = |k: &PolicySnapshot| -> Vec<usize> {
        k.agents.iter().map(|a| a.transitions.len()).collect()
    };
    let (few, many) = (records(&short), records(&long));
    assert!(few.iter().all(|&n| n > 0), "every agent learned: {few:?}");
    assert!(
        many.iter().sum::<usize>() >= 5 * few.iter().sum::<usize>(),
        "{few:?} vs {many:?} records"
    );
    let (small, large) = (seed_allocations(&short), seed_allocations(&long));
    assert_eq!(small, large, "{few:?} vs {many:?} records");
    assert!(small <= 3, "{small} allocations for 3 agents");
}
