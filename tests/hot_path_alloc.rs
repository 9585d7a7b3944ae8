//! Steady-state stepping must not touch the allocator.
//!
//! The incremental event engine owns persistent buffers (rate SoA,
//! deadline heap, due-list, power-sensor window) that reach a fixed
//! capacity during warm-up; from then on every event is pops, pushes and
//! arithmetic on existing storage. A counting global allocator pins that
//! down: after warm-up, thousands of events must perform **zero** heap
//! allocations.
//!
//! This test lives alone in its own binary so no concurrent test can
//! allocate while the hot loop is being measured.

use mamut::prelude::*;

#[path = "support/counting_alloc.rs"]
mod counting_alloc;
use counting_alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn steady_state_stepping_performs_zero_allocations() {
    // Eight long-lived sessions under fixed knobs: no knob churn, no
    // session churn — the pure steady-state regime.
    let mut srv = ServerSim::with_default_platform();
    for i in 0..8usize {
        let name = if i.is_multiple_of(2) {
            "Kimono"
        } else {
            "BQMall"
        };
        let spec = catalog::by_name(name)
            .unwrap()
            .with_frame_count(20_000)
            .unwrap();
        let knobs = if i.is_multiple_of(2) {
            KnobSettings::new(32, 8, 2.9)
        } else {
            KnobSettings::new(34, 4, 2.6)
        };
        srv.add_session(
            SessionConfig::single_video(spec, i as u64),
            Box::new(FixedController::new(knobs)),
        );
    }

    // Warm-up: first rate-epoch build, power-sensor window fill, buffer
    // capacity growth all happen here.
    for _ in 0..2_000 {
        assert!(srv.step(), "sessions must stay live through warm-up");
    }

    let before = allocations();
    for _ in 0..10_000 {
        assert!(srv.step(), "sessions must stay live while measured");
    }
    let after = allocations();

    assert_eq!(
        after - before,
        0,
        "steady-state events must not allocate ({} allocations over 10k events)",
        after - before
    );
    assert!(
        srv.rate_epochs() <= 10,
        "steady state must also mean no rate-epoch churn, saw {}",
        srv.rate_epochs()
    );
}
