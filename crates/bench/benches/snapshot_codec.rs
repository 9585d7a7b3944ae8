//! Snapshot-codec microbenchmarks: the migration/warm-start hot path.
//!
//! Session migration serializes a controller at an epoch boundary and a
//! knowledge store merges every published policy; both must stay cheap
//! enough to run between epochs without denting the fleet's throughput.
//! Later PRs optimizing the migration path should watch these numbers.
//!
//! Run with: `cargo bench --bench snapshot_codec`

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mamut_core::snapshot::PolicySnapshot;
use mamut_core::{Constraints, Controller, MamutConfig, MamutController, Observation};
use mamut_fleet::{KnowledgeStore, MergePolicy, SessionClass};

/// A controller with realistically populated tables (several thousand
/// decisions over a varying observation stream).
fn trained_controller(seed: u64) -> MamutController {
    let mut ctl = MamutController::new(MamutConfig::paper_hr().with_seed(seed)).unwrap();
    let c = Constraints::paper_defaults();
    for f in 0..20_000u64 {
        let o = Observation {
            fps: 20.0 + (f % 11) as f64,
            psnr_db: 30.0 + (f % 7) as f64,
            bitrate_mbps: 2.0 + (f % 5) as f64,
            power_w: 70.0 + (f % 13) as f64,
        };
        ctl.begin_frame(f, &o, &c);
        ctl.end_frame(f, &o, &c);
    }
    ctl
}

fn bench_codec(c: &mut Criterion) {
    let trained = trained_controller(1);
    let snapshot = Controller::snapshot(&trained);
    let bytes = snapshot.encode();
    println!(
        "trained snapshot: {} agents, {} bytes",
        snapshot.agents.len(),
        bytes.len()
    );

    c.bench_function("snapshot_capture", |b| {
        b.iter(|| black_box(Controller::snapshot(black_box(&trained))))
    });

    c.bench_function("snapshot_encode", |b| {
        b.iter(|| black_box(black_box(&snapshot).encode()))
    });

    c.bench_function("snapshot_decode", |b| {
        b.iter(|| black_box(PolicySnapshot::decode(black_box(&bytes)).unwrap()))
    });

    c.bench_function("snapshot_restore", |b| {
        let mut target = MamutController::new(MamutConfig::paper_hr().with_seed(9)).unwrap();
        b.iter(|| {
            target.restore(black_box(&snapshot)).unwrap();
            black_box(&target);
        })
    });
}

fn bench_store_merge(c: &mut Criterion) {
    let a = Controller::snapshot(&trained_controller(1));
    let b_snap = Controller::snapshot(&trained_controller(2));

    // Steady-state publish: the store lives across the whole fleet run,
    // so the hot figure is the marginal cost of folding one more
    // finished session into merged knowledge.
    c.bench_function("store_publish_visit_weighted", |bencher| {
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &a);
        store.publish(SessionClass::Hr, &b_snap);
        bencher.iter(|| {
            store.publish(SessionClass::Hr, black_box(&b_snap));
            black_box(store.publishes())
        })
    });

    c.bench_function("store_publish_replace", |bencher| {
        let mut store = KnowledgeStore::new(MergePolicy::Replace);
        store.publish(SessionClass::Hr, &a);
        bencher.iter(|| {
            store.publish(SessionClass::Hr, black_box(&b_snap));
            black_box(store.publishes())
        })
    });

    c.bench_function("store_seed", |bencher| {
        let mut store = KnowledgeStore::new(MergePolicy::VisitWeighted);
        store.publish(SessionClass::Hr, &a);
        let mut pupil = MamutController::new(MamutConfig::paper_hr().with_seed(5)).unwrap();
        bencher.iter(|| black_box(store.seed(SessionClass::Hr, &mut pupil)))
    });
}

criterion_group!(benches, bench_codec, bench_store_merge);
criterion_main!(benches);
