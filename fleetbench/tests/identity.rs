//! The benchmark's own checks, on shrunken instances of each workload:
//! probes and timing wrappers never change the simulation, worker count
//! never changes it, the traced windows account for `run()` wall time,
//! and every run conserves arrivals and frames.

use fleetbench::probes::Window;
use fleetbench::report::{layer_metrics, ns_quantile, quantile};
use fleetbench::workloads::{run, Bench, Options, Shape};

fn small(seed: u64) -> Options {
    Options {
        seed,
        workers: 2,
        traced: false,
        probes: true,
        small: true,
    }
}

#[test]
fn probes_and_wrappers_leave_the_summary_byte_identical() {
    for bench in Bench::ALL {
        let bare = run(
            bench,
            Options {
                probes: false,
                ..small(0)
            },
        )
        .unwrap();
        let probed = run(bench, small(0)).unwrap();
        let traced = run(
            bench,
            Options {
                traced: true,
                ..small(0)
            },
        )
        .unwrap();
        assert_eq!(bare.summary, probed.summary, "{}: probes", bench.name());
        assert_eq!(probed.summary, traced.summary, "{}: wrappers", bench.name());
        assert_eq!(bare.counts, traced.counts, "{}", bench.name());
    }
}

#[test]
fn one_and_two_workers_give_byte_identical_summaries() {
    for bench in Bench::ALL {
        let one = run(
            bench,
            Options {
                workers: 1,
                ..small(0)
            },
        )
        .unwrap();
        let two = run(bench, small(0)).unwrap();
        assert_eq!(one.summary, two.summary, "{}", bench.name());
    }
}

#[test]
fn traced_windows_account_for_run_wall_time() {
    for bench in Bench::ALL {
        let outcome = run(
            bench,
            Options {
                traced: true,
                ..small(0)
            },
        )
        .unwrap();
        let spans = outcome.spans.as_ref().unwrap();
        let total = spans.windows_total_s();
        let gap = outcome.run_s - total;
        assert!(
            (0.0..=0.01 * outcome.run_s + 0.002).contains(&gap),
            "{}: windows {total} s vs run {} s",
            bench.name(),
            outcome.run_s
        );
        assert!(Window::ALL.iter().all(|&w| spans.window(w) >= 0.0));
        assert!(spans.window(Window::Advance) > 0.0, "{}", bench.name());
        // One autoscaler and one rebalancer probe per shard per epoch, one
        // epoch sample per lockstep epoch.
        let steps = outcome.counts.epochs as usize * outcome.shards;
        assert_eq!(spans.autoscale_ns.len(), steps, "{}", bench.name());
        assert_eq!(spans.rebalance_ns.len(), steps, "{}", bench.name());
        assert_eq!(spans.epoch_ms.len() as u64, outcome.counts.epochs);
        let frames: usize = outcome
            .core
            .as_ref()
            .map(|c| c.decision_ns.iter().map(Vec::len).sum::<usize>() + c.null_ns.len())
            .unwrap();
        assert!(frames as u64 >= outcome.counts.frames, "{}", bench.name());
        let metrics = layer_metrics(&outcome);
        assert!(metrics.iter().any(|m| m.name == "dispatch.calls"));
    }
}

#[test]
fn elastic_probes_see_seeds_checkpoints_and_crashes() {
    let outcome = run(
        Bench::ElasticMamut,
        Options {
            traced: true,
            ..small(0)
        },
    )
    .unwrap();
    let c = &outcome.counts;
    assert!(c.checkpoints > 0 && c.crashes > 0, "{c:?}");
    assert!(c.seeds_served > 0 && c.publishes == c.sessions, "{c:?}");
    let spans = outcome.spans.unwrap();
    assert_eq!(spans.seed_ns.len() as u64, c.seeds_served);
    assert!(spans.window(Window::Seed) > 0.0);
    assert!(c.rate_epochs.is_some_and(|r| r > 0));
}

#[test]
fn default_and_held_out_seeds_conserve_arrivals_and_frames() {
    for bench in Bench::ALL {
        for seed in [0, 9001] {
            let outcome = run(bench, small(seed)).unwrap();
            assert_eq!(
                outcome.conservation_failures(),
                Vec::<String>::new(),
                "{} seed {seed}",
                bench.name()
            );
        }
    }
}

#[test]
fn seeds_change_the_inputs_but_not_their_shape() {
    let shape = Shape::burst_1k(true);
    let a = shape.arrivals(1, 0);
    let b = shape.arrivals(1, 1);
    assert_eq!(a.len(), b.len());
    assert_ne!(a, b);
    assert_eq!(a, shape.arrivals(1, 0));
}

#[test]
fn burst_1k_reproduces_the_fleet_scaling_sharded_inputs() {
    let shape = Shape::burst_1k(false);
    let arrivals: Vec<_> = (0..shape.shards)
        .flat_map(|s| shape.arrivals(s, 0))
        .collect();
    assert_eq!(arrivals.len(), 107_776);
    assert_eq!(arrivals.iter().map(|r| r.frames).sum::<u64>(), 1_520_286);
    let sparse = Shape::sparse_10k(false);
    assert_eq!(sparse.shards * sparse.nodes_per_shard, 10_240);
    let count: usize = (0..sparse.shards)
        .map(|s| sparse.arrivals(s, 0).len())
        .sum();
    assert_eq!(count, 145_920);
}

#[test]
fn ns_quantiles_interpolate_within_the_nanosecond_bin() {
    assert_eq!(ns_quantile(&[], 0.5), None);
    // Four readings of 10 ns: the median sits halfway through [10, 11).
    assert_eq!(ns_quantile(&[10, 10, 10, 10], 0.5), Some(10.5));
    assert_eq!(ns_quantile(&[10, 20], 0.5), Some(20.0));
    assert_eq!(ns_quantile(&[1, 2, 3, 4], 0.99), Some(4.96));
    assert_eq!(quantile(&[1.0, 2.0, 3.0], 0.5), Some(2.0));
    assert_eq!(quantile(&[1.0, 3.0], 1.0), Some(3.0));
}
