//! **Fleet telemetry overhead** — prices the structured event tracing
//! added to the fleet simulator, on the same MAMUT-controller workload
//! shape `fleet_scaling` sweeps.
//!
//! Three arms over identical physics:
//!
//! * *baseline* — a fleet that never touches the telemetry API (the
//!   hooks still exist in the binary; each reduces to one branch);
//! * *off* — `set_telemetry(TelemetryMode::Off)` called explicitly,
//!   which must be indistinguishable from the baseline: the summaries
//!   are asserted byte-identical and the best-of-N wall clock must stay
//!   within 2%;
//! * *full* — every event retained, the trace encoded and exported at
//!   the end, to show what full observability actually costs.
//!
//! Run with: `cargo bench --bench fleet_telemetry`

use std::time::Instant;

use mamut_bench::ControllerKind;
use mamut_core::Constraints;
use mamut_fleet::{
    ControllerFactory, FleetConfig, FleetSim, FleetSummary, FleetTrace, LeastLoaded, TelemetryMode,
    Workload, WorkloadConfig,
};
use mamut_metrics::{Align, Table};

/// Fleet nodes.
const NODES: usize = 8;
/// Arrivals per node.
const SESSIONS_PER_NODE: usize = 8;
/// Wall-clock samples per arm; the best one counts.
const REPEATS: usize = 5;
/// Runs timed back-to-back per wall-clock sample, so each sample
/// amortizes the timer and scheduler jitter over a batch.
const BATCH: usize = 3;

/// MAMUT-managed sessions, as in `fleet_scaling`: online Q-learning
/// gives every node-epoch real CPU work, so the hook overhead is
/// measured against a realistic denominator rather than an idle loop.
fn mamut_factory() -> ControllerFactory {
    Box::new(|req| ControllerKind::Mamut.build(req.hr, Constraints::paper_defaults(), req.seed))
}

fn workload() -> Workload {
    Workload::try_generate(&WorkloadConfig {
        seed: 5,
        sessions: SESSIONS_PER_NODE * NODES,
        mean_interarrival_s: 4.0 / NODES as f64,
        hr_ratio: 0.5,
        live_ratio: 0.5,
        vod_frames: (240, 720),
        live_frames: (960, 2_400),
    })
    .expect("valid workload config")
}

fn run(mode: Option<TelemetryMode>) -> (FleetSummary, Option<FleetTrace>, f64) {
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(4.0)
            .with_worker_threads(NODES),
        Box::new(LeastLoaded::new()),
        workload(),
    );
    for _ in 0..NODES {
        fleet.add_node(mamut_factory());
    }
    if let Some(mode) = mode {
        fleet.set_telemetry(mode);
    }
    let start = Instant::now();
    let summary = fleet.run().expect("fleet run completes");
    let wall = start.elapsed().as_secs_f64();
    let trace = mode
        .filter(|m| *m != TelemetryMode::Off)
        .map(|_| fleet.trace());
    (summary, trace, wall)
}

fn main() {
    println!(
        "fleet telemetry overhead — {NODES} nodes, {SESSIONS_PER_NODE} sessions/node, \
         MAMUT controllers\n"
    );

    // Interleave the arms so slow drift on a shared runner hits all
    // three equally; keep the best (minimum) wall per arm — the runs
    // are deterministic, so the minimum is the least-noisy sample.
    let (mut base_wall, mut off_wall, mut full_wall) = (f64::MAX, f64::MAX, f64::MAX);
    let mut reference: Option<(FleetSummary, FleetSummary, FleetSummary, FleetTrace)> = None;
    for _ in 0..REPEATS {
        let (mut wall_b, mut wall_o, mut wall_f) = (0.0, 0.0, 0.0);
        for _ in 0..BATCH {
            let (base, _, w) = run(None);
            wall_b += w;
            let (off, _, w) = run(Some(TelemetryMode::Off));
            wall_o += w;
            let (full, trace, w) = run(Some(TelemetryMode::Full));
            wall_f += w;
            reference.get_or_insert((base, off, full, trace.expect("full mode keeps a trace")));
        }
        base_wall = base_wall.min(wall_b / BATCH as f64);
        off_wall = off_wall.min(wall_o / BATCH as f64);
        full_wall = full_wall.min(wall_f / BATCH as f64);
    }
    let (base, off, mut full, trace) = reference.expect("at least one repeat ran");

    // Off must be indistinguishable from never-configured: same bytes.
    assert_eq!(off, base, "TelemetryMode::Off changed the physics");
    assert_eq!(off.to_string(), base.to_string());
    // Full tracing may add its summary line but must not move a single
    // simulated number.
    assert!(full.trace_events > 0);
    full.trace_events = 0;
    assert_eq!(full, base, "tracing perturbed the simulation");

    // The encoded trace round-trips (priced below, correctness here).
    let bytes = trace.encode();
    assert_eq!(
        FleetTrace::decode(&bytes).expect("trace decodes").encode(),
        bytes
    );

    let frames = base.total_frames as f64;
    let overhead = |wall: f64| (wall / base_wall.max(1e-9) - 1.0) * 100.0;
    let mut table = Table::new(vec![
        "arm".into(),
        "wall best (s)".into(),
        "frames/s".into(),
        "overhead %".into(),
        "events".into(),
    ]);
    table.set_alignments(vec![
        Align::Left,
        Align::Right,
        Align::Right,
        Align::Right,
        Align::Right,
    ]);
    table.add_row(vec![
        "baseline (no API use)".into(),
        format!("{base_wall:.3}"),
        format!("{:.0}", frames / base_wall.max(1e-9)),
        "—".into(),
        "0".into(),
    ]);
    table.add_row(vec![
        "telemetry off".into(),
        format!("{off_wall:.3}"),
        format!("{:.0}", frames / off_wall.max(1e-9)),
        format!("{:+.2}", overhead(off_wall)),
        "0".into(),
    ]);
    table.add_row(vec![
        "telemetry full".into(),
        format!("{full_wall:.3}"),
        format!("{:.0}", frames / full_wall.max(1e-9)),
        format!("{:+.2}", overhead(full_wall)),
        trace.len().to_string(),
    ]);
    println!("{}", table.to_plain());
    println!(
        "full trace: {} events, {} bytes encoded, {} bytes of Chrome JSON\n",
        trace.len(),
        bytes.len(),
        trace.to_chrome_json().len()
    );

    // The disabled-overhead contract: hooks that record nothing may not
    // cost measurable wall clock. Best-of-N batched samples of
    // deterministic runs keep scheduler noise out of the comparison;
    // the 1 ms absolute floor absorbs the scheduler jitter a 2% budget
    // on a sub-second run cannot resolve.
    assert!(
        off_wall <= base_wall * 1.02 + 1e-3,
        "telemetry-off overhead {:.2}% exceeds the 2% budget \
         (off {off_wall:.4}s vs baseline {base_wall:.4}s per run)",
        overhead(off_wall)
    );
}
