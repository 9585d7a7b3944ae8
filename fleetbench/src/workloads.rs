//! The three benchmark workloads. Each is built from the workload seed
//! alone: the seed generates the arrivals (and, for `elastic_mamut`,
//! the scenario realization), and the simulator receives only those
//! generated arrivals.

use std::sync::Arc;
use std::time::Instant;

use mamut_core::{FixedController, KnobSettings, MamutConfig, MamutController};
use mamut_fleet::{
    warm_start_factory, AdmissionGated, Autoscaler, CheckpointPolicy, ControllerFactory,
    Dispatcher, FaultPlan, FleetConfig, FleetError, FleetSim, FleetSummary, GateMode,
    KnowledgeStore, LeastLoaded, MergePolicy, NodeProvisioner, PowerQosBalance, Rebalancer,
    SessionRequest, ShardConfig, ShardedFleetSim, SharedKnowledgeStore, TelemetryMode, Workload,
};
use mamut_platform::Platform;
use mamut_scenario::sizing::{self, SWEEP_EPOCH_S};
use mamut_scenario::{catalog, MixProfile, Phase, Scenario};

use crate::probes::{
    CoreProbe, CoreSamples, EmptyRebalancer, HoldScaler, Recorder, Spans, TimedDispatcher,
    TimedRebalancer, TimedScaler,
};

/// Fleet worker threads every workload runs with.
pub const WORKERS: usize = 2;

/// Epoch length of the two sharded workloads (virtual seconds), as in
/// the `fleet_scaling` bench's sharded series.
const SHARDED_EPOCH_S: f64 = 4.0;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// 8 shards × 128 nodes, 100 resident sessions per node at t = 0.
    ///
    /// *Why:* 100 resident sessions per node make `FleetNode::view()` and
    /// `refresh()` O(sessions) per admit, which puts dispatch and advance
    /// at ~80 % of wall while fixed controllers cost nothing. It is the
    /// workload an O(changes) dispatch shows on, and it reproduces the
    /// `fleet_scaling` sharded series the ROADMAP baseline was measured
    /// on.
    Burst1k,
    /// 40 shards × 256 nodes = 10,240 nodes at 10 sessions per node.
    ///
    /// *Why:* per-node load is 10× lighter, so cost scales with pool
    /// size: dormant park and settle replay, per-epoch scans over 10k
    /// nodes, 40 per-shard thread fan-outs per epoch, overflow across 40
    /// shards. A faster dispatch gains little here; a costlier idle
    /// epoch or shard lockstep shows here and nowhere else.
    Sparse10k,
    /// The paper's controller at fleet scale: three diurnal VOD days on
    /// an elastic pool that starts at 2 nodes, every stream learning
    /// online with its own `MamutController`, warm-started from and
    /// publishing to a visit-weighted knowledge store, sized by a
    /// seasonal Holt-Winters forecast scaler, rebalanced by
    /// `PowerQosBalance`, admission-gated in queue mode, checkpointed
    /// every 4 epochs through two crashes and a throttle, fully traced.
    ///
    /// *Why:* controller decisions, knowledge seed and publish, rate-epoch
    /// rebuilds and the snapshot codecs dominate; dispatch is a few
    /// thousand calls over fewer than 60 nodes. It is also the only
    /// workload whose dispatcher reads `resident_shapes`.
    ElasticMamut,
}

impl Bench {
    /// Every workload, in report order.
    pub const ALL: [Bench; 3] = [Bench::Burst1k, Bench::Sparse10k, Bench::ElasticMamut];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Bench::Burst1k => "burst_1k",
            Bench::Sparse10k => "sparse_10k",
            Bench::ElasticMamut => "elastic_mamut",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }
}

/// How one run is set up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Fleet worker threads.
    pub workers: usize,
    /// Time every layer boundary (the per-layer run).
    pub traced: bool,
    /// Attach the hold-only autoscaler / empty-plan rebalancer probes to
    /// workloads that lack their own (always on in the benchmark; the
    /// identity tests turn it off to show the probes change nothing).
    pub probes: bool,
    /// Shrunken instance for tests.
    pub small: bool,
}

impl Options {
    /// The benchmark's configuration for `seed`.
    pub fn bench(seed: u64, traced: bool) -> Options {
        Options {
            seed,
            workers: WORKERS,
            traced,
            probes: true,
            small: false,
        }
    }
}

/// Exact deterministic results of a run, read from the summary and the
/// public counters after it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// Arrivals generated for the run.
    pub arrivals: u64,
    /// Frames those arrivals ask for.
    pub offered_frames: u64,
    /// Frames delivered.
    pub frames: u64,
    /// Sessions admitted.
    pub sessions: u64,
    /// Sessions rejected (including shed ones).
    pub rejected: u64,
    /// Arrivals shed while degraded.
    pub shed: u64,
    /// Frames lost without a survivor to re-do them.
    pub frames_lost: u64,
    /// Epochs simulated.
    pub epochs: u64,
    /// Powered node-epochs.
    pub node_epochs: u64,
    /// Cross-shard overflow migrations.
    pub overflow_migrations: u64,
    /// Inter-shard knowledge-sync rounds.
    pub knowledge_syncs: u64,
    /// Injected crashes.
    pub crashes: u64,
    /// Frames re-done after crashes.
    pub frames_redone: u64,
    /// Checkpoints captured.
    pub checkpoints: u64,
    /// Telemetry events recorded.
    pub trace_events: u64,
    /// Knowledge-store publishes.
    pub publishes: u64,
    /// Knowledge seeds served.
    pub seeds_served: u64,
    /// Knowledge seeding attempts.
    pub seed_attempts: u64,
    /// Engine rate-vector rebuilds summed over nodes (`None` where the
    /// nodes are not reachable from outside: `ShardedFleetSim` exposes no
    /// shard accessor).
    pub rate_epochs: Option<u64>,
}

/// Everything one run produced.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The summary's `Display` rendering.
    pub summary: String,
    /// Exact counts.
    pub counts: Counts,
    /// Lockstep shards (1 for an unsharded fleet).
    pub shards: usize,
    /// Seconds spent generating inputs (arrivals, scenario realization).
    pub realize_s: f64,
    /// Seconds spent constructing the sim, shards, nodes and probes.
    pub build_s: f64,
    /// Host seconds inside `run()`.
    pub run_s: f64,
    /// Seconds `FleetTrace::encode` took after the run.
    pub encode_s: f64,
    /// Coordinator windows (traced runs only).
    pub spans: Option<Spans>,
    /// Controller timings (traced runs only).
    pub core: Option<CoreSamples>,
}

impl Outcome {
    /// Host seconds from the start of the workload to the `run()` call.
    pub fn setup_s(&self) -> f64 {
        self.realize_s + self.build_s
    }

    /// Conservation laws every run must satisfy; returns each violation.
    pub fn conservation_failures(&self) -> Vec<String> {
        let c = &self.counts;
        let mut failures = Vec::new();
        // The summary counts shed arrivals among the rejected ones.
        if c.arrivals != c.sessions + c.rejected {
            failures.push(format!(
                "arrivals {} != sessions {} + rejected {} (incl. {} shed)",
                c.arrivals, c.sessions, c.rejected, c.shed
            ));
        }
        if c.shed > c.rejected {
            failures.push(format!("shed {} > rejected {}", c.shed, c.rejected));
        }
        if c.frames_lost != 0 {
            failures.push(format!("{} frames lost", c.frames_lost));
        }
        if c.rejected == 0 && c.frames != c.offered_frames {
            failures.push(format!(
                "frames delivered {} != frames offered {}",
                c.frames, c.offered_frames
            ));
        }
        if c.frames == 0 || c.epochs == 0 {
            failures.push("empty run".to_owned());
        }
        failures
    }
}

/// FNV-1a 64 over `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Runs `bench` once.
///
/// # Errors
///
/// Any typed error of scenario realization or of the fleet run.
pub fn run(bench: Bench, options: Options) -> Result<Outcome, String> {
    match bench {
        Bench::Burst1k => run_sharded(&Shape::burst_1k(options.small), options),
        Bench::Sparse10k => run_sharded(&Shape::sparse_10k(options.small), options),
        Bench::ElasticMamut => run_elastic(options),
    }
}

/// Layer probes of one traced run.
struct Probes {
    recorder: Arc<Recorder>,
    core: Arc<CoreProbe>,
}

impl Probes {
    fn new(options: Options, shards: usize) -> Option<Probes> {
        if !options.traced {
            return None;
        }
        let recorder = Recorder::new(shards);
        let sequencer = MamutConfig::paper_hr()
            .sequencer()
            .expect("paper schedules are collision-free");
        let core = CoreProbe::new(sequencer, Arc::clone(&recorder));
        Some(Probes { recorder, core })
    }

    fn factory(probes: &Option<Probes>, base: ControllerFactory) -> ControllerFactory {
        match probes {
            Some(p) => p.core.wrap(base),
            None => base,
        }
    }

    fn dispatcher(probes: &Option<Probes>, inner: Box<dyn Dispatcher>) -> Box<dyn Dispatcher> {
        match probes {
            Some(p) => Box::new(TimedDispatcher::new(inner, Arc::clone(&p.recorder))),
            None => inner,
        }
    }

    fn scaler(
        probes: &Option<Probes>,
        inner: Box<dyn Autoscaler>,
        shard: usize,
    ) -> Box<dyn Autoscaler> {
        match probes {
            Some(p) => Box::new(TimedScaler::new(inner, Arc::clone(&p.recorder), shard)),
            None => inner,
        }
    }

    fn rebalancer(
        probes: &Option<Probes>,
        inner: Box<dyn Rebalancer>,
        shard: usize,
    ) -> Box<dyn Rebalancer> {
        match probes {
            Some(p) => Box::new(TimedRebalancer::new(inner, Arc::clone(&p.recorder), shard)),
            None => inner,
        }
    }
}

/// Times `run` and, when traced, tiles it into windows.
fn timed_run<T>(
    probes: &Option<Probes>,
    run: impl FnOnce() -> Result<T, FleetError>,
) -> Result<(T, f64, Option<Spans>), String> {
    let started = Instant::now();
    if let Some(p) = probes {
        p.recorder.start();
    }
    let result = run();
    let spans = probes.as_ref().map(|p| p.recorder.finish());
    let run_s = started.elapsed().as_secs_f64();
    let value = result.map_err(|e| format!("fleet run failed: {e}"))?;
    Ok((value, run_s, spans))
}

/// Tail sessions per node of every shard.
const TAIL_PER_NODE: usize = 4;
/// Late-burst sessions per node of the last shard.
const LATE_PER_NODE: usize = 10;
/// Frames of each late-burst session: multi-epoch, so the hot shard stays
/// hot across boundaries and overflow has something to move.
const LATE_FRAMES: u64 = 480;
/// Epoch the late burst arrives at, after the other shards have drained.
const LATE_EPOCH: u64 = 40;

/// Shape of a sharded burst workload, after the `fleet_scaling` bench's
/// sharded series: a t = 0 burst, a thin per-shard tail whose horizon
/// cycles with `shard mod 8`, and a late burst of multi-epoch sessions
/// into the last shard that drives cross-shard overflow.
#[derive(Debug, Clone, PartialEq)]
pub struct Shape {
    /// Shards.
    pub shards: usize,
    /// Nodes per shard.
    pub nodes_per_shard: usize,
    /// Sessions per node in the t = 0 burst.
    pub burst_per_node: usize,
}

impl Shape {
    /// `burst_1k` (or its shrunken test instance).
    pub fn burst_1k(small: bool) -> Shape {
        Shape {
            shards: if small { 3 } else { 8 },
            nodes_per_shard: if small { 4 } else { 128 },
            burst_per_node: if small { 25 } else { 100 },
        }
    }

    /// `sparse_10k` (or its shrunken test instance).
    pub fn sparse_10k(small: bool) -> Shape {
        Shape {
            shards: if small { 10 } else { 40 },
            nodes_per_shard: if small { 3 } else { 256 },
            burst_per_node: 10,
        }
    }

    /// One shard's arrivals for workload seed `seed`. Seed 0 reproduces
    /// the `fleet_scaling` sharded series exactly.
    pub fn arrivals(&self, shard: usize, seed: u64) -> Vec<SessionRequest> {
        let salt = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let base = (shard as u64) << 32; // ids unique fleet-wide
        let request = |id: u64, arrival_s: f64, frames: Option<u64>| {
            let h = mix(id ^ salt);
            SessionRequest {
                id,
                arrival_s,
                hr: h & 1 == 0,
                live: false,
                frames: frames.unwrap_or(6 + (h >> 8) % 6),
                seed: h,
            }
        };
        let mut arrivals = Vec::new();
        for i in 0..self.nodes_per_shard * self.burst_per_node {
            arrivals.push(request(base | i as u64, 0.0, None));
        }
        let tail = self.nodes_per_shard * TAIL_PER_NODE;
        let horizon_s = ((shard % 8) as f64 + 1.0) * 12.0 * SHARDED_EPOCH_S;
        for i in 0..tail {
            arrivals.push(request(
                base | (1 << 31) | i as u64,
                (i as f64 + 1.0) * horizon_s / tail as f64,
                None,
            ));
        }
        if shard + 1 == self.shards {
            let at_s = LATE_EPOCH as f64 * SHARDED_EPOCH_S;
            for i in 0..self.nodes_per_shard * LATE_PER_NODE {
                arrivals.push(request(
                    base | (1 << 30) | i as u64,
                    at_s,
                    Some(LATE_FRAMES),
                ));
            }
        }
        arrivals
    }
}

/// splitmix64 — a seeded hash, so a sharded workload is a pure function
/// of (seed, shard, ordinal) with no RNG state threaded through.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn fixed_factory() -> ControllerFactory {
    Box::new(|req| {
        let threads = if req.hr { 10 } else { 4 };
        Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
    })
}

fn mamut_factory() -> ControllerFactory {
    Box::new(|req| {
        let config = if req.hr {
            MamutConfig::paper_hr()
        } else {
            MamutConfig::paper_lr()
        };
        // Algorithm 1's look-ahead sums over `TransitionModel::successors`,
        // which iterates a `HashMap` in per-process random order: the float
        // sum (and, on near-ties, the chosen action) then differs from one
        // process to the next, so runs stop being reproducible. Greedy
        // per-agent exploitation keeps every run byte-identical.
        let config = config.with_seed(req.seed).with_cooperative_lookahead(false);
        Box::new(MamutController::new(config).expect("paper config is valid"))
    })
}

fn run_sharded(shape: &Shape, options: Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let arrivals: Vec<Vec<SessionRequest>> = (0..shape.shards)
        .map(|shard| shape.arrivals(shard, options.seed))
        .collect();
    let offered: Vec<(u64, u64)> = arrivals
        .iter()
        .map(|a| (a.len() as u64, a.iter().map(|r| r.frames).sum()))
        .collect();
    let realize_s = started.elapsed().as_secs_f64();

    let built = Instant::now();
    let probes = Probes::new(options, shape.shards);
    let mut sharded = ShardedFleetSim::new(ShardConfig::default());
    for (shard, arrivals) in arrivals.into_iter().enumerate() {
        let mut sim = FleetSim::new(
            FleetConfig::default()
                .with_epoch_s(SHARDED_EPOCH_S)
                .with_worker_threads(options.workers),
            Probes::dispatcher(&probes, Box::new(LeastLoaded::new())),
            Workload::replay(arrivals),
        );
        for _ in 0..shape.nodes_per_shard {
            sim.add_node(Probes::factory(&probes, fixed_factory()));
        }
        if options.probes {
            // The hold-only probe never commissions, so the provisioner
            // is never consulted.
            sim.set_autoscaler(
                Probes::scaler(&probes, Box::new(HoldScaler), shard),
                Box::new(|| (Platform::xeon_e5_2667_v4(), fixed_factory())),
            );
            sim.set_rebalancer(Probes::rebalancer(
                &probes,
                Box::new(EmptyRebalancer),
                shard,
            ));
        }
        sharded.add_shard(format!("cell{shard}"), sim);
    }
    let build_s = built.elapsed().as_secs_f64();

    let (summary, run_s, spans) = timed_run(&probes, || sharded.run())?;
    let trace = sharded.trace();
    let encoded = Instant::now();
    let bytes = trace.encode();
    let encode_s = encoded.elapsed().as_secs_f64();
    std::hint::black_box(bytes);

    let shards: Vec<&FleetSummary> = summary.shards.iter().map(|(_, s)| s).collect();
    let counts = Counts {
        arrivals: offered.iter().map(|o| o.0).sum(),
        offered_frames: offered.iter().map(|o| o.1).sum(),
        frames: summary.total_frames(),
        sessions: summary.total_sessions(),
        rejected: shards.iter().map(|s| s.rejected_sessions).sum(),
        shed: shards.iter().map(|s| s.shed_sessions).sum(),
        frames_lost: shards.iter().map(|s| s.frames_lost).sum(),
        epochs: summary.epochs,
        node_epochs: summary.node_epochs(),
        overflow_migrations: summary.inter_shard_migrations,
        knowledge_syncs: summary.knowledge_syncs,
        crashes: shards.iter().map(|s| s.crashes).sum(),
        frames_redone: shards.iter().map(|s| s.frames_redone).sum(),
        checkpoints: shards.iter().map(|s| s.checkpoints).sum(),
        trace_events: shards.iter().map(|s| s.trace_events).sum(),
        publishes: 0,
        seeds_served: 0,
        seed_attempts: 0,
        rate_epochs: None,
    };
    let text = summary.to_string();
    // Controllers flush their timings when dropped with the fleet.
    drop(sharded);
    Ok(Outcome {
        summary: text,
        counts,
        shards: shape.shards,
        realize_s,
        build_s,
        run_s,
        encode_s,
        spans,
        core: probes.map(|p| p.core.take()),
    })
}

/// The scripted chaos of `elastic_mamut`: two crashes and a thermal
/// throttle during the second day's ramp, replacements after 2 epochs.
fn elastic_fault_plan(small: bool) -> FaultPlan {
    let (crash_a, throttle, crash_b) = if small { (5, 6, 7) } else { (21, 23, 25) };
    FaultPlan::new()
        .with_crash(crash_a, 1)
        .with_throttle(throttle, 0, 1.8, 4)
        .with_crash(crash_b, 2)
        .with_replacement_delay(2)
}

/// The `elastic_mamut` scenario for `seed`: the catalog's `daily_vod`
/// shape (three diurnal VOD days) reseeded, or one quieter day when
/// shrunk for tests.
fn elastic_scenario(seed: u64, small: bool) -> Scenario {
    let day_one = catalog::daily_vod().seed();
    if small {
        Scenario::new("daily_vod_small", day_one.wrapping_add(seed)).then(Phase::Diurnal {
            duration_s: catalog::DAY_S,
            mean_rate_hz: 1.0,
            amplitude: 0.85,
            period_s: catalog::DAY_S,
            phase_offset_s: 0.75 * catalog::DAY_S,
            mix: MixProfile::vod_heavy(),
        })
    } else {
        catalog::daily_vod().with_seed(day_one.wrapping_add(seed))
    }
}

fn run_elastic(options: Options) -> Result<Outcome, String> {
    let started = Instant::now();
    let realized = elastic_scenario(options.seed, options.small)
        .realize()
        .map_err(|e| format!("scenario realization failed: {e}"))?;
    let workload = realized.workload();
    let marks = realized.phase_marks(SWEEP_EPOCH_S);
    let scaler = sizing::seasonal_sweep_scaler(&realized).with_limits(2, 64);
    let arrivals = realized.len() as u64;
    let offered_frames: u64 = realized.arrivals.iter().map(|r| r.frames).sum();
    drop(realized);
    let realize_s = started.elapsed().as_secs_f64();

    let built = Instant::now();
    let probes = Probes::new(options, 1);
    let store: SharedKnowledgeStore = KnowledgeStore::new(MergePolicy::VisitWeighted).into_shared();
    let gated = AdmissionGated::new(
        Box::new(LeastLoaded::new()),
        Platform::xeon_e5_2667_v4(),
        24.0,
        GateMode::Queue,
    );
    let mut fleet = FleetSim::new(
        FleetConfig::default()
            .with_epoch_s(SWEEP_EPOCH_S)
            .with_worker_threads(options.workers),
        Probes::dispatcher(&probes, Box::new(gated)),
        workload,
    );
    for _ in 0..2 {
        fleet.add_node(warm_start_factory(
            Arc::clone(&store),
            Probes::factory(&probes, mamut_factory()),
        ));
    }
    fleet.set_knowledge_store(Arc::clone(&store));
    let core = probes.as_ref().map(|p| Arc::clone(&p.core));
    let provisioner: NodeProvisioner = Box::new(move || {
        // The fleet wraps this cold factory in the warm start itself.
        let cold = match &core {
            Some(core) => core.wrap(mamut_factory()),
            None => mamut_factory(),
        };
        (Platform::xeon_e5_2667_v4(), cold)
    });
    fleet.set_autoscaler(Probes::scaler(&probes, Box::new(scaler), 0), provisioner);
    fleet.set_rebalancer(Probes::rebalancer(
        &probes,
        Box::new(PowerQosBalance::new().with_min_gap(0.3).with_max_moves(2)),
        0,
    ));
    fleet.set_checkpoint_policy(CheckpointPolicy::every(4));
    fleet.set_fault_plan(elastic_fault_plan(options.small));
    fleet.set_phase_marks(marks);
    fleet.set_telemetry(TelemetryMode::Full);
    let build_s = built.elapsed().as_secs_f64();

    let (summary, run_s, spans) = timed_run(&probes, || fleet.run())?;
    let trace = fleet.trace();
    let encoded = Instant::now();
    let bytes = trace.encode();
    let encode_s = encoded.elapsed().as_secs_f64();
    std::hint::black_box(bytes);

    let (publishes, seeds_served, seed_attempts) = {
        let store = store
            .lock()
            .map_err(|_| "knowledge store poisoned".to_owned())?;
        (
            store.publishes(),
            store.seeds_served(),
            store.seed_attempts(),
        )
    };
    let rate_epochs = fleet.nodes().iter().map(|n| n.server().rate_epochs()).sum();
    let counts = Counts {
        arrivals,
        offered_frames,
        frames: summary.total_frames,
        sessions: summary.total_sessions,
        rejected: summary.rejected_sessions,
        shed: summary.shed_sessions,
        frames_lost: summary.frames_lost,
        epochs: summary.epochs,
        node_epochs: summary.node_epochs,
        overflow_migrations: 0,
        knowledge_syncs: 0,
        crashes: summary.crashes,
        frames_redone: summary.frames_redone,
        checkpoints: summary.checkpoints,
        trace_events: summary.trace_events,
        publishes,
        seeds_served,
        seed_attempts,
        rate_epochs: Some(rate_epochs),
    };
    let text = summary.to_string();
    drop(fleet);
    Ok(Outcome {
        summary: text,
        counts,
        shards: 1,
        realize_s,
        build_s,
        run_s,
        encode_s,
        spans,
        core: probes.map(|p| p.core.take()),
    })
}
