//! Layer probes: wrappers around the public trait objects the fleet
//! accepts, timing every call into a layer from outside the program.
//!
//! * [`Recorder`] receives a timestamped mark at each coordinator-thread
//!   boundary call (autoscaler plan, dispatch, rebalancer plan) and tiles
//!   the wall time of `run()` into named windows — every nanosecond
//!   between the run's start and end lands in exactly one window.
//! * [`TimedController`] times the per-frame `Controller` callbacks on
//!   the node worker threads and the knowledge seed into a new
//!   controller.
//! * [`HoldScaler`] and [`EmptyRebalancer`] are the epoch-boundary probes
//!   attached to workloads that have no scaler or rebalancer of their
//!   own: they never change the pool or move a session.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mamut_core::snapshot::{PolicySnapshot, SnapshotError};
use mamut_core::{Constraints, Controller, KnobSettings, Observation, Sequencer};
use mamut_fleet::{
    Autoscaler, ControllerFactory, DispatchDecision, Dispatcher, MigrationDirective, NodeView,
    PolicySource, Rebalancer, ScaleDecision, ScaleSignals, SessionRequest,
};

/// Locks a probe's shared state. The benchmark's own mutexes are only
/// poisoned if a probe panicked mid-update, which is a bug here.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().expect("probe state poisoned by a panicking probe")
}

/// The coordinator windows `run()` wall time is tiled into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Window {
    /// `run()` entry to the first autoscaler probe: run set-up plus the
    /// first epoch top of shard 0.
    Begin,
    /// Inside `Autoscaler::plan`.
    Autoscale,
    /// Autoscaler return to the first dispatch of the epoch: pool-size
    /// record and the dispatch view build.
    PreDispatch,
    /// Inside `Dispatcher::dispatch`.
    Policy,
    /// Between two dispatch calls of one round: admit, node refresh and
    /// view patch (minus knowledge seeding).
    Admit,
    /// Knowledge seeding into freshly built controllers.
    Seed,
    /// Last dispatch (or autoscaler) return to the rebalancer probe: the
    /// last admit of the round, utilization sampling, the node-advance
    /// fan-out, per-node record, harvest and the rebalance view build.
    Advance,
    /// Inside `Rebalancer::plan`.
    Rebalance,
    /// Rebalancer return to the next shard's (or, unsharded, the next
    /// epoch's) autoscaler probe: epoch close plus the next epoch top
    /// (dormant park, checkpoint capture, fault injection, scaler views).
    Post,
    /// Sharded only: the last shard's rebalancer return to shard 0's next
    /// autoscaler probe — overflow routing, knowledge sync, and shard 0's
    /// epoch top.
    Coord,
    /// Last rebalancer return to `run()` return: the final coordinator
    /// step, dormant-node settle and summary assembly.
    Finish,
}

impl Window {
    /// Every window, in report order.
    pub const ALL: [Window; 11] = [
        Window::Begin,
        Window::Autoscale,
        Window::PreDispatch,
        Window::Policy,
        Window::Admit,
        Window::Seed,
        Window::Advance,
        Window::Rebalance,
        Window::Post,
        Window::Coord,
        Window::Finish,
    ];
}

/// The last boundary call the coordinator made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    RunStart,
    ScalerIn,
    ScalerOut,
    DispatchIn,
    DispatchOut,
    RebalanceIn,
    RebalanceOut { shard: usize },
}

/// What the coordinator windows and boundary probes measured.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Seconds per [`Window`], indexed like [`Window::ALL`].
    pub window_s: [f64; 11],
    /// Per-call `Autoscaler::plan` durations (ns).
    pub autoscale_ns: Vec<u64>,
    /// Per-call `Dispatcher::dispatch` durations (ns).
    pub dispatch_ns: Vec<u64>,
    /// Dispatch calls that answered `Assign`.
    pub assigned: u64,
    /// Per-call `Rebalancer::plan` durations (ns).
    pub rebalance_ns: Vec<u64>,
    /// Migration directives the rebalancer returned.
    pub directives: u64,
    /// Lockstep epoch durations (ms), shard 0's probe to its next probe.
    pub epoch_ms: Vec<f64>,
    /// Knowledge seed latencies (ns), one per seed served.
    pub seed_ns: Vec<u64>,
}

impl Spans {
    /// Seconds attributed to `window`.
    pub fn window(&self, window: Window) -> f64 {
        self.window_s[window as usize]
    }

    /// Sum of every window: the recorder's own view of `run()` wall time.
    pub fn windows_total_s(&self) -> f64 {
        self.window_s.iter().sum()
    }
}

struct State {
    shards: usize,
    last: Mark,
    last_at: Instant,
    /// Seed time accrued since the last mark; moved out of whichever
    /// window the next mark closes.
    pending_seed_ns: u64,
    epoch_start: Option<Instant>,
    /// When shard 0's current epoch ended if no later epoch follows: the
    /// last rebalancer return seen.
    last_rebalance_out: Option<Instant>,
    spans: Spans,
}

/// Tiles `run()` wall time into [`Window`]s from the coordinator-thread
/// boundary calls. Shared by every probe of one run.
pub struct Recorder {
    state: Mutex<State>,
}

impl Recorder {
    /// A recorder for a fleet of `shards` lockstep shards (1 unsharded).
    pub fn new(shards: usize) -> Arc<Recorder> {
        Arc::new(Recorder {
            state: Mutex::new(State {
                shards,
                last: Mark::RunStart,
                last_at: Instant::now(),
                pending_seed_ns: 0,
                epoch_start: None,
                last_rebalance_out: None,
                spans: Spans::default(),
            }),
        })
    }

    /// Marks the instant right before `run()` is called.
    pub fn start(&self) {
        let mut s = lock(&self.state);
        s.last = Mark::RunStart;
        s.last_at = Instant::now();
        s.pending_seed_ns = 0;
        s.epoch_start = None;
        s.last_rebalance_out = None;
        s.spans = Spans::default();
    }

    /// Marks the instant right after `run()` returned and hands back
    /// everything measured.
    pub fn finish(&self) -> Spans {
        let now = Instant::now();
        let mut s = lock(&self.state);
        let window = match s.last {
            Mark::RunStart => Window::Begin,
            _ => Window::Finish,
        };
        close(&mut s, now, window);
        if let (Some(start), Some(end)) = (s.epoch_start.take(), s.last_rebalance_out) {
            s.spans.epoch_ms.push(ms(end - start));
        }
        std::mem::take(&mut s.spans)
    }

    fn scaler_in(&self, shard: usize) -> Instant {
        let now = Instant::now();
        let mut s = lock(&self.state);
        let window = match s.last {
            Mark::RunStart => Window::Begin,
            Mark::RebalanceOut { shard: prev } if s.shards > 1 && shard == 0 => {
                debug_assert_eq!(prev + 1, s.shards, "shards step in order");
                Window::Coord
            }
            _ => Window::Post,
        };
        close(&mut s, now, window);
        if shard == 0 {
            if let Some(start) = s.epoch_start.replace(now) {
                s.spans.epoch_ms.push(ms(now - start));
            }
        }
        s.last = Mark::ScalerIn;
        now
    }

    fn scaler_out(&self, started: Instant) {
        let now = Instant::now();
        let mut s = lock(&self.state);
        close(&mut s, now, Window::Autoscale);
        s.spans.autoscale_ns.push(ns(now - started));
        s.last = Mark::ScalerOut;
    }

    fn dispatch_in(&self) -> Instant {
        let now = Instant::now();
        let mut s = lock(&self.state);
        let window = match s.last {
            Mark::DispatchOut => Window::Admit,
            _ => Window::PreDispatch,
        };
        close(&mut s, now, window);
        s.last = Mark::DispatchIn;
        now
    }

    fn dispatch_out(&self, started: Instant, assigned: bool) {
        let now = Instant::now();
        let mut s = lock(&self.state);
        close(&mut s, now, Window::Policy);
        s.spans.dispatch_ns.push(ns(now - started));
        s.spans.assigned += u64::from(assigned);
        s.last = Mark::DispatchOut;
    }

    fn rebalance_in(&self) -> Instant {
        let now = Instant::now();
        let mut s = lock(&self.state);
        close(&mut s, now, Window::Advance);
        s.last = Mark::RebalanceIn;
        now
    }

    fn rebalance_out(&self, started: Instant, shard: usize, directives: usize) {
        let now = Instant::now();
        let mut s = lock(&self.state);
        close(&mut s, now, Window::Rebalance);
        s.spans.rebalance_ns.push(ns(now - started));
        s.spans.directives += directives as u64;
        s.last = Mark::RebalanceOut { shard };
        s.last_rebalance_out = Some(now);
    }

    fn seed(&self, seed_ns: u64) {
        let mut s = lock(&self.state);
        s.pending_seed_ns += seed_ns;
        s.spans.seed_ns.push(seed_ns);
    }
}

/// Attributes the time since the last mark to `window`, less any seed
/// time recorded inside it (which goes to [`Window::Seed`]).
fn close(s: &mut State, now: Instant, window: Window) {
    let elapsed = (now - s.last_at).as_secs_f64();
    let seed = (s.pending_seed_ns as f64 * 1e-9).min(elapsed);
    s.spans.window_s[window as usize] += elapsed - seed;
    s.spans.window_s[Window::Seed as usize] += seed;
    s.pending_seed_ns = 0;
    s.last_at = now;
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// An autoscaler probe that never changes the pool.
#[derive(Debug, Default)]
pub struct HoldScaler;

impl Autoscaler for HoldScaler {
    fn name(&self) -> &'static str {
        "hold"
    }

    fn plan(&mut self, _signals: &ScaleSignals) -> ScaleDecision {
        ScaleDecision::Hold
    }
}

/// A rebalancer probe that never moves a session.
#[derive(Debug, Default)]
pub struct EmptyRebalancer;

impl Rebalancer for EmptyRebalancer {
    fn name(&self) -> &'static str {
        "none"
    }

    fn plan(&mut self, _epoch: u64, _nodes: &[NodeView]) -> Vec<MigrationDirective> {
        Vec::new()
    }
}

/// Times `Autoscaler::plan` and marks the epoch top for the recorder.
pub struct TimedScaler {
    inner: Box<dyn Autoscaler>,
    recorder: Arc<Recorder>,
    shard: usize,
}

impl TimedScaler {
    /// Wraps `inner`, the autoscaler of shard `shard`.
    pub fn new(inner: Box<dyn Autoscaler>, recorder: Arc<Recorder>, shard: usize) -> Self {
        TimedScaler {
            inner,
            recorder,
            shard,
        }
    }
}

impl Autoscaler for TimedScaler {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, signals: &ScaleSignals) -> ScaleDecision {
        let started = self.recorder.scaler_in(self.shard);
        let decision = self.inner.plan(signals);
        self.recorder.scaler_out(started);
        decision
    }

    fn decision_source(&self) -> PolicySource {
        self.inner.decision_source()
    }

    fn decision_detail(&self) -> Option<String> {
        self.inner.decision_detail()
    }
}

/// Times `Dispatcher::dispatch`.
pub struct TimedDispatcher {
    inner: Box<dyn Dispatcher>,
    recorder: Arc<Recorder>,
}

impl TimedDispatcher {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Dispatcher>, recorder: Arc<Recorder>) -> Self {
        TimedDispatcher { inner, recorder }
    }
}

impl Dispatcher for TimedDispatcher {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn dispatch(&mut self, request: &SessionRequest, nodes: &[NodeView]) -> DispatchDecision {
        let started = self.recorder.dispatch_in();
        let decision = self.inner.dispatch(request, nodes);
        self.recorder
            .dispatch_out(started, matches!(decision, DispatchDecision::Assign(_)));
        decision
    }
}

/// Times `Rebalancer::plan` and marks the post-advance boundary.
pub struct TimedRebalancer {
    inner: Box<dyn Rebalancer>,
    recorder: Arc<Recorder>,
    shard: usize,
}

impl TimedRebalancer {
    /// Wraps `inner`, the rebalancer of shard `shard`.
    pub fn new(inner: Box<dyn Rebalancer>, recorder: Arc<Recorder>, shard: usize) -> Self {
        TimedRebalancer {
            inner,
            recorder,
            shard,
        }
    }
}

impl Rebalancer for TimedRebalancer {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn plan(&mut self, epoch: u64, nodes: &[NodeView]) -> Vec<MigrationDirective> {
        let started = self.recorder.rebalance_in();
        let plan = self.inner.plan(epoch, nodes);
        self.recorder.rebalance_out(started, self.shard, plan.len());
        plan
    }
}

/// Per-agent controller timings, merged from every controller of a run.
#[derive(Debug, Clone, Default)]
pub struct CoreSamples {
    /// `begin_frame` durations (ns) on each agent's schedule slots, in
    /// agent order (QP, threads, DVFS).
    pub decision_ns: [Vec<u32>; 3],
    /// `begin_frame` durations (ns) on NULL slots.
    pub null_ns: Vec<u32>,
    /// Total time inside `begin_frame` + `end_frame` (ns).
    pub busy_ns: u64,
}

impl CoreSamples {
    fn absorb(&mut self, other: &mut CoreSamples) {
        for (mine, theirs) in self.decision_ns.iter_mut().zip(&mut other.decision_ns) {
            mine.append(theirs);
        }
        self.null_ns.append(&mut other.null_ns);
        self.busy_ns += other.busy_ns;
    }
}

/// Where every [`TimedController`] of a run reports.
pub struct CoreProbe {
    sequencer: Sequencer,
    samples: Mutex<CoreSamples>,
    recorder: Arc<Recorder>,
}

impl CoreProbe {
    /// A probe classifying frames by `sequencer`'s agent slots and
    /// reporting seeds to `recorder`.
    pub fn new(sequencer: Sequencer, recorder: Arc<Recorder>) -> Arc<CoreProbe> {
        Arc::new(CoreProbe {
            sequencer,
            samples: Mutex::new(CoreSamples::default()),
            recorder,
        })
    }

    /// Takes the samples of every controller dropped so far.
    pub fn take(&self) -> CoreSamples {
        std::mem::take(&mut lock(&self.samples))
    }

    /// Wraps a cold controller factory so each controller it builds is
    /// timed.
    pub fn wrap(self: &Arc<Self>, base: ControllerFactory) -> ControllerFactory {
        let probe = Arc::clone(self);
        Box::new(move |request| {
            let inner = base(request);
            Box::new(TimedController {
                inner,
                probe: Arc::clone(&probe),
                local: CoreSamples::default(),
                built_at: Some(Instant::now()),
            })
        })
    }
}

/// Times one session's controller. Samples stay local to the controller
/// (it runs on whichever worker thread advances its node) and merge into
/// the shared probe when it is dropped.
pub struct TimedController {
    inner: Box<dyn Controller>,
    probe: Arc<CoreProbe>,
    local: CoreSamples,
    /// When the cold factory returned this controller; cleared by its
    /// first frame. A knowledge-only restore while set is a seed.
    built_at: Option<Instant>,
}

impl Drop for TimedController {
    fn drop(&mut self) {
        // Never panic in drop: a poisoned probe just loses these samples.
        if let Ok(mut shared) = self.probe.samples.lock() {
            shared.absorb(&mut self.local);
        }
    }
}

impl Controller for TimedController {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_frame(
        &mut self,
        frame: u64,
        obs: &Observation,
        constraints: &Constraints,
    ) -> Option<KnobSettings> {
        self.built_at = None;
        let started = Instant::now();
        let knobs = self.inner.begin_frame(frame, obs, constraints);
        let took = ns(started.elapsed());
        let sample = u32::try_from(took).unwrap_or(u32::MAX);
        match self.probe.sequencer.agent_at(frame) {
            Some(agent) if agent < 3 => self.local.decision_ns[agent].push(sample),
            _ => self.local.null_ns.push(sample),
        }
        self.local.busy_ns += took;
        knobs
    }

    fn end_frame(&mut self, frame: u64, obs: &Observation, constraints: &Constraints) {
        let started = Instant::now();
        self.inner.end_frame(frame, obs, constraints);
        self.local.busy_ns += ns(started.elapsed());
    }

    fn snapshot(&self) -> PolicySnapshot {
        self.inner.snapshot()
    }

    fn restore(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        let restored = self.inner.restore(snapshot);
        if let Some(built) = self.built_at {
            if snapshot.extra.is_empty() && restored.is_ok() {
                self.built_at = None;
                self.probe.recorder.seed(ns(built.elapsed()));
            }
        }
        restored
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}
