use mamut_core::{Constraints, Controller};
use mamut_platform::{Platform, PowerSensor, SessionLoad};

use crate::{RunSummary, SessionConfig, TranscodeError, TranscodeSession};

/// Work below this many cycles counts as frame completion (guards float
/// residue; one cycle at 3.2 GHz is ≈0.3 ns of work).
const COMPLETION_EPSILON_CYCLES: f64 = 1.0;

/// Power-observation smoothing window in seconds (≈ a RAPL sampling span).
const POWER_WINDOW_S: f64 = 0.25;

/// Outcome of one bounded simulation step.
enum BoundedStep {
    /// A frame completion was processed.
    Event,
    /// The time bound was reached first; the clock (and energy) advanced
    /// to the bound, in-flight frames stay anchored where they were.
    Boundary,
    /// No session has work in flight (everything finished or empty).
    Idle,
}

/// One session position on the server. Ids are slot indices and must
/// stay stable for the server's whole life, so a session migrated to
/// another node leaves a vacated slot behind instead of shifting its
/// neighbours.
enum SessionSlot {
    /// A session lives here (finished or not). Boxed: a vacated slot is
    /// a tombstone and should not keep a session-sized footprint.
    Occupied(Box<TranscodeSession>),
    /// The session that lived here was detached (migrated away).
    Vacated,
}

impl SessionSlot {
    fn get(&self) -> Option<&TranscodeSession> {
        match self {
            SessionSlot::Occupied(s) => Some(s),
            SessionSlot::Vacated => None,
        }
    }

    fn get_mut(&mut self) -> Option<&mut TranscodeSession> {
        match self {
            SessionSlot::Occupied(s) => Some(s),
            SessionSlot::Vacated => None,
        }
    }
}

/// Snapshot of a server's instantaneous load (dispatcher's view).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServerLoad {
    /// Sessions still transcoding (not yet through their playlists).
    pub active_sessions: usize,
    /// Threads those sessions collectively request.
    pub threads_demanded: u32,
    /// Hardware threads the platform offers.
    pub hw_threads: u32,
    /// Instantaneous power at the current knobs (W).
    pub power_w: f64,
}

impl ServerLoad {
    /// Thread demand as a fraction of hardware threads (can exceed 1.0
    /// when the box is oversubscribed).
    pub fn utilization(&self) -> f64 {
        if self.hw_threads == 0 {
            0.0
        } else {
            f64::from(self.threads_demanded) / f64::from(self.hw_threads)
        }
    }
}

/// Index min-heap of predicted completion deadlines, keyed by virtual
/// time with the session id as payload. Rebuilt wholesale on rate-epoch
/// bumps (Floyd heapify over the persistent buffer); between bumps the
/// only traffic is pop-the-earliest and push-the-successor, so the
/// steady-state cost per event is O(log sessions) with zero allocations.
#[derive(Debug, Default)]
struct DeadlineHeap {
    entries: Vec<(f64, u32)>,
}

impl DeadlineHeap {
    fn peek(&self) -> Option<(f64, u32)> {
        self.entries.first().copied()
    }

    fn push(&mut self, deadline: f64, id: u32) {
        self.entries.push((deadline, id));
        self.sift_up(self.entries.len() - 1);
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        if self.entries.is_empty() {
            return None;
        }
        let top = self.entries.swap_remove(0);
        if !self.entries.is_empty() {
            self.sift_down(0);
        }
        Some(top)
    }

    fn heapify(&mut self) {
        for i in (0..self.entries.len() / 2).rev() {
            self.sift_down(i);
        }
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.entries[i].0 < self.entries[parent].0 {
                self.entries.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.entries.len();
        loop {
            let left = 2 * i + 1;
            let right = left + 1;
            let mut min = i;
            if left < n && self.entries[left].0 < self.entries[min].0 {
                min = left;
            }
            if right < n && self.entries[right].0 < self.entries[min].0 {
                min = right;
            }
            if min == i {
                break;
            }
            self.entries.swap(i, min);
            i = min;
        }
    }
}

/// The hot per-session state of the event engine, hoisted out of the
/// session objects into dense arrays (indexed by slot id) plus the
/// cached rate-epoch aggregates. All buffers are persistent: steady-state
/// stepping reuses them without touching the allocator.
///
/// # The rate-epoch invariant
///
/// Between two *rate-epoch bumps* every active session's effective rate
/// (`dvfs-snapped freq · wpp(resolution, threads) · contention scale`),
/// the total thread demand, the throughput scale and the instantaneous
/// power draw are all constant — nothing in the model can move them
/// except a knob change, a session-set change, or a constraint change,
/// and each of those sets `dirty`. While clean, each in-flight frame's
/// completion instant is therefore a fixed point in time (its
/// `deadline`), and an event costs one heap pop + one push instead of an
/// O(sessions) model re-evaluation.
#[derive(Debug, Default)]
struct HotState {
    /// A knob/session-set/constraint change happened: the cached rates,
    /// aggregates and heap must be rebuilt before the next event.
    dirty: bool,
    /// Times the rate epoch was rebuilt (diagnostics: how incremental a
    /// run actually was).
    rate_epochs: u64,
    /// Per-slot effective rate in cycles/s (0.0 = slot not anchored).
    rate: Vec<f64>,
    /// Per-slot predicted completion time (NaN = needs re-anchoring).
    deadline: Vec<f64>,
    /// Per-slot thread knob the cached rate was derived from.
    threads: Vec<u32>,
    /// Per-slot frequency knob the cached rate was derived from.
    freq: Vec<f64>,
    /// Per-slot CTU row count the cached WPP factor was derived from
    /// (changes when a playlist advances across resolutions).
    ctu_rows: Vec<u32>,
    /// Epoch aggregate: total threads demanded by active sessions.
    total_threads: u32,
    /// Epoch aggregate: contention throughput scale at `total_threads`.
    scale: f64,
    /// Epoch aggregate: instantaneous power draw (W).
    power: f64,
    /// Active (in-flight) session ids in ascending order.
    active: Vec<u32>,
    /// Earliest-completion queue over the active sessions.
    heap: DeadlineHeap,
    /// Scratch: ids completing at the current event, ascending.
    due: Vec<u32>,
}

impl HotState {
    /// Registers a fresh slot (new or attached session).
    fn push_slot(&mut self) {
        self.rate.push(0.0);
        self.deadline.push(f64::NAN);
        self.threads.push(0);
        self.freq.push(0.0);
        self.ctu_rows.push(0);
    }

    /// Drops a slot's cached state (detached or finished session).
    fn clear_slot(&mut self, id: usize) {
        self.rate[id] = 0.0;
        self.deadline[id] = f64::NAN;
    }

    /// Rebuilds the earliest-completion heap from the active deadlines.
    fn rebuild_heap(&mut self) {
        let mut entries = std::mem::take(&mut self.heap.entries);
        entries.clear();
        entries.extend(
            self.active
                .iter()
                .map(|&id| (self.deadline[id as usize], id)),
        );
        self.heap.entries = entries;
        self.heap.heapify();
    }

    /// Earliest deadline among active sessions, or `None` when idle.
    /// The naive oracle scans the dense array (first minimum in id
    /// order); the engine peeks the heap — both must agree bitwise.
    fn next_deadline(&self, naive: bool) -> Option<f64> {
        if naive {
            let mut best: Option<f64> = None;
            for &id in &self.active {
                let d = self.deadline[id as usize];
                if best.is_none_or(|b| d < b) {
                    best = Some(d);
                }
            }
            best
        } else {
            self.heap.peek().map(|(d, _)| d)
        }
    }

    /// Collects every session due at `t` into `due`, ascending by id.
    /// Ties (bit-equal deadlines) complete together in both modes.
    fn collect_due(&mut self, t: f64, naive: bool) {
        self.due.clear();
        if naive {
            for &id in &self.active {
                if self.deadline[id as usize] <= t {
                    self.due.push(id);
                }
            }
        } else {
            while let Some((d, id)) = self.heap.peek() {
                if d <= t {
                    self.heap.pop();
                    self.due.push(id);
                } else {
                    break;
                }
            }
            self.due.sort_unstable();
        }
    }
}

/// The multi-user transcoding server: platform + sessions + virtual clock.
///
/// See the [crate documentation](crate) for the event-loop semantics and
/// the README's "Hot path" section for the incremental engine design
/// (rate epochs, lazy work anchoring, the deadline heap).
///
/// # Example
///
/// ```
/// use mamut_core::{FixedController, KnobSettings};
/// use mamut_transcode::{ServerSim, SessionConfig};
/// use mamut_video::catalog;
///
/// let mut server = ServerSim::with_default_platform();
/// for (i, name) in ["Kimono", "BQMall"].iter().enumerate() {
///     let spec = catalog::by_name(name).unwrap().with_frame_count(24).unwrap();
///     server.add_session(
///         SessionConfig::single_video(spec, i as u64),
///         Box::new(FixedController::new(KnobSettings::new(32, 6, 2.9))),
///     );
/// }
/// let summary = server.run_to_completion(1_000_000).unwrap();
/// assert_eq!(summary.sessions.len(), 2);
/// assert!(summary.mean_power_w > 40.0);
/// ```
pub struct ServerSim {
    platform: Platform,
    sessions: Vec<SessionSlot>,
    time: f64,
    sensor: PowerSensor,
    events: u64,
    hot: HotState,
    /// Count of resident sessions whose playlist is not yet exhausted —
    /// maintained on every transition so [`ServerSim::all_finished`]
    /// never rescans the slots.
    unfinished: usize,
    /// Frame threshold a [`ServerSim::run_frames`] call is driving
    /// toward (`u64::MAX` when no such call is active).
    milestone_frames: u64,
    /// Sessions still unfinished *and* below `milestone_frames`.
    milestone_pending: usize,
    /// Oracle mode: re-derive every rate from scratch on every event and
    /// use the linear earliest-completion scan. Only settable with the
    /// `oracle` feature; the engine must match it bit for bit.
    naive: bool,
    /// Thermal-throttle ceiling: when set, every session's effective
    /// frequency is clamped to this before the DVFS snap, without
    /// touching the controllers' announced knobs (they keep steering
    /// toward their targets and regain them when the cap lifts).
    freq_cap_ghz: Option<f64>,
}

impl std::fmt::Debug for ServerSim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerSim")
            .field("time", &self.time)
            .field("sessions", &self.sessions.len())
            .field("events", &self.events)
            .field("rate_epochs", &self.hot.rate_epochs)
            .finish_non_exhaustive()
    }
}

impl ServerSim {
    /// Creates a server over an explicit platform model.
    pub fn new(platform: Platform) -> Self {
        ServerSim {
            platform,
            sessions: Vec::new(),
            time: 0.0,
            sensor: PowerSensor::new(POWER_WINDOW_S),
            events: 0,
            hot: HotState {
                dirty: true,
                ..HotState::default()
            },
            unfinished: 0,
            milestone_frames: u64::MAX,
            milestone_pending: 0,
            naive: false,
            freq_cap_ghz: None,
        }
    }

    /// Creates a server over the paper's dual Xeon E5-2667 v4 platform.
    pub fn with_default_platform() -> Self {
        ServerSim::new(Platform::xeon_e5_2667_v4())
    }

    /// Switches this server to the naive oracle engine: every event
    /// re-derives the active set, thread total, throughput scale, power
    /// draw and per-session rates from scratch and finds the earliest
    /// completion by linear scan — no cache survives an event. Exists to
    /// *prove* the incremental bookkeeping right: equivalence tests
    /// drive a naive and an incremental twin through identical command
    /// sequences and require bit-identical outcomes, so any missed
    /// invalidation, stale aggregate, or heap-vs-scan disagreement
    /// surfaces as a divergence.
    ///
    /// Scope: both modes share the anchored-work arithmetic (that *is*
    /// the event semantics now), so this oracle checks the caching, not
    /// the physics. The physics are pinned separately — the
    /// hand-computation, epoch-slicing, migration frame-count and
    /// materialization tests, plus the summary digests `fleetbench`
    /// pins.
    #[cfg(feature = "oracle")]
    pub fn set_naive_engine(&mut self, naive: bool) {
        self.naive = naive;
    }

    /// How many times the cached rate vector was rebuilt so far. In a
    /// steady state (no knob churn, no session churn) this stays frozen
    /// while events keep flowing — the measure of how incremental a run
    /// actually was.
    pub fn rate_epochs(&self) -> u64 {
        self.hot.rate_epochs
    }

    /// Adds a session; returns its id.
    pub fn add_session(&mut self, config: SessionConfig, controller: Box<dyn Controller>) -> usize {
        let id = self.sessions.len();
        self.sessions
            .push(SessionSlot::Occupied(Box::new(TranscodeSession::new(
                id, config, controller,
            ))));
        self.hot.push_slot();
        self.hot.dirty = true;
        self.unfinished += 1;
        id
    }

    /// Detaches a session for migration to another server, leaving its
    /// slot vacated (ids of the remaining sessions do not move). The
    /// returned session carries its controller, playlist position,
    /// in-flight frame (with its remaining work materialized at the
    /// current clock) and QoS history; hand it to
    /// [`ServerSim::attach_session`] on the target server.
    ///
    /// Only meaningful when both servers' clocks agree (e.g. at a fleet
    /// epoch boundary) — the session's completion timestamps stay on the
    /// same virtual timeline.
    ///
    /// # Errors
    ///
    /// Returns [`TranscodeError::UnknownSession`] for a bad or already
    /// vacated id.
    pub fn detach_session(&mut self, id: usize) -> Result<TranscodeSession, TranscodeError> {
        let now = self.time;
        let rate = self.hot.rate.get(id).copied().unwrap_or(0.0);
        let slot = self
            .sessions
            .get_mut(id)
            .ok_or(TranscodeError::UnknownSession(id))?;
        match std::mem::replace(slot, SessionSlot::Vacated) {
            SessionSlot::Occupied(mut s) => {
                // The lazily accounted frame must travel with its true
                // remaining work: burn the cycles since its anchor at the
                // rate that was in force here.
                if let Some(fly) = s.in_flight.as_mut() {
                    if rate != 0.0 {
                        fly.work_remaining -= rate * (now - fly.anchor_time);
                        fly.anchor_time = now;
                    }
                }
                if !s.is_finished() {
                    self.unfinished -= 1;
                }
                self.hot.clear_slot(id);
                self.hot.dirty = true;
                Ok(*s)
            }
            SessionSlot::Vacated => Err(TranscodeError::UnknownSession(id)),
        }
    }

    /// Attaches a session detached from another server, assigning it a
    /// fresh id here (returned). The inverse of
    /// [`ServerSim::detach_session`].
    pub fn attach_session(&mut self, mut session: TranscodeSession) -> usize {
        let id = self.sessions.len();
        session.set_id(id);
        if !session.is_finished() {
            self.unfinished += 1;
        }
        self.sessions.push(SessionSlot::Occupied(Box::new(session)));
        self.hot.push_slot();
        self.hot.dirty = true;
        id
    }

    /// Current virtual time (seconds).
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Fast-forwards an *empty* server's clock to `target` without
    /// charging energy — a node commissioned mid-run by a fleet
    /// autoscaler did not exist (and drew no idle power) before that
    /// instant, but must join its peers time-aligned so sessions can
    /// migrate onto it at the next epoch boundary.
    ///
    /// # Errors
    ///
    /// [`TranscodeError::CannotAlignClock`] if the server holds any
    /// session (finished or not) or `target` lies behind the current
    /// clock — skipping time under live sessions would corrupt their
    /// QoS timelines.
    pub fn align_clock(&mut self, target: f64) -> Result<(), TranscodeError> {
        if !self.sessions.is_empty() || target < self.time {
            return Err(TranscodeError::CannotAlignClock {
                time: self.time,
                target,
                sessions: self.sessions.len(),
            });
        }
        self.time = target;
        Ok(())
    }

    /// Resident sessions in id order (vacated slots of migrated-away
    /// sessions are skipped, so ids may have gaps).
    pub fn sessions(&self) -> Vec<&TranscodeSession> {
        self.sessions.iter().filter_map(SessionSlot::get).collect()
    }

    /// One session by id.
    ///
    /// # Errors
    ///
    /// Returns [`TranscodeError::UnknownSession`] for a bad or vacated id.
    pub fn session(&self, id: usize) -> Result<&TranscodeSession, TranscodeError> {
        self.sessions
            .get(id)
            .and_then(SessionSlot::get)
            .ok_or(TranscodeError::UnknownSession(id))
    }

    /// Replaces a session's constraints mid-run (failure injection).
    ///
    /// # Errors
    ///
    /// Returns [`TranscodeError::UnknownSession`] for a bad or vacated id.
    pub fn set_constraints(
        &mut self,
        id: usize,
        constraints: Constraints,
    ) -> Result<(), TranscodeError> {
        self.sessions
            .get_mut(id)
            .and_then(SessionSlot::get_mut)
            .ok_or(TranscodeError::UnknownSession(id))?
            .set_constraints(constraints);
        self.hot.dirty = true;
        Ok(())
    }

    /// Applies new constraints to every session (e.g. a power-cap change).
    pub fn set_constraints_all(&mut self, constraints: Constraints) {
        for s in self.sessions.iter_mut().filter_map(SessionSlot::get_mut) {
            s.set_constraints(constraints);
        }
        self.hot.dirty = true;
    }

    /// Sets (or clears, with `None`) a thermal-throttle frequency ceiling
    /// in GHz. While capped, every session's effective clock is
    /// `min(knob, cap)` before the DVFS snap — power and throughput drop
    /// accordingly — but the controllers' announced knobs are untouched,
    /// so the server recovers its full rates the instant the cap lifts.
    pub fn set_freq_cap(&mut self, cap_ghz: Option<f64>) {
        if self.freq_cap_ghz != cap_ghz {
            self.freq_cap_ghz = cap_ghz;
            self.hot.dirty = true;
        }
    }

    /// The active thermal-throttle frequency ceiling, if any.
    pub fn freq_cap_ghz(&self) -> Option<f64> {
        self.freq_cap_ghz
    }

    /// A knob frequency clamped to the thermal ceiling (identity when
    /// no cap is in force).
    fn effective_freq(&self, freq_ghz: f64) -> f64 {
        match self.freq_cap_ghz {
            Some(cap) => freq_ghz.min(cap),
            None => freq_ghz,
        }
    }

    /// Serializes one session's complete dynamic state without
    /// disturbing it: the in-flight frame's remaining work is
    /// materialized at the current clock inside the byte stream (the
    /// same arithmetic [`ServerSim::detach_session`] applies), while the
    /// live session keeps its lazy anchor. Returns `None` for a bad or
    /// vacated id. Feed the bytes to
    /// [`TranscodeSession::restore_checkpoint`] to rebuild the session.
    pub fn checkpoint_session(&self, id: usize) -> Option<Vec<u8>> {
        let session = self.sessions.get(id).and_then(SessionSlot::get)?;
        let rate = self.hot.rate.get(id).copied().unwrap_or(0.0);
        Some(session.checkpoint_bytes(rate, self.time))
    }

    /// The platform model.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The power sensor (lifetime energy, windowed averages).
    pub fn sensor(&self) -> &PowerSensor {
        &self.sensor
    }

    /// Whether every resident session has finished its playlist (vacated
    /// slots count as done — their work continues elsewhere). O(1): the
    /// engine maintains the unfinished count across every transition.
    pub fn all_finished(&self) -> bool {
        self.unfinished == 0
    }

    /// Runs until all sessions finish or the event budget is exhausted.
    ///
    /// # Errors
    ///
    /// [`TranscodeError::NoSessions`] if nothing was added;
    /// [`TranscodeError::EventBudgetExhausted`] if `max_events` elapsed
    /// first (a guard against misconfigured runs, not a normal outcome).
    pub fn run_to_completion(&mut self, max_events: u64) -> Result<RunSummary, TranscodeError> {
        if self.sessions.is_empty() {
            return Err(TranscodeError::NoSessions);
        }
        let start_events = self.events;
        while !self.all_finished() {
            if self.events - start_events >= max_events {
                return Err(TranscodeError::EventBudgetExhausted {
                    events: self.events - start_events,
                });
            }
            self.step();
        }
        Ok(self.summary())
    }

    /// Runs until every session has completed at least `frames` frames or
    /// finished, within the event budget. The done-check is a maintained
    /// counter (sessions still below the threshold), updated as frames
    /// complete — not a per-event rescan of every slot.
    ///
    /// # Errors
    ///
    /// Same as [`ServerSim::run_to_completion`].
    pub fn run_frames(
        &mut self,
        frames: u64,
        max_events: u64,
    ) -> Result<RunSummary, TranscodeError> {
        if self.sessions.is_empty() {
            return Err(TranscodeError::NoSessions);
        }
        let start_events = self.events;
        self.milestone_frames = frames;
        self.milestone_pending = self
            .sessions
            .iter()
            .filter_map(SessionSlot::get)
            .filter(|s| !s.is_finished() && s.frames_completed() < frames)
            .count();
        let result = loop {
            if self.milestone_pending == 0 {
                break Ok(self.summary());
            }
            if self.events - start_events >= max_events {
                break Err(TranscodeError::EventBudgetExhausted {
                    events: self.events - start_events,
                });
            }
            if !self.step() {
                // Unreachable while pending > 0 (an unfinished session
                // always has a frame to run), but never spin on Idle.
                break Ok(self.summary());
            }
        };
        self.milestone_frames = u64::MAX;
        self.milestone_pending = 0;
        result
    }

    /// Advances the simulation by one event (the next frame completion).
    ///
    /// Returns `false` when everything is finished (no event processed).
    pub fn step(&mut self) -> bool {
        matches!(self.step_bounded(f64::INFINITY), BoundedStep::Event)
    }

    /// Rebuilds the rate epoch at the current clock: starts any pending
    /// frames (controller decisions), re-derives the active set, thread
    /// total, contention scale, power draw and per-session rates, and
    /// re-anchors exactly the frames whose effective rate actually
    /// changed (bitwise) — everyone else keeps their deadline, so an
    /// epoch bump perturbs nothing it does not have to.
    fn rebuild_epoch(&mut self) {
        let now = self.time;
        let cap = self.freq_cap_ghz;
        let eff = |freq_ghz: f64| match cap {
            Some(c) => freq_ghz.min(c),
            None => freq_ghz,
        };
        self.hot.rate_epochs += 1;

        // 1. Every unfinished session gets a frame in flight.
        for id in 0..self.sessions.len() {
            let Some(s) = self.sessions[id].get_mut() else {
                continue;
            };
            if !s.is_finished() && s.in_flight.is_none() {
                self.hot.deadline[id] = f64::NAN; // fresh frame: anchor below
                if !s.start_next_frame(now) {
                    // Playlist exhausted on the spot.
                    let frames = s.frames_completed();
                    self.unfinished -= 1;
                    self.hot.clear_slot(id);
                    if self.milestone_frames != u64::MAX && frames < self.milestone_frames {
                        self.milestone_pending = self.milestone_pending.saturating_sub(1);
                    }
                }
            }
        }

        // 2. Active set + aggregates (id order = float summation order).
        self.hot.active.clear();
        let mut total: u32 = 0;
        for (id, slot) in self.sessions.iter().enumerate() {
            let Some(s) = slot.get() else { continue };
            if s.in_flight.is_some() {
                self.hot.active.push(id as u32);
                total += s.knobs().threads;
            }
        }
        self.hot.total_threads = total;
        if self.hot.active.is_empty() {
            self.hot.rebuild_heap(); // empties the queue
            self.hot.dirty = false;
            return;
        }
        self.hot.scale = self.platform.throughput_scale(total);
        let sessions = &self.sessions;
        self.hot.power = self
            .platform
            .power_draw_for(self.hot.active.iter().map(|&id| {
                let k = sessions[id as usize]
                    .get()
                    .expect("active slot is occupied")
                    .knobs();
                SessionLoad::new(k.threads, eff(k.freq_ghz))
            }));

        // 3. Per-session rates; re-anchor only on a real change.
        for idx in 0..self.hot.active.len() {
            let id = self.hot.active[idx] as usize;
            let s = self.sessions[id]
                .get_mut()
                .expect("active slot is occupied");
            let k = s.knobs();
            let rows = s.resolution().ctu_rows();
            let level = self.platform.dvfs().nearest(eff(k.freq_ghz));
            let r_new = level.freq_ghz * 1e9 * s.wpp_speedup() * self.hot.scale;
            self.hot.threads[id] = k.threads;
            self.hot.freq[id] = k.freq_ghz;
            self.hot.ctu_rows[id] = rows;
            let r_old = self.hot.rate[id];
            if r_new.to_bits() != r_old.to_bits() || self.hot.deadline[id].is_nan() {
                let fly = s.in_flight.as_mut().expect("active has in-flight");
                if r_old != 0.0 {
                    fly.work_remaining -= r_old * (now - fly.anchor_time);
                }
                fly.anchor_time = now;
                self.hot.rate[id] = r_new;
                self.hot.deadline[id] = if fly.work_remaining <= COMPLETION_EPSILON_CYCLES {
                    now
                } else {
                    now + fly.work_remaining / r_new
                };
            }
        }

        // 4. Fresh earliest-completion queue.
        self.hot.rebuild_heap();
        self.hot.dirty = false;
    }

    /// Advances to the next frame completion, but never past virtual time
    /// `limit`: if the earliest completion lies beyond it, the clock and
    /// energy advance to `limit` exactly and every in-flight frame stays
    /// anchored — its deadline is a fixed instant, so crossing an epoch
    /// boundary cannot perturb any server's own event sequence. This is
    /// what lets a fleet advance many servers in lockstep epochs.
    fn step_bounded(&mut self, limit: f64) -> BoundedStep {
        if self.naive {
            self.hot.dirty = true;
        }
        if self.hot.dirty {
            self.rebuild_epoch();
        }
        let Some(t_next) = self.hot.next_deadline(self.naive) else {
            return BoundedStep::Idle;
        };
        debug_assert!(t_next >= self.time);

        // Next completion beyond the bound: charge energy up to the bound
        // and stop there; deadlines are untouched. Frames that run dry
        // exactly at the bound complete within this epoch.
        if t_next > limit {
            let dt = limit - self.time;
            if dt > 0.0 {
                self.time = limit;
                self.sensor.record(self.hot.power, dt);
            }
            return BoundedStep::Boundary;
        }

        // Advance the clock and charge energy for the interval.
        let dt = t_next - self.time;
        self.time = t_next;
        self.sensor.record(self.hot.power, dt);
        let power_obs = self.sensor.window_average();

        // Complete every frame due now (ties complete together), start
        // successors, and keep the caches honest: a knob or resolution
        // change — or a session finishing — bumps the rate epoch; an
        // unchanged session just pushes its next deadline.
        self.hot.collect_due(t_next, self.naive);
        for k in 0..self.hot.due.len() {
            let id = self.hot.due[k] as usize;
            let (alive, frames_after) = {
                let s = self.sessions[id].get_mut().expect("due slot is occupied");
                s.complete_frame(t_next, power_obs);
                (s.start_next_frame(t_next), s.frames_completed())
            };
            if alive {
                let s = self.sessions[id].get().expect("due slot is occupied");
                let knobs = s.knobs();
                let rows = s.resolution().ctu_rows();
                if knobs.threads != self.hot.threads[id]
                    || knobs.freq_ghz.to_bits() != self.hot.freq[id].to_bits()
                    || rows != self.hot.ctu_rows[id]
                {
                    self.hot.dirty = true;
                    self.hot.deadline[id] = f64::NAN;
                } else {
                    let fly = s.in_flight.as_ref().expect("frame just started");
                    let d = if fly.work_remaining <= COMPLETION_EPSILON_CYCLES {
                        t_next
                    } else {
                        t_next + fly.work_remaining / self.hot.rate[id]
                    };
                    self.hot.deadline[id] = d;
                    if !self.hot.dirty {
                        self.hot.heap.push(d, id as u32);
                    }
                }
            } else {
                self.unfinished -= 1;
                self.hot.clear_slot(id);
                self.hot.dirty = true;
            }
            if self.milestone_frames != u64::MAX {
                let was_counted = frames_after <= self.milestone_frames;
                let now_counted = alive && frames_after < self.milestone_frames;
                if was_counted && !now_counted {
                    self.milestone_pending = self.milestone_pending.saturating_sub(1);
                }
            }
        }

        self.events += 1;
        BoundedStep::Event
    }

    /// Runs until virtual time `until`, processing every frame completion
    /// on the way. Unlike [`ServerSim::run_to_completion`] this is happy
    /// with an empty or fully finished server: the clock idles forward to
    /// `until` while the platform's idle power keeps being charged, so a
    /// fleet's drained node stays time-aligned (and power-accounted) with
    /// its busy peers.
    ///
    /// Returns the number of events processed in this epoch.
    ///
    /// # Errors
    ///
    /// [`TranscodeError::EventBudgetExhausted`] if more than `max_events`
    /// completions fire before `until` is reached.
    pub fn run_epoch(&mut self, until: f64, max_events: u64) -> Result<u64, TranscodeError> {
        let start_events = self.events;
        while self.time < until {
            if self.events - start_events >= max_events {
                return Err(TranscodeError::EventBudgetExhausted {
                    events: self.events - start_events,
                });
            }
            match self.step_bounded(until) {
                BoundedStep::Event => {}
                BoundedStep::Boundary => break,
                BoundedStep::Idle => {
                    let dt = until - self.time;
                    self.sensor.record(self.platform.power_draw(&[]), dt);
                    self.time = until;
                    break;
                }
            }
        }
        Ok(self.events - start_events)
    }

    /// Instantaneous load of the server: what a fleet dispatcher inspects
    /// before placing the next session. Cold path (once per placement
    /// query, never per event), so it favors the straightforward
    /// collect over the engine's allocation-free machinery.
    pub fn load(&self) -> ServerLoad {
        let loads: Vec<SessionLoad> = self
            .sessions
            .iter()
            .filter_map(SessionSlot::get)
            .filter(|s| !s.is_finished())
            .map(|s| {
                let k = s.knobs();
                SessionLoad::new(k.threads, self.effective_freq(k.freq_ghz))
            })
            .collect();
        ServerLoad {
            active_sessions: loads.len(),
            threads_demanded: loads.iter().map(|l| l.threads).sum(),
            hw_threads: self.platform.topology().hw_threads(),
            power_w: self.platform.power_draw(&loads),
        }
    }

    /// Builds the summary of everything measured so far.
    pub fn summary(&self) -> RunSummary {
        RunSummary::from_server(self)
    }

    /// Consumes the server, returning each resident session's controller
    /// in id order (migrated-away sessions took their controllers with
    /// them) — used to carry trained controllers into a follow-up run.
    pub fn into_controllers(self) -> Vec<Box<dyn Controller>> {
        self.sessions
            .into_iter()
            .filter_map(|slot| match slot {
                SessionSlot::Occupied(s) => Some(s.into_controller()),
                SessionSlot::Vacated => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamut_core::{FixedController, KnobSettings};
    use mamut_video::catalog;

    fn hr_spec(frames: u64) -> mamut_video::SequenceSpec {
        catalog::by_name("Kimono")
            .unwrap()
            .with_frame_count(frames)
            .unwrap()
    }

    fn lr_spec(frames: u64) -> mamut_video::SequenceSpec {
        catalog::by_name("BQMall")
            .unwrap()
            .with_frame_count(frames)
            .unwrap()
    }

    fn fixed(threads: u32, freq: f64) -> Box<dyn Controller> {
        Box::new(FixedController::new(KnobSettings::new(32, threads, freq)))
    }

    #[test]
    fn empty_server_errors() {
        let mut srv = ServerSim::with_default_platform();
        assert_eq!(
            srv.run_to_completion(10).unwrap_err(),
            TranscodeError::NoSessions
        );
    }

    #[test]
    fn single_hr_session_completes_all_frames() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(50), 1), fixed(10, 3.2));
        let summary = srv.run_to_completion(10_000).unwrap();
        assert_eq!(summary.sessions[0].frames, 50);
        assert!(srv.all_finished());
        assert!(srv.time() > 0.0);
    }

    #[test]
    fn hr_at_full_knobs_is_real_time() {
        // Fig. 2 envelope: 10 threads @ 3.2 GHz comfortably exceeds 24 FPS.
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(100), 1), fixed(10, 3.2));
        let summary = srv.run_to_completion(10_000).unwrap();
        assert!(
            summary.sessions[0].mean_fps > 24.0,
            "mean fps = {}",
            summary.sessions[0].mean_fps
        );
        assert!(summary.sessions[0].violation_percent < 20.0);
    }

    #[test]
    fn hr_single_thread_misses_realtime() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(30), 1), fixed(1, 3.2));
        let summary = srv.run_to_completion(10_000).unwrap();
        assert_eq!(summary.sessions[0].violation_percent, 100.0);
    }

    #[test]
    fn contention_slows_everyone() {
        let run = |n: usize| {
            let mut srv = ServerSim::with_default_platform();
            for i in 0..n {
                srv.add_session(
                    SessionConfig::single_video(hr_spec(40), i as u64),
                    fixed(12, 3.2),
                );
            }
            srv.run_to_completion(100_000).unwrap().sessions[0].mean_fps
        };
        let alone = run(1);
        let crowded = run(4); // 48 threads on a 32-hw-thread box
        assert!(
            crowded < alone * 0.8,
            "alone = {alone}, crowded = {crowded}"
        );
    }

    #[test]
    fn power_rises_with_load() {
        let run = |n: usize| {
            let mut srv = ServerSim::with_default_platform();
            for i in 0..n {
                srv.add_session(
                    SessionConfig::single_video(lr_spec(40), i as u64),
                    fixed(4, 2.9),
                );
            }
            srv.run_to_completion(100_000).unwrap().mean_power_w
        };
        let one = run(1);
        let four = run(4);
        assert!(four > one + 5.0, "one = {one}, four = {four}");
    }

    #[test]
    fn virtual_time_matches_work_rate_hand_computation() {
        // One LR session, fixed knobs, known model: the first frame's wall
        // time must equal work / (freq · wpp · 1.0).
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(lr_spec(1), 7), fixed(4, 3.2));
        srv.step();
        let s = srv.session(0).unwrap();
        assert!(s.is_finished() || s.frames_completed() == 1);
        let speedup = mamut_encoder::wpp::speedup_at(s.resolution(), 4);
        // time = work / rate; reconstruct work from the recorded fps.
        let fps = s.mean_fps();
        let implied_work = 3.2e9 * speedup / fps;
        assert!(
            implied_work > 1e8 && implied_work < 1e9,
            "work = {implied_work}"
        );
    }

    #[test]
    fn run_frames_stops_early() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(500), 1), fixed(10, 3.2));
        let summary = srv.run_frames(20, 100_000).unwrap();
        assert!(summary.sessions[0].frames >= 20);
        assert!(summary.sessions[0].frames < 500);
    }

    #[test]
    fn run_frames_twice_reuses_the_milestone_counter_correctly() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(500), 1), fixed(10, 3.2));
        srv.add_session(SessionConfig::single_video(lr_spec(30), 2), fixed(4, 2.6));
        srv.run_frames(20, 100_000).unwrap();
        // Second call: the LR session finishes before reaching 200 frames,
        // the HR one must still be driven to the new milestone.
        let summary = srv.run_frames(200, 1_000_000).unwrap();
        assert!(summary.sessions[0].frames >= 200);
        assert_eq!(summary.sessions[1].frames, 30);
    }

    #[test]
    fn event_budget_guard_fires() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(500), 1), fixed(10, 3.2));
        assert!(matches!(
            srv.run_to_completion(5),
            Err(TranscodeError::EventBudgetExhausted { events: 5 })
        ));
    }

    #[test]
    fn determinism_same_setup_same_results() {
        let run = || {
            let mut srv = ServerSim::with_default_platform();
            srv.add_session(SessionConfig::single_video(hr_spec(60), 42), fixed(8, 2.9));
            srv.add_session(SessionConfig::single_video(lr_spec(60), 43), fixed(4, 2.6));
            let s = srv.run_to_completion(100_000).unwrap();
            (s.duration_s, s.mean_power_w, s.sessions[0].mean_fps)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn into_controllers_returns_all() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(5), 1), fixed(8, 2.9));
        srv.add_session(SessionConfig::single_video(lr_spec(5), 2), fixed(4, 2.6));
        srv.run_to_completion(10_000).unwrap();
        let ctls = srv.into_controllers();
        assert_eq!(ctls.len(), 2);
        assert_eq!(ctls[0].name(), "fixed");
    }

    #[test]
    fn run_epoch_stops_exactly_at_the_boundary() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(500), 1), fixed(10, 3.2));
        srv.run_epoch(0.5, 100_000).unwrap();
        assert_eq!(srv.time(), 0.5);
        let mid_frames = srv.session(0).unwrap().frames_completed();
        assert!(mid_frames > 0, "an epoch should complete frames");
        srv.run_epoch(1.0, 100_000).unwrap();
        assert_eq!(srv.time(), 1.0);
        assert!(srv.session(0).unwrap().frames_completed() > mid_frames);
    }

    #[test]
    fn epoch_slicing_matches_an_unsliced_run() {
        // Advancing in epochs must not perturb the event sequence: same
        // final state as one uninterrupted run. With anchored deadlines
        // this is exact by construction — a boundary touches the clock,
        // never the frames.
        // Both runs cover the same horizon (completion plus an idle tail)
        // so the energy integrals are directly comparable.
        let horizon = 10.0;
        let run_sliced = |epoch: f64| {
            let mut srv = ServerSim::with_default_platform();
            srv.add_session(SessionConfig::single_video(hr_spec(60), 42), fixed(8, 2.9));
            srv.add_session(SessionConfig::single_video(lr_spec(60), 43), fixed(4, 2.6));
            let mut t = 0.0;
            while t < horizon {
                t += epoch;
                srv.run_epoch(t.min(horizon), 100_000).unwrap();
            }
            assert!(srv.all_finished(), "horizon must cover the whole run");
            let s = srv.summary();
            (s.energy_j, s.sessions[0].mean_fps, s.sessions[1].mean_fps)
        };
        let mut whole = ServerSim::with_default_platform();
        whole.add_session(SessionConfig::single_video(hr_spec(60), 42), fixed(8, 2.9));
        whole.add_session(SessionConfig::single_video(lr_spec(60), 43), fixed(4, 2.6));
        whole.run_to_completion(100_000).unwrap();
        whole.run_epoch(horizon, 100_000).unwrap();
        let s = whole.summary();
        let unsliced = (s.energy_j, s.sessions[0].mean_fps, s.sessions[1].mean_fps);
        assert_eq!(run_sliced(0.25), unsliced);
        assert_eq!(run_sliced(1.0), unsliced);
    }

    #[test]
    fn idle_server_advances_clock_and_charges_idle_power() {
        let mut srv = ServerSim::with_default_platform();
        let events = srv.run_epoch(2.0, 10).unwrap();
        assert_eq!(events, 0);
        assert_eq!(srv.time(), 2.0);
        let idle = srv.platform().idle_power_w();
        assert!((srv.sensor().lifetime_average() - idle).abs() < 1e-9);
    }

    #[test]
    fn load_reports_demand_and_drops_finished_sessions() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(5), 1), fixed(10, 3.2));
        srv.add_session(SessionConfig::single_video(lr_spec(400), 2), fixed(4, 2.6));
        srv.step(); // apply each controller's announced knobs
        let load = srv.load();
        assert_eq!(load.active_sessions, 2);
        assert_eq!(load.threads_demanded, 14);
        assert_eq!(load.hw_threads, 32);
        assert!(load.power_w > srv.platform().idle_power_w());
        assert!((load.utilization() - 14.0 / 32.0).abs() < 1e-12);
        // Let the short HR session finish: demand shrinks.
        srv.run_epoch(1_000.0, 1_000_000).unwrap();
        assert!(srv.load().active_sessions <= 1);
    }

    #[test]
    fn unknown_session_id_errors() {
        let srv = ServerSim::with_default_platform();
        assert!(matches!(
            srv.session(3),
            Err(TranscodeError::UnknownSession(3))
        ));
    }

    #[test]
    fn detach_vacates_the_slot_without_moving_neighbours() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(400), 1), fixed(8, 2.9));
        srv.add_session(SessionConfig::single_video(lr_spec(400), 2), fixed(4, 2.6));
        srv.run_epoch(1.0, 100_000).unwrap();
        let detached = srv.detach_session(0).unwrap();
        assert_eq!(detached.name(), "Kimono");
        assert!(detached.frames_completed() > 0);
        // Slot 0 is gone, slot 1 still answers to its old id.
        assert!(matches!(
            srv.session(0),
            Err(TranscodeError::UnknownSession(0))
        ));
        assert_eq!(srv.session(1).unwrap().name(), "BQMall");
        assert_eq!(srv.sessions().len(), 1);
        // Double detach is an error.
        assert!(srv.detach_session(0).is_err());
    }

    #[test]
    fn migrated_session_finishes_on_the_target_server() {
        let frames = 200;
        let mut a = ServerSim::with_default_platform();
        a.add_session(
            SessionConfig::single_video(hr_spec(frames), 1),
            fixed(8, 2.9),
        );
        let mut b = ServerSim::with_default_platform();
        a.run_epoch(1.0, 100_000).unwrap();
        b.run_epoch(1.0, 100_000).unwrap(); // clocks aligned at the boundary
        let done_before = a.session(0).unwrap().frames_completed();
        assert!(done_before > 0 && done_before < frames);
        let session = a.detach_session(0).unwrap();
        let new_id = b.attach_session(session);
        let moved = b.session(new_id).unwrap();
        assert_eq!(moved.id(), new_id);
        assert_eq!(moved.frames_completed(), done_before, "history travels");
        b.run_epoch(1_000.0, 1_000_000).unwrap();
        assert!(b.all_finished());
        assert_eq!(b.session(new_id).unwrap().frames_completed(), frames);
        // The source idles on: vacated slots never block completion.
        assert!(a.all_finished());
        a.run_epoch(2.0, 100).unwrap();
        assert_eq!(a.time(), 2.0);
    }

    #[test]
    fn align_clock_commissions_an_empty_server_without_energy() {
        let mut srv = ServerSim::with_default_platform();
        srv.align_clock(20.0).unwrap();
        assert_eq!(srv.time(), 20.0);
        assert_eq!(
            srv.sensor().total_energy_j(),
            0.0,
            "the skipped span was never powered"
        );
        assert_eq!(srv.sensor().total_time_s(), 0.0);
        // From here the server behaves like any other: idle power accrues.
        srv.run_epoch(22.0, 10).unwrap();
        assert_eq!(srv.time(), 22.0);
        assert!((srv.sensor().total_time_s() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn align_clock_refuses_sessions_and_backward_jumps() {
        let mut srv = ServerSim::with_default_platform();
        srv.run_epoch(5.0, 10).unwrap();
        assert_eq!(
            srv.align_clock(3.0).unwrap_err(),
            TranscodeError::CannotAlignClock {
                time: 5.0,
                target: 3.0,
                sessions: 0,
            }
        );
        srv.add_session(SessionConfig::single_video(hr_spec(10), 1), fixed(8, 2.9));
        assert!(matches!(
            srv.align_clock(9.0),
            Err(TranscodeError::CannotAlignClock { sessions: 1, .. })
        ));
    }

    #[test]
    fn mid_frame_work_survives_migration() {
        // Detach with a frame in flight: the partial frame's remaining
        // cycles continue on the target, so total completed frames match
        // an unmigrated run.
        let frames = 50;
        let run_unmigrated = || {
            let mut srv = ServerSim::with_default_platform();
            srv.add_session(
                SessionConfig::single_video(hr_spec(frames), 9),
                fixed(8, 2.9),
            );
            srv.run_to_completion(100_000).unwrap();
            srv.session(0).unwrap().frames_completed()
        };
        let mut a = ServerSim::with_default_platform();
        a.add_session(
            SessionConfig::single_video(hr_spec(frames), 9),
            fixed(8, 2.9),
        );
        a.run_epoch(0.33, 100_000).unwrap(); // boundary mid-frame
        let mut b = ServerSim::with_default_platform();
        b.run_epoch(0.33, 100_000).unwrap();
        let id = b.attach_session(a.detach_session(0).unwrap());
        b.run_epoch(1_000.0, 1_000_000).unwrap();
        assert_eq!(b.session(id).unwrap().frames_completed(), run_unmigrated());
    }

    #[test]
    fn detach_materializes_in_flight_work_at_the_boundary() {
        // A frame caught mid-encode by a migration must leave with its
        // true remaining work: exactly `total − rate · elapsed`, with the
        // rate recomputed here from first principles (DVFS snap × WPP ×
        // contention) rather than read from the engine's cache — an
        // independent check on the materialization arithmetic itself.
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(500), 3), fixed(8, 2.9));
        srv.run_epoch(0.333, 100_000).unwrap();
        let scale = srv.platform().throughput_scale(8);
        let level = srv.platform().dvfs().nearest(2.9);
        let s = srv.detach_session(0).unwrap();
        let rate = level.freq_ghz * 1e9 * s.wpp_speedup() * scale;
        let fly = s
            .in_flight
            .as_ref()
            .expect("a long run keeps frames in flight");
        let expected = fly.work_total - rate * (0.333 - fly.started_at);
        assert_eq!(
            fly.work_remaining.to_bits(),
            expected.to_bits(),
            "materialized work must be total − rate·elapsed: {} vs {}",
            fly.work_remaining,
            expected
        );
        assert!(fly.work_remaining > 0.0, "boundary lands mid-frame");
        assert!(fly.work_remaining < fly.work_total);
        assert_eq!(fly.anchor_time, 0.333, "anchor moves to the detach instant");
    }

    #[test]
    fn freq_cap_slows_throughput_and_lifts_cleanly() {
        let run = |cap: Option<f64>| {
            let mut srv = ServerSim::with_default_platform();
            srv.add_session(SessionConfig::single_video(hr_spec(400), 5), fixed(8, 3.2));
            srv.set_freq_cap(cap);
            srv.run_epoch(2.0, 100_000).unwrap();
            srv
        };
        let free = run(None);
        let capped = run(Some(1.2));
        let f_free = free.session(0).unwrap().frames_completed();
        let f_capped = capped.session(0).unwrap().frames_completed();
        assert!(
            f_capped < f_free,
            "throttle must cost frames: {f_capped} vs {f_free}"
        );
        assert!(capped.sensor().total_energy_j() < free.sensor().total_energy_j());
        // A cap above every knob is a no-op, bit for bit.
        let loose = run(Some(10.0));
        assert_eq!(
            loose.session(0).unwrap().frames_completed(),
            f_free,
            "a non-binding cap must not perturb the run"
        );
        assert_eq!(
            loose.sensor().total_energy_j().to_bits(),
            free.sensor().total_energy_j().to_bits()
        );
    }

    #[test]
    fn checkpoint_session_is_non_destructive() {
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(300), 11), fixed(8, 2.9));
        srv.run_epoch(0.7, 100_000).unwrap();
        let bytes = srv.checkpoint_session(0).expect("live slot");
        assert!(!bytes.is_empty());
        assert!(srv.checkpoint_session(5).is_none());
        // The capture must not perturb the ongoing run: a twin that never
        // checkpointed finishes bit-identically.
        let mut twin = ServerSim::with_default_platform();
        twin.add_session(SessionConfig::single_video(hr_spec(300), 11), fixed(8, 2.9));
        twin.run_epoch(0.7, 100_000).unwrap();
        srv.run_epoch(1_000.0, 1_000_000).unwrap();
        twin.run_epoch(1_000.0, 1_000_000).unwrap();
        assert_eq!(
            srv.sensor().total_energy_j().to_bits(),
            twin.sensor().total_energy_j().to_bits()
        );
        assert_eq!(
            srv.session(0).unwrap().frames_completed(),
            twin.session(0).unwrap().frames_completed()
        );
    }

    #[test]
    fn steady_state_run_bumps_the_rate_epoch_only_at_churn_points() {
        // Fixed controllers never change knobs after their first frame, so
        // the only epoch bumps are the initial build and the two session
        // finishes — thousands of events reuse the cached rate vector.
        let mut srv = ServerSim::with_default_platform();
        srv.add_session(SessionConfig::single_video(hr_spec(400), 1), fixed(10, 3.2));
        srv.add_session(SessionConfig::single_video(lr_spec(400), 2), fixed(4, 2.6));
        srv.run_to_completion(100_000).unwrap();
        assert!(srv.rate_epochs() <= 4, "epochs = {}", srv.rate_epochs());
        assert!(
            srv.session(0).unwrap().frames_completed() == 400
                && srv.session(1).unwrap().frames_completed() == 400
        );
    }
}
