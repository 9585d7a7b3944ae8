//! One fleet node: a [`ServerSim`] plus the bookkeeping a dispatcher
//! needs (a dense list of live sessions with load counters maintained on
//! every change) and the per-node controller factory that decides which
//! run-time manager — MAMUT, mono-agent, heuristic, fixed — drives
//! sessions placed here.

use mamut_core::{Controller, KnobSettings, PolicySnapshot};
use mamut_platform::{Platform, PowerTerm, SessionLoad};
use mamut_transcode::{
    RunSummary, ServerSim, StreamShape, TranscodeError, TranscodeSession, INITIAL_KNOBS,
};

use crate::dispatch::NodeView;
use crate::error::FleetError;
use crate::fault::SessionCheckpoint;
use crate::knowledge::{KnowledgeStore, SessionClass};
use crate::workload::SessionRequest;

/// A live session in transit between two nodes: the transcoding state
/// (controller included) plus the planning shape the dispatcher tracks
/// and the originating request (so a later crash of the new host can
/// still rebuild the session's controller through a factory).
pub struct MigratedSession {
    pub(crate) session: TranscodeSession,
    pub(crate) shape: StreamShape,
    pub(crate) request: SessionRequest,
}

impl MigratedSession {
    /// The travelling session (read access; ownership stays inside until
    /// it is attached somewhere).
    pub fn session(&self) -> &TranscodeSession {
        &self.session
    }
}

impl std::fmt::Debug for MigratedSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigratedSession")
            .field("name", &self.session.name())
            .field("frames_completed", &self.session.frames_completed())
            .finish_non_exhaustive()
    }
}

/// Builds a controller for a session arriving at this node.
///
/// Boxed and `Send` so nodes can move to worker threads between epochs.
/// Different nodes may use different factories — that is how a fleet
/// mixes MAMUT nodes with baseline-controlled ones in one run.
///
/// [`FleetNode::admit`] does not call it: the node builds its admitted
/// sessions at its next advance, in admission order, on whichever thread
/// pulls the node from the advance's queue (a worker or the
/// coordinator). A factory therefore runs during an advance, and the
/// controller it returns must depend only on the request and on
/// state nothing writes during an advance (the knowledge store is
/// written only between advances). A factory that panics fails the run
/// with [`FleetError::WorkerPanicked`].
pub type ControllerFactory = Box<dyn Fn(&SessionRequest) -> Box<dyn Controller> + Send>;

/// Where a node stands in its lifecycle. A fixed-pool fleet keeps every
/// node `Active` forever; an autoscaled fleet commissions nodes mid-run
/// and retires them again once their live sessions have been drained to
/// peers ("drain before decommission").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeState {
    /// In the pool: receives dispatches, advances every epoch, and is
    /// charged (at least idle) power.
    Active,
    /// Powered off. Takes no sessions, advances no further, draws no
    /// power; its accumulated statistics remain in the fleet report.
    Retired,
}

/// One entry of a node's live-session list.
struct Resident {
    /// Session id on the node's server.
    sid: usize,
    /// The arrival that created the session — what checkpoint capture
    /// and crash recovery need to rebuild it elsewhere.
    request: SessionRequest,
    /// Planning shape the dispatcher counts.
    shape: StreamShape,
    /// Knobs in force, read at arrival and at the end of every epoch
    /// (controllers only act while the server advances).
    knobs: KnobSettings,
    /// `(frames, violations)` when the epoch being simulated began, or
    /// at arrival if later — the baseline of the per-epoch QoS counters,
    /// so a stream that suffered through a long-past burst does not read
    /// as distressed forever.
    mark: (u64, u64),
    /// The session's power term at `knobs` under the throttle cap, kept
    /// until either moves.
    term: PowerTerm,
}

/// `(frames, violations)` a session has delivered so far.
fn qos_of(session: &TranscodeSession) -> (u64, u64) {
    (session.qos().frames(), session.qos().violations())
}

/// ∆ over `frames`: the percentage below the FPS target (0.0 without
/// frames).
pub(crate) fn delta_percent(violations: u64, frames: u64) -> f64 {
    if frames == 0 {
        0.0
    } else {
        100.0 * violations as f64 / frames as f64
    }
}

/// The power term of a session at `knobs` under `server`'s throttle cap
/// (the knob frequency clamped to the cap before the DVFS snap, as the
/// engine's rate rebuild does).
fn term_at(server: &ServerSim, knobs: KnobSettings) -> PowerTerm {
    let freq = server
        .freq_cap_ghz()
        .map_or(knobs.freq_ghz, |c| knobs.freq_ghz.min(c));
    server
        .platform()
        .power_term(SessionLoad::new(knobs.threads, freq))
}

/// One server in the fleet.
///
/// Live sessions sit in one dense list ordered by session id. The
/// counters next to it change only where that list changes — arrival,
/// departure, a throttle change, and the prune at the end of each
/// [`FleetNode::run_epoch`] — so a [`NodeView`] reads them in O(1).
/// That prune also archives the sessions that finished: the server keeps
/// only their summary rows, so memory and rate rebuilds scale with the
/// live sessions, not with every session the node has served.
///
/// Admission is bookkeeping: [`FleetNode::admit`] counts a session in
/// at [`INITIAL_KNOBS`] and queues it, and the node builds its queued
/// sessions at the top of its next [`FleetNode::run_epoch`], or first
/// thing in any method that reads or moves sessions.
pub struct FleetNode {
    id: usize,
    server: ServerSim,
    factory: ControllerFactory,
    power_cap_w: f64,
    state: NodeState,
    /// Unfinished sessions, ascending session id (the server hands out
    /// ids in increasing order, so arrivals append).
    live: Vec<Resident>,
    /// Admitted sessions not yet built on the server: the last `queued`
    /// entries of `live`.
    queued: usize,
    /// Σ planning-shape threads over `live`.
    planned_threads: u32,
    /// Σ knob threads over `live`.
    threads_demanded: u32,
    /// Power draw of `live`: its kept terms folded in session-id order,
    /// bit-identical to [`Platform::power_draw`] over the server's
    /// unfinished sessions once the queue is built.
    power_w: f64,
    /// Σ `(frames, violations)` − mark over `live`: QoS of the epoch
    /// just simulated.
    epoch_qos: (u64, u64),
    /// Σ `(frames, violations)` over every resident session, finished
    /// ones included.
    lifetime_qos: (u64, u64),
    /// `(session id, request id, lifetime frames)` of the sessions that
    /// finished during the last [`FleetNode::run_epoch`], in session-id
    /// order. Cleared when the next one starts.
    finished: Vec<(usize, u64, u64)>,
    /// Knowledge-only snapshots of the sessions that finished since the
    /// last [`FleetNode::harvest_finished`], in session-id order; `None`
    /// while the fleet has no knowledge store, so nothing is captured.
    captured: Option<Vec<(SessionClass, PolicySnapshot)>>,
    sessions_admitted: u64,
    sessions_migrated_in: u64,
    sessions_migrated_out: u64,
}

impl std::fmt::Debug for FleetNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetNode")
            .field("id", &self.id)
            .field("sessions_admitted", &self.sessions_admitted)
            .field("time", &self.server.time())
            .finish_non_exhaustive()
    }
}

impl FleetNode {
    /// Creates a node over `platform` with a power budget and a factory.
    pub fn new(
        id: usize,
        platform: Platform,
        power_cap_w: f64,
        factory: ControllerFactory,
    ) -> Self {
        let power_w = platform.power_draw(&[]);
        FleetNode {
            id,
            server: ServerSim::new(platform),
            factory,
            power_cap_w,
            state: NodeState::Active,
            live: Vec::new(),
            queued: 0,
            planned_threads: 0,
            threads_demanded: 0,
            power_w,
            epoch_qos: (0, 0),
            lifetime_qos: (0, 0),
            finished: Vec::new(),
            captured: None,
            sessions_admitted: 0,
            sessions_migrated_in: 0,
            sessions_migrated_out: 0,
        }
    }

    /// Node id (index in the fleet).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Lifecycle state.
    pub fn state(&self) -> NodeState {
        self.state
    }

    /// Whether the node is in the active pool.
    pub fn is_active(&self) -> bool {
        self.state == NodeState::Active
    }

    /// Powers the node off. Call only after [`FleetNode::drain`] — a
    /// retired node never advances again, so a live session left behind
    /// would be frozen forever. That invariant is enforced here: a node
    /// still holding live sessions refuses to retire.
    ///
    /// # Errors
    ///
    /// [`FleetError::RetireWithLiveSessions`] when live sessions are
    /// still resident. The deliberate live-session teardown — a scripted
    /// crash — goes through [`FleetNode::crash_kill`] instead, which is
    /// an explicit, separately audited path, never a default.
    pub(crate) fn retire(&mut self) -> Result<(), FleetError> {
        if !self.live.is_empty() {
            return Err(FleetError::RetireWithLiveSessions {
                node: self.id,
                live: self.live.len(),
            });
        }
        self.state = NodeState::Retired;
        Ok(())
    }

    /// Fail-stop crash: every live session is torn down *with its
    /// in-progress state* and the node is force-retired (the one path
    /// allowed to bypass the [`FleetNode::retire`] guard). Returns the
    /// lost sessions' requests with their frame counts at the moment of
    /// death, in session-id order — the coordinator re-creates them on
    /// survivors and accounts the re-done work. Finished sessions' summary
    /// rows stay: their history belongs to this node.
    pub(crate) fn crash_kill(&mut self) -> Result<Vec<(SessionRequest, u64)>, FleetError> {
        // Each detached session is dropped here: that is the crash. Its
        // work since the last checkpoint is gone.
        let lost = self
            .detach_all()?
            .into_iter()
            .map(|(entry, session)| (entry.request, session.frames_completed()))
            .collect();
        self.state = NodeState::Retired;
        Ok(lost)
    }

    /// Aligns a freshly commissioned node's clock with the fleet (see
    /// [`ServerSim::align_clock`]).
    pub(crate) fn align_clock(&mut self, time: f64) -> Result<(), TranscodeError> {
        self.server.align_clock(time)
    }

    /// The underlying server simulator. Its resident sessions are the
    /// live ones: a session that finishes is archived at the end of the
    /// advance that finished it, so the server keeps only its summary row
    /// (see [`FleetNode::summary`]). Sessions admitted since the node last
    /// advanced are not on it yet: it builds them at its next
    /// [`FleetNode::run_epoch`].
    pub fn server(&self) -> &ServerSim {
        &self.server
    }

    /// Sessions admitted over the node's lifetime.
    pub fn sessions_admitted(&self) -> u64 {
        self.sessions_admitted
    }

    /// Sessions this node received from peers via migration.
    pub fn sessions_migrated_in(&self) -> u64 {
        self.sessions_migrated_in
    }

    /// Sessions this node handed off to peers via migration.
    pub fn sessions_migrated_out(&self) -> u64 {
        self.sessions_migrated_out
    }

    /// Admits a session and returns the id the server will give it. The
    /// session is counted in at [`INITIAL_KNOBS`], the knobs it runs
    /// under until its controller's first decision, and queued: its
    /// controller is built through the node's factory at the node's
    /// next advance (see [`ControllerFactory`]).
    pub fn admit(&mut self, request: &SessionRequest) -> usize {
        let sid = self.server.next_session_id() + self.queued;
        let shape = StreamShape::for_spec(&request.spec());
        self.track(sid, request.clone(), shape, INITIAL_KNOBS, (0, 0));
        self.queued += 1;
        self.sessions_admitted += 1;
        sid
    }

    /// Builds the queued admissions on the server, in admission order.
    /// Each leaves the queue once built, so a panicking factory leaves
    /// the node consistent.
    fn build_queued(&mut self) {
        while self.queued > 0 {
            let entry = &self.live[self.live.len() - self.queued];
            let controller = (self.factory)(&entry.request);
            let sid = self
                .server
                .add_session(entry.request.session_config(), controller);
            debug_assert_eq!(sid, entry.sid, "queued ids follow the server's");
            self.queued -= 1;
        }
    }

    /// Appends a session to the live list and counts it in. Its mark is
    /// its current QoS, so it adds nothing to this epoch's QoS until it
    /// has been observed for a full epoch here.
    fn track(
        &mut self,
        sid: usize,
        request: SessionRequest,
        shape: StreamShape,
        knobs: KnobSettings,
        mark: (u64, u64),
    ) {
        self.planned_threads += shape.knobs.threads;
        self.threads_demanded += knobs.threads;
        self.lifetime_qos.0 += mark.0;
        self.lifetime_qos.1 += mark.1;
        let term = term_at(&self.server, knobs);
        self.live.push(Resident {
            sid,
            request,
            shape,
            knobs,
            mark,
            term,
        });
        self.update_power();
    }

    /// Counts a departing live session out of every counter but power,
    /// which the caller recomputes once the list is final.
    fn forget(&mut self, entry: &Resident, session: &TranscodeSession) {
        let (frames, violations) = qos_of(session);
        self.planned_threads -= entry.shape.knobs.threads;
        self.threads_demanded -= entry.knobs.threads;
        self.epoch_qos.0 -= frames - entry.mark.0;
        self.epoch_qos.1 -= violations - entry.mark.1;
        self.lifetime_qos.0 -= frames;
        self.lifetime_qos.1 -= violations;
    }

    /// Folds the live sessions' kept terms in session-id order: the
    /// power [`ServerSim::load`] computes from scratch, bit for bit.
    fn update_power(&mut self) {
        let terms = self.live.iter().map(|entry| entry.term);
        self.power_w = self.server.platform().power_of_terms(terms);
    }

    /// A view over the maintained counters with the given shapes.
    fn view_with(&self, resident_shapes: Vec<StreamShape>) -> NodeView {
        let (frames, violations) = self.epoch_qos;
        NodeView {
            node_id: self.id,
            active_sessions: self.live.len(),
            threads_demanded: self.threads_demanded,
            planned_threads: self.planned_threads,
            hw_threads: self.server.platform().topology().hw_threads(),
            power_w: self.power_w,
            power_cap_w: self.power_cap_w,
            qos_violation_percent: delta_percent(violations, frames),
            resident_shapes,
        }
    }

    /// The dispatcher's read-only view of this node right now: the
    /// maintained counters plus a copy of the resident planning shapes.
    pub fn view(&self) -> NodeView {
        self.view_with(self.live.iter().map(|entry| entry.shape.clone()).collect())
    }

    /// Brings a view taken before the latest [`FleetNode::admit`] up to
    /// date: counters re-read, the admitted session's shape appended to
    /// the shapes the view already holds.
    pub(crate) fn patch_view_after_admit(&self, view: &mut NodeView) {
        let mut shapes = std::mem::take(&mut view.resident_shapes);
        shapes.extend(self.live.last().map(|entry| entry.shape.clone()));
        *view = self.view_with(shapes);
    }

    /// [`NodeView::utilization`] without copying the shapes.
    pub(crate) fn utilization(&self) -> f64 {
        self.view_with(Vec::new()).utilization()
    }

    /// Lifetime `(frames, violations)` over every session resident here,
    /// finished ones included — what its summary row and epoch samples read.
    pub(crate) fn qos_totals(&self) -> (u64, u64) {
        self.lifetime_qos
    }

    /// `(session id, request id, lifetime frames)` of the sessions that
    /// finished during the last [`FleetNode::run_epoch`], in session-id
    /// order.
    pub(crate) fn finished_sessions(&self) -> &[(usize, u64, u64)] {
        &self.finished
    }

    /// Picks the session a rebalancer would move away from this node:
    /// the live session with the most frames still to transcode (most
    /// benefit from a less-loaded home), lowest id on ties.
    pub fn migration_candidate(&mut self) -> Option<usize> {
        self.build_queued();
        self.live
            .iter()
            .filter_map(|entry| self.server.session(entry.sid).ok())
            .max_by_key(|s| (s.frames_remaining(), std::cmp::Reverse(s.id())))
            .map(|s| s.id())
    }

    /// Detaches session `sid` (with its planning shape) for migration to
    /// another node.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] if the node has no such live
    /// session.
    pub fn detach_session(&mut self, sid: usize) -> Result<MigratedSession, FleetError> {
        self.build_queued();
        let unknown = FleetError::UnknownSession {
            node: self.id,
            session: sid,
        };
        let pos = self
            .live
            .binary_search_by_key(&sid, |entry| entry.sid)
            .map_err(|_| unknown.clone())?;
        let session = self.server.detach_session(sid).map_err(|_| unknown)?;
        let entry = self.live.remove(pos);
        self.forget(&entry, &session);
        self.update_power();
        self.sessions_migrated_out += 1;
        Ok(MigratedSession {
            session,
            shape: entry.shape,
            request: entry.request,
        })
    }

    /// Detaches every live session from the server, in session-id order,
    /// leaving the live list empty.
    fn detach_all(&mut self) -> Result<Vec<(Resident, TranscodeSession)>, FleetError> {
        self.build_queued();
        let live = std::mem::take(&mut self.live);
        let mut out = Vec::with_capacity(live.len());
        for entry in live {
            let session =
                self.server
                    .detach_session(entry.sid)
                    .map_err(|_| FleetError::UnknownSession {
                        node: self.id,
                        session: entry.sid,
                    })?;
            self.forget(&entry, &session);
            out.push((entry, session));
        }
        self.update_power();
        Ok(out)
    }

    /// Detaches every live (unfinished) session for migration to peers —
    /// the "drain" half of drain-before-decommission. Finished sessions'
    /// summary rows stay put: their history belongs to this node.
    /// Sessions come out in session-id order.
    pub fn drain(&mut self) -> Result<Vec<MigratedSession>, FleetError> {
        let drained = self.detach_all()?;
        self.sessions_migrated_out += drained.len() as u64;
        Ok(drained
            .into_iter()
            .map(|(entry, session)| MigratedSession {
                session,
                shape: entry.shape,
                request: entry.request,
            })
            .collect())
    }

    /// Attaches a session detached from a peer node; returns its id here.
    /// Counts as a migration, not an admission — cluster-wide session
    /// totals are unaffected by moves.
    pub fn attach_session(&mut self, migrated: MigratedSession) -> usize {
        let MigratedSession {
            session,
            shape,
            request,
        } = migrated;
        self.build_queued();
        let (knobs, mark) = (session.knobs(), qos_of(&session));
        let sid = self.server.attach_session(session);
        self.track(sid, request, shape, knobs, mark);
        self.sessions_migrated_in += 1;
        sid
    }

    /// Captures every resident live session for a fleet checkpoint, in
    /// session-id order. Pure observation — the node's state, clocks and
    /// fp sequences are untouched, so a checkpointed run stays
    /// byte-identical to an uncheckpointed one.
    pub(crate) fn checkpoint_sessions(&mut self) -> Vec<SessionCheckpoint> {
        self.build_queued();
        self.live
            .iter()
            .filter_map(|entry| {
                Some(SessionCheckpoint {
                    request: entry.request.clone(),
                    frames_completed: self.server.session(entry.sid).ok()?.frames_completed(),
                    bytes: self.server.checkpoint_session(entry.sid)?,
                })
            })
            .collect()
    }

    /// Adopts a session lost in a peer's crash: restored bit-exactly
    /// from checkpoint bytes when provided and decodable, otherwise
    /// restarted from scratch off its original request. Returns whether
    /// the checkpoint was used. Either way this is a recovery, not an
    /// admission — cluster-wide session totals already counted the
    /// original arrival.
    pub(crate) fn adopt_recovered(
        &mut self,
        request: &SessionRequest,
        checkpoint: Option<&[u8]>,
    ) -> bool {
        self.build_queued();
        let restored = checkpoint.and_then(|bytes| {
            let controller = (self.factory)(request);
            TranscodeSession::restore_checkpoint(request.session_config(), controller, bytes).ok()
        });
        let from_checkpoint = restored.is_some();
        let (sid, knobs, mark) = match restored {
            Some(session) => {
                let (knobs, mark) = (session.knobs(), qos_of(&session));
                (self.server.attach_session(session), knobs, mark)
            }
            // No entry, or a corrupt one: a cold restart re-does the
            // session in full — never dropped. It starts where `admit`
            // counts a session in.
            None => {
                let controller = (self.factory)(request);
                let config = request.session_config();
                let sid = self.server.add_session(config, controller);
                (sid, INITIAL_KNOBS, (0, 0))
            }
        };
        let shape = StreamShape::for_spec(&request.spec());
        self.track(sid, request.clone(), shape, knobs, mark);
        from_checkpoint
    }

    /// Applies (or lifts, with `None`) a thermal-throttle frequency cap
    /// on the node's server.
    pub(crate) fn set_freq_cap(&mut self, cap_ghz: Option<f64>) {
        if self.server.freq_cap_ghz() == cap_ghz {
            return;
        }
        self.server.set_freq_cap(cap_ghz);
        for entry in &mut self.live {
            entry.term = term_at(&self.server, entry.knobs);
        }
        self.update_power();
    }

    /// Publishes the knowledge captured from the sessions that finished
    /// since the last harvest, in session-id order, and forgets it. A
    /// session finishes once, on the node that hosts it then, so it
    /// publishes exactly once.
    pub(crate) fn harvest_finished(&mut self, store: &mut KnowledgeStore) {
        if let Some(captured) = &mut self.captured {
            for (class, snapshot) in captured.drain(..) {
                store.publish(class, &snapshot);
            }
        }
    }

    /// Turns knowledge capture on or off: while on, each finished
    /// session's knowledge-only snapshot is kept for
    /// [`FleetNode::harvest_finished`]. The fleet turns it on while it has
    /// a knowledge store.
    pub(crate) fn set_captures_knowledge(&mut self, on: bool) {
        self.captured = on.then(Vec::new);
    }

    /// Builds the queued admissions, advances the node's virtual clock to
    /// `until`, then prunes the sessions that finished on the way and
    /// recounts the live ones: the next [`FleetNode::view`] reports this
    /// epoch's QoS, the knobs the controllers settled on, and no
    /// finished session. Each finished session's knowledge is captured
    /// (when the fleet has a knowledge store) and the session is archived
    /// on the server, which keeps only its summary row.
    ///
    /// # Errors
    ///
    /// Propagates [`TranscodeError::EventBudgetExhausted`] from the server.
    pub fn run_epoch(&mut self, until: f64, max_events: u64) -> Result<u64, TranscodeError> {
        self.build_queued();
        self.finished.clear();
        for entry in &mut self.live {
            if let Ok(session) = self.server.session(entry.sid) {
                entry.mark = qos_of(session);
            }
        }
        let result = self.server.run_epoch(until, max_events);
        self.settle_epoch();
        result
    }

    /// The end-of-epoch prune and recount over the live list, then the
    /// archive of the sessions that finished.
    fn settle_epoch(&mut self) {
        let (server, finished, lifetime) =
            (&self.server, &mut self.finished, &mut self.lifetime_qos);
        let mut captured = self.captured.as_mut();
        let (mut planned, mut demanded, mut epoch) = (0, 0, (0, 0));
        self.live.retain_mut(|entry| {
            let Ok(session) = server.session(entry.sid) else {
                return false;
            };
            let (frames, violations) = qos_of(session);
            let delta = (frames - entry.mark.0, violations - entry.mark.1);
            lifetime.0 += delta.0;
            lifetime.1 += delta.1;
            if session.is_finished() {
                finished.push((entry.sid, entry.request.id, frames));
                if let Some(captured) = captured.as_mut() {
                    let class = SessionClass::of_hr(session.is_high_resolution());
                    captured.push((class, session.controller().snapshot().into_knowledge()));
                }
                return false;
            }
            let knobs = session.knobs();
            if knobs != entry.knobs {
                entry.term = term_at(server, knobs);
                entry.knobs = knobs;
            }
            planned += entry.shape.knobs.threads;
            demanded += entry.knobs.threads;
            epoch.0 += delta.0;
            epoch.1 += delta.1;
            true
        });
        self.planned_threads = planned;
        self.threads_demanded = demanded;
        self.epoch_qos = epoch;
        self.update_power();
        for &(sid, _, _) in &self.finished {
            let archived = self.server.archive_session(sid);
            debug_assert!(archived.is_ok(), "a finished session archives");
        }
    }

    /// Whether every admitted session has finished. A queued admission
    /// counts as unfinished.
    pub fn all_finished(&self) -> bool {
        self.queued == 0 && self.server.all_finished()
    }

    /// Per-session results measured so far, one row per session in
    /// session-id order: live sessions and the archived rows of finished
    /// ones. Queued admissions are not on the server yet, and migrated
    /// sessions report from their new node. This is the drill-down behind
    /// the node's [`NodeReport`](crate::NodeReport) row.
    pub fn summary(&self) -> RunSummary {
        self.server.summary()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamut_core::{FixedController, MamutConfig, MamutController};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    fn fixed_factory() -> ControllerFactory {
        Box::new(|req| {
            let threads = if req.hr { 10 } else { 4 };
            Box::new(FixedController::new(KnobSettings::new(32, threads, 2.9)))
        })
    }

    fn request(id: u64, hr: bool, frames: u64) -> SessionRequest {
        SessionRequest {
            id,
            arrival_s: 0.0,
            hr,
            live: false,
            frames,
            seed: id,
        }
    }

    fn node() -> FleetNode {
        FleetNode::new(0, Platform::xeon_e5_2667_v4(), 110.0, fixed_factory())
    }

    #[test]
    fn admit_registers_sessions_and_shapes() {
        let mut n = node();
        n.admit(&request(1, true, 50));
        n.admit(&request(2, false, 50));
        assert_eq!(n.sessions_admitted(), 2);
        let snap = n.view();
        assert_eq!(snap.active_sessions, 2);
        assert_eq!(snap.resident_shapes.len(), 2);
        assert_eq!(snap.power_cap_w, 110.0);
    }

    #[test]
    fn snapshot_prunes_finished_sessions() {
        let mut n = node();
        n.admit(&request(1, false, 5));
        n.run_epoch(60.0, 1_000_000).unwrap();
        assert!(n.all_finished());
        let snap = n.view();
        assert_eq!(snap.active_sessions, 0);
        assert!(snap.resident_shapes.is_empty());
        assert_eq!(n.sessions_admitted(), 1, "lifetime count survives churn");
    }

    #[test]
    fn factory_decides_per_request() {
        let mut n = node();
        n.admit(&request(1, true, 30));
        n.run_epoch(0.2, 1_000_000).unwrap();
        let snap = n.view();
        assert_eq!(snap.threads_demanded, 10, "HR factory knobs in force");
    }

    #[test]
    fn drain_detaches_live_sessions_and_leaves_finished_history() {
        let mut n = node();
        n.admit(&request(1, false, 5)); // finishes within the epoch
        n.admit(&request(2, true, 5_000)); // still live at the boundary
        n.admit(&request(3, false, 5_000)); // still live at the boundary
        n.run_epoch(2.0, 1_000_000).unwrap();
        let drained = n.drain().unwrap();
        assert_eq!(drained.len(), 2, "only unfinished sessions drain");
        assert_eq!(n.sessions_migrated_out(), 2);
        assert!(
            n.server().sessions().is_empty(),
            "the finished one archived"
        );
        let history = n.summary();
        assert_eq!(
            history.sessions.len(),
            1,
            "the finished session's history stays"
        );
        assert_eq!(history.sessions[0].frames, 5);
        assert!(n.all_finished());
        assert_eq!(n.view().active_sessions, 0);
        // Draining an already-empty node is a no-op.
        assert!(n.drain().unwrap().is_empty());
    }

    #[test]
    fn retire_flips_state() {
        let mut n = node();
        assert_eq!(n.state(), NodeState::Active);
        assert!(n.is_active());
        n.retire().unwrap();
        assert_eq!(n.state(), NodeState::Retired);
        assert!(!n.is_active());
    }

    #[test]
    fn retire_refuses_live_sessions_but_crash_kill_takes_them() {
        let mut n = node();
        n.admit(&request(1, false, 5_000));
        n.admit(&request(2, true, 5_000));
        n.run_epoch(2.0, 1_000_000).unwrap();
        assert_eq!(
            n.retire(),
            Err(FleetError::RetireWithLiveSessions { node: 0, live: 2 })
        );
        assert!(n.is_active(), "a refused retire leaves the node running");
        let lost = n.crash_kill().unwrap();
        assert_eq!(lost.len(), 2);
        assert!(lost.iter().all(|(_, frames)| *frames > 0));
        assert_eq!(lost[0].0.id, 1);
        assert_eq!(lost[1].0.id, 2);
        assert!(!n.is_active());
        assert!(
            n.crash_kill().unwrap().is_empty(),
            "crashing a corpse finds nothing"
        );
    }

    #[test]
    fn checkpoint_then_adopt_restores_a_session_bit_exactly() {
        let mut origin = node();
        origin.admit(&request(1, false, 4_000));
        origin.run_epoch(2.0, 1_000_000).unwrap();
        let cks = origin.checkpoint_sessions();
        assert_eq!(cks.len(), 1);
        assert_eq!(cks[0].request.id, 1);
        assert!(cks[0].frames_completed > 0);

        // An undisturbed twin runs straight through...
        let mut twin = node();
        twin.admit(&request(1, false, 4_000));
        twin.run_epoch(2.0, 1_000_000).unwrap();
        twin.run_epoch(4.0, 1_000_000).unwrap();

        // ...while a fresh node adopts the checkpoint and continues.
        let mut adopter = node();
        adopter.align_clock(2.0).unwrap();
        assert!(adopter.adopt_recovered(&cks[0].request, Some(&cks[0].bytes)));
        adopter.run_epoch(4.0, 1_000_000).unwrap();

        let a = adopter.summary();
        let b = twin.summary();
        // Session-level results continue bit-exactly (server-level energy
        // differs: the adopter joined at t = 2 s and skipped an epoch).
        assert_eq!(a.sessions[0].frames, b.sessions[0].frames);
        assert_eq!(a.sessions[0].mean_fps, b.sessions[0].mean_fps);
        assert_eq!(a.sessions[0].mean_psnr_db, b.sessions[0].mean_psnr_db);
        assert_eq!(
            a.sessions[0].mean_bitrate_mbps,
            b.sessions[0].mean_bitrate_mbps
        );

        // Garbage bytes degrade to a cold restart, never a loss.
        let mut cold = node();
        assert!(!cold.adopt_recovered(&cks[0].request, Some(b"nonsense")));
        assert_eq!(cold.view().active_sessions, 1);
        assert_eq!(cold.sessions_admitted(), 0, "recovery is not an admission");
    }

    #[test]
    fn view_reports_resident_qos_distress() {
        let mut n = node();
        // One thread on an HR stream misses real time on every frame.
        n.factory = Box::new(|_| Box::new(FixedController::new(KnobSettings::new(32, 1, 2.9))));
        n.admit(&request(1, true, 5_000));
        n.run_epoch(2.0, 1_000_000).unwrap();
        let view = n.view();
        assert!(
            view.qos_violation_percent > 50.0,
            "starved HR stream must show distress, got {}",
            view.qos_violation_percent
        );
        assert!(view.qos_slack() < 0.5);
    }

    #[test]
    fn epochs_advance_the_clock_monotonically() {
        let mut n = node();
        n.admit(&request(1, false, 2_000));
        n.run_epoch(1.0, 1_000_000).unwrap();
        assert_eq!(n.server().time(), 1.0);
        n.run_epoch(2.5, 1_000_000).unwrap();
        assert_eq!(n.server().time(), 2.5);
        let s = n.summary();
        assert_eq!(s.sessions.len(), 1);
        assert!(s.sessions[0].frames > 0);
    }

    fn mamut_factory() -> ControllerFactory {
        Box::new(|req| {
            let config = if req.hr {
                MamutConfig::paper_hr()
            } else {
                MamutConfig::paper_lr()
            };
            Box::new(MamutController::new(config.with_seed(req.seed)).unwrap())
        })
    }

    /// What the test believes about one node, kept apart from the node's
    /// own bookkeeping: the request behind every live session id, the QoS
    /// marks it took itself before the last epoch, and the ids with a row
    /// in the node's summary (live or finished, in row order).
    #[derive(Default)]
    struct Model {
        live: BTreeMap<usize, SessionRequest>,
        marks: BTreeMap<usize, (u64, u64)>,
        rows: BTreeSet<usize>,
    }

    /// Compares the maintained view and totals with a from-scratch
    /// reference: the uncached power draw of the server's unfinished
    /// sessions plus the queued admissions at [`INITIAL_KNOBS`] (session-id
    /// order), folds over the node's summary rows, and planning shapes
    /// rebuilt from the model's requests.
    fn assert_view_matches(n: &FleetNode, model: &Model, step: &str) {
        let view = n.view();
        let server = n.server();
        let queued = model
            .live
            .keys()
            .filter(|&&sid| sid >= server.next_session_id())
            .count();
        let cap = server.freq_cap_ghz();
        let loads: Vec<SessionLoad> = server
            .sessions()
            .iter()
            .filter(|s| !s.is_finished())
            .map(|s| s.knobs())
            .chain(std::iter::repeat_n(INITIAL_KNOBS, queued))
            .map(|k| SessionLoad::new(k.threads, cap.map_or(k.freq_ghz, |c| k.freq_ghz.min(c))))
            .collect();
        let power_w = server.platform().power_draw(&loads);
        let threads: u32 = loads.iter().map(|l| l.threads).sum();
        assert_eq!(view.active_sessions, loads.len(), "{step}");
        assert_eq!(view.threads_demanded, threads, "{step}");
        assert_eq!(view.power_w.to_bits(), power_w.to_bits(), "{step}");
        assert_eq!(
            view.hw_threads,
            server.platform().topology().hw_threads(),
            "{step}"
        );

        let shapes: Vec<StreamShape> = model
            .live
            .values()
            .map(|r| StreamShape::for_spec(&r.spec()))
            .collect();
        assert_eq!(view.resident_shapes, shapes, "{step}");
        let planned: u32 = shapes.iter().map(|s| s.knobs.threads).sum();
        assert_eq!(view.planned_threads, planned, "{step}");

        // A session without a mark arrived after the last epoch began:
        // it adds nothing yet. A queued session has delivered nothing.
        let (frames, violations) = model.live.keys().fold((0u64, 0u64), |(f, v), sid| {
            let (f1, v1) = server.session(*sid).map_or((0, 0), qos_of);
            let (f0, v0) = model.marks.get(sid).copied().unwrap_or((f1, v1));
            (f + f1 - f0, v + v1 - v0)
        });
        let percent = if frames == 0 {
            0.0
        } else {
            100.0 * violations as f64 / frames as f64
        };
        assert_eq!(
            view.qos_violation_percent.to_bits(),
            percent.to_bits(),
            "{step}"
        );
        let lifetime = n
            .summary()
            .sessions
            .iter()
            .fold((0u64, 0u64), |(f, v), s| (f + s.frames, v + s.violations));
        assert_eq!(n.qos_totals(), lifetime, "{step}");
        assert_eq!(
            n.utilization().to_bits(),
            view.utilization().to_bits(),
            "{step}"
        );
    }

    #[test]
    fn maintained_view_matches_a_from_scratch_reference() {
        let new_node =
            |id: usize| FleetNode::new(id, Platform::xeon_e5_2667_v4(), 110.0, mamut_factory());
        for seed in 0..4u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut nodes = [new_node(0), new_node(1)];
            let mut models = [Model::default(), Model::default()];
            let mut now = 0.0;
            let mut next_id = 0;
            for step in 0..48 {
                let a = rng.gen_range(0..2usize);
                let b = 1 - a;
                let op = rng.gen_range(0..7u32);
                match op {
                    // Admit: short sessions finish mid-epoch, long ones
                    // stay live across several.
                    0 | 1 => {
                        next_id += 1;
                        let frames = rng.gen_range(8..400u64);
                        let req = request(next_id, rng.gen_bool(0.5), frames);
                        let sid = nodes[a].admit(&req);
                        models[a].live.insert(sid, req);
                        models[a].rows.insert(sid);
                    }
                    // Advance both nodes through one epoch.
                    2 | 3 => {
                        now += rng.gen_range(0.1..0.8f64);
                        for (n, m) in nodes.iter_mut().zip(&mut models) {
                            m.marks = m
                                .live
                                .keys()
                                .map(|&sid| (sid, n.server().session(sid).map_or((0, 0), qos_of)))
                                .collect();
                            n.run_epoch(now, 1_000_000).unwrap();
                            // A finished session leaves the server; its
                            // frames live on in its archived summary row.
                            let rows = n.summary().sessions;
                            let ended: Vec<(usize, u64, u64)> = m
                                .live
                                .iter()
                                .filter(|(&sid, _)| n.server().session(sid).is_err())
                                .map(|(&sid, r)| {
                                    (sid, r.id, rows[m.rows.range(..sid).count()].frames)
                                })
                                .collect();
                            assert_eq!(n.finished_sessions(), ended.as_slice());
                            assert!(n.server().sessions().iter().all(|s| !s.is_finished()));
                            m.live.retain(|sid, _| ended.iter().all(|e| e.0 != *sid));
                        }
                    }
                    // Migrate one session, or drain the whole node.
                    4 => {
                        let moved = if rng.gen_bool(0.7) {
                            nodes[a]
                                .migration_candidate()
                                .map(|sid| vec![nodes[a].detach_session(sid).unwrap()])
                                .unwrap_or_default()
                        } else {
                            nodes[a].drain().unwrap()
                        };
                        for migrated in moved {
                            models[a].live.retain(|_, r| r.id != migrated.request.id);
                            models[a].rows.remove(&migrated.session().id());
                            let req = migrated.request.clone();
                            let sid = nodes[b].attach_session(migrated);
                            models[b].live.insert(sid, req);
                            models[b].rows.insert(sid);
                        }
                    }
                    // Crash: the survivor adopts the lost sessions from a
                    // fresh checkpoint, from garbage bytes, or cold; a
                    // clock-aligned replacement takes the dead node's slot.
                    5 => {
                        let checkpoint = nodes[a].checkpoint_sessions();
                        let lost = nodes[a].crash_kill().unwrap();
                        assert_eq!(lost.len(), checkpoint.len());
                        for ((req, _), ck) in lost.iter().zip(&checkpoint) {
                            let bytes = match rng.gen_range(0..3u32) {
                                0 => Some(ck.bytes.as_slice()),
                                1 => Some(b"garbage".as_slice()),
                                _ => None,
                            };
                            let restored = nodes[b].adopt_recovered(req, bytes);
                            assert_eq!(restored, bytes == Some(ck.bytes.as_slice()));
                            // The server hands out ids in increasing
                            // order: the adoptee is its newest session.
                            let sid = nodes[b].server().sessions().last().unwrap().id();
                            models[b].live.insert(sid, req.clone());
                            models[b].rows.insert(sid);
                        }
                        nodes[a] = new_node(a);
                        nodes[a].align_clock(now).unwrap();
                        models[a] = Model::default();
                    }
                    // Throttle on or off.
                    _ => nodes[a].set_freq_cap(rng.gen_bool(0.5).then_some(1.8)),
                }
                for (n, m) in nodes.iter().zip(&models) {
                    assert_view_matches(n, m, &format!("seed {seed} step {step} op {op}"));
                }
            }
        }
    }

    #[test]
    fn queued_admissions_are_unfinished_and_build_without_changing_the_view() {
        let mut n = FleetNode::new(0, Platform::xeon_e5_2667_v4(), 110.0, mamut_factory());
        n.set_freq_cap(Some(2.0));
        let sids: Vec<usize> = (1..=3)
            .map(|id| n.admit(&request(id, id != 2, 200)))
            .collect();
        assert_eq!(sids, [0, 1, 2]);
        assert_eq!(n.server().next_session_id(), 0, "admission builds nothing");
        assert!(!n.all_finished(), "queued admissions are unfinished");
        let before = n.view();
        assert_eq!(before.active_sessions, 3);
        assert_eq!(n.migration_candidate(), Some(0));
        assert_eq!(n.server().sessions().len(), 3);
        assert!(!n.all_finished());
        assert_eq!(format!("{before:?}"), format!("{:?}", n.view()));
    }
}
