use std::collections::VecDeque;

use mamut_core::snapshot::{SnapshotReader, SnapshotWriter};
use mamut_core::{
    Constraints, Controller, KnobSettings, Observation, PolicySnapshot, SnapshotError,
};
use mamut_encoder::{wpp, EncodeOutcome, HevcDecoder, HevcEncoder, Preset};
use mamut_metrics::{QosTracker, RunningStats, Trace, TraceRow};
use mamut_video::{ContentState, Playlist, Resolution, SequenceSpec, SourceState, VideoSource};

use crate::SessionSummary;

/// Current session-checkpoint codec version. Decoders reject newer.
pub const SESSION_CHECKPOINT_VERSION: u16 = 1;

/// Knobs a new session runs under until its controller's first decision:
/// what a fleet node counts for a session it has admitted but not built.
pub const INITIAL_KNOBS: KnobSettings = KnobSettings {
    qp: 32,
    threads: 4,
    freq_ghz: 2.6,
};

/// Static configuration of one transcoding session (one user).
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Videos transcoded back to back.
    pub playlist: Playlist,
    /// Encoder effort preset (the paper: ultrafast for HR, slow for LR).
    pub preset: Preset,
    /// QoS constraints for this user.
    pub constraints: Constraints,
    /// Content RNG seed (each playlist item uses `seed + position`).
    pub seed: u64,
    /// Completion-window length for the FPS observation (frames).
    pub fps_window: usize,
    /// Record a per-frame execution trace (Fig. 5 data).
    pub record_trace: bool,
}

impl SessionConfig {
    /// Config for a single video with paper-default constraints and the
    /// paper's preset for its resolution.
    pub fn single_video(spec: SequenceSpec, seed: u64) -> Self {
        let preset = Preset::for_resolution(spec.resolution());
        SessionConfig {
            playlist: Playlist::single(spec),
            preset,
            constraints: Constraints::paper_defaults(),
            seed,
            fps_window: 6,
            record_trace: false,
        }
    }

    /// Config for a playlist (Scenario II batches).
    pub fn playlist(playlist: Playlist, seed: u64) -> Self {
        let preset = Preset::for_resolution(
            playlist
                .get(0)
                .expect("playlists are non-empty by construction")
                .resolution(),
        );
        SessionConfig {
            playlist,
            preset,
            constraints: Constraints::paper_defaults(),
            seed,
            fps_window: 6,
            record_trace: false,
        }
    }

    /// Enables per-frame trace recording.
    pub fn with_trace(mut self) -> Self {
        self.record_trace = true;
        self
    }

    /// Overrides the constraints.
    pub fn with_constraints(mut self, constraints: Constraints) -> Self {
        self.constraints = constraints;
        self
    }
}

/// A frame currently being encoded.
///
/// Remaining work is accounted *lazily*: `work_remaining` is the cycle
/// count as of `anchor_time`, and the frame burns cycles at the rate the
/// server cached for its session. The server re-materializes
/// (`work_remaining -= rate · (now − anchor_time)`, anchor moved to
/// `now`) only when the session's effective rate actually changes — a
/// rate-epoch bump or a migration — so steady-state events never touch
/// the frames that are not completing.
#[derive(Debug, Clone)]
pub(crate) struct InFlight {
    /// Cycles left as of `anchor_time` (not "as of now").
    pub work_remaining: f64,
    pub work_total: f64,
    pub outcome: EncodeOutcome,
    pub started_at: f64,
    /// Virtual time `work_remaining` refers to.
    pub anchor_time: f64,
}

/// Live state of one transcoding session inside the simulator.
///
/// Owned and driven by [`ServerSim`](crate::ServerSim); exposed read-only
/// for inspection and summaries.
pub struct TranscodeSession {
    id: usize,
    name: String,
    config: SessionConfig,
    playlist_pos: usize,
    source: VideoSource,
    encoder: HevcEncoder,
    decoder: HevcDecoder,
    controller: Box<dyn Controller>,
    knobs: KnobSettings,
    frame_counter: u64,
    pub(crate) in_flight: Option<InFlight>,
    completions: VecDeque<f64>,
    last_obs: Observation,
    qos: QosTracker,
    fps_stats: RunningStats,
    psnr_stats: RunningStats,
    bitrate_stats: RunningStats,
    thread_stats: RunningStats,
    freq_stats: RunningStats,
    trace: Trace,
    finished: bool,
}

impl std::fmt::Debug for TranscodeSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TranscodeSession")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("frame_counter", &self.frame_counter)
            .field("finished", &self.finished)
            .finish_non_exhaustive()
    }
}

impl TranscodeSession {
    pub(crate) fn new(id: usize, config: SessionConfig, controller: Box<dyn Controller>) -> Self {
        let first = config
            .playlist
            .get(0)
            .expect("playlists are non-empty by construction")
            .clone();
        let resolution = first.resolution();
        let source = VideoSource::new(&first, config.seed);
        let target = config.constraints.target_fps;
        // Neutral starting observation: at target, mid quality, modest rate.
        let last_obs = Observation {
            fps: target,
            psnr_db: 35.0,
            bitrate_mbps: 3.5,
            power_w: 50.0,
        };
        TranscodeSession {
            id,
            name: first.name().to_owned(),
            encoder: HevcEncoder::new(resolution, config.preset),
            decoder: HevcDecoder::new(resolution),
            source,
            controller,
            knobs: INITIAL_KNOBS,
            frame_counter: 0,
            in_flight: None,
            completions: VecDeque::with_capacity(config.fps_window + 1),
            last_obs,
            qos: QosTracker::new(target),
            fps_stats: RunningStats::new(),
            psnr_stats: RunningStats::new(),
            bitrate_stats: RunningStats::new(),
            thread_stats: RunningStats::new(),
            freq_stats: RunningStats::new(),
            trace: Trace::new(),
            playlist_pos: 0,
            config,
            finished: false,
        }
    }

    /// Session id (stable handle inside one [`ServerSim`](crate::ServerSim)).
    pub fn id(&self) -> usize {
        self.id
    }

    /// Re-ids the session when it attaches to another server (migration).
    pub(crate) fn set_id(&mut self, id: usize) {
        self.id = id;
    }

    /// Name of the video currently being transcoded.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Resolution of the current video.
    pub fn resolution(&self) -> Resolution {
        self.encoder.resolution()
    }

    /// Whether the stream is a high-resolution ("HR") stream.
    pub fn is_high_resolution(&self) -> bool {
        self.resolution().is_high_resolution()
    }

    /// Whether the whole playlist has been transcoded.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Knobs currently in force.
    pub fn knobs(&self) -> KnobSettings {
        self.knobs
    }

    /// Constraints currently in force.
    pub fn constraints(&self) -> Constraints {
        self.config.constraints
    }

    /// Updates the constraints mid-run (failure injection, live events).
    pub fn set_constraints(&mut self, constraints: Constraints) {
        self.config.constraints = constraints;
    }

    /// Frames completed so far (across the whole playlist).
    pub fn frames_completed(&self) -> u64 {
        self.qos.frames()
    }

    /// Frames in the whole playlist.
    pub fn frames_total(&self) -> u64 {
        self.config.playlist.total_frames()
    }

    /// Frames still to transcode (0 once finished) — what a rebalancer
    /// weighs when choosing which session is worth migrating.
    pub fn frames_remaining(&self) -> u64 {
        self.frames_total().saturating_sub(self.frames_completed())
    }

    /// QoS accounting.
    pub fn qos(&self) -> &QosTracker {
        &self.qos
    }

    /// The recorded execution trace (empty unless enabled in the config).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The controller, for diagnostics (e.g. MAMUT maturity reports).
    pub fn controller(&self) -> &dyn Controller {
        self.controller.as_ref()
    }

    /// Consumes the session, returning its controller (e.g. to reuse a
    /// trained controller in a follow-up run).
    pub fn into_controller(self) -> Box<dyn Controller> {
        self.controller
    }

    /// Mean observed instantaneous FPS.
    pub fn mean_fps(&self) -> f64 {
        self.fps_stats.mean()
    }

    /// Mean PSNR over completed frames (dB).
    pub fn mean_psnr_db(&self) -> f64 {
        self.psnr_stats.mean()
    }

    /// Mean bitrate over completed frames (Mb/s).
    pub fn mean_bitrate_mbps(&self) -> f64 {
        self.bitrate_stats.mean()
    }

    /// Mean thread count over completed frames.
    pub fn mean_threads(&self) -> f64 {
        self.thread_stats.mean()
    }

    /// Mean frequency over completed frames (GHz).
    pub fn mean_freq_ghz(&self) -> f64 {
        self.freq_stats.mean()
    }

    /// This session's row of a [`RunSummary`](crate::RunSummary).
    pub(crate) fn summary(&self) -> SessionSummary {
        self.summary_named(self.name.clone())
    }

    /// Consumes the session into its summary row, moving its name.
    pub(crate) fn into_summary(mut self) -> SessionSummary {
        let name = std::mem::take(&mut self.name);
        self.summary_named(name)
    }

    fn summary_named(&self, name: String) -> SessionSummary {
        SessionSummary {
            name,
            controller: self.controller.name().to_owned(),
            is_hr: self.is_high_resolution(),
            frames: self.frames_completed(),
            violations: self.qos.violations(),
            violation_percent: self.qos.violation_percent(),
            delivery_violation_percent: self.qos.delivery_violation_percent(),
            mean_fps: self.mean_fps(),
            mean_psnr_db: self.mean_psnr_db(),
            mean_bitrate_mbps: self.mean_bitrate_mbps(),
            mean_threads: self.mean_threads(),
            mean_freq_ghz: self.mean_freq_ghz(),
        }
    }

    /// Effective WPP parallel speedup at the current knobs.
    pub(crate) fn wpp_speedup(&self) -> f64 {
        wpp::speedup_at(self.resolution(), self.knobs.threads)
    }

    /// Starts the next frame if idle. Returns false when the playlist is
    /// exhausted (session transitions to finished).
    pub(crate) fn start_next_frame(&mut self, now: f64) -> bool {
        if self.finished || self.in_flight.is_some() {
            return !self.finished;
        }
        // Advance the playlist when the current source is exhausted.
        let frame = loop {
            match self.source.next_frame() {
                Some(f) => break f,
                None => {
                    self.playlist_pos += 1;
                    match self.config.playlist.get(self.playlist_pos) {
                        Some(spec) => {
                            self.name = spec.name().to_owned();
                            self.encoder = HevcEncoder::new(spec.resolution(), self.config.preset);
                            self.decoder = HevcDecoder::new(spec.resolution());
                            self.source = VideoSource::new(
                                spec,
                                self.config.seed.wrapping_add(self.playlist_pos as u64),
                            );
                        }
                        None => {
                            self.finished = true;
                            return false;
                        }
                    }
                }
            }
        };

        // Controller decision right before the frame starts.
        if let Some(new_knobs) = self.controller.begin_frame(
            self.frame_counter,
            &self.last_obs,
            &self.config.constraints,
        ) {
            self.knobs = clamp_knobs(new_knobs);
        }

        let outcome = self
            .encoder
            .encode(self.knobs.qp, &frame)
            .expect("clamped QP is always valid");
        let work = outcome.cycles + self.decoder.decode_cycles(&frame);
        self.in_flight = Some(InFlight {
            work_remaining: work,
            work_total: work,
            outcome,
            started_at: now,
            anchor_time: now,
        });
        true
    }

    /// Completes the in-flight frame at time `now` with the server power
    /// measurement, notifying the controller and updating metrics.
    pub(crate) fn complete_frame(&mut self, now: f64, power_w: f64) {
        let fly = self
            .in_flight
            .take()
            .expect("complete_frame requires an in-flight frame");
        debug_assert!(fly.work_remaining <= fly.work_total);
        let frame_time = (now - fly.started_at).max(1e-12);

        self.completions.push_back(now);
        while self.completions.len() > self.config.fps_window {
            self.completions.pop_front();
        }
        // The throughput everyone works with — controller observation, the
        // ∆ metric, traces — is the short-window reading a deployment's
        // monitor reports (the signal of the paper's Fig. 5). Counting ∆
        // on one signal while the controller optimizes another would make
        // the comparison incoherent; the per-frame jitter is still tracked
        // by the QoS tracker as `raw_violations`.
        let windowed_fps = if self.completions.len() >= 2 {
            let first = *self.completions.front().expect("len >= 2");
            let span = now - first;
            if span > 0.0 {
                (self.completions.len() - 1) as f64 / span
            } else {
                1.0 / frame_time
            }
        } else {
            1.0 / frame_time
        };
        self.qos.record_frame(frame_time, windowed_fps);

        self.fps_stats.push(windowed_fps);
        self.psnr_stats.push(fly.outcome.psnr_db);
        self.bitrate_stats.push(fly.outcome.bitrate_mbps);
        self.thread_stats.push(f64::from(self.knobs.threads));
        self.freq_stats.push(self.knobs.freq_ghz);

        let obs = Observation {
            fps: windowed_fps,
            psnr_db: fly.outcome.psnr_db,
            bitrate_mbps: fly.outcome.bitrate_mbps,
            power_w,
        };
        self.last_obs = obs;
        self.controller
            .end_frame(self.frame_counter, &obs, &self.config.constraints);

        if self.config.record_trace {
            self.trace.push(TraceRow {
                time_s: now,
                frame: self.frame_counter,
                fps: windowed_fps,
                psnr_db: fly.outcome.psnr_db,
                bitrate_mbps: fly.outcome.bitrate_mbps,
                qp: self.knobs.qp,
                threads: self.knobs.threads,
                freq_ghz: self.knobs.freq_ghz,
                power_w,
            });
        }

        self.frame_counter += 1;
    }

    /// Serializes the session's complete dynamic state — controller,
    /// content process, in-flight frame, observation window, QoS and
    /// statistics accumulators, trace — so the session can later be
    /// rebuilt mid-frame, bit-exactly, by
    /// [`TranscodeSession::restore_checkpoint`].
    ///
    /// `rate` and `now` materialize the lazily accounted in-flight work
    /// exactly as a detach would (`work_remaining -= rate · (now −
    /// anchor)`), but without mutating the live session: the capture is
    /// an observer, not a migration.
    pub(crate) fn checkpoint_bytes(&self, rate: f64, now: f64) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u16(SESSION_CHECKPOINT_VERSION);
        w.put_u32(self.playlist_pos as u32);
        w.put_bool(self.finished);
        w.put_u64(self.frame_counter);
        w.put_u8(self.knobs.qp);
        w.put_u32(self.knobs.threads);
        w.put_f64(self.knobs.freq_ghz);
        let c = &self.config.constraints;
        w.put_f64(c.target_fps);
        w.put_f64(c.bandwidth_mbps);
        w.put_f64(c.power_cap_w);
        let source = self.source.state();
        for word in source.content.rng {
            w.put_u64(word);
        }
        w.put_f64(source.content.level);
        w.put_f64(source.content.current);
        w.put_u64(source.content.next_index);
        w.put_u64(source.remaining);
        w.put_bytes(&self.controller.snapshot().encode());
        match &self.in_flight {
            None => w.put_bool(false),
            Some(fly) => {
                w.put_bool(true);
                let drained = if rate != 0.0 {
                    rate * (now - fly.anchor_time)
                } else {
                    0.0
                };
                w.put_f64(fly.work_remaining - drained);
                w.put_f64(fly.work_total);
                w.put_f64(fly.outcome.cycles);
                w.put_f64(fly.outcome.psnr_db);
                w.put_f64(fly.outcome.bitrate_mbps);
                w.put_f64(fly.started_at);
                w.put_f64(now);
            }
        }
        w.put_u32(self.completions.len() as u32);
        for &t in &self.completions {
            w.put_f64(t);
        }
        w.put_f64(self.last_obs.fps);
        w.put_f64(self.last_obs.psnr_db);
        w.put_f64(self.last_obs.bitrate_mbps);
        w.put_f64(self.last_obs.power_w);
        let (target, frames, violations, raw, delivery, credit, cap) = self.qos.raw_parts();
        w.put_f64(target);
        w.put_u64(frames);
        w.put_u64(violations);
        w.put_u64(raw);
        w.put_u64(delivery);
        w.put_f64(credit);
        w.put_f64(cap);
        for stats in [
            &self.fps_stats,
            &self.psnr_stats,
            &self.bitrate_stats,
            &self.thread_stats,
            &self.freq_stats,
        ] {
            let (count, mean, m2, min, max) = stats.raw_parts();
            w.put_u64(count);
            w.put_f64(mean);
            w.put_f64(m2);
            w.put_f64(min);
            w.put_f64(max);
        }
        w.put_u32(self.trace.len() as u32);
        for row in self.trace.iter() {
            w.put_f64(row.time_s);
            w.put_u64(row.frame);
            w.put_f64(row.fps);
            w.put_f64(row.psnr_db);
            w.put_f64(row.bitrate_mbps);
            w.put_u8(row.qp);
            w.put_u32(row.threads);
            w.put_f64(row.freq_ghz);
            w.put_f64(row.power_w);
        }
        w.into_bytes()
    }

    /// Rebuilds a session from `config`, a freshly constructed
    /// `controller` of the same kind, and checkpoint `bytes` captured by
    /// the server's checkpoint pass. The restored session resumes its
    /// frame stream, in-flight work, observation window and statistics
    /// bit-exactly from the capture point; the controller adopts the
    /// checkpointed snapshot (full execution state, not knowledge-only),
    /// so its decision sequence replays identically.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when the bytes are not a session checkpoint,
    /// were written by a newer codec, or the embedded policy snapshot
    /// does not fit the provided controller.
    pub fn restore_checkpoint(
        config: SessionConfig,
        controller: Box<dyn Controller>,
        bytes: &[u8],
    ) -> Result<TranscodeSession, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        r.expect_version(SESSION_CHECKPOINT_VERSION)?;
        let playlist_pos = r.get_u32()? as usize;
        let finished = r.get_bool()?;
        let frame_counter = r.get_u64()?;
        let knobs = KnobSettings::new(r.get_u8()?, r.get_u32()?, r.get_f64()?);
        let constraints = Constraints {
            target_fps: r.get_f64()?,
            bandwidth_mbps: r.get_f64()?,
            power_cap_w: r.get_f64()?,
        };
        let source_state = SourceState {
            content: ContentState {
                rng: [r.get_u64()?, r.get_u64()?, r.get_u64()?, r.get_u64()?],
                level: r.get_f64()?,
                current: r.get_f64()?,
                next_index: r.get_u64()?,
            },
            remaining: r.get_u64()?,
        };
        let policy = PolicySnapshot::decode(&r.get_bytes()?)?;
        let in_flight = if r.get_bool()? {
            Some(InFlight {
                work_remaining: r.get_f64()?,
                work_total: r.get_f64()?,
                outcome: EncodeOutcome {
                    cycles: r.get_f64()?,
                    psnr_db: r.get_f64()?,
                    bitrate_mbps: r.get_f64()?,
                },
                started_at: r.get_f64()?,
                anchor_time: r.get_f64()?,
            })
        } else {
            None
        };
        let n_completions = r.get_u32()?;
        let mut completions = VecDeque::with_capacity(config.fps_window + 1);
        for _ in 0..n_completions {
            completions.push_back(r.get_f64()?);
        }
        let last_obs = Observation {
            fps: r.get_f64()?,
            psnr_db: r.get_f64()?,
            bitrate_mbps: r.get_f64()?,
            power_w: r.get_f64()?,
        };
        let qos = {
            let target = r.get_f64()?;
            let frames = r.get_u64()?;
            let violations = r.get_u64()?;
            let raw = r.get_u64()?;
            let delivery = r.get_u64()?;
            let credit = r.get_f64()?;
            let cap = r.get_f64()?;
            QosTracker::from_raw_parts(target, frames, violations, raw, delivery, credit, cap)
        };
        let mut stats = [RunningStats::new(); 5];
        for slot in &mut stats {
            let count = r.get_u64()?;
            let mean = r.get_f64()?;
            let m2 = r.get_f64()?;
            let min = r.get_f64()?;
            let max = r.get_f64()?;
            *slot = RunningStats::from_raw_parts(count, mean, m2, min, max);
        }
        let n_rows = r.get_u32()?;
        let mut trace = Trace::new();
        for _ in 0..n_rows {
            trace.push(TraceRow {
                time_s: r.get_f64()?,
                frame: r.get_u64()?,
                fps: r.get_f64()?,
                psnr_db: r.get_f64()?,
                bitrate_mbps: r.get_f64()?,
                qp: r.get_u8()?,
                threads: r.get_u32()?,
                freq_ghz: r.get_f64()?,
                power_w: r.get_f64()?,
            });
        }
        r.expect_end()?;

        let mut session = TranscodeSession::new(0, config, controller);
        session.controller.restore(&policy)?;
        // Rebuild the playlist-position artifacts exactly as the
        // playlist-advance loop in start_next_frame would have: name,
        // encoder, decoder and source derive from the spec at the
        // (clamped) position, with the per-position content seed.
        let last = session.config.playlist.len().saturating_sub(1);
        let pos = playlist_pos.min(last);
        if pos > 0 {
            let spec = session
                .config
                .playlist
                .get(pos)
                .expect("clamped position is in range")
                .clone();
            session.name = spec.name().to_owned();
            session.encoder = HevcEncoder::new(spec.resolution(), session.config.preset);
            session.decoder = HevcDecoder::new(spec.resolution());
            session.source = VideoSource::new(&spec, session.config.seed.wrapping_add(pos as u64));
        }
        session.playlist_pos = playlist_pos;
        session.source.restore_state(&source_state);
        session.config.constraints = constraints;
        session.knobs = knobs;
        session.frame_counter = frame_counter;
        session.in_flight = in_flight;
        session.completions = completions;
        session.last_obs = last_obs;
        session.qos = qos;
        [
            session.fps_stats,
            session.psnr_stats,
            session.bitrate_stats,
            session.thread_stats,
            session.freq_stats,
        ] = stats;
        session.trace = trace;
        session.finished = finished;
        Ok(session)
    }
}

/// Clamps controller output into physically meaningful ranges.
fn clamp_knobs(mut k: KnobSettings) -> KnobSettings {
    k.qp = k.qp.min(51);
    k.threads = k.threads.clamp(1, 64);
    if !(k.freq_ghz.is_finite() && k.freq_ghz > 0.0) {
        k.freq_ghz = 1.6;
    }
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use mamut_core::FixedController;
    use mamut_video::catalog;

    fn session(frames: u64) -> TranscodeSession {
        let spec = catalog::by_name("Kimono")
            .unwrap()
            .with_frame_count(frames)
            .unwrap();
        TranscodeSession::new(
            0,
            SessionConfig::single_video(spec, 1).with_trace(),
            Box::new(FixedController::new(KnobSettings::new(32, 8, 2.9))),
        )
    }

    #[test]
    fn preset_follows_resolution() {
        let hr = SessionConfig::single_video(catalog::by_name("Cactus").unwrap(), 0);
        assert_eq!(hr.preset, Preset::Ultrafast);
        let lr = SessionConfig::single_video(catalog::by_name("BQMall").unwrap(), 0);
        assert_eq!(lr.preset, Preset::Slow);
    }

    #[test]
    fn start_and_complete_one_frame() {
        let mut s = session(5);
        assert!(s.start_next_frame(0.0));
        assert!(s.in_flight.is_some());
        let work = s.in_flight.as_ref().unwrap().work_total;
        assert!(work > 1e8, "an HR frame is hundreds of megacycles: {work}");
        s.complete_frame(0.04, 75.0);
        assert_eq!(s.frames_completed(), 1);
        assert_eq!(s.trace().len(), 1);
        assert!(!s.is_finished());
    }

    #[test]
    fn finishes_after_playlist() {
        let mut s = session(3);
        for i in 0..3 {
            assert!(s.start_next_frame(i as f64 * 0.04));
            s.complete_frame(i as f64 * 0.04 + 0.04, 70.0);
        }
        assert!(!s.is_finished());
        assert!(!s.start_next_frame(0.2));
        assert!(s.is_finished());
        assert_eq!(s.frames_completed(), 3);
    }

    #[test]
    fn playlist_advances_to_next_video() {
        let a = catalog::by_name("Kimono")
            .unwrap()
            .with_frame_count(2)
            .unwrap();
        let b = catalog::by_name("Cactus")
            .unwrap()
            .with_frame_count(2)
            .unwrap();
        let playlist = Playlist::new(vec![a, b]).unwrap();
        let mut s = TranscodeSession::new(
            0,
            SessionConfig::playlist(playlist, 3),
            Box::new(FixedController::new(KnobSettings::new(32, 8, 2.9))),
        );
        assert_eq!(s.name(), "Kimono");
        for i in 0..2 {
            s.start_next_frame(i as f64);
            s.complete_frame(i as f64 + 0.5, 70.0);
        }
        assert!(s.start_next_frame(2.0));
        assert_eq!(s.name(), "Cactus");
        assert!(!s.is_finished());
    }

    #[test]
    fn windowed_fps_reflects_completion_times() {
        let mut s = session(20);
        let mut t = 0.0;
        for _ in 0..10 {
            s.start_next_frame(t);
            t += 1.0 / 30.0; // steady 30 FPS
            s.complete_frame(t, 70.0);
        }
        assert!(
            (s.last_obs.fps - 30.0).abs() < 0.5,
            "fps = {}",
            s.last_obs.fps
        );
    }

    #[test]
    fn violations_counted_for_slow_frames() {
        let mut s = session(10);
        let mut t = 0.0;
        for _ in 0..10 {
            s.start_next_frame(t);
            t += 0.1; // 10 FPS < 24 target
            s.complete_frame(t, 70.0);
        }
        assert_eq!(s.qos().violations(), 10);
    }

    #[test]
    fn clamping_sanitizes_controller_output() {
        let k = clamp_knobs(KnobSettings::new(99, 0, f64::NAN));
        assert_eq!(k.qp, 51);
        assert_eq!(k.threads, 1);
        assert_eq!(k.freq_ghz, 1.6);
    }

    #[test]
    fn stats_accumulate() {
        let mut s = session(4);
        let mut t = 0.0;
        for _ in 0..4 {
            s.start_next_frame(t);
            t += 0.05;
            s.complete_frame(t, 70.0);
        }
        assert!((s.mean_threads() - 8.0).abs() < 1e-12);
        assert!((s.mean_freq_ghz() - 2.9).abs() < 1e-12);
        assert!(s.mean_psnr_db() > 25.0);
        assert!(s.mean_bitrate_mbps() > 0.5);
        assert!((s.mean_fps() - 20.0).abs() < 1.0);
    }

    #[test]
    fn checkpoint_round_trip_continues_bit_identically() {
        let spec = catalog::by_name("Kimono")
            .unwrap()
            .with_frame_count(40)
            .unwrap();
        let config = SessionConfig::single_video(spec, 9).with_trace();
        let mut original = TranscodeSession::new(
            0,
            config.clone(),
            Box::new(FixedController::new(KnobSettings::new(30, 6, 3.2))),
        );
        let mut t = 0.0;
        for _ in 0..17 {
            original.start_next_frame(t);
            t += 0.05;
            original.complete_frame(t, 72.0);
        }
        // Capture mid-frame: a frame is in flight with some work drained.
        original.start_next_frame(t);
        let bytes = original.checkpoint_bytes(2.0e9, t + 0.01);
        let mut restored = TranscodeSession::restore_checkpoint(
            config,
            Box::new(FixedController::new(KnobSettings::new(30, 6, 3.2))),
            &bytes,
        )
        .expect("checkpoint decodes");
        let drained = 2.0e9 * 0.01;
        let fly = original.in_flight.as_ref().unwrap();
        let fly_r = restored.in_flight.as_ref().unwrap();
        assert_eq!(fly_r.work_remaining, fly.work_remaining - drained);
        assert_eq!(fly_r.work_total, fly.work_total);
        // Drive both to completion on the same schedule (account the
        // restored session's already-drained work as a head start).
        original.complete_frame(t + 0.08, 70.0);
        restored.complete_frame(t + 0.08, 70.0);
        while original.start_next_frame(t) {
            assert!(restored.start_next_frame(t));
            t += 0.05;
            original.complete_frame(t, 70.0);
            restored.complete_frame(t, 70.0);
        }
        assert!(!restored.start_next_frame(t));
        assert_eq!(restored.frames_completed(), original.frames_completed());
        assert_eq!(restored.qos(), original.qos());
        assert_eq!(restored.name(), original.name());
        assert_eq!(
            restored.trace().to_csv(),
            original.trace().to_csv(),
            "traces must match row for row"
        );
        assert_eq!(restored.knobs(), original.knobs());
        assert_eq!(
            restored.checkpoint_bytes(0.0, t),
            original.checkpoint_bytes(0.0, t),
            "full dynamic state must re-encode identically"
        );
    }

    #[test]
    fn checkpoint_restore_rejects_mangled_streams() {
        let mut s = session(10);
        s.start_next_frame(0.0);
        s.complete_frame(0.04, 70.0);
        let bytes = s.checkpoint_bytes(0.0, 0.04);
        let rebuild = || {
            let spec = catalog::by_name("Kimono")
                .unwrap()
                .with_frame_count(10)
                .unwrap();
            (
                SessionConfig::single_video(spec, 1).with_trace(),
                Box::new(FixedController::new(KnobSettings::new(32, 8, 2.9)))
                    as Box<dyn Controller>,
            )
        };
        let mut newer = bytes.clone();
        newer[0] = 0xFF;
        let (cfg, ctl) = rebuild();
        assert!(matches!(
            TranscodeSession::restore_checkpoint(cfg, ctl, &newer),
            Err(SnapshotError::UnsupportedVersion(_))
        ));
        for cut in [0, 8, bytes.len() / 2, bytes.len() - 1] {
            let (cfg, ctl) = rebuild();
            assert!(
                TranscodeSession::restore_checkpoint(cfg, ctl, &bytes[..cut]).is_err(),
                "cut at {cut} slipped through"
            );
        }
    }

    #[test]
    fn constraints_can_change_mid_run() {
        let mut s = session(5);
        let mut c = s.constraints();
        c.bandwidth_mbps = 3.0;
        s.set_constraints(c);
        assert_eq!(s.constraints().bandwidth_mbps, 3.0);
    }
}
