use mamut_core::snapshot::{PolicySnapshot, SnapshotError, SnapshotReader, SnapshotWriter};
use mamut_core::{Constraints, Controller, CoreError, KnobSettings, Observation};

/// Configuration of the heuristic baseline (adapted from Grellert et al.,
/// the paper's reference \[19\]).
#[derive(Debug, Clone, PartialEq)]
pub struct HeuristicConfig {
    /// Decision period in frames (6, like MAMUT's fastest agent — §V-A).
    pub period: u64,
    /// PSNR set-point the QP loop chases (dB). The heuristic targets high
    /// quality (the paper measures it at ≈41 dB on LR streams).
    pub psnr_target_db: f64,
    /// Dead-band around the PSNR set-point (dB).
    pub psnr_tolerance_db: f64,
    /// FPS above `target + hysteresis` sheds one thread.
    pub fps_hysteresis: f64,
    /// Thread ceiling (the stream's WPP saturation point).
    pub max_threads: u32,
    /// QP bounds (the encoder's useful range).
    pub qp_bounds: (u8, u8),
    /// DVFS levels available, ascending (GHz).
    pub dvfs_levels_ghz: Vec<f64>,
    /// Knobs in force before the first decision.
    pub initial_knobs: KnobSettings,
}

impl HeuristicConfig {
    /// Defaults for HR (1080p) streams: threads up to 12.
    pub fn paper_hr() -> Self {
        HeuristicConfig {
            period: 6,
            psnr_target_db: 40.0,
            psnr_tolerance_db: 1.0,
            fps_hysteresis: 4.0,
            max_threads: 12,
            qp_bounds: (22, 37),
            dvfs_levels_ghz: vec![1.6, 1.9, 2.3, 2.6, 2.9, 3.2],
            initial_knobs: KnobSettings::new(32, 4, 3.2),
        }
    }

    /// Defaults for LR (832×480) streams: threads up to 5.
    pub fn paper_lr() -> Self {
        HeuristicConfig {
            max_threads: 5,
            initial_knobs: KnobSettings::new(32, 2, 3.2),
            ..HeuristicConfig::paper_hr()
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] for an empty DVFS ladder, zero period/threads,
    /// or inverted QP bounds.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.period == 0 {
            return Err(CoreError::InvalidSchedule("period must be at least 1"));
        }
        if self.dvfs_levels_ghz.is_empty() {
            return Err(CoreError::EmptyActionSet("dvfs"));
        }
        if self.max_threads == 0 {
            return Err(CoreError::InvalidParam {
                name: "max_threads",
                value: 0.0,
            });
        }
        if self.qp_bounds.0 > self.qp_bounds.1 {
            return Err(CoreError::InvalidParam {
                name: "qp_bounds",
                value: f64::from(self.qp_bounds.0),
            });
        }
        Ok(())
    }
}

/// Rule-based workload management (paper §V-A, adapted from \[19\]):
///
/// * **Throughput** — below target: first jump the frequency to maximum,
///   then add threads one at a time; far above target: shed a thread.
/// * **Quality** — QP steps toward a PSNR set-point, and steps up when the
///   bitrate exceeds the user's bandwidth.
/// * **Power** — frequency steps down only when the power cap is violated.
///
/// The priority order (power → throughput → quality) and the
/// frequency-first reaction are what give the heuristic its signature
/// behaviour in the paper: maximum frequency, few threads (Table I), flat
/// QoS across loads (Fig. 4) and the highest power draw of the three
/// approaches.
#[derive(Debug, Clone)]
pub struct HeuristicController {
    config: HeuristicConfig,
    knobs: KnobSettings,
    /// Set when the previous decision added a thread, with the FPS at that
    /// moment — used to detect additions that did not help (saturation or
    /// machine-wide contention) and back off instead of spiralling.
    thread_probe: Option<f64>,
    /// Decisions to wait before probing another thread addition.
    probe_cooldown: u32,
}

/// Decisions to hold off after an unproductive thread addition.
const PROBE_COOLDOWN_DECISIONS: u32 = 8;

/// Minimum FPS gain for a thread addition to count as productive.
const PROBE_MIN_GAIN_FPS: f64 = 1.0;

impl HeuristicController {
    /// Builds the controller.
    ///
    /// # Errors
    ///
    /// Returns any [`CoreError`] from [`HeuristicConfig::validate`].
    pub fn new(config: HeuristicConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(HeuristicController {
            knobs: config.initial_knobs,
            config,
            thread_probe: None,
            probe_cooldown: 0,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> &HeuristicConfig {
        &self.config
    }

    /// Current knob settings.
    pub fn knobs(&self) -> KnobSettings {
        self.knobs
    }

    fn freq_index(&self) -> usize {
        let levels = &self.config.dvfs_levels_ghz;
        levels
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                (*a - self.knobs.freq_ghz)
                    .abs()
                    .partial_cmp(&(*b - self.knobs.freq_ghz).abs())
                    .expect("frequencies are finite")
            })
            .map(|(i, _)| i)
            .expect("dvfs ladder is non-empty")
    }

    fn step_freq(&mut self, up: bool) {
        let levels = &self.config.dvfs_levels_ghz;
        let i = self.freq_index();
        let j = if up {
            (i + 1).min(levels.len() - 1)
        } else {
            i.saturating_sub(1)
        };
        self.knobs.freq_ghz = levels[j];
    }

    fn max_freq(&self) -> f64 {
        *self
            .config
            .dvfs_levels_ghz
            .last()
            .expect("dvfs ladder is non-empty")
    }
}

impl Controller for HeuristicController {
    fn name(&self) -> &str {
        "heuristic"
    }

    fn begin_frame(
        &mut self,
        frame: u64,
        obs: &Observation,
        constraints: &Constraints,
    ) -> Option<KnobSettings> {
        if !frame.is_multiple_of(self.config.period) {
            return None;
        }
        let cfg = &self.config;

        // 1. Power protection has priority: back the frequency off.
        if obs.power_w >= constraints.power_cap_w {
            self.step_freq(false);
            return Some(self.knobs);
        }

        // 2. Throughput: frequency first, then threads (Grellert's scheme
        // treats DVFS as the fast knob and threads as the capacity knob).
        // Thread additions are *probed*: if the previous addition did not
        // improve FPS (WPP saturation or machine-wide contention), it is
        // reverted and further additions pause for a cooldown — without
        // this guard every session rides to max threads under overload and
        // collective throughput collapses.
        if obs.fps < constraints.target_fps {
            if self.knobs.freq_ghz + 1e-9 < self.max_freq() {
                self.knobs.freq_ghz = self.max_freq();
                self.thread_probe = None;
            } else if let Some(fps_at_add) = self.thread_probe.take() {
                if obs.fps < fps_at_add + PROBE_MIN_GAIN_FPS {
                    // Unproductive: back off and hold.
                    self.knobs.threads = self.knobs.threads.saturating_sub(1).max(1);
                    self.probe_cooldown = PROBE_COOLDOWN_DECISIONS;
                } else if self.knobs.threads < cfg.max_threads {
                    // Productive: keep climbing.
                    self.thread_probe = Some(obs.fps);
                    self.knobs.threads += 1;
                }
            } else if self.probe_cooldown > 0 {
                self.probe_cooldown -= 1;
            } else if self.knobs.threads < cfg.max_threads {
                self.thread_probe = Some(obs.fps);
                self.knobs.threads += 1;
            }
        } else {
            self.thread_probe = None;
            self.probe_cooldown = self.probe_cooldown.saturating_sub(1);
            if obs.fps > constraints.target_fps + cfg.fps_hysteresis && self.knobs.threads > 1 {
                self.knobs.threads -= 1;
            }
        }

        // 3. Quality/compression: bandwidth violations dominate, then the
        // PSNR set-point.
        let (qp_min, qp_max) = cfg.qp_bounds;
        if obs.bitrate_mbps > constraints.bandwidth_mbps {
            self.knobs.qp = (self.knobs.qp + 1).min(qp_max);
        } else if obs.psnr_db < cfg.psnr_target_db - cfg.psnr_tolerance_db {
            self.knobs.qp = self.knobs.qp.saturating_sub(1).max(qp_min);
        } else if obs.psnr_db > cfg.psnr_target_db + cfg.psnr_tolerance_db {
            self.knobs.qp = (self.knobs.qp + 1).min(qp_max);
        }

        Some(self.knobs)
    }

    fn end_frame(&mut self, _frame: u64, _obs: &Observation, _constraints: &Constraints) {}

    fn snapshot(&self) -> PolicySnapshot {
        let mut snap = PolicySnapshot::tableless("heuristic", self.knobs);
        let mut w = SnapshotWriter::new();
        match self.thread_probe {
            None => w.put_bool(false),
            Some(fps) => {
                w.put_bool(true);
                w.put_f64(fps);
            }
        }
        w.put_u32(self.probe_cooldown);
        snap.extra = w.into_bytes();
        snap
    }

    fn restore(&mut self, snapshot: &PolicySnapshot) -> Result<(), SnapshotError> {
        snapshot.expect_controller("heuristic")?;
        if snapshot.extra.is_empty() {
            self.thread_probe = None;
            self.probe_cooldown = 0;
        } else {
            let mut r = SnapshotReader::new(&snapshot.extra);
            let probe = if r.get_bool()? {
                Some(r.get_f64()?)
            } else {
                None
            };
            let cooldown = r.get_u32()?;
            r.expect_end()?;
            self.thread_probe = probe;
            self.probe_cooldown = cooldown;
        }
        self.knobs = snapshot.knobs;
        Ok(())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fps: f64, psnr: f64, br: f64, power: f64) -> Observation {
        Observation {
            fps,
            psnr_db: psnr,
            bitrate_mbps: br,
            power_w: power,
        }
    }

    fn ctl() -> HeuristicController {
        HeuristicController::new(HeuristicConfig::paper_hr()).unwrap()
    }

    #[test]
    fn acts_on_its_period_only() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        assert!(c
            .begin_frame(0, &obs(24.0, 40.0, 4.0, 80.0), &cons)
            .is_some());
        for f in 1..6 {
            assert!(c
                .begin_frame(f, &obs(24.0, 40.0, 4.0, 80.0), &cons)
                .is_none());
        }
        assert!(c
            .begin_frame(6, &obs(24.0, 40.0, 4.0, 80.0), &cons)
            .is_some());
    }

    #[test]
    fn fps_miss_jumps_frequency_to_max_first() {
        let cfg = HeuristicConfig {
            initial_knobs: KnobSettings::new(32, 4, 2.3),
            ..HeuristicConfig::paper_hr()
        };
        let mut c = HeuristicController::new(cfg).unwrap();
        let cons = Constraints::paper_defaults();
        let k = c
            .begin_frame(0, &obs(20.0, 40.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.freq_ghz, 3.2);
        assert_eq!(k.threads, 4, "threads untouched while freq had headroom");
    }

    #[test]
    fn fps_miss_at_max_frequency_adds_threads_while_they_help() {
        let mut c = ctl(); // starts at 3.2 GHz
        let cons = Constraints::paper_defaults();
        let k = c
            .begin_frame(0, &obs(16.0, 40.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.threads, 5);
        // The addition helped (+2 FPS): climb again.
        let k = c
            .begin_frame(6, &obs(18.0, 40.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.threads, 6);
    }

    #[test]
    fn threads_capped_at_saturation() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        // FPS improves with every addition but stays below target: the ramp
        // must stop at the configured ceiling.
        for (i, f) in (0..40).enumerate() {
            let fps = (5.0 + 1.5 * i as f64).min(23.5);
            c.begin_frame(f * 6, &obs(fps, 40.0, 4.0, 80.0), &cons);
        }
        assert_eq!(c.knobs().threads, 12);
    }

    #[test]
    fn unproductive_thread_additions_are_reverted() {
        // FPS pinned at 15 regardless of threads (overload): the probe must
        // revert its addition and hold, never spiralling to the ceiling.
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        let mut max_threads_seen = 0;
        for f in 0..30 {
            if let Some(k) = c.begin_frame(f * 6, &obs(15.0, 40.0, 4.0, 80.0), &cons) {
                max_threads_seen = max_threads_seen.max(k.threads);
            }
        }
        assert!(
            max_threads_seen <= 6,
            "threads crept to {max_threads_seen} under overload"
        );
    }

    #[test]
    fn overshoot_sheds_threads() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        let k = c
            .begin_frame(0, &obs(30.0, 40.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.threads, 3);
        // 28 FPS is above target but inside the hysteresis band: hold.
        let k = c
            .begin_frame(6, &obs(27.9, 40.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.threads, 3);
    }

    #[test]
    fn power_cap_steps_frequency_down_and_preempts_everything() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        // Power violated AND fps low: power wins, frequency steps down.
        let k = c
            .begin_frame(0, &obs(20.0, 40.0, 4.0, 150.0), &cons)
            .unwrap();
        assert_eq!(k.freq_ghz, 2.9);
        assert_eq!(k.threads, 4, "throughput rule skipped this round");
    }

    #[test]
    fn qp_chases_psnr_setpoint() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        // PSNR below set-point: qp decreases (more quality).
        let k = c
            .begin_frame(0, &obs(24.0, 35.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.qp, 31);
        // PSNR above set-point: qp increases.
        let k = c
            .begin_frame(6, &obs(24.0, 44.0, 4.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.qp, 32);
    }

    #[test]
    fn bandwidth_violation_beats_psnr_hunger() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        // Low PSNR *and* bitrate over bandwidth: QP must go up, not down.
        let k = c
            .begin_frame(0, &obs(24.0, 33.0, 8.0, 80.0), &cons)
            .unwrap();
        assert_eq!(k.qp, 33);
    }

    #[test]
    fn qp_respects_bounds() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        for f in 0..40 {
            c.begin_frame(f * 6, &obs(24.0, 30.0, 4.0, 80.0), &cons);
        }
        assert_eq!(c.knobs().qp, 22);
        for f in 40..120 {
            c.begin_frame(f * 6, &obs(24.0, 50.0, 4.0, 80.0), &cons);
        }
        assert_eq!(c.knobs().qp, 37);
    }

    #[test]
    fn frequency_floor_is_lowest_level() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        for f in 0..40 {
            c.begin_frame(f * 6, &obs(24.0, 40.0, 4.0, 200.0), &cons);
        }
        assert_eq!(c.knobs().freq_ghz, 1.6);
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = HeuristicConfig::paper_hr();
        cfg.period = 0;
        assert!(HeuristicController::new(cfg).is_err());
        let mut cfg = HeuristicConfig::paper_hr();
        cfg.dvfs_levels_ghz.clear();
        assert!(HeuristicController::new(cfg).is_err());
        let mut cfg = HeuristicConfig::paper_hr();
        cfg.max_threads = 0;
        assert!(HeuristicController::new(cfg).is_err());
        let mut cfg = HeuristicConfig::paper_hr();
        cfg.qp_bounds = (40, 22);
        assert!(HeuristicController::new(cfg).is_err());
    }

    #[test]
    fn snapshot_restore_round_trips_rule_state() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        // Drive into a state with a live thread probe.
        c.begin_frame(0, &obs(16.0, 40.0, 4.0, 80.0), &cons);
        c.begin_frame(6, &obs(17.0, 40.0, 4.0, 80.0), &cons);
        let snap = Controller::snapshot(&c);
        let decoded = PolicySnapshot::decode(&snap.encode()).unwrap();
        let mut restored = ctl();
        restored.restore(&decoded).unwrap();
        // Same inputs from here on must produce the same knob sequence.
        for f in 2..20u64 {
            let o = obs(15.0 + (f % 5) as f64, 40.0, 4.0, 80.0);
            assert_eq!(
                c.begin_frame(f * 6, &o, &cons),
                restored.begin_frame(f * 6, &o, &cons),
                "diverged at decision {f}"
            );
        }
        let mut foreign = Controller::snapshot(&c);
        foreign.controller = "fixed".into();
        assert!(restored.restore(&foreign).is_err());
    }

    #[test]
    fn steady_state_holds_still() {
        let mut c = ctl();
        let cons = Constraints::paper_defaults();
        let good = obs(25.0, 40.0, 4.0, 80.0);
        let k0 = c.begin_frame(0, &good, &cons).unwrap();
        let k1 = c.begin_frame(6, &good, &cons).unwrap();
        assert_eq!(k0, k1);
    }
}
