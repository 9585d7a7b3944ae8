use mamut_metrics::RunningStats;

/// Per-session results of a run — one row of a Table II-style report.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSummary {
    /// Name of the (last) video transcoded.
    pub name: String,
    /// Controller that drove the session.
    pub controller: String,
    /// Whether the stream was high-resolution.
    pub is_hr: bool,
    /// Frames completed.
    pub frames: u64,
    /// Frames processed below the FPS target.
    pub violations: u64,
    /// The paper's ∆ — percentage of frames below target.
    pub violation_percent: f64,
    /// Violations surviving the play-out buffer, as a percentage.
    pub delivery_violation_percent: f64,
    /// Mean instantaneous FPS.
    pub mean_fps: f64,
    /// Mean PSNR (dB).
    pub mean_psnr_db: f64,
    /// Mean bitrate (Mb/s).
    pub mean_bitrate_mbps: f64,
    /// Mean thread count (the paper's `Nth`).
    pub mean_threads: f64,
    /// Mean DVFS frequency (GHz).
    pub mean_freq_ghz: f64,
}

/// Whole-run results: per-session rows plus server-level aggregates.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-session summaries in id order.
    pub sessions: Vec<SessionSummary>,
    /// Lifetime average server power (W).
    pub mean_power_w: f64,
    /// Total energy drawn (J).
    pub energy_j: f64,
    /// Virtual run duration (s).
    pub duration_s: f64,
}

impl RunSummary {
    /// Mean of `select` across sessions (0.0 when there are none).
    pub fn session_mean<F: FnMut(&SessionSummary) -> f64>(&self, select: F) -> f64 {
        RunningStats::from_samples(self.sessions.iter().map(select).collect::<Vec<_>>()).mean()
    }

    /// Mean ∆ (violation percentage) across sessions.
    pub fn mean_violation_percent(&self) -> f64 {
        self.session_mean(|s| s.violation_percent)
    }

    /// Mean FPS across sessions.
    pub fn mean_fps(&self) -> f64 {
        self.session_mean(|s| s.mean_fps)
    }

    /// Mean thread count across sessions (the paper's `Nth` column).
    pub fn mean_threads(&self) -> f64 {
        self.session_mean(|s| s.mean_threads)
    }

    /// Mean frequency across sessions (GHz).
    pub fn mean_freq_ghz(&self) -> f64 {
        self.session_mean(|s| s.mean_freq_ghz)
    }

    /// Mean PSNR across sessions (dB).
    pub fn mean_psnr_db(&self) -> f64 {
        self.session_mean(|s| s.mean_psnr_db)
    }

    /// Summaries restricted to HR (`true`) or LR (`false`) sessions.
    pub fn by_resolution(&self, hr: bool) -> Vec<&SessionSummary> {
        self.sessions.iter().filter(|s| s.is_hr == hr).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(rows: Vec<SessionSummary>) -> RunSummary {
        RunSummary {
            sessions: rows,
            mean_power_w: 90.0,
            energy_j: 900.0,
            duration_s: 10.0,
        }
    }

    fn row(is_hr: bool, viol: f64, fps: f64) -> SessionSummary {
        SessionSummary {
            name: "X".into(),
            controller: "fixed".into(),
            is_hr,
            frames: 100,
            violations: viol as u64,
            violation_percent: viol,
            delivery_violation_percent: viol / 2.0,
            mean_fps: fps,
            mean_psnr_db: 34.0,
            mean_bitrate_mbps: 4.0,
            mean_threads: 8.0,
            mean_freq_ghz: 2.6,
        }
    }

    #[test]
    fn means_across_sessions() {
        let s = summary(vec![row(true, 10.0, 25.0), row(false, 30.0, 27.0)]);
        assert!((s.mean_violation_percent() - 20.0).abs() < 1e-12);
        assert!((s.mean_fps() - 26.0).abs() < 1e-12);
        assert!((s.mean_threads() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn by_resolution_filters() {
        let s = summary(vec![row(true, 10.0, 25.0), row(false, 30.0, 27.0)]);
        assert_eq!(s.by_resolution(true).len(), 1);
        assert_eq!(s.by_resolution(false).len(), 1);
        assert!(s.by_resolution(true)[0].is_hr);
    }

    #[test]
    fn empty_summary_means_are_zero() {
        let s = summary(vec![]);
        assert_eq!(s.mean_violation_percent(), 0.0);
        assert_eq!(s.mean_fps(), 0.0);
    }
}
