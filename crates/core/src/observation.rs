use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// What a controller can measure about one stream and the server.
///
/// These four signals are exactly the paper's state inputs (§III-C):
/// throughput (FPS), quality (PSNR), output bitrate, and server power.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Stream throughput in frames per second (windowed measurement).
    pub fps: f64,
    /// Frame quality in dB.
    pub psnr_db: f64,
    /// Output bitrate in Mb/s.
    pub bitrate_mbps: f64,
    /// Server-wide power draw in watts.
    pub power_w: f64,
}

impl Observation {
    /// Component-wise mean of a non-empty slice of observations.
    ///
    /// Used for the paper's NULL-slot averaging (§IV-A): when an action is
    /// followed by frames on which no agent acts, the next-state estimate is
    /// the average of the observations over those frames, which "leads the
    /// agents to learn more about each others' behavior rather than about
    /// rapid video content variation".
    ///
    /// Returns `None` for an empty slice.
    pub fn mean_of(observations: &[Observation]) -> Option<Observation> {
        if observations.is_empty() {
            return None;
        }
        let n = observations.len() as f64;
        let mut acc = Observation {
            fps: 0.0,
            psnr_db: 0.0,
            bitrate_mbps: 0.0,
            power_w: 0.0,
        };
        for o in observations {
            acc.fps += o.fps;
            acc.psnr_db += o.psnr_db;
            acc.bitrate_mbps += o.bitrate_mbps;
            acc.power_w += o.power_w;
        }
        Some(Observation {
            fps: acc.fps / n,
            psnr_db: acc.psnr_db / n,
            bitrate_mbps: acc.bitrate_mbps / n,
            power_w: acc.power_w / n,
        })
    }
}

/// Streaming accumulator for [`Observation`] means (used by controllers to
/// average over NULL slots without storing every sample).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ObservationAccumulator {
    count: u64,
    fps: f64,
    psnr_db: f64,
    bitrate_mbps: f64,
    power_w: f64,
}

impl ObservationAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, o: &Observation) {
        self.count += 1;
        self.fps += o.fps;
        self.psnr_db += o.psnr_db;
        self.bitrate_mbps += o.bitrate_mbps;
        self.power_w += o.power_w;
    }

    /// Number of observations accumulated.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean observation, or `None` if empty.
    pub fn mean(&self) -> Option<Observation> {
        if self.count == 0 {
            return None;
        }
        let n = self.count as f64;
        Some(Observation {
            fps: self.fps / n,
            psnr_db: self.psnr_db / n,
            bitrate_mbps: self.bitrate_mbps / n,
            power_w: self.power_w / n,
        })
    }

    /// Resets the accumulator to empty.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Writes the count, then the raw running sums — exact state for
    /// portable snapshots (means would lose bits).
    pub fn write_to(&self, w: &mut SnapshotWriter) {
        w.put_u64(self.count);
        for sum in [self.fps, self.psnr_db, self.bitrate_mbps, self.power_w] {
            w.put_f64(sum);
        }
    }

    /// Reads an accumulator written by [`ObservationAccumulator::write_to`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Truncated`] if the input ends early.
    pub fn read_from(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(ObservationAccumulator {
            count: r.get_u64()?,
            fps: r.get_f64()?,
            psnr_db: r.get_f64()?,
            bitrate_mbps: r.get_f64()?,
            power_w: r.get_f64()?,
        })
    }
}

/// Per-stream and server-level constraints the controller honours.
///
/// The paper's defaults: 24 FPS target (§III-C), a 3G-class user bandwidth
/// around the 6 Mb/s state boundary (§III-C), and a server power cap set by
/// the operator (§III-D(c)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constraints {
    /// Target frame rate (FPS).
    pub target_fps: f64,
    /// User's available bandwidth (Mb/s); bitrates above it are violations.
    pub bandwidth_mbps: f64,
    /// Server power cap `Pcap` (W); draws at or above it are violations.
    pub power_cap_w: f64,
}

impl Constraints {
    /// The paper's defaults: 24 FPS, 6 Mb/s bandwidth, 140 W power cap.
    ///
    /// 140 W sits just above the full-load draw of the simulated server so
    /// that, as in the paper's experiments, the cap binds only when a
    /// controller pushes everything to the top frequency bins ("all the
    /// implementations met the constraints", §V-B).
    pub fn paper_defaults() -> Self {
        Constraints {
            target_fps: 24.0,
            bandwidth_mbps: 6.0,
            power_cap_w: 140.0,
        }
    }
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(fps: f64) -> Observation {
        Observation {
            fps,
            psnr_db: 34.0,
            bitrate_mbps: 4.0,
            power_w: 80.0,
        }
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(Observation::mean_of(&[]), None);
    }

    #[test]
    fn mean_of_single_is_identity() {
        let o = obs(25.0);
        assert_eq!(Observation::mean_of(&[o]), Some(o));
    }

    #[test]
    fn mean_of_averages_componentwise() {
        let a = Observation {
            fps: 20.0,
            psnr_db: 30.0,
            bitrate_mbps: 2.0,
            power_w: 60.0,
        };
        let b = Observation {
            fps: 30.0,
            psnr_db: 40.0,
            bitrate_mbps: 6.0,
            power_w: 100.0,
        };
        let m = Observation::mean_of(&[a, b]).unwrap();
        assert_eq!(m.fps, 25.0);
        assert_eq!(m.psnr_db, 35.0);
        assert_eq!(m.bitrate_mbps, 4.0);
        assert_eq!(m.power_w, 80.0);
    }

    #[test]
    fn accumulator_matches_mean_of() {
        let samples = [obs(20.0), obs(24.0), obs(28.0)];
        let mut acc = ObservationAccumulator::new();
        for s in &samples {
            acc.push(s);
        }
        assert_eq!(acc.count(), 3);
        assert_eq!(acc.mean(), Observation::mean_of(&samples));
    }

    #[test]
    fn accumulator_empty_and_clear() {
        let mut acc = ObservationAccumulator::new();
        assert_eq!(acc.mean(), None);
        acc.push(&obs(24.0));
        acc.clear();
        assert_eq!(acc.count(), 0);
        assert_eq!(acc.mean(), None);
    }

    #[test]
    fn paper_defaults() {
        let c = Constraints::paper_defaults();
        assert_eq!(c.target_fps, 24.0);
        assert_eq!(c.bandwidth_mbps, 6.0);
        assert_eq!(c.power_cap_w, 140.0);
        assert_eq!(Constraints::default(), c);
    }
}
