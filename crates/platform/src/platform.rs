use crate::{ContentionModel, CpuTopology, DvfsTable, PowerModel, PowerTerm};

/// The CPU demand of one transcoding session: threads at a frequency.
///
/// This is the unit the simulator hands to [`Platform::power_draw`] and the
/// quantity MAMUT's `AGthread`/`AGdvfs` agents actuate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionLoad {
    /// Number of encoding threads the session runs.
    pub threads: u32,
    /// Per-core DVFS frequency for the session's cores (GHz).
    pub freq_ghz: f64,
}

impl SessionLoad {
    /// Creates a session load.
    pub fn new(threads: u32, freq_ghz: f64) -> Self {
        SessionLoad { threads, freq_ghz }
    }
}

/// Facade over topology, DVFS, power and contention — "the server".
///
/// # Example
///
/// ```
/// use mamut_platform::{Platform, SessionLoad};
///
/// let p = Platform::xeon_e5_2667_v4();
/// // Two HEVC sessions sharing the machine:
/// let loads = [SessionLoad::new(10, 2.6), SessionLoad::new(4, 2.9)];
/// let watts = p.power_draw(&loads);
/// assert!(watts > p.idle_power_w());
/// // 14 threads on a 16-core box: no throughput loss yet.
/// assert_eq!(p.throughput_scale(14), 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct Platform {
    topology: CpuTopology,
    dvfs: DvfsTable,
    power: PowerModel,
    contention: ContentionModel,
}

impl Platform {
    /// The paper's platform: dual Xeon E5-2667 v4 with calibrated models.
    pub fn xeon_e5_2667_v4() -> Self {
        let topology = CpuTopology::dual_xeon_e5_2667_v4();
        Platform {
            topology,
            dvfs: DvfsTable::broadwell_ep(),
            power: PowerModel::xeon_e5_2667_v4(),
            contention: ContentionModel::new(topology, 0.55)
                .expect("calibrated contention parameters are valid"),
        }
    }

    /// Builds a platform from explicit component models.
    pub fn from_parts(
        topology: CpuTopology,
        dvfs: DvfsTable,
        power: PowerModel,
        contention: ContentionModel,
    ) -> Self {
        Platform {
            topology,
            dvfs,
            power,
            contention,
        }
    }

    /// Processor topology.
    pub fn topology(&self) -> CpuTopology {
        self.topology
    }

    /// DVFS operating-point table.
    pub fn dvfs(&self) -> &DvfsTable {
        &self.dvfs
    }

    /// Power model.
    pub fn power_model(&self) -> &PowerModel {
        &self.power
    }

    /// Contention model.
    pub fn contention(&self) -> &ContentionModel {
        &self.contention
    }

    /// Server power for the given set of simultaneously running sessions.
    pub fn power_draw(&self, loads: &[SessionLoad]) -> f64 {
        self.power_draw_for(loads.iter().copied())
    }

    /// [`Platform::power_draw`] over any re-iterable load source, without
    /// materializing a slice. Iteration order is the summation order, so
    /// the same loads in the same order produce bit-identical watts
    /// through either entry point.
    pub fn power_draw_for<I>(&self, loads: I) -> f64
    where
        I: Iterator<Item = SessionLoad> + Clone,
    {
        self.power_of_terms(loads.map(|l| self.power_term(l)))
    }

    /// One session's input to the power fold: its threads, its frequency
    /// snapped to the DVFS table, and the voltage at that frequency. A
    /// term depends only on the load, so a caller may keep it while the
    /// session's knobs and the frequency cap hold, and fold the kept
    /// terms with [`Platform::power_of_terms`] instead of repeating both
    /// table lookups.
    ///
    /// ```
    /// use mamut_platform::{Platform, SessionLoad};
    ///
    /// let p = Platform::xeon_e5_2667_v4();
    /// let loads = [SessionLoad::new(10, 2.59), SessionLoad::new(4, 3.2)];
    /// let term = p.power_term(loads[0]);
    /// assert_eq!((term.threads, term.freq_ghz), (10, 2.6));
    /// let cached = p.power_of_terms(loads.iter().map(|&l| p.power_term(l)));
    /// assert_eq!(cached.to_bits(), p.power_draw(&loads).to_bits());
    /// ```
    pub fn power_term(&self, load: SessionLoad) -> PowerTerm {
        let freq_ghz = self.dvfs.nearest(load.freq_ghz).freq_ghz;
        PowerTerm {
            threads: load.threads,
            freq_ghz,
            voltage_v: self.dvfs.voltage_at(freq_ghz),
        }
    }

    /// Server power for sessions given as [`Platform::power_term`]s, in
    /// summation order: the fold behind [`Platform::power_draw`].
    pub fn power_of_terms<I>(&self, terms: I) -> f64
    where
        I: Iterator<Item = PowerTerm> + Clone,
    {
        self.power.power_of_terms(terms, &self.dvfs)
    }

    /// Idle power of the server (no sessions running).
    pub fn idle_power_w(&self) -> f64 {
        self.power.idle_power()
    }

    /// Per-thread throughput scale under the given total thread demand.
    pub fn throughput_scale(&self, total_threads: u32) -> f64 {
        self.contention.throughput_scale(total_threads)
    }

    /// Effective compute rate of one session in cycles/second:
    /// `freq · threads · scale`, before encoder-side parallel efficiency.
    ///
    /// The WPP wavefront efficiency (which depends on the *frame*, not the
    /// machine) is applied by the encoder model, not here.
    pub fn session_rate_hz(&self, load: SessionLoad, total_threads: u32) -> f64 {
        let level = self.dvfs.nearest(load.freq_ghz);
        level.freq_ghz * 1e9 * f64::from(load.threads) * self.throughput_scale(total_threads)
    }
}

impl Default for Platform {
    fn default() -> Self {
        Platform::xeon_e5_2667_v4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_platform() {
        let p = Platform::default();
        assert_eq!(p.topology().hw_threads(), 32);
        assert_eq!(p.dvfs().max_freq_ghz(), 3.2);
    }

    #[test]
    fn power_draw_snaps_frequency_to_table() {
        let p = Platform::xeon_e5_2667_v4();
        let a = p.power_draw(&[SessionLoad::new(8, 2.59)]);
        let b = p.power_draw(&[SessionLoad::new(8, 2.6)]);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn more_sessions_more_power() {
        let p = Platform::xeon_e5_2667_v4();
        let one = p.power_draw(&[SessionLoad::new(6, 2.6)]);
        let two = p.power_draw(&[SessionLoad::new(6, 2.6), SessionLoad::new(6, 2.6)]);
        assert!(two > one);
    }

    #[test]
    fn session_rate_scales_with_contention() {
        let p = Platform::xeon_e5_2667_v4();
        let load = SessionLoad::new(10, 3.2);
        let alone = p.session_rate_hz(load, 10);
        let crowded = p.session_rate_hz(load, 50);
        assert!((alone - 10.0 * 3.2e9).abs() < 1.0);
        assert!(crowded < alone);
    }

    #[test]
    fn idle_power_matches_power_model() {
        let p = Platform::xeon_e5_2667_v4();
        assert_eq!(p.idle_power_w(), p.power_draw(&[]));
    }

    #[test]
    fn from_parts_round_trips_components() {
        let topo = CpuTopology::new(1, 4, 2).unwrap();
        let dvfs = DvfsTable::broadwell_ep();
        let power = PowerModel::xeon_e5_2667_v4();
        let cont = ContentionModel::new(topo, 0.3).unwrap();
        let p = Platform::from_parts(topo, dvfs, power, cont);
        assert_eq!(p.topology().physical_cores(), 4);
        assert_eq!(p.contention().smt_gain(), 0.3);
    }
}
