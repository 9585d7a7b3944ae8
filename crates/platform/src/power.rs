use crate::{CpuTopology, DvfsTable, PlatformError};

/// A session's share of the machine, as seen by the power model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThreadGroup {
    /// Number of software threads the session runs.
    pub threads: u32,
    /// DVFS frequency its cores run at (GHz).
    pub freq_ghz: f64,
}

/// One session's input to the power fold with its DVFS lookups done:
/// the thread count, the table frequency its cores run at, and the core
/// voltage at that frequency. [`Platform::power_term`] builds one from a
/// session's knobs; a caller that keeps the term while the knobs hold
/// skips both table lookups on every later fold.
///
/// [`Platform::power_term`]: crate::Platform::power_term
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerTerm {
    /// Number of software threads the session runs.
    pub threads: u32,
    /// Frequency its cores run at (GHz).
    pub freq_ghz: f64,
    /// Core voltage at `freq_ghz` (V).
    pub voltage_v: f64,
}

/// Analytic server power model calibrated to the paper's observations.
///
/// ```text
/// P = P_static
///   + Σ_sessions  eff_threads(session) · c_eff · V(f)² · f
///   + Σ_sockets   uncore(socket)
/// ```
///
/// * `eff_threads` discounts SMT siblings by `smt_power_factor`: a sibling
///   reuses a core that is already powered, adding only incremental
///   switching activity.
/// * `uncore(socket)` is `uncore_base + uncore_dyn·(f_max/3.2)³` for active
///   sockets (LLC, ring, memory controller clock with the fastest core) and
///   `uncore_idle` for idle ones.
///
/// Calibration anchors (see `tests::calibration_*`):
/// * 1 HR stream, 10 threads @ 3.2 GHz → ≈82 W (paper Fig. 2 tops near 80 W);
/// * 1 thread @ 3.2 GHz → ≈57 W (Fig. 2 floor ≈52 W);
/// * 32 threads @ 3.2 GHz → ≈135 W (Table II heuristic peak 134.6 W).
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    static_w: f64,
    c_eff: f64,
    smt_power_factor: f64,
    uncore_base_w: f64,
    uncore_dyn_w: f64,
    uncore_idle_w: f64,
    topology: CpuTopology,
}

impl PowerModel {
    /// Creates a power model with explicit coefficients.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::InvalidParam`] if any coefficient is
    /// negative or non-finite, or `smt_power_factor` exceeds 1.
    pub fn new(
        static_w: f64,
        c_eff: f64,
        smt_power_factor: f64,
        uncore_base_w: f64,
        uncore_dyn_w: f64,
        uncore_idle_w: f64,
        topology: CpuTopology,
    ) -> Result<Self, PlatformError> {
        let check_nonneg = |name: &'static str, value: f64| {
            if value.is_finite() && value >= 0.0 {
                Ok(())
            } else {
                Err(PlatformError::InvalidParam { name, value })
            }
        };
        check_nonneg("static_w", static_w)?;
        check_nonneg("c_eff", c_eff)?;
        check_nonneg("smt_power_factor", smt_power_factor)?;
        if smt_power_factor > 1.0 {
            return Err(PlatformError::InvalidParam {
                name: "smt_power_factor",
                value: smt_power_factor,
            });
        }
        check_nonneg("uncore_base_w", uncore_base_w)?;
        check_nonneg("uncore_dyn_w", uncore_dyn_w)?;
        check_nonneg("uncore_idle_w", uncore_idle_w)?;
        Ok(PowerModel {
            static_w,
            c_eff,
            smt_power_factor,
            uncore_base_w,
            uncore_dyn_w,
            uncore_idle_w,
            topology,
        })
    }

    /// Coefficients calibrated for the paper's dual Xeon E5-2667 v4.
    pub fn xeon_e5_2667_v4() -> Self {
        PowerModel::new(
            42.0, // platform static: VRs, fans, idle cores, DRAM refresh
            0.60, // W per GHz·V² per active thread
            0.60, // SMT sibling draws 60 % of a primary thread
            4.0,  // uncore base per active socket
            6.0,  // uncore dynamic at 3.2 GHz per active socket
            2.0,  // uncore when the socket is idle
            CpuTopology::dual_xeon_e5_2667_v4(),
        )
        .expect("calibrated coefficients are valid")
    }

    /// Idle platform draw in watts.
    pub fn idle_power(&self) -> f64 {
        self.static_w + f64::from(self.topology.sockets()) * self.uncore_idle_w
    }

    /// Total server power for the given concurrently running groups.
    ///
    /// `dvfs` supplies the V/f curve. Threads beyond the machine's hardware
    /// thread count draw no extra power (they time-share); the attribution
    /// of primary vs. SMT slots is proportional across groups.
    pub fn power(&self, groups: &[ThreadGroup], dvfs: &DvfsTable) -> f64 {
        self.power_for(groups.iter().copied(), dvfs)
    }

    /// [`PowerModel::power`] over any re-iterable group source, without
    /// materializing a `Vec<ThreadGroup>`. Each group becomes a
    /// [`PowerTerm`] at its own frequency and goes through
    /// [`PowerModel::power_of_terms`], so both entry points produce
    /// bit-identical watts.
    pub fn power_for<I>(&self, groups: I, dvfs: &DvfsTable) -> f64
    where
        I: Iterator<Item = ThreadGroup> + Clone,
    {
        self.power_of_terms(
            groups.map(|g| PowerTerm {
                threads: g.threads,
                freq_ghz: g.freq_ghz,
                voltage_v: dvfs.voltage_at(g.freq_ghz),
            }),
            dvfs,
        )
    }

    /// The power fold every entry point shares. It reads only the terms
    /// and the table's frequency range, and walks the terms twice: once
    /// for the thread total and fastest clock, once for the per-session
    /// core power. Iteration order is the summation order, so the same
    /// terms in the same order always produce bit-identical watts.
    pub fn power_of_terms<I>(&self, terms: I, dvfs: &DvfsTable) -> f64
    where
        I: Iterator<Item = PowerTerm> + Clone,
    {
        let (total_requested, f_max) =
            terms.clone().fold((0u32, 0.0_f64), |(threads, f_max), t| {
                (threads + t.threads, f_max.max(t.freq_ghz))
            });
        if total_requested == 0 {
            return self.idle_power();
        }

        let cores = self.topology.physical_cores();
        let hw = self.topology.hw_threads();
        let runnable = total_requested.min(hw);
        let primary = f64::from(runnable.min(cores));
        let smt = f64::from(runnable.saturating_sub(cores));
        // Power-effective thread count, attributed proportionally to groups.
        let eff_total = primary + self.smt_power_factor * smt;
        let attribution = eff_total / f64::from(total_requested);

        let core_power: f64 = terms
            .map(|t| {
                let v = t.voltage_v;
                f64::from(t.threads) * attribution * self.c_eff * v * v * t.freq_ghz
            })
            .sum();

        // Sockets fill up in order: one socket covers up to 16 hw threads.
        let per_socket = self.topology.hw_threads_per_socket().max(1);
        let active_sockets = runnable.div_ceil(per_socket).min(self.topology.sockets());
        let idle_sockets = self.topology.sockets() - active_sockets;
        let rel = f_max.max(dvfs.min_freq_ghz()) / dvfs.max_freq_ghz();
        let uncore = f64::from(active_sockets)
            * (self.uncore_base_w + self.uncore_dyn_w * rel.powi(3))
            + f64::from(idle_sockets) * self.uncore_idle_w;

        self.static_w + core_power + uncore
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel::xeon_e5_2667_v4()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> PowerModel {
        PowerModel::xeon_e5_2667_v4()
    }

    fn dvfs() -> DvfsTable {
        DvfsTable::broadwell_ep()
    }

    fn one(threads: u32, freq: f64) -> Vec<ThreadGroup> {
        vec![ThreadGroup {
            threads,
            freq_ghz: freq,
        }]
    }

    #[test]
    fn calibration_single_hr_stream_at_max_frequency() {
        // Paper Fig. 2: one 1080p stream with 10 threads tops out near 80 W.
        let p = model().power(&one(10, 3.2), &dvfs());
        assert!((78.0..=88.0).contains(&p), "p = {p}");
    }

    #[test]
    fn calibration_single_thread_floor() {
        // Paper Fig. 2: the 1-thread series sits in the low 50s of watts.
        let p = model().power(&one(1, 3.2), &dvfs());
        assert!((50.0..=60.0).contains(&p), "p = {p}");
    }

    #[test]
    fn calibration_full_load() {
        // Paper Table II: heaviest mix draws ≈135 W.
        let p = model().power(&one(32, 3.2), &dvfs());
        assert!((125.0..=145.0).contains(&p), "p = {p}");
    }

    #[test]
    fn idle_power_is_static_plus_idle_uncore() {
        let m = model();
        assert_eq!(m.power(&[], &dvfs()), m.idle_power());
        assert!((m.idle_power() - 46.0).abs() < 1e-9);
    }

    #[test]
    fn power_is_monotone_in_threads() {
        let m = model();
        let d = dvfs();
        let mut last = 0.0;
        for t in 1..=32 {
            let p = m.power(&one(t, 2.6), &d);
            assert!(p > last, "power must rise with threads (t = {t})");
            last = p;
        }
    }

    #[test]
    fn power_is_monotone_in_frequency() {
        let m = model();
        let d = dvfs();
        let mut last = 0.0;
        for l in d.levels() {
            let p = m.power(&one(8, l.freq_ghz), &d);
            assert!(p > last, "power must rise with frequency");
            last = p;
        }
    }

    #[test]
    fn threads_beyond_hw_capacity_draw_nothing_extra() {
        let m = model();
        let d = dvfs();
        let p32 = m.power(&one(32, 3.2), &d);
        let p64 = m.power(&one(64, 3.2), &d);
        assert!((p32 - p64).abs() < 1e-9);
    }

    #[test]
    fn many_threads_low_freq_beats_few_threads_high_freq_per_throughput() {
        // The Table-I trade-off: 10 threads @ 2.6 GHz delivers comparable
        // throughput to 6 threads @ 3.2 GHz (WPP efficiency favours fewer
        // threads) yet must draw *less* power for MAMUT's policy to win.
        let m = model();
        let d = dvfs();
        let many_low = m.power(&one(10, 2.6), &d);
        let few_high = m.power(&one(6, 3.2), &d);
        assert!(
            many_low < few_high,
            "many/low {many_low} must beat few/high {few_high}"
        );
    }

    #[test]
    fn second_socket_uncore_kicks_in_above_sixteen_threads() {
        let m = model();
        let d = dvfs();
        let p16 = m.power(&one(16, 2.3), &d);
        let p17 = m.power(&one(17, 2.3), &d);
        // 17th thread adds SMT-discounted core power plus the extra socket's
        // active-uncore delta.
        assert!(p17 - p16 > 2.0, "delta = {}", p17 - p16);
    }

    #[test]
    fn mixed_frequency_groups_sum() {
        let m = model();
        let d = dvfs();
        let groups = vec![
            ThreadGroup {
                threads: 8,
                freq_ghz: 2.9,
            },
            ThreadGroup {
                threads: 4,
                freq_ghz: 1.6,
            },
        ];
        let p = m.power(&groups, &d);
        let hi_only = m.power(&one(8, 2.9), &d);
        assert!(p > hi_only);
        assert!(p < hi_only + m.power(&one(4, 1.6), &d)); // shared static
    }

    #[test]
    fn invalid_params_rejected() {
        let topo = CpuTopology::default();
        assert!(PowerModel::new(-1.0, 0.6, 0.6, 4.0, 6.0, 2.0, topo).is_err());
        assert!(PowerModel::new(42.0, -0.6, 0.6, 4.0, 6.0, 2.0, topo).is_err());
        assert!(PowerModel::new(42.0, 0.6, 1.5, 4.0, 6.0, 2.0, topo).is_err());
        assert!(PowerModel::new(42.0, 0.6, 0.6, f64::NAN, 6.0, 2.0, topo).is_err());
    }
}
