//! Multicore server platform model for the MAMUT transcoding simulator.
//!
//! The paper runs on a dual-socket Intel Xeon E5-2667 v4 server: 16 cores /
//! 32 hardware threads, per-core DVFS from 1.2 GHz to 3.2 GHz, and RAPL
//! power measurement. None of that hardware is available here, so this crate
//! provides a calibrated stand-in with the pieces the control loop actually
//! interacts with:
//!
//! * [`CpuTopology`] — sockets × cores × SMT threads;
//! * [`DvfsTable`] — discrete frequency/voltage operating points shaped like
//!   a Broadwell-EP V/f curve (voltage rises super-linearly toward turbo,
//!   which is what makes "more threads at lower frequency" win in
//!   performance-per-watt — the trade-off MAMUT learns, Table I);
//! * [`PowerModel`] — `P = P_static + Σ_threads c_eff·V²·f (+SMT discount)
//!   plus per-socket uncore`, calibrated against the paper's observed range
//!   (≈52–82 W for one 1080p stream, ≈135 W at full load);
//! * [`ContentionModel`] — fair-share throughput scaling when sessions
//!   request more threads than the machine has, with diminished returns for
//!   SMT siblings;
//! * [`PowerSensor`] — energy integration over simulated time, standing in
//!   for RAPL counters.
//!
//! # Example
//!
//! ```
//! use mamut_platform::{Platform, SessionLoad};
//!
//! let platform = Platform::xeon_e5_2667_v4();
//! let light = platform.power_draw(&[SessionLoad::new(1, 3.2)]);
//! let heavy = platform.power_draw(&[SessionLoad::new(32, 3.2)]);
//! assert!(light < heavy);
//! assert!(heavy < 150.0); // bounded by the calibrated full-load draw
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod contention;
mod dvfs;
mod error;
mod platform;
mod power;
mod sensor;
mod topology;

pub use contention::ContentionModel;
pub use dvfs::{DvfsLevel, DvfsTable};
pub use error::PlatformError;
pub use platform::{Platform, SessionLoad};
pub use power::{PowerModel, PowerTerm};
pub use sensor::PowerSensor;
pub use topology::CpuTopology;
