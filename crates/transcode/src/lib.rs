//! Discrete-event multi-user transcoding server simulator.
//!
//! This crate replaces the paper's physical testbed: a dual-socket Xeon
//! server running one Kvazaar transcoding pipeline per user. Sessions share
//! the machine through processor-sharing semantics and the platform's
//! contention model; controllers (MAMUT or the baselines) actuate knobs at
//! frame boundaries exactly as the paper's run-time manager does.
//!
//! # Simulation model
//!
//! Time is virtual. Each active session always has one frame in flight
//! (work-conserving: a VoD transcoder encodes ahead and buffers, §III-D).
//! Between events every session retires `rate · dt` cycles where
//!
//! ```text
//! rate = freq · threads · WPP_efficiency(resolution, threads) · contention_scale
//! ```
//!
//! The next event is the earliest frame completion; power is integrated
//! over the interval, then completed frames trigger controller callbacks
//! (`end_frame` with the measured observation, `begin_frame` for the next
//! frame) — so a knob change on any session reshapes everyone's progress
//! from that instant on, exactly like rescheduling threads on a real
//! machine.
//!
//! # Incremental event engine
//!
//! Between controller decisions nothing can move the rate vector, so the
//! engine caches it per *rate epoch*: each in-flight frame's remaining
//! work is anchored at the last rate change and its completion instant
//! is a fixed deadline in an index min-heap. A steady-state event is one
//! heap pop plus one push — no per-session rescans, no model
//! re-evaluation, no allocations. Knob, constraint, session-set or
//! resolution changes bump the epoch and rebuild exactly the state they
//! invalidate. A rebuild walks only the live slots, and a finished
//! session can be archived to its summary row
//! ([`ServerSim::archive_session`]), so a server that has served many
//! sessions costs what its live ones do. The `oracle` feature compiles a
//! naive per-event recomputation path that the test suite holds
//! bit-identical to the incremental engine.
//!
//! # Example
//!
//! ```
//! use mamut_core::{FixedController, KnobSettings};
//! use mamut_transcode::{ServerSim, SessionConfig};
//! use mamut_video::catalog;
//!
//! let mut server = ServerSim::with_default_platform();
//! let spec = catalog::by_name("Kimono").unwrap().with_frame_count(48).unwrap();
//! let cfg = SessionConfig::single_video(spec, 1);
//! server.add_session(cfg, Box::new(FixedController::new(KnobSettings::new(32, 10, 3.2))));
//! let summary = server.run_to_completion(100_000).unwrap();
//! assert_eq!(summary.sessions[0].frames, 48);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod admission;
mod error;
mod scenario;
mod server;
mod session;
mod summary;

pub use admission::{AdmissionPlanner, AdmissionVerdict, StreamShape};
pub use error::TranscodeError;
pub use scenario::{homogeneous_sessions, scenario_ii_sessions, MixSpec};
pub use server::ServerSim;
pub use session::{SessionConfig, TranscodeSession, INITIAL_KNOBS, SESSION_CHECKPOINT_VERSION};
pub use summary::{RunSummary, SessionSummary};
