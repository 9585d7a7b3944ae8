//! **Server hot path** — throughput of the single-server event engine
//! itself: one `ServerSim`, 1 → 64 concurrent sessions, measured in
//! simulated frame completions per wall-clock second.
//!
//! Two series bracket the engine's operating envelope:
//!
//! * **fixed** — every session under a `FixedController`, so knobs never
//!   change after the first frame: the steady-state regime where the
//!   incremental engine reuses its cached rate vector between controller
//!   decisions (zero rate-epoch bumps, zero allocations);
//! * **mamut** — every session under a learning `MamutController`, whose
//!   scheduled decisions bump the rate epoch: the churn regime that
//!   bounds how much cache reuse a real fleet sees.
//!
//! Run with: `cargo bench --bench server_hot_path`

use std::time::Instant;

use mamut_bench::ControllerKind;
use mamut_core::{Constraints, Controller, FixedController, KnobSettings};
use mamut_metrics::{Align, Table};
use mamut_transcode::{ServerSim, SessionConfig};
use mamut_video::catalog;

/// Frames every session transcodes.
const FRAMES_PER_SESSION: u64 = 600;

/// Session `i` of a sweep: alternating HR/LR streams, paper defaults.
fn config(i: usize, frames: u64) -> SessionConfig {
    let name = if i.is_multiple_of(2) {
        "Kimono"
    } else {
        "BQMall"
    };
    let spec = catalog::by_name(name)
        .expect("catalog sequence exists")
        .with_frame_count(frames)
        .expect("positive frame count");
    SessionConfig::single_video(spec, i as u64)
}

fn fixed_controller(i: usize) -> Box<dyn Controller> {
    // Saturation knobs per class (Fig. 2): HR 10 threads, LR 4.
    let knobs = if i.is_multiple_of(2) {
        KnobSettings::new(32, 10, 3.2)
    } else {
        KnobSettings::new(32, 4, 2.6)
    };
    Box::new(FixedController::new(knobs))
}

fn mamut_controller(i: usize) -> Box<dyn Controller> {
    ControllerKind::Mamut.build(i.is_multiple_of(2), Constraints::paper_defaults(), i as u64)
}

/// One timed run; returns (simulated frames, virtual seconds, wall seconds).
fn run(sessions: usize, mamut: bool) -> (u64, f64, f64) {
    let frames = FRAMES_PER_SESSION;
    let mut server = ServerSim::with_default_platform();
    for i in 0..sessions {
        let controller = if mamut {
            mamut_controller(i)
        } else {
            fixed_controller(i)
        };
        server.add_session(config(i, frames), controller);
    }
    let start = Instant::now();
    let summary = server
        .run_to_completion(u64::MAX)
        .expect("bench run completes");
    let wall = start.elapsed().as_secs_f64();
    let total: u64 = summary.sessions.iter().map(|s| s.frames).sum();
    (total, summary.duration_s, wall)
}

/// Best-of-3 wall clock (scheduler noise must not masquerade as engine
/// throughput); frames and virtual time are deterministic across passes.
fn best_of_3(sessions: usize, mamut: bool) -> (u64, f64, f64) {
    let (frames, virtual_s, mut wall) = run(sessions, mamut);
    for _ in 0..2 {
        wall = wall.min(run(sessions, mamut).2);
    }
    (frames, virtual_s, wall)
}

fn main() {
    println!(
        "server hot path — single ServerSim, {FRAMES_PER_SESSION} frames/session, \
         alternating HR/LR"
    );
    println!("(frames/s is simulated completions per wall second; best of 3 passes)\n");
    let mut table = Table::new(vec![
        "sessions".into(),
        "series".into(),
        "frames".into(),
        "virtual s".into(),
        "wall ms".into(),
        "frames/s".into(),
        "ns/event".into(),
    ]);
    table.set_alignments(vec![Align::Right; 7]);
    for n in [1, 2, 4, 8, 16, 32, 64] {
        for (series, mamut) in [("fixed", false), ("mamut", true)] {
            let (frames, virtual_s, wall) = best_of_3(n, mamut);
            table.add_row(vec![
                n.to_string(),
                series.into(),
                frames.to_string(),
                format!("{virtual_s:.3}"),
                format!("{:.2}", wall * 1e3),
                format!("{:.0}", frames as f64 / wall.max(1e-9)),
                format!("{:.0}", wall * 1e9 / frames as f64),
            ]);
        }
    }
    println!("{}", table.to_plain());
}
