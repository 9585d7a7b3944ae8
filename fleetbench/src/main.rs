//! Runs one benchmark repetition and prints its result as the last line
//! of standard output, a JSON object. `run.py` drives it.
//!
//! Usage: `fleetbench --workload <name> --seed <n> [--traced]`

use std::fmt::Write as _;
use std::process::ExitCode;

use fleetbench::report::{layer_metrics, table};
use fleetbench::workloads::{self, fnv1a64, Bench, Options};

fn usage() -> ExitCode {
    eprintln!(
        "usage: fleetbench --workload <burst_1k|sparse_10k|elastic_mamut> --seed <n> [--traced]"
    );
    ExitCode::from(2)
}

/// A JSON number: non-finite values (never produced by a sane run)
/// become `null` rather than invalid JSON.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:e}")
    } else {
        "null".to_owned()
    }
}

fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let mut bench = None;
    let mut options = Options::bench(0, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => bench = args.next().as_deref().and_then(Bench::from_name),
            "--seed" => match args.next().and_then(|s| s.parse().ok()) {
                Some(seed) => options.seed = seed,
                None => return usage(),
            },
            "--traced" => options.traced = true,
            _ => return usage(),
        }
    }
    let Some(bench) = bench else {
        return usage();
    };

    let outcome = match workloads::run(bench, options) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", bench.name());
            return ExitCode::FAILURE;
        }
    };
    let failures = outcome.conservation_failures();
    let c = &outcome.counts;
    let counts = [
        ("arrivals", c.arrivals),
        ("offered_frames", c.offered_frames),
        ("frames", c.frames),
        ("sessions", c.sessions),
        ("rejected", c.rejected),
        ("shed", c.shed),
        ("epochs", c.epochs),
        ("node_epochs", c.node_epochs),
        ("overflow_migrations", c.overflow_migrations),
        ("crashes", c.crashes),
        ("frames_redone", c.frames_redone),
        ("trace_events", c.trace_events),
    ];

    let mut json = format!(
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"digest\":\"{:016x}\",\"failures\":[{}]",
        string(bench.name()),
        options.seed,
        options.traced,
        fnv1a64(outcome.summary.as_bytes()),
        failures
            .iter()
            .map(|f| string(f))
            .collect::<Vec<_>>()
            .join(",")
    );
    for (name, value) in [
        ("setup_s", outcome.setup_s()),
        ("realize_s", outcome.realize_s),
        ("build_s", outcome.build_s),
        ("run_s", outcome.run_s),
    ] {
        let _ = write!(json, ",\"{name}\":{}", num(value));
    }
    json.push_str(",\"counts\":{");
    json.push_str(
        &counts
            .iter()
            .map(|(name, value)| format!("\"{name}\":{value}"))
            .collect::<Vec<_>>()
            .join(","),
    );
    json.push('}');
    if options.traced {
        let metrics = layer_metrics(&outcome);
        print!("{}", table(&metrics));
        json.push_str(",\"layer\":{");
        json.push_str(
            &metrics
                .iter()
                .map(|m| {
                    format!(
                        "{}:{{\"value\":{},\"unit\":{}}}",
                        string(&m.name),
                        m.value.map_or_else(|| "null".to_owned(), num),
                        string(m.unit)
                    )
                })
                .collect::<Vec<_>>()
                .join(","),
        );
        json.push('}');
    }
    json.push('}');
    println!("{json}");
    ExitCode::SUCCESS
}
