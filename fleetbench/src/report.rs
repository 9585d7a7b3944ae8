//! Per-layer metrics of a traced run: named by module, each percentile
//! with its sample count and each ratio with its base, plus a
//! human-readable table grouped by module.

use crate::probes::{CoreSamples, Spans, Window};
use crate::workloads::Outcome;

/// One per-layer metric. `value` is `None` where the layer does not
/// exist on the workload (or cannot be read from outside).
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name; the first segment is the module.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Measured value.
    pub value: Option<f64>,
    /// Sample count or ratio base, for the table.
    pub base: String,
}

impl Metric {
    fn new(name: impl Into<String>, unit: &'static str, value: Option<f64>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            base: String::new(),
        }
    }

    fn count(name: impl Into<String>, value: u64) -> Metric {
        Metric::new(name, "count", Some(value as f64))
    }

    fn with_base(mut self, base: String) -> Metric {
        self.base = base;
        self
    }

    /// The module the metric belongs to.
    pub fn module(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

/// The `q`-quantile of integer-nanosecond samples (`sorted` ascending).
///
/// A timer reading of `k` ns means a duration in `[k, k + 1)`, so the
/// quantile is interpolated within that 1-ns bin (the grouped-data
/// quantile) rather than snapped to the integer.
pub fn ns_quantile(sorted: &[u64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let target = q.clamp(0.0, 1.0) * n as f64;
    let k = sorted[(target.floor() as usize).min(n - 1)];
    let below = sorted.partition_point(|&x| x < k);
    let upto = sorted.partition_point(|&x| x <= k);
    let within = ((target - below as f64) / (upto - below) as f64).clamp(0.0, 1.0);
    Some(k as f64 + within)
}

/// The `q`-quantile of real-valued samples (`sorted` ascending), linear
/// between order statistics.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

fn sorted_ns(samples: impl IntoIterator<Item = u64>) -> Vec<u64> {
    let mut v: Vec<u64> = samples.into_iter().collect();
    v.sort_unstable();
    v
}

/// `<prefix>.p50` and `<prefix>.p99` (ns) of `samples`, based on their
/// count.
fn ns_percentiles(prefix: &str, samples: &[u64]) -> [Metric; 2] {
    let base = format!("n={}", samples.len());
    [("p50", 0.5), ("p99", 0.99)].map(|(suffix, q)| {
        Metric::new(format!("{prefix}.{suffix}"), "ns", ns_quantile(samples, q))
            .with_base(base.clone())
    })
}

fn share(part: u64, whole: u64) -> Option<f64> {
    (whole > 0).then(|| part as f64 / whole as f64)
}

/// Every per-layer metric of a traced `outcome`.
///
/// # Panics
///
/// If `outcome` is not from a traced run.
pub fn layer_metrics(outcome: &Outcome) -> Vec<Metric> {
    let spans: &Spans = outcome.spans.as_ref().expect("a traced run has spans");
    let core: &CoreSamples = outcome
        .core
        .as_ref()
        .expect("a traced run has core samples");
    let c = &outcome.counts;
    let mut m = Vec::new();

    // core: the three agents, classified by their schedule slot.
    for (agent, name) in ["qp", "threads", "dvfs"].iter().enumerate() {
        let samples = sorted_ns(core.decision_ns[agent].iter().map(|&x| u64::from(x)));
        m.push(Metric::count(
            format!("core.decisions.{name}"),
            samples.len() as u64,
        ));
        m.extend(ns_percentiles(
            &format!("core.decision_ns.{name}"),
            &samples,
        ));
    }
    let null = sorted_ns(core.null_ns.iter().map(|&x| u64::from(x)));
    m.push(Metric::count("core.null_frames", null.len() as u64));
    m.push(
        Metric::new("core.null_frame_ns.p50", "ns", ns_quantile(&null, 0.5))
            .with_base(format!("n={}", null.len())),
    );
    m.push(Metric::new(
        "core.busy_s",
        "s",
        Some(core.busy_ns as f64 * 1e-9),
    ));

    // transcode: engine rate-vector rebuilds, read through the nodes.
    m.push(Metric::new(
        "transcode.rate_epochs",
        "count",
        c.rate_epochs.map(|r| r as f64),
    ));
    m.push(
        Metric::new(
            "transcode.rate_epochs_per_kframe",
            "1/kframe",
            c.rate_epochs
                .and_then(|r| share(r, c.frames))
                .map(|r| r * 1e3),
        )
        .with_base(format!("of {} frames", c.frames)),
    );

    // dispatch.
    let dispatch = sorted_ns(spans.dispatch_ns.iter().copied());
    m.push(Metric::count("dispatch.calls", dispatch.len() as u64));
    m.push(
        Metric::new(
            "dispatch.assign_share",
            "ratio",
            share(spans.assigned, dispatch.len() as u64),
        )
        .with_base(format!("of {} calls", dispatch.len())),
    );
    m.extend(ns_percentiles("dispatch.policy_ns", &dispatch));
    m.push(Metric::new(
        "dispatch.policy_s",
        "s",
        Some(spans.window(Window::Policy)),
    ));

    // fleet: coordinator windows.
    let mut epochs = spans.epoch_ms.clone();
    epochs.sort_by(f64::total_cmp);
    let epoch_base = format!("n={}", epochs.len());
    m.push(Metric::count("fleet.epochs", epochs.len() as u64));
    for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("max", 1.0)] {
        m.push(
            Metric::new(
                format!("fleet.epoch_ms.{suffix}"),
                "ms",
                quantile(&epochs, q),
            )
            .with_base(epoch_base.clone()),
        );
    }
    for (name, window) in [
        ("fleet.begin_s", Window::Begin),
        ("fleet.pre_dispatch_s", Window::PreDispatch),
        ("fleet.admit_s", Window::Admit),
        ("fleet.advance_s", Window::Advance),
        ("fleet.post_s", Window::Post),
        ("fleet.finish_s", Window::Finish),
    ] {
        m.push(Metric::new(name, "s", Some(spans.window(window))));
    }
    m.push(Metric::new("fleet.run_s", "s", Some(outcome.run_s)));
    m.push(
        Metric::new(
            "fleet.unattributed_pct",
            "%",
            share_f(outcome.run_s - spans.windows_total_s(), outcome.run_s).map(|x| x * 100.0),
        )
        .with_base(format!("of run_s {:.4} s", outcome.run_s)),
    );

    // shard.
    m.push(Metric::new(
        "shard.coord_s",
        "s",
        (outcome.shards > 1).then(|| spans.window(Window::Coord)),
    ));
    m.push(Metric::count(
        "shard.overflow_migrations",
        c.overflow_migrations,
    ));
    m.push(Metric::count("shard.knowledge_syncs", c.knowledge_syncs));

    // autoscale / rebalance.
    let autoscale = sorted_ns(spans.autoscale_ns.iter().copied());
    m.push(Metric::count("autoscale.plans", autoscale.len() as u64));
    m.extend(ns_percentiles("autoscale.plan_ns", &autoscale));
    m.push(Metric::new(
        "autoscale.plan_s",
        "s",
        Some(spans.window(Window::Autoscale)),
    ));
    let rebalance = sorted_ns(spans.rebalance_ns.iter().copied());
    m.push(Metric::count("rebalance.plans", rebalance.len() as u64));
    m.extend(ns_percentiles("rebalance.plan_ns", &rebalance));
    m.push(Metric::new(
        "rebalance.plan_s",
        "s",
        Some(spans.window(Window::Rebalance)),
    ));
    m.push(Metric::count("rebalance.directives", spans.directives));

    // knowledge: seeds timed through the controllers, counters read from
    // the store.
    let has_store = c.seed_attempts > 0 || c.publishes > 0;
    let seeds = sorted_ns(spans.seed_ns.iter().copied());
    m.push(Metric::count("knowledge.seeds", seeds.len() as u64));
    for metric in ns_percentiles("knowledge.seed_ns", &seeds) {
        m.push(metric);
    }
    m.push(Metric::new(
        "knowledge.seed_s",
        "s",
        has_store.then(|| spans.window(Window::Seed)),
    ));
    m.push(Metric::count("knowledge.seed_attempts", c.seed_attempts));
    m.push(
        Metric::new(
            "knowledge.seed_hit_share",
            "ratio",
            share(c.seeds_served, c.seed_attempts),
        )
        .with_base(format!("of {} attempts", c.seed_attempts)),
    );
    m.push(Metric::count("knowledge.publishes", c.publishes));

    // fault / telemetry.
    m.push(Metric::count("fault.checkpoints", c.checkpoints));
    m.push(Metric::count("fault.crashes", c.crashes));
    m.push(Metric::count("fault.frames_redone", c.frames_redone));
    m.push(Metric::count("telemetry.events", c.trace_events));
    m.push(Metric::new(
        "telemetry.encode_ms",
        "ms",
        Some(outcome.encode_s * 1e3),
    ));

    // setup.
    m.push(Metric::new("setup.realize_s", "s", Some(outcome.realize_s)));
    m.push(Metric::new("setup.build_s", "s", Some(outcome.build_s)));
    m
}

fn share_f(part: f64, whole: f64) -> Option<f64> {
    (whole > 0.0).then(|| part / whole)
}

/// Renders `metrics` as a plain table grouped by module.
pub fn table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    let mut module = "";
    for metric in metrics {
        if metric.module() != module {
            module = metric.module();
            out.push_str(&format!("[{module}]\n"));
        }
        let value = match metric.value {
            Some(v) if metric.unit == "count" => format!("{v:.0}"),
            Some(v) => format!("{v:.6}"),
            None => "n/a".to_owned(),
        };
        out.push_str(&format!(
            "  {:<width$}  {:>16} {:<9} {}\n",
            metric.name, value, metric.unit, metric.base
        ));
    }
    out
}
