/// Exact percentile tracker over a bounded sample buffer.
///
/// QoS reporting beyond the mean: ∆ tells you *how often* frames miss the
/// target; the tail percentiles tell you *how badly*. By default samples
/// are kept in full (the workloads here are ≤ a few hundred thousand
/// frames), sorted lazily on query. For long fleet runs a
/// [`bounded`](PercentileTracker::bounded) tracker keeps a fixed-size
/// uniform reservoir instead (Vitter's Algorithm R over a seeded
/// splitmix64 stream), so memory stays flat no matter how many node-epochs
/// feed it — and, being seeded, the reservoir contents are a pure function
/// of the sample sequence, preserving cross-worker determinism.
///
/// # Example
///
/// ```
/// let mut p = mamut_metrics::PercentileTracker::new();
/// for i in 1..=100 {
///     p.push(f64::from(i));
/// }
/// assert_eq!(p.percentile(50.0), Some(50.0));
/// assert_eq!(p.percentile(95.0), Some(95.0));
/// assert_eq!(p.percentile(100.0), Some(100.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PercentileTracker {
    samples: Vec<f64>,
    sorted: bool,
    /// `Some(cap)` switches the tracker into reservoir mode.
    capacity: Option<usize>,
    /// Finite samples offered so far (kept *and* evicted).
    seen: u64,
    /// splitmix64 state for reservoir eviction draws.
    rng: u64,
}

impl PercentileTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        PercentileTracker {
            samples: Vec::new(),
            sorted: true,
            capacity: None,
            seen: 0,
            rng: 0,
        }
    }

    /// Creates a tracker that retains at most `capacity` samples as a
    /// deterministic uniform reservoir seeded with `seed`. Percentiles
    /// become estimates once more than `capacity` samples have been
    /// offered; two trackers fed the same sequence with the same seed
    /// hold byte-identical reservoirs. Nothing is allocated up front: the
    /// buffer grows with its samples, up to `capacity`.
    pub fn bounded(capacity: usize, seed: u64) -> Self {
        PercentileTracker {
            capacity: Some(capacity),
            rng: seed,
            ..PercentileTracker::new()
        }
    }

    /// The reservoir capacity, `None` for an unbounded tracker.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Total finite samples offered, including any the reservoir evicted.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// splitmix64 step — the same generator the fleet benches seed
    /// workloads with, so reservoir eviction is a pure function of
    /// (seed, sample ordinal).
    fn next_draw(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Adds a sample. Non-finite samples are ignored. In reservoir mode a
    /// full buffer keeps the new sample with probability `capacity/seen`,
    /// evicting a uniformly drawn resident (Algorithm R).
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        self.seen += 1;
        match self.capacity {
            Some(cap) if self.samples.len() >= cap => {
                let j = self.next_draw() % self.seen;
                if (j as usize) < cap {
                    self.samples[j as usize] = x;
                    self.sorted = false;
                }
            }
            _ => {
                self.samples.push(x);
                self.sorted = false;
            }
        }
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the tracker is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples
                .sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
            self.sorted = true;
        }
    }

    /// The `p`-th percentile (nearest-rank method), `None` when empty or
    /// `p` outside `(0, 100]`.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.samples.is_empty() || !(0.0..=100.0).contains(&p) || p == 0.0 {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        Some(self.samples[rank.clamp(1, n) - 1])
    }

    /// Median (p50).
    pub fn median(&mut self) -> Option<f64> {
        self.percentile(50.0)
    }

    /// Smallest sample.
    pub fn min(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.first().copied()
    }

    /// Largest sample.
    pub fn max(&mut self) -> Option<f64> {
        self.ensure_sorted();
        self.samples.last().copied()
    }

    /// Several percentiles at once without mutating the tracker: sorts a
    /// copy of the buffer, then answers each `p` by nearest rank. Useful
    /// when the tracker sits behind a shared reference (summary assembly
    /// reads the aggregate immutably).
    pub fn percentiles(&self, ps: &[f64]) -> Vec<Option<f64>> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let n = sorted.len();
        ps.iter()
            .map(|&p| {
                if n == 0 || !(0.0..=100.0).contains(&p) || p == 0.0 {
                    return None;
                }
                let rank = ((p / 100.0) * n as f64).ceil() as usize;
                Some(sorted[rank.clamp(1, n) - 1])
            })
            .collect()
    }
}

impl Extend<f64> for PercentileTracker {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for PercentileTracker {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut p = PercentileTracker::new();
        p.extend(iter);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tracker_answers_none() {
        let mut p = PercentileTracker::new();
        assert_eq!(p.percentile(50.0), None);
        assert_eq!(p.median(), None);
        assert_eq!(p.min(), None);
        assert!(p.is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let mut p: PercentileTracker = [7.0].into_iter().collect();
        assert_eq!(p.percentile(1.0), Some(7.0));
        assert_eq!(p.percentile(50.0), Some(7.0));
        assert_eq!(p.percentile(100.0), Some(7.0));
    }

    #[test]
    fn nearest_rank_on_known_data() {
        let mut p: PercentileTracker = (1..=10).map(f64::from).collect();
        assert_eq!(p.percentile(10.0), Some(1.0));
        assert_eq!(p.percentile(50.0), Some(5.0));
        assert_eq!(p.percentile(90.0), Some(9.0));
        assert_eq!(p.percentile(91.0), Some(10.0));
    }

    #[test]
    fn unordered_input_is_sorted_lazily() {
        let mut p: PercentileTracker = [5.0, 1.0, 9.0, 3.0, 7.0].into_iter().collect();
        assert_eq!(p.median(), Some(5.0));
        assert_eq!(p.min(), Some(1.0));
        assert_eq!(p.max(), Some(9.0));
    }

    #[test]
    fn pushes_after_query_are_included() {
        let mut p = PercentileTracker::new();
        p.push(1.0);
        assert_eq!(p.max(), Some(1.0));
        p.push(2.0);
        assert_eq!(p.max(), Some(2.0));
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn invalid_inputs_rejected() {
        let mut p: PercentileTracker = [1.0, 2.0].into_iter().collect();
        p.push(f64::NAN);
        p.push(f64::INFINITY);
        assert_eq!(p.len(), 2);
        assert_eq!(p.percentile(0.0), None);
        assert_eq!(p.percentile(101.0), None);
        assert_eq!(p.percentile(-5.0), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let mut p: PercentileTracker = [2.0, 2.0, 2.0, 8.0].into_iter().collect();
        assert_eq!(p.percentile(75.0), Some(2.0));
        assert_eq!(p.percentile(76.0), Some(8.0));
    }

    #[test]
    fn batch_percentiles_match_single_queries_without_mutation() {
        let p: PercentileTracker = (1..=10).map(f64::from).collect();
        assert_eq!(
            p.percentiles(&[50.0, 90.0, 0.0, 101.0]),
            vec![Some(5.0), Some(9.0), None, None]
        );
        assert_eq!(PercentileTracker::new().percentiles(&[50.0]), vec![None]);
    }

    #[test]
    fn bounded_tracker_caps_memory_and_counts_seen() {
        let mut p = PercentileTracker::bounded(16, 7);
        assert_eq!(
            p.samples.capacity(),
            0,
            "the reservoir grows with its samples"
        );
        for i in 0..10_000 {
            p.push(f64::from(i));
        }
        assert_eq!(p.len(), 16);
        assert_eq!(p.seen(), 10_000);
        assert_eq!(p.capacity(), Some(16));
        // Every resident came from the offered stream.
        let mut q = p.clone();
        assert!(q.min().unwrap() >= 0.0 && q.max().unwrap() <= 9_999.0);
    }

    #[test]
    fn bounded_tracker_is_deterministic_in_seed_and_sequence() {
        let feed = |seed| {
            let mut p = PercentileTracker::bounded(32, seed);
            for i in 0..5_000 {
                p.push(f64::from(i % 977));
            }
            p.percentiles(&[50.0, 95.0, 99.0])
        };
        assert_eq!(feed(42), feed(42), "same seed, same reservoir");
        assert_ne!(feed(42), feed(43), "the seed drives eviction");
    }

    #[test]
    fn bounded_tracker_estimates_stay_near_exact_tails() {
        let mut exact = PercentileTracker::new();
        let mut bounded = PercentileTracker::bounded(512, 1);
        for i in 0..20_000u32 {
            let x = f64::from(i % 1_000);
            exact.push(x);
            bounded.push(x);
        }
        let p95 = bounded.percentile(95.0).unwrap();
        assert!(
            (p95 - exact.percentile(95.0).unwrap()).abs() < 50.0,
            "reservoir p95 {p95} strayed from the exact tail"
        );
    }

    #[test]
    fn bounded_tracker_below_capacity_is_exact() {
        let mut p = PercentileTracker::bounded(100, 9);
        for i in 1..=10 {
            p.push(f64::from(i));
        }
        assert_eq!(p.percentile(50.0), Some(5.0));
        assert_eq!(p.len(), 10);
    }

    #[test]
    fn zero_capacity_reservoir_keeps_nothing() {
        let mut p = PercentileTracker::bounded(0, 3);
        p.push(1.0);
        p.push(2.0);
        assert!(p.is_empty());
        assert_eq!(p.seen(), 2);
        assert_eq!(p.percentile(50.0), None);
    }
}
