//! The atomic counter, the exact-percentile histogram, and the registry
//! that unifies the stack's metric structs.
//!
//! Design constraints inherited from the existing code:
//!
//! * `ServiceSummary` promises **exact nearest-rank** percentiles, so a
//!   [`HistSnapshot`] keeps raw samples (sorted lazily) and computes
//!   percentiles with the identical formula — the log2 buckets are
//!   maintained alongside purely for rendering a shape sketch without a
//!   sort.
//! * `mp_collision::metrics` is a `static` atomic, so [`Counter::new`]
//!   is `const`.
//! * Export must be deterministic, so the [`Registry`] is a `BTreeMap`
//!   and renders in name order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Number of log2 buckets: one for zero plus one per bit of `u64`.
pub const BUCKETS: usize = 65;

/// A monotone atomic counter (relaxed; sums are deterministic even when
/// increments interleave across threads).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter; `const` so it can back a `static`.
    pub const fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// The log2 bucket index of a sample: 0 for 0, else `floor(log2(v)) + 1`,
/// i.e. bucket `k >= 1` holds values in `[2^(k-1), 2^k)`.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// The inclusive value range `[lo, hi]` covered by a bucket index.
pub fn bucket_range(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1u64 << 63, u64::MAX),
        k => (1u64 << (k - 1), (1u64 << k) - 1),
    }
}

/// A histogram: raw samples plus log2 buckets.
///
/// Owned and lock-free: each run fills its own, and the [`Registry`]
/// stores them under its one lock.
#[derive(Clone, Debug, PartialEq)]
pub struct HistSnapshot {
    samples: Vec<u64>,
    sorted: bool,
    buckets: [u64; BUCKETS],
    sum: u128,
}

impl Default for HistSnapshot {
    fn default() -> HistSnapshot {
        HistSnapshot {
            samples: Vec::new(),
            sorted: true,
            buckets: [0; BUCKETS],
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// An empty histogram.
    pub fn new() -> HistSnapshot {
        HistSnapshot::default()
    }

    /// Records one sample.
    #[inline]
    pub fn observe(&mut self, v: u64) {
        if let Some(&last) = self.samples.last() {
            if v < last {
                self.sorted = false;
            }
        }
        self.samples.push(v);
        self.buckets[bucket_index(v)] += 1;
        self.sum += v as u128;
    }

    /// Records a batch of samples.
    pub fn observe_all(&mut self, vs: &[u64]) {
        for &v in vs {
            self.observe(v);
        }
    }

    /// A histogram of `samples`, taking ownership of them.
    pub fn from_samples(samples: Vec<u64>) -> HistSnapshot {
        let mut buckets = [0; BUCKETS];
        let mut sum = 0u128;
        for &v in &samples {
            buckets[bucket_index(v)] += 1;
            sum += v as u128;
        }
        HistSnapshot {
            sorted: samples.is_sorted(),
            samples,
            buckets,
            sum,
        }
    }

    /// Merges another histogram's samples into this one.
    pub fn absorb(&mut self, other: &HistSnapshot) {
        if self.samples.is_empty() {
            *self = other.clone();
        } else {
            self.observe_all(&other.samples);
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.samples.len() as u64
    }

    /// Sum of samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Mean sample; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.sum as f64 / self.samples.len() as f64)
        }
    }

    /// Smallest sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        self.samples.iter().min().copied()
    }

    /// Largest sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        self.samples.iter().max().copied()
    }

    /// Exact nearest-rank percentile, `q` in `0..=1`; `None` when empty.
    ///
    /// Identical formula to `ServiceSummary::latency_percentile_us`:
    /// `rank = clamp(ceil(q * n), 1, n)`, answer is the rank-th smallest.
    /// Free when samples were observed in sorted order; otherwise sorts a
    /// copy.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.samples.is_empty() {
            return None;
        }
        let sorted = self.sorted_samples();
        let n = sorted.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        Some(sorted[rank - 1])
    }

    /// The log2 bucket counts (index via [`bucket_index`]).
    pub fn buckets(&self) -> &[u64; BUCKETS] {
        &self.buckets
    }

    /// The raw samples (ordering unspecified).
    pub fn samples(&self) -> &[u64] {
        &self.samples
    }

    fn sorted_samples(&self) -> Cow<'_, [u64]> {
        if self.sorted {
            Cow::Borrowed(&self.samples)
        } else {
            let mut v = self.samples.clone();
            v.sort_unstable();
            Cow::Owned(v)
        }
    }

    /// Sorts the stored samples in place so later percentile calls are
    /// allocation-free.
    pub fn sort(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
    }

    /// `count/mean/p50/p99/p999/max` rendered on one line.
    pub fn summary_line(&self) -> String {
        match self.mean() {
            None => "count=0".to_string(),
            Some(mean) => {
                let p50 = self.percentile(0.50).unwrap_or(0);
                let p99 = self.percentile(0.99).unwrap_or(0);
                let p999 = self.percentile(0.999).unwrap_or(0);
                let max = self.max().unwrap_or(0);
                format!(
                    "count={} mean={:.1} p50={} p99={} p999={} max={}",
                    self.count(),
                    mean,
                    p50,
                    p99,
                    p999,
                    max
                )
            }
        }
    }
}

/// One named metric in a [`Registry`].
#[derive(Clone, Debug, PartialEq)]
pub enum Metric {
    /// A monotone count.
    Counter(u64),
    /// A point-in-time value.
    Gauge(f64),
    /// A distribution (boxed: it is much larger than the other variants).
    Histogram(Box<HistSnapshot>),
}

/// A name-ordered collection of metrics with text/CSV export.
///
/// The registry is the unification point for the stack's metric structs:
/// `OpCounter`, `EnergyLedger`, `ResilienceCounters`, and `ServiceSummary`
/// all implement an `export_into(prefix, &Registry)` that lands here, and
/// `mp_collision::metrics::export_into` adds the process-wide collision
/// work, so one dump shows the whole stack in a single name-sorted table.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Sets a counter to an absolute value.
    pub fn set_counter(&self, name: &str, value: u64) {
        self.lock().insert(name.to_string(), Metric::Counter(value));
    }

    /// Sets a gauge.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.lock().insert(name.to_string(), Metric::Gauge(value));
    }

    /// Merges a whole histogram under `name`.
    pub fn observe_hist(&self, name: &str, hist: &HistSnapshot) {
        let mut m = self.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Box::default()))
        {
            Metric::Histogram(h) => h.absorb(hist),
            other => *other = Metric::Histogram(Box::new(hist.clone())),
        }
    }

    /// The current value of a counter, if present.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.lock().get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// The current value of a gauge, if present.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        match self.lock().get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// A copy of a histogram, if present.
    pub fn histogram(&self, name: &str) -> Option<HistSnapshot> {
        match self.lock().get(name) {
            Some(Metric::Histogram(h)) => Some(h.as_ref().clone()),
            _ => None,
        }
    }

    /// Number of metrics registered.
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// Renders `name kind value` lines in name order.
    pub fn render_text(&self) -> String {
        let snapshot = self.lock().clone();
        let mut out = String::new();
        for (name, metric) in snapshot {
            match metric {
                Metric::Counter(v) => out.push_str(&format!("{name} counter {v}\n")),
                Metric::Gauge(v) => out.push_str(&format!("{name} gauge {v}\n")),
                Metric::Histogram(h) => {
                    out.push_str(&format!("{name} histogram {}\n", h.summary_line()));
                }
            }
        }
        out
    }

    /// Renders a CSV table (`name,kind,count,value,p50,p99,p999`).
    pub fn to_csv(&self) -> String {
        let snapshot = self.lock().clone();
        let mut out = String::from("name,kind,count,value,p50,p99,p999\n");
        for (name, metric) in snapshot {
            match metric {
                Metric::Counter(v) => out.push_str(&format!("{name},counter,,{v},,,\n")),
                Metric::Gauge(v) => out.push_str(&format!("{name},gauge,,{v},,,\n")),
                Metric::Histogram(h) => {
                    let mean = h.mean().unwrap_or(0.0);
                    let p50 = h.percentile(0.50).unwrap_or(0);
                    let p99 = h.percentile(0.99).unwrap_or(0);
                    let p999 = h.percentile(0.999).unwrap_or(0);
                    out.push_str(&format!(
                        "{name},histogram,{},{mean},{p50},{p99},{p999}\n",
                        h.count()
                    ));
                }
            }
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().expect("telemetry registry poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip() {
        static C: Counter = Counter::new();
        C.add(2);
        C.add(1);
        assert!(C.get() >= 3);
    }

    #[test]
    fn percentile_matches_service_summary_formula() {
        let mut h = HistSnapshot::new();
        h.observe_all(&[4_000, 1_000, 3_000, 2_000]);
        // Same fixtures as ServiceSummary::percentiles_are_exact_nearest_rank.
        assert_eq!(h.percentile(0.50), Some(2_000));
        assert_eq!(h.percentile(0.99), Some(4_000));
        assert_eq!(h.percentile(0.001), Some(1_000));
        assert_eq!(HistSnapshot::new().percentile(0.5), None);
    }

    #[test]
    fn registry_renders_in_name_order() {
        let r = Registry::new();
        r.set_gauge("z.util", 0.5);
        r.set_counter("a.count", 5);
        r.observe_hist("m.lat", &HistSnapshot::from_samples(vec![10]));
        r.observe_hist("m.lat", &HistSnapshot::from_samples(vec![20]));
        let text = r.render_text();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "a.count counter 5");
        assert!(lines[1].starts_with("m.lat histogram count=2"));
        assert!(lines[2].starts_with("z.util gauge 0.5"));
        assert_eq!(r.counter_value("a.count"), Some(5));
        assert_eq!(r.gauge_value("z.util"), Some(0.5));
        assert_eq!(r.histogram("m.lat").unwrap().count(), 2);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let r = Registry::new();
        r.set_counter("c", 1);
        r.observe_hist("h", &HistSnapshot::from_samples(vec![5]));
        let csv = r.to_csv();
        assert!(csv.starts_with("name,kind,count,value,p50,p99,p999\n"));
        assert!(csv.contains("c,counter,,1,,,\n"));
        assert!(csv.contains("h,histogram,1,5,5,5,5\n"));
    }
}
