//! Observability: a per-node metrics registry with counters, gauges
//! and sim-time histograms, read through point-in-time snapshots.
//!
//! The paper's claims are quantitative (one local log force per
//! commit, bounded replay shuttling, no log merging), so every
//! subsystem registers its counters here under a stable
//! `subsystem/metric` name; the cluster prefixes each node's entries
//! with `n<id>/` so a full snapshot is addressable as
//! `node/subsystem/metric` (e.g. `n1/wal/forces`).
//!
//! Like [`Counter`], all handles are cheap clones
//! sharing interior state — gauges via `Arc<AtomicI64>`, histograms
//! and the registry via `Arc<Mutex<_>>` — so one instrumentation layer
//! serves both the single-threaded simulator and the OS-thread-per-node
//! runtime, whose workers record into the same handles concurrently
//! (see `common::stats` for the full contract).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::stats::Counter;

/// Locks `m`, recovering the data from a poisoned mutex: metrics must
/// stay readable after a worker thread panics mid-record (a counter
/// bump or histogram sample is never left half-written — the inner
/// state is valid even if the panicking thread abandoned the guard).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Number of histogram buckets: bucket 0 holds the value 0, bucket
/// `i` (1..=64) holds values whose bit length is `i`, i.e. the range
/// `[2^(i-1), 2^i - 1]`. Bucket 64 is the overflow bucket for values
/// `>= 2^63`.
pub const HIST_BUCKETS: usize = 65;

fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

fn bucket_upper(i: usize) -> u64 {
    match i {
        0 => 0,
        64 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

fn bucket_lower(i: usize) -> u64 {
    match i {
        0 => 0,
        _ => 1u64 << (i - 1),
    }
}

/// A shared, cheaply-clonable signed gauge (current value, not rate).
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    inner: Arc<AtomicI64>,
}

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: i64) {
        self.inner.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.inner.fetch_add(d, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.inner.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
struct HistInner {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; HIST_BUCKETS],
}

impl Default for HistInner {
    fn default() -> Self {
        HistInner {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// A shared sim-time histogram with fixed logarithmic bucketing.
///
/// Values are `u64` (typically µs of simulated time). Percentiles are
/// estimated from the bucket boundaries; exact `min`/`max` are kept so
/// single-sample and tail queries stay exact.
#[derive(Clone, Debug, Default)]
pub struct Histogram {
    inner: Arc<Mutex<HistInner>>,
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        let mut h = lock(&self.inner);
        if h.count == 0 || v < h.min {
            h.min = v;
        }
        if v > h.max {
            h.max = v;
        }
        h.count += 1;
        h.sum = h.sum.saturating_add(v);
        h.buckets[bucket_of(v)] += 1;
    }

    /// Immutable copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let h = lock(&self.inner);
        HistogramSnapshot {
            count: h.count,
            sum: h.sum,
            min: h.min,
            max: h.max,
            buckets: h.buckets,
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples (saturating).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts (see [`HIST_BUCKETS`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in `[0, 1]`: the upper bound of
    /// the bucket containing the rank-`ceil(q·count)` sample, clamped
    /// to the exact `[min, max]` range. Returns 0 when empty.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.percentile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean of all samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Samples recorded since an `earlier` snapshot of the same
    /// histogram (mirrors `NetStats::since`). `min`/`max` of the delta
    /// are re-derived from its occupied bucket boundaries, so they are
    /// bucket-resolution approximations rather than exact values.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = HistogramSnapshot {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            min: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        };
        for i in 0..HIST_BUCKETS {
            out.buckets[i] = self.buckets[i].saturating_sub(earlier.buckets[i]);
        }
        if out.count > 0 {
            let lo = out.buckets.iter().position(|&c| c > 0).unwrap_or(0);
            let hi = HIST_BUCKETS - 1 - out.buckets.iter().rev().position(|&c| c > 0).unwrap_or(0);
            out.min = bucket_lower(lo).max(earlier.min.min(self.min));
            out.max = bucket_upper(hi).min(self.max);
        }
        out
    }
}

#[derive(Debug)]
struct ReservoirInner {
    samples: Vec<u64>,
    seen: u64,
    rng: crate::rng::Rng,
}

/// Fixed-capacity uniform sample of a value stream (Vitter's
/// algorithm R), for *exact* percentiles where the log-2
/// [`Histogram`] only gives bucket upper bounds.
///
/// While [`count`](Reservoir::count) `≤ capacity` every recorded
/// value is held and [`percentile`](Reservoir::percentile) is exact;
/// past capacity each value replaces a uniformly random held sample,
/// so percentiles degrade to an unbiased estimate instead of a bucket
/// bound. Replacement draws from the in-repo deterministic [`Rng`]
/// seeded at construction: identical value streams always produce
/// identical samples. Thread-safe the same way `Histogram` is (one
/// mutexed cell behind an `Arc`).
///
/// [`Rng`]: crate::rng::Rng
#[derive(Clone, Debug)]
pub struct Reservoir {
    inner: Arc<Mutex<ReservoirInner>>,
    cap: usize,
}

impl Reservoir {
    /// New empty reservoir holding up to `capacity` samples (clamped
    /// to at least 1).
    pub fn new(capacity: usize) -> Self {
        Reservoir {
            inner: Arc::new(Mutex::new(ReservoirInner {
                samples: Vec::new(),
                seen: 0,
                rng: crate::rng::Rng::seed_from_u64(0x05EE_D0B5_u64 ^ capacity as u64),
            })),
            cap: capacity.max(1),
        }
    }

    /// Records one value.
    pub fn record(&self, v: u64) {
        let mut r = lock(&self.inner);
        r.seen += 1;
        if r.samples.len() < self.cap {
            r.samples.push(v);
        } else {
            let seen = r.seen;
            let j = r.rng.gen_range(0..seen) as usize;
            if j < self.cap {
                r.samples[j] = v;
            }
        }
    }

    /// Total values recorded (held + replaced).
    pub fn count(&self) -> u64 {
        lock(&self.inner).seen
    }

    /// Value at quantile `q` in `[0, 1]`: the rank-`ceil(q·n)` held
    /// sample (0 when empty). Exact while every recorded value is
    /// held.
    pub fn percentile(&self, q: f64) -> u64 {
        let r = lock(&self.inner);
        if r.samples.is_empty() {
            return 0;
        }
        let mut sorted = r.samples.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }
}

/// One exported metric value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Current signed level.
    Gauge(i64),
    /// Distribution summary (boxed: ~70× larger than the scalars).
    Histogram(Box<HistogramSnapshot>),
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A named collection of metrics for one node (or one shared
/// facility like the network).
///
/// Handles returned by [`counter`](Registry::counter) etc. are cheap
/// clones; hot paths keep the handle instead of re-resolving the name.
/// Existing `Counter`s (e.g. the WAL manager's) can be registered
/// as-is via [`register_counter`](Registry::register_counter) — the
/// registry then observes the very cells the subsystem bumps.
///
/// The registry lock only guards the name → handle maps; recording
/// into a resolved handle touches that metric's own cell, so hot-path
/// bumps from different threads never contend on the registry itself.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    inner: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (creating if absent) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        lock(&self.inner)
            .counters
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers an existing counter handle under `name` (replacing
    /// any previous registration).
    pub fn register_counter(&self, name: &str, c: &Counter) {
        lock(&self.inner)
            .counters
            .insert(name.to_string(), c.clone());
    }

    /// Returns (creating if absent) the gauge `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        lock(&self.inner)
            .gauges
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Returns (creating if absent) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        lock(&self.inner)
            .histograms
            .entry(name.to_string())
            .or_default()
            .clone()
    }

    /// Registers an existing histogram handle under `name` (replacing
    /// any previous registration) — the same sharing discipline as
    /// [`register_counter`](Registry::register_counter), used e.g. to
    /// surface the WAL store's fsync timings.
    pub fn register_histogram(&self, name: &str, h: &Histogram) {
        lock(&self.inner)
            .histograms
            .insert(name.to_string(), h.clone());
    }

    /// Point-in-time copy of every metric.
    pub fn snapshot(&self) -> Snapshot {
        let r = lock(&self.inner);
        let mut entries = BTreeMap::new();
        for (k, c) in &r.counters {
            entries.insert(k.clone(), MetricValue::Counter(c.get()));
        }
        for (k, g) in &r.gauges {
            entries.insert(k.clone(), MetricValue::Gauge(g.get()));
        }
        for (k, h) in &r.histograms {
            entries.insert(k.clone(), MetricValue::Histogram(Box::new(h.snapshot())));
        }
        Snapshot { entries }
    }
}

/// Immutable point-in-time view of a [`Registry`] (possibly merged
/// across nodes).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Metric name → value, sorted by name.
    pub entries: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Counter value (0 if absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value (0 if absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Histogram summary, if `name` is a histogram.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h.as_ref()),
            _ => None,
        }
    }

    /// Absorbs every entry of `other` with `prefix` prepended to its
    /// name — how a cluster-wide snapshot is assembled from per-node
    /// registries (`n0/`, `n1/`, …).
    pub fn merge_prefixed(&mut self, prefix: &str, other: Snapshot) {
        for (k, v) in other.entries {
            self.entries.insert(format!("{prefix}{k}"), v);
        }
    }
}

/// Escapes a string for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.max, 0);
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_sample_percentiles_are_exact() {
        let h = Histogram::new();
        h.record(1234);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!(s.min, 1234);
        assert_eq!(s.max, 1234);
        // Bucket upper bound is clamped to the exact max.
        assert_eq!(s.p50(), 1234);
        assert_eq!(s.p95(), 1234);
        assert_eq!(s.p99(), 1234);
    }

    #[test]
    fn zero_sample_goes_to_bucket_zero() {
        let h = Histogram::new();
        h.record(0);
        let s = h.snapshot();
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.p50(), 0);
    }

    #[test]
    fn overflow_bucket_holds_huge_values() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.buckets[HIST_BUCKETS - 1], 2);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.p99(), u64::MAX);
    }

    #[test]
    fn percentiles_are_monotone_and_bucket_accurate() {
        let h = Histogram::new();
        // 90 fast samples, 10 slow ones.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(10_000);
        }
        let s = h.snapshot();
        let (p50, p95, p99) = (s.p50(), s.p95(), s.p99());
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        // p50 falls in 100's bucket [64,127]; p95/p99 in 10_000's
        // bucket [8192,16383], clamped by max.
        assert!((64..=127).contains(&p50), "p50 {p50}");
        assert!((8192..=10_000).contains(&p99), "p99 {p99}");
    }

    #[test]
    fn histogram_since_mirrors_netstats_since() {
        let h = Histogram::new();
        h.record(10);
        h.record(20);
        let before = h.snapshot();
        h.record(5000);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count, 1);
        assert_eq!(delta.sum, 5000);
        // The only delta sample lives in 5000's bucket.
        assert_eq!(delta.buckets[bucket_of(5000)], 1);
        assert!(delta.min >= 4096 && delta.max <= 5000);
    }

    #[test]
    fn registry_round_trips_counters_gauges_histograms() {
        let r = Registry::new();
        r.counter("wal/forces").add(3);
        r.gauge("buf/dirty").set(-2);
        r.histogram("wal/force_us").record(1000);
        // Re-resolving a name yields the same underlying metric.
        assert_eq!(r.counter("wal/forces").get(), 3);
        let s = r.snapshot();
        assert_eq!(s.counter("wal/forces"), 3);
        assert_eq!(s.gauge("buf/dirty"), -2);
        assert_eq!(s.histogram("wal/force_us").unwrap().count, 1);
        assert!(s.histogram("missing").is_none());
    }

    #[test]
    fn register_existing_counter_shares_cells() {
        let r = Registry::new();
        let c = Counter::new();
        r.register_counter("db/reads", &c);
        c.add(5);
        assert_eq!(r.snapshot().counter("db/reads"), 5);
    }

    #[test]
    fn merge_prefixed_namespaces_nodes() {
        let r0 = Registry::new();
        r0.counter("wal/forces").add(1);
        let r1 = Registry::new();
        r1.counter("wal/forces").add(2);
        let mut all = Snapshot::default();
        all.merge_prefixed("n0/", r0.snapshot());
        all.merge_prefixed("n1/", r1.snapshot());
        assert_eq!(all.counter("n0/wal/forces"), 1);
        assert_eq!(all.counter("n1/wal/forces"), 2);
    }

    #[test]
    fn concurrent_increments_through_one_registry_are_not_lost() {
        let r = Registry::new();
        let threads = 8u64;
        let per_thread = 5_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let r = r.clone();
                s.spawn(move || {
                    // Resolve handles inside the thread: name lookup
                    // races against other threads creating the same
                    // entries, which must converge on one shared cell.
                    let c = r.counter("rt/commits");
                    let g = r.gauge("rt/pending");
                    let h = r.histogram("rt/latency_us");
                    for i in 0..per_thread {
                        c.bump();
                        g.add(1);
                        g.add(-1);
                        h.record(t * per_thread + i);
                    }
                });
            }
        });
        let s = r.snapshot();
        assert_eq!(s.counter("rt/commits"), threads * per_thread);
        assert_eq!(s.gauge("rt/pending"), 0);
        let h = s.histogram("rt/latency_us").unwrap();
        assert_eq!(h.count, threads * per_thread);
        assert_eq!(h.max, threads * per_thread - 1);
        assert_eq!(h.buckets.iter().sum::<u64>(), h.count);
    }

    #[test]
    fn registered_histogram_shares_the_cell() {
        let r = Registry::new();
        let h = Histogram::new();
        r.register_histogram("wal/fsync_us", &h);
        h.record(123);
        let s = r.snapshot();
        assert_eq!(s.histogram("wal/fsync_us").unwrap().count, 1);
        assert_eq!(s.histogram("wal/fsync_us").unwrap().max, 123);
    }

    #[test]
    fn reservoir_percentiles_are_exact_under_capacity() {
        let r = Reservoir::new(1000);
        // 1..=100 shuffled by stride; exact ranks regardless of order.
        for i in 0..100u64 {
            r.record((i * 37) % 100 + 1);
        }
        assert_eq!(r.count(), 100);
        assert_eq!(r.percentile(0.50), 50);
        assert_eq!(r.percentile(0.99), 99);
        assert_eq!(r.percentile(1.0), 100);
        assert_eq!(r.percentile(0.0), 1, "rank clamps to the first sample");
        // Compare against the log-2 histogram's bucket-bound answer to
        // pin *why* the reservoir exists: 50 lands in bucket [32,63],
        // whose upper bound is 63, not 50.
        let h = Histogram::new();
        for i in 1..=100u64 {
            h.record(i);
        }
        assert_eq!(h.snapshot().p50(), 63);
    }

    #[test]
    fn reservoir_past_capacity_estimates_deterministically() {
        let mk = || {
            let r = Reservoir::new(64);
            for i in 1..=10_000u64 {
                r.record(i);
            }
            r
        };
        let a = mk();
        assert_eq!(a.count(), 10_000);
        let p50 = a.percentile(0.50);
        assert!((1..=10_000).contains(&p50));
        // Same stream → same samples → same estimate.
        assert_eq!(p50, mk().percentile(0.50));
        // Empty reservoir is defined.
        assert_eq!(Reservoir::new(8).percentile(0.5), 0);
    }

    #[test]
    fn reservoir_is_thread_safe() {
        let r = Reservoir::new(4096);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let r = &r;
                s.spawn(move || {
                    for i in 0..256u64 {
                        r.record(t * 256 + i + 1);
                    }
                });
            }
        });
        assert_eq!(r.count(), 1024);
        assert_eq!(r.percentile(1.0), 1024);
    }
}
