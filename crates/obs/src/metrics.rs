//! The metrics registry: named atomic counters, gauges, and
//! power-of-two-bucket histograms.
//!
//! Registration (first use of a name) takes a short mutex on the name
//! table; every *update* after that is a single lock-free atomic
//! operation on the instrument itself, so call sites that keep the
//! returned [`Counter`]/[`Gauge`]/[`Histogram`] handle pay no lock at
//! all on the hot path. Snapshots are sorted by name, so rendering is
//! deterministic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `delta` to the counter.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An atomic gauge tracking the maximum value ever recorded (and the
/// last explicitly set value wins over nothing).
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Raises the gauge to `value` if it is larger than the current one.
    #[inline]
    pub fn record_max(&self, value: i64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Overwrites the gauge.
    pub fn set(&self, value: i64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket
/// `i ≥ 1` holds values in `[2^(i-1), 2^i - 1]`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A power-of-two-bucket histogram over `u64` values (tree depths,
/// frontier sizes, per-level wall times in nanoseconds, …).
#[derive(Debug)]
pub struct Histogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    total: AtomicU64,
}

/// The bucket index a value lands in: `0` for `0`, else
/// `64 - leading_zeros(v)` — so `1 → 1`, `2..=3 → 2`, `4..=7 → 3`, …
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The largest value bucket `i` admits (its inclusive upper bound).
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            total: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(value, Ordering::Relaxed);
    }

    /// A consistent-enough copy of the histogram (relaxed reads; exact
    /// once all writers have quiesced).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            total: self.total.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((bucket_upper_bound(i), n))
                })
                .collect(),
        }
    }
}

/// A point-in-time copy of one histogram: observation count, value sum,
/// and the nonzero buckets as `(inclusive upper bound, count)` pairs in
/// increasing bound order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub total: u64,
    /// Nonzero buckets as `(upper_bound, count)`.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// An upper bound on the `q`-quantile (`0.0 ..= 1.0`): the bound of
    /// the first bucket at which the cumulative count reaches
    /// `ceil(q · count)`. With power-of-two buckets the true value lies
    /// within 2× below the returned bound. `None` on an empty
    /// histogram or a `q` outside the unit interval.
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut cumulative = 0u64;
        for &(upper_bound, n) in &self.buckets {
            cumulative += n;
            if cumulative >= rank {
                return Some(upper_bound);
            }
        }
        self.buckets.last().map(|&(upper_bound, _)| upper_bound)
    }
}

/// A point-in-time copy of the whole registry, sorted by name.
#[derive(Clone, Debug, Default)]
pub struct Snapshot {
    /// `(name, value)` for every registered counter.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every registered gauge.
    pub gauges: Vec<(String, i64)>,
    /// `(name, snapshot)` for every registered histogram.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// The process-wide table of named instruments.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// The global registry every macro site and instrumented crate uses.
    pub fn global() -> &'static Registry {
        static GLOBAL: OnceLock<Registry> = OnceLock::new();
        GLOBAL.get_or_init(Registry::default)
    }

    fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
        m.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// The instrument named `name` in `map`, creating it on first use.
    /// A hit clones the existing handle and allocates nothing; only a
    /// miss allocates the owned key.
    fn lookup<T: Default>(map: &Mutex<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
        let mut map = Self::lock(map);
        if let Some(handle) = map.get(name) {
            return Arc::clone(handle);
        }
        Arc::clone(map.entry(name.to_owned()).or_default())
    }

    /// The counter named `name`, creating it on first use. Keep the
    /// handle to update lock-free on hot paths.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::lookup(&self.counters, name)
    }

    /// The gauge named `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::lookup(&self.gauges, name)
    }

    /// The histogram named `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::lookup(&self.histograms, name)
    }

    /// A sorted copy of every instrument's current value.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: Self::lock(&self.counters)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: Self::lock(&self.gauges)
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            histograms: Self::lock(&self.histograms)
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }

    /// Drops every registered instrument. Handles returned earlier keep
    /// working but are no longer visible to [`Registry::snapshot`];
    /// intended for tests and for resetting between reports.
    pub fn reset(&self) {
        Self::lock(&self.counters).clear();
        Self::lock(&self.gauges).clear();
        Self::lock(&self.histograms).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_upper_bound_walks_cumulative_buckets() {
        let reg = Registry::default();
        let h = reg.histogram("t.quantile");
        // 10 observations in bucket ub=1, 80 in ub=127ish, 10 larger.
        for _ in 0..10 {
            h.record(1);
        }
        for _ in 0..80 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(5_000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        let p50 = snap.quantile_upper_bound(0.50).unwrap();
        let p99 = snap.quantile_upper_bound(0.99).unwrap();
        assert!((100..1_000).contains(&p50), "p50 bound {p50}");
        assert!(p99 >= 5_000, "p99 bound {p99}");
        assert_eq!(snap.quantile_upper_bound(0.0).unwrap(), snap.buckets[0].0);
        assert_eq!(snap.quantile_upper_bound(1.5), None);
        let empty = HistogramSnapshot {
            count: 0,
            total: 0,
            buckets: Vec::new(),
        };
        assert_eq!(empty.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn concurrent_counter_increments_sum_exactly() {
        let reg = Registry::default();
        let c = reg.counter("t.concurrent");
        const WORKERS: usize = 8;
        const PER_WORKER: u64 = 10_000;
        std::thread::scope(|s| {
            for _ in 0..WORKERS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER_WORKER {
                        c.add(1);
                    }
                });
            }
        });
        assert_eq!(c.get(), WORKERS as u64 * PER_WORKER);
        assert_eq!(
            reg.snapshot().counters,
            vec![("t.concurrent".to_owned(), WORKERS as u64 * PER_WORKER)]
        );
    }

    #[test]
    fn histogram_bucket_boundaries_are_hit_at_the_edges() {
        // 0 lands alone in bucket 0; each power of two opens a bucket.
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(3), 7);
        assert_eq!(bucket_upper_bound(64), u64::MAX);

        let h = Histogram::default();
        for v in [0, 1, 2, 3, 4, 7, 8] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.total, 25);
        assert_eq!(
            snap.buckets,
            vec![(0, 1), (1, 1), (3, 2), (7, 2), (15, 1)],
            "exact-boundary values land on the low side of each bucket"
        );
    }

    #[test]
    fn gauge_tracks_the_maximum() {
        let g = Gauge::default();
        g.record_max(3);
        g.record_max(9);
        g.record_max(5);
        assert_eq!(g.get(), 9);
        g.set(1);
        assert_eq!(g.get(), 1);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_clears() {
        let reg = Registry::default();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.histogram("m.h").record(4);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>(),
            vec!["a.first", "z.last"]
        );
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty() && snap.histograms.is_empty());
    }
}
