//! Sharded metrics registry: counters, gauges, fixed-bucket histograms.
//!
//! Handles are `Arc`s cached by the caller, so the hot path is a single
//! atomic op with no map lookup. The registry itself is sharded by name
//! hash so concurrent first-touch registration from many leaf servers
//! does not serialize on one lock. Export is hand-rolled JSON text —
//! the build environment vendors no serializer, and the format is small
//! enough that rolling it keeps the crate dependency-free.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

const SHARDS: usize = 16;

/// A monotonically increasing named value.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A named value that can move both ways (queue depths, cache bytes).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn sub(&self, n: i64) {
        self.value.fetch_sub(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Fixed-boundary histogram. `boundaries[i]` is the inclusive upper edge
/// of bucket `i`; one implicit overflow bucket catches the rest. All
/// updates are relaxed atomics — percentiles are estimates by design.
#[derive(Debug)]
pub struct Histogram {
    boundaries: Vec<u64>,
    buckets: Vec<AtomicU64>, // boundaries.len() + 1 (overflow)
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    pub fn new(boundaries: Vec<u64>) -> Self {
        assert!(
            !boundaries.is_empty(),
            "histogram needs at least one bucket"
        );
        assert!(
            boundaries.windows(2).all(|w| w[0] < w[1]),
            "histogram boundaries must be strictly increasing"
        );
        let buckets = (0..=boundaries.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            boundaries,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Exponential boundaries from 1 µs to ~18 simulated minutes (×2 per
    /// bucket) — a sensible default for simulated-nanosecond latencies.
    pub fn default_time_boundaries() -> Vec<u64> {
        (0..40).map(|i| 1_000u64 << i).collect()
    }

    pub fn observe(&self, v: u64) {
        let idx = self
            .boundaries
            .partition_point(|&b| b < v)
            .min(self.boundaries.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimated q-quantile (`0.0..=1.0`) by linear interpolation inside
    /// the owning bucket, clamped to the observed min/max so degenerate
    /// histograms (one sample, one hot bucket) report exact values.
    /// Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let min = self.min.load(Ordering::Relaxed);
        let max = self.max.load(Ordering::Relaxed);
        let target = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            let c = bucket.load(Ordering::Relaxed);
            if cum + c >= target {
                let lower = if i == 0 { 0 } else { self.boundaries[i - 1] };
                let upper = if i < self.boundaries.len() {
                    self.boundaries[i]
                } else {
                    max
                };
                let frac = if c == 0 {
                    0.0
                } else {
                    (target - cum) as f64 / c as f64
                };
                let est = lower as f64 + frac * (upper.saturating_sub(lower)) as f64;
                return (est as u64).clamp(min, max);
            }
            cum += c;
        }
        max
    }

    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            p50: self.p50(),
            p95: self.p95(),
            p99: self.p99(),
            buckets: self
                .boundaries
                .iter()
                .copied()
                .map(Some)
                .chain([None]) // overflow bucket: le = +Inf
                .zip(self.buckets.iter().map(|b| b.load(Ordering::Relaxed)))
                .filter(|(_, c)| *c > 0)
                .collect(),
        }
    }
}

/// Point-in-time copy of one histogram, for export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
    /// `(upper_bound, count)` for non-empty buckets; `None` bound = +Inf.
    pub buckets: Vec<(Option<u64>, u64)>,
}

/// Point-in-time copy of every metric, sorted by name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub counters: BTreeMap<String, u64>,
    pub gauges: BTreeMap<String, i64>,
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Renders the snapshot as a JSON object. Keys are sorted, so equal
    /// snapshots serialize byte-identically (the bench harness diffs
    /// these files across runs).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_string(name));
        }
        out.push_str("\n  },\n  \"gauges\": {");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    {}: {v}", json_string(name));
        }
        out.push_str("\n  },\n  \"histograms\": {");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {}: {{\"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \
                 \"p50\": {}, \"p95\": {}, \"p99\": {}, \"buckets\": [",
                json_string(name),
                h.count,
                h.sum,
                h.min,
                h.max,
                h.p50,
                h.p95,
                h.p99
            );
            for (j, (le, c)) in h.buckets.iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                match le {
                    Some(le) => {
                        let _ = write!(out, "[{le}, {c}]");
                    }
                    None => {
                        let _ = write!(out, "[null, {c}]");
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
/// Shared with the Chrome-trace exporter (`crate::trace`).
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[derive(Default)]
struct Shard {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide metric namespace. Cheap to share (`Arc`), cheap to
/// update (handles are cached `Arc`s over atomics), sharded by metric
/// name so registration does not contend across subsystems.
pub struct MetricsRegistry {
    shards: Vec<Shard>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            shards: (0..SHARDS).map(|_| Shard::default()).collect(),
        }
    }
}

impl MetricsRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn shard(&self, name: &str) -> &Shard {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in name.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h as usize) % SHARDS]
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use. Callers on hot paths should cache the returned handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.shard(name).counters.lock();
        match map.get(name) {
            Some(c) => Arc::clone(c),
            None => {
                let c = Arc::new(Counter::default());
                map.insert(name.to_string(), Arc::clone(&c));
                c
            }
        }
    }

    /// Exposes a counter its owner created under `name`, so the owner's
    /// totals and the registry's are one value. Replaces any counter
    /// already registered under that name.
    pub fn adopt_counter(&self, name: &str, counter: Arc<Counter>) {
        let mut map = self.shard(name).counters.lock();
        map.insert(name.to_string(), counter);
    }

    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.shard(name).gauges.lock();
        match map.get(name) {
            Some(g) => Arc::clone(g),
            None => {
                let g = Arc::new(Gauge::default());
                map.insert(name.to_string(), Arc::clone(&g));
                g
            }
        }
    }

    /// Histogram with the default simulated-latency boundaries.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with(name, Histogram::default_time_boundaries)
    }

    /// Histogram with custom boundaries; the factory only runs on first
    /// registration, later calls return the existing instance unchanged.
    pub fn histogram_with(
        &self,
        name: &str,
        boundaries: impl FnOnce() -> Vec<u64>,
    ) -> Arc<Histogram> {
        let mut map = self.shard(name).histograms.lock();
        match map.get(name) {
            Some(h) => Arc::clone(h),
            None => {
                let h = Arc::new(Histogram::new(boundaries()));
                map.insert(name.to_string(), Arc::clone(&h));
                h
            }
        }
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot::default();
        for shard in &self.shards {
            for (name, c) in shard.counters.lock().iter() {
                snap.counters.insert(name.clone(), c.get());
            }
            for (name, g) in shard.gauges.lock().iter() {
                snap.gauges.insert(name.clone(), g.get());
            }
            for (name, h) in shard.histograms.lock().iter() {
                snap.histograms.insert(name.clone(), h.snapshot());
            }
        }
        snap
    }

    /// Convenience: snapshot rendered as JSON text.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_once_and_accumulate() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("feisu.test.hits");
        let b = reg.counter("feisu.test.hits");
        a.inc();
        b.add(4);
        assert_eq!(reg.counter("feisu.test.hits").get(), 5);
    }

    #[test]
    fn an_adopted_counter_is_the_owners_own() {
        let reg = MetricsRegistry::new();
        let owned = Arc::new(Counter::default());
        owned.add(3);
        reg.adopt_counter("feisu.test.owned", Arc::clone(&owned));
        reg.counter("feisu.test.owned").inc();
        assert_eq!(owned.get(), 4);
        assert_eq!(reg.snapshot().counters["feisu.test.owned"], 4);
    }

    #[test]
    fn gauges_move_both_ways() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("feisu.test.depth");
        g.set(10);
        g.sub(3);
        g.add(1);
        assert_eq!(g.get(), 8);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.p99(), 0);
        let s = h.snapshot();
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let h = Histogram::new(vec![10, 100, 1000]);
        h.observe(73);
        assert_eq!(h.p50(), 73);
        assert_eq!(h.p95(), 73);
        assert_eq!(h.p99(), 73);
        assert_eq!(h.quantile(0.0), 73);
        assert_eq!(h.quantile(1.0), 73);
    }

    #[test]
    fn percentiles_order_and_bounds() {
        let h = Histogram::new(Histogram::default_time_boundaries());
        for v in 1..=1000u64 {
            h.observe(v * 1_000); // 1µs .. 1ms
        }
        let (p50, p95, p99) = (h.p50(), h.p95(), h.p99());
        assert!(p50 <= p95 && p95 <= p99);
        assert!((250_000..=750_000).contains(&p50), "p50 was {p50}");
        assert!((900_000..=1_000_000).contains(&p99), "p99 was {p99}");
    }

    #[test]
    fn quantile_edges_empty_extremes_and_single_bucket() {
        // Empty: every quantile is 0 regardless of q.
        let empty = Histogram::new(vec![10, 100]);
        assert_eq!(empty.quantile(0.0), 0);
        assert_eq!(empty.quantile(1.0), 0);
        // Out-of-range q clamps into [0, 1] instead of panicking.
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [20u64, 40, 60, 80] {
            h.observe(v);
        }
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert_eq!(h.quantile(2.0), h.quantile(1.0));
        assert_eq!(h.quantile(1.0), 80, "q=1.0 is the observed max");
        assert_eq!(h.quantile(0.0), h.quantile(f64::EPSILON));
        // Single-bucket histogram: everything lands in one bucket and the
        // estimate stays clamped inside [min, max].
        let one = Histogram::new(vec![1_000_000]);
        for v in [5u64, 500, 900] {
            one.observe(v);
        }
        for q in [0.0, 0.5, 0.95, 1.0] {
            let est = one.quantile(q);
            assert!((5..=900).contains(&est), "q={q} escaped [min,max]: {est}");
        }
        assert_eq!(one.quantile(1.0), 900);
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new(Histogram::default_time_boundaries());
        for v in [3u64, 17, 17, 40_000, 2_000_000, 9_000_000_000] {
            h.observe(v);
        }
        let qs: Vec<u64> = (0..=20).map(|i| h.quantile(i as f64 / 20.0)).collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
    }

    #[test]
    fn snapshot_is_registration_order_independent() {
        // Two registries fed the same metrics in different registration
        // orders must snapshot (and serialize) identically.
        let a = MetricsRegistry::new();
        let b = MetricsRegistry::new();
        let names = ["z.last", "a.first", "m.middle", "feisu.query.count"];
        for n in names {
            a.counter(n).add(7);
        }
        for n in names.iter().rev() {
            b.counter(n).add(7);
        }
        a.gauge("g.depth").set(3);
        b.gauge("g.depth").set(3);
        a.histogram_with("h.lat", || vec![10, 100]).observe(42);
        b.histogram_with("h.lat", || vec![10, 100]).observe(42);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn overflow_bucket_catches_large_values() {
        let h = Histogram::new(vec![10]);
        h.observe(5);
        h.observe(1_000_000);
        assert_eq!(h.count(), 2);
        assert_eq!(h.snapshot().max, 1_000_000);
        assert_eq!(h.quantile(1.0), 1_000_000);
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let reg = Arc::new(MetricsRegistry::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let reg = Arc::clone(&reg);
                std::thread::spawn(move || {
                    let c = reg.counter("feisu.test.concurrent");
                    let h = reg.histogram_with("feisu.test.lat", || vec![100, 10_000]);
                    for i in 0..10_000u64 {
                        c.inc();
                        h.observe(i % 500);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("worker thread");
        }
        assert_eq!(reg.counter("feisu.test.concurrent").get(), 80_000);
        assert_eq!(
            reg.histogram_with("feisu.test.lat", Vec::new).count(),
            80_000
        );
    }

    #[test]
    fn snapshot_json_is_sorted_and_escaped() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").inc();
        reg.gauge("g.\"quoted\"").set(-3);
        reg.histogram_with("h.lat", || vec![10]).observe(4);
        let json = reg.to_json();
        let a = json.find("a.first").expect("a.first present");
        let b = json.find("b.second").expect("b.second present");
        assert!(a < b, "counters must be name-sorted");
        assert!(json.contains("g.\\\"quoted\\\""));
        assert!(json.contains("\"p50\": 4"));
        // Snapshot of identical state is byte-identical.
        assert_eq!(json, reg.to_json());
    }
}
