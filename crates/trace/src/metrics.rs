//! A deterministic, thread-safe metrics registry.
//!
//! Counters, gauges, and fixed-bucket histograms keyed by string. All
//! hot-path mutation is commutative — counter adds and histogram
//! observations — so the final values do not depend on the interleaving
//! of sweep workers, and the backing maps are ordered (`BTreeMap`), so
//! every dump is byte-stable. Nothing here reads a clock: durations are
//! recorded in *simulated* units (cycles, records, bytes) by callers.
//!
//! # Volatile keys
//!
//! Keys starting with `~` mark metrics that legitimately vary between
//! runs (per-worker task counts, configured worker counts). They are
//! kept out of [`MetricsSnapshot::to_json`] so the deterministic dump
//! stays byte-identical across `--jobs` settings; [`MetricsSnapshot::to_json_all`]
//! includes them.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Default histogram bucket upper bounds: powers of four from 1 to
/// 4^12 ≈ 16.8M, a decade-spanning grid that suits cycle counts,
/// byte volumes, and record counts alike. Observations above the last
/// bound land in the implicit overflow bucket.
pub const DEFAULT_BOUNDS: [f64; 13] = [
    1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0,
    16777216.0,
];

/// A fixed-bucket histogram: `counts[i]` tallies observations `v <=
/// bounds[i]` (first matching bucket); `counts[bounds.len()]` is the
/// overflow bucket.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    /// Ascending bucket upper bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; one longer than `bounds`.
    pub counts: Vec<u64>,
    /// Total number of observations.
    pub total: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl Histogram {
    /// An empty histogram over the given ascending bounds.
    #[must_use]
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds must ascend");
        Histogram { bounds: bounds.to_vec(), counts: vec![0; bounds.len() + 1], total: 0, sum: 0.0 }
    }

    /// Records one observation.
    pub fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += v;
    }

    /// Merges another histogram with identical bounds into this one.
    ///
    /// # Panics
    ///
    /// Panics if the bucket bounds differ.
    pub fn merge(&mut self, other: &Histogram) {
        assert_eq!(self.bounds, other.bounds, "cannot merge histograms with different bounds");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }
}

#[derive(Debug, Default, Clone)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

/// The thread-safe registry. Cheap to share by reference across sweep
/// workers; see the module docs for the determinism contract.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `by` to counter `key` (created at zero on first use).
    pub fn inc(&self, key: &str, by: u64) {
        let mut inner = self.lock();
        *inner.counters.entry(key.to_string()).or_insert(0) += by;
    }

    /// Sets gauge `key` to `v`. Last write wins, so gauges should only
    /// be set from serial contexts (or marked volatile with a `~`
    /// prefix) to preserve determinism.
    pub fn set_gauge(&self, key: &str, v: f64) {
        self.lock().gauges.insert(key.to_string(), v);
    }

    /// Records `v` into histogram `key`, creating it over
    /// [`DEFAULT_BOUNDS`] on first use.
    pub fn observe(&self, key: &str, v: f64) {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(key.to_string())
            .or_insert_with(|| Histogram::new(&DEFAULT_BOUNDS))
            .observe(v);
    }

    /// Merges a locally accumulated histogram into histogram `key`
    /// (created over `local`'s bounds on first use). Hot loops batch
    /// observations into their own [`Histogram`] and merge once, paying
    /// one registry lock instead of one per observation; counts and the
    /// (integer-valued) sums land identical to per-value [`Registry::observe`]
    /// calls.
    ///
    /// # Panics
    ///
    /// Panics if the key already exists with different bucket bounds.
    pub fn merge_histogram(&self, key: &str, local: &Histogram) {
        let mut inner = self.lock();
        inner
            .histograms
            .entry(key.to_string())
            .or_insert_with(|| Histogram::new(&local.bounds))
            .merge(local);
    }

    /// Current value of counter `key` (zero when absent).
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        self.lock().counters.get(key).copied().unwrap_or(0)
    }

    /// Current value of gauge `key`.
    #[must_use]
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.lock().gauges.get(key).copied()
    }

    /// A point-in-time copy of every metric.
    ///
    /// # Panics
    ///
    /// Panics if the registry mutex was poisoned by a panicking thread.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.lock();
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            histograms: inner.histograms.clone(),
        }
    }

    /// Merges a snapshot into this registry: counters add, gauges
    /// overwrite, histograms merge (bounds must match).
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        let mut inner = self.lock();
        for (k, v) in &snap.counters {
            *inner.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &snap.gauges {
            inner.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &snap.histograms {
            match inner.histograms.get_mut(k) {
                Some(mine) => mine.merge(h),
                None => {
                    inner.histograms.insert(k.clone(), h.clone());
                }
            }
        }
    }

    /// Drops every metric.
    pub fn clear(&self) {
        let mut inner = self.lock();
        *inner = Inner::default();
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap()
    }
}

/// An immutable copy of a registry's contents, ready to export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Point-in-time gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Fixed-bucket histograms.
    pub histograms: BTreeMap<String, Histogram>,
}

/// Formats an `f64` as a JSON number (non-finite values, which no
/// deterministic simulated metric should produce, degrade to 0).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        debug_assert!(false, "non-finite metric value {v}");
        "0".to_string()
    }
}

pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
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

impl MetricsSnapshot {
    fn is_volatile(key: &str) -> bool {
        key.starts_with('~')
    }

    /// The deterministic JSON dump: volatile (`~`-prefixed) metrics are
    /// excluded, so the output is byte-identical across worker counts.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// The full JSON dump including volatile metrics.
    #[must_use]
    pub fn to_json_all(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, include_volatile: bool) -> String {
        use std::fmt::Write as _;
        let keep = |k: &str| include_volatile || !Self::is_volatile(k);
        let mut out = String::from("{\n  \"schema\": \"q100-metrics-v1\",\n  \"counters\": {");
        let mut first = true;
        for (k, v) in self.counters.iter().filter(|(k, _)| keep(k)) {
            let _ =
                write!(out, "{}\n    \"{}\": {v}", if first { "" } else { "," }, json_escape(k));
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"gauges\": {");
        first = true;
        for (k, v) in self.gauges.iter().filter(|(k, _)| keep(k)) {
            let _ = write!(
                out,
                "{}\n    \"{}\": {}",
                if first { "" } else { "," },
                json_escape(k),
                json_num(*v)
            );
            first = false;
        }
        out.push_str(if first { "},\n" } else { "\n  },\n" });
        out.push_str("  \"histograms\": {");
        first = true;
        for (k, h) in self.histograms.iter().filter(|(k, _)| keep(k)) {
            let bounds: Vec<String> = h.bounds.iter().map(|&b| json_num(b)).collect();
            let counts: Vec<String> = h.counts.iter().map(u64::to_string).collect();
            let _ = write!(
                out,
                "{}\n    \"{}\": {{\"bounds\": [{}], \"counts\": [{}], \"total\": {}, \"sum\": {}}}",
                if first { "" } else { "," },
                json_escape(k),
                bounds.join(", "),
                counts.join(", "),
                h.total,
                json_num(h.sum)
            );
            first = false;
        }
        out.push_str(if first { "}\n}\n" } else { "\n  }\n}\n" });
        out
    }

    /// A flat CSV dump (`kind,name,field,value` rows), deterministic
    /// like [`MetricsSnapshot::to_json`].
    #[must_use]
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("kind,name,field,value\n");
        for (k, v) in self.counters.iter().filter(|(k, _)| !Self::is_volatile(k)) {
            let _ = writeln!(out, "counter,{k},value,{v}");
        }
        for (k, v) in self.gauges.iter().filter(|(k, _)| !Self::is_volatile(k)) {
            let _ = writeln!(out, "gauge,{k},value,{}", json_num(*v));
        }
        for (k, h) in self.histograms.iter().filter(|(k, _)| !Self::is_volatile(k)) {
            for (i, c) in h.counts.iter().enumerate() {
                let bound = h.bounds.get(i).map_or("inf".to_string(), |b| json_num(*b));
                let _ = writeln!(out, "histogram,{k},le_{bound},{c}");
            }
            let _ = writeln!(out, "histogram,{k},total,{}", h.total);
            let _ = writeln!(out, "histogram,{k},sum,{}", json_num(h.sum));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_histograms_roundtrip() {
        let r = Registry::new();
        r.inc("a.count", 2);
        r.inc("a.count", 3);
        r.set_gauge("g", 1.5);
        r.observe("h", 10.0);
        r.observe("h", 100_000.0);
        assert_eq!(r.counter("a.count"), 5);
        assert_eq!(r.gauge("g"), Some(1.5));
        let snap = r.snapshot();
        assert_eq!(snap.histograms["h"].total, 2);
        assert_eq!(snap.histograms["h"].sum, 100_010.0);
        // 10 lands in the `<= 16` bucket, 100k in `<= 262144`.
        assert_eq!(snap.histograms["h"].counts[2], 1);
        assert_eq!(snap.histograms["h"].counts[9], 1);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let mut h = Histogram::new(&[1.0, 10.0]);
        h.observe(0.5);
        h.observe(5.0);
        h.observe(50.0);
        assert_eq!(h.counts, vec![1, 1, 1]);
        assert_eq!(h.total, 3);
    }

    #[test]
    fn merge_requires_same_bounds_and_adds() {
        let mut a = Histogram::new(&[1.0, 10.0]);
        let mut b = Histogram::new(&[1.0, 10.0]);
        a.observe(0.5);
        b.observe(5.0);
        a.merge(&b);
        assert_eq!(a.counts, vec![1, 1, 0]);
        assert_eq!(a.total, 2);
    }

    #[test]
    fn volatile_keys_excluded_from_deterministic_dump() {
        let r = Registry::new();
        r.inc("pool.tasks", 7);
        r.inc("~pool.worker.0.tasks", 7);
        r.set_gauge("~pool.workers", 4.0);
        let snap = r.snapshot();
        let det = snap.to_json();
        assert!(det.contains("pool.tasks"));
        assert!(!det.contains("~pool"));
        let all = snap.to_json_all();
        assert!(all.contains("~pool.worker.0.tasks"));
        assert!(!snap.to_csv().contains("~pool"));
    }

    #[test]
    fn default_bounds_snapshot() {
        // The bucket grid is part of the `q100-metrics-v1` schema:
        // changing it makes stored metrics dumps incomparable with new
        // ones, so it is pinned here.
        assert_eq!(
            DEFAULT_BOUNDS.to_vec(),
            vec![
                1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0,
                4194304.0, 16777216.0
            ]
        );
    }

    #[test]
    fn absorb_merges_registries() {
        let a = Registry::new();
        let b = Registry::new();
        a.inc("c", 1);
        b.inc("c", 2);
        b.set_gauge("g", 3.0);
        b.observe("h", 2.0);
        a.absorb(&b.snapshot());
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.gauge("g"), Some(3.0));
        assert_eq!(a.snapshot().histograms["h"].total, 1);
    }

    #[test]
    fn dumps_are_stable() {
        let r = Registry::new();
        r.inc("z.last", 1);
        r.inc("a.first", 2);
        r.observe("h", 3.0);
        let one = r.snapshot().to_json();
        let two = r.snapshot().to_json();
        assert_eq!(one, two);
        // BTreeMap ordering: "a.first" precedes "z.last".
        assert!(one.find("a.first").unwrap() < one.find("z.last").unwrap());
    }
}
