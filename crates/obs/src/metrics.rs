//! Metrics registry: monotone counters, gauges and log₂-bucketed
//! histograms with deterministic iteration order.
//!
//! The registry is internally locked, so any thread may bump it: the
//! daemon and the router each own one for the life of the process. A
//! [`snapshot`] freezes it into a plain [`MetricsSnapshot`] that renders
//! as a Prometheus-style text dump or a JSON tree. A planner run keeps
//! no registry: its counters are the fields of
//! `madpipe_core::PlannerStats`, which builds a snapshot only when one
//! is exported ([`HistogramSnapshot::of`] freezes its per-solve
//! histograms).
//!
//! [`snapshot`]: Registry::snapshot

use std::collections::BTreeMap;
use std::sync::Mutex;

use madpipe_json::Value;

/// Number of log₂ histogram buckets; bucket `i` holds values in
/// `(2^(i-1-OFFSET), 2^(i-OFFSET)]`, spanning ≈ 2⁻³⁰ … 2³³.
const BUCKETS: usize = 64;
/// Bucket 0's upper bound is `2^-OFFSET`.
const OFFSET: i32 = 30;

fn bucket_index(value: f64) -> usize {
    if value <= 0.0 {
        return 0;
    }
    let idx = value.log2().ceil() as i64 + OFFSET as i64;
    idx.clamp(0, BUCKETS as i64 - 1) as usize
}

fn bucket_bound(index: usize) -> f64 {
    2f64.powi(index as i32 - OFFSET)
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Hist {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    buckets: Vec<u64>, // sparse-friendly: allocated on first observe
}

impl Hist {
    fn observe(&mut self, value: f64) {
        if self.buckets.is_empty() {
            self.buckets = vec![0; BUCKETS];
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.buckets[bucket_index(value)] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, n)| **n > 0)
                .map(|(i, n)| (bucket_bound(i), *n))
                .collect(),
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Hist>,
}

/// A live metrics registry. Cheap to create: each planning session,
/// daemon and router owns one rather than sharing one globally.
#[derive(Debug, Default)]
pub struct Registry {
    inner: Mutex<Inner>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `delta` to the monotone counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        // Allocate the name only the first time the counter appears.
        match inner.counters.get_mut(name) {
            Some(count) => *count += delta,
            None => {
                inner.counters.insert(name.to_string(), delta);
            }
        }
    }

    /// Increment the counter `name` by one.
    pub fn inc(&self, name: &str) {
        self.add(name, 1);
    }

    /// Current value of counter `name` (0 if never bumped).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Set the gauge `name` (last write wins).
    pub fn set_gauge(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        inner.gauges.insert(name.to_string(), value);
    }

    /// Record one observation into the log₂ histogram `name`.
    pub fn observe(&self, name: &str, value: f64) {
        let mut inner = self.inner.lock().unwrap();
        let histograms = &mut inner.histograms;
        match histograms.get_mut(name) {
            Some(h) => h,
            None => histograms.entry(name.to_string()).or_default(),
        }
        .observe(value);
    }

    /// Freeze the registry into a plain, comparable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.lock().unwrap();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            gauges: inner.gauges.iter().map(|(k, v)| (k.clone(), *v)).collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// One histogram, frozen: only non-empty buckets are kept, as
/// `(upper_bound, count)` pairs in ascending bound order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// The histogram of `values` observed in order: the snapshot a
    /// [`Registry`] histogram fed the same values would freeze to.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut h = Hist::default();
        values.into_iter().for_each(|v| h.observe(v));
        h.snapshot()
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) by rank interpolation
    /// within the owning log₂ bucket, clamped into the exact observed
    /// `[min, max]` — so a single-observation histogram reports that
    /// observation for every quantile. `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let est = quantile_from_buckets(&self.buckets, q);
        if est.is_nan() {
            est
        } else {
            est.clamp(self.min, self.max)
        }
    }
}

/// Quantile estimate over `(upper_bound, count)` buckets in ascending
/// bound order (non-cumulative counts, log₂ bounds — a bucket's lower
/// edge is `bound / 2`). This is the reconstruction `madpipe top`
/// applies to cluster-summed `_bucket` series, where no exact min/max
/// exists to clamp against. `NaN` when the buckets are empty.
pub fn quantile_from_buckets(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|(_, n)| n).sum();
    if total == 0 {
        return f64::NAN;
    }
    // Rank of the target observation, 1-based: the smallest bucket whose
    // cumulative count reaches it owns the quantile.
    let rank = (q.clamp(0.0, 1.0) * total as f64).max(1.0);
    let mut cumulative = 0u64;
    for (bound, n) in buckets {
        if *n == 0 {
            continue;
        }
        let before = cumulative as f64;
        cumulative += n;
        if cumulative as f64 >= rank {
            let lower = bound / 2.0;
            let frac = ((rank - before) / *n as f64).clamp(0.0, 1.0);
            return lower + frac * (bound - lower);
        }
    }
    buckets.last().map(|(b, _)| *b).unwrap_or(f64::NAN)
}

/// The quantiles every histogram exports (and `madpipe top` renders).
pub const EXPORTED_QUANTILES: [f64; 3] = [0.5, 0.95, 0.99];

/// A frozen registry: sorted name → value lists, directly renderable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, f64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// `dp.solve.seconds` → `madpipe_dp_solve_seconds`.
fn prom_name(name: &str) -> String {
    let mut s = String::with_capacity(name.len() + 8);
    s.push_str("madpipe_");
    for c in name.chars() {
        s.push(if c.is_ascii_alphanumeric() { c } else { '_' });
    }
    s
}

impl MetricsSnapshot {
    /// Counter lookup (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Prometheus text exposition format.
    pub fn to_prometheus(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (name, v) in &self.counters {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} counter\n{n} {v}");
        }
        for (name, v) in &self.gauges {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} gauge\n{n} {v}");
        }
        for (name, h) in &self.histograms {
            let n = prom_name(name);
            let _ = writeln!(out, "# TYPE {n} histogram");
            let mut cumulative = 0;
            for (bound, count) in &h.buckets {
                cumulative += count;
                let _ = writeln!(out, "{n}_bucket{{le=\"{bound:e}\"}} {cumulative}");
            }
            let _ = writeln!(out, "{n}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{n}_sum {}", h.sum);
            let _ = writeln!(out, "{n}_count {}", h.count);
            // Estimated quantiles as labeled gauges. Quantiles do not
            // sum; rollups must aggregate the `_bucket` series instead
            // (see `validate::histogram_buckets`) — which is exactly why
            // these carry a label the plain-sample extractors skip.
            for q in EXPORTED_QUANTILES {
                let _ = writeln!(out, "{n}{{quantile=\"{q}\"}} {}", h.quantile(q));
            }
        }
        out
    }

    /// JSON tree (counters exact as unsigned integers).
    pub fn to_json(&self) -> Value {
        Value::Object(vec![
            (
                "counters".into(),
                Value::Object(
                    self.counters
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::UInt(*v)))
                        .collect(),
                ),
            ),
            (
                "gauges".into(),
                Value::Object(
                    self.gauges
                        .iter()
                        .map(|(k, v)| (k.clone(), Value::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "histograms".into(),
                Value::Object(
                    self.histograms
                        .iter()
                        .map(|(k, h)| {
                            (
                                k.clone(),
                                Value::Object(vec![
                                    ("count".into(), Value::UInt(h.count)),
                                    ("sum".into(), Value::Float(h.sum)),
                                    ("min".into(), Value::Float(h.min)),
                                    ("max".into(), Value::Float(h.max)),
                                    (
                                        "buckets".into(),
                                        Value::Array(
                                            h.buckets
                                                .iter()
                                                .map(|(bound, n)| {
                                                    Value::Array(vec![
                                                        Value::Float(*bound),
                                                        Value::UInt(*n),
                                                    ])
                                                })
                                                .collect(),
                                        ),
                                    ),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let r = Registry::new();
        r.inc("dp.solves");
        r.add("dp.solves", 2);
        r.add("dp.memo_hits", 0); // no-op
        assert_eq!(r.counter("dp.solves"), 3);
        assert_eq!(r.counter("dp.memo_hits"), 0);
        let snap = r.snapshot();
        assert_eq!(snap.counter("dp.solves"), 3);
        assert_eq!(snap.counters.len(), 1, "zero deltas create no series");
    }

    #[test]
    fn histograms_bucket_on_log2_bounds() {
        let r = Registry::new();
        for v in [0.5, 0.5, 2.0, 1e-12, 0.0] {
            r.observe("t", v);
        }
        let snap = r.snapshot();
        let (_, h) = &snap.histograms[0];
        assert_eq!(h.count, 5);
        assert_eq!(h.min, 0.0);
        assert_eq!(h.max, 2.0);
        assert_eq!(h.sum, 3.0 + 1e-12);
        // 0.5 ≤ 2^-1, 2.0 ≤ 2^1, tiny/zero clamp into the lowest bucket.
        assert!(h.buckets.iter().any(|(b, n)| *b == 0.5 && *n == 2));
        assert!(h.buckets.iter().any(|(b, n)| *b == 2.0 && *n == 1));
        let total: u64 = h.buckets.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_histogram_rollup_has_no_defined_quantile() {
        // A cluster that has served no requests rolls up to all-zero
        // buckets; every quantile is NaN (callers render `-`, never a
        // raw NaN), and zero-count buckets never shift the estimate.
        assert!(quantile_from_buckets(&[], 0.5).is_nan());
        assert!(quantile_from_buckets(&[(0.5, 0), (2.0, 0)], 0.99).is_nan());
        let empty = HistogramSnapshot::default();
        for q in EXPORTED_QUANTILES {
            assert!(empty.quantile(q).is_nan());
        }
        // One observation later, the quantile is defined again.
        let one = [(2.0, 1u64)];
        assert!(quantile_from_buckets(&one, 0.5).is_finite());
    }

    #[test]
    fn a_histogram_of_values_matches_the_registry_one() {
        let values = [0.5, 1e-12, 3.0, 0.0, 2.0, 0.75];
        let r = Registry::new();
        for v in values {
            r.observe("h", v);
        }
        assert_eq!(r.snapshot().histograms[0].1, HistogramSnapshot::of(values));
    }

    #[test]
    fn prometheus_dump_is_well_formed() {
        let r = Registry::new();
        r.add("dp.solves", 3);
        r.set_gauge("plan.phase1.seconds", 0.25);
        r.observe("dp.solve.seconds", 0.001);
        r.observe("dp.solve.seconds", 0.1);
        let text = r.snapshot().to_prometheus();
        assert!(text.contains("# TYPE madpipe_dp_solves counter"));
        assert!(text.contains("madpipe_dp_solves 3"));
        assert!(text.contains("# TYPE madpipe_plan_phase1_seconds gauge"));
        assert!(text.contains("# TYPE madpipe_dp_solve_seconds histogram"));
        assert!(text.contains("madpipe_dp_solve_seconds_count 2"));
        assert!(text.contains("le=\"+Inf\"} 2"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "bad sample line: {line}");
        }
    }

    #[test]
    fn quantiles_interpolate_within_log2_buckets() {
        let r = Registry::new();
        // 100 observations spread across two buckets: 90 in (0.25, 0.5],
        // 10 in (0.5, 1.0].
        for _ in 0..90 {
            r.observe("lat", 0.3);
        }
        for _ in 0..10 {
            r.observe("lat", 0.9);
        }
        let snap = r.snapshot();
        let (_, h) = snap.histograms.iter().find(|(k, _)| k == "lat").unwrap();
        let p50 = h.quantile(0.5);
        assert!(
            (0.25..=0.5).contains(&p50),
            "p50 must land in the 90%-bucket, got {p50}"
        );
        let p99 = h.quantile(0.99);
        assert!(
            (0.5..=0.9).contains(&p99),
            "p99 must land in the tail bucket, clamped to max, got {p99}"
        );
        assert!(h.quantile(1.0) <= h.max);
        assert_eq!(
            h.quantile(0.0),
            h.min.max(0.25),
            "p0 is the first bucket's lower edge, clamped to min"
        );

        // A single observation answers itself for every quantile.
        let r1 = Registry::new();
        r1.observe("one", 0.0123);
        let snap1 = r1.snapshot();
        let (_, h1) = &snap1.histograms[0];
        for q in EXPORTED_QUANTILES {
            assert_eq!(h1.quantile(q), 0.0123);
        }

        // Empty buckets: NaN, never a panic.
        assert!(quantile_from_buckets(&[], 0.5).is_nan());
        assert!(HistogramSnapshot::default().quantile(0.5).is_nan());
    }

    #[test]
    fn prometheus_dump_exports_quantile_series() {
        let r = Registry::new();
        r.observe("dp.solve.seconds", 0.001);
        r.observe("dp.solve.seconds", 0.1);
        let text = r.snapshot().to_prometheus();
        for q in EXPORTED_QUANTILES {
            assert!(
                text.contains(&format!("madpipe_dp_solve_seconds{{quantile=\"{q}\"}} ")),
                "missing quantile {q} in:\n{text}"
            );
        }
        // Quantile lines are labeled, so the plain-sample extractor a
        // cluster rollup sums must skip them.
        let samples = crate::validate::prometheus_samples(&text).unwrap();
        assert!(samples.iter().all(|(n, _)| !n.contains("quantile")));
    }

    #[test]
    fn json_snapshot_round_trips_counter_values_exactly() {
        let r = Registry::new();
        r.add("big", u64::MAX - 1);
        r.observe("h", 0.125);
        let v = r.snapshot().to_json();
        let back = Value::parse(&v.to_string_compact()).unwrap();
        assert_eq!(
            back.field("counters").unwrap().field("big").unwrap(),
            &Value::UInt(u64::MAX - 1)
        );
        assert_eq!(back, v);
    }
}
