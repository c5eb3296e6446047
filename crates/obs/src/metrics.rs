//! The metrics registry: counters, gauges and log-bucketed histograms,
//! designed so registries from independent runs (seeds, ablation cells)
//! **merge**: counters add, gauges keep the latest, histograms add
//! bucket-wise. Histogram buckets are sparse quarter-octave powers of two
//! (`[2^(i/4), 2^((i+1)/4))`), so merging is a key-wise `u64` addition —
//! exactly associative and count-preserving regardless of merge order.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Sub-buckets per factor-of-two (quarter-octave ≈ 19% wide buckets).
const SUB: f64 = 4.0;

/// Bucket index for non-positive / non-finite observations.
const UNDER: i32 = i32::MIN;

/// A sparse log-bucketed histogram with exact count/merge semantics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// bucket index -> observation count; index `i` covers
    /// `[2^(i/4), 2^((i+1)/4))`, [`UNDER`] collects `v <= 0` and NaN.
    buckets: BTreeMap<i32, u64>,
}

fn bucket_of(v: f64) -> i32 {
    if v > 0.0 && v.is_finite() {
        (v.log2() * SUB).floor() as i32
    } else {
        UNDER
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        *self.buckets.entry(bucket_of(v)).or_insert(0) += 1;
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest observation (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Mean observation (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// The sparse buckets, index -> count.
    pub fn buckets(&self) -> &BTreeMap<i32, u64> {
        &self.buckets
    }

    /// Approximate quantile: the upper bound of the bucket where the
    /// cumulative count crosses `q·N` (clamped to the observed min/max, so
    /// the error is at most one bucket width ≈ 19%). `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (&idx, &n) in &self.buckets {
            seen += n;
            if seen >= target {
                if idx == UNDER {
                    return Some(self.min());
                }
                let hi = ((idx as f64 + 1.0) / SUB).exp2();
                return Some(hi.clamp(self.min, self.max));
            }
        }
        Some(self.max())
    }

    /// Fold another histogram into this one. Bucket counts and totals add
    /// exactly; `merge` is associative and commutative on them, so any
    /// merge tree over per-run registries yields the same counts.
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
        for (&idx, &n) in &other.buckets {
            *self.buckets.entry(idx).or_insert(0) += n;
        }
    }
}

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotone event count.
    Counter(u64),
    /// A last-value-wins instantaneous reading.
    Gauge(f64),
    /// A distribution of observations.
    Histogram(Histogram),
}

/// A named collection of metrics.
///
/// Names are free-form dotted strings (`"ctrl.round_duration_us"`). A name
/// keeps the kind of its first use; mismatched updates are ignored rather
/// than panicking, so instrumentation can never take a run down.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    metrics: BTreeMap<String, Metric>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Add `n` to a counter (creating it at 0).
    pub fn counter_add(&mut self, name: &str, n: u64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Counter(c)) => *c += n,
            Some(_) => {}
            None => {
                self.metrics.insert(name.to_string(), Metric::Counter(n));
            }
        }
    }

    /// Set a gauge.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Gauge(g)) => *g = v,
            Some(_) => {}
            None => {
                self.metrics.insert(name.to_string(), Metric::Gauge(v));
            }
        }
    }

    /// Record an observation into a histogram (creating it empty).
    pub fn observe(&mut self, name: &str, v: f64) {
        match self.metrics.get_mut(name) {
            Some(Metric::Histogram(h)) => h.observe(v),
            Some(_) => {}
            None => {
                let mut h = Histogram::new();
                h.observe(v);
                self.metrics.insert(name.to_string(), Metric::Histogram(h));
            }
        }
    }

    /// Look up a metric.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// The value of a counter (0 if absent or a different kind).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A histogram by name, if one exists under that name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterate metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of distinct metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Fold another registry into this one: counters add, gauges take the
    /// other's value, histograms merge bucket-wise. Same-kind collisions
    /// only; a name bound to different kinds keeps this registry's metric.
    pub fn merge(&mut self, other: &Registry) {
        for (name, m) in &other.metrics {
            match (self.metrics.get_mut(name), m) {
                (Some(Metric::Counter(a)), Metric::Counter(b)) => *a += b,
                (Some(Metric::Gauge(a)), Metric::Gauge(b)) => *a = *b,
                (Some(Metric::Histogram(a)), Metric::Histogram(b)) => a.merge(b),
                (Some(_), _) => {}
                (None, m) => {
                    self.metrics.insert(name.clone(), m.clone());
                }
            }
        }
    }

    /// A plain-text table of every metric, for run reports.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<36} {:>14} {:>12} {:>12} {:>12}",
            "metric", "value", "mean", "p50", "p99"
        );
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(c) => {
                    let _ = writeln!(out, "{name:<36} {c:>14}");
                }
                Metric::Gauge(g) => {
                    let _ = writeln!(out, "{name:<36} {g:>14.3}");
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<36} {:>14} {:>12.4} {:>12.4} {:>12.4}",
                        h.count(),
                        h.mean().unwrap_or(0.0),
                        h.quantile(0.5).unwrap_or(0.0),
                        h.quantile(0.99).unwrap_or(0.0),
                    );
                }
            }
        }
        out
    }

    /// The registry as one JSON object, `name -> metric`, for `--metrics-out`
    /// style exports. Counters render as integers, gauges as numbers (null
    /// when non-finite), histograms as `{count, sum, min, max, mean, p50,
    /// p99}` summaries plus their sparse buckets.
    pub fn to_json(&self) -> String {
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            }
        }
        let mut out = String::from("{");
        for (i, (name, m)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            match m {
                Metric::Counter(c) => {
                    let _ = write!(out, "{{\"kind\":\"counter\",\"value\":{c}}}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{{\"kind\":\"gauge\",\"value\":{}}}", num(*g));
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"kind\":\"histogram\",\"count\":{},\"sum\":{},\"min\":{},\
                         \"max\":{},\"mean\":{},\"p50\":{},\"p99\":{},\"buckets\":{{",
                        h.count(),
                        num(h.sum()),
                        num(h.min()),
                        num(h.max()),
                        num(h.mean().unwrap_or(0.0)),
                        num(h.quantile(0.5).unwrap_or(0.0)),
                        num(h.quantile(0.99).unwrap_or(0.0)),
                    );
                    for (j, (&idx, &n)) in h.buckets().iter().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{idx}\":{n}");
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_tracks_summary_stats() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 4.0, 8.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8.0);
        assert_eq!(h.mean(), Some(3.75));
    }

    #[test]
    fn quantile_is_within_one_bucket() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((400.0..=600.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((900.0..=1000.0).contains(&p99), "p99 {p99}");
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn non_positive_observations_land_in_the_under_bucket() {
        let mut h = Histogram::new();
        h.observe(0.0);
        h.observe(-3.0);
        h.observe(f64::NAN);
        assert_eq!(h.count(), 3);
        assert_eq!(h.buckets().len(), 1);
    }

    #[test]
    fn merge_adds_buckets_and_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1.0, 5.0] {
            a.observe(v);
        }
        for v in [5.0, 100.0] {
            b.observe(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 100.0);
        assert_eq!(a.buckets().values().sum::<u64>(), 4);
    }

    #[test]
    fn registry_kinds_are_sticky() {
        let mut r = Registry::new();
        r.counter_add("x", 2);
        r.gauge_set("x", 9.0); // ignored: x is a counter
        r.counter_add("x", 3);
        assert_eq!(r.counter("x"), 5);
    }

    #[test]
    fn registry_merge_by_kind() {
        let mut a = Registry::new();
        a.counter_add("c", 1);
        a.gauge_set("g", 1.0);
        a.observe("h", 2.0);
        let mut b = Registry::new();
        b.counter_add("c", 2);
        b.gauge_set("g", 7.0);
        b.observe("h", 4.0);
        b.counter_add("only_b", 5);
        a.merge(&b);
        assert_eq!(a.counter("c"), 3);
        assert_eq!(a.get("g"), Some(&Metric::Gauge(7.0)));
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.counter("only_b"), 5);
    }

    #[test]
    fn table_mentions_every_metric() {
        let mut r = Registry::new();
        r.counter_add("flows.started", 10);
        r.observe("flow.fct_s", 0.25);
        let t = r.to_table();
        assert!(t.contains("flows.started"));
        assert!(t.contains("flow.fct_s"));
    }

    #[test]
    fn json_export_covers_all_kinds() {
        let mut r = Registry::new();
        r.counter_add("c", 7);
        r.gauge_set("g", f64::INFINITY);
        r.observe("h", 2.0);
        let j = r.to_json();
        assert!(j.contains("\"c\":{\"kind\":\"counter\",\"value\":7}"));
        assert!(j.contains("\"g\":{\"kind\":\"gauge\",\"value\":null}"));
        assert!(j.contains("\"kind\":\"histogram\",\"count\":1"));
        assert!(j.starts_with('{') && j.ends_with('}'));
    }
}
