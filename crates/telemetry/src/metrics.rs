//! Per-run counters, max-gauges and exponential histograms.
//!
//! A [`Registry`] is plain owned data (no globals, no locks): the simulator
//! owns one per run, updates it with `&'static str` keys on the event path,
//! and snapshots it into `RunMetrics` at the end. Everything recorded is a
//! function of *virtual* time and simulated quantities, so registries are
//! bit-identical across repeated runs of the same seed — they are safe to
//! compare in determinism tests and never feed wall-clock noise into
//! results.

use crate::json;
use std::collections::BTreeMap;

/// A histogram over exponentially-spaced buckets, plus exact count / sum /
/// min / max of everything recorded.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    /// Upper bounds of the finite buckets (ascending); one overflow bucket
    /// past the last edge.
    edges: Vec<f64>,
    /// `edges.len() + 1` counts; `counts[i]` is values `<= edges[i]` (and
    /// greater than the previous edge), the last entry is the overflow.
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// Buckets with upper bounds `first, first*factor, first*factor², …`
    /// (`n` finite buckets plus overflow).
    pub fn exponential(first: f64, factor: f64, n: usize) -> Self {
        assert!(first > 0.0 && factor > 1.0 && n >= 1);
        let mut edges = Vec::with_capacity(n);
        let mut e = first;
        for _ in 0..n {
            edges.push(e);
            e *= factor;
        }
        Histogram {
            counts: vec![0; edges.len() + 1],
            edges,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    pub fn record(&mut self, v: f64) {
        let b = self.edges.partition_point(|&e| e < v);
        self.counts[b] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// `(bucket upper bounds, per-bucket counts)`; counts has one extra
    /// overflow entry.
    pub fn buckets(&self) -> (&[f64], &[u64]) {
        (&self.edges, &self.counts)
    }

    /// Approximate quantile `q ∈ [0, 1]`: the upper bound of the bucket
    /// where the cumulative count crosses `q·count` (the exact max for the
    /// overflow bucket; 0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return if i < self.edges.len() {
                    self.edges[i].min(self.max)
                } else {
                    self.max
                };
            }
        }
        self.max
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"count\":");
        out.push_str(&self.count.to_string());
        out.push_str(",\"sum\":");
        json::f64_into(self.sum, out);
        out.push_str(",\"min\":");
        json::f64_into(self.min(), out);
        out.push_str(",\"max\":");
        json::f64_into(self.max(), out);
        out.push_str(",\"p50\":");
        json::f64_into(self.quantile(0.5), out);
        out.push_str(",\"p99\":");
        json::f64_into(self.quantile(0.99), out);
        out.push_str(",\"buckets\":[");
        let mut wrote = false;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if wrote {
                out.push(',');
            }
            wrote = true;
            out.push('[');
            if i < self.edges.len() {
                json::f64_into(self.edges[i], out);
            } else {
                out.push_str("null");
            }
            out.push(',');
            out.push_str(&c.to_string());
            out.push(']');
        }
        out.push_str("]}");
    }
}

impl Default for Histogram {
    /// 1e-6 · 4ᵏ for k in 0..24 — spans microseconds to ~10⁷ in whatever
    /// unit is recorded (seconds, bytes, entries).
    fn default() -> Self {
        Histogram::exponential(1e-6, 4.0, 24)
    }
}

/// A per-run metrics registry: named counters, max-gauges and histograms.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Registry {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    hists: BTreeMap<&'static str, Histogram>,
}

impl Registry {
    pub fn inc(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    pub fn add(&mut self, name: &'static str, v: u64) {
        *self.counters.entry(name).or_insert(0) += v;
    }

    /// Track the maximum value this gauge ever took.
    pub fn gauge_max(&mut self, name: &'static str, v: f64) {
        let g = self.gauges.entry(name).or_insert(f64::NEG_INFINITY);
        if v > *g {
            *g = v;
        }
    }

    /// Record `v` into the named histogram (default exponential buckets).
    pub fn observe(&mut self, name: &'static str, v: f64) {
        self.hists.entry(name).or_default().record(v);
    }

    /// Take in the entries of a registry that records other names (the
    /// simulator's event-loop registry beside the fold of its ranks'
    /// records). A name recorded in both panics.
    pub fn absorb(&mut self, other: Registry) {
        let names = |r: &Registry| r.counters.len() + r.gauges.len() + r.hists.len();
        let expected = names(self) + names(&other);
        self.counters.extend(other.counters);
        self.gauges.extend(other.gauges);
        self.hists.extend(other.hists);
        assert_eq!(names(self), expected, "two registries record one name");
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.hists.get(name)
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.hists.is_empty()
    }

    /// One JSON object with `counters`, `gauges` and `hists` members
    /// (deterministic key order — BTreeMap iteration).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::escape_into(k, &mut s);
            s.push(':');
            s.push_str(&v.to_string());
        }
        s.push_str("},\"gauges\":{");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::escape_into(k, &mut s);
            s.push(':');
            json::f64_into(*v, &mut s);
        }
        s.push_str("},\"hists\":{");
        for (i, (k, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            json::escape_into(k, &mut s);
            s.push(':');
            h.write_json(&mut s);
        }
        s.push_str("}}");
        s
    }

    /// Aligned human-readable summary (for `--profile` / reports).
    pub fn render_table(&self) -> String {
        let mut s = String::new();
        if !self.counters.is_empty() {
            s.push_str("counters:\n");
            for (k, v) in &self.counters {
                s.push_str(&format!("  {k:<28} {v:>14}\n"));
            }
        }
        if !self.gauges.is_empty() {
            s.push_str("gauges (max):\n");
            for (k, v) in &self.gauges {
                s.push_str(&format!("  {k:<28} {v:>14.3}\n"));
            }
        }
        if !self.hists.is_empty() {
            s.push_str("histograms:\n");
            s.push_str(&format!(
                "  {:<28} {:>10} {:>12} {:>12} {:>12} {:>12}\n",
                "name", "count", "mean", "p50", "p99", "max"
            ));
            for (k, h) in &self.hists {
                s.push_str(&format!(
                    "  {k:<28} {:>10} {:>12.6} {:>12.6} {:>12.6} {:>12.6}\n",
                    h.count(),
                    h.mean(),
                    h.quantile(0.5),
                    h.quantile(0.99),
                    h.max()
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucketing() {
        let mut h = Histogram::exponential(1.0, 2.0, 4); // edges 1,2,4,8
        for v in [0.5, 1.0, 1.5, 3.0, 8.0, 100.0] {
            h.record(v);
        }
        let (edges, counts) = h.buckets();
        assert_eq!(edges, &[1.0, 2.0, 4.0, 8.0]);
        // 0.5,1.0 <= 1 | 1.5 <= 2 | 3.0 <= 4 | 8.0 <= 8 | 100 overflow.
        assert_eq!(counts, &[2, 1, 1, 1, 1]);
        assert_eq!(h.count(), 6);
        assert!((h.sum() - 114.0).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 100.0);
        assert!((h.mean() - 19.0).abs() < 1e-12);
    }

    #[test]
    fn histogram_edge_values_land_in_lower_bucket() {
        let mut h = Histogram::exponential(1.0, 10.0, 2); // edges 1,10
        h.record(1.0);
        h.record(10.0);
        h.record(10.000001);
        assert_eq!(h.buckets().1, &[1, 1, 1]);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::exponential(1.0, 2.0, 8);
        for _ in 0..99 {
            h.record(1.5); // bucket (1,2]
        }
        h.record(200.0); // beyond: bucket (128, 256]... within edges (max 128)? 200 > 128 -> overflow
        assert_eq!(h.quantile(0.5), 2.0);
        // p100 hits the overflow bucket and reports the exact max.
        assert_eq!(h.quantile(1.0), 200.0);
        // Quantile caps at the observed max even inside a wide bucket.
        let mut one = Histogram::exponential(1.0, 100.0, 2);
        one.record(1.7);
        assert_eq!(one.quantile(0.5), 1.7);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::default();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 0.0);
        assert_eq!(h.quantile(0.9), 0.0);
    }

    #[test]
    fn registry_accumulates() {
        let mut r = Registry::default();
        r.inc("msgs_sent");
        r.add("msgs_sent", 4);
        r.gauge_max("queue_depth", 3.0);
        r.gauge_max("queue_depth", 9.0);
        r.gauge_max("queue_depth", 5.0);
        r.observe("iter_secs", 0.5);
        r.observe("iter_secs", 1.5);
        assert_eq!(r.counter("msgs_sent"), 5);
        assert_eq!(r.counter("missing"), 0);
        assert_eq!(r.gauge("queue_depth"), Some(9.0));
        assert_eq!(r.histogram("iter_secs").unwrap().count(), 2);
        assert!(!r.is_empty());
        assert!(Registry::default().is_empty());
    }

    /// Absorbing a registry of other names reads as if one had recorded
    /// everything; a shared name is refused.
    #[test]
    fn registry_absorbs_a_registry_of_other_names() {
        let (mut a, mut b, mut both) = <(Registry, Registry, Registry)>::default();
        for r in [&mut a, &mut both] {
            r.add("msgs", 2);
            r.observe("secs", 0.5);
        }
        for r in [&mut b, &mut both] {
            r.gauge_max("depth", 4.0);
            r.observe("iter_secs", 1e-3);
        }
        a.absorb(b.clone());
        assert_eq!(a, both);
        let shared = std::panic::catch_unwind(move || a.absorb(b));
        assert!(shared.is_err(), "a shared name must not be overwritten");
    }

    #[test]
    fn registry_json_parses_and_is_deterministic() {
        let mut r = Registry::default();
        r.add("b_second", 2);
        r.add("a_first", 1);
        r.gauge_max("g", 1.25);
        r.observe("h", 3.0);
        let j = r.to_json();
        assert_eq!(j, r.clone().to_json());
        let v = crate::json::parse(&j).unwrap();
        assert_eq!(
            v.get("counters").unwrap().get("a_first").unwrap().as_u64(),
            Some(1)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("g").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            v.get("hists")
                .unwrap()
                .get("h")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
        // Table rendering mentions every name.
        let t = r.render_table();
        for name in ["a_first", "b_second", "g", "h", "p99"] {
            assert!(t.contains(name), "missing {name} in:\n{t}");
        }
    }

    #[test]
    fn registries_compare_equal_across_identical_runs() {
        let run = || {
            let mut r = Registry::default();
            for i in 0..100 {
                r.inc("events");
                r.observe("x", (i as f64) * 0.1);
                r.gauge_max("depth", (i % 7) as f64);
            }
            r
        };
        assert_eq!(run(), run());
    }
}
