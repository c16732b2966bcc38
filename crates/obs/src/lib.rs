//! Shared observability primitives for the HHC suite.
//!
//! Every layer of the stack reports effort through the same three
//! building blocks:
//!
//! * [`Histogram`] — a fixed power-of-two-bucket histogram of `u64`
//!   observations with exact `count/sum/min/max` and approximate
//!   quantiles (bucket upper bounds);
//! * [`TimingStats`] — a [`Histogram`] of nanosecond durations with the
//!   `min/mean/p99/max` view the experiment tables want;
//! * [`json`] — a dependency-free JSON writer for the metrics sidecars
//!   the experiments and the CLI emit.
//!
//! ## Cost model
//!
//! Recording into a [`Histogram`] is a handful of integer operations
//! (one `leading_zeros`, one indexed add) — cheap enough to stay
//! unconditionally enabled next to any work worth measuring. What is
//! *not* free is acquiring the observation itself: wall-clock timing
//! costs two `Instant` reads per query, and per-cycle simulator
//! sampling walks the queue map. Those producers are therefore opt-in
//! (`PathBuilder::enable_timing`, `SimConfig::sample_every`) and cost
//! nothing when disabled; see `DESIGN.md` §8 for measurements.

pub mod json;

/// Number of buckets: observations are bucketed by bit length, so bucket
/// `i` holds values in `[2^(i-1), 2^i - 1]` (bucket 0 holds exactly 0).
pub const BUCKETS: usize = 65;

/// Fixed-bucket histogram of `u64` observations.
///
/// Buckets are powers of two — bucket `i > 0` covers `[2^(i-1), 2^i - 1]`
/// and bucket 0 covers the single value 0 — so recording costs one
/// `leading_zeros` plus one indexed increment, and two histograms always
/// share a bucket layout (merging is element-wise). `count`, `sum`,
/// `min` and `max` are tracked exactly; quantiles are approximate with
/// resolution one power of two (the returned value is the bucket's upper
/// bound clamped to the exact maximum).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    (64 - v.leading_zeros()) as usize
}

/// Upper bound (inclusive) of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all observations (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact minimum, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of the
    /// first bucket whose cumulative count reaches `⌈q·count⌉`, clamped
    /// to the exact maximum. `None` if empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).min(self.max).max(self.min));
            }
        }
        Some(self.max)
    }

    /// Per-bucket `(lower, upper, count)` triples for the non-empty
    /// buckets, in increasing value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &c)| {
                let lo = if i == 0 { 0 } else { bucket_upper(i - 1) + 1 };
                (lo, bucket_upper(i), c)
            })
    }

    /// Element-wise accumulation of `other` into `self` (same layout by
    /// construction).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Drops every recorded observation.
    pub fn reset(&mut self) {
        *self = Histogram::default();
    }

    /// JSON object: summary fields plus the non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.u64("count", self.count);
        o.u64("sum", self.sum);
        if let (Some(mn), Some(mx)) = (self.min(), self.max()) {
            o.u64("min", mn);
            o.u64("max", mx);
        }
        if let Some(mean) = self.mean() {
            o.f64("mean", mean);
        }
        if let Some(p) = self.quantile(0.99) {
            o.u64("p99", p);
        }
        let buckets: Vec<String> = self
            .nonzero_buckets()
            .map(|(lo, hi, c)| {
                let mut b = json::Obj::new();
                b.u64("lo", lo);
                b.u64("hi", hi);
                b.u64("count", c);
                b.finish()
            })
            .collect();
        o.raw("buckets", &json::array(&buckets));
        o.finish()
    }
}

/// Aggregated wall-clock timings in nanoseconds: a [`Histogram`] with
/// the `min/mean/p99/max` view the tables report. The producer decides
/// whether to time at all — see the crate-level cost model.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TimingStats {
    hist: Histogram,
}

impl TimingStats {
    pub fn new() -> Self {
        TimingStats::default()
    }

    /// Records one duration in nanoseconds.
    #[inline]
    pub fn record_ns(&mut self, ns: u64) {
        self.hist.record(ns);
    }

    /// Number of timed events.
    pub fn count(&self) -> u64 {
        self.hist.count()
    }

    pub fn min_ns(&self) -> Option<u64> {
        self.hist.min()
    }

    pub fn max_ns(&self) -> Option<u64> {
        self.hist.max()
    }

    pub fn mean_ns(&self) -> Option<f64> {
        self.hist.mean()
    }

    /// Approximate 99th percentile (bucket resolution).
    pub fn p99_ns(&self) -> Option<u64> {
        self.hist.quantile(0.99)
    }

    pub fn merge(&mut self, other: &TimingStats) {
        self.hist.merge(&other.hist);
    }

    pub fn reset(&mut self) {
        self.hist.reset();
    }

    /// JSON object with `count/min/mean/p99/max` in nanoseconds.
    pub fn to_json(&self) -> String {
        let mut o = json::Obj::new();
        o.u64("count", self.count());
        if let (Some(mn), Some(mx)) = (self.min_ns(), self.max_ns()) {
            o.u64("min_ns", mn);
            o.u64("max_ns", mx);
        }
        if let Some(mean) = self.mean_ns() {
            o.f64("mean_ns", mean);
        }
        if let Some(p) = self.p99_ns() {
            o.u64("p99_ns", p);
        }
        o.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.nonzero_buckets().count(), 0);
    }

    #[test]
    fn exact_summary_fields() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 1, 7, 100, 1000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1109);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(1000));
        assert!((h.mean().unwrap() - 1109.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn bucket_totals_equal_count() {
        let mut h = Histogram::new();
        for v in 0..1000u64 {
            h.record(v * v);
        }
        let total: u64 = h.nonzero_buckets().map(|(_, _, c)| c).sum();
        assert_eq!(total, h.count());
    }

    #[test]
    fn bucket_bounds_partition() {
        // Consecutive non-empty buckets never overlap and each recorded
        // value falls inside its bucket's range.
        let mut h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 8, 15, 16, u64::MAX] {
            h.record(v);
        }
        let buckets: Vec<_> = h.nonzero_buckets().collect();
        for w in buckets.windows(2) {
            assert!(w[0].1 < w[1].0, "buckets overlap: {w:?}");
        }
        assert_eq!(buckets[0], (0, 0, 1));
    }

    #[test]
    fn quantiles_are_monotone_and_bracket_extremes() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let q0 = h.quantile(0.0).unwrap();
        let q50 = h.quantile(0.5).unwrap();
        let q99 = h.quantile(0.99).unwrap();
        let q100 = h.quantile(1.0).unwrap();
        assert!(q0 <= q50 && q50 <= q99 && q99 <= q100);
        assert!(q0 >= 1);
        assert_eq!(q100, 10_000);
        // p50 of 1..=10k is in [4096, 8191]: bucket resolution.
        assert!((5000..=8191).contains(&q50), "p50 = {q50}");
    }

    #[test]
    fn merge_equals_concatenation() {
        let (mut a, mut b, mut both) = (Histogram::new(), Histogram::new(), Histogram::new());
        for v in 0..100u64 {
            a.record(v * 3);
            both.record(v * 3);
        }
        for v in 0..77u64 {
            b.record(v * v);
            both.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a, both);
    }

    #[test]
    fn timing_stats_view() {
        let mut t = TimingStats::new();
        for ns in [100u64, 200, 300, 100_000] {
            t.record_ns(ns);
        }
        assert_eq!(t.count(), 4);
        assert_eq!(t.min_ns(), Some(100));
        assert_eq!(t.max_ns(), Some(100_000));
        assert!(t.p99_ns().unwrap() >= 65_536); // bucket containing 100_000
        let j = t.to_json();
        assert!(j.contains("\"count\":4"));
        assert!(j.contains("min_ns"));
    }

    #[test]
    fn json_shape() {
        let mut h = Histogram::new();
        h.record(5);
        let j = h.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"buckets\":[{\"lo\":4,\"hi\":7,\"count\":1}]"));
    }
}
