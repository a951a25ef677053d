//! Measurement primitives: histograms and their summaries.
//!
//! The paper reports tail latency ("below 10 µs"), percentile error bars
//! (5th/95th) and throughput in Mops. [`Histogram`] is a log-linear
//! bucketed histogram (HdrHistogram-style) sized for nanosecond latencies;
//! [`Summary`] extracts the usual percentiles.

use std::fmt;

use crate::time::SimTime;

/// Number of linear sub-buckets per power-of-two bucket (2^6 = 64 gives
/// ~1.6% relative resolution, plenty for latency plots).
const SUB_BUCKET_BITS: u32 = 6;
const SUB_BUCKETS: usize = 1 << SUB_BUCKET_BITS;

/// A log-linear histogram of `u64` values (typically picoseconds).
///
/// Values are bucketed with ~1.6% relative precision across the full `u64`
/// range in constant memory, supporting exact counts, mean and percentile
/// queries.
///
/// # Examples
///
/// ```
/// use kvd_sim::Histogram;
///
/// let mut h = Histogram::new();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// assert_eq!(h.count(), 1000);
/// let p50 = h.percentile(50.0);
/// assert!((450..=550).contains(&p50));
/// ```
#[derive(Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        // 64 powers of two, SUB_BUCKETS each; index 0 handles tiny values.
        Histogram {
            buckets: vec![0; 64 * SUB_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Empties the histogram in place, keeping its bucket storage.
    pub fn clear(&mut self) {
        self.buckets.fill(0);
        self.count = 0;
        self.sum = 0;
        self.min = u64::MAX;
        self.max = 0;
    }

    #[inline]
    fn index_of(value: u64) -> usize {
        if value < SUB_BUCKETS as u64 {
            return value as usize;
        }
        let msb = 63 - value.leading_zeros();
        let tier = (msb - SUB_BUCKET_BITS + 1) as usize;
        let sub = ((value >> (tier - 1)) as usize) - SUB_BUCKETS;
        tier * SUB_BUCKETS + sub
    }

    fn value_of(index: usize) -> u64 {
        let tier = index / SUB_BUCKETS;
        let sub = index % SUB_BUCKETS;
        if tier == 0 {
            return sub as u64;
        }
        let shift = (tier - 1) as u32;
        ((SUB_BUCKETS + sub) as u64) << shift
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::index_of(value)] += 1;
        self.count += 1;
        self.sum += value as u128;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Records a [`SimTime`] (in picoseconds).
    #[inline]
    pub fn record_time(&mut self, t: SimTime) {
        self.record(t.as_ps());
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// The value at percentile `p` (0–100), by bucket lower bound.
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Self::value_of(i);
            }
        }
        self.max
    }

    /// Percentile as a [`SimTime`] (values recorded via [`record_time`]).
    ///
    /// [`record_time`]: Histogram::record_time
    pub fn percentile_time(&self, p: f64) -> SimTime {
        SimTime::from_ps(self.percentile(p))
    }

    /// Produces a summary of the standard percentiles.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            min: self.min(),
            p5: self.percentile(5.0),
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
            max: self.max,
        }
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Iterates `(bucket_lower_bound, count)` over non-empty buckets; used
    /// to print CDFs (paper Figure 3b).
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::value_of(i), c))
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max)
            .finish()
    }
}

/// Percentile summary extracted from a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Minimum.
    pub min: u64,
    /// 5th percentile (the paper's lower error bar).
    pub p5: u64,
    /// Median.
    pub p50: u64,
    /// 95th percentile (the paper's upper error bar).
    pub p95: u64,
    /// 99th percentile.
    pub p99: u64,
    /// Maximum.
    pub max: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_roundtrips_small_values() {
        for v in 0..SUB_BUCKETS as u64 {
            let i = Histogram::index_of(v);
            assert_eq!(Histogram::value_of(i), v);
        }
    }

    #[test]
    fn histogram_bucket_bounds_are_monotonic() {
        let mut prev = 0;
        for i in 1..1000 {
            let v = Histogram::value_of(i);
            assert!(v >= prev, "bucket {i} not monotonic");
            prev = v;
        }
    }

    #[test]
    fn histogram_relative_error_bounded() {
        let mut h = Histogram::new();
        for exp in 0..50 {
            let v = (1u64 << exp) + 17;
            h.record(v);
            let i = Histogram::index_of(v);
            let lo = Histogram::value_of(i);
            assert!(lo <= v);
            // Lower bound within 2^-(SUB_BUCKET_BITS-1) relative error.
            assert!((v - lo) as f64 <= v as f64 / 32.0 + 1.0);
        }
    }

    #[test]
    fn histogram_percentiles() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let s = h.summary();
        assert_eq!(s.count, 10_000);
        assert!((s.mean - 5000.5).abs() < 1.0);
        let rel = |a: u64, b: u64| (a as f64 - b as f64).abs() / b as f64;
        assert!(rel(s.p50, 5000) < 0.05);
        assert!(rel(s.p95, 9500) < 0.05);
        assert!(rel(s.p99, 9900) < 0.05);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 10_000);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 10);
        assert_eq!(a.summary().max, 1_000_000);
    }

    #[test]
    fn merge_of_split_streams_equals_unsplit_histogram() {
        // The parallel engine records latencies into per-shard histograms
        // and merges them at the end; the merge must be indistinguishable
        // from recording the whole stream into one histogram, including
        // every summary percentile.
        let values: Vec<u64> = (0..50_000u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20) + 1)
            .collect();
        let mut whole = Histogram::new();
        for &v in &values {
            whole.record(v);
        }
        for parts in [2usize, 3, 8] {
            let mut shards: Vec<Histogram> = (0..parts).map(|_| Histogram::new()).collect();
            for (i, &v) in values.iter().enumerate() {
                shards[i % parts].record(v);
            }
            let mut merged = Histogram::new();
            for s in &shards {
                merged.merge(s);
            }
            assert_eq!(merged.summary(), whole.summary(), "{parts}-way split");
            assert_eq!(merged.count(), whole.count());
            assert_eq!(merged.mean(), whole.mean());
            let a: Vec<(u64, u64)> = merged.iter_nonzero().collect();
            let b: Vec<(u64, u64)> = whole.iter_nonzero().collect();
            assert_eq!(a, b, "bucket-exact equality for {parts}-way split");
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let mut streams: Vec<Histogram> = (0..4)
            .map(|k| {
                let mut h = Histogram::new();
                for i in 0..1000u64 {
                    h.record(i * (k + 1) + 7);
                }
                h
            })
            .collect();
        let mut forward = Histogram::new();
        for s in &streams {
            forward.merge(s);
        }
        streams.reverse();
        let mut backward = Histogram::new();
        for s in &streams {
            backward.merge(s);
        }
        assert_eq!(forward.summary(), backward.summary());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut h = Histogram::new();
        h.record(42);
        h.record(7_000_000);
        let before = h.summary();
        h.merge(&Histogram::new());
        assert_eq!(h.summary(), before);
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty.summary(), before);
    }

    #[test]
    fn histogram_empty_queries() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(50.0), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn histogram_cdf_iteration() {
        let mut h = Histogram::new();
        h.record(5);
        h.record(5);
        h.record(700);
        let points: Vec<(u64, u64)> = h.iter_nonzero().collect();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0], (5, 2));
        assert_eq!(points[1].1, 1);
    }
}
