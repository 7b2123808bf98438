//! Log₂-bucketed histograms and scoped timing spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of buckets: bucket 0 holds the value 0, bucket `i ≥ 1` holds
/// values in `[2^(i-1), 2^i − 1]`.
pub(crate) const BUCKETS: usize = 65;

#[inline]
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Inclusive upper bound of bucket `i` (saturating for the last bucket).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

#[derive(Debug)]
pub(crate) struct HistInner {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl HistInner {
    pub(crate) fn new() -> Self {
        HistInner {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.min.fetch_min(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min: if count == 0 {
                0
            } else {
                self.min.load(Ordering::Relaxed)
            },
            max: self.max.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A histogram of `u64` samples in logarithmic (power-of-two) buckets.
///
/// Intended for durations in nanoseconds and sizes in bytes, where a
/// factor-of-two resolution is plenty. Cloning shares the underlying
/// buckets; [`Histogram::noop`] drops every sample for the cost of one
/// branch.
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistInner>>);

impl Histogram {
    /// A live histogram, detached from any registry.
    pub fn active() -> Self {
        Histogram(Some(Arc::new(HistInner::new())))
    }

    /// A histogram that drops every sample.
    pub fn noop() -> Self {
        Histogram(None)
    }

    pub(crate) fn from_inner(inner: Arc<HistInner>) -> Self {
        Histogram(Some(inner))
    }

    /// `true` when samples are recorded (not the no-op variant).
    #[inline]
    pub fn is_active(&self) -> bool {
        self.0.is_some()
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(inner) = &self.0 {
            inner.record(v);
        }
    }

    /// Starts a timing span that records its elapsed nanoseconds into
    /// this histogram when dropped. On a no-op histogram the span never
    /// reads the clock.
    #[inline]
    pub fn span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: if self.is_active() {
                Some(Instant::now())
            } else {
                None
            },
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.0
            .as_ref()
            .map_or_else(HistogramSnapshot::empty, |inner| inner.snapshot())
    }
}

/// A scoped timing guard: created by [`Histogram::span`], records the
/// elapsed wall time (in nanoseconds) on drop. Spans nest naturally —
/// an outer span's sample covers the time spent in inner spans.
#[derive(Debug)]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Span<'_> {
    /// Ends the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start.take() {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.hist.record(ns);
        }
    }
}

/// An owned, point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of samples recorded.
    pub count: u64,
    /// Sum of all samples (wrapping on overflow).
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Per-bucket sample counts; bucket `i ≥ 1` covers
    /// `[2^(i-1), 2^i − 1]`, bucket 0 the value 0.
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot.
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Arithmetic mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) as the upper bound
    /// of the bucket containing it, clamped into `[min, max]`. Exact to
    /// within the factor-of-two bucket resolution.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        debug_assert_eq!(self.buckets.len(), other.buckets.len());
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        if other.count > 0 {
            self.min = if self.count == 0 {
                other.min
            } else {
                self.min.min(other.min)
            };
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(10), 1023);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn records_land_in_the_right_buckets() {
        let h = Histogram::active();
        for v in [0u64, 1, 2, 3, 4, 1000, 1024] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 7);
        assert_eq!(s.sum, 2034);
        assert_eq!(s.min, 0);
        assert_eq!(s.max, 1024);
        assert_eq!(s.buckets[0], 1); // 0
        assert_eq!(s.buckets[1], 1); // 1
        assert_eq!(s.buckets[2], 2); // 2, 3
        assert_eq!(s.buckets[3], 1); // 4
        assert_eq!(s.buckets[10], 1); // 1000
        assert_eq!(s.buckets[11], 1); // 1024
    }

    #[test]
    fn quantiles_are_bucket_accurate() {
        let h = Histogram::active();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        // p50 of 1..=100 is 50: its bucket [32, 63] upper bound is 63.
        assert_eq!(s.quantile(0.5), 63);
        // p100 clamps to the observed max.
        assert_eq!(s.quantile(1.0), 100);
        // p0 returns the first non-empty bucket, clamped to min.
        assert_eq!(s.quantile(0.0), 1);
        assert!((s.mean() - 50.5).abs() < 1e-9);
    }

    #[test]
    fn empty_snapshot_is_benign() {
        let s = Histogram::active().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.quantile(0.5), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min, 0);
    }

    #[test]
    fn merge_combines_distributions() {
        let a = Histogram::active();
        let b = Histogram::active();
        a.record(1);
        a.record(2);
        b.record(1000);
        let mut sa = a.snapshot();
        let sb = b.snapshot();
        sa.merge(&sb);
        assert_eq!(sa.count, 3);
        assert_eq!(sa.sum, 1003);
        assert_eq!(sa.min, 1);
        assert_eq!(sa.max, 1000);
        assert_eq!(sa.buckets[1], 1);
        assert_eq!(sa.buckets[2], 1);
        assert_eq!(sa.buckets[10], 1);
        // Merging into an empty snapshot preserves min.
        let mut empty = HistogramSnapshot::empty();
        empty.merge(&sb);
        assert_eq!(empty.min, 1000);
        assert_eq!(empty.count, 1);
    }

    #[test]
    fn empty_snapshot_quantiles_are_zero_at_every_q() {
        let s = HistogramSnapshot::empty();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(s.quantile(q), 0, "q={q}");
        }
        // Out-of-range q values clamp instead of panicking.
        assert_eq!(s.quantile(-1.0), 0);
        assert_eq!(s.quantile(2.0), 0);
    }

    #[test]
    fn top_bucket_saturates_at_u64_max() {
        let h = Histogram::active();
        h.record(u64::MAX);
        h.record(u64::MAX);
        h.record(1u64 << 63); // same (top) bucket, smaller value
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[64], 3);
        assert_eq!(s.max, u64::MAX);
        assert_eq!(s.min, 1u64 << 63);
        // The top bucket's upper bound is u64::MAX, clamped to the
        // observed max — no overflow in `bucket_upper`.
        assert_eq!(s.quantile(0.99), u64::MAX);
        // All samples share the top bucket, so even p0 reports that
        // bucket's upper bound (clamped to the observed max).
        assert_eq!(s.quantile(0.0), u64::MAX);
        // The sum wrapped (MAX + MAX + 2^63 mod 2^64) rather than
        // panicking in the atomic add.
        assert_eq!(
            s.sum,
            u64::MAX.wrapping_add(u64::MAX).wrapping_add(1u64 << 63)
        );
    }

    #[test]
    fn merge_of_disjoint_bucket_histograms_keeps_both_tails() {
        // a populates only low buckets, b only the top bucket; the
        // merged distribution must report quantiles spanning both.
        let a = Histogram::active();
        let b = Histogram::active();
        for _ in 0..9 {
            a.record(1);
        }
        b.record(u64::MAX);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count, 10);
        assert_eq!(m.min, 1);
        assert_eq!(m.max, u64::MAX);
        assert_eq!(m.buckets[1], 9);
        assert_eq!(m.buckets[64], 1);
        // p50 sits in the low tail, p99 in the top bucket.
        assert_eq!(m.quantile(0.5), 1);
        assert_eq!(m.quantile(0.99), u64::MAX);
        // Merging in the other order gives the identical snapshot.
        let mut m2 = b.snapshot();
        m2.merge(&a.snapshot());
        assert_eq!(m, m2);
    }

    #[test]
    fn spans_nest_and_accumulate() {
        let outer = Histogram::active();
        let inner = Histogram::active();
        {
            let _o = outer.span();
            for _ in 0..3 {
                let _i = inner.span();
                std::hint::black_box(0u64);
            }
        }
        let so = outer.snapshot();
        let si = inner.snapshot();
        assert_eq!(so.count, 1);
        assert_eq!(si.count, 3);
        // The outer span's time covers all inner spans.
        assert!(so.sum >= si.sum, "outer {} < inner {}", so.sum, si.sum);
    }

    #[test]
    fn noop_histogram_and_span_record_nothing() {
        let h = Histogram::noop();
        h.record(7);
        {
            let _s = h.span();
        }
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert!(!h.is_active());
    }
}
