//! Log-bucketed latency histogram: constant-size, allocation-free on the
//! record path, mergeable across threads — the standard tool for
//! reporting tail latencies next to throughput.

/// Histogram over `u64` nanosecond samples with 2-sub-bucket log₂
/// resolution (relative error ≤ 50% per bucket, which is plenty for
/// p50/p95/p99 reporting of operations spanning nanoseconds to seconds).
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    /// counts[b] covers [2^(b/2-ish)…): see `bucket_of`.
    counts: Vec<u64>,
    total: u64,
    sum: u128,
    max: u64,
}

const BUCKETS: usize = 128; // 64 powers of two × 2 sub-buckets

fn bucket_of(v: u64) -> usize {
    if v < 2 {
        return v as usize;
    }
    let log = 63 - v.leading_zeros() as usize;
    // Sub-bucket: is v in the upper half of [2^log, 2^(log+1))?
    let upper = ((v >> (log - 1)) & 1) as usize;
    (2 * log + upper).min(BUCKETS - 1)
}

fn bucket_floor(b: usize) -> u64 {
    if b < 2 {
        return b as u64;
    }
    let log = b / 2;
    let upper = b % 2;
    (1u64 << log) + ((upper as u64) << (log - 1))
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Self { counts: vec![0; BUCKETS], total: 0, sum: 0, max: 0 }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.sum += u128::from(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Arithmetic mean (exact, not bucketed). 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Largest recorded sample (exact).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Value at quantile `q` in `[0, 1]` (bucket lower bound; 0 when
    /// empty).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(b);
            }
        }
        self.max
    }

    /// Median shorthand.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile shorthand.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile shorthand.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile shorthand.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Fold another histogram into this one (per-thread merge).
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LatencyHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn bucket_mapping_is_monotone_and_floors_bound() {
        let mut last = 0;
        for v in [0u64, 1, 2, 3, 4, 6, 8, 100, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(v);
            assert!(b >= last, "bucket index must not decrease (v={v})");
            last = b;
            assert!(bucket_floor(b) <= v, "floor({b}) = {} > {v}", bucket_floor(b));
        }
    }

    #[test]
    fn exact_stats_and_bucketed_quantiles() {
        let mut h = LatencyHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert_eq!(h.max(), 1000);
        // Bucketed quantiles: within one log2 sub-bucket of the truth.
        let p50 = h.p50();
        assert!((256..=512).contains(&p50), "p50 = {p50}");
        let p99 = h.p99();
        assert!((512..=1000).contains(&p99), "p99 = {p99}");
        assert!(h.p50() <= h.p95() && h.p95() <= h.p99());
    }

    #[test]
    fn quantile_bounds_are_clamped() {
        let mut h = LatencyHistogram::new();
        h.record(42);
        assert_eq!(h.quantile(-1.0), h.quantile(0.0));
        assert!(h.quantile(2.0) <= h.max());
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut both = LatencyHistogram::new();
        for v in [3u64, 17, 900, 12_345] {
            a.record(v);
            both.record(v);
        }
        for v in [1u64, 64, 2_000_000] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        assert_eq!(a.p50(), both.p50());
        assert_eq!(a.p99(), both.p99());
        assert!((a.mean() - both.mean()).abs() < 1e-9);
    }

    #[test]
    fn per_thread_merge_equals_single_threaded_recording() {
        // Per-thread accounting in miniature: each "thread"
        // records its own histogram, the main thread folds them together;
        // every reported statistic must equal a single-threaded recording
        // of the union of samples.
        let samples: Vec<u64> =
            (0..4000u64).map(|i| (i.wrapping_mul(2654435761) % 1_000_000) + 1).collect();
        let mut reference = LatencyHistogram::new();
        for &v in &samples {
            reference.record(v);
        }
        let mut merged = LatencyHistogram::new();
        for chunk in samples.chunks(1000) {
            // One per-thread histogram per chunk.
            let mut h = LatencyHistogram::new();
            for &v in chunk {
                h.record(v);
            }
            merged.merge(&h);
        }
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.max(), reference.max());
        assert!((merged.mean() - reference.mean()).abs() < 1e-9);
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(merged.quantile(q), reference.quantile(q), "quantile {q}");
        }
    }

    #[test]
    fn p999_sits_in_the_tail() {
        let mut h = LatencyHistogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        assert!(h.p99() <= h.p999());
        assert!(h.p999() <= h.max());
        assert!(h.p999() >= 8192, "p999 = {} must land in the last buckets", h.p999());
    }

    #[test]
    fn extreme_values_do_not_overflow() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.max(), u64::MAX);
        // The point is that the quantile math itself must not overflow
        // on extreme samples; monotonicity is the observable contract.
        assert!(h.p50() <= h.p99());
    }
}
