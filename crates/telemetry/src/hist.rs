//! Log-bucketed (HDR-style) histograms.
//!
//! A [`LogHistogram`] covers the whole `u64` range with buckets whose width
//! grows geometrically: values below 2^SUB_BITS get exact unit buckets, and
//! every power-of-two octave above that is split into 2^SUB_BITS linear
//! sub-buckets. With `SUB_BITS = 5` the maximal relative error of any
//! reported quantile is 2^-5 ≈ 3.1%, which is plenty for latency tails,
//! while `record` stays a handful of bit operations with **no allocation**
//! after construction — cheap enough for per-slide hot paths.
//!
//! The scheme is the same one HdrHistogram and Prometheus native histograms
//! use; we keep it dependency-free. Recorded values are plain `u64`s; by
//! convention the engine records **nanoseconds** (see the crate docs), and
//! the Prometheus exporter divides by 1e9 when a metric is named `*_seconds`.

/// Linear sub-bucket bits per octave (2^5 = 32 sub-buckets, ≈3.1% error).
const SUB_BITS: u32 = 5;
const SUB_COUNT: usize = 1 << SUB_BITS;
const SUB_MASK: u64 = (SUB_COUNT - 1) as u64;
/// Bucket count covering all of `u64`: one unit range plus
/// `64 - SUB_BITS` octaves of `SUB_COUNT` sub-buckets each.
const BUCKETS: usize = (64 - SUB_BITS as usize) * SUB_COUNT + SUB_COUNT;

/// Index of the bucket holding `v`.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_COUNT as u64 {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - SUB_BITS;
        let sub = ((v >> shift) & SUB_MASK) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) + sub
    }
}

/// Largest value mapped to bucket `i` (the bucket's inclusive upper bound).
#[inline]
fn bucket_upper(i: usize) -> u64 {
    let octave = (i >> SUB_BITS) as u32;
    if octave == 0 {
        return i as u64;
    }
    let shift = octave - 1;
    let sub = (i as u64) & SUB_MASK;
    // Lower bound of the *next* bucket, minus one. The very top bucket's
    // "next lower bound" is 2^64, so go through u128 and clamp.
    let upper = ((SUB_COUNT as u128 + sub as u128 + 1) << shift) - 1;
    upper.min(u64::MAX as u128) as u64
}

/// A fixed-size log-bucketed histogram of `u64` samples.
///
/// ~15 KiB of counts; construction is the only allocation. Supports
/// recording, merging, and quantile queries; quantiles are reported as the
/// upper bound of the bucket containing the requested rank (conservative,
/// within the 3.1% bucket error of the true value).
#[derive(Clone)]
pub struct LogHistogram {
    counts: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("sum", &self.sum)
            .field("min", &self.min)
            .field("max", &self.max)
            .finish()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram {
            counts: vec![0u64; BUCKETS].into_boxed_slice().try_into().unwrap(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Arithmetic mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The value at quantile `q` in `[0, 1]`: an upper bound on the sample
    /// at rank `ceil(q · count)`, within one bucket width. Returns 0 when
    /// the histogram is empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // The true max is exact; don't over-report the top bucket.
                return bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (p50).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Calls `f(upper_bound, cumulative_count)` for every *non-empty*
    /// bucket in ascending order — the shape Prometheus' cumulative
    /// `_bucket{le=...}` series needs. The final call always carries the
    /// total count (the `+Inf` bucket is the caller's to add).
    pub fn for_each_cumulative(&self, mut f: impl FnMut(u64, u64)) {
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            f(bucket_upper(i), cum);
        }
    }

    /// A compact copy of the summary statistics.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count(),
            sum: self.sum(),
            min: self.min(),
            max: self.max(),
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// Summary statistics of a [`LogHistogram`] at one point in time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Recorded samples.
    pub count: u64,
    /// Sum of samples.
    pub sum: u64,
    /// Smallest sample.
    pub min: u64,
    /// Largest sample.
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        // Every value maps to a bucket whose bounds contain it, and bucket
        // indices never decrease with the value.
        let mut vals: Vec<u64> = Vec::new();
        for shift in 0..63 {
            for off in [0u64, 1, 3] {
                vals.push((1u64 << shift).saturating_add(off));
            }
        }
        vals.push(u64::MAX);
        vals.sort_unstable();
        let mut prev_idx = 0usize;
        for &v in &vals {
            let i = bucket_index(v);
            assert!(i < BUCKETS);
            assert!(i >= prev_idx, "index regressed at {v}");
            assert!(bucket_upper(i) >= v, "upper bound below value {v}");
            if i > 0 {
                assert!(bucket_upper(i - 1) < v, "value {v} fits prior bucket");
            }
            prev_idx = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LogHistogram::new();
        for v in 0..32u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 32);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
        assert_eq!(h.quantile(0.5), 15);
        assert_eq!(h.quantile(1.0), 31);
    }

    #[test]
    fn quantiles_within_bucket_error() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 1_000); // 1ms .. 10s in us
        }
        let p50 = h.p50() as f64;
        let p99 = h.p99() as f64;
        assert!((p50 - 5_000_000.0).abs() / 5_000_000.0 < 0.04, "p50 {p50}");
        assert!((p99 - 9_900_000.0).abs() / 9_900_000.0 < 0.04, "p99 {p99}");
        assert_eq!(h.max(), 10_000_000);
        assert_eq!(h.quantile(1.0), 10_000_000, "top quantile is the exact max");
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn empty_histogram_reports_zeroes() {
        let h = LogHistogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.snapshot(), HistSnapshot::default());
        let mut calls = 0;
        h.for_each_cumulative(|_, _| calls += 1);
        assert_eq!(calls, 0);
    }

    #[test]
    fn cumulative_iteration_ends_at_total_count() {
        let mut h = LogHistogram::new();
        for v in [3u64, 3, 100, 5_000, 1 << 40] {
            h.record(v);
        }
        let mut last_cum = 0;
        let mut last_le = 0;
        h.for_each_cumulative(|le, cum| {
            assert!(le > last_le || last_cum == 0);
            assert!(cum > last_cum);
            last_le = le;
            last_cum = cum;
        });
        assert_eq!(last_cum, h.count());
        assert!(last_le >= 1 << 40);
    }

    #[test]
    fn snapshot_mirrors_accessors() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, h.count());
        assert_eq!(s.sum, h.sum());
        assert_eq!(s.p50, h.p50());
        assert_eq!(s.p90, h.p90());
        assert_eq!(s.p99, h.p99());
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 1000);
    }
}
