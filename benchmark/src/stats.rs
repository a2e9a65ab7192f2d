//! Pure numeric helpers: latency histogram with percentiles, window
//! selection, telemetry-histogram deltas.

use ioverlay::api::HistogramSnapshot;

/// Sub-buckets per power of two: bucket width is 1/64 of its lower
/// edge, so a percentile read from the histogram is within 1.6 % of the
/// sample it stands for — well inside every bound in `BENCHMARK.json`.
const SUB_BITS: u32 = 6;
const SUB: u64 = 1 << SUB_BITS;
/// Values at or above 2^36 ns (69 s) land in the last bucket; no run
/// lasts that long.
const MAX_EXP: u32 = 36;
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) as usize) * SUB as usize;

/// Fixed-size log-linear histogram of nanosecond samples.
///
/// Constant memory (16 KiB) whatever the sample count, so recording
/// every message's latency never shows up in `peak_rss_mb`.
#[derive(Clone)]
pub struct LatencyHist {
    counts: Vec<u64>,
    total: u64,
}

impl Default for LatencyHist {
    fn default() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            total: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    if ns < SUB {
        return ns as usize;
    }
    let exp = 63 - ns.leading_zeros();
    if exp >= MAX_EXP {
        return BUCKETS - 1;
    }
    let sub = (ns >> (exp - SUB_BITS)) & (SUB - 1);
    ((exp - SUB_BITS + 1) as u64 * SUB + sub) as usize
}

/// Lower edge and width of a bucket, in nanoseconds.
fn bucket_range(index: usize) -> (u64, u64) {
    let (row, sub) = (index as u64 / SUB, index as u64 % SUB);
    if row == 0 {
        return (sub, 1);
    }
    let shift = row - 1;
    ((SUB + sub) << shift, 1 << shift)
}

impl LatencyHist {
    pub fn record(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn merge(&mut self, other: &LatencyHist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Samples strictly beyond quantile `q`. A percentile is reported as
    /// supported only with at least ten (choosing-metrics, section 1).
    pub fn samples_beyond(&self, q: f64) -> u64 {
        self.total - self.rank(q)
    }

    pub fn supports(&self, q: f64) -> bool {
        self.samples_beyond(q) >= 10
    }

    fn rank(&self, q: f64) -> u64 {
        ((self.total as f64 * q).ceil() as u64).clamp(1, self.total.max(1))
    }

    /// The `q`-quantile in nanoseconds, interpolated inside its bucket;
    /// `None` when empty.
    pub fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = self.rank(q);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && seen + c >= rank {
                let (lo, width) = bucket_range(i);
                let inside = (rank - seen) as f64 / c as f64;
                return Some(lo as f64 + inside * width as f64);
            }
            seen += c;
        }
        None
    }
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One value per measurement window.
///
/// The reported value is the **best** window: interference on a shared
/// host only ever subtracts throughput or adds latency, so the best
/// window is the one least polluted by it (see README.md for the
/// measured spreads). Min, median and max are printed beside it.
#[derive(Debug, Clone, Default)]
pub struct Windows(pub Vec<f64>);

impl Windows {
    pub fn best(&self, better: Better) -> f64 {
        let pick = match better {
            Better::Higher => f64::max,
            Better::Lower => f64::min,
        };
        self.0.iter().copied().reduce(pick).unwrap_or(0.0)
    }

    pub fn min(&self) -> f64 {
        self.best(Better::Lower)
    }

    pub fn max(&self) -> f64 {
        self.best(Better::Higher)
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Median of a slice (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// What a telemetry histogram recorded between two snapshots.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistDelta {
    pub count: u64,
    pub sum: u64,
}

impl HistDelta {
    pub fn between(before: Option<&HistogramSnapshot>, after: Option<&HistogramSnapshot>) -> Self {
        let (c0, s0) = before.map_or((0, 0), |h| (h.count, h.sum));
        let (c1, s1) = after.map_or((0, 0), |h| (h.count, h.sum));
        Self {
            count: c1.saturating_sub(c0),
            sum: s1.saturating_sub(s0),
        }
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_their_values() {
        for ns in [0, 1, 63, 64, 65, 127, 128, 1_000, 123_456, 9_999_999_999] {
            let (lo, width) = bucket_range(bucket_of(ns));
            assert!(
                lo <= ns && ns < lo + width,
                "{ns} not in [{lo}, {lo}+{width})"
            );
            assert!(width as f64 <= (lo.max(1) as f64) / 64.0 + 1.0);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_the_samples() {
        let mut h = LatencyHist::default();
        for us in 1..=10_000u64 {
            h.record(us * 1_000);
        }
        let p50 = h.quantile_ns(0.50).unwrap();
        let p99 = h.quantile_ns(0.99).unwrap();
        assert!((p50 / 5_000_000.0 - 1.0).abs() < 0.02, "p50 {p50}");
        assert!((p99 / 9_900_000.0 - 1.0).abs() < 0.02, "p99 {p99}");
        assert!(LatencyHist::default().quantile_ns(0.5).is_none());
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut h = LatencyHist::default();
        for i in 0..999 {
            h.record(i);
        }
        assert_eq!(h.samples_beyond(0.99), 9);
        assert!(!h.supports(0.99), "999 samples leave 9 beyond p99");
        assert!(h.supports(0.50));
        h.record(999);
        assert!(h.supports(0.99), "1000 samples leave 10 beyond p99");
        assert!(!h.supports(0.999));
    }

    #[test]
    fn merge_adds_counts() {
        let (mut a, mut b) = (LatencyHist::default(), LatencyHist::default());
        a.record(10);
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert!(a.quantile_ns(1.0).unwrap() >= 1_000_000.0);
    }

    #[test]
    fn best_and_median_window() {
        let w = Windows(vec![5.0, 9.0, 7.0, 1.0, 3.0]);
        assert_eq!(w.best(Better::Higher), 9.0);
        assert_eq!(w.best(Better::Lower), 1.0);
        assert_eq!(w.median(), 5.0);
        assert_eq!((w.min(), w.max()), (1.0, 9.0));
        assert_eq!(median(&[4.0, 2.0]), 3.0);
        assert_eq!(Windows::default().best(Better::Higher), 0.0);
    }

    #[test]
    fn histogram_delta_and_mean() {
        let snap = |count, sum| HistogramSnapshot {
            name: "send_batch_msgs".into(),
            bounds: vec![1, 4],
            counts: vec![0, 0, 0],
            count,
            sum,
        };
        let d = HistDelta::between(Some(&snap(10, 100)), Some(&snap(30, 700)));
        assert_eq!(
            d,
            HistDelta {
                count: 20,
                sum: 600
            }
        );
        assert_eq!(d.mean(), 30.0);
        assert_eq!(HistDelta::between(None, Some(&snap(4, 8))).mean(), 2.0);
        assert_eq!(HistDelta::between(None, None).mean(), 0.0);
    }
}
