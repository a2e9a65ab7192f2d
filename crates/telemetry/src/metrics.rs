//! Lock-free metric primitives: counters, gauges, and fixed-bucket
//! histograms.
//!
//! Every primitive is a thin wrapper over `AtomicU64` accessed with
//! `Ordering::Relaxed`. Telemetry only needs each sample to land
//! eventually and exactly once; it never synchronizes other memory, so
//! relaxed ordering keeps a recording site down to one uncontended
//! atomic RMW (~1 ns) and never stalls the batched switch fast path.

use crate::sync::atomic::{AtomicU64, Ordering};

use crate::snapshot::HistogramSnapshot;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    #[cfg(not(feature = "loom"))]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Creates a counter at zero (non-const: loom atomics register with
    /// the active model at construction time).
    #[cfg(feature = "loom")]
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current count.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-writer-wins instantaneous value (queue depths, link counts).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Creates a gauge at zero.
    #[cfg(not(feature = "loom"))]
    pub const fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Creates a gauge at zero (non-const: loom atomics register with
    /// the active model at construction time).
    #[cfg(feature = "loom")]
    pub fn new() -> Self {
        Self(AtomicU64::new(0))
    }

    /// Overwrites the gauge with `v`.
    #[inline]
    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Returns the current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Upper bounds (inclusive) for switch-round / token-bucket latency
/// histograms, in nanoseconds: 1 µs … 1 s.
pub const LATENCY_BOUNDS_NANOS: &[u64] = &[
    1_000,
    10_000,
    50_000,
    100_000,
    500_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// Upper bounds (inclusive) for batch-size and queue-occupancy
/// histograms, in messages.
pub const BATCH_BOUNDS_MSGS: &[u64] = &[1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096];

/// Upper bounds (inclusive) for send/recv syscall-size histograms, in
/// bytes: 64 B … 1 MiB.
pub const SYSCALL_BOUNDS_BYTES: &[u64] =
    &[64, 256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576];

/// Most buckets a [`Histogram`] keeps: twelve bounds plus the overflow
/// bucket. The largest bound table, [`BATCH_BOUNDS_MSGS`], fills it.
const MAX_BUCKETS: usize = 13;

const _: () = assert!(
    LATENCY_BOUNDS_NANOS.len() < MAX_BUCKETS
        && BATCH_BOUNDS_MSGS.len() < MAX_BUCKETS
        && SYSCALL_BOUNDS_BYTES.len() < MAX_BUCKETS,
    "every bound table fits a histogram's inline buckets"
);

/// A fixed-bucket histogram with static bounds.
///
/// `buckets[i]` counts samples `<= bounds[i]`; bucket `bounds.len()`
/// counts everything larger, and the buckets past it stay unused. The
/// buckets are an inline array, so a record chases no pointer. Recording
/// is a short linear scan (bounds are ≤ 12 entries) plus three relaxed
/// adds — no allocation, no locking, and safely shareable across the
/// engine, sender, and receiver threads.
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: [AtomicU64; MAX_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Creates a histogram over `bounds`, which must be non-empty, hold at
    /// most twelve entries and be strictly increasing.
    pub fn new(bounds: &'static [u64]) -> Self {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.len() < MAX_BUCKETS,
            "histogram takes at most {} bounds",
            MAX_BUCKETS - 1
        );
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Self {
            bounds,
            // Not `[const { AtomicU64::new(0) }; N]`: loom's atomics are not
            // const-constructible.
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total number of recorded samples.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded samples.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copies the current state into an owned, serializable snapshot.
    pub fn snapshot(&self, name: &str) -> HistogramSnapshot {
        HistogramSnapshot {
            name: name.to_string(),
            bounds: self.bounds.to_vec(),
            counts: self.buckets[..=self.bounds.len()]
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum: self.sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_values() {
        let h = Histogram::new(&[10, 100, 1000]);
        for v in [5, 10, 11, 100, 5000] {
            h.record(v);
        }
        let s = h.snapshot("t");
        assert_eq!(s.counts, vec![2, 2, 0, 1]);
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 5 + 10 + 11 + 100 + 5000);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn histogram_rejects_unsorted_bounds() {
        let _ = Histogram::new(&[10, 10]);
    }

    #[test]
    #[should_panic(expected = "at most 12 bounds")]
    fn histogram_rejects_more_bounds_than_inline_buckets() {
        let _ = Histogram::new(&[1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13]);
    }

    /// The histogram the inline one replaced: one heap-allocated bucket
    /// per bound plus the overflow bucket.
    struct VecHistogram {
        bounds: &'static [u64],
        buckets: Vec<u64>,
        count: u64,
        sum: u64,
    }

    impl VecHistogram {
        fn new(bounds: &'static [u64]) -> Self {
            Self {
                bounds,
                buckets: vec![0; bounds.len() + 1],
                count: 0,
                sum: 0,
            }
        }

        fn record(&mut self, value: u64) {
            let idx = self
                .bounds
                .iter()
                .position(|&b| value <= b)
                .unwrap_or(self.bounds.len());
            self.buckets[idx] += 1;
            self.count += 1;
            self.sum = self.sum.wrapping_add(value);
        }

        fn snapshot(&self, name: &str) -> HistogramSnapshot {
            HistogramSnapshot {
                name: name.to_string(),
                bounds: self.bounds.to_vec(),
                counts: self.buckets.clone(),
                count: self.count,
                sum: self.sum,
            }
        }
    }

    proptest! {
        /// Every bound table snapshots exactly as the `Vec`-bucket
        /// histogram did: `bounds.len() + 1` counts, same count and sum.
        #[test]
        fn inline_buckets_snapshot_like_vec_buckets(
            values in proptest::collection::vec(
                prop_oneof![0u64..5_000, 0u64..2_000_000_000, any::<u64>()],
                0..300,
            ),
        ) {
            for bounds in [LATENCY_BOUNDS_NANOS, BATCH_BOUNDS_MSGS, SYSCALL_BOUNDS_BYTES] {
                let inline = Histogram::new(bounds);
                let mut reference = VecHistogram::new(bounds);
                for &v in &values {
                    inline.record(v);
                    reference.record(v);
                }
                prop_assert_eq!(inline.snapshot("h"), reference.snapshot("h"));
            }
        }
    }
}
