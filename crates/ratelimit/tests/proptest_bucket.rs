//! Property-based tests: token-bucket conformance and the throughput
//! meter against an exact sliding window.

use std::collections::VecDeque;

use ioverlay_ratelimit::{
    BucketChain, BucketSet, Nanos, Rate, ThroughputMeter, TokenBucket, NANOS_PER_SEC,
};
use proptest::prelude::*;

/// The exact sliding window the slotted [`ThroughputMeter`] replaced,
/// kept as its oracle: one entry per sample, evicted once older than
/// the window.
struct DequeMeter {
    window: Nanos,
    samples: VecDeque<(Nanos, u64)>,
    window_bytes: u64,
}

impl DequeMeter {
    fn new(window: Nanos) -> Self {
        Self {
            window,
            samples: VecDeque::new(),
            window_bytes: 0,
        }
    }

    fn record(&mut self, bytes: u64, now: Nanos) {
        self.evict(now);
        self.samples.push_back((now, bytes));
        self.window_bytes += bytes;
    }

    fn evict(&mut self, now: Nanos) {
        let horizon = now.saturating_sub(self.window);
        while let Some(&(t, bytes)) = self.samples.front() {
            if t >= horizon {
                break;
            }
            self.samples.pop_front();
            self.window_bytes -= bytes;
        }
    }

    fn rate_bytes_per_sec(&mut self, now: Nanos) -> f64 {
        self.evict(now);
        self.window_bytes as f64 * NANOS_PER_SEC as f64 / self.window as f64
    }
}

proptest! {
    /// A bucket with no burst never lets cumulative conforming traffic
    /// exceed rate × elapsed-time: for each reservation, the time at
    /// which it becomes conformant (reserve time + returned delay) is at
    /// least bytes-so-far / rate.
    #[test]
    fn bucket_never_exceeds_configured_rate(
        rate_bps in 1_000u64..1_000_000,
        sizes in proptest::collection::vec(1u64..10_000, 1..50),
        gaps in proptest::collection::vec(0u64..50_000_000, 1..50),
    ) {
        let rate = Rate::bytes_per_sec(rate_bps);
        let mut bucket = TokenBucket::with_burst(rate, 0, 0);
        let mut now = 0u64;
        let mut sent = 0u64;
        for (i, &bytes) in sizes.iter().enumerate() {
            now += gaps[i % gaps.len()];
            let delay = bucket.reserve(bytes, now);
            sent += bytes;
            let conformant_at = now + delay;
            // The earliest time `sent` bytes can conform to `rate`.
            let min_time = sent as f64 / rate_bps as f64 * NANOS_PER_SEC as f64;
            prop_assert!(
                conformant_at as f64 + 1_000.0 >= min_time,
                "sent {sent} bytes conformant at {conformant_at}ns < minimum {min_time}ns"
            );
        }
    }

    /// With a burst allowance of one maximum-size message, senders paced
    /// at exactly the serialization rate are never delayed.
    #[test]
    fn paced_senders_are_never_delayed(
        rate_bps in 1_000u64..100_000,
        sizes in proptest::collection::vec(1u64..5_000, 1..30),
    ) {
        let rate = Rate::bytes_per_sec(rate_bps);
        let burst = *sizes.iter().max().expect("non-empty");
        let mut bucket = TokenBucket::with_burst(rate, burst, 0);
        let mut now = 0u64;
        for &bytes in &sizes {
            // Wait exactly the serialization time of this message first.
            now += rate.transmission_delay(bytes);
            let delay = bucket.reserve(bytes, now);
            prop_assert!(delay <= 1_000, "paced send delayed by {delay}ns");
        }
    }

    /// An unlocked bucket set returns, reservation for reservation, the
    /// delays of locked chains over the same buckets — also when chains
    /// share buckets, overlap only partly, and a bucket is retuned in
    /// between.
    #[test]
    fn bucket_set_delays_equal_bucket_chain_delays(
        rates in proptest::collection::vec((1_000u64..2_000_000, 0u64..20_000), 1..6),
        picks in proptest::collection::vec(0usize..64, 1..5),
        ops in proptest::collection::vec((0usize..8, 1u64..20_000, 0u64..30_000_000, 0u8..10), 1..120),
    ) {
        let buckets: Vec<TokenBucket> = rates
            .iter()
            .map(|&(rate, burst)| TokenBucket::with_burst(Rate::bytes_per_sec(rate), burst, 0))
            .collect();
        let shared: Vec<_> = buckets.iter().cloned().map(BucketChain::shared).collect();
        let mut set = BucketSet::new();
        let ids: Vec<_> = buckets.into_iter().map(|b| set.insert(b)).collect();
        // Each pick is a bit mask over the buckets: one chain per pick.
        let members = |mask: usize| (0..ids.len()).filter(move |i| mask >> i & 1 == 1);
        let chains: Vec<BucketChain> = picks
            .iter()
            .map(|&mask| {
                let mut chain = BucketChain::new();
                for i in members(mask) {
                    chain.push(shared[i].clone());
                }
                chain
            })
            .collect();
        let id_chains: Vec<Vec<_>> = picks
            .iter()
            .map(|&mask| members(mask).map(|i| ids[i]).collect())
            .collect();
        let mut now = 0u64;
        for (which, bytes, gap, retune) in ops {
            now += gap;
            if retune == 0 {
                let i = which % ids.len();
                let rate = Rate::bytes_per_sec(bytes * 50);
                shared[i].lock().set_rate(rate, now);
                set.get_mut(ids[i]).set_rate(rate, now);
            }
            let c = which % chains.len();
            prop_assert_eq!(
                set.reserve(&id_chains[c], bytes, now),
                chains[c].reserve(bytes, now),
                "chain {} at {}", c, now
            );
        }
    }

    /// On uniform traffic the meter reads the true rate to within one
    /// message either way.
    #[test]
    fn meter_agrees_with_uniform_traffic(
        bytes_per_msg in 100u64..10_000,
        interval_ms in 1u64..100,
    ) {
        let interval = interval_ms * 1_000_000;
        let mut meter = ThroughputMeter::new(NANOS_PER_SEC);
        let n = (2 * NANOS_PER_SEC / interval).max(4);
        for i in 0..n {
            meter.record(bytes_per_msg, i * interval);
        }
        let now = (n - 1) * interval;
        let measured = meter.rate_bytes_per_sec(now);
        let truth = bytes_per_msg as f64 * NANOS_PER_SEC as f64 / interval as f64;
        prop_assert!((measured - truth).abs() <= bytes_per_msg as f64,
            "measured {measured} vs truth {truth}");
    }

    /// The slotted meter against the exact deque on the same stream —
    /// bursts at one instant, gaps longer than the window, windows of a
    /// few nanoseconds and windows 16 does not divide. Readings agree
    /// bit for bit until the first window has elapsed, and afterwards
    /// differ by no more than the bytes of the one slot the horizon
    /// cuts; totals and idle time never depend on the slots.
    #[test]
    fn slotted_meter_tracks_the_exact_window(
        window in prop_oneof![1u64..100, 1_000u64..5_000_000_000],
        // (gap in thousandths of the window, extra ns, bytes, 0 = read only)
        ops in proptest::collection::vec(
            (
                prop_oneof![0u64..3, 0u64..60, 0u64..400, 1_000u64..3_500],
                0u64..3,
                0u64..100_000,
                0u8..4,
            ),
            1..200,
        ),
    ) {
        let width = window.div_ceil(16);
        let mut meter = ThroughputMeter::new(window);
        let mut exact = DequeMeter::new(window);
        let mut recorded: Vec<(Nanos, u64)> = Vec::new();
        let mut now: Nanos = 0;
        for (gap, extra, bytes, kind) in ops {
            now += (u128::from(window) * u128::from(gap) / 1_000) as u64 + extra;
            if kind != 0 {
                meter.record(bytes, now);
                exact.record(bytes, now);
                recorded.push((now, bytes));
            }
            let got = meter.rate_bytes_per_sec(now);
            let want = exact.rate_bytes_per_sec(now);
            if now <= window {
                prop_assert_eq!(got.to_bits(), want.to_bits(), "at {} of {}", now, window);
            } else {
                let cut = (now - window) / width;
                let straddling: u64 = recorded
                    .iter()
                    .filter(|&&(t, _)| t / width == cut)
                    .map(|&(_, b)| b)
                    .sum();
                let bound = straddling as f64 * NANOS_PER_SEC as f64 / window as f64;
                prop_assert!(
                    (got - want).abs() <= bound + want * 1e-12,
                    "at {} of {}: slotted {} vs exact {}, straddling slot {} B",
                    now, window, got, want, straddling
                );
            }
        }
        prop_assert_eq!(meter.total_bytes(), recorded.iter().map(|&(_, b)| b).sum::<u64>());
        prop_assert_eq!(meter.total_msgs(), recorded.len() as u64);
        let last = recorded.last().map(|&(t, _)| now - t);
        prop_assert_eq!(meter.idle_for(now), last);
    }
}
