//! Property-based tests: token-bucket conformance.

use ioverlay_ratelimit::{
    BucketChain, BucketSet, Rate, ThroughputMeter, TokenBucket, NANOS_PER_SEC,
};
use proptest::prelude::*;

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

    /// The meter's windowed reading never exceeds the true rate by more
    /// than the one-sample quantization error.
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
        // Allow one message of quantization either way.
        let slack = bytes_per_msg as f64 + truth * 0.1;
        prop_assert!((measured - truth).abs() <= slack,
            "measured {measured} vs truth {truth}");
    }
}
