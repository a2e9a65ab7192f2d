//! Property test for the packed series ring: after every sample, its
//! `snapshot`, `windows_since` and `closed` agree with a plain
//! `VecDeque` of whole windows, the ring's earlier representation.
//! Clock steps and counter deltas include zero and near-`u64::MAX`
//! values, so wrapping deltas take the longest (ten-byte) varints.

#![cfg(not(feature = "loom"))]

use std::collections::VecDeque;

use ioverlay_telemetry::{SeriesRing, SeriesTotals, SeriesWindow};
use proptest::prelude::*;

/// Reference ring: whole windows in a drop-oldest deque.
struct Oracle {
    capacity: usize,
    windows: VecDeque<SeriesWindow>,
    next_idx: u64,
    last: SeriesTotals,
    window_open: u64,
}

impl Oracle {
    fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            next_idx: 0,
            last: SeriesTotals::default(),
            window_open: 0,
        }
    }

    fn sample(&mut self, now: u64, totals: SeriesTotals, recv_hwm: u64, send_hwm: u64) {
        let last = self.last;
        let window = SeriesWindow {
            idx: self.next_idx,
            start: self.window_open,
            end: now,
            msgs_switched: totals.msgs_switched.wrapping_sub(last.msgs_switched),
            msgs_sent: totals.msgs_sent.wrapping_sub(last.msgs_sent),
            bytes_sent: totals.bytes_sent.wrapping_sub(last.bytes_sent),
            msgs_received: totals.msgs_received.wrapping_sub(last.msgs_received),
            bytes_received: totals.bytes_received.wrapping_sub(last.bytes_received),
            sends_blocked: totals.sends_blocked.wrapping_sub(last.sends_blocked),
            recv_queue_hwm: recv_hwm,
            send_queue_hwm: send_hwm,
            bucket_wait_nanos: totals
                .bucket_wait_nanos
                .wrapping_sub(last.bucket_wait_nanos),
            coding_systematic_hits: totals
                .coding_systematic_hits
                .wrapping_sub(last.coding_systematic_hits),
            coding_repair_decodes: totals
                .coding_repair_decodes
                .wrapping_sub(last.coding_repair_decodes),
            partial_writes: totals.partial_writes.wrapping_sub(last.partial_writes),
            poison_recoveries: totals
                .poison_recoveries
                .wrapping_sub(last.poison_recoveries),
            event_drops: totals.event_drops.wrapping_sub(last.event_drops),
            span_drops: totals.span_drops.wrapping_sub(last.span_drops),
        };
        self.next_idx += 1;
        self.last = totals;
        self.window_open = now;
        if self.windows.len() == self.capacity {
            self.windows.pop_front();
        }
        self.windows.push_back(window);
    }

    fn snapshot(&self) -> Vec<SeriesWindow> {
        self.windows.iter().copied().collect()
    }

    fn windows_since(&self, watermark: u64) -> Vec<SeriesWindow> {
        self.windows
            .iter()
            .filter(|w| w.idx >= watermark)
            .copied()
            .collect()
    }
}

/// A clock step or counter increment: none, small, large, or one that
/// wraps the total (a delta near `u64::MAX`).
fn arb_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..1_000,
        1_000u64..1 << 40,
        (u64::MAX - 1_000)..=u64::MAX,
    ]
}

/// A high-water mark, up to `u64::MAX`.
fn arb_hwm() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 0u64..1_000, any::<u64>(), Just(u64::MAX)]
}

/// One sample: clock step, the thirteen counter increments, both
/// high-water marks, and a pick for a watermark inside the ring.
fn arb_sample() -> impl Strategy<Value = (u64, Vec<u64>, u64, u64, u64)> {
    (
        arb_delta(),
        proptest::collection::vec(arb_delta(), 13..14),
        arb_hwm(),
        arb_hwm(),
        any::<u64>(),
    )
}

fn arb_capacity() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=9, Just(128usize)]
}

fn advance(totals: &mut SeriesTotals, inc: &[u64]) {
    let fields = [
        &mut totals.msgs_switched,
        &mut totals.msgs_sent,
        &mut totals.bytes_sent,
        &mut totals.msgs_received,
        &mut totals.bytes_received,
        &mut totals.sends_blocked,
        &mut totals.bucket_wait_nanos,
        &mut totals.coding_systematic_hits,
        &mut totals.coding_repair_decodes,
        &mut totals.partial_writes,
        &mut totals.poison_recoveries,
        &mut totals.event_drops,
        &mut totals.span_drops,
    ];
    for (field, inc) in fields.into_iter().zip(inc) {
        *field = field.wrapping_add(*inc);
    }
}

#[cfg(not(miri))]
const CASES: u32 = 64;
#[cfg(miri)]
const CASES: u32 = 3;

/// Samples per case: enough to wrap a 128-window ring twice.
#[cfg(not(miri))]
const MAX_SAMPLES: usize = 300;
#[cfg(miri)]
const MAX_SAMPLES: usize = 24;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn packed_ring_matches_window_deque(
        capacity in arb_capacity(),
        samples in proptest::collection::vec(arb_sample(), 0..MAX_SAMPLES),
    ) {
        let ring = SeriesRing::new(capacity);
        let mut oracle = Oracle::new(capacity);
        let mut now = 0u64;
        let mut totals = SeriesTotals::default();
        for (step, inc, recv_hwm, send_hwm, pick) in samples {
            now = now.wrapping_add(step);
            advance(&mut totals, &inc);
            ring.sample(now, totals, recv_hwm, send_hwm);
            oracle.sample(now, totals, recv_hwm, send_hwm);

            prop_assert_eq!(ring.closed(), oracle.next_idx);
            prop_assert_eq!(ring.snapshot(), oracle.snapshot());
            let first = oracle.windows.front().map_or(0, |w| w.idx);
            let retained = oracle.windows.len() as u64;
            let closed = oracle.next_idx;
            for watermark in [
                0,
                first.saturating_sub(1),
                first,
                first + pick % retained.max(1),
                closed - 1,
                closed,
                closed + 1 + pick % 5,
                u64::MAX,
            ] {
                prop_assert_eq!(
                    ring.windows_since(watermark),
                    oracle.windows_since(watermark),
                    "windows_since({}) with {} retained of {}",
                    watermark,
                    retained,
                    closed
                );
            }
        }
    }
}
