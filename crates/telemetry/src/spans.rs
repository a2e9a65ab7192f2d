//! Bounded per-node span ring for distributed message tracing.
//!
//! Sampled messages carry a [`ioverlay_message::TraceContext`]; each hop
//! that touches one records *spans* — `(stage, start, end)` windows for
//! the pipeline stages the engine already crosses (receive/decode,
//! switch round, serialize, token-bucket wait, socket write). Spans are
//! pushed into a bounded drop-oldest ring that mirrors the
//! [`crate::EventRing`] design byte for byte: a mutexed deque plus a
//! `Release`-incremented eviction counter, with a `consistent_view`
//! that reads the pair under one lock acquisition. The loom model
//! `span_ring_conserves_pushes` in `tests/loom.rs` checks conservation
//! (every push is retained or counted dropped) under concurrent
//! writers; the memory-ordering argument is the event ring's, see the
//! module comment in `events.rs`.
//!
//! Records carry a per-node monotonic push index (`idx`), assigned
//! under the ring lock so deque order equals index order. Exporters use
//! it as a high-watermark: the StatusReport piggyback sends only spans
//! above the last reported index, and the observer dedups replays by
//! `(node, idx)`.

use std::collections::VecDeque;

use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{self, Mutex};
use ioverlay_message::NodeId;
use serde::{Deserialize, Serialize};

/// Default number of spans a [`SpanRing`] retains.
pub const DEFAULT_SPAN_CAPACITY: usize = 4096;

/// The pipeline stage a span measures. Every backend (blocking
/// thread-per-link, sharded reactor, deterministic simulator) emits the
/// same stages in the same order for the same message flow, so trace
/// trees are backend-independent modulo timestamps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum SpanStage {
    /// The message was minted at its originating node (zero-width).
    Origin,
    /// Socket read + stream decode at a receiving hop.
    Recv,
    /// Token-bucket pacing delay (emitted only when the bucket actually
    /// imposed a wait, so unlimited-bandwidth runs match everywhere).
    BucketWait,
    /// The switch round that dispatched the message to the algorithm.
    Switch,
    /// Batch encode into the outgoing wire buffer.
    Serialize,
    /// The socket write that carried the message out.
    Write,
}

impl SpanStage {
    /// Stable lower-case stage name (JSON/Chrome trace export).
    pub fn name(&self) -> &'static str {
        match self {
            SpanStage::Origin => "origin",
            SpanStage::Recv => "recv",
            SpanStage::BucketWait => "bucket_wait",
            SpanStage::Switch => "switch",
            SpanStage::Serialize => "serialize",
            SpanStage::Write => "write",
        }
    }
}

/// One recorded span: a stage window of a sampled message at one hop.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Per-node monotonic push index (assigned by [`SpanRing::push`]).
    pub idx: u64,
    /// The end-to-end trace this span belongs to.
    pub trace_id: u64,
    /// Span id of the previous hop (0 for the originating hop).
    pub parent_span: u64,
    /// This hop's span id, shared by all stages of the message here.
    pub span_id: u64,
    /// The node that recorded the span.
    pub node: NodeId,
    /// The peer involved, when the stage has one (recv: upstream,
    /// serialize/write/bucket-wait: downstream).
    pub peer: Option<NodeId>,
    /// Which pipeline stage the window measures.
    pub stage: SpanStage,
    /// Window start, nanoseconds on the node's monotonic clock.
    pub start: u64,
    /// Window end, same clock; `end >= start`.
    pub end: u64,
}

/// A batch of spans exported off a node, with the clock anchor needed
/// to place them on a shared timeline: `wall_anchor + start` is unix
/// nanoseconds (0 under the virtual simulator clock, which is already
/// a shared timeline).
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct SpanBatch {
    /// Unix nanoseconds corresponding to monotonic instant 0.
    pub wall_anchor: u64,
    /// Spans evicted from the ring before they could be exported.
    pub dropped: u64,
    /// The spans, oldest first, in push (`idx`) order.
    pub spans: Vec<SpanEvent>,
}

/// Bounded drop-oldest ring of [`SpanEvent`]s (see module comment).
#[derive(Debug)]
pub struct SpanRing {
    capacity: usize,
    dropped: AtomicU64,
    next_idx: AtomicU64,
    records: Mutex<VecDeque<SpanEvent>>,
}

impl SpanRing {
    /// Creates a ring retaining at most `capacity` spans (min 1). Like
    /// [`crate::EventRing::new`], it reserves nothing and grows on
    /// demand up to `capacity`.
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            dropped: AtomicU64::new(0),
            next_idx: AtomicU64::new(0),
            records: Mutex::new(&sync::classes::TELEMETRY_SPANS, VecDeque::new()),
        }
    }

    /// Appends a span, assigning its push index and evicting the oldest
    /// record when full. Returns the assigned index.
    pub fn push(&self, mut span: SpanEvent) -> u64 {
        let mut records = self.records.lock();
        // Relaxed is enough: the increment happens inside the critical
        // section, so the lock serializes it and deque order always
        // equals idx order.
        let idx = self.next_idx.fetch_add(1, Ordering::Relaxed);
        span.idx = idx;
        if records.len() == self.capacity {
            records.pop_front();
            // Release: pairs with the Acquire in `dropped()`, same
            // argument as the event ring.
            self.dropped.fetch_add(1, Ordering::Release);
        }
        records.push_back(span);
        idx
    }

    /// Number of spans evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Acquire)
    }

    /// Maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.records.lock().len()
    }

    /// True when no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copies out the retained spans, oldest first.
    pub fn to_vec(&self) -> Vec<SpanEvent> {
        self.records.lock().iter().cloned().collect()
    }

    /// Copies out the retained spans together with the eviction count
    /// observed under the *same* lock acquisition, so the pair is
    /// mutually consistent (cf. [`crate::EventRing::consistent_view`]).
    pub fn consistent_view(&self) -> (Vec<SpanEvent>, u64) {
        let records = self.records.lock();
        let dropped = self.dropped.load(Ordering::Acquire);
        (records.iter().cloned().collect(), dropped)
    }
}

/// Derives a deterministic trace id from a message's immutable identity
/// (origin, app, seq), so every backend samples the *same* messages for
/// the same scenario and replays agree on trace ids.
pub fn derive_trace_id(origin: NodeId, app: u32, seq: u32) -> u64 {
    let origin_key = (u64::from(u32::from(origin.ip())) << 16) | u64::from(origin.port());
    let x = origin_key
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ (u64::from(app) << 32 | u64::from(seq));
    splitmix64(x).max(1) // 0 is reserved for "no trace"
}

/// Derives a span id unique (with overwhelming probability) across the
/// cluster from the minting node and its local span counter.
pub fn derive_span_id(node: NodeId, counter: u64) -> u64 {
    let node_key = (u64::from(u32::from(node.ip())) << 16) | u64::from(node.port());
    splitmix64(node_key.rotate_left(24) ^ counter.wrapping_mul(0xBF58_476D_1CE4_E5B9)).max(1)
}

/// SplitMix64 finalizer: a cheap bijective mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, stage: SpanStage, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            idx: 0,
            trace_id: trace,
            parent_span: 0,
            span_id: 1,
            node: NodeId::loopback(9000),
            peer: None,
            stage,
            start,
            end,
        }
    }

    #[test]
    fn ring_assigns_monotonic_indices_and_drops_oldest() {
        let ring = SpanRing::new(2);
        for i in 0..5u64 {
            let idx = ring.push(span(7, SpanStage::Recv, i, i + 1));
            assert_eq!(idx, i);
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        let spans = ring.to_vec();
        assert_eq!(spans[0].idx, 3);
        assert_eq!(spans[1].idx, 4);
    }

    #[test]
    fn capacity_is_a_bound_not_a_reservation() {
        let ring = SpanRing::new(3);
        assert_eq!(ring.capacity(), 3, "known before anything is pushed");
        assert!(ring.is_empty());
        for i in 0..10u64 {
            ring.push(span(1, SpanStage::Write, i, i));
            assert!(ring.len() <= 3);
        }
        assert_eq!(ring.capacity(), 3);
        let kept: Vec<u64> = ring.to_vec().iter().map(|s| s.idx).collect();
        assert_eq!(kept, vec![7, 8, 9], "the oldest go first");
        assert_eq!(ring.dropped(), 7);
        assert_eq!(SpanRing::new(0).capacity(), 1, "a ring holds at least one");
    }

    #[test]
    fn consistent_view_pairs_records_and_dropped() {
        let ring = SpanRing::new(3);
        for i in 0..4u64 {
            ring.push(span(1, SpanStage::Switch, i, i));
        }
        let (spans, dropped) = ring.consistent_view();
        assert_eq!(spans.len(), 3);
        assert_eq!(dropped, 1);
        assert_eq!(spans.last().unwrap().idx + 1, dropped + spans.len() as u64);
    }

    #[test]
    fn span_roundtrips_through_serde() {
        let s = SpanEvent {
            idx: 9,
            trace_id: 0xABCD,
            parent_span: 3,
            span_id: 4,
            node: NodeId::loopback(7001),
            peer: Some(NodeId::loopback(7002)),
            stage: SpanStage::BucketWait,
            start: 100,
            end: 250,
        };
        let value = serde_json::to_value(&s);
        let back: SpanEvent = serde_json::from_value(&value).expect("deserialize");
        assert_eq!(back, s);
    }

    #[test]
    fn batch_roundtrips_through_serde() {
        let batch = SpanBatch {
            wall_anchor: 1_700_000_000_000_000_000,
            dropped: 2,
            spans: vec![span(5, SpanStage::Origin, 1, 1)],
        };
        let value = serde_json::to_value(&batch);
        let back: SpanBatch = serde_json::from_value(&value).expect("deserialize");
        assert_eq!(back, batch);
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = NodeId::loopback(9000);
        assert_eq!(derive_trace_id(a, 1, 2), derive_trace_id(a, 1, 2));
        assert_ne!(derive_trace_id(a, 1, 2), derive_trace_id(a, 1, 3));
        assert_ne!(derive_trace_id(a, 1, 2), derive_trace_id(a, 2, 2));
        assert_ne!(derive_span_id(a, 0), derive_span_id(a, 1));
        assert_ne!(derive_span_id(a, 0), derive_span_id(NodeId::loopback(9001), 0));
    }

    #[test]
    fn stage_names_are_stable() {
        assert_eq!(SpanStage::Recv.name(), "recv");
        assert_eq!(SpanStage::BucketWait.name(), "bucket_wait");
    }
}
