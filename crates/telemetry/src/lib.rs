//! Node-local telemetry for the iOverlay reproduction: a lock-free
//! metrics registry plus a bounded structured event ring.
//!
//! The paper's engine "keeps track of the most detailed statistics
//! related to its network environment and performance"; this crate is
//! that statistics layer. A [`NodeTelemetry`] lives in an `Arc` shared
//! by the engine thread, every sender/receiver thread, and the control
//! listener. All recording sites use relaxed atomics (see
//! [`metrics`]) so instrumentation rides the batched switch fast path
//! without measurable cost, and every recorder is gated on a
//! construction-time `enabled` flag so a disabled registry is a single
//! predictable branch.
//!
//! Reads happen through [`NodeTelemetry::snapshot`], which copies the
//! registry into a serializable [`TelemetrySnapshot`] — the same type
//! that travels inside `StatusReport` to the observer, is rendered on
//! the Prometheus/JSON scrape endpoints, and is exposed to the
//! algorithm layer as routing input.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod events;
#[cfg(not(feature = "loom"))]
pub mod flight;
pub mod flows;
pub mod metrics;
pub mod scrape;
pub mod series;
pub mod snapshot;
pub mod spans;

mod sync;

pub use events::{EventRecord, EventRing, TelemetryEvent, DEFAULT_EVENT_CAPACITY};
pub use flows::{FlowEntry, FlowKey, FlowSketch, FlowsSnapshot, DEFAULT_FLOW_CAPACITY};
pub use metrics::{
    Counter, Gauge, Histogram, BATCH_BOUNDS_MSGS, LATENCY_BOUNDS_NANOS, SYSCALL_BOUNDS_BYTES,
};
pub use series::{
    SeriesBatch, SeriesRing, SeriesTotals, SeriesWindow, DEFAULT_SERIES_CAPACITY,
};
pub use snapshot::{HistogramSnapshot, TelemetrySnapshot};
pub use spans::{SpanBatch, SpanEvent, SpanRing, SpanStage, DEFAULT_SPAN_CAPACITY};

use crate::sync::atomic::{AtomicU64, Ordering};
use ioverlay_message::NodeId;

/// Nanosecond timestamp (monotonic engine clock or virtual sim time).
pub type Nanos = u64;

/// The per-node telemetry registry.
///
/// Fields are fixed at construction — a static schema instead of a
/// name-keyed map keeps the hot path free of hashing and allocation.
/// Every `record_*` method is a no-op when the registry was built
/// disabled, which is what the `repro switch` overhead benchmark
/// measures against.
#[derive(Debug)]
pub struct NodeTelemetry {
    enabled: bool,

    // Counters.
    msgs_switched: Counter,
    msgs_sent: Counter,
    bytes_sent: Counter,
    msgs_received: Counter,
    bytes_received: Counter,
    sends_blocked: Counter,
    blocked_retries: Counter,
    connects_in: Counter,
    connects_out: Counter,
    connect_failures: Counter,
    disconnects: Counter,
    domino_teardowns: Counter,
    sendspace_wakeups: Counter,
    queue_poison_recoveries: Counter,
    coding_innovative: Counter,
    coding_duplicate: Counter,
    coding_systematic_hits: Counter,
    coding_repair_decodes: Counter,
    reactor_wakeups: Counter,
    reactor_partial_writes: Counter,

    // Gauges.
    upstreams: Gauge,
    downstreams: Gauge,
    recv_queue_msgs: Gauge,
    send_queue_msgs: Gauge,
    reactor_shards: Gauge,

    // Histograms.
    switch_round_nanos: Histogram,
    switch_batch_msgs: Histogram,
    queue_occupancy_msgs: Histogram,
    bucket_wait_nanos: Histogram,
    send_batch_msgs: Histogram,
    send_syscall_bytes: Histogram,
    recv_batch_msgs: Histogram,
    recv_syscall_bytes: Histogram,
    coding_encode_nanos: Histogram,
    coding_decode_nanos: Histogram,
    elimination_rows_per_generation: Histogram,
    shard_ingress_occupancy_msgs: Histogram,

    events: EventRing,

    // Tracing: sampled-message spans plus the hop-local span-id counter.
    spans: SpanRing,
    span_counter: AtomicU64,

    // Health plane: windowed delta history, window-local queue-depth
    // high-water marks (reset at each sample), and the top-k flow sketch.
    series: SeriesRing,
    recv_queue_hwm: AtomicU64,
    send_queue_hwm: AtomicU64,
    flows: FlowSketch,
}

impl NodeTelemetry {
    /// Creates a registry. A disabled registry keeps every recorder a
    /// cheap early-return; `event_capacity` bounds the event ring.
    pub fn new(enabled: bool, event_capacity: usize) -> Self {
        Self {
            enabled,
            msgs_switched: Counter::new(),
            msgs_sent: Counter::new(),
            bytes_sent: Counter::new(),
            msgs_received: Counter::new(),
            bytes_received: Counter::new(),
            sends_blocked: Counter::new(),
            blocked_retries: Counter::new(),
            connects_in: Counter::new(),
            connects_out: Counter::new(),
            connect_failures: Counter::new(),
            disconnects: Counter::new(),
            domino_teardowns: Counter::new(),
            sendspace_wakeups: Counter::new(),
            queue_poison_recoveries: Counter::new(),
            coding_innovative: Counter::new(),
            coding_duplicate: Counter::new(),
            coding_systematic_hits: Counter::new(),
            coding_repair_decodes: Counter::new(),
            reactor_wakeups: Counter::new(),
            reactor_partial_writes: Counter::new(),
            upstreams: Gauge::new(),
            downstreams: Gauge::new(),
            recv_queue_msgs: Gauge::new(),
            send_queue_msgs: Gauge::new(),
            reactor_shards: Gauge::new(),
            shard_ingress_occupancy_msgs: Histogram::new(BATCH_BOUNDS_MSGS),
            switch_round_nanos: Histogram::new(LATENCY_BOUNDS_NANOS),
            switch_batch_msgs: Histogram::new(BATCH_BOUNDS_MSGS),
            queue_occupancy_msgs: Histogram::new(BATCH_BOUNDS_MSGS),
            bucket_wait_nanos: Histogram::new(LATENCY_BOUNDS_NANOS),
            send_batch_msgs: Histogram::new(BATCH_BOUNDS_MSGS),
            send_syscall_bytes: Histogram::new(SYSCALL_BOUNDS_BYTES),
            recv_batch_msgs: Histogram::new(BATCH_BOUNDS_MSGS),
            recv_syscall_bytes: Histogram::new(SYSCALL_BOUNDS_BYTES),
            coding_encode_nanos: Histogram::new(LATENCY_BOUNDS_NANOS),
            coding_decode_nanos: Histogram::new(LATENCY_BOUNDS_NANOS),
            elimination_rows_per_generation: Histogram::new(BATCH_BOUNDS_MSGS),
            events: EventRing::new(event_capacity),
            spans: SpanRing::new(DEFAULT_SPAN_CAPACITY),
            span_counter: AtomicU64::new(0),
            series: SeriesRing::new(DEFAULT_SERIES_CAPACITY),
            recv_queue_hwm: AtomicU64::new(0),
            send_queue_hwm: AtomicU64::new(0),
            flows: FlowSketch::new(DEFAULT_FLOW_CAPACITY),
        }
    }

    /// Whether recording is active.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records one trace span. Callers only reach this for sampled
    /// messages; the additional `enabled` gate keeps "telemetry off =>
    /// nothing recorded" true for tracing too.
    #[inline]
    pub fn record_span(&self, span: SpanEvent) {
        if self.enabled {
            self.spans.push(span);
        }
    }

    /// Mints the next span id for a message hop at `node` (unique per
    /// `(node, local counter)` pair; see [`spans::derive_span_id`]).
    #[inline]
    pub fn mint_span_id(&self, node: NodeId) -> u64 {
        // Relaxed: the counter only needs uniqueness, not ordering
        // against other state.
        let n = self.span_counter.fetch_add(1, Ordering::Relaxed);
        spans::derive_span_id(node, n)
    }

    /// Read access to the span ring (StatusReport piggyback and the
    /// `/traces` scrape endpoint).
    pub fn spans(&self) -> &SpanRing {
        &self.spans
    }

    /// Starts a trace on a locally originated message: derives the
    /// deterministic trace id from the message's immutable identity,
    /// mints this hop's span id, records the zero-width `Origin` span at
    /// `now`, and attaches a sampled context (parent = this hop's span,
    /// so the wire carries the correct parent to the next hop). Returns
    /// the minted span id, or `None` when recording is disabled.
    pub fn start_trace(
        &self,
        local: NodeId,
        msg: &mut ioverlay_message::Msg,
        now: Nanos,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let trace_id = spans::derive_trace_id(msg.origin(), msg.app(), msg.seq());
        let span_id = self.mint_span_id(local);
        self.spans.push(SpanEvent {
            idx: 0,
            trace_id,
            parent_span: 0,
            span_id,
            node: local,
            peer: None,
            stage: SpanStage::Origin,
            start: now,
            end: now,
        });
        msg.set_trace(Some(ioverlay_message::TraceContext::sampled(
            trace_id, span_id,
        )));
        Some(span_id)
    }

    /// Records the `Recv` span for a sampled message arriving from
    /// `peer` and rewrites the carried context in place so every later
    /// stage at this hop — and the next hop's wire image — sees this
    /// hop's freshly minted span id as parent. Returns the hop span id,
    /// or `None` for unsampled messages / disabled recording.
    pub fn record_recv_span(
        &self,
        local: NodeId,
        peer: NodeId,
        msg: &mut ioverlay_message::Msg,
        start: Nanos,
        end: Nanos,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let ctx = msg.trace().filter(ioverlay_message::TraceContext::is_sampled)?;
        let span_id = self.mint_span_id(local);
        self.spans.push(SpanEvent {
            idx: 0,
            trace_id: ctx.trace_id,
            parent_span: ctx.parent_span,
            span_id,
            node: local,
            peer: Some(peer),
            stage: SpanStage::Recv,
            start,
            end,
        });
        msg.set_trace(Some(ioverlay_message::TraceContext {
            parent_span: span_id,
            ..ctx
        }));
        Some(span_id)
    }

    /// Records an intra-hop stage window (`Switch`, `Serialize`,
    /// `BucketWait`, `Write`) for a message whose hop span id was
    /// already minted at `Origin`/`Recv`. Hop linkage comes from those
    /// spans, so `parent_span` stays 0 here.
    #[inline]
    #[allow(clippy::too_many_arguments)] // takes a span record's full field set
    pub fn record_hop_span(
        &self,
        local: NodeId,
        peer: Option<NodeId>,
        trace_id: u64,
        span_id: u64,
        stage: SpanStage,
        start: Nanos,
        end: Nanos,
    ) {
        if self.enabled {
            self.spans.push(SpanEvent {
                idx: 0,
                trace_id,
                parent_span: 0,
                span_id,
                node: local,
                peer,
                stage,
                start,
                end,
            });
        }
    }

    /// One switch round finished after `nanos` having moved messages.
    #[inline]
    pub fn record_switch_round(&self, nanos: Nanos) {
        if self.enabled {
            self.switch_round_nanos.record(nanos);
        }
    }

    /// One `pop_batch` drained `msgs` messages from an upstream queue
    /// that held `occupancy` messages beforehand.
    #[inline]
    pub fn record_switch_batch(&self, msgs: u64, occupancy: u64) {
        if self.enabled {
            self.msgs_switched.add(msgs);
            self.switch_batch_msgs.record(msgs);
            self.queue_occupancy_msgs.record(occupancy);
            // Per-batch occupancy feeds the window high-water mark so a
            // burst that drains before the measure tick still shows up.
            self.recv_queue_hwm.fetch_max(occupancy, Ordering::Relaxed);
        }
    }

    /// A sender thread wrote one batch of `msgs` messages as a single
    /// `wire_bytes`-byte syscall.
    #[inline]
    pub fn record_send_batch(&self, msgs: u64, wire_bytes: u64) {
        self.record_send_writes(msgs, wire_bytes, 1);
    }

    /// A batch of `msgs` messages totalling `wire_bytes` left its socket
    /// in `writes` `write`/`writev` calls. `send_syscall_bytes` gets one
    /// sample per call (the batch's bytes split evenly, the last sample
    /// taking the remainder), so its count is the number of send
    /// syscalls and its mean the bytes one of them moved.
    #[inline]
    pub fn record_send_writes(&self, msgs: u64, wire_bytes: u64, writes: u64) {
        if self.enabled {
            self.msgs_sent.add(msgs);
            self.bytes_sent.add(wire_bytes);
            self.send_batch_msgs.record(msgs);
            let writes = writes.max(1);
            let share = wire_bytes / writes;
            for _ in 1..writes {
                self.send_syscall_bytes.record(share);
            }
            self.send_syscall_bytes
                .record(wire_bytes - share * (writes - 1));
        }
    }

    /// A receiver thread read one `bytes`-byte chunk off the socket.
    #[inline]
    pub fn record_recv_chunk(&self, bytes: u64) {
        if self.enabled {
            self.bytes_received.add(bytes);
            self.recv_syscall_bytes.record(bytes);
        }
    }

    /// A receiver thread decoded `msgs` messages out of buffered reads.
    #[inline]
    pub fn record_recv_msgs(&self, msgs: u64) {
        if self.enabled {
            self.msgs_received.add(msgs);
            self.recv_batch_msgs.record(msgs);
        }
    }

    /// A token-bucket reservation imposed a `nanos` wait.
    #[inline]
    pub fn record_bucket_wait(&self, nanos: Nanos) {
        if self.enabled {
            self.bucket_wait_nanos.record(nanos);
        }
    }

    /// `msgs` forwards found `dest`'s send buffer full and were parked.
    #[inline]
    pub fn record_buffer_full(&self, at: Nanos, dest: NodeId, msgs: u64) {
        if self.enabled {
            self.sends_blocked.add(msgs);
            self.events.push(at, TelemetryEvent::BufferFull { dest });
        }
    }

    /// A switch round re-forwarded `msgs` messages parked for
    /// `upstream`.
    #[inline]
    pub fn record_forward_retry(&self, at: Nanos, upstream: NodeId, msgs: u64) {
        if self.enabled {
            self.blocked_retries.add(msgs);
            self.events
                .push(at, TelemetryEvent::PartialForwardRetry { upstream, msgs });
        }
    }

    /// A link to `peer` came up (`outbound` = this node dialed).
    pub fn record_connect(&self, at: Nanos, peer: NodeId, outbound: bool) {
        if self.enabled {
            if outbound {
                self.connects_out.inc();
            } else {
                self.connects_in.inc();
            }
            self.events
                .push(at, TelemetryEvent::Connected { peer, outbound });
        }
    }

    /// An outbound dial to `peer` failed.
    pub fn record_connect_failed(&self, at: Nanos, peer: NodeId) {
        if self.enabled {
            self.connect_failures.inc();
            self.events.push(at, TelemetryEvent::ConnectFailed { peer });
        }
    }

    /// A link to `peer` went down.
    pub fn record_disconnect(&self, at: Nanos, peer: NodeId) {
        if self.enabled {
            self.disconnects.inc();
            self.events.push(at, TelemetryEvent::Disconnected { peer });
        }
    }

    /// Application `app`'s upstream chain collapsed (domino teardown).
    pub fn record_domino_teardown(&self, at: Nanos, app: u32) {
        if self.enabled {
            self.domino_teardowns.inc();
            self.events.push(at, TelemetryEvent::DominoTeardown { app });
        }
    }

    /// A sender thread drained a full buffer and woke the switch.
    pub fn record_sendspace_wakeup(&self, at: Nanos) {
        if self.enabled {
            self.sendspace_wakeups.inc();
            self.events.push(at, TelemetryEvent::SendSpaceWakeup);
        }
    }

    /// `count` queue locks were found poisoned by a panicking holder and
    /// recovered (see `CircularQueue::poison_recoveries`). Surfaced as a
    /// structured event, like a buffer-full report, so operators see a
    /// worker panic even when the node keeps running.
    pub fn record_queue_poison_recoveries(&self, at: Nanos, count: u64) {
        if self.enabled && count > 0 {
            self.queue_poison_recoveries.add(count);
            self.events
                .push(at, TelemetryEvent::QueuePoisonRecovered { count });
        }
    }

    /// A shard worker's `poll` returned with at least one readiness
    /// event (reactor backend).
    #[inline]
    pub fn record_reactor_wakeup(&self) {
        if self.enabled {
            self.reactor_wakeups.inc();
        }
    }

    /// A shard's non-blocking write stopped at `WOULDBLOCK` with bytes
    /// still staged; the link is parked on write readiness.
    #[inline]
    pub fn record_reactor_partial_write(&self) {
        if self.enabled {
            self.reactor_partial_writes.inc();
        }
    }

    /// A shard enqueued into a receive mailbox that now holds
    /// `occupancy` messages (post-push sample of shard-side ingress
    /// pressure).
    #[inline]
    pub fn record_shard_ingress_occupancy(&self, occupancy: u64) {
        if self.enabled {
            self.shard_ingress_occupancy_msgs.record(occupancy);
        }
    }

    /// Publishes the reactor shard count (0 on the blocking backend).
    #[inline]
    pub fn set_reactor_shards(&self, shards: u64) {
        if self.enabled {
            self.reactor_shards.set(shards);
        }
    }

    /// A coding node combined held packets into one coded emission in
    /// `nanos` (the GF(2⁸) `combine` walk over the hold buffer).
    #[inline]
    pub fn record_coding_encode(&self, nanos: Nanos) {
        if self.enabled {
            self.coding_encode_nanos.record(nanos);
        }
    }

    /// A decoding sink pushed one packet through Gaussian elimination
    /// in `nanos`; `innovative` says whether it raised the rank.
    #[inline]
    pub fn record_coding_decode(&self, nanos: Nanos, innovative: bool) {
        if self.enabled {
            self.coding_decode_nanos.record(nanos);
            if innovative {
                self.coding_innovative.inc();
            } else {
                self.coding_duplicate.inc();
            }
        }
    }

    /// A decoding sink accepted `hits` uncoded systematic packets on
    /// the passthrough path (no elimination work performed).
    #[inline]
    pub fn record_coding_systematic_hits(&self, hits: u64) {
        if self.enabled {
            self.coding_systematic_hits.add(hits);
        }
    }

    /// A decoding sink pushed one random-coefficient repair packet
    /// through the elimination path (real repair pressure, as opposed
    /// to the free systematic passthrough).
    #[inline]
    pub fn record_coding_repair_decode(&self) {
        if self.enabled {
            self.coding_repair_decodes.inc();
        }
    }

    /// A generation completed after `rows` payload-row eliminations
    /// (0 for a loss-free systematic generation).
    #[inline]
    pub fn record_coding_generation_solved(&self, rows: u64) {
        if self.enabled {
            self.elimination_rows_per_generation.record(rows);
        }
    }

    /// Updates the link-count gauges.
    #[inline]
    pub fn set_link_gauges(&self, upstreams: u64, downstreams: u64) {
        if self.enabled {
            self.upstreams.set(upstreams);
            self.downstreams.set(downstreams);
        }
    }

    /// Updates the aggregate queue-depth gauges.
    #[inline]
    pub fn set_queue_gauges(&self, recv_msgs: u64, send_msgs: u64) {
        if self.enabled {
            self.recv_queue_msgs.set(recv_msgs);
            self.send_queue_msgs.set(send_msgs);
            self.recv_queue_hwm.fetch_max(recv_msgs, Ordering::Relaxed);
            self.send_queue_hwm.fetch_max(send_msgs, Ordering::Relaxed);
        }
    }

    /// Closes the current series window at `now`: reads the cumulative
    /// counters, swaps out the window-local queue high-water marks, and
    /// pushes the delta window into the series ring. Called once per
    /// measure tick (engine monotonic clock or simnet virtual clock).
    pub fn sample_series(&self, now: Nanos) {
        if !self.enabled {
            return;
        }
        let totals = SeriesTotals {
            msgs_switched: self.msgs_switched.get(),
            msgs_sent: self.msgs_sent.get(),
            bytes_sent: self.bytes_sent.get(),
            msgs_received: self.msgs_received.get(),
            bytes_received: self.bytes_received.get(),
            sends_blocked: self.sends_blocked.get(),
            bucket_wait_nanos: self.bucket_wait_nanos.sum(),
            coding_systematic_hits: self.coding_systematic_hits.get(),
            coding_repair_decodes: self.coding_repair_decodes.get(),
            partial_writes: self.reactor_partial_writes.get(),
            poison_recoveries: self.queue_poison_recoveries.get(),
            event_drops: self.events.dropped(),
            span_drops: self.spans.dropped(),
        };
        let recv_hwm = self.recv_queue_hwm.swap(0, Ordering::Relaxed);
        let send_hwm = self.send_queue_hwm.swap(0, Ordering::Relaxed);
        self.series.sample(now, totals, recv_hwm, send_hwm);
    }

    /// Read access to the series ring (StatusReport piggyback, the
    /// `/series` scrape endpoint, and the flight recorder).
    pub fn series(&self) -> &SeriesRing {
        &self.series
    }

    /// Records one flow observation: `msgs` messages totalling `bytes`
    /// wire bytes from origin `src` switched onto the link to `dst`.
    #[inline]
    pub fn record_flow(&self, src: NodeId, dst: NodeId, kind: u32, msgs: u64, bytes: u64) {
        if self.enabled {
            self.flows.record(FlowKey { src, dst, kind }, msgs, bytes);
        }
    }

    /// Records a pre-staged batch of flow observations under one sketch
    /// lock acquisition (`(key, msgs, bytes)` per flow).
    #[inline]
    pub fn record_flow_batch(&self, items: &[(FlowKey, u64, u64)]) {
        if self.enabled {
            self.flows.record_batch(items);
        }
    }

    /// Read access to the flow sketch (the `/flows` endpoint, the
    /// StatusReport piggyback, and the flight recorder).
    pub fn flows(&self) -> &FlowSketch {
        &self.flows
    }

    /// Copies the whole registry into a serializable snapshot.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let c = |name: &str, counter: &Counter| (name.to_string(), counter.get());
        let g = |name: &str, gauge: &Gauge| (name.to_string(), gauge.get());
        // One lock acquisition for the (records, dropped) pair — the
        // two-step to_vec()/dropped() read tears under concurrent
        // eviction (see the events module comment and loom model).
        let (events_view, events_dropped) = self.events.consistent_view();
        TelemetrySnapshot {
            enabled: self.enabled,
            counters: vec![
                c("msgs_switched", &self.msgs_switched),
                c("msgs_sent", &self.msgs_sent),
                c("bytes_sent", &self.bytes_sent),
                c("msgs_received", &self.msgs_received),
                c("bytes_received", &self.bytes_received),
                c("sends_blocked", &self.sends_blocked),
                c("blocked_retries", &self.blocked_retries),
                c("connects_in", &self.connects_in),
                c("connects_out", &self.connects_out),
                c("connect_failures", &self.connect_failures),
                c("disconnects", &self.disconnects),
                c("domino_teardowns", &self.domino_teardowns),
                c("sendspace_wakeups", &self.sendspace_wakeups),
                c("queue_poison_recoveries", &self.queue_poison_recoveries),
                c("coding_innovative", &self.coding_innovative),
                c("coding_duplicate", &self.coding_duplicate),
                c("coding_systematic_hits", &self.coding_systematic_hits),
                c("coding_repair_decodes", &self.coding_repair_decodes),
                c("reactor_wakeups", &self.reactor_wakeups),
                c("reactor_partial_writes", &self.reactor_partial_writes),
            ],
            gauges: vec![
                g("upstreams", &self.upstreams),
                g("downstreams", &self.downstreams),
                g("recv_queue_msgs", &self.recv_queue_msgs),
                g("send_queue_msgs", &self.send_queue_msgs),
                g("reactor_shards", &self.reactor_shards),
            ],
            histograms: vec![
                self.switch_round_nanos.snapshot("switch_round_nanos"),
                self.switch_batch_msgs.snapshot("switch_batch_msgs"),
                self.queue_occupancy_msgs.snapshot("queue_occupancy_msgs"),
                self.bucket_wait_nanos.snapshot("bucket_wait_nanos"),
                self.send_batch_msgs.snapshot("send_batch_msgs"),
                self.send_syscall_bytes.snapshot("send_syscall_bytes"),
                self.recv_batch_msgs.snapshot("recv_batch_msgs"),
                self.recv_syscall_bytes.snapshot("recv_syscall_bytes"),
                self.coding_encode_nanos.snapshot("coding_encode_nanos"),
                self.coding_decode_nanos.snapshot("coding_decode_nanos"),
                self.elimination_rows_per_generation
                    .snapshot("elimination_rows_per_generation"),
                self.shard_ingress_occupancy_msgs
                    .snapshot("shard_ingress_occupancy_msgs"),
            ],
            events: events_view,
            events_dropped,
        }
    }
}

impl Default for NodeTelemetry {
    fn default() -> Self {
        Self::new(true, DEFAULT_EVENT_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_records_nothing() {
        let tel = NodeTelemetry::new(false, 16);
        tel.record_switch_batch(10, 100);
        tel.record_send_batch(5, 1280);
        tel.record_buffer_full(1, NodeId::loopback(1), 3);
        tel.set_link_gauges(2, 2);
        let snap = tel.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.counter("msgs_switched"), Some(0));
        assert_eq!(snap.counter("sends_blocked"), Some(0));
        assert_eq!(snap.gauge("upstreams"), Some(0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn enabled_registry_snapshot_reflects_records() {
        let tel = NodeTelemetry::new(true, 16);
        tel.record_switch_round(5_000);
        tel.record_switch_batch(32, 64);
        tel.record_send_batch(32, 9_000);
        tel.record_recv_chunk(4_096);
        tel.record_recv_msgs(16);
        tel.record_bucket_wait(100_000);
        tel.record_buffer_full(10, NodeId::loopback(7), 4);
        tel.record_forward_retry(20, NodeId::loopback(7), 4);
        tel.record_connect(30, NodeId::loopback(8), true);
        tel.record_disconnect(40, NodeId::loopback(8));
        tel.record_domino_teardown(50, 3);
        tel.record_sendspace_wakeup(60);
        tel.record_coding_encode(2_500);
        tel.record_coding_decode(7_000, true);
        tel.record_coding_decode(1_200, false);
        tel.record_coding_systematic_hits(14);
        tel.record_coding_repair_decode();
        tel.record_coding_repair_decode();
        tel.record_coding_generation_solved(2);
        tel.record_coding_generation_solved(0);
        tel.set_link_gauges(1, 2);
        tel.set_queue_gauges(10, 20);

        let snap = tel.snapshot();
        assert_eq!(snap.counter("msgs_switched"), Some(32));
        assert_eq!(snap.counter("msgs_sent"), Some(32));
        assert_eq!(snap.counter("bytes_sent"), Some(9_000));
        assert_eq!(snap.counter("bytes_received"), Some(4_096));
        assert_eq!(snap.counter("msgs_received"), Some(16));
        assert_eq!(snap.counter("sends_blocked"), Some(4));
        assert_eq!(snap.counter("blocked_retries"), Some(4));
        assert_eq!(snap.counter("connects_out"), Some(1));
        assert_eq!(snap.counter("disconnects"), Some(1));
        assert_eq!(snap.counter("domino_teardowns"), Some(1));
        assert_eq!(snap.counter("sendspace_wakeups"), Some(1));
        assert_eq!(snap.gauge("downstreams"), Some(2));
        assert_eq!(snap.gauge("send_queue_msgs"), Some(20));
        assert_eq!(snap.counter("coding_innovative"), Some(1));
        assert_eq!(snap.counter("coding_duplicate"), Some(1));
        assert_eq!(snap.counter("coding_systematic_hits"), Some(14));
        assert_eq!(snap.counter("coding_repair_decodes"), Some(2));
        let elim = snap.histogram("elimination_rows_per_generation").unwrap();
        assert_eq!(elim.count, 2);
        assert_eq!(elim.sum, 2);
        assert_eq!(snap.histogram("switch_round_nanos").unwrap().count, 1);
        assert_eq!(snap.histogram("queue_occupancy_msgs").unwrap().sum, 64);
        assert_eq!(snap.histogram("coding_encode_nanos").unwrap().count, 1);
        assert_eq!(snap.histogram("coding_decode_nanos").unwrap().sum, 8_200);
        assert_eq!(snap.events.len(), 6);
        assert_eq!(snap.events_dropped, 0);
    }

    #[test]
    fn send_syscall_histogram_gets_one_sample_per_write() {
        let tel = NodeTelemetry::new(true, 16);
        tel.record_send_batch(32, 2_816);
        tel.record_send_writes(128, 1_000_003, 4);
        let snap = tel.snapshot();
        let h = snap.histogram("send_syscall_bytes").unwrap();
        assert_eq!(h.count, 5, "one sample per write call");
        assert_eq!(h.sum, 2_816 + 1_000_003, "and no byte lost to rounding");
        assert_eq!(snap.histogram("send_batch_msgs").unwrap().count, 2);
        assert_eq!(snap.counter("msgs_sent"), Some(160));
    }

    #[test]
    fn reactor_metrics_record_and_snapshot() {
        let tel = NodeTelemetry::new(true, 16);
        tel.record_reactor_wakeup();
        tel.record_reactor_wakeup();
        tel.record_reactor_partial_write();
        tel.record_shard_ingress_occupancy(5);
        tel.record_shard_ingress_occupancy(9);
        tel.set_reactor_shards(4);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("reactor_wakeups"), Some(2));
        assert_eq!(snap.counter("reactor_partial_writes"), Some(1));
        assert_eq!(snap.gauge("reactor_shards"), Some(4));
        let h = snap.histogram("shard_ingress_occupancy_msgs").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 14);

        let off = NodeTelemetry::new(false, 16);
        off.record_reactor_wakeup();
        off.record_reactor_partial_write();
        off.set_reactor_shards(4);
        let snap = off.snapshot();
        assert_eq!(snap.counter("reactor_wakeups"), Some(0));
        assert_eq!(snap.gauge("reactor_shards"), Some(0));
    }
}
