//! The link pipeline: how a batch is accounted, paced and traced on its
//! way between a socket and a link queue.
//!
//! Both I/O backends run the same steps. Inbound: [`LinkEnv::drain`] a
//! decoder into a batch, then [`LinkEnv::admit`] it (`Recv` spans, one
//! downlink reservation). Outbound: [`LinkEnv::stage`] a popped batch,
//! [`LinkEnv::serialize`] it into its gather list, [`LinkEnv::pace`] it
//! (one uplink reservation), and [`LinkEnv::finish`] it once written.
//! The engine's wake-ups are here too: [`LinkEnv::wake_on_data`] and
//! [`LinkEnv::wake_on_space`] hang them on the link queue's own
//! empty/full edges, so neither backend decides when to send one.
//! What differs per backend is only how it *waits* — `peer.rs` parks a
//! thread per link in the socket call and for the length of a
//! reservation, `shard.rs` turns both into readiness and timers — so
//! nothing here waits or touches a socket (xtask rule R6 checks that),
//! every step runs once per batch, and a batch with no sampled message
//! in it reads the clock only where a meter or the decode window of an
//! enabled registry needs the time anyway.

use crossbeam_channel::Sender;
use ioverlay_api::{Msg, Nanos, NodeId};
use ioverlay_message::{DecodeError, Decoder, TraceContext, WireBatch};
use ioverlay_queue::CircularQueue;
use ioverlay_ratelimit::{BucketChain, Clock, SystemClock, ThroughputMeter};
use ioverlay_telemetry::{NodeTelemetry, SpanStage};

use crate::peer::ControlEvent;
use crate::sync::{Arc, Mutex};

/// Most bytes one socket read may add to a decoder; both backends read
/// through [`Decoder::read_from`], which also grows a link's receive
/// windows up to this size while reads keep filling them.
pub(crate) const RECV_CHUNK: usize = 64 * 1024;

/// Most messages drained from a send buffer into one batch: one bucket
/// reservation and one vectored write cover all of them.
pub(crate) const SEND_BATCH_MAX: usize = 128;

/// What every per-link worker of a node shares: the node's identity and
/// clock, the channel to its engine thread, and its metrics registry.
#[derive(Clone)]
pub(crate) struct LinkEnv {
    pub local: NodeId,
    pub clock: Arc<SystemClock>,
    pub events: Sender<ControlEvent>,
    pub tel: Arc<NodeTelemetry>,
}

/// What one socket read decoded ([`LinkEnv::drain`]).
pub(crate) struct Inbound {
    /// Wire bytes of the decoded messages.
    pub bytes: u64,
    /// Whether any decoded message carries a trace context.
    traced: bool,
    /// Start of the decode window (0 with recording off).
    recv_start: Nanos,
}

/// One send batch from the pop off its queue to the last byte written.
#[derive(Default)]
pub(crate) struct Outbound {
    /// The gather list; its cursor carries partial-write state.
    pub wire: WireBatch,
    /// Wire bytes of the staged batch.
    pub bytes: u64,
    msgs: u64,
    /// `(trace_id, hop span id)` of each sampled message in the batch;
    /// they share the batch's bucket-wait, serialize and write windows.
    traced: Vec<(u64, u64)>,
}

impl LinkEnv {
    /// Makes a receive buffer wake the engine: `DataAvailable` whenever
    /// a push finds it empty. The queue observes that edge under its own
    /// lock, in whichever `push_all` / `push_batch` refill crossed it — a
    /// worker that looked at `is_empty()` before pushing would miss the
    /// case where the engine drains the buffer while the worker is
    /// parked in a blocking `push_all`. Installed by whoever creates the buffer,
    /// before any worker can touch it.
    pub(crate) fn wake_on_data(&self, queue: &CircularQueue<Msg>) {
        let events = self.events.clone();
        queue.set_data_hook(Some(Arc::new(move || {
            let _ = events.send(ControlEvent::DataAvailable);
        })));
    }

    /// Makes a send buffer wake the engine: `SendSpace` whenever a pop
    /// finds it full — the engine may be parked with fan-outs it could
    /// not place there.
    pub(crate) fn wake_on_space(&self, queue: &CircularQueue<Msg>) {
        let events = self.events.clone();
        queue.set_space_hook(Some(Arc::new(move || {
            let _ = events.send(ControlEvent::SendSpace);
        })));
    }

    /// The `(trace_id, hop span id)` pairs of the sampled messages in
    /// `batch` (empty almost always; tracing is opt-in sampled).
    fn traced_in(&self, batch: &[Msg]) -> Vec<(u64, u64)> {
        if !self.tel.enabled() {
            return Vec::new();
        }
        batch
            .iter()
            .filter_map(|m| {
                m.trace()
                    .filter(TraceContext::is_sampled)
                    .map(|c| (c.trace_id, c.parent_span))
            })
            .collect()
    }

    /// Records one `stage` span over `start..end` for every sampled
    /// message of a batch exchanged with `peer`.
    fn hop_spans(
        &self,
        peer: NodeId,
        traced: &[(u64, u64)],
        stage: SpanStage,
        start: Nanos,
        end: Nanos,
    ) {
        for &(trace_id, span_id) in traced {
            self.tel
                .record_hop_span(self.local, Some(peer), trace_id, span_id, stage, start, end);
        }
    }

    /// Bandwidth emulation: one reservation of `bytes` against `chain`
    /// paces a whole batch, exactly like the paper's wrapped send/recv
    /// paces each message. Returns how long the caller must hold the
    /// batch back.
    fn reserve(
        &self,
        peer: NodeId,
        chain: &BucketChain,
        bytes: u64,
        traced: &[(u64, u64)],
        now: Nanos,
    ) -> Nanos {
        let delay = chain.reserve(bytes, now);
        if delay > 0 {
            self.tel.record_bucket_wait(delay);
            self.hop_spans(peer, traced, SpanStage::BucketWait, now, now + delay);
        }
        delay
    }

    /// Moves every complete message out of `decoder` (which a socket
    /// read just grew by `read` bytes) onto `batch`. A read that ends
    /// inside a frame adds nothing; the next one continues it.
    ///
    /// # Errors
    ///
    /// A malformed header: framing is lost for good and the caller must
    /// drop the link.
    pub(crate) fn drain(
        &self,
        decoder: &mut Decoder,
        read: usize,
        batch: &mut Vec<Msg>,
    ) -> Result<Inbound, DecodeError> {
        // The decode window of any sampled message starts here, after
        // the read: waiting on the network is not processing time.
        let recv_start = if self.tel.enabled() {
            self.clock.now()
        } else {
            0
        };
        let mut inbound = Inbound {
            bytes: 0,
            traced: false,
            recv_start,
        };
        while let Some(msg) = decoder.next_msg()? {
            inbound.bytes += msg.wire_len() as u64;
            inbound.traced |= msg.trace().is_some();
            batch.push(msg);
        }
        self.tel.record_recv_chunk(read as u64);
        Ok(inbound)
    }

    /// Accounts a freshly drained, non-empty `batch` from `peer` at
    /// `now`: every sampled message gets its `Recv` span (which rewrites
    /// its carried context to this hop), and one downlink reservation
    /// paces the batch. Returns the delay to hold the batch back before
    /// it may enter the receive buffer.
    pub(crate) fn admit(
        &self,
        peer: NodeId,
        chain: &BucketChain,
        batch: &mut [Msg],
        inbound: &Inbound,
        now: Nanos,
    ) -> Nanos {
        self.tel.record_recv_msgs(batch.len() as u64);
        let mut traced = Vec::new();
        if inbound.traced {
            for msg in batch.iter_mut() {
                self.tel
                    .record_recv_span(self.local, peer, msg, inbound.recv_start, now);
            }
            traced = self.traced_in(batch);
        }
        self.reserve(peer, chain, inbound.bytes, &traced, now)
    }

    /// Starts `out` over for a batch just popped off a send buffer:
    /// empties the gather list and notes the batch's size and its
    /// sampled messages.
    pub(crate) fn stage(&self, batch: &[Msg], out: &mut Outbound) {
        out.wire.clear();
        out.bytes = batch.iter().map(|m| m.wire_len() as u64).sum();
        out.msgs = batch.len() as u64;
        out.traced = self.traced_in(batch);
    }

    /// Fills the gather list of a staged batch: each payload is held by
    /// reference count and goes from the message's own buffer to the
    /// kernel, never through an encode buffer.
    pub(crate) fn serialize(&self, peer: NodeId, batch: &[Msg], out: &mut Outbound) {
        let start = self.span_now(out);
        for msg in batch {
            out.wire.push(msg);
        }
        if !out.traced.is_empty() {
            let end = self.clock.now();
            self.hop_spans(peer, &out.traced, SpanStage::Serialize, start, end);
        }
    }

    /// One uplink reservation for a staged batch toward `peer` at `now`;
    /// returns the delay that gates its write.
    pub(crate) fn pace(
        &self,
        peer: NodeId,
        chain: &BucketChain,
        out: &Outbound,
        now: Nanos,
    ) -> Nanos {
        self.reserve(peer, chain, out.bytes, &out.traced, now)
    }

    /// The clock reading for a span edge of `out`, or 0 when nothing in
    /// it is sampled (an untraced batch costs no clock read).
    pub(crate) fn span_now(&self, out: &Outbound) -> Nanos {
        if out.traced.is_empty() {
            0
        } else {
            self.clock.now()
        }
    }

    /// Accounts a batch whose last byte just left for `peer`: `Write`
    /// spans from `write_start` (a [`LinkEnv::span_now`] taken before
    /// the write), the send counters with one syscall sample per write
    /// call the batch took, and the link's meter sample.
    pub(crate) fn finish(
        &self,
        peer: NodeId,
        out: &Outbound,
        meter: &Mutex<ThroughputMeter>,
        write_start: Nanos,
    ) {
        let now = self.clock.now();
        self.hop_spans(peer, &out.traced, SpanStage::Write, write_start, now);
        self.tel
            .record_send_writes(out.msgs, out.bytes, out.wire.writes() as u64);
        meter.lock().record_batch(out.bytes, out.msgs, now);
    }
}

#[cfg(test)]
impl LinkEnv {
    /// A recording environment on a fresh clock, reporting to `events`.
    pub(crate) fn for_test(events: Sender<ControlEvent>) -> LinkEnv {
        LinkEnv {
            local: NodeId::loopback(9_100),
            clock: Arc::new(SystemClock::new()),
            events,
            tel: Arc::new(NodeTelemetry::new(true, 16)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::classes;
    use ioverlay_ratelimit::{Rate, TokenBucket};

    fn env() -> LinkEnv {
        LinkEnv::for_test(crossbeam_channel::unbounded().0)
    }

    fn peer() -> NodeId {
        NodeId::loopback(9_101)
    }

    /// Four 100-byte data messages, the second and fourth sampled.
    fn batch_with_two_sampled() -> Vec<Msg> {
        (0..4u32)
            .map(|seq| {
                let msg = Msg::data(peer(), 7, seq, vec![seq as u8; 100]);
                if seq % 2 == 1 {
                    msg.with_trace(TraceContext::sampled(u64::from(seq), 1))
                } else {
                    msg
                }
            })
            .collect()
    }

    fn decoder_holding(msgs: &[Msg]) -> (Decoder, usize) {
        let mut decoder = Decoder::new();
        let mut fed = 0;
        for m in msgs {
            let wire = m.encode();
            decoder.feed(&wire);
            fed += wire.len();
        }
        (decoder, fed)
    }

    /// A chain slow enough that any batch here must wait: 1 KB/s with a
    /// 64-byte burst.
    fn slow_chain() -> BucketChain {
        let mut chain = BucketChain::new();
        chain.push(BucketChain::shared(TokenBucket::with_burst(
            Rate::kbps(1),
            64,
            0,
        )));
        chain
    }

    fn spans_of(env: &LinkEnv, stage: SpanStage) -> usize {
        let (spans, _) = env.tel.spans().consistent_view();
        spans.iter().filter(|s| s.stage == stage).count()
    }

    #[test]
    fn a_partial_frame_drains_to_an_empty_batch() {
        let env = env();
        let wire = Msg::data(peer(), 7, 0, vec![1u8; 100]).encode();
        let mut decoder = Decoder::new();
        decoder.feed(&wire[..wire.len() - 10]);
        let mut batch = Vec::new();
        let inbound = env
            .drain(&mut decoder, wire.len() - 10, &mut batch)
            .expect("a frame still arriving is not an error");
        assert!(batch.is_empty());
        assert_eq!(inbound.bytes, 0);
        // The rest of the frame completes it on the next drain.
        decoder.feed(&wire[wire.len() - 10..]);
        let inbound = env.drain(&mut decoder, 10, &mut batch).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(inbound.bytes, wire.len() as u64);
        let snap = env.tel.snapshot();
        assert_eq!(snap.counter("bytes_received"), Some(wire.len() as u64));
    }

    #[test]
    fn a_poisoned_length_is_a_framing_error() {
        let env = env();
        let mut wire = Msg::data(peer(), 7, 0, vec![1u8; 4]).encode();
        wire[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut decoder = Decoder::new();
        decoder.feed(&wire);
        let mut batch = Vec::new();
        assert!(env.drain(&mut decoder, wire.len(), &mut batch).is_err());
    }

    #[test]
    fn two_sampled_messages_give_two_spans_per_stage() {
        let env = env();
        let (mut decoder, fed) = decoder_holding(&batch_with_two_sampled());
        let mut batch = Vec::new();
        let inbound = env.drain(&mut decoder, fed, &mut batch).unwrap();
        assert_eq!(batch.len(), 4);
        let delay = env.admit(peer(), &slow_chain(), &mut batch, &inbound, 0);
        assert!(delay > 0);
        assert_eq!(spans_of(&env, SpanStage::Recv), 2);
        assert_eq!(spans_of(&env, SpanStage::BucketWait), 2);
        assert_eq!(env.tel.snapshot().counter("msgs_received"), Some(4));

        let mut out = Outbound::default();
        env.stage(&batch, &mut out);
        env.serialize(peer(), &batch, &mut out);
        assert_eq!(out.wire.msgs(), 4);
        assert_eq!(out.bytes as usize, out.wire.wire_bytes());
        assert!(env.pace(peer(), &slow_chain(), &out, 0) > 0);
        let meter = Mutex::new(&classes::ENGINE_METER, ThroughputMeter::new(1_000_000_000));
        let write_start = env.span_now(&out);
        env.finish(peer(), &out, &meter, write_start);
        assert_eq!(spans_of(&env, SpanStage::Serialize), 2);
        assert_eq!(spans_of(&env, SpanStage::BucketWait), 4);
        assert_eq!(spans_of(&env, SpanStage::Write), 2);
        assert_eq!(env.tel.snapshot().counter("msgs_sent"), Some(4));
        assert_eq!(meter.lock().total_msgs(), 4);
        assert_eq!(meter.lock().total_bytes(), out.bytes);
    }

    #[test]
    fn buffer_edges_wake_the_engine_once_each() {
        let (tx, rx) = crossbeam_channel::unbounded();
        let env = LinkEnv::for_test(tx);
        let queue = CircularQueue::with_capacity(2);
        env.wake_on_data(&queue);
        env.wake_on_space(&queue);
        let msg = || Msg::data(peer(), 7, 0, &b"x"[..]);
        queue.push(msg()).unwrap(); // empty → non-empty
        queue.push(msg()).unwrap();
        assert!(queue.try_pop().is_some()); // full → non-full
        assert!(queue.try_pop().is_some());
        let mut batch = vec![msg(), msg(), msg()];
        assert_eq!(queue.push_batch(&mut batch), 2); // empty → non-empty
        let events: Vec<ControlEvent> = std::iter::from_fn(|| rx.try_recv().ok()).collect();
        assert!(
            matches!(
                events[..],
                [
                    ControlEvent::DataAvailable,
                    ControlEvent::SendSpace,
                    ControlEvent::DataAvailable
                ]
            ),
            "{events:?}"
        );
    }

    #[test]
    fn a_batch_that_took_two_writes_records_two_syscall_samples() {
        let env = env();
        // 40 payloads above the coalescing size: 80 gather segments,
        // more than one `writev` takes.
        let batch: Vec<Msg> = (0..40)
            .map(|s| Msg::data(peer(), 7, s, vec![0u8; 2048]))
            .collect();
        let mut out = Outbound::default();
        env.stage(&batch, &mut out);
        env.serialize(peer(), &batch, &mut out);
        let mut sink = Vec::new();
        out.wire.write_to(&mut sink).unwrap();
        let meter = Mutex::new(&classes::ENGINE_METER, ThroughputMeter::new(1_000_000_000));
        env.finish(peer(), &out, &meter, 0);
        let snap = env.tel.snapshot();
        let syscalls = snap.histogram("send_syscall_bytes").unwrap();
        assert_eq!((syscalls.count, syscalls.sum), (2, out.bytes));
        assert_eq!(snap.histogram("send_batch_msgs").unwrap().count, 1);
        assert_eq!(sink.len() as u64, out.bytes);
    }

    #[test]
    fn an_untraced_batch_records_no_spans() {
        let env = env();
        let msgs: Vec<Msg> = (0..3)
            .map(|s| Msg::data(peer(), 7, s, vec![0u8; 50]))
            .collect();
        let (mut decoder, fed) = decoder_holding(&msgs);
        let mut batch = Vec::new();
        let inbound = env.drain(&mut decoder, fed, &mut batch).unwrap();
        env.admit(peer(), &slow_chain(), &mut batch, &inbound, 0);
        let mut out = Outbound::default();
        env.stage(&batch, &mut out);
        env.serialize(peer(), &batch, &mut out);
        env.pace(peer(), &slow_chain(), &out, 0);
        assert_eq!(env.span_now(&out), 0);
        assert!(env.tel.spans().consistent_view().0.is_empty());
    }

    #[test]
    fn admit_and_pace_delay_what_a_bare_reservation_delays() {
        let env = env();
        let msgs = batch_with_two_sampled();
        let total: u64 = msgs.iter().map(|m| m.wire_len() as u64).sum();
        // Manual clock: the steps take the reservation instant from the
        // caller, so a twin chain reserved at the same instants is the
        // oracle.
        let (chain, twin) = (slow_chain(), slow_chain());
        for now in [0, 5_000_000, 2_000_000_000] {
            let (mut decoder, fed) = decoder_holding(&msgs);
            let mut batch = Vec::new();
            let inbound = env.drain(&mut decoder, fed, &mut batch).unwrap();
            assert_eq!(inbound.bytes, total);
            assert_eq!(
                env.admit(peer(), &chain, &mut batch, &inbound, now),
                twin.reserve(total, now)
            );
            let mut out = Outbound::default();
            env.stage(&batch, &mut out);
            assert_eq!(
                env.pace(peer(), &chain, &out, now),
                twin.reserve(total, now)
            );
        }
    }
}
