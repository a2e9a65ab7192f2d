//! Overlay network coding in GF(2⁸) — the first case study (§3.2).
//!
//! The scenario of Fig. 8: a source splits its data into two streams *a*
//! and *b*; helper nodes relay them; a coding node combines the two
//! incoming streams into one (`a + b` over GF(2⁸)) using the engine's
//! *hold* mechanism; receivers that obtain any two independent
//! combinations decode both streams. The paper reports that coding
//! lifts the two receivers from 300 KBps to the full 400 KBps at the
//! cost of one more helper node.
//!
//! Three algorithms implement the scenario:
//!
//! * [`SplitSource`] — emits generation `g` as two source packets,
//!   stream *a* to one downstream and stream *b* to another;
//! * [`CodingRelay`] — either plainly forwards (helper role) or *holds*
//!   packets until one arrives from each incoming stream and emits the
//!   linear combination (coding role);
//! * [`DecodingSink`] — runs a progressive GF(2⁸) decoder per
//!   generation and counts *effective* (decoded, distinct) bytes.

use std::collections::BTreeMap;
use std::time::Instant;

use bytes::Bytes;
use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};
use ioverlay_gf256::{kernels, CodedPacket, Decoder, Gf256};

use crate::base::IAlgorithmBase;

/// Generation size used by the Fig. 8 scenario: two streams.
pub const GENERATION: usize = 2;

/// Generations a relay holds while waiting for a generation's partner
/// stream. The two streams of Fig. 8 take different paths (one direct,
/// one through the helper), so their arrival skew at the coder is the
/// whole queueing gap between the paths — engine buffers plus kernel
/// TCP buffers on every hop, thousands of messages at small payload
/// sizes (autotuned loopback sockets alone can hold several MB per
/// link). The window must exceed that skew or the coder evicts every
/// held packet moments before its partner arrives and stops emitting
/// combinations entirely — the collapse is total, not gradual, because
/// the evicted generation is always the next one to complete.
const HOLD_GENERATIONS: usize = 64 * 1024;

/// Writes the coded frame header `[gen: u32][k: u8]`; `k` coefficient
/// bytes follow it on the wire.
///
/// # Panics
///
/// Panics if `k` is 0 (the systematic flag) or exceeds 255.
fn put_coded_header(out: &mut Vec<u8>, gen: u32, k: usize) {
    assert!(
        (1..=255).contains(&k),
        "coefficient count must fit the wire byte"
    );
    out.extend_from_slice(&gen.to_be_bytes());
    out.push(k as u8);
}

/// Encodes a coded packet into a data message payload:
/// `[gen: u32][k: u8][coeffs: k bytes][payload]`.
///
/// # Panics
///
/// Panics if the packet has no coefficients or more than 255.
pub fn encode_coded_msg(origin: NodeId, app: AppId, gen: u32, packet: &CodedPacket) -> Msg {
    let coeffs = packet.coeffs();
    let mut payload = Vec::with_capacity(5 + coeffs.len() + packet.data().len());
    put_coded_header(&mut payload, gen, coeffs.len());
    payload.extend(coeffs.iter().map(|c| c.value()));
    payload.extend_from_slice(packet.data());
    Msg::data(origin, app, gen, payload)
}

/// Wire flag marking a *systematic* (uncoded) frame. It occupies the
/// byte where a coded frame carries its coefficient count `k`, and
/// `k == 0` was never a valid coded packet, so decoders that predate
/// systematic frames skip them without error — exactly the
/// forward-compatibility escape the format needs.
const SYSTEMATIC_FLAG: u8 = 0;

/// Byte length of the systematic frame header:
/// `[gen: u32][SYSTEMATIC_FLAG][generation_size: u8][index: u8]`.
const SYSTEMATIC_HEADER: usize = 7;

/// Writes the systematic frame header (see [`SYSTEMATIC_HEADER`]).
///
/// # Panics
///
/// Panics if `generation_size` is 0 or exceeds 255, or if `index` is
/// out of range.
fn put_systematic_header(out: &mut Vec<u8>, gen: u32, generation_size: usize, index: usize) {
    assert!(
        (1..=255).contains(&generation_size),
        "generation size must fit the wire byte"
    );
    assert!(index < generation_size, "source index out of range");
    out.extend_from_slice(&gen.to_be_bytes());
    out.push(SYSTEMATIC_FLAG);
    out.push(generation_size as u8);
    out.push(index as u8);
}

/// Encodes a systematic (uncoded) source packet into a data message:
/// `[gen: u32][0x00][generation_size: u8][index: u8][payload]`.
///
/// Systematic frames skip the coefficient vector entirely — the
/// receiver reconstructs the implied identity row from `index` — so the
/// common loss-free case carries 7 bytes of framing instead of
/// `5 + generation_size` and decodes with zero elimination work.
///
/// # Panics
///
/// Panics if `generation_size` is 0 or exceeds 255, or if `index` is
/// out of range.
pub fn encode_systematic_msg(
    origin: NodeId,
    app: AppId,
    gen: u32,
    generation_size: usize,
    index: usize,
    payload: &[u8],
) -> Msg {
    let mut buf = Vec::with_capacity(SYSTEMATIC_HEADER + payload.len());
    put_systematic_header(&mut buf, gen, generation_size, index);
    buf.extend_from_slice(payload);
    Msg::data(origin, app, gen, buf)
}

/// One parsed coded-plane frame: either a flagged systematic source
/// packet or a coded packet with an explicit coefficient vector.
/// Payload bytes are sliced zero-copy out of the message in both
/// variants — parsing a frame never copies data, which matters on the
/// per-message hot path of a relay or sink.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodedFrame {
    /// An uncoded source packet: implied identity coefficient row.
    Systematic {
        /// Number of source packets in the generation.
        generation_size: usize,
        /// This packet's source index within the generation.
        index: usize,
        /// The source payload, sliced zero-copy out of the message.
        payload: Bytes,
    },
    /// A coded packet carrying its coefficient vector on the wire.
    Coded {
        /// The packet's coefficient row over the generation.
        coeffs: Vec<Gf256>,
        /// The coded payload, sliced zero-copy out of the message.
        payload: Bytes,
    },
}

/// Decodes either frame kind from a data message payload — the one
/// parser of the coded plane.
///
/// Returns `None` if the payload is in neither format.
pub fn decode_coded_frame(msg: &Msg) -> Option<(u32, CodedFrame)> {
    let p = msg.payload();
    if p.len() < 5 {
        return None;
    }
    let gen = u32::from_be_bytes([p[0], p[1], p[2], p[3]]);
    if p[4] == SYSTEMATIC_FLAG {
        if p.len() < SYSTEMATIC_HEADER {
            return None;
        }
        let generation_size = p[5] as usize;
        let index = p[6] as usize;
        if generation_size == 0 || index >= generation_size {
            return None;
        }
        return Some((
            gen,
            CodedFrame::Systematic {
                generation_size,
                index,
                payload: p.slice(SYSTEMATIC_HEADER..p.len()),
            },
        ));
    }
    let k = p[4] as usize;
    if p.len() < 5 + k {
        return None;
    }
    let coeffs: Vec<Gf256> = p[5..5 + k].iter().map(|&b| Gf256::new(b)).collect();
    Some((
        gen,
        CodedFrame::Coded {
            coeffs,
            payload: p.slice(5 + k..p.len()),
        },
    ))
}

/// The splitting source of Fig. 8: stream *a* (source index 0) goes to
/// one downstream, stream *b* (index 1) to the other.
#[derive(Debug)]
pub struct SplitSource {
    base: IAlgorithmBase,
    app: AppId,
    dest_a: NodeId,
    dest_b: NodeId,
    gen: u32,
    active: bool,
    pump_interval: u64,
    /// Pre-laid-out systematic wire frames, one per stream. Each pump
    /// patches the four generation bytes and clones — one allocation
    /// and one memcpy per packet instead of building fill and framing
    /// from scratch, which matters when the pump saturates a link.
    template_a: Vec<u8>,
    template_b: Vec<u8>,
}

const PUMP_TIMER: u64 = 1;
const PUMP_INTERVAL: u64 = 10_000_000;

impl SplitSource {
    /// Creates a deployed split source for `app`.
    pub fn new(app: AppId, dest_a: NodeId, dest_b: NodeId, msg_bytes: usize) -> Self {
        let template = |index: usize, fill: u8| {
            let mut buf = Vec::with_capacity(SYSTEMATIC_HEADER + msg_bytes);
            put_systematic_header(&mut buf, 0, GENERATION, index);
            buf.resize(SYSTEMATIC_HEADER + msg_bytes, fill);
            buf
        };
        Self {
            base: IAlgorithmBase::new(),
            app,
            dest_a,
            dest_b,
            gen: 0,
            active: true,
            pump_interval: PUMP_INTERVAL,
            template_a: template(0, 0x5A),
            template_b: template(1, 0xA5),
        }
    }

    /// Overrides the refill-timer period (nanoseconds). The 10 ms
    /// default suits the paper-rate scenarios; a saturating benchmark
    /// wants ~20 µs so the downstream buffers never drain dry between
    /// refills.
    #[must_use]
    pub fn with_pump_interval(mut self, nanos: u64) -> Self {
        self.pump_interval = nanos.max(1);
        self
    }

    fn pump(&mut self, ctx: &mut dyn Context) {
        if !self.active {
            return;
        }
        loop {
            let room = [self.dest_a, self.dest_b].iter().all(|d| {
                ctx.backlog(*d)
                    .is_none_or(|depth| depth < ctx.buffer_capacity())
            });
            if !room {
                break;
            }
            // Systematic emission: the source's own packets go out
            // uncoded — only relays ever put coefficients on the wire.
            let gen_bytes = self.gen.to_be_bytes();
            self.template_a[..4].copy_from_slice(&gen_bytes);
            self.template_b[..4].copy_from_slice(&gen_bytes);
            ctx.send(
                Msg::data(ctx.local_id(), self.app, self.gen, self.template_a.clone()),
                self.dest_a,
            );
            ctx.send(
                Msg::data(ctx.local_id(), self.app, self.gen, self.template_b.clone()),
                self.dest_b,
            );
            self.gen = self.gen.wrapping_add(1);
        }
        ctx.set_timer(self.pump_interval, PUMP_TIMER);
    }
}

impl Algorithm for SplitSource {
    fn name(&self) -> &'static str {
        "split-source"
    }
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _token: u64) {
        self.pump(ctx);
    }
    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::STerminate => self.active = false,
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }
}

/// A relay that either forwards coded packets verbatim (helper node) or
/// *holds* one packet per incoming stream and emits their GF(2⁸)
/// combination (coding node *D* in Fig. 8).
///
/// The hold logic is the algorithm-level rendition of the engine's hold
/// return type: *"we allow `Algorithm::process()` to return a hold type,
/// instructing the engine that the message is buffered in the algorithm
/// ... It is up to the algorithm to implement the logic of merging or
/// coding multiple messages"*.
#[derive(Debug)]
pub struct CodingRelay {
    base: IAlgorithmBase,
    downstreams: Vec<NodeId>,
    /// `Some(k)`: combine `k` packets per generation; `None`: plain
    /// forwarding.
    code_inputs: Option<usize>,
    /// Stream-aware routing: source index -> downstreams. A systematic
    /// packet follows its stream's route; anything else goes to
    /// `downstreams`.
    stream_routes: Option<BTreeMap<usize, Vec<NodeId>>>,
    /// Held frames, per generation — payload bytes stay zero-copy
    /// slices of the received messages until combine time.
    held: BTreeMap<u32, Vec<CodedFrame>>,
    emitted: u64,
}

/// Combines a generation's held frames into one wire message payload:
/// `[gen: u32][k: u8][coeffs][combined payload]`, written into `out`.
///
/// The combination is the plain sum (every scalar is `1`), so the
/// coefficient row is the XOR of the frames' rows — a systematic frame
/// contributes `e_index` — and the payload is one fused
/// [`kernels::mulacc_rows`] call over the held `Bytes` slices, straight
/// into `out`: nothing is rehydrated into packets and nothing but `out`
/// is written. Returns `false` when the frames disagree on generation
/// size or payload length.
fn combine_held(gen: u32, frames: &[CodedFrame], out: &mut Vec<u8>) -> bool {
    out.clear();
    let Some(first) = frames.first() else {
        return false;
    };
    let (generation_size, len) = (first.generation_size(), first.payload().len());
    if frames
        .iter()
        .any(|f| f.generation_size() != generation_size || f.payload().len() != len)
    {
        return false;
    }
    put_coded_header(out, gen, generation_size);
    out.resize(5 + generation_size + len, 0);
    let (coeffs, data) = out[5..].split_at_mut(generation_size);
    for frame in frames {
        match frame {
            CodedFrame::Systematic { index, .. } => coeffs[*index] ^= 1,
            CodedFrame::Coded { coeffs: row, .. } => {
                for (slot, c) in coeffs.iter_mut().zip(row) {
                    *slot ^= c.value();
                }
            }
        }
    }
    kernels::mulacc_rows(frames.iter().map(|f| (Gf256::ONE, f.payload())), data);
    true
}

impl CodedFrame {
    /// Number of source packets in the frame's generation.
    fn generation_size(&self) -> usize {
        match self {
            CodedFrame::Systematic {
                generation_size, ..
            } => *generation_size,
            CodedFrame::Coded { coeffs, .. } => coeffs.len(),
        }
    }

    /// The frame's payload bytes.
    fn payload(&self) -> &[u8] {
        match self {
            CodedFrame::Systematic { payload, .. } | CodedFrame::Coded { payload, .. } => payload,
        }
    }
}

impl CodingRelay {
    fn with_role(
        downstreams: Vec<NodeId>,
        code_inputs: Option<usize>,
        stream_routes: Option<BTreeMap<usize, Vec<NodeId>>>,
    ) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            downstreams,
            code_inputs,
            stream_routes,
            held: BTreeMap::new(),
            emitted: 0,
        }
    }

    /// A helper node: forwards every packet to `downstreams`.
    pub fn forwarder(downstreams: Vec<NodeId>) -> Self {
        Self::with_role(downstreams, None, None)
    }

    /// A stream-aware relay: routes each systematic stream to its own
    /// downstream set. This is node *E* in the no-coding baseline of
    /// Fig. 8(a), which forwards each receiver the stream it lacks.
    pub fn stream_router(routes: Vec<(usize, Vec<NodeId>)>) -> Self {
        Self::with_role(Vec::new(), None, Some(routes.into_iter().collect()))
    }

    /// A coding node: holds `inputs` packets per generation, then emits
    /// one combined packet (`a + b` when `inputs == 2`).
    pub fn coder(downstreams: Vec<NodeId>, inputs: usize) -> Self {
        assert!(inputs >= 2, "coding needs at least two inputs");
        Self::with_role(downstreams, Some(inputs), None)
    }

    /// Combined packets emitted (coding mode only).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }
}

impl Algorithm for CodingRelay {
    fn name(&self) -> &'static str {
        "coding-relay"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() != MsgType::Data {
            self.base.handle_default(ctx, &msg);
            return;
        }
        match self.code_inputs {
            None => {
                // A systematic frame names its stream directly; a coded
                // packet reveals it only when its coefficient row is a
                // unit vector.
                let route = self.stream_routes.as_ref().and_then(|routes| {
                    let index = match decode_coded_frame(&msg)?.1 {
                        CodedFrame::Systematic { index, .. } => index,
                        CodedFrame::Coded { coeffs, .. } => {
                            let mut nonzero = coeffs
                                .iter()
                                .enumerate()
                                .filter(|(_, c)| !c.is_zero())
                                .map(|(i, _)| i);
                            match (nonzero.next(), nonzero.next()) {
                                (Some(i), None) => i,
                                _ => return None,
                            }
                        }
                    };
                    routes.get(&index)
                });
                for &dest in route.unwrap_or(&self.downstreams) {
                    ctx.send(msg.clone(), dest);
                }
            }
            Some(needed) => {
                let Some((gen, frame)) = decode_coded_frame(&msg) else {
                    return;
                };
                // Held frames keep their payload bytes as zero-copy
                // slices of the received messages, and the combine reads
                // them in place.
                let held = self.held.entry(gen).or_default();
                held.push(frame);
                if held.len() >= needed {
                    let frames = self.held.remove(&gen).expect("just inserted");
                    let started = Instant::now();
                    let mut wire = Vec::new();
                    let combined = combine_held(gen, &frames, &mut wire);
                    let encode_nanos = started.elapsed().as_nanos() as u64;
                    if combined {
                        self.emitted += 1;
                        let out = Msg::data(ctx.local_id(), msg.app(), gen, wire);
                        for &dest in &self.downstreams {
                            ctx.send(out.clone(), dest);
                        }
                    }
                    if let Some(tel) = ctx.telemetry_registry() {
                        tel.record_coding_encode(encode_nanos);
                    }
                }
                // Bound the hold buffer: drop generations that are too
                // far behind (their partner stream stalled or was lost).
                while self.held.len() > HOLD_GENERATIONS {
                    self.held.pop_first();
                }
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "coding-relay",
            "coding": self.code_inputs.is_some(),
            "held_generations": self.held.len(),
            "emitted": self.emitted,
        })
    }
}

/// Decoder workspaces kept warm per sink. Under cross-path skew the
/// sink can have thousands of generations open at once (each waiting
/// for its partner stream), so the pool must absorb eviction churn —
/// too small and every opened generation pays a fresh multi-buffer
/// allocation on the per-message hot path.
const IDLE_DECODERS: usize = 64;

/// A receiver running one progressive decoder per generation.
///
/// Effective throughput in the Fig. 8 sense is the number of *distinct
/// source payload bytes* recovered — receiving stream *a* twice counts
/// once, and receiving `a` plus `a + b` counts as both streams. The
/// decoders are the sink's only ledger: an open generation has recovered
/// its decoder's systematic hits, a complete one every source, and a
/// frame its decoder refuses counts nothing.
///
/// Decoders are pooled: a generation that completes returns its decoder
/// — coefficient rows, payload slots, solve matrices — to an idle list,
/// and the next generation [`Decoder::reset`]s one instead of allocating
/// a fresh workspace (the PR 4 `combine_into` buffer-reuse pattern
/// applied to the decode side).
#[derive(Debug, Default)]
pub struct DecodingSink {
    base: IAlgorithmBase,
    /// Per generation, its decoder while open and `None` once complete,
    /// so a late copy of a completed generation's frame is not credited
    /// again by a fresh decoder. Boxed so that a completed generation
    /// costs its key and one word. Ordered by generation so bounding the
    /// map evicts the *oldest* generation in O(log n) — a keyed scan here
    /// would put an O(n) walk on the per-message hot path once it fills.
    decoders: BTreeMap<u32, Option<Box<Decoder>>>,
    /// Reusable decoder workspaces from completed generations.
    idle: Vec<Decoder>,
    /// Distinct source-payload bytes recovered.
    effective_bytes: u64,
    /// Fully decoded generations.
    complete_generations: u64,
}

impl DecodingSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Distinct source bytes recovered so far.
    pub fn effective_bytes(&self) -> u64 {
        self.effective_bytes
    }

    /// Fully decoded generations so far.
    pub fn complete_generations(&self) -> u64 {
        self.complete_generations
    }
}

impl Algorithm for DecodingSink {
    fn name(&self) -> &'static str {
        "decoding-sink"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() != MsgType::Data {
            self.base.handle_default(ctx, &msg);
            return;
        }
        let Some((gen, frame)) = decode_coded_frame(&msg) else {
            return;
        };
        let payload_len = frame.payload().len();
        let slot = self.decoders.entry(gen).or_insert_with(|| {
            let mut d = self.idle.pop().unwrap_or_default();
            d.reset(frame.generation_size());
            Some(Box::new(d))
        });
        let Some(decoder) = slot else {
            // The generation is complete: a late copy recovers nothing.
            return;
        };
        let hits_before = decoder.systematic_hits();
        let repairs_before = decoder.repair_rows();
        let started = Instant::now();
        let innovative = match frame {
            CodedFrame::Systematic { index, payload, .. } => {
                decoder.push_systematic(index, &payload)
            }
            CodedFrame::Coded { coeffs, payload } => decoder.push_parts(&coeffs, &payload),
        };
        let decode_nanos = started.elapsed().as_nanos() as u64;
        let complete = decoder.is_complete();
        let hits = decoder.systematic_hits() - hits_before;
        let repairs = decoder.repair_rows() - repairs_before;
        let solved_rows = decoder.elimination_rows();
        // Systematic arrivals (scaled units included) are recovered on
        // arrival; the rest of a generation only when it completes.
        let recovered = if complete {
            decoder.generation()
        } else {
            decoder.systematic_hits()
        };
        self.effective_bytes += ((recovered - hits_before) * payload_len) as u64;
        if let Some(tel) = ctx.telemetry_registry() {
            tel.record_coding_decode(decode_nanos, innovative);
            if hits > 0 {
                tel.record_coding_systematic_hits(hits as u64);
            }
            if repairs > 0 {
                tel.record_coding_repair_decode();
            }
            if complete {
                tel.record_coding_generation_solved(solved_rows);
            }
        }
        if complete {
            self.complete_generations += 1;
            let workspace = slot.take().expect("open until now");
            if self.idle.len() < IDLE_DECODERS {
                self.idle.push(*workspace);
            }
        }
        // Bound memory on long runs: the map is ordered, so dropping the
        // oldest generation is O(log n), not a full-map key scan.
        // Evicted workspaces go back to the idle pool like completed
        // ones — eviction churn must not turn into allocation churn.
        while self.decoders.len() > HOLD_GENERATIONS {
            if let Some((_, Some(workspace))) = self.decoders.pop_first() {
                if self.idle.len() < IDLE_DECODERS {
                    self.idle.push(*workspace);
                }
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "decoding-sink",
            "effective_bytes": self.effective_bytes,
            "complete_generations": self.complete_generations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::{NodeTelemetry, RecordingCtx};
    use proptest::prelude::*;

    fn coded(gen: u32, index: usize, bytes: usize) -> Msg {
        let p = CodedPacket::source(index, GENERATION, vec![index as u8 + 1; bytes]);
        encode_coded_msg(NodeId::loopback(9), 1, gen, &p)
    }

    fn systematic(gen: u32, index: usize, bytes: usize) -> Msg {
        encode_systematic_msg(
            NodeId::loopback(9),
            1,
            gen,
            GENERATION,
            index,
            &vec![index as u8 + 1; bytes],
        )
    }

    /// The coded frame `a + b` over the payloads of [`coded`] and
    /// [`systematic`].
    fn a_plus_b(gen: u32, bytes: usize) -> Msg {
        let a = CodedPacket::source(0, GENERATION, vec![1; bytes]);
        let b = CodedPacket::source(1, GENERATION, vec![2; bytes]);
        let ab = CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]).unwrap();
        encode_coded_msg(NodeId::loopback(9), 1, gen, &ab)
    }

    /// Parses a coded (non-systematic) frame.
    fn parse_coded(msg: &Msg) -> (u32, Vec<Gf256>, Bytes) {
        match decode_coded_frame(msg) {
            Some((gen, CodedFrame::Coded { coeffs, payload })) => (gen, coeffs, payload),
            other => panic!("expected a coded frame, got {other:?}"),
        }
    }

    #[test]
    fn coded_payload_roundtrip() {
        let p = CodedPacket::from_parts(vec![Gf256::new(3), Gf256::new(7)], vec![1, 2, 3, 4]);
        let msg = encode_coded_msg(NodeId::loopback(1), 5, 42, &p);
        let (gen, coeffs, payload) = parse_coded(&msg);
        assert_eq!(gen, 42);
        assert_eq!(coeffs, p.coeffs());
        assert_eq!(&payload[..], p.data());
        assert!(decode_coded_frame(&Msg::data(NodeId::loopback(1), 1, 0, &b"xy"[..])).is_none());
    }

    #[test]
    #[should_panic(expected = "coefficient count must fit the wire byte")]
    fn a_256_coefficient_row_is_refused_not_sent_as_the_systematic_flag() {
        let p = CodedPacket::from_parts(vec![Gf256::ONE; 256], vec![0; 4]);
        encode_coded_msg(NodeId::loopback(1), 5, 0, &p);
    }

    #[test]
    fn coder_holds_then_emits_one_combination() {
        let e = NodeId::loopback(5);
        let mut relay = CodingRelay::coder(vec![e], 2);
        let mut ctx = RecordingCtx::default();
        relay.on_message(&mut ctx, coded(0, 0, 16));
        assert!(ctx.staged.sends.is_empty(), "held, waiting for stream b");
        relay.on_message(&mut ctx, coded(0, 1, 16));
        assert_eq!(ctx.staged.sends.len(), 1, "one combined packet out");
        assert_eq!(relay.emitted(), 1);
        let (gen, coeffs, _) = parse_coded(&ctx.staged.sends[0].0);
        assert_eq!(gen, 0);
        assert_eq!(coeffs, [Gf256::ONE, Gf256::ONE], "a + b combination");
    }

    /// Four held frames, systematic and coded mixed.
    fn mixed_frames() -> Vec<CodedFrame> {
        let pay = |mult: u8, salt: u8| -> Bytes {
            (0..21u8)
                .map(|i| i.wrapping_mul(mult) ^ salt)
                .collect::<Vec<u8>>()
                .into()
        };
        let row = |bytes: [u8; 4]| bytes.iter().map(|&b| Gf256::new(b)).collect();
        vec![
            CodedFrame::Systematic {
                generation_size: 4,
                index: 1,
                payload: pay(37, 0x11),
            },
            CodedFrame::Coded {
                coeffs: row([3, 0, 7, 9]),
                payload: pay(101, 0xA7),
            },
            CodedFrame::Coded {
                coeffs: row([0, 1, 7, 0xC4]),
                payload: pay(13, 0x5C),
            },
            CodedFrame::Systematic {
                generation_size: 4,
                index: 3,
                payload: pay(211, 0xE0),
            },
        ]
    }

    #[test]
    fn mixed_held_frames_combine_to_the_recorded_bytes() {
        // Recorded from the rehydrating `combine_into` path this
        // function replaced (commit 9bf68c5), same four frames.
        const GOLDEN: [u8; 30] = [
            1, 2, 3, 4, 4, 3, 0, 0, 204, 10, 148, 54, 20, 114, 20, 54, 84, 250, 212, 54, 84, 114,
            212, 182, 84, 234, 20, 182, 148, 114,
        ];
        let frames = mixed_frames();
        let mut out = Vec::new();
        assert!(combine_held(0x0102_0304, &frames, &mut out));
        assert_eq!(out, GOLDEN);

        // A second generation into the same buffer reuses it: the
        // combine writes nothing but `out`.
        let (ptr, capacity) = (out.as_ptr(), out.capacity());
        assert!(combine_held(7, &frames[..2], &mut out));
        assert_eq!((out.as_ptr(), out.capacity()), (ptr, capacity));
        assert_eq!(&out[..9], &[0, 0, 0, 7, 4, 3, 1, 7, 9]);
    }

    #[test]
    fn held_frames_of_different_shapes_do_not_combine() {
        let mut out = vec![0xFF];
        assert!(!combine_held(1, &[], &mut out));
        let mut ragged = mixed_frames();
        ragged.push(CodedFrame::Systematic {
            generation_size: 4,
            index: 0,
            payload: Bytes::from(vec![1u8; 20]),
        });
        assert!(!combine_held(1, &ragged, &mut out));
        let mut mixed_generations = mixed_frames();
        mixed_generations.push(CodedFrame::Coded {
            coeffs: vec![Gf256::ONE; 5],
            payload: Bytes::from(vec![1u8; 21]),
        });
        assert!(!combine_held(1, &mixed_generations, &mut out));
        assert!(out.is_empty(), "a refused combine leaves no partial frame");
    }

    #[test]
    fn forwarder_relays_verbatim() {
        let (d, f) = (NodeId::loopback(4), NodeId::loopback(6));
        let mut relay = CodingRelay::forwarder(vec![d, f]);
        let mut ctx = RecordingCtx::default();
        let msg = coded(7, 0, 8);
        relay.on_message(&mut ctx, msg.clone());
        assert_eq!(ctx.staged.sends.len(), 2);
        assert_eq!(ctx.staged.sends[0].0, msg);
    }

    #[test]
    fn sink_decodes_a_plus_b_with_a() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        // Receive stream a directly.
        sink.on_message(&mut ctx, coded(0, 0, 16));
        assert_eq!(sink.effective_bytes(), 16);
        // Receive the combination a + b.
        sink.on_message(&mut ctx, a_plus_b(0, 16));
        assert_eq!(sink.effective_bytes(), 32, "both streams recovered");
        assert_eq!(sink.complete_generations(), 1);
    }

    #[test]
    fn sink_credits_only_what_its_decoder_recovers() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, systematic(0, 0, 16));
        assert_eq!(sink.effective_bytes(), 16);
        // Stream b at the wrong length: the decoder refuses it.
        sink.on_message(&mut ctx, systematic(0, 1, 8));
        assert_eq!(sink.effective_bytes(), 16, "a refused frame counts nothing");
        sink.on_message(&mut ctx, a_plus_b(0, 16));
        assert_eq!(sink.effective_bytes(), 32, "a + b with a recovers b");
        assert_eq!(sink.complete_generations(), 1);
    }

    #[test]
    fn late_frames_of_a_complete_generation_count_nothing() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, systematic(5, 0, 16));
        sink.on_message(&mut ctx, systematic(5, 1, 16));
        assert_eq!(sink.effective_bytes(), 32);
        for late in [systematic(5, 0, 16), a_plus_b(5, 16), systematic(5, 1, 16)] {
            sink.on_message(&mut ctx, late);
        }
        assert_eq!(
            sink.effective_bytes(),
            32,
            "a complete generation stays closed"
        );
        assert_eq!(sink.complete_generations(), 1);
    }

    #[test]
    fn duplicates_do_not_inflate_effective_bytes() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, coded(3, 0, 10));
        sink.on_message(&mut ctx, coded(3, 0, 10));
        sink.on_message(&mut ctx, coded(3, 0, 10));
        assert_eq!(sink.effective_bytes(), 10);
        assert_eq!(sink.complete_generations(), 0);
    }

    #[test]
    fn coded_only_without_second_packet_recovers_nothing() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, a_plus_b(0, 16));
        assert_eq!(sink.effective_bytes(), 0);
    }

    #[test]
    fn coding_telemetry_records_encode_and_decode() {
        let mut ctx = RecordingCtx {
            tel: Some(NodeTelemetry::new(true, 16)),
            ..RecordingCtx::default()
        };
        let snapshot = |ctx: &RecordingCtx| ctx.tel.as_ref().unwrap().snapshot();

        let mut relay = CodingRelay::coder(vec![NodeId::loopback(5)], 2);
        relay.on_message(&mut ctx, coded(0, 0, 16));
        relay.on_message(&mut ctx, coded(0, 1, 16));
        assert_eq!(relay.emitted(), 1);
        let snap = snapshot(&ctx);
        assert_eq!(
            snap.histogram("coding_encode_nanos").unwrap().count,
            1,
            "one combine timed"
        );

        let mut sink = DecodingSink::new();
        sink.on_message(&mut ctx, coded(3, 0, 16));
        sink.on_message(&mut ctx, coded(3, 0, 16)); // duplicate
        sink.on_message(&mut ctx, coded(3, 1, 16));
        let snap = snapshot(&ctx);
        assert_eq!(snap.histogram("coding_decode_nanos").unwrap().count, 3);
        assert_eq!(snap.counter("coding_innovative"), Some(2));
        assert_eq!(snap.counter("coding_duplicate"), Some(1));
        assert_eq!(snap.counter("coding_systematic_hits"), Some(2));
        assert_eq!(snap.counter("coding_repair_decodes"), Some(0));
        let elim = snap.histogram("elimination_rows_per_generation").unwrap();
        assert_eq!(elim.count, 1, "one generation completed");
        assert_eq!(elim.sum, 0, "loss-free generation solved for free");

        // A generation that needs a repair row shows real elimination.
        sink.on_message(&mut ctx, a_plus_b(4, 16));
        sink.on_message(&mut ctx, coded(4, 0, 16));
        let snap = snapshot(&ctx);
        assert_eq!(snap.counter("coding_repair_decodes"), Some(1));
        assert_eq!(snap.counter("coding_systematic_hits"), Some(3));
        let elim = snap.histogram("elimination_rows_per_generation").unwrap();
        assert_eq!(elim.count, 2);
        assert!(elim.sum > 0, "repair completion eliminated payload rows");
    }

    #[test]
    fn split_source_alternates_streams() {
        let (b, c) = (NodeId::loopback(2), NodeId::loopback(3));
        let mut src = SplitSource::new(1, b, c, 32);
        // The pump stops once each destination's backlog reaches the
        // context's buffer capacity.
        let mut ctx = RecordingCtx {
            capacity: 3,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        assert_eq!(ctx.backlog(b), Some(3));
        assert_eq!(ctx.backlog(c), Some(3));
        // Streams go out as systematic frames with distinct indices.
        let (_, fa) = decode_coded_frame(&ctx.staged.sends[0].0).unwrap();
        let (_, fb) = decode_coded_frame(&ctx.staged.sends[1].0).unwrap();
        assert!(matches!(fa, CodedFrame::Systematic { index: 0, .. }));
        assert!(matches!(fb, CodedFrame::Systematic { index: 1, .. }));
        assert_eq!(ctx.staged.sends[2].0.payload()[..4], 1u32.to_be_bytes());
    }

    #[test]
    fn systematic_frame_roundtrip_and_legacy_skip() {
        let origin = NodeId::loopback(2);
        let msg = encode_systematic_msg(origin, 5, 42, 16, 3, &[9, 8, 7]);
        // A decoder that predates systematic frames reads `k == 0` here
        // and skips the frame.
        assert_eq!(msg.payload()[4], SYSTEMATIC_FLAG);
        let (gen, frame) = decode_coded_frame(&msg).unwrap();
        assert_eq!(gen, 42);
        let CodedFrame::Systematic {
            generation_size,
            index,
            payload,
        } = frame
        else {
            panic!("expected systematic frame");
        };
        assert_eq!(generation_size, 16);
        assert_eq!(index, 3);
        assert_eq!(&payload[..], &[9, 8, 7]);
    }

    #[test]
    fn sink_recovers_from_systematic_frames_and_pools_decoders() {
        let mut sink = DecodingSink::new();
        let mut ctx = RecordingCtx::default();
        for gen in 0..3u32 {
            for index in 0..GENERATION {
                sink.on_message(&mut ctx, systematic(gen, index, 16));
            }
        }
        assert_eq!(sink.effective_bytes(), 3 * 2 * 16);
        assert_eq!(sink.complete_generations(), 3);
        assert_eq!(sink.idle.len(), 1, "completed workspaces are pooled");
    }

    #[test]
    fn stream_router_routes_by_systematic_index() {
        let (d, f) = (NodeId::loopback(4), NodeId::loopback(6));
        let mut relay = CodingRelay::stream_router(vec![(0, vec![d]), (1, vec![f])]);
        let mut ctx = RecordingCtx::default();
        relay.on_message(&mut ctx, systematic(0, 0, 8));
        relay.on_message(&mut ctx, systematic(0, 1, 8));
        assert_eq!(ctx.staged.sends.len(), 2);
        assert_eq!(ctx.staged.sends[0].1, d);
        assert_eq!(ctx.staged.sends[1].1, f);
    }

    #[test]
    fn coder_combines_systematic_frames() {
        let e = NodeId::loopback(5);
        let mut relay = CodingRelay::coder(vec![e], 2);
        let mut ctx = RecordingCtx::default();
        relay.on_message(&mut ctx, systematic(0, 0, 16));
        assert!(ctx.staged.sends.is_empty(), "held, waiting for stream b");
        relay.on_message(&mut ctx, systematic(0, 1, 16));
        assert_eq!(relay.emitted(), 1);
        let (_, coeffs, payload) = parse_coded(&ctx.staged.sends[0].0);
        assert_eq!(coeffs, [Gf256::ONE, Gf256::ONE]);
        assert_eq!(&payload[..], &[1 ^ 2; 16]);
    }

    /// A data message for generation 0 whose shape is drawn on its own:
    /// arbitrary payload bytes, or a well-formed systematic or coded
    /// frame whose generation size, coefficient count and payload length
    /// need not agree with the other frames of the generation.
    fn hostile_msg() -> impl Strategy<Value = Msg> {
        let origin = NodeId::loopback(9);
        let bytes = |max: usize| proptest::collection::vec(any::<u8>(), 0..max);
        prop_oneof![
            bytes(12).prop_map(move |p| Msg::data(origin, 1, 0, p)),
            (1usize..4, any::<usize>(), bytes(4)).prop_map(move |(size, index, p)| {
                encode_systematic_msg(origin, 1, 0, size, index % size, &p)
            }),
            (proptest::collection::vec(0u8..4, 1..4), bytes(4)).prop_map(move |(row, p)| {
                let packet = CodedPacket::from_parts(row.into_iter().map(Gf256::new).collect(), p);
                encode_coded_msg(origin, 1, 0, &packet)
            }),
        ]
    }

    proptest! {
        /// Hostile coded traffic into every relay role and the sink:
        /// nothing panics, every frame a coder emits parses back, and
        /// the sink never credits a generation more than its size times
        /// the payload length of the first frame its decoder accepted.
        #[test]
        fn hostile_coded_frames_never_panic_or_overcount(
            msgs in proptest::collection::vec(hostile_msg(), 1..24),
        ) {
            let (x, y) = (NodeId::loopback(4), NodeId::loopback(6));
            for mut relay in [
                CodingRelay::coder(vec![x], 2),
                CodingRelay::coder(vec![x], 3),
                CodingRelay::forwarder(vec![x, y]),
                CodingRelay::stream_router(vec![(0, vec![x]), (1, vec![y])]),
            ] {
                let mut ctx = RecordingCtx::default();
                for msg in &msgs {
                    relay.on_message(&mut ctx, msg.clone());
                }
                if relay.code_inputs.is_some() {
                    prop_assert_eq!(ctx.staged.sends.len() as u64, relay.emitted());
                    for (out, _) in &ctx.staged.sends {
                        prop_assert!(decode_coded_frame(out).is_some());
                    }
                }
            }

            let mut sink = DecodingSink::new();
            let mut ctx = RecordingCtx {
                tel: Some(NodeTelemetry::new(true, 16)),
                ..RecordingCtx::default()
            };
            // Per generation: the size its decoder opened with, and the
            // payload length of the first frame the decoder accepted.
            let mut bound: BTreeMap<u32, (usize, Option<usize>)> = BTreeMap::new();
            let innovative = |ctx: &RecordingCtx| {
                ctx.tel.as_ref().unwrap().snapshot().counter("coding_innovative").unwrap_or(0)
            };
            for msg in &msgs {
                let before = innovative(&ctx);
                sink.on_message(&mut ctx, msg.clone());
                if let Some((gen, frame)) = decode_coded_frame(msg) {
                    let (_, len) = bound.entry(gen).or_insert((frame.generation_size(), None));
                    if innovative(&ctx) > before {
                        len.get_or_insert(frame.payload().len());
                    }
                }
                let most: usize = bound.values().map(|(size, len)| size * len.unwrap_or(0)).sum();
                prop_assert!(sink.effective_bytes() <= most as u64);
            }
        }
    }
}
