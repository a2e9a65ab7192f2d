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

/// Encodes a coded packet into a data message payload:
/// `[gen: u32][k: u8][coeffs: k bytes][payload]`.
pub fn encode_coded_msg(
    origin: NodeId,
    app: AppId,
    gen: u32,
    packet: &CodedPacket,
) -> Msg {
    let coeffs = packet.coeffs();
    let mut payload = Vec::with_capacity(5 + coeffs.len() + packet.data().len());
    payload.extend_from_slice(&gen.to_be_bytes());
    payload.push(coeffs.len() as u8);
    payload.extend(coeffs.iter().map(|c| c.value()));
    payload.extend_from_slice(packet.data());
    Msg::data(origin, app, gen, payload)
}

/// Decodes a coded packet from a data message payload.
///
/// Returns `None` if the payload is not in the coded format.
pub fn decode_coded_msg(msg: &Msg) -> Option<(u32, CodedPacket)> {
    let p = msg.payload();
    if p.len() < 5 {
        return None;
    }
    let gen = u32::from_be_bytes([p[0], p[1], p[2], p[3]]);
    let k = p[4] as usize;
    if k == 0 || p.len() < 5 + k {
        return None;
    }
    let coeffs: Vec<Gf256> = p[5..5 + k].iter().map(|&b| Gf256::new(b)).collect();
    let data = p[5 + k..].to_vec();
    Some((gen, CodedPacket::from_parts(coeffs, data)))
}

/// Wire flag marking a *systematic* (uncoded) frame. It occupies the
/// byte where the legacy format carries the coefficient count `k`, and
/// `k == 0` was never a valid coded packet, so pre-systematic decoders
/// ([`decode_coded_msg`]) return `None` and skip the frame without
/// error — exactly the forward-compatibility escape the format needs.
const SYSTEMATIC_FLAG: u8 = 0;

/// Byte length of the systematic frame header:
/// `[gen: u32][SYSTEMATIC_FLAG][generation_size: u8][index: u8]`.
const SYSTEMATIC_HEADER: usize = 7;

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
    assert!(
        (1..=255).contains(&generation_size),
        "generation size must fit the wire byte"
    );
    assert!(index < generation_size, "source index out of range");
    let mut buf = Vec::with_capacity(SYSTEMATIC_HEADER + payload.len());
    buf.extend_from_slice(&gen.to_be_bytes());
    buf.push(SYSTEMATIC_FLAG);
    buf.push(generation_size as u8);
    buf.push(index as u8);
    buf.extend_from_slice(payload);
    Msg::data(origin, app, gen, buf)
}

/// One parsed coded-plane frame: either a flagged systematic source
/// packet or a legacy coded packet with an explicit coefficient vector.
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

/// Decodes either frame kind from a data message payload.
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
            buf.extend_from_slice(&[0u8; 4]);
            buf.push(SYSTEMATIC_FLAG);
            buf.push(GENERATION as u8);
            buf.push(index as u8);
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
    if !(1..=255).contains(&generation_size)
        || frames
            .iter()
            .any(|f| f.generation_size() != generation_size || f.payload().len() != len)
    {
        return false;
    }
    out.extend_from_slice(&gen.to_be_bytes());
    out.push(generation_size as u8);
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
    /// A helper node: forwards every packet to `downstreams`.
    pub fn forwarder(downstreams: Vec<NodeId>) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            downstreams,
            code_inputs: None,
            stream_routes: None,
            held: BTreeMap::new(),
            emitted: 0,
        }
    }

    /// A stream-aware relay: routes each systematic stream to its own
    /// downstream set. This is node *E* in the no-coding baseline of
    /// Fig. 8(a), which forwards each receiver the stream it lacks.
    pub fn stream_router(routes: Vec<(usize, Vec<NodeId>)>) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            downstreams: Vec::new(),
            code_inputs: None,
            stream_routes: Some(routes.into_iter().collect()),
            held: BTreeMap::new(),
            emitted: 0,
        }
    }

    /// A coding node: holds `inputs` packets per generation, then emits
    /// one combined packet (`a + b` when `inputs == 2`).
    pub fn coder(downstreams: Vec<NodeId>, inputs: usize) -> Self {
        assert!(inputs >= 2, "coding needs at least two inputs");
        Self {
            base: IAlgorithmBase::new(),
            downstreams,
            code_inputs: Some(inputs),
            stream_routes: None,
            held: BTreeMap::new(),
            emitted: 0,
        }
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
                let dests: Vec<NodeId> = match &self.stream_routes {
                    Some(routes) => {
                        // A systematic frame names its stream directly;
                        // a legacy coded packet reveals it only when its
                        // coefficient row is a unit vector.
                        let index = decode_coded_frame(&msg).and_then(|(_, frame)| match frame {
                            CodedFrame::Systematic { index, .. } => Some(index),
                            CodedFrame::Coded { coeffs, .. } => {
                                let nonzero: Vec<usize> = coeffs
                                    .iter()
                                    .enumerate()
                                    .filter(|(_, c)| !c.is_zero())
                                    .map(|(i, _)| i)
                                    .collect();
                                match nonzero.as_slice() {
                                    [i] => Some(*i),
                                    _ => None,
                                }
                            }
                        });
                        match index.and_then(|i| routes.get(&i)) {
                            Some(dests) => dests.clone(),
                            None => self.downstreams.clone(),
                        }
                    }
                    None => self.downstreams.clone(),
                };
                for dest in dests {
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
                        for dest in self.downstreams.clone() {
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
                    let oldest = *self.held.keys().next().expect("non-empty");
                    self.held.remove(&oldest);
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

/// A relay that *merges* several held messages into one larger message —
/// the other half of the paper's hold mechanism: *"algorithms that
/// perform overlay multicast with merging **or** network coding"*.
///
/// Messages are held per generation (sequence number); once `inputs`
/// have arrived their payloads are concatenated, each prefixed with a
/// 4-byte length, and emitted as a single message. This trades one large
/// send for n small ones — the aggregation pattern of sensor/telemetry
/// overlays.
#[derive(Debug)]
pub struct MergingRelay {
    base: IAlgorithmBase,
    downstreams: Vec<NodeId>,
    inputs: usize,
    held: BTreeMap<u32, Vec<Msg>>,
    merged: u64,
}

impl MergingRelay {
    /// Creates a relay that merges `inputs` messages per sequence number.
    ///
    /// # Panics
    ///
    /// Panics if `inputs < 2` (nothing to merge).
    pub fn new(downstreams: Vec<NodeId>, inputs: usize) -> Self {
        assert!(inputs >= 2, "merging needs at least two inputs");
        Self {
            base: IAlgorithmBase::new(),
            downstreams,
            inputs,
            held: BTreeMap::new(),
            merged: 0,
        }
    }

    /// Merged messages emitted so far.
    pub fn merged(&self) -> u64 {
        self.merged
    }

    /// Splits a merged payload back into its parts.
    pub fn split(payload: &[u8]) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        let mut offset = 0;
        while offset + 4 <= payload.len() {
            let len = u32::from_be_bytes(
                payload[offset..offset + 4].try_into().expect("4 bytes"),
            ) as usize;
            offset += 4;
            if offset + len > payload.len() {
                break;
            }
            out.push(payload[offset..offset + len].to_vec());
            offset += len;
        }
        out
    }
}

impl Algorithm for MergingRelay {
    fn name(&self) -> &'static str {
        "merging-relay"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() != MsgType::Data {
            self.base.handle_default(ctx, &msg);
            return;
        }
        let gen = msg.seq();
        let app = msg.app();
        let held = self.held.entry(gen).or_default();
        held.push(msg);
        if held.len() >= self.inputs {
            let parts = self.held.remove(&gen).expect("just inserted");
            let mut payload =
                Vec::with_capacity(parts.iter().map(|m| m.payload().len() + 4).sum());
            for part in &parts {
                payload.extend_from_slice(&(part.payload().len() as u32).to_be_bytes());
                payload.extend_from_slice(part.payload());
            }
            self.merged += 1;
            let out = Msg::data(ctx.local_id(), app, gen, payload);
            for dest in self.downstreams.clone() {
                ctx.send(out.clone(), dest);
            }
        }
        while self.held.len() > HOLD_GENERATIONS {
            let oldest = *self.held.keys().next().expect("non-empty");
            self.held.remove(&oldest);
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "merging-relay",
            "held_generations": self.held.len(),
            "merged": self.merged,
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
/// once, and receiving `a` plus `a + b` counts as both streams.
///
/// Decoders are pooled per stream: a generation that completes returns
/// its decoder — coefficient rows, payload slots, solve matrices — to
/// an idle list, and the next generation [`Decoder::reset`]s one
/// instead of allocating a fresh workspace (the PR 4 `combine_into`
/// buffer-reuse pattern applied to the decode side).
#[derive(Debug, Default)]
pub struct DecodingSink {
    base: IAlgorithmBase,
    /// Ordered by generation so bounding the map evicts the *oldest*
    /// generation in O(log n) — a keyed scan here would put an O(n)
    /// walk on the per-message hot path once the map fills.
    decoders: BTreeMap<u32, Decoder>,
    /// Reusable decoder workspaces from completed generations.
    idle: Vec<Decoder>,
    recovered: BTreeMap<u32, Vec<bool>>,
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

    fn note_recovered(&mut self, gen: u32, index: usize, bytes: usize, gen_size: usize) {
        let flags = self
            .recovered
            .entry(gen)
            .or_insert_with(|| vec![false; gen_size]);
        if index < flags.len() && !flags[index] {
            flags[index] = true;
            self.effective_bytes += bytes as u64;
            if flags.iter().all(|&f| f) {
                self.complete_generations += 1;
            }
        }
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
        let (gen_size, payload_len) = (frame.generation_size(), frame.payload().len());
        if gen_size == 0 {
            return;
        }
        // A systematic packet (flagged frame or legacy unit-vector row)
        // recovers its stream directly.
        let unit_index = match &frame {
            CodedFrame::Systematic { index, .. } => Some(*index),
            CodedFrame::Coded { coeffs, .. } => {
                let mut unit = None;
                for (i, c) in coeffs.iter().enumerate() {
                    if c.is_zero() {
                        continue;
                    }
                    if unit.is_some() || *c != Gf256::ONE {
                        unit = None;
                        break;
                    }
                    unit = Some(i);
                }
                unit
            }
        };
        if let Some(i) = unit_index {
            self.note_recovered(gen, i, payload_len, gen_size);
        }
        let decoder = match self.decoders.entry(gen) {
            std::collections::btree_map::Entry::Occupied(e) => e.into_mut(),
            std::collections::btree_map::Entry::Vacant(v) => {
                let d = match self.idle.pop() {
                    Some(mut d) => {
                        d.reset(gen_size);
                        d
                    }
                    None => Decoder::new(gen_size),
                };
                v.insert(d)
            }
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
        let hits = (decoder.systematic_hits() - hits_before) as u64;
        let repairs = decoder.repair_rows() - repairs_before;
        let solved_rows = decoder.elimination_rows();
        if let Some(tel) = ctx.telemetry_registry() {
            tel.record_coding_decode(decode_nanos, innovative);
            if hits > 0 {
                tel.record_coding_systematic_hits(hits);
            }
            if repairs > 0 {
                tel.record_coding_repair_decode();
            }
            if complete {
                tel.record_coding_generation_solved(solved_rows);
            }
        }
        if complete {
            for i in 0..gen_size {
                self.note_recovered(gen, i, payload_len, gen_size);
            }
            // The generation is fully accounted: drop its dedupe flags
            // so `recovered` tracks only *open* generations. Under
            // cross-path skew that keeps the map thousands of entries
            // deep instead of pinned at the eviction cap — every
            // `note_recovered` is a B-tree walk on the per-message hot
            // path, and tree depth is the cost.
            self.recovered.remove(&gen);
            let workspace = self.decoders.remove(&gen).expect("just completed");
            if self.idle.len() < IDLE_DECODERS {
                self.idle.push(workspace);
            }
        }
        // Bound memory on long runs: both maps are ordered, so dropping
        // the oldest generation is O(log n), not a full-map key scan.
        // Evicted workspaces go back to the idle pool like completed
        // ones — eviction churn must not turn into allocation churn.
        while self.decoders.len() > HOLD_GENERATIONS {
            let oldest = *self.decoders.keys().next().expect("non-empty");
            if let Some(workspace) = self.decoders.remove(&oldest) {
                if self.idle.len() < IDLE_DECODERS {
                    self.idle.push(workspace);
                }
            }
        }
        while self.recovered.len() > 2 * HOLD_GENERATIONS {
            let oldest = *self.recovered.keys().next().expect("non-empty");
            self.recovered.remove(&oldest);
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
    use ioverlay_api::{Nanos, TimerToken};

    #[derive(Default)]
    struct MockCtx {
        sent: Vec<(Msg, NodeId)>,
    }

    impl Context for MockCtx {
        fn local_id(&self) -> NodeId {
            NodeId::loopback(1)
        }
        fn now(&self) -> Nanos {
            0
        }
        fn send(&mut self, msg: Msg, dest: NodeId) {
            self.sent.push((msg, dest));
        }
        fn send_to_observer(&mut self, _msg: Msg) {}
        fn set_timer(&mut self, _d: Nanos, _t: TimerToken) {}
        fn backlog(&self, _dest: NodeId) -> Option<usize> {
            None
        }
        fn buffer_capacity(&self) -> usize {
            4
        }
        fn probe_rtt(&mut self, _p: NodeId) {}
        fn close_link(&mut self, _p: NodeId) {}
        fn observer(&self) -> Option<NodeId> {
            None
        }
        fn random_u64(&mut self) -> u64 {
            0
        }
    }

    fn coded(gen: u32, index: usize, bytes: usize) -> Msg {
        let p = CodedPacket::source(index, GENERATION, vec![index as u8 + 1; bytes]);
        encode_coded_msg(NodeId::loopback(9), 1, gen, &p)
    }

    #[test]
    fn coded_payload_roundtrip() {
        let p = CodedPacket::from_parts(
            vec![Gf256::new(3), Gf256::new(7)],
            vec![1, 2, 3, 4],
        );
        let msg = encode_coded_msg(NodeId::loopback(1), 5, 42, &p);
        let (gen, back) = decode_coded_msg(&msg).unwrap();
        assert_eq!(gen, 42);
        assert_eq!(back, p);
        assert!(decode_coded_msg(&Msg::data(NodeId::loopback(1), 1, 0, &b"xy"[..])).is_none());
    }

    #[test]
    fn coder_holds_then_emits_one_combination() {
        let e = NodeId::loopback(5);
        let mut relay = CodingRelay::coder(vec![e], 2);
        let mut ctx = MockCtx::default();
        relay.on_message(&mut ctx, coded(0, 0, 16));
        assert!(ctx.sent.is_empty(), "held, waiting for stream b");
        relay.on_message(&mut ctx, coded(0, 1, 16));
        assert_eq!(ctx.sent.len(), 1, "one combined packet out");
        assert_eq!(relay.emitted(), 1);
        let (gen, combined) = decode_coded_msg(&ctx.sent[0].0).unwrap();
        assert_eq!(gen, 0);
        assert_eq!(
            combined.coeffs(),
            &[Gf256::ONE, Gf256::ONE],
            "a + b combination"
        );
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
        let mut ctx = MockCtx::default();
        let msg = coded(7, 0, 8);
        relay.on_message(&mut ctx, msg.clone());
        assert_eq!(ctx.sent.len(), 2);
        assert_eq!(ctx.sent[0].0, msg);
    }

    #[test]
    fn sink_decodes_a_plus_b_with_a() {
        let mut sink = DecodingSink::new();
        let mut ctx = MockCtx::default();
        // Receive stream a directly.
        sink.on_message(&mut ctx, coded(0, 0, 16));
        assert_eq!(sink.effective_bytes(), 16);
        // Receive the combination a + b.
        let a = CodedPacket::source(0, GENERATION, vec![1; 16]);
        let b = CodedPacket::source(1, GENERATION, vec![2; 16]);
        let ab = CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]).unwrap();
        sink.on_message(
            &mut ctx,
            encode_coded_msg(NodeId::loopback(9), 1, 0, &ab),
        );
        assert_eq!(sink.effective_bytes(), 32, "both streams recovered");
        assert_eq!(sink.complete_generations(), 1);
    }

    #[test]
    fn duplicates_do_not_inflate_effective_bytes() {
        let mut sink = DecodingSink::new();
        let mut ctx = MockCtx::default();
        sink.on_message(&mut ctx, coded(3, 0, 10));
        sink.on_message(&mut ctx, coded(3, 0, 10));
        sink.on_message(&mut ctx, coded(3, 0, 10));
        assert_eq!(sink.effective_bytes(), 10);
        assert_eq!(sink.complete_generations(), 0);
    }

    #[test]
    fn coded_only_without_second_packet_recovers_nothing() {
        let mut sink = DecodingSink::new();
        let mut ctx = MockCtx::default();
        let a = CodedPacket::source(0, GENERATION, vec![1; 16]);
        let b = CodedPacket::source(1, GENERATION, vec![2; 16]);
        let ab = CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]).unwrap();
        sink.on_message(
            &mut ctx,
            encode_coded_msg(NodeId::loopback(9), 1, 0, &ab),
        );
        assert_eq!(sink.effective_bytes(), 0);
    }

    #[test]
    fn merging_relay_holds_then_concatenates() {
        let e = NodeId::loopback(5);
        let mut relay = MergingRelay::new(vec![e], 2);
        let mut ctx = MockCtx::default();
        relay.on_message(&mut ctx, Msg::data(NodeId::loopback(1), 7, 3, &b"aaa"[..]));
        assert!(ctx.sent.is_empty(), "held, waiting for the second input");
        relay.on_message(&mut ctx, Msg::data(NodeId::loopback(2), 7, 3, &b"bbbbb"[..]));
        assert_eq!(ctx.sent.len(), 1);
        assert_eq!(relay.merged(), 1);
        let out = &ctx.sent[0].0;
        assert_eq!(out.seq(), 3);
        let parts = MergingRelay::split(out.payload());
        assert_eq!(parts, vec![b"aaa".to_vec(), b"bbbbb".to_vec()]);
    }

    #[test]
    fn merging_keeps_generations_separate() {
        let e = NodeId::loopback(5);
        let mut relay = MergingRelay::new(vec![e], 2);
        let mut ctx = MockCtx::default();
        relay.on_message(&mut ctx, Msg::data(NodeId::loopback(1), 7, 0, &b"x"[..]));
        relay.on_message(&mut ctx, Msg::data(NodeId::loopback(1), 7, 1, &b"y"[..]));
        assert!(ctx.sent.is_empty(), "different generations never merge");
        relay.on_message(&mut ctx, Msg::data(NodeId::loopback(2), 7, 1, &b"z"[..]));
        assert_eq!(ctx.sent.len(), 1);
        let parts = MergingRelay::split(ctx.sent[0].0.payload());
        assert_eq!(parts, vec![b"y".to_vec(), b"z".to_vec()]);
    }

    #[test]
    fn split_tolerates_truncation() {
        // A corrupted merged payload yields only the complete parts.
        let mut payload = Vec::new();
        payload.extend_from_slice(&3u32.to_be_bytes());
        payload.extend_from_slice(b"abc");
        payload.extend_from_slice(&100u32.to_be_bytes());
        payload.extend_from_slice(b"short");
        let parts = MergingRelay::split(&payload);
        assert_eq!(parts, vec![b"abc".to_vec()]);
    }

    #[test]
    fn coding_telemetry_records_encode_and_decode() {
        struct TelCtx {
            tel: ioverlay_api::NodeTelemetry,
            sent: Vec<(Msg, NodeId)>,
        }
        impl Context for TelCtx {
            fn local_id(&self) -> NodeId {
                NodeId::loopback(1)
            }
            fn now(&self) -> Nanos {
                0
            }
            fn send(&mut self, msg: Msg, dest: NodeId) {
                self.sent.push((msg, dest));
            }
            fn send_to_observer(&mut self, _m: Msg) {}
            fn set_timer(&mut self, _d: Nanos, _t: TimerToken) {}
            fn backlog(&self, _dest: NodeId) -> Option<usize> {
                None
            }
            fn buffer_capacity(&self) -> usize {
                4
            }
            fn probe_rtt(&mut self, _p: NodeId) {}
            fn close_link(&mut self, _p: NodeId) {}
            fn observer(&self) -> Option<NodeId> {
                None
            }
            fn random_u64(&mut self) -> u64 {
                0
            }
            fn telemetry_registry(&self) -> Option<&ioverlay_api::NodeTelemetry> {
                Some(&self.tel)
            }
        }
        let mut ctx = TelCtx {
            tel: ioverlay_api::NodeTelemetry::new(true, 16),
            sent: Vec::new(),
        };

        let mut relay = CodingRelay::coder(vec![NodeId::loopback(5)], 2);
        relay.on_message(&mut ctx, coded(0, 0, 16));
        relay.on_message(&mut ctx, coded(0, 1, 16));
        assert_eq!(relay.emitted(), 1);
        let snap = ctx.tel.snapshot();
        assert_eq!(
            snap.histogram("coding_encode_nanos").unwrap().count,
            1,
            "one combine timed"
        );

        let mut sink = DecodingSink::new();
        sink.on_message(&mut ctx, coded(3, 0, 16));
        sink.on_message(&mut ctx, coded(3, 0, 16)); // duplicate
        sink.on_message(&mut ctx, coded(3, 1, 16));
        let snap = ctx.tel.snapshot();
        assert_eq!(snap.histogram("coding_decode_nanos").unwrap().count, 3);
        assert_eq!(snap.counter("coding_innovative"), Some(2));
        assert_eq!(snap.counter("coding_duplicate"), Some(1));
        assert_eq!(snap.counter("coding_systematic_hits"), Some(2));
        assert_eq!(snap.counter("coding_repair_decodes"), Some(0));
        let elim = snap.histogram("elimination_rows_per_generation").unwrap();
        assert_eq!(elim.count, 1, "one generation completed");
        assert_eq!(elim.sum, 0, "loss-free generation solved for free");

        // A generation that needs a repair row shows real elimination.
        let a = CodedPacket::source(0, GENERATION, vec![1; 16]);
        let b = CodedPacket::source(1, GENERATION, vec![2; 16]);
        let ab = CodedPacket::combine(&[(Gf256::ONE, &a), (Gf256::ONE, &b)]).unwrap();
        sink.on_message(&mut ctx, encode_coded_msg(NodeId::loopback(9), 1, 4, &ab));
        sink.on_message(&mut ctx, coded(4, 0, 16));
        let snap = ctx.tel.snapshot();
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
        // MockCtx backlog returns None => "no link yet" => room; bound the
        // pump with a backlog-tracking ctx instead.
        #[derive(Default)]
        struct Bounded {
            sent: Vec<(Msg, NodeId)>,
            count: std::collections::HashMap<NodeId, usize>,
        }
        impl Context for Bounded {
            fn local_id(&self) -> NodeId {
                NodeId::loopback(1)
            }
            fn now(&self) -> Nanos {
                0
            }
            fn send(&mut self, msg: Msg, dest: NodeId) {
                *self.count.entry(dest).or_insert(0) += 1;
                self.sent.push((msg, dest));
            }
            fn send_to_observer(&mut self, _m: Msg) {}
            fn set_timer(&mut self, _d: Nanos, _t: TimerToken) {}
            fn backlog(&self, dest: NodeId) -> Option<usize> {
                self.count.get(&dest).copied()
            }
            fn buffer_capacity(&self) -> usize {
                3
            }
            fn probe_rtt(&mut self, _p: NodeId) {}
            fn close_link(&mut self, _p: NodeId) {}
            fn observer(&self) -> Option<NodeId> {
                None
            }
            fn random_u64(&mut self) -> u64 {
                0
            }
        }
        let mut ctx = Bounded::default();
        src.on_start(&mut ctx);
        assert_eq!(ctx.count[&b], 3);
        assert_eq!(ctx.count[&c], 3);
        // Streams go out as systematic frames with distinct indices;
        // a legacy decoder skips them rather than misparsing.
        let (_, fa) = decode_coded_frame(&ctx.sent[0].0).unwrap();
        let (_, fb) = decode_coded_frame(&ctx.sent[1].0).unwrap();
        assert!(matches!(fa, CodedFrame::Systematic { index: 0, .. }));
        assert!(matches!(fb, CodedFrame::Systematic { index: 1, .. }));
        assert!(decode_coded_msg(&ctx.sent[0].0).is_none());
    }

    #[test]
    fn systematic_frame_roundtrip_and_legacy_skip() {
        let origin = NodeId::loopback(2);
        let msg = encode_systematic_msg(origin, 5, 42, 16, 3, &[9, 8, 7]);
        // The legacy parser sees k == 0 and skips without error.
        assert!(decode_coded_msg(&msg).is_none());
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
        let mut ctx = MockCtx::default();
        for gen in 0..3u32 {
            for index in 0..GENERATION {
                let msg = encode_systematic_msg(
                    NodeId::loopback(9),
                    1,
                    gen,
                    GENERATION,
                    index,
                    &[index as u8 + 1; 16],
                );
                sink.on_message(&mut ctx, msg);
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
        let mut ctx = MockCtx::default();
        let m0 = encode_systematic_msg(NodeId::loopback(9), 1, 0, GENERATION, 0, &[1; 8]);
        let m1 = encode_systematic_msg(NodeId::loopback(9), 1, 0, GENERATION, 1, &[2; 8]);
        relay.on_message(&mut ctx, m0);
        relay.on_message(&mut ctx, m1);
        assert_eq!(ctx.sent.len(), 2);
        assert_eq!(ctx.sent[0].1, d);
        assert_eq!(ctx.sent[1].1, f);
    }

    #[test]
    fn coder_combines_systematic_frames() {
        let e = NodeId::loopback(5);
        let mut relay = CodingRelay::coder(vec![e], 2);
        let mut ctx = MockCtx::default();
        let a = encode_systematic_msg(NodeId::loopback(9), 1, 0, GENERATION, 0, &[1; 16]);
        let b = encode_systematic_msg(NodeId::loopback(9), 1, 0, GENERATION, 1, &[2; 16]);
        relay.on_message(&mut ctx, a);
        assert!(ctx.sent.is_empty(), "held, waiting for stream b");
        relay.on_message(&mut ctx, b);
        assert_eq!(relay.emitted(), 1);
        let (_, combined) = decode_coded_msg(&ctx.sent[0].0).unwrap();
        assert_eq!(combined.coeffs(), &[Gf256::ONE, Gf256::ONE]);
        assert_eq!(combined.data(), &[1 ^ 2; 16]);
    }
}
