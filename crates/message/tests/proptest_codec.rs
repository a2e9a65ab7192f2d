//! Property-based tests for the message wire format.

use ioverlay_message::{
    Decoder, Header, Msg, MsgType, NodeId, TraceContext, WireBatch, HEADER_LEN,
    TRACE_EXT_WIRE_LEN,
};
use proptest::prelude::*;

fn arb_msg_type() -> impl Strategy<Value = MsgType> {
    prop_oneof![
        Just(MsgType::Data),
        Just(MsgType::Boot),
        Just(MsgType::Request),
        Just(MsgType::SDeploy),
        Just(MsgType::BrokenSource),
        Just(MsgType::UpThroughput),
        Just(MsgType::SQuery),
        Just(MsgType::SQueryAck),
        Just(MsgType::SAware),
        Just(MsgType::SFederate),
        Just(MsgType::Trace),
        (0x1000u32..0xFFFF).prop_map(MsgType::Custom),
    ]
}

fn arb_node_id() -> impl Strategy<Value = NodeId> {
    (any::<[u8; 4]>(), any::<u16>()).prop_map(|(ip, port)| NodeId::new(ip.into(), port))
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    (
        arb_msg_type(),
        arb_node_id(),
        any::<u32>(),
        any::<u32>(),
        proptest::collection::vec(any::<u8>(), 0..2048),
    )
        .prop_map(|(ty, origin, app, seq, payload)| Msg::new(ty, origin, app, seq, payload))
}

proptest! {
    /// encode ∘ decode is the identity for any well-formed message.
    #[test]
    fn single_message_roundtrip(msg in arb_msg()) {
        let back = Msg::decode(&msg.encode()).unwrap();
        prop_assert_eq!(back, msg);
    }

    /// The streaming decoder reconstructs any message sequence regardless
    /// of how the byte stream is chopped into chunks.
    #[test]
    fn stream_roundtrip_with_arbitrary_chunking(
        msgs in proptest::collection::vec(arb_msg(), 0..8),
        chunk_sizes in proptest::collection::vec(1usize..97, 1..64),
    ) {
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let mut offset = 0;
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while offset < wire.len() {
            let take = (*chunk_iter.next().unwrap()).min(wire.len() - offset);
            dec.feed(&wire[offset..offset + take]);
            offset += take;
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Truncating the wire image of a message never yields a bogus decode:
    /// it either errors or (for stream decoding) reports "need more".
    #[test]
    fn truncation_never_yields_wrong_message(msg in arb_msg(), cut in 0usize..24) {
        let wire = msg.encode();
        let cut = cut.min(wire.len().saturating_sub(1));
        let truncated = &wire[..wire.len() - 1 - cut];
        prop_assert!(Msg::decode(truncated).is_err());
        let mut dec = Decoder::new();
        dec.feed(truncated);
        match dec.next_msg() {
            Ok(None) | Err(_) => {}
            Ok(Some(got)) => prop_assert!(false, "decoded {got:?} from truncated stream"),
        }
    }

    /// Message types survive a wire roundtrip.
    #[test]
    fn msg_type_wire_roundtrip(ty in arb_msg_type()) {
        prop_assert_eq!(MsgType::from_wire(ty.to_wire()), ty);
    }

    /// A message carrying a trace-context header extension roundtrips
    /// with its context, type, and payload intact.
    #[test]
    fn traced_message_roundtrip(msg in arb_msg(), ctx in arb_trace()) {
        let traced = msg.clone().with_trace(ctx);
        let back = Msg::decode(&traced.encode()).unwrap();
        prop_assert_eq!(back.trace(), Some(ctx));
        prop_assert_eq!(back, traced);
    }

    /// Forward compatibility: a decoder that predates the extension —
    /// modeled by reading only the fixed [`Header`] and skipping the
    /// declared payload — stays framed across any mix of traced and
    /// plain messages, and sees traced ones as opaque `Custom` types.
    #[test]
    fn legacy_header_skip_stays_framed(
        entries in proptest::collection::vec((arb_msg(), any::<bool>(), arb_trace()), 1..8),
    ) {
        let mut wire = Vec::new();
        for (msg, traced, ctx) in &entries {
            let m = if *traced { msg.clone().with_trace(*ctx) } else { msg.clone() };
            wire.extend_from_slice(&m.encode());
        }
        let mut off = 0;
        for (msg, traced, _) in &entries {
            let header = Header::decode(&wire[off..]).unwrap();
            if *traced {
                prop_assert!(
                    matches!(header.ty(), MsgType::Custom(w) if w & 0x8000_0000 != 0),
                    "legacy decode of a traced message must land outside the known table"
                );
                prop_assert_eq!(
                    header.payload_len() as usize,
                    TRACE_EXT_WIRE_LEN + msg.payload().len()
                );
            } else {
                prop_assert_eq!(header.ty(), msg.ty());
            }
            // The legacy skip: header + declared payload.
            off += HEADER_LEN + header.payload_len() as usize;
        }
        prop_assert_eq!(off, wire.len());
    }

    /// The streaming decoder reconstructs traced/plain mixes under
    /// arbitrary chunking, preserving each message's trace context.
    #[test]
    fn stream_roundtrip_with_traced_messages(
        entries in proptest::collection::vec((arb_msg(), any::<bool>(), arb_trace()), 0..6),
        chunk_sizes in proptest::collection::vec(1usize..97, 1..32),
    ) {
        let msgs: Vec<Msg> = entries
            .iter()
            .map(|(m, traced, ctx)| {
                if *traced { m.clone().with_trace(*ctx) } else { m.clone() }
            })
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let mut offset = 0;
        let mut chunk_iter = chunk_sizes.iter().cycle();
        while offset < wire.len() {
            let take = (*chunk_iter.next().unwrap()).min(wire.len() - offset);
            dec.feed(&wire[offset..offset + take]);
            offset += take;
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        prop_assert_eq!(out, msgs);
        prop_assert_eq!(dec.pending(), 0);
    }

    /// Whatever mix of coalesced and gathered payloads a batch holds,
    /// and however the socket chops its writes up (short writes that end
    /// inside a segment or span several, `WouldBlock` between them), the
    /// bytes that leave decode to exactly the pushed messages.
    #[test]
    fn wire_batch_survives_short_and_refused_writes(
        entries in proptest::collection::vec((0usize..6, any::<bool>(), arb_trace()), 1..24),
        script in proptest::collection::vec(1usize..40_000, 1..32),
    ) {
        const SIZES: [usize; 6] = [0, 1, 1023, 1024, 1025, 16 * 1024];
        let msgs: Vec<Msg> = entries
            .iter()
            .enumerate()
            .map(|(i, (size, traced, ctx))| {
                let m = Msg::data(NodeId::loopback(7), 1, i as u32, vec![i as u8; SIZES[*size]]);
                if *traced { m.with_trace(*ctx) } else { m }
            })
            .collect();
        let mut batch = WireBatch::new();
        for m in &msgs {
            batch.push(m);
        }
        let mut w = Scripted { out: Vec::new(), script, calls: 0 };
        while batch.has_remaining() {
            match batch.write_to(&mut w) {
                Ok(()) => {}
                Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock),
            }
        }
        prop_assert_eq!(w.out.len(), batch.wire_bytes());
        let mut dec = Decoder::new();
        dec.feed(&w.out);
        let mut out = Vec::new();
        while let Some(m) = dec.next_msg().unwrap() {
            out.push(m);
        }
        prop_assert_eq!(out, msgs);
    }
}

/// Frame payload sizes for the receive-path property: around the
/// coalescing size, around the first receive window, and longer than a
/// full-size window. Miri runs the short ones only.
#[cfg(not(miri))]
const FRAME_SIZES: &[usize] = &[
    0,
    1,
    63,
    64,
    1023,
    1024,
    4095,
    4096,
    16 << 10,
    65 << 10,
    200 << 10,
];
#[cfg(miri)]
const FRAME_SIZES: &[usize] = &[0, 1, 63, 64, 1023, 1024, 4095, 4096];

/// Longest single read the chopping reader hands out.
#[cfg(not(miri))]
const MAX_SPLIT: usize = 128 << 10;
#[cfg(miri)]
const MAX_SPLIT: usize = 8 << 10;

#[cfg(not(miri))]
const RECEIVE_CASES: u32 = 48;
#[cfg(miri)]
const RECEIVE_CASES: u32 = 2;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(RECEIVE_CASES))]

    /// The receive path as a relay runs it: `read_from` a socket that
    /// splits the stream anywhere and refuses reads with `WouldBlock` or
    /// `TimedOut` between them, draining after every read. The decoded
    /// sequence is the encoded one, and the messages kept alive across
    /// later reads — while the decoder recycles windows under them —
    /// still hold their own bytes at the end.
    #[test]
    fn read_from_recycles_windows_without_touching_live_messages(
        frames in proptest::collection::vec(
            (0..FRAME_SIZES.len(), any::<bool>(), 0u8..4, arb_trace()),
            1..24,
        ),
        script in proptest::collection::vec(
            (prop_oneof![1usize..64, 1usize..MAX_SPLIT], 0u8..4),
            1..64,
        ),
        max_chunk in prop_oneof![Just(1024usize), Just(64 * 1024)],
    ) {
        let msgs: Vec<Msg> = frames
            .iter()
            .enumerate()
            .map(|(i, &(size, traced, _, ctx))| {
                let payload: Vec<u8> = (0..FRAME_SIZES[size])
                    .map(|j| (i * 131 + j) as u8)
                    .collect();
                let m = Msg::data(NodeId::loopback(7), 1, i as u32, payload);
                if traced { m.with_trace(ctx) } else { m }
            })
            .collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut r = Chopped { wire: &wire, pos: 0, script, calls: 0 };
        let mut dec = Decoder::new();
        let (mut next, mut kept) = (0, Vec::new());
        loop {
            match dec.read_from(&mut r, max_chunk) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => {
                    prop_assert!(
                        matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut),
                        "unexpected error {e}"
                    );
                    continue;
                }
            }
            while let Some(m) = dec.next_msg().unwrap() {
                prop_assert!(next < msgs.len(), "more messages than were sent");
                prop_assert_eq!(&m, &msgs[next]);
                // One in four stays alive to the end; the rest drop now
                // and free their windows for reuse.
                if frames[next].2 == 0 {
                    kept.push((next, m));
                }
                next += 1;
            }
        }
        prop_assert_eq!(next, msgs.len());
        prop_assert_eq!(dec.pending(), 0);
        for (i, m) in &kept {
            prop_assert_eq!(m, &msgs[*i], "message {} changed after it was decoded", i);
        }
    }
}

/// A socket stand-in that splits `wire` by a script of `(size, kind)`
/// entries: each read hands out at most `size` bytes, and on every
/// other call a `kind` of 0 or 1 refuses the read with `WouldBlock` or
/// `TimedOut` instead (never twice in a row, so the stream progresses).
struct Chopped<'a> {
    wire: &'a [u8],
    pos: usize,
    script: Vec<(usize, u8)>,
    calls: usize,
}

impl std::io::Read for Chopped<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let (size, kind) = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if self.calls.is_multiple_of(2) {
            match kind {
                0 => return Err(std::io::ErrorKind::WouldBlock.into()),
                1 => return Err(std::io::ErrorKind::TimedOut.into()),
                _ => {}
            }
        }
        let n = size.min(buf.len()).min(self.wire.len() - self.pos);
        buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// A socket stand-in following a script: entry `n` accepts at most `n`
/// bytes of what is offered (across gather segments, so a short write
/// can stop anywhere), except that a multiple of four on an even call
/// refuses it with `WouldBlock` (never two refusals in a row, so every
/// script makes progress).
struct Scripted {
    out: Vec<u8>,
    script: Vec<usize>,
    calls: usize,
}

impl Scripted {
    fn allowance(&mut self) -> std::io::Result<usize> {
        let step = self.script[self.calls % self.script.len()];
        self.calls += 1;
        if step.is_multiple_of(4) && !self.calls.is_multiple_of(2) {
            Err(std::io::ErrorKind::WouldBlock.into())
        } else {
            Ok(step)
        }
    }
}

impl std::io::Write for Scripted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let n = self.allowance()?.min(buf.len());
        self.out.extend_from_slice(&buf[..n]);
        Ok(n)
    }
    fn write_vectored(&mut self, bufs: &[std::io::IoSlice<'_>]) -> std::io::Result<usize> {
        let mut left = self.allowance()?;
        let before = self.out.len();
        for b in bufs {
            let n = left.min(b.len());
            self.out.extend_from_slice(&b[..n]);
            left -= n;
        }
        Ok(self.out.len() - before)
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn arb_trace() -> impl Strategy<Value = TraceContext> {
    (any::<u64>(), any::<u64>()).prop_map(|(t, p)| TraceContext::sampled(t, p))
}
