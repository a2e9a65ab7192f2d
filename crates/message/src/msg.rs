//! The message type: header plus zero-copy payload.

use bytes::{Bytes, BytesMut};

use crate::trace::{self, TraceContext, EXT_FLAG, TRACE_EXT_WIRE_LEN};
use crate::{DecodeError, Header, MsgType, NodeId, HEADER_LEN};

/// Default upper bound on payload size accepted by decoders (16 MiB).
///
/// The paper's messages carry *"application data (or payload) of a maximum
/// (but not necessarily fixed) length"*; this cap protects the engine from
/// a corrupted or hostile length field.
pub(crate) const MAX_PAYLOAD: usize = 16 << 20;

/// Size of the largest pre-payload wire prefix a message can have: the
/// fixed header plus the optional trace extension region. Vectored
/// senders stage one prefix buffer of this size per message.
pub const MAX_PREFIX_LEN: usize = HEADER_LEN + TRACE_EXT_WIRE_LEN;

/// An application-layer message: a 24-byte [`Header`] and a payload.
///
/// Cloning a `Msg` is cheap: the payload lives in a [`Bytes`] buffer whose
/// clone is a reference-count increment, which is how this reproduction
/// realizes the paper's *"zero copying of messages"* — references flow
/// from the incoming socket all the way to the outgoing sockets, and the
/// engine never deep-copies a data payload.
///
/// # Example
///
/// ```
/// use ioverlay_message::{Msg, MsgType, NodeId};
///
/// let origin = NodeId::loopback(9000);
/// let msg = Msg::new(MsgType::SQuery, origin, 1, 0, &b"join?"[..]);
/// let copy = msg.clone(); // reference-count bump, no payload copy
/// assert_eq!(copy.payload(), msg.payload());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    header: Header,
    payload: Bytes,
    /// Sampled tracing state, carried on the wire in an optional header
    /// extension (see [`crate::TraceContext`]). `None` for untraced
    /// messages — the common case — whose wire image is byte-identical
    /// to the pre-extension format.
    trace: Option<TraceContext>,
}

impl Msg {
    /// Creates a message of the given type.
    ///
    /// The payload may be anything convertible into [`Bytes`]: a `&'static
    /// [u8]`, a `Vec<u8>`, or another `Bytes` (zero-copy).
    pub fn new(
        ty: MsgType,
        origin: NodeId,
        app: u32,
        seq: u32,
        payload: impl Into<Bytes>,
    ) -> Self {
        let payload = payload.into();
        let len = u32::try_from(payload.len()).expect("payload fits in u32");
        Self {
            header: Header::new(ty, origin, app, seq, len),
            payload,
            trace: None,
        }
    }

    /// Convenience constructor for a `data` message.
    pub fn data(origin: NodeId, app: u32, seq: u32, payload: impl Into<Bytes>) -> Self {
        Self::new(MsgType::Data, origin, app, seq, payload)
    }

    /// Convenience constructor for a payload-less control message.
    pub fn control(ty: MsgType, origin: NodeId, app: u32) -> Self {
        Self::new(ty, origin, app, 0, Bytes::new())
    }

    /// The message header.
    pub fn header(&self) -> &Header {
        &self.header
    }

    /// The message type.
    pub fn ty(&self) -> MsgType {
        self.header.ty()
    }

    /// The original sender.
    pub fn origin(&self) -> NodeId {
        self.header.origin()
    }

    /// The application (session) identifier.
    pub fn app(&self) -> u32 {
        self.header.app()
    }

    /// The sequence number.
    pub fn seq(&self) -> u32 {
        self.header.seq()
    }

    /// Rewrites the sequence number — the single mutable header field.
    pub fn set_seq(&mut self, seq: u32) {
        self.header.set_seq(seq);
    }

    /// The payload bytes.
    pub fn payload(&self) -> &Bytes {
        &self.payload
    }

    /// The attached trace context, if this message is being traced.
    pub fn trace(&self) -> Option<TraceContext> {
        self.trace
    }

    /// Attaches, rewrites, or clears the trace context. Receivers use
    /// this to rewrite `parent_span` to their own span id before the
    /// message is forwarded.
    pub fn set_trace(&mut self, trace: Option<TraceContext>) {
        self.trace = trace;
    }

    /// Builder-style [`Msg::set_trace`].
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Total size of the message on the wire: header, the trace
    /// extension region when a context is attached, and the payload.
    pub fn wire_len(&self) -> usize {
        let ext = if self.trace.is_some() {
            TRACE_EXT_WIRE_LEN
        } else {
            0
        };
        HEADER_LEN + ext + self.payload.len()
    }

    /// Returns a copy of this message with a different type but the same
    /// origin, application, sequence number, and (zero-copy) payload.
    ///
    /// This supports the paper's rule that an algorithm must *clone*
    /// non-`data` messages before re-sending them.
    pub fn with_ty(&self, ty: MsgType) -> Self {
        Self {
            header: Header::new(
                ty,
                self.header.origin(),
                self.header.app(),
                self.header.seq(),
                self.header.payload_len(),
            ),
            payload: self.payload.clone(),
            trace: self.trace,
        }
    }

    /// Returns a copy of this message re-originated at `origin`.
    pub fn with_origin(&self, origin: NodeId) -> Self {
        Self {
            header: Header::new(
                self.header.ty(),
                origin,
                self.header.app(),
                self.header.seq(),
                self.header.payload_len(),
            ),
            payload: self.payload.clone(),
            trace: self.trace,
        }
    }

    /// Encodes the wire bytes that precede the payload: the 24-byte
    /// header, plus the trace extension region (with the type word's
    /// extension bit set and `payload_len` grown to cover it) when a
    /// trace context is attached. Returns the buffer and the number of
    /// valid bytes in it.
    ///
    /// Together with [`Msg::payload`] this is the gather list of one
    /// message: a vectored sender can hand `(prefix, payload)` straight
    /// to `writev` without copying the payload into a staging buffer
    /// (see [`crate::WireBatch`]).
    pub fn encode_prefix(&self) -> ([u8; MAX_PREFIX_LEN], usize) {
        let mut out = [0u8; HEADER_LEN + TRACE_EXT_WIRE_LEN];
        match self.trace {
            None => {
                out[..HEADER_LEN].copy_from_slice(&self.header.encode());
                (out, HEADER_LEN)
            }
            Some(ctx) => {
                let ext = ctx.encode_ext();
                let declared = u32::try_from(ext.len() + self.payload.len())
                    .expect("payload fits in u32");
                let header = Header::new(
                    self.header.ty(),
                    self.header.origin(),
                    self.header.app(),
                    self.header.seq(),
                    declared,
                );
                let mut head = header.encode();
                let word = u32::from_be_bytes([head[0], head[1], head[2], head[3]]) | EXT_FLAG;
                head[0..4].copy_from_slice(&word.to_be_bytes());
                out[..HEADER_LEN].copy_from_slice(&head);
                out[HEADER_LEN..HEADER_LEN + ext.len()].copy_from_slice(&ext);
                (out, HEADER_LEN + ext.len())
            }
        }
    }

    /// Encodes the message into a freshly allocated wire buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_len());
        let (prefix, len) = self.encode_prefix();
        out.extend_from_slice(&prefix[..len]);
        out.extend_from_slice(&self.payload);
        out
    }

    /// Encodes the message by appending to a caller-provided buffer, so
    /// a sender can pack a whole batch into one reused allocation — and
    /// hence one socket write — without a per-message `Vec`.
    pub fn encode_into(&self, out: &mut BytesMut) {
        out.reserve(self.wire_len());
        let (prefix, len) = self.encode_prefix();
        out.extend_from_slice(&prefix[..len]);
        out.extend_from_slice(&self.payload);
    }

    /// Decodes a message from a buffer containing exactly one message.
    ///
    /// Use [`crate::Decoder`] to parse a byte *stream* that may hold
    /// partial or multiple messages.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] if the header is truncated or malformed,
    /// the declared payload exceeds the bytes available, or the declared
    /// payload exceeds the 16 MiB safety cap.
    pub fn decode(buf: &[u8]) -> Result<Self, DecodeError> {
        let header = Header::decode(buf)?;
        let declared = header.payload_len() as usize;
        if declared > MAX_PAYLOAD {
            return Err(DecodeError::PayloadTooLarge {
                declared,
                max: MAX_PAYLOAD,
            });
        }
        let available = buf.len() - HEADER_LEN;
        if available < declared {
            return Err(DecodeError::TruncatedPayload {
                declared,
                available,
            });
        }
        Self::from_wire_parts(
            header,
            Bytes::copy_from_slice(&buf[HEADER_LEN..HEADER_LEN + declared]),
        )
    }

    /// Builds a message from a decoded header and the (zero-copy) bytes
    /// of its declared payload area, extracting the trace extension
    /// region when the type word carries the extension flag.
    ///
    /// `region` must be exactly `header.payload_len()` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::InvalidPayload`] when the extension flag
    /// is set but the extension region is malformed.
    #[inline]
    pub(crate) fn from_wire_parts(header: Header, region: Bytes) -> Result<Self, DecodeError> {
        let flagged = match header.ty() {
            MsgType::Custom(word) => trace::ext_type_word(word),
            _ => None,
        };
        match flagged {
            None => Ok(Self {
                header,
                payload: region,
                trace: None,
            }),
            Some(word) => {
                let (ctx, consumed) = TraceContext::decode_ext(&region)?;
                let payload = region.slice(consumed..region.len());
                let ty = MsgType::from_wire(word & !EXT_FLAG);
                let mut msg = Self::new(ty, header.origin(), header.app(), header.seq(), payload);
                msg.trace = ctx;
                Ok(msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn origin() -> NodeId {
        NodeId::loopback(9000)
    }

    #[test]
    fn encode_decode_roundtrip() {
        let msg = Msg::new(MsgType::Data, origin(), 5, 17, &b"payload bytes"[..]);
        let back = Msg::decode(&msg.encode()).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn empty_payload_roundtrip() {
        let msg = Msg::control(MsgType::Boot, origin(), 0);
        assert_eq!(msg.wire_len(), HEADER_LEN);
        assert_eq!(Msg::decode(&msg.encode()).unwrap(), msg);
    }

    #[test]
    fn encode_into_matches_encode_and_appends() {
        let a = Msg::new(MsgType::Data, origin(), 5, 17, &b"first"[..]);
        let b = Msg::control(MsgType::Boot, origin(), 0);
        let mut buf = BytesMut::new();
        a.encode_into(&mut buf);
        b.encode_into(&mut buf);
        let mut expect = a.encode();
        expect.extend_from_slice(&b.encode());
        assert_eq!(&buf[..], &expect[..]);
    }

    #[test]
    fn clone_shares_payload_storage() {
        let msg = Msg::data(origin(), 1, 0, vec![7u8; 4096]);
        let copy = msg.clone();
        // Bytes clones share the same backing allocation.
        assert_eq!(msg.payload().as_ptr(), copy.payload().as_ptr());
    }

    #[test]
    fn with_ty_preserves_everything_else() {
        let msg = Msg::new(MsgType::SQuery, origin(), 2, 3, &b"q"[..]);
        let ack = msg.with_ty(MsgType::SQueryAck);
        assert_eq!(ack.ty(), MsgType::SQueryAck);
        assert_eq!(ack.origin(), msg.origin());
        assert_eq!(ack.app(), msg.app());
        assert_eq!(ack.seq(), msg.seq());
        assert_eq!(ack.payload(), msg.payload());
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let msg = Msg::data(origin(), 1, 0, vec![0u8; 100]);
        let wire = msg.encode();
        assert!(matches!(
            Msg::decode(&wire[..wire.len() - 1]),
            Err(DecodeError::TruncatedPayload { declared: 100, available: 99 })
        ));
    }

    #[test]
    fn decode_rejects_giant_declared_payload() {
        let msg = Msg::control(MsgType::Data, origin(), 0);
        let mut wire = msg.encode();
        wire[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            Msg::decode(&wire),
            Err(DecodeError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn msg_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Msg>();
    }

    #[test]
    fn traced_message_roundtrips_with_context() {
        let ctx = TraceContext::sampled(0x1234_5678_9ABC_DEF0, 77);
        let msg = Msg::data(origin(), 3, 9, &b"traced payload"[..]).with_trace(ctx);
        assert_eq!(msg.wire_len(), HEADER_LEN + TRACE_EXT_WIRE_LEN + 14);
        let back = Msg::decode(&msg.encode()).unwrap();
        assert_eq!(back.trace(), Some(ctx));
        assert_eq!(back.ty(), MsgType::Data);
        assert_eq!(back.payload(), msg.payload());
        assert_eq!(back, msg);
    }

    #[test]
    fn traced_wire_image_reads_as_opaque_custom_for_legacy_headers() {
        // A decoder that predates the extension sees the flagged type
        // word as an unknown Custom type with an opaque payload — the
        // framing (payload_len covers ext + payload) keeps it in sync.
        let msg = Msg::data(origin(), 1, 2, &b"data"[..]).with_trace(TraceContext::sampled(5, 0));
        let wire = msg.encode();
        let header = Header::decode(&wire).unwrap();
        assert!(matches!(header.ty(), MsgType::Custom(w) if w & 0x8000_0000 != 0));
        assert_eq!(header.payload_len() as usize, TRACE_EXT_WIRE_LEN + 4);
        assert_eq!(wire.len(), HEADER_LEN + header.payload_len() as usize);
    }

    #[test]
    fn clearing_trace_restores_plain_wire_image() {
        let plain = Msg::data(origin(), 1, 2, &b"data"[..]);
        let mut traced = plain.clone().with_trace(TraceContext::sampled(5, 6));
        traced.set_trace(None);
        assert_eq!(traced.encode(), plain.encode());
    }

    #[test]
    fn malformed_extension_region_is_rejected() {
        let msg = Msg::data(origin(), 1, 2, &b"data"[..]).with_trace(TraceContext::sampled(5, 6));
        let mut wire = msg.encode();
        // Corrupt the ext length prefix to overrun the declared payload.
        wire[HEADER_LEN..HEADER_LEN + 2].copy_from_slice(&u16::MAX.to_be_bytes());
        assert!(matches!(
            Msg::decode(&wire),
            Err(DecodeError::InvalidPayload(_))
        ));
    }
}
