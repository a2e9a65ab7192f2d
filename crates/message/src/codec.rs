//! Stream codec: incremental decoding, vectored I/O, and blocking helpers.

use std::io::{self, IoSlice, IoSliceMut, Read, Write};

use bytes::{Buf, Bytes, BytesMut};

use crate::msg::MAX_PAYLOAD;
use crate::{DecodeError, Header, Msg, HEADER_LEN};

/// Declared payload size at or above which [`Decoder::read_from`] /
/// [`Decoder::read_available`] switch a frame to the direct path: the
/// payload gets its own exact-size buffer filled by `readv` alongside
/// the header buffer, and the finished frame freezes that buffer into
/// the message — no buffer-to-buffer copy between the socket and the
/// payload `Bytes`. Below this size frames stay on the shared-chunk
/// path, where the payload is a zero-copy slice of the read buffer:
/// entering direct mode there would cost more (per-frame buffer, carry
/// copy) than it saves, so the threshold sits above typical coded-frame
/// sizes.
const DIRECT_MIN: usize = 4096;

/// A large in-flight frame being read directly into its own payload
/// buffer (header already parsed and consumed from the stream buffer).
#[derive(Debug)]
struct DirectPayload {
    header: Header,
    /// Exact-size payload-region buffer; `..filled` is valid.
    buf: BytesMut,
    filled: usize,
}

/// Incremental decoder for a byte stream carrying back-to-back messages.
///
/// Feed arbitrary chunks with [`Decoder::feed`] and drain complete
/// messages with [`Decoder::next_msg`]. Messages are extracted zero-copy:
/// the payload of a yielded [`Msg`] references the decoder's internal
/// buffer rather than a fresh allocation.
///
/// # Example
///
/// ```
/// use ioverlay_message::{Decoder, Msg, MsgType, NodeId};
///
/// let a = Msg::data(NodeId::loopback(1), 0, 0, &b"aa"[..]);
/// let b = Msg::data(NodeId::loopback(1), 0, 1, &b"bb"[..]);
/// let mut wire = a.encode();
/// wire.extend_from_slice(&b.encode());
///
/// let mut dec = Decoder::new();
/// dec.feed(&wire[..10]); // partial chunk
/// assert!(dec.next_msg()?.is_none());
/// dec.feed(&wire[10..]);
/// assert_eq!(dec.next_msg()?, Some(a));
/// assert_eq!(dec.next_msg()?, Some(b));
/// assert!(dec.next_msg()?.is_none());
/// # Ok::<(), ioverlay_message::DecodeError>(())
/// ```
#[derive(Debug, Default)]
pub struct Decoder {
    /// Frozen front of the stream. Complete frames are parsed straight
    /// out of this buffer: each payload is a reference-counted slice of
    /// it, so draining a read's worth of messages costs zero payload
    /// copies — every payload in the chunk shares one allocation.
    chunk: Bytes,
    /// Mutable staging tail, strictly after `chunk` in stream order.
    /// `feed` and `read_from` append here; bytes move into `chunk` via
    /// [`Decoder::promote`] when parsing needs them.
    tail: BytesMut,
    /// Large frame currently reading straight into its payload buffer
    /// (only entered through the reader helpers). While incomplete, it
    /// is strictly ahead of `chunk` in stream order.
    direct: Option<DirectPayload>,
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk of stream bytes to the decode buffer.
    pub fn feed(&mut self, chunk: &[u8]) {
        let mut chunk = chunk;
        if let Some(d) = &mut self.direct {
            let need = d.buf.len() - d.filled;
            if need > 0 {
                let take = need.min(chunk.len());
                d.buf[d.filled..d.filled + take].copy_from_slice(&chunk[..take]);
                d.filled += take;
                chunk = &chunk[take..];
            }
        }
        self.tail.extend_from_slice(chunk);
    }

    /// Number of bytes buffered but not yet consumed by a complete message.
    pub fn pending(&self) -> usize {
        self.chunk.len() + self.tail.len() + self.direct.as_ref().map_or(0, |d| d.filled)
    }

    /// Moves staged `tail` bytes into the parseable `chunk`. When the
    /// chunk is fully consumed this is a zero-copy freeze; otherwise the
    /// partial-frame leftover is merged with the tail in one copy.
    /// Callers only promote once the bytes are actually needed to parse
    /// a complete header or frame, so a byte is merge-copied O(1) times
    /// rather than once per `next_msg` poll.
    fn promote(&mut self) {
        if self.tail.is_empty() {
            return;
        }
        if self.chunk.is_empty() {
            self.chunk = std::mem::take(&mut self.tail).freeze();
        } else {
            let mut merged = Vec::with_capacity(self.chunk.len() + self.tail.len());
            merged.extend_from_slice(&self.chunk);
            merged.extend_from_slice(&self.tail);
            self.tail.clear();
            self.chunk = Bytes::from(merged);
        }
    }

    /// Reads from `r` straight into the decoder, at most `max_chunk`
    /// bytes into the stream buffer per call. When a buffered header
    /// declares a large (≥ 512 byte) payload that has not fully
    /// arrived, the payload gets its own exact-size buffer and the read
    /// becomes one vectored `readv` over `[payload tail, stream
    /// buffer]` — the payload lands in the buffer that the decoded
    /// [`Msg`] will reference, skipping the buffer-to-buffer copy of
    /// the `feed` path, while trailing bytes of the *next* frames
    /// gather into the stream buffer in the same syscall.
    ///
    /// Returns the total bytes read; `Ok(0)` means end of stream.
    /// Drain with [`Decoder::next_msg`] exactly as after `feed`.
    ///
    /// # Errors
    ///
    /// Propagates reader errors (the decoder's buffers stay consistent,
    /// so retrying after `WouldBlock`/`Interrupted` is fine) and
    /// surfaces a malformed buffered header as `InvalidData`.
    pub fn read_from<R: Read>(&mut self, r: &mut R, max_chunk: usize) -> io::Result<usize> {
        self.try_enter_direct()?;
        let tail_start = self.tail.len();
        self.tail.resize(tail_start + max_chunk.max(1), 0);
        let read = match &mut self.direct {
            Some(d) if d.filled < d.buf.len() => {
                let mut iov = [
                    IoSliceMut::new(&mut d.buf[d.filled..]),
                    IoSliceMut::new(&mut self.tail[tail_start..]),
                ];
                r.read_vectored(&mut iov)
            }
            _ => r.read(&mut self.tail[tail_start..]),
        };
        match read {
            Ok(n) => {
                let into_direct = match &mut self.direct {
                    Some(d) if d.filled < d.buf.len() => {
                        let take = n.min(d.buf.len() - d.filled);
                        d.filled += take;
                        take
                    }
                    _ => 0,
                };
                self.tail.truncate(tail_start + (n - into_direct));
                Ok(n)
            }
            Err(e) => {
                self.tail.truncate(tail_start);
                Err(e)
            }
        }
    }

    /// Reads every byte `r` has ready, up to `max_chunk` stream-buffer
    /// bytes, without zero-initializing a receive window first. Where
    /// [`Decoder::read_from`] memsets `max_chunk` bytes per call before
    /// the `read` syscall, this gathers the unparsed leftover plus the
    /// fresh socket bytes into one new chunk via `Read::take(..)
    /// .read_to_end(..)`, which appends into spare `Vec` capacity
    /// without zeroing it.
    ///
    /// **Requires a non-blocking reader**: the inner `read_to_end`
    /// loops until the limit, end of stream, or an error — on a
    /// blocking socket it would stall waiting for `max_chunk` bytes.
    /// A `WouldBlock` after some bytes arrived is success (`Ok(n)`);
    /// with nothing read it propagates, leaving the decoder untouched.
    /// `Ok(0)` means end of stream, as with `read_from`.
    ///
    /// # Errors
    ///
    /// Propagates reader errors and surfaces a malformed buffered
    /// header as `InvalidData`; the decoder stays consistent either
    /// way, so retrying after `WouldBlock` is fine.
    pub fn read_available<R: Read>(&mut self, r: &mut R, max_chunk: usize) -> io::Result<usize> {
        self.try_enter_direct()?;
        if let Some(d) = &mut self.direct {
            if d.filled < d.buf.len() {
                // The payload buffer already exists at exact size: read
                // straight into its unfilled region, no staging at all.
                let n = r.read(&mut d.buf[d.filled..])?;
                d.filled += n;
                return Ok(n);
            }
        }
        let carry = self.chunk.len() + self.tail.len();
        // Spare room past the limit so read_to_end's probe for EOF
        // never triggers a doubling realloc of the whole window.
        let mut fresh = Vec::with_capacity(carry + max_chunk.max(1) + 1024);
        fresh.extend_from_slice(&self.chunk);
        fresh.extend_from_slice(&self.tail);
        let result = (&mut *r).take(max_chunk.max(1) as u64).read_to_end(&mut fresh);
        let n = fresh.len() - carry;
        match result {
            // Nothing arrived: drop `fresh`, decoder state untouched.
            Err(e) if n == 0 => Err(e),
            Ok(_) if n == 0 => Ok(0),
            // Bytes before a WouldBlock/other error are still appended
            // to the buffer (documented `read_to_end` behavior), so any
            // partial read commits and reports success.
            _ => {
                self.tail.clear();
                self.chunk = Bytes::from(fresh);
                Ok(n)
            }
        }
    }

    /// If the buffered stream fronts a large frame whose payload region
    /// has not fully arrived, consume its header and switch that frame
    /// to the direct path. No-op for small or already-complete frames.
    fn try_enter_direct(&mut self) -> io::Result<()> {
        let avail = self.chunk.len() + self.tail.len();
        if self.direct.is_some() || avail < HEADER_LEN {
            return Ok(());
        }
        if self.chunk.len() < HEADER_LEN {
            self.promote();
        }
        let header = Header::decode(&self.chunk)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let declared = header.payload_len() as usize;
        if declared > MAX_PAYLOAD {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                DecodeError::PayloadTooLarge {
                    declared,
                    max: MAX_PAYLOAD,
                },
            ));
        }
        if declared < DIRECT_MIN || avail >= HEADER_LEN + declared {
            return Ok(());
        }
        self.promote();
        self.chunk.advance(HEADER_LEN);
        let have = self.chunk.len();
        let mut payload = BytesMut::with_capacity(declared);
        payload.resize(declared, 0);
        payload[..have].copy_from_slice(&self.chunk);
        self.chunk = Bytes::new();
        self.direct = Some(DirectPayload {
            header,
            buf: payload,
            filled: have,
        });
        Ok(())
    }

    /// Attempts to extract the next complete message.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeError::PayloadTooLarge`] or
    /// [`DecodeError::PortOutOfRange`] on malformed headers; the stream
    /// should be torn down in that case, since framing is lost.
    pub fn next_msg(&mut self) -> Result<Option<Msg>, DecodeError> {
        if let Some(d) = &self.direct {
            if d.filled < d.buf.len() {
                // The direct frame is ahead of everything in the stream
                // buffer; yielding buffered frames first would reorder.
                return Ok(None);
            }
            let d = self.direct.take().expect("just observed Some");
            return Msg::from_wire_parts(d.header, d.buf.freeze()).map(Some);
        }
        let avail = self.chunk.len() + self.tail.len();
        if avail < HEADER_LEN {
            return Ok(None);
        }
        if self.chunk.len() < HEADER_LEN {
            self.promote();
        }
        let header = Header::decode(&self.chunk)?;
        let declared = header.payload_len() as usize;
        if declared > MAX_PAYLOAD {
            return Err(DecodeError::PayloadTooLarge {
                declared,
                max: MAX_PAYLOAD,
            });
        }
        if avail < HEADER_LEN + declared {
            return Ok(None);
        }
        if self.chunk.len() < HEADER_LEN + declared {
            self.promote();
        }
        self.chunk.advance(HEADER_LEN);
        let region = self.chunk.split_to(declared);
        Msg::from_wire_parts(header, region).map(Some)
    }
}

/// Writes one message to a blocking writer.
///
/// This is the paper's sender-thread primitive: sender threads *"use
/// blocking ... send operations"* on persistent connections.
///
/// # Errors
///
/// Propagates any I/O error from the underlying writer. Note that a `&mut
/// W` can be passed for any `W: Write`.
pub fn write_msg<W: Write>(mut w: W, msg: &Msg) -> io::Result<()> {
    let (prefix, len) = msg.encode_prefix();
    w.write_all(&prefix[..len])?;
    w.write_all(msg.payload())?;
    Ok(())
}

/// Most gather segments offered to one vectored write.
const MAX_WRITE_IOSLICES: usize = 64;

/// Largest payload [`WireBatch::push`] copies behind its prefix instead
/// of giving it a gather segment of its own: the size up to which
/// copying the bytes costs less than a second `iovec` entry does (the
/// kernel walks, pins and checks every entry; a `writev` takes at most
/// [`MAX_WRITE_IOSLICES`] of them). The decode-side counterpart is
/// [`DIRECT_MIN`]. DESIGN.md §6 has the measurement that set it.
const COALESCE_MAX: usize = 1024;

/// One gather segment of a [`WireBatch`].
#[derive(Debug)]
enum Segment {
    /// `buf[start..end]`: prefixes and coalesced payloads, back to back.
    Staged { start: usize, end: usize },
    /// A payload above [`COALESCE_MAX`], held by reference count.
    Shared(Bytes),
}

/// A reusable staging area that turns a batch of messages into as few
/// socket writes as their sizes allow.
///
/// Each pushed message's prefix (header plus optional trace extension)
/// is encoded into one byte buffer shared by the whole batch. A payload
/// of at most 1 KiB is copied right behind its prefix, so a run of
/// small messages is one contiguous gather segment however many
/// messages it holds — 128 messages of 64 bytes are one 11 KB `write`.
/// A larger payload becomes a segment of its own, a cheap clone of the
/// message's [`Bytes`]: those bytes flow from the message's buffer to
/// the kernel directly and are never copied here. The mode is chosen
/// per message from its length alone.
///
/// [`WireBatch::write_to`] hands up to 64 segments at a time to
/// `writev`. A partial or failed write (e.g. `WouldBlock` on a
/// non-blocking socket) leaves the internal cursor at the first
/// unwritten byte, so calling `write_to` again resumes exactly where
/// the kernel stopped.
#[derive(Debug, Default)]
pub struct WireBatch {
    buf: Vec<u8>,
    segs: Vec<Segment>,
    msgs: usize,
    total: usize,
    /// Write cursor: next segment index and offset within it.
    seg: usize,
    off: usize,
    writes: usize,
}

impl WireBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all staged messages and resets the write cursor, keeping
    /// allocations for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.segs.clear();
        self.msgs = 0;
        self.total = 0;
        self.seg = 0;
        self.off = 0;
        self.writes = 0;
    }

    /// Stages one message: a small payload by copy behind its prefix, a
    /// large one by reference count.
    pub fn push(&mut self, msg: &Msg) {
        let start = self.buf.len();
        let (prefix, len) = msg.encode_prefix();
        self.buf.extend_from_slice(&prefix[..len]);
        let payload = msg.payload();
        let coalesce = payload.len() <= COALESCE_MAX;
        if coalesce {
            self.buf.extend_from_slice(payload);
        }
        let staged_end = self.buf.len();
        match self.segs.last_mut() {
            Some(Segment::Staged { end, .. }) if *end == start => *end = staged_end,
            _ => self.segs.push(Segment::Staged {
                start,
                end: staged_end,
            }),
        }
        if !coalesce {
            self.segs.push(Segment::Shared(payload.clone()));
        }
        self.msgs += 1;
        self.total += msg.wire_len();
    }

    /// Number of staged messages.
    pub fn msgs(&self) -> usize {
        self.msgs
    }

    /// Total wire bytes of the staged messages.
    pub fn wire_bytes(&self) -> usize {
        self.total
    }

    /// `true` when no messages are staged.
    pub fn is_empty(&self) -> bool {
        self.msgs == 0
    }

    /// How many `write` / `writev` calls have moved bytes of this batch
    /// since it was last cleared, across every [`WireBatch::write_to`]
    /// that resumed it.
    pub fn writes(&self) -> usize {
        self.writes
    }

    fn seg_slice(&self, i: usize) -> &[u8] {
        match &self.segs[i] {
            Segment::Staged { start, end } => &self.buf[*start..*end],
            Segment::Shared(payload) => payload,
        }
    }

    /// `true` while staged bytes remain unwritten. No segment is empty
    /// (each starts with a prefix or is a payload above the coalescing
    /// size), so the cursor is past the last one exactly then.
    pub fn has_remaining(&self) -> bool {
        self.seg < self.segs.len()
    }

    fn advance(&mut self, mut n: usize) {
        while n > 0 {
            let len = self.seg_slice(self.seg).len() - self.off;
            if n < len {
                self.off += n;
                return;
            }
            n -= len;
            self.seg += 1;
            self.off = 0;
        }
    }

    /// Writes every remaining staged byte, gathering up to 64 segments
    /// per `write_vectored` call (a single remaining segment goes out
    /// through plain `write`) and retrying `Interrupted` internally.
    ///
    /// # Errors
    ///
    /// Propagates the writer's error with the cursor parked at the
    /// first unwritten byte — `WouldBlock` callers re-invoke when the
    /// socket reports writable and the write resumes mid-stream.
    /// `Ok(0)` from the writer surfaces as `WriteZero`.
    pub fn write_to<W: Write>(&mut self, w: &mut W) -> io::Result<()> {
        while self.has_remaining() {
            let mut slices = [IoSlice::new(&[]); MAX_WRITE_IOSLICES];
            let mut n_slices = 0;
            let mut off = self.off;
            for seg in self.seg..self.segs.len().min(self.seg + MAX_WRITE_IOSLICES) {
                slices[n_slices] = IoSlice::new(&self.seg_slice(seg)[off..]);
                n_slices += 1;
                off = 0;
            }
            let wrote = if n_slices == 1 {
                w.write(&slices[0])
            } else {
                w.write_vectored(&slices[..n_slices])
            };
            match wrote {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes of a staged batch",
                    ))
                }
                Ok(n) => {
                    self.writes += 1;
                    self.advance(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Reads one complete message from a blocking reader.
///
/// This is the paper's receiver-thread primitive. Returns `Ok(None)` on a
/// clean end-of-stream at a message boundary.
///
/// # Errors
///
/// Returns `io::ErrorKind::UnexpectedEof` if the stream ends mid-message,
/// or `io::ErrorKind::InvalidData` wrapping a [`DecodeError`] if the
/// header is malformed. Note that a `&mut R` can be passed for any
/// `R: Read`.
pub fn read_msg<R: Read>(mut r: R) -> io::Result<Option<Msg>> {
    let mut header_buf = [0u8; HEADER_LEN];
    let mut filled = 0;
    while filled < HEADER_LEN {
        let n = r.read(&mut header_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "stream ended inside a message header",
            ));
        }
        filled += n;
    }
    let header =
        Header::decode(&header_buf).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let declared = header.payload_len() as usize;
    if declared > MAX_PAYLOAD {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            DecodeError::PayloadTooLarge {
                declared,
                max: MAX_PAYLOAD,
            },
        ));
    }
    let mut region = vec![0u8; declared];
    r.read_exact(&mut region)?;
    Msg::from_wire_parts(header, region.into())
        .map(Some)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;

    fn sample(seq: u32, len: usize) -> Msg {
        Msg::data(NodeId::loopback(9000), 1, seq, vec![seq as u8; len])
    }

    #[test]
    fn decoder_handles_byte_at_a_time_delivery() {
        let msgs: Vec<Msg> = (0..4).map(|i| sample(i, 33)).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        for b in wire {
            dec.feed(&[b]);
            while let Some(m) = dec.next_msg().unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn decoder_rejects_poisoned_length() {
        let mut wire = sample(0, 4).encode();
        wire[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut dec = Decoder::new();
        dec.feed(&wire);
        assert!(dec.next_msg().is_err());
    }

    #[test]
    fn io_roundtrip_over_a_cursor() {
        let msgs: Vec<Msg> = (0..3).map(|i| sample(i, 100)).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            write_msg(&mut wire, m).unwrap();
        }
        let mut cursor = std::io::Cursor::new(wire);
        for expect in &msgs {
            assert_eq!(read_msg(&mut cursor).unwrap().as_ref(), Some(expect));
        }
        assert_eq!(read_msg(&mut cursor).unwrap(), None);
    }

    #[test]
    fn read_msg_detects_mid_message_eof() {
        let wire = sample(0, 50).encode();
        let mut cursor = std::io::Cursor::new(&wire[..wire.len() - 10]);
        let err = read_msg(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn read_msg_detects_mid_header_eof() {
        let wire = sample(0, 0).encode();
        let mut cursor = std::io::Cursor::new(&wire[..HEADER_LEN / 2]);
        let err = read_msg(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn clean_eof_returns_none() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(read_msg(&mut cursor).unwrap(), None);
    }

    /// A reader that hands out at most `max` bytes per call (and only
    /// fills the first buffer of a vectored read), forcing the decoder
    /// through partial direct-payload fills.
    struct Dribble<R> {
        inner: R,
        max: usize,
    }

    impl<R: Read> Read for Dribble<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let cap = buf.len().min(self.max);
            self.inner.read(&mut buf[..cap])
        }
    }

    fn drain(dec: &mut Decoder, out: &mut Vec<Msg>) {
        while let Some(m) = dec.next_msg().unwrap() {
            out.push(m);
        }
    }

    #[test]
    fn read_from_decodes_a_mixed_stream() {
        // Small frames ride the buffered path, large ones the direct
        // path, interleaved so ordering across the mode switch matters.
        let msgs: Vec<Msg> = vec![
            sample(0, 16),
            sample(1, 4 * 1024),
            sample(2, 0),
            sample(3, 64 * 1024),
            sample(4, 700),
            sample(5, 33),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        for per_read in [7usize, 512, 4096, 1 << 20] {
            let mut r = Dribble {
                inner: std::io::Cursor::new(&wire),
                max: per_read,
            };
            let mut dec = Decoder::new();
            let mut out = Vec::new();
            loop {
                let n = dec.read_from(&mut r, 8 * 1024).unwrap();
                drain(&mut dec, &mut out);
                if n == 0 {
                    break;
                }
            }
            assert_eq!(out, msgs, "per_read={per_read}");
            assert_eq!(dec.pending(), 0);
        }
    }

    #[test]
    fn read_from_keeps_traced_frames_intact() {
        let ctx = crate::TraceContext::sampled(0xABCD, 42);
        let msgs: Vec<Msg> = vec![
            sample(0, 2048).with_trace(ctx),
            sample(1, 100),
            sample(2, 3000).with_trace(ctx),
        ];
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&m.encode());
        }
        let mut r = std::io::Cursor::new(&wire);
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        loop {
            let n = dec.read_from(&mut r, 1024).unwrap();
            drain(&mut dec, &mut out);
            if n == 0 {
                break;
            }
        }
        assert_eq!(out, msgs);
        assert_eq!(out[0].trace(), Some(ctx));
    }

    #[test]
    fn feed_completes_a_frame_entered_directly() {
        // read_from may leave a direct frame mid-fill; feed() must
        // finish it (mixed call styles stay coherent).
        let msg = sample(9, 5000);
        let wire = msg.encode();
        let mut r = Dribble {
            inner: std::io::Cursor::new(&wire[..1000]),
            max: 1000,
        };
        let mut dec = Decoder::new();
        while dec.read_from(&mut r, 256).unwrap() > 0 {}
        assert!(dec.next_msg().unwrap().is_none(), "frame is incomplete");
        dec.feed(&wire[1000..]);
        assert_eq!(dec.next_msg().unwrap(), Some(msg));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn read_from_rejects_poisoned_length() {
        let mut wire = sample(0, 4).encode();
        wire[20..24].copy_from_slice(&u32::MAX.to_be_bytes());
        let mut dec = Decoder::new();
        let mut r = std::io::Cursor::new(&wire);
        // First call buffers the header; a following call trips on it.
        let mut saw_err = false;
        for _ in 0..4 {
            match dec.read_from(&mut r, 16) {
                Ok(_) => {}
                Err(e) => {
                    assert_eq!(e.kind(), io::ErrorKind::InvalidData);
                    saw_err = true;
                    break;
                }
            }
        }
        assert!(saw_err || dec.next_msg().is_err());
    }

    #[test]
    fn wire_batch_writes_the_concatenated_encodings() {
        let ctx = crate::TraceContext::sampled(7, 7);
        let msgs: Vec<Msg> = vec![
            sample(0, 100),
            sample(1, 0),
            sample(2, 4096).with_trace(ctx),
            sample(3, 1),
        ];
        let mut expect = Vec::new();
        for m in &msgs {
            expect.extend_from_slice(&m.encode());
        }
        let mut batch = WireBatch::new();
        for m in &msgs {
            batch.push(m);
        }
        assert_eq!(batch.msgs(), msgs.len());
        assert_eq!(batch.wire_bytes(), expect.len());
        let mut out = Vec::new();
        batch.write_to(&mut out).unwrap();
        assert_eq!(out, expect);
        assert!(!batch.has_remaining());
        batch.clear();
        assert!(batch.is_empty());
        // The cleared batch is reusable.
        batch.push(&msgs[0]);
        let mut again = Vec::new();
        batch.write_to(&mut again).unwrap();
        assert_eq!(again, msgs[0].encode());
    }

    /// A writer that accepts a few bytes per call and fails with
    /// `WouldBlock` every other call — the non-blocking storm case.
    struct Choppy {
        out: Vec<u8>,
        calls: usize,
    }

    impl io::Write for Choppy {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(2) {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(3);
            self.out.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn wire_batch_resumes_after_would_block() {
        let msgs: Vec<Msg> = (0..3).map(|i| sample(i, 50 + i as usize * 37)).collect();
        let mut expect = Vec::new();
        for m in &msgs {
            expect.extend_from_slice(&m.encode());
        }
        let mut batch = WireBatch::new();
        for m in &msgs {
            batch.push(m);
        }
        let mut w = Choppy {
            out: Vec::new(),
            calls: 0,
        };
        while batch.has_remaining() {
            match batch.write_to(&mut w) {
                Ok(()) => break,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(w.out, expect);
    }

    /// A writer that counts the calls it gets and takes everything.
    #[derive(Default)]
    struct Counting {
        out: Vec<u8>,
        writes: usize,
        vectored: usize,
    }

    impl io::Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.out.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.vectored += 1;
            let before = self.out.len();
            for b in bufs {
                self.out.extend_from_slice(b);
            }
            Ok(self.out.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn small_messages_coalesce_into_one_segment_and_one_write() {
        let mut batch = WireBatch::new();
        let mut expect = Vec::new();
        for i in 0..128 {
            let m = sample(i, 64);
            expect.extend_from_slice(&m.encode());
            batch.push(&m);
        }
        assert_eq!(batch.segs.len(), 1, "128 x 64 B is one contiguous segment");
        assert_eq!(batch.seg_slice(0).len(), 128 * (HEADER_LEN + 64));
        let mut w = Counting::default();
        batch.write_to(&mut w).unwrap();
        assert_eq!((w.writes, w.vectored), (1, 0), "one plain write");
        assert_eq!(batch.writes(), 1);
        assert_eq!(w.out, expect);
    }

    #[test]
    fn large_payloads_are_gathered_by_reference_never_copied() {
        let big = sample(1, 16 * 1024);
        let edge = sample(2, COALESCE_MAX);
        let over = sample(3, COALESCE_MAX + 1);
        let mut batch = WireBatch::new();
        for m in [&sample(0, 10), &big, &edge, &over, &sample(4, 0)] {
            batch.push(m);
        }
        // small+prefix(big) | big | prefix+edge+prefix(over) | over | small
        assert_eq!(batch.segs.len(), 5);
        assert_eq!(batch.seg_slice(1).as_ptr(), big.payload().as_ptr());
        assert_eq!(batch.seg_slice(1).len(), 16 * 1024);
        assert_eq!(batch.seg_slice(3).as_ptr(), over.payload().as_ptr());
        assert_eq!(
            batch.seg_slice(2).len(),
            HEADER_LEN + COALESCE_MAX + HEADER_LEN,
            "a payload of exactly the constant is still copied"
        );
        let mut w = Counting::default();
        batch.write_to(&mut w).unwrap();
        assert_eq!((w.writes, w.vectored), (0, 1), "five segments, one writev");
    }

    #[test]
    fn more_segments_than_one_writev_takes_are_written_in_order() {
        // 40 large messages: 80 segments, two vectored calls.
        let msgs: Vec<Msg> = (0..40).map(|i| sample(i, 2048)).collect();
        let mut batch = WireBatch::new();
        let mut expect = Vec::new();
        for m in &msgs {
            batch.push(m);
            expect.extend_from_slice(&m.encode());
        }
        assert_eq!(batch.segs.len(), 80);
        let mut w = Counting::default();
        batch.write_to(&mut w).unwrap();
        assert_eq!(w.vectored, 2);
        assert_eq!(batch.writes(), 2);
        assert_eq!(w.out, expect);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut batch = WireBatch::new();
        for i in 0..64 {
            batch.push(&sample(i, 64));
            batch.push(&sample(i, 4096));
        }
        let (buf_cap, seg_cap) = (batch.buf.capacity(), batch.segs.capacity());
        let buf_ptr = batch.buf.as_ptr();
        batch.clear();
        assert!(batch.is_empty() && !batch.has_remaining());
        assert_eq!(batch.writes(), 0);
        for i in 0..64 {
            batch.push(&sample(i, 64));
            batch.push(&sample(i, 4096));
        }
        assert_eq!((batch.buf.capacity(), batch.segs.capacity()), (buf_cap, seg_cap));
        assert_eq!(batch.buf.as_ptr(), buf_ptr, "the staging buffer is reused");
    }

    #[test]
    fn wire_batch_surfaces_write_zero() {
        struct Dead;
        impl io::Write for Dead {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut batch = WireBatch::new();
        batch.push(&sample(0, 10));
        let err = batch.write_to(&mut Dead).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
