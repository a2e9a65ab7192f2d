//! Stream codec: incremental decoding into recycled receive windows,
//! vectored writes, and blocking helpers.

use std::io::{self, IoSlice, Read, Write};
use std::mem;

use bytes::{Bytes, BytesMut};

use crate::msg::MAX_PAYLOAD;
use crate::{DecodeError, Header, Msg, HEADER_LEN};

/// Read room of a decoder's first receive window. Every read that fills
/// all the room it was offered doubles the room of the windows after
/// it, up to the caller's `max_chunk`, so a link that only ever carries
/// a trickle never holds a full-size window.
const FIRST_WINDOW: usize = 4096;

/// Incremental decoder for a byte stream carrying back-to-back messages.
///
/// Read into it with [`Decoder::read_from`] (or hand it bytes with
/// [`Decoder::feed`]) and drain complete messages with
/// [`Decoder::next_msg`]. Messages are extracted zero-copy: the payload
/// of a yielded [`Msg`] is a slice of the receive window its bytes were
/// read into.
///
/// A window is fully initialised memory, zero-filled once when it is
/// allocated or grown. Reads extend it in place until a message is
/// sliced out of it; from then on it is read-only, and the next read
/// goes to another window behind a copy of the unparsed rest of the
/// stream — less than one frame, and the only copy between the socket
/// and the payload. A retired window is reused once the last message
/// slicing it has been dropped, so in steady state no read zero-fills
/// anything. Besides its current window a decoder keeps at most one
/// retired window, the spare.
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
#[derive(Debug)]
pub struct Decoder {
    /// The current window while no message slices it; reads extend it
    /// in place. Empty while `frozen` holds the window.
    window: BytesMut,
    /// The current window once a message has been sliced out of it.
    /// The handle covers the whole window, so its uniqueness says that
    /// every message has let go of it.
    frozen: Option<Bytes>,
    /// Start of the unparsed bytes in the current window.
    head: usize,
    /// End of the received bytes in the current window.
    filled: usize,
    /// A retired window, reused once nothing else references it.
    spare: Option<Bytes>,
    /// Read room a new window is sized for.
    room: usize,
}

impl Default for Decoder {
    fn default() -> Self {
        Self {
            window: BytesMut::new(),
            frozen: None,
            head: 0,
            filled: 0,
            spare: None,
            room: FIRST_WINDOW,
        }
    }
}

impl Decoder {
    /// Creates an empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a chunk of stream bytes to the decode buffer.
    pub fn feed(&mut self, mut chunk: &[u8]) {
        while !chunk.is_empty() {
            let buf = self.writable(chunk.len());
            let n = buf.len();
            buf.copy_from_slice(&chunk[..n]);
            self.filled += n;
            chunk = &chunk[n..];
        }
    }

    /// Number of bytes buffered but not yet consumed by a complete message.
    pub fn pending(&self) -> usize {
        self.filled - self.head
    }

    /// Bytes of window memory the decoder holds: its current window and
    /// its spare. What a memory bound is asserted against.
    #[doc(hidden)]
    pub fn window_bytes(&self) -> usize {
        self.window.capacity()
            + self.frozen.as_ref().map_or(0, Bytes::len)
            + self.spare.as_ref().map_or(0, Bytes::len)
    }

    /// Reads from `r` into the decoder: one `read` call of at most
    /// `max_chunk` bytes. Drain with [`Decoder::next_msg`].
    ///
    /// The bytes land right behind the unparsed ones. A frame longer
    /// than the window grows it geometrically, so memory follows the
    /// bytes that have *arrived*, never the length a header declares,
    /// and each byte is copied O(1) times.
    ///
    /// Returns the bytes read; `Ok(0)` means end of stream.
    ///
    /// # Errors
    ///
    /// Propagates the reader's error with the decoder intact, so
    /// retrying after `WouldBlock`, `TimedOut` or `Interrupted` is fine.
    /// A buffered header that declares more than the maximum payload, or
    /// is otherwise malformed, surfaces as `InvalidData` before anything
    /// is read behind it.
    pub fn read_from<R: Read>(&mut self, r: &mut R, max_chunk: usize) -> io::Result<usize> {
        self.front_header()
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let buf = self.writable(max_chunk.max(1));
        let offered = buf.len();
        let n = r.read(buf)?;
        self.filled += n;
        if n == offered {
            // More may be waiting: later windows offer more.
            self.room = (2 * self.room).min(max_chunk.max(FIRST_WINDOW));
        }
        Ok(n)
    }

    /// The window memory the next read fills: up to `max` bytes right
    /// behind the received ones, in a window no message slices.
    fn writable(&mut self, max: usize) -> &mut [u8] {
        if let Some(retired) = self.frozen.take() {
            self.window = self.carry(retired);
        }
        if self.filled == self.window.len() {
            // Full of bytes that have arrived: a frame longer than the
            // window (or the first read) grows it.
            let len = (2 * self.window.len()).max(self.room);
            self.window.resize(len, 0);
        }
        let end = self.window.len().min(self.filled + max);
        &mut self.window[self.filled..end]
    }

    /// Moves the unparsed bytes of the frozen window `retired` to the
    /// front of a writable one: `retired` itself when no message slices
    /// it any more, else the spare when that has come free, else a new
    /// window. The spare is the older of the two retired windows, so it
    /// is kept while busy — its messages leave the queues first.
    fn carry(&mut self, retired: Bytes) -> BytesMut {
        fn fit(buf: &mut BytesMut, len: usize) {
            if buf.len() < len {
                buf.resize(len, 0);
            }
        }
        let (head, filled) = (self.head, self.filled);
        let carry = filled - head;
        let need = carry + self.room;
        (self.head, self.filled) = (0, carry);
        match retired.try_into_mut() {
            Ok(mut buf) => {
                buf.copy_within(head..filled, 0);
                fit(&mut buf, need);
                buf
            }
            Err(retired) => {
                let (mut buf, keep_retired) = match self.spare.take().map(Bytes::try_into_mut) {
                    Some(Ok(free)) => (free, true),
                    Some(Err(busy)) => {
                        self.spare = Some(busy);
                        (BytesMut::new(), false)
                    }
                    None => (BytesMut::new(), true),
                };
                fit(&mut buf, need);
                buf[..carry].copy_from_slice(&retired[head..filled]);
                if keep_retired {
                    self.spare = Some(retired);
                }
                buf
            }
        }
    }

    /// The header at the front of the unparsed bytes, once all of it has
    /// arrived.
    #[inline]
    fn front_header(&self) -> Result<Option<Header>, DecodeError> {
        let window: &[u8] = match &self.frozen {
            Some(frozen) => frozen,
            None => &self.window,
        };
        let unparsed = &window[self.head..self.filled];
        if unparsed.len() < HEADER_LEN {
            return Ok(None);
        }
        let header = Header::decode(unparsed)?;
        let declared = header.payload_len() as usize;
        if declared > MAX_PAYLOAD {
            return Err(DecodeError::PayloadTooLarge {
                declared,
                max: MAX_PAYLOAD,
            });
        }
        Ok(Some(header))
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
    #[inline]
    pub fn next_msg(&mut self) -> Result<Option<Msg>, DecodeError> {
        let Some(header) = self.front_header()? else {
            return Ok(None);
        };
        let start = self.head + HEADER_LEN;
        let end = start + header.payload_len() as usize;
        if end > self.filled {
            return Ok(None);
        }
        let window = self
            .frozen
            .get_or_insert_with(|| mem::take(&mut self.window).freeze());
        let region = window.slice(start..end);
        self.head = end;
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
/// [`MAX_WRITE_IOSLICES`] of them). DESIGN.md §6 has the measurement
/// that set it.
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

    /// A reader that hands out at most `max` bytes per call, so frames
    /// arrive in pieces and straddle windows.
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
        // Frames shorter and longer than a window, interleaved, so some
        // are carried into a new window and some grow the one they
        // arrived in.
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
        // read_from may leave a frame half-arrived; feed() must finish
        // it (mixed call styles stay coherent).
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

    /// The wire image of a header declaring a `declared`-byte payload.
    fn header_declaring(declared: u32) -> Vec<u8> {
        let mut wire = sample(0, 0).encode();
        wire[20..24].copy_from_slice(&declared.to_be_bytes());
        wire
    }

    #[test]
    fn read_from_rejects_poisoned_length() {
        for declared in [MAX_PAYLOAD as u32 + 1, u32::MAX] {
            let mut wire = header_declaring(declared);
            wire.extend_from_slice(&[0u8; 100]);
            let mut dec = Decoder::new();
            let mut r = std::io::Cursor::new(&wire);
            // The first call buffers the header; next_msg and any
            // further read trip on it, and nothing was reserved for it.
            dec.read_from(&mut r, 30).unwrap();
            assert!(matches!(
                dec.next_msg(),
                Err(DecodeError::PayloadTooLarge { .. })
            ));
            let err = dec.read_from(&mut r, 30).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(dec.window_bytes() <= FIRST_WINDOW, "{declared}");
        }
    }

    #[test]
    fn a_header_alone_does_not_make_the_decoder_hold_the_declared_length() {
        const MAX_CHUNK: usize = 64 * 1024;
        let mut wire = header_declaring((MAX_PAYLOAD - 1) as u32);
        wire.extend_from_slice(&[7u8; 10]);
        let mut r = std::io::Cursor::new(&wire);
        let mut dec = Decoder::new();
        while dec.read_from(&mut r, MAX_CHUNK).unwrap() > 0 {}
        assert!(dec.next_msg().unwrap().is_none(), "the frame is incomplete");
        assert_eq!(dec.pending(), HEADER_LEN + 10);
        assert!(
            dec.window_bytes() <= MAX_CHUNK + 4096,
            "34 bytes of a 16 MiB frame hold {} bytes",
            dec.window_bytes()
        );
    }

    #[test]
    #[cfg_attr(miri, ignore = "a 16 MiB frame in 32 Ki reads is too slow under miri")]
    fn a_long_frame_in_small_reads_decodes_in_linear_time() {
        let msg = sample(1, MAX_PAYLOAD - 1);
        let wire = msg.encode();
        let mut r = Dribble {
            inner: std::io::Cursor::new(&wire),
            max: 512,
        };
        let mut dec = Decoder::new();
        let mut out = Vec::new();
        let started = std::time::Instant::now();
        while dec.read_from(&mut r, 64 * 1024).unwrap() > 0 {
            drain(&mut dec, &mut out);
        }
        let took = started.elapsed();
        assert!(out == [msg], "the frame decodes whole");
        // Copying the partial frame again on every read would move
        // about 17 GB here.
        assert!(took < std::time::Duration::from_secs(10), "took {took:?}");
        assert!(
            dec.window_bytes() <= 2 * 2 * wire.len(),
            "{}",
            dec.window_bytes()
        );
    }

    #[test]
    fn a_window_is_reused_once_its_messages_are_dropped() {
        let round: Vec<u8> = (0..8).flat_map(|i| sample(i, 100).encode()).collect();
        let mut r = std::io::Cursor::new(round.repeat(4));
        let mut dec = Decoder::new();
        let mut read_round = |dec: &mut Decoder| {
            assert_eq!(dec.read_from(&mut r, round.len()).unwrap(), round.len());
            let mut out = Vec::new();
            drain(dec, &mut out);
            assert_eq!(out.len(), 8);
            out
        };
        let first = read_round(&mut dec);
        let base = first[0].payload().as_ptr();
        drop(first);
        let held = read_round(&mut dec);
        assert_eq!(
            held[0].payload().as_ptr(),
            base,
            "the free window is reused"
        );
        let bytes = dec.window_bytes();
        // A window still sliced by live messages is never written: the
        // next read goes to a new one, and the held payloads stay put.
        let next = read_round(&mut dec);
        assert_ne!(next[0].payload().as_ptr(), base);
        assert!(held.iter().all(|m| m.payload()[..] == [m.seq() as u8; 100]));
        assert_eq!(
            dec.window_bytes(),
            2 * bytes,
            "current window plus the spare"
        );
        let next_base = next[0].payload().as_ptr();
        drop((held, next));
        let last = read_round(&mut dec);
        assert_eq!(last[0].payload().as_ptr(), next_base);
        assert_eq!(dec.window_bytes(), 2 * bytes);
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
