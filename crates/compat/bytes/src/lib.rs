//! Offline compat shim for the `bytes` crate.
//!
//! Implements the subset of the API this workspace uses: [`Bytes`] is a
//! cheaply-cloneable, reference-counted immutable byte buffer (clones
//! share the backing allocation, which is what makes message forwarding
//! zero-copy), and [`BytesMut`] is a growable buffer with `advance` /
//! `split_to` / `freeze` for incremental stream decoding.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// Read-cursor trait over a contiguous byte container.
pub trait Buf {
    /// Bytes left between the cursor and the end of the buffer.
    fn remaining(&self) -> usize;
    /// The unread bytes.
    fn chunk(&self) -> &[u8];
    /// Advances the cursor by `cnt` bytes.
    fn advance(&mut self, cnt: usize);
    /// Whether any unread bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

/// A cheaply cloneable, immutable, reference-counted byte buffer.
///
/// Clones share the backing allocation: cloning is a reference-count
/// bump, never a deep copy. The backing store is `Arc<Vec<u8>>` rather
/// than `Arc<[u8]>` so that `From<Vec<u8>>` (and therefore
/// `BytesMut::freeze`) moves the vector behind the refcount without
/// copying a single payload byte — `Arc::<[u8]>::from(vec)` would
/// reallocate and copy, which on a message hot path is a second full
/// pass over every payload.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a buffer by copying `data`.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self::from(data.to_vec())
    }

    /// Creates a buffer from a static slice (copies; the real crate
    /// borrows, but the observable behavior is identical).
    pub fn from_static(data: &'static [u8]) -> Self {
        Self::copy_from_slice(data)
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns a slice of self for the provided range.
    #[inline]
    pub fn slice(&self, range: std::ops::Range<usize>) -> Bytes {
        assert!(range.start <= range.end && self.start + range.end <= self.end);
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len());
        let head = Bytes {
            data: Arc::clone(&self.data),
            start: self.start,
            end: self.start + at,
        };
        self.start += at;
        head
    }

    /// Converts `self` back into a [`BytesMut`] without copying, when
    /// it is the only handle to its allocation; otherwise hands `self`
    /// back unchanged. The result holds the bytes `self` viewed.
    ///
    /// This is how a stream reader recycles a receive buffer: it keeps
    /// one handle to the whole buffer, and once every message sliced
    /// from it has been dropped the handle is unique and the memory —
    /// already initialised — is writable again. Success implies every
    /// other handle has been dropped, on whichever thread, before this
    /// call (the reference count's release/acquire pair), so the reuse
    /// never races a reader.
    ///
    /// Same contract as the real crate's `Bytes::try_into_mut`.
    ///
    /// # Errors
    ///
    /// Returns `self` when another handle still shares the allocation.
    pub fn try_into_mut(self) -> Result<BytesMut, Bytes> {
        let Bytes { data, start, end } = self;
        match Arc::try_unwrap(data) {
            Ok(mut buf) => {
                buf.truncate(end);
                Ok(BytesMut { buf, start })
            }
            Err(data) => Err(Bytes { data, start, end }),
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len());
        self.start += cnt;
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            if (0x20..0x7f).contains(&b) && b != b'"' && b != b'\\' {
                write!(f, "{}", b as char)?;
            } else {
                write!(f, "\\x{b:02x}")?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state)
    }
}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self[..] == *other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self[..] == **other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        *self == other[..]
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            // Moves the vector behind the refcount; no byte copy.
            data: Arc::new(v),
            start: 0,
            end: len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(v: &'static [u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl From<String> for Bytes {
    fn from(v: String) -> Self {
        Self::from(v.into_bytes())
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Self::copy_from_slice(v.as_bytes())
    }
}

impl From<Box<[u8]>> for Bytes {
    fn from(v: Box<[u8]>) -> Self {
        Self::from(v.into_vec())
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<T: IntoIterator<Item = u8>>(iter: T) -> Self {
        Self::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A growable byte buffer with an internal read cursor.
///
/// `advance` consumes from the front without moving memory; the consumed
/// prefix is reclaimed lazily once it exceeds half the buffer, so a
/// long-lived stream decoder stays O(1) amortized per byte.
#[derive(Default)]
pub struct BytesMut {
    buf: Vec<u8>,
    start: usize,
}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty buffer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            buf: Vec::with_capacity(cap),
            start: 0,
        }
    }

    /// Length of the unread portion.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether the unread portion is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current capacity beyond the unread portion.
    pub fn capacity(&self) -> usize {
        self.buf.capacity() - self.start
    }

    /// Reserves space for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.compact();
        self.buf.reserve(additional);
    }

    /// Appends bytes to the buffer.
    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.maybe_compact();
        self.buf.extend_from_slice(extend);
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Appends a slice (BufMut-style alias for `extend_from_slice`).
    pub fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }

    /// Clears the buffer.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.start = 0;
    }

    /// Resizes the unread portion to `new_len` bytes, filling any new
    /// tail with `value` (matches the real crate's `resize`). Growing
    /// in place lets callers read from a socket directly into the
    /// buffer tail and then [`BytesMut::truncate`] to what arrived.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        if new_len <= self.len() {
            self.truncate(new_len);
        } else {
            self.buf.resize(self.start + new_len, value);
        }
    }

    /// Shortens the unread portion to `len` bytes; no-op when already
    /// shorter (matches the real crate's `truncate`).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            self.buf.truncate(self.start + len);
        }
    }

    /// Splits off and returns the first `at` unread bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len());
        let head = self.buf[self.start..self.start + at].to_vec();
        self.start += at;
        self.maybe_compact();
        BytesMut { buf: head, start: 0 }
    }

    /// Freezes the unread portion into an immutable [`Bytes`].
    pub fn freeze(mut self) -> Bytes {
        if self.start > 0 {
            self.buf.drain(..self.start);
        }
        Bytes::from(self.buf)
    }

    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    fn maybe_compact(&mut self) {
        // Reclaim the consumed prefix once it dominates the allocation.
        if self.start > 4096 && self.start * 2 >= self.buf.len() {
            self.compact();
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf[self.start..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len());
        self.start += cnt;
        self.maybe_compact();
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(self), f)
    }
}

impl From<&[u8]> for BytesMut {
    fn from(v: &[u8]) -> Self {
        Self {
            buf: v.to_vec(),
            start: 0,
        }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<T: IntoIterator<Item = u8>>(&mut self, iter: T) {
        self.buf.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_clone_shares_allocation() {
        let a = Bytes::from(vec![1u8, 2, 3]);
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a, b);
    }

    #[test]
    fn bytes_mut_advance_split_freeze() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"headerpayloadrest");
        m.advance(6);
        let payload = m.split_to(7).freeze();
        assert_eq!(&payload[..], b"payload");
        assert_eq!(&m[..], b"rest");
    }

    #[test]
    fn resize_and_truncate_track_the_unread_portion() {
        let mut m = BytesMut::new();
        m.extend_from_slice(b"abcdef");
        m.advance(2); // unread: "cdef"
        m.resize(6, 0);
        assert_eq!(&m[..], b"cdef\0\0");
        m[4] = b'x';
        m.truncate(5);
        assert_eq!(&m[..], b"cdefx");
        m.resize(2, 0);
        assert_eq!(&m[..], b"cd");
        m.truncate(10); // longer than len: no-op
        assert_eq!(&m[..], b"cd");
    }

    #[test]
    fn try_into_mut_reclaims_only_a_unique_handle() {
        let whole = Bytes::from(vec![1u8, 2, 3, 4]);
        let part = whole.slice(1..3);
        let whole = whole.try_into_mut().expect_err("a slice still shares it");
        drop(part);
        let ptr = whole.as_ptr();
        let mut back = whole.try_into_mut().expect("last handle");
        assert_eq!((&back[..], back.as_ptr()), (&[1u8, 2, 3, 4][..], ptr));
        back[0] = 9;
        assert_eq!(&back[..], &[9, 2, 3, 4]);
        // A unique view of part of the buffer yields just that part.
        let view = Bytes::from(vec![5u8, 6, 7]).slice(1..2);
        assert_eq!(&view.try_into_mut().expect("unique")[..], &[6]);
    }

    #[test]
    fn compaction_preserves_contents() {
        let mut m = BytesMut::new();
        for i in 0..10_000u32 {
            m.extend_from_slice(&i.to_be_bytes());
            if i % 3 == 0 {
                m.advance(2);
            }
        }
        let total: usize = m.len();
        let frozen = m.freeze();
        assert_eq!(frozen.len(), total);
    }
}
