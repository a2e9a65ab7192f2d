//! Relay message payloads: generated from `(seed, seq)`, self-checking.
//!
//! Layout: `[checksum u64][stamp u64][seq u64][filler ...]`, little
//! endian. The filler is pseudo-random from `(seed, position in the
//! burst)`;
//! the checksum is an FNV-1a style fold of the filler words, then the
//! sequence number, then the stamp. The reader recomputes it from the
//! bytes it received, so one flipped byte anywhere in the payload, a
//! payload delivered under another message's header, a lost message or
//! a duplicate each count as a failed operation.

use std::collections::BTreeSet;

use ioverlay::api::{Msg, MsgType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distinct fillers: the longest burst a writer sends at once, and the
/// closed-loop writer's burst length.
pub const SLOTS: usize = 32;
/// Checksum, stamp and sequence words.
pub const PREFIX: usize = 24;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fold(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Word-wise FNV-1a over four interleaved lanes (a 16 KiB payload is
/// 2048 dependent multiplies on one lane; four lanes keep the reader
/// off the critical path), tail bytes zero-padded.
fn digest(filler: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = filler.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = fold(*lane, u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut h = lanes.into_iter().fold(FNV_OFFSET, fold);
    for word in blocks.remainder().chunks(8) {
        let mut w = [0u8; 8];
        w[..word.len()].copy_from_slice(word);
        h = fold(h, u64::from_le_bytes(w));
    }
    fold(h, filler.len() as u64)
}

fn checksum(filler_digest: u64, seq: u64, stamp: u64) -> u64 {
    fold(fold(filler_digest, seq), stamp)
}

fn word(bytes: &[u8], at: usize) -> u64 {
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

/// Writer side: one payload template per burst position.
pub struct PayloadGen {
    templates: Vec<Vec<u8>>,
    digests: Vec<u64>,
}

impl PayloadGen {
    /// # Panics
    ///
    /// Panics if `size < PREFIX`.
    pub fn new(seed: u64, size: usize) -> Self {
        assert!(size >= PREFIX, "payload must hold the {PREFIX}-byte prefix");
        let mut rng = StdRng::seed_from_u64(seed);
        let templates: Vec<Vec<u8>> = (0..SLOTS)
            .map(|_| {
                let mut t = vec![0u8; size];
                rng.fill(&mut t[PREFIX..]);
                t
            })
            .collect();
        let digests = templates.iter().map(|t| digest(&t[PREFIX..])).collect();
        Self { templates, digests }
    }

    pub fn size(&self) -> usize {
        self.templates[0].len()
    }

    /// The first [`PREFIX`] bytes of message `seq` sent in burst
    /// position `slot` and stamped `stamp` (nanoseconds on the run's
    /// clock); the rest of its payload is the slot's filler.
    pub fn prefix(&self, slot: usize, seq: u64, stamp: u64) -> [u8; PREFIX] {
        let mut out = [0u8; PREFIX];
        out[0..8].copy_from_slice(&checksum(self.digests[slot], seq, stamp).to_le_bytes());
        out[8..16].copy_from_slice(&stamp.to_le_bytes());
        out[16..24].copy_from_slice(&seq.to_le_bytes());
        out
    }

    /// The whole payload of that message.
    pub fn payload(&mut self, slot: usize, seq: u64, stamp: u64) -> &[u8] {
        let prefix = self.prefix(slot, seq, stamp);
        let t = &mut self.templates[slot];
        t[..PREFIX].copy_from_slice(&prefix);
        t
    }
}

/// Messages the reader holds as "arrived early" before it gives the
/// missing ones up as lost; bounds the reader's memory when a message
/// really is lost.
const MAX_EARLY: usize = 1 << 16;

/// Reader side: checks every delivered data message.
///
/// Every message must arrive exactly once and intact. Arrival order is
/// recorded, not enforced: at the commit this benchmark was written
/// against, the relay's blocked-send retry can let a later message
/// overtake an earlier one when a full send buffer frees up mid-retry,
/// and a workload on which operations fail measures nothing. `early`
/// counts those messages (`engine.reordered_msgs`).
#[derive(Debug, Default)]
pub struct Verifier {
    /// Lowest sequence number not yet seen.
    next_seq: u64,
    /// Sequence numbers above `next_seq` already seen.
    ahead: BTreeSet<u64>,
    /// Messages that passed every check.
    pub ok: u64,
    /// Messages that arrived before a lower-numbered one.
    pub early: u64,
    /// Delivered twice.
    pub duplicate: u64,
    /// Given up as lost while later ones kept arriving.
    pub lost: u64,
    /// Checksum mismatch or malformed payload.
    pub bad_payload: u64,
}

impl Verifier {
    /// Checks one message; returns its stamp when it is intact and new.
    /// `Hello` and other control traffic is ignored (`None`, nothing
    /// counted).
    pub fn check(&mut self, msg: &Msg) -> Option<u64> {
        if msg.ty() != MsgType::Data {
            return None;
        }
        let p: &[u8] = msg.payload();
        if p.len() < PREFIX {
            self.bad_payload += 1;
            return None;
        }
        let (sum, stamp, seq) = (word(p, 0), word(p, 8), word(p, 16));
        if sum != checksum(digest(&p[PREFIX..]), seq, stamp) || msg.seq() != seq as u32 {
            self.bad_payload += 1;
            return None;
        }
        if seq < self.next_seq || !(seq == self.next_seq || self.ahead.insert(seq)) {
            self.duplicate += 1;
            return None;
        }
        if seq == self.next_seq {
            self.next_seq += 1;
        } else {
            self.early += 1;
            if self.ahead.len() > MAX_EARLY {
                let first = *self.ahead.first().expect("non-empty");
                self.lost += first - self.next_seq;
                self.next_seq = first;
            }
        }
        while self.ahead.remove(&self.next_seq) {
            self.next_seq += 1;
        }
        self.ok += 1;
        Some(stamp)
    }

    /// Failed operations out of `sent`: every message that was not
    /// delivered intact exactly once, and at least every bad delivery
    /// (duplicates can exceed what was sent).
    pub fn failed_of(&self, sent: u64) -> u64 {
        sent.saturating_sub(self.ok)
            .max(self.duplicate + self.bad_payload + self.lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay::api::NodeId;
    use ioverlay::message::Decoder;

    fn wire(gen: &mut PayloadGen, seqs: impl Iterator<Item = u64>) -> Vec<Vec<u8>> {
        seqs.map(|s| {
            let payload = gen.payload(s as usize % SLOTS, s, 1000 + s).to_vec();
            Msg::data(NodeId::loopback(1), 1, s as u32, payload).encode()
        })
        .collect()
    }

    /// The benchmark's reader in miniature: decode a byte stream, check
    /// every message, compare with what was sent.
    fn read_back(frames: &[Vec<u8>], sent: u64) -> (Verifier, u64) {
        let mut dec = Decoder::new();
        let mut v = Verifier::default();
        dec.feed(&Msg::control(MsgType::Hello, NodeId::loopback(9), 0).encode());
        for f in frames {
            dec.feed(f);
        }
        while let Some(msg) = dec.next_msg().expect("framing intact") {
            v.check(&msg);
        }
        let failed = v.failed_of(sent);
        (v, failed)
    }

    #[test]
    fn intact_stream_passes() {
        for size in [PREFIX, 64, 100, 16 * 1024] {
            let mut gen = PayloadGen::new(7, size);
            let frames = wire(&mut gen, 0..100);
            let (v, failed) = read_back(&frames, 100);
            assert_eq!((v.ok, failed), (100, 0), "size {size}");
        }
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        let (mut a, mut b, mut c) = (
            PayloadGen::new(3, 64),
            PayloadGen::new(3, 64),
            PayloadGen::new(4, 64),
        );
        assert_eq!(a.payload(0, 5, 9), b.payload(0, 5, 9));
        assert_ne!(a.payload(0, 5, 9), c.payload(0, 5, 9));
        assert_ne!(
            a.payload(0, 5, 9).to_vec(),
            a.payload(1, 5, 9).to_vec(),
            "fillers differ by slot"
        );
        assert_ne!(a.payload(0, 5, 9).to_vec(), a.payload(0, 6, 9).to_vec());
        let prefix = a.prefix(3, 5, 9);
        assert_eq!(a.payload(3, 5, 9)[..PREFIX], prefix);
    }

    #[test]
    fn one_corrupt_byte_fails_the_run() {
        let mut gen = PayloadGen::new(7, 64);
        // One byte each of the checksum, the stamp, the sequence word
        // and the filler.
        for offset in [0, 8, 16, 63] {
            let mut frames = wire(&mut gen, 0..10);
            let n = frames[4].len();
            frames[4][n - 64 + offset] ^= 0x01;
            let (v, failed) = read_back(&frames, 10);
            assert_eq!((v.bad_payload, failed), (1, 1), "payload byte {offset}");
        }
    }

    #[test]
    fn one_dropped_message_fails_the_run() {
        let mut gen = PayloadGen::new(7, 64);
        let mut frames = wire(&mut gen, 0..10);
        frames.remove(4);
        let (v, failed) = read_back(&frames, 10);
        assert_eq!(
            (v.ok, v.early),
            (9, 5),
            "everything after the gap arrived early"
        );
        assert_eq!(failed, 1);
    }

    #[test]
    fn a_duplicate_fails_the_run() {
        let mut gen = PayloadGen::new(7, 64);
        let mut frames = wire(&mut gen, 0..6);
        frames.push(frames[5].clone());
        frames.insert(3, frames[1].clone());
        let (v, failed) = read_back(&frames, 6);
        assert_eq!((v.ok, v.duplicate, failed), (6, 2, 2));
    }

    #[test]
    fn reordering_is_counted_not_failed() {
        let mut gen = PayloadGen::new(7, 64);
        let mut frames = wire(&mut gen, 0..10);
        frames.swap(2, 4); // 0 1 4 3 2 5 ...
        let (v, failed) = read_back(&frames, 10);
        assert_eq!((v.ok, v.early, failed), (10, 2, 0));
    }

    #[test]
    fn a_lost_message_is_given_up_after_the_early_limit() {
        let mut gen = PayloadGen::new(7, PREFIX);
        let mut v = Verifier::default();
        let total = MAX_EARLY as u64 + 10;
        for seq in (0..total).filter(|&s| s != 3) {
            let msg = Msg::data(
                NodeId::loopback(1),
                1,
                seq as u32,
                gen.payload(0, seq, 0).to_vec(),
            );
            assert!(v.check(&msg).is_some());
        }
        assert_eq!((v.lost, v.ok), (1, total - 1));
        assert!(
            v.ahead.is_empty(),
            "memory is released once the gap is given up"
        );
        assert_eq!(v.failed_of(total), 1);
    }

    #[test]
    fn payload_under_the_wrong_header_fails() {
        let mut gen = PayloadGen::new(7, 64);
        let body = gen.payload(0, 3, 1).to_vec();
        let msg = Msg::data(NodeId::loopback(1), 1, 4, body);
        let mut v = Verifier::default();
        assert!(v.check(&msg).is_none());
        assert_eq!(v.bad_payload, 1);
    }
}
