//! Directed virtual links: sender buffer, shaping, in-flight state and
//! the receiver's buffer, in one record per ordered node pair.

use std::collections::VecDeque;

use ioverlay_api::{Msg, Nanos, NodeId};
use ioverlay_ratelimit::{BucketId, BucketSet, Rate, TokenBucket};

use crate::index::NodeIdx;

/// A message queued for forwarding whose destination buffer was full —
/// the paper's *"we label each message with its set of remaining
/// senders, so that they may be tried in the next round"*.
pub(crate) type BlockedSend = (Msg, NodeId);

/// Node-level buckets of a chain (sender up and total, receiver down and
/// total); a per-link cap may follow them.
const NODE_BUCKETS: usize = 4;

/// Both ends of a directed virtual link `u -> v`.
///
/// The **sender half** mirrors one sender thread of the engine: a
/// bounded buffer drained by a (virtual) blocking socket. The paper's
/// three bandwidth-emulation categories all shape the drain through the
/// bucket chain; `window` bounds the number of messages in the network
/// (the TCP send window), and `stalled` holds messages that arrived at
/// the receiver while its receive buffer was full — exactly the
/// condition under which a real receiver thread stops reading and TCP
/// back pressure reaches the sender.
///
/// The **receiver half** mirrors one receiver thread: the bounded
/// receive buffer the switch drains, and the fanouts of a message popped
/// from it that found a send buffer full.
///
/// The two halves open and close independently (`tx_open` is the
/// sender's "I hold a connection to `v`", `rx_open` the receiver's "I
/// hold a buffer for `u`"): a sender may close and re-open its half while
/// the receiver still drains the old buffer, and messages in flight when
/// a half closes arrive at whatever state the record has by then. The
/// record itself is never removed — the link's statistics in
/// [`crate::Metrics`] share its index and outlive both halves.
///
/// Like the node, the record is laid out in access order: the sender's
/// scalars and bucket chain, then the sender's two rings, then the
/// receiver half, then the addresses (read only when a span or an event
/// is recorded).
#[derive(Debug)]
#[repr(C, align(64))] // declaration order is layout order, one group per cache line
pub(crate) struct DirectedLink {
    pub from: NodeIdx,
    pub to: NodeIdx,
    /// The sender lists this link among its downstreams.
    pub tx_open: bool,
    /// Set when the sender half has been torn down.
    pub closed: bool,
    /// How many entries of `chain` apply: the node buckets, then the
    /// per-link bucket if one is installed.
    chain_len: u8,
    /// Rate limiters applied to each transmission.
    chain: [BucketId; NODE_BUCKETS + 1],
    /// Messages transmitted but not yet accepted by the receiver.
    pub outstanding: usize,
    /// Maximum `outstanding` before transmissions pause.
    pub window: usize,
    /// Capacity of `queue` for *forwarded* traffic (locally originated
    /// sends may exceed it; sources self-pace via `Context::backlog`).
    pub cap: usize,
    /// One-way propagation latency.
    pub latency: Nanos,

    /// Sender-side message buffer.
    pub queue: VecDeque<Msg>,
    /// Messages that reached the receiver while its buffer was full.
    pub stalled: VecDeque<Msg>,

    /// Receiver-side message buffer.
    pub recv: VecDeque<Msg>,
    /// Blocked fanouts of a message switched from `recv`: while
    /// non-empty, no more messages are popped from it.
    pub blocked: Vec<BlockedSend>,
    /// The receiver holds a receive buffer for this upstream.
    pub rx_open: bool,

    /// The per-link bucket, once one was installed; kept across
    /// re-opens so a re-created capped link reuses its slot.
    link_bucket: Option<BucketId>,
    pub from_id: NodeId,
    pub to_id: NodeId,
}

impl DirectedLink {
    /// A record with both halves closed.
    pub(crate) fn new(from: (NodeIdx, NodeId), to: (NodeIdx, NodeId)) -> Self {
        Self {
            from: from.0,
            to: to.0,
            from_id: from.1,
            to_id: to.1,
            tx_open: false,
            queue: VecDeque::new(),
            cap: 0,
            chain: [BucketId::default(); NODE_BUCKETS + 1],
            chain_len: 0,
            link_bucket: None,
            latency: 0,
            outstanding: 0,
            window: 0,
            stalled: VecDeque::new(),
            closed: true,
            rx_open: false,
            recv: VecDeque::new(),
            blocked: Vec::new(),
        }
    }

    /// Opens (or re-opens) the sender half with empty buffers and no
    /// per-link cap.
    pub(crate) fn open_tx(
        &mut self,
        cap: usize,
        node_buckets: [BucketId; NODE_BUCKETS],
        latency: Nanos,
        window: usize,
    ) {
        debug_assert!(!self.tx_open && self.queue.is_empty() && self.stalled.is_empty());
        self.tx_open = true;
        self.cap = cap;
        self.chain[..NODE_BUCKETS].copy_from_slice(&node_buckets);
        self.chain_len = NODE_BUCKETS as u8;
        self.latency = latency;
        self.outstanding = 0;
        self.window = window;
        self.closed = false;
    }

    /// The buckets every transmission reserves from.
    pub(crate) fn chain(&self) -> &[BucketId] {
        &self.chain[..usize::from(self.chain_len)]
    }

    /// Whether a transmission may start now.
    pub(crate) fn can_transmit(&self) -> bool {
        !self.closed && !self.queue.is_empty() && self.outstanding < self.window
    }

    /// Whether a *forwarded* message may be enqueued.
    pub(crate) fn has_space(&self) -> bool {
        !self.closed && self.queue.len() < self.cap
    }

    /// Total messages held by the sender half in any stage (buffered, in
    /// flight, or stalled at the receiver). This is the figure reported
    /// as the sender-buffer length in status updates.
    pub(crate) fn depth(&self) -> usize {
        self.queue.len() + self.outstanding + self.stalled.len()
    }

    /// Retunes (or installs) the per-link bandwidth cap.
    pub(crate) fn set_link_rate(
        &mut self,
        rate: Option<Rate>,
        now: Nanos,
        buckets: &mut BucketSet,
    ) {
        let capped = usize::from(self.chain_len) > NODE_BUCKETS;
        match (rate, self.link_bucket) {
            (Some(r), Some(id)) if capped => buckets.get_mut(id).set_rate(r, now),
            (Some(r), slot) => {
                let fresh = TokenBucket::with_burst(r, r.as_bytes_per_sec() / 8, now);
                let id = match slot {
                    Some(id) => {
                        *buckets.get_mut(id) = fresh;
                        id
                    }
                    None => buckets.insert(fresh),
                };
                self.link_bucket = Some(id);
                self.chain[NODE_BUCKETS] = id;
                self.chain_len = NODE_BUCKETS as u8 + 1;
            }
            (None, Some(id)) if capped => {
                // "Unlimited" = a rate too high to matter; keeps the chain
                // structure stable.
                buckets
                    .get_mut(id)
                    .set_rate(Rate::bytes_per_sec(u64::MAX / 4), now);
            }
            (None, _) => {}
        }
    }

    /// Drains every queued or stalled message of the sender half,
    /// returning how many were dropped (for loss accounting during
    /// teardown).
    pub(crate) fn drop_all(&mut self) -> u64 {
        let n = self.queue.len() + self.stalled.len() + self.outstanding;
        self.queue.clear();
        self.stalled.clear();
        self.outstanding = 0;
        self.closed = true;
        n as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Msg {
        Msg::data(NodeId::loopback(1), 1, 0, vec![0u8; 100])
    }

    /// A link `1 -> 2` with an open sender half over four fresh buckets.
    fn open(cap: usize, buckets: &mut BucketSet) -> DirectedLink {
        let mut link = DirectedLink::new(
            (NodeIdx(0), NodeId::loopback(1)),
            (NodeIdx(1), NodeId::loopback(2)),
        );
        let node_buckets =
            [0; NODE_BUCKETS].map(|_| buckets.insert(TokenBucket::new(Rate::mbps(1000), 0)));
        link.open_tx(cap, node_buckets, 0, 4);
        link
    }

    #[test]
    fn a_new_record_has_both_halves_closed() {
        let link = DirectedLink::new(
            (NodeIdx(0), NodeId::loopback(1)),
            (NodeIdx(1), NodeId::loopback(2)),
        );
        assert!(!link.tx_open && !link.rx_open);
        assert!(!link.has_space() && !link.can_transmit());
        assert!(link.chain().is_empty());
    }

    #[test]
    fn space_and_transmit_predicates() {
        let mut link = open(2, &mut BucketSet::new());
        assert!(link.has_space());
        assert!(!link.can_transmit());
        link.queue.push_back(msg());
        link.queue.push_back(msg());
        assert!(!link.has_space());
        assert!(link.can_transmit());
        link.outstanding = 4;
        assert!(!link.can_transmit(), "window exhausted");
    }

    #[test]
    fn depth_counts_all_stages() {
        let mut link = open(5, &mut BucketSet::new());
        link.queue.push_back(msg());
        link.stalled.push_back(msg());
        link.outstanding = 2;
        assert_eq!(link.depth(), 4);
    }

    #[test]
    fn drop_all_closes_and_counts() {
        let mut link = open(5, &mut BucketSet::new());
        link.queue.push_back(msg());
        link.stalled.push_back(msg());
        link.outstanding = 1;
        assert_eq!(link.drop_all(), 3);
        assert!(link.closed);
        assert!(!link.has_space());
        assert!(!link.can_transmit());
    }

    #[test]
    fn retuning_installs_then_updates_bucket() {
        let mut buckets = BucketSet::new();
        let mut link = open(5, &mut buckets);
        assert_eq!(link.chain().len(), 4);
        link.set_link_rate(Some(Rate::kbps(30)), 0, &mut buckets);
        assert_eq!(link.chain().len(), 5);
        link.set_link_rate(Some(Rate::kbps(15)), 0, &mut buckets);
        assert_eq!(link.chain().len(), 5, "retune reuses the bucket");
        let id = link.chain()[4];
        assert_eq!(buckets.get(id).rate(), Rate::kbps(15));
        link.set_link_rate(None, 0, &mut buckets);
        assert!(buckets.get(id).rate() > Rate::mbps(1_000_000));
    }

    #[test]
    fn a_reopened_link_starts_uncapped_and_reuses_its_bucket_slot() {
        let mut buckets = BucketSet::new();
        let mut link = open(5, &mut buckets);
        link.set_link_rate(Some(Rate::bytes_per_sec(1_000)), 0, &mut buckets);
        let id = link.chain()[4];
        assert!(buckets.reserve(link.chain(), 10_000, 0) > 0, "capped");
        link.drop_all();
        link.tx_open = false;
        let node_buckets = [
            link.chain()[0],
            link.chain()[1],
            link.chain()[2],
            link.chain()[3],
        ];
        link.open_tx(5, node_buckets, 0, 4);
        assert_eq!(link.chain().len(), 4, "the cap does not survive a re-open");
        link.set_link_rate(None, 0, &mut buckets);
        assert_eq!(
            link.chain().len(),
            4,
            "lifting an absent cap installs nothing"
        );
        link.set_link_rate(Some(Rate::kbps(100)), 7, &mut buckets);
        assert_eq!(link.chain()[4], id, "slot reused");
        // A fresh bucket, not the drained one: the burst is available.
        assert_eq!(buckets.reserve(&[id], 1_000, 7), 0);
    }
}
