//! The simulator's event queue.
//!
//! Events carry indices only ([`NodeIdx`], [`LinkIdx`], a [`MsgKey`]);
//! the message of an `Arrival` or `Inject` waits in a [`MsgStore`] until
//! the event fires, so queue entries stay 32 bytes whatever the payload.
//!
//! The queue has two lanes. Two of every three events are `Process`
//! events scheduled for the current instant; they go to a FIFO beside
//! the heap and never pay a sift. Order is still exactly `(time,
//! insertion sequence)`:
//!
//! * every entry of the FIFO is due at the same instant `t`, the
//!   caller's current time when it was scheduled;
//! * the caller's time advances only to the time of a popped entry (or,
//!   with nothing due, past it), and a pop never returns an entry later
//!   than `t` while the FIFO is non-empty, so the FIFO drains before time
//!   moves;
//! * a heap entry due at `t` was scheduled while the caller's time was
//!   earlier than `t` (otherwise it would be in the FIFO), hence before
//!   every FIFO entry, hence with a smaller sequence number.
//!
//! So "heap while its head is due at `t`, then the FIFO front" pops in
//! `(time, sequence)` order. The proptest below checks that against a
//! plain one-heap queue.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ioverlay_api::{Msg, Nanos, TimerToken};

use crate::index::{LinkIdx, NodeIdx};

/// Handle of a message parked in a [`MsgStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MsgKey(u32);

/// Messages of scheduled `Arrival` / `Inject` events: a slab with a free
/// list, so steady-state traffic allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct MsgStore {
    slots: Vec<Option<Msg>>,
    free: Vec<u32>,
}

impl MsgStore {
    pub(crate) fn insert(&mut self, msg: Msg) -> MsgKey {
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = Some(msg);
                MsgKey(i)
            }
            None => {
                let i =
                    u32::try_from(self.slots.len()).expect("fewer than 2^32 messages in flight");
                self.slots.push(Some(msg));
                MsgKey(i)
            }
        }
    }

    /// Takes the message out; every key is redeemed exactly once, by the
    /// event that carries it.
    pub(crate) fn take(&mut self, key: MsgKey) -> Msg {
        let msg = self.slots[key.0 as usize]
            .take()
            .expect("a message key is redeemed once");
        self.free.push(key.0);
        msg
    }
}

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Event {
    /// A message finishes crossing a link.
    Arrival {
        /// The link crossed.
        link: LinkIdx,
        /// The message delivered.
        msg: MsgKey,
    },
    /// Run the virtual switch loop of a node.
    Process(NodeIdx),
    /// An algorithm timer fires.
    Timer {
        /// Owning node.
        node: NodeIdx,
        /// Token passed back to the algorithm.
        token: TimerToken,
    },
    /// Periodic QoS measurement tick for a node.
    MeasureTick(NodeIdx),
    /// Kill a node (failure injection).
    KillNode(NodeIdx),
    /// A surviving endpoint detects that its peer on a link has failed.
    LinkFailureDetected {
        /// The node that notices.
        survivor: NodeIdx,
        /// The failed peer.
        failed: NodeIdx,
    },
    /// A peer gracefully closed its link toward `node`.
    UpstreamClosed {
        /// The node whose upstream went away.
        node: NodeIdx,
        /// The departed upstream.
        upstream: NodeIdx,
    },
    /// Deliver an externally injected (observer-style) control message.
    Inject {
        /// Target node.
        node: NodeIdx,
        /// The control message.
        msg: MsgKey,
    },
}

/// Queue of events ordered by (time, insertion sequence).
///
/// The sequence number makes simultaneous events fire in insertion
/// order, which keeps runs bit-for-bit deterministic. See the module
/// docs for the two lanes.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// Events scheduled for a later instant than the caller's.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Events scheduled for the caller's current instant, `lane_at`.
    lane: VecDeque<Event>,
    lane_at: Nanos,
    seq: u64,
}

#[derive(Debug)]
struct Entry {
    at: Nanos,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl EventQueue {
    /// Schedules `event` at absolute time `at`; `now` is the caller's
    /// current time (the time of the last pop, or later) and `at >= now`.
    pub(crate) fn schedule(&mut self, now: Nanos, at: Nanos, event: Event) {
        debug_assert!(at >= now, "events are never scheduled in the past");
        if at == now {
            debug_assert!(self.lane.is_empty() || self.lane_at == now);
            self.lane_at = now;
            self.lane.push_back(event);
        } else {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse(Entry { at, seq, event }));
        }
    }

    /// Whether the next pop comes from the heap.
    fn heap_first(&self) -> bool {
        match self.heap.peek() {
            Some(Reverse(head)) => self.lane.is_empty() || head.at <= self.lane_at,
            None => false,
        }
    }

    /// Time of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(e)| e.at)
        } else if self.lane.is_empty() {
            None
        } else {
            Some(self.lane_at)
        }
    }

    /// Pops the next event.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, Event)> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(e)| (e.at, e.event))
        } else {
            self.lane.pop_front().map(|event| (self.lane_at, event))
        }
    }

    /// Number of pending events, both lanes.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::default();
        let n = NodeIdx(1);
        q.schedule(0, 10, Event::Process(n));
        q.schedule(0, 5, Event::MeasureTick(n));
        q.schedule(0, 10, Event::KillNode(n));
        assert_eq!(q.len(), 3);
        assert_eq!(q.peek_time(), Some(5));
        let (t1, e1) = q.pop().unwrap();
        assert_eq!(t1, 5);
        assert!(matches!(e1, Event::MeasureTick(_)));
        let (t2, e2) = q.pop().unwrap();
        assert_eq!(t2, 10);
        assert!(matches!(e2, Event::Process(_)), "insertion order preserved");
        let (_, e3) = q.pop().unwrap();
        assert!(matches!(e3, Event::KillNode(_)));
        assert!(q.pop().is_none());
    }

    #[test]
    fn same_instant_events_wait_behind_earlier_ones_due_now() {
        let mut q = EventQueue::default();
        q.schedule(
            0,
            7,
            Event::Timer {
                node: NodeIdx(0),
                token: 1,
            },
        );
        q.schedule(
            0,
            7,
            Event::Timer {
                node: NodeIdx(0),
                token: 2,
            },
        );
        assert_eq!(q.pop().map(|(t, _)| t), Some(7));
        // Scheduled for "now" while another event due now is still queued.
        q.schedule(7, 7, Event::Process(NodeIdx(3)));
        q.schedule(7, 9, Event::Process(NodeIdx(4)));
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.pop(),
            Some((
                7,
                Event::Timer {
                    node: NodeIdx(0),
                    token: 2
                }
            ))
        );
        assert_eq!(q.pop(), Some((7, Event::Process(NodeIdx(3)))));
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, Event::Process(NodeIdx(4)))));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn message_store_reuses_slots() {
        let mut store = MsgStore::default();
        let origin = ioverlay_api::NodeId::loopback(1);
        let a = store.insert(Msg::data(origin, 1, 0, vec![1u8; 4]));
        let b = store.insert(Msg::data(origin, 1, 1, vec![2u8; 4]));
        assert_eq!(store.take(a).seq(), 0);
        let c = store.insert(Msg::data(origin, 1, 2, vec![3u8; 4]));
        assert_eq!(c, a, "the freed slot is handed out again");
        assert_eq!(store.take(b).seq(), 1);
        assert_eq!(store.take(c).seq(), 2);
    }

    /// The queue this one replaced: one heap ordered by `(at, seq)`.
    #[derive(Default)]
    struct OneHeap {
        heap: BinaryHeap<Reverse<(Nanos, u64)>>,
        seq: u64,
    }

    impl OneHeap {
        fn schedule(&mut self, at: Nanos) -> u64 {
            let seq = self.seq;
            self.seq += 1;
            self.heap.push(Reverse((at, seq)));
            seq
        }
    }

    proptest! {
        /// Interleaves same-instant schedules, future schedules and pops
        /// the way the simulator does (time is the time of the last
        /// pop); both queues must hand out the same events at the same
        /// times. Each event is tagged with the oracle's sequence number.
        #[test]
        fn two_lanes_pop_like_one_heap(
            ops in proptest::collection::vec((0u8..4, 0u64..5), 1..400),
        ) {
            let mut q = EventQueue::default();
            let mut oracle = OneHeap::default();
            let mut now: Nanos = 0;
            let tagged = |tag: u64| Event::Timer { node: NodeIdx(0), token: tag };
            for (op, delay) in ops {
                match op {
                    // Two of four operations schedule, so queues grow.
                    0 => {
                        let tag = oracle.schedule(now);
                        q.schedule(now, now, tagged(tag));
                    }
                    1 => {
                        // `delay` may be zero: a "future" event due now.
                        let tag = oracle.schedule(now + delay);
                        q.schedule(now, now + delay, tagged(tag));
                    }
                    _ => {
                        prop_assert_eq!(q.len(), oracle.heap.len());
                        prop_assert_eq!(q.peek_time(), oracle.heap.peek().map(|Reverse((at, _))| *at));
                        let want = oracle.heap.pop().map(|Reverse((at, seq))| (at, tagged(seq)));
                        let got = q.pop();
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            prop_assert!(at >= now, "time went backwards");
                            now = at;
                        }
                    }
                }
            }
            while let Some(Reverse((at, seq))) = oracle.heap.pop() {
                prop_assert_eq!(q.pop(), Some((at, tagged(seq))));
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
