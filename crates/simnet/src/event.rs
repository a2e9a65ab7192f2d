//! The simulator's event queue.
//!
//! Events carry indices only ([`NodeIdx`], [`LinkIdx`], a [`MsgKey`]);
//! the message of an `Arrival` or `Inject` waits in a [`MsgStore`] until
//! the event fires, so an event stays 16 bytes whatever the payload.
//!
//! The queue is an ordered map from each pending instant to a FIFO of
//! that instant's events, threaded through one slab. Scheduling appends
//! to the instant's FIFO and popping takes the front of the earliest one,
//! so events due at one instant fire in the order they were scheduled,
//! whether before or during that instant: `(time, insertion sequence)`
//! order holds by construction. The map holds at most a few hundred
//! instants, and the slab reuses popped slots, so it stops growing at the
//! peak population.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

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
/// Events due at the same instant fire in insertion order, which keeps
/// runs bit-for-bit deterministic. See the module docs.
#[derive(Debug)]
pub(crate) struct EventQueue {
    /// Each pending instant's FIFO as `(head, tail)` indices of `slots`.
    instants: BTreeMap<Nanos, (u32, u32)>,
    slots: Vec<Slot>,
    /// First free slot; free slots chain through `next`.
    free: u32,
    len: usize,
}

/// A queued event and the next slot of its list: the next event due at
/// the same instant, or the next free slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    event: Event,
    next: u32,
}

/// End of a slot list.
const NIL: u32 = u32::MAX;

impl Default for EventQueue {
    fn default() -> Self {
        Self {
            instants: BTreeMap::new(),
            slots: Vec::new(),
            free: NIL,
            len: 0,
        }
    }
}

impl EventQueue {
    /// Schedules `event` at absolute time `at`, behind every event
    /// already due then.
    pub(crate) fn schedule(&mut self, at: Nanos, event: Event) {
        let filled = Slot { event, next: NIL };
        let slot = if self.free == NIL {
            let slot = u32::try_from(self.slots.len()).expect("fewer than 2^32 pending events");
            self.slots.push(filled);
            slot
        } else {
            let slot = self.free;
            self.free = std::mem::replace(&mut self.slots[slot as usize], filled).next;
            slot
        };
        match self.instants.entry(at) {
            Entry::Occupied(mut fifo) => {
                let tail = std::mem::replace(&mut fifo.get_mut().1, slot);
                self.slots[tail as usize].next = slot;
            }
            Entry::Vacant(fifo) => {
                fifo.insert((slot, slot));
            }
        }
        self.len += 1;
    }

    /// Time of the next event, if any.
    pub(crate) fn peek_time(&self) -> Option<Nanos> {
        self.instants.first_key_value().map(|(&at, _)| at)
    }

    /// Pops the next event.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, Event)> {
        let mut fifo = self.instants.first_entry()?;
        let at = *fifo.key();
        let (head, tail) = *fifo.get();
        let slot = &mut self.slots[head as usize];
        if head == tail {
            fifo.remove();
        } else {
            fifo.get_mut().0 = slot.next;
        }
        slot.next = std::mem::replace(&mut self.free, head);
        self.len -= 1;
        Some((at, slot.event))
    }

    /// Number of pending events.
    pub(crate) fn len(&self) -> usize {
        self.len
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn timer(token: TimerToken) -> Event {
        Event::Timer {
            node: NodeIdx(0),
            token,
        }
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::default();
        let n = NodeIdx(1);
        q.schedule(10, Event::Process(n));
        q.schedule(5, Event::MeasureTick(n));
        q.schedule(10, Event::KillNode(n));
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
        q.schedule(7, timer(1));
        q.schedule(7, timer(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(7));
        // Scheduled for "now" while another event due now is still queued.
        q.schedule(7, Event::Process(NodeIdx(3)));
        q.schedule(9, Event::Process(NodeIdx(4)));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((7, timer(2))));
        assert_eq!(q.pop(), Some((7, Event::Process(NodeIdx(3)))));
        assert_eq!(q.peek_time(), Some(9));
        assert_eq!(q.pop(), Some((9, Event::Process(NodeIdx(4)))));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn a_bounded_population_stops_growing_the_slab() {
        // 500 events spread over 50 instants; each round pops one and
        // schedules one a pseudo-random 1..=50 ticks later, as a
        // simulator in steady state does.
        let mut q = EventQueue::default();
        for i in 0..500 {
            q.schedule(i % 50, timer(i));
        }
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut round = |q: &mut EventQueue| {
            let (now, event) = q.pop().expect("the population stays at 500");
            rng = rng.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            q.schedule(now + 1 + (rng >> 58) % 50, event);
        };
        for _ in 0..100 {
            round(&mut q);
        }
        let (slots, capacity) = (q.slots.len(), q.slots.capacity());
        for _ in 0..10_000 {
            round(&mut q);
        }
        assert_eq!(q.len(), 500);
        assert_eq!(q.slots.len(), slots, "popped slots are reused");
        assert_eq!(q.slots.capacity(), capacity);
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

    /// The queue this one replaced, reduced to its order: one heap of
    /// `(at, seq)`.
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

    /// One step of the order proptest.
    #[derive(Debug, Clone)]
    enum Op {
        /// `n` events due at the current instant.
        Now(usize),
        /// `n` events due `delay` after the current instant (possibly 0).
        Later(usize, Nanos),
        /// One event far in the future.
        Far(Nanos),
        Pop,
    }

    fn op() -> impl Strategy<Value = Op> {
        prop_oneof![
            (1usize..4).prop_map(Op::Now),
            ((1usize..20), (0u64..5)).prop_map(|(n, d)| Op::Later(n, d)),
            (1u64 << 40..1u64 << 60).prop_map(Op::Far),
            Just(Op::Pop),
            Just(Op::Pop),
        ]
    }

    proptest! {
        /// Interleaves same-instant schedules, bursts on one instant,
        /// far-future schedules and pops the way the simulator does
        /// (time is the time of the last pop); the queue must hand out
        /// the events of a plain `(at, seq)` heap at the same times, and
        /// count the same. Each event is tagged with the oracle's
        /// sequence number.
        #[test]
        fn fifo_per_instant_pops_like_one_heap(ops in proptest::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::default();
            let mut oracle = OneHeap::default();
            let mut now: Nanos = 0;
            for op in ops {
                let mut schedule = |at: Nanos, n: usize| {
                    for _ in 0..n {
                        q.schedule(at, timer(oracle.schedule(at)));
                    }
                };
                match op {
                    Op::Now(n) => schedule(now, n),
                    Op::Later(n, delay) => schedule(now + delay, n),
                    Op::Far(delay) => schedule(now + delay, 1),
                    Op::Pop => {
                        prop_assert_eq!(q.peek_time(), oracle.heap.peek().map(|Reverse((at, _))| *at));
                        let want = oracle.heap.pop().map(|Reverse((at, seq))| (at, timer(seq)));
                        let got = q.pop();
                        prop_assert_eq!(got, want);
                        if let Some((at, _)) = got {
                            prop_assert!(at >= now, "time went backwards");
                            now = at;
                        }
                    }
                }
                prop_assert_eq!(q.len(), oracle.heap.len());
            }
            while let Some(Reverse((at, seq))) = oracle.heap.pop() {
                prop_assert_eq!(q.pop(), Some((at, timer(seq))));
                prop_assert_eq!(q.len(), oracle.heap.len());
            }
            prop_assert_eq!(q.pop(), None);
        }
    }
}
