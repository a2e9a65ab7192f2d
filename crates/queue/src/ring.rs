//! The bounded, thread-safe circular queue.

use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
#[cfg(not(feature = "loom"))]
use std::time::Duration;

use crate::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::sync::{self, Arc, Condvar, Mutex, MutexGuard};

/// A wakeup callback attached to a queue transition edge. See
/// [`CircularQueue::set_data_hook`].
pub type WakeHook = Arc<dyn Fn() + Send + Sync>;

/// Error returned by blocking [`CircularQueue::push`] when the queue has
/// been closed.
#[derive(Debug, PartialEq, Eq)]
pub struct PushError<T>(pub T);

impl<T> fmt::Display for PushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("queue is closed")
    }
}

impl<T: fmt::Debug> Error for PushError<T> {}

/// Error returned by [`CircularQueue::try_push`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryPushError<T> {
    /// The queue is at capacity; a blocking producer would sleep.
    Full(T),
    /// The queue has been closed and accepts no more items.
    Closed(T),
}

impl<T> TryPushError<T> {
    /// Recovers the item that could not be enqueued.
    pub fn into_inner(self) -> T {
        match self {
            TryPushError::Full(v) | TryPushError::Closed(v) => v,
        }
    }
}

impl<T> fmt::Display for TryPushError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TryPushError::Full(_) => f.write_str("queue is full"),
            TryPushError::Closed(_) => f.write_str("queue is closed"),
        }
    }
}

impl<T: fmt::Debug> Error for TryPushError<T> {}

/// Outcome of [`CircularQueue::pop_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PopTimeout<T> {
    /// An item was dequeued.
    Item(T),
    /// The timeout elapsed with the queue still empty.
    TimedOut,
    /// The queue is closed and fully drained.
    Closed,
}

#[derive(Debug)]
struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    /// How many times a lock acquisition recovered the buffer from a
    /// poisoned state (a peer thread panicked inside the critical
    /// section). See [`CircularQueue::poison_recoveries`].
    poison_recoveries: AtomicU64,
    /// Fast-path gate: set when any wake hook is installed, so the
    /// overwhelmingly common hook-free queues (blocking backend) never
    /// touch the `hooks` mutex on a transition edge.
    has_hooks: AtomicBool,
    hooks: Mutex<Hooks>,
}

#[derive(Default)]
struct Hooks {
    data: Option<WakeHook>,
    space: Option<WakeHook>,
}

impl fmt::Debug for Hooks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Hooks")
            .field("data", &self.data.is_some())
            .field("space", &self.space.is_some())
            .finish()
    }
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded, thread-safe FIFO ring buffer with blocking semantics.
///
/// This is the *"thread-safe circular queue"* from §2.2, used as the
/// shared buffer between a socket thread and the engine thread. Each
/// queue is intentionally single-purpose — one receiver or one sender —
/// to *"avoid the complex wait/signal scenario where the receiver or
/// sender buffer is shared by more than one reader or writer threads"*,
/// although the implementation is safe under arbitrary sharing.
///
/// The handle is cheaply cloneable (internally an [`Arc`]); clones refer
/// to the same underlying buffer.
///
/// Closing the queue (see [`CircularQueue::close`]) wakes all sleepers:
/// blocked producers fail, and blocked consumers drain the remaining
/// items before observing the close. This drives the paper's *graceful*
/// link teardown, where buffered messages are flushed rather than
/// dropped.
#[derive(Debug)]
pub struct CircularQueue<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Clone for CircularQueue<T> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> CircularQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero: a zero-capacity buffer can never
    /// transfer an item under this (non-rendezvous) design.
    pub fn with_capacity(capacity: usize) -> Self {
        assert!(capacity > 0, "circular queue capacity must be non-zero");
        Self {
            shared: Arc::new(Shared {
                inner: Mutex::new(
                    &sync::classes::QUEUE_RING,
                    Inner {
                        items: VecDeque::with_capacity(capacity),
                        closed: false,
                    },
                ),
                not_empty: Condvar::new(),
                not_full: Condvar::new(),
                capacity,
                poison_recoveries: AtomicU64::new(0),
                has_hooks: AtomicBool::new(false),
                hooks: Mutex::new(&sync::classes::QUEUE_HOOKS, Hooks::default()),
            }),
        }
    }

    /// Installs (or with `None` removes) the *data* wake hook, invoked
    /// — outside the buffer lock — after a push transitions the queue
    /// from empty to non-empty, and on [`CircularQueue::close`].
    ///
    /// This is the reactor backend's mailbox wakeup: a shard parks its
    /// sender mailboxes on a readiness [`Waker`](https://docs.rs/mio)
    /// -style nudge instead of a dedicated blocked thread. The hook
    /// must be cheap and must not block.
    ///
    /// Race discipline (mirrors condvar registration): installing a
    /// hook does **not** retroactively signal for items already queued.
    /// A consumer must install the hook first, *then* check
    /// [`CircularQueue::len`] once — otherwise a push that happened
    /// between "drain" and "install" is a lost wakeup. The loom model
    /// `shard_mailbox_wakeup` in `tests/loom.rs` checks exactly this
    /// protocol.
    pub fn set_data_hook(&self, hook: Option<WakeHook>) {
        let mut hooks = self.shared.hooks.lock();
        hooks.data = hook;
        let any = hooks.data.is_some() || hooks.space.is_some();
        self.shared.has_hooks.store(any, Ordering::Release);
    }

    /// Installs (or removes) the *space* wake hook, invoked — outside
    /// the buffer lock — after a pop transitions the queue from full to
    /// non-full, and on [`CircularQueue::close`]. The reactor backend
    /// uses it to resume a read-paused link once its ingress mailbox
    /// frees up (the readiness analogue of the `SendSpace` event).
    ///
    /// Same registration race discipline as
    /// [`CircularQueue::set_data_hook`], with `is_full` as the
    /// post-install check.
    pub fn set_space_hook(&self, hook: Option<WakeHook>) {
        let mut hooks = self.shared.hooks.lock();
        hooks.space = hook;
        let any = hooks.data.is_some() || hooks.space.is_some();
        self.shared.has_hooks.store(any, Ordering::Release);
    }

    /// Clones the data hook out of the registry if any hook is set.
    /// Called only on the empty→non-empty edge, after the buffer lock
    /// is dropped, so hook-free queues pay one atomic load.
    fn fire_data_hook(&self) {
        if !self.shared.has_hooks.load(Ordering::Acquire) {
            return;
        }
        let hook = self.shared.hooks.lock().data.clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Space-edge twin of [`CircularQueue::fire_data_hook`].
    fn fire_space_hook(&self) {
        if !self.shared.has_hooks.load(Ordering::Acquire) {
            return;
        }
        let hook = self.shared.hooks.lock().space.clone();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Acquires the buffer lock, recovering (and counting) a poisoned
    /// guard instead of propagating the panic: a crashing receiver or
    /// sender thread must not cascade into the engine thread. The
    /// recovery is surfaced as a structured signal via
    /// [`CircularQueue::poison_recoveries`], which the engine polls and
    /// reports as a telemetry event (like a buffer-full event).
    fn lock_inner(&self) -> MutexGuard<'_, Inner<T>> {
        let (guard, recovered) = self.shared.inner.lock_checked();
        if recovered {
            self.shared.poison_recoveries.fetch_add(1, Ordering::AcqRel);
        }
        guard
    }

    /// How many lock acquisitions recovered this buffer from a poisoned
    /// state. A non-zero value means some thread panicked while holding
    /// the buffer lock; the queue stays usable, and the engine turns
    /// increases of this counter into telemetry events.
    pub fn poison_recoveries(&self) -> u64 {
        self.shared.poison_recoveries.load(Ordering::Acquire)
    }

    /// Maximum number of buffered items.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }

    /// Current number of buffered items.
    pub fn len(&self) -> usize {
        self.lock_inner().items.len()
    }

    /// Whether the queue currently holds no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.len() == self.shared.capacity
    }

    /// Whether [`CircularQueue::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.lock_inner().closed
    }

    /// Enqueues an item, blocking while the queue is full.
    ///
    /// This is the receiver thread's operation: when its buffer is full
    /// the thread sleeps, which stops it reading from the socket and
    /// propagates back pressure to the upstream node over TCP.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] carrying the item if the queue is closed
    /// (either before the call or while blocked).
    pub fn push(&self, item: T) -> Result<(), PushError<T>> {
        let mut item = Some(item);
        self.push_waiting(1, |items, _| items.extend(item.take()))
            .map_err(|()| PushError(item.take().expect("a closed queue placed nothing")))
    }

    /// Enqueues every item of `items`, front first, blocking while the
    /// queue is full: each lock acquisition moves as many as fit, so a
    /// producer that finds the buffer full refills it a batch at a time
    /// as the consumer frees space, instead of one blocking push per
    /// item. Whichever acquisition finds the queue empty fires the data
    /// hook, exactly as [`CircularQueue::push`] does.
    ///
    /// This is the blocking receiver's hand-off: a decoded batch goes in
    /// with one call, and while the buffer stays full the thread sleeps,
    /// which stops its socket reads and propagates back pressure.
    ///
    /// # Errors
    ///
    /// Returns [`PushError`] if the queue is or becomes closed; the items
    /// not yet placed stay in `items`, in order.
    pub fn push_all(&self, items: &mut Vec<T>) -> Result<(), PushError<()>> {
        self.push_waiting(items.len(), |queue, n| queue.extend(items.drain(..n)))
            .map_err(PushError)
    }

    /// The one blocking wait-for-space loop: moves `count` items into the
    /// queue, `place(queue, n)` appending the next `n` of them, in as few
    /// lock acquisitions as the free space allows. `Err` once the queue
    /// is closed, with the rest unplaced.
    fn push_waiting(
        &self,
        mut count: usize,
        mut place: impl FnMut(&mut VecDeque<T>, usize),
    ) -> Result<(), ()> {
        while count > 0 {
            let mut inner = self.lock_inner();
            while !inner.closed && inner.items.len() == self.shared.capacity {
                self.shared.not_full.wait(&mut inner);
            }
            if inner.closed {
                return Err(());
            }
            let was_empty = inner.items.is_empty();
            let take = count.min(self.shared.capacity - inner.items.len());
            place(&mut inner.items, take);
            count -= take;
            drop(inner);
            if take == 1 {
                self.shared.not_empty.notify_one();
            } else {
                self.shared.not_empty.notify_all();
            }
            if was_empty {
                self.fire_data_hook();
            }
        }
        Ok(())
    }

    /// Attempts to enqueue without blocking.
    ///
    /// This is the engine thread's operation when moving a message into a
    /// sender buffer: if the buffer is full the engine does *not* block —
    /// it records the message's remaining destinations and retries on the
    /// next switching round.
    ///
    /// # Errors
    ///
    /// [`TryPushError::Full`] if at capacity, [`TryPushError::Closed`] if
    /// closed; both return the item.
    pub fn try_push(&self, item: T) -> Result<(), TryPushError<T>> {
        let mut inner = self.lock_inner();
        if inner.closed {
            return Err(TryPushError::Closed(item));
        }
        if inner.items.len() >= self.shared.capacity {
            return Err(TryPushError::Full(item));
        }
        let was_empty = inner.items.is_empty();
        inner.items.push_back(item);
        drop(inner);
        self.shared.not_empty.notify_one();
        if was_empty {
            self.fire_data_hook();
        }
        Ok(())
    }

    /// Dequeues an item, blocking while the queue is empty.
    ///
    /// This is the sender thread's operation: *"the sender thread is
    /// suspended when the buffer is empty, to be signaled by the engine
    /// thread"*.
    ///
    /// Returns `None` once the queue is closed **and** drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        loop {
            let was_full = inner.items.len() == self.shared.capacity;
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                if was_full {
                    self.fire_space_hook();
                }
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            self.shared.not_empty.wait(&mut inner);
        }
    }

    /// Attempts to dequeue without blocking. Returns `None` if empty.
    pub fn try_pop(&self) -> Option<T> {
        let mut inner = self.lock_inner();
        let was_full = inner.items.len() == self.shared.capacity;
        let item = inner.items.pop_front();
        if item.is_some() {
            drop(inner);
            self.shared.not_full.notify_one();
            if was_full {
                self.fire_space_hook();
            }
        }
        item
    }

    /// Dequeues up to `max` items in one lock acquisition, appending
    /// them to `out` in FIFO order. Never blocks; an empty queue yields
    /// zero items. Returns how many items were moved.
    ///
    /// This is the batched-switching fast path: where a `try_pop` loop
    /// pays one lock round-trip and one wakeup per message, a batch pop
    /// pays them once per *batch*, which is what makes high-backlog
    /// switching cheap.
    pub fn pop_batch(&self, max: usize, out: &mut Vec<T>) -> usize {
        if max == 0 {
            return 0;
        }
        let mut inner = self.lock_inner();
        let was_full = inner.items.len() == self.shared.capacity;
        let take = max.min(inner.items.len());
        if take == 0 {
            return 0;
        }
        out.extend(inner.items.drain(..take));
        drop(inner);
        // More than one slot freed can satisfy more than one blocked
        // producer.
        if take == 1 {
            self.shared.not_full.notify_one();
        } else {
            self.shared.not_full.notify_all();
        }
        if was_full {
            self.fire_space_hook();
        }
        take
    }

    /// Like [`CircularQueue::pop_batch`], but also reports the queue
    /// length *before* the pop, observed under the same lock
    /// acquisition. Telemetry uses this to sample queue occupancy on
    /// the switch fast path without a second lock round-trip.
    pub fn pop_batch_observed(&self, max: usize, out: &mut Vec<T>) -> (usize, usize) {
        let mut inner = self.lock_inner();
        let occupancy = inner.items.len();
        let take = max.min(occupancy);
        if take == 0 {
            return (0, occupancy);
        }
        out.extend(inner.items.drain(..take));
        drop(inner);
        if take == 1 {
            self.shared.not_full.notify_one();
        } else {
            self.shared.not_full.notify_all();
        }
        if occupancy == self.shared.capacity {
            self.fire_space_hook();
        }
        (take, occupancy)
    }

    /// Enqueues as many items as currently fit, taken from the front of
    /// `items`, in one lock acquisition. Accepted items are removed from
    /// the vec (so leftovers stay in order for a retry); returns how
    /// many were accepted. Never blocks. A closed queue accepts nothing
    /// (check [`CircularQueue::is_closed`] to distinguish from full).
    pub fn push_batch(&self, items: &mut Vec<T>) -> usize {
        if items.is_empty() {
            return 0;
        }
        let mut inner = self.lock_inner();
        if inner.closed {
            return 0;
        }
        let was_empty = inner.items.is_empty();
        let space = self.shared.capacity - inner.items.len();
        let take = space.min(items.len());
        if take == 0 {
            return 0;
        }
        inner.items.extend(items.drain(..take));
        drop(inner);
        if take == 1 {
            self.shared.not_empty.notify_one();
        } else {
            self.shared.not_empty.notify_all();
        }
        if was_empty {
            self.fire_data_hook();
        }
        take
    }

    /// Drains every currently buffered item into `out` (one lock
    /// acquisition), preserving FIFO order. Returns how many items were
    /// moved.
    pub fn drain_into(&self, out: &mut Vec<T>) -> usize {
        self.pop_batch(usize::MAX, out)
    }

    /// Dequeues with a timeout.
    ///
    /// Used by sender threads that must wake periodically (for example to
    /// notice termination or refresh throughput measurements) even when
    /// no traffic flows.
    ///
    /// Not available under the `loom` feature: the model checker has no
    /// timed waits (model code must be deadlock-free without timeouts).
    #[cfg(not(feature = "loom"))]
    pub fn pop_timeout(&self, timeout: Duration) -> PopTimeout<T> {
        // xtask-lint: allow(wall-clock) — real deadline for a real condvar
        // timed wait; sender threads are never driven by the simnet clock.
        let deadline = std::time::Instant::now() + timeout;
        let mut inner = self.lock_inner();
        loop {
            let was_full = inner.items.len() == self.shared.capacity;
            if let Some(item) = inner.items.pop_front() {
                drop(inner);
                self.shared.not_full.notify_one();
                if was_full {
                    self.fire_space_hook();
                }
                return PopTimeout::Item(item);
            }
            if inner.closed {
                return PopTimeout::Closed;
            }
            if self
                .shared
                .not_empty
                .wait_until(&mut inner, deadline)
                .timed_out()
            {
                let was_full = inner.items.len() == self.shared.capacity;
                return match inner.items.pop_front() {
                    Some(item) => {
                        drop(inner);
                        self.shared.not_full.notify_one();
                        if was_full {
                            self.fire_space_hook();
                        }
                        PopTimeout::Item(item)
                    }
                    None if inner.closed => PopTimeout::Closed,
                    None => PopTimeout::TimedOut,
                };
            }
        }
    }

    /// Closes the queue: all sleeping producers and consumers wake,
    /// further pushes fail, and pops drain the remaining items before
    /// returning `None`.
    ///
    /// Closing twice is a no-op.
    pub fn close(&self) {
        let mut inner = self.lock_inner();
        inner.closed = true;
        drop(inner);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        // Hooked consumers/producers are parked in a reactor, not on the
        // condvars — nudge both so they observe the close promptly.
        self.fire_data_hook();
        self.fire_space_hook();
    }

    /// Discards all buffered items, returning how many were dropped.
    ///
    /// Used during forced (non-graceful) teardown.
    pub fn clear(&self) -> usize {
        let mut inner = self.lock_inner();
        let n = inner.items.len();
        inner.items.clear();
        drop(inner);
        self.shared.not_full.notify_all();
        if n == self.shared.capacity {
            self.fire_space_hook();
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    #[cfg(feature = "loom")]
    use std::time::Duration;

    #[test]
    fn fifo_order() {
        let q = CircularQueue::with_capacity(8);
        for i in 0..8 {
            q.push(i).unwrap();
        }
        for i in 0..8 {
            assert_eq!(q.try_pop(), Some(i));
        }
        assert_eq!(q.try_pop(), None);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        let _ = CircularQueue::<u8>::with_capacity(0);
    }

    #[test]
    fn try_push_full_returns_item() {
        let q = CircularQueue::with_capacity(1);
        q.push("a").unwrap();
        match q.try_push("b") {
            Err(TryPushError::Full("b")) => {}
            other => panic!("expected Full, got {other:?}"),
        }
    }

    #[test]
    fn blocking_push_wakes_on_pop() {
        let q = CircularQueue::with_capacity(1);
        q.push(0).unwrap();
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.push(1));
        thread::sleep(Duration::from_millis(20));
        assert_eq!(q.pop(), Some(0));
        producer.join().unwrap().unwrap();
        assert_eq!(q.pop(), Some(1));
    }

    #[test]
    fn blocking_pop_wakes_on_push() {
        let q = CircularQueue::with_capacity(4);
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.push(42).unwrap();
        assert_eq!(consumer.join().unwrap(), Some(42));
    }

    #[test]
    fn close_drains_then_ends() {
        let q = CircularQueue::with_capacity(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        q.close();
        assert!(q.push(3).is_err());
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn close_wakes_blocked_consumer() {
        let q = CircularQueue::<u8>::with_capacity(1);
        let q2 = q.clone();
        let consumer = thread::spawn(move || q2.pop());
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }

    #[test]
    fn close_wakes_blocked_producer() {
        let q = CircularQueue::with_capacity(1);
        q.push(0u8).unwrap();
        let q2 = q.clone();
        let producer = thread::spawn(move || q2.push(1));
        thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(producer.join().unwrap(), Err(PushError(1)));
    }

    #[test]
    fn poisoned_lock_is_recovered_and_counted() {
        let q = CircularQueue::with_capacity(2);
        q.push(1).unwrap();
        let q2 = q.clone();
        let t = thread::spawn(move || {
            let _guard = q2.shared.inner.lock();
            panic!("receiver thread dies inside the critical section");
        });
        assert!(t.join().is_err());
        // The queue must stay usable — no cascade panic into this
        // (engine-side) thread — and the recovery must be counted once.
        assert_eq!(q.pop(), Some(1));
        q.push(2).unwrap();
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.poison_recoveries(), 1);
    }

    #[cfg(not(feature = "loom"))]
    #[test]
    fn pop_timeout_times_out_and_recovers() {
        let q = CircularQueue::<u8>::with_capacity(1);
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            PopTimeout::TimedOut
        );
        q.push(9).unwrap();
        assert_eq!(
            q.pop_timeout(Duration::from_millis(10)),
            PopTimeout::Item(9)
        );
        q.close();
        assert_eq!(q.pop_timeout(Duration::from_millis(10)), PopTimeout::Closed);
    }

    #[test]
    fn clear_discards_contents() {
        let q = CircularQueue::with_capacity(4);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.clear(), 2);
        assert!(q.is_empty());
    }

    #[test]
    #[cfg_attr(miri, ignore = "10k-item stress loop is too slow under miri")]
    fn spsc_stress_transfers_everything_in_order() {
        let q = CircularQueue::with_capacity(7);
        let q2 = q.clone();
        const N: usize = 10_000;
        let producer = thread::spawn(move || {
            for i in 0..N {
                q2.push(i).unwrap();
            }
        });
        let mut expected = 0;
        while expected < N {
            if let Some(v) = q.pop() {
                assert_eq!(v, expected);
                expected += 1;
            }
        }
        producer.join().unwrap();
    }

    #[test]
    #[cfg_attr(miri, ignore = "8k-item stress loop is too slow under miri")]
    fn mpmc_stress_conserves_items() {
        let q = CircularQueue::with_capacity(16);
        const PER_PRODUCER: usize = 2_000;
        const PRODUCERS: usize = 4;
        let mut producers = Vec::new();
        for p in 0..PRODUCERS {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    q.push(p * PER_PRODUCER + i).unwrap();
                }
            }));
        }
        let mut consumers = Vec::new();
        for _ in 0..3 {
            let q = q.clone();
            consumers.push(thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            }));
        }
        for p in producers {
            p.join().unwrap();
        }
        q.close();
        let mut all: Vec<usize> = consumers
            .into_iter()
            .flat_map(|c| c.join().unwrap())
            .collect();
        all.sort_unstable();
        let expected: Vec<usize> = (0..PRODUCERS * PER_PRODUCER).collect();
        assert_eq!(all, expected);
    }

    #[test]
    fn data_hook_fires_only_on_empty_to_nonempty_edge() {
        let q = CircularQueue::with_capacity(4);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        q.set_data_hook(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::AcqRel);
        })));
        q.push(1).unwrap(); // empty -> nonempty: fires
        q.push(2).unwrap(); // nonempty: silent
        q.try_push(3).unwrap(); // nonempty: silent
        assert_eq!(hits.load(Ordering::Acquire), 1);
        let mut out = Vec::new();
        q.drain_into(&mut out);
        let mut batch = vec![7, 8];
        q.push_batch(&mut batch); // empty -> nonempty again: fires
        assert_eq!(hits.load(Ordering::Acquire), 2);
        q.set_data_hook(None);
        q.drain_into(&mut out);
        q.push(9).unwrap(); // hook removed: silent
        assert_eq!(hits.load(Ordering::Acquire), 2);
    }

    #[test]
    fn space_hook_fires_only_on_full_to_nonfull_edge() {
        let q = CircularQueue::with_capacity(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        q.set_space_hook(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::AcqRel);
        })));
        q.push(1).unwrap();
        assert_eq!(q.try_pop(), Some(1)); // not full: silent
        assert_eq!(hits.load(Ordering::Acquire), 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.try_pop(), Some(1)); // full -> nonfull: fires
        assert_eq!(hits.load(Ordering::Acquire), 1);
        assert_eq!(q.try_pop(), Some(2)); // silent
        assert_eq!(hits.load(Ordering::Acquire), 1);
        q.push(3).unwrap();
        q.push(4).unwrap();
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2); // full -> nonfull: fires
        assert_eq!(hits.load(Ordering::Acquire), 2);
    }

    #[test]
    fn close_fires_both_hooks() {
        let q = CircularQueue::<u8>::with_capacity(2);
        let hits = Arc::new(AtomicU64::new(0));
        let h1 = Arc::clone(&hits);
        let h2 = Arc::clone(&hits);
        q.set_data_hook(Some(Arc::new(move || {
            h1.fetch_add(1, Ordering::AcqRel);
        })));
        q.set_space_hook(Some(Arc::new(move || {
            h2.fetch_add(1, Ordering::AcqRel);
        })));
        q.close();
        assert_eq!(hits.load(Ordering::Acquire), 2);
    }

    #[test]
    fn hook_install_then_len_check_closes_the_race_window() {
        // The registration protocol the shard relies on: items pushed
        // before the hook existed are found by the post-install check.
        let q = CircularQueue::with_capacity(4);
        q.push(1).unwrap(); // pre-hook push: no hook to fire
        let hits = Arc::new(AtomicU64::new(0));
        let h = Arc::clone(&hits);
        q.set_data_hook(Some(Arc::new(move || {
            h.fetch_add(1, Ordering::AcqRel);
        })));
        assert_eq!(hits.load(Ordering::Acquire), 0, "no retroactive signal");
        assert!(!q.is_empty(), "post-install check finds the early item");
    }

    #[test]
    fn pop_batch_drains_fifo_up_to_max() {
        let q = CircularQueue::with_capacity(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(3, &mut out), 3);
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.pop_batch(10, &mut out), 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(q.pop_batch(10, &mut out), 0);
        assert_eq!(q.pop_batch(0, &mut out), 0);
    }

    #[test]
    fn pop_batch_observed_reports_pre_pop_occupancy() {
        let q = CircularQueue::with_capacity(8);
        for i in 0..5 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.pop_batch_observed(3, &mut out), (3, 5));
        assert_eq!(out, vec![0, 1, 2]);
        assert_eq!(q.pop_batch_observed(10, &mut out), (2, 2));
        assert_eq!(q.pop_batch_observed(10, &mut out), (0, 0));
    }

    #[test]
    fn push_batch_accepts_up_to_capacity_and_keeps_leftovers() {
        let q = CircularQueue::with_capacity(3);
        q.push(100).unwrap();
        let mut items = vec![1, 2, 3, 4];
        assert_eq!(q.push_batch(&mut items), 2);
        assert_eq!(items, vec![3, 4], "leftovers stay, in order");
        assert_eq!(q.pop(), Some(100));
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        // Now there is room for the leftovers.
        assert_eq!(q.push_batch(&mut items), 2);
        assert!(items.is_empty());
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), Some(4));
    }

    #[test]
    fn push_all_waits_until_every_item_is_placed() {
        let q = CircularQueue::with_capacity(2);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut items: Vec<u32> = (0..7).collect();
                q.push_all(&mut items).map(|()| items)
            })
        };
        let mut got = Vec::new();
        while got.len() < 7 {
            if q.pop_batch(2, &mut got) == 0 {
                thread::yield_now();
            }
        }
        assert_eq!(producer.join().unwrap(), Ok(Vec::new()));
        assert_eq!(got, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn push_all_on_close_keeps_the_unplaced_rest_in_order() {
        let q = CircularQueue::with_capacity(2);
        // Closes once the first two items fill the buffer: nothing pops,
        // so the push is then parked with the other two.
        let closer = {
            let q = q.clone();
            thread::spawn(move || {
                while !q.is_full() {
                    thread::yield_now();
                }
                q.close();
            })
        };
        let mut items = vec![1, 2, 3, 4];
        assert_eq!(q.push_all(&mut items), Err(PushError(())));
        assert_eq!(items, vec![3, 4]);
        closer.join().unwrap();
        let mut out = Vec::new();
        q.drain_into(&mut out);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn push_batch_on_closed_queue_accepts_nothing() {
        let q = CircularQueue::with_capacity(4);
        q.close();
        let mut items = vec![1, 2];
        assert_eq!(q.push_batch(&mut items), 0);
        assert_eq!(items, vec![1, 2]);
        assert!(q.is_closed());
    }

    #[test]
    fn drain_into_empties_the_queue() {
        let q = CircularQueue::with_capacity(8);
        for i in 0..6 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out), 6);
        assert_eq!(out, (0..6).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn pop_batch_wakes_blocked_producers() {
        let q = CircularQueue::with_capacity(2);
        q.push(0).unwrap();
        q.push(1).unwrap();
        let producers: Vec<_> = (0..2)
            .map(|i| {
                let q = q.clone();
                thread::spawn(move || q.push(10 + i).unwrap())
            })
            .collect();
        thread::sleep(Duration::from_millis(50));
        let mut out = Vec::new();
        assert_eq!(q.pop_batch(2, &mut out), 2);
        assert_eq!(out, vec![0, 1]);
        for p in producers {
            p.join().unwrap();
        }
        let mut rest = Vec::new();
        q.drain_into(&mut rest);
        rest.sort_unstable();
        assert_eq!(rest, vec![10, 11]);
    }

    #[test]
    fn push_batch_wakes_blocked_consumer() {
        let q = CircularQueue::with_capacity(8);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut got = Vec::new();
                while let Some(v) = q.pop() {
                    got.push(v);
                }
                got
            })
        };
        thread::sleep(Duration::from_millis(50));
        let mut items = vec![1, 2, 3];
        assert_eq!(q.push_batch(&mut items), 3);
        thread::sleep(Duration::from_millis(50));
        q.close();
        assert_eq!(consumer.join().unwrap(), vec![1, 2, 3]);
    }
}
