//! loom models for the `CircularQueue` protocols.
//!
//! Run with `cargo test -p ioverlay-queue --features loom`. Each model
//! is explored under `LOOM_COMPAT_ITERS` randomized-deterministic
//! schedules (see `crates/compat/loom`); on failure the seed is printed
//! for an exact replay.
//!
//! The `#[should_panic]` models are deliberate-bug demonstrators: they
//! keep proving, on every CI run, that the checker would catch the
//! corresponding real bug (a lost SendSpace wakeup, a hook installed
//! after the check, a DataAvailable decided before the push loop) if it
//! were ever reintroduced.

#![cfg(feature = "loom")]

use ioverlay_queue::{CircularQueue, TryPushError};
use loom::thread;

/// SPSC with blocking push/pop through a tight (capacity-2) buffer:
/// every message arrives exactly once, in FIFO order, under every
/// schedule. This is the receiver-thread → engine-thread handoff.
#[test]
fn spsc_blocking_conservation() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(2);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for i in 0..4u32 {
                    q.push(i).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        for _ in 0..4 {
            got.push(q.pop().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2, 3], "lost, duplicated or reordered");
    });
}

/// Two producers, one consumer, capacity 1 (maximum contention): no
/// message is lost or duplicated and each producer's order survives.
#[test]
fn mpsc_conservation_under_contention() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(1);
        let producers: Vec<_> = [[1u32, 2], [11, 12]]
            .into_iter()
            .map(|msgs| {
                let q = q.clone();
                thread::spawn(move || {
                    for m in msgs {
                        q.push(m).unwrap();
                    }
                })
            })
            .collect();
        let mut got = Vec::new();
        while got.len() < 4 {
            got.push(q.pop().unwrap());
            q.pop_batch(8, &mut got);
        }
        for p in producers {
            p.join().unwrap();
        }
        let p0: Vec<_> = got.iter().copied().filter(|&v| v < 10).collect();
        let p1: Vec<_> = got.iter().copied().filter(|&v| v >= 10).collect();
        assert_eq!(p0, vec![1, 2], "producer 0 order violated");
        assert_eq!(p1, vec![11, 12], "producer 1 order violated");
    });
}

/// Batched producer (`push_batch` with leftover retry) against a
/// batched consumer (`pop_batch` + `drain_into`): conservation and
/// FIFO order hold across partial batch acceptance.
#[test]
fn batch_paths_conserve_and_order() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(2);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut pending = vec![1u32, 2, 3, 4];
                while !pending.is_empty() {
                    if q.push_batch(&mut pending) == 0 {
                        thread::yield_now();
                    }
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 4 {
            if q.pop_batch(2, &mut got) == 0 {
                q.drain_into(&mut got);
                thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3, 4], "batch paths lost or reordered");
    });
}

/// The blocking receiver's hand-off: one `push_all` of three items
/// into a capacity-1 buffer with a data hook, against a consumer that
/// drains with `pop_batch` and, finding the buffer empty, parks until
/// the hook says otherwise. Every item arrives once and in order, no
/// schedule strands the consumer, and — each placement landing in an
/// empty buffer — the hook fires once per item.
#[test]
fn push_all_conserves_orders_and_wakes_on_every_empty_edge() {
    loom::model(|| {
        use loom::sync::Arc;
        let data = CircularQueue::with_capacity(1);
        // Stand-in for the unbounded control channel.
        let events = CircularQueue::with_capacity(8);
        {
            let events = events.clone();
            data.set_data_hook(Some(Arc::new(move || {
                events.try_push(()).expect("control channel overflow");
            })));
        }
        let producer = {
            let data = data.clone();
            thread::spawn(move || {
                let mut batch = vec![1u32, 2, 3];
                data.push_all(&mut batch).expect("never closed");
                assert!(batch.is_empty(), "a successful push_all places everything");
            })
        };
        let (mut got, mut parks) = (Vec::new(), 0);
        while got.len() < 3 {
            if data.pop_batch(8, &mut got) == 0 {
                events.pop().expect("control channel closed");
                parks += 1;
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![1, 2, 3], "lost, duplicated or reordered");
        // Each hook call left one token: taken by a park or still queued.
        let mut unread = Vec::new();
        events.drain_into(&mut unread);
        assert_eq!(
            parks + unread.len(),
            3,
            "one data-hook call per empty-to-non-empty edge"
        );
    });
}

/// A close racing `push_all`: the items it placed are exactly what the
/// consumer drains, the rest come back in `items` in order, and it
/// reports an error exactly when something was left over.
#[test]
fn push_all_returns_the_unplaced_rest_on_close() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(1);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                let mut batch = vec![1u32, 2, 3];
                let result = q.push_all(&mut batch);
                (result.is_ok(), batch)
            })
        };
        let closer = {
            let q = q.clone();
            thread::spawn(move || {
                let first = q.pop();
                q.close();
                first
            })
        };
        let first = closer.join().unwrap();
        let (ok, rest) = producer.join().unwrap();
        let mut drained: Vec<u32> = first.into_iter().collect();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        assert_eq!(
            ok,
            rest.is_empty(),
            "error exactly when items are left over"
        );
        drained.extend(rest);
        assert_eq!(drained, vec![1, 2, 3], "placed prefix plus returned rest");
    });
}

/// `pop_batch_observed` samples occupancy under the same lock as the
/// pop: the reported pair must always be internally consistent
/// (`take == min(max, occupancy)`, `occupancy <= capacity`), which is
/// what makes the telemetry occupancy histogram trustworthy.
#[test]
fn observed_occupancy_is_consistent() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(2);
        let producer = {
            let q = q.clone();
            thread::spawn(move || {
                for i in 0..3u32 {
                    q.push(i).unwrap();
                }
            })
        };
        let mut got = Vec::new();
        while got.len() < 3 {
            let before = got.len();
            let (take, occupancy) = q.pop_batch_observed(2, &mut got);
            assert!(occupancy <= q.capacity(), "occupancy above capacity");
            assert_eq!(take, occupancy.min(2), "take inconsistent with occupancy");
            assert_eq!(got.len() - before, take, "take inconsistent with output");
            if take == 0 {
                thread::yield_now();
            }
        }
        producer.join().unwrap();
        assert_eq!(got, vec![0, 1, 2]);
    });
}

/// Shutdown racing an in-flight push: whatever the interleaving, the
/// item is in the drained output if and only if the push reported
/// success. (Graceful teardown must not drop accepted messages, and
/// must not conjure rejected ones.)
#[test]
fn shutdown_vs_inflight_push() {
    loom::model(|| {
        let q = CircularQueue::with_capacity(1);
        let pusher = {
            let q = q.clone();
            thread::spawn(move || q.push(7u32).is_ok())
        };
        let closer = {
            let q = q.clone();
            thread::spawn(move || q.close())
        };
        let accepted = pusher.join().unwrap();
        closer.join().unwrap();
        let mut drained = Vec::new();
        while let Some(v) = q.pop() {
            drained.push(v);
        }
        if accepted {
            assert_eq!(drained, vec![7], "accepted item lost on shutdown");
        } else {
            assert!(drained.is_empty(), "rejected item appeared anyway");
        }
    });
}

/// `close()` must wake a consumer already blocked in `pop()` — the
/// domino-teardown path. A missed `notify_all` here would strand sender
/// threads forever; the model proves there is no such interleaving.
#[test]
fn close_always_wakes_blocked_consumer() {
    loom::model(|| {
        let q = CircularQueue::<u8>::with_capacity(1);
        let consumer = {
            let q = q.clone();
            thread::spawn(move || q.pop())
        };
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    });
}

/// The SendSpace wakeup protocol from `crates/engine`, reduced to its
/// synchronization skeleton. The engine thread forwards N messages
/// through a capacity-1 sender buffer with `try_push`; on `Full` it
/// parks until a control event arrives (the real engine blocks in
/// `crossbeam` `recv`). The sender thread drains the buffer, and the
/// buffer's *space hook* — this is the protocol under test, installed
/// by `LinkEnv::wake_on_space` in the real engine — emits a SendSpace
/// event whenever a pop found it full. Because the control channel is a
/// queue, a signal sent before the engine parks is *not* lost.
fn sendspace_protocol(signal_on_drain: bool) {
    use loom::sync::Arc;
    const N: u32 = 3;
    let data = CircularQueue::with_capacity(1);
    // Stand-in for the unbounded crossbeam control channel.
    let events = CircularQueue::with_capacity(8);
    if signal_on_drain {
        let events = events.clone();
        data.set_space_hook(Some(Arc::new(move || {
            events.try_push(()).expect("control channel overflow");
        })));
    }
    let engine = {
        let data = data.clone();
        let events = events.clone();
        thread::spawn(move || {
            for msg in 0..N {
                loop {
                    match data.try_push(msg) {
                        Ok(()) => break,
                        Err(TryPushError::Full(_)) => {
                            // Parked engine: only a SendSpace event
                            // resumes it (no timeout fallback — that
                            // would be the stop-and-wait this protocol
                            // eliminated).
                            events.pop().expect("control channel closed");
                        }
                        Err(TryPushError::Closed(_)) => unreachable!("never closed"),
                    }
                }
            }
        })
    };
    let sender = {
        let data = data.clone();
        thread::spawn(move || {
            let mut received = 0;
            let mut batch = Vec::new();
            while received < N {
                batch.clear();
                batch.push(data.pop().expect("engine still pushing"));
                data.pop_batch(8, &mut batch);
                received += batch.len() as u32;
            }
        })
    };
    engine.join().unwrap();
    sender.join().unwrap();
}

/// Who decides that the engine needs a DataAvailable wakeup.
#[derive(Clone, Copy)]
enum DataSignal {
    /// The receive buffer's data hook: the empty edge is observed under
    /// the buffer lock by whichever push crosses it
    /// (`LinkEnv::wake_on_data`).
    QueueHook,
    /// The receiver looks at `is_empty()` once, before its push loop,
    /// and signals after it — the protocol the engine used to have.
    CheckBeforeLoop,
}

/// The DataAvailable wakeup protocol of the blocking receiver ⇄ engine
/// pair, reduced to its synchronization skeleton. The receiver thread
/// has a batch of N messages for a capacity-1 receive buffer that
/// already holds one, so it spends the batch parked in a blocking
/// `push` on a full buffer. The engine drains the buffer; when it finds it empty it
/// parks on the control channel until a DataAvailable event arrives
/// (the real engine's `recv_timeout`, minus the 5 ms fallback that would
/// hide the bug as a latency tail).
///
/// The interleaving that matters: receiver checks "was the buffer
/// empty?" (no — one message is in it), blocks in `push`; engine pops
/// that message, sees the buffer empty, parks; the receiver's blocked
/// push lands in the *empty* buffer. With the check made before the
/// loop nobody signals, and both threads wait forever.
fn data_available_protocol(signal: DataSignal) {
    use loom::sync::Arc;
    const N: u32 = 3;
    let data = CircularQueue::with_capacity(1);
    // Stand-in for the unbounded crossbeam control channel.
    let events = CircularQueue::with_capacity(8);
    if let DataSignal::QueueHook = signal {
        let events = events.clone();
        data.set_data_hook(Some(Arc::new(move || {
            events.try_push(()).expect("control channel overflow");
        })));
    }
    // Left over from an earlier batch: the receiver's one look at the
    // buffer finds it non-empty.
    data.push(100).unwrap();
    let receiver = {
        let data = data.clone();
        let events = events.clone();
        thread::spawn(move || {
            // One decoded batch: a push loop with a single look at the
            // buffer in front of it.
            let was_empty = data.is_empty();
            for msg in 0..N {
                data.push(msg).expect("engine still draining");
            }
            if let (DataSignal::CheckBeforeLoop, true) = (signal, was_empty) {
                events.try_push(()).expect("control channel overflow");
            }
        })
    };
    let mut got = Vec::new();
    while (got.len() as u32) < N + 1 {
        if data.pop_batch(8, &mut got) == 0 {
            // Parked engine: the buffer was empty when it looked, and
            // only an event makes it look again.
            events.pop().expect("control channel closed");
        }
    }
    receiver.join().unwrap();
    assert_eq!(got, vec![100, 0, 1, 2], "receive buffer lost or reordered");
}

/// The shard-mailbox wakeup protocol from the reactor backend
/// (`crates/engine/src/shard.rs`), reduced to its synchronization
/// skeleton — the readiness-era sibling of [`sendspace_protocol`].
///
/// The engine thread pushes messages into a per-link sender mailbox;
/// the shard worker is parked in `Poll::poll` and is nudged by the
/// queue's *data hook*, which fires on the empty→non-empty edge and
/// pokes a **sticky** waker (an eventfd: a wake issued while the shard
/// is busy is latched and consumed by its next poll, never dropped).
/// Here the waker is modeled as a capacity-1 queue: `try_push(())` with
/// `Full` ignored is `wake()` (coalescing), blocking `pop()` is the
/// parked poll.
///
/// The protocol has exactly one subtle rule, documented on
/// `CircularQueue::set_data_hook`: the hook only fires on the edge, so
/// the consumer must *install the hook first, then check the mailbox
/// once* before parking. `install_before_use` toggles that rule; the
/// demonstrator below shows the lost wakeup when it is broken.
fn shard_mailbox_protocol(install_before_use: bool) {
    use loom::sync::Arc;
    const N: u32 = 3;
    let mailbox = CircularQueue::with_capacity(2);
    // Sticky wake latch standing in for the reactor's eventfd waker.
    let waker = CircularQueue::with_capacity(1);

    let install = |mailbox: &CircularQueue<u32>, waker: &CircularQueue<()>| {
        let w = waker.clone();
        mailbox.set_data_hook(Some(Arc::new(move || {
            // wake(): latch a token; an already-latched waker coalesces.
            let _ = w.try_push(());
        })));
    };
    if install_before_use {
        install(&mailbox, &waker);
    }

    let producer = {
        let mailbox = mailbox.clone();
        thread::spawn(move || {
            for i in 0..N {
                mailbox.push(i).unwrap();
            }
        })
    };

    // Shard worker: drain the mailbox; when it runs dry, park on the
    // waker (the poll call). The broken ordering installs the hook only
    // after observing the mailbox empty — a push landing in that window
    // fires no hook, so the shard parks on a waker nobody will ever
    // poke.
    let mut got = Vec::new();
    while (got.len() as u32) < N {
        if mailbox.pop_batch(8, &mut got) == 0 {
            if !install_before_use {
                install(&mailbox, &waker);
                if !mailbox.is_empty() {
                    // Post-install check — but performed only from the
                    // second park onward in this broken variant, the
                    // first park already raced.
                }
            }
            waker.pop().expect("waker closed");
        }
    }
    producer.join().unwrap();
    assert_eq!(got, vec![0, 1, 2], "mailbox lost or reordered");
}

/// With the SendSpace signal in place there is NO interleaving in which
/// the parked engine misses the wakeup: the model completes under every
/// schedule.
#[test]
fn sendspace_wakeup_never_lost() {
    loom::model(|| sendspace_protocol(true));
}

/// With the wakeup taken from the buffer's own empty edge there is NO
/// interleaving in which the parked engine misses a refill, however the
/// receiver's blocking pushes and the engine's drains interleave.
#[test]
fn data_available_wakeup_never_lost() {
    loom::model(|| data_available_protocol(DataSignal::QueueHook));
}

/// Deciding before the push loop whether the engine needs waking loses
/// the wakeup whenever the engine drains the buffer while the receiver
/// is parked in a blocking push: the model reports the stuck
/// interleaving. This is what `run_receiver` did before the hook; the
/// real engine survived it only through its 5 ms fallback.
#[test]
#[should_panic(expected = "DEADLOCK")]
fn data_available_check_before_the_loop_deadlocks() {
    loom::model(|| data_available_protocol(DataSignal::CheckBeforeLoop));
}

/// Install-hook-then-check ordering plus a sticky waker: no
/// interleaving loses the shard wakeup — the reactor-backend analogue
/// of [`sendspace_wakeup_never_lost`].
#[test]
fn shard_mailbox_wakeup_never_lost() {
    loom::model(|| shard_mailbox_protocol(true));
}

/// Breaking the ordering (hook installed only after the mailbox is
/// seen empty) reintroduces the lost wakeup: the producer's pushes land
/// before any hook exists, the shard parks forever, and the model
/// reports the stuck interleaving. If `shard.rs` ever reorders its
/// registration sequence, the positive model above hangs exactly like
/// this.
#[test]
#[should_panic(expected = "DEADLOCK")]
fn shard_mailbox_install_after_check_deadlocks() {
    loom::model(|| shard_mailbox_protocol(false));
}

/// Without the signal (sender drains a full buffer, nobody says so) the
/// engine ⇄ sender pair deadlocks, and the model proves it by
/// reporting the stuck interleaving. This is the acceptance-criterion
/// demonstrator: if send buffers ever lose their space hook, the
/// positive model above hangs exactly like this one.
#[test]
#[should_panic(expected = "DEADLOCK")]
fn sendspace_without_signal_deadlocks() {
    loom::model(|| sendspace_protocol(false));
}
