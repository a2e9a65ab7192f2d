//! Receiver and sender threads for persistent peer connections.

use std::io::{self, BufWriter, Write};
use std::net::{Shutdown, TcpStream};
use crate::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crossbeam_channel::Sender;
use ioverlay_api::{Msg, MsgType, NodeId};
use ioverlay_message::{write_msg, Decoder};
use ioverlay_queue::{CircularQueue, PopTimeout};
use ioverlay_ratelimit::{BucketChain, Clock, Nanos, ThroughputMeter};

use crate::link::{LinkEnv, Outbound, RECV_CHUNK, SEND_BATCH_MAX};
use crate::sync::{check_blocking, Mutex};

/// Longest uninterrupted slice of a token-bucket reservation sleep.
const RESERVE_SLICE: Duration = Duration::from_millis(10);

/// Sleeps out a token-bucket reservation in ~10ms slices, re-checking
/// between slices whether the engine closed the queue, so teardown is
/// never stuck behind a multi-second bandwidth delay. Returns `false`
/// if the queue closed before the reservation elapsed.
fn sleep_reservation(delay_nanos: u64, queue: &CircularQueue<Msg>) -> bool {
    let slice = RESERVE_SLICE.as_nanos() as u64;
    let mut remaining = delay_nanos;
    while remaining > 0 {
        if queue.is_closed() {
            return false;
        }
        let step = remaining.min(slice);
        thread::sleep(Duration::from_nanos(step));
        remaining -= step;
    }
    true
}

/// Internal events posted to the engine thread by socket threads — the
/// paper's *"mechanism of passing application-layer messages across
/// thread boundaries"* that avoids explicit thread synchronization.
#[derive(Debug)]
pub(crate) enum ControlEvent {
    /// A control-plane or one-shot message arrived (from the observer,
    /// from a peer's algorithm, or synthesized by the engine itself).
    Incoming(Msg),
    /// The listener accepted a persistent connection from `peer`.
    UpstreamOpened {
        peer: NodeId,
        queue: CircularQueue<Msg>,
        meter: Arc<Mutex<ThroughputMeter>>,
        /// Engine-held handle used to shut the socket down on teardown.
        /// `None` on the reactor backend: the shard owns the only fd
        /// (halving per-link fd cost), and teardown goes through
        /// `ShardPool::remove` instead of a socket shutdown.
        stream: Option<TcpStream>,
    },
    /// A receiver thread saw its socket die.
    UpstreamFailed(NodeId),
    /// A sender thread saw its socket die.
    DownstreamFailed(NodeId),
    /// A push found a receive buffer empty; the engine should wake.
    /// Sent by the buffer's data hook ([`LinkEnv::wake_on_data`]) and by
    /// nothing else.
    DataAvailable,
    /// A pop found a send buffer *full*; the engine should wake and
    /// retry blocked fan-outs (without this the engine only notices
    /// freed space on its 5 ms fallback tick — turning a saturated relay
    /// into stop-and-wait). Sent by the buffer's space hook
    /// ([`LinkEnv::wake_on_space`]) and by nothing else.
    SendSpace,
    /// Reply-carrying status request from the local handle.
    StatusRequest(Sender<ioverlay_api::StatusReport>),
    /// Ask the engine to stop.
    Shutdown,
}

/// Sender-side state for one downstream link, owned by the engine thread.
pub(crate) struct SenderLink {
    pub queue: CircularQueue<Msg>,
    /// Locally originated messages that did not fit in `queue`; retried
    /// every engine round. Bounded in practice because sources pace on
    /// [`ioverlay_api::Context::backlog`], which includes this.
    pub pending: std::collections::VecDeque<Msg>,
    pub meter: Arc<Mutex<ThroughputMeter>>,
    /// `None` on the reactor backend (the shard owns the only fd).
    pub stream: Option<TcpStream>,
    pub thread: Option<JoinHandle<()>>,
}

impl SenderLink {
    /// Messages queued toward the peer, in all stages.
    pub fn depth(&self) -> usize {
        self.queue.len() + self.pending.len()
    }

    /// Closes the link: the queue drains, the sender thread exits, and
    /// the socket shuts down (the shutdown unblocks a sender thread
    /// parked in `write_all`; shard-owned links close via the pool).
    pub fn close(&mut self) {
        self.queue.close();
        if let Some(stream) = &self.stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[cfg(test)]
impl SenderLink {
    /// A link with a `capacity`-message buffer and no socket or thread
    /// behind it: what the engine sees of a downstream, for unit tests.
    pub(crate) fn detached(capacity: usize) -> SenderLink {
        SenderLink {
            queue: CircularQueue::with_capacity(capacity),
            pending: std::collections::VecDeque::new(),
            meter: Arc::new(Mutex::new(
                &crate::sync::classes::ENGINE_METER,
                ThroughputMeter::new(1_000_000_000),
            )),
            stream: None,
            thread: None,
        }
    }
}

/// Receiver-side state for one upstream link, owned by the engine thread.
pub(crate) struct ReceiverLink {
    pub queue: CircularQueue<Msg>,
    pub meter: Arc<Mutex<ThroughputMeter>>,
    /// When the engine registered the link: what the inactivity detector
    /// counts from until the first sample reaches `meter`.
    pub opened: Nanos,
    /// `None` on the reactor backend (the shard owns the only fd).
    pub stream: Option<TcpStream>,
}

impl ReceiverLink {
    /// Closes the link; the receiver thread exits on the socket error.
    pub fn close(&mut self) {
        self.queue.close();
        if let Some(stream) = &self.stream {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// Runs a receiver thread: blocking reads from a persistent connection
/// straight into the incremental decoder's receive window (each decoded
/// payload is a slice of it), and each read's messages handed to the
/// bounded receive buffer in one blocking batch push. Blocking on a full
/// buffer is what stops the TCP window and propagates back pressure
/// upstream.
pub(crate) fn run_receiver(
    env: LinkEnv,
    peer: NodeId,
    mut stream: TcpStream,
    queue: CircularQueue<Msg>,
    meter: Arc<Mutex<ThroughputMeter>>,
    down_chain: BucketChain,
) {
    let mut decoder = Decoder::new();
    let mut batch: Vec<Msg> = Vec::new();
    loop {
        // A clean EOF and a socket error both mean the upstream is gone
        // (an EOF inside a message loses framing anyway), and so does a
        // malformed header.
        let drained = match decoder.read_from(&mut stream, RECV_CHUNK) {
            Ok(0) | Err(_) => None,
            Ok(n) => env.drain(&mut decoder, n, &mut batch).ok(),
        };
        let Some(inbound) = drained else {
            let _ = env.events.send(ControlEvent::UpstreamFailed(peer));
            break;
        };
        if batch.is_empty() {
            continue; // mid-message: keep reading
        }
        let delay = env.admit(peer, &down_chain, &mut batch, &inbound, env.clock.now());
        if !sleep_reservation(delay, &queue) {
            break; // engine closed the link
        }
        meter
            .lock()
            .record_batch(inbound.bytes, batch.len() as u64, env.clock.now());
        // A full buffer parks the thread until the engine frees space,
        // which stalls the read loop (and the TCP window); the buffer's
        // data hook wakes the engine from whichever refill finds it
        // empty.
        if queue.push_all(&mut batch).is_err() {
            break; // engine closed the link
        }
    }
}

/// Runs a sender thread: pops a batch from the bounded send buffer
/// (sleeping when empty, woken by the engine thread via the queue's
/// condvar), applies uplink emulation once for the batch total, stages
/// every message into one reused gather list, and flushes it with
/// blocking vectored writes.
///
/// Batches only form under backlog: an idle link takes the same path
/// with a batch of one, so a lone message is encoded and written (hence
/// flushed) immediately — the flush-on-idle latency guarantee.
pub(crate) fn run_sender(
    env: LinkEnv,
    peer: NodeId,
    mut stream: TcpStream,
    queue: CircularQueue<Msg>,
    meter: Arc<Mutex<ThroughputMeter>>,
    up_chain: BucketChain,
) {
    let mut batch: Vec<Msg> = Vec::new();
    let mut out = Outbound::default();
    loop {
        match queue.pop_timeout(Duration::from_millis(100)) {
            PopTimeout::Item(first) => {
                batch.push(first);
                queue.pop_batch(SEND_BATCH_MAX - 1, &mut batch);
                // Reserve first and serialize after the wait, so the
                // gather list is built right before its write.
                env.stage(&batch, &mut out);
                let delay = env.pace(peer, &up_chain, &out, env.clock.now());
                if !sleep_reservation(delay, &queue) {
                    break; // closed mid-reservation: teardown in progress
                }
                env.serialize(peer, &batch, &mut out);
                let write_start = env.span_now(&out);
                if out.wire.write_to(&mut stream).is_err() {
                    let _ = env.events.send(ControlEvent::DownstreamFailed(peer));
                    break;
                }
                env.finish(peer, &out, &meter, write_start);
                batch.clear();
            }
            // Writes are unbuffered (one write per batch), so there is
            // nothing to flush on idle.
            PopTimeout::TimedOut => {}
            PopTimeout::Closed => break,
        }
    }
}

/// Dials a peer and performs the `hello` handshake that registers this
/// node as an upstream of `peer`.
pub(crate) fn connect_to_peer(
    local: NodeId,
    peer: NodeId,
    socket_buf: Option<usize>,
) -> io::Result<TcpStream> {
    check_blocking("peer dial");
    let stream = TcpStream::connect_timeout(&peer.to_socket_addr(), Duration::from_secs(2))?;
    stream.set_nodelay(true)?;
    if let Some(bytes) = socket_buf {
        // Best effort, mirroring the accept side.
        let _ = reactor::sockopt::set_socket_buffers(&stream, bytes);
    }
    let hello = Msg::control(MsgType::Hello, local, 0);
    let mut w = BufWriter::new(stream.try_clone()?);
    write_msg(&mut w, &hello)?;
    w.flush()?;
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::classes;
    use crossbeam_channel::unbounded;
    use ioverlay_message::read_msg;
    use std::io::BufReader;
    use std::net::TcpListener;

    #[test]
    fn hello_handshake_identifies_the_dialer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let local = NodeId::loopback(4242);
        let peer = NodeId::loopback(addr.port());
        // The thread returns the dial Result instead of unwrapping it:
        // a failure must surface as this test's assertion below, not as
        // an opaque cross-thread panic at join.
        let dialer = thread::spawn(move || connect_to_peer(local, peer, Some(64 * 1024)));
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn);
        let msg = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(msg.ty(), MsgType::Hello);
        assert_eq!(msg.origin(), local);
        let dialed = dialer.join().expect("dialer thread panicked");
        assert!(dialed.is_ok(), "dial failed: {:?}", dialed.err());
    }

    #[test]
    fn receiver_thread_reports_eof_as_failure() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let msg = Msg::data(NodeId::loopback(1), 7, 0, vec![9u8; 64]);
            let mut w = BufWriter::new(&stream);
            write_msg(&mut w, &msg).unwrap();
            w.flush().unwrap();
            // Dropping the stream produces EOF at the receiver.
        });
        let (conn, _) = listener.accept().unwrap();
        let queue = CircularQueue::with_capacity(4);
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(1_000_000_000)));
        let (tx, rx) = unbounded();
        let peer = NodeId::loopback(1);
        let env = LinkEnv::for_test(tx);
        env.wake_on_data(&queue);
        let tel = env.tel.clone();
        run_receiver(
            env,
            peer,
            conn,
            queue.clone(),
            meter.clone(),
            BucketChain::new(),
        );
        writer.join().unwrap();
        // One data message arrived, then a failure event.
        assert_eq!(queue.len(), 1);
        assert!(matches!(rx.try_recv(), Ok(ControlEvent::DataAvailable)));
        assert!(matches!(rx.try_recv(), Ok(ControlEvent::UpstreamFailed(p)) if p == peer));
        assert_eq!(meter.lock().total_msgs(), 1);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("msgs_received"), Some(1));
        assert!(snap.counter("bytes_received").unwrap() > 0);
    }

    /// The wake-up the hand-rolled `was_empty` check lost: the receiver
    /// looked at the buffer once, before its push loop, found it
    /// non-empty, and then sat in a blocking `push` on the full buffer
    /// while the engine drained it to empty and parked. The push that
    /// refilled the *empty* buffer announced nothing.
    #[test]
    fn receiver_wakes_engine_when_a_blocked_push_refills_an_empty_buffer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stream = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let (tx, rx) = unbounded();
        let env = LinkEnv::for_test(tx);
        let queue = CircularQueue::with_capacity(2);
        env.wake_on_data(&queue);
        // Pre-loaded, so the first thing the receiver sees is non-empty.
        queue.push(Msg::data(NodeId::loopback(1), 7, 0, vec![0u8; 8])).unwrap();
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(1_000_000_000)));
        let receiver = {
            let queue = queue.clone();
            thread::spawn(move || {
                run_receiver(env, NodeId::loopback(1), conn, queue, meter, BucketChain::new());
            })
        };
        // Five messages in one write: one fits, the receiver blocks on
        // the second with three more behind it.
        let mut wire = Vec::new();
        for seq in 1..=5u32 {
            wire.extend_from_slice(&Msg::data(NodeId::loopback(1), 7, seq, vec![0u8; 8]).encode());
        }
        (&stream).write_all(&wire).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while queue.len() < 2 {
            assert!(std::time::Instant::now() < deadline, "receiver never filled the buffer");
            thread::sleep(Duration::from_millis(1));
        }
        // The buffer is full, so no push can cross the empty edge until
        // it is drained: whatever is in the channel now is stale.
        while rx.try_recv().is_ok() {}
        let mut drained = Vec::new();
        assert_eq!(queue.pop_batch(2, &mut drained), 2);
        // The engine would park here. The blocked push now lands in an
        // empty buffer and must say so.
        match rx.recv_timeout(Duration::from_secs(1)) {
            Ok(ControlEvent::DataAvailable) => {}
            other => panic!("no wake-up for a push into the drained buffer: {other:?}"),
        }
        assert!(!queue.is_empty());
        queue.close();
        receiver.join().unwrap();
    }

    #[test]
    fn sender_thread_writes_queued_messages() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let out = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let queue = CircularQueue::with_capacity(4);
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(1_000_000_000)));
        let (tx, _rx) = unbounded();
        let q2 = queue.clone();
        let m2 = meter.clone();
        let env = LinkEnv::for_test(tx);
        let tel = env.tel.clone();
        let sender = thread::spawn(move || {
            run_sender(env, NodeId::loopback(2), out, q2, m2, BucketChain::new());
        });
        let msg = Msg::data(NodeId::loopback(1), 7, 3, vec![5u8; 100]);
        queue.push(msg.clone()).unwrap();
        let mut reader = BufReader::new(conn);
        let got = read_msg(&mut reader).unwrap().unwrap();
        assert_eq!(got, msg);
        queue.close();
        sender.join().unwrap();
        assert_eq!(meter.lock().total_bytes(), msg.wire_len() as u64);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("msgs_sent"), Some(1));
        assert_eq!(snap.counter("bytes_sent"), Some(msg.wire_len() as u64));
    }

    /// Batches must only form under backlog: a message queued to an
    /// *idle* sender goes out immediately (batch of one), not after a
    /// batching delay. Median over several sends keeps the assertion
    /// robust against one slow scheduler wakeup.
    #[test]
    fn idle_sender_flushes_single_message_sub_millisecond() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let out = TcpStream::connect(addr).unwrap();
        let (conn, _) = listener.accept().unwrap();
        let queue = CircularQueue::with_capacity(64);
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(1_000_000_000)));
        let (tx, _rx) = unbounded();
        let q2 = queue.clone();
        let env = LinkEnv::for_test(tx);
        let sender = thread::spawn(move || {
            run_sender(env, NodeId::loopback(2), out, q2, meter, BucketChain::new());
        });
        let mut reader = BufReader::new(conn);
        let mut latencies: Vec<Duration> = Vec::new();
        for seq in 0..15u32 {
            // The sender is idle between iterations (nothing queued).
            let msg = Msg::data(NodeId::loopback(1), 7, seq, vec![5u8; 100]);
            let sent = std::time::Instant::now();
            queue.push(msg.clone()).unwrap();
            let got = read_msg(&mut reader).unwrap().unwrap();
            latencies.push(sent.elapsed());
            assert_eq!(got, msg);
        }
        queue.close();
        sender.join().unwrap();
        latencies.sort();
        let median = latencies[latencies.len() / 2];
        assert!(
            median < Duration::from_millis(1),
            "idle single-message flush latency: median {median:?}, want < 1ms"
        );
    }
}
