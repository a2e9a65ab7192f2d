//! The sharded readiness-driven switch core (`IoBackend::Reactor`).
//!
//! The paper's engine spends two OS threads per link (a blocking
//! receiver and a blocking sender); this module replaces both with a
//! small fixed pool of *shard workers*. Links are hashed onto shards by
//! peer id; each shard owns its links' sockets outright and multiplexes
//! them through one [`reactor::Poll`] — thread count is O(shards), not
//! O(links), which is what the ROADMAP's scale items require.
//!
//! Everything above the socket layer is unchanged: a link still speaks
//! to the engine thread through its bounded [`CircularQueue`] and the
//! [`ControlEvent`] channel, with identical semantics:
//!
//! * **ingress** — a readable socket is read a chunk at a time, decoded
//!   incrementally, paced by the same [`BucketChain`], and pushed into
//!   the link's receive buffer, whose data hook (installed by the
//!   engine side, [`LinkEnv::wake_on_data`]) sends `DataAvailable` on
//!   the empty edge. A full buffer *pauses read interest* instead of
//!   blocking a thread; the queue's space hook (the shard's slot, fired
//!   when the engine drains a full buffer) resumes it. Back pressure
//!   still reaches the peer through the un-read TCP window.
//! * **egress** — the engine fills the link's send buffer exactly as
//!   before; the queue's data hook nudges the owning shard, which
//!   drains a batch, stages it as a gather list, reserves bandwidth
//!   once per batch, and issues *non-blocking vectored writes*.
//!   `WOULDBLOCK` parks the link on write readiness with the staged
//!   bytes kept for resumption; a drain that found the buffer full
//!   fires its space hook (the engine's slot,
//!   [`LinkEnv::wake_on_space`]): `SendSpace`, same as under the
//!   blocking sender thread.
//! * **pacing** — a token-bucket delay becomes a timer on the shard's
//!   deadline heap, never a sleep: one slow emulated link cannot stall
//!   its shard siblings.
//!
//! How a batch is accounted, paced and traced is [`crate::link`]'s, the
//! same steps the blocking backend runs; this module owns readiness,
//! timers, interest re-registration and partial-write resumption.
//!
//! Shard scheduling is the engine's own recipe one level down: ready
//! links are serviced in weighted-round-robin order, one read quantum
//! each, so a firehose upstream cannot starve its shard-mates.
//!
//! Wakeup discipline (checked by the `shard_mailbox_wakeup` loom model
//! in `crates/queue`): hooks are installed **before** the first drain
//! of the queue they watch, and the reactor waker is sticky, so the
//! hook-fires-before-park interleaving is never lost.

use std::collections::{BTreeSet, BinaryHeap, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::TcpStream;
use crate::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crossbeam_channel::{Receiver, Sender, TryRecvError};
use ioverlay_api::{Msg, Nanos, NodeId};
use ioverlay_message::Decoder;
use ioverlay_queue::{CircularQueue, WeightedRoundRobin};
use ioverlay_ratelimit::{BucketChain, Clock, ThroughputMeter};
use reactor::{Events, Interest, Poll, Token, Waker};

use crate::link::{LinkEnv, Outbound, RECV_CHUNK, SEND_BATCH_MAX};
use crate::peer::ControlEvent;
use crate::sync::{check_blocking, classes, Mutex};

/// Token of each shard's waker; link tokens start above it.
const WAKER_TOKEN: Token = Token(0);

/// Staged-but-unwritten egress bytes per link above which the shard
/// stops draining that link's send buffer, so a stalled peer's memory
/// cost is bounded and back pressure reaches the engine's blocked
/// bookkeeping.
const OUT_HIGH_WATER: usize = 1 << 20;

/// Idle poll timeout; an upper bound only — wakers, readiness, and
/// timers all interrupt it.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// Which side of a peer relationship a registered link carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LinkDir {
    /// Upstream → us: we read.
    Recv,
    /// Us → downstream: we write.
    Send,
}

/// A connection on its way to its shard: the socket plus everything
/// the link shares with the engine thread.
struct NewLink {
    dir: LinkDir,
    peer: NodeId,
    stream: TcpStream,
    queue: CircularQueue<Msg>,
    meter: Arc<Mutex<ThroughputMeter>>,
    chain: BucketChain,
}

/// Registration and teardown requests from the engine/listener threads.
enum Command {
    Add(NewLink),
    Remove {
        dir: LinkDir,
        peer: NodeId,
    },
    Shutdown,
}

/// Cross-thread nudge state for one shard: the sticky reactor waker
/// plus the token lists the queue hooks append to. Hooks run on the
/// engine thread (outside any queue lock); the shard drains the lists
/// every loop.
struct ShardSignal {
    waker: Waker,
    /// Send links whose buffer went empty→non-empty (drain me).
    dirty_send: Mutex<Vec<Token>>,
    /// Recv links whose full buffer was drained (resume reading).
    resume_recv: Mutex<Vec<Token>>,
}

struct ShardHandle {
    cmds: Sender<Command>,
    signal: Arc<ShardSignal>,
}

struct PoolInner {
    shards: Vec<ShardHandle>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Handle to the shard-worker pool; cheaply cloneable, shared by the
/// engine thread (sender registration/teardown) and the listener
/// thread (receiver registration).
#[derive(Clone)]
pub(crate) struct ShardPool {
    inner: Arc<PoolInner>,
}

impl ShardPool {
    /// Spawns `shards` workers, each with its own reactor.
    ///
    /// # Errors
    ///
    /// Any error creating a selector/waker or spawning a worker thread;
    /// partially spawned workers are shut down before returning.
    pub(crate) fn new(env: &LinkEnv, shards: usize) -> std::io::Result<ShardPool> {
        let shards = shards.max(1);
        let mut handles = Vec::with_capacity(shards);
        let mut threads = Vec::with_capacity(shards);
        for idx in 0..shards {
            let poll = Poll::new()?;
            let waker = Waker::new(poll.registry(), WAKER_TOKEN)?;
            let signal = Arc::new(ShardSignal {
                waker,
                dirty_send: Mutex::new(&classes::ENGINE_SHARD_SIGNAL, Vec::new()),
                resume_recv: Mutex::new(&classes::ENGINE_SHARD_SIGNAL, Vec::new()),
            });
            let (cmd_tx, cmd_rx) = crossbeam_channel::unbounded();
            let shard = Shard {
                poll,
                signal: Arc::clone(&signal),
                cmds: cmd_rx,
                env: env.clone(),
                links: HashMap::new(),
                by_peer: HashMap::new(),
                wrr: WeightedRoundRobin::new(),
                ready: BTreeSet::new(),
                timers: BinaryHeap::new(),
                timer_seq: 0,
                next_token: WAKER_TOKEN.0 + 1,
            };
            let spawned = std::thread::Builder::new()
                .name(format!("shard-{idx}"))
                .spawn(move || shard.run());
            match spawned {
                Ok(t) => {
                    threads.push(t);
                    handles.push(ShardHandle {
                        cmds: cmd_tx,
                        signal,
                    });
                }
                Err(e) => {
                    let partial = ShardPool {
                        inner: Arc::new(PoolInner {
                            shards: handles,
                            threads: Mutex::new(&classes::ENGINE_SHARD_THREADS, threads),
                        }),
                    };
                    partial.shutdown();
                    return Err(e);
                }
            }
        }
        Ok(ShardPool {
            inner: Arc::new(PoolInner {
                shards: handles,
                threads: Mutex::new(&classes::ENGINE_SHARD_THREADS, threads),
            }),
        })
    }

    /// Number of shard workers.
    pub(crate) fn shards(&self) -> usize {
        self.inner.shards.len()
    }

    fn shard_of(&self, peer: NodeId) -> &ShardHandle {
        let idx = peer.port() as usize % self.inner.shards.len();
        &self.inner.shards[idx]
    }

    fn send(&self, peer: NodeId, cmd: Command) {
        let shard = self.shard_of(peer);
        if shard.cmds.send(cmd).is_ok() {
            shard.signal.waker.wake();
        }
    }

    /// Hands a connection to its shard: an accepted upstream one
    /// (post-`Hello`) with `LinkDir::Recv`, a dialed downstream one
    /// (post-handshake) with `LinkDir::Send`.
    pub(crate) fn add(
        &self,
        dir: LinkDir,
        peer: NodeId,
        stream: TcpStream,
        queue: CircularQueue<Msg>,
        meter: Arc<Mutex<ThroughputMeter>>,
        chain: BucketChain,
    ) {
        let link = NewLink {
            dir,
            peer,
            stream,
            queue,
            meter,
            chain,
        };
        self.send(peer, Command::Add(link));
    }

    /// Tears a link's shard registration down (idempotent; the shard
    /// may have removed it already on a socket error).
    pub(crate) fn remove(&self, peer: NodeId, dir: LinkDir) {
        self.send(peer, Command::Remove { dir, peer });
    }

    /// Stops every shard worker and joins it. Safe to call twice.
    pub(crate) fn shutdown(&self) {
        for shard in &self.inner.shards {
            if shard.cmds.send(Command::Shutdown).is_ok() {
                shard.signal.waker.wake();
            }
        }
        // Drain the handles out under the lock, then join unlocked: a
        // join can block for as long as a shard takes to observe the
        // shutdown command, and no instrumented lock may be held across
        // a blocking call (lockdep enforces this in debug builds).
        let joinable: Vec<JoinHandle<()>> = self.inner.threads.lock().drain(..).collect();
        check_blocking("shard thread join");
        for t in joinable {
            let _ = t.join();
        }
    }
}

enum RecvState {
    /// Read interest armed.
    Reading,
    /// Token-bucket delay pending; decoded batch held until the timer.
    Paced,
    /// Receive buffer full; waiting for the queue's space hook.
    Blocked,
}

struct RecvLink {
    peer: NodeId,
    stream: TcpStream,
    queue: CircularQueue<Msg>,
    meter: Arc<Mutex<ThroughputMeter>>,
    chain: BucketChain,
    decoder: Decoder,
    /// Decoded messages not yet accepted by the receive buffer.
    batch: Vec<Msg>,
    state: RecvState,
}

struct SendLink {
    peer: NodeId,
    stream: TcpStream,
    queue: CircularQueue<Msg>,
    meter: Arc<Mutex<ThroughputMeter>>,
    chain: BucketChain,
    /// Staged-but-unwritten batches; the front may be partially written
    /// (its gather list's cursor marks the resume point). Each one's
    /// meter and telemetry sample is recorded when its last byte leaves
    /// the socket.
    out: VecDeque<Outbound>,
    out_bytes: usize,
    /// Bandwidth-emulation gate: no write before this instant.
    paced_until: Option<Nanos>,
    /// Whether the registration currently asks for write readiness.
    want_writable: bool,
}

enum Link {
    Recv(RecvLink),
    Send(SendLink),
}

/// One shard worker: a reactor plus every link hashed onto it.
struct Shard {
    poll: Poll,
    signal: Arc<ShardSignal>,
    cmds: Receiver<Command>,
    env: LinkEnv,
    links: HashMap<Token, Link>,
    by_peer: HashMap<(NodeId, LinkDir), Token>,
    /// Round-robin rotor over this shard's receive links.
    wrr: WeightedRoundRobin<Token>,
    /// Receive links reported readable and not yet serviced.
    ready: BTreeSet<Token>,
    /// Pacing deadlines: `(deadline, seq, token)` min-heap.
    timers: BinaryHeap<std::cmp::Reverse<(Nanos, u64, Token)>>,
    timer_seq: u64,
    next_token: usize,
}

impl Shard {
    fn run(mut self) {
        let mut events = Events::with_capacity(256);
        loop {
            let timeout = self.poll_timeout();
            if self.poll.poll(&mut events, Some(timeout)).is_err() {
                // A broken selector is unrecoverable for this shard;
                // surface every link as failed and stop.
                self.fail_all_links();
                return;
            }
            if !events.is_empty() {
                self.env.tel.record_reactor_wakeup();
            }
            if !self.drain_commands() {
                return;
            }
            for ev in events.iter() {
                self.on_event(ev.token(), ev.is_readable(), ev.is_writable(), ev.is_error() || ev.is_hangup());
            }
            self.fire_timers();
            self.drain_signals();
            self.service_ready();
        }
    }

    fn poll_timeout(&self) -> Duration {
        if !self.ready.is_empty() {
            return Duration::ZERO;
        }
        let Some(std::cmp::Reverse((at, _, _))) = self.timers.peek() else {
            return IDLE_POLL;
        };
        let now = self.env.clock.now();
        Duration::from_nanos(at.saturating_sub(now)).min(IDLE_POLL)
    }

    /// Applies queued commands; returns `false` on shutdown.
    fn drain_commands(&mut self) -> bool {
        loop {
            match self.cmds.try_recv() {
                Ok(Command::Add(link)) => self.add_link(link),
                Ok(Command::Remove { dir, peer }) => {
                    if let Some(token) = self.by_peer.remove(&(peer, dir)) {
                        self.drop_link(token);
                    }
                }
                Ok(Command::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    fn add_link(&mut self, link: NewLink) {
        let NewLink {
            dir,
            peer,
            stream,
            queue,
            meter,
            chain,
        } = link;
        let token = Token(self.next_token);
        self.next_token += 1;
        if stream.set_nonblocking(true).is_err() {
            self.report_link_failed(dir, peer);
            return;
        }
        let interest = match dir {
            LinkDir::Recv => Interest::READABLE,
            // Send links idle with no interest; write interest is armed
            // only while bytes are staged (a level-triggered WRITABLE on
            // an idle socket would spin the shard).
            LinkDir::Send => Interest::NONE,
        };
        if self.poll.registry().register(&stream, token, interest).is_err() {
            self.report_link_failed(dir, peer);
            return;
        }
        // Hook-before-first-drain ordering (see the module docs and the
        // `shard_mailbox_wakeup` loom model): install the wake hook,
        // THEN do one unconditional service pass below as the
        // post-install check.
        let signal = Arc::clone(&self.signal);
        match dir {
            LinkDir::Recv => {
                queue.set_space_hook(Some(Arc::new(move || {
                    signal.resume_recv.lock().push(token);
                    signal.waker.wake();
                })));
                self.links.insert(
                    token,
                    Link::Recv(RecvLink {
                        peer,
                        stream,
                        queue,
                        meter,
                        chain,
                        decoder: Decoder::new(),
                        batch: Vec::new(),
                        state: RecvState::Reading,
                    }),
                );
                self.wrr.set_weight(token, 1);
                // Data may already be waiting in the kernel buffer; one
                // spurious service costs a WouldBlock read at worst.
                self.ready.insert(token);
            }
            LinkDir::Send => {
                queue.set_data_hook(Some(Arc::new(move || {
                    signal.dirty_send.lock().push(token);
                    signal.waker.wake();
                })));
                self.links.insert(
                    token,
                    Link::Send(SendLink {
                        peer,
                        stream,
                        queue,
                        meter,
                        chain,
                        out: VecDeque::new(),
                        out_bytes: 0,
                        paced_until: None,
                        want_writable: false,
                    }),
                );
                // Post-install check: messages enqueued before the hook
                // existed are picked up here.
                self.service_send(token);
            }
        }
        self.by_peer.insert((peer, dir), token);
    }

    fn report_link_failed(&self, dir: LinkDir, peer: NodeId) {
        let ev = match dir {
            LinkDir::Recv => ControlEvent::UpstreamFailed(peer),
            LinkDir::Send => ControlEvent::DownstreamFailed(peer),
        };
        let _ = self.env.events.send(ev);
    }

    /// Removes a link's shard state without notifying the engine (used
    /// for engine-initiated teardown and after a failure was reported).
    fn drop_link(&mut self, token: Token) {
        let Some(link) = self.links.remove(&token) else {
            return;
        };
        self.ready.remove(&token);
        match link {
            Link::Recv(l) => {
                let _ = self.poll.registry().deregister(&l.stream);
                l.queue.set_space_hook(None);
                self.wrr.remove(&token);
                self.by_peer.remove(&(l.peer, LinkDir::Recv));
            }
            Link::Send(l) => {
                let _ = self.poll.registry().deregister(&l.stream);
                l.queue.set_data_hook(None);
                self.by_peer.remove(&(l.peer, LinkDir::Send));
            }
        }
    }

    fn fail_link(&mut self, token: Token) {
        let (dir, peer) = match self.links.get(&token) {
            Some(Link::Recv(l)) => (LinkDir::Recv, l.peer),
            Some(Link::Send(l)) => (LinkDir::Send, l.peer),
            None => return,
        };
        self.drop_link(token);
        self.report_link_failed(dir, peer);
    }

    fn fail_all_links(&mut self) {
        let tokens: Vec<Token> = self.links.keys().copied().collect();
        for t in tokens {
            self.fail_link(t);
        }
    }

    fn on_event(&mut self, token: Token, readable: bool, writable: bool, broken: bool) {
        if token == WAKER_TOKEN {
            return; // signals are drained every loop regardless
        }
        match self.links.get(&token) {
            // EOF/error surfaces through the read itself, which keeps
            // any final buffered bytes from being lost.
            Some(Link::Recv(_)) if readable || broken => {
                self.ready.insert(token);
            }
            Some(Link::Recv(_)) => {}
            Some(Link::Send(_)) => {
                if broken {
                    self.fail_link(token);
                } else if writable {
                    self.service_send(token);
                }
            }
            None => {}
        }
    }

    fn arm_timer(&mut self, at: Nanos, token: Token) {
        self.timer_seq += 1;
        self.timers
            .push(std::cmp::Reverse((at, self.timer_seq, token)));
    }

    fn fire_timers(&mut self) {
        let now = self.env.clock.now();
        while let Some(std::cmp::Reverse((at, _, token))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            match self.links.get_mut(&token) {
                Some(Link::Recv(l)) => {
                    if matches!(l.state, RecvState::Paced) {
                        self.flush_recv_batch(token);
                    }
                }
                Some(Link::Send(_)) => self.service_send(token),
                None => {}
            }
        }
    }

    fn drain_signals(&mut self) {
        let dirty: Vec<Token> = std::mem::take(&mut *self.signal.dirty_send.lock());
        for token in dirty {
            self.service_send(token);
        }
        let resume: Vec<Token> = std::mem::take(&mut *self.signal.resume_recv.lock());
        for token in resume {
            if let Some(Link::Recv(l)) = self.links.get_mut(&token) {
                if matches!(l.state, RecvState::Blocked) {
                    self.flush_recv_batch(token);
                }
            }
        }
    }

    /// Services every currently ready receive link, one read quantum
    /// each, in weighted-round-robin order. Level-triggered readiness
    /// re-reports any link with residual kernel-buffered data on the
    /// next poll, so one pass per loop is lossless.
    fn service_ready(&mut self) {
        if self.ready.is_empty() {
            return;
        }
        for _ in 0..self.wrr.len() {
            if self.ready.is_empty() {
                break;
            }
            let Some(&token) = self.wrr.next() else { break };
            if self.ready.remove(&token) {
                self.service_recv(token);
            }
        }
        // Ready tokens with no rotor entry (races around teardown)
        // must not spin the zero-timeout poll forever.
        self.ready.retain(|t| self.links.contains_key(t));
    }

    /// One read quantum on a receive link: read a chunk, decode, pace,
    /// and hand the batch to the engine-facing buffer.
    fn service_recv(&mut self, token: Token) {
        let Some(Link::Recv(link)) = self.links.get_mut(&token) else {
            return;
        };
        if !matches!(link.state, RecvState::Reading) {
            return; // pacing/backpressure owns this link right now
        }
        // One read of the non-blocking socket straight into the
        // decoder's receive window, the same call the blocking receiver
        // makes; level-triggered readiness re-reports what it left.
        let n = match link.decoder.read_from(&mut link.stream, RECV_CHUNK) {
            Ok(0) => {
                self.fail_link(token);
                return;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {
                self.ready.insert(token);
                return;
            }
            Err(_) => {
                self.fail_link(token);
                return;
            }
            Ok(n) => n,
        };
        // Every message drained here is freshly decoded (the
        // Reading-state gate above keeps held Paced/Blocked batches
        // out), so each is admitted exactly once.
        let Ok(inbound) = self.env.drain(&mut link.decoder, n, &mut link.batch) else {
            self.fail_link(token);
            return;
        };
        if link.batch.is_empty() {
            return; // mid-message: the next readiness pass continues
        }
        // The blocking receiver sleeps the downlink delay out and then
        // samples its meter; a shard samples now and sets a timer.
        let now = self.env.clock.now();
        let delay = self
            .env
            .admit(link.peer, &link.chain, &mut link.batch, &inbound, now);
        link.meter
            .lock()
            .record_batch(inbound.bytes, link.batch.len() as u64, now);
        if delay > 0 {
            link.state = RecvState::Paced;
            let _ = self
                .poll
                .registry()
                .reregister(&link.stream, token, Interest::NONE);
            self.arm_timer(now + delay, token);
            return;
        }
        self.flush_recv_batch(token);
    }

    /// Moves a receive link's decoded batch into its buffer; a full
    /// buffer pauses read interest until the space hook fires.
    fn flush_recv_batch(&mut self, token: Token) {
        let Some(Link::Recv(link)) = self.links.get_mut(&token) else {
            return;
        };
        if link.queue.push_batch(&mut link.batch) > 0 {
            self.env
                .tel
                .record_shard_ingress_occupancy(link.queue.len() as u64);
        }
        if link.batch.is_empty() {
            if !matches!(link.state, RecvState::Reading) {
                link.state = RecvState::Reading;
                let _ = self
                    .poll
                    .registry()
                    .reregister(&link.stream, token, Interest::READABLE);
                // Kernel-buffered bytes accumulated while paused won't
                // re-edge; service once to be sure.
                self.ready.insert(token);
            }
        } else if link.queue.is_closed() {
            // Engine tore the link down mid-flush; nothing left to do.
            self.drop_link(token);
        } else if !matches!(link.state, RecvState::Blocked) {
            link.state = RecvState::Blocked;
            let _ = self
                .poll
                .registry()
                .reregister(&link.stream, token, Interest::NONE);
        }
    }

    /// Drains a send link: pop a batch, stage it, reserve bandwidth,
    /// write without blocking, park on WRITABLE when the kernel pushes
    /// back.
    fn service_send(&mut self, token: Token) {
        let Some(Link::Send(link)) = self.links.get_mut(&token) else {
            return;
        };
        let mut batch: Vec<Msg> = Vec::new();
        loop {
            let now = self.env.clock.now();
            if let Some(until) = link.paced_until {
                if until > now {
                    return; // the armed timer re-enters
                }
                link.paced_until = None;
            }
            // Stage another batch while memory allows.
            if link.out_bytes < OUT_HIGH_WATER {
                batch.clear();
                if link.queue.pop_batch(SEND_BATCH_MAX, &mut batch) > 0 {
                    // Serialize first: the gather list must exist
                    // before the batch can wait in `out` behind a
                    // timer or a full socket. The delay gates the
                    // write, like the blocking sender's pre-write sleep.
                    let mut out = Outbound::default();
                    self.env.stage(&batch, &mut out);
                    self.env.serialize(link.peer, &batch, &mut out);
                    let delay = self.env.pace(link.peer, &link.chain, &out, now);
                    link.out_bytes += out.bytes as usize;
                    link.out.push_back(out);
                    if delay > 0 {
                        link.paced_until = Some(now + delay);
                        self.arm_timer(now + delay, token);
                        return;
                    }
                } else if link.queue.is_closed() && link.out.is_empty() {
                    // Closed and fully flushed: engine-initiated
                    // teardown is complete on this side.
                    self.drop_link(token);
                    return;
                }
            }
            // Flush the front batch's gather list; its cursor resumes
            // from the exact byte a previous partial write reached, and
            // `Interrupted` is retried inside.
            let Some(front) = link.out.front_mut() else {
                if link.want_writable {
                    link.want_writable = false;
                    let _ = self
                        .poll
                        .registry()
                        .reregister(&link.stream, token, Interest::NONE);
                }
                return;
            };
            let write_start = self.env.span_now(front);
            match front.wire.write_to(&mut link.stream) {
                Ok(()) => {
                    self.env.finish(link.peer, front, &link.meter, write_start);
                    link.out_bytes -= front.bytes as usize;
                    link.out.pop_front();
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    // The storm case: bytes staged, kernel full. Park
                    // on write readiness and resume from the cursor.
                    self.env.tel.record_reactor_partial_write();
                    if !link.want_writable {
                        link.want_writable = true;
                        let _ = self
                            .poll
                            .registry()
                            .reregister(&link.stream, token, Interest::WRITABLE);
                    }
                    return;
                }
                Err(_) => {
                    self.fail_link(token);
                    return;
                }
            }
        }
    }
}
