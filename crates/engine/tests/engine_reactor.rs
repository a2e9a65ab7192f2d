//! End-to-end tests of the sharded reactor backend
//! ([`IoBackend::Reactor`]) on loopback: the same traffic patterns the
//! blocking engine passes, carried by shard workers instead of
//! thread-per-link socket threads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ioverlay_api::{Algorithm, Context, Msg, MsgType, NodeId};
use ioverlay_engine::{EngineConfig, EngineNode, IoBackend};

fn reactor_cfg() -> EngineConfig {
    EngineConfig::default()
        .with_io_backend(IoBackend::Reactor)
        .with_reactor_shards(2)
}

/// Emits `count` data messages to a downstream as fast as back pressure
/// allows, pacing on `Context::backlog`.
struct BurstSource {
    dest: NodeId,
    app: u32,
    msg_bytes: usize,
    remaining: u64,
    seq: u32,
}

impl BurstSource {
    fn pump(&mut self, ctx: &mut dyn Context) {
        while self.remaining > 0 {
            let full = ctx
                .backlog(self.dest)
                .is_some_and(|d| d >= ctx.buffer_capacity());
            if full {
                break;
            }
            let msg = Msg::data(ctx.local_id(), self.app, self.seq, vec![7u8; self.msg_bytes]);
            ctx.send(msg, self.dest);
            self.seq += 1;
            self.remaining -= 1;
        }
        if self.remaining > 0 {
            ctx.set_timer(2_000_000, 1); // 2 ms
        }
    }
}

impl Algorithm for BurstSource {
    fn name(&self) -> &'static str {
        "burst-source"
    }
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _token: u64) {
        self.pump(ctx);
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _msg: Msg) {}
}

/// Forwards data to an optional downstream; counts what it sees.
struct Relay {
    next: Option<NodeId>,
    data_count: Arc<AtomicU64>,
    data_bytes: Arc<AtomicU64>,
    events: Arc<parking_lot::Mutex<Vec<MsgType>>>,
}

impl Relay {
    fn new() -> Self {
        Self {
            next: None,
            data_count: Arc::new(AtomicU64::new(0)),
            data_bytes: Arc::new(AtomicU64::new(0)),
            events: Arc::new(parking_lot::Mutex::new(Vec::new())),
        }
    }
    fn to(next: NodeId) -> Self {
        Self {
            next: Some(next),
            ..Self::new()
        }
    }
}

impl Algorithm for Relay {
    fn name(&self) -> &'static str {
        "relay"
    }
    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        self.events.lock().push(msg.ty());
        if msg.ty() == MsgType::Data {
            self.data_count.fetch_add(1, Ordering::Relaxed);
            self.data_bytes
                .fetch_add(msg.payload().len() as u64, Ordering::Relaxed);
            if let Some(next) = self.next {
                ctx.send(msg, next);
            }
        }
    }
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(20));
    }
    cond()
}

#[test]
fn reactor_chain_delivers_every_message() {
    let sink_alg = Relay::new();
    let count = sink_alg.data_count.clone();
    let bytes = sink_alg.data_bytes.clone();
    let sink = EngineNode::spawn(reactor_cfg(), Box::new(sink_alg)).unwrap();
    let relay_alg = Relay::to(sink.id());
    let relay = EngineNode::spawn(reactor_cfg(), Box::new(relay_alg)).unwrap();
    const N: u64 = 400;
    let source = EngineNode::spawn(
        reactor_cfg(),
        Box::new(BurstSource {
            dest: relay.id(),
            app: 1,
            msg_bytes: 2048,
            remaining: N,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || count.load(Ordering::Relaxed) == N),
        "sink got {} of {N} messages",
        count.load(Ordering::Relaxed)
    );
    assert_eq!(bytes.load(Ordering::Relaxed), N * 2048);
    // The relay's status must show reactor shards instead of per-link
    // socket threads.
    let status = relay.status().expect("relay status");
    assert_eq!(status.upstreams, vec![source.id()]);
    assert_eq!(status.downstreams, vec![sink.id()]);
    source.shutdown();
    relay.shutdown();
    sink.shutdown();
}

/// A reactor node and a blocking node interoperate on the wire — the
/// backend is a per-node choice, invisible to peers.
#[test]
fn mixed_backends_interoperate() {
    let sink_alg = Relay::new();
    let count = sink_alg.data_count.clone();
    let sink = EngineNode::spawn(EngineConfig::default(), Box::new(sink_alg)).unwrap();
    let relay_alg = Relay::to(sink.id());
    let relay = EngineNode::spawn(reactor_cfg(), Box::new(relay_alg)).unwrap();
    const N: u64 = 200;
    let source = EngineNode::spawn(
        EngineConfig::default(),
        Box::new(BurstSource {
            dest: relay.id(),
            app: 3,
            msg_bytes: 512,
            remaining: N,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || count.load(Ordering::Relaxed) == N),
        "sink got {} of {N}",
        count.load(Ordering::Relaxed)
    );
    source.shutdown();
    relay.shutdown();
    sink.shutdown();
}

/// Tiny buffers force the whole backpressure protocol through the shard
/// path: paused read interest, space-hook resumption, SendSpace events.
#[test]
fn reactor_backpressure_with_tiny_buffers() {
    let tiny = || reactor_cfg().with_buffer_msgs(2);
    let sink_alg = Relay::new();
    let count = sink_alg.data_count.clone();
    let sink = EngineNode::spawn(tiny(), Box::new(sink_alg)).unwrap();
    const N: u64 = 300;
    let source = EngineNode::spawn(
        tiny(),
        Box::new(BurstSource {
            dest: sink.id(),
            app: 5,
            msg_bytes: 4096,
            remaining: N,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || count.load(Ordering::Relaxed) == N),
        "sink got {} of {N}",
        count.load(Ordering::Relaxed)
    );
    source.shutdown();
    sink.shutdown();
}

/// Both backends speak one wire image: a reactor node, a blocking node
/// and another reactor node interoperate in one chain, large payloads
/// included, so frames that straddle receive windows reach each
/// backend from the other's gather writes.
#[test]
fn mixed_backend_chain_carries_large_frames() {
    let sink_alg = Relay::new();
    let count = sink_alg.data_count.clone();
    let bytes = sink_alg.data_bytes.clone();
    let sink = EngineNode::spawn(reactor_cfg(), Box::new(sink_alg)).unwrap();
    let relay_alg = Relay::to(sink.id());
    let relay = EngineNode::spawn(EngineConfig::default(), Box::new(relay_alg)).unwrap();
    const N: u64 = 150;
    const PAYLOAD: usize = 8 * 1024; // above the first receive window
    let source = EngineNode::spawn(
        reactor_cfg(),
        Box::new(BurstSource {
            dest: relay.id(),
            app: 9,
            msg_bytes: PAYLOAD,
            remaining: N,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || count.load(Ordering::Relaxed) == N),
        "sink got {} of {N}",
        count.load(Ordering::Relaxed)
    );
    assert_eq!(bytes.load(Ordering::Relaxed), N * PAYLOAD as u64);
    source.shutdown();
    relay.shutdown();
    sink.shutdown();
}

/// Killing a reactor-backed peer still trips failure detection: the
/// shard surfaces the dead socket as UpstreamFailed and the domino
/// (NeighborFailed + BrokenSource) reaches the algorithm.
#[test]
fn reactor_peer_death_is_detected() {
    let sink_alg = Relay::new();
    let sink_events = sink_alg.events.clone();
    let count = sink_alg.data_count.clone();
    let sink = EngineNode::spawn(reactor_cfg(), Box::new(sink_alg)).unwrap();
    let source = EngineNode::spawn(
        reactor_cfg(),
        Box::new(BurstSource {
            dest: sink.id(),
            app: 2,
            msg_bytes: 512,
            remaining: 100,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(10), || {
        count.load(Ordering::Relaxed) >= 100
    }));
    source.shutdown();
    assert!(
        wait_until(Duration::from_secs(10), || {
            let events = sink_events.lock();
            events.contains(&MsgType::NeighborFailed)
                && events.contains(&MsgType::BrokenSource)
        }),
        "sink events: {:?}",
        sink_events.lock()
    );
    sink.shutdown();
}

/// Bandwidth emulation on the reactor backend: pacing comes from shard
/// timers, not sleeps, and a limited link still delivers everything at
/// roughly the configured rate.
#[test]
fn reactor_bandwidth_pacing_delivers_all() {
    use ioverlay_ratelimit::{NodeBandwidth, Rate};
    let sink_alg = Relay::new();
    let count = sink_alg.data_count.clone();
    let sink = EngineNode::spawn(reactor_cfg(), Box::new(sink_alg)).unwrap();
    const N: u64 = 50;
    // 256 KiB/s uplink, 50 × 2 KiB payload ≈ 100 KiB: comfortably done
    // within the timeout, but slow enough to exercise the timer path.
    let source = EngineNode::spawn(
        reactor_cfg().with_bandwidth(NodeBandwidth::total_only(Rate::bytes_per_sec(256 * 1024))),
        Box::new(BurstSource {
            dest: sink.id(),
            app: 7,
            msg_bytes: 2048,
            remaining: N,
            seq: 0,
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(20), || count.load(Ordering::Relaxed) == N),
        "sink got {} of {N}",
        count.load(Ordering::Relaxed)
    );
    source.shutdown();
    sink.shutdown();
}
