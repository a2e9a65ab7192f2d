//! Engine failure-handling tests: inactivity detection, link-scoped
//! bandwidth control, and many virtualized nodes in one process.

use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ioverlay_api::{Algorithm, BandwidthScope, Context, Msg, MsgType, NodeId, SetBandwidthPayload};
use ioverlay_engine::{EngineConfig, EngineNode, IoBackend};
use ioverlay_message::write_msg;

struct Probe {
    data: Arc<AtomicU64>,
    events: Arc<parking_lot::Mutex<Vec<MsgType>>>,
}

impl Probe {
    fn new() -> Self {
        Self {
            data: Arc::new(AtomicU64::new(0)),
            events: Arc::new(parking_lot::Mutex::new(Vec::new())),
        }
    }
}

impl Algorithm for Probe {
    fn on_message(&mut self, _ctx: &mut dyn Context, msg: Msg) {
        self.events.lock().push(msg.ty());
        if msg.ty() == MsgType::Data {
            self.data.fetch_add(msg.payload().len() as u64, Ordering::Relaxed);
        }
    }
}

/// Sends a burst of data, then goes silent forever.
struct BurstThenSilent {
    dest: NodeId,
    sent: bool,
}

impl Algorithm for BurstThenSilent {
    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(50_000_000, 1);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _t: u64) {
        if !self.sent {
            self.sent = true;
            for seq in 0..5 {
                ctx.send(Msg::data(ctx.local_id(), 1, seq, vec![1u8; 256]), self.dest);
            }
        }
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _msg: Msg) {}
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        thread::sleep(Duration::from_millis(25));
    }
    cond()
}

#[test]
fn inactivity_detector_declares_quiet_upstreams_dead() {
    let probe = Probe::new();
    let events = probe.events.clone();
    let data = probe.data.clone();
    let cfg = EngineConfig {
        inactivity_timeout: Some(1_500_000_000), // 1.5 s
        measure_interval: 250_000_000,
        ..EngineConfig::default()
    };
    let sink = EngineNode::spawn(cfg, Box::new(probe)).unwrap();
    let quiet = EngineNode::spawn(
        EngineConfig::default(),
        Box::new(BurstThenSilent {
            dest: sink.id(),
            sent: false,
        }),
    )
    .unwrap();
    assert!(wait_until(Duration::from_secs(5), || {
        data.load(Ordering::Relaxed) == 5 * 256
    }));
    // The upstream stays connected but silent; the inactivity detector
    // must tear it down and notify the algorithm.
    assert!(
        wait_until(Duration::from_secs(10), || {
            events.lock().contains(&MsgType::NeighborFailed)
        }),
        "inactivity was never detected: {:?}",
        events.lock()
    );
    quiet.shutdown();
    sink.shutdown();
}

/// An upstream that says `Hello` and then nothing has never fed the
/// link's meter; its idle time counts from when the link was accepted.
#[test]
fn silent_from_the_start_upstream_is_declared_dead() {
    for backend in [IoBackend::Blocking, IoBackend::Reactor] {
        let probe = Probe::new();
        let events = probe.events.clone();
        let cfg = EngineConfig {
            inactivity_timeout: Some(500_000_000),
            measure_interval: 100_000_000,
            io_backend: backend,
            ..EngineConfig::default()
        };
        let sink = EngineNode::spawn(cfg, Box::new(probe)).unwrap();
        let silent = TcpStream::connect(sink.id().to_socket_addr()).unwrap();
        write_msg(&silent, &Msg::control(MsgType::Hello, NodeId::loopback(1), 0)).unwrap();
        assert!(
            wait_until(Duration::from_secs(5), || {
                events.lock().contains(&MsgType::UpstreamJoined)
            }),
            "{backend:?}: the link was never registered"
        );
        assert!(
            wait_until(Duration::from_secs(10), || {
                events.lock().contains(&MsgType::NeighborFailed)
            }),
            "{backend:?}: a silent upstream was never declared dead: {:?}",
            events.lock()
        );
        sink.shutdown();
    }
}

#[test]
fn per_link_bandwidth_scope_throttles_one_link_only() {
    let fast_probe = Probe::new();
    let slow_probe = Probe::new();
    let fast_bytes = fast_probe.data.clone();
    let slow_bytes = slow_probe.data.clone();
    let fast = EngineNode::spawn(EngineConfig::default(), Box::new(fast_probe)).unwrap();
    let slow = EngineNode::spawn(EngineConfig::default(), Box::new(slow_probe)).unwrap();

    /// Pumps copies to both destinations.
    struct DualSource {
        dests: [NodeId; 2],
        seq: u32,
    }
    impl Algorithm for DualSource {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(5_000_000, 1);
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, _t: u64) {
            // Pace each destination independently: a slow link must not
            // hold the fast one back in this test.
            for d in self.dests {
                for _ in 0..4 {
                    let full = ctx
                        .backlog(d)
                        .is_some_and(|depth| depth >= ctx.buffer_capacity());
                    if full {
                        break;
                    }
                    let msg = Msg::data(ctx.local_id(), 1, self.seq, vec![0u8; 4096]);
                    self.seq += 1;
                    ctx.send(msg, d);
                }
            }
            ctx.set_timer(5_000_000, 1);
        }
        fn on_message(&mut self, _ctx: &mut dyn Context, _msg: Msg) {}
    }

    let source = EngineNode::spawn(
        EngineConfig::default(),
        Box::new(DualSource {
            dests: [fast.id(), slow.id()],
            seq: 0,
        }),
    )
    .unwrap();
    // Let both links warm up, then cap only the link to `slow`.
    thread::sleep(Duration::from_millis(500));
    let payload = SetBandwidthPayload {
        scope: BandwidthScope::Link(slow.id()),
        kbps: Some(50),
    };
    source.send_control(Msg::new(
        MsgType::SetBandwidth,
        source.id(),
        0,
        0,
        payload.encode(),
    ));
    thread::sleep(Duration::from_millis(500));
    let f0 = fast_bytes.load(Ordering::Relaxed);
    let s0 = slow_bytes.load(Ordering::Relaxed);
    thread::sleep(Duration::from_secs(3));
    let fast_kbps = (fast_bytes.load(Ordering::Relaxed) - f0) as f64 / 1024.0 / 3.0;
    let slow_kbps = (slow_bytes.load(Ordering::Relaxed) - s0) as f64 / 1024.0 / 3.0;
    assert!(slow_kbps < 100.0, "capped link ran at {slow_kbps} KBps");
    assert!(
        fast_kbps > slow_kbps * 2.0,
        "uncapped link ({fast_kbps} KBps) should be much faster than capped ({slow_kbps} KBps)"
    );
    source.shutdown();
    fast.shutdown();
    slow.shutdown();
}

#[test]
fn dozens_of_virtualized_nodes_coexist_in_one_process() {
    // The paper virtualizes dozens of nodes per physical host; spawn 24
    // engines, wire them into a ring of control messages, and make sure
    // every one answers status.
    let mut nodes = Vec::new();
    for _ in 0..24 {
        nodes.push(EngineNode::spawn(EngineConfig::default(), Box::new(Probe::new())).unwrap());
    }
    for node in &nodes {
        let status = node.status().expect("node answers status");
        assert_eq!(status.node, Some(node.id()));
    }
    // Distinct ports for all.
    let mut ports: Vec<u16> = nodes.iter().map(|n| n.id().port()).collect();
    ports.sort_unstable();
    ports.dedup();
    assert_eq!(ports.len(), 24);
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn rtt_probes_resolve_to_pong_reports() {
    use ioverlay_api::ControlParams;

    /// Probes a peer once and records the reported RTT.
    struct RttProbe {
        peer: NodeId,
        rtt_micros: Arc<AtomicU64>,
    }
    impl Algorithm for RttProbe {
        fn on_start(&mut self, ctx: &mut dyn Context) {
            ctx.set_timer(100_000_000, 1);
        }
        fn on_timer(&mut self, ctx: &mut dyn Context, _t: u64) {
            ctx.probe_rtt(self.peer);
        }
        fn on_message(&mut self, _ctx: &mut dyn Context, msg: Msg) {
            if msg.ty() == MsgType::Pong {
                if let Ok(params) = ControlParams::decode(msg.payload()) {
                    if let Some(micros) = params.a() {
                        self.rtt_micros.store(micros as u64 + 1, Ordering::Relaxed);
                    }
                }
            }
        }
    }

    let peer = EngineNode::spawn(EngineConfig::default(), Box::new(Probe::new())).unwrap();
    let rtt = Arc::new(AtomicU64::new(0));
    let prober = EngineNode::spawn(
        EngineConfig::default(),
        Box::new(RttProbe {
            peer: peer.id(),
            rtt_micros: rtt.clone(),
        }),
    )
    .unwrap();
    assert!(
        wait_until(Duration::from_secs(10), || rtt.load(Ordering::Relaxed) > 0),
        "no pong report arrived"
    );
    let measured = rtt.load(Ordering::Relaxed) - 1;
    // Loopback RTT through two full engine stacks: generous upper bound.
    assert!(measured < 2_000_000, "RTT {measured} us is implausible");
    prober.shutdown();
    peer.shutdown();
}
