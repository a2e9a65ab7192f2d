//! A relay must hand messages of one origin to a downstream in the
//! order it received them, also while that downstream's send buffer is
//! full and forwards are parked and retried — and it must keep doing so
//! without ever falling back on its idle time-out to notice work.

use std::io::Write;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};

use ioverlay_algorithms::StaticForwarder;
use ioverlay_api::{Msg, MsgType, NodeId};
use ioverlay_engine::{EngineConfig, EngineNode, IoBackend};
use ioverlay_message::read_msg;

const APP: u32 = 1;
const MSGS: u32 = 20_000;

/// One relay with four-message buffers between a writer that never
/// pauses and a reader that does: the relay's send buffer is full for
/// the whole run, so nearly every forward goes through the blocked list.
fn relay_keeps_order(backend: IoBackend) {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind downstream");
    let downstream = NodeId::new(Ipv4Addr::LOCALHOST, listener.local_addr().unwrap().port());
    let config = EngineConfig::default()
        .with_io_backend(backend)
        .with_buffer_msgs(4);
    let relay = EngineNode::spawn(
        config,
        Box::new(StaticForwarder::new().route(APP, vec![downstream])),
    )
    .expect("spawn relay");

    let reader = thread::spawn(move || -> Vec<u32> {
        let (stream, _) = listener.accept().expect("relay dials downstream");
        let mut stream = std::io::BufReader::new(stream);
        let mut seqs = Vec::with_capacity(MSGS as usize);
        while seqs.len() < MSGS as usize {
            let msg = read_msg(&mut stream)
                .expect("read from relay")
                .expect("relay closed early");
            if msg.ty() != MsgType::Data {
                continue; // the relay's Hello
            }
            seqs.push(msg.seq());
            if seqs.len() % 4 == 0 {
                thread::sleep(Duration::from_micros(50));
            }
        }
        seqs
    });

    let origin = NodeId::loopback(9);
    let relay_addr = (relay.id().ip(), relay.id().port());
    let mut upstream = TcpStream::connect(relay_addr).expect("dial relay");
    upstream.set_nodelay(true).unwrap();
    let mut buf = bytes::BytesMut::new();
    Msg::control(MsgType::Hello, origin, 0).encode_into(&mut buf);
    upstream.write_all(&buf).unwrap();
    for seq in 0..MSGS {
        buf.clear();
        Msg::data(origin, APP, seq, vec![seq as u8; 64]).encode_into(&mut buf);
        upstream.write_all(&buf).unwrap();
    }

    let seqs = reader.join().expect("reader thread");
    let out_of_order = seqs.windows(2).filter(|w| w[1] <= w[0]).count();
    assert_eq!(
        out_of_order, 0,
        "{out_of_order} of {MSGS} messages overtook an earlier one"
    );
    assert_eq!(
        seqs,
        (0..MSGS).collect::<Vec<_>>(),
        "nothing lost or repeated"
    );
    drop(upstream);
    relay.shutdown();
}

#[test]
fn blocking_relay_keeps_order_under_back_pressure() {
    relay_keeps_order(IoBackend::Blocking);
}

#[test]
fn reactor_relay_keeps_order_under_back_pressure() {
    relay_keeps_order(IoBackend::Reactor);
}

const SATURATED_MSGS: u32 = 200_000;

/// One relay with eight-message buffers between a writer that hands the
/// socket hundreds of messages per write and a reader that never
/// pauses. Both of the relay's buffers swing between full and empty all
/// the time, so every hand-off is a wake-up: a receiver parked in a
/// blocking push while the engine drains its buffer, an engine parked
/// on a full send buffer while the sender drains it. One lost wake-up
/// stalls the chain until the engine's 5 ms time-out, which shows as a
/// gap between two arrivals and in `idle_fallback_hits`.
fn saturated_relay_never_stalls(backend: IoBackend) {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).expect("bind downstream");
    let downstream = NodeId::new(Ipv4Addr::LOCALHOST, listener.local_addr().unwrap().port());
    let config = EngineConfig::default()
        .with_io_backend(backend)
        .with_buffer_msgs(8);
    let relay = EngineNode::spawn(
        config,
        Box::new(StaticForwarder::new().route(APP, vec![downstream])),
    )
    .expect("spawn relay");

    // Returns the sequence numbers, and how long the run took after its
    // warm-up (the first tenth: connection set-up, cold caches) and how
    // much of that went by in gaps of more than 2 ms between arrivals.
    let reader = thread::spawn(move || -> (Vec<u32>, Duration, Duration) {
        let (stream, _) = listener.accept().expect("relay dials downstream");
        let mut stream = std::io::BufReader::with_capacity(64 * 1024, stream);
        let mut seqs = Vec::with_capacity(SATURATED_MSGS as usize);
        let mut stalled = Duration::ZERO;
        let mut warm = Instant::now();
        let mut last = warm;
        while seqs.len() < SATURATED_MSGS as usize {
            let msg = read_msg(&mut stream)
                .expect("read from relay")
                .expect("relay closed early");
            if msg.ty() != MsgType::Data {
                continue; // the relay's Hello
            }
            let now = Instant::now();
            let warm_up = SATURATED_MSGS as usize / 10;
            if seqs.len() == warm_up {
                warm = now;
            } else if seqs.len() > warm_up && now - last > Duration::from_millis(2) {
                stalled += now - last;
            }
            last = now;
            seqs.push(msg.seq());
        }
        (seqs, last - warm, stalled)
    });

    let origin = NodeId::loopback(9);
    let relay_addr = (relay.id().ip(), relay.id().port());
    let mut upstream = TcpStream::connect(relay_addr).expect("dial relay");
    upstream.set_nodelay(true).unwrap();
    let mut buf = bytes::BytesMut::new();
    Msg::control(MsgType::Hello, origin, 0).encode_into(&mut buf);
    for seq in 0..SATURATED_MSGS {
        Msg::data(origin, APP, seq, vec![seq as u8; 64]).encode_into(&mut buf);
        if seq % 256 == 255 {
            upstream.write_all(&buf).unwrap();
            buf.clear();
        }
    }
    upstream.write_all(&buf).unwrap();

    let (seqs, elapsed, stalled) = reader.join().expect("reader thread");
    assert!(
        seqs.iter().copied().eq(0..SATURATED_MSGS),
        "lost, repeated or reordered"
    );
    let fallback_hits = relay
        .status()
        .and_then(|r| r.telemetry)
        .and_then(|t| t.counter("idle_fallback_hits"));
    assert_eq!(fallback_hits, Some(0), "a wake-up was lost");
    // Five busy threads on two cores leave scheduling gaps worth a few
    // percent of the run; a chain that loses wake-ups sits in 5 ms gaps
    // for more than half of it.
    assert!(
        stalled * 4 <= elapsed,
        "{stalled:?} of {elapsed:?} went by in gaps of more than 2 ms"
    );
    drop(upstream);
    relay.shutdown();
}

#[test]
fn saturated_blocking_relay_never_waits_for_its_idle_timeout() {
    saturated_relay_never_stalls(IoBackend::Blocking);
}

#[test]
fn saturated_reactor_relay_never_waits_for_its_idle_timeout() {
    saturated_relay_never_stalls(IoBackend::Reactor);
}
