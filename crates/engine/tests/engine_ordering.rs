//! A relay must hand messages of one origin to a downstream in the
//! order it received them, also while that downstream's send buffer is
//! full and forwards are parked and retried.

use std::io::Write;
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::thread;
use std::time::Duration;

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
