//! Behavioral integration tests for the simulated overlay network.
//!
//! These pin down the engine semantics the paper's Fig. 6/7 experiments
//! rely on: rate emulation, bounded-buffer back pressure, fanout
//! head-of-line coupling, failure detection, and the BrokenSource domino.

use ioverlay_api::{Algorithm, Context, Msg, MsgType, NodeId, TelemetryEvent};
use ioverlay_simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

const SEC: u64 = 1_000_000_000;

fn node(port: u16) -> NodeId {
    NodeId::loopback(port)
}

/// A source that keeps all of its downstream buffers topped up (the
/// paper's "back-to-back traffic as fast as possible").
struct Source {
    app: u32,
    dests: Vec<NodeId>,
    msg_bytes: usize,
    seq: u32,
}

impl Source {
    fn new(app: u32, dests: Vec<NodeId>, msg_bytes: usize) -> Self {
        Self {
            app,
            dests,
            msg_bytes,
            seq: 0,
        }
    }

    fn pump(&mut self, ctx: &mut dyn Context) {
        // Lock-step copies: emit the next message only when every
        // downstream has room, as the engine does when it forwards one
        // message to all senders.
        loop {
            let room = self.dests.iter().all(|d| {
                ctx.backlog(*d)
                    .is_none_or(|depth| depth < ctx.buffer_capacity())
            });
            if !room {
                break;
            }
            let msg = Msg::data(ctx.local_id(), self.app, self.seq, vec![0u8; self.msg_bytes]);
            self.seq += 1;
            for d in &self.dests {
                ctx.send(msg.clone(), *d);
            }
            if self.seq > 1_000_000 {
                break; // safety valve
            }
        }
        ctx.set_timer(20_000_000, 1); // refill every 20 ms
    }
}

impl Algorithm for Source {
    fn name(&self) -> &'static str {
        "test-source"
    }
    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.pump(ctx);
    }
    fn on_timer(&mut self, ctx: &mut dyn Context, _token: u64) {
        self.pump(ctx);
    }
    fn on_message(&mut self, _ctx: &mut dyn Context, _msg: Msg) {}
}

/// Forwards every data message to a fixed set of downstreams; records
/// events it sees.
#[derive(Default)]
struct Forwarder {
    dests: Vec<NodeId>,
    seen_types: std::sync::Arc<std::sync::Mutex<Vec<MsgType>>>,
}

impl Forwarder {
    fn to(dests: Vec<NodeId>) -> Self {
        Self {
            dests,
            seen_types: Default::default(),
        }
    }
}

impl Algorithm for Forwarder {
    fn name(&self) -> &'static str {
        "test-forwarder"
    }
    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        self.seen_types.lock().unwrap().push(msg.ty());
        if msg.ty() == MsgType::Data {
            for d in &self.dests {
                ctx.send(msg.clone(), *d);
            }
        }
    }
}

fn sim(buffer: usize) -> Sim {
    SimBuilder::new(1)
        .buffer_msgs(buffer)
        .latency_ms(5)
        .build()
}

#[test]
fn chain_delivers_all_data_in_order() {
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = sim(8);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![c])));
    sim.add_node(a, NodeBandwidth::unlimited(), Box::new(Source::new(1, vec![b], 1024)));
    sim.run_for(2 * SEC);
    let got = sim.metrics().received_msgs(c, 1);
    assert!(got > 100, "chain moved only {got} messages");
    assert_eq!(
        sim.metrics().received_msgs(b, 1),
        sim.metrics().received_bytes(b, 1) / 1024
    );
    assert_eq!(sim.metrics().lost_msgs(), 0);
}

#[test]
fn per_node_total_bandwidth_splits_across_links() {
    // Fig. 6(a): a 400 KBps source copying to two downstreams gives each
    // link ~200 KBps.
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = sim(5);
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(400)),
        Box::new(Source::new(1, vec![b, c], 5 * 1024)),
    );
    sim.run_for(30 * SEC);
    let ab = sim.link_kbps(a, b);
    let ac = sim.link_kbps(a, c);
    assert!((ab - 200.0).abs() < 25.0, "AB {ab} KBps, want ~200");
    assert!((ac - 200.0).abs() < 25.0, "AC {ac} KBps, want ~200");
}

#[test]
fn a_capped_link_reads_its_cap_at_any_instant() {
    // The paper promises emulated bandwidth within 1-2 % of the set
    // rate, and the windowed meter is what measures it: once a window
    // has filled, a reading is within 2 % of the cap whenever it is
    // taken, not only at instants aligned with the meter's time slots.
    let (a, b) = (node(1), node(2));
    let mut sim = sim(5);
    sim.set_link_rate(a, b, Some(Rate::kbps(100)));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        a,
        NodeBandwidth::unlimited(),
        Box::new(Source::new(1, vec![b], 2 * 1024)),
    );
    const MS: u64 = SEC / 1_000;
    sim.run_until(4 * SEC + 100 * MS);
    for i in 0..50u64 {
        sim.run_for((150 + i * 7_919 % 317) * MS + i * 1_237);
        let kbps = sim.link_kbps(a, b);
        assert!(
            (kbps - 100.0).abs() <= 2.0,
            "reading {i} at {} ns: {kbps} KBps, want 100 within 2 %",
            sim.now()
        );
    }
    assert!(sim.now() <= 20 * SEC);
}

#[test]
fn small_buffers_propagate_back_pressure_upstream() {
    // A -> B -> C with B's uplink capped: with small buffers, A -> B
    // throttles down to the bottleneck (Fig. 6(b) behavior).
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = sim(5);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        b,
        NodeBandwidth::unlimited().with_up(Rate::kbps(30)),
        Box::new(Forwarder::to(vec![c])),
    );
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(60 * SEC);
    let ab = sim.link_kbps(a, b);
    let bc = sim.link_kbps(b, c);
    assert!((bc - 30.0).abs() < 6.0, "BC {bc} KBps, want ~30");
    assert!((ab - 30.0).abs() < 6.0, "AB {ab} KBps, want ~30 (back pressure)");
}

#[test]
fn large_buffers_confine_the_bottleneck() {
    // Same topology with 10000-message buffers: A -> B keeps running at
    // full source speed while B -> C drains slowly (Fig. 7(a) behavior).
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = SimBuilder::new(1).buffer_msgs(10_000).latency_ms(5).build();
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        b,
        NodeBandwidth::unlimited().with_up(Rate::kbps(30)),
        Box::new(Forwarder::to(vec![c])),
    );
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(60 * SEC);
    let ab = sim.link_kbps(a, b);
    let bc = sim.link_kbps(b, c);
    assert!((bc - 30.0).abs() < 6.0, "BC {bc} KBps, want ~30");
    assert!(ab > 150.0, "AB {ab} KBps should stay near 200 with large buffers");
}

#[test]
fn fanout_shares_fate_under_head_of_line_blocking() {
    // B forwards copies to C (capped link) and D (uncapped). With small
    // buffers, the engine's remaining-senders stall throttles *both*
    // downstreams — this is why BF drops to BD's rate in Fig. 6(b).
    let (a, b, c, d) = (node(1), node(2), node(3), node(4));
    let mut sim = sim(5);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(d, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![c, d])));
    sim.set_link_rate(b, c, Some(Rate::kbps(25)));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(60 * SEC);
    let bc = sim.link_kbps(b, c);
    let bd = sim.link_kbps(b, d);
    assert!((bc - 25.0).abs() < 6.0, "BC {bc} KBps, want ~25");
    assert!((bd - 25.0).abs() < 6.0, "BD {bd} KBps, want ~25 (fate sharing)");
}

#[test]
fn retuning_bandwidth_at_runtime_takes_effect() {
    let (a, b) = (node(1), node(2));
    let mut sim = sim(5);
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(400)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(20 * SEC);
    let before = sim.link_kbps(a, b);
    sim.set_node_total(a, Some(Rate::kbps(50)));
    sim.run_for(30 * SEC);
    let after = sim.link_kbps(a, b);
    assert!((before - 400.0).abs() < 50.0, "before {before}");
    assert!((after - 50.0).abs() < 10.0, "after {after}");
}

#[test]
fn killing_a_node_notifies_peers_and_runs_the_domino() {
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = sim(5);
    let fwd_b = Forwarder::to(vec![c]);
    let fwd_c = Forwarder::to(vec![]);
    let seen_c = fwd_c.seen_types.clone();
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(fwd_c));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(fwd_b));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(100)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(10 * SEC);
    assert!(sim.metrics().received_msgs(c, 1) > 0);
    // Kill B: C must hear NeighborFailed and BrokenSource for app 1.
    sim.kill_at(sim.now(), b);
    sim.run_for(5 * SEC);
    assert!(!sim.is_alive(b));
    let seen = seen_c.lock().unwrap();
    assert!(
        seen.contains(&MsgType::NeighborFailed),
        "C never told about B's failure: {seen:?}"
    );
    drop(seen);
    // A also tears down its side.
    assert!(!sim.downstreams_of(a).contains(&b));
}

#[test]
fn broken_source_domino_crosses_multiple_hops() {
    // A -> B -> C -> D; killing A should eventually deliver BrokenSource
    // at C and D via the domino, not just at B.
    let (a, b, c, d) = (node(1), node(2), node(3), node(4));
    let mut sim = sim(5);
    let fwd_d = Forwarder::to(vec![]);
    let seen_d = fwd_d.seen_types.clone();
    sim.add_node(d, NodeBandwidth::unlimited(), Box::new(fwd_d));
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![d])));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![c])));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(100)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(10 * SEC);
    sim.kill_at(sim.now(), a);
    sim.run_for(5 * SEC);
    let seen = seen_d.lock().unwrap();
    assert!(
        seen.contains(&MsgType::BrokenSource),
        "domino never reached D: {seen:?}"
    );
    // Each node it tore the app down at counts it once, whichever way
    // the node learnt of the break: B from A's death, C and D from a
    // `BrokenSource`.
    for x in [b, c, d] {
        let tel = sim.status_report(x).unwrap().telemetry.unwrap();
        assert_eq!(tel.counter("domino_teardowns"), Some(1), "at {x}");
        let events = tel.events.iter();
        let teardowns = events.filter(|e| e.event == TelemetryEvent::DominoTeardown { app: 1 });
        assert_eq!(teardowns.count(), 1, "at {x}");
    }
}

#[test]
fn measurement_reports_reach_algorithms() {
    let (a, b) = (node(1), node(2));
    let mut sim = sim(5);
    let fwd = Forwarder::to(vec![]);
    let seen = fwd.seen_types.clone();
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(fwd));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(100)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(5 * SEC);
    let seen = seen.lock().unwrap();
    assert!(seen.contains(&MsgType::UpThroughput), "no UpThroughput: {seen:?}");
    assert!(seen.contains(&MsgType::UpstreamJoined), "no UpstreamJoined");
}

#[test]
fn status_report_reflects_topology() {
    let (a, b) = (node(1), node(2));
    let mut sim = sim(5);
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(100)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.run_for(5 * SEC);
    let report = sim.status_report(a).unwrap();
    assert_eq!(report.node, Some(a));
    assert_eq!(report.downstreams, vec![b]);
    assert!(report.switched_msgs == 0, "source switches nothing");
    let report_b = sim.status_report(b).unwrap();
    assert_eq!(report_b.upstreams, vec![a]);
    assert!(report_b.switched_msgs > 0);
    assert_eq!(
        sim.node_bandwidth(a).unwrap(),
        NodeBandwidth::total_only(Rate::kbps(100))
    );
}

#[test]
fn identical_seeds_give_identical_runs() {
    let run = |seed: u64| -> (u64, u64, f64) {
        let (a, b, c) = (node(1), node(2), node(3));
        let mut sim = SimBuilder::new(seed).buffer_msgs(5).latency_ms(7).build();
        sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
        sim.add_node(
            b,
            NodeBandwidth::unlimited().with_up(Rate::kbps(40)),
            Box::new(Forwarder::to(vec![c])),
        );
        sim.add_node(
            a,
            NodeBandwidth::total_only(Rate::kbps(150)),
            Box::new(Source::new(1, vec![b], 5 * 1024)),
        );
        sim.run_for(20 * SEC);
        let kbps = sim.link_kbps(b, c);
        (
            sim.metrics().received_msgs(c, 1),
            sim.metrics().received_bytes(c, 1),
            kbps,
        )
    };
    assert_eq!(run(99), run(99));
    let (m1, ..) = run(99);
    let (m2, ..) = run(100);
    // Different seeds still converge to the same counts here because the
    // scenario has no randomized algorithm — the seed only perturbs RNGs.
    assert_eq!(m1, m2);
}

#[test]
fn injected_control_messages_reach_the_algorithm() {
    let (a, b) = (node(1), node(2));
    let mut sim = sim(5);
    let fwd = Forwarder::to(vec![]);
    let seen = fwd.seen_types.clone();
    sim.add_node(a, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(fwd));
    sim.inject(SEC, b, Msg::control(MsgType::SJoin, a, 3));
    sim.run_for(2 * SEC);
    assert!(seen.lock().unwrap().contains(&MsgType::SJoin));
}

#[test]
fn sends_to_unknown_nodes_report_failure() {
    let a = node(1);
    let ghost = node(66);
    let mut sim = sim(5);
    let fwd = Forwarder::to(vec![ghost]);
    let seen = fwd.seen_types.clone();
    sim.add_node(a, NodeBandwidth::unlimited(), Box::new(fwd));
    sim.inject(0, a, Msg::data(a, 1, 0, vec![0u8; 10]));
    sim.run_for(SEC);
    assert!(seen.lock().unwrap().contains(&MsgType::NeighborFailed));
    assert_eq!(sim.metrics().lost_msgs(), 1);
}

#[test]
fn competing_upstreams_share_a_bottleneck_fairly() {
    // Two sources feed B; B forwards both sessions through a 50 KBps
    // uplink to C. The switch must grant freed sender slots to both
    // upstreams in turn — a fixed retry order starves one session.
    let (a1, a2, b, c) = (node(1), node(2), node(3), node(4));
    let mut sim = sim(5);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        b,
        NodeBandwidth::unlimited().with_up(Rate::kbps(50)),
        Box::new(Forwarder::to(vec![c])),
    );
    sim.add_node(
        a1,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.add_node(
        a2,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(2, vec![b], 5 * 1024)),
    );
    sim.run_for(120 * SEC);
    let s1 = sim.metrics().received_bytes(c, 1) as f64;
    let s2 = sim.metrics().received_bytes(c, 2) as f64;
    assert!(s1 > 0.0 && s2 > 0.0, "one session starved: {s1} vs {s2}");
    let imbalance = (s1 - s2).abs() / (s1 + s2);
    assert!(
        imbalance < 0.2,
        "sessions should share fairly: {s1} vs {s2} ({imbalance:.2})"
    );
}

#[test]
fn parking_and_reviving_an_upstream_via_switch_weights() {
    // The paper's "dynamically tunable weights": weight 0 parks an
    // upstream's receive buffer (it is never serviced, so back pressure
    // silences that whole session); restoring the weight revives it.
    let (a1, a2, b, c) = (node(1), node(2), node(3), node(4));
    let mut sim = sim(5);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(
        b,
        NodeBandwidth::unlimited().with_up(Rate::kbps(50)),
        Box::new(Forwarder::to(vec![c])),
    );
    sim.add_node(
        a1,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(1, vec![b], 5 * 1024)),
    );
    sim.add_node(
        a2,
        NodeBandwidth::total_only(Rate::kbps(200)),
        Box::new(Source::new(2, vec![b], 5 * 1024)),
    );
    sim.run_for(5 * SEC);
    sim.set_switch_weight(b, a2, 0); // park session 2's upstream
    sim.run_for(120 * SEC);
    let s1_parked = sim.metrics().received_bytes(c, 1);
    let s2_parked = sim.metrics().received_bytes(c, 2);
    assert!(
        s1_parked > s2_parked * 5,
        "parked upstream should be starved: {s1_parked} vs {s2_parked}"
    );
    // Revive session 2; it must start flowing again.
    sim.set_switch_weight(b, a2, 1);
    sim.run_for(120 * SEC);
    let s2_after = sim.metrics().received_bytes(c, 2);
    assert!(
        s2_after > s2_parked + 20 * 5 * 1024,
        "revived upstream never recovered: {s2_parked} -> {s2_after}"
    );
}

#[test]
fn telemetry_rides_status_reports_on_the_virtual_clock() {
    let (a, b, c) = (node(1), node(2), node(3));
    let mut sim = sim(8);
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![])));
    sim.add_node(b, NodeBandwidth::unlimited(), Box::new(Forwarder::to(vec![c])));
    sim.add_node(a, NodeBandwidth::unlimited(), Box::new(Source::new(1, vec![b], 1024)));
    sim.run_for(2 * SEC);
    let report = sim.status_report(b).unwrap();
    let tel = report.telemetry.expect("sim nodes record telemetry");
    assert_eq!(
        tel.counter("msgs_switched"),
        Some(report.switched_msgs),
        "telemetry counter mirrors the switch count"
    );
    let batches = tel
        .histogram("switch_batch_msgs")
        .expect("switch batches recorded");
    assert!(batches.count > 0);
    // Event timestamps come from the virtual clock, not wall time: the
    // relay connected to its downstream within the simulated window.
    assert!(tel
        .events
        .iter()
        .all(|r| r.at <= sim.now()), "event stamps bounded by virtual now");
    assert!(!tel.events.is_empty(), "link lifecycle produced events");
}

#[test]
fn series_history_keeps_the_newest_windows_once_the_ring_is_full() {
    // 200 measure ticks into a 128-window ring: 72 windows are evicted,
    // and what is left must still read as consecutive 1 s windows.
    let nodes: Vec<NodeId> = (1..=5).map(node).collect();
    let mut sim = sim(8);
    // A 100 KBps source keeps 200 simulated seconds cheap.
    for (i, &id) in nodes.iter().enumerate().rev() {
        let downstream: Vec<NodeId> = nodes.get(i + 1).copied().into_iter().collect();
        if i == 0 {
            let source = Source::new(1, downstream, 1024);
            sim.add_node(
                id,
                NodeBandwidth::total_only(Rate::kbps(100)),
                Box::new(source),
            );
        } else {
            sim.add_node(
                id,
                NodeBandwidth::unlimited(),
                Box::new(Forwarder::to(downstream)),
            );
        }
    }
    sim.run_for(200 * SEC);
    for &id in &nodes {
        let report = sim.status_report(id).unwrap();
        let windows = report.series.expect("sim nodes sample series").windows;
        assert_eq!(windows.len(), 128, "{id:?}");
        for (w, idx) in windows.iter().zip(72u64..) {
            assert_eq!(w.idx, idx, "{id:?}");
            assert_eq!(w.end - w.start, SEC, "{id:?} window {idx}");
        }
        for pair in windows.windows(2) {
            assert_eq!(pair[1].start, pair[0].end, "{id:?} window {}", pair[1].idx);
        }
        assert_eq!(windows[127].idx, 199);
    }
    let last = sim.status_report(nodes[4]).unwrap().series.unwrap().windows;
    assert!(last[127].msgs_switched > 0, "the chain carried no data");
}
