//! Golden digests of six simulated scenarios.
//!
//! Each scenario folds what an outside caller can observe of a finished
//! run into two `u64`s and compares them with recorded constants:
//!
//! * the **order digest** pins what the simulator promises to replay —
//!   the same events in the same order: virtual time, pending events,
//!   every byte, message and loss count, the observer log, link lists,
//!   algorithm status and each status report folded field by field. It
//!   leaves out the windowed rates (`link_kbps`, `received_kbps`, a
//!   report's `link_kbps`) and the byte counts of `Status` messages,
//!   whose length follows the decimal text of the rates they carry. No
//!   change of data layout, meter or statistic inside `crates/simnet`
//!   may move it; regenerate one only in a change whose stated purpose
//!   is to alter the simulated event order (see DESIGN.md §14).
//! * the **full digest** folds the same run with the rates and the
//!   encoded reports included, so it also pins what the throughput
//!   meter reads. A change to how rates are measured regenerates full
//!   digests and must leave every order digest alone.
//!
//! `Metrics` has no accessor for per-link message or loss counts, so a
//! link contributes its delivered bytes (and, in the full digest, its
//! windowed rate); losses contribute as the network-wide total.

use ioverlay::algorithms::tree::{JoinPayload, TreeNode, TreeVariant};
use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::{Algorithm, Context, Msg, MsgType, NodeId, StatusReport};
use ioverlay::observer::commands;
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

const MS: u64 = 1_000_000;
const SEC: u64 = 1_000 * MS;

fn n(port: u16) -> NodeId {
    NodeId::loopback(port)
}

/// FNV-1a, 64 bit. Local on purpose: `DefaultHasher` may change between
/// toolchains, and the constants below must not.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed, so adjacent fields cannot run together.
    fn blob(&mut self, bytes: &[u8]) {
        self.u64(bytes.len() as u64);
        self.bytes(bytes);
    }

    fn node(&mut self, id: NodeId) {
        self.bytes(&id.ip().octets());
        self.u64(u64::from(id.port()));
    }

    fn nodes(&mut self, ids: &[NodeId]) {
        self.u64(ids.len() as u64);
        for &id in ids {
            self.node(id);
        }
    }
}

/// Every message type a scenario can put on a link or send to the
/// observer.
const TYPES: &[MsgType] = &[
    MsgType::Data,
    MsgType::Boot,
    MsgType::BootReply,
    MsgType::Request,
    MsgType::Status,
    MsgType::SDeploy,
    MsgType::STerminate,
    MsgType::SJoin,
    MsgType::SLeave,
    MsgType::Terminate,
    MsgType::SAnnounce,
    MsgType::SetBandwidth,
    MsgType::Trace,
    MsgType::BrokenSource,
    MsgType::UpThroughput,
    MsgType::DownThroughput,
    MsgType::NeighborFailed,
    MsgType::UpstreamJoined,
    MsgType::DownstreamJoined,
    MsgType::Hello,
    MsgType::Ping,
    MsgType::Pong,
    MsgType::SQuery,
    MsgType::SQueryAck,
    MsgType::SAssign,
    MsgType::SAware,
    MsgType::SFederate,
    MsgType::Custom(CHATTER),
];

/// Which of the two digests (see the file header) a fold feeds.
#[derive(Clone, Copy, PartialEq)]
enum Digest {
    Order,
    Full,
}

/// A status report field by field, without `link_kbps`.
fn fold_report_sans_rates(h: &mut Fnv, report: &StatusReport) {
    h.nodes(report.node.as_slice());
    for buffers in [&report.recv_buffers, &report.send_buffers] {
        h.u64(buffers.len() as u64);
        for &(peer, depth) in buffers {
            h.node(peer);
            h.u64(depth as u64);
        }
    }
    h.nodes(&report.upstreams);
    h.nodes(&report.downstreams);
    h.u64(report.switched_msgs);
    h.blob(report.algorithm.to_string().as_bytes());
    let ser = "report parts serialize";
    h.blob(&serde_json::to_vec(&report.telemetry).expect(ser));
    h.blob(&serde_json::to_vec(&report.spans).expect(ser));
    h.blob(&serde_json::to_vec(&report.series).expect(ser));
    h.blob(&serde_json::to_vec(&report.flows).expect(ser));
}

/// Folds what `digest` covers of `sim` about `nodes` and `apps`.
fn fold(h: &mut Fnv, digest: Digest, sim: &Sim, nodes: &[NodeId], apps: &[u32]) {
    let full = digest == Digest::Full;
    // `Status` is the one type whose wire length depends on rates.
    let counted = |ty: MsgType| full || ty != MsgType::Status;

    h.u64(sim.now());
    h.u64(sim.pending_events() as u64);

    let mut links: Vec<(NodeId, NodeId)> = sim.metrics().active_links().collect();
    links.sort_unstable();
    h.u64(links.len() as u64);
    for &(a, b) in &links {
        h.node(a);
        h.node(b);
        h.u64(sim.metrics().link_bytes(a, b));
    }
    h.u64(sim.metrics().lost_msgs());

    for &node in nodes {
        for &app in apps {
            h.u64(sim.metrics().received_bytes(node, app));
            h.u64(sim.metrics().received_msgs(node, app));
        }
        for &ty in TYPES.iter().filter(|&&ty| counted(ty)) {
            h.u64(sim.metrics().sent_bytes(node, ty));
        }
        let status = sim.metrics().sent_bytes(node, MsgType::Status);
        let control = sim.metrics().control_bytes(node);
        h.u64(if full { control } else { control - status });
    }
    for &ty in TYPES.iter().filter(|&&ty| counted(ty)) {
        h.u64(sim.metrics().control_bytes_between(ty, 0, sim.now() / 2));
    }

    h.u64(sim.observer_log().len() as u64);
    for (at, node, msg) in sim.observer_log() {
        h.u64(*at);
        h.node(*node);
        if counted(msg.ty()) {
            h.blob(&msg.encode());
        } else {
            h.node(msg.origin());
            let report = StatusReport::decode(msg.payload()).expect("a status payload");
            fold_report_sans_rates(h, &report);
        }
    }

    for &node in nodes {
        h.u64(u64::from(sim.is_alive(node)));
        h.nodes(&sim.upstreams_of(node));
        h.nodes(&sim.downstreams_of(node));
        h.blob(sim.algorithm_status(node).to_string().as_bytes());
        let report = sim.status_report(node).expect("scenario nodes exist");
        h.u64(report.switched_msgs);
        let spans = report.spans.as_ref().map_or(0, |s| s.spans.len() as u64);
        h.u64(spans);
        if full {
            // The whole report: buffer depths, neighbours, link rates,
            // the telemetry snapshot, spans, series windows and flow
            // sketch.
            h.blob(&report.encode());
        } else {
            fold_report_sans_rates(h, &report);
        }
    }

    if full {
        for &(a, b) in &links {
            h.f64(sim.link_kbps(a, b));
        }
        for &node in nodes {
            for &app in apps {
                h.f64(sim.received_kbps(node, app));
            }
        }
    }
}

/// The two digests of one test, fed side by side.
struct Digests {
    order: Fnv,
    full: Fnv,
}

impl Digests {
    fn new() -> Self {
        Self {
            order: Fnv::new(),
            full: Fnv::new(),
        }
    }

    fn u64(&mut self, v: u64) {
        self.order.u64(v);
        self.full.u64(v);
    }

    fn fold(&mut self, sim: &Sim, nodes: &[NodeId], apps: &[u32]) {
        fold(&mut self.order, Digest::Order, sim, nodes, apps);
        fold(&mut self.full, Digest::Full, sim, nodes, apps);
    }

    fn check(&self, name: &str, order: u64, full: u64) {
        let got = self.order.0;
        assert_eq!(
            got, order,
            "{name}: order digest {got:#018x}, recorded {order:#018x} — the simulated run changed"
        );
        let got = self.full.0;
        assert_eq!(
            got, full,
            "{name}: full digest {got:#018x}, recorded {full:#018x} — same event order, \
             different windowed rates"
        );
    }
}

// ----------------------------------------------------------------------
// scenario 1 and 6: the benchmark's static tree, smaller
// ----------------------------------------------------------------------

const APP: u32 = 1;
const FANOUT: usize = 4;

fn tree_children(i: usize, nodes: usize) -> Vec<NodeId> {
    (FANOUT * i + 1..=FANOUT * i + FANOUT)
        .filter(|&c| c < nodes)
        .map(|c| n(1 + c as u16))
        .collect()
}

/// `benchmark/src/sim.rs::build` at 341 nodes (a full five-level 4-ary
/// tree): a 400 KBps back-to-back source, `StaticForwarder`s, `SinkApp`
/// leaves, children added before parents.
fn static_tree(trace_sample: u32) -> (Sim, Vec<NodeId>) {
    let nodes = 341;
    let mut sim = SimBuilder::new(1)
        .buffer_msgs(16)
        .latency_ms(20)
        .trace_sample(trace_sample)
        .build();
    for i in (0..nodes).rev() {
        let kids = tree_children(i, nodes);
        let (bandwidth, alg): (NodeBandwidth, Box<dyn Algorithm>) = if i == 0 {
            (
                NodeBandwidth::total_only(Rate::kbps(400)),
                Box::new(SourceApp::new(APP, kids, 1024, SourceMode::BackToBack).deployed()),
            )
        } else if kids.is_empty() {
            (NodeBandwidth::unlimited(), Box::new(SinkApp::new()))
        } else {
            (
                NodeBandwidth::unlimited(),
                Box::new(StaticForwarder::new().route(APP, kids)),
            )
        };
        sim.add_node(n(1 + i as u16), bandwidth, alg);
    }
    let ids = (0..nodes).map(|i| n(1 + i as u16)).collect();
    (sim, ids)
}

#[test]
fn static_tree_341() {
    let (mut sim, ids) = static_tree(0);
    sim.run_until(2 * SEC);
    let mut d = Digests::new();
    d.fold(&sim, &ids, &[APP]);
    d.check("static_tree_341", 0xbe7f_74b7_a5cd_1c72, 0x8b66_a141_6763_3b58);
}

#[test]
fn static_tree_341_traced() {
    let (mut sim, ids) = static_tree(4);
    sim.run_until(2 * SEC);
    let mut d = Digests::new();
    for &id in &ids {
        let report = sim.status_report(id).expect("node exists");
        let batch = report.spans.expect("telemetry is on");
        d.u64(batch.spans.len() as u64);
        d.u64(batch.dropped);
    }
    d.fold(&sim, &ids, &[APP]);
    d.check("static_tree_341_traced", 0x270c_91fe_709b_7d7d, 0xde9b_3f72_53cc_4507);
}

// ----------------------------------------------------------------------
// scenario 2: a capped chain retuned in mid-run
// ----------------------------------------------------------------------

#[test]
fn capped_chain_retuned() {
    let ids: Vec<NodeId> = (1..=6).map(n).collect();
    let mut sim = SimBuilder::new(2).buffer_msgs(2).latency_ms(8).build();
    // The link cap is declared before the link exists, the latency after.
    sim.set_link_rate(ids[3], ids[4], Some(Rate::kbps(80)));
    sim.add_node(ids[5], NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    for i in (1..5).rev() {
        let bandwidth = match i {
            2 => NodeBandwidth::unlimited().with_up(Rate::kbps(120)),
            4 => NodeBandwidth::unlimited().with_down(Rate::kbps(150)),
            _ => NodeBandwidth::unlimited(),
        };
        sim.add_node(
            ids[i],
            bandwidth,
            Box::new(StaticForwarder::new().route(APP, vec![ids[i + 1]])),
        );
    }
    sim.add_node(
        ids[0],
        NodeBandwidth::total_only(Rate::kbps(300)),
        Box::new(SourceApp::new(APP, vec![ids[1]], 5 * 1024, SourceMode::BackToBack).deployed()),
    );
    sim.run_until(3 * SEC);
    sim.set_node_up(ids[2], Some(Rate::kbps(40)));
    sim.run_until(5 * SEC);
    sim.set_link_rate(ids[3], ids[4], Some(Rate::kbps(200)));
    // Shorter latency while messages are in flight: later transmissions
    // overtake earlier ones on this link.
    sim.set_latency(ids[1], ids[2], MS);
    sim.set_node_buffer(ids[3], 6);
    sim.run_until(7 * SEC);
    sim.set_node_up(ids[2], None);
    sim.set_link_rate(ids[3], ids[4], None);
    sim.set_node_down(ids[4], Some(Rate::kbps(60)));
    sim.set_node_total(ids[0], Some(Rate::kbps(500)));
    sim.inject(sim.now() + 100 * MS, ids[2], Msg::control(MsgType::Request, n(999), 0));
    sim.run_until(10 * SEC);
    let mut d = Digests::new();
    d.fold(&sim, &ids, &[APP]);
    d.check("capped_chain_retuned", 0xad05_2afb_be14_b1ea, 0x4f00_90e4_5d9b_f74d);
}

// ----------------------------------------------------------------------
// scenario 3: two upstreams, one bottleneck, WRR weights
// ----------------------------------------------------------------------

#[test]
fn competing_upstreams_parked_and_revived() {
    let (a1, a2, b, c) = (n(1), n(2), n(3), n(4));
    let ids = [a1, a2, b, c];
    let mut sim = SimBuilder::new(3).buffer_msgs(5).latency_ms(5).build();
    sim.add_node(c, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(
        b,
        NodeBandwidth::unlimited().with_up(Rate::kbps(50)),
        Box::new(StaticForwarder::new().route(1, vec![c]).route(2, vec![c])),
    );
    // A weight for a node that never becomes an upstream of `b` still
    // takes part in the rotation.
    sim.set_switch_weight(b, c, 2);
    for (app, src) in [(1, a1), (2, a2)] {
        sim.add_node(
            src,
            NodeBandwidth::total_only(Rate::kbps(200)),
            Box::new(SourceApp::new(app, vec![b], 5 * 1024, SourceMode::BackToBack).deployed()),
        );
    }
    sim.run_for(5 * SEC);
    sim.set_switch_weight(b, a2, 0);
    sim.run_for(20 * SEC);
    sim.set_switch_weight(b, a2, 3);
    sim.run_for(20 * SEC);
    let mut d = Digests::new();
    d.fold(&sim, &ids, &[1, 2]);
    d.check("competing_upstreams_parked_and_revived", 0xcf08_af5e_ec38_9930, 0x09a4_29b2_49df_e76f);
}

// ----------------------------------------------------------------------
// scenario 4: failures in a three-level tree
// ----------------------------------------------------------------------

const CHATTER: u32 = 0x1001;
const CHATTER_TIMER: u64 = 7;

/// A forwarder that also exercises the rest of `Context`: it talks back
/// to its parent on a timer, probes it, gossips to a random child on
/// every throughput report, tells the observer what it sees, and closes
/// its downstream links when its source breaks.
struct Chatty {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    ghost: NodeId,
    seen: u64,
    chatter_in: u64,
    pongs: u64,
    failed: Vec<String>,
    broken: u64,
}

impl Chatty {
    fn new(parent: Option<NodeId>, children: Vec<NodeId>) -> Self {
        Self {
            parent,
            children,
            ghost: n(4242),
            seen: 0,
            chatter_in: 0,
            pongs: 0,
            failed: Vec::new(),
            broken: 0,
        }
    }

    fn tell_observer(&self, ctx: &mut dyn Context, text: String) {
        let msg = Msg::new(MsgType::Trace, ctx.local_id(), 0, 0, text.into_bytes());
        ctx.send_to_observer(msg);
    }
}

impl Algorithm for Chatty {
    fn name(&self) -> &'static str {
        "chatty"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        // A send to oneself is consumed without a trace.
        let me = ctx.local_id();
        ctx.send(Msg::control(MsgType::Custom(CHATTER), me, 9), me);
        ctx.set_timer(300 * MS, CHATTER_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        if token != CHATTER_TIMER {
            return;
        }
        if let Some(parent) = self.parent {
            let note = Msg::new(
                MsgType::Custom(CHATTER),
                ctx.local_id(),
                9,
                self.seen as u32,
                vec![7u8; 48],
            );
            ctx.send(note, parent);
            ctx.probe_rtt(parent);
        }
        ctx.set_timer(450 * MS, CHATTER_TIMER);
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::Data => {
                self.seen += 1;
                for &child in &self.children {
                    ctx.send(msg.clone(), child);
                }
            }
            MsgType::Custom(CHATTER) => self.chatter_in += 1,
            MsgType::Pong => self.pongs += 1,
            MsgType::UpThroughput | MsgType::DownThroughput if !self.children.is_empty() => {
                let pick = (ctx.random_u64() % self.children.len() as u64) as usize;
                let note = Msg::new(
                    MsgType::Custom(CHATTER),
                    ctx.local_id(),
                    9,
                    pick as u32,
                    vec![1u8; 16],
                );
                ctx.send(note, self.children[pick]);
            }
            MsgType::NeighborFailed => {
                self.failed.push(msg.origin().to_string());
                let text = format!("lost {} at {}", msg.origin(), ctx.now());
                self.tell_observer(ctx, text);
                // One send to a node that never existed: the connect
                // fails and comes back as another NeighborFailed.
                if self.failed.len() == 1 {
                    ctx.send(Msg::control(MsgType::Custom(CHATTER), ctx.local_id(), 9), self.ghost);
                }
            }
            MsgType::BrokenSource => {
                self.broken += 1;
                self.tell_observer(ctx, format!("broken app {} via {}", msg.app(), msg.origin()));
                for &child in &self.children {
                    ctx.close_link(child);
                }
            }
            _ => {}
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "seen": self.seen,
            "chatter_in": self.chatter_in,
            "pongs": self.pongs,
            "failed": self.failed.clone(),
            "broken": self.broken,
        })
    }
}

#[test]
fn failures_in_a_three_level_tree() {
    // Root 1; mids 2, 3, 4; leaves 5..=13, three under each mid.
    let root = n(1);
    let mids = [n(2), n(3), n(4)];
    let leaves_of = |m: usize| -> Vec<NodeId> { (0..3).map(|k| n((5 + 3 * m + k) as u16)).collect() };
    let mut ids = vec![root];
    ids.extend(mids);
    let mut sim = SimBuilder::new(4)
        .buffer_msgs(4)
        .latency_ms(15)
        .failure_detect_ms(120)
        .measure_interval_ms(700)
        .build();
    for (m, &mid) in mids.iter().enumerate() {
        for leaf in leaves_of(m) {
            sim.add_node(
                leaf,
                NodeBandwidth::unlimited(),
                Box::new(Chatty::new(Some(mid), Vec::new())),
            );
            ids.push(leaf);
        }
        sim.add_node(
            mid,
            NodeBandwidth::unlimited().with_up(Rate::kbps(150)),
            Box::new(Chatty::new(Some(root), leaves_of(m))),
        );
    }
    sim.add_node(
        root,
        NodeBandwidth::total_only(Rate::kbps(240)),
        Box::new(SourceApp::new(APP, mids.to_vec(), 2 * 1024, SourceMode::BackToBack).deployed()),
    );
    for &id in &ids {
        sim.set_observer(id, n(9000));
    }
    // A capped link that its owner closes and later opens again.
    sim.set_link_rate(mids[0], n(5), Some(Rate::kbps(100)));
    // A mid dies: its leaves see the failure and the domino, the root
    // keeps feeding the other two.
    sim.kill_at(2_500 * MS, mids[1]);
    sim.inject(3 * SEC, mids[0], Msg::control(MsgType::Request, n(9000), 0));
    // Then the root: every remaining mid's source breaks, the domino
    // reaches the leaves, and the mids close their downstream links
    // while the leaves still talk upstream.
    sim.kill_at(4 * SEC, root);
    sim.kill_at(4 * SEC, root); // a second kill of the same node is ignored
    sim.run_until(5 * SEC);
    // Asked for in the past: delivered now.
    sim.inject(SEC, n(13), Msg::control(MsgType::Request, n(9000), 0));
    sim.run_until(6 * SEC);
    let mut d = Digests::new();
    d.fold(&sim, &ids, &[APP, 9]);
    d.check("failures_in_a_three_level_tree", 0x38f2_e9eb_520c_2fc7, 0xa556_1f1d_2145_19f2);
}

// ----------------------------------------------------------------------
// scenario 5: tree-construction sessions
// ----------------------------------------------------------------------

/// `crates/bench/src/util.rs::uniform`.
fn uniform(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// The Table 3 session of `tests/sim_tree.rs`.
fn five_node_session() -> (Sim, Vec<NodeId>) {
    let s = n(1);
    let (a, b, c, d) = (n(2), n(3), n(4), n(5));
    let mut sim = SimBuilder::new(3).buffer_msgs(5).latency_ms(10).build();
    for (id, kbps) in [(s, 200.0), (a, 500.0), (b, 100.0), (c, 200.0), (d, 100.0)] {
        sim.add_node(
            id,
            NodeBandwidth::total_only(Rate::kbps(kbps as u64)),
            Box::new(TreeNode::new(TreeVariant::NsAware, APP, kbps, 5 * 1024)),
        );
    }
    sim.inject(0, s, commands::deploy_source(APP));
    for (i, joiner) in [d, a, c, b].into_iter().enumerate() {
        let payload = JoinPayload { contact: s, source: s };
        let msg = Msg::new(MsgType::SJoin, n(99), APP, 0, payload.encode());
        sim.inject((3 + 4 * i as u64) * SEC, joiner, msg);
    }
    (sim, vec![s, a, b, c, d])
}

/// `crates/bench/src/tree_exp.rs::wide_area` with 30 receivers.
fn wide_area_session(variant: TreeVariant, seed: u64) -> (Sim, Vec<NodeId>) {
    let receivers = 30;
    let source = n(1);
    let members: Vec<NodeId> = (0..receivers).map(|i| n(2 + i as u16)).collect();
    let mut sim = SimBuilder::new(seed).buffer_msgs(5).latency_ms(20).build();
    sim.add_node(
        source,
        NodeBandwidth::total_only(Rate::kbps(100)),
        Box::new(TreeNode::new(variant, APP, 100.0, 5 * 1024)),
    );
    for (i, &id) in members.iter().enumerate() {
        let kbps = uniform(seed, i as u64, 50.0, 200.0);
        sim.add_node(
            id,
            NodeBandwidth::total_only(Rate::kbps(kbps as u64)),
            Box::new(TreeNode::new(variant, APP, kbps, 5 * 1024)),
        );
    }
    sim.inject(0, source, commands::deploy_source(APP));
    for (i, &joiner) in members.iter().enumerate() {
        let pool = i + 1;
        let pick = uniform(seed ^ 0xABCD, i as u64, 0.0, pool as f64) as usize;
        let contact = if pick == 0 { source } else { members[pick - 1] };
        let join = JoinPayload { contact, source };
        sim.inject(
            (2 + 2 * i as u64) * SEC,
            joiner,
            Msg::new(MsgType::SJoin, n(999), APP, 0, join.encode()),
        );
    }
    let mut ids = vec![source];
    ids.extend(members);
    (sim, ids)
}

#[test]
fn tree_construction_sessions() {
    let mut d = Digests::new();
    let (mut sim, ids) = five_node_session();
    sim.run_for(40 * SEC);
    d.fold(&sim, &ids, &[APP]);
    for variant in [TreeVariant::NsAware, TreeVariant::Random] {
        let (mut sim, ids) = wide_area_session(variant, 17);
        sim.inject(50 * SEC, ids[3], Msg::control(MsgType::Request, n(999), 0));
        // A member fails after the tree has formed; its subtree is told.
        sim.kill_at(70 * SEC, ids[2]);
        sim.run_until(80 * SEC);
        d.fold(&sim, &ids, &[APP]);
    }
    d.check("tree_construction_sessions", 0xe843_1a6f_e31b_b2f2, 0xeb52_bcd6_b2a2_121f);
}
