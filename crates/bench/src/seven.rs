//! Fig. 6 and Fig. 7 — engine correctness on the seven-node topology,
//! plus the footprint accounting of §2.4.

use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::NodeId;
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

use crate::util::{banner, n, row};
use crate::SEC;

const APP: u32 = 1;
const MSG: usize = 5 * 1024;

/// The seven nodes of Fig. 6, in paper order.
#[derive(Debug, Clone, Copy)]
pub struct Seven {
    pub a: NodeId,
    pub b: NodeId,
    pub c: NodeId,
    pub d: NodeId,
    pub e: NodeId,
    pub f: NodeId,
    pub g: NodeId,
}

impl Seven {
    /// The nine directed links of the topology with their paper names.
    pub fn links(&self) -> [(NodeId, NodeId, &'static str); 9] {
        [
            (self.a, self.b, "AB"),
            (self.a, self.c, "AC"),
            (self.b, self.d, "BD"),
            (self.b, self.f, "BF"),
            (self.c, self.d, "CD"),
            (self.c, self.g, "CG"),
            (self.d, self.e, "DE"),
            (self.e, self.f, "EF"),
            (self.e, self.g, "EG"),
        ]
    }
}

/// Builds the seven-node scenario with the given buffer size.
pub fn build(buffer_msgs: usize, seed: u64) -> (Sim, Seven) {
    let topo = Seven {
        a: n(1),
        b: n(2),
        c: n(3),
        d: n(4),
        e: n(5),
        f: n(6),
        g: n(7),
    };
    let mut sim = SimBuilder::new(seed)
        .buffer_msgs(buffer_msgs)
        .latency_ms(5)
        .build();
    sim.add_node(topo.f, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(topo.g, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(
        topo.e,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![topo.f, topo.g])),
    );
    sim.add_node(
        topo.d,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![topo.e])),
    );
    sim.add_node(
        topo.b,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![topo.d, topo.f])),
    );
    sim.add_node(
        topo.c,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![topo.d, topo.g])),
    );
    sim.add_node(
        topo.a,
        NodeBandwidth::total_only(Rate::kbps(400)),
        Box::new(SourceApp::new(APP, vec![topo.b, topo.c], MSG, SourceMode::BackToBack).deployed()),
    );
    (sim, topo)
}

fn print_links(sim: &Sim, topo: &Seven, paper: &[(&str, &str)]) {
    let widths = [4, 14, 14];
    println!(
        "{}",
        row(&["link".into(), "measured KBps".into(), "paper KBps".into()], &widths)
    );
    for (from, to, name) in topo.links() {
        let kbps = sim.link_kbps(from, to);
        let paper_val = paper
            .iter()
            .find(|(l, _)| *l == name)
            .map(|(_, v)| *v)
            .unwrap_or("-");
        let shown = if kbps < 0.5 {
            "[closed]".to_string()
        } else {
            format!("{kbps:.1}")
        };
        println!(
            "{}",
            row(&[name.into(), shown, paper_val.into()], &widths)
        );
    }
    println!();
}

/// Fig. 6(a): per-node 400 KBps at the source, buffers of 5 messages.
pub fn fig6a() {
    banner("fig6a", "per-node bandwidth emulation, converged link throughput");
    let (mut sim, topo) = build(5, 6);
    sim.run_for(60 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "200.3"),
            ("AC", "199.2"),
            ("BD", "201.5"),
            ("BF", "199.3"),
            ("CD", "198.6"),
            ("CG", "200.5"),
            ("DE", "401.3"),
            ("EF", "398.9"),
            ("EG", "399.0"),
        ],
    );
}

/// Fig. 6(b): D's uplink throttled to 30 KBps at runtime.
pub fn fig6b() {
    banner("fig6b", "uplink bottleneck at D: back pressure through the network");
    let (mut sim, topo) = build(5, 6);
    sim.run_for(30 * SEC);
    sim.set_node_up(topo.d, Some(Rate::kbps(30)));
    sim.run_for(180 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "14.5"),
            ("AC", "15.8"),
            ("BD", "15.3"),
            ("BF", "15.4"),
            ("CD", "15.0"),
            ("CG", "15.6"),
            ("DE", "30.2"),
            ("EF", "30.3"),
            ("EG", "29.7"),
        ],
    );
}

/// Fig. 6(c): node B terminated by the observer.
pub fn fig6c() {
    banner("fig6c", "terminating node B: survivors undisturbed");
    let (mut sim, topo) = build(5, 6);
    sim.run_for(30 * SEC);
    sim.set_node_up(topo.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    let now = sim.now();
    sim.kill_at(now, topo.b);
    sim.run_for(120 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "[closed]"),
            ("AC", "29.9"),
            ("BD", "[closed]"),
            ("BF", "[closed]"),
            ("CD", "30.1"),
            ("CG", "29.8"),
            ("DE", "29.5"),
            ("EF", "30.2"),
            ("EG", "29.6"),
        ],
    );
}

/// Fig. 6(d): node G terminated too; F still served.
pub fn fig6d() {
    banner("fig6d", "terminating node G as well: F still served via C, D, E");
    let (mut sim, topo) = build(5, 6);
    sim.run_for(30 * SEC);
    sim.set_node_up(topo.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    let now = sim.now();
    sim.kill_at(now, topo.b);
    sim.run_for(60 * SEC);
    let now = sim.now();
    sim.kill_at(now, topo.g);
    sim.run_for(120 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "[closed]"),
            ("AC", "30.5"),
            ("BD", "[closed]"),
            ("BF", "[closed]"),
            ("CD", "30.1"),
            ("CG", "[closed]"),
            ("DE", "30.4"),
            ("EF", "30.2"),
            ("EG", "[closed]"),
        ],
    );
    println!(
        "receiver F goodput: {:.1} KBps (undisturbed)\n",
        sim.received_kbps(topo.f, APP)
    );
}

/// Fig. 7(a): same bottleneck, 10000-message buffers.
pub fn fig7a() {
    banner("fig7a", "large buffers: bottleneck confined to D's downstream");
    let (mut sim, topo) = build(10_000, 6);
    sim.run_for(30 * SEC);
    sim.set_node_up(topo.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "200.8"),
            ("AC", "200.4"),
            ("BD", "199.5"),
            ("BF", "200.5"),
            ("CD", "200.1"),
            ("CG", "199.7"),
            ("DE", "30.5"),
            ("EF", "30.4"),
            ("EG", "30.2"),
        ],
    );
}

/// Fig. 7(b): an additional 15 KBps per-link cap on EF.
pub fn fig7b() {
    banner("fig7b", "per-link cap on EF leaves EG untouched (large buffers)");
    let (mut sim, topo) = build(10_000, 6);
    sim.run_for(30 * SEC);
    sim.set_node_up(topo.d, Some(Rate::kbps(30)));
    sim.set_link_rate(topo.e, topo.f, Some(Rate::kbps(15)));
    sim.run_for(120 * SEC);
    print_links(
        &sim,
        &topo,
        &[
            ("AB", "200.5"),
            ("AC", "198.3"),
            ("BD", "200.3"),
            ("BF", "199.6"),
            ("CD", "200.2"),
            ("CG", "201.2"),
            ("DE", "30.5"),
            ("EF", "14.9"),
            ("EG", "30.4"),
        ],
    );
}

/// §2.4 footprint: buffer memory per active connection and idle load.
pub fn footprint() {
    banner(
        "footprint",
        "engine memory accounting per connection (paper: ~4 MB/connection)",
    );
    // The paper quotes: message size 5 KB, buffer capacity 10 messages,
    // ~4 MB per active connection (Linux threads included). Our engine's
    // per-connection state is two bounded buffers plus thread stacks.
    let msg = 5 * 1024u64;
    let buffer = 10u64;
    let queue_bytes = 2 * msg * buffer; // one receive + one send buffer
    let thread_stacks = 2 * 2 * 1024 * 1024; // default 2 MiB per thread
    println!("message size:           {msg} B");
    println!("buffer capacity:        {buffer} messages");
    println!("bounded queue memory:   {} KiB", queue_bytes / 1024);
    println!(
        "thread stacks (2/conn): {} MiB (virtual)",
        thread_stacks / 1024 / 1024
    );
    println!(
        "total per connection:   ~{:.1} MiB (paper: ~4 MB on Linux 2.4 with clone())",
        (queue_bytes + thread_stacks) as f64 / 1024.0 / 1024.0
    );
    // Idle load: an idle engine blocks on its queues and sockets.
    println!("idle CPU: engine threads block on condvars/sockets (paper: load 0.00)");
}
