//! Failure detection and graceful teardown (§2.2 "Handling of failures").
//!
//! Runs the paper's seven-node topology, then terminates node B mid-
//! stream (Fig. 6(c)) and node G after it (Fig. 6(d)), showing that
//! surviving links are undisturbed, dependent links are torn down by
//! the "Domino Effect", and receiver F keeps being served through the
//! alternate path C → D → E.
//!
//! Run with: `cargo run --example failure_recovery`

use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::NodeId;
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

const APP: u32 = 1;
const SEC: u64 = 1_000_000_000;

fn main() {
    let n = |p: u16| NodeId::loopback(p);
    let (a, b, c, d, e, f, g) = (n(1), n(2), n(3), n(4), n(5), n(6), n(7));
    let mut sim = SimBuilder::new(5).buffer_msgs(5).latency_ms(5).build();
    sim.add_node(f, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(g, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(
        e,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![f, g])),
    );
    sim.add_node(
        d,
        NodeBandwidth::unlimited().with_up(Rate::kbps(30)),
        Box::new(StaticForwarder::new().route(APP, vec![e])),
    );
    sim.add_node(
        b,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![d, f])),
    );
    sim.add_node(
        c,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![d, g])),
    );
    sim.add_node(
        a,
        NodeBandwidth::total_only(Rate::kbps(400)),
        Box::new(SourceApp::new(APP, vec![b, c], 5 * 1024, SourceMode::BackToBack).deployed()),
    );

    let snapshot = |sim: &Sim, label: &str| {
        println!("{label}");
        for (from, to, name) in [
            (a, b, "AB"),
            (a, c, "AC"),
            (b, d, "BD"),
            (b, f, "BF"),
            (c, d, "CD"),
            (c, g, "CG"),
            (d, e, "DE"),
            (e, f, "EF"),
            (e, g, "EG"),
        ] {
            let kbps = sim.link_kbps(from, to);
            if kbps < 0.5 {
                println!("  {name}: [closed]");
            } else {
                println!("  {name}: {kbps:6.1} KBps");
            }
        }
        println!();
    };

    sim.run_for(120 * SEC);
    snapshot(&sim, "steady state (D uplink capped at 30 KBps, Fig. 6b):");

    let now = sim.now();
    sim.kill_at(now, b);
    sim.run_for(120 * SEC);
    snapshot(&sim, "after terminating node B (Fig. 6c):");

    let now = sim.now();
    sim.kill_at(now, g);
    sim.run_for(120 * SEC);
    snapshot(&sim, "after also terminating node G (Fig. 6d):");

    println!(
        "receiver F still getting {:.1} KBps via C -> D -> E; messages lost across both failures: {}",
        sim.received_kbps(f, APP),
        sim.metrics().lost_msgs()
    );
}
