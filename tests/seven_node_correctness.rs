//! Integration: the seven-node engine-correctness topology of Fig. 6/7.
//!
//! Topology (identical to the paper's):
//!
//! ```text
//!        A            A -> B, A -> C
//!       / \           B -> D, B -> F
//!      B   C          C -> D, C -> G
//!      |\  |\         D -> E
//!      | D | \        E -> F, E -> G
//!      |/ \|  \
//!      F   E   G      (E -> F, E -> G close the diamond)
//!       \ / \ /
//! ```
//!
//! A is the source with a 400 KBps per-node cap; copies are made at
//! every fanout and no merging is performed.

use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::NodeId;
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

const SEC: u64 = 1_000_000_000;
const APP: u32 = 1;
const MSG: usize = 5 * 1024;

struct Nodes {
    a: NodeId,
    b: NodeId,
    c: NodeId,
    d: NodeId,
    e: NodeId,
    f: NodeId,
    g: NodeId,
}

fn nodes() -> Nodes {
    Nodes {
        a: NodeId::loopback(1),
        b: NodeId::loopback(2),
        c: NodeId::loopback(3),
        d: NodeId::loopback(4),
        e: NodeId::loopback(5),
        f: NodeId::loopback(6),
        g: NodeId::loopback(7),
    }
}

/// Builds the Fig. 6 seven-node scenario with the given buffer size.
fn build(buffer_msgs: usize) -> (Sim, Nodes) {
    let n = nodes();
    let mut sim = SimBuilder::new(7)
        .buffer_msgs(buffer_msgs)
        .latency_ms(5)
        .build();
    // Interior nodes first so links always have live endpoints.
    sim.add_node(n.f, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(n.g, NodeBandwidth::unlimited(), Box::new(SinkApp::new()));
    sim.add_node(
        n.e,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![n.f, n.g])),
    );
    sim.add_node(
        n.d,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![n.e])),
    );
    sim.add_node(
        n.b,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![n.d, n.f])),
    );
    sim.add_node(
        n.c,
        NodeBandwidth::unlimited(),
        Box::new(StaticForwarder::new().route(APP, vec![n.d, n.g])),
    );
    sim.add_node(
        n.a,
        NodeBandwidth::total_only(Rate::kbps(400)),
        Box::new(SourceApp::new(APP, vec![n.b, n.c], MSG, SourceMode::BackToBack).deployed()),
    );
    (sim, n)
}

fn assert_kbps(sim: &Sim, from: NodeId, to: NodeId, expect: f64, tol: f64, label: &str) {
    let got = sim.link_kbps(from, to);
    assert!(
        (got - expect).abs() < tol,
        "{label}: {got:.1} KBps, expected ~{expect} ± {tol}"
    );
}

#[test]
fn fig6a_per_node_cap_converges_all_links() {
    let (mut sim, n) = build(5);
    sim.run_for(60 * SEC);
    // Fig. 6(a): AB = AC = BD = BF = CD = CG ≈ 200, DE = EF = EG ≈ 400.
    assert_kbps(&sim, n.a, n.b, 200.0, 30.0, "AB");
    assert_kbps(&sim, n.a, n.c, 200.0, 30.0, "AC");
    assert_kbps(&sim, n.b, n.d, 200.0, 30.0, "BD");
    assert_kbps(&sim, n.b, n.f, 200.0, 30.0, "BF");
    assert_kbps(&sim, n.c, n.d, 200.0, 30.0, "CD");
    assert_kbps(&sim, n.c, n.g, 200.0, 30.0, "CG");
    assert_kbps(&sim, n.d, n.e, 400.0, 50.0, "DE");
    assert_kbps(&sim, n.e, n.f, 400.0, 50.0, "EF");
    assert_kbps(&sim, n.e, n.g, 400.0, 50.0, "EG");
}

#[test]
fn fig6b_uplink_bottleneck_back_pressures_the_whole_network() {
    let (mut sim, n) = build(5);
    sim.run_for(30 * SEC);
    // Throttle D's uplink to 30 KBps at runtime.
    sim.set_node_up(n.d, Some(Rate::kbps(30)));
    sim.run_for(180 * SEC);
    // Fig. 6(b): everything except DE/EF/EG converges to ~15; those to ~30.
    assert_kbps(&sim, n.b, n.d, 15.0, 5.0, "BD");
    assert_kbps(&sim, n.c, n.d, 15.0, 5.0, "CD");
    assert_kbps(&sim, n.a, n.b, 15.0, 5.0, "AB (back pressure)");
    assert_kbps(&sim, n.a, n.c, 15.0, 5.0, "AC (back pressure)");
    assert_kbps(&sim, n.b, n.f, 15.0, 5.0, "BF (fate sharing)");
    assert_kbps(&sim, n.c, n.g, 15.0, 5.0, "CG (fate sharing)");
    assert_kbps(&sim, n.d, n.e, 30.0, 6.0, "DE");
    assert_kbps(&sim, n.e, n.f, 30.0, 6.0, "EF");
    assert_kbps(&sim, n.e, n.g, 30.0, 6.0, "EG");
}

#[test]
fn fig6c_terminating_b_leaves_the_rest_undisturbed() {
    let (mut sim, n) = build(5);
    sim.run_for(30 * SEC);
    sim.set_node_up(n.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    sim.kill_at(sim.now(), n.b);
    sim.run_for(120 * SEC);
    // Fig. 6(c): AB/BF/BD closed; CD rises to ~30 (D's full uplink now
    // feeds from C alone); F still served via E.
    assert!(!sim.is_alive(n.b));
    assert_kbps(&sim, n.c, n.d, 30.0, 6.0, "CD after B dies");
    assert_kbps(&sim, n.d, n.e, 30.0, 6.0, "DE");
    assert_kbps(&sim, n.e, n.f, 30.0, 6.0, "EF (F still served)");
    assert_kbps(&sim, n.b, n.d, 0.0, 1.0, "BD closed");
    assert_kbps(&sim, n.b, n.f, 0.0, 1.0, "BF closed");
}

#[test]
fn fig6d_terminating_g_keeps_f_served() {
    let (mut sim, n) = build(5);
    sim.run_for(30 * SEC);
    sim.set_node_up(n.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    sim.kill_at(sim.now(), n.b);
    sim.run_for(60 * SEC);
    sim.kill_at(sim.now(), n.g);
    sim.run_for(120 * SEC);
    // Fig. 6(d): F keeps receiving via C, D, E.
    assert_kbps(&sim, n.e, n.f, 30.0, 6.0, "EF (F survives)");
    assert_kbps(&sim, n.e, n.g, 0.0, 1.0, "EG closed");
    assert_kbps(&sim, n.c, n.g, 0.0, 1.0, "CG closed");
    let recent = sim.received_kbps(n.f, APP);
    assert!(recent > 20.0, "F's goodput died: {recent}");
}

#[test]
fn fig7a_large_buffers_confine_the_bottleneck_to_downstream() {
    let (mut sim, n) = build(10_000);
    sim.run_for(30 * SEC);
    sim.set_node_up(n.d, Some(Rate::kbps(30)));
    sim.run_for(120 * SEC);
    // Fig. 7(a): with 10000-message buffers, D's bottleneck only affects
    // its own downstream; the rest of the network stays at ~200/400.
    assert_kbps(&sim, n.d, n.e, 30.0, 6.0, "DE");
    assert_kbps(&sim, n.a, n.b, 200.0, 30.0, "AB unaffected");
    assert_kbps(&sim, n.b, n.d, 200.0, 30.0, "BD unaffected");
    assert_kbps(&sim, n.b, n.f, 200.0, 30.0, "BF unaffected");
}

#[test]
fn fig7b_per_link_cap_does_not_affect_sibling_links() {
    let (mut sim, n) = build(10_000);
    sim.run_for(30 * SEC);
    sim.set_node_up(n.d, Some(Rate::kbps(30)));
    sim.set_link_rate(n.e, n.f, Some(Rate::kbps(15)));
    sim.run_for(120 * SEC);
    // Fig. 7(b): EF pinned at 15, EG keeps D's full 30 KBps output.
    assert_kbps(&sim, n.e, n.f, 15.0, 4.0, "EF capped");
    assert_kbps(&sim, n.e, n.g, 30.0, 6.0, "EG unaffected");
    assert_kbps(&sim, n.a, n.b, 200.0, 30.0, "AB unaffected");
}
