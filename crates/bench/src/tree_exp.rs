//! Table 3, Fig. 9, Fig. 11, Fig. 12, Fig. 13 — tree construction.

use std::net::Ipv4Addr;

use ioverlay::algorithms::tree::{JoinPayload, TreeNode, TreeVariant};
use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::{Algorithm, Msg, MsgType, NodeId};
use ioverlay::observer::commands;
use ioverlay::observer::dot::tree_to_dot;
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

use crate::util::{banner, cdf, n, row, uniform};
use crate::SEC;

const APP: u32 = 1;

/// Builds and runs the five-node Table 3 scenario; returns the sim and
/// the nodes in paper order (S, A, B, C, D).
pub fn five_node(variant: TreeVariant) -> (Sim, [NodeId; 5]) {
    let (s, a, b, c, d) = (n(1), n(2), n(3), n(4), n(5));
    let bandwidths = [
        (s, 200.0),
        (a, 500.0),
        (b, 100.0),
        (c, 200.0),
        (d, 100.0),
    ];
    let mut sim = SimBuilder::new(3).buffer_msgs(5).latency_ms(10).build();
    for (id, kbps) in bandwidths {
        sim.add_node(
            id,
            NodeBandwidth::total_only(Rate::kbps(kbps as u64)),
            Box::new(TreeNode::new(variant, APP, kbps, 5 * 1024)),
        );
    }
    sim.inject(0, s, commands::deploy_source(APP));
    let join_order = [d, a, c, b];
    for (i, joiner) in join_order.iter().enumerate() {
        // The paper's joiner reaches "the first such node B in the tree"
        // via query dissemination. For the randomized baseline that first
        // contact is effectively a random member; the other variants
        // route the query themselves, so the contact does not matter and
        // we use the source.
        let contact = if variant == TreeVariant::Random {
            let pool: Vec<NodeId> = std::iter::once(s)
                .chain(join_order[..i].iter().copied())
                .collect();
            pool[(uniform(77, i as u64, 0.0, pool.len() as f64)) as usize]
        } else {
            s
        };
        let join = JoinPayload { contact, source: s };
        sim.inject(
            (3 + 4 * i as u64) * SEC,
            *joiner,
            Msg::new(MsgType::SJoin, n(99), APP, 0, join.encode()),
        );
    }
    sim.run_for(120 * SEC);
    (sim, [s, a, b, c, d])
}

/// Table 3: node degree and node stress for the three algorithms.
pub fn table3() {
    banner("table3", "tree construction: node degree and node stress (1/100 KBps)");
    let variants = [
        ("unicast", TreeVariant::Unicast),
        ("random", TreeVariant::Random),
        ("ns-aware", TreeVariant::NsAware),
    ];
    let mut degrees: Vec<Vec<u64>> = Vec::new();
    let mut stresses: Vec<Vec<f64>> = Vec::new();
    for (_, variant) in variants {
        let (sim, nodes) = five_node(variant);
        degrees.push(
            nodes
                .iter()
                .map(|id| sim.algorithm_status(*id)["degree"].as_u64().unwrap())
                .collect(),
        );
        stresses.push(
            nodes
                .iter()
                .map(|id| sim.algorithm_status(*id)["stress"].as_f64().unwrap())
                .collect(),
        );
    }
    let labels = ["S", "A", "B", "C", "D"];
    let widths = [4, 9, 9, 9, 11, 11, 11];
    println!(
        "{}",
        row(
            &[
                "node".into(),
                "deg:uni".into(),
                "deg:rand".into(),
                "deg:ns".into(),
                "str:uni".into(),
                "str:rand".into(),
                "str:ns".into(),
            ],
            &widths
        )
    );
    for (i, label) in labels.iter().enumerate() {
        println!(
            "{}",
            row(
                &[
                    (*label).into(),
                    format!("{}", degrees[0][i]),
                    format!("{}", degrees[1][i]),
                    format!("{}", degrees[2][i]),
                    format!("{:.2}", stresses[0][i]),
                    format!("{:.2}", stresses[1][i]),
                    format!("{:.2}", stresses[2][i]),
                ],
                &widths
            )
        );
    }
    println!("\npaper (unicast / ns-aware): S 4/2, A 1/3, B 1/1, C 1/1, D 1/1\n");
}

/// Fig. 9: per-receiver throughput of the three trees.
pub fn fig9() {
    banner("fig9", "tree construction: per-receiver throughput (KBps)");
    let widths = [10, 9, 9, 9, 9];
    println!(
        "{}",
        row(
            &["variant".into(), "A".into(), "B".into(), "C".into(), "D".into()],
            &widths
        )
    );
    for (label, variant) in [
        ("unicast", TreeVariant::Unicast),
        ("random", TreeVariant::Random),
        ("ns-aware", TreeVariant::NsAware),
    ] {
        let (sim, nodes) = five_node(variant);
        let rates: Vec<f64> = nodes[1..]
            .iter()
            .map(|id| sim.received_kbps(*id, APP))
            .collect();
        println!(
            "{}",
            row(
                &[
                    label.into(),
                    format!("{:.1}", rates[0]),
                    format!("{:.1}", rates[1]),
                    format!("{:.1}", rates[2]),
                    format!("{:.1}", rates[3]),
                ],
                &widths
            )
        );
    }
    println!("\npaper: all-unicast ~50 each; ns-aware ~100 each (Fig. 9(b) vs 9(g))\n");
}

/// Builds an n-node wide-area session (the PlanetLab substitute):
/// per-node bandwidth uniform in [50, 200) KBps, source at 100 KBps,
/// joins every 2 seconds contacting a random existing member.
pub fn wide_area(variant: TreeVariant, receivers: usize, seed: u64) -> (Sim, NodeId, Vec<NodeId>) {
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
        // Contact a random node that is already in the tree.
        let pool = i + 1; // source plus previously joined members
        let pick = (uniform(seed ^ 0xABCD, i as u64, 0.0, pool as f64)) as usize;
        let contact = if pick == 0 { source } else { members[pick - 1] };
        let join = JoinPayload { contact, source };
        sim.inject(
            (2 + 2 * i as u64) * SEC,
            joiner,
            Msg::new(MsgType::SJoin, n(999), APP, 0, join.encode()),
        );
    }
    let settle = (2 + 2 * receivers as u64) * SEC + 60 * SEC;
    sim.run_until(settle);
    (sim, source, members)
}

/// Fanout of [`static_tree`].
const STATIC_FANOUT: usize = 4;
/// Payload bytes of the messages [`static_tree`]'s source emits.
pub const STATIC_MSG_BYTES: usize = 1024;

/// Address of node `i` of a [`static_tree`]. Trees grow past the 65 535
/// ports of one address, so the index goes into the IP.
pub fn static_node(i: usize) -> NodeId {
    NodeId::new(Ipv4Addr::from(0x0A00_0000 + i as u32), 9000)
}

/// Children of node `i` in a [`static_tree`] of `nodes` nodes.
pub fn static_children(i: usize, nodes: usize) -> Vec<NodeId> {
    (STATIC_FANOUT * i + 1..=STATIC_FANOUT * i + STATIC_FANOUT)
        .filter(|&c| c < nodes)
        .map(static_node)
        .collect()
}

/// Builds a static 4-ary forwarding tree — the topology of the
/// repository benchmark's `sim_tree` workload, at any size: node 0 a
/// back-to-back source of 1 KiB messages limited to 400 KBps, inner
/// nodes `StaticForwarder`s, leaves `SinkApp`s, 20 ms links, buffers of
/// 16. Children are added before their parents so the source's first
/// messages find their destinations.
pub fn static_tree(seed: u64, nodes: usize) -> Sim {
    let mut sim = SimBuilder::new(seed).buffer_msgs(16).latency_ms(20).build();
    for i in (0..nodes).rev() {
        let kids = static_children(i, nodes);
        let (bandwidth, alg): (NodeBandwidth, Box<dyn Algorithm>) = if i == 0 {
            let source = SourceApp::new(APP, kids, STATIC_MSG_BYTES, SourceMode::BackToBack);
            (
                NodeBandwidth::total_only(Rate::kbps(400)),
                Box::new(source.deployed()),
            )
        } else if kids.is_empty() {
            (NodeBandwidth::unlimited(), Box::new(SinkApp::new()))
        } else {
            (
                NodeBandwidth::unlimited(),
                Box::new(StaticForwarder::new().route(APP, kids)),
            )
        };
        sim.add_node(static_node(i), bandwidth, alg);
    }
    sim
}

/// Fig. 11: 81-node end-to-end throughput and node-stress CDF.
pub fn fig11(receivers: usize) {
    banner(
        "fig11",
        "wide-area session: per-receiver throughput and node-stress CDF",
    );
    let thresholds: Vec<f64> = (0..=10).map(|i| i as f64 * 5.0).collect();
    for (label, variant) in [
        ("unicast", TreeVariant::Unicast),
        ("random", TreeVariant::Random),
        ("ns-aware", TreeVariant::NsAware),
    ] {
        let (sim, source, members) = wide_area(variant, receivers, 17);
        let mut rates: Vec<f64> = members
            .iter()
            .map(|id| sim.received_kbps(*id, APP))
            .collect();
        rates.sort_by(|a, b| b.partial_cmp(a).unwrap());
        let mean = rates.iter().sum::<f64>() / rates.len() as f64;
        let median = rates[rates.len() / 2];
        let served = rates.iter().filter(|r| **r > 1.0).count();
        // Node stress over all session members (the paper's Fig. 11(b)
        // x-axis is stress in 1/100 KBps).
        let stresses: Vec<f64> = std::iter::once(source)
            .chain(members.iter().copied())
            .map(|id| sim.algorithm_status(id)["stress"].as_f64().unwrap() * 10.0)
            .collect();
        let dist = cdf(&stresses, &thresholds);
        println!(
            "{label:>9}: mean {mean:5.1} KBps  median {median:5.1} KBps  served {served}/{}",
            rates.len()
        );
        let cdf_text: Vec<String> = thresholds
            .iter()
            .zip(&dist)
            .map(|(t, f)| format!("{t:.0}:{f:.2}"))
            .collect();
        println!("           stress CDF {}", cdf_text.join(" "));
    }
    println!("\npaper shape: ns-aware ≥ random ≥ unicast on throughput; ns-aware CDF closest to the ideal step at stress 20\n");
}

/// Fig. 12 / Fig. 13: topology generated by the ns-aware algorithm,
/// printed as Graphviz DOT.
pub fn topology_dot(receivers: usize) {
    banner(
        if receivers <= 10 { "fig12" } else { "fig13" },
        "ns-aware tree topology (Graphviz DOT)",
    );
    let (sim, source, members) = wide_area(TreeVariant::NsAware, receivers, 17);
    let mut edges = Vec::new();
    for id in std::iter::once(source).chain(members.iter().copied()) {
        for child in sim.algorithm_status(id)["children"].as_array().unwrap() {
            let child: NodeId = child.as_str().unwrap().parse().unwrap();
            edges.push((id, child));
        }
    }
    println!("{}", tree_to_dot(&edges));
    println!("({} nodes, {} tree edges)\n", receivers + 1, edges.len());
}
