//! Integration: service federation (§3.4, sFlow) on the simulator.

use std::collections::BTreeMap;

use ioverlay::algorithms::federation::{
    AwarePayload, FederatePayload, FederationNode, Policy, Requirement,
};
use ioverlay::api::{Msg, MsgType, NodeId};
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

const SEC: u64 = 1_000_000_000;

fn n(port: u16) -> NodeId {
    NodeId::loopback(port)
}

/// Builds a service overlay of `size` nodes under `policy`.
///
/// Service types 1..=4 are spread round-robin; each node's last-mile
/// bandwidth cycles through 50/100/150/200 KBps. All nodes know all
/// nodes (small overlays bootstrap densely).
fn build(policy: Policy, size: u16, seed: u64) -> (Sim, Vec<NodeId>) {
    let ids: Vec<NodeId> = (1..=size).map(n).collect();
    let mut sim = SimBuilder::new(seed).buffer_msgs(10).latency_ms(10).build();
    for (i, &id) in ids.iter().enumerate() {
        let kbps = 50 + 50 * (i as u64 % 4);
        let alg = FederationNode::new(policy)
            .with_known_hosts(ids.iter().copied().filter(|x| *x != id));
        sim.add_node(id, NodeBandwidth::total_only(Rate::kbps(kbps)), Box::new(alg));
    }
    // Assign service types round-robin via observer-style sAssign.
    for (i, &id) in ids.iter().enumerate() {
        let service = 1 + (i as u32 % 4);
        let kbps = 50.0 + 50.0 * (i % 4) as f64;
        let assign = AwarePayload {
            node: id,
            service,
            kbps,
            load: 0,
            epoch: 1,
            ttl: 5,
        };
        sim.inject(
            (i as u64) * SEC / 4,
            id,
            Msg::new(MsgType::SAssign, n(999), 0, 0, assign.encode()),
        );
    }
    (sim, ids)
}

fn start_federation(sim: &mut Sim, at: u64, source: NodeId, session: u32) {
    let fed = FederatePayload {
        session,
        requirement: Requirement::chain(vec![1, 2, 3, 4]).unwrap(),
        current_vertex: 0,
        assignment: BTreeMap::new(),
        msg_bytes: 5 * 1024,
    };
    sim.inject(
        at,
        source,
        Msg::new(MsgType::SFederate, n(999), session, 0, fed.encode()),
    );
}

#[test]
fn awareness_propagates_across_the_overlay() {
    let (mut sim, ids) = build(Policy::SFlow, 12, 5);
    sim.run_for(30 * SEC);
    // Every node should have learned instances for most service types.
    let mut total_known = 0;
    for &id in &ids {
        total_known += sim.algorithm_status(id)["known_services"]
            .as_u64()
            .unwrap();
    }
    let avg = total_known as f64 / ids.len() as f64;
    assert!(avg >= 3.0, "average known service types {avg}, want >= 3");
}

#[test]
fn federation_concludes_and_carries_data() {
    let (mut sim, ids) = build(Policy::SFlow, 12, 5);
    sim.run_for(30 * SEC);
    // ids[0] hosts service type 1: make it the source service node.
    let now = sim.now();
    start_federation(&mut sim, now, ids[0], 7001);
    sim.run_for(60 * SEC);
    // Someone concluded the federation.
    let concluded: u64 = ids
        .iter()
        .map(|&id| sim.algorithm_status(id)["concluded"].as_u64().unwrap())
        .sum();
    assert_eq!(concluded, 1, "exactly one conclusion");
    // The data session flows: at least one node received session bytes.
    let delivered: u64 = ids
        .iter()
        .map(|&id| sim.metrics().received_bytes(id, 7001))
        .sum();
    assert!(delivered > 0, "no session data flowed");
}

#[test]
fn sflow_beats_random_on_end_to_end_bandwidth() {
    // Run several concurrent requirements; sFlow spreads load, random
    // does not. Compare total sink goodput. sFlow's selection is
    // deterministic, but random's goodput varies widely with the seed
    // (a lucky draw can beat sFlow), so the comparison is against the
    // mean of several random runs — the claim is about expectation.
    let run = |policy: Policy, seed: u64| -> f64 {
        let (mut sim, ids) = build(policy, 16, seed);
        sim.run_for(40 * SEC);
        // Launch six sessions from type-1 hosts (indices 0, 4, 8, ...).
        let now = sim.now();
        for (k, i) in [0usize, 4, 8, 12, 0, 4].iter().enumerate() {
            start_federation(&mut sim, now + k as u64 * SEC, ids[*i], 8000 + k as u32);
        }
        sim.run_for(120 * SEC);
        // Sum the goodput of every session at every node that actually
        // terminated a chain (type-4 hosts, indices 3, 7, 11, 15).
        let mut total = 0.0;
        for k in 0..6u32 {
            for i in [3usize, 7, 11, 15] {
                total += sim.metrics().received_bytes(ids[i], 8000 + k) as f64;
            }
        }
        total
    };
    let sflow = run(Policy::SFlow, 9);
    let seeds = [9u64, 10, 11];
    let random = seeds.iter().map(|&s| run(Policy::Random, s)).sum::<f64>() / seeds.len() as f64;
    assert!(
        sflow > random,
        "sFlow total {sflow:.0} bytes should beat mean random {random:.0}"
    );
}

#[test]
fn control_overhead_is_dominated_by_saware() {
    let (mut sim, ids) = build(Policy::SFlow, 16, 3);
    sim.run_for(30 * SEC);
    let now = sim.now();
    start_federation(&mut sim, now, ids[0], 7001);
    sim.run_for(30 * SEC);
    let aware: u64 = ids
        .iter()
        .map(|&id| sim.metrics().sent_bytes(id, MsgType::SAware))
        .sum();
    let federate: u64 = ids
        .iter()
        .map(|&id| sim.metrics().sent_bytes(id, MsgType::SFederate))
        .sum();
    assert!(aware > 0 && federate > 0);
    assert!(
        aware > federate,
        "Fig. 15/17 shape: sAware ({aware} B) should dominate sFederate ({federate} B)"
    );
}

/// One source hosting several sessions pumps them in a fixed order: the
/// same overlay built twice in one process delivers the same bytes to
/// every `(node, session)`. (Session state kept in a `HashMap` filled
/// the shared send buffers in `RandomState` order, which made `repro
/// fig19` differ run to run.)
#[test]
fn concurrent_sessions_of_one_source_replay_identically() {
    const SESSIONS: [u32; 3] = [9001, 9002, 9003];
    let run = || -> Vec<u64> {
        let (mut sim, ids) = build(Policy::SFlow, 8, 11);
        sim.run_for(30 * SEC);
        let now = sim.now();
        for (k, &session) in SESSIONS.iter().enumerate() {
            start_federation(&mut sim, now + k as u64 * SEC, ids[0], session);
        }
        sim.run_for(60 * SEC);
        ids.iter()
            .flat_map(|&id| SESSIONS.map(|s| sim.metrics().received_bytes(id, s)))
            .collect()
    };
    let first = run();
    assert!(first.iter().sum::<u64>() > 0, "no session data flowed");
    // Several replays: with three sessions a random order repeats by
    // luck one time in a few, which would let a regression slip by.
    for _ in 0..3 {
        assert_eq!(first, run(), "received_bytes per (node, session)");
    }
}
