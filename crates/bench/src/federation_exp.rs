//! Fig. 14–19 — service federation experiments.

use std::collections::BTreeMap;

use ioverlay::algorithms::federation::{
    AwarePayload, FederatePayload, FederationNode, Policy, Requirement,
};
use ioverlay::api::{Msg, MsgType, NodeId};
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

use crate::util::{banner, n, row, uniform};
use crate::SEC;

const AWARE_TTL: u32 = 5;

/// A built service overlay ready for federations.
pub struct ServiceOverlay {
    pub sim: Sim,
    pub ids: Vec<NodeId>,
    pub services: Vec<u32>,
    pub kbps: Vec<f64>,
    next_session: u32,
}

/// Builds a service overlay of `size` nodes under `policy`.
///
/// Services 1..=`types` are assigned round-robin; node bandwidth is
/// drawn uniformly from [50, 200) KBps as in the paper's PlanetLab
/// setup. When `stagger_assign_secs > 0`, assignments arrive over time
/// (`services_per_minute` controls the Fig. 16 arrival process).
pub fn build_overlay(
    policy: Policy,
    size: usize,
    types: u32,
    seed: u64,
    assign_interval: u64,
) -> ServiceOverlay {
    let ids: Vec<NodeId> = (1..=size as u16).map(n).collect();
    let mut sim = SimBuilder::new(seed).buffer_msgs(10).latency_ms(15).build();
    let mut services = Vec::new();
    let mut kbps_all = Vec::new();
    for (i, &id) in ids.iter().enumerate() {
        let kbps = uniform(seed, i as u64, 50.0, 200.0);
        let alg = FederationNode::new(policy)
            .with_known_hosts(ids.iter().copied().filter(|x| *x != id));
        sim.add_node(id, NodeBandwidth::total_only(Rate::kbps(kbps as u64)), Box::new(alg));
        services.push(1 + (i as u32 % types));
        kbps_all.push(kbps);
    }
    for (i, &id) in ids.iter().enumerate() {
        let assign = AwarePayload {
            node: id,
            service: services[i],
            kbps: kbps_all[i],
            load: 0,
            epoch: 1,
            ttl: AWARE_TTL,
        };
        sim.inject(
            i as u64 * assign_interval,
            id,
            Msg::new(MsgType::SAssign, n(999), 0, 0, assign.encode()),
        );
    }
    ServiceOverlay {
        sim,
        ids,
        services,
        kbps: kbps_all,
        next_session: 9000,
    }
}

impl ServiceOverlay {
    /// Starts one federation of `requirement` at a node hosting its
    /// first service type, at absolute time `at`. Returns the session id.
    pub fn federate(&mut self, at: u64, requirement: Requirement, msg_bytes: usize) -> u32 {
        self.next_session += 1;
        let session = self.next_session;
        let first_type = requirement.service(0);
        // Round-robin over hosts of the first type.
        let hosts: Vec<usize> = self
            .services
            .iter()
            .enumerate()
            .filter(|(_, s)| **s == first_type)
            .map(|(i, _)| i)
            .collect();
        let source = self.ids[hosts[session as usize % hosts.len()]];
        let fed = FederatePayload {
            session,
            requirement,
            current_vertex: 0,
            assignment: BTreeMap::new(),
            msg_bytes,
        };
        self.sim.inject(
            at,
            source,
            Msg::new(MsgType::SFederate, n(999), session, 0, fed.encode()),
        );
        session
    }

    fn total_bytes(&self, ty: MsgType) -> u64 {
        self.ids
            .iter()
            .map(|&id| self.sim.metrics().sent_bytes(id, ty))
            .sum()
    }
}

/// Fig. 14: the constructed complex service for a DAG requirement.
pub fn fig14() {
    banner("fig14", "constructed complex service (DAG requirement, sFlow)");
    let mut overlay = build_overlay(Policy::SFlow, 16, 4, 21, SEC / 4);
    overlay.sim.run_for(30 * SEC);
    let requirement =
        Requirement::new(vec![1, 2, 3, 4], vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
    let now = overlay.sim.now();
    let session = overlay.federate(now, requirement.clone(), 5 * 1024);
    overlay.sim.run_for(60 * SEC);
    // Find the conclusion.
    for &id in &overlay.ids {
        let status = overlay.sim.algorithm_status(id);
        if status["concluded"].as_u64().unwrap_or(0) > 0 {
            println!("sink service node: {id}");
        }
    }
    // Reconstruct the data topology from the metrics.
    println!("federated session {session} data links (KBps):");
    for (from, to) in overlay.sim.metrics().active_links() {
        let kbps = overlay.sim.link_kbps(from, to);
        if kbps > 1.0 {
            println!("  {from} -> {to}: {kbps:6.1}");
        }
    }
    println!("(the paper's Fig. 14 is one such DAG with 16 candidate services)\n");
}

/// Fig. 15: per-node control overhead and bandwidth for one session.
pub fn fig15() {
    banner(
        "fig15",
        "per-node control message overhead and bandwidth (one federation)",
    );
    let mut overlay = build_overlay(Policy::SFlow, 16, 4, 21, SEC / 4);
    overlay.sim.run_for(30 * SEC);
    let req = Requirement::chain(vec![1, 2, 3, 4]).unwrap();
    let now = overlay.sim.now();
    overlay.federate(now, req, 5 * 1024);
    overlay.sim.run_for(60 * SEC);
    let widths = [16, 10, 12, 12, 14];
    println!(
        "{}",
        row(
            &[
                "node".into(),
                "service".into(),
                "sAware B".into(),
                "sFederate B".into(),
                "bandwidth KBps".into(),
            ],
            &widths
        )
    );
    let mut order: Vec<usize> = (0..overlay.ids.len()).collect();
    order.sort_by(|a, b| overlay.kbps[*b].partial_cmp(&overlay.kbps[*a]).unwrap());
    for i in order {
        let id = overlay.ids[i];
        println!(
            "{}",
            row(
                &[
                    id.to_string(),
                    format!("{}", overlay.services[i]),
                    format!("{}", overlay.sim.metrics().sent_bytes(id, MsgType::SAware)),
                    format!("{}", overlay.sim.metrics().sent_bytes(id, MsgType::SFederate)),
                    format!("{:.0}", overlay.kbps[i]),
                ],
                &widths
            )
        );
    }
    println!("\npaper shape: sAware dominates sFederate on every node; several nodes untouched\n");
}

/// Fig. 16: sAware overhead over time, 30 nodes, ~3 new services/min.
pub fn fig16() {
    banner(
        "fig16",
        "sAware overhead over 22 minutes (30 nodes, 3 new services per minute)",
    );
    // Assign one service every 20 s => 3 per minute, 30 nodes in 10 min.
    let mut overlay = build_overlay(Policy::SFlow, 30, 4, 22, 20 * SEC);
    overlay.sim.run_for(22 * 60 * SEC);
    println!("minute  sAware bytes");
    for minute in 0..22u64 {
        let bytes = overlay
            .sim
            .metrics()
            .control_bytes_between(MsgType::SAware, minute * 60 * SEC, (minute + 1) * 60 * SEC);
        println!("{minute:>6}  {bytes}");
    }
    println!("\npaper shape: overhead significantly decreases once the arrival of new services stops (~minute 10)\n");
}

/// Fig. 17: total control overhead vs network size (50 reqs/min, 10 min).
pub fn fig17() {
    banner(
        "fig17",
        "total control overhead vs network size (50 requirements/min over 10 min)",
    );
    let widths = [6, 14, 16];
    println!(
        "{}",
        row(&["size".into(), "sAware bytes".into(), "sFederate bytes".into()], &widths)
    );
    for size in [5usize, 10, 15, 20, 25, 30, 35, 40] {
        let mut overlay = build_overlay(Policy::SFlow, size, 4, 23, SEC);
        overlay.sim.run_for((size as u64 + 10) * SEC);
        let start = overlay.sim.now();
        // 50 requirements per minute for 10 minutes, control-plane only.
        for k in 0..500u64 {
            let at = start + k * 60 * SEC / 50;
            let req = Requirement::chain(vec![1, 2, 3, 4]).unwrap();
            overlay.federate(at, req, 0);
        }
        overlay.sim.run_until(start + 600 * SEC);
        println!(
            "{}",
            row(
                &[
                    format!("{size}"),
                    format!("{}", overlay.total_bytes(MsgType::SAware)),
                    format!("{}", overlay.total_bytes(MsgType::SFederate)),
                ],
                &widths
            )
        );
    }
    println!("\npaper shape: both grow with size; sFederate grows slower than sAware\n");
}

/// Fig. 18: per-node control overhead (30 nodes, 50 reqs/min, 22 min).
pub fn fig18() {
    banner(
        "fig18",
        "per-node control overhead (30 nodes, 50 requirements/min, 22 min)",
    );
    let mut overlay = build_overlay(Policy::SFlow, 30, 4, 24, SEC);
    overlay.sim.run_for(40 * SEC);
    let start = overlay.sim.now();
    for k in 0..(50 * 22) {
        let at = start + k as u64 * 60 * SEC / 50;
        let req = Requirement::chain(vec![1, 2, 3, 4]).unwrap();
        overlay.federate(at, req, 0);
    }
    overlay.sim.run_until(start + 22 * 60 * SEC);
    println!("node             sAware B   sFederate B");
    for (i, &id) in overlay.ids.iter().enumerate() {
        println!(
            "{id:<16} {:>9}  {:>11}  (service {}, {:.0} KBps)",
            overlay.sim.metrics().sent_bytes(id, MsgType::SAware),
            overlay.sim.metrics().sent_bytes(id, MsgType::SFederate),
            overlay.services[i],
            overlay.kbps[i],
        );
    }
    println!("\npaper shape: a few source-service nodes dominate sFederate; low-bandwidth nodes see little traffic\n");
}

/// Fig. 19: end-to-end bandwidth of federated services vs network size,
/// for the three policies.
pub fn fig19() {
    banner(
        "fig19",
        "end-to-end bandwidth of federated services vs network size",
    );
    let widths = [6, 12, 12, 12];
    println!(
        "{}",
        row(
            &["size".into(), "sFlow KBps".into(), "fixed KBps".into(), "random KBps".into()],
            &widths
        )
    );
    for size in [8usize, 16, 24, 32, 40] {
        let mut cells = vec![format!("{size}")];
        for policy in [Policy::SFlow, Policy::Fixed, Policy::Random] {
            let mut overlay = build_overlay(policy, size, 4, 25, SEC / 2);
            overlay.sim.run_for((size as u64 / 2 + 20) * SEC);
            let start = overlay.sim.now();
            // Several concurrent sessions stress the selection policy.
            let sessions: Vec<u32> = (0..6)
                .map(|k| {
                    overlay.federate(
                        start + k * 2 * SEC,
                        Requirement::chain(vec![1, 2, 3, 4]).unwrap(),
                        5 * 1024,
                    )
                })
                .collect();
            overlay.sim.run_until(start + 120 * SEC);
            // Mean goodput of each session at its sink (any node that
            // received its bytes and forwarded nowhere is the sink; we
            // take the max receiver per session).
            let mut total = 0.0;
            for &session in &sessions {
                let best = overlay
                    .ids
                    .iter()
                    .map(|&id| overlay.sim.metrics().received_bytes(id, session))
                    .max()
                    .unwrap_or(0);
                total += best as f64 / 1024.0 / 120.0;
            }
            cells.push(format!("{:.1}", total / sessions.len() as f64));
        }
        println!("{}", row(&cells, &widths));
    }
    println!("\npaper shape: sFlow > fixed > random at every size\n");
}
