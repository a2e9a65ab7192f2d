//! Simulator node-count sweep — emitted as `BENCH_simnet.json`.
//!
//! The static forwarding tree of [`crate::tree_exp::static_tree`] at
//! 64 to 65 536 nodes, one virtual second each: what one *hop message*
//! (one message moved across one simulated link) costs the host, what a
//! node costs to build, and what it holds in memory. The per-hop model
//! work is the same at every size, so the ratio between the largest and
//! the smallest point is what scale alone costs — cache misses on the
//! node and link arenas and the depth of the event heap. CI gates on
//! that ratio (`simnet-scaling` in `.github/workflows/ci.yml`).
//!
//! Every point runs in its own child process (`repro simnet-point
//! <nodes>`), so resident-set readings belong to that point alone, and
//! three times over: a single virtual second of the small trees is a few
//! milliseconds of host time, and the report keeps the run with the
//! median cost per hop message.

use std::process::Command;
use std::time::Instant;

use ioverlay::api::NodeId;
use ioverlay::simnet::Sim;
use serde::{Deserialize, Serialize};
use serde_json::{json, Value};

use crate::tree_exp::{static_children, static_node, static_tree, STATIC_MSG_BYTES};
use crate::util::{banner, row, status_field};
use crate::SEC;

/// The full sweep; `simnet-quick` and CI stop after the fourth size.
pub const SIZES: [usize; 5] = [64, 1_024, 4_096, 16_384, 65_536];

/// Child runs per point; the median by cost per hop message is kept.
const REPEATS: usize = 3;

/// The same harness at commit `88de744`, the last with the
/// map-addressed simulator core (`BTreeMap<NodeId, SimNode>`, one
/// event heap, locked buckets), on the machine that produced the
/// committed report: `(nodes, ns per hop message, build µs per node,
/// built kB per node, peak kB per node)`.
const BEFORE_DENSE_CORE: &[(usize, f64, f64, f64, f64)] = &[
    (64, 2031.0, 8.66, 22.88, 33.62),
    (1_024, 3463.0, 9.16, 12.91, 23.39),
    (4_096, 4387.0, 7.59, 12.17, 22.69),
    (16_384, 6500.0, 6.74, 12.04, 22.52),
];

/// One point of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Point {
    pub nodes: usize,
    /// Messages moved across links during the measured virtual second.
    pub hop_msgs: u64,
    pub ns_per_hop_msg: f64,
    pub build_us_per_node: f64,
    /// Resident memory the built simulation added, per node.
    pub rss_kb_per_node: f64,
    /// Resident memory the simulation held at its peak (the run
    /// included), per node.
    pub peak_rss_kb_per_node: f64,
}

/// `VmRSS` and `VmHWM` of this process in kB (0 without procfs).
fn resident_kb() -> (u64, u64) {
    let text = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    (status_field(&text, "VmRSS:"), status_field(&text, "VmHWM:"))
}

fn hop_msgs(sim: &Sim, links: &[(NodeId, NodeId)]) -> u64 {
    links
        .iter()
        .map(|&(a, b)| sim.metrics().link_bytes(a, b) / STATIC_MSG_BYTES as u64)
        .sum()
}

/// Builds the tree and runs it for one virtual second, in this process.
pub fn run_point(nodes: usize) -> Point {
    let links: Vec<(NodeId, NodeId)> = (0..nodes)
        .flat_map(|i| {
            static_children(i, nodes)
                .into_iter()
                .map(move |c| (static_node(i), c))
        })
        .collect();
    let (rss_before, _) = resident_kb();
    let started = Instant::now();
    let mut sim = static_tree(1, nodes);
    let build_s = started.elapsed().as_secs_f64();
    let (rss_built, _) = resident_kb();
    let started = Instant::now();
    sim.run_until(SEC);
    let run_s = started.elapsed().as_secs_f64();
    let (_, peak) = resident_kb();
    let hops = hop_msgs(&sim, &links);
    Point {
        nodes,
        hop_msgs: hops,
        ns_per_hop_msg: run_s * 1e9 / hops.max(1) as f64,
        build_us_per_node: build_s * 1e6 / nodes as f64,
        rss_kb_per_node: rss_built.saturating_sub(rss_before) as f64 / nodes as f64,
        peak_rss_kb_per_node: peak.saturating_sub(rss_before) as f64 / nodes as f64,
    }
}

/// Child-process entry point (`repro simnet-point <nodes>`): one point,
/// printed as one JSON line.
pub fn run_point_cli(args: &[String]) -> bool {
    let Some(nodes) = args.first().and_then(|a| a.parse::<usize>().ok()) else {
        return false;
    };
    if nodes < 2 {
        return false;
    }
    println!(
        "{}",
        serde_json::to_string(&run_point(nodes)).expect("serialize point")
    );
    true
}

/// The median of [`REPEATS`] child runs.
fn median_point(nodes: usize) -> Option<Point> {
    let mut runs: Vec<Point> = (0..REPEATS).filter_map(|_| point_in_child(nodes)).collect();
    runs.sort_by(|a, b| a.ns_per_hop_msg.total_cmp(&b.ns_per_hop_msg));
    (!runs.is_empty()).then(|| runs.swap_remove(runs.len() / 2))
}

fn point_in_child(nodes: usize) -> Option<Point> {
    let exe = std::env::current_exe().ok()?;
    let out = Command::new(exe)
        .args(["simnet-point", &nodes.to_string()])
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!(
            "simnet-point {nodes} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        return None;
    }
    let line = String::from_utf8_lossy(&out.stdout);
    serde_json::from_str(line.trim()).ok()
}

/// Runs the sweep over `sizes`, prints the table, and writes
/// `BENCH_simnet.json` into the current directory.
pub fn run(sizes: &[usize]) {
    banner(
        "simnet",
        "simulator node-count sweep: static 4-ary tree, one virtual second per size",
    );
    let widths = [7, 11, 12, 13, 12, 13];
    let header = [
        "nodes",
        "hop msgs",
        "ns/hop msg",
        "build us/node",
        "kB/node",
        "peak kB/node",
    ];
    println!("{}", row(&header.map(String::from), &widths));
    let mut points = Vec::new();
    for &nodes in sizes {
        let Some(p) = median_point(nodes) else {
            continue;
        };
        println!(
            "{}",
            row(
                &[
                    format!("{}", p.nodes),
                    format!("{}", p.hop_msgs),
                    format!("{:.0}", p.ns_per_hop_msg),
                    format!("{:.2}", p.build_us_per_node),
                    format!("{:.2}", p.rss_kb_per_node),
                    format!("{:.2}", p.peak_rss_kb_per_node),
                ],
                &widths
            )
        );
        points.push(p);
    }
    let at = |nodes: usize| points.iter().find(|p| p.nodes == nodes);
    let scale_ratio = match (at(64), at(16_384)) {
        (Some(small), Some(large)) => Some(large.ns_per_hop_msg / small.ns_per_hop_msg),
        _ => None,
    };
    if let Some(ratio) = scale_ratio {
        println!("\n16384 nodes cost {ratio:.2}x the 64-node ns per hop message\n");
    }
    let before: Vec<Value> = BEFORE_DENSE_CORE
        .iter()
        .map(|&(nodes, ns, build, rss, peak)| {
            json!({
                "nodes": nodes,
                "ns_per_hop_msg": ns,
                "build_us_per_node": build,
                "rss_kb_per_node": rss,
                "peak_rss_kb_per_node": peak,
            })
        })
        .collect();
    let report = json!({
        "bench": "simnet",
        "topology": "static 4-ary tree, 1 KiB messages from a 400 KBps source, 20 ms links, buffers of 16",
        "virtual_secs": 1,
        "runs_per_point": REPEATS,
        "points": serde_json::to_value(&points),
        "ns_per_hop_msg_16384_over_64": scale_ratio,
        "before_dense_core": {
            "commit": "88de744",
            "points": before,
        },
    });
    let text = serde_json::to_string_pretty(&report).expect("serialize report");
    match std::fs::write("BENCH_simnet.json", &text) {
        Ok(()) => println!("wrote BENCH_simnet.json"),
        Err(e) => eprintln!("could not write BENCH_simnet.json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_point_counts_hops_and_round_trips_through_json() {
        let p = run_point(21);
        // One virtual second of a 400 KBps source over 20 links.
        assert!(p.hop_msgs > 1_000, "{p:?}");
        assert!(p.ns_per_hop_msg > 0.0 && p.build_us_per_node > 0.0);
        assert_eq!(run_point(21).hop_msgs, p.hop_msgs, "runs repeat exactly");
        let text = serde_json::to_string(&p).unwrap();
        let back: Point = serde_json::from_str(&text).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn bad_point_arguments_are_refused() {
        assert!(!run_point_cli(&[]));
        assert!(!run_point_cli(&["x".into()]));
        assert!(!run_point_cli(&["1".into()]));
    }
}
