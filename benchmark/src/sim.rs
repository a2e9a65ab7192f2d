//! `sim_tree`: a static 4-ary forwarding tree on `simnet`.
//!
//! Single-threaded, no sockets: isolates the event loop, the queues,
//! the token buckets and the algorithms from the operating system. One
//! unit of work is a *hop message*: one message moved across one
//! simulated link.

use std::time::Instant;

use ioverlay::algorithms::{SinkApp, SourceApp, SourceMode, StaticForwarder};
use ioverlay::api::{Algorithm, NodeId};
use ioverlay::simnet::{NodeBandwidth, Rate, Sim, SimBuilder};

use crate::clock::{self, Window};
use crate::plan::Plan;
use crate::procfs;
use crate::report::Outcome;
use crate::stats::LatencyHist;
use crate::trace::{Recorder, TraceFile};
use crate::Opts;

const APP: u32 = 1;
pub const NODES: usize = 4096;
const FANOUT: usize = 4;
const MSG_BYTES: usize = 1024;
const BUFFER_MSGS: usize = 16;
const LINK_LATENCY_MS: u64 = 20;
const MS: u64 = 1_000_000;
/// Virtual time every set-up runs for: long enough for the first
/// messages to cross two links.
const SETUP_VIRTUAL: u64 = 50 * MS;
/// Virtual warm-up: the pipeline is six links deep at 20 ms each and
/// every buffer on the way has to fill.
const WARMUP_VIRTUAL: u64 = 1_000 * MS;
const SETUPS: usize = 5;

fn source_rate() -> Rate {
    Rate::kbps(400)
}

fn node(i: usize) -> NodeId {
    NodeId::loopback(1 + i as u16)
}

fn children(i: usize, nodes: usize) -> Vec<NodeId> {
    (FANOUT * i + 1..=FANOUT * i + FANOUT)
        .filter(|&c| c < nodes)
        .map(node)
        .collect()
}

/// Every `(parent, child)` link of the tree.
fn links(nodes: usize) -> Vec<(NodeId, NodeId)> {
    (0..nodes)
        .flat_map(|i| children(i, nodes).into_iter().map(move |c| (node(i), c)))
        .collect()
}

/// Builds the tree: node 0 a back-to-back source limited to
/// [`source_rate`], inner nodes `StaticForwarder`s, leaves `SinkApp`s.
/// Children are added before their parents so the source's first
/// messages find their destinations.
pub fn build(seed: u64, nodes: usize) -> Sim {
    let mut sim = SimBuilder::new(seed)
        .buffer_msgs(BUFFER_MSGS)
        .latency_ms(LINK_LATENCY_MS)
        .build();
    for i in (0..nodes).rev() {
        let kids = children(i, nodes);
        let (bandwidth, alg): (NodeBandwidth, Box<dyn Algorithm>) = if i == 0 {
            (
                NodeBandwidth::total_only(source_rate()),
                Box::new(SourceApp::new(APP, kids, MSG_BYTES, SourceMode::BackToBack).deployed()),
            )
        } else if kids.is_empty() {
            (NodeBandwidth::unlimited(), Box::new(SinkApp::new()))
        } else {
            (
                NodeBandwidth::unlimited(),
                Box::new(StaticForwarder::new().route(APP, kids)),
            )
        };
        sim.add_node(node(i), bandwidth, alg);
    }
    sim
}

/// Messages moved across links so far, summed over every link.
pub fn hop_msgs(sim: &Sim, links: &[(NodeId, NodeId)]) -> u64 {
    links
        .iter()
        .map(|&(a, b)| sim.metrics().link_bytes(a, b) / MSG_BYTES as u64)
        .sum()
}

/// One source message period: the virtual time one measured step
/// advances, so every step carries the same amount of work.
pub fn step_virtual() -> u64 {
    source_rate().transmission_delay(MSG_BYTES as u64)
}

/// Leaves that received fewer messages than the pipeline between them
/// and the source can hold back, or more than were sent.
fn leaves_out_of_step(sim: &Sim, nodes: usize) -> u64 {
    let sent = sim.algorithm_status(node(0))["sent_msgs"]
        .as_u64()
        .unwrap_or(0);
    let depth = (nodes as f64).log(FANOUT as f64).ceil() as u64 + 1;
    // Per link: a full send buffer, a full receive buffer, a full
    // window in flight; plus the source's token-bucket burst.
    let per_link = 2 * BUFFER_MSGS as u64 + sim.config().link_window as u64;
    let slack = depth * per_link + source_rate().as_bytes_per_sec() / 8 / MSG_BYTES as u64;
    (0..nodes)
        .filter(|&i| children(i, nodes).is_empty())
        .filter(|&i| {
            let got = sim.metrics().received_msgs(node(i), APP);
            got > sent || got + slack < sent
        })
        .count() as u64
}

pub fn run(opts: &Opts, file: &mut TraceFile) -> Outcome {
    let epoch = Instant::now();
    let mut rec = Recorder::new("main", epoch, opts.trace);
    let tree = links(NODES);
    let rss_before_kb = procfs::status().vm_rss_kb;
    let mut rss_built_kb = 0;

    // Set-up, several times; the runs must agree hop for hop.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_hops = Vec::with_capacity(SETUPS);
    let mut sim = loop {
        let first = setups.is_empty();
        let (sim, nominal_s) = clock::timed_setup(|| {
            let t = rec.begin("simnet.build");
            let mut sim = build(opts.seed, NODES);
            rec.end(t);
            if first {
                rss_built_kb = procfs::status().vm_rss_kb;
            }
            sim.run_until(SETUP_VIRTUAL);
            sim
        });
        setups.push(nominal_s);
        setup_hops.push(hop_msgs(&sim, &tree));
        if setups.len() == SETUPS {
            break sim;
        }
    };
    let nondeterministic = setup_hops
        .iter()
        .filter(|&&h| h != setup_hops[0] || h == 0)
        .count() as u64;

    sim.run_until(WARMUP_VIRTUAL);
    let warm_hops = hop_msgs(&sim, &tree);

    let plan = Plan::new(opts);
    let step = step_virtual();
    let mut step_ns = vec![LatencyHist::default(); plan.windows];
    let mut windows = Vec::with_capacity(plan.windows);
    let mut pending_peak = sim.pending_events();
    for (i, hist) in step_ns.iter_mut().enumerate() {
        rec.set_enabled(plan.traced(i));
        let (started, hops, cpu_s) = (Instant::now(), hop_msgs(&sim, &tree), procfs::cpu_s());
        let timed = clock::repeat_for(plan.window_len, hist, || {
            let t = rec.begin("simnet.run_for");
            sim.run_for(step);
            rec.end(t);
        });
        windows.push(Window {
            timed,
            units: hop_msgs(&sim, &tree) - hops,
            cpu_s: procfs::cpu_s() - cpu_s,
            elapsed_s: started.elapsed().as_secs_f64(),
        });
        pending_peak = pending_peak.max(sim.pending_events());
    }
    let peak_rss_mb = procfs::status().vm_hwm_kb as f64 / 1024.0;
    rec.set_enabled(opts.trace);
    let t = rec.begin("simnet.status_report");
    std::hint::black_box(sim.status_report(node(0)));
    rec.end(t);

    let total_hops = hop_msgs(&sim, &tree);
    let mut out = Outcome {
        attempted: total_hops,
        failed: sim.metrics().lost_msgs() + leaves_out_of_step(&sim, NODES) + nondeterministic,
        ..Outcome::default()
    };

    let msgs = plan.of_windows(&windows, false, Window::rate);
    out.set_goodput(msgs.clone(), MSG_BYTES);
    out.set_windows(
        "cpu_us_per_msg",
        plan.of_windows(&windows, false, Window::cpu_us_per_unit),
    );
    // A step is a whole message period of work (5 ms), so a window
    // holds a few hundred: its p99 has three or four samples beyond it,
    // not ten. Pooling all windows would have the count, but then the
    // host's multi-millisecond stalls, which land in about one step in a
    // hundred, decide the value (it moved 9–12.5 ms run to run); the
    // best window's p99 is the step time without them.
    let hists: Vec<&LatencyHist> = plan.indices(false).map(|i| &step_ns[i]).collect();
    out.set_latency(&hists, &format!("steps of {} virtual us", step / 1_000));
    out.set("peak_rss_mb", peak_rss_mb);
    out.set_setup(&setups);

    if opts.trace {
        let traced = plan.of_windows(&windows, true, Window::rate);
        out.set(
            "telemetry.trace_overhead_frac",
            1.0 - traced.median() / msgs.median().max(1.0),
        );
        let ns_per_hop = 1e9 / traced.median().max(1.0);
        out.set("simnet.ns_per_hop_msg", ns_per_hop);
        out.set(
            "simnet.build_us_per_node",
            rec.agg("simnet.build").mean_ns() / 1e3 / NODES as f64,
        );
        out.set("simnet.pending_events_peak", pending_peak as f64);
        out.set(
            "simnet.rss_kb_per_node",
            rss_built_kb.saturating_sub(rss_before_kb) as f64 / NODES as f64,
        );
        out.set(
            "simnet.status_report_us",
            rec.agg("simnet.status_report").mean_ns() / 1e3,
        );
        out.set_noted(
            "simnet.hop_msgs",
            warm_hops as f64,
            format!("(exact, first {} virtual ms)", WARMUP_VIRTUAL / MS),
        );
    }
    file.absorb(rec);
    println!(
        "sim_tree         {NODES}-node {FANOUT}-ary tree, {MSG_BYTES} B messages, {LINK_LATENCY_MS} ms links, \
         buffers of {BUFFER_MSGS}; {} hop messages simulated",
        total_hops
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_shape() {
        assert_eq!(children(0, 21), vec![node(1), node(2), node(3), node(4)]);
        assert_eq!(children(5, 21), Vec::<NodeId>::new());
        assert_eq!(
            links(21).len(),
            20,
            "every node but the root has one parent"
        );
        assert_eq!(links(NODES).len(), NODES - 1);
    }

    #[test]
    fn small_tree_delivers_deterministically_without_loss() {
        let run = || {
            let mut sim = build(3, 21);
            sim.run_until(2_000 * MS);
            (
                hop_msgs(&sim, &links(21)),
                sim.metrics().lost_msgs(),
                leaves_out_of_step(&sim, 21),
            )
        };
        let (hops, lost, out_of_step) = run();
        assert!(hops > 1_000, "{hops}");
        assert_eq!((lost, out_of_step), (0, 0));
        assert_eq!(run().0, hops, "same seed, same hop count");
    }
}
