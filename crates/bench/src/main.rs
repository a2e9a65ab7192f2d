//! `repro` — regenerates every table and figure of the iOverlay paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment> [...]
//! repro all              # everything (slow: several minutes)
//! repro quick            # one fast experiment per family
//! ```
//!
//! Experiments: `fig5 switch simnet coding fig6a fig6b fig6c fig6d fig7a fig7b
//! fig8 table3 fig9 fig11 fig12 fig13 fig14 fig15 fig16 fig17 fig18
//! fig19 footprint`.

use ioverlay_bench::{
    ablation, coding_bench, extensions, federation_exp, fig5, fig8, scaling, seven, simnet_sweep,
    switch_bench, tree_exp,
};

fn run_one(id: &str) -> bool {
    match id {
        "fig5" => {
            fig5::run(3);
        }
        "fig5-quick" => {
            fig5::run(1);
        }
        "switch" => switch_bench::run(3, &[100, 1_000, 10_000]),
        "switch-quick" => switch_bench::run(1, &[100, 1_000]),
        // Telemetry-overhead gate only: skips the link-scaling sweep.
        "switch-overhead" => switch_bench::run(1, &[]),
        "simnet" => simnet_sweep::run(&simnet_sweep::SIZES),
        // Without the 65 536-node point (half a minute and 1 GB).
        "simnet-quick" => simnet_sweep::run(&simnet_sweep::SIZES[..4]),
        "coding" => coding_bench::run(3),
        "coding-quick" => coding_bench::run(1),
        "fig6a" => seven::fig6a(),
        "fig6b" => seven::fig6b(),
        "fig6c" => seven::fig6c(),
        "fig6d" => seven::fig6d(),
        "fig7a" => seven::fig7a(),
        "fig7b" => seven::fig7b(),
        "fig8" => {
            fig8::run();
        }
        "table3" => tree_exp::table3(),
        "fig9" => tree_exp::fig9(),
        "fig11" => tree_exp::fig11(80),
        "fig11-quick" => tree_exp::fig11(30),
        "fig12" => tree_exp::topology_dot(9),
        "fig13" => tree_exp::topology_dot(80),
        "fig14" => federation_exp::fig14(),
        "fig15" => federation_exp::fig15(),
        "fig16" => federation_exp::fig16(),
        "fig17" => federation_exp::fig17(),
        "fig18" => federation_exp::fig18(),
        "fig19" => federation_exp::fig19(),
        "footprint" => seven::footprint(),
        "ablation-buffers" => ablation::buffers(),
        "ablation-gossip" => ablation::gossip(),
        "ablation-detect" => ablation::detect(),
        "ablation-wrr" => ablation::wrr(),
        "ext-dht" => extensions::dht_scaling(),
        "ext-churn" => extensions::churn(),
        // Dev probe: one 3-node chain run, e.g. `chain-reactor-5` or
        // `chain-batched` (trailing number = measure secs).
        other if other.starts_with("chain-") => {
            let mut parts = other.splitn(3, '-').skip(1);
            let mode = match parts.next() {
                Some("batched") => switch_bench::ChainMode::Batched,
                Some("reactor") => switch_bench::ChainMode::Reactor,
                _ => return false,
            };
            let secs: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(3);
            let p = switch_bench::run_chain(mode, true, true, 0, 256, secs);
            println!("{other}: {:.0} msgs/sec, {:.1} MB/sec", p.msgs_per_sec, p.mb_per_sec);
        }
        // Dev probe: one coded-relay run, e.g. `relay-1024-3`
        // (msg bytes, then measure secs).
        other if other.starts_with("relay-") => {
            let mut parts = other.splitn(3, '-').skip(1);
            let bytes: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(1024);
            let secs: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(3);
            let (gens, mb) = coding_bench::run_relay(bytes, secs);
            println!("{other}: {gens:.0} generations/sec, {mb:.1} effective MB/s");
        }
        // Dev probe: one scaling point, e.g. `scale-reactor-1000` or
        // `scale-blocking-100-30` (trailing number = measure secs).
        other if other.starts_with("scale-") => {
            let mut parts = other.splitn(4, '-').skip(1);
            let backend = parts.next().unwrap_or("");
            let links: usize = parts.next().and_then(|v| v.parse().ok()).unwrap_or(0);
            let secs: u64 = parts.next().and_then(|v| v.parse().ok()).unwrap_or(5);
            if !matches!(backend, "reactor" | "blocking") || links == 0 {
                return false;
            }
            let p = scaling::run_point(backend == "reactor", links, 256, secs);
            println!(
                "{backend} {links}: {:.0} msgs/sec, {} node threads, {:.1} MB RSS ({} up)",
                p.msgs_per_sec, p.node_threads, p.rss_mb, p.links_up
            );
        }
        _ => return false,
    }
    true
}

const ALL: &[&str] = &[
    "fig5", "switch", "simnet", "coding", "fig6a", "fig6b", "fig6c", "fig6d", "fig7a", "fig7b", "fig8", "table3", "fig9",
    "fig11", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "footprint",
    "ablation-buffers", "ablation-gossip", "ablation-detect", "ablation-wrr",
    "ext-dht", "ext-churn",
];

const QUICK: &[&str] = &[
    "fig5-quick",
    "fig6a",
    "fig8",
    "table3",
    "fig11-quick",
    "fig15",
    "footprint",
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Loadgen child-process mode for the scaling sweep (internal; see
    // `scaling::run_loadgen`).
    if args.first().map(String::as_str) == Some("scale-loadgen") {
        if !scaling::run_loadgen(&args[1..]) {
            eprintln!("usage: repro scale-loadgen <addr> <links> <msg_bytes>");
            std::process::exit(2);
        }
        return;
    }
    // Child-process mode for the simulator sweep (internal; see
    // `simnet_sweep::point_in_child`).
    if args.first().map(String::as_str) == Some("simnet-point") {
        if !simnet_sweep::run_point_cli(&args[1..]) {
            eprintln!("usage: repro simnet-point <nodes>");
            std::process::exit(2);
        }
        return;
    }
    if args.is_empty() {
        eprintln!("usage: repro <experiment|all|quick> [...]");
        eprintln!("experiments: {}", ALL.join(" "));
        std::process::exit(2);
    }
    for arg in &args {
        let list: &[&str] = match arg.as_str() {
            "all" => ALL,
            "quick" => QUICK,
            other => {
                if !run_one(other) {
                    eprintln!("unknown experiment {other:?}; known: {}", ALL.join(" "));
                    std::process::exit(2);
                }
                continue;
            }
        };
        for id in list {
            run_one(id);
        }
    }
}
