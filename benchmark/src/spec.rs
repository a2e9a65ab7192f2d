//! The benchmark's contract: workloads, metric names, units, bounds.
//!
//! `BENCHMARK.json` at the repository root is this table printed by the
//! `spec` subcommand; a unit test fails when the two differ.

use crate::stats::Better;
use Better::{Higher, Lower};

/// Seconds one run measures for (`run_seconds`), also the default of
/// `--seconds`.
pub const RUN_SECONDS: u64 = 12;

pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadSpec] = &[
    WorkloadSpec {
        name: "relay_small",
        why: "saturating 64 B messages through one relay over loopback TCP: per-message cost (codec, queue ops, switch round, syscalls) sets the rate; copying is negligible",
    },
    WorkloadSpec {
        name: "relay_large",
        why: "saturating 16 KiB messages: per-message cost is diluted 256x, so copies, read/write sizes and socket buffers dominate; a batching gain predicts no change here",
    },
    WorkloadSpec {
        name: "relay_paced",
        why: "open loop, 20000 msgs/s of 256 B in 1 ms ticks: queues near-empty, every hop is a thread wake-up; holding messages to build batches costs latency here",
    },
    WorkloadSpec {
        name: "sim_tree",
        why: "simnet 4096-node 4-ary forwarding tree, no sockets or threads: isolates the event loop, queues, token buckets and algorithms from the OS; relay work predicts no change",
    },
    WorkloadSpec {
        name: "coding_lossfree",
        why: "RLNC generations of 32 x 1 KiB with every systematic packet delivered: the rank-bookkeeping and memcpy fast path; kernels barely run",
    },
    WorkloadSpec {
        name: "coding_lossy",
        why: "same pipeline with 10 % of systematic packets dropped: repair insert, deferred blocked solve and mulacc kernels dominate; a kernel gain shows here only",
    },
];

pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// End-to-end metrics with the share of the parent's median by which
/// each may worsen. Every workload reports every one of them; what one
/// unit of work ("message") is on each workload is in WORKLOADS.md.
///
/// One bound serves all six workloads, so the noisiest sets it: on the
/// two-core host this was written on `relay_large` repeats with an
/// inter-quartile spread of 7–10 % of the median on every time-based
/// metric (README.md, "Measured spreads"), and a bound is kept at three
/// times the spread. The single-threaded workloads repeat within 1–3 %.
pub const END_TO_END: &[(MetricSpec, f64)] = &[
    (m("goodput_msgs_per_s", "1/s", Higher), 0.25),
    (m("goodput_mb_per_s", "MB/s", Higher), 0.25),
    (m("latency_p50_us", "us", Lower), 0.25),
    (m("latency_p99_us", "us", Lower), 0.25),
    (m("cpu_us_per_msg", "us", Lower), 0.25),
    (m("peak_rss_mb", "MB", Lower), 0.25),
    (m("setup_s", "s", Lower), 0.25),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name, unit, better }
}

/// Per-layer metrics of the traced run, `layer.metric`. A workload that
/// does not exercise a layer reports 0 for that layer's measured
/// metrics; probe metrics do not depend on the workload and are
/// reported by every traced run.
pub const PER_LAYER: &[MetricSpec] = &[
    m("message.encode_ns_per_msg", "ns", Lower),
    m("message.decode_ns_per_msg", "ns", Lower),
    m("message.decode_ns_per_kib", "ns", Lower),
    m("message.header_overhead_bytes", "B", Lower),
    m("queue.batch_ns_per_msg", "ns", Lower),
    m("queue.single_ns_per_msg", "ns", Lower),
    m("queue.handoff_us_p50", "us", Lower),
    m("queue.occupancy_mean_msgs", "count", Lower),
    m("queue.wait_us_p50", "us", Lower),
    m("queue.sends_blocked", "count", Lower),
    m("ratelimit.reserve_ns", "ns", Lower),
    m("ratelimit.bucket_wait_spans", "count", Lower),
    m("telemetry.record_ns", "ns", Lower),
    m("telemetry.status_us", "us", Lower),
    m("telemetry.trace_overhead_frac", "ratio", Lower),
    m("engine.spawn_ms", "ms", Lower),
    m("engine.shutdown_ms", "ms", Lower),
    m("engine.switch_batch_mean_msgs", "count", Higher),
    m("engine.switch_round_mean_ns", "ns", Lower),
    m("engine.send_batch_mean_msgs", "count", Higher),
    m("engine.send_syscall_mean_bytes", "B", Higher),
    m("engine.recv_syscall_mean_bytes", "B", Higher),
    m("engine.syscalls_per_kmsg", "count", Lower),
    m("engine.stage_recv_us_p50", "us", Lower),
    m("engine.stage_switch_us_p50", "us", Lower),
    m("engine.stage_serialize_us_p50", "us", Lower),
    m("engine.stage_write_us_p50", "us", Lower),
    m("engine.hop_us_p50", "us", Lower),
    m("engine.hop_us_p99", "us", Lower),
    m("engine.threads", "count", Lower),
    m("engine.ctx_switches_per_kmsg", "count", Lower),
    m("engine.sys_cpu_frac", "ratio", Lower),
    m("engine.sendspace_wakeups", "count", Lower),
    m("engine.blocked_retries", "count", Lower),
    m("engine.reordered_msgs", "count", Lower),
    m("algorithms.forward_ns_per_msg", "ns", Lower),
    m("algorithms.sink_ns_per_msg", "ns", Lower),
    m("simnet.build_us_per_node", "us", Lower),
    m("simnet.ns_per_hop_msg", "ns", Lower),
    m("simnet.small_ns_per_hop_msg", "ns", Lower),
    m("simnet.scale_penalty", "ratio", Lower),
    m("simnet.pending_events_peak", "count", Lower),
    m("simnet.rss_kb_per_node", "kB", Lower),
    m("simnet.status_report_us", "us", Lower),
    m("simnet.hop_msgs", "count", Higher),
    m("gf256.mulacc_gb_per_s", "GB/s", Higher),
    m("gf256.encode_systematic_ns_per_pkt", "ns", Lower),
    m("gf256.push_systematic_ns_per_pkt", "ns", Lower),
    m("gf256.encode_repair_ns_per_pkt", "ns", Lower),
    m("gf256.push_repair_ns_per_pkt", "ns", Lower),
    m("gf256.solve_us_per_gen", "us", Lower),
    m("gf256.elimination_rows_per_gen", "count", Lower),
    m("gf256.repair_overhead_frac", "ratio", Lower),
    m("observer.trace_ingest_ns_per_span", "ns", Lower),
    m("observer.trace_assemble_us_per_trace", "us", Lower),
    m("observer.health_eval_us", "us", Lower),
    m("loadgen.late_p99_us", "us", Lower),
    m("loadgen.late_max_us", "us", Lower),
    m("loadgen.write_blocked_frac", "ratio", Higher),
    m("loadgen.cpu_frac", "ratio", Lower),
];

pub fn end_to_end(name: &str) -> Option<&'static (MetricSpec, f64)> {
    END_TO_END.iter().find(|(m, _)| m.name == name)
}

/// `BENCHMARK.json`, exactly.
pub fn benchmark_json() -> String {
    use serde_json::{json, Value};
    let metric = |m: &MetricSpec, bound: Option<f64>| {
        let mut v = json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()});
        if let (Some(b), Value::Object(map)) = (bound, &mut v) {
            map.insert("bound".into(), json!(b));
        }
        v
    };
    let spec = json!({
        "command": [
            "cargo", "run", "--release", "--offline", "--quiet",
            "--manifest-path", "benchmark/Cargo.toml", "--"
        ],
        "paths": ["benchmark"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS
            .iter()
            .map(|w| json!({"name": w.name, "why": w.why}))
            .collect::<Vec<_>>(),
        "end_to_end": END_TO_END
            .iter()
            .map(|(m, b)| metric(m, Some(*b)))
            .collect::<Vec<_>>(),
        "per_layer": PER_LAYER.iter().map(|m| metric(m, None)).collect::<Vec<_>>(),
    });
    serde_json::to_string_pretty(&spec).expect("spec serializes") + "\n"
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn benchmark_json_matches_the_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with: cargo run --manifest-path benchmark/Cargo.toml -- spec > BENCHMARK.json"
        );
    }

    #[test]
    fn names_meet_the_contract() {
        let mut seen = BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|(m, _)| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for (m, bound) in END_TO_END {
            assert!(*bound > 0.0 && *bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").expect("setup_s is required");
        assert!(setup.0.unit == "s" && setup.0.better == Lower);
        assert!(
            END_TO_END.iter().all(|(_, b)| *b <= setup.1),
            "setup_s has the largest bound"
        );
        assert!((1..=128).contains(&PER_LAYER.len()) && (2..=8).contains(&WORKLOADS.len()));
    }
}
