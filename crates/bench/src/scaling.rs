//! Link-count scaling sweep: one sink node ingesting N upstream links,
//! on both I/O backends.
//!
//! This is the tentpole measurement for the sharded reactor core: the
//! blocking backend spends one OS thread per upstream link, so its
//! thread count (and scheduler pressure) grows O(links); the reactor
//! backend hashes every link onto a fixed shard pool and stays
//! O(shards). The sweep drives 100 → 1k → 10k loadgen links into a
//! single node and records goodput plus `/proc/self/status` thread and
//! RSS figures per point — the scaling curve in `BENCH_switch.json`.
//!
//! The loadgen runs in a **child process** (`repro scale-loadgen …`),
//! for two reasons. First, fd budget: this container caps
//! `RLIMIT_NOFILE` at 20k even for root, and a 10k-link point needs
//! 10k loadgen sockets *plus* the node's accepted sockets — in one
//! process the 10k point dies of `EMFILE` mid-establishment (observed:
//! both backends stall at ~6.7k links and the measure window overlaps
//! dial-retry storms). Second, attribution: with the loadgen out of
//! process, `/proc/self/status` thread and RSS deltas are the node's
//! alone. The child is a raw TCP writer pool speaking the wire protocol
//! (one `Hello`, then framed data messages) — building it from
//! `EngineNode`s would drown the measurement in loadgen engines.

use std::fs::File;
use std::io::{BufRead, BufReader, Read, Seek, SeekFrom, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ioverlay::algorithms::SinkApp;
use ioverlay::api::{Msg, MsgType, NodeId};
use ioverlay::engine::{EngineConfig, EngineNode, IoBackend};

/// Writer threads carrying the loadgen links in the child process.
const LOADGEN_THREADS: usize = 8;

/// Messages per pre-encoded write buffer (default; see
/// [`msgs_per_write`]).
const MSGS_PER_WRITE: usize = 32;

/// Hard bound on the child's establishment phase; stragglers past it
/// just count as `links_up < links` in the report.
const ESTABLISH_DEADLINE: Duration = Duration::from_secs(60);

/// Burst size actually used, overridable via
/// `IOVERLAY_SCALE_MSGS_PER_WRITE` for loadgen experiments.
fn msgs_per_write() -> usize {
    std::env::var("IOVERLAY_SCALE_MSGS_PER_WRITE")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&v: &usize| v > 0)
        .unwrap_or(MSGS_PER_WRITE)
}

/// One measured sweep point for one backend.
#[derive(Debug, Clone, Copy)]
pub struct ScalePoint {
    pub links: usize,
    pub links_up: usize,
    pub msgs_per_sec: f64,
    pub mb_per_sec: f64,
    /// Threads attributable to the node under test (process threads
    /// during the measure window minus the pre-spawn baseline; the
    /// loadgen lives in a child process and never shows up here).
    pub node_threads: i64,
    pub rss_mb: f64,
}

/// Reads `Threads:` and `VmRSS:` (kB) from `/proc/self/status`;
/// `(0, 0)` where procfs is unavailable. Retries a couple of times and
/// falls back to `/proc/self/stat`: under heavy load (10k-thread
/// points) the multi-line status read has been observed to come back
/// empty for whole windows, while the one-line stat read stays
/// readable.
fn proc_status() -> (u64, u64) {
    for _ in 0..3 {
        if let Ok(text) = std::fs::read_to_string("/proc/self/status") {
            let out = (
                crate::util::status_field(&text, "Threads:"),
                crate::util::status_field(&text, "VmRSS:"),
            );
            if out.0 > 0 {
                return out;
            }
        }
        if let Some(out) = proc_stat() {
            return out;
        }
        thread::sleep(Duration::from_millis(10));
    }
    proc_stat().unwrap_or((0, 0))
}

/// `/proc/self/stat` fallback: `num_threads` (field 20) and `rss`
/// (field 24, pages → kB). The comm field can contain anything, so
/// fields are counted from after the closing paren.
fn proc_stat() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/self/stat").ok()?;
    parse_stat(&text)
}

fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let threads: u64 = fields.get(17)?.parse().ok()?;
    let rss_pages: u64 = fields.get(21)?.parse().ok()?;
    let page_kb = 4; // x86-64/aarch64 base page size
    (threads > 0).then_some((threads, rss_pages * page_kb))
}

/// A `/proc/self/stat` reader over a **pre-opened** fd, re-read by
/// rewinding. A blocking 10k-link node holds ~20k fds — the whole
/// container `RLIMIT_NOFILE` hard cap — so any sampler that `open`s
/// procfs mid-window dies of `EMFILE` and silently reports zero
/// (observed as "0 threads, 0.0 MB RSS" at exactly the 10k blocking
/// point and nowhere else). Opening before the node spawns and seeking
/// to 0 per sample needs no new fd ever.
struct ProcSampler {
    stat: Option<File>,
}

impl ProcSampler {
    fn open() -> Self {
        Self {
            stat: File::open("/proc/self/stat").ok(),
        }
    }

    fn sample(&mut self) -> (u64, u64) {
        let Some(f) = self.stat.as_mut() else {
            return proc_status();
        };
        let mut text = String::new();
        if f.seek(SeekFrom::Start(0)).is_ok() && f.read_to_string(&mut text).is_ok() {
            if let Some(out) = parse_stat(&text) {
                return out;
            }
        }
        (0, 0)
    }
}

/// Waits for the previous sweep point's threads to finish unwinding
/// and returns the settled count. Sweep points run back-to-back in one
/// process, and `EngineNode::shutdown` joins only the engine and
/// listener threads — a torn-down blocking node's thousand-plus link
/// threads exit detached, and on a single core that exit storm both
/// inflates the next point's thread baseline and steals its measure
/// window (observed: the 1k reactor point losing >3x throughput to the
/// previous point's teardown). Stability alone is not a drain signal —
/// exit storms plateau for stretches — so this insists on a fully
/// drained process (back to single-digit threads) until the deadline.
fn settle_threads() -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut last = proc_status().0;
    loop {
        thread::sleep(Duration::from_millis(500));
        let now = proc_status().0;
        let drained = now > 0 && now <= 8;
        if (drained && now == last) || Instant::now() >= deadline {
            return now.max(1);
        }
        last = now;
    }
}

fn dial_link(addr: std::net::SocketAddr, origin: NodeId) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::other("no attempt");
    // A few retries ride out accept-backlog overflow while the node
    // (blocking backend) is still spawning receiver threads.
    for _ in 0..5 {
        match TcpStream::connect_timeout(&addr, Duration::from_secs(2)) {
            Ok(mut stream) => {
                stream.set_nodelay(true)?;
                let hello = Msg::control(MsgType::Hello, origin, 0);
                let mut buf = bytes::BytesMut::new();
                hello.encode_into(&mut buf);
                stream.write_all(&buf)?;
                return Ok(stream);
            }
            Err(e) => last = e,
        }
        thread::sleep(Duration::from_millis(20));
    }
    Err(last)
}

/// Child-process entry point (`repro scale-loadgen <addr> <links>
/// <msg_bytes>`): dials `links` connections to `addr`, prints
/// `up <n>` once establishment settles, pumps data until a line (or
/// EOF) arrives on stdin, then exits.
pub fn run_loadgen(args: &[String]) -> bool {
    let (Some(addr), Some(links), Some(msg_bytes)) = (
        args.first().and_then(|a| a.parse::<std::net::SocketAddr>().ok()),
        args.get(1).and_then(|a| a.parse::<usize>().ok()),
        args.get(2).and_then(|a| a.parse::<usize>().ok()),
    ) else {
        return false;
    };
    let _ = reactor::rlimit::raise_nofile_limit(links as u64 + 1024);

    // One pre-encoded buffer shared by every link: the node counts
    // messages by receive queue, not by origin, so the buffer's origin
    // field is irrelevant to attribution.
    let write_buf: Arc<Vec<u8>> = {
        let mut buf = bytes::BytesMut::new();
        for seq in 0..msgs_per_write() {
            Msg::data(NodeId::loopback(1), 1, seq as u32, vec![7u8; msg_bytes]).encode_into(&mut buf);
        }
        Arc::new(buf.to_vec())
    };

    let stop = Arc::new(AtomicBool::new(false));
    let established = Arc::new(AtomicU64::new(0));
    let est_deadline = Instant::now() + ESTABLISH_DEADLINE;
    let mut workers = Vec::with_capacity(LOADGEN_THREADS);
    for w in 0..LOADGEN_THREADS {
        let stop = stop.clone();
        let established = established.clone();
        let write_buf = write_buf.clone();
        // Round-robin split of the link range across writers; loopback
        // ports 20000.. keep every fake upstream NodeId unique.
        let my_links: Vec<u16> = (0..links)
            .filter(|i| i % LOADGEN_THREADS == w)
            .map(|i| 20_000 + i as u16)
            .collect();
        workers.push(thread::spawn(move || {
            let mut socks = Vec::with_capacity(my_links.len());
            for (n, port) in my_links.iter().enumerate() {
                if Instant::now() >= est_deadline {
                    break; // report what came up; don't stall the run
                }
                if let Ok(s) = dial_link(addr, NodeId::loopback(*port)) {
                    socks.push(s);
                    established.fetch_add(1, Ordering::Release);
                }
                if n % 100 == 99 {
                    // Brief yield so the node's accept loop keeps up.
                    thread::sleep(Duration::from_millis(5));
                }
            }
            while !stop.load(Ordering::Acquire) {
                socks.retain_mut(|s| s.write_all(&write_buf).is_ok());
                if socks.is_empty() {
                    break;
                }
            }
        }));
    }

    // Establishment settles when every link is up or the deadline hits.
    while (established.load(Ordering::Acquire) as usize) < links && Instant::now() < est_deadline {
        thread::sleep(Duration::from_millis(50));
    }
    println!("up {}", established.load(Ordering::Acquire));
    let _ = std::io::stdout().flush();

    // Pump until the parent says stop (any stdin line, or EOF if it
    // died — either way the child must not outlive the measurement).
    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    stop.store(true, Ordering::Release);
    for worker in workers {
        let _ = worker.join();
    }
    true
}

/// Establishes `links` connections from a loadgen child process and
/// pumps data through all of them until goodput is measured at the
/// sink; returns the point.
pub fn run_point(reactor: bool, links: usize, msg_bytes: usize, measure_secs: u64) -> ScalePoint {
    // Node-side fds: one per accepted link on the reactor backend, two
    // (socket + engine teardown handle) on blocking.
    let _ = reactor::rlimit::raise_nofile_limit((links as u64) * 2 + 1024);
    let threads_before = settle_threads();
    // Reserve the sampler's procfs fd *before* the node eats the fd
    // budget (see [`ProcSampler`]).
    let mut proc_sampler = ProcSampler::open();

    let config = EngineConfig::default()
        .with_buffer_msgs(64)
        .with_telemetry(false);
    let config = if reactor {
        config.with_io_backend(IoBackend::Reactor)
    } else {
        config
    };
    let sink = EngineNode::spawn(config, Box::new(SinkApp::new())).expect("spawn sink");
    let addr = sink.id().to_socket_addr();

    let exe = std::env::current_exe().expect("current_exe");
    let child = std::process::Command::new(exe)
        .arg("scale-loadgen")
        .arg(addr.to_string())
        .arg(links.to_string())
        .arg(msg_bytes.to_string())
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn();
    let Ok(mut child) = child else {
        sink.shutdown();
        return ScalePoint {
            links,
            links_up: 0,
            msgs_per_sec: 0.0,
            mb_per_sec: 0.0,
            node_threads: 0,
            rss_mb: 0.0,
        };
    };
    // The child prints `up <n>` when establishment settles (it enforces
    // its own deadline, so this read is bounded).
    let links_up = {
        let mut line = String::new();
        let _ = child
            .stdout
            .take()
            .map(BufReader::new)
            .map(|mut r| r.read_line(&mut line));
        line.trim()
            .strip_prefix("up ")
            .and_then(|v| v.parse::<usize>().ok())
            .unwrap_or(0)
    };

    // Under a 10k-thread exit/run storm the engine thread can starve
    // past `status()`'s 2s reply timeout; retrying rides it out.
    let sink_counters = || -> (u64, u64) {
        for _ in 0..4 {
            if let Some(s) = sink.status() {
                return (
                    s.algorithm.get("msgs").and_then(|v| v.as_u64()).unwrap_or(0),
                    s.algorithm.get("bytes").and_then(|v| v.as_u64()).unwrap_or(0),
                );
            }
        }
        (0, 0)
    };
    // Warm up, then measure. Threads/RSS are sampled by a dedicated
    // thread across the whole window: single edge samples have been
    // observed to fail for entire seconds under 10k-thread load (both
    // `/proc/self/status` and `/proc/self/stat` coming back empty), so
    // the max over many samples is the only reliable figure.
    thread::sleep(Duration::from_millis(1_000));
    let sampling = Arc::new(AtomicBool::new(true));
    let sampler = {
        let sampling = sampling.clone();
        thread::spawn(move || {
            // An ordinary-priority sampler starves behind a 10k-thread
            // blocking node for entire windows; prioritize it (fails
            // harmlessly without CAP_SYS_NICE).
            let _ = reactor::rlimit::set_thread_priority(-15);
            let (mut max_threads, mut max_rss) = (0u64, 0u64);
            while sampling.load(Ordering::Acquire) {
                let (t, r) = proc_sampler.sample();
                max_threads = max_threads.max(t);
                max_rss = max_rss.max(r);
                thread::sleep(Duration::from_millis(250));
            }
            (max_threads, max_rss)
        })
    };
    // Median of three consecutive windows over the same established
    // links: the host's throughput wobbles in multi-second "eras"
    // (observed 4x swings between identical runs), and a single short
    // window sampled inside a trough misreports the point by >10x.
    // Re-measuring without re-establishing makes the retry nearly free.
    let mut rates: Vec<(f64, f64)> = Vec::with_capacity(3);
    for _ in 0..3 {
        let (msgs0, bytes0) = sink_counters();
        let window = Instant::now(); // clock between *successful* reads
        thread::sleep(Duration::from_secs(measure_secs));
        let (msgs1, bytes1) = sink_counters();
        let elapsed = window.elapsed().as_secs_f64().max(0.001);
        rates.push((
            msgs1.saturating_sub(msgs0) as f64 / elapsed,
            bytes1.saturating_sub(bytes0) as f64 / (1024.0 * 1024.0) / elapsed,
        ));
    }
    rates.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (msgs_per_sec, mb_per_sec) = rates[1];
    sampling.store(false, Ordering::Release);
    let (threads_during, rss_kb) = sampler.join().unwrap_or((0, 0));

    if let Some(stdin) = child.stdin.as_mut() {
        let _ = stdin.write_all(b"stop\n");
    }
    drop(child.stdin.take()); // EOF backstop if the write was lost
    let _ = child.wait();
    sink.shutdown();

    ScalePoint {
        links,
        links_up,
        msgs_per_sec,
        mb_per_sec,
        // The sampler thread itself is one of the counted threads.
        node_threads: if threads_during == 0 {
            0
        } else {
            threads_during as i64 - threads_before as i64 - 1
        },
        rss_mb: rss_kb as f64 / 1024.0,
    }
}

/// JSON fragment for one point.
pub fn point_json(p: &ScalePoint) -> serde_json::Value {
    serde_json::json!({
        "links_up": p.links_up,
        "msgs_per_sec": p.msgs_per_sec,
        "mb_per_sec": p.mb_per_sec,
        "node_threads": p.node_threads,
        "rss_mb": p.rss_mb,
    })
}
