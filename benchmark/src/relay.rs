//! Relay workloads: one `EngineNode` running `StaticForwarder` between
//! the benchmark's writer (upstream) and reader (downstream).
//!
//! One process, two load-generator threads, two TCP connections, all
//! over the host's loopback interface — never a real link. The relay is
//! configured `EngineConfig::default().with_buffer_msgs(1024)` and
//! nothing else, so a later change of default backend or batch sizes
//! shows up here.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, ErrorKind, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::{Bytes, BytesMut};
use ioverlay::algorithms::StaticForwarder;
use ioverlay::api::{Msg, MsgType, NodeId, SpanEvent, SpanStage, StatusReport, TraceContext};
use ioverlay::engine::{EngineConfig, EngineNode};
use ioverlay::message::{Decoder, Header, HEADER_LEN};

use crate::payload::{PayloadGen, Verifier, PREFIX, SLOTS};
use crate::plan::Plan;
use crate::procfs;
use crate::report::Outcome;
use crate::stats::{HistDelta, LatencyHist};
use crate::trace::{Recorder, TraceFile};
use crate::Opts;

const APP: u32 = 1;
/// The identity the writer announces in its `Hello`.
fn upstream() -> NodeId {
    NodeId::loopback(1)
}
/// Per relay, before its window.
const WARMUP: Duration = Duration::from_millis(500);
/// How long delivery may trail the last write before the remainder
/// counts as lost.
const DRAIN: Duration = Duration::from_secs(2);
/// Complete set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// The last set-ups' relays carry the traffic, one window each.
const RELAYS: usize = crate::plan::WINDOWS;
const _: () = assert!(RELAYS <= SETUPS);
/// How often the main thread samples `VmRSS` during a window.
const RSS_SAMPLE: Duration = Duration::from_millis(100);
/// Every n-th message of a traced window carries a sampled
/// `TraceContext`, so the relay returns per-stage spans for it.
const TRACE_EVERY: u64 = 64;
/// Socket read size, the engine receivers' own.
const READ_CHUNK: usize = 64 * 1024;
/// Reader wake-up interval while idle, to notice the end of the run.
const READ_POLL: Duration = Duration::from_millis(50);
/// Main, writer and reader; everything else in the process is the
/// relay's.
const BENCHMARK_THREADS: u64 = 3;

/// Open-loop pacing: `per_tick` messages every `tick`.
#[derive(Debug, Clone, Copy)]
pub struct Pacing {
    pub tick: Duration,
    pub per_tick: usize,
}

/// How the writer decides when to send.
#[derive(Debug, Clone, Copy)]
pub enum Loop {
    /// Closed loop: bursts of [`SLOTS`] back to back while at most
    /// `outstanding` messages are sent but not yet delivered. The
    /// relay stays saturated and latency is queueing at a known depth;
    /// with only TCP flow control closing the loop, latency measured
    /// how far the kernel had autotuned its socket buffers (7–14 ms
    /// run to run on `relay_large`) and nothing about the relay.
    Closed { outstanding: u64 },
    /// Open loop on a fixed schedule.
    Open(Pacing),
}

impl Loop {
    /// Messages per write.
    fn burst_len(&self) -> usize {
        match self {
            Loop::Closed { .. } => SLOTS,
            Loop::Open(p) => p.per_tick,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct RelayWorkload {
    pub payload: usize,
    pub load: Loop,
}

/// State shared by the main, writer and reader threads.
struct Shared {
    epoch: Instant,
    /// Set for the length of the relay's measurement window.
    measuring: AtomicBool,
    /// Whether that window is traced.
    tracing: AtomicBool,
    stop_writer: AtomicBool,
    stop_reader: AtomicBool,
    delivered: AtomicU64,
    /// Nanoseconds the writer has spent inside `write_all` or waiting
    /// for room in the closed loop's window.
    blocked_ns: AtomicU64,
}

impl Shared {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// A relay with both connections up and the first message delivered.
struct Rig {
    relay: EngineNode,
    up: TcpStream,
    down: TcpStream,
    decoder: Decoder,
    verifier: Verifier,
    gen: PayloadGen,
    /// `EngineNode::spawn` called → first message verified at the
    /// reader.
    ready: Duration,
}

/// A burst of messages kept as one pre-encoded wire image.
///
/// Per message the writer rewrites 48 bytes in place — the header (new
/// sequence number) and the payload's checksum, stamp and sequence
/// words — and leaves the filler alone. Building every message from
/// scratch costs the writer two copies of the payload, at 16 KiB as
/// much CPU as the relay spends on the message, on a host where the two
/// share two cores.
struct Burst {
    gen: PayloadGen,
    wire: Vec<u8>,
    /// Offset of each message in `wire`.
    starts: Vec<usize>,
    /// Slow path: a burst with a trace-sampled message is a different
    /// length, so it is encoded afresh here.
    scratch: BytesMut,
}

impl Burst {
    fn new(mut gen: PayloadGen, count: usize) -> Self {
        let mut wire = BytesMut::new();
        let mut starts = Vec::with_capacity(count);
        for slot in 0..count {
            starts.push(wire.len());
            Msg::data(
                upstream(),
                APP,
                0,
                Bytes::copy_from_slice(gen.payload(slot, 0, 0)),
            )
            .encode_into(&mut wire);
        }
        Self {
            gen,
            wire: wire.to_vec(),
            starts,
            scratch: BytesMut::new(),
        }
    }

    /// The wire bytes of messages `seq0..seq0 + count`, stamped
    /// `stamp`. While `tracing`, every [`TRACE_EVERY`]-th message
    /// carries a sampled trace context.
    fn fill(&mut self, seq0: u64, stamp: u64, tracing: bool) -> &[u8] {
        let seqs = seq0..seq0 + self.starts.len() as u64;
        if tracing && seqs.clone().any(|s| s % TRACE_EVERY == 0) {
            self.scratch.clear();
            for (slot, seq) in seqs.enumerate() {
                let payload = Bytes::copy_from_slice(self.gen.payload(slot, seq, stamp));
                let mut msg = Msg::data(upstream(), APP, seq as u32, payload);
                if seq % TRACE_EVERY == 0 {
                    msg = msg.with_trace(TraceContext::sampled(seq + 1, 1));
                }
                msg.encode_into(&mut self.scratch);
            }
            return &self.scratch;
        }
        let payload_len = self.gen.size() as u32;
        for (slot, seq) in seqs.enumerate() {
            let at = self.starts[slot];
            let header =
                Header::new(MsgType::Data, upstream(), APP, seq as u32, payload_len).encode();
            self.wire[at..at + HEADER_LEN].copy_from_slice(&header);
            self.wire[at + HEADER_LEN..at + HEADER_LEN + PREFIX]
                .copy_from_slice(&self.gen.prefix(slot, seq, stamp));
        }
        &self.wire
    }
}

fn build_rig(seed: u64, payload: usize) -> io::Result<Rig> {
    let started = Instant::now();
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let sink = NodeId::loopback(listener.local_addr()?.port());
    let relay = EngineNode::spawn(
        EngineConfig::default().with_buffer_msgs(1024),
        Box::new(StaticForwarder::new().route(APP, vec![sink])),
    )?;
    let mut up = TcpStream::connect_timeout(&relay.id().to_socket_addr(), Duration::from_secs(2))?;
    up.set_nodelay(true)?;
    let mut first = Burst::new(PayloadGen::new(seed, payload), 1);
    let mut buf = BytesMut::new();
    Msg::control(MsgType::Hello, upstream(), 0).encode_into(&mut buf);
    buf.extend_from_slice(first.fill(0, 0, false));
    up.write_all(&buf)?;

    // The relay dials the sink when it forwards the first message.
    listener.set_nonblocking(true)?;
    let deadline = Instant::now() + Duration::from_secs(5);
    let down = loop {
        match listener.accept() {
            Ok((s, _)) => break s,
            Err(e) if e.kind() == ErrorKind::WouldBlock && Instant::now() < deadline => {
                thread::sleep(Duration::from_micros(50));
            }
            Err(e) => return Err(e),
        }
    };
    down.set_nonblocking(false)?;
    down.set_read_timeout(Some(READ_POLL))?;
    let mut rig = Rig {
        relay,
        up,
        down,
        decoder: Decoder::new(),
        verifier: Verifier::default(),
        gen: first.gen,
        ready: Duration::ZERO,
    };
    while rig.verifier.ok == 0 {
        if Instant::now() >= deadline {
            return Err(io::Error::new(
                ErrorKind::TimedOut,
                "first message never arrived",
            ));
        }
        match rig.decoder.read_from(&mut rig.down, READ_CHUNK) {
            Ok(0) => return Err(io::Error::new(ErrorKind::UnexpectedEof, "relay hung up")),
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(e) => return Err(e),
        }
        while let Some(msg) = rig.decoder.next_msg().map_err(io::Error::other)? {
            rig.verifier.check(&msg);
        }
    }
    rig.ready = started.elapsed();
    Ok(rig)
}

/// What the writer thread hands back.
struct WriterEnd {
    /// Kept open until the relay has drained: closing the upstream
    /// connection makes the relay tear the link down and discard what
    /// it still holds for it.
    up: TcpStream,
    sent: u64,
    /// Paced only: how late each measured tick fired.
    late: LatencyHist,
    ticks: u64,
    ticks_late: u64,
    cpu_s: f64,
    rec: Recorder,
}

fn write_loop(
    up: TcpStream,
    gen: PayloadGen,
    load: Loop,
    shared: &Shared,
    mut rec: Recorder,
) -> WriterEnd {
    let mut end = WriterEnd {
        up,
        sent: 1, // message 0 went out during set-up
        late: LatencyHist::default(),
        ticks: 0,
        ticks_late: 0,
        cpu_s: 0.0,
        rec: Recorder::new("", shared.epoch, false),
    };
    let mut seq = 1u64;
    let mut burst = Burst::new(gen, load.burst_len());
    let burst_len = load.burst_len() as u64;
    let started = Instant::now();
    let mut tick = 0u32;
    while !shared.stop_writer.load(Ordering::Acquire) {
        let tracing = shared.tracing.load(Ordering::Relaxed);
        rec.set_enabled(tracing);
        let stamp = match load {
            Loop::Closed { outstanding } => {
                let room = |seq: u64| {
                    seq + burst_len <= shared.delivered.load(Ordering::Acquire) + outstanding
                };
                if !room(seq) {
                    // The window drains in milliseconds; a short sleep
                    // neither starves the relay nor burns the core its
                    // threads need.
                    let waiting = Instant::now();
                    while !room(seq) && !shared.stop_writer.load(Ordering::Acquire) {
                        thread::sleep(Duration::from_micros(50));
                    }
                    shared
                        .blocked_ns
                        .fetch_add(waiting.elapsed().as_nanos() as u64, Ordering::Relaxed);
                }
                shared.now_ns()
            }
            Loop::Open(p) => {
                // Open loop: each tick is due on the schedule whatever
                // happened to the ones before, and its messages are
                // stamped with the due time, so a stalled generator
                // shows as latency instead of hiding it.
                let due = started + p.tick * tick;
                tick += 1;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    thread::sleep(wait);
                }
                if shared.measuring.load(Ordering::Relaxed) {
                    let late = due.elapsed();
                    end.late.record(late.as_nanos() as u64);
                    end.ticks += 1;
                    end.ticks_late += u64::from(late > Duration::from_millis(1));
                }
                due.duration_since(shared.epoch).as_nanos() as u64
            }
        };
        let t = rec.begin("message.encode");
        let wire = burst.fill(seq, stamp, tracing);
        rec.end(t);
        seq += burst_len;
        let t = rec.begin("loadgen.write");
        let write_started = Instant::now();
        let written = end.up.write_all(wire);
        shared
            .blocked_ns
            .fetch_add(write_started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        rec.end(t);
        if written.is_err() {
            break; // the relay is gone; the reader's count shows the loss
        }
        end.sent = seq;
    }
    end.cpu_s = procfs::thread_cpu_s();
    end.rec = rec;
    end
}

struct ReaderEnd {
    verifier: Verifier,
    /// Latency of the messages delivered during the window.
    latency: LatencyHist,
    cpu_s: f64,
    rec: Recorder,
}

fn read_loop(
    mut down: TcpStream,
    mut decoder: Decoder,
    mut verifier: Verifier,
    shared: &Shared,
    mut rec: Recorder,
) -> ReaderEnd {
    let mut latency = LatencyHist::default();
    let mut batch: Vec<Msg> = Vec::new();
    while !shared.stop_reader.load(Ordering::Acquire) {
        rec.set_enabled(shared.tracing.load(Ordering::Relaxed));
        let t = rec.begin("loadgen.read");
        let read = decoder.read_from(&mut down, READ_CHUNK);
        rec.end(t);
        match read {
            Ok(0) => break,
            Ok(_) => {}
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => continue,
            Err(_) => break,
        }
        let t = rec.begin("message.decode");
        loop {
            match decoder.next_msg() {
                Ok(Some(msg)) => batch.push(msg),
                Ok(None) => break,
                Err(_) => {
                    // Framing is lost: nothing after this can be read.
                    verifier.bad_payload += 1;
                    shared.stop_reader.store(true, Ordering::Release);
                    break;
                }
            }
        }
        rec.end(t);
        let now = shared.now_ns();
        let measuring = shared.measuring.load(Ordering::Relaxed);
        let t = rec.begin("loadgen.verify");
        for msg in batch.drain(..) {
            if let (Some(stamp), true) = (verifier.check(&msg), measuring) {
                latency.record(now.saturating_sub(stamp));
            }
        }
        rec.end(t);
        shared.delivered.store(verifier.ok, Ordering::Release);
    }
    ReaderEnd {
        verifier,
        latency,
        cpu_s: procfs::thread_cpu_s(),
        rec,
    }
}

/// What the main thread samples at both ends of a window.
struct Edge {
    at: Instant,
    delivered: u64,
    cpu_s: f64,
    blocked_ns: u64,
}

fn edge(shared: &Shared) -> Edge {
    Edge {
        at: Instant::now(),
        delivered: shared.delivered.load(Ordering::Acquire),
        cpu_s: procfs::cpu_s(),
        blocked_ns: shared.blocked_ns.load(Ordering::Relaxed),
    }
}

/// One measurement window, as the main thread and the reader saw it.
struct Window {
    secs: f64,
    delivered: u64,
    cpu_s: f64,
    /// Nanoseconds the writer waited on the relay.
    blocked_ns: u64,
    /// Highest `VmRSS` sampled during the window.
    peak_rss_kb: u64,
    latency: LatencyHist,
}

impl Window {
    fn rate(&self) -> f64 {
        self.delivered as f64 / self.secs
    }

    fn cpu_us_per_msg(&self) -> f64 {
        self.cpu_s * 1e6 / self.delivered.max(1) as f64
    }
}

/// Per-stage times of the relay's traced messages, from the spans its
/// status reports return.
#[derive(Default)]
pub struct HopStats {
    pub recv: Vec<f64>,
    pub switch: Vec<f64>,
    pub serialize: Vec<f64>,
    pub write: Vec<f64>,
    /// Time in the receive and send queues: `Recv` end → `Switch`
    /// start plus `Switch` end → `Serialize` start.
    pub queue_wait: Vec<f64>,
    /// `Recv` start → `Write` end.
    pub hop: Vec<f64>,
    pub bucket_waits: u64,
}

impl HopStats {
    fn absorb(&mut self, mut other: HopStats) {
        self.recv.append(&mut other.recv);
        self.switch.append(&mut other.switch);
        self.serialize.append(&mut other.serialize);
        self.write.append(&mut other.write);
        self.queue_wait.append(&mut other.queue_wait);
        self.hop.append(&mut other.hop);
        self.bucket_waits += other.bucket_waits;
    }
}

/// Groups one relay's spans by trace and keeps the traces that have
/// all four stages (the span ring may have evicted part of an older
/// one). Times in microseconds.
pub fn hop_stats(spans: &[SpanEvent]) -> HopStats {
    let mut by_trace: HashMap<u64, [Option<(u64, u64)>; 4]> = HashMap::new();
    let mut out = HopStats::default();
    for s in spans {
        let slot = match s.stage {
            SpanStage::Recv => 0,
            SpanStage::Switch => 1,
            SpanStage::Serialize => 2,
            SpanStage::Write => 3,
            SpanStage::BucketWait => {
                out.bucket_waits += 1;
                continue;
            }
            SpanStage::Origin => continue,
        };
        by_trace.entry(s.trace_id).or_default()[slot] = Some((s.start, s.end));
    }
    let us = |from: u64, to: u64| to.saturating_sub(from) as f64 / 1e3;
    for stages in by_trace.values() {
        let [Some(recv), Some(switch), Some(ser), Some(write)] = *stages else {
            continue;
        };
        out.recv.push(us(recv.0, recv.1));
        out.switch.push(us(switch.0, switch.1));
        out.serialize.push(us(ser.0, ser.1));
        out.write.push(us(write.0, write.1));
        out.queue_wait
            .push(us(recv.1, switch.0) + us(switch.1, ser.0));
        out.hop.push(us(recv.0, write.1));
    }
    out
}

fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = ((values.len() as f64 * q).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// Sums over the relays of one run.
#[derive(Default)]
struct Totals {
    sent: u64,
    failed: u64,
    reordered: u64,
    late: LatencyHist,
    ticks: u64,
    ticks_late: u64,
    loadgen_cpu_s: f64,
    user_s: f64,
    system_s: f64,
    ctx_switches: u64,
    engine_threads: u64,
    hops: HopStats,
    telemetry: TelemetryDelta,
    last_report: Option<StatusReport>,
}

/// Counter and histogram differences between status reports, summed
/// over relays.
#[derive(Default)]
struct TelemetryDelta {
    hists: BTreeMap<&'static str, HistDelta>,
    counters: BTreeMap<&'static str, u64>,
}

const HISTOGRAMS: [&str; 6] = [
    "queue_occupancy_msgs",
    "switch_batch_msgs",
    "switch_round_nanos",
    "send_batch_msgs",
    "send_syscall_bytes",
    "recv_syscall_bytes",
];
const COUNTERS: [&str; 3] = ["sends_blocked", "sendspace_wakeups", "blocked_retries"];

impl TelemetryDelta {
    fn add(&mut self, before: &StatusReport, after: &StatusReport) {
        let (Some(t0), Some(t1)) = (&before.telemetry, &after.telemetry) else {
            return;
        };
        for name in HISTOGRAMS {
            let d = HistDelta::between(t0.histogram(name), t1.histogram(name));
            let total = self.hists.entry(name).or_default();
            total.count += d.count;
            total.sum += d.sum;
        }
        for name in COUNTERS {
            *self.counters.entry(name).or_default() += t1
                .counter(name)
                .unwrap_or(0)
                .saturating_sub(t0.counter(name).unwrap_or(0));
        }
    }

    fn hist(&self, name: &str) -> HistDelta {
        self.hists.get(name).copied().unwrap_or_default()
    }

    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }
}

/// Drives one relay through one window: warm-up, window, drain, check,
/// shutdown. `traced` says whether the window is a traced one.
#[allow(clippy::too_many_arguments)] // one call site; the run's whole context
fn measure(
    rig: Rig,
    w: &RelayWorkload,
    window_len: Duration,
    traced: bool,
    epoch: Instant,
    rec: &mut Recorder,
    file: &mut TraceFile,
    totals: &mut Totals,
) -> io::Result<Window> {
    let Rig {
        relay,
        up,
        down,
        decoder,
        verifier,
        gen,
        ..
    } = rig;
    let shared = Arc::new(Shared {
        epoch,
        measuring: AtomicBool::new(false),
        tracing: AtomicBool::new(false),
        stop_writer: AtomicBool::new(false),
        stop_reader: AtomicBool::new(false),
        delivered: AtomicU64::new(verifier.ok),
        blocked_ns: AtomicU64::new(0),
    });
    let writer = {
        let (shared, rec, load) = (
            shared.clone(),
            Recorder::new("writer", epoch, false),
            w.load,
        );
        thread::Builder::new()
            .name("bench-writer".into())
            .spawn(move || write_loop(up, gen, load, &shared, rec))?
    };
    let reader = {
        let (shared, rec) = (shared.clone(), Recorder::new("reader", epoch, false));
        thread::Builder::new()
            .name("bench-reader".into())
            .spawn(move || read_loop(down, decoder, verifier, &shared, rec))?
    };

    thread::sleep(WARMUP);
    let telemetry_before = if traced { relay.status() } else { None };
    let ctx_before = if traced {
        procfs::ctx_switches_all_tasks()
    } else {
        0
    };
    let stat_before = procfs::stat();
    shared.tracing.store(traced, Ordering::Relaxed);
    shared.measuring.store(true, Ordering::Relaxed);
    let start = edge(&shared);
    let window_end = start.at + window_len;
    let mut peak_rss_kb = 0;
    while let Some(left) = window_end.checked_duration_since(Instant::now()) {
        thread::sleep(left.min(RSS_SAMPLE));
        peak_rss_kb = peak_rss_kb.max(procfs::status().vm_rss_kb);
    }
    let end = edge(&shared);
    shared.measuring.store(false, Ordering::Relaxed);
    let stat_after = procfs::stat();
    if traced {
        // Read the relay's spans before the writer stops stamping
        // messages, while the ring still holds this window's.
        let t = rec.begin("telemetry.status");
        let report = relay.status();
        rec.end(t);
        totals.ctx_switches += procfs::ctx_switches_all_tasks().saturating_sub(ctx_before);
        if let (Some(before), Some(after)) = (&telemetry_before, &report) {
            totals.telemetry.add(before, after);
        }
        // Trace ids restart with every relay, so stages are matched up
        // relay by relay.
        if let Some(batch) = report.as_ref().and_then(|r| r.spans.as_ref()) {
            totals.hops.absorb(hop_stats(&batch.spans));
        }
        totals.last_report = report;
    }
    shared.tracing.store(false, Ordering::Relaxed);
    totals.user_s += stat_after.user_s - stat_before.user_s;
    totals.system_s += stat_after.system_s - stat_before.system_s;
    totals.engine_threads = stat_after.threads.saturating_sub(BENCHMARK_THREADS);

    // Stop sending, let the relay drain, then compare.
    shared.stop_writer.store(true, Ordering::Release);
    let writer_end = writer.join().expect("writer thread panicked");
    let drain_deadline = Instant::now() + DRAIN;
    while shared.delivered.load(Ordering::Acquire) < writer_end.sent
        && Instant::now() < drain_deadline
    {
        thread::sleep(Duration::from_millis(1));
    }
    drop(writer_end.up);
    let t = rec.begin("engine.shutdown");
    relay.shutdown();
    rec.end(t);
    shared.stop_reader.store(true, Ordering::Release);
    let reader_end = reader.join().expect("reader thread panicked");

    totals.sent += writer_end.sent;
    totals.failed += reader_end.verifier.failed_of(writer_end.sent);
    totals.reordered += reader_end.verifier.early;
    totals.late.merge(&writer_end.late);
    totals.ticks += writer_end.ticks;
    totals.ticks_late += writer_end.ticks_late;
    totals.loadgen_cpu_s += writer_end.cpu_s + reader_end.cpu_s;
    file.absorb(writer_end.rec);
    file.absorb(reader_end.rec);
    Ok(Window {
        secs: (end.at - start.at).as_secs_f64(),
        delivered: end.delivered - start.delivered,
        cpu_s: end.cpu_s - start.cpu_s,
        blocked_ns: end.blocked_ns - start.blocked_ns,
        peak_rss_kb,
        latency: reader_end.latency,
    })
}

pub fn run(
    name: &'static str,
    w: RelayWorkload,
    opts: &Opts,
    file: &mut TraceFile,
) -> io::Result<Outcome> {
    let epoch = Instant::now();
    let mut rec = Recorder::new("main", epoch, opts.trace);
    let plan = Plan::new(opts);
    let mut totals = Totals::default();
    let mut windows: Vec<Window> = Vec::with_capacity(plan.windows);

    // Every set-up is timed. The first relay is torn down at once; each
    // of the last RELAYS carries one window. How the scheduler happens
    // to place a relay's threads on the two cores moves its throughput
    // by 10 % and sticks for seconds, so one relay per run made runs
    // disagree; a relay per window samples the placements inside every
    // run.
    let mut setups = Vec::with_capacity(SETUPS);
    while windows.len() < plan.windows {
        let t = rec.begin("engine.spawn");
        let rig = build_rig(opts.seed, w.payload)?;
        rec.end(t);
        setups.push(rig.ready.as_secs_f64());
        if setups.len() + RELAYS <= SETUPS {
            drop((rig.up, rig.down));
            let t = rec.begin("engine.shutdown");
            rig.relay.shutdown();
            rec.end(t);
            continue;
        }
        let traced = plan.traced(windows.len());
        windows.push(measure(
            rig,
            &w,
            plan.window_len,
            traced,
            epoch,
            &mut rec,
            file,
            &mut totals,
        )?);
    }

    let mut out = Outcome {
        attempted: totals.sent,
        failed: totals.failed,
        ..Outcome::default()
    };
    let msgs = plan.of_windows(&windows, false, Window::rate);
    out.set_goodput(msgs.clone(), w.payload);
    out.set_windows(
        "cpu_us_per_msg",
        plan.of_windows(&windows, false, Window::cpu_us_per_msg),
    );
    let hists: Vec<&LatencyHist> = plan.indices(false).map(|i| &windows[i].latency).collect();
    out.set_latency(&hists, "samples");
    out.set_windows(
        "peak_rss_mb",
        plan.of_windows(&windows, false, |w| w.peak_rss_kb as f64 / 1024.0),
    );
    out.set_setup(&setups);

    // Was the run a valid measurement of the relay?
    let measured_s: f64 = windows.iter().map(|w| w.secs).sum();
    let write_blocked = windows.iter().map(|w| w.blocked_ns).sum::<u64>() as f64 / 1e9 / measured_s;
    match w.load {
        Loop::Closed { .. } if write_blocked < 0.5 => {
            out.invalid = Some(format!(
                "the writer waited on the relay only {:.0} % of the time: it, not the relay, was the bottleneck",
                write_blocked * 100.0
            ));
        }
        // Stalls of several milliseconds are this host's weather: in
        // one sweep four runs of ten had 1 % of their ticks that late.
        // The latency of the best window survives them; a generator
        // that is late one tick in twenty measures itself.
        Loop::Open(_) if totals.ticks_late * 20 > totals.ticks => {
            out.invalid = Some(format!(
                "{} of {} ticks fired more than 1 ms late",
                totals.ticks_late, totals.ticks
            ));
        }
        _ => {}
    }

    if opts.trace {
        // Telemetry, spans and context switches are only collected on
        // the relays that ran a traced window.
        let delivered = plan
            .indices(true)
            .map(|i| windows[i].delivered)
            .sum::<u64>()
            .max(1) as f64;
        let traced_rate = plan.of_windows(&windows, true, Window::rate);
        out.set(
            "telemetry.trace_overhead_frac",
            1.0 - traced_rate.median() / msgs.median().max(1.0),
        );
        out.set("loadgen.write_blocked_frac", write_blocked);
        out.set(
            "loadgen.late_p99_us",
            totals.late.quantile_ns(0.99).unwrap_or(0.0) / 1e3,
        );
        out.set(
            "loadgen.late_max_us",
            totals.late.quantile_ns(1.0).unwrap_or(0.0) / 1e3,
        );
        let process_cpu = procfs::stat().cpu_s().max(1e-9);
        out.set("loadgen.cpu_frac", totals.loadgen_cpu_s / process_cpu);
        out.set("engine.reordered_msgs", totals.reordered as f64);
        out.set("engine.threads", totals.engine_threads as f64);
        out.set(
            "engine.ctx_switches_per_kmsg",
            totals.ctx_switches as f64 / delivered * 1e3,
        );
        out.set(
            "engine.sys_cpu_frac",
            totals.system_s / (totals.user_s + totals.system_s).max(1e-9),
        );
        let sample = Msg::data(upstream(), APP, 0, vec![0u8; w.payload]);
        out.set(
            "message.header_overhead_bytes",
            (sample.wire_len() - w.payload) as f64,
        );

        let tel = &totals.telemetry;
        out.set(
            "queue.occupancy_mean_msgs",
            tel.hist("queue_occupancy_msgs").mean(),
        );
        out.set("queue.sends_blocked", tel.counter("sends_blocked"));
        out.set(
            "engine.switch_batch_mean_msgs",
            tel.hist("switch_batch_msgs").mean(),
        );
        out.set(
            "engine.switch_round_mean_ns",
            tel.hist("switch_round_nanos").mean(),
        );
        out.set(
            "engine.send_batch_mean_msgs",
            tel.hist("send_batch_msgs").mean(),
        );
        let (send, recv) = (
            tel.hist("send_syscall_bytes"),
            tel.hist("recv_syscall_bytes"),
        );
        out.set("engine.send_syscall_mean_bytes", send.mean());
        out.set("engine.recv_syscall_mean_bytes", recv.mean());
        out.set(
            "engine.syscalls_per_kmsg",
            (send.count + recv.count) as f64 / delivered * 1e3,
        );
        out.set("engine.sendspace_wakeups", tel.counter("sendspace_wakeups"));
        out.set("engine.blocked_retries", tel.counter("blocked_retries"));
        if let Some(report) = &totals.last_report {
            crate::probes::observer(&mut out, report, &mut rec);
        }

        let hops = &mut totals.hops;
        out.set("ratelimit.bucket_wait_spans", hops.bucket_waits as f64);
        out.set("engine.stage_recv_us_p50", quantile(&mut hops.recv, 0.5));
        out.set(
            "engine.stage_switch_us_p50",
            quantile(&mut hops.switch, 0.5),
        );
        out.set(
            "engine.stage_serialize_us_p50",
            quantile(&mut hops.serialize, 0.5),
        );
        out.set("engine.stage_write_us_p50", quantile(&mut hops.write, 0.5));
        out.set("queue.wait_us_p50", quantile(&mut hops.queue_wait, 0.5));
        out.set("engine.hop_us_p50", quantile(&mut hops.hop, 0.5));
        out.set_noted(
            "engine.hop_us_p99",
            quantile(&mut hops.hop, 0.99),
            format!("({} traced messages)", hops.hop.len()),
        );

        // The writer's and reader's spans are in `file` already. Each
        // encode span covers one burst; the decode spans cover what the
        // traced windows delivered.
        let (enc, dec) = (file.agg("message.encode"), file.agg("message.decode"));
        out.set(
            "message.encode_ns_per_msg",
            enc.mean_ns() / w.load.burst_len() as f64,
        );
        let decode_ns_per_msg = dec.total_ns as f64 / delivered;
        out.set("message.decode_ns_per_msg", decode_ns_per_msg);
        out.set(
            "message.decode_ns_per_kib",
            decode_ns_per_msg / (w.payload as f64 / 1024.0),
        );
        out.set("engine.spawn_ms", rec.agg("engine.spawn").mean_ns() / 1e6);
        out.set(
            "engine.shutdown_ms",
            rec.agg("engine.shutdown").mean_ns() / 1e6,
        );
        out.set(
            "telemetry.status_us",
            rec.agg("telemetry.status").mean_ns() / 1e3,
        );
    }
    file.absorb(rec);
    println!("{name:<16} {}", w.describe());
    Ok(out)
}

impl RelayWorkload {
    fn describe(&self) -> String {
        match self.load {
            Loop::Closed { outstanding } => format!(
                "closed loop: bursts of {SLOTS} x {} B, at most {outstanding} messages outstanding; \
                 {RELAYS} relays in turn; host loopback",
                self.payload
            ),
            Loop::Open(p) => format!(
                "open loop: {} msgs/s of {} B in {:?} ticks of {}, timed from each tick's due time; \
                 {RELAYS} relays in turn; host loopback",
                (p.per_tick as f64 / p.tick.as_secs_f64()).round(),
                self.payload,
                p.tick,
                p.per_tick
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace_id: u64, stage: SpanStage, start: u64, end: u64) -> SpanEvent {
        SpanEvent {
            idx: 0,
            trace_id,
            parent_span: 0,
            span_id: 1,
            node: NodeId::loopback(9),
            peer: None,
            stage,
            start,
            end,
        }
    }

    #[test]
    fn hop_stats_split_a_hop_into_stages_and_waits() {
        let spans = vec![
            span(1, SpanStage::Recv, 1_000, 3_000),
            span(1, SpanStage::Switch, 10_000, 11_000),
            span(1, SpanStage::Serialize, 15_000, 16_000),
            span(1, SpanStage::Write, 16_000, 20_000),
            // Trace 2 lost its Write span to ring eviction: skipped.
            span(2, SpanStage::Recv, 0, 1),
            span(2, SpanStage::Switch, 2, 3),
            span(2, SpanStage::Serialize, 4, 5),
            span(3, SpanStage::BucketWait, 0, 9),
        ];
        let h = hop_stats(&spans);
        assert_eq!(h.hop, vec![19.0]);
        assert_eq!(
            (h.recv[0], h.switch[0], h.serialize[0], h.write[0]),
            (2.0, 1.0, 1.0, 4.0)
        );
        assert_eq!(h.queue_wait, vec![7.0 + 4.0]);
        assert_eq!(h.bucket_waits, 1);
        // Stages and waits account for the whole hop.
        assert_eq!(
            h.recv[0] + h.switch[0] + h.serialize[0] + h.write[0] + h.queue_wait[0],
            h.hop[0]
        );
    }

    /// Both paths of `Burst::fill` — patched in place, and re-encoded
    /// with a trace context — must read back as intact messages.
    #[test]
    fn bursts_read_back_intact() {
        for size in [PREFIX, 64, 16 * 1024] {
            let mut burst = Burst::new(PayloadGen::new(5, size), 20);
            let (mut decoder, mut verifier) = (Decoder::new(), Verifier::default());
            let mut traced = 0;
            for (seq0, tracing) in [(0, false), (20, false), (40, true), (60, true), (80, false)] {
                decoder.feed(burst.fill(seq0, 1_000 + seq0, tracing));
                while let Some(msg) = decoder.next_msg().expect("framing intact") {
                    assert_eq!(
                        verifier.check(&msg),
                        Some(1_000 + u64::from(msg.seq()) / 20 * 20)
                    );
                    traced += usize::from(msg.trace().is_some());
                }
            }
            assert_eq!(
                (verifier.ok, verifier.early, verifier.failed_of(100)),
                (100, 0, 0),
                "size {size}"
            );
            assert_eq!(
                traced, 1,
                "message 64 is the only multiple of {TRACE_EVERY} sent while tracing"
            );
        }
    }

    #[test]
    fn quantile_of_a_list() {
        let mut v = vec![5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&mut v, 0.5), 3.0);
        assert_eq!(quantile(&mut v, 0.99), 5.0);
        assert_eq!(quantile(&mut [], 0.5), 0.0);
    }
}
