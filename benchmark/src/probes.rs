//! Probes: short timed loops over the public functions of layers the
//! workloads cannot observe from outside. They do not depend on the
//! workload, so every traced run reports them.

use std::hint::black_box;
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use bytes::Bytes;
use ioverlay::algorithms::{SinkApp, StaticForwarder};
use ioverlay::api::{
    Algorithm, Context, Msg, Nanos, NodeId, NodeTelemetry, StatusReport, TimerToken,
};
use ioverlay::observer::{health, TraceStore};
use ioverlay::queue::{CircularQueue, PopTimeout};
use ioverlay::ratelimit::{Rate, TokenBucket};
use ioverlay_gf256::{kernels, Gf256};

use crate::clock;
use crate::report::Outcome;
use crate::sim;
use crate::stats::LatencyHist;
use crate::trace::{Recorder, TraceFile};

/// Runs `f` `iters` times inside one span and returns nanoseconds per
/// iteration.
fn timed(rec: &mut Recorder, name: &'static str, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    for i in 0..iters / 10 {
        f(i); // warm caches and branch predictors
    }
    let t = rec.begin(name);
    let started = Instant::now();
    for i in 0..iters {
        f(i);
    }
    let ns = started.elapsed().as_nanos() as f64;
    rec.end(t);
    ns / iters as f64
}

fn msg(seq: u32) -> Msg {
    Msg::data(NodeId::loopback(1), 1, seq, Bytes::from_static(&[7u8; 64]))
}

fn queue(out: &mut Outcome, rec: &mut Recorder) {
    const BATCH: usize = 64;
    let q: CircularQueue<Msg> = CircularQueue::with_capacity(1024);
    let template: Vec<Msg> = (0..BATCH as u32).map(msg).collect();
    let (mut stage, mut sink) = (Vec::with_capacity(BATCH), Vec::with_capacity(BATCH));
    let per_batch = timed(rec, "queue.batch", 20_000, |_| {
        stage.extend(template.iter().cloned());
        q.push_batch(&mut stage);
        q.pop_batch(BATCH, &mut sink);
        black_box(sink.len());
        sink.clear();
    });
    out.set("queue.batch_ns_per_msg", per_batch / BATCH as f64);

    let one = msg(0);
    out.set(
        "queue.single_ns_per_msg",
        timed(rec, "queue.single", 500_000, |_| {
            let _ = q.try_push(one.clone());
            black_box(q.try_pop());
        }),
    );

    // Hand-off: the consumer is parked in `pop_timeout`; how long from
    // the producer's push to the consumer holding the item.
    const ROUNDS: usize = 1_000;
    let epoch = Instant::now();
    let (parked_tx, parked_rx) = mpsc::channel::<()>();
    let consumer = {
        let q = q.clone();
        thread::spawn(move || {
            let mut received_at = Vec::with_capacity(ROUNDS);
            while received_at.len() < ROUNDS {
                let _ = parked_tx.send(());
                match q.pop_timeout(Duration::from_secs(5)) {
                    PopTimeout::Item(_) => received_at.push(epoch.elapsed()),
                    PopTimeout::TimedOut | PopTimeout::Closed => break,
                }
            }
            received_at
        })
    };
    let t = rec.begin("queue.handoff");
    let mut pushed_at = Vec::with_capacity(ROUNDS);
    for _ in 0..ROUNDS {
        if parked_rx.recv_timeout(Duration::from_secs(5)).is_err() {
            break;
        }
        // The consumer signals just before it parks; give it time to.
        thread::sleep(Duration::from_micros(100));
        pushed_at.push(epoch.elapsed());
        let _ = q.push(one.clone());
    }
    rec.end(t);
    q.close();
    let received_at = consumer.join().expect("hand-off consumer panicked");
    let mut waits: Vec<f64> = pushed_at
        .iter()
        .zip(&received_at)
        .map(|(p, r)| r.saturating_sub(*p).as_nanos() as f64 / 1e3)
        .collect();
    waits.sort_by(f64::total_cmp);
    out.set(
        "queue.handoff_us_p50",
        waits.get(waits.len() / 2).copied().unwrap_or(0.0),
    );
}

fn ratelimit(out: &mut Outcome, rec: &mut Recorder) {
    // Fast enough never to owe tokens: the call's own cost, not a wait.
    let mut bucket = TokenBucket::new(Rate::mbps(100_000), 0);
    out.set(
        "ratelimit.reserve_ns",
        timed(rec, "ratelimit.reserve", 2_000_000, |i| {
            black_box(bucket.reserve(1024, i * 100));
        }),
    );
}

fn telemetry(out: &mut Outcome, rec: &mut Recorder) {
    let tel = NodeTelemetry::default();
    out.set(
        "telemetry.record_ns",
        timed(rec, "telemetry.record", 1_000_000, |i| {
            tel.record_switch_batch(32, i % 1024);
            tel.record_send_batch(32, 2_816);
            tel.record_recv_chunk(2_816);
            tel.record_recv_msgs(32);
        }),
    );
}

/// A `Context` that only counts: the algorithm's own cost, no runtime.
#[derive(Default)]
struct CountingCtx {
    sent: u64,
}

impl Context for CountingCtx {
    fn local_id(&self) -> NodeId {
        NodeId::loopback(2)
    }
    fn now(&self) -> Nanos {
        0
    }
    fn send(&mut self, msg: Msg, _dest: NodeId) {
        black_box(&msg);
        self.sent += 1;
    }
    fn send_to_observer(&mut self, _msg: Msg) {}
    fn set_timer(&mut self, _delay: Nanos, _token: TimerToken) {}
    fn backlog(&self, _dest: NodeId) -> Option<usize> {
        Some(0)
    }
    fn buffer_capacity(&self) -> usize {
        1024
    }
    fn probe_rtt(&mut self, _peer: NodeId) {}
    fn close_link(&mut self, _peer: NodeId) {}
    fn observer(&self) -> Option<NodeId> {
        None
    }
    fn random_u64(&mut self) -> u64 {
        0
    }
}

fn algorithms(out: &mut Outcome, rec: &mut Recorder) {
    let mut ctx = CountingCtx::default();
    let one = msg(0);
    let mut forwarder = StaticForwarder::new().route(1, vec![NodeId::loopback(3)]);
    out.set(
        "algorithms.forward_ns_per_msg",
        timed(rec, "algorithms.forward", 1_000_000, |_| {
            forwarder.on_message(&mut ctx, one.clone());
        }),
    );
    let mut sink = SinkApp::new();
    out.set(
        "algorithms.sink_ns_per_msg",
        timed(rec, "algorithms.sink", 1_000_000, |_| {
            sink.on_message(&mut ctx, one.clone());
        }),
    );
    black_box((ctx.sent, sink.msgs()));
}

/// The `sim_tree` topology at 64 nodes: the same per-hop work with
/// every data structure small, measured the same way (steps of one
/// source message period, at the nominal clock).
/// `simnet.scale_penalty` is the 4096-node cost over this one.
fn simnet_small(out: &mut Outcome, rec: &mut Recorder) {
    const NODES: usize = 64;
    let mut sim = sim::build(1, NODES);
    sim.run_until(1_000_000_000);
    let tree: Vec<(NodeId, NodeId)> = sim.metrics().active_links().collect();
    let before = sim::hop_msgs(&sim, &tree);
    let t = rec.begin("simnet.small");
    let timed = clock::repeat_for(
        Duration::from_millis(200),
        &mut LatencyHist::default(),
        || {
            sim.run_for(sim::step_virtual());
        },
    );
    rec.end(t);
    let hops = sim::hop_msgs(&sim, &tree) - before;
    out.set(
        "simnet.small_ns_per_hop_msg",
        timed.nominal_s * 1e9 / hops.max(1) as f64,
    );
}

fn gf256(out: &mut Outcome, rec: &mut Recorder) {
    const ROW: usize = 1024;
    let src: Vec<u8> = (0..ROW).map(|i| (i * 31 + 7) as u8).collect();
    let mut dst = vec![0u8; ROW];
    let ns_per_row = timed(rec, "gf256.mulacc", 500_000, |i| {
        kernels::mulacc_slice(Gf256::new((i % 254) as u8 + 2), black_box(&src), &mut dst);
    });
    black_box(&dst);
    out.set("gf256.mulacc_gb_per_s", ROW as f64 / ns_per_row);
}

/// Every workload-independent probe.
pub fn all(out: &mut Outcome, file: &mut TraceFile) {
    let mut rec = Recorder::new("probes", Instant::now(), true);
    queue(out, &mut rec);
    ratelimit(out, &mut rec);
    telemetry(out, &mut rec);
    algorithms(out, &mut rec);
    simnet_small(out, &mut rec);
    gf256(out, &mut rec);
    file.absorb(rec);
}

/// Observer probes, fed the spans and series windows a relay's status
/// report returned: ingest, trace assembly, health verdict.
pub fn observer(out: &mut Outcome, report: &StatusReport, rec: &mut Recorder) {
    let node = report.node.unwrap_or(NodeId::loopback(0));
    if let Some(batch) = &report.spans {
        let mut store = TraceStore::default();
        let t = rec.begin("observer.trace_ingest");
        store.ingest(node, batch);
        let ingest_ns = rec.end(t);
        let t = rec.begin("observer.trace_assemble");
        let traces = store.assemble();
        let assemble_ns = rec.end(t);
        out.set(
            "observer.trace_ingest_ns_per_span",
            ingest_ns as f64 / batch.spans.len().max(1) as f64,
        );
        out.set(
            "observer.trace_assemble_us_per_trace",
            assemble_ns as f64 / 1e3 / traces.len().max(1) as f64,
        );
    }
    if let Some(series) = &report.series {
        let eval_ns = timed(rec, "observer.health_eval", 10_000, |_| {
            black_box(health::evaluate(black_box(&series.windows), 0, u64::MAX));
        });
        out.set("observer.health_eval_us", eval_ns / 1e3);
    }
}
