//! The engine thread: control polling, switching, timers, measurement.

use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::io::{BufWriter, Write};
use std::net::{TcpListener, TcpStream};
use crate::sync::atomic::{AtomicBool, Ordering};
use crate::sync::Arc;
use std::thread;
use std::time::Duration;

use crossbeam_channel::{Receiver, RecvTimeoutError, Sender};
use ioverlay_api::{
    Algorithm, AppId, AppRoutes, BandwidthScope, ControlParams, LinkDirection, Msg, MsgType, Nanos,
    NodeId, SetBandwidthPayload, StagedEffects, StatusReport, StatusRequestPayload,
    ThroughputPayload, TimerToken, TraceSampler,
};
use ioverlay_message::{read_msg, write_msg};
use ioverlay_telemetry::{scrape, NodeTelemetry, SeriesBatch, SpanBatch, SpanStage};
use ioverlay_queue::{CircularQueue, WeightedRoundRobin};
use ioverlay_ratelimit::{
    BucketChain, Clock, Rate, SharedBucket, SystemClock, ThroughputMeter, TokenBucket,
};
use crate::sync::{check_blocking, classes, Mutex};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{EngineConfig, IoBackend};
use crate::ctx::EngineCtx;
use crate::link::LinkEnv;
use crate::peer::{
    connect_to_peer, run_receiver, run_sender, ControlEvent, ReceiverLink, SenderLink,
};
use crate::shard::{LinkDir, ShardPool};

/// Most messages the switch drains from the chosen upstream per
/// `pop_batch` — the batch that amortizes one queue-lock round-trip and
/// one wakeup across many messages.
const SWITCH_QUANTUM: usize = 64;

/// Rate standing in for "unlimited".
fn unlimited_rate() -> Rate {
    Rate::bytes_per_sec(1 << 50)
}

fn make_bucket(rate: Option<Rate>, now: Nanos) -> SharedBucket {
    let r = rate.unwrap_or_else(unlimited_rate);
    BucketChain::shared(TokenBucket::with_burst(
        r,
        (r.as_bytes_per_sec() / 8).max(64 * 1024),
        now,
    ))
}

/// Sends collected per destination while a batch is being dispatched,
/// pushed into each sender queue with one `push_batch` by
/// [`EngineState::flush_send_stage`]. A destination's vector stays
/// (empty) between flushes, so staging allocates only on growth.
#[derive(Default)]
pub(crate) struct SendStage {
    by_dest: BTreeMap<NodeId, Vec<Msg>>,
    /// Destinations whose vector is non-empty.
    dirty: Vec<NodeId>,
}

impl SendStage {
    fn push(&mut self, dest: NodeId, msg: Msg) {
        let msgs = self.by_dest.entry(dest).or_default();
        if msgs.is_empty() {
            self.dirty.push(dest);
        }
        msgs.push(msg);
    }

    fn is_empty(&self) -> bool {
        self.dirty.is_empty()
    }
}

/// Everything the engine thread owns.
pub(crate) struct EngineState {
    pub id: NodeId,
    pub config: EngineConfig,
    pub clock: Arc<SystemClock>,
    pub alg: Option<Box<dyn Algorithm>>,
    pub receivers: BTreeMap<NodeId, ReceiverLink>,
    pub senders: BTreeMap<NodeId, SenderLink>,
    /// Per-downstream link bucket (part of that sender's chain), kept for
    /// runtime retuning.
    pub link_buckets: HashMap<NodeId, SharedBucket>,
    pub up_bucket: SharedBucket,
    pub down_bucket: SharedBucket,
    pub total_bucket: SharedBucket,
    pub wrr: WeightedRoundRobin<NodeId>,
    pub blocked: BTreeMap<NodeId, Vec<(Msg, NodeId)>>,
    pub local_inbox: VecDeque<Msg>,
    pub timers: BinaryHeap<std::cmp::Reverse<(Nanos, u64, TimerToken)>>,
    pub timer_seq: u64,
    /// Who feeds each application here and whom it feeds: the
    /// `BrokenSource` domino's memory.
    pub routes: AppRoutes,
    pub rng: StdRng,
    pub switched: u64,
    pub running: bool,
    pub events_tx: Sender<ControlEvent>,
    pub next_measure: Nanos,
    /// Outstanding RTT probes: probe id -> (peer, sent-at).
    pub probes: HashMap<u32, (NodeId, Nanos)>,
    pub probe_seq: u32,
    /// Rotates the blocked-fanout retry order (upstream fairness).
    pub retry_rotor: u64,
    /// How often the idle time-out, not an event, woke the engine to
    /// messages it could move: wake-ups lost and covered for by the
    /// safety net (see [`run_engine`]). Exported as a counter of every
    /// status report's telemetry; 0 while the wake-up protocol holds.
    pub idle_fallback_hits: u64,
    /// Sends staged by the dispatches since the last flush. Forwarded
    /// dispatches flush once per switch quantum, so a whole stage shares
    /// one upstream for blocked-bookkeeping; local ones flush per
    /// callback.
    pub send_stage: SendStage,
    /// The staging area lent to every algorithm callback's context and
    /// drained by [`EngineState::apply_staged`].
    pub staged: StagedEffects,
    /// Reusable scratch of [`EngineState::switch_round`]: the quantum
    /// popped off the chosen upstream.
    pub switch_batch: Vec<Msg>,
    /// Reusable scratch of [`EngineState::flush_send_stage`]: where in a
    /// destination's batch each run of one application's data starts.
    pub app_runs: Vec<(usize, AppId)>,
    /// Node-local metrics registry, shared with every socket thread and
    /// the control listener.
    pub tel: Arc<NodeTelemetry>,
    /// Every `config.trace_sample`-th locally originated `Data` message
    /// starts a trace.
    pub sampler: TraceSampler,
    /// Span-ring high-watermark: spans with `idx` below this were
    /// already piggybacked to the observer on a previous status report.
    pub spans_reported: u64,
    /// Series-ring high-watermark: windows with `idx` below this were
    /// already piggybacked to the observer on a previous status report.
    pub series_reported: u64,
    /// Reusable scratch for per-destination flow aggregation in
    /// [`EngineState::flush_send_stage`]; lives here so the hot path
    /// allocates only on growth.
    pub flow_stage: Vec<(ioverlay_telemetry::FlowKey, u64, u64)>,
    /// Flight-recorder registration (panic + SIGUSR1 dumps), present
    /// only when a dump directory is configured.
    pub flight: Option<crate::flight::FlightHandle>,
    /// Total queue poison recoveries already reported to telemetry;
    /// `measure_tick` emits the delta as a structured event.
    pub poison_reported: u64,
    /// Shard-worker pool carrying socket I/O under
    /// [`IoBackend::Reactor`]; `None` on the blocking backend (and when
    /// reactor setup failed, which falls back to blocking I/O).
    pub pool: Option<ShardPool>,
}

impl EngineState {
    pub(crate) fn new(
        id: NodeId,
        config: EngineConfig,
        alg: Box<dyn Algorithm>,
        events_tx: Sender<ControlEvent>,
    ) -> Self {
        let clock = Arc::new(SystemClock::new());
        let now = clock.now();
        let bw = config.bandwidth;
        let seed = config.seed ^ u64::from(id.port());
        let measure = config.measure_interval;
        let tel = Arc::new(NodeTelemetry::new(
            config.telemetry,
            ioverlay_telemetry::DEFAULT_EVENT_CAPACITY,
        ));
        Self {
            id,
            config,
            clock,
            alg: Some(alg),
            receivers: BTreeMap::new(),
            senders: BTreeMap::new(),
            link_buckets: HashMap::new(),
            up_bucket: make_bucket(bw.up(), now),
            down_bucket: make_bucket(bw.down(), now),
            total_bucket: make_bucket(bw.total(), now),
            wrr: WeightedRoundRobin::new(),
            blocked: BTreeMap::new(),
            local_inbox: VecDeque::new(),
            timers: BinaryHeap::new(),
            timer_seq: 0,
            routes: AppRoutes::default(),
            rng: StdRng::seed_from_u64(seed),
            switched: 0,
            running: true,
            events_tx,
            next_measure: now + measure,
            probes: HashMap::new(),
            probe_seq: 0,
            retry_rotor: 0,
            idle_fallback_hits: 0,
            send_stage: SendStage::default(),
            staged: StagedEffects::default(),
            switch_batch: Vec::new(),
            app_runs: Vec::new(),
            poison_reported: 0,
            tel,
            sampler: TraceSampler::default(),
            spans_reported: 0,
            series_reported: 0,
            flow_stage: Vec::new(),
            flight: None,
            pool: None,
        }
    }

    /// Spins up the reactor shard pool when the config asks for it.
    /// Separate from `new` so unit tests (and the blocking backend) pay
    /// nothing; a setup failure logs through telemetry and leaves the
    /// node on blocking I/O rather than dead.
    pub(crate) fn init_io_backend(&mut self) {
        if self.config.io_backend != IoBackend::Reactor {
            return;
        }
        match ShardPool::new(&self.link_env(), self.config.reactor_shards) {
            Ok(pool) => {
                self.tel.set_reactor_shards(pool.shards() as u64);
                self.pool = Some(pool);
            }
            Err(_) => {
                self.tel.set_reactor_shards(0);
            }
        }
    }

    fn now(&self) -> Nanos {
        self.clock.now()
    }

    /// The handles every socket worker of this node shares.
    pub(crate) fn link_env(&self) -> LinkEnv {
        LinkEnv {
            local: self.id,
            clock: self.clock.clone(),
            events: self.events_tx.clone(),
            tel: self.tel.clone(),
        }
    }

    // ------------------------------------------------------------------
    // algorithm invocation
    // ------------------------------------------------------------------

    /// Runs one algorithm callback with a context reading `now`, then
    /// applies what it staged.
    fn run_algorithm<F>(&mut self, from_upstream: Option<NodeId>, now: Nanos, f: F)
    where
        F: FnOnce(&mut dyn Algorithm, &mut EngineCtx<'_>),
    {
        let Some(mut alg) = self.alg.take() else {
            return;
        };
        // Callbacks never nest, so the scratch is always home here.
        let mut staged = std::mem::take(&mut self.staged);
        {
            let mut ctx = EngineCtx {
                id: self.id,
                now,
                observer: self.config.observer,
                buffer_capacity: self.config.buffer_msgs,
                senders: &self.senders,
                rng: &mut self.rng,
                tel: &self.tel,
                staged: &mut staged,
            };
            f(alg.as_mut(), &mut ctx);
        }
        self.alg = Some(alg);
        self.apply_staged(from_upstream, &mut staged);
        self.staged = staged;
    }

    /// Applies and drains `staged`, leaving its vectors empty with their
    /// capacity for the next callback.
    fn apply_staged(&mut self, from_upstream: Option<NodeId>, staged: &mut StagedEffects) {
        // Sends are staged per destination and pushed into sender queues
        // in one push_batch per flush; see `flush_send_stage`. Forwarded
        // dispatches flush once per switch quantum, local dispatches
        // flush at the end of this call (so a pump emitting hundreds of
        // messages in one callback still pays one lock per destination).
        for (mut msg, dest) in staged.drain_sends() {
            // Locally originated data starts its traces here, at the one
            // point all source sends funnel through.
            if from_upstream.is_none() && self.sampler.sample(self.config.trace_sample, &msg) {
                let now = self.now();
                self.tel.start_trace(self.id, &mut msg, now);
            }
            self.send_stage.push(dest, msg);
        }
        for msg in staged.observer_msgs.drain(..) {
            if let Some(observer) = self.config.observer {
                // The observer connection is an ordinary persistent link.
                let _ = self.enqueue_send(observer, msg, None);
            }
        }
        if !staged.timers.is_empty() || !staged.probes.is_empty() {
            let now = self.now();
            for (delay, token) in staged.timers.drain(..) {
                self.timer_seq += 1;
                self.timers
                    .push(std::cmp::Reverse((now + delay, self.timer_seq, token)));
            }
            for peer in staged.probes.drain(..) {
                self.probe_seq += 1;
                let seq = self.probe_seq;
                self.probes.insert(seq, (peer, now));
                let ping = Msg::new(MsgType::Ping, self.id, 0, seq, bytes::Bytes::new());
                let _ = self.enqueue_send(peer, ping, None);
            }
        }
        if !staged.closes.is_empty() {
            // Deliver anything staged toward a peer before tearing its
            // link down, preserving send-then-close ordering.
            if !self.send_stage.is_empty() {
                self.flush_send_stage(from_upstream);
            }
            for peer in staged.closes.drain(..) {
                self.close_downstream(peer, true);
            }
        }
        if from_upstream.is_none() && !self.send_stage.is_empty() {
            self.flush_send_stage(None);
        }
    }

    // ------------------------------------------------------------------
    // send path
    // ------------------------------------------------------------------

    /// Queues `msg` toward `dest`, dialing a persistent connection on
    /// first use. Returns `false` when a *forwarded* message found the
    /// sender buffer full (the caller records it as blocked).
    fn enqueue_send(&mut self, dest: NodeId, msg: Msg, from_upstream: Option<NodeId>) -> bool {
        if dest == self.id {
            return true; // self-sends are consumed
        }
        if !self.senders.contains_key(&dest) && !self.open_sender(dest) {
            // Connection failed; the engine already notified the
            // algorithm. The message is consumed (lost).
            return true;
        }
        let is_data = msg.ty() == MsgType::Data;
        let app = msg.app();
        let Some(sender) = self.senders.get_mut(&dest) else {
            // open_sender just inserted the link, so this is
            // unreachable; treat it like a failed dial (message
            // consumed) rather than panicking the engine thread.
            return true;
        };
        let accepted = if from_upstream.is_some() {
            sender.queue.try_push(msg).is_ok()
        } else {
            match sender.queue.try_push(msg) {
                Ok(()) => true,
                Err(e) => {
                    // Locally originated: park in the unbounded pending
                    // list; sources self-pace via Context::backlog.
                    sender.pending.push_back(e.into_inner());
                    true
                }
            }
        };
        if accepted && is_data {
            self.routes.note_downstream(app, dest);
        }
        accepted
    }

    /// Opens the persistent link to `dest`. On any failure notifies the
    /// algorithm with `NeighborFailed` and returns `false`.
    fn open_sender(&mut self, dest: NodeId) -> bool {
        match self.dial_sender(dest) {
            Ok(link) => {
                self.senders.insert(dest, link);
                self.local_inbox
                    .push_back(Msg::control(MsgType::DownstreamJoined, dest, 0));
                self.tel.record_connect(self.now(), dest, true);
                true
            }
            Err(_) => {
                self.sender_failed(dest);
                false
            }
        }
    }

    /// The one failure path of [`Self::open_sender`]: whatever step
    /// failed (dial, descriptor or thread exhaustion), the half-built
    /// link is undone and the algorithm learns its message was dropped.
    fn sender_failed(&mut self, dest: NodeId) {
        self.link_buckets.remove(&dest);
        self.local_inbox
            .push_back(Msg::control(MsgType::NeighborFailed, dest, 0));
        self.tel.record_connect_failed(self.now(), dest);
    }

    /// Dials `dest` and hands the connection to its I/O worker: a shard
    /// on the reactor backend, a dedicated sender thread otherwise.
    fn dial_sender(&mut self, dest: NodeId) -> std::io::Result<SenderLink> {
        let stream = connect_to_peer(self.id, dest, self.config.socket_buf_bytes)?;
        let queue = CircularQueue::with_capacity(self.config.buffer_msgs);
        let env = self.link_env();
        env.wake_on_space(&queue);
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(self.config.measure_window),
        ));
        let link_bucket = make_bucket(None, self.now());
        let mut chain = BucketChain::new();
        chain.push(link_bucket.clone());
        chain.push(self.up_bucket.clone());
        chain.push(self.total_bucket.clone());
        self.link_buckets.insert(dest, link_bucket);
        let (stream, thread) = if let Some(pool) = &self.pool {
            // The shard owns the link's only descriptor (teardown goes
            // through `ShardPool::remove`, not a socket shutdown).
            stream.set_nonblocking(true)?;
            pool.add(LinkDir::Send, dest, stream, queue.clone(), meter.clone(), chain);
            (None, None)
        } else {
            // Thread-resource exhaustion is a failure signal like a
            // failed dial, not a reason to panic the engine.
            let io = stream.try_clone()?;
            let (queue, meter) = (queue.clone(), meter.clone());
            let thread = thread::Builder::new()
                .name(format!("snd-{dest}"))
                .spawn(move || run_sender(env, dest, io, queue, meter, chain))?;
            (Some(stream), Some(thread))
        };
        Ok(SenderLink {
            queue,
            pending: VecDeque::new(),
            meter,
            stream,
            thread,
        })
    }

    /// Moves parked local messages into sender buffers as space frees.
    fn flush_pending(&mut self) {
        for sender in self.senders.values_mut() {
            while let Some(msg) = sender.pending.pop_front() {
                if let Err(e) = sender.queue.try_push(msg) {
                    sender.pending.push_front(e.into_inner());
                    break;
                }
            }
        }
    }

    /// Re-forwards what full send buffers refused earlier, in order;
    /// returns how many messages found room this time.
    fn retry_blocked(&mut self) -> usize {
        let mut moved = 0;
        let mut keys: Vec<NodeId> = self.blocked.keys().copied().collect();
        // Rotate the retry order so competing upstreams take turns at a
        // freed sender slot instead of the smallest id always winning.
        if !keys.is_empty() {
            let shift = (self.retry_rotor as usize) % keys.len();
            keys.rotate_left(shift);
            self.retry_rotor = self.retry_rotor.wrapping_add(1);
        }
        // Destinations that refused a message in this pass. A sender
        // thread may free a slot at any moment; trying a later message
        // for the same destination after an earlier one was parked again
        // would let it overtake, so the rest of the pass parks them
        // untried.
        let mut refused: Vec<NodeId> = Vec::new();
        for up in keys {
            let Some(sends) = self.blocked.remove(&up) else {
                continue;
            };
            let total = sends.len();
            let mut still = Vec::new();
            for (msg, dest) in sends {
                if refused.contains(&dest) {
                    still.push((msg, dest));
                } else if !self.enqueue_send(dest, msg.clone(), Some(up)) {
                    refused.push(dest);
                    still.push((msg, dest));
                }
            }
            let retried = total - still.len();
            moved += retried;
            if retried > 0 && self.tel.enabled() {
                self.tel
                    .record_forward_retry(self.now(), up, retried as u64);
            }
            if !still.is_empty() {
                self.blocked.insert(up, still);
            }
        }
        moved
    }

    /// Pushes everything staged by the last dispatch(es) into the sender
    /// queues — one `push_batch` (one lock acquisition, one wakeup) per
    /// destination, in address order. Forwarded leftovers
    /// (`up == Some(..)`) are recorded as blocked on that upstream,
    /// exactly as a failed per-message `try_push` used to be; locally
    /// originated leftovers (`up == None`) park in the sender's
    /// unbounded `pending` list, exactly as `enqueue_send` parks them.
    fn flush_send_stage(&mut self, up: Option<NodeId>) {
        // Nothing below stages a send, so the stage can leave `self`
        // for the duration and come back with its vectors.
        let mut stage = std::mem::take(&mut self.send_stage);
        stage.dirty.sort_unstable();
        for dest in stage.dirty.drain(..) {
            if let Some(msgs) = stage.by_dest.get_mut(&dest) {
                self.flush_to(dest, msgs, up);
                msgs.clear(); // what `flush_to` left was consumed (lost)
            }
        }
        self.send_stage = stage;
    }

    /// One destination's share of [`Self::flush_send_stage`]; drains
    /// from `msgs` whatever it placed, blocked or parked.
    fn flush_to(&mut self, dest: NodeId, msgs: &mut Vec<Msg>, up: Option<NodeId>) {
        if dest == self.id {
            return; // self-sends are consumed
        }
        if !self.senders.contains_key(&dest) && !self.open_sender(dest) {
            return; // connection failed; messages are consumed (lost)
        }
        // Flow accounting happens at the stage flush: the whole
        // batch is walked once here, and blocked leftovers retry
        // through `try_push` (never back through this path), so
        // every message is counted exactly once.
        if self.config.health && self.tel.enabled() {
            self.flow_stage.clear();
            for m in msgs.iter() {
                let key = ioverlay_telemetry::FlowKey {
                    src: m.origin(),
                    dst: dest,
                    kind: m.ty().to_wire(),
                };
                let bytes = m.wire_len() as u64;
                match self.flow_stage.iter_mut().find(|(k, _, _)| *k == key) {
                    Some((_, n, b)) => {
                        *n += 1;
                        *b += bytes;
                    }
                    None => self.flow_stage.push((key, 1, bytes)),
                }
            }
            self.tel.record_flow_batch(&self.flow_stage);
        }
        // Note where each application's data starts *before* push_batch
        // drains the accepted prefix out of the vec: `dest` becomes a
        // downstream of exactly the applications it accepted data of.
        // A stream is one run, so this is one entry and one set insert
        // per flush, not per message.
        self.app_runs.clear();
        for (i, m) in msgs.iter().enumerate() {
            if m.ty() == MsgType::Data && self.app_runs.last().map(|r| r.1) != Some(m.app()) {
                self.app_runs.push((i, m.app()));
            }
        }
        let Some(sender) = self.senders.get_mut(&dest) else {
            // open_sender just inserted the link (unreachable in
            // practice); consume the batch like a failed dial.
            return;
        };
        // Local sends must not overtake messages already parked in
        // `pending`, so they only push_batch when pending is empty.
        let accepted = if up.is_none() && !sender.pending.is_empty() {
            0
        } else {
            sender.queue.push_batch(msgs)
        };
        // enqueue_send registers local data sends even when they park
        // (accepted, just deferred) — match it.
        let registered = if up.is_some() { accepted } else { usize::MAX };
        for &(first, app) in &self.app_runs {
            if first < registered {
                self.routes.note_downstream(app, dest);
            }
        }
        if msgs.is_empty() {
            return;
        }
        match up {
            Some(u) => {
                if self.tel.enabled() {
                    self.tel
                        .record_buffer_full(self.now(), dest, msgs.len() as u64);
                }
                self.blocked
                    .entry(u)
                    .or_default()
                    .extend(msgs.drain(..).map(|m| (m, dest)));
            }
            None => sender.pending.extend(msgs.drain(..)),
        }
    }

    // ------------------------------------------------------------------
    // switch
    // ------------------------------------------------------------------

    /// One switching round: services receive buffers in WRR order until
    /// everything is blocked or drained, bounded by `budget` messages.
    /// Returns how many messages it moved — switched, or re-forwarded
    /// from the blocked lists.
    ///
    /// The fast path is batched: blocked fan-outs are retried once per
    /// *round* (not once per message), each chosen upstream is drained a
    /// quantum at a time through one `pop_batch`, and the staged sends
    /// of the whole batch reach each sender queue via one `push_batch`.
    fn switch_round(&mut self, budget: usize) -> usize {
        let round_start = if self.tel.enabled() { self.now() } else { 0 };
        let retried = self.retry_blocked();
        let mut moved = 0;
        while moved < budget {
            let Some(msg) = self.local_inbox.pop_front() else {
                break;
            };
            self.dispatch_to_algorithm(None, self.now(), msg);
            moved += 1;
        }
        let mut batch = std::mem::take(&mut self.switch_batch);
        while moved < budget {
            let Some(up) = self.pick_upstream() else { break };
            let quantum = SWITCH_QUANTUM.min(budget - moved);
            let (n, occupancy) = match self.receivers.get_mut(&up) {
                // Occupancy is observed under the pop's own lock: the
                // telemetry sample costs no extra queue round-trip.
                Some(r) => r.queue.pop_batch_observed(quantum, &mut batch),
                None => (0, 0),
            };
            if n == 0 {
                continue;
            }
            self.tel.record_switch_batch(n as u64, occupancy as u64);
            self.switched += n as u64;
            moved += n;
            // One clock read serves the whole quantum's contexts.
            let now = self.now();
            // `up` carries data of an application: noted once per run of
            // that application's messages, not once per message. Nothing
            // of it outlives the quantum, and any other message (a
            // `BrokenSource` may unregister `up`) ends the run.
            let mut last_app = None;
            for msg in batch.drain(..) {
                if msg.ty() != MsgType::Data {
                    last_app = None;
                } else if last_app != Some(msg.app()) {
                    last_app = Some(msg.app());
                    self.routes.note_upstream(msg.app(), up);
                }
                // Sampled messages get a `Switch` span around their
                // dispatch; the hop span id rides in the carried context
                // (rewritten by the receiver's `Recv` span).
                let traced = msg
                    .trace()
                    .filter(ioverlay_api::TraceContext::is_sampled)
                    .map(|c| (c.trace_id, c.parent_span));
                let start = if traced.is_some() { self.now() } else { 0 };
                self.dispatch_to_algorithm(Some(up), now, msg);
                if let Some((trace_id, span_id)) = traced {
                    let end = self.now();
                    self.tel.record_hop_span(
                        self.id,
                        Some(up),
                        trace_id,
                        span_id,
                        SpanStage::Switch,
                        start,
                        end,
                    );
                }
            }
            self.flush_send_stage(Some(up));
        }
        self.switch_batch = batch;
        // Idle rounds (nothing moved) are wakeup noise, not switching
        // work — keep them out of the latency histogram.
        if moved > 0 && self.tel.enabled() {
            self.tel
                .record_switch_round(self.now().saturating_sub(round_start));
        }
        moved + retried
    }

    fn pick_upstream(&mut self) -> Option<NodeId> {
        let candidates = self.wrr.len();
        for _ in 0..candidates {
            let up = *self.wrr.next()?;
            let eligible = !self.blocked.contains_key(&up)
                && self
                    .receivers
                    .get(&up)
                    .is_some_and(|r| !r.queue.is_empty());
            if eligible {
                return Some(up);
            }
        }
        None
    }

    /// Applies middleware semantics, then hands the message to the
    /// algorithm — the `Engine::process` / `Algorithm::process` split of
    /// Table 1 — with a context reading `now`.
    fn dispatch_to_algorithm(&mut self, from_upstream: Option<NodeId>, now: Nanos, msg: Msg) {
        match msg.ty() {
            MsgType::Hello => return, // connection plumbing, not for the algorithm
            MsgType::Ping => {
                // Engine-level: reply immediately with the same seq.
                let pong = Msg::new(MsgType::Pong, self.id, 0, msg.seq(), bytes::Bytes::new());
                let _ = self.enqueue_send(msg.origin(), pong, None);
                return;
            }
            MsgType::Pong => {
                // Resolve the probe and deliver the RTT to the algorithm.
                if let Some((peer, sent)) = self.probes.remove(&msg.seq()) {
                    let rtt_micros =
                        i32::try_from((self.now().saturating_sub(sent)) / 1_000).unwrap_or(i32::MAX);
                    let report = Msg::new(
                        MsgType::Pong,
                        peer,
                        0,
                        msg.seq(),
                        ControlParams::new(Some(rtt_micros), None).encode(),
                    );
                    self.run_algorithm(None, now, |alg, ctx| alg.on_message(ctx, report));
                }
                return;
            }
            MsgType::SetBandwidth => {
                self.apply_set_bandwidth(&msg);
                return;
            }
            MsgType::Request => {
                // Addressed polls carry the intended target; one that was
                // misrouted (or broadcast to the wrong node) must not
                // trigger a reply on this node's behalf. Empty payloads
                // stay valid: poll whoever receives the request.
                if let Ok(req) = StatusRequestPayload::decode(msg.payload()) {
                    if req.target != self.id {
                        return;
                    }
                }
                // The engine answers status requests itself (the report
                // includes the algorithm's own status extension), then
                // still shows the request to the algorithm.
                if let Some(observer) = self.config.observer {
                    let mut report = self.status_report();
                    // Observer-bound reports piggyback only the spans
                    // and series windows recorded since the last one
                    // (watermarks advance).
                    report.spans = self.span_batch(true);
                    report.series = self.series_batch(true);
                    let status =
                        Msg::new(MsgType::Status, self.id, 0, 0, report.encode());
                    let _ = self.enqueue_send(observer, status, None);
                }
            }
            MsgType::Terminate => {
                self.running = false;
                return;
            }
            MsgType::BrokenSource => {
                if let Some(up) = from_upstream {
                    self.domino_broken_source(msg.app(), up);
                }
            }
            _ => {}
        }
        self.run_algorithm(from_upstream, now, |alg, ctx| alg.on_message(ctx, msg));
    }

    fn apply_set_bandwidth(&mut self, msg: &Msg) {
        let Ok(payload) = SetBandwidthPayload::decode(msg.payload()) else {
            return;
        };
        let rate = payload.kbps.map(Rate::kbps).unwrap_or_else(unlimited_rate);
        let now = self.now();
        match payload.scope {
            BandwidthScope::NodeTotal => self.total_bucket.lock().set_rate(rate, now),
            BandwidthScope::NodeUp => self.up_bucket.lock().set_rate(rate, now),
            BandwidthScope::NodeDown => self.down_bucket.lock().set_rate(rate, now),
            BandwidthScope::Link(peer) => {
                if let Some(bucket) = self.link_buckets.get(&peer) {
                    bucket.lock().set_rate(rate, now);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // failures and teardown
    // ------------------------------------------------------------------

    fn domino_broken_source(&mut self, app: AppId, gone_upstream: NodeId) {
        let Some(owed) = self.routes.drop_upstream(app, gone_upstream) else {
            return; // another upstream still feeds `app`, or this one never did
        };
        if self.tel.enabled() {
            self.tel.record_domino_teardown(self.now(), app);
        }
        for dest in owed {
            let broken = Msg::control(MsgType::BrokenSource, self.id, app);
            let _ = self.enqueue_send(dest, broken, None);
        }
    }

    pub(crate) fn handle_upstream_failed(&mut self, peer: NodeId) {
        let Some(mut link) = self.receivers.remove(&peer) else {
            return;
        };
        link.close();
        if let Some(pool) = &self.pool {
            pool.remove(peer, LinkDir::Recv);
        }
        self.wrr.remove(&peer);
        self.blocked.remove(&peer);
        if self.tel.enabled() {
            self.tel.record_disconnect(self.now(), peer);
        }
        let broken_apps = self.routes.forget_upstream(peer);
        self.local_inbox
            .push_back(Msg::control(MsgType::NeighborFailed, peer, 0));
        if self.tel.enabled() {
            for app in &broken_apps {
                self.tel.record_domino_teardown(self.now(), *app);
            }
        }
        for app in broken_apps {
            for dest in self.routes.take_downstreams(app) {
                let broken = Msg::control(MsgType::BrokenSource, self.id, app);
                let _ = self.enqueue_send(dest, broken, None);
            }
            self.local_inbox
                .push_back(Msg::control(MsgType::BrokenSource, peer, app));
        }
    }

    pub(crate) fn close_downstream(&mut self, peer: NodeId, notify_alg: bool) {
        if let Some(mut link) = self.senders.remove(&peer) {
            link.close();
            if let Some(pool) = &self.pool {
                pool.remove(peer, LinkDir::Send);
            }
            if self.tel.enabled() {
                self.tel.record_disconnect(self.now(), peer);
            }
        }
        self.link_buckets.remove(&peer);
        self.send_stage.by_dest.remove(&peer);
        self.routes.forget_downstream(peer);
        if notify_alg {
            self.local_inbox
                .push_back(Msg::control(MsgType::NeighborFailed, peer, 0));
        }
    }

    // ------------------------------------------------------------------
    // measurement
    // ------------------------------------------------------------------

    fn measure_tick(&mut self) {
        let now = self.now();
        let mut reports: Vec<Msg> = Vec::new();
        let mut dead_upstreams: Vec<NodeId> = Vec::new();
        for (&peer, link) in self.receivers.iter() {
            let meter = link.meter.lock();
            let kbps = meter.rate_kbps(now);
            // A link that has carried nothing yet has been idle since it
            // was opened (its `Hello` never reaches the meter).
            let idle = meter
                .idle_for(now)
                .unwrap_or(now.saturating_sub(link.opened));
            if self.config.inactivity_timeout.is_some_and(|t| idle > t) {
                dead_upstreams.push(peer);
            }
            let payload = ThroughputPayload {
                peer,
                direction: LinkDirection::Upstream,
                kbps,
                lost_msgs: 0,
            };
            reports.push(Msg::new(
                MsgType::UpThroughput,
                self.id,
                0,
                0,
                payload.encode(),
            ));
        }
        for (&peer, link) in self.senders.iter() {
            let kbps = link.meter.lock().rate_kbps(now);
            let payload = ThroughputPayload {
                peer,
                direction: LinkDirection::Downstream,
                kbps,
                lost_msgs: 0,
            };
            reports.push(Msg::new(
                MsgType::DownThroughput,
                self.id,
                0,
                0,
                payload.encode(),
            ));
        }
        self.local_inbox.extend(reports);
        for peer in dead_upstreams {
            self.handle_upstream_failed(peer);
        }
        if self.tel.enabled() {
            self.tel
                .set_link_gauges(self.receivers.len() as u64, self.senders.len() as u64);
            let recv_depth: usize = self.receivers.values().map(|r| r.queue.len()).sum();
            let send_depth: usize = self.senders.values().map(|s| s.depth()).sum();
            self.tel
                .set_queue_gauges(recv_depth as u64, send_depth as u64);
            let poisoned: u64 = self
                .receivers
                .values()
                .map(|r| r.queue.poison_recoveries())
                .chain(self.senders.values().map(|s| s.queue.poison_recoveries()))
                .sum();
            if poisoned > self.poison_reported {
                self.tel
                    .record_queue_poison_recoveries(now, poisoned - self.poison_reported);
                self.poison_reported = poisoned;
            }
            // Close a series window on every tick, after the gauges so
            // the high-water marks are at least this tick's depths.
            if self.config.health {
                self.tel.sample_series(now);
            }
        }
        if let Some(flight) = self.flight.as_mut() {
            crate::flight::poll_sigusr1(flight);
        }
        self.next_measure = now + self.config.measure_interval;
    }

    fn fire_due_timers(&mut self) {
        let now = self.now();
        while let Some(std::cmp::Reverse((at, _, token))) = self.timers.peek().copied() {
            if at > now {
                break;
            }
            self.timers.pop();
            self.run_algorithm(None, self.now(), |alg, ctx| alg.on_timer(ctx, token));
        }
    }

    pub(crate) fn status_report(&mut self) -> StatusReport {
        let now = self.now();
        let recv_buffers: Vec<(NodeId, usize)> = self
            .receivers
            .iter()
            .map(|(&p, r)| (p, r.queue.len()))
            .collect();
        let send_buffers: Vec<(NodeId, usize)> = self
            .senders
            .iter()
            .map(|(&p, s)| (p, s.depth()))
            .collect();
        let link_kbps: Vec<(NodeId, f64)> = self
            .senders
            .iter()
            .map(|(&p, s)| (p, s.meter.lock().rate_kbps(now)))
            .collect();
        StatusReport {
            node: Some(self.id),
            upstreams: self.receivers.keys().copied().collect(),
            downstreams: self.senders.keys().copied().collect(),
            recv_buffers,
            send_buffers,
            link_kbps,
            switched_msgs: self.switched,
            algorithm: self
                .alg
                .as_ref()
                .map(|a| a.status())
                .unwrap_or(serde_json::Value::Null),
            telemetry: self.tel.enabled().then(|| {
                // The one counter that is the engine loop's own, not a
                // record site's: the simulator has no idle time-out, and
                // its reports (golden-digested) carry the registry as is.
                let mut snapshot = self.tel.snapshot();
                snapshot
                    .counters
                    .push(("idle_fallback_hits".into(), self.idle_fallback_hits));
                snapshot
            }),
            spans: self.span_batch(false),
            series: self.series_batch(false),
            flows: (self.tel.enabled() && self.config.health)
                .then(|| self.tel.flows().snapshot()),
        }
    }

    /// Builds the exported span batch. With `advance` the batch carries
    /// only spans above the piggyback watermark and moves it — used for
    /// observer-bound reports, so each span travels once; local status
    /// reads and HTTP scrapes get the full ring and leave the watermark
    /// alone (the observer dedups by `(node, idx)` regardless).
    pub(crate) fn span_batch(&mut self, advance: bool) -> Option<SpanBatch> {
        if !self.tel.enabled() {
            return None;
        }
        let (mut spans, dropped) = self.tel.spans().consistent_view();
        if advance {
            spans.retain(|s| s.idx >= self.spans_reported);
            if let Some(last) = spans.last() {
                self.spans_reported = last.idx + 1;
            }
        }
        Some(SpanBatch {
            wall_anchor: self.clock.wall_anchor_nanos(),
            dropped,
            spans,
        })
    }

    /// Builds the exported series batch, mirroring [`Self::span_batch`]:
    /// `advance` carries only windows above the piggyback watermark and
    /// moves it (observer-bound reports); scrapes and local status reads
    /// get the whole ring and leave the watermark alone.
    pub(crate) fn series_batch(&mut self, advance: bool) -> Option<SeriesBatch> {
        if !self.tel.enabled() || !self.config.health {
            return None;
        }
        let windows = if advance {
            let windows = self.tel.series().windows_since(self.series_reported);
            if let Some(last) = windows.last() {
                self.series_reported = last.idx + 1;
            }
            windows
        } else {
            self.tel.series().snapshot()
        };
        Some(SeriesBatch { windows })
    }

    // ------------------------------------------------------------------
    // bootstrap
    // ------------------------------------------------------------------

    fn bootstrap(&mut self) {
        let Some(observer) = self.config.observer else {
            return;
        };
        let boot = Msg::control(MsgType::Boot, self.id, 0);
        check_blocking("observer bootstrap dial");
        let reply = (|| -> std::io::Result<Option<Msg>> {
            let stream = TcpStream::connect_timeout(
                &observer.to_socket_addr(),
                Duration::from_secs(2),
            )?;
            stream.set_read_timeout(Some(Duration::from_secs(2)))?;
            let mut w = BufWriter::new(stream.try_clone()?);
            write_msg(&mut w, &boot)?;
            w.flush()?;
            read_msg(&stream)
        })();
        if let Ok(Some(reply)) = reply {
            self.local_inbox.push_back(reply);
        }
    }
}

/// Runs the engine thread until termination; returns after teardown.
pub(crate) fn run_engine(mut state: EngineState, events_rx: Receiver<ControlEvent>) {
    // Flight recorder: explicit config wins, else the environment opts
    // the whole process in (handy for CI e2e jobs dumping on failure).
    let flight_dir = state.config.flight_dir.clone().or_else(|| {
        std::env::var_os("IOVERLAY_FLIGHT_DIR").map(std::path::PathBuf::from)
    });
    if let Some(dir) = flight_dir {
        state.flight = Some(crate::flight::register(
            state.id.to_string(),
            dir,
            state.tel.clone(),
            state.clock.clone(),
        ));
    }
    state.bootstrap();
    state.run_algorithm(None, state.now(), |alg, ctx| alg.on_start(ctx));
    while state.running {
        // Decide how long to sleep: zero if there is switchable work.
        let has_work = !state.local_inbox.is_empty()
            || state
                .receivers
                .iter()
                .any(|(up, r)| !r.queue.is_empty() && !state.blocked.contains_key(up));
        let now = state.now();
        let next_timer = state
            .timers
            .peek()
            .map(|std::cmp::Reverse((at, _, _))| *at)
            .unwrap_or(u64::MAX);
        let wake_at = next_timer.min(state.next_measure);
        // With nothing to switch the engine parks until an event, a
        // timer or the measure tick — and for 5 ms at most, so that a
        // wake-up lost to a bug costs a delay, not a hang.
        let timeout = if has_work {
            Duration::ZERO
        } else {
            Duration::from_nanos(wake_at.saturating_sub(now).min(5_000_000))
        };
        let mut woke_on_timeout = false;
        match events_rx.recv_timeout(timeout) {
            Ok(event) => {
                handle_event(&mut state, event);
                // Drain whatever else is queued without sleeping.
                while let Ok(event) = events_rx.try_recv() {
                    handle_event(&mut state, event);
                }
            }
            Err(RecvTimeoutError::Timeout) => woke_on_timeout = !timeout.is_zero(),
            Err(RecvTimeoutError::Disconnected) => break,
        }
        state.flush_pending();
        let moved = state.switch_round(1024);
        // Parked with nothing to do, woken by the clock alone, and yet
        // there were messages to move: whoever made that work never said
        // so. (A wake-up still in flight — its push done, its event not
        // yet sent — has landed by the time the round is over.)
        if woke_on_timeout && moved > 0 && events_rx.is_empty() {
            state.idle_fallback_hits += 1;
        }
        state.fire_due_timers();
        if state.now() >= state.next_measure {
            state.measure_tick();
        }
    }
    // Graceful teardown: close every link; socket threads exit on their
    // own (closed queues / dead sockets).
    let downstreams: Vec<NodeId> = state.senders.keys().copied().collect();
    for peer in downstreams {
        state.close_downstream(peer, false);
    }
    let upstreams: Vec<NodeId> = state.receivers.keys().copied().collect();
    for peer in upstreams {
        if let Some(mut link) = state.receivers.remove(&peer) {
            link.close();
            if let Some(pool) = &state.pool {
                pool.remove(peer, LinkDir::Recv);
            }
        }
    }
    if let Some(pool) = state.pool.take() {
        pool.shutdown();
    }
    if let Some(flight) = state.flight.take() {
        crate::flight::unregister(&flight);
    }
    // A queued `UpstreamOpened` holds a buffer whose wake-up hook holds a
    // sender of this very channel; dropping it here, not with the
    // channel, is what lets both (and the link's socket) go.
    while events_rx.try_recv().is_ok() {}
}

fn handle_event(state: &mut EngineState, event: ControlEvent) {
    match event {
        ControlEvent::Incoming(msg) => state.local_inbox.push_back(msg),
        ControlEvent::UpstreamOpened {
            peer,
            queue,
            meter,
            stream,
        } => {
            state.receivers.insert(
                peer,
                ReceiverLink {
                    queue,
                    meter,
                    opened: state.clock.now(),
                    stream,
                },
            );
            state.wrr.set_weight(peer, 1);
            if state.tel.enabled() {
                state.tel.record_connect(state.clock.now(), peer, false);
            }
            state
                .local_inbox
                .push_back(Msg::control(MsgType::UpstreamJoined, peer, 0));
        }
        ControlEvent::UpstreamFailed(peer) => state.handle_upstream_failed(peer),
        ControlEvent::DownstreamFailed(peer) => state.close_downstream(peer, true),
        // Pure wakeups, sent by the link buffers' own edge hooks: the
        // switch round that follows event handling does the actual work
        // (drain receive buffers / retry blocked).
        ControlEvent::DataAvailable => {}
        ControlEvent::SendSpace => {
            if state.tel.enabled() {
                state.tel.record_sendspace_wakeup(state.clock.now());
            }
        }
        ControlEvent::StatusRequest(reply) => {
            let _ = reply.send(state.status_report());
        }
        ControlEvent::Shutdown => state.running = false,
    }
}

/// Runs the listener thread: accepts persistent (hello-prefixed) and
/// one-shot control connections on the node's publicized port.
///
/// The accept loop *blocks* rather than polling: a sleep-poll either
/// burns CPU across dozens of virtualized nodes or adds its poll
/// interval to every connection setup. Shutdown instead wakes the
/// blocked `accept` with a self-connection (see
/// [`crate::EngineNode::shutdown`]), after which the `running` flag —
/// re-checked on every accept — ends the loop.
pub(crate) fn run_listener(
    env: LinkEnv,
    listener: TcpListener,
    config: Arc<EngineConfig>,
    down_chain: BucketChain,
    running: Arc<AtomicBool>,
    pool: Option<ShardPool>,
) {
    while running.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                if !running.load(Ordering::Acquire) {
                    // The shutdown wake, not a peer: drop it and exit.
                    break;
                }
                let (env, config) = (env.clone(), config.clone());
                let (down_chain, pool) = (down_chain.clone(), pool.clone());
                let spawned = thread::Builder::new()
                    .name(format!("acc-{}", env.local))
                    .spawn(move || handle_accepted(env, stream, &config, down_chain, pool));
                // On spawn failure (thread-resource exhaustion) the
                // accepted stream is dropped (moved into the dead
                // closure), so the peer observes a close — its failure
                // detector handles it. The listener itself stays up.
                drop(spawned);
            }
            // Transient per-connection failures (e.g. the dialer hung up
            // while queued) must not kill the listener.
            Err(ref e) if e.kind() == std::io::ErrorKind::ConnectionAborted => {}
            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => break,
        }
    }
}

/// Serves one accepted connection: an HTTP scrape, a one-shot control
/// session, or (after `Hello`) a persistent upstream link whose
/// traffic `down_chain` paces.
fn handle_accepted(
    env: LinkEnv,
    stream: TcpStream,
    config: &EngineConfig,
    down_chain: BucketChain,
    pool: Option<ShardPool>,
) {
    let _ = stream.set_nodelay(true);
    if let Some(bytes) = config.socket_buf_bytes {
        // Best effort: an uncapped link still works, just with
        // autotuned (potentially huge) kernel buffers.
        let _ = reactor::sockopt::set_socket_buffers(&stream, bytes);
    }
    // A scrape client (curl, Prometheus) talks HTTP to the same control
    // port peers dial with framed messages; sniff without consuming so
    // framed connections proceed untouched.
    if scrape::sniff_http_get(&stream) {
        let io_backend = if pool.is_some() { "reactor" } else { "blocking" };
        let shards = pool.as_ref().map(|p| p.shards() as u64).unwrap_or(0);
        serve_node_scrape(&stream, &env, io_backend, shards);
        return;
    }
    // Peek at the first message without buffered read-ahead so the
    // receiver thread sees a clean stream afterwards.
    let Ok(Some(first)) = read_msg(&stream) else {
        return;
    };
    if first.ty() == MsgType::Hello {
        let peer = first.origin();
        let queue = CircularQueue::with_capacity(config.buffer_msgs);
        env.wake_on_data(&queue);
        let meter = Arc::new(Mutex::new(
            &classes::ENGINE_METER,
            ThroughputMeter::new(config.measure_window),
        ));
        // The blocking backend keeps a dup'd handle engine-side so
        // teardown can shut the socket down under the blocked receiver
        // thread; a shard-owned socket needs no second fd (the pool
        // drops it on `remove`), halving per-link fd cost at scale.
        let reg_stream = if pool.is_some() {
            None
        } else {
            match stream.try_clone() {
                Ok(s) => Some(s),
                Err(_) => return,
            }
        };
        if env
            .events
            .send(ControlEvent::UpstreamOpened {
                peer,
                queue: queue.clone(),
                meter: meter.clone(),
                stream: reg_stream,
            })
            .is_err()
        {
            return;
        }
        if let Some(pool) = pool {
            // Reactor backend: the socket joins its shard and this
            // accept thread exits immediately — upstream I/O costs no
            // standing thread.
            pool.add(LinkDir::Recv, peer, stream, queue, meter, down_chain);
            return;
        }
        run_receiver(env, peer, stream, queue, meter, down_chain);
    } else {
        // One-shot control session: forward every message until EOF.
        let _ = env.events.send(ControlEvent::Incoming(first));
        while let Ok(Some(msg)) = read_msg(&stream) {
            if env.events.send(ControlEvent::Incoming(msg)).is_err() {
                break;
            }
        }
    }
}

/// Serves one HTTP scrape request on the node's control port.
///
/// The report comes from the engine thread via the same
/// [`ControlEvent::StatusRequest`] reply channel the local handle uses,
/// so a scrape sees exactly what the observer would: link state,
/// per-link throughput, and the full telemetry snapshot.
fn serve_node_scrape(stream: &TcpStream, env: &LinkEnv, io_backend: &str, shards: u64) {
    let LinkEnv {
        clock, events, tel, ..
    } = env;
    let Some(path) = scrape::read_request_path(stream) else {
        return;
    };
    match path.as_str() {
        // Liveness, traces, series, and flows answer straight from this
        // thread's shared handles — no engine round-trip, so a busy (or
        // wedged) engine never delays them; the report-backed endpoints
        // below double as the readiness signal.
        "/healthz" => {
            let uptime = clock.now() / ioverlay_ratelimit::NANOS_PER_SEC;
            let body = scrape::healthz_body(uptime, io_backend, shards);
            scrape::write_response(stream, 200, "text/plain", &body);
            return;
        }
        "/series" | "/series.json" => {
            let batch = SeriesBatch {
                windows: tel.series().snapshot(),
            };
            let body = serde_json::to_string_pretty(&batch).unwrap_or_default();
            scrape::write_response(stream, 200, scrape::JSON_CONTENT_TYPE, &body);
            return;
        }
        "/flows" | "/flows.json" => {
            let body = serde_json::to_string_pretty(&tel.flows().snapshot()).unwrap_or_default();
            scrape::write_response(stream, 200, scrape::JSON_CONTENT_TYPE, &body);
            return;
        }
        "/traces" => {
            let (spans, dropped) = tel.spans().consistent_view();
            let batch = SpanBatch {
                wall_anchor: clock.wall_anchor_nanos(),
                dropped,
                spans,
            };
            let body = serde_json::to_string_pretty(&batch).unwrap_or_default();
            scrape::write_response(stream, 200, scrape::JSON_CONTENT_TYPE, &body);
            return;
        }
        _ => {}
    }
    let report = (|| {
        let (tx, rx) = crossbeam_channel::bounded(1);
        events.send(ControlEvent::StatusRequest(tx)).ok()?;
        rx.recv_timeout(Duration::from_secs(2)).ok()
    })();
    let Some(report) = report else {
        scrape::write_response(stream, 503, "text/plain", "engine unavailable\n");
        return;
    };
    match path.as_str() {
        "/metrics" => scrape::write_response(
            stream,
            200,
            scrape::PROMETHEUS_CONTENT_TYPE,
            &report.to_prometheus(),
        ),
        "/metrics.json" | "/status.json" => {
            let body = serde_json::to_string_pretty(&report).unwrap_or_default();
            scrape::write_response(stream, 200, scrape::JSON_CONTENT_TYPE, &body);
        }
        _ => scrape::write_response(
            stream,
            404,
            "text/plain",
            "paths: /metrics /metrics.json /status.json /traces /series /flows /healthz\n",
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam_channel::unbounded;

    /// Test-local lock class for the recorder's seen-message list.
    static TEST_RECORDER: lockdep::LockClass = lockdep::LockClass {
        name: "engine.test_recorder",
        fields: &["seen"],
        shard_safe: false,
        doc: "test-only",
    };

    /// Records every message it is handed.
    struct Recorder {
        seen: std::sync::Arc<Mutex<Vec<Msg>>>,
    }

    impl Algorithm for Recorder {
        fn on_message(&mut self, _ctx: &mut dyn ioverlay_api::Context, msg: Msg) {
            self.seen.lock().push(msg);
        }
        fn on_timer(&mut self, ctx: &mut dyn ioverlay_api::Context, token: TimerToken) {
            // Record timer firings as synthetic messages for inspection.
            let marker = Msg::new(
                MsgType::Custom(0x2000),
                ctx.local_id(),
                0,
                token as u32,
                bytes::Bytes::new(),
            );
            self.seen.lock().push(marker);
        }
        fn status(&self) -> serde_json::Value {
            serde_json::json!({"recorded": self.seen.lock().len()})
        }
    }

    fn state() -> (EngineState, std::sync::Arc<Mutex<Vec<Msg>>>) {
        let (tx, _rx) = unbounded();
        let seen = std::sync::Arc::new(Mutex::new(&TEST_RECORDER, Vec::new()));
        let alg = Recorder { seen: seen.clone() };
        let state = EngineState::new(
            NodeId::loopback(9_999),
            EngineConfig::default(),
            Box::new(alg),
            tx,
        );
        (state, seen)
    }

    #[test]
    fn send_to_unreachable_peer_notifies_the_algorithm() {
        let (mut state, _seen) = state();
        // Port 1 on loopback has no listener: connect fails fast.
        let ghost = NodeId::loopback(1);
        let consumed = state.enqueue_send(ghost, Msg::control(MsgType::Data, state.id, 0), None);
        assert!(consumed, "failed sends are consumed, not blocked");
        assert!(state
            .local_inbox
            .iter()
            .any(|m| m.ty() == MsgType::NeighborFailed && m.origin() == ghost));
        assert!(state.senders.is_empty());
    }

    /// Every way `open_sender` can fail after the dial (descriptor or
    /// thread exhaustion, a socket that will not go non-blocking) ends
    /// here with a link bucket already registered.
    #[test]
    fn the_one_sender_failure_path_cleans_up_and_notifies() {
        let (mut state, _seen) = state();
        let dest = NodeId::loopback(2);
        state.link_buckets.insert(dest, make_bucket(None, 0));
        state.sender_failed(dest);
        assert!(state.link_buckets.is_empty(), "half-built link undone");
        assert!(state.senders.is_empty());
        let failed: Vec<&Msg> = state
            .local_inbox
            .iter()
            .filter(|m| m.ty() == MsgType::NeighborFailed && m.origin() == dest)
            .collect();
        assert_eq!(failed.len(), 1, "the algorithm hears of it exactly once");
        assert_eq!(state.tel.snapshot().counter("connect_failures"), Some(1));
    }

    #[test]
    fn self_sends_are_consumed_silently() {
        let (mut state, _seen) = state();
        let me = state.id;
        assert!(state.enqueue_send(me, Msg::control(MsgType::Data, me, 0), None));
        assert!(state.local_inbox.is_empty());
    }

    #[test]
    fn set_bandwidth_retunes_the_right_bucket() {
        let (mut state, _seen) = state();
        let payload = SetBandwidthPayload {
            scope: BandwidthScope::NodeUp,
            kbps: Some(30),
        };
        let msg = Msg::new(MsgType::SetBandwidth, state.id, 0, 0, payload.encode());
        state.dispatch_to_algorithm(None, 0, msg);
        assert_eq!(state.up_bucket.lock().rate(), Rate::kbps(30));
        // The other buckets stay unlimited.
        assert!(state.total_bucket.lock().rate() > Rate::mbps(1_000_000));
    }

    #[test]
    fn terminate_stops_the_engine_loop_flag() {
        let (mut state, _seen) = state();
        assert!(state.running);
        state.dispatch_to_algorithm(None, 0, Msg::control(MsgType::Terminate, state.id, 0));
        assert!(!state.running);
    }

    #[test]
    fn engine_internal_types_never_reach_the_algorithm() {
        let (mut state, seen) = state();
        state.dispatch_to_algorithm(None, 0, Msg::control(MsgType::Hello, NodeId::loopback(2), 0));
        state.dispatch_to_algorithm(
            None,
            0,
            Msg::control(MsgType::Terminate, NodeId::loopback(2), 0),
        );
        assert!(seen.lock().is_empty(), "hello/terminate are engine-level");
        // Data does reach it.
        state.running = true;
        state.dispatch_to_algorithm(None, 0, Msg::data(NodeId::loopback(2), 1, 0, &b"x"[..]));
        assert_eq!(seen.lock().len(), 1);
    }

    #[test]
    fn timers_fire_in_deadline_order() {
        let (mut state, seen) = state();
        // Arm three timers in scrambled order with tiny delays.
        state.apply_staged(
            None,
            &mut StagedEffects {
                timers: vec![(2_000_000, 30), (0, 10), (1_000_000, 20)],
                ..Default::default()
            },
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
        state.fire_due_timers();
        let tokens: Vec<u32> = seen.lock().iter().map(|m| m.seq()).collect();
        assert_eq!(tokens, vec![10, 20, 30]);
    }

    /// Stages one effect of every kind per data message and notes what
    /// `backlog` said on the way in.
    struct Stager {
        dest: NodeId,
        probed: NodeId,
        backlog_seen: std::sync::Arc<Mutex<Vec<Option<usize>>>>,
    }

    impl Algorithm for Stager {
        fn on_message(&mut self, ctx: &mut dyn ioverlay_api::Context, msg: Msg) {
            if msg.ty() != MsgType::Data {
                return;
            }
            self.backlog_seen.lock().push(ctx.backlog(self.probed));
            ctx.send(msg, self.dest);
            ctx.send_to_observer(Msg::control(MsgType::Custom(0x2001), ctx.local_id(), 0));
            ctx.set_timer(1_000_000_000, 77);
            ctx.probe_rtt(self.probed);
            ctx.close_link(self.dest);
        }
    }

    #[test]
    fn one_callbacks_effects_are_applied_before_the_next_runs() {
        let (dest, probed, observer) = (
            NodeId::loopback(2),
            NodeId::loopback(3),
            NodeId::loopback(4),
        );
        let backlog_seen = std::sync::Arc::new(Mutex::new(&TEST_RECORDER, Vec::new()));
        let alg = Stager {
            dest,
            probed,
            backlog_seen: backlog_seen.clone(),
        };
        let mut state = EngineState::new(
            NodeId::loopback(9_998),
            EngineConfig::default().with_observer(observer),
            Box::new(alg),
            unbounded().0,
        );
        for peer in [dest, probed, observer] {
            state.senders.insert(peer, SenderLink::detached(8));
        }
        let queue_of = |state: &EngineState, peer| state.senders[&peer].queue.clone();
        let (to_dest, to_probed, to_observer) = (
            queue_of(&state, dest),
            queue_of(&state, probed),
            queue_of(&state, observer),
        );
        let data = Msg::data(NodeId::loopback(7), 1, 0, &b"x"[..]);
        state.dispatch_to_algorithm(Some(NodeId::loopback(7)), 0, data.clone());

        // Send-then-close: a closed buffer takes nothing, so the data is
        // in it only because the stage was flushed before the close.
        assert!(to_dest.is_closed() && !state.senders.contains_key(&dest));
        assert_eq!(to_dest.try_pop(), Some(data.clone()));
        assert_eq!(to_observer.len(), 1);
        assert_eq!(to_probed.try_pop().map(|m| m.ty()), Some(MsgType::Ping));
        assert_eq!((state.timers.len(), state.probes.len()), (1, 1));
        assert!(state.send_stage.is_empty(), "nothing waits for the quantum's flush");
        let s = &state.staged;
        assert!(
            s.sends.is_empty()
                && s.send_counts.is_empty()
                && s.observer_msgs.is_empty()
                && s.timers.is_empty()
                && s.probes.is_empty()
                && s.closes.is_empty(),
            "the scratch comes back drained: {s:?}"
        );

        // The second callback already sees the first one's probe queued.
        to_probed.push(Msg::control(MsgType::Ping, state.id, 0)).unwrap();
        state.senders.insert(dest, SenderLink::detached(8));
        state.dispatch_to_algorithm(Some(NodeId::loopback(7)), 0, data);
        assert_eq!(*backlog_seen.lock(), vec![Some(0), Some(1)]);
        assert_eq!((state.timers.len(), state.probes.len()), (2, 2));
    }

    /// A node forwarding `apps` from `up` to `dest` over detached links:
    /// the state, `up`'s receive buffer and `dest`'s send buffer.
    fn forwarding_state(
        up: NodeId,
        dest: NodeId,
        apps: &[u32],
    ) -> (EngineState, CircularQueue<Msg>, CircularQueue<Msg>) {
        let alg = apps
            .iter()
            .fold(ioverlay_algorithms::StaticForwarder::new(), |f, &app| {
                f.route(app, vec![dest])
            });
        let mut state = EngineState::new(
            NodeId::loopback(9_997),
            EngineConfig::default(),
            Box::new(alg),
            unbounded().0,
        );
        let inbound = CircularQueue::with_capacity(SWITCH_QUANTUM);
        state.receivers.insert(
            up,
            ReceiverLink {
                queue: inbound.clone(),
                meter: Arc::new(Mutex::new(
                    &classes::ENGINE_METER,
                    ThroughputMeter::new(1_000_000_000),
                )),
                opened: 0,
                stream: None,
            },
        );
        state.wrr.set_weight(up, 1);
        state
            .senders
            .insert(dest, SenderLink::detached(SWITCH_QUANTUM));
        let outbound = state.senders[&dest].queue.clone();
        (state, inbound, outbound)
    }

    /// The forwarded-message path allocates nothing in steady state: the
    /// staged-effects scratch and the per-destination stage vectors are
    /// the same buffers, at the same capacity, a thousand quanta later.
    #[test]
    fn a_thousand_quanta_leave_the_dispatch_scratch_where_it_was() {
        let (up, dest) = (NodeId::loopback(2), NodeId::loopback(3));
        let (mut state, inbound, outbound) = forwarding_state(up, dest, &[1]);
        let payload = bytes::Bytes::from(vec![7u8; 64]);
        let mut sink = Vec::new();
        let mut quantum = |state: &mut EngineState, round: u32| {
            for i in 0..SWITCH_QUANTUM as u32 {
                let seq = round * SWITCH_QUANTUM as u32 + i;
                inbound.push(Msg::data(up, 1, seq, payload.clone())).unwrap();
            }
            assert_eq!(state.switch_round(1024), SWITCH_QUANTUM);
            sink.clear();
            assert_eq!(outbound.pop_batch(usize::MAX, &mut sink), SWITCH_QUANTUM);
            assert!(sink.iter().map(Msg::seq).is_sorted());
        };
        let fingerprint = |state: &EngineState| {
            let s = &state.staged;
            let stage = &state.send_stage.by_dest[&dest];
            [
                (s.sends.as_ptr() as usize, s.sends.capacity()),
                (s.send_counts.as_ptr() as usize, s.send_counts.capacity()),
                (stage.as_ptr() as usize, stage.capacity()),
                (
                    state.switch_batch.as_ptr() as usize,
                    state.switch_batch.capacity(),
                ),
            ]
        };
        quantum(&mut state, 0); // warm-up: the vectors grow once
        let before = fingerprint(&state);
        for round in 1..=1_000 {
            quantum(&mut state, round);
        }
        assert_eq!(fingerprint(&state), before);
        assert_eq!(state.switched, 1_001 * SWITCH_QUANTUM as u64);
        let route = ioverlay_api::AppRoute {
            app: 1,
            ups: vec![up],
            downs: vec![dest],
        };
        assert!(state.routes.iter().eq([&route]));
    }

    /// One upstream feeds eight applications and fails: the domino
    /// reaches the downstream and the local inbox in application order,
    /// whatever order the applications' data arrived in.
    #[test]
    fn a_failed_upstream_breaks_its_applications_in_app_order() {
        let (up, dest) = (NodeId::loopback(2), NodeId::loopback(3));
        let apps = [7u32, 3, 5, 1, 0, 6, 2, 4];
        let (mut state, inbound, outbound) = forwarding_state(up, dest, &apps);
        for (seq, &app) in apps.iter().enumerate() {
            inbound
                .push(Msg::data(up, app, seq as u32, &b"x"[..]))
                .unwrap();
        }
        assert_eq!(state.switch_round(1024), apps.len());
        let mut sink = Vec::new();
        assert_eq!(outbound.pop_batch(usize::MAX, &mut sink), apps.len());

        state.handle_upstream_failed(up);
        sink.clear();
        outbound.pop_batch(usize::MAX, &mut sink);
        let downstream: Vec<(MsgType, u32)> = sink.iter().map(|m| (m.ty(), m.app())).collect();
        let expected: Vec<(MsgType, u32)> =
            (0..8).map(|app| (MsgType::BrokenSource, app)).collect();
        assert_eq!(downstream, expected, "the downstream hears in app order");
        let local: Vec<(MsgType, u32)> = state
            .local_inbox
            .iter()
            .map(|m| (m.ty(), m.app()))
            .filter(|(ty, _)| *ty == MsgType::BrokenSource)
            .collect();
        assert_eq!(local, expected, "the algorithm hears in app order");
        assert_eq!(state.tel.snapshot().counter("domino_teardowns"), Some(8));
    }

    #[test]
    fn status_report_includes_algorithm_extension() {
        let (mut state, _seen) = state();
        state.switched = 7;
        let report = state.status_report();
        assert_eq!(report.node, Some(state.id));
        assert_eq!(report.switched_msgs, 7);
        assert_eq!(report.algorithm["recorded"], 0);
        assert!(report.upstreams.is_empty());
    }

    #[test]
    fn broken_source_domino_clears_app_routes() {
        let (mut state, seen) = state();
        let upstream = NodeId::loopback(2);
        // Pretend app 5 flowed in from `upstream` only.
        state.routes.note_upstream(5, upstream);
        state.routes.note_downstream(5, NodeId::loopback(1)); // unreachable downstream
        state.dispatch_to_algorithm(
            Some(upstream),
            0,
            Msg::control(MsgType::BrokenSource, upstream, 5),
        );
        assert_eq!(state.routes.iter().count(), 0, "routes cleared");
        // The algorithm still saw the BrokenSource itself.
        assert!(seen.lock().iter().any(|m| m.ty() == MsgType::BrokenSource));
    }
}
