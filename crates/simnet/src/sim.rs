//! The simulation driver.

use std::collections::HashMap;

use ioverlay_api::{
    Algorithm, ControlParams, LinkDirection, Msg, MsgType, Nanos, NodeId, StagedEffects,
    ThroughputPayload,
};
use ioverlay_ratelimit::{BucketId, BucketSet, NodeBandwidth, Rate, TokenBucket};
use ioverlay_telemetry::{FlowKey, SpanStage};

use crate::event::{Event, EventQueue, MsgKey, MsgStore};
use crate::index::{LinkIdx, NodeIdx};
use crate::link::{BlockedSend, DirectedLink};
use crate::metrics::Metrics;
use crate::node::{OutLink, SimCtx, SimNode};

const SEC: Nanos = 1_000_000_000;

/// Rate used internally to represent "unlimited": high enough never to
/// delay, low enough to keep the arithmetic exact.
fn unlimited_rate() -> Rate {
    Rate::bytes_per_sec(1 << 50)
}

/// Tunables of a simulation. Defaults are chosen to mirror the paper's
/// experimental setup (5 KB messages, buffers of a handful of messages,
/// wide-area-ish latencies).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Scenario seed; everything random derives from it.
    pub seed: u64,
    /// Capacity, in messages, of each receive buffer and each send
    /// buffer (the paper's per-node "buffer size").
    pub buffer_msgs: usize,
    /// Default one-way link latency.
    pub default_latency: Nanos,
    /// Maximum messages in flight per link (TCP window stand-in).
    pub link_window: usize,
    /// Interval between QoS measurement reports to algorithms.
    pub measure_interval: Nanos,
    /// Averaging window of throughput meters.
    pub measure_window: Nanos,
    /// Delay between a node dying and its peers detecting it — the
    /// paper's socket-exception / inactivity detection latency.
    pub failure_detect_delay: Nanos,
    /// Maximum messages a node switches per `Process` event before
    /// yielding.
    pub process_batch: usize,
    /// Distributed-tracing sample rate: every `trace_sample`-th locally
    /// originated data message is traced hop by hop. `0` (default)
    /// disables tracing.
    pub trace_sample: u32,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            buffer_msgs: 10,
            default_latency: 10_000_000, // 10 ms
            link_window: 4,
            measure_interval: SEC,
            measure_window: 4 * SEC,
            failure_detect_delay: 200_000_000, // 200 ms
            process_batch: 4096,
            trace_sample: 0,
        }
    }
}

/// Builder for a [`Sim`].
///
/// # Example
///
/// ```
/// use ioverlay_simnet::SimBuilder;
///
/// let sim = SimBuilder::new(42)
///     .buffer_msgs(5)
///     .latency_ms(25)
///     .build();
/// assert_eq!(sim.now(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimBuilder {
    config: SimConfig,
}

impl SimBuilder {
    /// Starts a builder with the given scenario seed.
    pub fn new(seed: u64) -> Self {
        Self {
            config: SimConfig {
                seed,
                ..SimConfig::default()
            },
        }
    }

    /// Sets the per-buffer capacity in messages (paper: 5 for the
    /// back-pressure experiments, 10000 for the large-buffer ones).
    pub fn buffer_msgs(mut self, cap: usize) -> Self {
        self.config.buffer_msgs = cap;
        self
    }

    /// Sets the default one-way link latency in milliseconds.
    pub fn latency_ms(mut self, ms: u64) -> Self {
        self.config.default_latency = ms * 1_000_000;
        self
    }

    /// Sets the failure-detection delay in milliseconds.
    pub fn failure_detect_ms(mut self, ms: u64) -> Self {
        self.config.failure_detect_delay = ms * 1_000_000;
        self
    }

    /// Sets the QoS measurement interval in milliseconds.
    pub fn measure_interval_ms(mut self, ms: u64) -> Self {
        self.config.measure_interval = ms * 1_000_000;
        self
    }

    /// Sets the tracing sample rate: every `n`-th locally originated
    /// data message is traced; `0` disables tracing.
    pub fn trace_sample(mut self, n: u32) -> Self {
        self.config.trace_sample = n;
        self
    }

    /// Overrides the full configuration.
    pub fn config(mut self, config: SimConfig) -> Self {
        self.config = config;
        self
    }

    /// Builds the simulator at virtual time zero.
    pub fn build(self) -> Sim {
        Sim {
            metrics: Metrics::new(self.config.measure_window),
            config: self.config,
            now: 0,
            events: EventQueue::default(),
            msgs: MsgStore::default(),
            nodes: Vec::new(),
            alive: Vec::new(),
            links: Vec::new(),
            buckets: BucketSet::new(),
            link_rate_presets: HashMap::new(),
            latency_presets: HashMap::new(),
            observer_log: Vec::new(),
            staged: StagedEffects::default(),
            flow_batch: Vec::new(),
            retry_order: Vec::new(),
            retry_spare: Vec::new(),
        }
    }
}

/// A deterministic discrete-event simulation of an iOverlay deployment.
///
/// See the crate docs for the modeling rationale and an end-to-end
/// example.
pub struct Sim {
    config: SimConfig,
    now: Nanos,
    events: EventQueue,
    /// Messages of scheduled `Arrival` / `Inject` events.
    msgs: MsgStore,
    /// Node arena, addressed by `NodeIdx`; nodes are never removed.
    nodes: Vec<SimNode>,
    /// Whether each node is alive, by `NodeIdx`. Apart from the nodes
    /// so that checking a destination touches no other node's memory.
    alive: Vec<bool>,
    /// Link arena, addressed by `LinkIdx`; one record per ordered node
    /// pair that ever had a link, never removed.
    links: Vec<DirectedLink>,
    /// Every token bucket of the run; nodes and links hold indices.
    buckets: BucketSet,
    /// Statistics, and the address directory (see [`Metrics`]).
    metrics: Metrics,
    link_rate_presets: HashMap<(NodeId, NodeId), Rate>,
    latency_presets: HashMap<(NodeId, NodeId), Nanos>,
    observer_log: Vec<(Nanos, NodeId, Msg)>,
    /// Staging area lent to every algorithm callback in turn.
    staged: StagedEffects,
    /// Flow observations of the sends being applied, recorded in one
    /// batch when the callback (or retry pass, or teardown) is done.
    flow_batch: Vec<(FlowKey, u64, u64)>,
    /// Scratch of `retry_blocked`: the pass's upstream order, and the
    /// buffer that collects what is still blocked.
    retry_order: Vec<LinkIdx>,
    retry_spare: Vec<BlockedSend>,
}

impl Sim {
    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The active configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The run's measurements: totals, counters and windowed rates.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Messages sent to the observer so far: `(time, sender, message)`.
    pub fn observer_log(&self) -> &[(Nanos, NodeId, Msg)] {
        &self.observer_log
    }

    /// Windowed throughput of link `from -> to` in KBps at the current
    /// virtual time.
    pub fn link_kbps(&self, from: NodeId, to: NodeId) -> f64 {
        self.metrics.link_kbps(from, to, self.now)
    }

    /// Windowed application goodput at `node` in KBps.
    pub fn received_kbps(&self, node: NodeId, app: u32) -> f64 {
        self.metrics.received_kbps(node, app, self.now)
    }

    fn node_idx(&self, id: NodeId) -> Option<NodeIdx> {
        self.metrics.dir.node(id)
    }

    fn node(&self, id: NodeId) -> Option<&SimNode> {
        self.node_idx(id).map(|idx| &self.nodes[idx.ix()])
    }

    /// The link `from -> to` if its sender half is open.
    fn open_link(&self, from: NodeId, to: NodeId) -> Option<LinkIdx> {
        self.node(from)?.out_link(to)
    }

    fn schedule(&mut self, at: Nanos, event: Event) {
        debug_assert!(at >= self.now, "events are never scheduled in the past");
        self.events.schedule(at, event);
    }

    /// Adds a node running `alg` with the given emulated bandwidth.
    ///
    /// The algorithm's `on_start` runs immediately (at the current
    /// virtual time) and its periodic QoS measurement ticks are armed.
    ///
    /// # Panics
    ///
    /// Panics if a node with this id already exists.
    pub fn add_node(&mut self, id: NodeId, bandwidth: NodeBandwidth, alg: Box<dyn Algorithm>) {
        let idx = self.metrics.add_node(id);
        let now = self.now;
        let mut mk = |rate: Option<Rate>| -> BucketId {
            let r = rate.unwrap_or_else(unlimited_rate);
            self.buckets.insert(TokenBucket::with_burst(
                r,
                (r.as_bytes_per_sec() / 8).max(8 * 1024),
                now,
            ))
        };
        let (up, down, total) = (
            mk(bandwidth.up()),
            mk(bandwidth.down()),
            mk(bandwidth.total()),
        );
        self.alive.push(true);
        self.nodes.push(SimNode::seeded(
            id,
            bandwidth,
            alg,
            self.config.buffer_msgs,
            self.config.seed,
            up,
            down,
            total,
        ));
        self.run_algorithm(idx, None, |alg, ctx| alg.on_start(ctx));
        self.schedule(
            self.now + self.config.measure_interval,
            Event::MeasureTick(idx),
        );
    }

    /// Declares the observer address a node reports to.
    pub fn set_observer(&mut self, node: NodeId, observer: NodeId) {
        if let Some(idx) = self.node_idx(node) {
            self.nodes[idx.ix()].observer = Some(observer);
        }
    }

    /// Sets the bandwidth of the directed link `from -> to` (applies to
    /// the existing link and to any future recreation of it).
    pub fn set_link_rate(&mut self, from: NodeId, to: NodeId, rate: Option<Rate>) {
        match rate {
            Some(r) => {
                self.link_rate_presets.insert((from, to), r);
            }
            None => {
                self.link_rate_presets.remove(&(from, to));
            }
        }
        let now = self.now;
        if let Some(link) = self.open_link(from, to) {
            self.links[link.ix()].set_link_rate(rate, now, &mut self.buckets);
        }
    }

    /// Sets the one-way latency of links between `a` and `b` (both
    /// directions).
    pub fn set_latency(&mut self, a: NodeId, b: NodeId, latency: Nanos) {
        self.latency_presets.insert((a, b), latency);
        self.latency_presets.insert((b, a), latency);
        for (u, v) in [(a, b), (b, a)] {
            if let Some(link) = self.open_link(u, v) {
                self.links[link.ix()].latency = latency;
            }
        }
    }

    fn retune(&mut self, node: NodeId, bucket: fn(&SimNode) -> BucketId, rate: Option<Rate>) {
        let now = self.now;
        if let Some(id) = self.node(node).map(bucket) {
            self.buckets
                .get_mut(id)
                .set_rate(rate.unwrap_or_else(unlimited_rate), now);
        }
    }

    /// Retunes a node's emulated total bandwidth at runtime.
    pub fn set_node_total(&mut self, node: NodeId, rate: Option<Rate>) {
        self.retune(node, |n| n.total_bucket, rate);
    }

    /// Retunes a node's emulated uplink bandwidth at runtime (Fig. 6(b):
    /// *"we proceed to set the uplink available bandwidth of node D to
    /// 30 KBps"*).
    pub fn set_node_up(&mut self, node: NodeId, rate: Option<Rate>) {
        self.retune(node, |n| n.up_bucket, rate);
    }

    /// Retunes a node's emulated downlink bandwidth at runtime.
    pub fn set_node_down(&mut self, node: NodeId, rate: Option<Rate>) {
        self.retune(node, |n| n.down_bucket, rate);
    }

    /// Retunes the switch's weighted-round-robin weight for one of a
    /// node's upstreams — the paper's *"dynamically tunable weights"*.
    /// A weight of 0 parks the upstream (its buffer is never serviced).
    ///
    /// A weight may be given before `upstream` has sent anything; it
    /// takes part in the rotation from then on. Nothing happens unless
    /// both addresses are nodes of the simulation.
    pub fn set_switch_weight(&mut self, node: NodeId, upstream: NodeId, weight: u32) {
        let (Some(to), Some(from)) = (self.node_idx(node), self.node_idx(upstream)) else {
            return;
        };
        let link = self.link_record(from, to);
        let n = &mut self.nodes[to.ix()];
        let pos = n.attach_incoming(upstream, link);
        n.wrr_set_weight(pos, weight);
    }

    /// Overrides the buffer capacity of one node (existing and future
    /// links).
    pub fn set_node_buffer(&mut self, node: NodeId, cap: usize) {
        let Some(idx) = self.node_idx(node) else {
            return;
        };
        let n = &mut self.nodes[idx.ix()];
        n.recv_cap = cap;
        for out in &n.outgoing {
            self.links[out.link.ix()].cap = cap;
        }
    }

    /// Delivers an observer-style control message to `node` at absolute
    /// virtual time `at`. The node must exist when this is called;
    /// otherwise nothing is scheduled.
    pub fn inject(&mut self, at: Nanos, node: NodeId, msg: Msg) {
        if let Some(node) = self.node_idx(node) {
            let msg = self.msgs.insert(msg);
            self.schedule(at.max(self.now), Event::Inject { node, msg });
        }
    }

    /// Schedules a node failure at absolute virtual time `at`. The node
    /// must exist when this is called; otherwise nothing is scheduled.
    pub fn kill_at(&mut self, at: Nanos, node: NodeId) {
        if let Some(node) = self.node_idx(node) {
            self.schedule(at.max(self.now), Event::KillNode(node));
        }
    }

    /// Whether `node` is currently alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.node_idx(node).is_some_and(|idx| self.alive[idx.ix()])
    }

    /// The downstream neighbors of `node` (outgoing links).
    pub fn downstreams_of(&self, node: NodeId) -> Vec<NodeId> {
        self.node(node)
            .map(|n| n.outgoing.iter().map(|e| e.peer).collect())
            .unwrap_or_default()
    }

    /// The upstream neighbors of `node` (receive buffers).
    pub fn upstreams_of(&self, node: NodeId) -> Vec<NodeId> {
        self.node(node)
            .map(|n| self.upstreams(n).map(|(peer, _)| peer).collect())
            .unwrap_or_default()
    }

    /// Upstreams `node` holds a receive buffer for, in address order.
    fn upstreams<'a>(
        &'a self,
        node: &'a SimNode,
    ) -> impl Iterator<Item = (NodeId, &'a DirectedLink)> + 'a {
        node.incoming
            .iter()
            .map(|e| (e.peer, &self.links[e.link.ix()]))
            .filter(|(_, link)| link.rx_open)
    }

    /// The emulated bandwidth profile a node was created with.
    pub fn node_bandwidth(&self, node: NodeId) -> Option<NodeBandwidth> {
        self.node(node).map(|n| n.bandwidth)
    }

    /// Builds the node's status report — the same data a real node sends
    /// the observer on each `request`: buffer lengths, neighbors,
    /// per-link throughput, and the algorithm's own status.
    pub fn status_report(&self, node_id: NodeId) -> Option<ioverlay_api::StatusReport> {
        let idx = self.node_idx(node_id)?;
        Some(self.status_report_of(idx))
    }

    fn status_report_of(&self, idx: NodeIdx) -> ioverlay_api::StatusReport {
        let now = self.now;
        let node = &self.nodes[idx.ix()];
        let recv: Vec<(NodeId, usize)> = self
            .upstreams(node)
            .map(|(peer, link)| (peer, link.recv.len()))
            .collect();
        let ups: Vec<NodeId> = recv.iter().map(|&(peer, _)| peer).collect();
        let mut send = Vec::with_capacity(node.outgoing.len());
        let mut downs = Vec::with_capacity(node.outgoing.len());
        let mut link_kbps = Vec::with_capacity(node.outgoing.len());
        for out in &node.outgoing {
            send.push((out.peer, self.links[out.link.ix()].depth()));
            downs.push(out.peer);
            link_kbps.push((out.peer, self.metrics.link_kbps_at(out.link, now)));
        }
        let alg_status = node
            .alg
            .as_ref()
            .map(|a| a.status())
            .unwrap_or(serde_json::Value::Null);
        let telemetry = node.tel.enabled().then(|| node.tel.snapshot());
        // Virtual time has no wall anchor; the observer treats the
        // timestamps as relative, which is exactly what they are.
        let spans = node.tel.enabled().then(|| {
            let (spans, dropped) = node.tel.spans().consistent_view();
            ioverlay_telemetry::SpanBatch {
                wall_anchor: 0,
                dropped,
                spans,
            }
        });
        // The sim is single-threaded, so reports always carry the
        // full ring — there is no piggyback watermark to advance.
        let series = node.tel.enabled().then(|| ioverlay_telemetry::SeriesBatch {
            windows: node.tel.series().snapshot(),
        });
        let flows = node.tel.enabled().then(|| node.tel.flows().snapshot());
        ioverlay_api::StatusReport {
            node: Some(node.id),
            recv_buffers: recv,
            send_buffers: send,
            upstreams: ups,
            downstreams: downs,
            link_kbps,
            switched_msgs: node.switched,
            algorithm: alg_status,
            telemetry,
            spans,
            series,
            flows,
        }
    }

    /// Runs a read-only query against a node's algorithm state.
    pub fn algorithm_status(&self, node: NodeId) -> serde_json::Value {
        self.node(node)
            .and_then(|n| n.alg.as_ref())
            .map(|a| a.status())
            .unwrap_or(serde_json::Value::Null)
    }

    /// Advances the simulation until virtual time `deadline`.
    pub fn run_until(&mut self, deadline: Nanos) {
        while let Some(at) = self.events.peek_time() {
            if at > deadline {
                break;
            }
            let (at, event) = self.events.pop().expect("peeked event exists");
            debug_assert!(at >= self.now, "event queue went backwards");
            self.now = at;
            self.handle(event);
            debug_assert!(self.staged.is_empty() && self.flow_batch.is_empty());
        }
        self.now = self.now.max(deadline);
    }

    /// Advances the simulation by `duration` nanoseconds of virtual time.
    pub fn run_for(&mut self, duration: Nanos) {
        let deadline = self.now + duration;
        self.run_until(deadline);
    }

    /// Number of pending events (diagnostics).
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    // ------------------------------------------------------------------
    // event handlers
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrival { link, msg } => self.handle_arrival(link, msg),
            Event::Process(node) => self.handle_process(node),
            Event::Timer { node, token } => {
                if self.alive[node.ix()] {
                    self.run_algorithm(node, None, |alg, ctx| alg.on_timer(ctx, token));
                }
            }
            Event::MeasureTick(node) => self.handle_measure_tick(node),
            Event::KillNode(node) => self.handle_kill(node),
            Event::LinkFailureDetected { survivor, failed } => {
                self.handle_peer_gone(survivor, failed, true);
            }
            Event::UpstreamClosed { node, upstream } => {
                self.handle_peer_gone(node, upstream, false);
            }
            Event::Inject { node, msg } => {
                let msg = self.msgs.take(msg);
                self.deliver_local(node, msg);
            }
        }
    }

    fn handle_arrival(&mut self, l: LinkIdx, msg: MsgKey) {
        let mut msg = self.msgs.take(msg);
        let bytes = msg.wire_len() as u64;
        let now = self.now;
        let link = &mut self.links[l.ix()];
        let (from, to) = (link.from, link.to);
        if !self.alive[to.ix()] {
            self.metrics.record_lost(Some(l), 1);
            if link.tx_open {
                link.outstanding = link.outstanding.saturating_sub(1);
            }
            return;
        }
        // Ensure the receive buffer exists; a first arrival from a new
        // upstream also notifies the algorithm (persistent connection
        // accepted).
        if !link.rx_open {
            link.rx_open = true;
            let (from_id, app) = (link.from_id, msg.app());
            let node = &mut self.nodes[to.ix()];
            let pos = node.attach_incoming(from_id, l);
            node.wrr_set_weight(pos, 1);
            node.tel.record_connect(now, from_id, false);
            self.deliver_local(to, Msg::control(MsgType::UpstreamJoined, from_id, app));
        }
        let link = &mut self.links[l.ix()];
        let node = &mut self.nodes[to.ix()];
        if link.recv.len() < node.recv_cap {
            if msg.trace().is_some() {
                // Virtual receive is instantaneous: a zero-width span
                // anchors the hop and rewrites the carried context.
                node.tel
                    .record_recv_span(link.to_id, link.from_id, &mut msg, now, now);
            }
            node.ready_inputs += u32::from(link.recv.is_empty());
            link.recv.push_back(msg);
            self.metrics.record_link_delivery(l, bytes, now);
            if link.tx_open {
                link.outstanding = link.outstanding.saturating_sub(1);
            }
            self.kick_link(l);
            self.schedule(now, Event::Process(to));
            // Freed send-buffer space may unblock fanouts at the sender.
            self.schedule(now, Event::Process(from));
        } else if link.tx_open {
            // Receiver buffer full: the message waits in the (virtual)
            // kernel buffer and the link stays throttled — TCP back
            // pressure.
            link.stalled.push_back(msg);
        }
    }

    fn handle_process(&mut self, idx: NodeIdx) {
        if !self.alive[idx.ix()] {
            return;
        }
        for _ in 0..self.config.process_batch {
            // 1. Retry blocked fanouts ("remaining senders").
            self.retry_blocked(idx);
            // 2. Engine-internal deliveries first (control plane).
            if let Some(msg) = self.nodes[idx.ix()].local_inbox.pop_front() {
                self.deliver_to_algorithm(idx, None, msg);
                continue;
            }
            // 3. Switch one data-plane message, WRR over receive buffers.
            let Some(l) = self.pick_upstream(idx) else {
                break;
            };
            let now = self.now;
            let node = &mut self.nodes[idx.ix()];
            let link = &mut self.links[l.ix()];
            node.switched += 1;
            let occupancy = link.recv.len() as u64;
            let msg = link
                .recv
                .pop_front()
                .expect("pick_upstream returns a non-empty buffer");
            node.ready_inputs -= u32::from(link.recv.is_empty());
            node.tel.record_switch_batch(1, occupancy);
            if let Some(c) = msg.trace().filter(ioverlay_api::TraceContext::is_sampled) {
                node.tel.record_hop_span(
                    node.id,
                    Some(link.from_id),
                    c.trace_id,
                    c.parent_span,
                    SpanStage::Switch,
                    now,
                    now,
                );
            }
            // Freed receive space: accept one stalled in-network message.
            self.resume_stalled(l);
            self.deliver_to_algorithm(idx, Some(l), msg);
        }
        // If work remains, continue in a fresh event (bounded batches keep
        // single events from monopolizing the virtual instant).
        let node = &self.nodes[idx.ix()];
        let input = node.ready_inputs > 0 && node.has_switchable_input(&self.links);
        if input || !node.local_inbox.is_empty() {
            self.schedule(self.now, Event::Process(idx));
        }
    }

    /// Chooses the next upstream to service: WRR order, skipping empty
    /// buffers and upstreams with a blocked fanout.
    fn pick_upstream(&mut self, idx: NodeIdx) -> Option<LinkIdx> {
        let node = &mut self.nodes[idx.ix()];
        debug_assert_eq!(
            node.ready_inputs as usize,
            node.incoming
                .iter()
                .filter(|e| !self.links[e.link.ix()].recv.is_empty())
                .count()
        );
        // Most `Process` events find nothing to switch. With at most one
        // upstream that is known from the node alone, and the rotation
        // needs no turn: selecting the only upstream raises its credit
        // by its weight and charges it the same total.
        if node.ready_inputs == 0 && node.incoming.len() <= 1 {
            return None;
        }
        let candidates = node.wrr_len();
        for _ in 0..candidates {
            let pos = node.wrr_next()?;
            let l = node.incoming[pos].link;
            let link = &self.links[l.ix()];
            let blocked = node.blocked_links > 0 && !link.blocked.is_empty();
            if !blocked && link.rx_open && !link.recv.is_empty() {
                return Some(l);
            }
        }
        None
    }

    fn retry_blocked(&mut self, idx: NodeIdx) {
        let node = &mut self.nodes[idx.ix()];
        debug_assert_eq!(
            node.blocked_links as usize,
            node.incoming
                .iter()
                .filter(|e| !self.links[e.link.ix()].blocked.is_empty())
                .count()
        );
        if node.blocked_links == 0 {
            return;
        }
        let mut order = std::mem::take(&mut self.retry_order);
        order.extend(
            node.incoming
                .iter()
                .map(|e| e.link)
                .filter(|l| !self.links[l.ix()].blocked.is_empty()),
        );
        // Rotate the retry order so a single freed sender slot is
        // granted to competing upstreams in turn — fixed iteration
        // order would starve all but the smallest id.
        let shift = (node.retry_rotor as usize) % order.len();
        order.rotate_left(shift);
        node.retry_rotor = node.retry_rotor.wrapping_add(1);
        for &upstream in &order {
            // `sends` empties into the link buffers or into `still`;
            // whichever of the two vectors ends up empty is the spare of
            // the next pass, so a pass allocates nothing.
            let mut sends = std::mem::take(&mut self.links[upstream.ix()].blocked);
            let mut still = std::mem::take(&mut self.retry_spare);
            let total = sends.len();
            for (msg, dest) in sends.drain(..) {
                if let Err(msg) = self.enqueue_send(idx, dest, msg, Some(upstream)) {
                    still.push((msg, dest));
                }
            }
            self.flush_flows(idx);
            let retried = total - still.len();
            let node = &mut self.nodes[idx.ix()];
            if retried > 0 {
                let upstream_id = self.links[upstream.ix()].from_id;
                node.tel
                    .record_forward_retry(self.now, upstream_id, retried as u64);
            }
            if still.is_empty() {
                node.blocked_links -= 1;
                self.retry_spare = still;
                // The head-of-line block cleared; the upstream's buffer
                // can drain again.
                self.schedule(self.now, Event::Process(idx));
            } else {
                self.links[upstream.ix()].blocked = still;
                self.retry_spare = sends;
            }
        }
        order.clear();
        self.retry_order = order;
    }

    /// Accepts one stalled in-network message of link `l` now that its
    /// receiver freed a receive slot.
    fn resume_stalled(&mut self, l: LinkIdx) {
        let link = &mut self.links[l.ix()];
        if !link.tx_open {
            return;
        }
        let Some(mut msg) = link.stalled.pop_front() else {
            return;
        };
        let bytes = msg.wire_len() as u64;
        let now = self.now;
        let node = &mut self.nodes[link.to.ix()];
        if msg.trace().is_some() {
            node.tel
                .record_recv_span(link.to_id, link.from_id, &mut msg, now, now);
        }
        node.ready_inputs += u32::from(link.recv.is_empty());
        link.recv.push_back(msg);
        link.outstanding = link.outstanding.saturating_sub(1);
        self.metrics.record_link_delivery(l, bytes, now);
        self.kick_link(l);
    }

    /// Runs the algorithm callback for one message, applying the
    /// middleware-level semantics first (app-route bookkeeping, the
    /// `BrokenSource` domino). `from` is the link the message was
    /// switched from, `None` for an engine-internal delivery.
    fn deliver_to_algorithm(&mut self, idx: NodeIdx, from: Option<LinkIdx>, msg: Msg) {
        let upstream = from.map(|l| self.links[l.ix()].from_id);
        match msg.ty() {
            MsgType::Data => {
                let app = msg.app();
                let payload = msg.payload().len() as u64;
                if let Some(up) = upstream {
                    self.nodes[idx.ix()].routes.note_upstream(app, up);
                }
                self.metrics
                    .record_data_received(idx, app, payload, self.now);
            }
            MsgType::BrokenSource => {
                if let Some(up) = upstream {
                    self.domino_broken_source(idx, msg.app(), up);
                }
            }
            MsgType::Request => {
                // The runtime answers status requests, mirroring the
                // engine; the report lands in the observer log.
                let report = self.status_report_of(idx);
                let id = self.nodes[idx.ix()].id;
                let status = Msg::new(MsgType::Status, id, 0, 0, report.encode());
                self.metrics
                    .record_sent(idx, MsgType::Status, status.wire_len() as u64, self.now);
                self.observer_log.push((self.now, id, status));
            }
            _ => {}
        }
        self.run_algorithm(idx, from, |alg, ctx| alg.on_message(ctx, msg));
    }

    /// Propagates a broken application source downstream — the paper's
    /// "Domino Effect", performed by the middleware so that algorithms
    /// only ever *react* to `BrokenSource`.
    fn domino_broken_source(&mut self, idx: NodeIdx, app: u32, gone_upstream: NodeId) {
        let node = &mut self.nodes[idx.ix()];
        let id = node.id;
        if let Some(owed) = node.routes.drop_upstream(app, gone_upstream) {
            node.tel.record_domino_teardown(self.now, app);
            for dest in owed {
                let broken = Msg::control(MsgType::BrokenSource, id, app);
                let _ = self.enqueue_send(idx, dest, broken, None);
            }
        }
        self.flush_flows(idx);
    }

    /// Runs one algorithm callback on the node where it lies in the
    /// arena, then applies what the callback staged.
    fn run_algorithm<F>(&mut self, idx: NodeIdx, from: Option<LinkIdx>, f: F)
    where
        F: FnOnce(&mut dyn Algorithm, &mut SimCtx<'_>),
    {
        let node = &mut self.nodes[idx.ix()];
        let Some(mut alg) = node.alg.take() else {
            return;
        };
        debug_assert!(self.staged.is_empty(), "callbacks do not nest");
        let mut ctx = SimCtx {
            node,
            links: &self.links,
            now: self.now,
            staged: &mut self.staged,
        };
        f(alg.as_mut(), &mut ctx);
        self.nodes[idx.ix()].alg = Some(alg);
        self.apply_staged(idx, from);
    }

    fn apply_staged(&mut self, idx: NodeIdx, from: Option<LinkIdx>) {
        let now = self.now;
        // Applying never runs a callback, so nothing stages meanwhile;
        // the vectors go back, emptied, with their capacity.
        let mut staged = std::mem::take(&mut self.staged);
        for (mut msg, dest) in staged.drain_sends() {
            // Trace sampling happens at the origin, as in the engine.
            if from.is_none() {
                let node = &mut self.nodes[idx.ix()];
                if node.sampler.sample(self.config.trace_sample, &msg) {
                    node.tel.start_trace(node.id, &mut msg, now);
                }
            }
            if let Err(msg) = self.enqueue_send(idx, dest, msg, from) {
                let upstream = from.expect("only forwarded sends are refused");
                let node = &mut self.nodes[idx.ix()];
                node.tel.record_buffer_full(now, dest, 1);
                let blocked = &mut self.links[upstream.ix()].blocked;
                if blocked.is_empty() {
                    node.blocked_links += 1;
                }
                blocked.push((msg, dest));
            }
        }
        self.flush_flows(idx);
        let id = self.nodes[idx.ix()].id;
        for msg in staged.observer_msgs.drain(..) {
            self.metrics
                .record_sent(idx, msg.ty(), msg.wire_len() as u64, now);
            self.observer_log.push((now, id, msg));
        }
        for (delay, token) in staged.timers.drain(..) {
            self.schedule(now + delay, Event::Timer { node: idx, token });
        }
        for peer in staged.probes.drain(..) {
            let latency = self.latency_for(id, peer);
            let rtt = 2 * latency;
            let micros = i32::try_from(rtt / 1_000).unwrap_or(i32::MAX);
            let pong = Msg::new(
                MsgType::Pong,
                peer,
                0,
                0,
                ControlParams::new(Some(micros), None).encode(),
            );
            let msg = self.msgs.insert(pong);
            self.schedule(now + rtt, Event::Inject { node: idx, msg });
        }
        for peer in staged.closes.drain(..) {
            self.close_link(idx, peer);
        }
        self.staged = staged;
    }

    /// Gracefully closes the directed link `from -> to`.
    fn close_link(&mut self, from: NodeIdx, to: NodeId) {
        let node = &mut self.nodes[from.ix()];
        let Ok(pos) = node.out_pos(to) else {
            return;
        };
        let l = node.outgoing.remove(pos).link;
        node.routes.forget_downstream(to);
        let latency = self.latency_for(self.nodes[from.ix()].id, to);
        let link = &mut self.links[l.ix()];
        let lost = link.drop_all();
        link.tx_open = false;
        let peer = link.to;
        if lost > 0 {
            self.metrics.record_lost(Some(l), lost);
        }
        self.prune_incoming(l);
        self.schedule(
            self.now + latency,
            Event::UpstreamClosed {
                node: peer,
                upstream: from,
            },
        );
    }

    /// Drops link `l` from its receiver's incoming list once nothing
    /// refers to it: sender half closed, no receive buffer, no weight.
    fn prune_incoming(&mut self, l: LinkIdx) {
        let link = &self.links[l.ix()];
        if link.tx_open || link.rx_open {
            return;
        }
        let node = &mut self.nodes[link.to.ix()];
        if let Ok(pos) = node.in_pos(link.from_id) {
            if !node.incoming[pos].in_wrr {
                node.incoming.remove(pos);
            }
        }
    }

    fn latency_for(&self, from: NodeId, to: NodeId) -> Nanos {
        self.latency_presets
            .get(&(from, to))
            .copied()
            .unwrap_or(self.config.default_latency)
    }

    /// Queues a message on the link `owner -> dest`, creating the link on
    /// first use (persistent connections). Hands the message back if the
    /// send must wait because the (bounded) buffer is full — only
    /// possible for traffic forwarded from a receive buffer (`from` is
    /// the link it was switched from); locally originated sends always
    /// enqueue (sources self-pace via `Context::backlog`).
    ///
    /// Flow accounting goes to `flow_batch`: the caller ends its run of
    /// sends with [`Sim::flush_flows`].
    fn enqueue_send(
        &mut self,
        owner: NodeIdx,
        dest: NodeId,
        msg: Msg,
        from: Option<LinkIdx>,
    ) -> Result<(), Msg> {
        let node = &self.nodes[owner.ix()];
        if node.id == dest {
            return Ok(()); // self-sends are silently consumed
        }
        // The list of open links answers for every destination but a new
        // one; only that goes through the address directory.
        let open = node.out_link(dest);
        let dest_idx = match open {
            Some(l) => Some(self.links[l.ix()].to),
            None => self.node_idx(dest),
        };
        let Some(dest_idx) = dest_idx.filter(|d| self.alive[d.ix()]) else {
            // Unknown or dead destination: the connect fails and the
            // engine reports it, exactly like a refused TCP connection.
            let record = open.or_else(|| self.metrics.dir.link(owner, dest_idx?));
            self.metrics.record_lost(record, 1);
            node.tel.record_connect_failed(self.now, dest);
            self.deliver_local(
                owner,
                Msg::control(MsgType::NeighborFailed, dest, msg.app()),
            );
            return Ok(());
        };
        // Create the link lazily.
        let l = match open {
            Some(l) => l,
            None => {
                let l = self.create_link(owner, dest_idx);
                self.deliver_local(
                    owner,
                    Msg::control(MsgType::DownstreamJoined, dest, msg.app()),
                );
                l
            }
        };
        let link = &mut self.links[l.ix()];
        if from.is_some() && !link.has_space() {
            return Err(msg);
        }
        let (ty, app, bytes) = (msg.ty(), msg.app(), msg.wire_len() as u64);
        // Flow accounting mirrors the engine's stage flush: keyed by
        // the message's origin, this hop's destination, and kind.
        let flow = FlowKey {
            src: msg.origin(),
            dst: dest,
            kind: ty.to_wire(),
        };
        link.queue.push_back(msg);
        if ty == MsgType::Data {
            self.nodes[owner.ix()].routes.note_downstream(app, dest);
        }
        self.metrics.record_sent(owner, ty, bytes, self.now);
        self.flow_batch.push((flow, 1, bytes));
        self.kick_link(l);
        Ok(())
    }

    /// Records the flow observations of the sends `owner` just made.
    fn flush_flows(&mut self, owner: NodeIdx) {
        if !self.flow_batch.is_empty() {
            self.nodes[owner.ix()]
                .tel
                .record_flow_batch(&self.flow_batch);
            self.flow_batch.clear();
        }
    }

    /// The record of the directed pair, created (both halves closed) on
    /// first mention.
    fn link_record(&mut self, from: NodeIdx, to: NodeIdx) -> LinkIdx {
        if let Some(l) = self.metrics.dir.link(from, to) {
            return l;
        }
        let l = self.metrics.add_link(from, to);
        let ends = |idx: NodeIdx| (idx, self.nodes[idx.ix()].id);
        self.links.push(DirectedLink::new(ends(from), ends(to)));
        debug_assert_eq!(self.links.len(), self.metrics.dir.link_count());
        l
    }

    /// Opens the sender half of `owner -> dest`.
    fn create_link(&mut self, owner: NodeIdx, dest: NodeIdx) -> LinkIdx {
        let l = self.link_record(owner, dest);
        let owner_id = self.nodes[owner.ix()].id;
        let d = &mut self.nodes[dest.ix()];
        let (dest_id, dest_down, dest_total) = (d.id, d.down_bucket, d.total_bucket);
        d.attach_incoming(owner_id, l);
        let latency = self.latency_for(owner_id, dest_id);
        let node = &mut self.nodes[owner.ix()];
        let link = &mut self.links[l.ix()];
        link.open_tx(
            node.recv_cap,
            [node.up_bucket, node.total_bucket, dest_down, dest_total],
            latency,
            self.config.link_window,
        );
        if let Some(&rate) = self.link_rate_presets.get(&(owner_id, dest_id)) {
            link.set_link_rate(Some(rate), self.now, &mut self.buckets);
        }
        let pos = node
            .out_pos(dest_id)
            .expect_err("an open link is never created twice");
        node.outgoing.insert(
            pos,
            OutLink {
                peer: dest_id,
                link: l,
            },
        );
        node.tel.record_connect(self.now, dest_id, true);
        l
    }

    /// Starts as many transmissions as the link's window allows.
    fn kick_link(&mut self, l: LinkIdx) {
        let now = self.now;
        loop {
            let link = &mut self.links[l.ix()];
            if !link.tx_open || !link.can_transmit() || !link.stalled.is_empty() {
                return;
            }
            let msg = link.queue.pop_front().expect("can_transmit checked");
            let bytes = msg.wire_len() as u64;
            let delay = self.buckets.reserve(link.chain(), bytes, now);
            link.outstanding += 1;
            if let Some(c) = msg.trace().filter(ioverlay_api::TraceContext::is_sampled) {
                // Same stage sequence as a real sender thread:
                // serialize (instantaneous in the model), an optional
                // token-bucket wait, then the socket write.
                let tel = &self.nodes[link.from.ix()].tel;
                let span = |stage, start, end| {
                    tel.record_hop_span(
                        link.from_id,
                        Some(link.to_id),
                        c.trace_id,
                        c.parent_span,
                        stage,
                        start,
                        end,
                    );
                };
                span(SpanStage::Serialize, now, now);
                if delay > 0 {
                    span(SpanStage::BucketWait, now, now + delay);
                }
                span(SpanStage::Write, now + delay, now + delay);
            }
            let at = now + delay + link.latency;
            let msg = self.msgs.insert(msg);
            self.schedule(at, Event::Arrival { link: l, msg });
        }
    }

    /// Delivers an engine-internal event message directly to a node's
    /// algorithm queue (bypassing the data path).
    fn deliver_local(&mut self, idx: NodeIdx, msg: Msg) {
        if self.alive[idx.ix()] {
            self.nodes[idx.ix()].local_inbox.push_back(msg);
            self.schedule(self.now, Event::Process(idx));
        }
    }

    fn handle_measure_tick(&mut self, idx: NodeIdx) {
        if !self.alive[idx.ix()] {
            return;
        }
        let node = &self.nodes[idx.ix()];
        let now = self.now;
        let id = node.id;
        let (upstreams, recv_depth) = self.upstreams(node).fold((0, 0), |(n, depth), (_, l)| {
            (n + 1, depth + l.recv.len() as u64)
        });
        let send_depth: u64 = node
            .outgoing
            .iter()
            .map(|e| self.links[e.link.ix()].depth() as u64)
            .sum();
        node.tel
            .set_link_gauges(upstreams, node.outgoing.len() as u64);
        node.tel.set_queue_gauges(recv_depth, send_depth);
        // Close a series window on the virtual tick, after the gauges so
        // the high-water marks are at least this tick's depths.
        node.tel.sample_series(now);
        // Reports only queue messages and events; neither link list
        // changes under the two loops.
        for i in 0..self.nodes[idx.ix()].outgoing.len() {
            let OutLink { peer, link } = self.nodes[idx.ix()].outgoing[i];
            self.report_throughput(idx, id, peer, link, LinkDirection::Downstream);
        }
        for i in 0..self.nodes[idx.ix()].incoming.len() {
            let entry = self.nodes[idx.ix()].incoming[i];
            if self.links[entry.link.ix()].rx_open {
                self.report_throughput(idx, id, entry.peer, entry.link, LinkDirection::Upstream);
            }
        }
        self.schedule(now + self.config.measure_interval, Event::MeasureTick(idx));
    }

    /// Delivers one periodic throughput report about `link` to `idx`.
    fn report_throughput(
        &mut self,
        idx: NodeIdx,
        id: NodeId,
        peer: NodeId,
        link: LinkIdx,
        direction: LinkDirection,
    ) {
        let payload = ThroughputPayload {
            peer,
            direction,
            kbps: self.metrics.link_kbps_at(link, self.now),
            lost_msgs: 0,
        };
        let ty = match direction {
            LinkDirection::Downstream => MsgType::DownThroughput,
            LinkDirection::Upstream => MsgType::UpThroughput,
        };
        self.deliver_local(idx, Msg::new(ty, id, 0, 0, payload.encode()));
    }

    fn handle_kill(&mut self, idx: NodeIdx) {
        if !std::mem::replace(&mut self.alive[idx.ix()], false) {
            return;
        }
        let node = &mut self.nodes[idx.ix()];
        node.local_inbox.clear();
        // Peers to tell: downstreams and upstreams, whatever their state.
        let mut notify: Vec<(NodeId, NodeIdx)> = Vec::new();
        // Everything buffered toward downstreams dies with the node.
        for out in &node.outgoing {
            let link = &mut self.links[out.link.ix()];
            link.drop_all();
            notify.push((out.peer, link.to));
        }
        // Peers that send *to* the dead node also need to notice, if
        // they live. Every link toward this node is on its incoming
        // list, so there is no need to look at the other nodes.
        for entry in &node.incoming {
            let link = &mut self.links[entry.link.ix()];
            if link.rx_open {
                link.rx_open = false;
                link.recv.clear();
                notify.push((entry.peer, link.from));
            } else if link.tx_open && self.alive[link.from.ix()] {
                notify.push((entry.peer, link.from));
            }
        }
        node.ready_inputs = 0;
        notify.sort_unstable();
        notify.dedup();
        let at = self.now + self.config.failure_detect_delay;
        for (_, peer) in notify {
            self.schedule(
                at,
                Event::LinkFailureDetected {
                    survivor: peer,
                    failed: idx,
                },
            );
        }
    }

    /// A peer disappeared (failure) or departed (graceful close): tear
    /// down both directions of state toward it, notify the algorithm, and
    /// run the domino for any application the peer was feeding.
    fn handle_peer_gone(&mut self, survivor: NodeIdx, gone: NodeIdx, abrupt: bool) {
        if !self.alive[survivor.ix()] {
            return;
        }
        let now = self.now;
        let gone_id = self.nodes[gone.ix()].id;
        let node = &mut self.nodes[survivor.ix()];
        let survivor_id = node.id;
        // The sender half toward the peer. (A graceful close flushes
        // buffered messages in the real engine; in the model the queue
        // is typically empty by the time of the close, and whatever is
        // left is dropped without counting as lost.)
        if let Ok(pos) = node.out_pos(gone_id) {
            let l = node.outgoing.remove(pos).link;
            let link = &mut self.links[l.ix()];
            let lost = link.drop_all();
            link.tx_open = false;
            if lost > 0 && abrupt {
                self.metrics.record_lost(Some(l), lost);
            }
            self.prune_incoming(l);
        }
        // The receiver half from the peer, its weight and its blocked
        // fanouts.
        let node = &mut self.nodes[survivor.ix()];
        let mut was_upstream = false;
        if let Ok(pos) = node.in_pos(gone_id) {
            let l = node.incoming[pos].link;
            node.incoming[pos].in_wrr = false;
            let link = &mut self.links[l.ix()];
            was_upstream = link.rx_open;
            link.rx_open = false;
            node.ready_inputs -= u32::from(!link.recv.is_empty());
            link.recv.clear();
            if !link.blocked.is_empty() {
                link.blocked.clear();
                node.blocked_links -= 1;
            }
            self.prune_incoming(l);
        }
        // Which applications lose their (only) upstream?
        let node = &mut self.nodes[survivor.ix()];
        let broken_apps = node.routes.forget_peer(gone_id);
        node.tel.record_disconnect(now, gone_id);
        for &app in &broken_apps {
            node.tel.record_domino_teardown(now, app);
        }
        // Notify the algorithm of the failed/closed neighbor.
        self.deliver_local(survivor, Msg::control(MsgType::NeighborFailed, gone_id, 0));
        // Domino: propagate BrokenSource for orphaned applications.
        if was_upstream {
            for app in broken_apps {
                for dest in self.nodes[survivor.ix()].routes.take_downstreams(app) {
                    let broken = Msg::control(MsgType::BrokenSource, survivor_id, app);
                    let _ = self.enqueue_send(survivor, dest, broken, None);
                }
                self.deliver_local(survivor, Msg::control(MsgType::BrokenSource, gone_id, app));
            }
            self.flush_flows(survivor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::Context;

    const MS: Nanos = 1_000_000;

    fn n(port: u16) -> NodeId {
        NodeId::loopback(port)
    }

    /// Forwards data to fixed destinations; closes its first link on a
    /// `SLeave`.
    struct Fwd(Vec<NodeId>);

    impl Algorithm for Fwd {
        fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
            match msg.ty() {
                MsgType::Data => {
                    for &d in &self.0 {
                        ctx.send(msg.clone(), d);
                    }
                }
                MsgType::SLeave => ctx.close_link(self.0[0]),
                _ => {}
            }
        }
    }

    fn add(sim: &mut Sim, port: u16, dests: &[u16]) {
        let dests = dests.iter().map(|&p| n(p)).collect();
        sim.add_node(n(port), NodeBandwidth::unlimited(), Box::new(Fwd(dests)));
    }

    fn data(port: u16) -> Msg {
        Msg::data(n(port), 1, 0, vec![0u8; 32])
    }

    /// Who a full scan of the simulation would tell that `dead` died:
    /// its downstreams, the upstreams it holds a receive buffer for, and
    /// every live node with an open link toward it.
    fn scan_for_peers(sim: &Sim, dead: NodeId) -> Vec<NodeId> {
        let mut peers = sim.downstreams_of(dead);
        peers.extend(sim.upstreams_of(dead));
        for node in &sim.nodes {
            if sim.is_alive(node.id) && node.out_link(dead).is_some() {
                peers.push(node.id);
            }
        }
        peers.sort_unstable();
        peers.dedup();
        peers
    }

    #[test]
    fn kill_notifies_the_peers_a_full_scan_finds() {
        let mut sim = SimBuilder::new(1)
            .latency_ms(10)
            .failure_detect_ms(50)
            .build();
        // X = 10 forwards to 11. Toward X: 1 delivered; 2 delivered, then
        // 2 closed its half; 3 delivered, then 3 died; 4 died with its
        // only message still in flight; 5 still in flight; 6 unrelated.
        add(&mut sim, 11, &[]);
        add(&mut sim, 10, &[11]);
        for port in 1..=5 {
            add(&mut sim, port, &[10]);
        }
        add(&mut sim, 6, &[11]);
        for port in [1, 2, 3, 6] {
            sim.inject(0, n(port), data(port));
        }
        sim.run_until(30 * MS);
        sim.inject(sim.now(), n(2), Msg::control(MsgType::SLeave, n(2), 0));
        sim.kill_at(sim.now(), n(3));
        sim.run_until(35 * MS);
        sim.inject(sim.now(), n(4), data(4));
        sim.run_until(38 * MS);
        sim.kill_at(sim.now(), n(4));
        sim.inject(sim.now(), n(5), data(5));
        sim.run_until(39 * MS);
        assert_eq!(
            sim.upstreams_of(n(10)),
            vec![n(1), n(2), n(3)],
            "4 and 5 are in flight"
        );
        assert_eq!(
            sim.downstreams_of(n(2)),
            Vec::<NodeId>::new(),
            "2 closed its half"
        );
        assert!(!sim.is_alive(n(3)) && !sim.is_alive(n(4)));

        let expected = scan_for_peers(&sim, n(10));
        assert_eq!(expected, vec![n(1), n(2), n(3), n(5), n(11)]);
        // Only the kill is handled; what it scheduled stays queued.
        let idx = sim.node_idx(n(10)).unwrap();
        sim.handle_kill(idx);
        let mut notified = Vec::new();
        while let Some((at, event)) = sim.events.pop() {
            // (The deaths of 3 and 4 are still being detected, too.)
            match event {
                Event::LinkFailureDetected { survivor, failed } if failed == idx => {
                    assert_eq!(at, sim.now() + 50 * MS);
                    notified.push(sim.nodes[survivor.ix()].id);
                }
                _ => {}
            }
        }
        assert_eq!(notified, expected, "same peers, in address order");
    }

    #[test]
    fn an_unused_incoming_entry_is_pruned_and_a_weighted_one_kept() {
        let mut sim = SimBuilder::new(1).latency_ms(5).build();
        add(&mut sim, 10, &[]);
        add(&mut sim, 1, &[10]);
        add(&mut sim, 2, &[10]);
        sim.set_switch_weight(n(10), n(2), 3);
        for port in [1, 2] {
            sim.inject(0, n(port), data(port));
        }
        sim.run_until(20 * MS);
        assert_eq!(sim.upstreams_of(n(10)), vec![n(1), n(2)]);
        for port in [1, 2] {
            sim.inject(
                sim.now(),
                n(port),
                Msg::control(MsgType::SLeave, n(port), 0),
            );
        }
        sim.run_until(40 * MS);
        assert!(sim.upstreams_of(n(10)).is_empty(), "both closes arrived");
        let x = &sim.nodes[sim.node_idx(n(10)).unwrap().ix()];
        assert!(
            x.incoming.is_empty(),
            "no half open, no weight: nothing to keep"
        );
        // A weight set for a node that never connected keeps its entry.
        sim.set_switch_weight(n(10), n(2), 0);
        let x = &sim.nodes[sim.node_idx(n(10)).unwrap().ix()];
        assert_eq!(x.incoming.len(), 1);
        assert_eq!((x.incoming[0].peer, x.wrr_len()), (n(2), 1));
        assert!(
            sim.upstreams_of(n(10)).is_empty(),
            "a weight is not a buffer"
        );
    }
}
