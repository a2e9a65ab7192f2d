//! Simulation metrics: link throughput, per-app reception, control
//! overhead, and loss accounting.

use ioverlay_api::{AppId, MsgType, Nanos, NodeId};
use ioverlay_ratelimit::ThroughputMeter;

use crate::index::{Directory, LinkIdx, NodeIdx};

/// Per-directed-link delivery statistics: one flat record, so a
/// delivery touches the link's meter and nothing on the heap.
#[derive(Debug, Clone)]
struct LinkStats {
    /// Windowed rate and the totals of bytes and messages delivered.
    delivered: ThroughputMeter,
    /// Messages lost on this link (teardown, dead peer).
    lost_msgs: u64,
}

/// All measurements collected by a simulation run.
///
/// The measurement surface intentionally matches what the paper's
/// observer sees: per-link throughput (the numbers on the edges of
/// Fig. 6–8), per-receiver application goodput (Fig. 9, 11, 19), control
/// message overhead by type over time (Fig. 15–18), and loss counters.
///
/// Statistics are stored by index — a link's under its `LinkIdx`, a
/// node's under its `NodeIdx` — so recording costs no hashing; the
/// address-taking queries below translate through the simulation's
/// [`Directory`], which lives here because they need it.
#[derive(Debug)]
pub struct Metrics {
    window: Nanos,
    pub(crate) dir: Directory,
    /// One entry per link record, created with it.
    links: Vec<LinkStats>,
    /// Per node, one meter per application it received data for.
    received: Vec<Vec<(AppId, ThroughputMeter)>>,
    /// Per node, bytes sent per message type.
    sent_by_type: Vec<Vec<(MsgType, u64)>>,
    /// Time-ordered control transmissions: (time, sender, type, bytes).
    control_log: Vec<(Nanos, NodeId, MsgType, u64)>,
    lost_total: u64,
}

impl Metrics {
    pub(crate) fn new(window: Nanos) -> Self {
        Self {
            window,
            dir: Directory::default(),
            links: Vec::new(),
            received: Vec::new(),
            sent_by_type: Vec::new(),
            control_log: Vec::new(),
            lost_total: 0,
        }
    }

    /// Registers a node; its index addresses the per-node statistics.
    pub(crate) fn add_node(&mut self, id: NodeId) -> NodeIdx {
        let idx = self.dir.add_node(id);
        self.received.push(Vec::new());
        self.sent_by_type.push(Vec::new());
        idx
    }

    /// Registers a directed link; its index addresses its statistics.
    pub(crate) fn add_link(&mut self, from: NodeIdx, to: NodeIdx) -> LinkIdx {
        self.links.push(LinkStats {
            delivered: ThroughputMeter::new(self.window),
            lost_msgs: 0,
        });
        self.dir.add_link(from, to)
    }

    pub(crate) fn record_link_delivery(&mut self, link: LinkIdx, bytes: u64, now: Nanos) {
        self.links[link.ix()].delivered.record(bytes, now);
    }

    pub(crate) fn record_data_received(
        &mut self,
        node: NodeIdx,
        app: AppId,
        bytes: u64,
        now: Nanos,
    ) {
        let apps = &mut self.received[node.ix()];
        let pos = apps.iter().position(|(a, _)| *a == app).unwrap_or_else(|| {
            apps.push((app, ThroughputMeter::new(self.window)));
            apps.len() - 1
        });
        apps[pos].1.record(bytes, now);
    }

    pub(crate) fn record_sent(&mut self, node: NodeIdx, ty: MsgType, bytes: u64, now: Nanos) {
        let types = &mut self.sent_by_type[node.ix()];
        match types.iter_mut().find(|(t, _)| *t == ty) {
            Some((_, total)) => *total += bytes,
            None => types.push((ty, bytes)),
        }
        if ty != MsgType::Data {
            self.control_log.push((now, self.dir.id(node), ty, bytes));
        }
    }

    /// Counts `msgs` lost messages, against `link` when the pair ever
    /// had a record (a send to an address that is not a node has none).
    pub(crate) fn record_lost(&mut self, link: Option<LinkIdx>, msgs: u64) {
        self.lost_total += msgs;
        if let Some(link) = link {
            self.links[link.ix()].lost_msgs += msgs;
        }
    }

    /// [`Metrics::link_kbps`] for a link already resolved.
    pub(crate) fn link_kbps_at(&self, link: LinkIdx, now: Nanos) -> f64 {
        self.links[link.ix()].delivered.rate_kbps(now)
    }

    fn received_meter(&self, node: NodeId, app: AppId) -> Option<&ThroughputMeter> {
        let apps = &self.received[self.dir.node(node)?.ix()];
        apps.iter().find(|(a, _)| *a == app).map(|(_, s)| s)
    }

    /// Windowed throughput of the directed link `from -> to` in KBps.
    ///
    /// Returns 0.0 for a link that never carried traffic.
    pub fn link_kbps(&self, from: NodeId, to: NodeId, now: Nanos) -> f64 {
        match self.dir.link_between(from, to) {
            Some(link) => self.link_kbps_at(link, now),
            None => 0.0,
        }
    }

    /// Total bytes ever delivered on the directed link.
    pub fn link_bytes(&self, from: NodeId, to: NodeId) -> u64 {
        self.dir
            .link_between(from, to)
            .map(|link| self.links[link.ix()].delivered.total_bytes())
            .unwrap_or(0)
    }

    /// All links that ever carried traffic, in the order the links were
    /// first created.
    pub fn active_links(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.links
            .iter()
            .enumerate()
            .filter(|(_, s)| s.delivered.total_msgs() > 0)
            .map(|(i, _)| self.dir.ends(LinkIdx(i as u32)))
    }

    /// Windowed goodput of application `app` at `node`, in KBps.
    pub fn received_kbps(&self, node: NodeId, app: AppId, now: Nanos) -> f64 {
        self.received_meter(node, app)
            .map_or(0.0, |m| m.rate_kbps(now))
    }

    /// Total application bytes received by `node` for `app`.
    pub fn received_bytes(&self, node: NodeId, app: AppId) -> u64 {
        self.received_meter(node, app)
            .map_or(0, ThroughputMeter::total_bytes)
    }

    /// Total application messages received by `node` for `app`.
    pub fn received_msgs(&self, node: NodeId, app: AppId) -> u64 {
        self.received_meter(node, app)
            .map_or(0, ThroughputMeter::total_msgs)
    }

    fn sent_types(&self, node: NodeId) -> &[(MsgType, u64)] {
        self.dir
            .node(node)
            .map_or(&[], |idx| self.sent_by_type[idx.ix()].as_slice())
    }

    /// Bytes of messages of `ty` sent by `node` (headers + payloads).
    pub fn sent_bytes(&self, node: NodeId, ty: MsgType) -> u64 {
        self.sent_types(node)
            .iter()
            .find(|(t, _)| *t == ty)
            .map_or(0, |(_, b)| *b)
    }

    /// Total control bytes (all non-`data` types) sent by `node`.
    pub fn control_bytes(&self, node: NodeId) -> u64 {
        self.sent_types(node)
            .iter()
            .filter(|(ty, _)| *ty != MsgType::Data)
            .map(|(_, b)| *b)
            .sum()
    }

    /// Total bytes of control messages of `ty` sent network-wide within
    /// `[t0, t1)` — the query behind the overhead-over-time figures.
    pub fn control_bytes_between(&self, ty: MsgType, t0: Nanos, t1: Nanos) -> u64 {
        self.control_log
            .iter()
            .filter(|&&(t, _, mt, _)| mt == ty && t >= t0 && t < t1)
            .map(|&(_, _, _, b)| b)
            .sum()
    }

    /// Total messages lost across the whole simulation.
    pub fn lost_msgs(&self) -> u64 {
        self.lost_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEC: Nanos = 1_000_000_000;

    /// Metrics over nodes `1..=n` (indices `0..n`).
    fn metrics(n: u16) -> Metrics {
        let mut m = Metrics::new(SEC);
        for port in 1..=n {
            m.add_node(NodeId::loopback(port));
        }
        m
    }

    #[test]
    fn link_accounting() {
        let mut m = metrics(2);
        let (a, b) = (NodeId::loopback(1), NodeId::loopback(2));
        let ab = m.add_link(NodeIdx(0), NodeIdx(1));
        m.record_link_delivery(ab, 1024, 0);
        m.record_link_delivery(ab, 1024, SEC / 2);
        assert_eq!(m.link_bytes(a, b), 2048);
        assert!((m.link_kbps(a, b, SEC / 2) - 2.0).abs() < 0.01);
        assert_eq!(m.link_bytes(b, a), 0);
        assert_eq!(m.link_kbps(b, a, SEC), 0.0);
        assert_eq!(m.link_bytes(a, NodeId::loopback(9)), 0, "not a node");
        assert_eq!(m.active_links().count(), 1);
    }

    #[test]
    fn active_links_come_in_creation_order() {
        let mut m = metrics(3);
        let n = NodeId::loopback;
        let ca = m.add_link(NodeIdx(2), NodeIdx(0));
        let idle = m.add_link(NodeIdx(1), NodeIdx(2));
        let ab = m.add_link(NodeIdx(0), NodeIdx(1));
        m.record_link_delivery(ab, 10, 0);
        m.record_link_delivery(ca, 10, 1);
        m.record_lost(Some(idle), 1);
        let active: Vec<_> = m.active_links().collect();
        assert_eq!(active, vec![(n(3), n(1)), (n(1), n(2))]);
    }

    #[test]
    fn reception_accounting() {
        let mut m = metrics(1);
        let n = NodeId::loopback(1);
        m.record_data_received(NodeIdx(0), 7, 100, 0);
        m.record_data_received(NodeIdx(0), 7, 100, 1);
        m.record_data_received(NodeIdx(0), 8, 50, 2);
        assert_eq!(m.received_bytes(n, 7), 200);
        assert_eq!(m.received_msgs(n, 7), 2);
        assert_eq!(m.received_bytes(n, 8), 50);
        assert_eq!(m.received_bytes(NodeId::loopback(9), 7), 0);
        assert_eq!(m.received_kbps(NodeId::loopback(9), 7, 0), 0.0);
        assert!(m.received_kbps(n, 8, 2) > 0.0);
    }

    #[test]
    fn control_overhead_by_type_and_time() {
        let mut m = metrics(1);
        let n = NodeId::loopback(1);
        m.record_sent(NodeIdx(0), MsgType::SAware, 100, 0);
        m.record_sent(NodeIdx(0), MsgType::SAware, 100, 2 * SEC);
        m.record_sent(NodeIdx(0), MsgType::SFederate, 40, SEC);
        m.record_sent(NodeIdx(0), MsgType::Data, 5000, SEC);
        assert_eq!(m.sent_bytes(n, MsgType::SAware), 200);
        assert_eq!(m.control_bytes(n), 240, "data excluded from control");
        assert_eq!(m.sent_bytes(NodeId::loopback(9), MsgType::Data), 0);
        assert_eq!(m.control_bytes_between(MsgType::SAware, 0, SEC), 100);
        assert_eq!(m.control_bytes_between(MsgType::SAware, 0, 3 * SEC), 200);
    }

    #[test]
    fn loss_accounting() {
        let mut m = metrics(2);
        let ab = m.add_link(NodeIdx(0), NodeIdx(1));
        m.record_lost(Some(ab), 3);
        m.record_lost(None, 1);
        assert_eq!(m.lost_msgs(), 4);
        assert_eq!(
            m.active_links().count(),
            0,
            "lost-only links are not active"
        );
    }
}
