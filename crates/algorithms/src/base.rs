//! The embeddable `iAlgorithm` base.

use std::collections::{BTreeMap, BTreeSet};

use ioverlay_api::{
    BootReplyPayload, Context, LinkDirection, Msg, MsgType, NodeId, ThroughputPayload,
};

/// The generic base class of algorithms — `iAlgorithm` in the paper.
///
/// Embed it in an algorithm struct and call
/// [`IAlgorithmBase::handle_default`] for every message the algorithm
/// does not handle itself; the base then provides the paper's default
/// behaviors:
///
/// * `bootReply` → record the returned nodes in [`KnownHosts`](Self::known_hosts);
/// * `upThroughput` / `downThroughput` → keep the latest per-link QoS
///   measurements queryable;
/// * `upstreamJoined` / `downstreamJoined` / `neighborFailed` → maintain
///   the neighbor sets;
/// * everything else → consume silently (the paper: *"it is not
///   necessary for an algorithm to handle all the known message
///   types"*).
///
/// It also provides [`IAlgorithmBase::disseminate`], the gossip utility:
/// *"iAlgorithm implements a disseminate function, which disseminates a
/// message to a list of overlay nodes, with a specific probability p"*.
///
/// # Example
///
/// ```
/// use ioverlay_algorithms::IAlgorithmBase;
/// use ioverlay_api::{Algorithm, Context, Msg, MsgType};
///
/// struct MyAlgorithm {
///     base: IAlgorithmBase,
/// }
///
/// impl Algorithm for MyAlgorithm {
///     fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
///         match msg.ty() {
///             MsgType::Data => { /* application-specific logic */ }
///             _ => { self.base.handle_default(ctx, &msg); }
///         }
///     }
/// }
/// ```
#[derive(Debug, Default)]
pub struct IAlgorithmBase {
    known_hosts: BTreeSet<NodeId>,
    upstreams: BTreeSet<NodeId>,
    downstreams: BTreeSet<NodeId>,
    link_kbps: BTreeMap<(NodeId, LinkDirection), f64>,
}

impl IAlgorithmBase {
    /// Creates an empty base.
    pub fn new() -> Self {
        Self::default()
    }

    /// The set of nodes this node knows about (seeded by the observer's
    /// bootstrap reply, grown by observed traffic).
    pub fn known_hosts(&self) -> &BTreeSet<NodeId> {
        &self.known_hosts
    }

    /// Adds a node to `KnownHosts` manually (for example from an
    /// algorithm-specific advertisement).
    pub fn add_known_host(&mut self, node: NodeId) {
        self.known_hosts.insert(node);
    }

    /// Current upstream neighbors, as tracked from engine events.
    pub fn upstreams(&self) -> &BTreeSet<NodeId> {
        &self.upstreams
    }

    /// Current downstream neighbors, as tracked from engine events.
    pub fn downstreams(&self) -> &BTreeSet<NodeId> {
        &self.downstreams
    }

    /// Latest measured throughput of the link to `peer` in the given
    /// direction, in KBps, if a measurement has arrived.
    pub fn link_kbps(&self, peer: NodeId, direction: LinkDirection) -> Option<f64> {
        self.link_kbps.get(&(peer, direction)).copied()
    }

    /// The default message handler. Returns `true` if the message was
    /// recognized and consumed.
    pub fn handle_default(&mut self, ctx: &mut dyn Context, msg: &Msg) -> bool {
        match msg.ty() {
            MsgType::BootReply => {
                if let Ok(reply) = BootReplyPayload::decode(msg.payload()) {
                    self.known_hosts.extend(reply.hosts);
                    self.known_hosts.remove(&ctx.local_id());
                }
                true
            }
            MsgType::UpThroughput | MsgType::DownThroughput => {
                if let Ok(report) = ThroughputPayload::decode(msg.payload()) {
                    self.link_kbps
                        .insert((report.peer, report.direction), report.kbps);
                }
                true
            }
            MsgType::UpstreamJoined => {
                self.upstreams.insert(msg.origin());
                self.known_hosts.insert(msg.origin());
                true
            }
            MsgType::DownstreamJoined => {
                self.downstreams.insert(msg.origin());
                self.known_hosts.insert(msg.origin());
                true
            }
            MsgType::NeighborFailed => {
                let peer = msg.origin();
                self.upstreams.remove(&peer);
                self.downstreams.remove(&peer);
                self.known_hosts.remove(&peer);
                self.link_kbps
                    .retain(|(p, _), _| *p != peer);
                true
            }
            // Defaults for the remaining observer/engine types: consume.
            MsgType::Boot
            | MsgType::Request
            | MsgType::Status
            | MsgType::SDeploy
            | MsgType::STerminate
            | MsgType::SJoin
            | MsgType::SLeave
            | MsgType::Terminate
            | MsgType::SAnnounce
            | MsgType::SetBandwidth
            | MsgType::Trace
            | MsgType::BrokenSource
            | MsgType::Hello
            | MsgType::Ping
            | MsgType::Pong => true,
            MsgType::Data
            | MsgType::SQuery
            | MsgType::SQueryAck
            | MsgType::SAssign
            | MsgType::SAware
            | MsgType::SFederate
            | MsgType::Custom(_) => false,
        }
    }

    /// Gossip utility: sends a copy of `msg` to each of `targets` with
    /// probability `p` (clamped to `[0, 1]`), using the runtime's
    /// deterministic randomness.
    ///
    /// Returns how many copies were sent.
    pub fn disseminate(
        &self,
        ctx: &mut dyn Context,
        msg: &Msg,
        targets: impl IntoIterator<Item = NodeId>,
        p: f64,
    ) -> usize {
        let p = p.clamp(0.0, 1.0);
        let mut sent = 0;
        for target in targets {
            if target == ctx.local_id() {
                continue;
            }
            let roll = (ctx.random_u64() >> 11) as f64 / (1u64 << 53) as f64;
            if roll < p {
                ctx.send(msg.clone(), target);
                sent += 1;
            }
        }
        sent
    }

    /// Sends a `trace` record to the observer — the paper's centralized
    /// debugging/logging facility.
    pub fn trace(&self, ctx: &mut dyn Context, text: &str) {
        let msg = Msg::new(
            MsgType::Trace,
            ctx.local_id(),
            0,
            0,
            text.as_bytes().to_vec(),
        );
        ctx.send_to_observer(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    #[test]
    fn boot_reply_populates_known_hosts() {
        let me = NodeId::loopback(1);
        let mut ctx = RecordingCtx::new(me);
        let mut base = IAlgorithmBase::new();
        let reply = BootReplyPayload {
            hosts: vec![me, NodeId::loopback(2), NodeId::loopback(3)],
        };
        let msg = Msg::new(MsgType::BootReply, NodeId::loopback(9), 0, 0, reply.encode());
        assert!(base.handle_default(&mut ctx, &msg));
        assert!(!base.known_hosts().contains(&me), "self excluded");
        assert_eq!(base.known_hosts().len(), 2);
    }

    #[test]
    fn throughput_reports_are_queryable() {
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let mut base = IAlgorithmBase::new();
        let peer = NodeId::loopback(2);
        let payload = ThroughputPayload {
            peer,
            direction: LinkDirection::Downstream,
            kbps: 199.5,
            lost_msgs: 0,
        };
        let msg = Msg::new(MsgType::DownThroughput, peer, 0, 0, payload.encode());
        base.handle_default(&mut ctx, &msg);
        assert_eq!(base.link_kbps(peer, LinkDirection::Downstream), Some(199.5));
        assert_eq!(base.link_kbps(peer, LinkDirection::Upstream), None);
    }

    #[test]
    fn neighbor_lifecycle_tracking() {
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let mut base = IAlgorithmBase::new();
        let peer = NodeId::loopback(2);
        base.handle_default(&mut ctx, &Msg::control(MsgType::UpstreamJoined, peer, 0));
        assert!(base.upstreams().contains(&peer));
        base.handle_default(&mut ctx, &Msg::control(MsgType::NeighborFailed, peer, 0));
        assert!(base.upstreams().is_empty());
        assert!(!base.known_hosts().contains(&peer));
    }

    #[test]
    fn data_and_protocol_types_are_not_consumed() {
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let mut base = IAlgorithmBase::new();
        let data = Msg::data(NodeId::loopback(2), 1, 0, &b"x"[..]);
        assert!(!base.handle_default(&mut ctx, &data));
        let query = Msg::control(MsgType::SQuery, NodeId::loopback(2), 1);
        assert!(!base.handle_default(&mut ctx, &query));
    }

    #[test]
    fn disseminate_respects_probability_extremes() {
        let me = NodeId::loopback(1);
        let targets: Vec<NodeId> = (2..6).map(NodeId::loopback).collect();
        let msg = Msg::control(MsgType::SAware, me, 0);
        let base = IAlgorithmBase::new();

        // The first roll of each call is an extreme: roll 0 must not send
        // at p = 0, and the largest roll must still send at p = 1.
        for first_roll in [0, u64::MAX] {
            let mut ctx = RecordingCtx::new(me);
            ctx.set_next_roll(first_roll);
            assert_eq!(base.disseminate(&mut ctx, &msg, targets.clone(), 0.0), 0);
            assert!(ctx.staged.sends.is_empty());

            let mut ctx = RecordingCtx::new(me);
            ctx.set_next_roll(first_roll);
            assert_eq!(base.disseminate(&mut ctx, &msg, targets.clone(), 1.0), 4);
            assert_eq!(ctx.staged.sends.len(), 4);
        }
    }

    #[test]
    fn disseminate_skips_self() {
        let me = NodeId::loopback(1);
        let base = IAlgorithmBase::new();
        let mut ctx = RecordingCtx::new(me);
        let msg = Msg::control(MsgType::SAware, me, 0);
        assert_eq!(base.disseminate(&mut ctx, &msg, vec![me], 1.0), 0);
    }

    #[test]
    fn trace_goes_to_the_observer() {
        let me = NodeId::loopback(1);
        let base = IAlgorithmBase::new();
        let mut ctx = RecordingCtx::new(me);
        base.trace(&mut ctx, "hello trace");
        assert_eq!(ctx.staged.observer_msgs.len(), 1);
        assert_eq!(ctx.staged.observer_msgs[0].ty(), MsgType::Trace);
        assert_eq!(&ctx.staged.observer_msgs[0].payload()[..], b"hello trace");
    }
}
