//! Simulated node state and the simulator's `Context` implementation.

use std::collections::VecDeque;

use ioverlay_api::{
    Algorithm, AppRoutes, Context, Msg, Nanos, NodeId, StagedEffects, TimerToken, TraceSampler,
};
use ioverlay_ratelimit::{BucketId, NodeBandwidth};
use ioverlay_telemetry::{NodeTelemetry, TelemetrySnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::index::LinkIdx;
use crate::link::DirectedLink;

/// An entry of a node's incoming-link list: the link `peer -> node` and
/// the switch's weighted-round-robin state for that upstream.
///
/// The scheduling state sits here and not in the link record because a
/// selection walks every upstream of the node; the list keeps that walk
/// inside one allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct InLink {
    pub peer: NodeId,
    pub link: LinkIdx,
    /// Whether the upstream takes part in the rotation. It does from its
    /// first arrival (or from a `set_switch_weight`) until the peer is
    /// torn down; a weight of zero parks it without taking it out.
    pub in_wrr: bool,
    pub weight: u32,
    pub credit: i64,
}

/// An entry of a node's outgoing-link list: the link `node -> peer`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OutLink {
    pub peer: NodeId,
    pub link: LinkIdx,
}

/// One virtualized overlay node inside the simulator.
///
/// Both link lists are kept **sorted by the peer's `NodeId`**, whatever
/// order the links were created in: weighted-round-robin ties go to the
/// smallest address, the blocked-fanout retry rotation, status reports,
/// measurement reports and `upstreams_of` / `downstreams_of` all walk
/// upstreams or downstreams in address order, and a run must not depend
/// on the order nodes were added in.
///
/// # Layout
///
/// At a few thousand nodes the arena no longer fits a core's cache and
/// every event finds its node cold, so the fields are laid out in the
/// order the event handlers read them: an event that finds nothing to
/// do touches one line of the node, a switched message two or three,
/// and the telemetry registry (most of the struct) only where it
/// records. Whether a node is alive is not here at all: `Sim::alive`
/// keeps those flags together, so a sender can check its destination
/// without touching the destination's node.
#[repr(C, align(64))] // declaration order is layout order: see "Layout" above
pub(crate) struct SimNode {
    // -- first cache line: what an idle `Process` event reads --
    /// Links toward this node: every link whose sender half is open,
    /// whose receive buffer exists, or whose upstream has a switch
    /// weight. (One receive buffer per receiver thread in the engine.)
    pub incoming: Vec<InLink>,
    /// Engine-internal deliveries (events, observer control); unbounded
    /// because they bypass the data path, like the paper's control
    /// messages on the publicized port.
    pub local_inbox: VecDeque<Msg>,
    /// How many incoming links hold blocked fanouts.
    pub blocked_links: u32,
    /// How many receive buffers hold messages.
    pub ready_inputs: u32,
    // -- second: switching a message and running the algorithm --
    /// Capacity of each receive buffer and, for forwarded traffic, of
    /// each send buffer.
    pub recv_cap: usize,
    /// Total messages switched (popped from receive buffers).
    pub switched: u64,
    /// Taken out while the algorithm runs, which gives the algorithm
    /// `&mut self` and the context the rest of the node.
    pub alg: Option<Box<dyn Algorithm>>,
    /// Per-application routing memory, sorted by application.
    pub routes: AppRoutes,
    pub id: NodeId,
    // -- third: sending --
    /// Links from this node with an open sender half.
    pub outgoing: Vec<OutLink>,
    /// Emulated bandwidth buckets, shared by all of this node's links.
    pub up_bucket: BucketId,
    pub down_bucket: BucketId,
    pub total_bucket: BucketId,
    /// Every Nth locally originated data message starts a trace.
    pub sampler: TraceSampler,
    /// Rotates the blocked-fanout retry order (fairness between
    /// upstreams competing for one freed sender slot).
    pub retry_rotor: u64,
    // -- rarely read --
    pub observer: Option<NodeId>,
    pub bandwidth: NodeBandwidth,
    pub rng: StdRng,
    /// Per-node telemetry registry, timestamped with the *virtual*
    /// clock so simulated runs export the same metrics shape as real
    /// engine nodes.
    pub tel: NodeTelemetry,
}

impl SimNode {
    /// Position of `peer` in the incoming list, or where it belongs.
    pub(crate) fn in_pos(&self, peer: NodeId) -> Result<usize, usize> {
        self.incoming.binary_search_by_key(&peer, |e| e.peer)
    }

    /// Position of `peer` in the outgoing list, or where it belongs.
    pub(crate) fn out_pos(&self, peer: NodeId) -> Result<usize, usize> {
        self.outgoing.binary_search_by_key(&peer, |e| e.peer)
    }

    /// The open link toward `peer`, if any.
    pub(crate) fn out_link(&self, peer: NodeId) -> Option<LinkIdx> {
        self.out_pos(peer).ok().map(|pos| self.outgoing[pos].link)
    }

    /// Position of the incoming entry for `link` from `peer`, added
    /// (outside the rotation) if the list does not have it.
    pub(crate) fn attach_incoming(&mut self, peer: NodeId, link: LinkIdx) -> usize {
        match self.in_pos(peer) {
            Ok(pos) => pos,
            Err(pos) => {
                let entry = InLink {
                    peer,
                    link,
                    in_wrr: false,
                    weight: 0,
                    credit: 0,
                };
                self.incoming.insert(pos, entry);
                pos
            }
        }
    }

    /// Enters the upstream at `pos` into the rotation or retunes its
    /// weight; the credit of an upstream already in it is kept.
    pub(crate) fn wrr_set_weight(&mut self, pos: usize, weight: u32) {
        let entry = &mut self.incoming[pos];
        if !entry.in_wrr {
            entry.in_wrr = true;
            entry.credit = 0;
        }
        entry.weight = weight;
    }

    /// Upstreams in the rotation, parked ones included.
    pub(crate) fn wrr_len(&self) -> usize {
        self.incoming.iter().filter(|e| e.in_wrr).count()
    }

    /// Selects the next upstream to service: smooth weighted round robin
    /// (`ioverlay_queue::WeightedRoundRobin`, over the incoming list).
    /// Every selection adds each upstream's weight to its credit, picks
    /// the highest credit — the first in address order on a tie — and
    /// charges the winner the total weight. `None` when no upstream has
    /// a positive weight.
    pub(crate) fn wrr_next(&mut self) -> Option<usize> {
        let total: i64 = self
            .incoming
            .iter()
            .filter(|e| e.in_wrr)
            .map(|e| i64::from(e.weight))
            .sum();
        if total == 0 {
            return None;
        }
        let mut best: Option<(usize, i64)> = None;
        for (pos, entry) in self.incoming.iter_mut().enumerate() {
            if !entry.in_wrr || entry.weight == 0 {
                continue;
            }
            entry.credit += i64::from(entry.weight);
            match best {
                Some((_, credit)) if credit >= entry.credit => {}
                _ => best = Some((pos, entry.credit)),
            }
        }
        let (pos, _) = best?;
        self.incoming[pos].credit -= total;
        Some(pos)
    }

    /// Whether any receive buffer holds messages this node could switch
    /// right now: non-empty, not head-of-line blocked, and not parked by
    /// a zero WRR weight.
    pub(crate) fn has_switchable_input(&self, links: &[DirectedLink]) -> bool {
        self.incoming.iter().any(|e| {
            let link = &links[e.link.ix()];
            link.rx_open
                && !link.recv.is_empty()
                && link.blocked.is_empty()
                && e.in_wrr
                && e.weight > 0
        })
    }

    #[allow(clippy::too_many_arguments)] // node construction takes its full wiring
    pub(crate) fn seeded(
        id: NodeId,
        bandwidth: NodeBandwidth,
        alg: Box<dyn Algorithm>,
        recv_cap: usize,
        seed: u64,
        up: BucketId,
        down: BucketId,
        total: BucketId,
    ) -> Self {
        // Derive the node RNG from the scenario seed and the node id so
        // results do not depend on insertion order.
        let mut hasher_seed = seed ^ u64::from(u32::from(id.ip())) << 16 ^ u64::from(id.port());
        hasher_seed = hasher_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        Self {
            id,
            alg: Some(alg),
            recv_cap,
            incoming: Vec::new(),
            outgoing: Vec::new(),
            blocked_links: 0,
            ready_inputs: 0,
            local_inbox: VecDeque::new(),
            up_bucket: up,
            down_bucket: down,
            total_bucket: total,
            bandwidth,
            routes: AppRoutes::default(),
            observer: None,
            rng: StdRng::seed_from_u64(hasher_seed),
            switched: 0,
            retry_rotor: 0,
            sampler: TraceSampler::default(),
            tel: NodeTelemetry::default(),
        }
    }
}

/// The simulator-backed [`Context`] handed to algorithms: the node
/// borrowed where it lies in the arena, the link arena to read send
/// buffer depths from, and the simulator's staging area.
pub(crate) struct SimCtx<'a> {
    pub node: &'a mut SimNode,
    pub links: &'a [DirectedLink],
    pub now: Nanos,
    pub staged: &'a mut StagedEffects,
}

impl Context for SimCtx<'_> {
    fn local_id(&self) -> NodeId {
        self.node.id
    }

    fn now(&self) -> Nanos {
        self.now
    }

    fn send(&mut self, msg: Msg, dest: NodeId) {
        self.staged.stage_send(msg, dest);
    }

    fn send_to_observer(&mut self, msg: Msg) {
        self.staged.observer_msgs.push(msg);
    }

    fn set_timer(&mut self, delay: Nanos, token: TimerToken) {
        self.staged.timers.push((delay, token));
    }

    fn backlog(&self, dest: NodeId) -> Option<usize> {
        let depth = self.node.out_link(dest).map(|l| self.links[l.ix()].depth());
        self.staged.backlog(dest, depth)
    }

    fn buffer_capacity(&self) -> usize {
        self.node.recv_cap
    }

    fn probe_rtt(&mut self, peer: NodeId) {
        self.staged.probes.push(peer);
    }

    fn close_link(&mut self, peer: NodeId) {
        self.staged.closes.push(peer);
    }

    fn observer(&self) -> Option<NodeId> {
        self.node.observer
    }

    fn random_u64(&mut self) -> u64 {
        self.node.rng.gen()
    }

    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.node.tel.enabled().then(|| self.node.tel.snapshot())
    }

    fn telemetry_registry(&self) -> Option<&NodeTelemetry> {
        self.node.tel.enabled().then_some(&self.node.tel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::NodeIdx;
    use ioverlay_api::MsgType;
    use ioverlay_queue::WeightedRoundRobin;
    use ioverlay_ratelimit::BucketSet;
    use proptest::prelude::*;

    struct Nop;
    impl Algorithm for Nop {
        fn on_message(&mut self, _ctx: &mut dyn Context, _msg: Msg) {}
    }

    fn node(port: u16) -> SimNode {
        let bucket = BucketId::default();
        SimNode::seeded(
            NodeId::loopback(port),
            NodeBandwidth::unlimited(),
            Box::new(Nop),
            5,
            42,
            bucket,
            bucket,
            bucket,
        )
    }

    #[test]
    fn ctx_stages_effects_without_applying_them() {
        let mut n = node(1);
        let dest = NodeId::loopback(2);
        let mut staged = StagedEffects::default();
        let mut ctx = SimCtx {
            node: &mut n,
            links: &[],
            now: 5,
            staged: &mut staged,
        };
        ctx.send(Msg::control(MsgType::SQuery, NodeId::loopback(1), 0), dest);
        ctx.set_timer(100, 7);
        ctx.probe_rtt(dest);
        ctx.close_link(dest);
        assert_eq!(ctx.now(), 5);
        assert_eq!(ctx.local_id(), NodeId::loopback(1));
        assert_eq!(staged.sends.len(), 1);
        assert_eq!(staged.send_counts, vec![(dest, 1)]);
        assert_eq!(staged.timers, vec![(100, 7)]);
        assert_eq!(staged.probes, vec![dest]);
        assert_eq!(staged.closes, vec![dest]);
        assert!(!staged.is_empty());
        assert!(n.outgoing.is_empty(), "staging must not create links");
    }

    #[test]
    fn backlog_reports_link_depth_plus_staged_sends() {
        let mut n = node(1);
        let dest = NodeId::loopback(2);
        let ghost = NodeId::loopback(9);
        let mut buckets = BucketSet::new();
        let b = buckets.insert(ioverlay_ratelimit::TokenBucket::new(
            ioverlay_ratelimit::Rate::mbps(1000),
            0,
        ));
        let mut link = DirectedLink::new((NodeIdx(0), n.id), (NodeIdx(1), dest));
        link.open_tx(5, [b; 4], 0, 4);
        link.queue
            .push_back(Msg::control(MsgType::Data, NodeId::loopback(1), 0));
        n.outgoing.push(OutLink {
            peer: dest,
            link: LinkIdx(0),
        });
        let links = [link];
        let mut staged = StagedEffects::default();
        let mut ctx = SimCtx {
            node: &mut n,
            links: &links,
            now: 0,
            staged: &mut staged,
        };
        assert_eq!(ctx.backlog(dest), Some(1));
        assert_eq!(ctx.backlog(ghost), None);
        ctx.send(Msg::control(MsgType::Data, NodeId::loopback(1), 0), dest);
        ctx.send(Msg::control(MsgType::Data, NodeId::loopback(1), 0), ghost);
        ctx.send(Msg::control(MsgType::Data, NodeId::loopback(1), 0), dest);
        assert_eq!(ctx.backlog(dest), Some(3));
        assert_eq!(ctx.backlog(ghost), Some(1), "no link yet, one staged");
    }

    #[test]
    fn node_rng_is_seed_and_id_deterministic() {
        let mut a1 = node(1);
        let mut a2 = node(1);
        let mut b = node(2);
        let x1: u64 = a1.rng.gen();
        let x2: u64 = a2.rng.gen();
        let y: u64 = b.rng.gen();
        assert_eq!(x1, x2);
        assert_ne!(x1, y);
    }

    #[test]
    fn app_route_bookkeeping() {
        let mut n = node(1);
        let (up, up2) = (NodeId::loopback(2), NodeId::loopback(7));
        let (down, down2) = (NodeId::loopback(3), NodeId::loopback(4));
        n.routes.note_upstream(7, up);
        n.routes.note_upstream(7, up);
        n.routes.note_upstream(7, up2);
        n.routes.note_downstream(7, down2);
        n.routes.note_downstream(7, down);
        n.routes.note_downstream(3, down);
        let routes: Vec<_> = n.routes.iter().map(|r| (r.app, &r.ups[..])).collect();
        assert_eq!(routes, vec![(3, &[][..]), (7, &[up, up2][..])]);
        assert_eq!(n.routes.drop_upstream(7, up), None, "still fed by up2");
        assert_eq!(
            n.routes.drop_upstream(7, up2),
            Some(vec![down, down2]),
            "address order"
        );
        assert_eq!(n.routes.drop_upstream(9, up), None, "unknown app");
        assert_eq!(
            n.routes.iter().map(|r| r.app).collect::<Vec<_>>(),
            vec![3],
            "a torn-down app leaves no entry, an unknown one makes none"
        );
    }

    #[test]
    fn link_lists_stay_sorted_by_peer_address() {
        let mut n = node(1);
        for (i, port) in [30u16, 10, 20, 10].into_iter().enumerate() {
            n.attach_incoming(NodeId::loopback(port), LinkIdx(i as u32));
        }
        let peers: Vec<u16> = n.incoming.iter().map(|e| e.peer.port()).collect();
        assert_eq!(peers, vec![10, 20, 30]);
        assert_eq!(n.incoming[0].link, LinkIdx(1), "the first attachment stays");
        assert_eq!(n.in_pos(NodeId::loopback(20)), Ok(1));
        assert_eq!(n.in_pos(NodeId::loopback(25)), Err(2));
        assert_eq!(n.wrr_len(), 0, "attached, not yet in the rotation");
    }

    proptest! {
        /// The rotation over the incoming list picks what
        /// `WeightedRoundRobin<NodeId>` picks, under any mix of weight
        /// changes, removals and selections.
        #[test]
        fn rotation_matches_the_queue_crate_scheduler(
            ops in proptest::collection::vec((0u8..4, 1u16..6, 0u32..4), 1..200),
        ) {
            let mut n = node(100);
            let mut oracle = WeightedRoundRobin::<NodeId>::new();
            for (op, port, weight) in ops {
                let peer = NodeId::loopback(port);
                match op {
                    0 => {
                        let pos = n.attach_incoming(peer, LinkIdx(u32::from(port)));
                        n.wrr_set_weight(pos, weight);
                        oracle.set_weight(peer, weight);
                    }
                    1 => {
                        if let Ok(pos) = n.in_pos(peer) {
                            n.incoming[pos].in_wrr = false;
                        }
                        oracle.remove(&peer);
                    }
                    _ => {
                        let got = n.wrr_next().map(|pos| n.incoming[pos].peer);
                        prop_assert_eq!(got, oracle.next().copied());
                    }
                }
                prop_assert_eq!(n.wrr_len(), oracle.len());
            }
        }
    }
}
