//! Data-dissemination tree construction — the second case study (§3.3).
//!
//! Three algorithms build multicast trees for a data session whose
//! bottleneck is the *"last-mile"* bandwidth of overlay nodes:
//!
//! * [`TreeVariant::NsAware`] — the paper's contribution: *node stress*
//!   is defined as the degree of a node divided by its available
//!   last-mile bandwidth; nodes periodically exchange stress with their
//!   parent and children; an `sQuery` is forwarded toward the
//!   minimum-stress node, which acknowledges and adopts the joiner;
//! * [`TreeVariant::Unicast`] — the all-unicast baseline: every query is
//!   forwarded to the session source, which adopts every joiner (a
//!   star);
//! * [`TreeVariant::Random`] — the randomized baseline: the first tree
//!   member contacted adopts the joiner immediately.
//!
//! A node's join sequence mirrors the paper: the joiner learns a contact
//! already in the tree (bootstrap), sends `sQuery`, and attaches where
//! the `sQueryAck` comes from. Data then flows down the tree by plain
//! copy-forwarding from parent to children.

use std::collections::{BTreeMap, BTreeSet};

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};
use serde::{Deserialize, Serialize};

use crate::base::IAlgorithmBase;

/// Algorithm-specific message: periodic node-stress exchange.
pub const STRESS_MSG: MsgType = MsgType::Custom(0x1001);

const STRESS_TIMER: u64 = 10;
const PUMP_TIMER: u64 = 11;
const STRESS_INTERVAL: u64 = 1_000_000_000; // 1 s
const PUMP_INTERVAL: u64 = 10_000_000; // 10 ms

/// Which tree-construction algorithm a node runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeVariant {
    /// All-unicast: every joiner becomes a child of the source.
    Unicast,
    /// Randomized: the first contacted member adopts the joiner.
    Random,
    /// Node-stress aware: queries walk toward minimum stress.
    NsAware,
}

/// `sJoin` payload: the observer tells a node to join `app`, contacting
/// `contact` (a node already in the tree) toward `source`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct JoinPayload {
    /// A member of the tree to send the first query to.
    pub contact: NodeId,
    /// The data source of the session.
    pub source: NodeId,
}

/// `sQuery` payload, relayed through the tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryPayload {
    /// The node that wants to join.
    pub joiner: NodeId,
    /// The session source.
    pub source: NodeId,
    /// Members already visited (loop prevention).
    pub visited: Vec<NodeId>,
    /// Remaining relay budget.
    pub ttl: u32,
}

/// `STRESS_MSG` payload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
struct StressPayload {
    stress: f64,
}

macro_rules! json_payload {
    ($ty:ty) => {
        impl $ty {
            /// Encodes the payload into message bytes.
            pub fn encode(&self) -> bytes::Bytes {
                bytes::Bytes::from(serde_json::to_vec(self).expect("payload serializes"))
            }
            /// Decodes the payload from message bytes.
            pub fn decode(bytes: &[u8]) -> Option<Self> {
                serde_json::from_slice(bytes).ok()
            }
        }
    };
}

json_payload!(JoinPayload);
json_payload!(QueryPayload);
json_payload!(StressPayload);

/// A participant in the tree-construction case study.
///
/// The same struct plays every role: the session source (after
/// `sDeploy`), an interior forwarder, and a joining leaf. The
/// `last_mile_kbps` parameter is the node's available last-mile
/// bandwidth — the denominator of its node stress.
#[derive(Debug)]
pub struct TreeNode {
    base: IAlgorithmBase,
    variant: TreeVariant,
    app: AppId,
    last_mile_kbps: f64,
    msg_bytes: usize,
    is_source: bool,
    source: Option<NodeId>,
    parent: Option<NodeId>,
    children: BTreeSet<NodeId>,
    neighbor_stress: BTreeMap<NodeId, f64>,
    pumping: bool,
    joined: bool,
}

impl TreeNode {
    /// Creates a node for `app` running the given variant.
    pub fn new(variant: TreeVariant, app: AppId, last_mile_kbps: f64, msg_bytes: usize) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            variant,
            app,
            last_mile_kbps,
            msg_bytes,
            is_source: false,
            source: None,
            parent: None,
            children: BTreeSet::new(),
            neighbor_stress: BTreeMap::new(),
            pumping: false,
            joined: false,
        }
    }

    /// This node's degree in the dissemination tree.
    pub fn degree(&self) -> usize {
        self.children.len() + usize::from(self.parent.is_some())
    }

    /// Node stress in the paper's unit (1/100 KBps): degree divided by
    /// last-mile bandwidth expressed in hundreds of KBps.
    pub fn stress(&self) -> f64 {
        self.degree() as f64 / (self.last_mile_kbps / 100.0)
    }

    /// This node's parent in the tree, if attached.
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    /// This node's children.
    pub fn children(&self) -> &BTreeSet<NodeId> {
        &self.children
    }

    fn tree_neighbors(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.parent.into_iter().chain(self.children.iter().copied())
    }

    fn broadcast_stress(&mut self, ctx: &mut dyn Context) {
        let payload = StressPayload {
            stress: self.stress(),
        };
        for peer in self.tree_neighbors().collect::<Vec<_>>() {
            let msg = Msg::new(STRESS_MSG, ctx.local_id(), self.app, 0, payload.encode());
            ctx.send(msg, peer);
        }
        ctx.set_timer(STRESS_INTERVAL, STRESS_TIMER);
    }

    /// Handles a relayed `sQuery` according to the variant.
    fn handle_query(&mut self, ctx: &mut dyn Context, mut q: QueryPayload) {
        if !self.joined {
            return; // only tree members route queries
        }
        let me = ctx.local_id();
        if !q.visited.contains(&me) {
            q.visited.push(me);
        }
        match self.variant {
            TreeVariant::Random => self.adopt(ctx, q.joiner),
            TreeVariant::Unicast => {
                if self.is_source {
                    self.adopt(ctx, q.joiner);
                } else {
                    let msg =
                        Msg::new(MsgType::SQuery, me, self.app, 0, q.encode());
                    ctx.send(msg, q.source);
                }
            }
            TreeVariant::NsAware => {
                if q.ttl == 0 {
                    self.adopt(ctx, q.joiner);
                    return;
                }
                // Compare own stress with parent and children; forward to
                // the minimum-stress unvisited neighbor, else adopt.
                let my_stress = self.stress();
                let best = self
                    .tree_neighbors()
                    .filter(|n| !q.visited.contains(n) && *n != q.joiner)
                    .filter_map(|n| self.neighbor_stress.get(&n).map(|s| (n, *s)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).expect("stress is finite"));
                match best {
                    Some((peer, stress)) if stress < my_stress => {
                        q.ttl -= 1;
                        let msg =
                            Msg::new(MsgType::SQuery, me, self.app, 0, q.encode());
                        ctx.send(msg, peer);
                    }
                    _ => self.adopt(ctx, q.joiner),
                }
            }
        }
    }

    fn adopt(&mut self, ctx: &mut dyn Context, joiner: NodeId) {
        if joiner == ctx.local_id() || self.children.contains(&joiner) {
            return;
        }
        self.children.insert(joiner);
        let ack = Msg::control(MsgType::SQueryAck, ctx.local_id(), self.app);
        ctx.send(ack, joiner);
        self.base
            .trace(ctx, &format!("adopted {joiner} (degree {})", self.degree()));
    }

    fn pump(&mut self, ctx: &mut dyn Context) {
        if !self.pumping {
            return;
        }
        if self.children.is_empty() {
            // Keep the pump armed so traffic starts as soon as the first
            // child attaches.
            ctx.set_timer(PUMP_INTERVAL, PUMP_TIMER);
            return;
        }
        loop {
            let children: Vec<NodeId> = self.children.iter().copied().collect();
            let room = children.iter().all(|d| {
                ctx.backlog(*d)
                    .is_none_or(|depth| depth < ctx.buffer_capacity())
            });
            if !room {
                break;
            }
            let msg = Msg::data(ctx.local_id(), self.app, 0, vec![0u8; self.msg_bytes]);
            for d in children {
                ctx.send(msg.clone(), d);
            }
        }
        ctx.set_timer(PUMP_INTERVAL, PUMP_TIMER);
    }
}

impl Algorithm for TreeNode {
    fn name(&self) -> &'static str {
        "tree-node"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(STRESS_INTERVAL, STRESS_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        match token {
            STRESS_TIMER => self.broadcast_stress(ctx),
            PUMP_TIMER => self.pump(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::SDeploy => {
                // This node becomes the session source.
                self.is_source = true;
                self.joined = true;
                self.pumping = true;
                self.source = Some(ctx.local_id());
                self.pump(ctx);
            }
            MsgType::SJoin => {
                let Some(join) = JoinPayload::decode(msg.payload()) else {
                    return;
                };
                self.source = Some(join.source);
                let q = QueryPayload {
                    joiner: ctx.local_id(),
                    source: join.source,
                    visited: Vec::new(),
                    ttl: 32,
                };
                let query = Msg::new(MsgType::SQuery, ctx.local_id(), self.app, 0, q.encode());
                ctx.send(query, join.contact);
            }
            MsgType::SQuery => {
                if let Some(q) = QueryPayload::decode(msg.payload()) {
                    self.handle_query(ctx, q);
                }
            }
            MsgType::SQueryAck => {
                self.parent = Some(msg.origin());
                self.joined = true;
            }
            STRESS_MSG => {
                if let Some(s) = StressPayload::decode(msg.payload()) {
                    self.neighbor_stress.insert(msg.origin(), s.stress);
                }
            }
            MsgType::Data => {
                // Forward down the tree (zero-copy clones per child).
                if msg.app() == self.app {
                    for child in self.children.iter().copied().collect::<Vec<_>>() {
                        ctx.send(msg.clone(), child);
                    }
                }
            }
            MsgType::NeighborFailed => {
                let peer = msg.origin();
                if self.parent == Some(peer) {
                    // Self-repair: the paper's fault-tolerance direction
                    // (§3.1) — an orphaned subtree root re-queries the
                    // session and reattaches, keeping its own children.
                    self.parent = None;
                    if let Some(source) = self.source.filter(|s| *s != peer && !self.is_source) {
                        let q = QueryPayload {
                            joiner: ctx.local_id(),
                            source,
                            visited: Vec::new(),
                            ttl: 32,
                        };
                        let query =
                            Msg::new(MsgType::SQuery, ctx.local_id(), self.app, 0, q.encode());
                        ctx.send(query, source);
                    }
                }
                self.children.remove(&peer);
                self.neighbor_stress.remove(&peer);
                self.base.handle_default(ctx, &msg);
            }
            MsgType::STerminate => {
                self.pumping = false;
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "tree-node",
            "variant": format!("{:?}", self.variant),
            "parent": self.parent.map(|p| p.to_string()),
            "children": self.children.iter().map(|c| c.to_string()).collect::<Vec<_>>(),
            "degree": self.degree(),
            "stress": self.stress(),
            "is_source": self.is_source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    fn n(port: u16) -> NodeId {
        NodeId::loopback(port)
    }

    #[test]
    fn stress_formula_matches_the_papers_unit() {
        // Table 3: source S with bandwidth 200 KBps and degree 4 has
        // stress 2.0 (in 1/100 KBps).
        let mut node = TreeNode::new(TreeVariant::Unicast, 1, 200.0, 1024);
        node.children.extend([n(2), n(3), n(4), n(5)]);
        assert_eq!(node.degree(), 4);
        assert!((node.stress() - 2.0).abs() < 1e-9);
        // A: bandwidth 500, degree 1 -> 0.2.
        let mut a = TreeNode::new(TreeVariant::Unicast, 1, 500.0, 1024);
        a.parent = Some(n(1));
        assert!((a.stress() - 0.2).abs() < 1e-9);
    }

    #[test]
    fn unicast_member_forwards_query_to_source() {
        let source = n(1);
        let mut member = TreeNode::new(TreeVariant::Unicast, 1, 100.0, 1024);
        member.joined = true;
        member.source = Some(source);
        let mut ctx = RecordingCtx::new(NodeId::loopback(5));
        let q = QueryPayload {
            joiner: n(9),
            source,
            visited: vec![],
            ttl: 32,
        };
        member.handle_query(&mut ctx, q);
        assert_eq!(ctx.staged.sends.len(), 1);
        assert_eq!(ctx.staged.sends[0].1, source);
        assert_eq!(ctx.staged.sends[0].0.ty(), MsgType::SQuery);
        assert!(member.children.is_empty(), "member does not adopt");
    }

    #[test]
    fn unicast_source_adopts_every_joiner() {
        let mut source = TreeNode::new(TreeVariant::Unicast, 1, 200.0, 1024);
        source.is_source = true;
        source.joined = true;
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        for joiner in [n(2), n(3), n(4), n(5)] {
            let q = QueryPayload {
                joiner,
                source: n(1),
                visited: vec![],
                ttl: 32,
            };
            source.handle_query(&mut ctx, q);
        }
        assert_eq!(source.degree(), 4);
        let acks: Vec<&(Msg, NodeId)> = ctx
            .staged
            .sends
            .iter()
            .filter(|(m, _)| m.ty() == MsgType::SQueryAck)
            .collect();
        assert_eq!(acks.len(), 4);
    }

    #[test]
    fn random_variant_adopts_at_first_contact() {
        let mut member = TreeNode::new(TreeVariant::Random, 1, 100.0, 1024);
        member.joined = true;
        let mut ctx = RecordingCtx::new(NodeId::loopback(3));
        let q = QueryPayload {
            joiner: n(9),
            source: n(1),
            visited: vec![],
            ttl: 32,
        };
        member.handle_query(&mut ctx, q);
        assert!(member.children.contains(&n(9)));
        assert_eq!(ctx.staged.sends[0].0.ty(), MsgType::SQueryAck);
        assert_eq!(ctx.staged.sends[0].1, n(9));
    }

    #[test]
    fn ns_aware_forwards_to_lower_stress_neighbor() {
        let mut member = TreeNode::new(TreeVariant::NsAware, 1, 100.0, 1024);
        member.joined = true;
        member.parent = Some(n(1));
        member.children.insert(n(4));
        // degree 2, bandwidth 100 -> stress 2.0; child n(4) advertises 0.3.
        member.neighbor_stress.insert(n(4), 0.3);
        member.neighbor_stress.insert(n(1), 5.0);
        let mut ctx = RecordingCtx::new(NodeId::loopback(3));
        let q = QueryPayload {
            joiner: n(9),
            source: n(1),
            visited: vec![],
            ttl: 32,
        };
        member.handle_query(&mut ctx, q);
        assert_eq!(ctx.staged.sends.len(), 1);
        assert_eq!(
            ctx.staged.sends[0].1,
            n(4),
            "forwarded toward minimum stress"
        );
        assert_eq!(ctx.staged.sends[0].0.ty(), MsgType::SQuery);
        // The forwarded query records this node as visited.
        let fwd = QueryPayload::decode(ctx.staged.sends[0].0.payload()).unwrap();
        assert!(fwd.visited.contains(&n(3)));
        assert_eq!(fwd.ttl, 31);
    }

    #[test]
    fn ns_aware_adopts_when_it_is_the_minimum() {
        let mut member = TreeNode::new(TreeVariant::NsAware, 1, 500.0, 1024);
        member.joined = true;
        member.parent = Some(n(1));
        member.neighbor_stress.insert(n(1), 1.0); // parent busier
        let mut ctx = RecordingCtx::new(NodeId::loopback(2));
        let q = QueryPayload {
            joiner: n(9),
            source: n(1),
            visited: vec![],
            ttl: 32,
        };
        member.handle_query(&mut ctx, q);
        assert!(member.children.contains(&n(9)));
    }

    #[test]
    fn ns_aware_never_bounces_to_visited_nodes() {
        let mut member = TreeNode::new(TreeVariant::NsAware, 1, 100.0, 1024);
        member.joined = true;
        member.parent = Some(n(1));
        member.neighbor_stress.insert(n(1), 0.0); // parent looks better...
        let mut ctx = RecordingCtx::new(NodeId::loopback(2));
        let q = QueryPayload {
            joiner: n(9),
            source: n(1),
            visited: vec![n(1)], // ...but was already visited
            ttl: 32,
        };
        member.handle_query(&mut ctx, q);
        assert!(member.children.contains(&n(9)), "adopts instead of looping");
    }

    #[test]
    fn join_flow_end_to_end_at_message_level() {
        let mut joiner = TreeNode::new(TreeVariant::Random, 1, 100.0, 1024);
        let mut ctx = RecordingCtx::new(NodeId::loopback(9));
        let join = JoinPayload {
            contact: n(1),
            source: n(1),
        };
        joiner.on_message(
            &mut ctx,
            Msg::new(MsgType::SJoin, n(99), 1, 0, join.encode()),
        );
        assert_eq!(ctx.staged.sends[0].0.ty(), MsgType::SQuery);
        assert_eq!(ctx.staged.sends[0].1, n(1));
        // Ack arrives; the joiner is now attached.
        joiner.on_message(&mut ctx, Msg::control(MsgType::SQueryAck, n(1), 1));
        assert_eq!(joiner.parent(), Some(n(1)));
        assert!(joiner.status()["parent"].as_str().unwrap().contains("1"));
    }

    #[test]
    fn data_is_forwarded_to_children_only_for_own_app() {
        let mut node = TreeNode::new(TreeVariant::Random, 7, 100.0, 64);
        node.children.insert(n(5));
        let mut ctx = RecordingCtx::new(NodeId::loopback(2));
        node.on_message(&mut ctx, Msg::data(n(1), 7, 0, vec![0u8; 8]));
        node.on_message(&mut ctx, Msg::data(n(1), 8, 0, vec![0u8; 8]));
        assert_eq!(ctx.staged.sends.len(), 1);
        assert_eq!(ctx.staged.sends[0].1, n(5));
    }

    #[test]
    fn parent_failure_clears_tree_state() {
        let mut node = TreeNode::new(TreeVariant::NsAware, 1, 100.0, 64);
        node.parent = Some(n(1));
        node.children.insert(n(5));
        node.neighbor_stress.insert(n(1), 1.0);
        let mut ctx = RecordingCtx::new(NodeId::loopback(2));
        node.on_message(&mut ctx, Msg::control(MsgType::NeighborFailed, n(1), 1));
        assert_eq!(node.parent(), None);
        assert!(node.children.contains(&n(5)), "children unaffected");
        assert!(!node.neighbor_stress.contains_key(&n(1)));
    }
}
