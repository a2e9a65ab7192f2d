//! A Chord-style distributed hash table built on the iOverlay interface.
//!
//! The paper opens with *"structured search protocols such as Pastry and
//! Chord"* as the archetypal overlay applications its middleware serves,
//! and argues that iOverlay is *"sufficiently generic to accommodate
//! virtually any applications"*. This module backs that claim with a
//! working DHT written purely against [`ioverlay_api::Algorithm`]: ring
//! joins, iteratively-fixed finger tables, periodic stabilization,
//! key-value puts/gets routed to the responsible node, and repair after
//! failures — all as reactive message handling plus timers, with
//! `ctx.send` as the only middleware call, exactly as §2.3 prescribes.
//!
//! The design follows Chord (Stoica et al., SIGCOMM 2001):
//!
//! * identifiers are 64-bit points on a ring (`hash(ip:port)` for nodes,
//!   `hash(key)` for data);
//! * each node tracks a predecessor, a successor list (for fault
//!   tolerance), and a 64-entry finger table;
//! * `find_successor` routes greedily via the closest preceding finger;
//! * a periodic *stabilize* round reconciles successor/predecessor
//!   pointers, and *fix-fingers* refreshes one finger per round.

use std::collections::{BTreeMap, HashMap};

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};
use serde::{Deserialize, Serialize};

use crate::base::IAlgorithmBase;

/// All DHT protocol traffic rides one algorithm-specific message type.
pub const DHT_MSG: MsgType = MsgType::Custom(0x1030);

/// Observer command: payload bytes are a key; the receiving node issues
/// a lookup for it (results appear in the node's status).
pub const DHT_LOOKUP_CMD: MsgType = MsgType::Custom(0x1031);

const STABILIZE_TIMER: u64 = 40;
const STABILIZE_INTERVAL: u64 = 1_000_000_000; // 1 s
const SUCCESSOR_LIST_LEN: usize = 4;
const RING_BITS: u32 = 64;

/// Hashes an arbitrary byte string onto the ring.
pub fn hash_key(key: &[u8]) -> u64 {
    // FNV-1a then a splitmix finalizer: cheap, deterministic, and well
    // spread for our purposes (not cryptographic, like the paper's era).
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a node identity onto the ring.
pub fn node_point(node: NodeId) -> u64 {
    hash_key(node.to_string().as_bytes())
}

/// Whether `x` lies in the half-open ring interval `(from, to]`.
fn in_interval(x: u64, from: u64, to: u64) -> bool {
    if from < to {
        x > from && x <= to
    } else if from > to {
        x > from || x <= to
    } else {
        true // full circle
    }
}

/// DHT protocol payloads, carried in `DHT_MSG` messages.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum DhtWire {
    /// Route a successor query for `point`; reply to `reply_to` with
    /// the same `token`.
    FindSuccessor {
        /// Ring point being resolved.
        point: u64,
        /// Who wants the answer.
        reply_to: NodeId,
        /// Correlates the reply with the purpose of the query.
        token: u64,
        /// Routing hops so far (diagnostics + loop bound).
        hops: u32,
    },
    /// Answer to `FindSuccessor`.
    FoundSuccessor {
        /// The resolved owner of the queried point.
        owner: NodeId,
        /// Echoed token.
        token: u64,
        /// Total routing hops.
        hops: u32,
    },
    /// Ask a node for its predecessor and successor list (stabilize).
    GetNeighbors,
    /// Stabilize reply.
    Neighbors {
        /// The asked node's predecessor, if known.
        predecessor: Option<NodeId>,
        /// The asked node's successor list.
        successors: Vec<NodeId>,
    },
    /// Tell a node it may have a new predecessor (Chord's `notify`).
    Notify,
    /// Store a value at the responsible node.
    Put {
        /// Ring point of the key.
        point: u64,
        /// Stored bytes.
        value: Vec<u8>,
    },
    /// Fetch a value from the responsible node; reply to `reply_to`.
    Get {
        /// Ring point of the key.
        point: u64,
        /// Who wants the value.
        reply_to: NodeId,
        /// Correlation token.
        token: u64,
    },
    /// `Get` reply.
    GotValue {
        /// Echoed token.
        token: u64,
        /// The stored bytes, if the key exists.
        value: Option<Vec<u8>>,
    },
}

impl DhtWire {
    fn encode(&self) -> bytes::Bytes {
        bytes::Bytes::from(serde_json::to_vec(self).expect("wire serializes"))
    }
    fn decode(bytes: &[u8]) -> Option<Self> {
        serde_json::from_slice(bytes).ok()
    }
}

/// Why a `FindSuccessor` was issued (keyed by token range).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueryPurpose {
    Join,
    FixFinger(usize),
    UserLookup(u64),
}

/// A Chord-style DHT node.
pub struct ChordNode {
    base: IAlgorithmBase,
    app: AppId,
    contact: Option<NodeId>,
    point: u64,
    predecessor: Option<NodeId>,
    successors: Vec<NodeId>,
    fingers: Vec<Option<NodeId>>,
    next_finger: usize,
    storage: HashMap<u64, Vec<u8>>,
    pending: HashMap<u64, QueryPurpose>,
    next_token: u64,
    /// Resolved user lookups: key point -> (owner, hops).
    resolved: BTreeMap<u64, (NodeId, u32)>,
    /// Values returned by user gets: token -> value.
    retrieved: BTreeMap<u64, Option<Vec<u8>>>,
    joined: bool,
    lookups_routed: u64,
}

impl std::fmt::Debug for ChordNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChordNode")
            .field("point", &self.point)
            .field("joined", &self.joined)
            .field("successors", &self.successors)
            .finish()
    }
}

impl ChordNode {
    /// Creates a node. `contact = None` makes this the ring's first
    /// member; otherwise the node joins via the contact.
    ///
    /// The node's ring point is derived from `local` so the caller can
    /// compute placements; pass the same id used to add the node.
    pub fn new(app: AppId, local: NodeId, contact: Option<NodeId>) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            app,
            contact,
            point: node_point(local),
            predecessor: None,
            successors: Vec::new(),
            fingers: vec![None; RING_BITS as usize],
            next_finger: 0,
            storage: HashMap::new(),
            pending: HashMap::new(),
            next_token: 0,
            resolved: BTreeMap::new(),
            retrieved: BTreeMap::new(),
            joined: false,
            lookups_routed: 0,
        }
    }

    /// This node's ring point.
    pub fn point(&self) -> u64 {
        self.point
    }

    fn successor(&self) -> Option<NodeId> {
        self.successors.first().copied()
    }

    fn send_wire(&self, ctx: &mut dyn Context, to: NodeId, wire: &DhtWire) {
        let msg = Msg::new(DHT_MSG, ctx.local_id(), self.app, 0, wire.encode());
        ctx.send(msg, to);
    }

    /// The finger (or successor) whose point most closely precedes
    /// `target`.
    fn closest_preceding(&self, me: u64, target: u64) -> Option<NodeId> {
        let candidates = self
            .fingers
            .iter()
            .flatten()
            .chain(self.successors.iter())
            .copied();
        let mut best: Option<(NodeId, u64)> = None;
        for node in candidates {
            let p = node_point(node);
            if in_interval(p, me, target.wrapping_sub(1)) {
                match best {
                    Some((_, bp)) if in_interval(bp, p, target.wrapping_sub(1)) => {}
                    _ => best = Some((node, p)),
                }
            }
        }
        best.map(|(n, _)| n)
    }

    /// Core routing: answer or forward a `FindSuccessor`.
    fn route_find(
        &mut self,
        ctx: &mut dyn Context,
        point: u64,
        reply_to: NodeId,
        token: u64,
        hops: u32,
    ) {
        self.lookups_routed += 1;
        let me = ctx.local_id();
        match self.successor() {
            Some(successor) if in_interval(point, self.point, node_point(successor)) => {
                let reply = DhtWire::FoundSuccessor {
                    owner: successor,
                    token,
                    hops,
                };
                if reply_to == me {
                    self.handle_found(ctx, successor, token, hops);
                } else {
                    self.send_wire(ctx, reply_to, &reply);
                }
            }
            Some(_) if hops < 2 * RING_BITS => {
                let next = self
                    .closest_preceding(self.point, point)
                    .or_else(|| self.successor())
                    .expect("successor exists in this arm");
                let fwd = DhtWire::FindSuccessor {
                    point,
                    reply_to,
                    token,
                    hops: hops + 1,
                };
                if next == me {
                    // Degenerate single-node ring: we own everything.
                    self.handle_found(ctx, me, token, hops);
                } else {
                    self.send_wire(ctx, next, &fwd);
                }
            }
            _ => {
                // No successor yet (bootstrapping) or hop budget blown:
                // answer with ourselves as a safe fallback.
                if reply_to == me {
                    self.handle_found(ctx, me, token, hops);
                } else {
                    let reply = DhtWire::FoundSuccessor {
                        owner: me,
                        token,
                        hops,
                    };
                    self.send_wire(ctx, reply_to, &reply);
                }
            }
        }
    }

    fn handle_found(&mut self, ctx: &mut dyn Context, owner: NodeId, token: u64, hops: u32) {
        let me = ctx.local_id();
        match self.pending.remove(&token) {
            Some(QueryPurpose::Join) => {
                if owner != me {
                    self.adopt_successor(owner);
                }
                self.joined = true;
            }
            Some(QueryPurpose::FixFinger(i)) => {
                self.fingers[i] = Some(owner).filter(|o| *o != me);
            }
            Some(QueryPurpose::UserLookup(point)) => {
                self.resolved.insert(point, (owner, hops));
            }
            None => {}
        }
    }

    fn adopt_successor(&mut self, node: NodeId) {
        if self.successors.first() == Some(&node) {
            return;
        }
        self.successors.retain(|s| *s != node);
        self.successors.insert(0, node);
        self.successors.truncate(SUCCESSOR_LIST_LEN);
    }

    fn issue_query(&mut self, ctx: &mut dyn Context, point: u64, purpose: QueryPurpose) {
        self.next_token += 1;
        let token = self.next_token;
        self.pending.insert(token, purpose);
        let me = ctx.local_id();
        self.route_find(ctx, point, me, token, 0);
    }

    /// Initiates a user-level lookup for `key`; the owner appears in
    /// [`ChordNode::resolved_owner`] once routing completes.
    pub fn lookup(&mut self, ctx: &mut dyn Context, key: &[u8]) -> u64 {
        let point = hash_key(key);
        self.issue_query(ctx, point, QueryPurpose::UserLookup(point));
        point
    }

    /// The resolved owner of a looked-up key point, if the lookup has
    /// completed: `(owner, routing_hops)`.
    pub fn resolved_owner(&self, point: u64) -> Option<(NodeId, u32)> {
        self.resolved.get(&point).copied()
    }

    fn stabilize(&mut self, ctx: &mut dyn Context) {
        if let Some(successor) = self.successor() {
            self.send_wire(ctx, successor, &DhtWire::GetNeighbors);
        } else if let Some(contact) = self.contact {
            // Still bootstrapping: (re)issue the join query.
            self.next_token += 1;
            let token = self.next_token;
            self.pending.insert(token, QueryPurpose::Join);
            let wire = DhtWire::FindSuccessor {
                point: self.point,
                reply_to: ctx.local_id(),
                token,
                hops: 0,
            };
            self.send_wire(ctx, contact, &wire);
        } else {
            self.joined = true; // ring creator
        }
        // Fix one finger per round.
        if self.successor().is_some() {
            let i = self.next_finger;
            self.next_finger = (self.next_finger + 1) % RING_BITS as usize;
            let target = self.point.wrapping_add(1u64 << i);
            self.issue_query(ctx, target, QueryPurpose::FixFinger(i));
        }
        ctx.set_timer(STABILIZE_INTERVAL, STABILIZE_TIMER);
    }

    fn handle_wire(&mut self, ctx: &mut dyn Context, from: NodeId, wire: DhtWire) {
        let me = ctx.local_id();
        match wire {
            DhtWire::FindSuccessor {
                point,
                reply_to,
                token,
                hops,
            } => self.route_find(ctx, point, reply_to, token, hops),
            DhtWire::FoundSuccessor { owner, token, hops } => {
                self.handle_found(ctx, owner, token, hops);
            }
            DhtWire::GetNeighbors => {
                let reply = DhtWire::Neighbors {
                    predecessor: self.predecessor,
                    successors: self.successors.clone(),
                };
                self.send_wire(ctx, from, &reply);
            }
            DhtWire::Neighbors {
                predecessor,
                successors,
            } => {
                // Chord stabilize: if our successor's predecessor sits
                // between us and the successor, it becomes our successor.
                if let (Some(p), Some(s)) = (predecessor, self.successor()) {
                    if p != me && in_interval(node_point(p), self.point, node_point(s)) {
                        self.adopt_successor(p);
                    }
                }
                // Refresh the backup successor list from the successor's.
                if let Some(s) = self.successor() {
                    let mut list = vec![s];
                    list.extend(successors.into_iter().filter(|n| *n != me && *n != s));
                    list.truncate(SUCCESSOR_LIST_LEN);
                    self.successors = list;
                    let target = self.successor().expect("just set");
                    self.send_wire(ctx, target, &DhtWire::Notify);
                }
            }
            DhtWire::Notify => {
                let better = match self.predecessor {
                    None => true,
                    Some(p) => {
                        p == from || in_interval(node_point(from), node_point(p), self.point)
                    }
                };
                if better && from != me {
                    self.predecessor = Some(from);
                }
                // A ring creator (successor list still empty — Chord's
                // `successor = self`) adopts its first notifier, closing
                // the two-node ring.
                if self.successors.is_empty() && from != me {
                    self.adopt_successor(from);
                }
            }
            DhtWire::Put { point, value } => {
                // Store if we are responsible, otherwise route onward.
                let responsible = self
                    .predecessor
                    .map(|p| in_interval(point, node_point(p), self.point))
                    .unwrap_or(true);
                if responsible {
                    self.storage.insert(point, value);
                } else if let Some(next) = self
                    .closest_preceding(self.point, point)
                    .or_else(|| self.successor())
                {
                    self.send_wire(ctx, next, &DhtWire::Put { point, value });
                } else {
                    self.storage.insert(point, value);
                }
            }
            DhtWire::Get {
                point,
                reply_to,
                token,
            } => {
                let responsible = self
                    .predecessor
                    .map(|p| in_interval(point, node_point(p), self.point))
                    .unwrap_or(true);
                if responsible || self.storage.contains_key(&point) {
                    let reply = DhtWire::GotValue {
                        token,
                        value: self.storage.get(&point).cloned(),
                    };
                    if reply_to == me {
                        self.retrieved.insert(token, self.storage.get(&point).cloned());
                    } else {
                        self.send_wire(ctx, reply_to, &reply);
                    }
                } else if let Some(next) = self
                    .closest_preceding(self.point, point)
                    .or_else(|| self.successor())
                {
                    self.send_wire(
                        ctx,
                        next,
                        &DhtWire::Get {
                            point,
                            reply_to,
                            token,
                        },
                    );
                }
            }
            DhtWire::GotValue { token, value } => {
                self.retrieved.insert(token, value);
            }
        }
    }

    /// Stores `value` under `key`, routed to the responsible node.
    pub fn put(&mut self, ctx: &mut dyn Context, key: &[u8], value: Vec<u8>) {
        let point = hash_key(key);
        let me = ctx.local_id();
        self.handle_wire(ctx, me, DhtWire::Put { point, value });
    }

    /// Requests the value stored under `key`; returns the token under
    /// which the result appears in [`ChordNode::retrieved_value`].
    pub fn get(&mut self, ctx: &mut dyn Context, key: &[u8]) -> u64 {
        self.next_token += 1;
        let token = self.next_token;
        let me = ctx.local_id();
        self.handle_wire(
            ctx,
            me,
            DhtWire::Get {
                point: hash_key(key),
                reply_to: me,
                token,
            },
        );
        token
    }

    /// The value returned for a `get` token, once the reply arrived.
    /// `Some(None)` means the reply arrived and the key does not exist.
    pub fn retrieved_value(&self, token: u64) -> Option<&Option<Vec<u8>>> {
        self.retrieved.get(&token)
    }
}

impl Algorithm for ChordNode {
    fn name(&self) -> &'static str {
        "chord-node"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.stabilize(ctx);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        if token == STABILIZE_TIMER {
            self.stabilize(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            DHT_MSG => {
                if msg.app() == self.app {
                    if let Some(wire) = DhtWire::decode(msg.payload()) {
                        self.handle_wire(ctx, msg.origin(), wire);
                    }
                }
            }
            DHT_LOOKUP_CMD => {
                let key = msg.payload().to_vec();
                self.lookup(ctx, &key);
            }
            MsgType::NeighborFailed => {
                let peer = msg.origin();
                // Ring repair: drop the dead node everywhere; the
                // successor list keeps the ring connected.
                self.successors.retain(|s| *s != peer);
                for f in self.fingers.iter_mut() {
                    if *f == Some(peer) {
                        *f = None;
                    }
                }
                if self.predecessor == Some(peer) {
                    self.predecessor = None;
                }
                if self.contact == Some(peer) {
                    self.contact = self.successor();
                }
                self.base.handle_default(ctx, &msg);
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "chord-node",
            "point": format!("{:#018x}", self.point),
            "joined": self.joined,
            "predecessor": self.predecessor.map(|p| p.to_string()),
            "successors": self.successors.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            "fingers_set": self.fingers.iter().flatten().count(),
            "stored_keys": self.storage.len(),
            "lookups_routed": self.lookups_routed,
            "resolved": self.resolved.iter().map(|(point, (owner, hops))| {
                serde_json::json!({
                    "point": format!("{point:#018x}"),
                    "owner": owner.to_string(),
                    "hops": hops,
                })
            }).collect::<Vec<_>>(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    #[test]
    fn interval_semantics_wrap_the_ring() {
        assert!(in_interval(5, 1, 10));
        assert!(in_interval(10, 1, 10), "half-open: to is included");
        assert!(!in_interval(1, 1, 10), "from is excluded");
        // Wrapping interval (from > to).
        assert!(in_interval(u64::MAX, 100, 10));
        assert!(in_interval(5, 100, 10));
        assert!(!in_interval(50, 100, 10));
        // Degenerate full-circle interval.
        assert!(in_interval(42, 7, 7));
    }

    #[test]
    fn hash_is_deterministic_and_spread() {
        assert_eq!(hash_key(b"alpha"), hash_key(b"alpha"));
        assert_ne!(hash_key(b"alpha"), hash_key(b"beta"));
        // Node points differ across ports.
        let a = node_point(NodeId::loopback(1));
        let b = node_point(NodeId::loopback(2));
        assert_ne!(a, b);
    }

    #[test]
    fn single_node_ring_owns_everything() {
        let me = NodeId::loopback(1);
        let mut node = ChordNode::new(1, me, None);
        let mut ctx = RecordingCtx::default();
        node.on_start(&mut ctx);
        assert!(node.joined, "a contactless node creates the ring");
        // Put and get locally.
        node.put(&mut ctx, b"k", b"v".to_vec());
        let token = node.get(&mut ctx, b"k");
        assert_eq!(
            node.retrieved_value(token),
            Some(&Some(b"v".to_vec())),
            "single node stores and serves its own keys"
        );
        // A lookup resolves to ourselves.
        let point = node.lookup(&mut ctx, b"anything");
        assert_eq!(node.resolved_owner(point).map(|(o, _)| o), Some(me));
    }
}
