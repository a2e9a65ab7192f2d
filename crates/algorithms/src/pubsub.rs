//! Content-based networking — the first "How useful is iOverlay?"
//! sketch of §3.1.
//!
//! In a content-based network *"messages are not addressed to any
//! specific node; rather, a node advertises predicates that define
//! messages of interest ... The content-based service consists of
//! delivering a message to all the client nodes that advertised
//! predicates matching the message. Any algorithm in content-based
//! networks boils down to one that makes decisions on which nodes should
//! a message be forwarded to"* — which is exactly a derived `iAlgorithm`
//! whose data handler consults a routing table of predicates.
//!
//! The implementation here is a classic attribute-based pub/sub router:
//!
//! * events are sets of `attribute = integer` pairs carried in `data`
//!   payloads ([`Event`]);
//! * subscriptions are conjunctions of per-attribute constraints
//!   ([`Predicate`], [`Constraint`]);
//! * [`ContentRouter`] nodes form an overlay in which subscriptions
//!   propagate to all neighbors (reverse-path forwarding) and events
//!   follow matching predicate entries hop by hop.

use std::collections::{BTreeMap, BTreeSet};

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};
use serde::{Deserialize, Serialize};

use crate::base::IAlgorithmBase;

/// Subscription advertisement (algorithm-specific message type).
pub const SUBSCRIBE_MSG: MsgType = MsgType::Custom(0x1020);

/// One attribute constraint of a predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Constraint {
    /// Attribute must equal the value.
    Eq(i64),
    /// Attribute must be strictly less than the value.
    Lt(i64),
    /// Attribute must be strictly greater than the value.
    Gt(i64),
    /// Attribute must lie in `[lo, hi]`.
    Between(i64, i64),
    /// Attribute must merely be present.
    Exists,
}

impl Constraint {
    /// Whether a present attribute value satisfies this constraint.
    pub fn matches(&self, value: i64) -> bool {
        match *self {
            Constraint::Eq(v) => value == v,
            Constraint::Lt(v) => value < v,
            Constraint::Gt(v) => value > v,
            Constraint::Between(lo, hi) => (lo..=hi).contains(&value),
            Constraint::Exists => true,
        }
    }
}

/// A conjunction of attribute constraints.
///
/// # Example
///
/// ```
/// use ioverlay_algorithms::pubsub::{Constraint, Event, Predicate};
///
/// let pred = Predicate::new()
///     .with("symbol", Constraint::Eq(42))
///     .with("price", Constraint::Gt(100));
/// let event = Event::new().with("symbol", 42).with("price", 120);
/// assert!(pred.matches(&event));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Predicate {
    constraints: BTreeMap<String, Constraint>,
}

impl Predicate {
    /// An empty predicate (matches everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a constraint (builder style).
    pub fn with(mut self, attribute: &str, constraint: Constraint) -> Self {
        self.constraints.insert(attribute.to_owned(), constraint);
        self
    }

    /// Whether the event satisfies every constraint.
    pub fn matches(&self, event: &Event) -> bool {
        self.constraints.iter().all(|(attr, c)| {
            event
                .attributes
                .get(attr)
                .is_some_and(|value| c.matches(*value))
        })
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// Whether the predicate has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }
}

/// An event: named integer attributes plus an opaque body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Event {
    attributes: BTreeMap<String, i64>,
    /// Application payload delivered to matching subscribers.
    pub body: Vec<u8>,
}

impl Event {
    /// An empty event.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets an attribute (builder style).
    pub fn with(mut self, attribute: &str, value: i64) -> Self {
        self.attributes.insert(attribute.to_owned(), value);
        self
    }

    /// Sets the body (builder style).
    pub fn with_body(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }
}

/// `SUBSCRIBE_MSG` payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubscribePayload {
    /// The subscribing node (the tree sink for matching events).
    pub subscriber: NodeId,
    /// The predicate being advertised.
    pub predicate: Predicate,
    /// Monotonic id so re-advertisements replace older versions.
    pub version: u64,
    /// Remaining propagation budget.
    pub ttl: u32,
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

json_payload!(SubscribePayload);
json_payload!(Event);

/// A content-based router node.
///
/// Routers are wired into a static overlay mesh (`neighbors`).
/// Subscriptions flood the mesh (with duplicate suppression by
/// `(subscriber, version)`), leaving reverse-path routing state; events
/// are forwarded along every hop whose routing state matches, and
/// delivered locally when this node's own subscription matches.
#[derive(Debug)]
pub struct ContentRouter {
    base: IAlgorithmBase,
    app: AppId,
    neighbors: Vec<NodeId>,
    /// Routing table: subscriber -> (version, next hop toward it, predicate).
    routes: BTreeMap<NodeId, (u64, NodeId, Predicate)>,
    /// Local subscriptions (for delivery).
    local: Vec<Predicate>,
    next_version: u64,
    delivered: Vec<Event>,
    forwarded: u64,
}

impl ContentRouter {
    /// Creates a router for `app` attached to `neighbors`.
    pub fn new(app: AppId, neighbors: Vec<NodeId>) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            app,
            neighbors,
            routes: BTreeMap::new(),
            local: Vec::new(),
            next_version: 0,
            delivered: Vec::new(),
            forwarded: 0,
        }
    }

    /// Subscribes this node (builder style): advertised on start.
    pub fn with_subscription(mut self, predicate: Predicate) -> Self {
        self.local.push(predicate);
        self
    }

    /// Events delivered to local subscriptions so far.
    pub fn delivered(&self) -> &[Event] {
        &self.delivered
    }

    /// Events forwarded onward so far.
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    /// Publishes an event into the mesh from this node.
    pub fn publish(&mut self, ctx: &mut dyn Context, event: &Event) {
        self.route_event(ctx, event, None);
    }

    fn advertise(&mut self, ctx: &mut dyn Context) {
        for predicate in self.local.clone() {
            self.next_version += 1;
            let payload = SubscribePayload {
                subscriber: ctx.local_id(),
                predicate,
                version: self.next_version,
                ttl: 32,
            };
            for peer in self.neighbors.clone() {
                let msg = Msg::new(SUBSCRIBE_MSG, ctx.local_id(), self.app, 0, payload.encode());
                ctx.send(msg, peer);
            }
        }
    }

    fn handle_subscribe(&mut self, ctx: &mut dyn Context, from: NodeId, sub: SubscribePayload) {
        let stale = self
            .routes
            .get(&sub.subscriber)
            .is_some_and(|(v, _, _)| *v >= sub.version);
        if stale || sub.subscriber == ctx.local_id() {
            return;
        }
        self.routes
            .insert(sub.subscriber, (sub.version, from, sub.predicate.clone()));
        if sub.ttl == 0 {
            return;
        }
        let relayed = SubscribePayload {
            ttl: sub.ttl - 1,
            ..sub
        };
        for peer in self.neighbors.clone() {
            if peer != from {
                let msg = Msg::new(SUBSCRIBE_MSG, ctx.local_id(), self.app, 0, relayed.encode());
                ctx.send(msg, peer);
            }
        }
    }

    /// Forwards an event to every next hop with a matching subscriber,
    /// and delivers it locally if a local predicate matches.
    fn route_event(&mut self, ctx: &mut dyn Context, event: &Event, came_from: Option<NodeId>) {
        if self.local.iter().any(|p| p.matches(event)) {
            self.delivered.push(event.clone());
        }
        let mut hops: BTreeSet<NodeId> = BTreeSet::new();
        for (_, (_, next_hop, predicate)) in self.routes.iter() {
            if Some(*next_hop) != came_from && predicate.matches(event) {
                hops.insert(*next_hop);
            }
        }
        if !hops.is_empty() {
            self.forwarded += 1;
        }
        let msg = Msg::data(ctx.local_id(), self.app, 0, event.encode());
        for hop in hops {
            ctx.send(msg.clone(), hop);
        }
    }
}

impl Algorithm for ContentRouter {
    fn name(&self) -> &'static str {
        "content-router"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        self.advertise(ctx);
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            SUBSCRIBE_MSG => {
                if let Some(sub) = SubscribePayload::decode(msg.payload()) {
                    self.handle_subscribe(ctx, msg.origin(), sub);
                }
            }
            MsgType::Data if msg.app() == self.app => {
                if let Some(event) = Event::decode(msg.payload()) {
                    self.route_event(ctx, &event, Some(msg.origin()));
                }
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "content-router",
            "routes": self.routes.len(),
            "local_subscriptions": self.local.len(),
            "delivered": self.delivered.len(),
            "forwarded": self.forwarded,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    fn n(p: u16) -> NodeId {
        NodeId::loopback(p)
    }

    #[test]
    fn constraints_match_correctly() {
        assert!(Constraint::Eq(5).matches(5));
        assert!(!Constraint::Eq(5).matches(6));
        assert!(Constraint::Lt(5).matches(4));
        assert!(!Constraint::Lt(5).matches(5));
        assert!(Constraint::Gt(5).matches(6));
        assert!(Constraint::Between(1, 3).matches(2));
        assert!(Constraint::Between(1, 3).matches(3));
        assert!(!Constraint::Between(1, 3).matches(4));
        assert!(Constraint::Exists.matches(i64::MIN));
    }

    #[test]
    fn predicate_is_a_conjunction() {
        let pred = Predicate::new()
            .with("a", Constraint::Gt(0))
            .with("b", Constraint::Lt(10));
        assert!(pred.matches(&Event::new().with("a", 1).with("b", 5)));
        assert!(!pred.matches(&Event::new().with("a", 1).with("b", 50)));
        assert!(
            !pred.matches(&Event::new().with("a", 1)),
            "missing attributes never match"
        );
        assert!(Predicate::new().matches(&Event::new()), "empty matches all");
    }

    #[test]
    fn event_payload_roundtrip() {
        let event = Event::new()
            .with("temp", -40)
            .with_body(b"brr".to_vec());
        assert_eq!(Event::decode(&event.encode()).unwrap(), event);
    }

    #[test]
    fn subscriptions_flood_with_duplicate_suppression() {
        let mut router = ContentRouter::new(1, vec![n(2), n(3), n(4)]);
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let sub = SubscribePayload {
            subscriber: n(9),
            predicate: Predicate::new().with("x", Constraint::Exists),
            version: 1,
            ttl: 8,
        };
        let msg = Msg::new(SUBSCRIBE_MSG, n(2), 1, 0, sub.encode());
        router.on_message(&mut ctx, msg.clone());
        // Relayed to every neighbor except the one it came from.
        assert_eq!(ctx.staged.sends.len(), 2);
        assert!(ctx.staged.sends.iter().all(|(_, d)| *d != n(2)));
        // A duplicate (same version) is suppressed.
        router.on_message(&mut ctx, msg);
        assert_eq!(ctx.staged.sends.len(), 2);
        // A newer version propagates again.
        let newer = SubscribePayload {
            version: 2,
            ..SubscribePayload::decode(
                &SubscribePayload {
                    subscriber: n(9),
                    predicate: Predicate::new(),
                    version: 2,
                    ttl: 8,
                }
                .encode(),
            )
            .unwrap()
        };
        router.on_message(&mut ctx, Msg::new(SUBSCRIBE_MSG, n(3), 1, 0, newer.encode()));
        assert_eq!(ctx.staged.sends.len(), 4);
    }

    #[test]
    fn events_follow_matching_routes_only() {
        let mut router = ContentRouter::new(1, vec![n(2), n(3)]);
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        // Subscriber 9 (via hop 2) wants x > 10; subscriber 8 (via hop 3)
        // wants x < 5.
        for (subscriber, via, constraint) in [
            (n(9), n(2), Constraint::Gt(10)),
            (n(8), n(3), Constraint::Lt(5)),
        ] {
            let sub = SubscribePayload {
                subscriber,
                predicate: Predicate::new().with("x", constraint),
                version: 1,
                ttl: 0,
            };
            router.on_message(&mut ctx, Msg::new(SUBSCRIBE_MSG, via, 1, 0, sub.encode()));
        }
        ctx.staged.sends.clear();
        router.publish(&mut ctx, &Event::new().with("x", 42));
        assert_eq!(ctx.staged.sends.len(), 1, "only the Gt(10) route matches");
        assert_eq!(ctx.staged.sends[0].1, n(2));
        ctx.staged.sends.clear();
        router.publish(&mut ctx, &Event::new().with("x", 7));
        assert!(ctx.staged.sends.is_empty(), "nobody wants x = 7");
    }

    #[test]
    fn local_subscriptions_deliver_without_forwarding_back() {
        let mut router = ContentRouter::new(1, vec![n(2)])
            .with_subscription(Predicate::new().with("kind", Constraint::Eq(3)));
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let event = Event::new().with("kind", 3).with_body(b"payload".to_vec());
        let msg = Msg::data(n(2), 1, 0, event.encode());
        router.on_message(&mut ctx, msg);
        assert_eq!(router.delivered().len(), 1);
        assert_eq!(router.delivered()[0].body, b"payload");
        assert!(ctx.staged.sends.is_empty(), "no routes, nothing forwarded");
    }

    #[test]
    fn reverse_path_suppresses_echo() {
        let mut router = ContentRouter::new(1, vec![n(2)]);
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        // Route toward subscriber 9 goes via node 2.
        let sub = SubscribePayload {
            subscriber: n(9),
            predicate: Predicate::new(),
            version: 1,
            ttl: 0,
        };
        router.on_message(&mut ctx, Msg::new(SUBSCRIBE_MSG, n(2), 1, 0, sub.encode()));
        ctx.staged.sends.clear();
        // An event arriving *from* node 2 must not bounce back to node 2.
        let event = Event::new().with("x", 1);
        router.on_message(&mut ctx, Msg::data(n(2), 1, 0, event.encode()));
        assert!(ctx.staged.sends.is_empty());
    }
}
