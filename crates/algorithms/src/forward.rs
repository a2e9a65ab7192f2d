//! Static copy-forwarding — the engine-evaluation data plane.

use std::collections::BTreeMap;

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};

use crate::base::IAlgorithmBase;

/// Forwards identical copies of every data message to a fixed set of
/// downstreams, per application.
///
/// This is the *"simple algorithm that identical copies of the messages
/// are sent to all downstream nodes"* used throughout the engine
/// correctness experiments (Fig. 6 and 7): the topology is configured
/// up front and the switch does the rest. When more than one upstream
/// exists, no merging is performed — duplicates flow, exactly as in the
/// paper.
///
/// # Example
///
/// ```
/// use ioverlay_algorithms::StaticForwarder;
/// use ioverlay_api::NodeId;
///
/// // Node B of the seven-node topology: copies app 1 to D and F.
/// let forwarder = StaticForwarder::new()
///     .route(1, vec![NodeId::loopback(4), NodeId::loopback(6)]);
/// # let _ = forwarder;
/// ```
#[derive(Debug, Default)]
pub struct StaticForwarder {
    base: IAlgorithmBase,
    routes: BTreeMap<AppId, Vec<NodeId>>,
    data_seen: u64,
    data_bytes: u64,
}

impl StaticForwarder {
    /// Creates a forwarder with no routes (a pure sink).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds downstreams for one application (builder style).
    pub fn route(mut self, app: AppId, downstreams: Vec<NodeId>) -> Self {
        self.routes.insert(app, downstreams);
        self
    }

    /// Data messages observed so far.
    pub fn data_seen(&self) -> u64 {
        self.data_seen
    }
}

impl Algorithm for StaticForwarder {
    fn name(&self) -> &'static str {
        "static-forwarder"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::Data => {
                self.data_seen += 1;
                self.data_bytes += msg.payload().len() as u64;
                // Zero-copy fast path: the received message itself goes
                // to the last destination, a clone (a refcount bump) to
                // each one before it.
                if let Some((&last, rest)) = self.routes.get(&msg.app()).and_then(|d| d.split_last()) {
                    for &dest in rest {
                        ctx.send(msg.clone(), dest);
                    }
                    ctx.send(msg, last);
                }
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "static-forwarder",
            "data_seen": self.data_seen,
            "data_bytes": self.data_bytes,
            "routes": self.routes.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    #[test]
    fn copies_data_to_all_route_downstreams() {
        let (d, f) = (NodeId::loopback(4), NodeId::loopback(6));
        let mut alg = StaticForwarder::new().route(1, vec![d, f]);
        let mut ctx = RecordingCtx::default();
        let msg = Msg::data(NodeId::loopback(9), 1, 0, vec![1u8; 100]);
        alg.on_message(&mut ctx, msg.clone());
        assert_eq!(ctx.staged.sends.len(), 2);
        assert_eq!(ctx.staged.sends[0], (msg.clone(), d));
        assert_eq!(ctx.staged.sends[1], (msg, f));
        assert_eq!(alg.data_seen(), 1);
    }

    #[test]
    fn fan_out_shares_one_payload_allocation_in_route_order() {
        let route: Vec<NodeId> = [6, 4, 5].map(NodeId::loopback).to_vec();
        let mut alg = StaticForwarder::new().route(1, route.clone());
        let mut ctx = RecordingCtx::default();
        let msg = Msg::data(NodeId::loopback(9), 1, 0, vec![7u8; 2048]);
        let payload = msg.payload().as_ptr();
        alg.on_message(&mut ctx, msg);
        let dests: Vec<NodeId> = ctx.staged.sends.iter().map(|(_, d)| *d).collect();
        assert_eq!(dests, route, "route order, not address order");
        for (copy, _) in &ctx.staged.sends {
            assert_eq!(copy.payload().as_ptr(), payload, "no payload copy");
        }
    }

    #[test]
    fn apps_route_independently() {
        let mut alg = StaticForwarder::new()
            .route(1, vec![NodeId::loopback(4)])
            .route(2, vec![]);
        let mut ctx = RecordingCtx::default();
        alg.on_message(&mut ctx, Msg::data(NodeId::loopback(9), 2, 0, &b"x"[..]));
        alg.on_message(&mut ctx, Msg::data(NodeId::loopback(9), 3, 0, &b"x"[..]));
        assert!(
            ctx.staged.sends.is_empty(),
            "app 2 sinks, app 3 has no route"
        );
        alg.on_message(&mut ctx, Msg::data(NodeId::loopback(9), 1, 0, &b"x"[..]));
        assert_eq!(ctx.staged.sends.len(), 1);
    }

    #[test]
    fn status_reflects_counters() {
        let mut alg = StaticForwarder::new();
        let mut ctx = RecordingCtx::default();
        alg.on_message(&mut ctx, Msg::data(NodeId::loopback(9), 1, 0, vec![0u8; 64]));
        let status = alg.status();
        assert_eq!(status["data_seen"], 1);
        assert_eq!(status["data_bytes"], 64);
    }
}
