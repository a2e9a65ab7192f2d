//! The `Algorithm` trait and its runtime-facing `Context`.

use ioverlay_message::{Msg, NodeId};

use crate::Nanos;

/// An opaque token identifying a timer set via [`Context::set_timer`].
pub type TimerToken = u64;

/// The services a runtime (engine or simulator) offers to an algorithm.
///
/// This is the algorithm's *entire* view of the middleware. The paper
/// stresses that *"the algorithm only needs to call one function of the
/// engine: the send function"* — [`Context::send`] is that function. The
/// remaining methods are conveniences the paper exposes through the same
/// message-driven machinery (timers realize the algorithms' *"periodic"*
/// behaviors; probes realize *"upon requests from the algorithm, the
/// available bandwidth and latency to any overlay nodes can be
/// measured"*).
///
/// The trait is object-safe: algorithms receive `&mut dyn Context`.
pub trait Context {
    /// The identity of the node this algorithm instance runs on.
    fn local_id(&self) -> NodeId;

    /// Current time in nanoseconds since the runtime's epoch. Real time
    /// on the engine, virtual time in the simulator.
    fn now(&self) -> Nanos;

    /// Sends a message to a peer node — the paper's single engine entry
    /// point.
    ///
    /// Sending is infallible from the algorithm's perspective, exactly as
    /// in the paper: *"send() has a return type of void, and all abnormal
    /// results of sending a message are handled by the engine
    /// transparently"* — failures surface later as `NeighborFailed` /
    /// `BrokenSource` messages.
    ///
    /// Passing a received `data` message straight back to `send` is the
    /// intended zero-copy fast path. (Non-`data` messages should be
    /// re-created or cloned first, mirroring the paper's cloning rule.)
    fn send(&mut self, msg: Msg, dest: NodeId);

    /// Sends a message to the observer (bootstrap requests, status
    /// reports, `trace` records). A runtime without an attached observer
    /// silently drops these.
    fn send_to_observer(&mut self, msg: Msg);

    /// Arms a one-shot timer; after `delay` nanoseconds the runtime calls
    /// [`Algorithm::on_timer`] with the same token.
    fn set_timer(&mut self, delay: Nanos, token: TimerToken);

    /// Number of messages currently queued toward `dest`, or `None` if no
    /// link to `dest` exists yet.
    ///
    /// Data sources use this to emit *"back-to-back traffic ... as fast
    /// as possible"* without unbounded queue growth: keep the downstream
    /// buffer topped up and yield when it is full (which is exactly when
    /// the paper's sender buffers exert back pressure).
    fn backlog(&self, dest: NodeId) -> Option<usize>;

    /// Capacity of the per-link send buffer, in messages.
    fn buffer_capacity(&self) -> usize;

    /// Asks the engine to measure round-trip latency to `peer`; the
    /// result arrives later as a `Pong` message.
    fn probe_rtt(&mut self, peer: NodeId);

    /// Closes the link to `peer`, tearing down its buffers and threads.
    /// Used by algorithms implementing `sLeave` or topology repair.
    fn close_link(&mut self, peer: NodeId);

    /// The observer's address, if this node was bootstrapped against one.
    fn observer(&self) -> Option<NodeId>;

    /// A runtime-provided random value. On the simulator this is drawn
    /// from the seeded scenario RNG, keeping randomized algorithms
    /// (gossip dissemination, randomized tree construction)
    /// reproducible.
    fn random_u64(&mut self) -> u64;

    /// A point-in-time copy of the node's telemetry registry, for
    /// algorithms that use local measurements (queue backlogs, stall
    /// counts, batch-size distributions) as routing input. Runtimes
    /// without telemetry return `None` (the default).
    fn telemetry(&self) -> Option<crate::TelemetrySnapshot> {
        None
    }

    /// The node's live telemetry registry, for algorithms that *record*
    /// metrics (coding encode/decode timings, innovative-packet counts)
    /// rather than read them. Unlike [`Context::telemetry`] this hands
    /// out the recording side, so the per-sample cost is one relaxed
    /// atomic instead of a full snapshot copy. Runtimes without
    /// telemetry return `None` (the default).
    fn telemetry_registry(&self) -> Option<&crate::NodeTelemetry> {
        None
    }
}

/// An application-specific overlay algorithm.
///
/// Implementations are plain single-threaded state machines: the runtime
/// guarantees that all calls happen on one thread (the paper: *"the
/// entire implementation of the application-specific algorithm is
/// guaranteed to be executed in a single thread"*), and that the
/// algorithm is *"always reactive and never proactive"* — it runs only
/// inside these callbacks.
///
/// The only message type an algorithm **must** handle is `data`; the
/// `iAlgorithm` base in `ioverlay-algorithms` supplies default behavior
/// for everything else.
pub trait Algorithm: Send {
    /// Human-readable name, used in traces and observer output.
    fn name(&self) -> &'static str {
        "algorithm"
    }

    /// Called once when the node starts, after bootstrap. Algorithms
    /// typically arm their periodic timers here.
    fn on_start(&mut self, ctx: &mut dyn Context) {
        let _ = ctx;
    }

    /// Called for every message addressed to the algorithm: application
    /// `data`, protocol messages from peers, observer control messages,
    /// and engine-synthesized events (`UpThroughput`, `NeighborFailed`,
    /// ...).
    ///
    /// This is the paper's `Algorithm::process()`.
    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg);

    /// Called when a timer armed with [`Context::set_timer`] fires.
    fn on_timer(&mut self, ctx: &mut dyn Context, token: TimerToken) {
        let _ = (ctx, token);
    }

    /// Algorithm-specific status, merged into the node's periodic status
    /// report to the observer.
    fn status(&self) -> serde_json::Value {
        serde_json::Value::Null
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RecordingCtx;
    use ioverlay_message::MsgType;

    /// Echoes data messages back where they came from.
    struct Echo;

    impl Algorithm for Echo {
        fn name(&self) -> &'static str {
            "echo"
        }
        fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
            if msg.ty() == MsgType::Data {
                let from = msg.origin();
                ctx.send(msg, from);
            }
        }
    }

    #[test]
    fn algorithm_is_object_safe_and_reactive() {
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let mut alg: Box<dyn Algorithm> = Box::new(Echo);
        alg.on_start(&mut ctx);
        let origin = NodeId::loopback(2);
        alg.on_message(&mut ctx, Msg::data(origin, 1, 0, &b"x"[..]));
        alg.on_message(&mut ctx, Msg::control(MsgType::Request, origin, 1));
        assert_eq!(ctx.staged.sends.len(), 1, "only data is echoed");
        assert_eq!(ctx.staged.sends[0].1, origin);
        assert_eq!(alg.name(), "echo");
        assert_eq!(alg.status(), serde_json::Value::Null);
        alg.on_timer(&mut ctx, 9); // default: no-op
        assert!(ctx.staged.timers.is_empty());
    }
}
