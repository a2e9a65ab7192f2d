//! Data source and sink applications.
//!
//! In the paper's layering, the *application* "produces and interprets
//! the data portion of application-layer messages at both the sending
//! and the receiving ends". These two algorithms are the stock
//! applications used by every experiment: a source that emits data
//! (back-to-back or constant-bit-rate) and a counting sink.

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};

use crate::base::IAlgorithmBase;

/// How a [`SourceApp`] paces its traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceMode {
    /// Emit as fast as back pressure allows (the paper's *"back-to-back
    /// traffic ... as fast as possible"*), pacing on the send buffers.
    BackToBack,
    /// Constant bit rate: one message every `interval_nanos`.
    Cbr {
        /// Time between consecutive messages.
        interval_nanos: u64,
    },
}

/// A data source application.
///
/// The source starts when it receives `sDeploy` from the observer (or
/// immediately, with [`SourceApp::deployed`]), emits `data` messages of
/// a fixed size to its downstream list, and stops on `sTerminate`.
///
/// # Example
///
/// ```
/// use ioverlay_algorithms::{SourceApp, SourceMode};
/// use ioverlay_api::NodeId;
///
/// let src = SourceApp::new(1, vec![NodeId::loopback(2)], 5 * 1024, SourceMode::BackToBack)
///     .deployed();
/// # let _ = src;
/// ```
#[derive(Debug)]
pub struct SourceApp {
    base: IAlgorithmBase,
    app: AppId,
    dests: Vec<NodeId>,
    msg_bytes: usize,
    mode: SourceMode,
    active: bool,
    seq: u32,
    sent_msgs: u64,
    pump_interval: u64,
}

const PUMP_TIMER: u64 = 1;
/// Default refill period for back-to-back sources: short enough to keep
/// buffers full at every emulated rate used in the paper's experiments.
const PUMP_INTERVAL: u64 = 10_000_000; // 10 ms

impl SourceApp {
    /// Creates an (undeployed) source for `app` toward `dests`.
    pub fn new(app: AppId, dests: Vec<NodeId>, msg_bytes: usize, mode: SourceMode) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            app,
            dests,
            msg_bytes,
            mode,
            active: false,
            seq: 0,
            sent_msgs: 0,
            pump_interval: PUMP_INTERVAL,
        }
    }

    /// Overrides the back-to-back refill period. Raw-throughput
    /// experiments (Fig. 5) use a short interval so the source keeps the
    /// engine saturated; emulated-bandwidth experiments keep the
    /// default.
    pub fn with_pump_interval(mut self, nanos: u64) -> Self {
        self.pump_interval = nanos.max(1);
        self
    }

    /// Marks the source as deployed from the start, without waiting for
    /// the observer's `sDeploy`.
    pub fn deployed(mut self) -> Self {
        self.active = true;
        self
    }

    /// Messages emitted so far.
    pub fn sent_msgs(&self) -> u64 {
        self.sent_msgs
    }

    fn emit_one(&mut self, ctx: &mut dyn Context) {
        let msg = Msg::data(ctx.local_id(), self.app, self.seq, vec![0u8; self.msg_bytes]);
        self.seq = self.seq.wrapping_add(1);
        self.sent_msgs += 1;
        for dest in self.dests.clone() {
            ctx.send(msg.clone(), dest);
        }
    }

    fn pump(&mut self, ctx: &mut dyn Context) {
        if !self.active || self.dests.is_empty() {
            return;
        }
        match self.mode {
            SourceMode::BackToBack => {
                // Lock-step: emit only while *every* downstream buffer has
                // room, mirroring the engine forwarding one message to all
                // senders at once.
                loop {
                    let room = self.dests.iter().all(|d| {
                        ctx.backlog(*d)
                            .is_none_or(|depth| depth < ctx.buffer_capacity())
                    });
                    if !room {
                        break;
                    }
                    self.emit_one(ctx);
                }
                ctx.set_timer(self.pump_interval, PUMP_TIMER);
            }
            SourceMode::Cbr { interval_nanos } => {
                self.emit_one(ctx);
                ctx.set_timer(interval_nanos, PUMP_TIMER);
            }
        }
    }
}

impl Algorithm for SourceApp {
    fn name(&self) -> &'static str {
        "source-app"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        if self.active {
            self.pump(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        if token == PUMP_TIMER {
            self.pump(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::SDeploy => {
                if !self.active {
                    self.active = true;
                    self.pump(ctx);
                }
            }
            MsgType::STerminate => {
                self.active = false;
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "source-app",
            "app": self.app,
            "active": self.active,
            "sent_msgs": self.sent_msgs,
        })
    }
}

/// A counting sink application: consumes data and remembers how much it
/// received, per the receiving half of the paper's application layer.
#[derive(Debug, Default)]
pub struct SinkApp {
    base: IAlgorithmBase,
    msgs: u64,
    bytes: u64,
}

impl SinkApp {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Data messages received.
    pub fn msgs(&self) -> u64 {
        self.msgs
    }

    /// Data payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl Algorithm for SinkApp {
    fn name(&self) -> &'static str {
        "sink-app"
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        if msg.ty() == MsgType::Data {
            self.msgs += 1;
            self.bytes += msg.payload().len() as u64;
        } else {
            self.base.handle_default(ctx, &msg);
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "sink-app",
            "msgs": self.msgs,
            "bytes": self.bytes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::RecordingCtx;

    #[test]
    fn back_to_back_fills_buffers_then_rearms() {
        let dest = NodeId::loopback(2);
        let mut src =
            SourceApp::new(1, vec![dest], 100, SourceMode::BackToBack).deployed();
        let mut ctx = RecordingCtx {
            capacity: 5,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        assert_eq!(ctx.staged.sends.len(), 5, "fills the buffer exactly");
        assert_eq!(ctx.staged.timers.len(), 1, "re-arms its pump timer");
        assert_eq!(src.sent_msgs(), 5);
    }

    #[test]
    fn lock_step_respects_the_slowest_downstream() {
        let (d1, d2) = (NodeId::loopback(2), NodeId::loopback(3));
        let mut src =
            SourceApp::new(1, vec![d1, d2], 100, SourceMode::BackToBack).deployed();
        let mut ctx = RecordingCtx {
            capacity: 5,
            ..RecordingCtx::default()
        };
        ctx.depths.insert(d2, 4); // d2 nearly full
        src.on_start(&mut ctx);
        // Only one slot of headroom on d2 -> one message emitted, copied
        // to both.
        assert_eq!(src.sent_msgs(), 1);
        assert_eq!(ctx.staged.sends.len(), 2);
    }

    #[test]
    fn cbr_emits_one_per_tick() {
        let dest = NodeId::loopback(2);
        let mut src = SourceApp::new(
            1,
            vec![dest],
            100,
            SourceMode::Cbr {
                interval_nanos: 1_000_000,
            },
        )
        .deployed();
        let mut ctx = RecordingCtx {
            capacity: 100,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        src.on_timer(&mut ctx, PUMP_TIMER);
        src.on_timer(&mut ctx, PUMP_TIMER);
        assert_eq!(src.sent_msgs(), 3);
        assert_eq!(ctx.staged.timers.len(), 3);
    }

    #[test]
    fn deploy_and_terminate_control_the_source() {
        let dest = NodeId::loopback(2);
        let mut src = SourceApp::new(7, vec![dest], 10, SourceMode::BackToBack);
        let mut ctx = RecordingCtx {
            capacity: 2,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        assert_eq!(src.sent_msgs(), 0, "not deployed yet");
        src.on_message(&mut ctx, Msg::control(MsgType::SDeploy, NodeId::loopback(9), 7));
        assert_eq!(src.sent_msgs(), 2);
        src.on_message(
            &mut ctx,
            Msg::control(MsgType::STerminate, NodeId::loopback(9), 7),
        );
        ctx.staged.drain_sends(); // the buffer drains: room again
        src.on_timer(&mut ctx, PUMP_TIMER);
        assert_eq!(src.sent_msgs(), 2, "terminated source stays quiet");
    }

    #[test]
    fn sink_counts_only_data() {
        let mut sink = SinkApp::new();
        let mut ctx = RecordingCtx::default();
        sink.on_message(&mut ctx, Msg::data(NodeId::loopback(9), 1, 0, vec![0u8; 77]));
        sink.on_message(
            &mut ctx,
            Msg::control(MsgType::UpstreamJoined, NodeId::loopback(9), 1),
        );
        assert_eq!(sink.msgs(), 1);
        assert_eq!(sink.bytes(), 77);
        assert_eq!(sink.status()["msgs"], 1);
    }

    #[test]
    fn sequence_numbers_increment() {
        let dest = NodeId::loopback(2);
        let mut src = SourceApp::new(1, vec![dest], 10, SourceMode::BackToBack).deployed();
        let mut ctx = RecordingCtx {
            capacity: 3,
            ..RecordingCtx::default()
        };
        src.on_start(&mut ctx);
        let seqs: Vec<u32> = ctx.staged.sends.iter().map(|(m, _)| m.seq()).collect();
        assert_eq!(seqs, vec![0, 1, 2]);
    }
}
