//! The engine-backed `Context` handed to algorithms.

use std::collections::BTreeMap;

use ioverlay_api::{Context, Msg, Nanos, NodeId, StagedEffects, TimerToken};
use ioverlay_telemetry::{NodeTelemetry, TelemetrySnapshot};

use crate::peer::SenderLink;

/// A read-only view of the node plus a staging area, implementing
/// [`Context`] for the real engine.
pub(crate) struct EngineCtx<'a> {
    pub id: NodeId,
    pub now: Nanos,
    pub observer: Option<NodeId>,
    pub buffer_capacity: usize,
    /// The live sender links: [`Context::backlog`] reads a link's depth
    /// when an algorithm asks, so one that never asks pays for no queue
    /// lock.
    pub senders: &'a BTreeMap<NodeId, SenderLink>,
    pub rng: &'a mut rand::rngs::StdRng,
    /// The node's live telemetry registry, exposed read-only to the
    /// algorithm through [`Context::telemetry`].
    pub tel: &'a NodeTelemetry,
    pub staged: &'a mut StagedEffects,
}

impl Context for EngineCtx<'_> {
    fn local_id(&self) -> NodeId {
        self.id
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
        let depth = self.senders.get(&dest).map(SenderLink::depth);
        self.staged.backlog(dest, depth)
    }

    fn buffer_capacity(&self) -> usize {
        self.buffer_capacity
    }

    fn probe_rtt(&mut self, peer: NodeId) {
        self.staged.probes.push(peer);
    }

    fn close_link(&mut self, peer: NodeId) {
        self.staged.closes.push(peer);
    }

    fn observer(&self) -> Option<NodeId> {
        self.observer
    }

    fn random_u64(&mut self) -> u64 {
        use rand::Rng;
        self.rng.gen()
    }

    fn telemetry(&self) -> Option<TelemetrySnapshot> {
        self.tel.enabled().then(|| self.tel.snapshot())
    }

    fn telemetry_registry(&self) -> Option<&NodeTelemetry> {
        self.tel.enabled().then_some(self.tel)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioverlay_api::MsgType;
    use rand::SeedableRng;

    #[test]
    fn backlog_includes_staged_sends_and_parked_pending() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let dest = NodeId::loopback(2);
        // A link with two messages in its buffer and one parked behind.
        let mut link = SenderLink::detached(10);
        for seq in 0..2 {
            link.queue
                .push(Msg::data(NodeId::loopback(1), 0, seq, &b"x"[..]))
                .unwrap();
        }
        link.pending
            .push_back(Msg::control(MsgType::Data, NodeId::loopback(1), 0));
        let senders = BTreeMap::from([(dest, link)]);
        let tel = NodeTelemetry::new(true, 8);
        tel.record_switch_batch(5, 9);
        let mut staged = StagedEffects::default();
        let mut ctx = EngineCtx {
            id: NodeId::loopback(1),
            now: 0,
            observer: None,
            buffer_capacity: 10,
            senders: &senders,
            rng: &mut rng,
            tel: &tel,
            staged: &mut staged,
        };
        let snap = ctx.telemetry().expect("telemetry enabled");
        assert_eq!(snap.counter("msgs_switched"), Some(5));
        assert_eq!(ctx.backlog(dest), Some(3));
        ctx.send(Msg::control(MsgType::Data, NodeId::loopback(1), 0), dest);
        assert_eq!(ctx.backlog(dest), Some(4));
        let ghost = NodeId::loopback(9);
        assert_eq!(ctx.backlog(ghost), None);
        ctx.send(Msg::control(MsgType::Data, NodeId::loopback(1), 0), ghost);
        assert_eq!(ctx.backlog(ghost), Some(1));
    }
}
