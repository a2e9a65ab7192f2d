//! The switch's pure state, shared by both runtimes.
//!
//! The real engine and the simulator carry bytes differently, but the
//! middleware policy around an [`Algorithm`](crate::Algorithm) callback is
//! one policy (Table 1's `Engine::process` / `Algorithm::process` split):
//!
//! * [`AppRoutes`] — who feeds each application at a node and whom it
//!   feeds; it alone decides who is owed a `BrokenSource` when a feed
//!   breaks (the paper's "Domino Effect").
//! * [`StagedEffects`] — what one callback asked for, applied by the
//!   runtime after the callback returns, so the algorithm stays reactive.
//! * [`TraceSampler`] — every Nth locally originated data message starts
//!   a distributed trace.
//!
//! Nothing here performs I/O or reads a clock. [`RecordingCtx`] is a
//! [`Context`] built on the same staging area, for unit tests of
//! algorithms.

use std::collections::BTreeMap;

use ioverlay_message::{Msg, MsgType, NodeId};
use ioverlay_telemetry::NodeTelemetry;

use crate::{AppId, Context, Nanos, TimerToken};

/// Data-plane routing memory of one application at one node. Both lists
/// are sorted, so a domino goes out in address order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppRoute {
    /// The application (session).
    pub app: AppId,
    /// Upstreams the node has switched data of `app` from.
    pub ups: Vec<NodeId>,
    /// Downstreams that accepted data of `app` from the node.
    pub downs: Vec<NodeId>,
}

/// Per-application routing memory of one node, sorted by application,
/// used for the `BrokenSource` domino teardown.
///
/// Only noting creates an entry; an entry goes once both of its lists
/// are empty. Everything that walks the table — orphaned applications,
/// owed downstreams — walks it in application, then address, order.
#[derive(Debug, Default, Clone)]
pub struct AppRoutes {
    routes: Vec<AppRoute>,
}

/// Inserts into a sorted list unless present.
#[inline]
fn insert_sorted(list: &mut Vec<NodeId>, id: NodeId) {
    if let Err(pos) = list.binary_search(&id) {
        list.insert(pos, id);
    }
}

/// Removes from a sorted list; whether it was present.
fn remove_sorted(list: &mut Vec<NodeId>, id: NodeId) -> bool {
    match list.binary_search(&id) {
        Ok(pos) => {
            list.remove(pos);
            true
        }
        Err(_) => false,
    }
}

impl AppRoutes {
    /// The routes, in application order.
    pub fn iter(&self) -> impl Iterator<Item = &AppRoute> {
        self.routes.iter()
    }

    #[inline]
    fn pos(&self, app: AppId) -> Result<usize, usize> {
        self.routes.binary_search_by_key(&app, |r| r.app)
    }

    #[inline]
    fn route_mut(&mut self, app: AppId) -> &mut AppRoute {
        let pos = match self.pos(app) {
            Ok(pos) => pos,
            Err(pos) => {
                let route = AppRoute {
                    app,
                    ups: Vec::new(),
                    downs: Vec::new(),
                };
                self.routes.insert(pos, route);
                pos
            }
        };
        &mut self.routes[pos]
    }

    /// Registers `up` as a feeder of `app` (a data message of `app` was
    /// switched from it).
    #[inline]
    pub fn note_upstream(&mut self, app: AppId, up: NodeId) {
        insert_sorted(&mut self.route_mut(app).ups, up);
    }

    /// Registers `down` as fed by `app` (it accepted a data message of
    /// `app` from this node).
    #[inline]
    pub fn note_downstream(&mut self, app: AppId, down: NodeId) {
        insert_sorted(&mut self.route_mut(app).downs, down);
    }

    /// Forgets `up` as a feeder of `app`, which it announced with a
    /// `BrokenSource`. `Some(owed)` exactly when `up` was the last
    /// upstream of `app`: the application is then torn down here and its
    /// downstreams, forgotten, are owed a `BrokenSource` each. `None`
    /// when another upstream still feeds `app`, or `up` did not.
    pub fn drop_upstream(&mut self, app: AppId, up: NodeId) -> Option<Vec<NodeId>> {
        let pos = self.pos(app).ok()?;
        let route = &mut self.routes[pos];
        if !remove_sorted(&mut route.ups, up) || !route.ups.is_empty() {
            return None;
        }
        let owed = std::mem::take(&mut route.downs);
        self.routes.remove(pos);
        Some(owed)
    }

    /// Forgets `peer` as an upstream of every application; returns, in
    /// application order, those it was the last upstream of. Their
    /// downstreams stay until [`Self::take_downstreams`].
    pub fn forget_upstream(&mut self, peer: NodeId) -> Vec<AppId> {
        self.forget(peer, true, false)
    }

    /// Forgets `peer` as a downstream of every application.
    pub fn forget_downstream(&mut self, peer: NodeId) {
        self.forget(peer, false, true);
    }

    /// Forgets `peer` on both sides of every application, in one pass;
    /// returns what [`Self::forget_upstream`] returns.
    pub fn forget_peer(&mut self, peer: NodeId) -> Vec<AppId> {
        self.forget(peer, true, true)
    }

    fn forget(&mut self, peer: NodeId, as_upstream: bool, as_downstream: bool) -> Vec<AppId> {
        let mut orphaned = Vec::new();
        for route in &mut self.routes {
            if as_downstream {
                remove_sorted(&mut route.downs, peer);
            }
            if as_upstream && remove_sorted(&mut route.ups, peer) && route.ups.is_empty() {
                orphaned.push(route.app);
            }
        }
        self.routes
            .retain(|r| !r.ups.is_empty() || !r.downs.is_empty());
        orphaned
    }

    /// Forgets whom `app` feeds and returns them, in address order: they
    /// are owed a `BrokenSource`.
    pub fn take_downstreams(&mut self, app: AppId) -> Vec<NodeId> {
        let Ok(pos) = self.pos(app) else {
            return Vec::new();
        };
        let owed = std::mem::take(&mut self.routes[pos].downs);
        if self.routes[pos].ups.is_empty() {
            self.routes.remove(pos);
        }
        owed
    }
}

/// Effects staged by an algorithm during one callback; the runtime
/// applies them after the callback returns. This keeps the algorithm
/// strictly reactive and single-threaded, as the paper requires.
///
/// A runtime keeps one for a node's lifetime, lends it to each
/// callback's context and drains it — never drops it — when applying, so
/// a forwarded message allocates nothing here once the vectors have
/// grown to the callback's fan-out.
#[derive(Debug, Default)]
pub struct StagedEffects {
    /// Sends, in call order.
    pub sends: Vec<(Msg, NodeId)>,
    /// How many of `sends` go to each destination, maintained as sends
    /// are staged so that [`Self::backlog`] costs O(destinations), not
    /// O(sends) — a pump emitting a whole buffer's worth in one callback
    /// would otherwise go quadratic.
    pub send_counts: Vec<(NodeId, usize)>,
    /// Messages for the observer.
    pub observer_msgs: Vec<Msg>,
    /// Timers as `(delay, token)`.
    pub timers: Vec<(Nanos, TimerToken)>,
    /// Peers to measure the round-trip time to.
    pub probes: Vec<NodeId>,
    /// Peers whose link to close.
    pub closes: Vec<NodeId>,
}

impl StagedEffects {
    /// Stages a send of `msg` to `dest`.
    #[inline]
    pub fn stage_send(&mut self, msg: Msg, dest: NodeId) {
        self.sends.push((msg, dest));
        match self.send_counts.iter_mut().find(|(d, _)| *d == dest) {
            Some((_, n)) => *n += 1,
            None => self.send_counts.push((dest, 1)),
        }
    }

    /// [`Context::backlog`] toward `dest` while this callback runs: the
    /// depth of the link toward it, if one exists, plus the sends staged
    /// toward it so far — a source looping "send until the buffer is
    /// full" sees its own queued-but-not-yet-applied traffic.
    #[inline]
    pub fn backlog(&self, dest: NodeId, link_depth: Option<usize>) -> Option<usize> {
        let staged = self
            .send_counts
            .iter()
            .find(|(d, _)| *d == dest)
            .map_or(0, |(_, n)| *n);
        match link_depth {
            Some(depth) => Some(depth + staged),
            None if staged > 0 => Some(staged),
            None => None,
        }
    }

    /// Drains the staged sends in call order (and forgets their counts).
    #[inline]
    pub fn drain_sends(&mut self) -> std::vec::Drain<'_, (Msg, NodeId)> {
        self.send_counts.clear();
        self.sends.drain(..)
    }

    /// Whether nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.sends.is_empty()
            && self.send_counts.is_empty()
            && self.observer_msgs.is_empty()
            && self.timers.is_empty()
            && self.probes.is_empty()
            && self.closes.is_empty()
    }
}

/// The origin trace sampler: every `every`-th locally originated data
/// message that carries no trace yet starts one.
#[derive(Debug, Default, Clone, Copy)]
pub struct TraceSampler {
    seen: u64,
}

impl TraceSampler {
    /// Whether the locally originated send `msg` starts a trace under a
    /// sample rate of `every` (0 disables tracing).
    #[inline]
    pub fn sample(&mut self, every: u32, msg: &Msg) -> bool {
        if every == 0 || msg.ty() != MsgType::Data || msg.trace().is_some() {
            return false;
        }
        self.seen += 1;
        self.seen.is_multiple_of(u64::from(every))
    }
}

/// The Weyl increment of [`RecordingCtx`]'s counter RNG.
const RNG_STEP: u64 = 0x9E37_79B9_7F4A_7C15;

/// A [`Context`] that records what an algorithm does, for unit tests:
/// every effect lands in [`Self::staged`] and nothing is applied.
///
/// Its id, clock and buffer capacity are fixed fields; `depths` stands
/// for the links that exist (a destination missing there has no link);
/// [`Context::random_u64`] steps a Weyl sequence from `rng`.
#[derive(Debug)]
pub struct RecordingCtx {
    /// [`Context::local_id`].
    pub id: NodeId,
    /// [`Context::now`].
    pub now: Nanos,
    /// [`Context::buffer_capacity`].
    pub capacity: usize,
    /// Messages queued on the link toward each destination.
    pub depths: BTreeMap<NodeId, usize>,
    /// Everything the algorithm asked for.
    pub staged: StagedEffects,
    /// State of the counter behind [`Context::random_u64`].
    pub rng: u64,
    /// The registry behind [`Context::telemetry_registry`], if any.
    pub tel: Option<NodeTelemetry>,
}

impl RecordingCtx {
    /// A context for node `id` at time 0, with a buffer capacity of 10,
    /// no links and no telemetry.
    pub fn new(id: NodeId) -> Self {
        Self {
            id,
            now: 0,
            capacity: 10,
            depths: BTreeMap::new(),
            staged: StagedEffects::default(),
            rng: 0,
            tel: None,
        }
    }

    /// Makes `roll` the next value of [`Context::random_u64`].
    pub fn set_next_roll(&mut self, roll: u64) {
        self.rng = roll.wrapping_sub(RNG_STEP);
    }
}

impl Default for RecordingCtx {
    /// [`RecordingCtx::new`] for `127.0.0.1:1`.
    fn default() -> Self {
        Self::new(NodeId::loopback(1))
    }
}

impl Context for RecordingCtx {
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
        self.staged.backlog(dest, self.depths.get(&dest).copied())
    }

    fn buffer_capacity(&self) -> usize {
        self.capacity
    }

    fn probe_rtt(&mut self, peer: NodeId) {
        self.staged.probes.push(peer);
    }

    fn close_link(&mut self, peer: NodeId) {
        self.staged.closes.push(peer);
    }

    fn observer(&self) -> Option<NodeId> {
        None
    }

    fn random_u64(&mut self) -> u64 {
        self.rng = self.rng.wrapping_add(RNG_STEP);
        self.rng
    }

    fn telemetry_registry(&self) -> Option<&NodeTelemetry> {
        self.tel.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn n(port: u16) -> NodeId {
        NodeId::loopback(port)
    }

    #[test]
    fn dropping_an_unknown_app_creates_no_entry() {
        let mut routes = AppRoutes::default();
        routes.note_downstream(3, n(4));
        assert_eq!(routes.drop_upstream(9, n(2)), None, "unknown app");
        assert_eq!(routes.drop_upstream(3, n(2)), None, "not an upstream of 3");
        assert!(routes.take_downstreams(8).is_empty());
        routes.forget_upstream(n(2));
        routes.forget_downstream(n(7));
        let only = AppRoute {
            app: 3,
            ups: vec![],
            downs: vec![n(4)],
        };
        assert!(routes.iter().eq([&only]));
    }

    /// The engine's former representation of the same table: two maps of
    /// sets, entries created on first mention.
    #[derive(Default)]
    struct Oracle(BTreeMap<AppId, (BTreeSet<NodeId>, BTreeSet<NodeId>)>);

    impl Oracle {
        fn drop_upstream(&mut self, app: AppId, up: NodeId) -> Option<Vec<NodeId>> {
            let (ups, downs) = self.0.get_mut(&app)?;
            if !ups.remove(&up) || !ups.is_empty() {
                return None;
            }
            Some(std::mem::take(downs).into_iter().collect())
        }

        fn forget_upstream(&mut self, peer: NodeId) -> Vec<AppId> {
            let mut orphaned = Vec::new();
            for (app, (ups, _)) in self.0.iter_mut() {
                if ups.remove(&peer) && ups.is_empty() {
                    orphaned.push(*app);
                }
            }
            orphaned
        }

        /// Non-empty entries, as the shared table lists them.
        fn listed(&self) -> Vec<AppRoute> {
            self.0
                .iter()
                .filter(|(_, (ups, downs))| !ups.is_empty() || !downs.is_empty())
                .map(|(&app, (ups, downs))| AppRoute {
                    app,
                    ups: ups.iter().copied().collect(),
                    downs: downs.iter().copied().collect(),
                })
                .collect()
        }
    }

    proptest! {
        /// Under any mix of notes, drops, forgets and takes, the shared
        /// table owes the same downstreams, orphans the same applications
        /// and lists the same routes, in the same order, as the maps of
        /// sets it replaced.
        #[test]
        fn app_routes_match_the_map_of_sets(
            ops in proptest::collection::vec((0u8..7, 0u32..4, 1u16..6), 1..200),
        ) {
            let mut routes = AppRoutes::default();
            let mut oracle = Oracle::default();
            for (op, app, port) in ops {
                let peer = n(port);
                match op {
                    0 => {
                        routes.note_upstream(app, peer);
                        oracle.0.entry(app).or_default().0.insert(peer);
                    }
                    1 => {
                        routes.note_downstream(app, peer);
                        oracle.0.entry(app).or_default().1.insert(peer);
                    }
                    2 => prop_assert_eq!(
                        routes.drop_upstream(app, peer),
                        oracle.drop_upstream(app, peer)
                    ),
                    3 => prop_assert_eq!(
                        routes.forget_upstream(peer),
                        oracle.forget_upstream(peer)
                    ),
                    4 => {
                        routes.forget_downstream(peer);
                        for (_, downs) in oracle.0.values_mut() {
                            downs.remove(&peer);
                        }
                    }
                    5 => {
                        for (_, downs) in oracle.0.values_mut() {
                            downs.remove(&peer);
                        }
                        prop_assert_eq!(routes.forget_peer(peer), oracle.forget_upstream(peer));
                    }
                    _ => {
                        let owed: Vec<NodeId> = oracle
                            .0
                            .get_mut(&app)
                            .map(|(_, downs)| std::mem::take(downs).into_iter().collect())
                            .unwrap_or_default();
                        prop_assert_eq!(routes.take_downstreams(app), owed);
                    }
                }
                prop_assert_eq!(routes.iter().cloned().collect::<Vec<_>>(), oracle.listed());
            }
        }
    }
}
