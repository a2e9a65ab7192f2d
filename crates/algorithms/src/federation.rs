//! Service federation in service overlay networks — the third case
//! study (§3.4, the `sFlow` algorithm).
//!
//! Nodes host *service instances* of typed primitive services. A
//! *service requirement* is a DAG of service types; *federation* selects
//! one instance per requirement vertex and deploys a data session
//! through them. The protocol follows the paper:
//!
//! * a newly assigned service announces itself via `sAware`, relayed
//!   through known hosts until service nodes are reached (which forward
//!   it to instances adjacent in the service graph);
//! * an `sFederate` message walks the requirement: each visited node
//!   applies a local selection rule for the next service type, until the
//!   sink is reached;
//! * the concluded federation deploys the actual data streams through
//!   the selected services.
//!
//! Selection policies:
//!
//! * [`Policy::SFlow`] — the paper's algorithm: pick the instance with
//!   the best *currently available* bandwidth (advertised capacity
//!   discounted by its reported session load);
//! * [`Policy::Fixed`] — baseline: always the highest *advertised*
//!   bandwidth, ignoring load;
//! * [`Policy::Random`] — baseline: uniformly random instance.

use std::collections::{BTreeMap, BTreeSet};

use ioverlay_api::{Algorithm, AppId, Context, Msg, MsgType, NodeId};
use serde::{Deserialize, Serialize};

use crate::base::IAlgorithmBase;

/// A primitive service type.
pub type ServiceType = u32;

/// Deployment notice carrying the completed assignment (algorithm
/// specific, outside the well-known range).
pub const FED_DEPLOY_MSG: MsgType = MsgType::Custom(0x1010);

const REFRESH_TIMER: u64 = 20;
const PUMP_TIMER: u64 = 21;
const REFRESH_INTERVAL: u64 = 10_000_000_000; // 10 s
const PUMP_INTERVAL: u64 = 10_000_000;
const AWARE_TTL: u32 = 5;

/// A service requirement: a DAG over service types, with vertex 0 as the
/// source and the last vertex as the sink.
///
/// # Example
///
/// ```
/// use ioverlay_algorithms::federation::Requirement;
///
/// // transcode -> {watermark, index} -> package
/// let req = Requirement::new(vec![1, 2, 3, 4], vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
/// assert_eq!(req.sink(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Requirement {
    services: Vec<ServiceType>,
    edges: Vec<(usize, usize)>,
}

impl Requirement {
    /// Builds a requirement; vertices must be listed in topological
    /// order (every edge goes from a lower to a higher index).
    ///
    /// Returns `None` for an empty vertex list or a non-topological
    /// edge.
    pub fn new(services: Vec<ServiceType>, edges: Vec<(usize, usize)>) -> Option<Self> {
        if services.is_empty() {
            return None;
        }
        let n = services.len();
        if edges.iter().any(|&(a, b)| a >= b || b >= n) {
            return None;
        }
        Some(Self { services, edges })
    }

    /// A linear chain of service types.
    pub fn chain(services: Vec<ServiceType>) -> Option<Self> {
        let edges = (1..services.len()).map(|i| (i - 1, i)).collect();
        Self::new(services, edges)
    }

    /// Number of requirement vertices.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Whether the requirement has no vertices (never true for a
    /// constructed requirement).
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// The service type of vertex `v`.
    pub fn service(&self, v: usize) -> ServiceType {
        self.services[v]
    }

    /// Index of the sink vertex.
    pub fn sink(&self) -> usize {
        self.services.len() - 1
    }

    /// Successor vertices of `v` in the DAG.
    pub fn successors(&self, v: usize) -> Vec<usize> {
        self.edges
            .iter()
            .filter(|&&(a, _)| a == v)
            .map(|&(_, b)| b)
            .collect()
    }
}

/// Instance selection policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Policy {
    /// The paper's bandwidth-and-load-aware selection.
    SFlow,
    /// Highest advertised bandwidth, load-blind.
    Fixed,
    /// Uniformly random.
    Random,
}

/// `sAware` payload: an instance advertisement.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct AwarePayload {
    /// The advertised node.
    pub node: NodeId,
    /// The hosted service type.
    pub service: ServiceType,
    /// The node's advertised last-mile bandwidth in KBps.
    pub kbps: f64,
    /// Active federated sessions on that node.
    pub load: u32,
    /// Advertisement version (newer wins).
    pub epoch: u64,
    /// Remaining relay budget.
    pub ttl: u32,
}

/// `sFederate` payload: the walking federation state.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatePayload {
    /// Session identifier (also the data `AppId`).
    pub session: AppId,
    /// The requirement being federated.
    pub requirement: Requirement,
    /// Vertex the receiving node is assigned to.
    pub current_vertex: usize,
    /// Instances chosen so far, by vertex index.
    pub assignment: BTreeMap<usize, NodeId>,
    /// Data message size for the concluded session; 0 federates the
    /// control plane only (no data streams are deployed).
    #[serde(default = "default_msg_bytes")]
    pub msg_bytes: usize,
}

fn default_msg_bytes() -> usize {
    5 * 1024
}

/// `FED_DEPLOY_MSG` payload: the concluded assignment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DeployPayload {
    /// Session identifier.
    pub session: AppId,
    /// The requirement.
    pub requirement: Requirement,
    /// The complete assignment.
    pub assignment: BTreeMap<usize, NodeId>,
    /// Data message size for the session.
    pub msg_bytes: usize,
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

json_payload!(AwarePayload);
json_payload!(FederatePayload);
json_payload!(DeployPayload);

#[derive(Debug, Clone, Copy)]
struct InstanceInfo {
    kbps: f64,
    load: u32,
    epoch: u64,
}

#[derive(Debug, Clone)]
struct SessionRole {
    successors: Vec<NodeId>,
    is_source: bool,
    msg_bytes: usize,
    active: bool,
}

/// A node in the service overlay network.
#[derive(Debug)]
pub struct FederationNode {
    base: IAlgorithmBase,
    policy: Policy,
    /// The service instance hosted here, if any: (type, advertised KBps).
    hosted: Option<(ServiceType, f64)>,
    registry: BTreeMap<ServiceType, BTreeMap<NodeId, InstanceInfo>>,
    /// Ordered: a source hosting several sessions pumps them into the
    /// shared send buffers in session order, so runs repeat exactly.
    sessions: BTreeMap<AppId, SessionRole>,
    epoch: u64,
    /// Load value included in the most recent announcement; periodic
    /// refreshes are skipped while it is unchanged, so a quiet overlay
    /// stops paying sAware overhead (the decay visible in Fig. 16).
    last_announced_load: Option<u32>,
    /// Completed federations initiated by or concluded at this node.
    concluded: Vec<(AppId, BTreeMap<usize, NodeId>)>,
}

impl FederationNode {
    /// Creates a node with no hosted service yet.
    pub fn new(policy: Policy) -> Self {
        Self {
            base: IAlgorithmBase::new(),
            policy,
            hosted: None,
            registry: BTreeMap::new(),
            sessions: BTreeMap::new(),
            epoch: 0,
            last_announced_load: None,
            concluded: Vec::new(),
        }
    }

    /// Seeds the node's `KnownHosts` (bootstrap stand-in for tests and
    /// harnesses that do not run an observer).
    pub fn with_known_hosts(mut self, hosts: impl IntoIterator<Item = NodeId>) -> Self {
        for h in hosts {
            self.base.add_known_host(h);
        }
        self
    }

    /// Number of active federated sessions through this node.
    pub fn load(&self) -> u32 {
        self.sessions.values().filter(|s| s.active).count() as u32
    }

    /// Instances known for a service type.
    pub fn known_instances(&self, service: ServiceType) -> Vec<NodeId> {
        self.registry
            .get(&service)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    /// Federations concluded at this node (sink side).
    pub fn concluded(&self) -> &[(AppId, BTreeMap<usize, NodeId>)] {
        &self.concluded
    }

    fn record_instance(&mut self, aware: &AwarePayload) {
        let entry = self
            .registry
            .entry(aware.service)
            .or_default()
            .entry(aware.node)
            .or_insert(InstanceInfo {
                kbps: aware.kbps,
                load: aware.load,
                epoch: 0,
            });
        if aware.epoch >= entry.epoch {
            *entry = InstanceInfo {
                kbps: aware.kbps,
                load: aware.load,
                epoch: aware.epoch,
            };
        }
    }

    fn announce(&mut self, ctx: &mut dyn Context, ttl: u32, targets: Vec<NodeId>) {
        let Some((service, kbps)) = self.hosted else {
            return;
        };
        self.epoch += 1;
        let load = self.load();
        self.last_announced_load = Some(load);
        let payload = AwarePayload {
            node: ctx.local_id(),
            service,
            kbps,
            load,
            epoch: self.epoch,
            ttl,
        };
        for t in targets {
            if t == ctx.local_id() {
                continue;
            }
            let msg = Msg::new(MsgType::SAware, ctx.local_id(), 0, 0, payload.encode());
            ctx.send(msg, t);
        }
    }

    fn relay_aware(&mut self, ctx: &mut dyn Context, mut aware: AwarePayload) {
        if aware.ttl == 0 {
            return;
        }
        aware.ttl -= 1;
        let targets: Vec<NodeId> = if self.hosted.is_some() {
            // A service node forwards the advertisement to the instances
            // adjacent in its service graph — here, to one known instance
            // of every *other* service type.
            self.registry
                .iter()
                .filter(|(ty, _)| **ty != aware.service)
                .filter_map(|(_, m)| m.keys().next().copied())
                .filter(|n| *n != aware.node)
                .collect()
        } else {
            // A plain relay node passes it along one random known host.
            let hosts: Vec<NodeId> = self
                .base
                .known_hosts()
                .iter()
                .copied()
                .filter(|n| *n != aware.node)
                .collect();
            match hosts.len() {
                0 => Vec::new(),
                len => vec![hosts[(ctx.random_u64() % len as u64) as usize]],
            }
        };
        for t in targets {
            let msg = Msg::new(MsgType::SAware, ctx.local_id(), 0, 0, aware.encode());
            ctx.send(msg, t);
        }
    }

    /// Applies the policy to pick an instance for `service`.
    fn select_instance(
        &self,
        ctx: &mut dyn Context,
        service: ServiceType,
        exclude: &BTreeSet<NodeId>,
    ) -> Option<NodeId> {
        let candidates: Vec<(NodeId, InstanceInfo)> = self
            .registry
            .get(&service)?
            .iter()
            .filter(|(n, _)| !exclude.contains(*n))
            .map(|(&n, &i)| (n, i))
            .collect();
        if candidates.is_empty() {
            return None;
        }
        let chosen = match self.policy {
            Policy::Random => {
                candidates[(ctx.random_u64() % candidates.len() as u64) as usize].0
            }
            Policy::Fixed => {
                candidates
                    .iter()
                    .max_by(|a, b| a.1.kbps.partial_cmp(&b.1.kbps).expect("finite"))
                    .expect("non-empty")
                    .0
            }
            Policy::SFlow => {
                // Effective available bandwidth: advertised capacity
                // shared among its current sessions plus ours.
                candidates
                    .iter()
                    .max_by(|a, b| {
                        let score =
                            |i: &InstanceInfo| i.kbps / (f64::from(i.load) + 1.0);
                        score(&a.1).partial_cmp(&score(&b.1)).expect("finite")
                    })
                    .expect("non-empty")
                    .0
            }
        };
        Some(chosen)
    }

    fn handle_federate(&mut self, ctx: &mut dyn Context, mut fed: FederatePayload) {
        let v = fed.current_vertex;
        fed.assignment.insert(v, ctx.local_id());
        // Walk in topological order: select the next unassigned vertex.
        let next_vertex = (0..fed.requirement.len()).find(|i| !fed.assignment.contains_key(i));
        match next_vertex {
            Some(u) => {
                let exclude: BTreeSet<NodeId> = fed.assignment.values().copied().collect();
                let service = fed.requirement.service(u);
                let Some(instance) = self.select_instance(ctx, service, &exclude) else {
                    self.base.trace(
                        ctx,
                        &format!("federation {} stuck: no instance of type {service}", fed.session),
                    );
                    return;
                };
                fed.assignment.insert(u, instance);
                fed.current_vertex = u;
                let msg = Msg::new(MsgType::SFederate, ctx.local_id(), fed.session, 0, fed.encode());
                ctx.send(msg, instance);
            }
            None => {
                // Sink reached: conclude and deploy the data streams.
                self.concluded.push((fed.session, fed.assignment.clone()));
                let deploy = DeployPayload {
                    session: fed.session,
                    requirement: fed.requirement.clone(),
                    assignment: fed.assignment.clone(),
                    msg_bytes: fed.msg_bytes,
                };
                for node in fed.assignment.values().copied().collect::<BTreeSet<_>>() {
                    let msg = Msg::new(
                        FED_DEPLOY_MSG,
                        ctx.local_id(),
                        fed.session,
                        0,
                        deploy.encode(),
                    );
                    if node == ctx.local_id() {
                        self.handle_deploy(ctx, deploy.clone());
                    } else {
                        ctx.send(msg, node);
                    }
                }
                self.base.trace(
                    ctx,
                    &format!("federation {} concluded: {:?}", fed.session, fed.assignment),
                );
            }
        }
    }

    fn handle_deploy(&mut self, ctx: &mut dyn Context, deploy: DeployPayload) {
        let me = ctx.local_id();
        // Which vertices am I assigned to? (Usually one.)
        let my_vertices: Vec<usize> = deploy
            .assignment
            .iter()
            .filter(|(_, n)| **n == me)
            .map(|(&v, _)| v)
            .collect();
        if my_vertices.is_empty() {
            return;
        }
        let mut successors: BTreeSet<NodeId> = BTreeSet::new();
        let mut is_source = false;
        for &v in &my_vertices {
            if v == 0 {
                is_source = true;
            }
            for u in deploy.requirement.successors(v) {
                if let Some(&n) = deploy.assignment.get(&u) {
                    if n != me {
                        successors.insert(n);
                    }
                }
            }
        }
        self.sessions.insert(
            deploy.session,
            SessionRole {
                successors: successors.into_iter().collect(),
                is_source,
                msg_bytes: deploy.msg_bytes,
                active: true,
            },
        );
        // The node's load just changed: re-announce immediately so
        // subsequent sFlow selections see current availability (the
        // paper's live point-to-point measurements play this role).
        let targets: BTreeSet<NodeId> = self
            .registry
            .values()
            .flat_map(|m| m.keys().copied())
            .collect();
        self.announce(ctx, 0, targets.into_iter().collect());
        if is_source && deploy.msg_bytes > 0 {
            self.pump(ctx);
        }
    }

    fn pump(&mut self, ctx: &mut dyn Context) {
        let sources: Vec<(AppId, Vec<NodeId>, usize)> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.active && s.is_source && s.msg_bytes > 0 && !s.successors.is_empty())
            .map(|(&app, s)| (app, s.successors.clone(), s.msg_bytes))
            .collect();
        for (app, dests, msg_bytes) in sources {
            loop {
                let room = dests.iter().all(|d| {
                    ctx.backlog(*d)
                        .is_none_or(|depth| depth < ctx.buffer_capacity())
                });
                if !room {
                    break;
                }
                let msg = Msg::data(ctx.local_id(), app, 0, vec![0u8; msg_bytes]);
                for d in &dests {
                    ctx.send(msg.clone(), *d);
                }
            }
        }
        ctx.set_timer(PUMP_INTERVAL, PUMP_TIMER);
    }
}

impl Algorithm for FederationNode {
    fn name(&self) -> &'static str {
        "federation-node"
    }

    fn on_start(&mut self, ctx: &mut dyn Context) {
        ctx.set_timer(REFRESH_INTERVAL, REFRESH_TIMER);
    }

    fn on_timer(&mut self, ctx: &mut dyn Context, token: u64) {
        match token {
            REFRESH_TIMER => {
                // Cheap periodic refresh: unicast load updates to known
                // instances, and only when the load actually changed —
                // a quiet overlay pays no recurring sAware cost.
                if self.hosted.is_some() && self.last_announced_load != Some(self.load()) {
                    let targets: BTreeSet<NodeId> = self
                        .registry
                        .values()
                        .flat_map(|m| m.keys().copied())
                        .collect();
                    self.announce(ctx, 0, targets.into_iter().collect());
                }
                ctx.set_timer(REFRESH_INTERVAL, REFRESH_TIMER);
            }
            PUMP_TIMER => self.pump(ctx),
            _ => {}
        }
    }

    fn on_message(&mut self, ctx: &mut dyn Context, msg: Msg) {
        match msg.ty() {
            MsgType::SAssign => {
                if let Some(aware) = AwarePayload::decode(msg.payload()) {
                    self.hosted = Some((aware.service, aware.kbps));
                    // Record ourselves and flood the announcement.
                    let me = AwarePayload {
                        node: ctx.local_id(),
                        ..aware
                    };
                    self.record_instance(&me);
                    let hosts: Vec<NodeId> =
                        self.base.known_hosts().iter().copied().collect();
                    self.announce(ctx, AWARE_TTL, hosts);
                }
            }
            MsgType::SAware => {
                if let Some(aware) = AwarePayload::decode(msg.payload()) {
                    let fresh = self
                        .registry
                        .get(&aware.service)
                        .and_then(|m| m.get(&aware.node))
                        .is_none_or(|i| aware.epoch > i.epoch);
                    self.record_instance(&aware);
                    if fresh {
                        self.relay_aware(ctx, aware);
                    }
                }
            }
            MsgType::SFederate => {
                if let Some(fed) = FederatePayload::decode(msg.payload()) {
                    self.handle_federate(ctx, fed);
                }
            }
            FED_DEPLOY_MSG => {
                if let Some(deploy) = DeployPayload::decode(msg.payload()) {
                    self.handle_deploy(ctx, deploy);
                }
            }
            MsgType::Data => {
                if let Some(role) = self.sessions.get(&msg.app()) {
                    if role.active {
                        for d in role.successors.clone() {
                            ctx.send(msg.clone(), d);
                        }
                    }
                }
            }
            MsgType::STerminate => {
                if let Some(role) = self.sessions.get_mut(&msg.app()) {
                    role.active = false;
                }
            }
            _ => {
                self.base.handle_default(ctx, &msg);
            }
        }
    }

    fn status(&self) -> serde_json::Value {
        serde_json::json!({
            "algorithm": "federation-node",
            "policy": format!("{:?}", self.policy),
            "hosted": self.hosted.map(|(s, k)| serde_json::json!({"service": s, "kbps": k})),
            "load": self.load(),
            "known_services": self.registry.len(),
            "concluded": self.concluded.len(),
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

    fn aware(node: NodeId, service: ServiceType, kbps: f64, load: u32, epoch: u64) -> AwarePayload {
        AwarePayload {
            node,
            service,
            kbps,
            load,
            epoch,
            ttl: AWARE_TTL,
        }
    }

    #[test]
    fn requirement_validation() {
        assert!(Requirement::new(vec![], vec![]).is_none());
        assert!(Requirement::new(vec![1, 2], vec![(1, 0)]).is_none());
        assert!(Requirement::new(vec![1, 2], vec![(0, 5)]).is_none());
        let chain = Requirement::chain(vec![1, 2, 3]).unwrap();
        assert_eq!(chain.successors(0), vec![1]);
        assert_eq!(chain.sink(), 2);
        let dag = Requirement::new(vec![1, 2, 3, 4], vec![(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(dag.successors(0), vec![1, 2]);
        assert_eq!(dag.successors(3), Vec::<usize>::new());
    }

    #[test]
    fn assignment_records_instances_and_floods() {
        let mut node = FederationNode::new(Policy::SFlow)
            .with_known_hosts([n(2), n(3)]);
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let assign = aware(n(1), 7, 150.0, 0, 1);
        node.on_message(
            &mut ctx,
            Msg::new(MsgType::SAssign, n(99), 0, 0, assign.encode()),
        );
        assert_eq!(node.known_instances(7), vec![n(1)]);
        let aware_msgs: Vec<_> = ctx
            .staged
            .sends
            .iter()
            .filter(|(m, _)| m.ty() == MsgType::SAware)
            .collect();
        assert_eq!(aware_msgs.len(), 2, "announced to both known hosts");
    }

    #[test]
    fn sflow_prefers_unloaded_capacity_fixed_ignores_load() {
        let fast_but_busy = aware(n(10), 7, 200.0, 3, 1);
        let slower_idle = aware(n(11), 7, 120.0, 0, 1);
        for (policy, expect) in [(Policy::SFlow, n(11)), (Policy::Fixed, n(10))] {
            let mut node = FederationNode::new(policy);
            node.record_instance(&fast_but_busy);
            node.record_instance(&slower_idle);
            let mut ctx = RecordingCtx::new(NodeId::loopback(1));
            let chosen = node
                .select_instance(&mut ctx, 7, &BTreeSet::new())
                .unwrap();
            assert_eq!(chosen, expect, "policy {policy:?}");
        }
    }

    #[test]
    fn selection_excludes_already_assigned_nodes() {
        let mut node = FederationNode::new(Policy::Fixed);
        node.record_instance(&aware(n(10), 7, 200.0, 0, 1));
        node.record_instance(&aware(n(11), 7, 100.0, 0, 1));
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let exclude: BTreeSet<NodeId> = [n(10)].into();
        assert_eq!(node.select_instance(&mut ctx, 7, &exclude), Some(n(11)));
        let exclude_all: BTreeSet<NodeId> = [n(10), n(11)].into();
        assert_eq!(node.select_instance(&mut ctx, 7, &exclude_all), None);
    }

    #[test]
    fn federation_walks_the_chain_and_concludes() {
        // Node 1 hosts type 1; it knows instances for types 2 and 3.
        let mut node = FederationNode::new(Policy::Fixed);
        node.hosted = Some((1, 100.0));
        node.record_instance(&aware(n(2), 2, 100.0, 0, 1));
        node.record_instance(&aware(n(3), 3, 100.0, 0, 1));
        let mut ctx = RecordingCtx::new(NodeId::loopback(1));
        let fed = FederatePayload {
            session: 42,
            requirement: Requirement::chain(vec![1, 2, 3]).unwrap(),
            current_vertex: 0,
            assignment: BTreeMap::new(),
            msg_bytes: 5 * 1024,
        };
        node.on_message(
            &mut ctx,
            Msg::new(MsgType::SFederate, n(99), 42, 0, fed.encode()),
        );
        // The node assigns itself to vertex 0, picks n(2) for vertex 1,
        // and forwards the federation there.
        assert_eq!(ctx.staged.sends.len(), 1);
        assert_eq!(ctx.staged.sends[0].1, n(2));
        let fwd = FederatePayload::decode(ctx.staged.sends[0].0.payload()).unwrap();
        assert_eq!(fwd.assignment[&0], n(1));
        assert_eq!(fwd.assignment[&1], n(2));
        assert_eq!(fwd.current_vertex, 1);
    }

    #[test]
    fn sink_concludes_and_deploys_to_all_assigned() {
        let mut sink = FederationNode::new(Policy::Fixed);
        sink.hosted = Some((3, 100.0));
        let mut ctx = RecordingCtx::new(NodeId::loopback(3));
        let mut assignment = BTreeMap::new();
        assignment.insert(0, n(1));
        assignment.insert(1, n(2));
        let fed = FederatePayload {
            session: 42,
            requirement: Requirement::chain(vec![1, 2, 3]).unwrap(),
            current_vertex: 2,
            assignment,
            msg_bytes: 5 * 1024,
        };
        sink.on_message(
            &mut ctx,
            Msg::new(MsgType::SFederate, n(2), 42, 0, fed.encode()),
        );
        assert_eq!(sink.concluded().len(), 1);
        let deploys: Vec<_> = ctx
            .staged
            .sends
            .iter()
            .filter(|(m, _)| m.ty() == FED_DEPLOY_MSG)
            .collect();
        assert_eq!(deploys.len(), 2, "deploy sent to nodes 1 and 2");
        // The sink itself took its role directly.
        assert_eq!(sink.load(), 1);
    }

    #[test]
    fn deploy_sets_up_data_forwarding_roles() {
        let mut node = FederationNode::new(Policy::Fixed);
        let mut ctx = RecordingCtx::new(NodeId::loopback(2));
        let mut assignment = BTreeMap::new();
        assignment.insert(0, n(1));
        assignment.insert(1, n(2));
        assignment.insert(2, n(3));
        let deploy = DeployPayload {
            session: 42,
            requirement: Requirement::chain(vec![1, 2, 3]).unwrap(),
            assignment,
            msg_bytes: 100,
        };
        node.on_message(
            &mut ctx,
            Msg::new(FED_DEPLOY_MSG, n(3), 42, 0, deploy.encode()),
        );
        assert_eq!(node.load(), 1);
        // Session data flows through to the successor.
        node.on_message(&mut ctx, Msg::data(n(1), 42, 0, vec![0u8; 100]));
        let fwd: Vec<_> = ctx
            .staged
            .sends
            .iter()
            .filter(|(m, _)| m.ty() == MsgType::Data)
            .collect();
        assert_eq!(fwd.len(), 1);
        assert_eq!(fwd[0].1, n(3));
    }

    #[test]
    fn stale_aware_epochs_do_not_regress_load_info() {
        let mut node = FederationNode::new(Policy::SFlow);
        node.record_instance(&aware(n(10), 7, 200.0, 5, 10));
        node.record_instance(&aware(n(10), 7, 200.0, 0, 3)); // stale
        let info = node.registry[&7][&n(10)];
        assert_eq!(info.load, 5);
        assert_eq!(info.epoch, 10);
    }

    #[test]
    fn aware_relay_decrements_ttl_and_stops_at_zero() {
        let mut relay = FederationNode::new(Policy::Fixed).with_known_hosts([n(5)]);
        let mut ctx = RecordingCtx::new(NodeId::loopback(4));
        let msg = |ttl| {
            Msg::new(
                MsgType::SAware,
                n(9),
                0,
                0,
                AwarePayload { ttl, ..aware(n(9), 7, 50.0, 0, 1) }.encode(),
            )
        };
        relay.on_message(&mut ctx, msg(0));
        assert!(ctx.staged.sends.is_empty(), "ttl 0 is not relayed");
        relay.on_message(
            &mut ctx,
            Msg::new(
                MsgType::SAware,
                n(9),
                0,
                0,
                AwarePayload { ttl: 2, epoch: 2, ..aware(n(9), 7, 50.0, 0, 1) }.encode(),
            ),
        );
        assert_eq!(ctx.staged.sends.len(), 1);
        let relayed = AwarePayload::decode(ctx.staged.sends[0].0.payload()).unwrap();
        assert_eq!(relayed.ttl, 1);
    }
}
