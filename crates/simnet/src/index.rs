//! Dense indices for nodes and links, and the directory that maps
//! addresses to them.
//!
//! Inside the simulator a node is a position in `Vec<SimNode>` and a
//! directed link a position in `Vec<DirectedLink>`; events, link
//! records and per-node link lists all carry these indices. `NodeId`s
//! are translated here, and only where an address enters: a public call
//! on `Sim` or `Metrics`, a destination an algorithm names for the first
//! time, the creation of a link.

use std::collections::HashMap;

use ioverlay_api::NodeId;

/// Position of a node in the simulator's node arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct NodeIdx(pub u32);

/// Position of a directed link in the simulator's link arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct LinkIdx(pub u32);

impl NodeIdx {
    pub(crate) fn ix(self) -> usize {
        self.0 as usize
    }
}

impl LinkIdx {
    pub(crate) fn ix(self) -> usize {
        self.0 as usize
    }
}

/// The two address maps of a simulation. Entries are never removed: a
/// node keeps its index after it dies, a link record outlives the
/// closing of either end (its delivery statistics must).
#[derive(Debug, Default)]
pub(crate) struct Directory {
    nodes: HashMap<NodeId, NodeIdx>,
    /// Address of each node, by index.
    ids: Vec<NodeId>,
    links: HashMap<(NodeIdx, NodeIdx), LinkIdx>,
    /// Addresses of each link's ends, in creation order.
    ends: Vec<(NodeId, NodeId)>,
}

impl Directory {
    pub(crate) fn node(&self, id: NodeId) -> Option<NodeIdx> {
        self.nodes.get(&id).copied()
    }

    pub(crate) fn id(&self, node: NodeIdx) -> NodeId {
        self.ids[node.ix()]
    }

    /// Registers `id` under the next free index.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered.
    pub(crate) fn add_node(&mut self, id: NodeId) -> NodeIdx {
        let idx = NodeIdx(u32::try_from(self.ids.len()).expect("fewer than 2^32 nodes"));
        let previous = self.nodes.insert(id, idx);
        assert!(
            previous.is_none(),
            "node {id} already exists in the simulation"
        );
        self.ids.push(id);
        idx
    }

    pub(crate) fn link(&self, from: NodeIdx, to: NodeIdx) -> Option<LinkIdx> {
        self.links.get(&(from, to)).copied()
    }

    /// The link between two addresses, if both are nodes and a record
    /// for the pair exists.
    pub(crate) fn link_between(&self, from: NodeId, to: NodeId) -> Option<LinkIdx> {
        self.link(self.node(from)?, self.node(to)?)
    }

    pub(crate) fn link_count(&self) -> usize {
        self.ends.len()
    }

    /// Registers the pair under the next free link index.
    pub(crate) fn add_link(&mut self, from: NodeIdx, to: NodeIdx) -> LinkIdx {
        let idx = LinkIdx(u32::try_from(self.ends.len()).expect("fewer than 2^32 links"));
        let previous = self.links.insert((from, to), idx);
        debug_assert!(previous.is_none(), "one record per directed pair");
        self.ends.push((self.id(from), self.id(to)));
        idx
    }

    /// Addresses of a link's ends.
    pub(crate) fn ends(&self, link: LinkIdx) -> (NodeId, NodeId) {
        self.ends[link.ix()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_stable() {
        let mut dir = Directory::default();
        let (a, b) = (NodeId::loopback(1), NodeId::loopback(2));
        let ia = dir.add_node(a);
        let ib = dir.add_node(b);
        assert_eq!((ia, ib), (NodeIdx(0), NodeIdx(1)));
        assert_eq!(dir.node(b), Some(ib));
        assert_eq!(dir.node(NodeId::loopback(3)), None);
        let l = dir.add_link(ia, ib);
        assert_eq!(l, LinkIdx(0));
        assert_eq!(dir.link(ia, ib), Some(l));
        assert_eq!(dir.link(ib, ia), None, "links are directed");
        assert_eq!(dir.link_between(a, b), Some(l));
        assert_eq!(dir.ends(l), (a, b));
        assert_eq!((dir.id(ib), dir.link_count()), (b, 1));
    }

    #[test]
    #[should_panic(expected = "already exists")]
    fn duplicate_node_panics() {
        let mut dir = Directory::default();
        dir.add_node(NodeId::loopback(1));
        dir.add_node(NodeId::loopback(1));
    }
}
