//! Node/link arena and construction API.
//!
//! A [`Topology`] is an arena of [`Node`]s and *directed* [`Link`]s plus a
//! forward-star adjacency: each node keeps its first and last out-link and
//! each link the next out-link of its source, three `u32` columns that
//! list a node's out-links in insertion order. A node is its id and its
//! [`NodeKind`], nothing more. Physical cables are added with
//! [`Topology::add_duplex`], which creates one link per direction — the
//! SCDA rate metric allocates uplink and downlink bandwidth independently
//! (the `d`/`u` subscripts of the paper's Table I), so directions are
//! first-class here.

use serde::{Deserialize, Serialize};

use crate::ids::{LinkId, NodeId};

/// What a node is. Levels follow the paper's convention: block servers sit
/// at level 0, top-of-rack/edge switches at level 1, aggregation at level 2
/// and the core (cloud entry) switch at level `h_max` (3 in the three-tier
/// tree of figures 1 and 6).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeKind {
    /// A block server (BS) — stores content, terminates flows.
    Server,
    /// A switch at tree level `level` (1 = edge/ToR, `h_max` = core).
    Switch {
        /// Tree level, 1-based.
        level: u8,
    },
    /// An external user client (UCL) reaching the cloud over a WAN link.
    Client,
}

/// A node in the topology.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Node {
    /// This node's index.
    pub id: NodeId,
    /// Role and (for switches) tree level.
    pub kind: NodeKind,
}

/// A directed link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Link {
    /// This link's index.
    pub id: LinkId,
    /// Transmitting endpoint.
    pub src: NodeId,
    /// Receiving endpoint.
    pub dst: NodeId,
    /// Capacity in bits/second.
    pub capacity_bps: f64,
    /// Propagation delay in seconds.
    pub delay_s: f64,
    /// FIFO queue capacity in bytes.
    pub queue_cap_bytes: f64,
}

impl Link {
    /// Capacity in bytes/second.
    #[inline]
    pub fn capacity_bytes(&self) -> f64 {
        self.capacity_bps / 8.0
    }
}

/// No link: the end of an out-link list in the forward-star columns, and
/// an unset link slot in [`crate::Routes`].
pub(crate) const NO_LINK: u32 = u32::MAX;

/// The network graph: node and link arenas plus forward-star adjacency.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Per node: its first and last out-link ([`NO_LINK`] for none).
    pub(crate) first_out: Vec<u32>,
    last_out: Vec<u32>,
    /// Per link: the next out-link of its source, in insertion order
    /// ([`NO_LINK`] after the last).
    pub(crate) next_out: Vec<u32>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty topology with room for `nodes` nodes and `links` links.
    pub fn with_capacity(nodes: usize, links: usize) -> Self {
        Topology {
            nodes: Vec::with_capacity(nodes),
            links: Vec::with_capacity(links),
            first_out: Vec::with_capacity(nodes),
            last_out: Vec::with_capacity(nodes),
            next_out: Vec::with_capacity(links),
        }
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { id, kind });
        self.first_out.push(NO_LINK);
        self.last_out.push(NO_LINK);
        id
    }

    /// Add a single directed link; returns its id. `capacity_bps` is in
    /// bits/s, `delay_s` in seconds, `queue_cap_bytes` in bytes.
    ///
    /// # Panics
    ///
    /// Panics on nonsensical parameters (non-positive capacity, negative
    /// delay or queue capacity) or out-of-range endpoints.
    pub fn add_link(
        &mut self,
        src: NodeId,
        dst: NodeId,
        capacity_bps: f64,
        delay_s: f64,
        queue_cap_bytes: f64,
    ) -> LinkId {
        assert!(capacity_bps > 0.0, "link capacity must be positive");
        assert!(delay_s >= 0.0, "link delay must be non-negative");
        assert!(
            queue_cap_bytes >= 0.0,
            "queue capacity must be non-negative"
        );
        assert!(src.index() < self.nodes.len(), "src node out of range");
        assert!(dst.index() < self.nodes.len(), "dst node out of range");
        assert_ne!(src, dst, "self-loop links are not allowed");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link {
            id,
            src,
            dst,
            capacity_bps,
            delay_s,
            queue_cap_bytes,
        });
        // Append to `src`'s list, keeping insertion order.
        self.next_out.push(NO_LINK);
        match self.last_out[src.index()] {
            NO_LINK => self.first_out[src.index()] = id.0,
            last => self.next_out[last as usize] = id.0,
        }
        self.last_out[src.index()] = id.0;
        id
    }

    /// Add both directions of a physical cable with identical parameters
    /// (`capacity_bps` bits/s, `delay_s` seconds, `queue_cap_bytes`
    /// bytes); returns `(a_to_b, b_to_a)`.
    pub fn add_duplex(
        &mut self,
        a: NodeId,
        b: NodeId,
        capacity_bps: f64,
        delay_s: f64,
        queue_cap_bytes: f64,
    ) -> (LinkId, LinkId) {
        let ab = self.add_link(a, b, capacity_bps, delay_s, queue_cap_bytes);
        let ba = self.add_link(b, a, capacity_bps, delay_s, queue_cap_bytes);
        (ab, ba)
    }

    /// All directed links, indexed by [`LinkId`].
    #[inline]
    pub fn links(&self) -> &[Link] {
        &self.links
    }

    /// Look up a link.
    #[inline]
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable link access (capacity reconfiguration / fault injection —
    /// see the `faults` module on [`crate::Network`]).
    #[inline]
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// Outgoing links of `n`, in insertion order (deterministic).
    pub fn out_links(&self, n: NodeId) -> impl Iterator<Item = LinkId> + '_ {
        let link = |l: u32| (l != NO_LINK).then_some(LinkId(l));
        std::iter::successors(link(self.first_out[n.index()]), move |l| {
            link(self.next_out[l.index()])
        })
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// The reverse direction of `l`, if the topology contains a link
    /// `dst -> src` (linear scan of `dst`'s out-links; all builders create
    /// duplex pairs so this always succeeds for built topologies).
    pub fn reverse_of(&self, l: LinkId) -> Option<LinkId> {
        let link = self.link(l);
        self.out_links(link.dst)
            .find(|&cand| self.link(cand).dst == link.src)
    }

    /// Iterator over server node ids.
    pub fn servers(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(|n| n.kind == NodeKind::Server)
            .map(|n| n.id)
    }

    /// Iterator over switch node ids at the given level.
    pub fn switches_at(&self, level: u8) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .filter(move |n| n.kind == NodeKind::Switch { level })
            .map(|n| n.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::mbps;

    fn two_nodes() -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server);
        let b = t.add_node(NodeKind::Server);
        (t, a, b)
    }

    #[test]
    fn add_nodes_assigns_sequential_ids() {
        let (t, a, b) = two_nodes();
        assert_eq!(a, NodeId(0));
        assert_eq!(b, NodeId(1));
        assert_eq!(t.node_count(), 2);
    }

    #[test]
    fn duplex_creates_both_directions() {
        let (mut t, a, b) = two_nodes();
        let (ab, ba) = t.add_duplex(a, b, mbps(100.0), 0.01, 1e6);
        assert_eq!(t.link(ab).src, a);
        assert_eq!(t.link(ab).dst, b);
        assert_eq!(t.link(ba).src, b);
        assert_eq!(t.link(ba).dst, a);
        assert_eq!(t.reverse_of(ab), Some(ba));
        assert_eq!(t.reverse_of(ba), Some(ab));
    }

    #[test]
    fn adjacency_tracks_out_links() {
        let (mut t, a, b) = two_nodes();
        let c = t.add_node(NodeKind::Switch { level: 1 });
        t.add_duplex(a, c, mbps(10.0), 0.0, 1e5);
        t.add_duplex(b, c, mbps(10.0), 0.0, 1e5);
        assert_eq!(t.out_links(a).count(), 1);
        assert_eq!(t.out_links(c).count(), 2);
    }

    #[test]
    fn capacity_bytes_is_an_eighth() {
        let (mut t, a, b) = two_nodes();
        let (ab, _) = t.add_duplex(a, b, 8e6, 0.0, 0.0);
        assert_eq!(t.link(ab).capacity_bytes(), 1e6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let (mut t, a, b) = two_nodes();
        t.add_link(a, b, 0.0, 0.0, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let (mut t, a, _) = two_nodes();
        t.add_link(a, a, 1.0, 0.0, 0.0);
    }

    #[test]
    fn role_iterators() {
        let mut t = Topology::new();
        t.add_node(NodeKind::Server);
        t.add_node(NodeKind::Client);
        t.add_node(NodeKind::Switch { level: 2 });
        t.add_node(NodeKind::Server);
        assert_eq!(t.servers().count(), 2);
        assert_eq!(t.switches_at(2).count(), 1);
        assert_eq!(t.switches_at(1).count(), 0);
    }
}
