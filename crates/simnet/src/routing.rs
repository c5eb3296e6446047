//! Shortest-path routing.
//!
//! Two ways to answer a pair, chosen once per [`Routes`]:
//!
//! * **Tree climb.** The paper's figure-6 fabric (clients and gateway
//!   included) is a tree of duplex cables, |E| = |V| − 1, so the shortest
//!   path is the unique up-then-down path. On the first interning miss
//!   `Routes` checks the topology once (one traversal from node 0) and, if
//!   it is such a tree, keeps each node's up link, down link and depth;
//!   a new pair is then an O(depth) climb of both ends to their lowest
//!   common ancestor — no per-source state and no allocation beyond the
//!   interned path.
//! * **Dijkstra.** Every other graph (fat-tree, Clos, the §IX multipath
//!   study, a fabric with a one-way or parallel link) runs per-source
//!   Dijkstra over link propagation delay (ties broken by hop count, then
//!   by link index, so paths are deterministic), with the resulting
//!   shortest-path trees cached; the paper's cross-layer max/min route
//!   selection (reference \[7\]) needs such a candidate path to evaluate.
//!
//! In a tree Dijkstra can only return the unique simple path, so both
//! give the same links in the same order, the same RTT bits and the same
//! interning order.
//!
//! # Interning
//!
//! Flow admission asks for the same (src, dst) paths over and over — a
//! rack pair's path never changes while the fabric stands. The cache
//! therefore **interns** materialized paths: the first
//! [`Routes::path_handle`] for a pair walks the tree (or the predecessor
//! row) once into a shared CSR arena and memoizes a [`PathId`]; every later
//! lookup is one `BTreeMap` probe, and the links ([`Routes::path_of`])
//! and propagation RTT ([`Routes::rtt_of`]) are shared by id with zero
//! per-open allocation. Capacity or delay reconfiguration invalidates
//! by replacing the whole `Routes` (see
//! [`Network::invalidate_routes`](crate::Network::invalidate_routes)),
//! so no stale handle can survive a fabric change — `PathId`s must not
//! be held across an invalidation.
//!
//! There are no allocating `path`/`base_rtt` convenience forms: every
//! lookup goes through a handle.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use crate::ids::{LinkId, NodeId};
use crate::topology::{Topology, NO_LINK};

/// Intern-table sentinel: the pair is known unreachable, so repeated
/// queries skip the predecessor walk.
const UNREACHABLE: u32 = u32::MAX;

/// Handle to an interned path in a [`Routes`] cache. Cheap to copy and
/// compare; resolves through [`Routes::path_of`] / [`Routes::rtt_of`].
/// Valid only for the `Routes` value that issued it — route
/// invalidation replaces the cache wholesale and with it every id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The arena slot, for diagnostics.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Routing table: the tree links of a tree fabric or lazily computed,
/// cached shortest-path trees, plus the interned-path arena.
#[derive(Debug, Clone, Default)]
pub struct Routes {
    /// Whether the topology is a tree of duplex cables; `None` until the
    /// first interning miss checks it.
    tree: Option<bool>,
    /// Tree mode: each node's link to its parent ([`NO_LINK`] at the
    /// root, node 0).
    up: Vec<u32>,
    /// Tree mode: each node's link from its parent ([`NO_LINK`] at the
    /// root).
    down: Vec<u32>,
    /// Tree mode: each node's hop count from the root.
    depth: Vec<u32>,
    /// Dijkstra mode: `prev[src]` = flat predecessor row: entry `dst` is
    /// the link used to *reach* `dst` on the shortest path from `src`
    /// ([`NO_LINK`] if unreachable / dst == src). Computed per source on
    /// first use; the column itself is sized by the first Dijkstra, so a
    /// tree fabric never holds one.
    prev: Vec<Option<Box<[u32]>>>,
    /// (src, dst) → arena slot, or [`UNREACHABLE`].
    interned: BTreeMap<(u32, u32), u32>,
    /// Content-keyed dedup for explicitly supplied paths (multipath's
    /// ECMP picks), so equal paths share one arena slot.
    explicit: BTreeMap<Box<[LinkId]>, u32>,
    /// CSR end offsets into `path_links`: path `i` ends at `path_end[i]`
    /// and starts where path `i − 1` ends (at 0 for the first).
    path_end: Vec<u32>,
    /// CSR link data, first link leaves the source.
    path_links: Vec<LinkId>,
    /// Cached propagation RTT (seconds, `2·Σ delay` in path order) per
    /// interned path.
    path_rtt: Vec<f64>,
}

impl Routes {
    /// Empty cache; nothing is sized until the first lookup.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct interned paths.
    pub fn interned_count(&self) -> usize {
        self.path_rtt.len()
    }

    /// Handle to the shortest path from `src` to `dst`, or `None` if
    /// unreachable. First call per pair climbs the tree (or, on a
    /// general graph, walks the cached predecessor row, running Dijkstra
    /// from `src` if this is its first query) and interns the result;
    /// later calls are a single map probe.
    pub fn path_handle(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<PathId> {
        let key = (src.0, dst.0);
        if let Some(&slot) = self.interned.get(&key) {
            return (slot != UNREACHABLE).then_some(PathId(slot));
        }
        let start = self.path_links.len();
        if self.is_tree(topo) {
            self.climb_into_arena(topo, src, dst);
        } else if !self.walk_prev_into_arena(topo, src, dst) {
            self.interned.insert(key, UNREACHABLE);
            return None;
        }
        // Forward-order delay sum, matching the historical
        // `2·Σ path delay` op order bit for bit.
        let mut fwd = 0.0f64;
        for &l in &self.path_links[start..] {
            fwd += topo.link(l).delay_s;
        }
        let slot = self.path_rtt.len() as u32;
        self.path_end.push(self.path_links.len() as u32);
        self.path_rtt.push(2.0 * fwd);
        self.interned.insert(key, slot);
        Some(PathId(slot))
    }

    /// The links of an interned path, first link leaving the source.
    /// Empty for a self-path.
    pub fn path_of(&self, id: PathId) -> &[LinkId] {
        let i = id.index();
        let lo = i.checked_sub(1).map_or(0, |p| self.path_end[p] as usize);
        &self.path_links[lo..self.path_end[i] as usize]
    }

    /// Cached end-to-end propagation RTT (seconds, both directions,
    /// assuming symmetric delay) of an interned path.
    pub fn rtt_of(&self, id: PathId) -> f64 {
        self.path_rtt[id.index()]
    }

    /// Intern an explicitly chosen path (e.g. one of multipath's ECMP
    /// candidates), deduplicating by content so equal paths share one
    /// arena slot and one cached RTT. The path is trusted to be
    /// link-consistent; `topo` prices its RTT.
    pub fn intern_explicit(&mut self, topo: &Topology, path: &[LinkId]) -> PathId {
        if let Some(&slot) = self.explicit.get(path) {
            return PathId(slot);
        }
        let fwd: f64 = path.iter().map(|&l| topo.link(l).delay_s).sum();
        let slot = self.path_rtt.len() as u32;
        self.path_links.extend_from_slice(path);
        self.path_end.push(self.path_links.len() as u32);
        self.path_rtt.push(2.0 * fwd);
        self.explicit.insert(path.into(), slot);
        PathId(slot)
    }

    /// Whether `topo` is a tree of duplex cables, checked on the first
    /// call (the first interning miss) and cached, so building a
    /// `Routes` stays free.
    fn is_tree(&mut self, topo: &Topology) -> bool {
        if self.tree.is_none() {
            let tree = self.learn_tree(topo);
            if !tree {
                self.up.clear();
                self.down.clear();
                self.depth.clear();
            }
            self.tree = Some(tree);
        }
        self.tree == Some(true)
    }

    /// Fill `up` / `down` / `depth` from one depth-first traversal of the
    /// out-links from node 0, with the parent links as its stack; `false`
    /// (arrays partly filled) unless every link goes either down to an
    /// unvisited node or back to its node's parent, at most once per
    /// node, and every node is reached.
    fn learn_tree(&mut self, topo: &Topology) -> bool {
        let n = topo.node_count();
        if n == 0 || topo.link_count() != 2 * (n - 1) {
            return false;
        }
        self.up.resize(n, NO_LINK);
        self.down.resize(n, NO_LINK);
        // While a node is on the stack its `depth` slot is its cursor,
        // the next out-link to visit ([`NO_LINK`] past the last); the
        // depth is written when the node is finished.
        self.depth.resize(n, 0);
        self.depth[0] = topo.first_out[0];
        let (mut u, mut d, mut reached) = (0usize, 0u32, 1usize);
        loop {
            let cursor = self.depth[u];
            if cursor != NO_LINK {
                let l = LinkId(cursor);
                self.depth[u] = topo.next_out[l.index()];
                let v = topo.link(l).dst.index();
                let parent =
                    (self.down[u] != NO_LINK).then(|| topo.link(LinkId(self.down[u])).src.index());
                if v != 0 && self.down[v] == NO_LINK {
                    self.down[v] = l.0;
                    self.depth[v] = topo.first_out[v];
                    (u, d, reached) = (v, d + 1, reached + 1);
                } else if parent == Some(v) && self.up[u] == NO_LINK {
                    self.up[u] = l.0;
                } else {
                    return false; // a cycle, or a parallel link
                }
            } else if u == 0 {
                self.depth[0] = 0;
                return reached == n;
            } else if self.up[u] == NO_LINK {
                return false; // reached over a one-way link
            } else {
                self.depth[u] = d;
                (u, d) = (topo.link(LinkId(self.up[u])).dst.index(), d - 1);
            }
        }
    }

    /// Tree mode: push the unique `src → dst` path onto the arena — the
    /// `src`-side up links in climb order, then the `dst`-side down links,
    /// climbed from `dst` and reversed in place.
    fn climb_into_arena(&mut self, topo: &Topology, src: NodeId, dst: NodeId) {
        let (up, down, depth) = (&self.up, &self.down, &self.depth);
        let parent = |n: usize| topo.link(LinkId(up[n])).dst.index();
        let (mut a, mut b) = (src.index(), dst.index());
        while depth[a] > depth[b] {
            a = parent(a);
        }
        while depth[b] > depth[a] {
            b = parent(b);
        }
        while a != b {
            (a, b) = (parent(a), parent(b));
        }
        let lca = a;
        let mut a = src.index();
        while a != lca {
            self.path_links.push(LinkId(up[a]));
            a = parent(a);
        }
        let mid = self.path_links.len();
        let mut b = dst.index();
        while b != lca {
            self.path_links.push(LinkId(down[b]));
            b = parent(b);
        }
        self.path_links[mid..].reverse();
    }

    /// Dijkstra mode: push the `src → dst` path onto the arena from
    /// `src`'s predecessor row; `false` (arena untouched) if unreachable.
    fn walk_prev_into_arena(&mut self, topo: &Topology, src: NodeId, dst: NodeId) -> bool {
        self.ensure_source(topo, src);
        let row = self.prev[src.index()]
            .as_ref()
            .expect("invariant: just computed");
        // Walk predecessor links back from dst, straight into the arena.
        let start = self.path_links.len();
        let mut cur = dst;
        while cur != src {
            let l = row[cur.index()];
            if l == NO_LINK {
                self.path_links.truncate(start);
                return false;
            }
            let l = LinkId(l);
            self.path_links.push(l);
            cur = topo.link(l).src;
        }
        self.path_links[start..].reverse();
        true
    }

    /// Run Dijkstra from `src` if not cached yet.
    fn ensure_source(&mut self, topo: &Topology, src: NodeId) {
        let n = topo.node_count();
        if self.prev.is_empty() {
            self.prev.resize(n, None);
        }
        if self.prev[src.index()].is_some() {
            return;
        }
        let mut dist = vec![f64::INFINITY; n];
        let mut hops = vec![u32::MAX; n];
        let mut prev = vec![NO_LINK; n];
        let mut done = vec![false; n];
        dist[src.index()] = 0.0;
        hops[src.index()] = 0;

        // Priority: (delay, hop count, node index) — a total, deterministic
        // order.
        #[derive(PartialEq)]
        struct Key(f64, u32, u32);
        impl Eq for Key {}
        impl PartialOrd for Key {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Key {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                self.0
                    .total_cmp(&other.0)
                    .then_with(|| self.1.cmp(&other.1))
                    .then_with(|| self.2.cmp(&other.2))
            }
        }

        let mut heap = BinaryHeap::new();
        heap.push(Reverse(Key(0.0, 0, src.0)));
        while let Some(Reverse(Key(d, h, u))) = heap.pop() {
            let u = NodeId(u);
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            for l in topo.out_links(u) {
                let link = topo.link(l);
                let v = link.dst;
                let nd = d + link.delay_s;
                let nh = h + 1;
                #[expect(
                    clippy::float_cmp,
                    reason = "the equal-delay tie-break: an exactly equal delay falls through to the hop count"
                )]
                let better =
                    nd < dist[v.index()] || (nd == dist[v.index()] && nh < hops[v.index()]);
                if better {
                    dist[v.index()] = nd;
                    hops[v.index()] = nh;
                    prev[v.index()] = l.0;
                    heap.push(Reverse(Key(nd, nh, v.0)));
                }
            }
        }
        self.prev[src.index()] = Some(prev.into_boxed_slice());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::NodeKind;
    use crate::units::mbps;

    /// a - sw - b, plus a slow direct a - b detour with higher delay.
    fn diamondish() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server);
        let sw = t.add_node(NodeKind::Switch { level: 1 });
        let b = t.add_node(NodeKind::Server);
        t.add_duplex(a, sw, mbps(100.0), 0.001, 1e6);
        t.add_duplex(sw, b, mbps(100.0), 0.001, 1e6);
        t.add_duplex(a, b, mbps(10.0), 0.1, 1e6); // slow, high-delay direct
        (t, a, sw, b)
    }

    #[test]
    fn picks_lower_delay_path() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, b).unwrap();
        let p = r.path_of(id);
        assert_eq!(p.len(), 2, "should route via the switch, not direct");
        assert_eq!(t.link(p[0]).src, a);
        assert_eq!(t.link(p[1]).dst, b);
    }

    #[test]
    fn path_to_self_is_empty() {
        let (t, a, ..) = diamondish();
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, a).unwrap();
        assert!(r.path_of(id).is_empty());
        assert_eq!(r.rtt_of(id), 0.0);
    }

    #[test]
    fn unreachable_is_none() {
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server);
        let b = t.add_node(NodeKind::Server);
        let mut r = Routes::new();
        assert_eq!(r.path_handle(&t, a, b), None);
        assert_eq!(r.path_handle(&t, a, b), None, "negative result is cached");
        assert_eq!(r.interned_count(), 0, "no path is interned for it");
    }

    #[test]
    fn base_rtt_doubles_one_way_delay() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, b).unwrap();
        assert!((r.rtt_of(id) - 2.0 * 0.002).abs() < 1e-12);
    }

    #[test]
    fn paths_are_link_consistent() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, b).unwrap();
        let p = r.path_of(id);
        for w in p.windows(2) {
            assert_eq!(t.link(w[0]).dst, t.link(w[1]).src);
        }
    }

    #[test]
    fn equal_delay_ties_prefer_fewer_hops() {
        // a -> b directly (delay 2ms) vs a -> sw -> b (1ms + 1ms).
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server);
        let sw = t.add_node(NodeKind::Switch { level: 1 });
        let b = t.add_node(NodeKind::Server);
        t.add_duplex(a, sw, mbps(1.0), 0.001, 1e6);
        t.add_duplex(sw, b, mbps(1.0), 0.001, 1e6);
        t.add_duplex(a, b, mbps(1.0), 0.002, 1e6);
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, b).unwrap();
        assert_eq!(
            r.path_of(id).len(),
            1,
            "tie on delay should prefer the direct hop"
        );
    }

    #[test]
    fn handles_are_interned_per_pair() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let id1 = r.path_handle(&t, a, b).unwrap();
        let id2 = r.path_handle(&t, a, b).unwrap();
        assert_eq!(id1, id2, "same pair shares one arena slot");
        assert_eq!(r.interned_count(), 1);
        let back = r.path_handle(&t, b, a).unwrap();
        assert_ne!(back, id1, "reverse direction is its own path");
        assert_eq!(r.interned_count(), 2);
    }

    #[test]
    fn reverse_pair_gets_the_mirrored_path() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let fwd = r.path_handle(&t, a, b).unwrap();
        let back = r.path_handle(&t, b, a).unwrap();
        let (fwd, back) = (r.path_of(fwd), r.path_of(back));
        assert_eq!(fwd.len(), back.len());
        for (&f, &b) in fwd.iter().zip(back.iter().rev()) {
            assert_eq!(t.link(f).src, t.link(b).dst);
            assert_eq!(t.link(f).dst, t.link(b).src);
        }
    }

    #[test]
    fn explicit_paths_dedup_by_content() {
        let (t, a, _sw, b) = diamondish();
        let mut r = Routes::new();
        let shortest = r.path_handle(&t, a, b).unwrap();
        let links: Vec<LinkId> = r.path_of(shortest).to_vec();
        let e1 = r.intern_explicit(&t, &links);
        let e2 = r.intern_explicit(&t, &links);
        assert_eq!(e1, e2, "equal content shares one slot");
        assert_eq!(r.path_of(e1), &links[..]);
        assert_eq!(r.rtt_of(e1), r.rtt_of(shortest));
    }

    #[test]
    fn self_path_is_empty() {
        let (t, a, _sw, _b) = diamondish();
        let mut r = Routes::new();
        let id = r.path_handle(&t, a, a).unwrap();
        assert_eq!(r.path_of(id), &[]);
        assert_eq!(r.rtt_of(id), 0.0);
    }

    /// Ask every ordered pair, source-major, of a `Routes` left to pick
    /// its mode and of one forced to Dijkstra: same `PathId` sequence,
    /// links and RTT bits. Returns the first for mode checks.
    fn matches_dijkstra(t: &Topology) -> Routes {
        let mut picked = Routes::new();
        let mut dijkstra = Routes::new();
        dijkstra.tree = Some(false);
        let n = t.node_count() as u32;
        for (s, d) in (0..n).flat_map(|s| (0..n).map(move |d| (NodeId(s), NodeId(d)))) {
            let id = picked.path_handle(t, s, d);
            assert_eq!(id, dijkstra.path_handle(t, s, d), "{s} -> {d}");
            if let Some(id) = id {
                assert_eq!(picked.path_of(id), dijkstra.path_of(id), "{s} -> {d}");
                assert_eq!(picked.rtt_of(id).to_bits(), dijkstra.rtt_of(id).to_bits());
            }
        }
        picked
    }

    fn assert_tree_mode(t: &Topology) {
        let r = matches_dijkstra(t);
        assert_eq!(r.tree, Some(true));
        assert!(r.prev.is_empty(), "tree mode sized a Dijkstra row");
    }

    fn assert_dijkstra_mode(t: &Topology) -> Routes {
        let r = matches_dijkstra(t);
        assert_eq!(r.tree, Some(false));
        assert!(r.up.is_empty() && r.down.is_empty() && r.depth.is_empty());
        r
    }

    fn ragged() -> crate::builders::ThreeTierTree {
        crate::builders::ThreeTierConfig {
            racks: 7,
            servers_per_rack: 1,
            racks_per_agg: 3,
            clients: 2,
            ..Default::default()
        }
        .build()
    }

    /// The `Scale::Quick` fabric of `scda-experiments`.
    fn quick() -> crate::builders::ThreeTierTree {
        crate::builders::ThreeTierConfig {
            racks: 8,
            servers_per_rack: 5,
            racks_per_agg: 4,
            clients: 8,
            ..Default::default()
        }
        .build()
    }

    #[test]
    fn tree_climb_matches_dijkstra_on_every_pair() {
        assert_tree_mode(&quick().topo);
        assert_tree_mode(&ragged().topo);
        assert_tree_mode(&crate::builders::dumbbell(3, mbps(10.0), 0.01, 1e6).0);
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Server);
        assert_tree_mode(&t);
        let b = t.add_node(NodeKind::Server);
        t.add_duplex(a, b, mbps(1.0), 0.001, 1e6);
        assert_tree_mode(&t);
    }

    #[test]
    fn tree_climb_survives_a_failed_link() {
        use crate::faults::FAILED_DELAY_S;
        let fabric = quick();
        let mut net = crate::Network::new(fabric.topo);
        let (srv, client) = (fabric.servers[2][1], fabric.clients[0]);
        net.fail_link(fabric.edge_links[2].0);
        let rtt = net.base_rtt_between(srv, client).unwrap();
        assert!(
            rtt > 2.0 * FAILED_DELAY_S,
            "rtt {rtt} skips the failed link"
        );
        assert_eq!(net.routes_mut().tree, Some(true));
        assert_tree_mode(net.topo());
    }

    #[test]
    fn general_graphs_keep_dijkstra() {
        use crate::builders::{clos, fat_tree};
        assert_dijkstra_mode(&clos(2, 2, 2, 1, mbps(100.0), 0.001, 1e6).0);
        assert_dijkstra_mode(&fat_tree(4, mbps(100.0), 0.001, 1e6).0);

        // A second duplex cable beside the agg0 uplink.
        let mut fabric = quick();
        fabric
            .topo
            .add_duplex(fabric.aggs[0], fabric.core, mbps(1.0), 0.001, 1e6);
        assert_dijkstra_mode(&fabric.topo);

        // 2·(n − 1) links, but c hangs off a one-way link and b has two
        // links up.
        let mut t = Topology::new();
        let a = t.add_node(NodeKind::Switch { level: 1 });
        let b = t.add_node(NodeKind::Server);
        let c = t.add_node(NodeKind::Server);
        t.add_link(a, c, mbps(1.0), 0.001, 1e6);
        t.add_duplex(a, b, mbps(1.0), 0.001, 1e6);
        t.add_link(b, a, mbps(1.0), 0.001, 1e6);
        let r = assert_dijkstra_mode(&t);
        assert_eq!(r.interned.get(&(c.0, a.0)), Some(&UNREACHABLE));
    }

    #[test]
    fn disconnected_graphs_keep_dijkstra_and_cache_unreachable() {
        // A forest: two cables.
        let mut t = Topology::new();
        let n: Vec<NodeId> = (0..4).map(|_| t.add_node(NodeKind::Server)).collect();
        t.add_duplex(n[0], n[1], mbps(1.0), 0.001, 1e6);
        t.add_duplex(n[2], n[3], mbps(1.0), 0.001, 1e6);
        let r = assert_dijkstra_mode(&t);
        assert_eq!(r.interned.get(&(0, 2)), Some(&UNREACHABLE));

        // 2·(n − 1) links, but a triangle away from node 0.
        let e = t.add_node(NodeKind::Server);
        t.add_duplex(n[2], e, mbps(1.0), 0.001, 1e6);
        t.add_duplex(n[3], e, mbps(1.0), 0.001, 1e6);
        assert_eq!(t.link_count(), 2 * (t.node_count() - 1));
        let r = assert_dijkstra_mode(&t);
        assert_eq!(r.interned.get(&(1, 4)), Some(&UNREACHABLE));
    }
}
