//! Equal-cost multi-path (ECMP) routing.
//!
//! The paper's baseline architectures (VL2 \[12\], Hedera \[2\]) spread flows
//! over multi-rooted fabrics by hashing each flow onto one of the
//! equal-cost shortest paths — and the paper's critique is precisely that
//! this per-flow *random* placement cannot react to load. This module
//! implements that mechanism over the general topologies of §IX (Clos,
//! fat-tree): for a (src, dst) pair it enumerates the shortest-path DAG
//! and selects a concrete path by a deterministic per-flow hash, exactly
//! like a switch hashing the five-tuple.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::topology::Topology;

/// ECMP path table over one topology.
///
/// Unlike [`crate::Routes`] (single deterministic shortest path), this
/// keeps, for every destination, *all* predecessor links that lie on some
/// minimum-delay path, and walks that DAG with a flow-seeded hash.
pub struct EcmpRoutes {
    /// `preds[src][dst]` = every link entering `dst` on a shortest path
    /// from `src` (lazily computed per source).
    preds: Vec<Option<Vec<Vec<LinkId>>>>,
}

impl EcmpRoutes {
    /// Empty table for `topo`.
    pub fn new(topo: &Topology) -> Self {
        EcmpRoutes {
            preds: vec![None; topo.node_count()],
        }
    }

    /// All equal-cost predecessor links toward `dst` from `src`'s
    /// shortest-path DAG (computing the DAG on first use).
    fn ensure(&mut self, topo: &Topology, src: NodeId) {
        if self.preds[src.index()].is_some() {
            return;
        }
        let n = topo.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut preds: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        dist[src.index()] = 0.0;
        // Dijkstra with full predecessor sets (ties retained).
        let mut heap = std::collections::BinaryHeap::new();
        heap.push(std::cmp::Reverse((ordered_float(0.0), src.0)));
        let mut done = vec![false; n];
        while let Some(std::cmp::Reverse((d, u))) = heap.pop() {
            let u = NodeId(u);
            if done[u.index()] {
                continue;
            }
            done[u.index()] = true;
            let d = f64::from_bits(d ^ SIGN_FIX);
            for l in topo.out_links(u) {
                let link = topo.link(l);
                let v = link.dst;
                let nd = d + link.delay_s;
                if nd < dist[v.index()] - EPS {
                    dist[v.index()] = nd;
                    preds[v.index()].clear();
                    preds[v.index()].push(l);
                    heap.push(std::cmp::Reverse((ordered_float(nd), v.0)));
                } else if (nd - dist[v.index()]).abs() <= EPS {
                    preds[v.index()].push(l);
                }
            }
        }
        self.preds[src.index()] = Some(preds);
    }

    /// The ECMP path for `flow`: walk the shortest-path DAG from `dst`
    /// back to `src`, picking among equal-cost predecessors by a hash of
    /// (flow, hop) — the switch-local five-tuple hash. Returns links in
    /// forward order, or `None` if unreachable.
    pub fn path(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        flow: FlowId,
    ) -> Option<Vec<LinkId>> {
        if src == dst {
            return Some(Vec::new());
        }
        self.ensure(topo, src);
        let preds = self.preds[src.index()].as_ref().expect("computed");
        let mut rev = Vec::new();
        let mut cur = dst;
        let mut hop = 0u64;
        while cur != src {
            let options = &preds[cur.index()];
            if options.is_empty() {
                return None;
            }
            let h = splitmix(flow.0 ^ (hop.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
            let l = options[(h % options.len() as u64) as usize];
            rev.push(l);
            cur = topo.link(l).src;
            hop += 1;
        }
        rev.reverse();
        Some(rev)
    }
}

impl EcmpRoutes {
    /// Enumerate up to `limit` complete equal-cost paths from `src` to
    /// `dst`, in a deterministic DFS order. The cross-layer route
    /// selection of the paper's reference \[7\] picks among exactly these
    /// candidates by max/min available capacity.
    pub fn all_paths(
        &mut self,
        topo: &Topology,
        src: NodeId,
        dst: NodeId,
        limit: usize,
    ) -> Vec<Vec<LinkId>> {
        if src == dst {
            return vec![Vec::new()];
        }
        self.ensure(topo, src);
        let preds = self.preds[src.index()].as_ref().expect("computed");
        let mut out = Vec::new();
        let mut stack: Vec<LinkId> = Vec::new();
        fn dfs(
            preds: &[Vec<LinkId>],
            topo: &Topology,
            src: NodeId,
            node: NodeId,
            stack: &mut Vec<LinkId>,
            out: &mut Vec<Vec<LinkId>>,
            limit: usize,
        ) {
            if out.len() >= limit {
                return;
            }
            if node == src {
                let mut path = stack.clone();
                path.reverse();
                out.push(path);
                return;
            }
            for &l in &preds[node.index()] {
                stack.push(l);
                dfs(preds, topo, src, topo.link(l).src, stack, out, limit);
                stack.pop();
            }
        }
        dfs(preds, topo, src, dst, &mut stack, &mut out, limit);
        out
    }
}

const EPS: f64 = 1e-12;
const SIGN_FIX: u64 = 0x8000_0000_0000_0000;

/// Total-order encoding of a non-negative f64 for the heap key.
fn ordered_float(x: f64) -> u64 {
    debug_assert!(x >= 0.0);
    x.to_bits() ^ SIGN_FIX
}

/// SplitMix64 — a tiny, well-mixed stateless hash (public-domain
/// construction), standing in for a switch's five-tuple hash.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{clos, fat_tree};
    use crate::units::mbps;

    #[test]
    fn tree_topologies_have_single_paths() {
        let tree = crate::builders::ThreeTierConfig {
            racks: 2,
            servers_per_rack: 2,
            racks_per_agg: 2,
            clients: 1,
            ..Default::default()
        }
        .build();
        let mut ecmp = EcmpRoutes::new(&tree.topo);
        let c = ecmp
            .all_paths(&tree.topo, tree.servers[0][0], tree.servers[1][1], 64)
            .len();
        assert_eq!(c, 1, "a tree has exactly one shortest path");
    }

    #[test]
    fn clos_has_multiple_equal_cost_paths() {
        let (topo, servers) = clos(2, 1, 4, 2, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let c = ecmp
            .all_paths(&topo, servers[0][0], servers[1][0], 64)
            .len();
        assert_eq!(c, 4, "one path per aggregation switch");
    }

    #[test]
    fn fat_tree_cross_pod_path_count_is_core_count() {
        // k = 4: (k/2)^2 = 4 cores, each giving one cross-pod path.
        let (topo, pods) = fat_tree(4, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let c = ecmp.all_paths(&topo, pods[0][0], pods[1][0], 64).len();
        assert_eq!(c, 4);
    }

    #[test]
    fn paths_are_valid_and_flow_dependent() {
        let (topo, servers) = clos(2, 2, 4, 2, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let (a, b) = (servers[0][0], servers[1][1]);
        let mut distinct = std::collections::BTreeSet::new();
        for f in 0..64u64 {
            let p = ecmp.path(&topo, a, b, FlowId(f)).expect("reachable");
            // Validity: contiguous, starts at a, ends at b.
            assert_eq!(topo.link(p[0]).src, a);
            assert_eq!(topo.link(*p.last().unwrap()).dst, b);
            for w in p.windows(2) {
                assert_eq!(topo.link(w[0]).dst, topo.link(w[1]).src);
            }
            distinct.insert(p);
        }
        assert!(distinct.len() >= 3, "hashing must spread flows over paths");
    }

    #[test]
    fn same_flow_same_path() {
        let (topo, servers) = clos(2, 1, 4, 2, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let p1 = ecmp
            .path(&topo, servers[0][0], servers[1][0], FlowId(9))
            .unwrap();
        let p2 = ecmp
            .path(&topo, servers[0][0], servers[1][0], FlowId(9))
            .unwrap();
        assert_eq!(p1, p2, "ECMP is per-flow deterministic");
    }

    #[test]
    fn unreachable_is_none() {
        let mut topo = Topology::new();
        let a = topo.add_node(crate::topology::NodeKind::Server);
        let b = topo.add_node(crate::topology::NodeKind::Server);
        let mut ecmp = EcmpRoutes::new(&topo);
        assert_eq!(ecmp.path(&topo, a, b, FlowId(1)), None);
        assert!(ecmp.all_paths(&topo, a, b, 64).is_empty());
        assert_eq!(ecmp.path(&topo, a, a, FlowId(1)), Some(vec![]));
    }

    #[test]
    fn all_paths_enumerates_the_dag() {
        let (topo, servers) = clos(2, 1, 4, 2, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let paths = ecmp.all_paths(&topo, servers[0][0], servers[1][0], 16);
        assert_eq!(paths.len(), 4, "one per aggregation switch");
        // All distinct, all valid.
        let set: std::collections::BTreeSet<_> = paths.iter().cloned().collect();
        assert_eq!(set.len(), 4);
        for p in &paths {
            assert_eq!(topo.link(p[0]).src, servers[0][0]);
            assert_eq!(topo.link(*p.last().unwrap()).dst, servers[1][0]);
        }
        // The limit is honored.
        let two = ecmp.all_paths(&topo, servers[0][0], servers[1][0], 2);
        assert_eq!(two.len(), 2);
    }

    #[test]
    fn hash_spread_is_roughly_uniform() {
        // 256 flows over 4 equal-cost paths: each path gets a fair share.
        let (topo, servers) = clos(2, 1, 4, 2, mbps(100.0), 0.001, 1e6);
        let mut ecmp = EcmpRoutes::new(&topo);
        let mut counts: std::collections::BTreeMap<Vec<LinkId>, usize> = Default::default();
        for f in 0..256u64 {
            let p = ecmp
                .path(&topo, servers[0][0], servers[1][0], FlowId(f))
                .unwrap();
            *counts.entry(p).or_insert(0) += 1;
        }
        for c in counts.values() {
            assert!(*c > 256 / 4 / 3, "a path is starved: {counts:?}");
        }
    }
}
