//! Topology builders.
//!
//! [`ThreeTierConfig::build`] constructs the paper's figure-6 experimental
//! topology: a three-tier tree of Ethernet switches (core = level 3 = the
//! cloud entry point, aggregation = level 2, edge/top-of-rack = level 1)
//! with `n` block servers per rack at level 0, plus external clients
//! reaching the cloud over 50 ms WAN links through a client-side gateway
//! switch joined to the core by a `6X` trunk. The paper's *bandwidth
//! factor* `K` multiplies the aggregation-to-core links ("some links in the
//! right side of the topology"), which is what distinguishes the K = 1 and
//! K = 3 experiments of §X.
//!
//! Two further builders support tests and the §IX general-topology
//! extension: [`dumbbell`] (n senders, n receivers, one shared bottleneck)
//! and [`clos`] (a VL2-like multi-rooted Clos where edge switches have
//! multiple uplinks, i.e. routing is no longer a tree).

use serde::{Deserialize, Serialize};

use crate::ids::{LinkId, NodeId};
use crate::topology::{NodeKind, Topology};
use crate::units::{mbps, MS};

/// Parameters of the figure-6 three-tier tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ThreeTierConfig {
    /// Number of racks (the paper draws 163; experiments scale this down
    /// the same way the paper scales YouTube arrivals to 20 servers).
    pub racks: usize,
    /// Servers per rack (`n` in figure 6; the paper uses 10 and 100).
    pub servers_per_rack: usize,
    /// Racks attached to each aggregation switch.
    pub racks_per_agg: usize,
    /// Number of external clients (`k` in figure 6).
    pub clients: usize,
    /// Base bandwidth `X` in bits/s (paper: 200 or 500 Mbps).
    pub base_bw_bps: f64,
    /// Bandwidth factor `K` applied to aggregation-to-core links
    /// (paper: 1 or 3, with K < 6).
    pub k_factor: f64,
    /// Trunk multiplier between the client gateway and the core (paper: 6).
    pub trunk_mult: f64,
    /// Propagation delay of every in-datacenter link (paper: 10 ms).
    pub switch_delay_s: f64,
    /// Propagation delay of client WAN links (paper: 50 ms).
    pub client_delay_s: f64,
    /// FIFO queue capacity per link, in bytes.
    pub queue_cap_bytes: f64,
}

impl Default for ThreeTierConfig {
    /// The scaled-down default used throughout the reproduction: 20 racks
    /// of 10 servers (matching the paper's own scaling of YouTube arrivals
    /// to 20 servers), `X` = 500 Mbps, `K` = 3.
    fn default() -> Self {
        ThreeTierConfig {
            racks: 20,
            servers_per_rack: 10,
            racks_per_agg: 5,
            clients: 16,
            base_bw_bps: mbps(500.0),
            k_factor: 3.0,
            trunk_mult: 6.0,
            switch_delay_s: 10.0 * MS,
            client_delay_s: 50.0 * MS,
            queue_cap_bytes: 1_000_000.0,
        }
    }
}

/// The built tree plus an index of every id the control plane needs.
///
/// Link pairs are stored as `(up, down)` where *up* carries traffic toward
/// the core and *down* away from it — matching the paper's uplink/downlink
/// rate split.
#[derive(Debug, Clone)]
pub struct ThreeTierTree {
    /// The underlying graph.
    pub topo: Topology,
    /// Core switch (level `h_max` = 3, the cloud entry point).
    pub core: NodeId,
    /// Client-side gateway switch (outside the cloud tree).
    pub client_gw: NodeId,
    /// Aggregation switches (level 2).
    pub aggs: Vec<NodeId>,
    /// Edge/top-of-rack switches (level 1), one per rack.
    pub edges: Vec<NodeId>,
    /// Servers grouped by rack (level 0).
    pub servers: Vec<Vec<NodeId>>,
    /// External clients.
    pub clients: Vec<NodeId>,
    /// Per-server `(up, down)` links (server <-> its edge switch), indexed
    /// `[rack][server_in_rack]`.
    pub server_links: Vec<Vec<(LinkId, LinkId)>>,
    /// Per-rack `(up, down)` links (edge <-> its aggregation switch).
    pub edge_links: Vec<(LinkId, LinkId)>,
    /// Per-agg `(up, down)` links (agg <-> core), capacity `K * X`.
    pub agg_links: Vec<(LinkId, LinkId)>,
    /// `(toward_core, toward_clients)` trunk between gateway and core.
    pub trunk: (LinkId, LinkId),
    /// Per-client `(toward_cloud, toward_client)` WAN links.
    pub client_links: Vec<(LinkId, LinkId)>,
    /// Aggregation switch index for each rack.
    pub agg_of_rack: Vec<usize>,
}

impl ThreeTierTree {
    /// Flat list of all server ids, rack-major (deterministic order).
    pub fn all_servers(&self) -> Vec<NodeId> {
        self.servers.iter().flatten().copied().collect()
    }

    /// The rack index of `server`, or `None` if it is not a server.
    pub fn rack_of(&self, server: NodeId) -> Option<usize> {
        self.servers.iter().position(|rack| rack.contains(&server))
    }
}

impl ThreeTierConfig {
    /// Construct the tree.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero or `racks_per_agg` is zero.
    pub fn build(&self) -> ThreeTierTree {
        assert!(self.racks > 0 && self.servers_per_rack > 0 && self.racks_per_agg > 0);
        assert!(self.clients > 0, "at least one client required");
        let n_aggs = self.racks.div_ceil(self.racks_per_agg);
        // Core, gateway, aggregations, racks of an edge plus its servers,
        // clients; every one of them but the core has one cable up.
        let nodes = 2 + n_aggs + self.racks * (1 + self.servers_per_rack) + self.clients;
        let mut topo = Topology::with_capacity(nodes, 2 * (nodes - 1));
        let x = self.base_bw_bps;
        let q = self.queue_cap_bytes;

        let core = topo.add_node(NodeKind::Switch { level: 3 });
        let client_gw = topo.add_node(NodeKind::Switch { level: 4 });
        // Trunk: 6X both ways (figure 6 labels it "6X Gbps").
        let gw_to_core =
            topo.add_link(client_gw, core, self.trunk_mult * x, self.switch_delay_s, q);
        let core_to_gw =
            topo.add_link(core, client_gw, self.trunk_mult * x, self.switch_delay_s, q);

        let mut aggs = Vec::with_capacity(n_aggs);
        let mut agg_links = Vec::with_capacity(n_aggs);
        for _ in 0..n_aggs {
            let agg = topo.add_node(NodeKind::Switch { level: 2 });
            let up = topo.add_link(agg, core, self.k_factor * x, self.switch_delay_s, q);
            let down = topo.add_link(core, agg, self.k_factor * x, self.switch_delay_s, q);
            aggs.push(agg);
            agg_links.push((up, down));
        }

        let mut edges = Vec::with_capacity(self.racks);
        let mut edge_links = Vec::with_capacity(self.racks);
        let mut servers = Vec::with_capacity(self.racks);
        let mut server_links = Vec::with_capacity(self.racks);
        let mut agg_of_rack = Vec::with_capacity(self.racks);
        for r in 0..self.racks {
            let a = r / self.racks_per_agg;
            let edge = topo.add_node(NodeKind::Switch { level: 1 });
            let up = topo.add_link(edge, aggs[a], x, self.switch_delay_s, q);
            let down = topo.add_link(aggs[a], edge, x, self.switch_delay_s, q);
            edges.push(edge);
            edge_links.push((up, down));
            agg_of_rack.push(a);

            let mut rack_servers = Vec::with_capacity(self.servers_per_rack);
            let mut rack_links = Vec::with_capacity(self.servers_per_rack);
            for _ in 0..self.servers_per_rack {
                let srv = topo.add_node(NodeKind::Server);
                let sup = topo.add_link(srv, edge, x, self.switch_delay_s, q);
                let sdown = topo.add_link(edge, srv, x, self.switch_delay_s, q);
                rack_servers.push(srv);
                rack_links.push((sup, sdown));
            }
            servers.push(rack_servers);
            server_links.push(rack_links);
        }

        let mut clients = Vec::with_capacity(self.clients);
        let mut client_links = Vec::with_capacity(self.clients);
        for _ in 0..self.clients {
            let ucl = topo.add_node(NodeKind::Client);
            let up = topo.add_link(ucl, client_gw, x, self.client_delay_s, q);
            let down = topo.add_link(client_gw, ucl, x, self.client_delay_s, q);
            clients.push(ucl);
            client_links.push((up, down));
        }

        ThreeTierTree {
            topo,
            core,
            client_gw,
            aggs,
            edges,
            servers,
            clients,
            server_links,
            edge_links,
            agg_links,
            trunk: (gw_to_core, core_to_gw),
            client_links,
            agg_of_rack,
        }
    }
}

/// A dumbbell: `n` senders and `n` receivers joined by one bottleneck link
/// of capacity `bottleneck_bps`; access links are 10x the bottleneck so the
/// shared link is the only constraint. Returns
/// `(topology, senders, receivers, (bottleneck_fwd, bottleneck_rev))`.
pub fn dumbbell(
    n: usize,
    bottleneck_bps: f64,
    delay_s: f64,
    queue_cap_bytes: f64,
) -> (Topology, Vec<NodeId>, Vec<NodeId>, (LinkId, LinkId)) {
    let mut topo = Topology::with_capacity(2 + 2 * n, 2 + 4 * n);
    let left = topo.add_node(NodeKind::Switch { level: 1 });
    let right = topo.add_node(NodeKind::Switch { level: 1 });
    let fwd = topo.add_link(left, right, bottleneck_bps, delay_s, queue_cap_bytes);
    let rev = topo.add_link(right, left, bottleneck_bps, delay_s, queue_cap_bytes);
    let mut senders = Vec::with_capacity(n);
    let mut receivers = Vec::with_capacity(n);
    for _ in 0..n {
        let s = topo.add_node(NodeKind::Server);
        let r = topo.add_node(NodeKind::Server);
        topo.add_duplex(
            s,
            left,
            10.0 * bottleneck_bps,
            delay_s / 10.0,
            queue_cap_bytes,
        );
        topo.add_duplex(
            right,
            r,
            10.0 * bottleneck_bps,
            delay_s / 10.0,
            queue_cap_bytes,
        );
        senders.push(s);
        receivers.push(r);
    }
    (topo, senders, receivers, (fwd, rev))
}

/// A small VL2-like multi-rooted Clos (the §IX "general topology"): every
/// edge switch uplinks to *every* aggregation switch, and every aggregation
/// switch to every core switch, so paths are no longer unique. Server links
/// run at `base_bw_bps` bits/s with `delay_s` seconds of per-hop propagation
/// delay and `queue_cap_bytes` bytes of queue; switch tiers scale the
/// bandwidth up. Returns the topology and the server ids grouped by rack.
pub fn clos(
    racks: usize,
    servers_per_rack: usize,
    n_aggs: usize,
    n_cores: usize,
    base_bw_bps: f64,
    delay_s: f64,
    queue_cap_bytes: f64,
) -> (Topology, Vec<Vec<NodeId>>) {
    assert!(racks > 0 && servers_per_rack > 0 && n_aggs > 0 && n_cores > 0);
    let mut topo = Topology::with_capacity(
        n_cores + n_aggs + racks * (1 + servers_per_rack),
        2 * (n_aggs * n_cores + racks * (n_aggs + servers_per_rack)),
    );
    let cores: Vec<NodeId> = (0..n_cores)
        .map(|_| topo.add_node(NodeKind::Switch { level: 3 }))
        .collect();
    let aggs: Vec<NodeId> = (0..n_aggs)
        .map(|_| topo.add_node(NodeKind::Switch { level: 2 }))
        .collect();
    for &a in &aggs {
        for &c in &cores {
            topo.add_duplex(a, c, base_bw_bps, delay_s, queue_cap_bytes);
        }
    }
    let mut servers = Vec::with_capacity(racks);
    for _ in 0..racks {
        let edge = topo.add_node(NodeKind::Switch { level: 1 });
        for &a in &aggs {
            topo.add_duplex(edge, a, base_bw_bps, delay_s, queue_cap_bytes);
        }
        let mut rack = Vec::with_capacity(servers_per_rack);
        for _ in 0..servers_per_rack {
            let srv = topo.add_node(NodeKind::Server);
            topo.add_duplex(srv, edge, base_bw_bps, delay_s, queue_cap_bytes);
            rack.push(srv);
        }
        servers.push(rack);
    }
    (topo, servers)
}

/// A k-ary fat-tree (Al-Fares et al., SIGCOMM'08 — the paper's reference
/// \[1\]): `k` pods, each with `k/2` edge and `k/2` aggregation switches,
/// `(k/2)²` core switches, and `k/2` servers per edge switch, every link at
/// `base_bw_bps`. `k` must be even and ≥ 2. Returns the topology and the
/// servers grouped by pod.
pub fn fat_tree(
    k: usize,
    base_bw_bps: f64,
    delay_s: f64,
    queue_cap_bytes: f64,
) -> (Topology, Vec<Vec<NodeId>>) {
    assert!(
        k >= 2 && k.is_multiple_of(2),
        "fat-tree requires even k >= 2"
    );
    let half = k / 2;
    // Per pod: `half` aggregations and `half` edges with `half` servers
    // each; each of the pod's three tiers has `half²` cables up.
    let mut topo = Topology::with_capacity(
        half * half + k * (2 * half + half * half),
        6 * k * half * half,
    );
    let cores: Vec<NodeId> = (0..half * half)
        .map(|_| topo.add_node(NodeKind::Switch { level: 3 }))
        .collect();
    let mut pods = Vec::with_capacity(k);
    for _ in 0..k {
        let aggs: Vec<NodeId> = (0..half)
            .map(|_| topo.add_node(NodeKind::Switch { level: 2 }))
            .collect();
        // Agg j connects to cores j*half .. (j+1)*half.
        for (j, &agg) in aggs.iter().enumerate() {
            for c in 0..half {
                topo.add_duplex(
                    agg,
                    cores[j * half + c],
                    base_bw_bps,
                    delay_s,
                    queue_cap_bytes,
                );
            }
        }
        let mut pod_servers = Vec::with_capacity(half * half);
        for _ in 0..half {
            let edge = topo.add_node(NodeKind::Switch { level: 1 });
            for &agg in &aggs {
                topo.add_duplex(edge, agg, base_bw_bps, delay_s, queue_cap_bytes);
            }
            for _ in 0..half {
                let srv = topo.add_node(NodeKind::Server);
                topo.add_duplex(srv, edge, base_bw_bps, delay_s, queue_cap_bytes);
                pod_servers.push(srv);
            }
        }
        pods.push(pod_servers);
    }
    (topo, pods)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::Routes;

    #[test]
    fn fat_tree_dimensions() {
        let (topo, pods) = fat_tree(4, mbps(100.0), 0.001, 1e6);
        assert_eq!(pods.len(), 4);
        // k = 4: 4 cores, 4 pods x (2 agg + 2 edge + 4 servers).
        assert_eq!(pods.iter().map(Vec::len).sum::<usize>(), 16);
        assert_eq!(topo.switches_at(3).count(), 4);
        assert_eq!(topo.switches_at(2).count(), 8);
        assert_eq!(topo.switches_at(1).count(), 8);
        assert_eq!(topo.servers().count(), 16);
    }

    #[test]
    fn fat_tree_full_bisection_paths() {
        let (topo, pods) = fat_tree(4, mbps(100.0), 0.001, 1e6);
        let mut routes = Routes::new();
        // Cross-pod path: server -> edge -> agg -> core -> agg -> edge ->
        // server = 6 links.
        let id = routes.path_handle(&topo, pods[0][0], pods[3][3]).unwrap();
        assert_eq!(routes.path_of(id).len(), 6);
        // Same-edge path: 2 links.
        let id = routes.path_handle(&topo, pods[0][0], pods[0][1]).unwrap();
        assert_eq!(routes.path_of(id).len(), 2);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn fat_tree_odd_k_rejected() {
        fat_tree(3, 1.0, 0.0, 0.0);
    }

    #[test]
    fn default_tree_dimensions() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        assert_eq!(tree.edges.len(), 20);
        assert_eq!(tree.aggs.len(), 4);
        assert_eq!(tree.all_servers().len(), 200);
        assert_eq!(tree.clients.len(), 16);
        // nodes: core + gw + 4 agg + 20 edge + 200 servers + 16 clients
        assert_eq!(tree.topo.node_count(), 1 + 1 + 4 + 20 + 200 + 16);
    }

    #[test]
    fn k_factor_scales_agg_core_links() {
        let cfg = ThreeTierConfig {
            k_factor: 3.0,
            ..Default::default()
        };
        let tree = cfg.build();
        for &(up, down) in &tree.agg_links {
            assert_eq!(tree.topo.link(up).capacity_bps, 3.0 * cfg.base_bw_bps);
            assert_eq!(tree.topo.link(down).capacity_bps, 3.0 * cfg.base_bw_bps);
        }
        for &(up, _) in &tree.edge_links {
            assert_eq!(tree.topo.link(up).capacity_bps, cfg.base_bw_bps);
        }
    }

    #[test]
    fn trunk_is_six_x() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        assert_eq!(
            tree.topo.link(tree.trunk.0).capacity_bps,
            6.0 * cfg.base_bw_bps
        );
    }

    #[test]
    fn client_links_have_wan_delay() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        for &(up, down) in &tree.client_links {
            assert_eq!(tree.topo.link(up).delay_s, cfg.client_delay_s);
            assert_eq!(tree.topo.link(down).delay_s, cfg.client_delay_s);
        }
    }

    #[test]
    fn client_to_server_path_descends_the_tree() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        let mut routes = Routes::new();
        let client = tree.clients[0];
        let server = tree.servers[7][3];
        let id = routes.path_handle(&tree.topo, client, server).unwrap();
        let p = routes.path_of(id);
        // client -> gw -> core -> agg -> edge -> server = 5 links
        assert_eq!(p.len(), 5);
        assert_eq!(tree.topo.link(p[0]).src, client);
        assert_eq!(tree.topo.link(p[4]).dst, server);
    }

    #[test]
    fn same_rack_path_stays_in_rack() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        let mut routes = Routes::new();
        let a = tree.servers[2][0];
        let b = tree.servers[2][5];
        let id = routes.path_handle(&tree.topo, a, b).unwrap();
        assert_eq!(routes.path_of(id).len(), 2, "server -> edge -> server");
    }

    #[test]
    fn cross_rack_same_agg_path() {
        let cfg = ThreeTierConfig::default();
        let tree = cfg.build();
        let mut routes = Routes::new();
        // racks 0 and 1 share agg 0 under racks_per_agg = 5.
        let a = tree.servers[0][0];
        let b = tree.servers[1][0];
        let id = routes.path_handle(&tree.topo, a, b).unwrap();
        assert_eq!(
            routes.path_of(id).len(),
            4,
            "server -> edge -> agg -> edge -> server"
        );
    }

    #[test]
    fn rack_of_finds_rack() {
        let tree = ThreeTierConfig::default().build();
        assert_eq!(tree.rack_of(tree.servers[4][2]), Some(4));
        assert_eq!(tree.rack_of(tree.clients[0]), None);
    }

    #[test]
    fn dumbbell_routes_through_bottleneck() {
        let (topo, snd, rcv, (fwd, _)) = dumbbell(4, mbps(100.0), 0.001, 1e6);
        let mut routes = Routes::new();
        for (s, r) in snd.iter().zip(&rcv) {
            let id = routes.path_handle(&topo, *s, *r).unwrap();
            assert!(
                routes.path_of(id).contains(&fwd),
                "every pair crosses the bottleneck"
            );
        }
    }

    #[test]
    fn clos_has_multipath_fabric() {
        let (topo, servers) = clos(4, 2, 2, 2, mbps(100.0), 0.001, 1e6);
        assert_eq!(servers.len(), 4);
        // Edge switches have uplinks to both aggs: out-degree of an edge
        // switch is 2 (aggs) + servers_per_rack.
        let edge = topo.switches_at(1).next().unwrap();
        assert_eq!(topo.out_links(edge).count(), 2 + 2);
        // All pairs are connected.
        let mut routes = Routes::new();
        assert!(routes
            .path_handle(&topo, servers[0][0], servers[3][1])
            .is_some());
    }

    #[test]
    #[should_panic]
    fn zero_racks_rejected() {
        let cfg = ThreeTierConfig {
            racks: 0,
            ..Default::default()
        };
        cfg.build();
    }
}
