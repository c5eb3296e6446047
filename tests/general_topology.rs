//! §IX: SCDA on general (non-tree) topologies. The control tree is built
//! from an explicit [`NodeSpec`] list over a VL2-like Clos fabric (RMs and
//! RAs anchored to one routing spanning structure, as the paper's
//! routing-table-driven grouping does), and flows still converge to
//! max-min fairness over the links the specs cover.

use scda::core::rate_metric::LinkSample;
use scda::core::tree::{NodeSpec, RateCaps, Telemetry};
use scda::core::{ControlTree, Direction, MetricKind, Params};
use scda::simnet::builders::clos;
use scda::simnet::units::mbps;
use scda::simnet::{FlowId, LinkId, Network, NodeId, Routes, Topology};
use scda::transport::{AnyTransport, FlowDriver, Reno, TickSummary};

#[test]
fn clos_fabric_routes_all_pairs_and_spreads_flows() {
    let (topo, servers) = clos(4, 2, 2, 2, mbps(100.0), 0.001, 1e6);
    let mut routes = Routes::new();
    for a in servers.iter().flatten() {
        for b in servers.iter().flatten() {
            if a != b {
                assert!(
                    routes.path_handle(&topo, *a, *b).is_some(),
                    "{a} -> {b} unroutable"
                );
            }
        }
    }
}

#[test]
fn tcp_flows_complete_over_the_clos() {
    let (topo, servers) = clos(3, 2, 2, 1, mbps(100.0), 0.002, 500_000.0);
    let mut driver = FlowDriver::new(Network::new(topo));
    for (id, r) in (0..3).enumerate() {
        driver.start_flow(
            FlowId(id as u64),
            servers[r][0],
            servers[(r + 1) % 3][1],
            500_000.0,
            AnyTransport::Tcp(Reno::default()),
            0.0,
        );
    }
    let mut done = 0;
    let mut summary = TickSummary::default();
    let mut now = 0.0;
    while now < 30.0 {
        driver.tick(now, 0.002, &mut summary);
        done += summary.completed.len();
        now += 0.002;
    }
    assert_eq!(done, 3, "all cross-rack flows complete on the Clos");
}

/// Build a control structure over a custom non-three-tier topology: a
/// two-level tree (one root RA, RMs directly under it) anchored on a
/// star topology — the degenerate §IX case of a single shared switch.
fn star_control() -> (Topology, Vec<NodeId>, ControlTree) {
    use scda::simnet::NodeKind;
    let mut topo = Topology::new();
    let hub = topo.add_node(NodeKind::Switch { level: 1 });
    let gw = topo.add_node(NodeKind::Switch { level: 2 });
    let (hub_up, hub_down) = topo.add_duplex(hub, gw, mbps(300.0), 0.001, 1e6);
    let mut servers = Vec::new();
    let mut specs = vec![NodeSpec {
        level: 1,
        parent: None,
        server: None,
        down_link: hub_down,
        up_link: hub_up,
    }];
    for _ in 0..4 {
        let s = topo.add_node(NodeKind::Server);
        let (up, down) = topo.add_duplex(s, hub, mbps(100.0), 0.001, 1e6);
        specs.push(NodeSpec {
            level: 0,
            parent: Some(0),
            server: Some(s),
            down_link: down,
            up_link: up,
        });
        servers.push(s);
    }
    let params = Params {
        alpha: 1.0,
        beta: 0.0,
        min_rate: 1.0,
        ..Default::default()
    };
    let ct = ControlTree::new(params, MetricKind::Full, &specs, |l: LinkId| {
        topo.link(l).capacity_bytes()
    });
    (topo, servers, ct)
}

struct Loads(Vec<f64>);
impl Telemetry for Loads {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        LinkSample {
            flow_rate_sum: self.0[l.index()],
            ..Default::default()
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

#[test]
fn custom_spec_tree_allocates_on_star_topology() {
    let (topo, servers, mut ct) = star_control();
    assert_eq!(ct.hmax(), 1);
    let n_links = topo.link_count();

    // Four greedy uplink flows, one per server, all sharing the 300 Mbps
    // hub uplink: fair share = 75 Mbps each (server links are 100 Mbps).
    let mut rates = [0.0; 4];
    ct.control_round(0.0, &mut Loads(vec![0.0; n_links]));
    for _ in 0..100 {
        let mut loads = vec![0.0; n_links];
        for (j, s) in servers.iter().enumerate() {
            rates[j] = ct.client_rate(*s, Direction::Up).expect("rm exists");
            // Server's own uplink is link 2 + 2j; the hub uplink is 0.
            let path = [LinkId(2 + 2 * j as u32), LinkId(0)];
            for l in path {
                loads[l.index()] += rates[j];
            }
        }
        ct.control_round(0.0, &mut Loads(loads));
    }
    let fair = mbps(300.0) / 8.0 / 4.0;
    for (j, r) in rates.iter().enumerate() {
        assert!(
            (r - fair).abs() < 0.02 * fair,
            "flow {j}: {r} should converge to hub fair share {fair}"
        );
    }
}

#[test]
fn custom_tree_reports_best_server_on_star() {
    let (topo, servers, mut ct) = star_control();
    let n_links = topo.link_count();
    // Load every server downlink except server 2's.
    let mut loads = vec![0.0; n_links];
    for (j, _) in servers.iter().enumerate() {
        if j != 2 {
            loads[3 + 2 * j] = 1e9; // downlinks are 3, 5, 7, 9
        }
    }
    for _ in 0..5 {
        ct.control_round(0.0, &mut Loads(loads.clone()));
    }
    let (best, _) = ct
        .best_server_global(Direction::Down)
        .expect("servers exist");
    assert_eq!(best, servers[2]);
}
