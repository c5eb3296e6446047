//! Substrate validation: the fluid network (which all headline figures run
//! on) against the packet-granularity reference simulator, on identical
//! topologies and workloads. This is the evidence behind DESIGN.md's
//! substitution claim ("packet-level detail only adds constant factors"):
//! completion times agree within tight tolerances across pacing regimes,
//! loads and topologies.

use scda::prelude::*;
use scda::simnet::builders::dumbbell;
use scda::simnet::packet::{simulate_packets, PacketFlow, SourceModel};
use scda::simnet::units::mbps;
use scda::simnet::{FlowId, Network, NodeId};
use scda::transport::{AnyTransport, FlowDriver, ScdaWindow, TickSummary};

/// Run one explicit-rate flow through the fluid model; return its FCT.
fn fluid_fct(topo: scda::simnet::Topology, src: NodeId, dst: NodeId, size: f64, rate: f64) -> f64 {
    let mut d = FlowDriver::new(Network::new(topo));
    let rtt = d.net_mut().base_rtt_between(src, dst).expect("connected");
    d.start_flow(
        FlowId(1),
        src,
        dst,
        size,
        AnyTransport::Scda(ScdaWindow::new(rate, rate, rtt)),
        0.0,
    );
    let dt = 0.001;
    let mut summary = TickSummary::default();
    let mut now = 0.0;
    while now < 120.0 {
        d.tick(now, dt, &mut summary);
        if let Some(c) = summary.completed.first() {
            return c.fct();
        }
        now += dt;
    }
    panic!("fluid flow did not finish");
}

#[test]
fn paced_flow_fcts_agree_across_rates() {
    for rate in [1e6, 4e6, 9e6] {
        let size = 3e6;
        let (topo, s, r, _) = dumbbell(1, mbps(80.0), 0.001, 1e9);
        let packet = simulate_packets(
            &topo,
            &[PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: size,
                source: SourceModel::Paced { rate },
                start: 0.0,
            }],
            120.0,
        )
        .flows[0]
            .finish
            .expect("completes");
        let (topo, s, r, _) = dumbbell(1, mbps(80.0), 0.001, 1e9);
        let fluid = fluid_fct(topo, s[0], r[0], size, rate);
        let err = (packet - fluid).abs() / packet;
        assert!(
            err < 0.06,
            "rate {rate}: packet {packet:.4}s vs fluid {fluid:.4}s ({:.1}% apart)",
            100.0 * err
        );
    }
}

#[test]
fn fluid_matches_packets_across_topology_depth() {
    // Same check on the three-tier tree: client -> deep server, one
    // explicit-rate flow at half the path rate.
    let cfg = ThreeTierConfig {
        racks: 2,
        servers_per_rack: 2,
        racks_per_agg: 2,
        clients: 1,
        ..Default::default()
    };
    let rate = 30e6; // bytes/s, under the 62.5 MB/s links
    let size = 20e6;
    let tree = cfg.build();
    let (src, dst) = (tree.clients[0], tree.servers[1][1]);
    let packet = simulate_packets(
        &tree.topo,
        &[PacketFlow {
            src,
            dst,
            size_bytes: size,
            source: SourceModel::Paced { rate },
            start: 0.0,
        }],
        120.0,
    )
    .flows[0]
        .finish
        .expect("completes");
    let tree2 = cfg.build();
    let fluid = fluid_fct(tree2.topo, src, dst, size, rate);
    let err = (packet - fluid).abs() / packet;
    assert!(
        err < 0.06,
        "deep path: packet {packet:.4}s vs fluid {fluid:.4}s ({:.1}% apart)",
        100.0 * err
    );
}

#[test]
fn contended_link_serves_both_models_equally() {
    // Two explicit-rate flows jointly saturating a bottleneck: aggregate
    // completion behavior must agree (per-flow shares are equal by
    // construction in both models).
    let size = 2e6;
    let rate = 5e6; // 2 x 5 = 10 MB/s = exactly the bottleneck
    let (topo, s, r, _) = dumbbell(2, mbps(80.0), 0.001, 1e9);
    let res = simulate_packets(
        &topo,
        &[
            PacketFlow {
                src: s[0],
                dst: r[0],
                size_bytes: size,
                source: SourceModel::Paced { rate },
                start: 0.0,
            },
            PacketFlow {
                src: s[1],
                dst: r[1],
                size_bytes: size,
                source: SourceModel::Paced { rate },
                start: 0.0,
            },
        ],
        120.0,
    );
    let p0 = res.flows[0].finish.expect("completes");
    let p1 = res.flows[1].finish.expect("completes");

    let (topo, s, r, _) = dumbbell(2, mbps(80.0), 0.001, 1e9);
    let mut d = FlowDriver::new(Network::new(topo));
    for i in 0..2 {
        let rtt = d.net_mut().base_rtt_between(s[i], r[i]).expect("connected");
        d.start_flow(
            FlowId(i as u64),
            s[i],
            r[i],
            size,
            AnyTransport::Scda(ScdaWindow::new(rate, rate, rtt)),
            0.0,
        );
    }
    let mut fluid_fcts = Vec::new();
    let mut summary = TickSummary::default();
    let mut now = 0.0;
    while now < 120.0 && fluid_fcts.len() < 2 {
        d.tick(now, 0.001, &mut summary);
        fluid_fcts.extend(summary.completed.iter().map(|c| c.fct()));
        now += 0.001;
    }
    assert_eq!(fluid_fcts.len(), 2);
    for (p, f) in [p0, p1].iter().zip(&fluid_fcts) {
        let err = (p - f).abs() / p;
        assert!(
            err < 0.08,
            "packet {p:.4} vs fluid {f:.4} ({:.1}% apart)",
            100.0 * err
        );
    }
}

#[test]
fn window_pacing_agrees_between_models() {
    // A pipe-limited window flow: both models must land on W/RTT pacing.
    let size = 2e6;
    let window_pkts = 16u32;
    let (topo, s, r, _) = dumbbell(1, mbps(800.0), 0.01, 1e9);
    let packet = simulate_packets(
        &topo,
        &[PacketFlow {
            src: s[0],
            dst: r[0],
            size_bytes: size,
            source: SourceModel::Window {
                packets: window_pkts,
            },
            start: 0.0,
        }],
        120.0,
    )
    .flows[0]
        .finish
        .expect("completes");

    // Fluid equivalent: explicit rate = W·MSS/RTT.
    let (topo, s, r, _) = dumbbell(1, mbps(800.0), 0.01, 1e9);
    let rtt = 2.0 * 0.012;
    let rate = window_pkts as f64 * scda::simnet::units::MSS / rtt;
    let fluid = fluid_fct(topo, s[0], r[0], size, rate);
    let err = (packet - fluid).abs() / packet;
    assert!(
        err < 0.12,
        "window: packet {packet:.4}s vs fluid {fluid:.4}s ({:.1}% apart)",
        100.0 * err
    );
}
