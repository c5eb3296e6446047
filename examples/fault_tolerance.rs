//! Fault tolerance walkthrough: a rack uplink fails mid-run, the RM/RA
//! tree detects the SLA violation within one control interval, the
//! mitigation ladder responds, and traffic is reassigned to healthy
//! servers (§IV-A: reserve links, reassignment, escalation).
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use scda::core::rate_metric::LinkSample;
use scda::core::sla::SlaPolicy;
use scda::core::tree::{RateCaps, Telemetry};
use scda::prelude::*;
use scda::simnet::{FlowId, LinkId, Network, NodeId};
use scda::transport::{AnyTransport, FlowDriver, ScdaWindow, TickSummary, Transport};

/// Telemetry over the live network + current per-link flow loads.
struct Live<'a> {
    net: &'a mut Network,
    loads: &'a [f64],
    tau: f64,
}
impl Telemetry for Live<'_> {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        LinkSample {
            queue_bytes: self.net.link_state(l).queue_bytes(),
            flow_rate_sum: self.loads[l.index()],
            arrival_rate: self.net.take_arrived(l) / self.tau,
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

fn main() {
    let tree = ThreeTierConfig {
        racks: 2,
        servers_per_rack: 3,
        racks_per_agg: 2,
        clients: 2,
        ..Default::default()
    }
    .build();
    let tau = 0.05;
    let dt = 0.005;
    let params = scda::core::Params {
        tau,
        drain_horizon: tau,
        ..Default::default()
    };
    let mut ct = ControlTree::from_three_tier(&tree, params, MetricKind::Full);
    let mut monitor = SlaMonitor::new(SlaPolicy::default());
    let (rack0_up, _) = tree.edge_links[0];
    let victim_server = tree.servers[0][0];
    let reader = tree.clients[0];
    let mut driver = FlowDriver::new(Network::new(tree.topo));
    let n_links = driver.net().topo().link_count();
    let mut summary = TickSummary::default();

    // A long read from a rack-0 server toward a client.
    let x = 500e6 / 8.0;
    driver.start_flow(
        FlowId(1),
        victim_server,
        reader,
        1e12, // effectively endless
        AnyTransport::Scda(ScdaWindow::new(0.9 * x, 0.9 * x, 0.14)),
        0.0,
    );

    let mut now = 0.0;
    let mut next_ctrl = tau;
    let mut failed = false;
    let mut detected_at = None;
    let mut loads = vec![0.0_f64; n_links];
    println!("t=0.00s  flow 1 reading from {victim_server} at 90% of X");
    while now < 3.0 {
        if now >= 1.0 && !failed {
            driver.net_mut().fail_link(rack0_up);
            // The rack's RA sees the port go down on its local switch and
            // updates its allocator's capacity (the RMs/RAs are colocated
            // with the switches precisely so they see such state).
            ct.set_link_capacity(rack0_up, scda::simnet::faults::FAILED_CAPACITY_BPS / 8.0);
            failed = true;
            println!("t={now:.2}s  !! rack-0 uplink {rack0_up} fails");
        }
        if now + 1e-12 >= next_ctrl {
            next_ctrl += tau;
            loads.iter_mut().for_each(|l| *l = 0.0);
            for (id, _, _) in driver.active_flows() {
                let rtt = driver.net().rtt(id);
                let rate = driver.transport(id).expect("active").offered_rate(rtt);
                for &l in driver.net().flow(id).path() {
                    loads[l.index()] += rate;
                }
            }
            let violations = {
                let mut tel = Live {
                    net: driver.net_mut(),
                    loads: &loads,
                    tau,
                };
                ct.control_round(now, &mut tel)
            };
            for v in &violations {
                let action = monitor.ingest(*v);
                if detected_at.is_none() {
                    detected_at = Some(now);
                    println!(
                        "t={now:.2}s  RM/RA detected the violation on {} (demand {:.1} MB/s over a {:.1} MB/s capacity term) -> {action:?}",
                        v.site.link,
                        v.demand / 1e6,
                        v.capacity_term / 1e6
                    );
                }
            }
            // Refresh the victim flow's allocation — the collapsed link
            // rate throttles it within one τ.
            let rate = ct
                .client_rate(victim_server, Direction::Up)
                .expect("server exists");
            if let Some(AnyTransport::Scda(w)) = driver.transport_mut(FlowId(1)) {
                w.set_rates(rate, rate);
            }
        }
        driver.tick(now, dt, &mut summary);
        now += dt;
    }

    let detect_latency = detected_at.expect("violation detected") - 1.0;
    println!(
        "\ndetection latency: {:.0} ms after the failure (tau = {:.0} ms — the paper's 'realtime, milliseconds interval' claim)",
        detect_latency * 1e3,
        tau * 1e3
    );

    // NNS reassignment: the selector now sends reads for rack-0 content to
    // the replica in rack 1.
    let mut metrics = Vec::new();
    ct.server_metrics_into(&mut metrics);
    let cfg = SelectorConfig {
        r_scale: f64::INFINITY,
        power_aware: false,
    };
    let sel = Selector::new(&metrics, None, &cfg);
    let replicas = NodeSet::from_iter([victim_server, tree.servers[1][0]]);
    let (source, rate) = sel.read_source(&replicas).expect("replicas exist");
    println!(
        "read reassignment: {} of the two replicas now serves (available uplink {:.1} MB/s)",
        source,
        rate / 1e6
    );
    assert_eq!(source, tree.servers[1][0], "healthy replica must win");

    // Restoration brings the rack back within a few control intervals
    // (the RA sees the port come back just as it saw it go down).
    driver.net_mut().restore_link(rack0_up);
    ct.set_link_capacity(rack0_up, x);
    for i in 0..10 {
        loads.iter_mut().for_each(|l| *l = 0.0);
        let mut tel = Live {
            net: driver.net_mut(),
            loads: &loads,
            tau,
        };
        ct.control_round(3.0 + i as f64 * tau, &mut tel);
    }
    let recovered = ct
        .client_rate(victim_server, Direction::Up)
        .expect("server exists");
    println!(
        "after restore: {} advertises {:.1}% of X again",
        victim_server,
        100.0 * recovered / x
    );
}
