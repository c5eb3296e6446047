//! Cross-crate property tests: system invariants that must survive
//! arbitrary (but bounded) inputs, not just the curated scenarios.

use proptest::prelude::*;

use scda::core::rate_metric::LinkSample;
use scda::core::testing::Selector;
use scda::core::tree::{RateCaps, Telemetry};
use scda::core::{ControlTree, Direction, MetricKind, Params};
use scda::prelude::*;
use scda::simnet::builders::dumbbell;
use scda::simnet::units::{mbps, MSS};
use scda::simnet::{FlowId, LinkId, Network, NodeId, TickReport};
use scda::transport::{Reno, Transport};

/// Telemetry replaying a fixed per-link (queue, load) table.
struct TableTelemetry {
    queue: Vec<f64>,
    load: Vec<f64>,
}
impl Telemetry for TableTelemetry {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        let i = l.index() % self.queue.len();
        LinkSample {
            queue_bytes: self.queue[i],
            flow_rate_sum: self.load[i],
            arrival_rate: self.load[i],
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The control tree never produces NaN/negative/over-capacity rates,
    /// and the per-level Ř stays monotone, whatever the telemetry says.
    #[test]
    fn control_tree_invariants_under_arbitrary_telemetry(
        queue in proptest::collection::vec(0.0f64..5e6, 8),
        load in proptest::collection::vec(0.0f64..1e10, 8),
        rounds in 1usize..6,
        metric in prop_oneof![Just(MetricKind::Full), Just(MetricKind::Simplified)],
    ) {
        let tree = ThreeTierConfig {
            racks: 3, servers_per_rack: 2, racks_per_agg: 2, clients: 2,
            ..Default::default()
        }.build();
        let x_bytes = tree.topo.link(tree.server_links[0][0].0).capacity_bytes();
        let mut ct = ControlTree::from_three_tier(&tree, Params::default(), metric);
        let mut tel = TableTelemetry { queue, load };
        for _ in 0..rounds {
            let violations = ct.control_round(0.0, &mut tel);
            // Violations are self-consistent.
            for v in &violations {
                prop_assert!(v.demand > v.capacity_term);
                prop_assert!(v.shortfall() > 0.0);
            }
        }
        let mut metrics = Vec::new();
        ct.server_metrics_into(&mut metrics);
        for m in metrics {
            for r in [m.r0_down, m.r0_up, m.path_down, m.path_up] {
                prop_assert!(r.is_finite() && r >= 0.0);
                prop_assert!(r <= 6.0 * x_bytes + 1e-6, "rate {r} above any link");
            }
            prop_assert!(m.path_down <= m.r0_down + 1e-9, "path is a min over more links");
            prop_assert!(m.path_up <= m.r0_up + 1e-9);
            let mut prev = f64::INFINITY;
            for h in 0..=ct.hmax() {
                let r = ct.rate_to_level(m.server, h, Direction::Up).expect("level rate");
                prop_assert!(r <= prev + 1e-9, "Ř must be non-increasing in level");
                prev = r;
            }
        }
        // A best server always exists and is a real server.
        let (bs, rate) = ct.best_server_at(ct.root(), Direction::Down).expect("non-empty tree");
        prop_assert!(tree.all_servers().contains(&bs));
        prop_assert!(rate >= 0.0);
    }

    /// TCP Reno stays within [1 MSS, max_cwnd] and never NaN under
    /// arbitrary ack/loss sequences.
    #[test]
    fn reno_window_bounded_under_arbitrary_feedback(
        events in proptest::collection::vec(
            (0.0f64..1e7, 0.0f64..1.0f64, 1e-3f64..1.0), 1..200),
    ) {
        let mut t = Reno::default();
        let mut now = 0.0;
        for (acked, loss, rtt) in events {
            now += rtt / 4.0;
            let offered = acked.max(1.0) / (1.0 - loss).max(1e-3);
            t.on_tick(now, acked, offered, loss, rtt);
            prop_assert!(t.cwnd().is_finite());
            prop_assert!(t.cwnd() >= MSS - 1e-9, "cwnd {} under 1 MSS", t.cwnd());
            prop_assert!(t.cwnd() <= 2_000_000.0 + 1e-6);
            prop_assert!(t.offered_rate(rtt) >= 0.0);
        }
    }

    /// Network ticks never deliver more than was offered, never exceed
    /// capacity in aggregate at steady state, and keep RTT ≥ base RTT.
    #[test]
    fn network_tick_invariants(
        rates in proptest::collection::vec(0.0f64..5e7, 1..6),
        dt in 1e-4f64..0.05,
        ticks in 1usize..30,
    ) {
        let n = rates.len();
        let (topo, s, r, _) = dumbbell(n, mbps(80.0), 0.001, 200_000.0);
        let mut net = Network::new(topo);
        let offered: Vec<(u32, f64)> = rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| (net.insert_flow(FlowId(i as u64), s[i], r[i]).slot(), rate))
            .collect();
        let base: Vec<f64> = offered.iter().map(|&(slot, _)| net.rtt_of_slot(slot)).collect();
        let mut rep = TickReport::default();
        for _ in 0..ticks {
            net.advance_slots_into(dt, &offered, &mut rep);
            for (ft, &(_, rate)) in rep.flows.iter().zip(&offered) {
                prop_assert!(ft.goodput_bytes >= -1e-9);
                prop_assert!(ft.goodput_bytes <= rate * dt + 1e-6);
                prop_assert!((0.0..=1.0 + 1e-9).contains(&ft.loss_frac));
                prop_assert!(ft.rtt.is_finite());
            }
            for (ft, b) in rep.flows.iter().zip(&base) {
                prop_assert!(ft.rtt >= b - 1e-12, "RTT below propagation");
            }
        }
    }

    /// FCT statistics: CDFs are monotone in [0, 1] and AFCT bins cover all
    /// records, for arbitrary record sets.
    #[test]
    fn fct_stats_invariants(
        recs in proptest::collection::vec((1.0f64..1e8, 0.0f64..100.0, 0.0f64..50.0), 1..100),
    ) {
        let mut stats = FctStats::new();
        for (size, start, dur) in recs {
            stats.push(scda::metrics::FlowRecord { size_bytes: size, start, finish: start + dur });
        }
        let cdf = stats.cdf(60.0, 31);
        let mut prev = 0.0;
        for &(x, p) in &cdf {
            prop_assert!((0.0..=1.0).contains(&p));
            prop_assert!(p >= prev - 1e-12);
            prop_assert!((0.0..=60.0).contains(&x));
            prev = p;
        }
        let bins = stats.afct_by_size(1e8, 10);
        let covered: usize = bins.iter().map(|b| b.count).sum();
        prop_assert_eq!(covered, stats.len(), "every record lands in a bin");
        for b in &bins {
            prop_assert!(b.afct >= 0.0 && b.afct.is_finite());
        }
    }

    /// The selection layer never picks an excluded or non-existent server.
    #[test]
    fn selector_respects_exclusions(
        n in 2usize..20,
        seed_vals in proptest::collection::vec(1.0f64..1e8, 20),
        exclude_idx in 0usize..20,
    ) {
        use scda::core::tree::ServerMetrics;
        let metrics: Vec<ServerMetrics> = (0..n)
            .map(|i| ServerMetrics {
                server: NodeId(i as u32),
                r0_down: seed_vals[i % seed_vals.len()],
                r0_up: seed_vals[(i * 7) % seed_vals.len()],
                path_down: seed_vals[i % seed_vals.len()],
                path_up: seed_vals[(i * 7) % seed_vals.len()],
                down_levels: [seed_vals[i % seed_vals.len()]; scda::core::tree::MAX_LEVELS],
                up_levels: [seed_vals[(i * 7) % seed_vals.len()]; scda::core::tree::MAX_LEVELS],
                n_levels: 4,
            })
            .collect();
        let cfg = SelectorConfig { r_scale: f64::INFINITY, power_aware: false };
        let sel = Selector::new(&metrics, None, &cfg);
        let excl = NodeId((exclude_idx % n) as u32);
        for class in [
            ContentClass::Interactive,
            ContentClass::SemiInteractiveWrite,
            ContentClass::SemiInteractiveRead,
            ContentClass::Passive,
        ] {
            if let Some((picked, _)) = sel.write_target(class, &NodeSet::from_iter([excl])) {
                prop_assert_ne!(picked, excl);
                prop_assert!(picked.0 < n as u32);
            }
            if let Some((replica, _)) = sel.replica_target(class, excl, &NodeSet::new()) {
                prop_assert_ne!(replica, excl, "replica on the primary");
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Packet-simulator conservation: injected = delivered + dropped +
    /// still-in-flight, and nothing exceeds the flow's packet count.
    #[test]
    fn packet_sim_conserves_packets(
        rates in proptest::collection::vec(1e5f64..2e7, 1..4),
        size_kb in 10.0f64..2000.0,
        qcap in 5_000.0f64..500_000.0,
    ) {
        use scda::simnet::packet::{simulate_packets, PacketFlow, SourceModel};
        let n = rates.len();
        let (topo, s, r, _) = dumbbell(n, mbps(80.0), 0.001, qcap);
        let flows: Vec<PacketFlow> = rates
            .iter()
            .enumerate()
            .map(|(i, &rate)| PacketFlow {
                src: s[i],
                dst: r[i],
                size_bytes: size_kb * 1e3,
                source: SourceModel::Paced { rate },
                start: 0.1 * i as f64,
            })
            .collect();
        let res = simulate_packets(&topo, &flows, 600.0);
        for (f, out) in flows.iter().zip(&res.flows) {
            let total = (f.size_bytes / MSS).ceil() as u64;
            prop_assert!(out.delivered + out.dropped <= total);
            if out.dropped == 0 {
                prop_assert_eq!(out.delivered, total, "lossless flow delivers everything");
                prop_assert!(out.finish.is_some());
            }
        }
        for &peak in &res.peak_queue_bytes {
            prop_assert!(peak <= qcap + 1e-9, "queue cap respected");
        }
    }
}
