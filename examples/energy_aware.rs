//! Energy-aware placement (§VII-C/D): dormant servers, the `R_scale`
//! scale-down threshold, passive-content steering, and power-aware
//! `R̂/P` selection with heterogeneous servers.
//!
//! ```text
//! cargo run --release --example energy_aware
//! ```

use scda::core::energy::PowerModelConfig;
use scda::core::rate_metric::LinkSample;
use scda::core::tree::{RateCaps, Telemetry};
use scda::core::{NoDiscount, PlaceQuery, PlacementIndex};
use scda::prelude::*;
use scda::simnet::LinkId;

/// Telemetry that loads the uplinks of the first `busy` servers.
struct PartialLoad {
    busy_links: Vec<LinkId>,
    load: f64,
}
impl Telemetry for PartialLoad {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        if self.busy_links.contains(&l) {
            LinkSample {
                flow_rate_sum: self.load,
                ..Default::default()
            }
        } else {
            LinkSample::default()
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

fn main() {
    let tree = ThreeTierConfig {
        racks: 2,
        servers_per_rack: 4,
        racks_per_agg: 2,
        clients: 2,
        ..Default::default()
    }
    .build();
    let servers = tree.all_servers();
    let x = tree.topo.link(tree.server_links[0][0].0).capacity_bytes();

    // Heterogeneous fleet: every third server is an older, hotter machine.
    let mut energy = EnergyBook::new(PowerModelConfig::default(), servers.iter().copied(), |i| {
        if i % 3 == 2 {
            1.4
        } else {
            1.0
        }
    });

    // Load the uplinks of the first four servers; the rest stay near idle.
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    let busy_links: Vec<LinkId> = tree.server_links[0].iter().map(|&(up, _)| up).collect();
    let mut tel = PartialLoad {
        busy_links,
        load: 2.0 * x,
    };
    for _ in 0..10 {
        ct.control_round(0.0, &mut tel);
    }
    energy.tick(1.0, |id| {
        if tree.rack_of(id) == Some(0) {
            0.8
        } else {
            0.02
        }
    });

    let mut metrics = Vec::new();
    ct.server_metrics_into(&mut metrics);
    println!("per-server available uplink (fraction of X):");
    for m in &metrics {
        println!(
            "  {}  up {:>5.1}%  down {:>5.1}%  P = {:>5.1} W",
            m.server,
            100.0 * m.path_up / x,
            100.0 * m.path_down / x,
            energy.power(m.server)
        );
    }

    // Scale down the near-idle servers whose uplink headroom exceeds
    // R_scale — they will serve passive content only.
    let cfg = SelectorConfig {
        r_scale: 0.8 * x,
        power_aware: false,
    };
    for m in &metrics {
        if m.path_up >= cfg.r_scale {
            energy.scale_down(m.server);
        }
    }
    println!(
        "\nscaled down {} of {} servers (uplink headroom >= R_scale = 80% of X)",
        energy.dormant_count(),
        servers.len()
    );

    // Passive content goes to a dormant server; interactive avoids them.
    let mut index = PlacementIndex::new();
    index.refresh(&metrics);
    let q = PlaceQuery {
        energy: Some(&energy),
        cfg: &cfg,
        discount: &NoDiscount,
    };
    let primary = metrics
        .iter()
        .max_by(|a, b| a.path_down.total_cmp(&b.path_down))
        .expect("fleet is non-empty")
        .server;
    let (passive_replica, _) = index
        .replica_target(ContentClass::Passive, primary, &NodeSet::new(), &q)
        .expect("a replica target exists");
    println!("passive replica  -> {passive_replica} (dormant, stays asleep for cold data)");
    let (interactive, _) = index
        .write_target(ContentClass::Interactive, &NodeSet::new(), &q)
        .expect("an active server exists");
    println!("interactive write -> {interactive} (active server, not reserved for passive data)");
    assert_ne!(passive_replica, interactive);

    // Power-aware ranking flips ties toward cooler machines (§VII-D).
    let cfg_power = SelectorConfig {
        r_scale: f64::INFINITY,
        power_aware: true,
    };
    let q_power = PlaceQuery {
        cfg: &cfg_power,
        ..q
    };
    let (efficient, score) = index
        .write_target(
            ContentClass::SemiInteractiveWrite,
            &NodeSet::new(),
            &q_power,
        )
        .expect("fleet is non-empty");
    println!("\npower-aware write target: {efficient} (best R̂/P = {score:.0} bytes/joule)",);

    // Energy accounting over an hour of this regime.
    for t in 2..=3600 {
        energy.tick(t as f64, |id| {
            if tree.rack_of(id) == Some(0) {
                0.8
            } else {
                0.02
            }
        });
    }
    println!(
        "fleet energy over an hour: {:.2} kWh ({} dormant servers saved ~{:.2} kWh)",
        energy.total_energy() / 3.6e6,
        energy.dormant_count(),
        energy.dormant_count() as f64 * (150.0 - 15.0) * 3600.0 / 3.6e6,
    );
}
