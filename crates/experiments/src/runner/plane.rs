//! The SCDA control plane both SCDA policies run on.
//!
//! §III has one RM/RA hierarchy serving every content class. [`ScdaPlane`]
//! is that hierarchy as the experiments hold it: the [`ControlTree`], the
//! [`PlacementIndex`] shaped like it, the Table I parameters, the
//! figure-3/5 setup costs and the block servers and clients. Its
//! [`ScdaPlane::round`] is the one per-τ measurement sequence — offered
//! loads, link telemetry, the tree's round, the index refresh by
//! difference — that
//! [`super::ScdaControl`] (the headline runs) and the content lifecycle
//! both call. What each policy does with a round (mitigation and energy
//! for the one, the NNS and its block stores for the other) and how it
//! re-windows its flows stay with the policy.

use scda_core::{
    ControlTree, LinkSample, MetricKind, Params, PlacementIndex, ProtocolCosts, RateCaps,
    ResourceBook, SlaViolation, Telemetry,
};
use scda_obs::{metric, Obs};
use scda_simnet::builders::ThreeTierTree;
use scda_simnet::{LinkId, NodeId};
use scda_transport::{AnyTransport, FlowDriver, ScdaWindow};

use super::policy::SpawnSpec;

/// Telemetry bridge from the simulated network to the control tree.
pub(crate) struct NetTelemetry<'a> {
    pub(crate) net: &'a mut scda_simnet::Network,
    pub(crate) loads: &'a [f64],
    pub(crate) tau: f64,
    pub(crate) resources: Option<&'a ResourceBook>,
}

impl Telemetry for NetTelemetry<'_> {
    fn sample(&mut self, link: LinkId) -> LinkSample {
        LinkSample {
            queue_bytes: self.net.link_state(link).queue_bytes(),
            flow_rate_sum: self.loads[link.index()],
            arrival_rate: self.net.take_arrived(link) / self.tau,
        }
    }

    fn rate_caps(&mut self, server: NodeId) -> RateCaps {
        // Infinite unless the run models server resources (eq. 4's
        // R_other): then disk/CPU caps flow into every advertised rate.
        match self.resources {
            Some(book) => book.rate_caps(server),
            None => RateCaps::default(),
        }
    }
}

/// The RM/RA tree, its placement index and the per-τ round (see the
/// module docs).
pub(crate) struct ScdaPlane {
    /// Table I parameters, with `tau` the round interval and the drain
    /// horizon one τ.
    pub(crate) params: Params,
    pub(crate) ct: ControlTree,
    pub(crate) costs: ProtocolCosts,
    /// Every block server, in construction order.
    pub(crate) servers: Vec<NodeId>,
    pub(crate) clients: Vec<NodeId>,
    /// The round's offered rate per link (the S sums of eq. 4/6 —
    /// weights are already baked into each flow's installed rate).
    pub(crate) link_loads: Vec<f64>,
    /// The last round's SLA violations, refilled in place every round.
    pub(crate) violations: Vec<SlaViolation>,
    /// Over the tree's raw per-server path rates, refreshed once per
    /// round; every placement is a query on it.
    pub(crate) pindex: PlacementIndex,
    /// Where the index's rewrite counts go (the tree holds its own
    /// handle).
    obs: Obs,
}

impl ScdaPlane {
    /// The plane over `tree`: `params.tau` is the round interval, and the
    /// drain horizon is set to one τ. `client_delay` is the one-way WAN
    /// delay the setup costs charge a client.
    pub(crate) fn new(
        tree: &ThreeTierTree,
        params: Params,
        metric: MetricKind,
        client_delay: f64,
    ) -> Self {
        let params = Params {
            drain_horizon: params.tau,
            ..params
        };
        let ct = ControlTree::from_three_tier(tree, params.clone(), metric);
        ScdaPlane {
            costs: ProtocolCosts {
                control_hop: params.control_hop_delay,
                client_wan: client_delay,
            },
            pindex: PlacementIndex::with_shape(ct.index_shape()),
            ct,
            params,
            servers: tree.all_servers(),
            clients: tree.clients.clone(),
            link_loads: vec![0.0; tree.topo.link_count()],
            violations: Vec::new(),
            obs: Obs::disabled(),
        }
    }

    /// Observe the plane: the tree's rounds and the index's refreshes.
    pub(crate) fn set_obs(&mut self, obs: Obs) {
        self.ct.set_obs(obs.clone());
        self.obs = obs;
    }

    /// A round before any flow exists, so the first arrivals see
    /// idle-state advertisements.
    pub(crate) fn prime(&mut self, driver: &mut FlowDriver, resources: Option<&ResourceBook>) {
        self.round(0.0, driver, resources);
    }

    /// One per-τ round at `now`: sample every tree link under the
    /// current offered loads, run the tree's round into
    /// [`ScdaPlane::violations`] and absorb the advertisements it moved
    /// into the index. Server metrics only move inside the tree's round,
    /// so the index stays bit-identical to a fresh snapshot until the
    /// next one (capacity changes touch columns the snapshot does not
    /// read). Client links are not in the tree; their samples are the
    /// caller's.
    pub(crate) fn round(
        &mut self,
        now: f64,
        driver: &mut FlowDriver,
        resources: Option<&ResourceBook>,
    ) {
        driver.offered_loads_into(&mut self.link_loads);
        let mut tel = NetTelemetry {
            net: driver.net_mut(),
            loads: &self.link_loads,
            tau: self.params.tau,
            resources,
        };
        self.ct
            .control_round_into(now, &mut tel, &mut self.violations);
        let rewritten = self.pindex.refresh_moved(&self.ct);
        self.obs
            .counter_add(metric::INDEX_LEAVES_REWRITTEN, rewritten as u64);
    }

    /// The §VIII-B internal write of `size` bytes from `primary` to
    /// `replica`, triggered by a completion at `finish`: an explicit-rate
    /// window at the tree's current transfer rate, opening after the
    /// figure-4 setup.
    pub(crate) fn replication(
        &self,
        primary: NodeId,
        replica: NodeId,
        size: f64,
        finish: f64,
        driver: &mut FlowDriver,
    ) -> SpawnSpec {
        let min = self.params.min_rate;
        let rate = self
            .ct
            .transfer_rate(primary, replica)
            .unwrap_or(min)
            .max(min);
        let net = driver.net_mut();
        let path = net.route(primary, replica).expect("servers are connected");
        let base_rtt = net.path_rtt(path);
        SpawnSpec {
            src: primary,
            dst: replica,
            path,
            server: primary,
            size,
            arrival: finish,
            start: finish + self.costs.internal_write_setup(),
            transport: AnyTransport::Scda(ScdaWindow::new(rate, rate, base_rtt)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Scale, Scenario};
    use scda_core::ServerMetrics;
    use scda_simnet::Network;

    /// The index mirrors the tree bit for bit after a round: it holds
    /// exactly what `server_metrics_into` reads out.
    #[test]
    fn index_mirrors_the_tree_after_a_round() {
        let sc = Scenario::video(Scale::Quick, false, 1);
        let tree = sc.topo.build();
        let params = Params {
            tau: sc.tau,
            ..Params::default()
        };
        let mut plane = ScdaPlane::new(&tree, params, MetricKind::Full, sc.topo.client_delay_s);
        let mut driver = FlowDriver::new(Network::new(tree.topo));
        plane.prime(&mut driver, None);
        plane.round(sc.tau, &mut driver, None);
        let mut fresh = Vec::new();
        plane.ct.server_metrics_into(&mut fresh);
        let bits = |m: &ServerMetrics| {
            let mut v = vec![
                m.r0_down.to_bits(),
                m.r0_up.to_bits(),
                m.path_down.to_bits(),
                m.path_up.to_bits(),
            ];
            v.extend(m.down_levels.iter().map(|x| x.to_bits()));
            v.extend(m.up_levels.iter().map(|x| x.to_bits()));
            (m.server, m.n_levels, v)
        };
        assert_eq!(plane.pindex.metrics().len(), plane.servers.len());
        assert_eq!(
            plane.pindex.metrics().iter().map(bits).collect::<Vec<_>>(),
            fresh.iter().map(bits).collect::<Vec<_>>()
        );
    }
}
