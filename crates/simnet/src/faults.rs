//! Fault injection and capacity reconfiguration.
//!
//! Two mechanisms the SCDA control plane reacts to:
//!
//! * **link failures** — a failed link carries nothing; its queue drains
//!   nowhere and every byte offered to it is lost. Routing must be
//!   recomputed around it (the RM/RA "alternative links" of §IV-A).
//! * **capacity changes** — the §IV-A mitigation ladder's first rung
//!   activates reserve/backup capacity on a violated link
//!   ([`Mitigation::AddBandwidth`]); conversely an operator can shrink a
//!   link for maintenance.
//!
//! Both are implemented on [`Network`]: the topology's link parameters are
//! edited in place and the routing cache is invalidated so new flows see
//! the new fabric. Flows already in flight keep their paths (as real
//! connections would) — a flow crossing a failed link simply loses
//! everything it offers until the harness reroutes or aborts it.
//!
//! [`Mitigation::AddBandwidth`]: https://docs.rs/scda-core
//! [`Network`]: crate::Network

use crate::ids::LinkId;
use crate::network::Network;

/// The capacity assigned to a failed link: not zero (the fluid equations
/// divide by capacity) but low enough that the link is effectively dead
/// and any queue on it signals disaster to the allocators.
pub const FAILED_CAPACITY_BPS: f64 = 8.0; // one byte per second

/// The propagation delay assigned to a failed link so shortest-path
/// routing avoids it whenever any alternative exists.
pub const FAILED_DELAY_S: f64 = 1.0e6;

impl Network {
    /// Set a link's capacity to `new_bps` (bits/second) and invalidate the
    /// routing cache. This is how the SLA mitigation ladder's
    /// "add more bandwidth" rung lands on the data plane.
    ///
    /// # Panics
    ///
    /// Panics if `new_bps` is not strictly positive.
    pub fn set_link_capacity(&mut self, l: LinkId, new_bps: f64) {
        assert!(new_bps > 0.0, "capacity must stay positive");
        self.topo_mut_internal().link_mut(l).capacity_bps = new_bps;
        self.refresh_link_columns();
        self.invalidate_routes();
    }

    /// Fail a directed link: capacity collapses to [`FAILED_CAPACITY_BPS`]
    /// and its previous capacity is remembered for [`Network::restore_link`].
    /// Idempotent.
    pub fn fail_link(&mut self, l: LinkId) {
        if self.failed_links_internal().iter().any(|&(fl, ..)| fl == l) {
            return;
        }
        let link = self.topo().link(l);
        let (prev_cap, prev_delay) = (link.capacity_bps, link.delay_s);
        self.failed_links_internal().push((l, prev_cap, prev_delay));
        self.topo_mut_internal().link_mut(l).delay_s = FAILED_DELAY_S;
        self.set_link_capacity(l, FAILED_CAPACITY_BPS);
    }

    /// Restore a previously failed link to its original capacity.
    /// Returns `false` if the link was not failed.
    pub fn restore_link(&mut self, l: LinkId) -> bool {
        let pos = self
            .failed_links_internal()
            .iter()
            .position(|&(fl, ..)| fl == l);
        match pos {
            Some(i) => {
                let (_, prev_cap, prev_delay) = self.failed_links_internal().remove(i);
                self.topo_mut_internal().link_mut(l).delay_s = prev_delay;
                self.set_link_capacity(l, prev_cap);
                true
            }
            None => false,
        }
    }

    /// Whether a link is currently failed.
    pub fn is_link_failed(&self, l: LinkId) -> bool {
        self.failed_links().iter().any(|&(fl, ..)| fl == l)
    }

    /// Drop the routing cache so future paths avoid failed links and see
    /// new capacities.
    pub fn invalidate_routes(&mut self) {
        self.rebuild_routes();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::dumbbell;
    use crate::ids::FlowId;
    use crate::units::mbps;

    #[test]
    fn capacity_change_applies_immediately() {
        let (topo, s, r, (fwd, _)) = dumbbell(1, mbps(80.0), 0.001, 1e6);
        let mut net = Network::new(topo);
        net.insert_flow(FlowId(1), s[0], r[0]);
        net.set_link_capacity(fwd, mbps(8.0));
        // Offer 5 MB/s into a 1 MB/s link: queue builds fast.
        net.advance(0.1, &[(FlowId(1), 5e6)]);
        assert!(net.link_state(fwd).queue_bytes() > 0.0);
        assert_eq!(net.topo().link(fwd).capacity_bps, mbps(8.0));
    }

    #[test]
    fn failed_link_loses_everything() {
        let (topo, s, r, (fwd, _)) = dumbbell(1, mbps(80.0), 0.001, 10_000.0);
        let mut net = Network::new(topo);
        net.insert_flow(FlowId(1), s[0], r[0]);
        net.fail_link(fwd);
        assert!(net.is_link_failed(fwd));
        // After the tiny queue fills, essentially all offered bytes drop.
        let mut last_loss = 0.0;
        for _ in 0..10 {
            let rep = net.advance(0.05, &[(FlowId(1), 1e6)]);
            last_loss = rep.flows[0].loss_frac;
        }
        assert!(
            last_loss > 0.95,
            "failed link must drop traffic, loss = {last_loss}"
        );
    }

    #[test]
    fn restore_brings_capacity_back() {
        let (topo, _, _, (fwd, _)) = dumbbell(1, mbps(80.0), 0.001, 1e6);
        let mut net = Network::new(topo);
        net.fail_link(fwd);
        assert!(net.restore_link(fwd));
        assert_eq!(net.topo().link(fwd).capacity_bps, mbps(80.0));
        assert!(!net.is_link_failed(fwd));
        assert!(!net.restore_link(fwd), "double restore is a no-op");
    }

    #[test]
    fn fail_is_idempotent() {
        let (topo, _, _, (fwd, _)) = dumbbell(1, mbps(80.0), 0.001, 1e6);
        let mut net = Network::new(topo);
        net.fail_link(fwd);
        net.fail_link(fwd);
        assert!(net.restore_link(fwd));
        assert_eq!(
            net.topo().link(fwd).capacity_bps,
            mbps(80.0),
            "original capacity remembered once, not overwritten by the failed value"
        );
    }

    #[test]
    fn new_flows_route_around_failures() {
        // Clos with two aggs: failing one edge uplink leaves a path.
        use crate::builders::clos;
        let (topo, servers) = clos(2, 1, 2, 1, mbps(100.0), 0.001, 1e6);
        let mut net = Network::new(topo);
        net.insert_flow(FlowId(1), servers[0][0], servers[1][0]);
        let path1 = net.flow(FlowId(1)).path().to_vec();
        // Fail the edge->agg fabric hop (the server's access link has no
        // alternative); a fresh flow must route via the other agg.
        net.fail_link(path1[1]);
        net.insert_flow(FlowId(2), servers[0][0], servers[1][0]);
        let path2 = net.flow(FlowId(2)).path().to_vec();
        assert!(
            !path2.contains(&path1[1]),
            "rerouted path still uses failed link"
        );
    }
}
