//! The RandTCP baseline as a (nearly empty) control policy.
//!
//! RandTCP is VL2/Hedera behavior: every request is assigned a uniformly
//! random block server, pays one TCP handshake, and lets TCP Reno
//! discover its rate. It has no control plane — no cadence, no rounds,
//! no SLA detector (that asymmetry *is* the paper's point) — so the
//! policy overrides only admission.

use scda_core::{PlaceQuery, PlacementIndex, ProtocolCosts, SelectorConfig};
use scda_simnet::builders::ThreeTierTree;
use scda_simnet::{FlowId, NodeId};
use scda_transport::FlowDriver;
use scda_workloads::{FlowDirection, FlowSpec};

use super::class_of;
use super::policy::{Admission, ControlPolicy, Placement, PlacementCtx, TransportPolicy};
use super::scda::OutstandingDiscount;

/// Control policy for the RandTCP baseline: random placement, TCP
/// handshake pricing, and nothing else.
pub struct RandTcpControl {
    servers: Vec<NodeId>,
    clients: Vec<NodeId>,
}

impl RandTcpControl {
    /// A RandTCP control plane over the given topology.
    pub fn new(tree: &ThreeTierTree) -> Self {
        RandTcpControl {
            servers: tree.all_servers(),
            clients: tree.clients.clone(),
        }
    }
}

impl ControlPolicy for RandTcpControl {
    fn system(&self) -> &'static str {
        "RandTCP"
    }

    fn admit(
        &mut self,
        f: &FlowSpec,
        _id: FlowId,
        _now: f64,
        driver: &mut FlowDriver,
        placement: &mut dyn Placement,
        transport: &mut dyn TransportPolicy,
    ) -> Admission {
        let client = self.clients[f.client % self.clients.len()];
        // No control plane: an empty index under a neutral query (random
        // placement reads neither, but the context carries them).
        let (server, _) = placement
            .place(&PlacementCtx {
                class: class_of(f.kind),
                direction: f.direction,
                servers: &self.servers,
                index: &PlacementIndex::new(),
                query: &PlaceQuery {
                    energy: None,
                    cfg: &SelectorConfig::default(),
                    discount: &OutstandingDiscount::default(),
                },
            })
            .expect("at least one server exists");
        let (src, dst) = match f.direction {
            FlowDirection::Write => (client, server),
            FlowDirection::Read => (server, client),
        };
        let net = driver.net_mut();
        let path = net
            .route(src, dst)
            .expect("client and server are connected");
        let one_way = net.path_rtt(path) / 2.0;
        Admission {
            src,
            dst,
            path,
            server,
            client_idx: f.client,
            start: f.arrival + ProtocolCosts::tcp_handshake(one_way),
            size: f.size_bytes,
            transport: transport.open(0.0, 2.0 * one_way),
        }
    }
}
