//! SCDA nodes: FES, NNS, BS (§III-A) and the request protocols (§VIII).
//!
//! The **front-end server** (FES) is deliberately trivial: it hashes a
//! client or content id onto one of several **name-node servers** (NNS) —
//! that indirection is SCDA's fix for the single-name-node bottleneck of
//! GFS/HDFS. Each NNS keeps the metadata (which block servers hold which
//! content); each **block server** (BS) stores content blocks subject to a
//! disk-capacity budget.
//!
//! The figures 3-5 message sequences are priced by [`ProtocolCosts`]: the
//! control hops a request crosses before its data connection opens. The
//! experiment harness charges these as connection-setup latency, so SCDA
//! pays for its extra control messages (FES→NNS→RA→BS→client) while
//! RandTCP pays only a TCP handshake — keeping the comparison honest.

use std::collections::{BTreeMap, BTreeSet};

use scda_simnet::NodeId;
use serde::{Deserialize, Serialize};

use crate::content::{AccessStats, ContentClass, ContentId};

/// FNV-1a, the stable hash used for FES → NNS routing (deterministic across
/// runs and platforms, unlike `std`'s `DefaultHasher`).
#[inline]
fn fnv1a(x: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in x.to_le_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The light-weight front-end server: stateless request router.
///
/// # Examples
///
/// ```
/// use scda_core::{ContentId, Fes};
/// let fes = Fes::new(4);
/// let nns = fes.route_content(ContentId(12345));
/// assert!(nns < 4);
/// assert_eq!(nns, fes.route_content(ContentId(12345)), "stable routing");
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fes {
    n_nns: usize,
}

impl Fes {
    /// An FES over `n_nns` name nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n_nns` is zero.
    pub fn new(n_nns: usize) -> Self {
        assert!(n_nns > 0, "need at least one NNS");
        Fes { n_nns }
    }

    /// The NNS responsible for a content id (step 1 of figure 4).
    #[inline]
    pub fn route_content(&self, content: ContentId) -> usize {
        (fnv1a(content.0) % self.n_nns as u64) as usize
    }
}

/// Metadata one NNS keeps per content object.
#[derive(Debug, Clone)]
pub struct ContentMeta {
    /// The content.
    pub id: ContentId,
    /// Size in bytes.
    pub size_bytes: f64,
    /// Declared or learned class.
    pub class: ContentClass,
    /// The block server holding the primary copy.
    pub primary: NodeId,
    /// Replica holders (never includes the primary).
    pub replicas: Vec<NodeId>,
    /// Observed access pattern (drives class learning, §VII).
    pub stats: AccessStats,
}

impl ContentMeta {
    /// Every server holding a copy: primary first, then replicas.
    pub fn holders(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.replicas.len());
        v.push(self.primary);
        v.extend_from_slice(&self.replicas);
        v
    }
}

/// One name-node server.
#[derive(Debug, Clone, Default)]
pub struct NameNode {
    metadata: BTreeMap<ContentId, ContentMeta>,
}

impl NameNode {
    /// Empty NNS.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register new content metadata.
    ///
    /// # Panics
    ///
    /// Panics if the content is already registered (re-registration would
    /// silently drop replica state — a harness bug).
    pub fn register(&mut self, meta: ContentMeta) {
        let id = meta.id;
        let prev = self.metadata.insert(id, meta);
        assert!(prev.is_none(), "{id} registered twice");
    }

    /// Metadata lookup.
    pub fn lookup(&self, id: ContentId) -> Option<&ContentMeta> {
        self.metadata.get(&id)
    }

    /// Mutable metadata lookup (replica additions, access recording).
    pub fn lookup_mut(&mut self, id: ContentId) -> Option<&mut ContentMeta> {
        self.metadata.get_mut(&id)
    }

    /// Remove metadata (content deletion).
    pub fn remove(&mut self, id: ContentId) -> Option<ContentMeta> {
        self.metadata.remove(&id)
    }

    /// Number of content objects this NNS tracks.
    pub fn len(&self) -> usize {
        self.metadata.len()
    }

    /// Whether this NNS tracks nothing.
    pub fn is_empty(&self) -> bool {
        self.metadata.is_empty()
    }
}

/// The FES + all NNS, as one addressable service.
#[derive(Debug, Clone)]
pub struct NameService {
    fes: Fes,
    nns: Vec<NameNode>,
}

impl NameService {
    /// A service with `n_nns` name nodes (GFS/HDFS ≡ `n_nns = 1`, which the
    /// NNS-scaling ablation exercises).
    pub fn new(n_nns: usize) -> Self {
        NameService {
            fes: Fes::new(n_nns),
            nns: (0..n_nns).map(|_| NameNode::new()).collect(),
        }
    }

    /// The FES.
    #[inline]
    pub fn fes(&self) -> &Fes {
        &self.fes
    }

    /// Register content; the FES decides which NNS owns the metadata.
    pub fn register(&mut self, meta: ContentMeta) {
        let nns = self.fes.route_content(meta.id);
        self.nns[nns].register(meta);
    }

    /// Look up content through the FES.
    pub fn lookup(&self, id: ContentId) -> Option<&ContentMeta> {
        self.nns[self.fes.route_content(id)].lookup(id)
    }

    /// Mutable lookup through the FES.
    pub fn lookup_mut(&mut self, id: ContentId) -> Option<&mut ContentMeta> {
        let nns = self.fes.route_content(id);
        self.nns[nns].lookup_mut(id)
    }

    /// Remove content metadata.
    pub fn remove(&mut self, id: ContentId) -> Option<ContentMeta> {
        let nns = self.fes.route_content(id);
        self.nns[nns].remove(id)
    }

    /// Total content objects across all NNS.
    pub fn total_contents(&self) -> usize {
        self.nns.iter().map(NameNode::len).sum()
    }

    /// Per-NNS object counts — the load-balance evidence for the
    /// multiple-NNS design claim.
    pub fn load_distribution(&self) -> Vec<usize> {
        self.nns.iter().map(NameNode::len).collect()
    }
}

/// A block server's local storage state.
#[derive(Debug, Clone)]
pub struct BlockServer {
    /// Which network node this BS is.
    pub node: NodeId,
    /// Disk budget in bytes.
    pub disk_capacity: f64,
    disk_used: f64,
    stored: BTreeSet<ContentId>,
}

impl BlockServer {
    /// A BS at `node` with `disk_capacity` bytes of storage.
    pub fn new(node: NodeId, disk_capacity: f64) -> Self {
        assert!(disk_capacity > 0.0);
        BlockServer {
            node,
            disk_capacity,
            disk_used: 0.0,
            stored: BTreeSet::new(),
        }
    }

    /// Try to store `content` of `size` bytes; `false` when the disk is
    /// full (the "server may not have enough disk space" of §IV, which
    /// then caps `R_other`).
    pub fn store(&mut self, content: ContentId, size: f64) -> bool {
        if self.stored.contains(&content) {
            return true;
        }
        if self.disk_used + size > self.disk_capacity {
            return false;
        }
        self.disk_used += size;
        self.stored.insert(content);
        true
    }

    /// Whether this BS holds `content`.
    pub fn has(&self, content: ContentId) -> bool {
        self.stored.contains(&content)
    }

    /// Number of stored objects.
    pub fn object_count(&self) -> usize {
        self.stored.len()
    }
}

/// Connection-setup latency of the §VIII request protocols.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProtocolCosts {
    /// One-way latency of an in-datacenter control hop (FES↔NNS, NNS↔RA,
    /// RA↔BS, BS↔RM), seconds.
    pub control_hop: f64,
    /// One-way latency between a client and the cloud entry, seconds.
    pub client_wan: f64,
}

impl ProtocolCosts {
    /// Figure 3 (external write): steps 1-9 before data flows —
    /// UCL→FES (WAN), FES→NNS, NNS→RA, RA→(selected)BS, BS↔RM, then the
    /// BS contacts the UCL over the WAN. Six control hops + two WAN legs.
    pub fn external_write_setup(&self) -> f64 {
        2.0 * self.client_wan + 6.0 * self.control_hop
    }

    /// Figure 5 (external read): steps 1-6 before the BS starts writing —
    /// UCL→FES (WAN), FES→NNS, NNS→BS, BS↔RM; the first data byte then
    /// rides the normal path (accounted by the network model).
    pub fn external_read_setup(&self) -> f64 {
        self.client_wan + 4.0 * self.control_hop
    }

    /// Figure 4 (internal replication write): hash→NNS, NNS selects,
    /// NNS→target BS, BS↔RM, target contacts source — five control hops,
    /// no WAN legs.
    pub fn internal_write_setup(&self) -> f64 {
        5.0 * self.control_hop
    }

    /// What the RandTCP baseline pays instead: one TCP handshake RTT
    /// between client and server (`2 ×` the one-way path latency supplied
    /// by the caller).
    pub fn tcp_handshake(one_way_path_delay: f64) -> f64 {
        2.0 * one_way_path_delay
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(42), fnv1a(42));
        let buckets: std::collections::BTreeSet<u64> = (0..100u64).map(|x| fnv1a(x) % 7).collect();
        assert!(buckets.len() > 3, "hash should hit most buckets");
    }

    #[test]
    fn fes_routes_consistently() {
        let fes = Fes::new(4);
        let a = fes.route_content(ContentId(123));
        assert_eq!(a, fes.route_content(ContentId(123)));
        assert!(a < 4);
    }

    #[test]
    fn name_service_spreads_load_across_nns() {
        let mut ns = NameService::new(4);
        for i in 0..400 {
            ns.register(ContentMeta {
                id: ContentId(i),
                size_bytes: 1.0,
                class: ContentClass::Passive,
                primary: NodeId(0),
                replicas: vec![],
                stats: AccessStats::new(),
            });
        }
        let dist = ns.load_distribution();
        assert_eq!(dist.iter().sum::<usize>(), 400);
        for &n in &dist {
            // With FNV over sequential ids each of 4 NNS gets 100 ± 50.
            assert!(n > 50 && n < 150, "distribution {dist:?} too skewed");
        }
    }

    #[test]
    fn lookup_round_trips_through_hashing() {
        let mut ns = NameService::new(3);
        ns.register(ContentMeta {
            id: ContentId(7),
            size_bytes: 100.0,
            class: ContentClass::Interactive,
            primary: NodeId(5),
            replicas: vec![NodeId(9)],
            stats: AccessStats::new(),
        });
        let meta = ns.lookup(ContentId(7)).unwrap();
        assert_eq!(meta.primary, NodeId(5));
        assert_eq!(meta.holders(), vec![NodeId(5), NodeId(9)]);
        assert!(ns.lookup(ContentId(8)).is_none());
        assert_eq!(ns.remove(ContentId(7)).unwrap().id, ContentId(7));
        assert_eq!(ns.total_contents(), 0);
    }

    #[test]
    #[should_panic(expected = "twice")]
    fn double_registration_panics() {
        let mut n = NameNode::new();
        let meta = ContentMeta {
            id: ContentId(1),
            size_bytes: 1.0,
            class: ContentClass::Passive,
            primary: NodeId(0),
            replicas: vec![],
            stats: AccessStats::new(),
        };
        n.register(meta.clone());
        n.register(meta);
    }

    #[test]
    fn block_server_capacity_enforced() {
        let mut bs = BlockServer::new(NodeId(1), 100.0);
        assert!(bs.store(ContentId(1), 60.0));
        assert!(!bs.store(ContentId(2), 60.0), "over capacity");
        assert!(bs.store(ContentId(2), 40.0));
        assert!(!bs.store(ContentId(3), 1.0), "disk full");
        assert_eq!(bs.object_count(), 2);
        assert!(!bs.has(ContentId(3)));
    }

    #[test]
    fn re_storing_same_content_is_idempotent() {
        let mut bs = BlockServer::new(NodeId(1), 100.0);
        assert!(bs.store(ContentId(1), 60.0));
        assert!(bs.store(ContentId(1), 60.0));
        assert!(bs.store(ContentId(2), 40.0), "no double charge");
    }

    #[test]
    fn protocol_costs_price_the_figures() {
        let c = ProtocolCosts {
            control_hop: 0.01,
            client_wan: 0.05,
        };
        assert!((c.external_write_setup() - (0.1 + 0.06)).abs() < 1e-12);
        assert!((c.external_read_setup() - (0.05 + 0.04)).abs() < 1e-12);
        assert!((c.internal_write_setup() - 0.05).abs() < 1e-12);
        assert!((ProtocolCosts::tcp_handshake(0.07) - 0.14).abs() < 1e-12);
        // SCDA's write setup costs more than a bare TCP handshake over the
        // same WAN — the comparison does not hide SCDA's control overhead.
        assert!(c.external_write_setup() > ProtocolCosts::tcp_handshake(0.07));
    }
}
