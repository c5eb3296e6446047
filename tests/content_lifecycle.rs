//! The figures 3-5 content lifecycle, exercised through the control-plane
//! API: an external write lands on the best-downlink server, internal
//! replication places a copy per content class, and the external read is
//! served from the best replica — with metadata flowing through the
//! FES → NNS hashing path and storage charged against block servers.

use scda::core::nodes::{BlockServer, ContentMeta};
use scda::core::rate_metric::LinkSample;
use scda::core::testing::Selector;
use scda::core::tree::{RateCaps, Telemetry};
use scda::core::{AccessStats, ClassifierConfig};
use scda::prelude::*;
use scda::simnet::LinkId;

struct Uneven;
impl Telemetry for Uneven {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        // Deterministic uneven load: every third link is busier.
        if l.0.is_multiple_of(3) {
            LinkSample {
                flow_rate_sum: 40e6,
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

#[test]
fn write_replicate_read_round_trip() {
    let tree = ThreeTierConfig {
        racks: 3,
        servers_per_rack: 3,
        racks_per_agg: 3,
        clients: 2,
        ..Default::default()
    }
    .build();
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    for _ in 0..5 {
        ct.control_round(0.0, &mut Uneven);
    }

    let mut ns = NameService::new(3);
    let mut stores: Vec<BlockServer> = tree
        .all_servers()
        .into_iter()
        .map(|s| BlockServer::new(s, 1e12))
        .collect();

    let mut metrics = Vec::new();
    ct.server_metrics_into(&mut metrics);
    let cfg = SelectorConfig {
        r_scale: f64::INFINITY,
        power_aware: false,
    };
    let sel = Selector::new(&metrics, None, &cfg);

    // 1. External write (figure 3): best downlink server.
    let content = ContentId(99);
    let size = 8e6;
    let (primary, rate) = sel
        .write_target(ContentClass::SemiInteractiveRead, &NodeSet::new())
        .expect("servers exist");
    assert!(rate > 0.0);
    let bs = stores
        .iter_mut()
        .find(|b| b.node == primary)
        .expect("primary exists");
    assert!(bs.store(content, size));

    // 2. Register metadata through the FES hash.
    ns.register(ContentMeta {
        id: content,
        size_bytes: size,
        class: ContentClass::SemiInteractiveRead,
        primary,
        replicas: vec![],
        stats: AccessStats::new(),
    });

    // 3. Internal replication (figure 4): best-uplink server that is not
    //    the primary; transfer priced at the shared-level rate (§VIII-D).
    let (replica, _) = sel
        .replica_target(ContentClass::SemiInteractiveRead, primary, &NodeSet::new())
        .expect("another server exists");
    assert_ne!(replica, primary);
    let rate = ct.transfer_rate(primary, replica).expect("both in tree");
    assert!(
        rate > 0.0,
        "replication flow must get a positive allocation"
    );
    let rbs = stores
        .iter_mut()
        .find(|b| b.node == replica)
        .expect("replica exists");
    assert!(rbs.store(content, size));
    ns.lookup_mut(content)
        .expect("registered")
        .replicas
        .push(replica);

    // 4. External read (figure 5): served from the faster-uplink holder.
    let meta = ns.lookup(content).expect("registered");
    let holders = meta.holders();
    let (source, up_rate) = sel
        .read_source(&holders.iter().copied().collect())
        .expect("holders exist");
    assert!(holders.contains(&source));
    assert!(up_rate > 0.0);
    // The chosen source has the best uplink among holders.
    for h in &holders {
        let m = metrics
            .iter()
            .find(|m| m.server == *h)
            .expect("holder has metrics");
        assert!(m.path_up <= up_rate + 1e-9);
    }
}

#[test]
fn access_pattern_learning_reclassifies_content() {
    // A content registered as passive that turns hot is reclassified from
    // its observed access pattern (§VII-C learning path).
    let mut meta = ContentMeta {
        id: ContentId(1),
        size_bytes: 1e6,
        class: ContentClass::Passive,
        primary: NodeId(0),
        replicas: vec![],
        stats: AccessStats::new(),
    };
    let cfg = ClassifierConfig::default();
    // Nothing happened yet: still passive.
    assert_eq!(meta.stats.classify(10.0, &cfg), ContentClass::Passive);
    // A burst of interleaved writes/reads makes it interactive.
    for i in 0..20 {
        let t = 10.0 + i as f64;
        meta.stats.record_write(t);
        meta.stats.record_read(t + 0.5);
    }
    let class = meta.stats.classify(30.0, &cfg);
    assert_eq!(class, ContentClass::Interactive);
    meta.class = class;
    assert!(meta.class.is_active());
}

#[test]
fn disk_pressure_fails_placement_gracefully() {
    let mut bs = BlockServer::new(NodeId(0), 10e6);
    assert!(bs.store(ContentId(1), 6e6));
    assert!(!bs.store(ContentId(2), 6e6), "over disk budget");
    // The §IV multi-resource hook: a disk-full server caps R_other, which
    // the tree folds into its advertised rates via RateCaps.
    let caps = RateCaps {
        send: f64::INFINITY,
        recv: 0.0,
    };
    assert_eq!(caps.recv, 0.0, "no write bandwidth for a full server");
}
