//! The §I diagnostics offload in a live setting: snapshot the control tree
//! mid-run, ship it as JSON (the "external server" interface), and verify
//! the health indicators point at the genuinely congested links.

use scda::core::rate_metric::LinkSample;
use scda::core::tree::{RateCaps, Telemetry};
use scda::core::{ControlTree, MetricKind, Params, SnapshotStream, TreeSnapshot};
use scda::prelude::*;
use scda::simnet::LinkId;

/// The analysis side's congestion suspects: links whose allocation
/// collapsed below `frac` of capacity, sorted.
fn collapsed_links(snap: &TreeSnapshot, frac: f64) -> Vec<LinkId> {
    let mut out: Vec<LinkId> = snap
        .nodes
        .iter()
        .flat_map(|n| [&n.down, &n.up])
        .filter(|d| d.rate < frac * d.capacity)
        .map(|d| d.link)
        .collect();
    out.sort();
    out
}

/// The analysis side's health indicator: total RM downlink allocation.
fn total_server_down_rate(snap: &TreeSnapshot) -> f64 {
    snap.nodes
        .iter()
        .filter(|n| n.level == 0)
        .map(|n| n.down.rate)
        .sum()
}

struct HotRack {
    hot_links: Vec<LinkId>,
}
impl Telemetry for HotRack {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        if self.hot_links.contains(&l) {
            LinkSample {
                flow_rate_sum: 1e10,
                queue_bytes: 9e5,
                arrival_rate: 1e10,
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
fn snapshot_round_trips_and_flags_congested_links() {
    let tree = ThreeTierConfig {
        racks: 3,
        servers_per_rack: 2,
        racks_per_agg: 3,
        clients: 2,
        ..Default::default()
    }
    .build();
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    // Slam rack 1's server links for several rounds.
    let hot_links: Vec<LinkId> = tree.server_links[1]
        .iter()
        .flat_map(|&(up, down)| [up, down])
        .collect();
    let mut tel = HotRack {
        hot_links: hot_links.clone(),
    };
    for i in 0..6 {
        ct.control_round(i as f64 * 0.05, &mut tel);
    }

    let snap = ct.snapshot(0.3);
    // The offload interface: serialize, "ship", parse on the analysis side.
    let wire = snap.to_json();
    let parsed: TreeSnapshot = serde_json::from_str(&wire).expect("valid snapshot JSON");
    assert_eq!(parsed.time, 0.3);
    assert_eq!(parsed.nodes.len(), ct.len());

    // Off-line analysis: collapsed links are exactly the slammed ones.
    let suspects = collapsed_links(&parsed, 0.05);
    let mut expected = hot_links.clone();
    expected.sort();
    assert_eq!(suspects, expected, "diagnosis must point at the hot rack");

    // Health indicator drops relative to a freshly-built cloud.
    let fresh = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    let _ = fresh; // (fresh tree has no rounds; compare against capacity)
    let per_server_cap = tree.topo.link(tree.server_links[0][0].1).capacity_bytes();
    let healthy_total = per_server_cap * tree.all_servers().len() as f64;
    assert!(
        total_server_down_rate(&parsed) < 0.95 * healthy_total,
        "aggregate health must reflect the congested rack"
    );
}

#[test]
fn snapshot_stream_round_trips_and_tracks_congestion_onset() {
    let tree = ThreeTierConfig {
        racks: 3,
        servers_per_rack: 2,
        racks_per_agg: 3,
        clients: 2,
        ..Default::default()
    }
    .build();
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    let hot_links: Vec<LinkId> = tree.server_links[1]
        .iter()
        .flat_map(|&(up, down)| [up, down])
        .collect();

    // Two quiet rounds, then six rounds of a slammed rack, streaming a
    // snapshot every second round (cadence 2·τ on the wire).
    let tau = 0.05;
    let mut stream = SnapshotStream::new(2);
    let mut quiet = HotRack { hot_links: vec![] };
    let mut hot = HotRack {
        hot_links: hot_links.clone(),
    };
    for i in 0..8 {
        let now = i as f64 * tau;
        if i < 2 {
            ct.control_round(now, &mut quiet);
        } else {
            ct.control_round(now, &mut hot);
        }
        stream.offer_with(|| ct.snapshot(now));
    }
    assert_eq!(stream.rounds_offered(), 8);
    assert_eq!(stream.snapshots().len(), 4, "every second round is kept");

    // Ship the whole series as JSONL and parse it back on the analysis side.
    let wire = stream.to_jsonl();
    let parsed: Vec<TreeSnapshot> = wire
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid snapshot JSONL"))
        .collect();
    assert_eq!(parsed.len(), stream.snapshots().len());
    for (a, b) in parsed.iter().zip(stream.snapshots()) {
        assert_eq!(a.time, b.time);
        assert_eq!(a.nodes.len(), b.nodes.len());
    }

    // Off-line analysis over the time series: the first (pre-congestion)
    // entry is clean, and once the hot rounds dominate the diagnosis
    // converges on exactly the slammed links — onset is visible in-stream.
    let mut expected = hot_links.clone();
    expected.sort();
    assert!(
        collapsed_links(&parsed[0], 0.05).is_empty(),
        "the quiet prefix must not raise suspects"
    );
    let suspects = collapsed_links(parsed.last().unwrap(), 0.05);
    assert_eq!(
        suspects, expected,
        "the tail of the stream flags the hot rack"
    );
    // Aggregate health degrades monotonically in time across the stream.
    let totals: Vec<f64> = parsed.iter().map(total_server_down_rate).collect();
    assert!(
        totals.last().unwrap() < totals.first().unwrap(),
        "health indicator must fall after congestion onset: {totals:?}"
    );
}
