//! Control-plane diagnostics export.
//!
//! §I of the paper: "All the aggregated and monitored traffic metrics can
//! be offloaded to an external server for off-line diagnosis, analysis and
//! data mining of the distributed system." A [`TreeSnapshot`] is that
//! offload: the full per-node state of a control round — capacities,
//! current allocations, best-subtree rates — serializable to JSON.

use serde::{Deserialize, Serialize};

use scda_simnet::{LinkId, NodeId};

/// One direction of one control node at snapshot time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DirSnapshot {
    /// The monitored link.
    pub link: LinkId,
    /// Its configured capacity, bytes/s.
    pub capacity: f64,
    /// The current allocation `R(t)`, bytes/s.
    pub rate: f64,
    /// The best subtree rate `R̂`, bytes/s.
    pub r_hat: f64,
    /// The block server achieving `R̂` (None before the first round or on
    /// an empty subtree).
    pub best_bs: Option<NodeId>,
}

/// One RM/RA at snapshot time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NodeSnapshot {
    /// Tree level (0 = RM).
    pub level: u8,
    /// The monitored server (RMs only).
    pub server: Option<NodeId>,
    /// Downlink (write-path) state.
    pub down: DirSnapshot,
    /// Uplink (read-path) state.
    pub up: DirSnapshot,
}

/// The whole tree at one instant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeSnapshot {
    /// Snapshot time, seconds.
    pub time: f64,
    /// Every node, in construction order.
    pub nodes: Vec<NodeSnapshot>,
}

impl TreeSnapshot {
    /// Serialize for the external analysis server.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serialization cannot fail")
    }
}

/// A periodic stream of [`TreeSnapshot`]s — the §I diagnostics offload as
/// a *time series* instead of a one-shot export.
///
/// Offer the stream every control round; it keeps one snapshot every
/// `every` rounds (so the wire cadence is `every·τ` seconds) and exports
/// the series as JSON Lines, one snapshot per line — the append-friendly
/// format an external analysis server would ingest.
#[derive(Debug, Clone)]
pub struct SnapshotStream {
    every: u64,
    offered: u64,
    snapshots: Vec<TreeSnapshot>,
}

impl SnapshotStream {
    /// A stream keeping one snapshot every `every` control rounds
    /// (min 1: every round).
    pub fn new(every: u64) -> Self {
        SnapshotStream {
            every: every.max(1),
            offered: 0,
            snapshots: Vec::new(),
        }
    }

    /// The configured cadence in rounds.
    pub fn every(&self) -> u64 {
        self.every
    }

    /// Offer one round; `make` builds the snapshot only when this round is
    /// on the cadence. Returns true when a snapshot was recorded.
    pub fn offer_with(&mut self, make: impl FnOnce() -> TreeSnapshot) -> bool {
        let due = self.offered.is_multiple_of(self.every);
        self.offered += 1;
        if due {
            self.snapshots.push(make());
        }
        due
    }

    /// Rounds offered so far.
    pub fn rounds_offered(&self) -> u64 {
        self.offered
    }

    /// The recorded series, oldest first.
    pub fn snapshots(&self) -> &[TreeSnapshot] {
        &self.snapshots
    }

    /// The series as JSON Lines (one snapshot per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.snapshots {
            out.push_str(&s.to_json());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap() -> TreeSnapshot {
        TreeSnapshot {
            time: 3.5,
            nodes: vec![
                NodeSnapshot {
                    level: 0,
                    server: Some(NodeId(4)),
                    down: DirSnapshot {
                        link: LinkId(1),
                        capacity: 100.0,
                        rate: 90.0,
                        r_hat: 90.0,
                        best_bs: Some(NodeId(4)),
                    },
                    up: DirSnapshot {
                        link: LinkId(0),
                        capacity: 100.0,
                        rate: 5.0,
                        r_hat: 5.0,
                        best_bs: Some(NodeId(4)),
                    },
                },
                NodeSnapshot {
                    level: 1,
                    server: None,
                    down: DirSnapshot {
                        link: LinkId(3),
                        capacity: 100.0,
                        rate: 95.0,
                        r_hat: 90.0,
                        best_bs: Some(NodeId(4)),
                    },
                    up: DirSnapshot {
                        link: LinkId(2),
                        capacity: 100.0,
                        rate: 95.0,
                        r_hat: 5.0,
                        best_bs: Some(NodeId(4)),
                    },
                },
            ],
        }
    }

    #[test]
    fn json_round_trip() {
        let s = snap();
        let back: TreeSnapshot = serde_json::from_str(&s.to_json()).unwrap();
        assert_eq!(back.time, 3.5);
        assert_eq!(back.nodes.len(), 2);
        assert_eq!(back.nodes[0].down.rate, 90.0);
    }

    #[test]
    fn stream_keeps_every_kth_round() {
        let mut stream = SnapshotStream::new(3);
        let mut built = 0;
        for i in 0..10 {
            stream.offer_with(|| {
                built += 1;
                TreeSnapshot {
                    time: i as f64,
                    nodes: vec![],
                }
            });
        }
        // Rounds 0, 3, 6, 9 are on the cadence; the closure ran only then.
        assert_eq!(stream.snapshots().len(), 4);
        assert_eq!(built, 4, "off-cadence rounds must not build snapshots");
        assert_eq!(stream.rounds_offered(), 10);
        let times: Vec<f64> = stream.snapshots().iter().map(|s| s.time).collect();
        assert_eq!(times, vec![0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn stream_jsonl_round_trips() {
        let mut stream = SnapshotStream::new(1);
        stream.offer_with(snap);
        stream.offer_with(|| TreeSnapshot {
            time: 4.0,
            nodes: snap().nodes,
        });
        let wire = stream.to_jsonl();
        assert_eq!(wire.lines().count(), 2);
        let back: Vec<TreeSnapshot> = wire
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].time, 3.5);
        assert_eq!(back[1].time, 4.0);
        assert_eq!(back[0].nodes[0].down.rate, 90.0);
    }
}
