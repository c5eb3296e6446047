//! Cloud server selection (§VII).
//!
//! Given the per-server metrics the control tree computes each round, pick
//! block servers per content class:
//!
//! * **interactive** — argmax `min(R̂_d, R̂_u)`: the interaction is limited
//!   by whichever direction is slower (§VII-A);
//! * **semi-interactive** — two stages: write to the best-downlink server,
//!   then replicate to the best-uplink server so later reads are fast
//!   (§VII-B);
//! * **passive** — write to the best-downlink server, replicate onto a
//!   *dormant* server whose uplink exceeds the scale-down threshold
//!   `R_scale`; active content meanwhile avoids those near-idle servers so
//!   they can stay dormant (§VII-C);
//! * **power-aware** — any of the above with the rate replaced by
//!   `R̂ / P(t)` (§VII-D).
//!
//! [`crate::PlacementIndex`] answers these queries; this module holds
//! their knobs ([`SelectorConfig`], [`Rank`]) and the exclusion
//! [`NodeSet`] (a replica must not land on the primary). The reference
//! O(n) scan the index is pinned against is [`crate::testing::Selector`].
//! Both break ties on the deterministic `ServerMetrics` order, identically
//! across runs.

use scda_simnet::NodeId;
use serde::{Deserialize, Serialize};

/// Selection behavior knobs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SelectorConfig {
    /// The scale-down threshold `R_scale` (bytes/s): servers with available
    /// uplink above this are "near idle" and reserved for passive content.
    pub r_scale: f64,
    /// Divide rates by measured power (`R̂/P`) when ranking (§VII-D).
    pub power_aware: bool,
}

impl Default for SelectorConfig {
    fn default() -> Self {
        SelectorConfig {
            r_scale: 40_000_000.0,
            power_aware: false,
        }
    }
}

/// Which rate a selection ranks on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rank {
    /// Path downlink rate (write placement).
    Down,
    /// Path uplink rate (read/replica placement).
    Up,
    /// `min(down, up)` (interactive placement).
    MinBoth,
}

/// A reusable scratch bitset over server [`NodeId`]s.
///
/// Replaces the O(|exclude|)-per-candidate `exclude.contains` scan in the
/// selection argmax with an O(1) membership test, while `clear` stays
/// O(|members|) (not O(universe)) so a warm set can be recycled every
/// admission without touching the full bit array. Inserting node `i`
/// grows the backing storage to `i/64 + 1` words on demand, so no
/// capacity needs declaring up front.
#[derive(Debug, Clone, Default)]
pub struct NodeSet {
    bits: Vec<u64>,
    members: Vec<NodeId>,
}

impl NodeSet {
    /// An empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Insert `s`; returns `false` if it was already present.
    pub fn insert(&mut self, s: NodeId) -> bool {
        let (word, bit) = (s.index() / 64, s.index() % 64);
        if word >= self.bits.len() {
            self.bits.resize(word + 1, 0);
        }
        let mask = 1u64 << bit;
        if self.bits[word] & mask != 0 {
            return false;
        }
        self.bits[word] |= mask;
        self.members.push(s);
        true
    }

    /// O(1) membership test.
    pub fn contains(&self, s: NodeId) -> bool {
        self.bits
            .get(s.index() / 64)
            .is_some_and(|w| w & (1u64 << (s.index() % 64)) != 0)
    }

    /// Remove every member, touching only the words of present members.
    pub fn clear(&mut self) {
        for s in self.members.drain(..) {
            self.bits[s.index() / 64] &= !(1u64 << (s.index() % 64));
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.members.iter().copied()
    }
}

impl Extend<NodeId> for NodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let mut set = NodeSet::new();
        set.extend(iter);
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::content::ContentClass;
    use crate::energy::{EnergyBook, PowerModelConfig};
    use crate::testing::Selector;
    use crate::tree::ServerMetrics;

    fn m(id: u32, down: f64, up: f64) -> ServerMetrics {
        ServerMetrics {
            server: NodeId(id),
            r0_down: down,
            r0_up: up,
            path_down: down,
            path_up: up,
            down_levels: [down; crate::tree::MAX_LEVELS],
            up_levels: [up; crate::tree::MAX_LEVELS],
            n_levels: 4,
        }
    }

    fn set<const N: usize>(ids: [u32; N]) -> NodeSet {
        ids.into_iter().map(NodeId).collect()
    }

    fn cfg(r_scale: f64) -> SelectorConfig {
        SelectorConfig {
            r_scale,
            power_aware: false,
        }
    }

    #[test]
    fn write_target_picks_best_downlink() {
        let metrics = [m(0, 10.0, 99.0), m(1, 50.0, 1.0), m(2, 30.0, 1.0)];
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, None, &c);
        let (bs, rate) = s
            .write_target(ContentClass::SemiInteractiveRead, &set([]))
            .unwrap();
        assert_eq!(bs, NodeId(1));
        assert_eq!(rate, 50.0);
    }

    #[test]
    fn interactive_write_uses_min_both() {
        let metrics = [m(0, 100.0, 5.0), m(1, 40.0, 40.0)];
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, None, &c);
        let (bs, rate) = s.write_target(ContentClass::Interactive, &set([])).unwrap();
        assert_eq!(bs, NodeId(1));
        assert_eq!(rate, 40.0);
    }

    #[test]
    fn exclusions_are_honored() {
        let metrics = [m(0, 50.0, 50.0), m(1, 40.0, 40.0)];
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, None, &c);
        let (bs, _) = s
            .write_target(ContentClass::SemiInteractiveWrite, &set([0]))
            .unwrap();
        assert_eq!(bs, NodeId(1));
    }

    #[test]
    fn replica_never_lands_on_primary() {
        let metrics = [m(0, 50.0, 90.0), m(1, 40.0, 40.0)];
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, None, &c);
        let (bs, _) = s
            .replica_target(ContentClass::SemiInteractiveRead, NodeId(0), &set([]))
            .unwrap();
        assert_eq!(
            bs,
            NodeId(1),
            "server 0 has the best uplink but is the primary"
        );
    }

    #[test]
    fn passive_replica_prefers_dormant_above_threshold() {
        let metrics = [m(0, 50.0, 10.0), m(1, 40.0, 80.0), m(2, 40.0, 95.0)];
        let mut book = EnergyBook::new(
            PowerModelConfig::default(),
            [NodeId(0), NodeId(1), NodeId(2)],
            |_| 1.0,
        );
        book.scale_down(NodeId(1)); // dormant, uplink 80 ≥ 60
        let c = cfg(60.0);
        let s = Selector::new(&metrics, Some(&book), &c);
        let (bs, _) = s
            .replica_target(ContentClass::Passive, NodeId(0), &set([]))
            .unwrap();
        assert_eq!(
            bs,
            NodeId(1),
            "dormant server above R_scale wins over faster active one"
        );
    }

    #[test]
    fn active_content_avoids_passive_reserved_servers() {
        // Server 2 is near idle (uplink ≥ R_scale) → reserved for passive.
        let metrics = [m(0, 30.0, 30.0), m(1, 40.0, 40.0), m(2, 90.0, 90.0)];
        let c = cfg(60.0);
        let s = Selector::new(&metrics, None, &c);
        let (bs, _) = s.write_target(ContentClass::Interactive, &set([])).unwrap();
        assert_eq!(
            bs,
            NodeId(1),
            "the near-idle server is kept for passive data"
        );
        // But passive content goes right there.
        let (bs, _) = s
            .replica_target(ContentClass::Passive, NodeId(0), &set([]))
            .unwrap();
        assert_eq!(bs, NodeId(2));
    }

    #[test]
    fn active_falls_back_to_reserved_when_nothing_else() {
        let metrics = [m(0, 90.0, 90.0)];
        let c = cfg(60.0);
        let s = Selector::new(&metrics, None, &c);
        assert!(s
            .write_target(ContentClass::Interactive, &set([]))
            .is_some());
    }

    #[test]
    fn read_source_picks_fastest_uplink_replica() {
        let metrics = [m(0, 1.0, 20.0), m(1, 1.0, 70.0), m(2, 1.0, 99.0)];
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, None, &c);
        // Only 0 and 1 hold the content.
        let (bs, rate) = s.read_source(&set([0, 1])).unwrap();
        assert_eq!(bs, NodeId(1));
        assert_eq!(rate, 70.0);
    }

    #[test]
    fn read_source_skips_dormant_unless_only_option() {
        let metrics = [m(0, 1.0, 20.0), m(1, 1.0, 70.0)];
        let mut book =
            EnergyBook::new(PowerModelConfig::default(), [NodeId(0), NodeId(1)], |_| 1.0);
        book.scale_down(NodeId(1));
        let c = cfg(f64::INFINITY);
        let s = Selector::new(&metrics, Some(&book), &c);
        let (bs, _) = s.read_source(&set([0, 1])).unwrap();
        assert_eq!(
            bs,
            NodeId(0),
            "active replica preferred over faster dormant one"
        );
        let (only, _) = s.read_source(&set([1])).unwrap();
        assert_eq!(
            only,
            NodeId(1),
            "dormant replica used when it is the only copy"
        );
    }

    #[test]
    fn power_aware_ranking_divides_by_power() {
        let metrics = [m(0, 80.0, 80.0), m(1, 60.0, 60.0)];
        // Server 0 is a power hog (heterogeneity 2.0), server 1 nominal.
        let mut book = EnergyBook::new(PowerModelConfig::default(), [NodeId(0), NodeId(1)], |i| {
            if i == 0 {
                2.0
            } else {
                1.0
            }
        });
        book.tick(1.0, |_| 0.5);
        let c = SelectorConfig {
            r_scale: f64::INFINITY,
            power_aware: true,
        };
        let s = Selector::new(&metrics, Some(&book), &c);
        let (bs, _) = s
            .write_target(ContentClass::SemiInteractiveWrite, &set([]))
            .unwrap();
        assert_eq!(bs, NodeId(1), "80/2P < 60/P: efficiency beats raw rate");
    }

    #[test]
    fn node_set_insert_contains_clear() {
        let mut set = NodeSet::new();
        assert!(set.is_empty());
        assert!(set.insert(NodeId(3)));
        assert!(set.insert(NodeId(130))); // forces a second word
        assert!(!set.insert(NodeId(3)), "duplicate insert reports false");
        assert_eq!(set.len(), 2);
        assert!(set.contains(NodeId(3)));
        assert!(set.contains(NodeId(130)));
        assert!(!set.contains(NodeId(4)));
        assert!(!set.contains(NodeId(4096)), "beyond storage is absent");
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![NodeId(3), NodeId(130)]);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(NodeId(3)));
        assert!(set.insert(NodeId(3)), "cleared set accepts re-insertion");
    }

    #[test]
    fn empty_metrics_select_nothing() {
        let c = cfg(1.0);
        let s = Selector::new(&[], None, &c);
        assert!(s.write_target(ContentClass::Passive, &set([])).is_none());
        assert!(s.read_source(&set([0])).is_none());
    }
}
