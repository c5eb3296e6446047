//! The reference the placement index is pinned against.
//!
//! [`Selector`] answers each §VII query (see [`crate::selection`]) with
//! one O(n) scan over a round's [`ServerMetrics`]. Nothing places through
//! it: every placement goes through [`crate::PlacementIndex`], and the
//! index's tests and proptests compare its picks with a fresh
//! `Selector`'s, bit for bit.

use scda_simnet::NodeId;

use crate::content::ContentClass;
use crate::energy::EnergyBook;
use crate::selection::{NodeSet, Rank, SelectorConfig};
use crate::tree::ServerMetrics;

/// Stateless selector over a round's server metrics: the reference O(n)
/// scan. Library code places through [`crate::PlacementIndex`], which is
/// pinned bit-for-bit against this.
pub struct Selector<'a> {
    metrics: &'a [ServerMetrics],
    energy: Option<&'a EnergyBook>,
    cfg: &'a SelectorConfig,
}

impl<'a> Selector<'a> {
    /// A selector over `metrics` (one entry per block server, from
    /// [`crate::tree::ControlTree::server_metrics_into`]). Pass the energy
    /// book to enable dormancy handling and power-aware ranking.
    pub fn new(
        metrics: &'a [ServerMetrics],
        energy: Option<&'a EnergyBook>,
        cfg: &'a SelectorConfig,
    ) -> Self {
        Selector {
            metrics,
            energy,
            cfg,
        }
    }

    fn score(&self, m: &ServerMetrics, rank: Rank) -> f64 {
        let raw = match rank {
            Rank::Down => m.path_down,
            Rank::Up => m.path_up,
            Rank::MinBoth => m.path_down.min(m.path_up),
        };
        if self.cfg.power_aware {
            match self.energy {
                Some(e) => raw / e.power(m.server),
                None => raw,
            }
        } else {
            raw
        }
    }

    fn argmax_where(
        &self,
        rank: Rank,
        excluded: impl Fn(NodeId) -> bool,
        filter: impl Fn(&ServerMetrics) -> bool,
    ) -> Option<(NodeId, f64)> {
        self.metrics
            .iter()
            .filter(|m| !excluded(m.server))
            .filter(|m| filter(m))
            .map(|m| (m.server, self.score(m, rank)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
    }

    fn is_reserved_for_passive(&self, m: &ServerMetrics) -> bool {
        // A near-idle server (high available uplink) that is dormant or
        // dormancy-eligible is held back for passive content.
        m.path_up >= self.cfg.r_scale
    }

    /// Where to **write** new content of the given class (stage 1 of every
    /// §VII strategy). Active content avoids servers reserved for passive
    /// data when any other server is available.
    pub fn write_target(&self, class: ContentClass, exclude: &NodeSet) -> Option<(NodeId, f64)> {
        let rank = match class {
            ContentClass::Interactive => Rank::MinBoth,
            _ => Rank::Down,
        };
        let excluded = |s| exclude.contains(s);
        if class.is_active() {
            // Prefer servers not reserved for passive content...
            if let Some(hit) = self.argmax_where(rank, excluded, |m| {
                !self.is_reserved_for_passive(m) && self.is_usable(m)
            }) {
                return Some(hit);
            }
        }
        // ...but never fail outright if only reserved ones remain.
        self.argmax_where(rank, excluded, |m| self.is_usable(m))
            .or_else(|| self.argmax_where(rank, excluded, |_| true))
    }

    /// Where to **replicate** content already written to `primary`
    /// (stage 2 of §VII-B/C). Semi-interactive and interactive replicas
    /// chase the best uplink so reads are fast; passive replicas go to a
    /// dormant / near-idle server with uplink above `R_scale`. The primary
    /// need not be a member of `exclude`; it is always excluded.
    pub fn replica_target(
        &self,
        class: ContentClass,
        primary: NodeId,
        exclude: &NodeSet,
    ) -> Option<(NodeId, f64)> {
        let excluded = |s| s == primary || exclude.contains(s);
        match class {
            ContentClass::Passive => {
                // Dormant servers whose uplink beats the threshold first,
                // then any server above the threshold, then best uplink.
                self.argmax_where(Rank::Up, excluded, |m| {
                    m.path_up >= self.cfg.r_scale && self.is_dormant(m.server)
                })
                .or_else(|| {
                    self.argmax_where(Rank::Up, excluded, |m| m.path_up >= self.cfg.r_scale)
                })
                .or_else(|| self.argmax_where(Rank::Up, excluded, |_| true))
            }
            ContentClass::Interactive => self
                .argmax_where(Rank::MinBoth, excluded, |m| {
                    !self.is_reserved_for_passive(m) && self.is_usable(m)
                })
                .or_else(|| self.argmax_where(Rank::MinBoth, excluded, |_| true)),
            _ => self
                .argmax_where(Rank::Up, excluded, |m| {
                    !self.is_reserved_for_passive(m) && self.is_usable(m)
                })
                .or_else(|| self.argmax_where(Rank::Up, excluded, |_| true)),
        }
    }

    /// The best replica of `replicas` to **read** from: highest uplink rate
    /// among servers currently able to serve (§VIII-C step 3).
    pub fn read_source(&self, replicas: &NodeSet) -> Option<(NodeId, f64)> {
        let excluded = |s| !replicas.contains(s);
        self.argmax_where(Rank::Up, excluded, |m| self.is_usable(m))
            // Fall back to a dormant replica (it will be woken).
            .or_else(|| self.argmax_where(Rank::Up, excluded, |_| true))
    }

    fn is_dormant(&self, s: NodeId) -> bool {
        self.energy.map(|e| e.is_dormant(s)).unwrap_or(false)
    }

    fn is_usable(&self, m: &ServerMetrics) -> bool {
        match self.energy {
            Some(e) => e.is_active(m.server),
            None => true,
        }
    }
}
