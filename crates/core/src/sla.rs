//! SLA violation detection and mitigation (§IV-A).
//!
//! A violation exists when the demand on a link — the weighted flow-rate
//! sum `S(t)` (or measured arrival rate) — exceeds the link's capacity term
//! `α·C − β·Q/d`. Detection happens *every control interval* (milliseconds,
//! the paper's "realtime" claim) at the RM or RA owning the link; this
//! module adds the bookkeeping and the mitigation policy: request more
//! bandwidth (activate a reserve/backup link), reroute, or have the NNS
//! reassign the affected content to a block server with headroom.

use scda_simnet::LinkId;
use serde::{Deserialize, Serialize};

use crate::tree::{CtrlId, Direction};

/// Where in the control tree a violation was seen.
#[derive(Debug, Clone, Copy)]
pub struct ViolationSite {
    /// The RM/RA that detected it.
    pub node: CtrlId,
    /// Its tree level (0 = RM).
    pub level: u8,
    /// The overloaded link.
    pub link: LinkId,
    /// Direction of the overloaded link.
    pub direction: Direction,
}

/// One detected SLA violation.
#[derive(Debug, Clone, Copy)]
pub struct SlaViolation {
    /// Detection time (control-round timestamp).
    pub time: f64,
    /// Where.
    pub site: ViolationSite,
    /// Offered demand, bytes/s.
    pub demand: f64,
    /// The capacity term it exceeded, bytes/s.
    pub capacity_term: f64,
}

impl SlaViolation {
    /// How much extra bandwidth would clear the violation, bytes/s.
    #[inline]
    pub fn shortfall(&self) -> f64 {
        (self.demand - self.capacity_term).max(0.0)
    }
}

/// What the cloud does about a violation (§IV-A lists all three).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Mitigation {
    /// Activate reserve/backup capacity on the violated link: the data
    /// center "can maintain reserve, backup or recovery links to resolve
    /// SLA violations automatically".
    AddBandwidth {
        /// Extra capacity to enable, bytes/s.
        extra: f64,
    },
    /// Ask the NNS to place the affected content on a different block
    /// server with enough available bandwidth.
    ReassignServer,
    /// Alert the administrator: persistent violations mean the cloud needs
    /// more resources.
    Escalate,
}

/// Reserve capacity [`Mitigation::AddBandwidth`] enables beyond the
/// shortfall, as a fraction of it.
const RESERVE_HEADROOM: f64 = 0.25;
/// Violations of the same link within this many seconds count as one
/// episode.
const EPISODE_WINDOW: f64 = 1.0;
/// Episodes on a link before escalating to the administrator.
const ESCALATE_AFTER: usize = 3;

/// Tracks violation episodes and decides mitigations.
#[derive(Debug, Default)]
pub struct SlaMonitor {
    /// Per-link episode log: (link, last episode time, episode count).
    episodes: Vec<(LinkId, f64, usize)>,
}

impl SlaMonitor {
    /// A monitor that has seen no violation.
    pub fn new() -> Self {
        SlaMonitor::default()
    }

    /// Ingest one violation; returns the chosen mitigation.
    ///
    /// Episodes escalate: the first on a link gets reserve bandwidth,
    /// later ones content reassignment, and the `ESCALATE_AFTER`-th
    /// administrator escalation — matching the paper's ladder (automatic
    /// resolution first, "automatically add more resources" last).
    pub fn ingest(&mut self, v: SlaViolation) -> Mitigation {
        let link = v.site.link;
        let entry = self.episodes.iter_mut().find(|(l, ..)| *l == link);
        let count = match entry {
            Some((_, last, count)) => {
                if v.time - *last > EPISODE_WINDOW {
                    *count += 1;
                }
                *last = v.time;
                *count
            }
            None => {
                self.episodes.push((link, v.time, 1));
                1
            }
        };
        if count >= ESCALATE_AFTER {
            Mitigation::Escalate
        } else if count > 1 {
            Mitigation::ReassignServer
        } else {
            Mitigation::AddBandwidth {
                extra: v.shortfall() * (1.0 + RESERVE_HEADROOM),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn violation(t: f64, link: u32, demand: f64, cap: f64) -> SlaViolation {
        SlaViolation {
            time: t,
            site: ViolationSite {
                node: CtrlId(0),
                level: 0,
                link: LinkId(link),
                direction: Direction::Up,
            },
            demand,
            capacity_term: cap,
        }
    }

    #[test]
    fn shortfall_is_excess_demand() {
        let v = violation(0.0, 0, 150.0, 100.0);
        assert_eq!(v.shortfall(), 50.0);
    }

    #[test]
    fn first_episode_adds_bandwidth() {
        let mut m = SlaMonitor::new();
        match m.ingest(violation(0.0, 0, 150.0, 100.0)) {
            Mitigation::AddBandwidth { extra } => {
                assert!((extra - 50.0 * (1.0 + RESERVE_HEADROOM)).abs() < 1e-9)
            }
            other => panic!("expected AddBandwidth, got {other:?}"),
        }
    }

    #[test]
    fn repeat_episodes_escalate() {
        let mut m = SlaMonitor::new();
        let gap = 5.0 * EPISODE_WINDOW;
        m.ingest(violation(0.0, 0, 150.0, 100.0));
        for k in 1..ESCALATE_AFTER - 1 {
            let later = m.ingest(violation(k as f64 * gap, 0, 150.0, 100.0));
            assert_eq!(later, Mitigation::ReassignServer);
        }
        let last = ESCALATE_AFTER - 1;
        let escalated = m.ingest(violation(last as f64 * gap, 0, 150.0, 100.0));
        assert_eq!(escalated, Mitigation::Escalate);
    }

    #[test]
    fn violations_within_window_are_one_episode() {
        let mut m = SlaMonitor::new();
        m.ingest(violation(0.0, 0, 150.0, 100.0));
        // Half a window later: same episode, still first-line mitigation.
        match m.ingest(violation(0.5 * EPISODE_WINDOW, 0, 150.0, 100.0)) {
            Mitigation::AddBandwidth { .. } => {}
            other => panic!("same episode should not escalate: {other:?}"),
        }
        assert_eq!(m.episodes.len(), 1);
    }

    #[test]
    fn links_tracked_independently() {
        let mut m = SlaMonitor::new();
        m.ingest(violation(0.0, 0, 150.0, 100.0));
        let other_link = m.ingest(violation(5.0 * EPISODE_WINDOW, 1, 150.0, 100.0));
        assert!(matches!(other_link, Mitigation::AddBandwidth { .. }));
        assert_eq!(m.episodes.len(), 2);
    }
}
