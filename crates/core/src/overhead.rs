//! Control-plane overhead model (§IV).
//!
//! SCDA's RMs report `S_d`/`S_u` (and reservation sums) to their parents
//! every control interval, and RAs forward level rates back down. The
//! paper proposes a Δ-reporting optimization: "After the first time RM
//! sends its `S_d(t)` and `S_u(t)` values, it can send the difference Δ
//! ... to its parents for all other rounds (if there is a change in the
//! rate values) ... to minimize the overhead." This module quantifies the
//! message load of both schemes so the trade-off can be measured instead
//! of asserted.

use serde::{Deserialize, Serialize};

/// Static description of a control tree's reporting shape.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct TreeShape {
    /// Number of RMs (one per block server).
    pub rms: usize,
    /// Number of RAs (all levels).
    pub ras: usize,
    /// Tree height `h_max` (levels of downward rate fan-out each RM
    /// ultimately receives).
    pub hmax: u8,
}

/// Per-round message accounting.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RoundOverhead {
    /// Upward report messages (RM→RA and RA→RA).
    pub upward_messages: usize,
    /// Downward rate-distribution messages (RA→children).
    pub downward_messages: usize,
    /// Total payload bytes (2 directions × 8-byte rate values per
    /// message, plus the level tag on downward messages).
    pub payload_bytes: usize,
}

impl RoundOverhead {
    /// Total messages per round.
    pub fn total_messages(&self) -> usize {
        self.upward_messages + self.downward_messages
    }
}

/// Overhead of **full reporting**: every RM and RA sends its pair of sums
/// upward, every RA redistributes the level rates downward, every round.
pub fn full_reporting(shape: &TreeShape) -> RoundOverhead {
    // Each non-root node sends one upward message (root has no parent):
    let upward = shape.rms + shape.ras.saturating_sub(1);
    // Each RA sends one message to each child; total parent→child edges =
    // total non-root nodes.
    let downward = shape.rms + shape.ras.saturating_sub(1);
    // Upward payload: S_d + S_u + N̂_d + N̂_u = 4 values; downward: up to
    // h_max (level, rate_d, rate_u) triples.
    let payload = upward * 4 * 8 + downward * (shape.hmax as usize) * 3 * 8;
    RoundOverhead {
        upward_messages: upward,
        downward_messages: downward,
        payload_bytes: payload,
    }
}

/// Overhead of **Δ-reporting**: only nodes whose values changed beyond the
/// reporting threshold send upward, and only changed levels propagate
/// downward. `changed` is the count of changed node-directions this round
/// (e.g. from [`ControlTree::changed_dirs`]); each changed node pair
/// costs one upward message, and the downward fan-out scales by the
/// changed fraction.
///
/// [`ControlTree::changed_dirs`]: crate::tree::ControlTree::changed_dirs
pub fn delta_reporting(shape: &TreeShape, changed_dirs: usize) -> RoundOverhead {
    let nodes = shape.rms + shape.ras;
    // Two directions per node; a node reports if either direction changed.
    let changed_nodes = changed_dirs.div_ceil(2).min(nodes);
    let frac = changed_nodes as f64 / nodes.max(1) as f64;
    let full = full_reporting(shape);
    RoundOverhead {
        upward_messages: (full.upward_messages as f64 * frac).ceil() as usize,
        downward_messages: (full.downward_messages as f64 * frac).ceil() as usize,
        payload_bytes: (full.payload_bytes as f64 * frac).ceil() as usize,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> TreeShape {
        // The default 20-rack tree: 200 RMs, 20+4+1 RAs, h_max = 3.
        TreeShape {
            rms: 200,
            ras: 25,
            hmax: 3,
        }
    }

    #[test]
    fn full_reporting_counts_every_edge() {
        let o = full_reporting(&shape());
        assert_eq!(o.upward_messages, 224);
        assert_eq!(o.downward_messages, 224);
        assert_eq!(o.total_messages(), 448);
        assert!(o.payload_bytes > 0);
    }

    #[test]
    fn quiescent_delta_round_is_nearly_free() {
        let o = delta_reporting(&shape(), 0);
        assert_eq!(o.total_messages(), 0);
        assert_eq!(o.payload_bytes, 0);
    }

    #[test]
    fn fully_changed_delta_equals_full() {
        let s = shape();
        let full = full_reporting(&s);
        let delta = delta_reporting(&s, 2 * (s.rms + s.ras));
        assert_eq!(delta.total_messages(), full.total_messages());
    }

    #[test]
    fn delta_scales_with_change_fraction() {
        let s = shape();
        let quarter = delta_reporting(&s, (s.rms + s.ras) / 2); // ~25% of dirs
        let full = full_reporting(&s);
        let frac = quarter.total_messages() as f64 / full.total_messages() as f64;
        assert!((frac - 0.25).abs() < 0.02, "fraction {frac}");
    }

    #[test]
    fn tiny_tree_edge_cases() {
        let s = TreeShape {
            rms: 1,
            ras: 1,
            hmax: 1,
        };
        let o = full_reporting(&s);
        assert_eq!(o.upward_messages, 1, "single RM reports to its single RA");
        assert_eq!(delta_reporting(&s, 5).total_messages(), o.total_messages());
    }
}
