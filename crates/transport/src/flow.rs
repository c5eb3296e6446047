//! Per-flow progress accounting shared by every transport.

use scda_simnet::FlowId;
use serde::{Deserialize, Serialize};

/// Progress of one content transfer: how many of its bytes have been
/// delivered end-to-end, and when it started/finished. The flow-completion
/// time (FCT) — the paper's headline metric — is `finish - start`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowProgress {
    /// Network-level flow id.
    pub id: FlowId,
    /// Total content size in bytes.
    pub size_bytes: f64,
    /// Bytes delivered so far.
    pub acked_bytes: f64,
    /// Simulation time the transfer started (after any connection setup).
    pub start: f64,
    /// Completion time, once all bytes are delivered.
    pub finish: Option<f64>,
}

impl FlowProgress {
    /// A fresh transfer of `size_bytes` bytes starting at `start` seconds
    /// of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not strictly positive — zero-byte
    /// transfers have no defined completion time.
    pub fn new(id: FlowId, size_bytes: f64, start: f64) -> Self {
        assert!(size_bytes > 0.0, "flow size must be positive");
        FlowProgress {
            id,
            size_bytes,
            acked_bytes: 0.0,
            start,
            finish: None,
        }
    }

    /// Bytes still to deliver.
    #[inline]
    pub fn remaining(&self) -> f64 {
        (self.size_bytes - self.acked_bytes).max(0.0)
    }

    /// Credit `bytes` of delivered data at time `now`; returns `true` the
    /// first time the flow completes. Over-delivery is clamped (a fluid
    /// tick can slightly overshoot the last byte).
    pub fn on_delivered(&mut self, bytes: f64, now: f64) -> bool {
        if self.finish.is_some() {
            return false;
        }
        self.acked_bytes = (self.acked_bytes + bytes).min(self.size_bytes);
        if self.acked_bytes >= self.size_bytes {
            self.finish = Some(now);
            true
        } else {
            false
        }
    }

    /// Flow completion time, if finished.
    pub fn fct(&self) -> Option<f64> {
        self.finish.map(|f| f - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivery_accumulates_and_completes() {
        let mut f = FlowProgress::new(FlowId(1), 100.0, 1.0);
        assert!(!f.on_delivered(60.0, 2.0));
        assert_eq!(f.remaining(), 40.0);
        assert!(f.on_delivered(40.0, 3.0));
        assert_eq!(f.fct(), Some(2.0));
    }

    #[test]
    fn over_delivery_is_clamped() {
        let mut f = FlowProgress::new(FlowId(1), 100.0, 0.0);
        assert!(f.on_delivered(250.0, 1.5));
        assert_eq!(f.acked_bytes, 100.0);
        assert_eq!(f.fct(), Some(1.5));
    }

    #[test]
    fn completion_fires_only_once() {
        let mut f = FlowProgress::new(FlowId(1), 10.0, 0.0);
        assert!(f.on_delivered(10.0, 1.0));
        assert!(!f.on_delivered(10.0, 2.0));
        assert_eq!(f.finish, Some(1.0), "finish time must not move");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_rejected() {
        FlowProgress::new(FlowId(1), 0.0, 0.0);
    }
}
