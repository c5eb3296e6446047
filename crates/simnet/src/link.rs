//! Per-link fluid queue state.
//!
//! Each directed link carries a FIFO byte queue integrated forward in time
//! by [`LinkState::advance`]: offered bytes flow in, the link services at
//! capacity, the excess accumulates in the queue, and anything beyond the
//! queue capacity is dropped. The instantaneous queue length is exactly the
//! `Q(t)` the SCDA rate metric (paper eq. 2) reads from the switch, and the
//! arrival counter is the `L(t)`/`Λ(t)` of the simplified metric (eq. 5) —
//! the paper stresses that both are *already maintained by every switch*,
//! which is why SCDA needs no hardware changes; here they are fields the
//! resource monitors read. Those two `f64`s are the whole state: 16 bytes
//! per link, and a tick adds nothing to a link beyond them.

use serde::{Deserialize, Serialize};

use crate::units::{Bytes, BytesPerSec, Seconds};

/// Mutable queue/accounting state of one directed link.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LinkState {
    /// Current FIFO occupancy in bytes (`Q(t)` of Table I). Private:
    /// only [`LinkState::advance`] moves it.
    queue_bytes: f64,
    /// Bytes that arrived since the last [`LinkState::take_arrived`] call
    /// (the `L(t)` of eq. 5, reset every control interval).
    arrived_since_sample: f64,
}

impl LinkState {
    /// Fresh, empty state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Integrate the queue forward by `dt` under an aggregate `offered`
    /// load, a service capacity of `cap` and a queue limit of
    /// `queue_cap`.
    ///
    /// Returns the *drop fraction*: the share of offered bytes that did not
    /// fit. Zero while the queue has room; approaches
    /// `1 - capacity/offered` in saturated steady state, which is what
    /// makes loss-driven transports (TCP) back off to the link rate.
    pub fn advance(
        &mut self,
        offered: BytesPerSec,
        cap: BytesPerSec,
        queue_cap: Bytes,
        dt: Seconds,
    ) -> f64 {
        debug_assert!(offered.get() >= 0.0 && dt.get() >= 0.0);
        let inflow = (offered * dt).get();
        let service = (cap * dt).get();
        self.arrived_since_sample += inflow;

        let before = self.queue_bytes + inflow;
        let serviced = before.min(service);
        let mut q = before - serviced;
        let mut drop_frac = 0.0;
        let queue_cap = queue_cap.get();
        if q > queue_cap {
            let dropped = q - queue_cap;
            q = queue_cap;
            if inflow > 0.0 {
                drop_frac = (dropped / inflow).min(1.0);
            }
        }
        self.queue_bytes = q;
        drop_frac
    }

    /// Current FIFO occupancy in bytes (`Q(t)` of Table I).
    #[inline]
    pub fn queue_bytes(&self) -> f64 {
        self.queue_bytes
    }

    /// Queueing delay a byte entering now would experience, in seconds.
    #[inline]
    pub fn queueing_delay(&self, cap_bytes_per_s: f64) -> f64 {
        if cap_bytes_per_s > 0.0 {
            self.queue_bytes / cap_bytes_per_s
        } else {
            0.0
        }
    }

    /// Read and reset the arrival counter (bytes since the previous call) —
    /// the per-control-interval `L(t)` of the simplified rate metric.
    pub fn take_arrived(&mut self) -> f64 {
        std::mem::take(&mut self.arrived_since_sample)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// [`LinkState::advance`] on raw `f64`s: offered and capacity in
    /// bytes/s, queue limit in bytes, `dt` in seconds.
    fn advance(l: &mut LinkState, offered: f64, cap: f64, queue_cap: f64, dt: f64) -> f64 {
        l.advance(
            BytesPerSec::new(offered),
            BytesPerSec::new(cap),
            Bytes::new(queue_cap),
            Seconds::new(dt),
        )
    }

    /// The raw-`f64` body `advance` had before its arguments were typed:
    /// `(queue after, drop fraction)`.
    fn raw_advance(queue: f64, offered: f64, cap: f64, queue_cap: f64, dt: f64) -> (f64, f64) {
        let inflow = offered * dt;
        let service = cap * dt;
        let before = queue + inflow;
        let serviced = before.min(service);
        let mut q = before - serviced;
        let mut drop_frac = 0.0;
        if q > queue_cap {
            let dropped = q - queue_cap;
            q = queue_cap;
            if inflow > 0.0 {
                drop_frac = (dropped / inflow).min(1.0);
            }
        }
        (q, drop_frac)
    }

    #[test]
    fn typed_advance_is_bit_identical_to_the_raw_formula() {
        // Idle, underloaded, overloaded and saturated-into-a-full-queue
        // steps, each from an empty, a partial and a full queue.
        let queue_cap = 1500.0;
        for start in [0.0, 700.0, queue_cap] {
            for offered in [0.0, 40.0, 100.0, 1e4, 1.0 / 3.0] {
                for dt in [0.001, 0.7, 5.0] {
                    let mut l = LinkState::new();
                    l.queue_bytes = start;
                    let drop = advance(&mut l, offered, 100.0, queue_cap, dt);
                    let (q, raw_drop) = raw_advance(start, offered, 100.0, queue_cap, dt);
                    assert_eq!(
                        l.queue_bytes.to_bits(),
                        q.to_bits(),
                        "{start} {offered} {dt}"
                    );
                    assert_eq!(drop.to_bits(), raw_drop.to_bits(), "{start} {offered} {dt}");
                }
            }
        }
    }

    #[test]
    fn underload_leaves_queue_empty() {
        let mut l = LinkState::new();
        let drop = advance(&mut l, 50.0, 100.0, 1000.0, 1.0);
        assert_eq!(drop, 0.0);
        assert_eq!(l.queue_bytes, 0.0);
        assert_eq!(l.take_arrived(), 50.0, "all 50 bytes arrived and left");
    }

    #[test]
    fn overload_builds_queue_without_drops_first() {
        let mut l = LinkState::new();
        let drop = advance(&mut l, 150.0, 100.0, 1000.0, 1.0);
        assert_eq!(drop, 0.0);
        assert!((l.queue_bytes - 50.0).abs() < 1e-9);
    }

    #[test]
    fn full_queue_drops_excess() {
        let mut l = LinkState::new();
        // 10 s of 50 B/s excess fills a 100 B queue after 2 s, then drops.
        let mut total_drop_frac = 0.0;
        for _ in 0..10 {
            total_drop_frac += advance(&mut l, 150.0, 100.0, 100.0, 1.0);
        }
        assert!((l.queue_bytes - 100.0).abs() < 1e-9);
        assert!(total_drop_frac > 0.0);
        // Steady-state drop fraction approaches 50/150 = 1/3.
        let last = advance(&mut l, 150.0, 100.0, 100.0, 1.0);
        assert!((last - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn queue_drains_when_idle() {
        let mut l = LinkState::new();
        advance(&mut l, 300.0, 100.0, 1000.0, 1.0); // queue = 200
        advance(&mut l, 0.0, 100.0, 1000.0, 1.0); // drains 100
        assert!((l.queue_bytes - 100.0).abs() < 1e-9);
        advance(&mut l, 0.0, 100.0, 1000.0, 5.0); // fully drains
        assert_eq!(l.queue_bytes, 0.0);
    }

    #[test]
    fn queueing_delay_is_queue_over_capacity() {
        let mut l = LinkState::new();
        advance(&mut l, 200.0, 100.0, 1000.0, 1.0); // queue = 100
        assert!((l.queueing_delay(100.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn take_arrived_resets() {
        let mut l = LinkState::new();
        advance(&mut l, 100.0, 100.0, 1000.0, 2.0);
        assert!((l.take_arrived() - 200.0).abs() < 1e-9);
        assert_eq!(l.take_arrived(), 0.0);
        advance(&mut l, 100.0, 100.0, 1000.0, 0.5);
        assert!(
            (l.take_arrived() - 50.0).abs() < 1e-9,
            "counts from the last take only"
        );
    }

    #[test]
    fn conservation_of_bytes() {
        // arrived = serviced + dropped + still queued, over any history.
        // The ledger is the test's own: arrivals from the offered load,
        // service from the capacity and the queue the link reported
        // before each step, drops from the returned fraction.
        let (cap, queue_cap, dt) = (100.0, 150.0, 0.7);
        let mut l = LinkState::new();
        let (mut arrived, mut serviced, mut dropped) = (0.0, 0.0, 0.0);
        let loads = [0.0, 500.0, 20.0, 300.0, 0.0, 1000.0, 50.0];
        for &r in &loads {
            let inflow = r * dt;
            serviced += (l.queue_bytes() + inflow).min(cap * dt);
            dropped += advance(&mut l, r, cap, queue_cap, dt) * inflow;
            arrived += inflow;
        }
        assert!(dropped > 0.0, "the history must overflow the queue");
        let balance = arrived - serviced - dropped - l.queue_bytes();
        assert!(
            balance.abs() < 1e-6,
            "byte conservation violated: {balance}"
        );
    }
}
