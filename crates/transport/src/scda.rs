//! The SCDA explicit-rate transport (§VIII of the paper).
//!
//! SCDA does not probe for bandwidth: the control plane (resource monitors
//! and allocators, `scda-core`) hands each endpoint an explicit rate, and
//! the endpoints translate rates into the ordinary TCP window fields so
//! that **no router, switch or TCP/IP stack change is needed** — the
//! paper's question 5:
//!
//! * the sender sets `cwnd = R_u × RTT` (figure 3, step 12),
//! * the receiver advertises `rcvw = R_d × RTT` (figure 3, step 8),
//! * the effective send window is `min(cwnd, rcvw)` (step 12),
//! * both are refreshed every control interval τ as allocations change
//!   (§VIII-D).
//!
//! Because `window/RTT = rate`, the offered rate is simply the minimum of
//! the two allocated rates; the window formulation matters when the RTT
//! estimate and the true RTT diverge, which the simulation preserves.

use serde::{Deserialize, Serialize};

use crate::Transport;

/// SCDA window state for one flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ScdaWindow {
    /// Sender-side allocated uplink rate `R_u`, bytes/s.
    rate_up: f64,
    /// Receiver-side allocated downlink rate `R_d`, bytes/s.
    rate_down: f64,
    /// RTT estimate used to convert rates to windows; updated from
    /// measured RTT samples (step 8: "the initial value of the RTT can be
    /// updated with more packet arrivals").
    rtt_estimate: f64,
    /// cwnd in bytes (= rate_up × rtt_estimate at the last refresh).
    cwnd: f64,
    /// Receive window in bytes (= rate_down × rtt_estimate).
    rcvw: f64,
}

impl ScdaWindow {
    /// Open a flow with initial allocated rates (bytes/s) and an initial
    /// RTT estimate (seconds), typically the propagation RTT learned from
    /// the connection handshake.
    ///
    /// # Panics
    ///
    /// Panics on non-positive RTT or negative rates.
    pub fn new(rate_up: f64, rate_down: f64, initial_rtt: f64) -> Self {
        assert!(initial_rtt > 0.0, "initial RTT must be positive");
        assert!(
            rate_up >= 0.0 && rate_down >= 0.0,
            "rates must be non-negative"
        );
        let mut w = ScdaWindow {
            rate_up,
            rate_down,
            rtt_estimate: initial_rtt,
            cwnd: 0.0,
            rcvw: 0.0,
        };
        w.refresh_windows();
        w
    }

    /// Install fresh allocations from the control plane (the per-τ update
    /// of §VIII-D), both in bytes/s. Windows are recomputed against the
    /// current RTT estimate.
    pub fn set_rates(&mut self, rate_up: f64, rate_down: f64) {
        debug_assert!(rate_up >= 0.0 && rate_down >= 0.0);
        self.rate_up = rate_up;
        self.rate_down = rate_down;
        self.refresh_windows();
    }

    /// Sender-side allocated rate, bytes/s.
    #[inline]
    pub fn rate_up(&self) -> f64 {
        self.rate_up
    }

    /// Current cwnd in bytes.
    #[inline]
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }

    fn refresh_windows(&mut self) {
        self.cwnd = self.rate_up * self.rtt_estimate;
        self.rcvw = self.rate_down * self.rtt_estimate;
    }
}

impl Transport for ScdaWindow {
    fn offered_rate(&self, rtt: f64) -> f64 {
        debug_assert!(rtt > 0.0);
        // The effective send window is `min(cwnd, rcvw)`.
        self.cwnd.min(self.rcvw) / rtt
    }

    fn on_tick(
        &mut self,
        _now: f64,
        _acked_bytes: f64,
        _offered_bytes: f64,
        _loss_frac: f64,
        rtt: f64,
    ) {
        // EWMA RTT update (standard α = 1/8), then re-derive windows so the
        // window/RTT quotient tracks the allocated rate.
        self.rtt_estimate = 0.875 * self.rtt_estimate + 0.125 * rtt;
        self.refresh_windows();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_rate_times_rtt() {
        let w = ScdaWindow::new(1_000.0, 500.0, 0.1);
        assert!((w.cwnd() - 100.0).abs() < 1e-9);
        assert!((w.rcvw - 50.0).abs() < 1e-9);
        assert!((w.cwnd.min(w.rcvw) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn offered_rate_is_min_of_rates_at_true_rtt() {
        let w = ScdaWindow::new(1_000.0, 500.0, 0.1);
        // With the RTT estimate equal to the true RTT, offered = min rates.
        assert!((w.offered_rate(0.1) - 500.0).abs() < 1e-9);
    }

    #[test]
    fn set_rates_refreshes_windows() {
        let mut w = ScdaWindow::new(1_000.0, 1_000.0, 0.1);
        w.set_rates(2_000.0, 3_000.0);
        assert!((w.cwnd() - 200.0).abs() < 1e-9);
        assert!((w.rcvw - 300.0).abs() < 1e-9);
        assert!((w.offered_rate(0.1) - 2_000.0).abs() < 1e-9);
    }

    #[test]
    fn rtt_estimate_converges_to_measured() {
        let mut w = ScdaWindow::new(1_000.0, 1_000.0, 0.01);
        for _ in 0..200 {
            w.on_tick(0.0, 0.0, 0.0, 0.0, 0.2);
        }
        // After convergence the offered rate at the measured RTT matches
        // the allocation again.
        assert!((w.offered_rate(0.2) - 1_000.0).abs() < 1.0);
    }

    #[test]
    fn zero_rate_sends_nothing() {
        let w = ScdaWindow::new(0.0, 1_000.0, 0.1);
        assert_eq!(w.offered_rate(0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "RTT")]
    fn zero_rtt_rejected() {
        ScdaWindow::new(1.0, 1.0, 0.0);
    }
}
