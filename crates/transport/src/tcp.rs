//! Reno-style TCP window model.
//!
//! The data plane of the paper's RandTCP baseline. A continuous
//! approximation of TCP Reno evaluated once per simulation tick:
//!
//! * **slow start** — below `ssthresh`, the window grows by one MSS per
//!   acked MSS (doubling per RTT);
//! * **congestion avoidance** — above `ssthresh`, by `MSS²/cwnd` per acked
//!   MSS (one MSS per RTT);
//! * **fast recovery** — a congestion event halves the window and sets
//!   `ssthresh`, at most once per RTT. Because the fluid network reports a
//!   *loss fraction* rather than individual packet drops, lost bytes are
//!   accumulated into whole lost segments per flow, and a congestion event
//!   fires when a full segment has been lost — this keeps loss
//!   rate-proportional (a 2-segment flow on a 1%-loss link rarely loses a
//!   whole segment; an elephant loses many), exactly like packet-level
//!   drops, while staying deterministic;
//! * **timeout** — catastrophic loss (most of the offered bytes dropped)
//!   collapses the window to one MSS and re-enters slow start.
//!
//! This reproduces exactly the TCP pathologies the paper measures against:
//! short flows never leave slow start (inflated FCT, the \[6\] critique the
//! paper cites), long flows saw-tooth around the fair share, and queues sit
//! full at the bottleneck (inflated RTT).

use serde::{Deserialize, Serialize};

use crate::Transport;
use scda_simnet::units::MSS;

/// Tunables for [`Reno`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RenoConfig {
    /// Initial congestion window in bytes (classic Reno: 2 MSS).
    pub initial_cwnd: f64,
    /// Initial slow-start threshold in bytes (effectively "no threshold").
    pub initial_ssthresh: f64,
    /// Hard cap on the window — the receiver's advertised buffer.
    pub max_cwnd: f64,
    /// Loss fraction in one tick above which the event is treated as a
    /// retransmission timeout rather than a fast-retransmit.
    pub timeout_loss_frac: f64,
}

impl Default for RenoConfig {
    fn default() -> Self {
        RenoConfig {
            initial_cwnd: 2.0 * MSS,
            initial_ssthresh: f64::INFINITY,
            max_cwnd: 2_000_000.0,
            timeout_loss_frac: 0.9,
        }
    }
}

/// TCP Reno state for one flow.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Reno {
    cfg: RenoConfig,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// End of the current recovery epoch: further losses before this time
    /// belong to the same congestion event and are ignored.
    recovery_until: f64,
    /// Fractional lost segments accumulated from fluid loss fractions; a
    /// congestion event fires when this reaches one whole segment.
    lost_segments: f64,
}

impl Reno {
    /// A fresh connection.
    pub fn new(cfg: RenoConfig) -> Self {
        let cwnd = cfg.initial_cwnd;
        let ssthresh = cfg.initial_ssthresh;
        Reno {
            cfg,
            cwnd,
            ssthresh,
            recovery_until: f64::NEG_INFINITY,
            lost_segments: 0.0,
        }
    }

    /// Current congestion window in bytes.
    #[inline]
    pub fn cwnd(&self) -> f64 {
        self.cwnd
    }
}

impl Default for Reno {
    fn default() -> Self {
        Reno::new(RenoConfig::default())
    }
}

impl Transport for Reno {
    fn offered_rate(&self, rtt: f64) -> f64 {
        debug_assert!(rtt > 0.0);
        self.cwnd / rtt
    }

    fn on_tick(
        &mut self,
        now: f64,
        acked_bytes: f64,
        offered_bytes: f64,
        loss_frac: f64,
        rtt: f64,
    ) {
        // Convert the fluid loss fraction into whole lost segments so that
        // congestion events stay proportional to the flow's own sending
        // rate (see module docs).
        self.lost_segments += loss_frac * offered_bytes / MSS;
        if self.lost_segments >= 1.0 && now >= self.recovery_until {
            self.lost_segments = 0.0;
            self.ssthresh = (self.cwnd / 2.0).max(2.0 * MSS);
            if loss_frac >= self.cfg.timeout_loss_frac {
                // Retransmission timeout: collapse and slow-start again.
                self.cwnd = MSS;
            } else {
                // Fast retransmit / fast recovery: multiplicative decrease.
                self.cwnd = self.ssthresh;
            }
            // One congestion response per RTT.
            self.recovery_until = now + rtt;
            return;
        }
        // Additive / exponential growth on acked data.
        if self.cwnd < self.ssthresh {
            self.cwnd += acked_bytes; // slow start: +1 MSS per acked MSS
        } else if self.cwnd > 0.0 {
            self.cwnd += MSS * (acked_bytes / self.cwnd); // CA: +MSS per RTT
        }
        self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_in_slow_start_with_two_mss() {
        let t = Reno::default();
        assert!(t.cwnd < t.ssthresh, "in slow start");
        assert!((t.cwnd() - 2.0 * MSS).abs() < 1e-9);
    }

    #[test]
    fn slow_start_doubles_per_rtt() {
        let mut t = Reno::default();
        // Deliver exactly one cwnd worth of bytes (one RTT of acks).
        let w0 = t.cwnd();
        t.on_tick(0.1, w0, w0, 0.0, 0.1);
        assert!((t.cwnd() - 2.0 * w0).abs() < 1e-9);
    }

    #[test]
    fn congestion_avoidance_adds_one_mss_per_rtt() {
        let mut t = Reno::new(RenoConfig {
            initial_cwnd: 100.0 * MSS,
            initial_ssthresh: 50.0 * MSS, // already past threshold
            ..Default::default()
        });
        let w0 = t.cwnd();
        t.on_tick(0.1, w0, w0, 0.0, 0.1); // one RTT worth of acks
        assert!((t.cwnd() - (w0 + MSS)).abs() < 1e-6);
    }

    #[test]
    fn loss_halves_window_once_per_rtt() {
        let mut t = Reno::new(RenoConfig {
            initial_cwnd: 64.0 * MSS,
            ..Default::default()
        });
        let w0 = t.cwnd();
        t.on_tick(1.0, 0.0, 20.0 * MSS, 0.1, 0.2);
        assert!((t.cwnd() - w0 / 2.0).abs() < 1e-9);
        // A second loss 50 ms later (inside the same RTT) is the same event.
        t.on_tick(1.05, 0.0, 20.0 * MSS, 0.1, 0.2);
        assert!((t.cwnd() - w0 / 2.0).abs() < 1e-9);
        // After the recovery epoch, a new loss halves again.
        t.on_tick(1.3, 0.0, 20.0 * MSS, 0.1, 0.2);
        assert!((t.cwnd() - w0 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn catastrophic_loss_is_a_timeout() {
        let mut t = Reno::new(RenoConfig {
            initial_cwnd: 64.0 * MSS,
            ..Default::default()
        });
        t.on_tick(1.0, 0.0, 64.0 * MSS, 0.95, 0.2);
        assert!((t.cwnd() - MSS).abs() < 1e-9);
        assert!(t.cwnd < t.ssthresh, "in slow start");
        assert!((t.ssthresh - 32.0 * MSS).abs() < 1e-9);
    }

    #[test]
    fn window_never_exceeds_receiver_cap() {
        let mut t = Reno::new(RenoConfig {
            max_cwnd: 10.0 * MSS,
            ..Default::default()
        });
        for i in 0..100 {
            let w = t.cwnd();
            t.on_tick(i as f64 * 0.1, w, w, 0.0, 0.1);
        }
        assert!(t.cwnd() <= 10.0 * MSS + 1e-9);
    }

    #[test]
    fn floor_is_one_mss_after_timeout_storms() {
        let mut t = Reno::default();
        for i in 0..20 {
            t.on_tick(i as f64, 0.0, 10.0 * MSS, 1.0, 0.5);
        }
        assert!(t.cwnd() >= MSS - 1e-9);
    }

    #[test]
    fn offered_rate_is_window_over_rtt() {
        let t = Reno::new(RenoConfig {
            initial_cwnd: 1000.0,
            ..Default::default()
        });
        assert!((t.offered_rate(0.1) - 10_000.0).abs() < 1e-9);
    }

    #[test]
    fn sawtooth_under_periodic_loss() {
        // Alternating growth and loss must oscillate, not diverge.
        let mut t = Reno::new(RenoConfig {
            initial_cwnd: 8.0 * MSS,
            initial_ssthresh: 8.0 * MSS,
            ..Default::default()
        });
        let mut peaks = Vec::new();
        let mut now = 0.0;
        for _ in 0..10 {
            for _ in 0..50 {
                now += 0.1;
                let w = t.cwnd();
                t.on_tick(now, w, w, 0.0, 0.1);
            }
            peaks.push(t.cwnd());
            now += 0.1;
            t.on_tick(now, 0.0, 20.0 * MSS, 0.1, 0.1);
        }
        // Peaks settle into a narrow band (pure sawtooth).
        let last = peaks[peaks.len() - 1];
        let prev = peaks[peaks.len() - 2];
        assert!(
            (last - prev).abs() < MSS,
            "peaks {peaks:?} should stabilize"
        );
    }
}
