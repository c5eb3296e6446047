//! SCDA parameters (the paper's Table I).
//!
//! All rates and capacities in the control plane are **bytes/second** (the
//! network layer converts from the bits/second link capacities once); all
//! times are seconds.

use serde::{Deserialize, Serialize};

/// Tunables of the SCDA rate metric and control loop.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Params {
    /// `α` — fraction of link capacity the allocator hands out. Slightly
    /// below 1 keeps queues from building in steady state (same role as
    /// XCP/RCP's utilization target, which the paper's eq. 2 inherits).
    pub alpha: f64,
    /// `β` — gain on queue drain: the allocator subtracts `β·Q/d` so a
    /// standing queue is drained over roughly `d/β` seconds.
    pub beta: f64,
    /// `τ` — control interval in seconds. The paper sets it to the average
    /// (or maximum) RTT of a block server's flows, or a user-defined value.
    pub tau: f64,
    /// `d` — queue-drain horizon in seconds (the divisor of `β·Q/d` in
    /// eqs. 2 and 5). Defaults to `τ`: drain standing queues within one
    /// control interval.
    pub drain_horizon: f64,
    /// Floor on any allocated rate (bytes/s), so a starving flow can always
    /// make progress and the `N̂ = S/R` iteration never divides by zero.
    pub min_rate: f64,
    /// Scale-down threshold `R_scale` (bytes/s): servers whose available
    /// uplink rate exceeds this are considered (nearly) idle and are left
    /// dormant for passive content (§VII-C). User-specified; smaller is a
    /// more aggressive scale-down.
    pub r_scale: f64,
    /// Interactivity window in seconds: content whose reads and writes
    /// interleave within this interval is *interactive* (§VII: "a maximum
    /// interactivity interval of 5 seconds").
    pub interactivity_interval: f64,
    /// One-way latency of a control-plane message hop (RM→RA, NNS→RA, ...).
    /// Used to price the request-serving protocols of figures 3-5.
    pub control_hop_delay: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            alpha: 0.95,
            beta: 0.5,
            tau: 0.05,
            drain_horizon: 0.05,
            min_rate: 16_000.0, // 128 kbit/s floor
            r_scale: 40_000_000.0,
            interactivity_interval: 5.0,
            control_hop_delay: 0.010,
        }
    }
}

impl Params {
    /// The capacity term of eqs. 2 and 5: `α·C − β·Q/d` (bytes/s), floored
    /// at zero. `capacity` in bytes/s, `queue` in bytes.
    #[inline]
    pub fn capacity_term(&self, capacity: f64, queue: f64) -> f64 {
        (self.alpha * capacity - self.beta * queue / self.drain_horizon).max(0.0)
    }

    /// Validate internal consistency; returns a description of the first
    /// problem found. NaN and ±∞ fail every check: an infinite `beta`
    /// would make an idle link's capacity term `∞·0 = NaN`, which the
    /// floor turns into zero capacity.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0 < self.alpha && self.alpha <= 1.0) {
            return Err(format!("alpha must be in (0, 1], got {}", self.alpha));
        }
        if !self.beta.is_finite() || self.beta < 0.0 {
            return Err(format!("beta must be finite and >= 0, got {}", self.beta));
        }
        if !self.tau.is_finite() || self.tau <= 0.0 {
            return Err(format!("tau must be finite and positive, got {}", self.tau));
        }
        if !self.drain_horizon.is_finite() || self.drain_horizon <= 0.0 {
            return Err(format!(
                "drain_horizon must be finite and positive, got {}",
                self.drain_horizon
            ));
        }
        if !self.min_rate.is_finite() || self.min_rate <= 0.0 {
            return Err(format!(
                "min_rate must be finite and positive, got {}",
                self.min_rate
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        Params::default().validate().unwrap();
    }

    #[test]
    fn capacity_term_without_queue_is_alpha_c() {
        let p = Params::default();
        assert!((p.capacity_term(1000.0, 0.0) - 950.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_term_subtracts_queue_drain() {
        let p = Params {
            alpha: 1.0,
            beta: 1.0,
            drain_horizon: 2.0,
            ..Default::default()
        };
        // 1000 B/s capacity, 500 B queue drained over 2 s → 250 B/s reserved.
        assert!((p.capacity_term(1000.0, 500.0) - 750.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_term_floors_at_zero() {
        let p = Params {
            alpha: 1.0,
            beta: 1.0,
            drain_horizon: 0.1,
            ..Default::default()
        };
        assert_eq!(p.capacity_term(100.0, 1_000_000.0), 0.0);
    }

    #[test]
    fn bad_params_rejected() {
        assert!(Params {
            alpha: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            alpha: 1.5,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            beta: -1.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            tau: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
        assert!(Params {
            min_rate: 0.0,
            ..Default::default()
        }
        .validate()
        .is_err());
    }

    #[test]
    fn nan_beta_rejected() {
        let p = Params {
            beta: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("beta"));
        let p = Params {
            beta: f64::INFINITY,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("beta"));
    }

    #[test]
    fn nan_tau_rejected() {
        let p = Params {
            tau: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("tau"));
        let p = Params {
            tau: f64::INFINITY,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("tau"));
    }

    #[test]
    fn nan_drain_horizon_rejected() {
        let p = Params {
            drain_horizon: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("drain_horizon"));
        let p = Params {
            drain_horizon: f64::INFINITY,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("drain_horizon"));
    }

    #[test]
    fn nan_min_rate_rejected() {
        let p = Params {
            min_rate: f64::NAN,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("min_rate"));
        let p = Params {
            min_rate: f64::INFINITY,
            ..Default::default()
        };
        assert!(p.validate().unwrap_err().starts_with("min_rate"));
    }
}
