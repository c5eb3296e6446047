//! The SCDA per-link rate metric — equations 2-5 of the paper.
//!
//! Every control interval τ, each resource monitor/allocator computes for
//! its link
//!
//! ```text
//!            α·C − β·Q(t−τ)/d
//!   R(t) = ───────────────────            (eq. 2)
//!              N̂(t−τ)
//!
//!   N̂(t−τ) = S(t) / R(t−τ)               (eq. 3)
//!
//!   S(t)   = Σ_j ℘_j · R_j(t)             (eq. 4 / 6)
//! ```
//!
//! `N̂` is the *effective* number of flows: a flow bottlenecked elsewhere at
//! rate `R_j < R` counts as the fraction `R_j/R < 1`, so the share it
//! cannot use is redistributed — this is exactly what makes the fixed point
//! of the iteration the **max-min fair** allocation (verified against the
//! water-filling solver in the integration tests).
//!
//! The *simplified* variant (eq. 5) avoids per-flow rate reporting by
//! measuring the aggregate arrival rate `Λ = L/τ` at the switch:
//!
//! ```text
//!   R(t) = (α·C − β·Q/d) · R(t−τ) / Λ(t)  (eq. 5)
//! ```
//!
//! (identical to eq. 2 once one substitutes `Λ ≈ S`).

use scda_simnet::units::{Bytes, BytesPerSec};
use serde::{Deserialize, Serialize};

use crate::params::Params;

/// Which rate-metric formula an allocator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Eq. 2: per-flow rate sums `S` reported by RMs up the tree.
    Full,
    /// Eq. 5: switch-measured aggregate arrival rate `Λ`.
    Simplified,
}

/// Per-link allocator state: the `R(t−τ)` iteration of eqs. 2/5.
///
/// # Examples
///
/// Four greedy flows on a 1 MB/s link converge to a 250 KB/s fair share:
///
/// ```
/// use scda_core::{LinkAllocator, LinkSample, MetricKind, Params};
///
/// let params = Params { alpha: 1.0, beta: 0.0, min_rate: 1.0, ..Default::default() };
/// let mut alloc = LinkAllocator::new(1_000_000.0, MetricKind::Full, &params);
/// for _ in 0..100 {
///     let s = 4.0 * alloc.rate(); // every flow sends at the advertisement
///     alloc.update(&LinkSample { flow_rate_sum: s, ..Default::default() }, &params);
/// }
/// assert!((alloc.rate() - 250_000.0).abs() < 1_000.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkAllocator {
    /// Link capacity in bytes/s.
    capacity: f64,
    /// Previous round's allocation `R(t−τ)`, bytes/s.
    r_prev: f64,
    /// Which formula to run.
    kind: MetricKind,
}

/// One control round's telemetry for a link.
#[derive(Debug, Clone, Copy, Default)]
pub struct LinkSample {
    /// Queue length `Q(t−τ)` in bytes.
    pub queue_bytes: f64,
    /// `S(t)` — priority-weighted sum of the current rates of flows on the
    /// link (eq. 4/6), bytes/s. Used by [`MetricKind::Full`].
    pub flow_rate_sum: f64,
    /// `Λ(t)` — measured aggregate arrival rate, bytes/s. Used by
    /// [`MetricKind::Simplified`].
    pub arrival_rate: f64,
}

impl LinkAllocator {
    /// A fresh allocator for a link of `capacity_bytes_per_s`, starting
    /// optimistically at `R(0) = α·C` (an idle link offers everything).
    pub fn new(capacity_bytes_per_s: f64, kind: MetricKind, params: &Params) -> Self {
        assert!(capacity_bytes_per_s > 0.0, "capacity must be positive");
        LinkAllocator {
            capacity: capacity_bytes_per_s,
            r_prev: params.alpha * capacity_bytes_per_s,
            kind,
        }
    }

    /// Capacity in bytes/s.
    #[inline]
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// The current allocation `R(t)` (result of the last [`update`]).
    ///
    /// [`update`]: LinkAllocator::update
    #[inline]
    pub fn rate(&self) -> f64 {
        self.r_prev
    }

    /// Run one control round (eq. 2 or eq. 5) and return the new `R(t)`.
    ///
    /// The result is clamped to `[params.min_rate, capacity]`: the floor
    /// keeps the `S/R` iteration alive through idle periods, the ceiling
    /// keeps a nearly-idle link from advertising more than the wire.
    pub fn update(&mut self, sample: &LinkSample, params: &Params) -> f64 {
        self.r_prev = update_rate(self.capacity, self.r_prev, self.kind, sample, params);
        self.r_prev
    }
}

/// Stateless core of [`LinkAllocator::update`]: one eq. 2/5 step from
/// explicit `capacity` and `r_prev` state, both in bytes/s. The control
/// tree stores per-link allocator state in struct-of-arrays columns and
/// calls this directly; [`LinkAllocator`] delegates here, so the two
/// forms are the same floating-point computation, bit for bit.
#[inline]
pub fn update_rate(
    capacity: f64,
    r_prev: f64,
    kind: MetricKind,
    sample: &LinkSample,
    params: &Params,
) -> f64 {
    let cap_term = params
        .capacity_term(BytesPerSec::new(capacity), Bytes::new(sample.queue_bytes))
        .get();
    let r = match kind {
        MetricKind::Full => {
            // N̂ = S / R(t−τ); an idle link (S = 0) sees N̂ < 1 flow and
            // offers the whole capacity term.
            let n_eff = (sample.flow_rate_sum / r_prev).max(1.0);
            cap_term / n_eff
        }
        MetricKind::Simplified => {
            if sample.arrival_rate <= 0.0 {
                cap_term
            } else {
                cap_term * r_prev / sample.arrival_rate
            }
        }
    };
    // A degraded link may offer less than the configured floor (e.g. a
    // failed port); the floor then collapses to the capacity itself.
    let floor = params.min_rate.min(capacity);
    r.clamp(floor, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> Params {
        Params {
            alpha: 1.0,
            beta: 0.0,
            min_rate: 1.0,
            ..Default::default()
        }
    }

    #[test]
    fn capacity_below_min_rate_does_not_panic() {
        let p = Params::default();
        let mut a = LinkAllocator::new(1e6, MetricKind::Full, &p);
        a.capacity = 1.0; // failed port
        let r = a.update(
            &LinkSample {
                flow_rate_sum: 1e9,
                ..Default::default()
            },
            &p,
        );
        assert!(r <= 1.0 && r > 0.0);
    }

    #[test]
    fn idle_link_offers_full_capacity() {
        let p = params();
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        let r = a.update(&LinkSample::default(), &p);
        assert!((r - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn n_equal_flows_converge_to_fair_share() {
        // 4 greedy flows each sending at the advertised rate: the fixed
        // point of eq. 2 is C/4.
        let p = params();
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        let mut rates = [0.0; 4];
        for _ in 0..50 {
            let adv = a.rate();
            rates = [adv; 4]; // everyone sends at the advertisement
            let s: f64 = rates.iter().sum();
            a.update(
                &LinkSample {
                    flow_rate_sum: s,
                    ..Default::default()
                },
                &p,
            );
        }
        assert!((a.rate() - 250.0).abs() < 1.0, "rate = {}", a.rate());
        let _ = rates;
    }

    #[test]
    fn bottlenecked_elsewhere_flow_counts_fractionally() {
        // 1 greedy flow + 1 flow capped at 100 elsewhere on a 1000-link:
        // max-min gives the greedy flow 900. Eq. 3 counts the capped flow
        // as 100/R < 1 flow.
        let p = params();
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        for _ in 0..200 {
            let adv = a.rate();
            let s = adv + 100.0_f64.min(adv);
            a.update(
                &LinkSample {
                    flow_rate_sum: s,
                    ..Default::default()
                },
                &p,
            );
        }
        assert!(
            (a.rate() - 900.0).abs() < 5.0,
            "converged rate {} should approach 900",
            a.rate()
        );
    }

    #[test]
    fn queue_term_reduces_allocation() {
        let p = Params {
            alpha: 1.0,
            beta: 1.0,
            drain_horizon: 1.0,
            min_rate: 1.0,
            ..Default::default()
        };
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        let r = a.update(
            &LinkSample {
                queue_bytes: 400.0,
                flow_rate_sum: 0.0,
                arrival_rate: 0.0,
            },
            &p,
        );
        assert!((r - 600.0).abs() < 1e-9);
    }

    #[test]
    fn simplified_matches_full_at_fixed_point() {
        // With Λ = S the two formulas share fixed points: run both against
        // 5 greedy flows and compare converged rates.
        let p = params();
        let mut full = LinkAllocator::new(800.0, MetricKind::Full, &p);
        let mut simp = LinkAllocator::new(800.0, MetricKind::Simplified, &p);
        for _ in 0..100 {
            let sf = 5.0 * full.rate();
            let ss = 5.0 * simp.rate();
            full.update(
                &LinkSample {
                    flow_rate_sum: sf,
                    ..Default::default()
                },
                &p,
            );
            simp.update(
                &LinkSample {
                    arrival_rate: ss,
                    ..Default::default()
                },
                &p,
            );
        }
        assert!((full.rate() - simp.rate()).abs() < 1.0);
        assert!((full.rate() - 160.0).abs() < 1.0);
    }

    #[test]
    fn rate_is_clamped_to_capacity_and_floor() {
        let p = Params {
            alpha: 1.0,
            beta: 0.0,
            min_rate: 10.0,
            ..Default::default()
        };
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        // Massive overload drives the raw formula far below the floor.
        a.update(
            &LinkSample {
                flow_rate_sum: 1e9,
                ..Default::default()
            },
            &p,
        );
        assert!(a.rate() >= 10.0);
        // Idle rounds drive it back up, capped at capacity.
        for _ in 0..10 {
            a.update(&LinkSample::default(), &p);
        }
        assert!(a.rate() <= 1000.0);
    }

    #[test]
    fn alpha_scales_offered_capacity() {
        let p = Params {
            alpha: 0.5,
            beta: 0.0,
            min_rate: 1.0,
            ..Default::default()
        };
        let mut a = LinkAllocator::new(1000.0, MetricKind::Full, &p);
        let r = a.update(&LinkSample::default(), &p);
        assert!((r - 500.0).abs() < 1e-9);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// The iteration from any starting telemetry stays within
            /// [min_rate, capacity] — no divergence, no NaN.
            #[test]
            fn allocation_stays_bounded(
                cap in 1e3f64..1e9,
                q in 0.0f64..1e8,
                s in 0.0f64..1e12,
                rounds in 1usize..50,
            ) {
                let p = Params::default();
                let mut a = LinkAllocator::new(cap, MetricKind::Full, &p);
                for _ in 0..rounds {
                    let r = a.update(&LinkSample { queue_bytes: q, flow_rate_sum: s, arrival_rate: 0.0 }, &p);
                    prop_assert!(r.is_finite());
                    prop_assert!(r >= p.min_rate - 1e-9);
                    prop_assert!(r <= cap + 1e-9);
                }
            }

            /// With n greedy flows the fixed point is α·C/n (within the
            /// clamp bounds).
            #[test]
            fn greedy_fixed_point_is_fair_share(
                cap in 1e4f64..1e8,
                n in 1u32..40,
            ) {
                let p = Params { alpha: 1.0, beta: 0.0, min_rate: 1.0, ..Default::default() };
                let mut a = LinkAllocator::new(cap, MetricKind::Full, &p);
                for _ in 0..300 {
                    let s = n as f64 * a.rate();
                    a.update(&LinkSample { flow_rate_sum: s, ..Default::default() }, &p);
                }
                let fair = cap / n as f64;
                prop_assert!((a.rate() - fair).abs() < fair * 0.01,
                    "rate {} vs fair {}", a.rate(), fair);
            }
        }
    }
}
