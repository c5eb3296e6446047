//! Prioritized rate allocation (§IV-A) — the weighted sum of eq. 6 and the
//! adaptive weight update sources use to hit a desired rate.
//!
//! Priorities are multiplicative weights `℘_j` in `S = Σ ℘_j R_j`: a flow
//! with weight 2 is counted as two flows and therefore receives twice the
//! fair share at the fixed point (weighted max-min). The paper shows how a
//! source that wants rate `R*` next round sets `℘ = R*/R_j` — and notes
//! that scheduling policies like shortest-job-first (SJF) and
//! earliest-deadline-first (EDF) fall out of choosing the target rates.

use serde::{Deserialize, Serialize};

/// How a flow's priority weight is derived each control round.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum PriorityPolicy {
    /// Plain max-min: every flow weighs 1.
    Uniform,
    /// Fixed weight (an SLA tier: gold = 4, silver = 2, bronze = 1, ...).
    Fixed(f64),
    /// Shortest-job-first flavor: weight grows as the remaining bytes
    /// shrink, `w = clamp((scale/remaining)^gamma)` — short/nearly-done
    /// flows finish first, emulating SJF in a distributed way.
    ShortestFirst {
        /// Remaining-bytes scale at which the weight is exactly 1.
        scale_bytes: f64,
        /// Sharpness of the preference (1 = inverse-proportional).
        gamma: f64,
    },
    /// Earliest-deadline-first flavor: the weight is chosen so the flow
    /// would finish exactly at its deadline (target rate = remaining /
    /// time-left), normalized by the flow's current rate.
    DeadlineDriven {
        /// Absolute deadline, seconds.
        deadline: f64,
    },
}

/// Bounds applied to every computed weight so no flow can starve the rest.
pub const MIN_WEIGHT: f64 = 0.1;
/// Upper weight bound.
pub const MAX_WEIGHT: f64 = 16.0;

impl PriorityPolicy {
    /// The weight `℘_j` for the coming round.
    ///
    /// * `remaining_bytes` — bytes the flow still has to send;
    /// * `current_rate` — the flow's bottleneck rate `R_j(t)` (bytes/s);
    /// * `now` — simulation time.
    pub fn weight(&self, remaining_bytes: f64, current_rate: f64, now: f64) -> f64 {
        let w = match self {
            PriorityPolicy::Uniform => 1.0,
            PriorityPolicy::Fixed(w) => *w,
            PriorityPolicy::ShortestFirst { scale_bytes, gamma } => {
                (scale_bytes / remaining_bytes.max(1.0)).powf(*gamma)
            }
            PriorityPolicy::DeadlineDriven { deadline } => {
                if now >= *deadline {
                    // Past the deadline the flow is a lost cause: shed it to
                    // best-effort so it cannot starve flows that can still
                    // make theirs (EDF's overload pathology otherwise).
                    MIN_WEIGHT
                } else {
                    let target = remaining_bytes / (deadline - now);
                    if current_rate > 0.0 {
                        // ℘ = R*(t+τ)/R_j(t), the paper's adaptive rule —
                        // but a flow whose required boost exceeds the weight
                        // cap cannot meet the deadline even at full boost,
                        // so it is shed rather than clamped.
                        let w = target / current_rate;
                        if w > MAX_WEIGHT {
                            MIN_WEIGHT
                        } else {
                            w
                        }
                    } else {
                        MAX_WEIGHT
                    }
                }
            }
        };
        w.clamp(MIN_WEIGHT, MAX_WEIGHT)
    }
}

/// The paper's explicit weight rule: a source that received `r_current`
/// and wants `r_desired` next round sets `℘ = r_desired / r_current`.
/// Both rates are in bytes/s; the weight is their dimensionless ratio.
#[inline]
pub fn weight_for_target(r_desired: f64, r_current: f64) -> f64 {
    if r_current <= 0.0 {
        MAX_WEIGHT
    } else {
        (r_desired / r_current).clamp(MIN_WEIGHT, MAX_WEIGHT)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_one() {
        assert_eq!(PriorityPolicy::Uniform.weight(1e6, 1e5, 0.0), 1.0);
    }

    #[test]
    fn fixed_is_clamped() {
        assert_eq!(
            PriorityPolicy::Fixed(100.0).weight(1.0, 1.0, 0.0),
            MAX_WEIGHT
        );
        assert_eq!(PriorityPolicy::Fixed(0.0).weight(1.0, 1.0, 0.0), MIN_WEIGHT);
        assert_eq!(PriorityPolicy::Fixed(3.0).weight(1.0, 1.0, 0.0), 3.0);
    }

    #[test]
    fn shortest_first_prefers_small_remainders() {
        let p = PriorityPolicy::ShortestFirst {
            scale_bytes: 1e6,
            gamma: 1.0,
        };
        let short = p.weight(1e5, 0.0, 0.0);
        let long = p.weight(1e8, 0.0, 0.0);
        assert!(short > long);
        assert!((short - 10.0).abs() < 1e-9);
        assert_eq!(long, MIN_WEIGHT);
    }

    #[test]
    fn deadline_driven_matches_target_over_current() {
        // 1 MB left, 10 s to deadline → target 100 KB/s; current 50 KB/s →
        // weight 2.
        let p = PriorityPolicy::DeadlineDriven { deadline: 10.0 };
        let w = p.weight(1e6, 50_000.0, 0.0);
        assert!((w - 2.0).abs() < 1e-9);
    }

    #[test]
    fn past_deadline_sheds_to_best_effort() {
        let p = PriorityPolicy::DeadlineDriven { deadline: 1.0 };
        assert_eq!(p.weight(1e9, 1.0, 5.0), MIN_WEIGHT);
    }

    #[test]
    fn infeasible_deadline_sheds_rather_than_clamps() {
        // 1 GB left, 1 s to go, currently at 1 KB/s: even a MAX_WEIGHT
        // boost cannot save this flow, so it must not steal capacity.
        let p = PriorityPolicy::DeadlineDriven { deadline: 1.0 };
        assert_eq!(p.weight(1e9, 1e3, 0.0), MIN_WEIGHT);
    }

    #[test]
    fn weight_for_target_is_ratio() {
        assert!((weight_for_target(200.0, 100.0) - 2.0).abs() < 1e-9);
        assert_eq!(weight_for_target(1.0, 0.0), MAX_WEIGHT);
    }

    #[test]
    fn weighted_fixed_point_doubles_share() {
        // Two flows, weights 2 and 1, on a 900-capacity link driven through
        // the allocator: the weighted fixed point gives the heavy flow
        // twice the light flow's rate.
        use crate::params::Params;
        use crate::rate_metric::{LinkAllocator, LinkSample, MetricKind};
        let p = Params {
            alpha: 1.0,
            beta: 0.0,
            min_rate: 1.0,
            ..Default::default()
        };
        let mut a = LinkAllocator::new(900.0, MetricKind::Full, &p);
        for _ in 0..200 {
            let adv = a.rate();
            // The heavy source takes ℘ = 2 of the per-unit advertisement,
            // so S = 2·adv + 1·adv.
            a.update(
                &LinkSample {
                    flow_rate_sum: 3.0 * adv,
                    ..Default::default()
                },
                &p,
            );
        }
        // Advertised unit rate converges to 300 → heavy gets 600, light 300.
        assert!((a.rate() - 300.0).abs() < 1.0);
    }
}
