//! Sampling distributions for the workload generators.
//!
//! `rand_distr` supplies the standard families (Exp, LogNormal); the
//! bounded Pareto and the empirical CDF are hand-rolled because the paper
//! needs them in forms the crate does not offer (a Pareto parameterized by
//! *mean* with an upper bound, and a step-CDF over trace buckets).

use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};

/// Pareto distribution parameterized by its **mean** and shape, optionally
/// truncated. The paper's §X-B workload is "Pareto distributed with mean
/// 500KB and shape parameter of 1.6".
#[derive(Debug, Clone)]
pub struct BoundedPareto {
    /// Scale `x_m` (minimum value), derived from the requested mean.
    pub x_m: f64,
    /// Shape `a` (tail exponent).
    pub shape: f64,
    /// Upper truncation bound (`f64::INFINITY` = untruncated).
    pub bound: f64,
}

impl BoundedPareto {
    /// From mean and shape: `x_m = mean · (a − 1) / a` (requires `a > 1`
    /// for the mean to exist).
    ///
    /// # Panics
    ///
    /// Panics if `shape <= 1` or `mean <= 0`.
    pub fn from_mean(mean: f64, shape: f64) -> Self {
        assert!(shape > 1.0, "Pareto mean requires shape > 1");
        assert!(mean > 0.0);
        BoundedPareto {
            x_m: mean * (shape - 1.0) / shape,
            shape,
            bound: f64::INFINITY,
        }
    }

    /// Truncate samples at `bound` (resampling the CDF, not clipping, so
    /// no probability mass piles up at the bound).
    pub fn with_bound(mut self, bound: f64) -> Self {
        assert!(bound > self.x_m, "bound must exceed the scale");
        self.bound = bound;
        self
    }

    /// Draw one sample by inverse-CDF.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // For the truncated Pareto, invert the renormalized CDF:
        // F(x) = (1 - (xm/x)^a) / (1 - (xm/b)^a).
        let u: f64 = rng.random::<f64>();
        let a = self.shape;
        if self.bound.is_infinite() {
            self.x_m / (1.0 - u).powf(1.0 / a)
        } else {
            let tail = (self.x_m / self.bound).powf(a);
            let denom = 1.0 - tail;
            self.x_m / (1.0 - u * denom).powf(1.0 / a)
        }
    }
}

/// A Poisson arrival process: exponential inter-arrival times of the given
/// mean rate (events/second). §X-B uses "Poisson distributed with mean 200
/// flows/sec".
#[derive(Debug, Clone)]
pub struct PoissonProcess {
    exp: Exp<f64>,
}

impl PoissonProcess {
    /// A process with `rate` events/second.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn new(rate: f64) -> Self {
        PoissonProcess {
            exp: Exp::new(rate).expect("rate must be positive"),
        }
    }

    /// Next inter-arrival gap in seconds.
    fn next_gap<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.exp.sample(rng)
    }

    /// All arrival instants in `[0, duration)`.
    pub fn arrivals<R: Rng + ?Sized>(&self, duration: f64, rng: &mut R) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = self.next_gap(rng);
        while t < duration {
            out.push(t);
            t += self.next_gap(rng);
        }
        out
    }
}

/// Log-normal parameterized by **median** and `sigma` (the natural-log
/// standard deviation) — the body of both trace models.
#[derive(Debug, Clone)]
pub struct LogNormalByMedian {
    inner: LogNormal<f64>,
}

impl LogNormalByMedian {
    /// `median > 0`, `sigma > 0`.
    pub fn new(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0 && sigma > 0.0);
        LogNormalByMedian {
            inner: LogNormal::new(median.ln(), sigma).expect("valid lognormal"),
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.inner.sample(rng)
    }
}

/// An empirical step-CDF over `(value, cumulative_probability)` points —
/// the shape a published trace table provides.
#[derive(Debug, Clone)]
pub struct EmpiricalCdf {
    points: Vec<(f64, f64)>,
}

impl EmpiricalCdf {
    /// Build from `(value, cumulative probability)` pairs; probabilities
    /// must be non-decreasing and end at 1.0.
    ///
    /// # Panics
    ///
    /// Panics on empty input, decreasing probabilities, or a final
    /// cumulative probability not equal to 1.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty());
        let mut prev = 0.0;
        for &(_, p) in &points {
            assert!(p >= prev, "cumulative probabilities must be non-decreasing");
            prev = p;
        }
        assert!(
            (prev - 1.0).abs() < 1e-9,
            "CDF must end at 1.0, ends at {prev}"
        );
        EmpiricalCdf { points }
    }

    /// Sample with linear interpolation between bucket boundaries.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = rng.random::<f64>();
        let mut lo_v = 0.0;
        let mut lo_p = 0.0;
        for &(v, p) in &self.points {
            if u <= p {
                if p - lo_p < 1e-12 {
                    return v;
                }
                let frac = (u - lo_p) / (p - lo_p);
                return lo_v + frac * (v - lo_v);
            }
            lo_v = v;
            lo_p = p;
        }
        self.points.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    #[test]
    fn pareto_mean_matches_request() {
        let d = BoundedPareto::from_mean(500_000.0, 1.6);
        let mut r = rng();
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64;
        // Shape 1.6 has huge variance; accept 15% of target.
        assert!(
            (mean - 500_000.0).abs() < 75_000.0,
            "empirical mean {mean} too far from 500000"
        );
    }

    #[test]
    fn pareto_minimum_is_scale() {
        let d = BoundedPareto::from_mean(500_000.0, 1.6);
        assert!((d.x_m - 500_000.0 * 0.6 / 1.6).abs() < 1e-6);
        let mut r = rng();
        for _ in 0..1000 {
            assert!(d.sample(&mut r) >= d.x_m);
        }
    }

    #[test]
    fn bounded_pareto_respects_bound() {
        let d = BoundedPareto::from_mean(500_000.0, 1.6).with_bound(2_000_000.0);
        let mut r = rng();
        for _ in 0..10_000 {
            let x = d.sample(&mut r);
            assert!(x >= d.x_m && x <= 2_000_000.0);
        }
    }

    #[test]
    #[should_panic(expected = "shape > 1")]
    fn pareto_shape_below_one_rejected() {
        BoundedPareto::from_mean(1.0, 0.9);
    }

    #[test]
    fn poisson_rate_matches() {
        let p = PoissonProcess::new(200.0);
        let mut r = rng();
        let arr = p.arrivals(50.0, &mut r);
        let rate = arr.len() as f64 / 50.0;
        assert!((rate - 200.0).abs() < 10.0, "empirical rate {rate}");
        // Arrivals sorted and in-range.
        for w in arr.windows(2) {
            assert!(w[0] <= w[1]);
        }
        assert!(arr.last().copied().unwrap_or(0.0) < 50.0);
    }

    #[test]
    fn lognormal_median_matches() {
        let d = LogNormalByMedian::new(4000.0, 2.0);
        let mut r = rng();
        let mut xs: Vec<f64> = (0..50_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(f64::total_cmp);
        let med = xs[25_000];
        assert!((med / 4000.0 - 1.0).abs() < 0.1, "median {med}");
    }

    #[test]
    fn empirical_cdf_interpolates() {
        let c = EmpiricalCdf::new(vec![(10.0, 0.5), (20.0, 1.0)]);
        let mut r = rng();
        let mut below = 0;
        let n = 10_000;
        for _ in 0..n {
            let x = c.sample(&mut r);
            assert!((0.0..=20.0).contains(&x));
            if x <= 10.0 {
                below += 1;
            }
        }
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.05, "P(x <= 10) = {frac}");
    }

    #[test]
    #[should_panic(expected = "end at 1.0")]
    fn incomplete_cdf_rejected() {
        EmpiricalCdf::new(vec![(10.0, 0.5)]);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let d = BoundedPareto::from_mean(1000.0, 2.0);
        let a: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(1);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = StdRng::seed_from_u64(1);
            (0..10).map(|_| d.sample(&mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
