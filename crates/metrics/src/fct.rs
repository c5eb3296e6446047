//! Flow-completion-time statistics: the CDF (figures 8, 11, 14, 16, 18)
//! and the AFCT-by-file-size curves (figures 9, 12, 13, 15).

use serde::{Deserialize, Serialize};

/// One finished transfer.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FlowRecord {
    /// Content size in bytes.
    pub size_bytes: f64,
    /// Request/start time in seconds.
    pub start: f64,
    /// Completion time in seconds.
    pub finish: f64,
}

impl FlowRecord {
    /// Flow completion time.
    #[inline]
    pub fn fct(&self) -> f64 {
        self.finish - self.start
    }
}

/// A collection of completed flows with derived statistics.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct FctStats {
    records: Vec<FlowRecord>,
}

/// One bin of the AFCT-by-size curve.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SizeBin {
    /// Inclusive lower size bound, bytes.
    pub lo: f64,
    /// Exclusive upper size bound, bytes.
    pub hi: f64,
    /// Average FCT of flows in the bin, seconds.
    pub afct: f64,
    /// Number of flows in the bin.
    pub count: usize,
}

impl SizeBin {
    /// Bin midpoint in bytes (the figure's x coordinate).
    #[inline]
    pub fn center(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }
}

impl FctStats {
    /// Empty collection.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completion.
    pub fn push(&mut self, r: FlowRecord) {
        debug_assert!(r.finish >= r.start, "negative FCT");
        self.records.push(r);
    }

    /// Number of completions.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing completed.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// All records.
    pub fn records(&self) -> &[FlowRecord] {
        &self.records
    }

    /// Mean FCT (the AFCT over everything), or `None` when empty.
    pub fn mean_fct(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(self.records.iter().map(FlowRecord::fct).sum::<f64>() / self.records.len() as f64)
    }

    /// The `q`-quantile of FCT (`0.5` = median), or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q));
        if self.records.is_empty() {
            return None;
        }
        let mut fcts: Vec<f64> = self.records.iter().map(FlowRecord::fct).collect();
        fcts.sort_by(f64::total_cmp);
        let idx = ((fcts.len() - 1) as f64 * q).round() as usize;
        Some(fcts[idx])
    }

    /// The empirical FCT CDF sampled at `points` evenly spaced x values
    /// from 0 to `x_max` — the exact series the paper's CDF figures plot.
    pub fn cdf(&self, x_max: f64, points: usize) -> Vec<(f64, f64)> {
        assert!(points >= 2 && x_max > 0.0);
        let mut fcts: Vec<f64> = self.records.iter().map(FlowRecord::fct).collect();
        fcts.sort_by(f64::total_cmp);
        let n = fcts.len();
        (0..points)
            .map(|i| {
                let x = x_max * i as f64 / (points - 1) as f64;
                let below = fcts.partition_point(|&f| f <= x);
                let p = if n == 0 { 0.0 } else { below as f64 / n as f64 };
                (x, p)
            })
            .collect()
    }

    /// AFCT per size bin: `bins` equal-width bins over `[0, size_max)`.
    /// Empty bins are omitted (the paper's AFCT curves only have points
    /// where flows of that size finished within simulation time).
    pub fn afct_by_size(&self, size_max: f64, bins: usize) -> Vec<SizeBin> {
        assert!(bins >= 1 && size_max > 0.0);
        let width = size_max / bins as f64;
        let mut sums = vec![0.0; bins];
        let mut counts = vec![0usize; bins];
        for r in &self.records {
            let b = ((r.size_bytes / width) as usize).min(bins - 1);
            sums[b] += r.fct();
            counts[b] += 1;
        }
        (0..bins)
            .filter(|&b| counts[b] > 0)
            .map(|b| SizeBin {
                lo: b as f64 * width,
                hi: (b + 1) as f64 * width,
                afct: sums[b] / counts[b] as f64,
                count: counts[b],
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(size: f64, fct: f64) -> FlowRecord {
        FlowRecord {
            size_bytes: size,
            start: 10.0,
            finish: 10.0 + fct,
        }
    }

    #[test]
    fn mean_and_quantiles() {
        let mut s = FctStats::new();
        for fct in [1.0, 2.0, 3.0, 4.0] {
            s.push(rec(100.0, fct));
        }
        assert_eq!(s.mean_fct(), Some(2.5));
        assert_eq!(s.quantile(0.0), Some(1.0));
        assert_eq!(s.quantile(1.0), Some(4.0));
        assert_eq!(s.quantile(0.5), Some(3.0)); // round-half-up index
    }

    #[test]
    fn empty_stats_are_none() {
        let s = FctStats::new();
        assert!(s.mean_fct().is_none());
        assert!(s.quantile(0.5).is_none());
        assert!(s.is_empty());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let mut s = FctStats::new();
        for fct in [0.5, 1.0, 1.5, 2.0, 8.0] {
            s.push(rec(1.0, fct));
        }
        let cdf = s.cdf(10.0, 21);
        assert_eq!(cdf.len(), 21);
        let mut prev = -1.0;
        for &(x, p) in &cdf {
            assert!((0.0..=10.0).contains(&x));
            assert!(p >= prev);
            prev = p;
        }
        assert_eq!(cdf.last().unwrap().1, 1.0);
        // At x = 2.0 four of five flows are done.
        let at2 = cdf.iter().find(|&&(x, _)| (x - 2.0).abs() < 1e-9).unwrap();
        assert!((at2.1 - 0.8).abs() < 1e-9);
    }

    #[test]
    fn cdf_with_truncated_x_max_below_one() {
        let mut s = FctStats::new();
        s.push(rec(1.0, 100.0));
        s.push(rec(1.0, 1.0));
        let cdf = s.cdf(10.0, 11);
        assert_eq!(cdf.last().unwrap().1, 0.5, "slow flow is off the chart");
    }

    #[test]
    fn afct_bins_average_per_size() {
        let mut s = FctStats::new();
        s.push(rec(10.0, 1.0));
        s.push(rec(15.0, 3.0));
        s.push(rec(95.0, 10.0));
        let bins = s.afct_by_size(100.0, 10);
        assert_eq!(bins.len(), 2, "8 empty bins omitted");
        assert_eq!(bins[0].count, 2);
        assert!((bins[0].afct - 2.0).abs() < 1e-9);
        assert!((bins[0].center() - 15.0).abs() < 1e-9);
        assert_eq!(bins[1].count, 1);
        assert_eq!(bins[1].afct, 10.0);
    }

    #[test]
    fn oversize_flows_land_in_last_bin() {
        let mut s = FctStats::new();
        s.push(rec(500.0, 1.0)); // beyond size_max = 100
        let bins = s.afct_by_size(100.0, 10);
        assert_eq!(bins.len(), 1);
        assert_eq!(bins[0].lo, 90.0);
    }
}
