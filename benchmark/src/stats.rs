//! The arithmetic every number in the output goes through: medians and
//! percentiles of samples, the simulated-statistics digest, and the
//! regression rule `compare` applies to two sets of runs.

/// Median of `xs` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `q` of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `q` outside `(0, 1]`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(q > 0.0 && q <= 1.0, "percentile rank {q} outside (0, 1]");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method), so `compare` judges spread the way
/// the acceptance procedure does. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let m = xs.len();
    if m < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median; 0 for a single run.
pub fn spread(xs: &[f64]) -> f64 {
    match quartiles(xs) {
        Some((q1, q3)) => (q3 - q1) / median(xs).abs(),
        None => 0.0,
    }
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (throughput).
    Higher,
}

/// What `compare` says about one (metric, workload) row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B's median is worse than A's by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound, so the medians
    /// cannot settle it — unless every run of B beats every run of A.
    Unresolved,
}

/// The regression rule for one row: `a` is the parent's runs, `b` the
/// change's, `bound` the share of A's median by which B may be worse.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let worse_by = match better {
        Better::Lower => (median(b) - median(a)) / median(a).abs(),
        Better::Higher => (median(a) - median(b)) / median(a).abs(),
    };
    let b_always_wins = match better {
        Better::Lower => max(b) < min(a),
        Better::Higher => min(b) > max(a),
    };
    if spread(a).max(spread(b)) > bound && !b_always_wins {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Smallest of `xs`, `+inf` for none.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// 64-bit FNV-1a over the simulated statistics of a run. Two runs with
/// the same digest produced the same flows at the same simulated times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    /// The FNV-1a offset basis.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Fold one 64-bit word in, byte by byte, little end first.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold the bit pattern of a float in.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far, as a word another digest can fold in.
    pub fn value(self) -> u64 {
        self.0
    }

    /// The digest as 16 hex digits.
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        // Fewer samples than the rank resolves: the top sample.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.99), 3.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&xs), 5.5 / 5.5);
        assert_eq!(spread(&[9.0]), 0.0);
    }

    #[test]
    fn judge_applies_bound_in_the_metric_direction() {
        let a = [10.0, 10.1, 9.9, 10.0];
        // 5 % slower against an 8 % bound: fine. 12 % slower: regressed.
        assert_eq!(judge(&a, &[10.5, 10.5], Better::Lower, 0.08), Verdict::Ok);
        assert_eq!(
            judge(&a, &[11.2, 11.2], Better::Lower, 0.08),
            Verdict::Regressed
        );
        // The same numbers as a throughput: higher is better, so a drop
        // regresses and a rise never does.
        assert_eq!(
            judge(&a, &[8.8, 8.8], Better::Higher, 0.08),
            Verdict::Regressed
        );
        assert_eq!(judge(&a, &[20.0, 20.0], Better::Higher, 0.08), Verdict::Ok);
    }

    #[test]
    fn judge_reports_unresolved_when_spread_exceeds_bound() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        assert_eq!(
            judge(&noisy, &[10.0, 10.2, 9.8], Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // ...unless every run of B beats every run of A.
        assert_eq!(
            judge(&noisy, &[7.0, 7.5, 7.9], Better::Lower, 0.05),
            Verdict::Ok
        );
    }

    #[test]
    fn digest_is_fnv1a_and_order_sensitive() {
        // FNV-1a of eight zero bytes.
        let mut d = Digest::new();
        d.word(0);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for _ in 0..8 {
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!(d, Digest(h));

        let mut ab = Digest::new();
        ab.word(1);
        ab.float(2.5);
        let mut ba = Digest::new();
        ba.float(2.5);
        ba.word(1);
        assert_ne!(ab, ba);
        assert_eq!(ab.hex().len(), 16);
        // -0.0 and 0.0 differ in bits, so they differ in the digest.
        let (mut p, mut n) = (Digest::new(), Digest::new());
        p.float(0.0);
        n.float(-0.0);
        assert_ne!(p, n);
    }
}
