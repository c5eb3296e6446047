//! Multi-seed replication of experiments.
//!
//! The paper reports single runs; a credible reproduction should show the
//! comparison is not a seed artifact. Seeds are embarrassingly parallel,
//! so the sweep fans out over one scoped thread per core — each seed gets
//! its own workload draw and its own RandTCP placement randomness, while
//! SCDA's behavior stays deterministic given the workload.

use serde::Serialize;

use crate::figures::Group;
use crate::runner::ScdaOptions;
use crate::scenario::Scale;

/// Headline metrics of one seeded run pair.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct SeedSummary {
    /// The seed.
    pub seed: u64,
    /// SCDA mean FCT, seconds.
    pub scda_mean_fct: f64,
    /// RandTCP mean FCT, seconds.
    pub randtcp_mean_fct: f64,
    /// SCDA mean per-flow throughput, bytes/s.
    pub scda_throughput: f64,
    /// RandTCP mean per-flow throughput, bytes/s.
    pub randtcp_throughput: f64,
}

impl SeedSummary {
    /// Fractional FCT reduction (0.5 = "50% lower").
    pub fn fct_reduction(&self) -> f64 {
        1.0 - self.scda_mean_fct / self.randtcp_mean_fct
    }

    /// Fractional throughput gain (0.5 = "50% higher").
    pub fn throughput_gain(&self) -> f64 {
        self.scda_throughput / self.randtcp_throughput - 1.0
    }
}

/// Mean ± population standard deviation over seeds.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct Aggregate {
    /// Number of seeds.
    pub n: usize,
    /// Mean FCT reduction.
    pub mean_fct_reduction: f64,
    /// Std-dev of the FCT reduction.
    pub std_fct_reduction: f64,
    /// Mean throughput gain.
    pub mean_throughput_gain: f64,
    /// Std-dev of the throughput gain.
    pub std_throughput_gain: f64,
}

fn mean_std(xs: impl Iterator<Item = f64> + Clone) -> (f64, f64) {
    let n = xs.clone().count() as f64;
    if n == 0.0 {
        return (f64::NAN, f64::NAN);
    }
    let mean = xs.clone().sum::<f64>() / n;
    let var = xs.map(|x| (x - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt())
}

/// Run a figure group across `seeds` in parallel and summarize each:
/// one contiguous chunk of seeds per available core, each chunk on its
/// own scoped thread. The summaries come back sorted by seed.
pub fn run_seeds(group: Group, scale: Scale, seeds: &[u64]) -> Vec<SeedSummary> {
    if seeds.is_empty() {
        return Vec::new();
    }
    let opts = ScdaOptions::default();
    let summarize = |&seed: &u64| {
        let sc = group.scenario(scale, seed);
        let pair = crate::figures::run_pair(&sc, &opts);
        SeedSummary {
            seed,
            scda_mean_fct: pair.scda.fct.mean_fct().unwrap_or(f64::NAN),
            randtcp_mean_fct: pair.randtcp.fct.mean_fct().unwrap_or(f64::NAN),
            scda_throughput: pair.scda.throughput.mean_per_flow(),
            randtcp_throughput: pair.randtcp.throughput.mean_per_flow(),
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = seeds.len().div_ceil(threads);
    let mut out: Vec<SeedSummary> = std::thread::scope(|scope| {
        let workers: Vec<_> = seeds
            .chunks(chunk)
            .map(|part| scope.spawn(|| part.iter().map(summarize).collect::<Vec<_>>()))
            .collect();
        workers
            .into_iter()
            // Re-raise a worker's own panic payload, so the caller sees
            // the failed assertion's message, not `Any { .. }`.
            .flat_map(|w| w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    out.sort_by_key(|s| s.seed);
    out
}

/// Aggregate seed summaries.
pub fn aggregate(summaries: &[SeedSummary]) -> Aggregate {
    let (mr, sr) = mean_std(summaries.iter().map(SeedSummary::fct_reduction));
    let (mg, sg) = mean_std(summaries.iter().map(SeedSummary::throughput_gain));
    Aggregate {
        n: summaries.len(),
        mean_fct_reduction: mr,
        std_fct_reduction: sr,
        mean_throughput_gain: mg,
        std_throughput_gain: sg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_sweep_matches_serial_run() {
        // Determinism across the thread fan-out: the same seed yields the
        // same numbers whether run alone or beside others.
        let seeds = [5u64, 6, 7];
        let parallel = run_seeds(Group::DatacenterK3, Scale::Quick, &seeds);
        let solo = run_seeds(Group::DatacenterK3, Scale::Quick, &[6]);
        let in_pool = parallel.iter().find(|s| s.seed == 6).expect("seed present");
        assert_eq!(in_pool.scda_mean_fct, solo[0].scda_mean_fct);
        assert_eq!(in_pool.randtcp_mean_fct, solo[0].randtcp_mean_fct);
    }

    #[test]
    fn no_seeds_yield_no_summaries() {
        assert!(run_seeds(Group::DatacenterK3, Scale::Quick, &[]).is_empty());
    }

    #[test]
    fn scda_wins_across_every_seed() {
        let summaries = run_seeds(Group::VideoNoControl, Scale::Quick, &[1, 2, 3]);
        for s in &summaries {
            assert!(
                s.fct_reduction() > 0.0,
                "seed {}: SCDA lost ({} vs {})",
                s.seed,
                s.scda_mean_fct,
                s.randtcp_mean_fct
            );
            assert!(s.throughput_gain() > 0.0);
        }
        let agg = aggregate(&summaries);
        assert_eq!(agg.n, 3);
        assert!(
            agg.mean_fct_reduction > 0.2,
            "aggregate reduction too small"
        );
        assert!(agg.std_fct_reduction.is_finite());
    }

    #[test]
    fn mean_std_basics() {
        let (m, s) = mean_std([2.0, 4.0].into_iter());
        assert_eq!(m, 3.0);
        assert_eq!(s, 1.0);
        let (m, s) = mean_std(std::iter::empty());
        assert!(m.is_nan() && s.is_nan());
    }
}
