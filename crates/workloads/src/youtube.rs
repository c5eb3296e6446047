//! The YouTube-CDN workload model (§X-A1).
//!
//! The paper replays file-size traces from Torres et al. \[28\] and flow
//! arrival traces from Mori et al. \[22\], split at 5 KB: flows below are
//! HTTP *control* exchanges between the Flash plugin and the content
//! server, flows above are the video transfers themselves, with "a maximum
//! size limit of about 30MB for most YouTube video files" and a handful of
//! larger ones. The proprietary traces are substituted by a synthetic
//! generator matching the published statistics: log-normal video sizes
//! (Cheng et al. \[5\] report a mean around 8-10 MB) truncated at 30 MB for
//! most flows, a small heavy tail reaching the 90 MB the paper's AFCT axis
//! shows, and Poisson arrivals scaled the way the paper scales — to 20 of
//! the 2138 YouTube servers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::dist::{EmpiricalCdf, LogNormalByMedian, PoissonProcess};
use crate::spec::{FlowDirection, FlowKind, FlowSpec, Workload};

/// The published YouTube video-size distribution as a step CDF, digitized
/// from the statistics of Cheng et al. \[5\] and Torres et al. \[28\]
/// (the papers the traces came from): median ≈ 6-8 MB, ~92% under 20 MB,
/// "a maximum size limit of about 30MB for most", a thin tail to ~90 MB.
/// Use with [`YouTubeConfig::use_empirical_sizes`] to replace the
/// log-normal body with the published buckets.
fn published_size_cdf() -> EmpiricalCdf {
    EmpiricalCdf::new(vec![
        (1.0e6, 0.08),
        (3.0e6, 0.25),
        (6.0e6, 0.50),
        (10.0e6, 0.72),
        (20.0e6, 0.92),
        (30.0e6, 0.98),
        (90.0e6, 1.00),
    ])
}

/// Parameters of the YouTube workload generator.
#[derive(Debug, Clone)]
pub struct YouTubeConfig {
    /// Trace duration in seconds (the paper's figures run to 100 s).
    pub duration: f64,
    /// Video-flow arrival rate, flows/second (aggregate across clients).
    pub video_rate: f64,
    /// Control flows generated per video flow (the Flash plugin exchanges
    /// a few HTTP messages before each video).
    pub control_per_video: usize,
    /// Include the control flows (figures 7-9) or not (figures 10-12).
    pub include_control: bool,
    /// Number of client endpoints issuing requests.
    pub clients: usize,
    /// Fraction of requests that are uploads (content ingestion); the rest
    /// are reads.
    pub write_fraction: f64,
    /// Median video size in bytes (log-normal body).
    pub video_median: f64,
    /// Log-normal sigma of the video size body.
    pub video_sigma: f64,
    /// Most videos cap here (paper: ~30 MB).
    pub video_cap: f64,
    /// Probability a video escapes the cap into the uniform 30-90 MB tail.
    pub oversize_prob: f64,
    /// Largest oversize video (the paper's AFCT axis reaches 90 MB).
    pub oversize_max: f64,
    /// Draw video sizes from the published bucket CDF
    /// (`published_size_cdf`) instead of the log-normal body.
    pub use_empirical_sizes: bool,
    /// RNG seed.
    pub seed: u64,
}

impl Default for YouTubeConfig {
    fn default() -> Self {
        YouTubeConfig {
            duration: 100.0,
            video_rate: 10.0,
            control_per_video: 3,
            include_control: true,
            clients: 16,
            write_fraction: 0.3,
            video_median: 6_000_000.0,
            video_sigma: 0.8,
            video_cap: 30_000_000.0,
            oversize_prob: 0.02,
            oversize_max: 90_000_000.0,
            use_empirical_sizes: false,
            seed: 1,
        }
    }
}

/// The 5 KB control/video split the paper classifies traces with.
pub const CONTROL_VIDEO_SPLIT: f64 = 5_000.0;

impl YouTubeConfig {
    /// Generate the workload.
    pub fn generate(&self) -> Workload {
        assert!(self.duration > 0.0 && self.video_rate > 0.0 && self.clients > 0);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let size_dist = LogNormalByMedian::new(self.video_median, self.video_sigma);
        let empirical = published_size_cdf();
        let arrivals = PoissonProcess::new(self.video_rate).arrivals(self.duration, &mut rng);

        let mut flows = Vec::new();
        for t in arrivals {
            let client = rng.random_range(0..self.clients);
            let direction = if rng.random::<f64>() < self.write_fraction {
                FlowDirection::Write
            } else {
                FlowDirection::Read
            };
            if self.include_control {
                // Control exchanges precede the video by tens of ms each.
                for c in 0..self.control_per_video {
                    let dt = 0.02 * (c as f64 + 1.0);
                    let size = rng.random_range(300.0..CONTROL_VIDEO_SPLIT);
                    flows.push(FlowSpec {
                        arrival: (t - dt).max(0.0),
                        size_bytes: size,
                        kind: FlowKind::Control,
                        direction,
                        client,
                    });
                }
            }
            let size = if self.use_empirical_sizes {
                empirical.sample(&mut rng).max(CONTROL_VIDEO_SPLIT)
            } else if rng.random::<f64>() < self.oversize_prob {
                rng.random_range(self.video_cap..self.oversize_max)
            } else {
                // Resample the body until it lands under the cap instead of
                // clipping (no probability spike at exactly 30 MB).
                loop {
                    let s = size_dist.sample(&mut rng);
                    if s <= self.video_cap {
                        break s.max(CONTROL_VIDEO_SPLIT);
                    }
                }
            };
            flows.push(FlowSpec {
                arrival: t,
                size_bytes: size,
                kind: FlowKind::Video,
                direction,
                client,
            });
        }
        Workload::new(flows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_flows_are_below_the_split() {
        let w = YouTubeConfig::default().generate();
        for f in &w.flows {
            match f.kind {
                FlowKind::Control => assert!(f.size_bytes < CONTROL_VIDEO_SPLIT),
                FlowKind::Video => assert!(f.size_bytes >= CONTROL_VIDEO_SPLIT),
                _ => panic!("unexpected kind"),
            }
        }
    }

    #[test]
    fn control_to_video_ratio_matches_config() {
        let cfg = YouTubeConfig {
            control_per_video: 3,
            ..Default::default()
        };
        let w = cfg.generate();
        let control = w
            .flows
            .iter()
            .filter(|f| f.kind == FlowKind::Control)
            .count();
        let video = w.flows.iter().filter(|f| f.kind == FlowKind::Video).count();
        assert_eq!(control, 3 * video);
    }

    #[test]
    fn exclude_control_produces_only_videos() {
        let cfg = YouTubeConfig {
            include_control: false,
            ..Default::default()
        };
        let w = cfg.generate();
        assert!(w.flows.iter().all(|f| f.kind == FlowKind::Video));
        assert!(!w.is_empty());
    }

    #[test]
    fn most_videos_under_cap_few_above() {
        let cfg = YouTubeConfig {
            duration: 500.0,
            seed: 3,
            ..Default::default()
        };
        let w = cfg.generate();
        let videos: Vec<f64> = w
            .flows
            .iter()
            .filter(|f| f.kind == FlowKind::Video)
            .map(|f| f.size_bytes)
            .collect();
        let over = videos.iter().filter(|&&s| s > cfg.video_cap).count();
        let frac = over as f64 / videos.len() as f64;
        assert!(frac < 0.06, "oversize fraction {frac} too high");
        assert!(videos.iter().all(|&s| s <= cfg.oversize_max));
    }

    #[test]
    fn arrival_rate_scales() {
        let cfg = YouTubeConfig {
            video_rate: 20.0,
            duration: 200.0,
            include_control: false,
            ..Default::default()
        };
        let w = cfg.generate();
        let rate = w.len() as f64 / 200.0;
        assert!((rate - 20.0).abs() < 2.0, "rate {rate}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = YouTubeConfig {
            seed: 9,
            ..Default::default()
        }
        .generate();
        let b = YouTubeConfig {
            seed: 9,
            ..Default::default()
        }
        .generate();
        assert_eq!(a.len(), b.len());
        assert_eq!(a.total_bytes(), b.total_bytes());
        let c = YouTubeConfig {
            seed: 10,
            ..Default::default()
        }
        .generate();
        assert_ne!(a.total_bytes(), c.total_bytes());
    }

    #[test]
    fn clients_in_range() {
        let cfg = YouTubeConfig {
            clients: 4,
            ..Default::default()
        };
        let w = cfg.generate();
        assert!(w.flows.iter().all(|f| f.client < 4));
    }

    #[test]
    fn empirical_sizes_match_published_buckets() {
        let cfg = YouTubeConfig {
            use_empirical_sizes: true,
            include_control: false,
            duration: 2000.0,
            seed: 5,
            ..Default::default()
        };
        let w = cfg.generate();
        let sizes: Vec<f64> = w.flows.iter().map(|f| f.size_bytes).collect();
        let frac_under =
            |x: f64| sizes.iter().filter(|&&s| s <= x).count() as f64 / sizes.len() as f64;
        // Published buckets (±4% sampling tolerance).
        assert!(
            (frac_under(6.0e6) - 0.50).abs() < 0.04,
            "median {}",
            frac_under(6.0e6)
        );
        assert!((frac_under(20.0e6) - 0.92).abs() < 0.04);
        assert!((frac_under(30.0e6) - 0.98).abs() < 0.02);
        assert!(sizes.iter().all(|&s| s <= 90.0e6));
    }

    #[test]
    fn arrivals_sorted_and_in_duration() {
        let w = YouTubeConfig::default().generate();
        for pair in w.flows.windows(2) {
            assert!(pair[0].arrival <= pair[1].arrival);
        }
        assert!(w
            .flows
            .iter()
            .all(|f| f.arrival >= 0.0 && f.arrival < 100.0));
    }
}
