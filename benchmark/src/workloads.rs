//! The four replay workloads: which traces a `(workload, seed)` pair
//! stands for. The benchmark receives the seed; the simulator only ever
//! sees the generated [`Scenario`]s.

use scda_experiments::{Scale, Scenario};
use scda_simnet::builders::ThreeTierConfig;
use scda_simnet::units::mbps;
use scda_workloads::SyntheticConfig;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper fig. 7: YouTube traces with control flows on the full
    /// 163×10 fabric. ~30 concurrent flows, so the τ-periodic control
    /// round and the per-step fixed cost of the ticks dominate.
    VideoFull,
    /// Paper fig. 13: datacenter traces at K = 1, all writes. The same
    /// placement layer as the reads, used the other way (`write_target`).
    DcWriteFull,
    /// 10 000 servers with arrivals *and* completions: cold routes, a
    /// 10 k-leaf placement index, an 11 k-node control tree.
    HyperReadChurn,
    /// ~1 k concurrent long flows on the paper fabric: per-flow tick cost
    /// and the per-τ re-window, few admissions.
    BusyFull,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::VideoFull,
        Workload::DcWriteFull,
        Workload::HyperReadChurn,
        Workload::BusyFull,
    ];

    /// The name used on the command line and in every output.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VideoFull => "video_full",
            Workload::DcWriteFull => "dc_write_full",
            Workload::HyperReadChurn => "hyper_read_churn",
            Workload::BusyFull => "busy_full",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Distinct traces per run; replay `i` is generated from `seed + i`.
    /// Sized so one pass over them is about 2 host seconds on a 2 GHz
    /// core: a run then replays each trace many times, and the fastest
    /// replay is the one the host disturbed least. Two traces where one
    /// trace's completion times move more from seed to seed.
    pub fn replays(self, quick: bool) -> u64 {
        if quick {
            return 1;
        }
        match self {
            Workload::VideoFull | Workload::BusyFull => 2,
            Workload::DcWriteFull | Workload::HyperReadChurn => 1,
        }
    }

    /// The traces of one run, generated from `seed`.
    pub fn scenarios(self, seed: u64, quick: bool) -> Vec<Scenario> {
        (0..self.replays(quick))
            .map(|i| self.scenario(seed.wrapping_add(i), quick))
            .collect()
    }

    fn scenario(self, seed: u64, quick: bool) -> Scenario {
        let scale = if quick { Scale::Quick } else { Scale::Full };
        match self {
            Workload::VideoFull => Scenario::video(scale, true, seed),
            Workload::DcWriteFull => Scenario::datacenter(scale, 1.0, seed),
            Workload::HyperReadChurn => hyper_read_churn(seed, quick),
            Workload::BusyFull => busy_full(seed, quick),
        }
    }
}

/// A synthetic Pareto/Poisson trace on a custom fabric: `cfg.duration`
/// seconds of arrivals, then a drain up to `horizon_s`.
fn synthetic(
    name: &str,
    topo: ThreeTierConfig,
    cfg: SyntheticConfig,
    horizon_s: f64,
    seed: u64,
) -> Scenario {
    let workload = SyntheticConfig {
        clients: topo.clients,
        seed,
        ..cfg
    }
    .generate();
    Scenario {
        name: name.into(),
        topo,
        workload,
        duration: horizon_s,
        dt: 0.005,
        tau: 0.05,
        throughput_interval: 1.0,
        seed,
    }
}

fn hyper_read_churn(seed: u64, quick: bool) -> Scenario {
    // Trunk and aggregation are over-provisioned so flows finish and the
    // run has completions as well as arrivals; the cost under test is
    // admission against 10 k servers, not congestion.
    let topo = ThreeTierConfig {
        racks: if quick { 100 } else { 1000 },
        servers_per_rack: 10,
        racks_per_agg: 40,
        clients: 128,
        base_bw_bps: mbps(200.0),
        k_factor: 50.0,
        trunk_mult: 1000.0,
        ..Default::default()
    };
    let cfg = SyntheticConfig {
        duration: if quick { 2.0 } else { 3.0 },
        arrival_rate: 1000.0,
        mean_size: 500_000.0,
        shape: 1.6,
        // 25 MB takes 1 s at X alone on a client link, so the 4 s drain
        // always empties the fabric: no flow fails.
        size_cap: 25_000_000.0,
        write_fraction: 0.5,
        ..Default::default()
    };
    synthetic(
        "hyperscale read/write churn",
        topo,
        cfg,
        if quick { 6.0 } else { 7.0 },
        seed,
    )
}

fn busy_full(seed: u64, quick: bool) -> Scenario {
    let topo = ThreeTierConfig {
        racks: if quick { 16 } else { 163 },
        servers_per_rack: 10,
        racks_per_agg: 28,
        clients: if quick { 128 } else { 1024 },
        base_bw_bps: mbps(50.0),
        k_factor: 500.0,
        trunk_mult: 10_000.0,
        ..Default::default()
    };
    let cfg = SyntheticConfig {
        duration: if quick { 6.0 } else { 40.0 },
        arrival_rate: if quick { 8.0 } else { 60.0 },
        mean_size: 60_000_000.0,
        shape: 1.6,
        size_cap: 100_000_000.0,
        write_fraction: 0.5,
        ..Default::default()
    };
    synthetic(
        "many long flows",
        topo,
        cfg,
        if quick { 60.0 } else { 160.0 },
        seed,
    )
}
