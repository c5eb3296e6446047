//! Layer-direct probes: single public functions of `simnet` and `core`,
//! timed on fresh instances built from the workload's own topology and
//! the endpoints its replay used. They run after the replays and explain
//! the spans; they are not part of any end-to-end number.

use std::hint::black_box;
use std::time::Instant;

use scda_core::{
    ContentClass, ControlTree, LinkSample, NoDiscount, NodeSet, Params, PlaceQuery, PlacementIndex,
    RateCaps, ServerMetrics, Telemetry,
};
use scda_experiments::{ScdaOptions, Scenario};
use scda_simnet::{LinkId, Network, NodeId, Scheduler};

use crate::stats::median;

/// Distinct senders whose first route lookup is timed. A cold lookup
/// costs the same for every sender of one fabric, so a sample is enough
/// (all 10 k of the hyperscale run would double its length).
const ROUTE_SAMPLE: usize = 256;

/// Host seconds a repeating probe keeps going, at least `MIN_ITERS`
/// times.
const PROBE_S: f64 = 0.25;
const MIN_ITERS: usize = 20;

/// Placement queries timed per control round.
const QUERIES: usize = 32;

/// What the probes measured. Times are host time.
#[derive(Debug, Clone, Copy)]
pub struct Probes {
    /// `Network::base_rtt_between`, first lookup from a sender (µs).
    pub route_first_us: f64,
    /// The same lookup repeated (µs).
    pub route_warm_us: f64,
    /// One `Scheduler::at` + `pop_batch_until` at the replay's deepest
    /// pending-start queue (ns).
    pub sched_ns_per_event: f64,
    /// `ControlTree::control_round` + `server_metrics_into` (µs).
    pub control_round_us: f64,
    /// `PlacementIndex::refresh` on the round's metrics (µs).
    pub index_refresh_us: f64,
    /// `PlacementIndex::write_target`, no outstanding-load discount (µs).
    pub index_write_us: f64,
    /// `PlacementIndex::read_best`, no outstanding-load discount (µs).
    pub index_read_us: f64,
}

/// A deterministic mixed load that moves every round: some links
/// queueing, some idle, so the round takes both branches of eq. 2 and
/// the index has changed entries to absorb.
struct MixedLoad {
    round: u32,
}

impl Telemetry for MixedLoad {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        let phase = l.0.wrapping_add(self.round);
        LinkSample {
            queue_bytes: f64::from(phase % 11) * 2e4,
            flow_rate_sum: f64::from(phase % 17) * 2e6,
            arrival_rate: f64::from(phase % 17) * 2e6,
        }
    }

    fn rate_caps(&mut self, _server: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

fn secs_to_us(s: f64) -> f64 {
    s * 1e6
}

/// Run every probe for `sc`'s fabric. `sources` are the replay's
/// distinct senders with a receiver each; `pending_depth` its deepest
/// pending-start queue.
pub fn run(sc: &Scenario, sources: &[(NodeId, NodeId)], pending_depth: usize) -> Probes {
    let (route_first_us, route_warm_us) = routes(sc, sources);
    let (control_round_us, index_refresh_us, index_write_us, index_read_us) = control(sc);
    Probes {
        route_first_us,
        route_warm_us,
        sched_ns_per_event: scheduler(pending_depth.max(1)),
        control_round_us,
        index_refresh_us,
        index_write_us,
        index_read_us,
    }
}

fn routes(sc: &Scenario, sources: &[(NodeId, NodeId)]) -> (f64, f64) {
    let sample = &sources[..sources.len().min(ROUTE_SAMPLE)];
    let mut net = Network::new(sc.topo.build().topo);
    let first: Vec<f64> = sample
        .iter()
        .map(|&(src, dst)| {
            let t = Instant::now();
            black_box(net.base_rtt_between(src, dst));
            secs_to_us(t.elapsed().as_secs_f64())
        })
        .collect();
    // A warm lookup is tens of nanoseconds: time sweeps, not calls.
    let t = Instant::now();
    let mut lookups = 0usize;
    while lookups < MIN_ITERS * sample.len() || t.elapsed().as_secs_f64() < PROBE_S / 5.0 {
        for &(src, dst) in sample {
            black_box(net.base_rtt_between(src, dst));
        }
        lookups += sample.len();
    }
    let warm = secs_to_us(t.elapsed().as_secs_f64()) / lookups as f64;
    (median(&first), warm)
}

fn scheduler(depth: usize) -> f64 {
    const EVENTS: usize = 200_000;
    let step = 1e-3;
    let mut sched: Scheduler<usize> = Scheduler::with_capacity(depth + 1);
    for i in 0..depth {
        sched.at(i as f64 * step, i);
    }
    let mut batch = Vec::with_capacity(4);
    let t = Instant::now();
    for i in 0..EVENTS {
        // One start falls due, one new start is parked behind the rest.
        sched.at((i + depth) as f64 * step, i);
        black_box(sched.pop_batch_until(i as f64 * step, &mut batch));
    }
    t.elapsed().as_nanos() as f64 / EVENTS as f64
}

fn control(sc: &Scenario) -> (f64, f64, f64, f64) {
    let opts = ScdaOptions::default();
    let tree = sc.topo.build();
    let params = Params {
        tau: sc.tau,
        drain_horizon: sc.tau,
        ..opts.params.clone()
    };
    let mut ct = ControlTree::from_three_tier(&tree, params, opts.metric);
    let mut metrics: Vec<ServerMetrics> = Vec::new();
    let mut index = PlacementIndex::new();
    let no_exclusions = NodeSet::new();
    let query = PlaceQuery {
        energy: None,
        cfg: &opts.selector,
        discount: &NoDiscount,
    };
    let mut load = MixedLoad { round: 0 };
    let (mut round_us, mut refresh_us, mut write_us, mut read_us) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    while round_us.len() < MIN_ITERS || started.elapsed().as_secs_f64() < PROBE_S {
        load.round += 1;
        let now = f64::from(load.round) * sc.tau;

        let t = Instant::now();
        black_box(ct.control_round(now, &mut load));
        ct.server_metrics_into(&mut metrics);
        round_us.push(secs_to_us(t.elapsed().as_secs_f64()));

        let t = Instant::now();
        black_box(index.refresh(&metrics));
        refresh_us.push(secs_to_us(t.elapsed().as_secs_f64()));

        let t = Instant::now();
        for _ in 0..QUERIES {
            black_box(index.write_target(
                ContentClass::SemiInteractiveWrite,
                &no_exclusions,
                &query,
            ));
        }
        write_us.push(secs_to_us(t.elapsed().as_secs_f64()) / QUERIES as f64);

        let t = Instant::now();
        for _ in 0..QUERIES {
            black_box(index.read_best(&query));
        }
        read_us.push(secs_to_us(t.elapsed().as_secs_f64()) / QUERIES as f64);
    }
    (
        median(&round_us),
        median(&refresh_us),
        median(&write_us),
        median(&read_us),
    )
}
