//! §IX on a general topology: SCDA's cross-layer route + rate selection
//! versus ECMP hashing on a VL2-like Clos.
//!
//! For non-tree fabrics the paper prescribes (via its reference \[7\]) a
//! max/min route algorithm: enumerate the candidate shortest paths, take
//! each path's *minimum* available link rate, and pick the path with the
//! *maximum* such minimum — then allocate that rate explicitly. The
//! baseline is what VL2/Hedera actually do: hash the flow onto one
//! equal-cost path and let TCP find the rate.
//!
//! The SCDA variant's control plane is idealized here as a periodic global
//! water-filling over the placed flows (the §IX RM/RA grouping converges
//! to the same allocation; the tree crates prove that convergence on tree
//! fabrics, so the experiment isolates the *placement* question).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;

use scda_metrics::{jain_index, FctStats, FlowRecord, Utilization};
use scda_simnet::builders::clos;
use scda_simnet::{max_min_rates_into, EcmpRoutes, FlowId, FluidFlow, LinkId, Network};
use scda_transport::{AnyTransport, FlowDriver, Reno, RenoConfig, ScdaWindow};

/// How paths and rates are chosen on the Clos.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum PathPolicy {
    /// Hash the flow onto one equal-cost path; TCP discovers the rate
    /// (the VL2 baseline).
    EcmpHash,
    /// Max/min route selection + explicit rates from periodic global
    /// water-filling (the §IX SCDA).
    MaxMinRoute,
    /// Hedera \[2\]: ECMP-hash mice, centrally place elephants (flows
    /// above the threshold) on the least-committed path — but everyone
    /// still runs TCP. The paper (§XI, citing \[4\]) observes this
    /// "performed comparable to ECMP as most of the contending flows had
    /// less than 100MB of data" — which the test reproduces.
    HederaLike {
        /// Size above which a flow counts as an elephant, bytes.
        elephant_bytes: f64,
    },
}

/// Experiment parameters.
#[derive(Debug, Clone)]
pub struct MultipathConfig {
    /// Racks, servers per rack, aggregation and core switches of the Clos.
    pub racks: usize,
    /// Servers per rack.
    pub servers_per_rack: usize,
    /// Aggregation switches (each edge uplinks to all of them).
    pub aggs: usize,
    /// Core switches.
    pub cores: usize,
    /// Link bandwidth, bits/s.
    pub link_bps: f64,
    /// Flow arrival rate, flows/s (cross-rack pairs drawn uniformly).
    pub arrival_rate: f64,
    /// Flow size, bytes (fixed, so FCT differences are pure placement).
    pub flow_bytes: f64,
    /// Trace duration, seconds.
    pub duration: f64,
    /// Tick, seconds.
    pub dt: f64,
    /// Re-allocation interval for the max/min policy, seconds.
    pub tau: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MultipathConfig {
    fn default() -> Self {
        MultipathConfig {
            racks: 6,
            servers_per_rack: 3,
            aggs: 4,
            cores: 2,
            link_bps: 100e6,
            arrival_rate: 30.0,
            flow_bytes: 2_000_000.0,
            duration: 20.0,
            dt: 0.005,
            tau: 0.05,
            seed: 1,
        }
    }
}

/// What a run reports.
#[derive(Debug)]
pub struct MultipathResult {
    /// Completion times.
    pub fct: FctStats,
    /// Jain fairness index over the per-flow average rates.
    pub fairness: Option<f64>,
    /// Mean utilization of the hottest fabric link.
    pub peak_link_utilization: f64,
    /// Flows completed / offered.
    pub completed: usize,
    /// Flows offered.
    pub offered: usize,
}

/// Run the Clos experiment under one policy.
///
/// # Panics
///
/// Panics if `arrival_rate` or `dt` is not positive and finite, if
/// `duration` is not finite and non-negative, or if the Clos has fewer
/// than two racks or no servers per rack (cross-rack pairs are drawn
/// from it).
pub fn run_multipath(cfg: &MultipathConfig, policy: PathPolicy) -> MultipathResult {
    assert!(
        cfg.arrival_rate > 0.0 && cfg.arrival_rate.is_finite(),
        "arrival_rate must be positive and finite"
    );
    assert!(
        cfg.dt > 0.0 && cfg.dt.is_finite(),
        "dt must be positive and finite"
    );
    assert!(
        cfg.duration >= 0.0 && cfg.duration.is_finite(),
        "duration must be finite and non-negative"
    );
    assert!(cfg.racks >= 2, "cross-rack flows need at least two racks");
    assert!(cfg.servers_per_rack > 0, "racks need at least one server");
    let (topo, servers) = clos(
        cfg.racks,
        cfg.servers_per_rack,
        cfg.aggs,
        cfg.cores,
        cfg.link_bps,
        0.002,
        500_000.0,
    );
    let n_links = topo.link_count();
    let mut ecmp = EcmpRoutes::new(&topo);
    let mut fd = FlowDriver::new(Network::new(topo));
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Pre-draw arrivals.
    let mut arrivals = Vec::new();
    let mut t = 0.0;
    while t < cfg.duration {
        t += -rng.random::<f64>().ln() / cfg.arrival_rate;
        let r1 = rng.random_range(0..cfg.racks);
        let mut r2 = rng.random_range(0..cfg.racks - 1);
        if r2 >= r1 {
            r2 += 1;
        }
        let src = servers[r1][rng.random_range(0..cfg.servers_per_rack)];
        let dst = servers[r2][rng.random_range(0..cfg.servers_per_rack)];
        arrivals.push((t, src, dst));
    }
    let offered = arrivals.len();

    let mut fct = FctStats::new();
    let mut per_flow_rate: Vec<(f64, f64)> = Vec::new(); // (bytes, fct) for fairness
    let mut util = vec![Utilization::new(); n_links];
    let mut next_arrival = 0usize;
    let mut next_id = 0u64;
    let mut next_ctrl = cfg.tau;
    // Per-link offered load of the flows in flight: the committed load an
    // elephant is placed against, then each step's utilization sample.
    let mut loads = vec![0.0_f64; n_links];
    // Scratch: the in-flight flows in id order, their paths and their
    // max/min rates, re-solved and re-installed each τ.
    let mut in_flight: Vec<FlowId> = Vec::new();
    let mut fluid_flows: Vec<FluidFlow> = Vec::new();
    let mut fair_rates: Vec<f64> = Vec::new();
    let horizon = cfg.duration + 30.0;
    let steps = (horizon / cfg.dt).ceil() as u64;
    let link_caps: Vec<f64> = fd
        .net()
        .topo()
        .links()
        .iter()
        .map(|l| l.capacity_bytes())
        .collect();

    for step in 0..steps {
        let now = step as f64 * cfg.dt;

        while next_arrival < arrivals.len() && arrivals[next_arrival].0 <= now {
            let (_, src, dst) = arrivals[next_arrival];
            next_arrival += 1;
            let id = FlowId(next_id);
            next_id += 1;
            let candidates = ecmp.all_paths(fd.net().topo(), src, dst, 16);
            assert!(!candidates.is_empty(), "Clos is connected");
            let best_path = |committed: &[f64]| {
                candidates
                    .iter()
                    .max_by(|a, b| {
                        let avail = |p: &Vec<LinkId>| {
                            p.iter()
                                .map(|&l| link_caps[l.index()] - committed[l.index()])
                                .fold(f64::INFINITY, f64::min)
                        };
                        avail(a).total_cmp(&avail(b))
                    })
                    .expect("non-empty")
                    .clone()
            };
            let path = match policy {
                PathPolicy::EcmpHash => {
                    ecmp.path(fd.net().topo(), src, dst, id).expect("reachable")
                }
                PathPolicy::HederaLike { elephant_bytes } => {
                    if cfg.flow_bytes > elephant_bytes {
                        fd.offered_loads_into(&mut loads);
                        best_path(&loads)
                    } else {
                        ecmp.path(fd.net().topo(), src, dst, id).expect("reachable")
                    }
                }
                PathPolicy::MaxMinRoute => {
                    // Available rate per path = min over links of
                    // (capacity - committed offered load), per the
                    // cross-layer algorithm of reference [7].
                    fd.offered_loads_into(&mut loads);
                    best_path(&loads)
                }
            };
            // Intern the chosen path: ECMP reuses the same few candidate
            // paths across many flows, so each distinct path is priced
            // once and shared by handle.
            let pid = fd.net_mut().intern_path(&path);
            let base_rtt = fd.net().path_rtt(pid);
            let transport = match policy {
                PathPolicy::EcmpHash | PathPolicy::HederaLike { .. } => {
                    AnyTransport::Tcp(Reno::new(RenoConfig {
                        max_cwnd: 8_000_000.0,
                        ..Default::default()
                    }))
                }
                PathPolicy::MaxMinRoute => {
                    // Initial rate: this path's current headroom share.
                    AnyTransport::Scda(ScdaWindow::new(1e6, 1e6, base_rtt))
                }
            };
            fd.start_flow_on(id, src, dst, pid, cfg.flow_bytes, transport, now);
        }

        // Water-filling re-allocation for the max/min policy: solve the
        // flows in flight from scratch over their placed paths each τ.
        if policy == PathPolicy::MaxMinRoute && now + 1e-12 >= next_ctrl {
            next_ctrl += cfg.tau;
            in_flight.clear();
            fluid_flows.clear();
            for (id, _, _) in fd.active_flows() {
                in_flight.push(id);
                fluid_flows.push(FluidFlow::new(fd.net().flow(id).path().to_vec()));
            }
            max_min_rates_into(&link_caps, &fluid_flows, &mut fair_rates);
            for (&id, &rate) in in_flight.iter().zip(&fair_rates) {
                if let Some(AnyTransport::Scda(w)) = fd.transport_mut(id) {
                    w.set_rates(0.95 * rate, 0.95 * rate);
                }
            }
        }

        // Track per-link utilization from current offered rates.
        fd.offered_loads_into(&mut loads);
        for (l, u) in util.iter_mut().enumerate() {
            u.record(loads[l], link_caps[l], cfg.dt);
        }

        let summary = fd.tick(now, cfg.dt);
        for c in &summary.completed {
            fct.push(FlowRecord {
                size_bytes: c.size_bytes,
                start: c.start,
                finish: c.finish,
            });
            per_flow_rate.push((c.size_bytes, c.fct()));
        }
    }

    let rates: Vec<f64> = per_flow_rate.iter().map(|(b, f)| b / f.max(1e-9)).collect();
    MultipathResult {
        completed: fct.len(),
        offered,
        fct,
        fairness: jain_index(&rates),
        peak_link_utilization: util.iter().map(Utilization::mean).fold(0.0, f64::max),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(seed: u64) -> MultipathConfig {
        MultipathConfig {
            duration: 8.0,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn both_policies_complete_their_flows() {
        for policy in [PathPolicy::EcmpHash, PathPolicy::MaxMinRoute] {
            let r = run_multipath(&cfg(3), policy);
            assert!(r.offered > 50);
            assert!(
                r.completed as f64 >= 0.9 * r.offered as f64,
                "{policy:?}: {}/{}",
                r.completed,
                r.offered
            );
        }
    }

    #[test]
    fn maxmin_route_beats_ecmp_hashing() {
        let ecmp = run_multipath(&cfg(5), PathPolicy::EcmpHash);
        let maxmin = run_multipath(&cfg(5), PathPolicy::MaxMinRoute);
        let e = ecmp.fct.mean_fct().expect("completions");
        let m = maxmin.fct.mean_fct().expect("completions");
        assert!(m < e, "max/min routing {m} must beat hashed ECMP {e}");
    }

    #[test]
    fn maxmin_route_tames_the_tail() {
        // Load-aware placement avoids the hashed-collision hotspots that
        // dominate the FCT tail under ECMP.
        let ecmp = run_multipath(&cfg(7), PathPolicy::EcmpHash);
        let maxmin = run_multipath(&cfg(7), PathPolicy::MaxMinRoute);
        let e99 = ecmp.fct.quantile(0.95).expect("completions");
        let m99 = maxmin.fct.quantile(0.95).expect("completions");
        assert!(m99 < e99, "max/min p95 {m99} must beat ECMP p95 {e99}");
        // Fairness is a sane index for both policies.
        for r in [&ecmp, &maxmin] {
            let j = r.fairness.expect("rates exist");
            assert!(j > 0.0 && j <= 1.0);
        }
    }

    #[test]
    fn hedera_with_high_threshold_equals_ecmp() {
        // The §XI observation (citing [4]): with the contending flows all
        // below the elephant threshold, Hedera degenerates to ECMP.
        let c = cfg(9);
        let ecmp = run_multipath(&c, PathPolicy::EcmpHash);
        let hedera = run_multipath(
            &c,
            PathPolicy::HederaLike {
                elephant_bytes: 100e6,
            },
        );
        assert_eq!(
            ecmp.fct.mean_fct(),
            hedera.fct.mean_fct(),
            "identical placement"
        );
    }

    #[test]
    fn hedera_with_low_threshold_improves_on_ecmp_but_not_scda() {
        // Treat everything as an elephant: placement is load-aware, but
        // TCP still probes — better than hashing, worse than explicit
        // rates.
        let c = cfg(11);
        let ecmp = run_multipath(&c, PathPolicy::EcmpHash);
        let hedera = run_multipath(
            &c,
            PathPolicy::HederaLike {
                elephant_bytes: 0.0,
            },
        );
        let scda = run_multipath(&c, PathPolicy::MaxMinRoute);
        let (e, h, s) = (
            ecmp.fct.mean_fct().expect("completions"),
            hedera.fct.mean_fct().expect("completions"),
            scda.fct.mean_fct().expect("completions"),
        );
        assert!(
            h <= e * 1.02,
            "load-aware elephants should not lose: {h} vs {e}"
        );
        assert!(s < h, "explicit rates still win: {s} vs {h}");
    }

    #[test]
    #[should_panic(expected = "arrival_rate must be positive and finite")]
    fn negative_arrival_rate_is_rejected() {
        let c = MultipathConfig {
            arrival_rate: -1.0,
            ..cfg(1)
        };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    #[should_panic(expected = "arrival_rate must be positive and finite")]
    fn infinite_arrival_rate_is_rejected() {
        let c = MultipathConfig {
            arrival_rate: f64::INFINITY,
            ..cfg(1)
        };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    #[should_panic(expected = "dt must be positive and finite")]
    fn zero_dt_is_rejected() {
        let c = MultipathConfig { dt: 0.0, ..cfg(1) };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    #[should_panic(expected = "duration must be finite and non-negative")]
    fn infinite_duration_is_rejected() {
        let c = MultipathConfig {
            duration: f64::INFINITY,
            ..cfg(1)
        };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    #[should_panic(expected = "cross-rack flows need at least two racks")]
    fn one_rack_is_rejected() {
        let c = MultipathConfig { racks: 1, ..cfg(1) };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    #[should_panic(expected = "racks need at least one server")]
    fn empty_racks_are_rejected() {
        let c = MultipathConfig {
            servers_per_rack: 0,
            ..cfg(1)
        };
        run_multipath(&c, PathPolicy::EcmpHash);
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_multipath(&cfg(9), PathPolicy::MaxMinRoute);
        let b = run_multipath(&cfg(9), PathPolicy::MaxMinRoute);
        assert_eq!(a.fct.mean_fct(), b.fct.mean_fct());
    }
}
