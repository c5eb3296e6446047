//! scda-perf: canonical performance scenarios under the per-phase
//! profiler, with a machine-checkable regression gate.
//!
//! ```text
//! perf [--full] [--seed S] [--out PATH] [--check BASELINE] [--threshold PCT]
//! ```
//!
//! Runs the repo's canonical cost scenarios and writes one schema'd
//! `BENCH_<n>.json` (schema `scda-bench-v1`):
//!
//! * `control_round_quick` — the τ-periodic RM/RA round (telemetry
//!   sweep, eq. 2 updates, bottom-up aggregation, server-metric
//!   refresh) on the unit-test topology, mirroring
//!   `benches/control_round.rs`;
//! * `control_round_paper` (`--full` only) — the same round at the
//!   paper's figure-6 deployment scale (163 racks × 10 servers);
//! * `control_round_hyperscale` — the arena-layout stress scenario
//!   (DESIGN.md §10): a 1,000-rack × 10-server tree carrying 100 000
//!   concurrent SCDA flows, where every iteration runs a full driver
//!   tick, the offered-load telemetry sweep, the RM/RA control round and
//!   the server-metric refresh on reused arena storage (`--full` runs
//!   more iterations; the quick variant is CI's canary);
//! * `tick_hyperscale` — the incremental max-min stress scenario
//!   (DESIGN.md §11): 100 000 rack-local SCDA flows with the embedded
//!   solver enabled, 64 flow caps re-pinned per iteration, reporting the
//!   `simnet.waterfill` / `simnet.apply` / `kernel.tick` phase split;
//! * `churn_hyperscale` — the admission fast-path scenario (DESIGN.md
//!   §12): 10 000 servers under a sustained open/close stream with
//!   per-round metric drift, running the same admission sequence through
//!   the incremental placement index and the seed-era per-open
//!   rebuild-and-scan path, asserting bit-identical picks and reporting
//!   both arms' admission throughput plus their gated speedup ratio;
//! * `engine_drain_10k` — scheduler drain of 10 000 self-rescheduling
//!   timer events through `run_until_audited`, mirroring
//!   `benches/engine.rs`;
//! * `fig7_e2e_quick` — the figure-7 video-trace SCDA run end-to-end
//!   with observability, audit, and mitigation enabled, reporting
//!   per-phase microseconds, rounds/s, peak active flows, and the SLA
//!   violation / mitigation counters.
//!
//! `--check BASELINE` re-runs the quick scenarios and compares against a
//! committed baseline: behaviour fields (counts the deterministic
//! simulation pins exactly) must match bit-for-bit; timing fields may
//! regress by at most `--threshold` percent (default 400, sized for
//! noisy shared CI runners). Exit status 1 on any regression — this is
//! the `make perf-check` CI gate.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use serde::Value;

use scda_audit::Audit;
use scda_core::rate_metric::LinkSample;
use scda_core::tree::{RateCaps, Telemetry};
use scda_core::{
    ContentClass, ControlTree, MetricKind, NodeSet, Params, PlaceQuery, PlacementIndex,
    RateDiscount, Selector, SelectorConfig, ServerMetrics, SlaPolicy,
};
use scda_experiments::runner::OutstandingDiscount;
use scda_experiments::{run_scda, Scale, ScdaOptions, Scenario};
use scda_obs::{phase, Obs};
use scda_simnet::builders::{ThreeTierConfig, ThreeTierTree};
use scda_simnet::units::SimTime;
use scda_simnet::{run_until_audited, FlowId, LinkId, Network, NodeId, Scheduler, Simulation};
use scda_transport::{AnyTransport, FlowDriver, ScdaWindow};

fn usage() -> ! {
    eprintln!("usage: perf [--full] [--seed S] [--out PATH] [--check BASELINE] [--threshold PCT]");
    std::process::exit(2);
}

/// Deterministic moderate load (same shape as `benches/control_round.rs`):
/// some links queueing, some idle, so the round exercises both the
/// congested and headroom branches of eq. 2.
struct MixedLoad;

impl Telemetry for MixedLoad {
    fn sample(&mut self, l: LinkId) -> LinkSample {
        LinkSample {
            queue_bytes: (l.0 % 11) as f64 * 2e4,
            flow_rate_sum: (l.0 % 17) as f64 * 2e6,
            arrival_rate: (l.0 % 17) as f64 * 2e6,
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

fn scale_config(label: &str) -> ThreeTierConfig {
    match label {
        // The unit-test scale (Scenario Quick): 40 servers.
        "quick" => ThreeTierConfig {
            racks: 8,
            servers_per_rack: 5,
            racks_per_agg: 4,
            clients: 8,
            ..Default::default()
        },
        // The paper's figure-6 deployment: 163 racks × 10 = 1630 servers.
        "paper-163x10" => ThreeTierConfig {
            racks: 163,
            servers_per_rack: 10,
            racks_per_agg: 28,
            clients: 64,
            ..Default::default()
        },
        // The hyperscale arena scenario (DESIGN.md §10): 10 000 servers,
        // ~11k control nodes.
        "hyper-1000x10" => ThreeTierConfig {
            racks: 1000,
            servers_per_rack: 10,
            racks_per_agg: 40,
            clients: 128,
            ..Default::default()
        },
        other => unreachable!("unknown scale {other}"),
    }
}

/// One measured scenario: deterministic behaviour counters compared
/// exactly by `--check`, wall-clock fields held to the threshold.
struct ScenarioResult {
    name: &'static str,
    /// `(key, value)` — exact-match integers.
    behavior: Vec<(&'static str, u64)>,
    /// Total wall-clock seconds (gated: lower is better).
    wall_s: f64,
    /// `(key, rate)` — throughput fields (gated: higher is better).
    rates: Vec<(&'static str, f64)>,
    /// Per-phase microseconds, informational only (not gated).
    phase_us: BTreeMap<String, f64>,
}

fn bench_control_round(name: &'static str, label: &str, iters: u64) -> ScenarioResult {
    let tree = scale_config(label).build();
    let params = Params::default();
    let mut ct = ControlTree::from_three_tier(&tree, params.clone(), MetricKind::Full);
    let mut metrics = Vec::new();
    let mut now = 0.0;
    let mut violations_total = 0u64;
    // Warm one round so lazy allocations don't bill the first sample.
    now += params.tau;
    ct.control_round(now, &mut MixedLoad);
    let obs = Obs::enabled();
    let t0 = Instant::now();
    for _ in 0..iters {
        now += params.tau;
        violations_total += obs.time_phase(phase::CONTROL, || {
            let v = ct.control_round(now, &mut MixedLoad).len() as u64;
            ct.server_metrics_into(&mut metrics);
            v
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ScenarioResult {
        name,
        behavior: vec![
            ("iters", iters),
            ("servers", metrics.len() as u64),
            ("violations_total", violations_total),
        ],
        wall_s,
        rates: vec![("rounds_per_s", iters as f64 / wall_s.max(1e-12))],
        phase_us: phase_us_of(&obs),
    }
}

/// The hyperscale arena scenario: 1,000 racks × 10 servers carrying
/// `flows` concurrent SCDA transfers. Sources are one server per rack
/// (bounding the routing cache to one Dijkstra per rack); destinations
/// sweep the whole fleet, so paths cross ToR, aggregation and core
/// levels. Transfer sizes are effectively infinite — the point is a
/// steady ≥100k-concurrent-flow regime, not completions. Setup (tree
/// build, routing, flow admission) is excluded from the timed window.
fn bench_hyperscale(flows: u64, iters: u64) -> ScenarioResult {
    let tree = scale_config("hyper-1000x10").build();
    let servers = tree.all_servers();
    let n = servers.len();
    let n_links = tree.topo.link_count();
    let params = Params::default();
    let mut ct = ControlTree::from_three_tier(&tree, params.clone(), MetricKind::Full);
    let racks = tree.server_links.len();

    let mut driver = FlowDriver::new(Network::new(tree.topo));
    driver.reserve_flows(flows as usize);
    for i in 0..flows {
        // One source server per rack; destinations stride the fleet with
        // a prime so consecutive flows land on different subtrees.
        let src = servers[(i as usize % racks) * (n / racks)];
        let mut dst = servers[(i as usize * 7919 + n / 2) % n];
        if dst == src {
            dst = servers[(i as usize * 7919 + n / 2 + 1) % n];
        }
        driver.start_flow(
            FlowId(i),
            src,
            dst,
            1e15,
            AnyTransport::Scda(ScdaWindow::new(1e6, 1e6, 1e-3)),
            0.0,
        );
    }

    struct LoadTel<'a> {
        net: &'a mut Network,
        loads: &'a [f64],
        tau: f64,
    }
    impl Telemetry for LoadTel<'_> {
        fn sample(&mut self, l: LinkId) -> LinkSample {
            LinkSample {
                queue_bytes: self.net.link_state(l).queue_bytes,
                flow_rate_sum: self.loads[l.index()],
                arrival_rate: self.net.link_state_mut(l).take_arrived() / self.tau,
            }
        }
        fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
            RateCaps::default()
        }
    }

    let mut link_loads = vec![0.0_f64; n_links];
    let mut metrics = Vec::new();
    let mut now = 0.0;
    let mut violations_total = 0u64;
    let mut completed = 0u64;
    // Warm one super-step so lazy allocations don't bill the first sample.
    now += params.tau;
    driver.tick(now, params.tau);
    driver.offered_loads_into(&mut link_loads);
    {
        let mut tel = LoadTel {
            net: driver.net_mut(),
            loads: &link_loads,
            tau: params.tau,
        };
        ct.control_round(now, &mut tel);
    }
    let obs = Obs::enabled();
    let t0 = Instant::now();
    for _ in 0..iters {
        now += params.tau;
        completed += obs.time_phase(phase::TICK, || {
            driver.tick(now, params.tau).completed.len() as u64
        });
        violations_total += obs.time_phase(phase::CONTROL, || {
            driver.offered_loads_into(&mut link_loads);
            let mut tel = LoadTel {
                net: driver.net_mut(),
                loads: &link_loads,
                tau: params.tau,
            };
            let v = ct.control_round(now, &mut tel).len() as u64;
            ct.server_metrics_into(&mut metrics);
            v
        });
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ScenarioResult {
        name: "control_round_hyperscale",
        behavior: vec![
            ("iters", iters),
            ("flows", flows),
            ("servers", metrics.len() as u64),
            ("violations_total", violations_total),
            ("completed", completed),
            ("active_end", driver.active_count() as u64),
        ],
        wall_s,
        rates: vec![("rounds_per_s", iters as f64 / wall_s.max(1e-12))],
        phase_us: phase_us_of(&obs),
    }
}

/// The incremental-solver stress scenario: `flows` rack-local SCDA
/// transfers on the 1,000-rack tree with the embedded max-min solver
/// enabled. Rack-local paths keep the link–flow incidence graph in
/// ~1,000 disjoint components, so each iteration's cap churn (64 flow
/// caps re-pinned round-robin) dirties a handful of components and the
/// solver re-levels only those; the driver tick sweeps all `flows`
/// arena slots every round. Phases:
/// `simnet.waterfill` (the incremental solve), `simnet.apply`
/// (installing re-leveled rates into the transports), `kernel.tick`.
fn bench_tick_hyperscale(flows: u64, iters: u64) -> ScenarioResult {
    let tree = scale_config("hyper-1000x10").build();
    let racks = tree.server_links.len();
    let per_rack = tree.servers[0].len();

    let mut driver = FlowDriver::new(Network::new(tree.topo));
    driver.reserve_flows(flows as usize);
    driver.net_mut().enable_max_min();
    for i in 0..flows as usize {
        // Flows stay inside one rack (src server → ToR → dst server), so
        // racks are independent solver components.
        let rack = i % racks;
        let p = i / racks;
        let src_idx = p % per_rack;
        let dst_idx = (src_idx + 1 + (p / per_rack) % (per_rack - 1)) % per_rack;
        driver.start_flow(
            FlowId(i as u64),
            tree.servers[rack][src_idx],
            tree.servers[rack][dst_idx],
            1e15,
            AnyTransport::Scda(ScdaWindow::new(1e6, 1e6, 1e-3)),
            0.0,
        );
    }

    let tau = Params::default().tau;
    let mut releveled_buf: Vec<(FlowId, f64)> = Vec::new();
    let mut now = 0.0;
    let mut completed = 0u64;
    let mut releveled_total = 0u64;
    // Warm one solve + tick so one-time allocations don't bill the window.
    driver.net_mut().max_min_solve();
    now += tau;
    driver.tick(now, tau);
    let obs = Obs::enabled();
    let t0 = Instant::now();
    for it in 0..iters {
        // Deterministic cap churn: re-pin 64 flow caps to fresh values.
        for k in 0..64u64 {
            let j = (it * 64 + k) % flows;
            let cap = 2e5 + ((it * 64 + k) % 97) as f64 * 1e3;
            driver.net_mut().set_flow_rate_cap(FlowId(j), Some(cap));
        }
        releveled_total += obs.time_phase(phase::SIMNET_WATERFILL, || {
            driver.net_mut().max_min_solve() as u64
        });
        obs.time_phase(phase::SIMNET_APPLY, || {
            releveled_buf.clear();
            releveled_buf.extend(driver.net().releveled_flows());
            for &(id, rate) in &releveled_buf {
                if let Some(AnyTransport::Scda(w)) = driver.transport_mut(id) {
                    w.set_rates(0.95 * rate, 0.95 * rate);
                }
            }
        });
        now += tau;
        completed += obs.time_phase(phase::TICK, || driver.tick(now, tau).completed.len() as u64);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let stats = driver.net().max_min_stats();
    ScenarioResult {
        name: "tick_hyperscale",
        behavior: vec![
            ("iters", iters),
            ("flows", flows),
            ("releveled_total", releveled_total),
            ("full_solves", stats.full_solves),
            ("completed", completed),
            ("active_end", driver.active_count() as u64),
        ],
        wall_s,
        rates: vec![("rounds_per_s", iters as f64 / wall_s.max(1e-12))],
        phase_us: phase_us_of(&obs),
    }
}

/// The admission-churn scenario (DESIGN.md §12): 10 000 servers under a
/// sustained open/close stream, with the control tree re-advertising
/// (and the metrics drifting) every iteration. Two arms run the *same*
/// admission sequence in the same binary:
///
/// * **indexed** — the fast path: one incremental
///   [`PlacementIndex::refresh`] per round, then each open answers its
///   staged argmax by branch-and-bound with the outstanding-load
///   discount evaluated only at visited leaves;
/// * **naive** — the seed-era path: each open copies the full metrics
///   vector, applies the discount to every server, and scans with a
///   fresh [`Selector`].
///
/// Every open updates outstanding counts at the picked server, its
/// rack, its aggregation and the datacenter total (so the discount — and
/// therefore the ranking — shifts with every admission), and closes the
/// oldest open beyond a steady-state window. The two arms must pick
/// bit-identical servers; the bench asserts it and pins the pick
/// checksum as a behaviour key. The headline rate is the indexed arm's
/// admission throughput; `speedup_indexed_over_naive` is the gated
/// ratio.
fn bench_churn_hyperscale(opens_per_iter: u64, iters: u64) -> ScenarioResult {
    // The hyperscale fleet on a non-oversubscribed fabric: generous
    // aggregation/trunk multiples (a modern full-bisection Clos core)
    // keep the edge — the heterogeneous server and rack links — as the
    // binding level of every path rate. That is the regime the
    // branch-and-bound index targets: when a shared core link binds
    // every path, all ten thousand scores collapse toward the same
    // datacenter-wide discounted share and *no* per-server structure
    // (index or scan) can separate candidates cheaply.
    let mut cfg = scale_config("hyper-1000x10");
    cfg.k_factor = 100.0;
    cfg.trunk_mult = 1000.0;
    let x = cfg.base_bw_bps / 8.0;
    let level_caps = [x, x, cfg.k_factor * x, cfg.trunk_mult * x];
    let tree = cfg.build();
    let servers = tree.all_servers();
    let n = servers.len();
    let params = Params::default();
    let mut ct = ControlTree::from_three_tier(&tree, params.clone(), MetricKind::Full);

    // Node id → server index (the checksum's key).
    let max_node = servers.iter().map(|s| s.index()).max().unwrap_or(0);
    let mut srv_of_node = vec![u32::MAX; max_node + 1];
    for (si, srv) in servers.iter().enumerate() {
        srv_of_node[srv.index()] = si as u32;
    }

    /// One arm's admission bookkeeping: the production outstanding-load
    /// discount, the steady-state open window, and the pick checksum.
    struct Arm {
        outstanding: OutstandingDiscount,
        window: std::collections::VecDeque<NodeId>,
        cks: u64,
        departures: u64,
    }
    impl Arm {
        fn new(tree: &ThreeTierTree, level_caps: [f64; 4]) -> Self {
            Arm {
                outstanding: OutstandingDiscount::new(tree, level_caps),
                window: std::collections::VecDeque::with_capacity(ACTIVE_WINDOW + 1),
                cks: 0,
                departures: 0,
            }
        }
        fn admit(&mut self, pick: NodeId, si: u32) {
            self.cks = self
                .cks
                .wrapping_mul(0x0000_0100_0000_01b3)
                .wrapping_add(si as u64 + 1);
            self.outstanding.book(pick);
            self.window.push_back(pick);
            if self.window.len() > ACTIVE_WINDOW {
                let old = self.window.pop_front().expect("window is non-empty");
                self.outstanding.release(old);
                self.departures += 1;
            }
        }
    }
    /// Steady-state concurrent opens before the oldest departs: enough
    /// outstanding load that every admission shifts the ranking.
    const ACTIVE_WINDOW: usize = 64;

    /// The shared admission sequence: writes-dominated, cycling content
    /// classes so every staged fallback ladder gets traffic.
    fn workload(j: u64) -> (bool, ContentClass) {
        let class = match j % 4 {
            0 => ContentClass::Interactive,
            1 => ContentClass::SemiInteractiveWrite,
            2 => ContentClass::Passive,
            _ => ContentClass::SemiInteractiveRead,
        };
        (!j.is_multiple_of(3), class)
    }

    // No reservation threshold: the bench's control tree carries no
    // flows, so under the stock `R_scale` the whole fleet reads as
    // near-idle and every stage-1 write filter would miss across all
    // ten thousand servers — an all-reserved corner that measures the
    // filter ladder, not the argmax either arm implements.
    let sel_cfg = SelectorConfig {
        r_scale: f64::INFINITY,
        ..SelectorConfig::default()
    };
    let all_servers: NodeSet = servers.iter().copied().collect();
    let no_excl = NodeSet::new();
    let mut metrics: Vec<ServerMetrics> = Vec::new();
    let mut buf: Vec<ServerMetrics> = Vec::new();
    let mut pindex = PlacementIndex::with_shape(ct.index_shape());
    let mut indexed = Arm::new(&tree, level_caps);
    let mut naive = Arm::new(&tree, level_caps);

    /// Per-round metric drift: heterogeneous per-link load, re-hashed
    /// per iteration, so each control round moves a large share of the
    /// advertised rates (real deltas for the incremental refresh) and
    /// the fleet's rates spread over a wide range — the regime a real
    /// mixed-tenancy datacenter presents, and the one where the
    /// branch-and-bound's raw-rate bounds are informative. A fifth of
    /// the links also carry queue backlog, exercising the congested
    /// branch of the eq. 2 update.
    struct ChurnLoad {
        phase: u64,
    }
    impl Telemetry for ChurnLoad {
        fn sample(&mut self, l: LinkId) -> LinkSample {
            // splitmix64 of (link, round).
            let mut z = (l.0 as u64 + 1)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(self.phase.wrapping_mul(0xbf58_476d_1ce4_e5b9));
            z ^= z >> 30;
            z = z.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z ^= z >> 27;
            z = z.wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            let u = (z % 1000) as f64 / 1000.0;
            LinkSample {
                queue_bytes: if u > 0.8 { (u - 0.8) * 5e5 } else { 0.0 },
                flow_rate_sum: u * 1.1e8,
                arrival_rate: u * 1.1e8,
            }
        }
        fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
            RateCaps::default()
        }
    }

    // Warm: one round, one full index build, one open per arm — so the
    // timed window measures the sustained regime (incremental refreshes,
    // hot buffers), not one-time allocation.
    let mut now = params.tau;
    ct.control_round(
        now,
        &mut ChurnLoad {
            phase: u64::MAX / 2,
        },
    );
    ct.server_metrics_into(&mut metrics);
    pindex.refresh(&metrics);
    buf.clear();
    buf.extend_from_slice(&metrics);

    if std::env::var("CHURN_DEBUG").is_ok() {
        let mut pd: Vec<f64> = metrics.iter().map(|m| m.path_down).collect();
        pd.sort_by(f64::total_cmp);
        let mut pu: Vec<f64> = metrics.iter().map(|m| m.path_up).collect();
        pu.sort_by(f64::total_cmp);
        let lv: Vec<f64> = (0..4).map(|h| metrics[0].down_levels[h]).collect();
        eprintln!("caps={level_caps:?}");
        eprintln!(
            "path_down min={:.3e} p50={:.3e} max={:.3e}",
            pd[0],
            pd[pd.len() / 2],
            pd[pd.len() - 1]
        );
        eprintln!(
            "path_up   min={:.3e} p50={:.3e} max={:.3e}",
            pu[0],
            pu[pu.len() / 2],
            pu[pu.len() - 1]
        );
        eprintln!(
            "server0 down_levels={lv:?} n_levels={}",
            metrics[0].n_levels
        );
        let top: Vec<String> = pd[pd.len().saturating_sub(20)..]
            .iter()
            .map(|x| format!("{x:.3e}"))
            .collect();
        eprintln!("top20 path_down={top:?}");
    }
    let obs = Obs::enabled();
    let mut refresh_entries = 0u64;
    let mut t_indexed = 0.0f64;
    let mut t_naive = 0.0f64;
    let t0 = Instant::now();
    for it in 0..iters {
        now += params.tau;
        ct.control_round(now, &mut ChurnLoad { phase: it });
        ct.server_metrics_into(&mut metrics);

        // Indexed arm: absorb the round's deltas once, then answer every
        // open from the index.
        let t = Instant::now();
        obs.time_phase(phase::PLACE, || {
            refresh_entries += pindex.refresh(&metrics) as u64;
            for j in 0..opens_per_iter {
                let q = PlaceQuery {
                    energy: None,
                    cfg: &sel_cfg,
                    discount: &indexed.outstanding,
                };
                let (is_write, class) = workload(j);
                let (pick, _) = if is_write {
                    pindex.write_target(class, &no_excl, &q)
                } else {
                    pindex.read_best(&q)
                }
                .expect("at least one server exists");
                indexed.admit(pick, srv_of_node[pick.index()]);
            }
        });
        t_indexed += t.elapsed().as_secs_f64();

        // Naive arm: the seed-era per-open rebuild — copy, discount all
        // ten thousand candidates, scan with a fresh Selector.
        let t = Instant::now();
        obs.time_phase(phase::ADMISSION, || {
            for j in 0..opens_per_iter {
                buf.clear();
                buf.extend_from_slice(&metrics);
                for m in buf.iter_mut() {
                    let (d, u) = naive.outstanding.adjust(m);
                    m.path_down = d;
                    m.path_up = u;
                }
                let sel = Selector::new(&buf, None, &sel_cfg);
                let (is_write, class) = workload(j);
                let (pick, _) = if is_write {
                    sel.write_target(class, &no_excl)
                } else {
                    sel.read_source(&all_servers)
                }
                .expect("at least one server exists");
                naive.admit(pick, srv_of_node[pick.index()]);
            }
        });
        t_naive += t.elapsed().as_secs_f64();
    }
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        indexed.cks, naive.cks,
        "indexed and naive admission paths diverged"
    );
    let opens = iters * opens_per_iter;
    ScenarioResult {
        name: "churn_hyperscale",
        behavior: vec![
            ("iters", iters),
            ("opens", opens),
            ("servers", n as u64),
            ("departures", indexed.departures),
            ("picks_checksum", indexed.cks),
            ("refresh_entries", refresh_entries),
        ],
        wall_s,
        rates: vec![
            (
                "admissions_per_s_indexed",
                opens as f64 / t_indexed.max(1e-12),
            ),
            ("admissions_per_s_naive", opens as f64 / t_naive.max(1e-12)),
            ("speedup_indexed_over_naive", t_naive / t_indexed.max(1e-12)),
        ],
        phase_us: phase_us_of(&obs),
    }
}

/// Per-phase total microseconds from an enabled handle's profiler.
fn phase_us_of(obs: &Obs) -> BTreeMap<String, f64> {
    let mut phase_us = BTreeMap::new();
    if let Some(report) = obs.profile_report() {
        for (name, s) in &report.phases {
            phase_us.insert(name.clone(), 1e6 * s.total_s);
        }
    }
    phase_us
}

/// A self-rescheduling ticker (same shape as `benches/engine.rs`): every
/// event schedules the next with a small computed delay, so the drain
/// loop and scheduler dominate.
struct Ticker {
    acc: u64,
}
enum Tick {
    At(u64),
}
impl Simulation for Ticker {
    type Event = Tick;
    fn handle(&mut self, now: SimTime, ev: Tick, sched: &mut Scheduler<Tick>) {
        let Tick::At(n) = ev;
        self.acc = self.acc.wrapping_add(n);
        let jitter = (n % 7) as f64 * 1e-6;
        sched.at(now + 1e-4 + jitter, Tick::At(n + 1));
    }
}

fn bench_engine_drain(reps: u64) -> ScenarioResult {
    let obs = Obs::enabled();
    let audit = Audit::enabled();
    let mut events = 0u64;
    let t0 = Instant::now();
    for _ in 0..reps {
        let mut sim = Ticker { acc: 0 };
        let mut sched = Scheduler::new();
        sched.at(0.0, Tick::At(0));
        events += run_until_audited(&mut sim, &mut sched, 10_000.0 * 1e-4, &obs, &audit);
        std::hint::black_box(sim.acc);
    }
    let wall_s = t0.elapsed().as_secs_f64();
    ScenarioResult {
        name: "engine_drain_10k",
        behavior: vec![("reps", reps), ("events", events)],
        wall_s,
        rates: vec![("events_per_s", events as f64 / wall_s.max(1e-12))],
        phase_us: phase_us_of(&obs),
    }
}

fn bench_fig7_e2e(seed: u64) -> ScenarioResult {
    let obs = Obs::enabled();
    let audit = Audit::enabled();
    let opts = ScdaOptions {
        obs: obs.clone(),
        audit: audit.clone(),
        mitigation: Some(SlaPolicy::default()),
        ..Default::default()
    };
    let sc = Scenario::video(Scale::Quick, true, seed);
    let t0 = Instant::now();
    let r = run_scda(&sc, &opts);
    let wall_s = t0.elapsed().as_secs_f64();

    let peak_active = r
        .throughput
        .points()
        .iter()
        .map(|p| p.active_flows)
        .fold(0.0f64, f64::max)
        .round() as u64;
    let report = audit.report().expect("audit handle is enabled");
    let mut phase_us = BTreeMap::new();
    if let Some(profile) = &r.profile {
        for (name, s) in &profile.phases {
            phase_us.insert(name.clone(), 1e6 * s.total_s);
        }
    }
    ScenarioResult {
        name: "fig7_e2e_quick",
        behavior: vec![
            ("requested", r.requested as u64),
            ("completed", r.completed as u64),
            ("sla_violations", r.sla_violations as u64),
            ("control_rounds", r.control_rounds as u64),
            ("mitigations_applied", r.mitigations_applied as u64),
            ("peak_active_flows", peak_active),
            ("audit_violations", report.violations),
            ("audit_ttm_count", report.time_to_mitigation_s.count()),
            ("audit_wakeups", report.wakeups),
        ],
        wall_s,
        rates: vec![("rounds_per_s", r.control_rounds as f64 / wall_s.max(1e-12))],
        phase_us,
    }
}

fn jnum(x: f64) -> String {
    if x.is_finite() {
        let mut s = format!("{x:.6}");
        while s.ends_with('0') {
            s.pop();
        }
        if s.ends_with('.') {
            s.push('0');
        }
        s
    } else {
        "null".into()
    }
}

fn to_json(mode: &str, seed: u64, results: &[ScenarioResult]) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\n  \"schema\": \"scda-bench-v1\",\n  \"mode\": \"{mode}\",\n  \"seed\": {seed},\n  \"scenarios\": {{"
    );
    for (i, r) in results.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "\n    \"{}\": {{", r.name);
        for (k, v) in &r.behavior {
            let _ = write!(s, "\"{k}\": {v}, ");
        }
        let _ = write!(s, "\"wall_s\": {}", jnum(r.wall_s));
        for (k, v) in &r.rates {
            let _ = write!(s, ", \"{k}\": {}", jnum(*v));
        }
        let _ = write!(s, ", \"phase_us\": {{");
        for (j, (k, v)) in r.phase_us.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {}", jnum(*v));
        }
        s.push_str("}}");
    }
    s.push_str("\n  }\n}\n");
    s
}

/// Behaviour keys: deterministic counts the simulation pins; any drift
/// is a real behaviour change, not noise, so `--check` compares exactly.
const BEHAVIOR_KEYS: &[&str] = &[
    "iters",
    "servers",
    "violations_total",
    "flows",
    "active_end",
    "opens",
    "departures",
    "picks_checksum",
    "refresh_entries",
    "releveled_total",
    "full_solves",
    "reps",
    "events",
    "requested",
    "completed",
    "sla_violations",
    "control_rounds",
    "mitigations_applied",
    "peak_active_flows",
    "audit_violations",
    "audit_ttm_count",
    "audit_wakeups",
];

/// Compare `fresh` against a parsed baseline. Returns regression lines.
fn check_against(baseline: &Value, fresh: &[ScenarioResult], threshold_pct: f64) -> Vec<String> {
    let mut failures = Vec::new();
    let factor = 1.0 + threshold_pct / 100.0;
    let Some(base_scenarios) = baseline.get("scenarios") else {
        return vec!["baseline has no \"scenarios\" object (schema scda-bench-v1)".into()];
    };
    for r in fresh {
        let Some(base) = base_scenarios.get(r.name) else {
            // Baseline predates this scenario: informational, not fatal.
            continue;
        };
        for (k, v) in &r.behavior {
            if !BEHAVIOR_KEYS.contains(k) {
                continue;
            }
            if let Some(b) = base.get(k).and_then(|x| x.as_u64()) {
                if b != *v {
                    failures.push(format!(
                        "{}: behaviour field {k} changed: baseline {b}, now {v}",
                        r.name
                    ));
                }
            }
        }
        if let Some(b) = base.get("wall_s").and_then(|x| x.as_f64()) {
            if r.wall_s > b * factor {
                failures.push(format!(
                    "{}: wall_s regressed: baseline {:.4}s, now {:.4}s (> {:.0}% threshold)",
                    r.name, b, r.wall_s, threshold_pct
                ));
            }
        }
        for (k, v) in &r.rates {
            if let Some(b) = base.get(k).and_then(|x| x.as_f64()) {
                if *v < b / factor {
                    failures.push(format!(
                        "{}: {k} regressed: baseline {:.0}/s, now {:.0}/s (> {:.0}% threshold)",
                        r.name, b, v, threshold_pct
                    ));
                }
            }
        }
    }
    failures
}

/// Smallest free `BENCH_<n>.json` in the working directory.
fn next_bench_path() -> String {
    for n in 0u32.. {
        let path = format!("BENCH_{n}.json");
        if !std::path::Path::new(&path).exists() {
            return path;
        }
    }
    unreachable!("ran out of BENCH_<n>.json slots")
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut full = false;
    let mut seed = 1u64;
    let mut out: Option<String> = None;
    let mut check: Option<String> = None;
    let mut threshold = 400.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--full" => full = true,
            "--quick" => full = false,
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                i += 1;
                out = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--check" => {
                i += 1;
                check = Some(args.get(i).cloned().unwrap_or_else(|| usage()));
            }
            "--threshold" => {
                i += 1;
                threshold = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            _ => usage(),
        }
        i += 1;
    }

    let mode = if full { "full" } else { "quick" };
    eprintln!("# scda-perf: {mode} scenarios, seed {seed}");

    let mut results = Vec::new();
    eprintln!("#   control_round_quick ...");
    results.push(bench_control_round("control_round_quick", "quick", 2000));
    if full {
        eprintln!("#   control_round_paper (163x10) ...");
        results.push(bench_control_round(
            "control_round_paper",
            "paper-163x10",
            1000,
        ));
    }
    // Same iteration count in both modes: `violations_total` feeds back
    // through the queues nonlinearly, so a quick gate run must replay
    // the exact round count its full-mode baseline recorded.
    let hyper_iters = 5;
    eprintln!("#   control_round_hyperscale (1000x10, 100k flows) ...");
    results.push(bench_hyperscale(100_000, hyper_iters));
    eprintln!("#   tick_hyperscale (1000x10, 100k rack-local flows) ...");
    results.push(bench_tick_hyperscale(100_000, hyper_iters));
    eprintln!("#   churn_hyperscale (1000x10, sustained admissions, indexed vs naive) ...");
    results.push(bench_churn_hyperscale(2_000, hyper_iters));
    eprintln!("#   engine_drain_10k ...");
    results.push(bench_engine_drain(50));
    eprintln!("#   fig7_e2e_quick ...");
    results.push(bench_fig7_e2e(seed));

    println!(
        "{:<22} {:>10} {:>14} {:>30}",
        "scenario", "wall (s)", "rate", "behaviour"
    );
    for r in &results {
        let rate = r
            .rates
            .first()
            .map(|(k, v)| format!("{v:.0} {k}"))
            .unwrap_or_default();
        let behaviour = r
            .behavior
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<22} {:>10.4} {:>14} {:>30}",
            r.name, r.wall_s, rate, behaviour
        );
    }

    if let Some(baseline_path) = &check {
        let text = std::fs::read_to_string(baseline_path).unwrap_or_else(|e| {
            eprintln!("error: cannot read baseline {baseline_path}: {e}");
            std::process::exit(2);
        });
        let baseline: Value = serde_json::from_str(&text).unwrap_or_else(|e| {
            eprintln!("error: baseline {baseline_path} is not valid JSON: {e}");
            std::process::exit(2);
        });
        let schema_ok = matches!(
            baseline.get("schema"),
            Some(Value::Str(s)) if s == "scda-bench-v1"
        );
        if !schema_ok {
            eprintln!("error: baseline {baseline_path} is not schema scda-bench-v1");
            std::process::exit(2);
        }
        let failures = check_against(&baseline, &results, threshold);
        if failures.is_empty() {
            println!("perf-check OK against {baseline_path} (timing threshold {threshold:.0}%)");
        } else {
            eprintln!("perf-check FAILED against {baseline_path}:");
            for f in &failures {
                eprintln!("  {f}");
            }
            std::process::exit(1);
        }
    }

    if check.is_none() || out.is_some() {
        let path = out.unwrap_or_else(next_bench_path);
        std::fs::write(&path, to_json(mode, seed, &results)).expect("write bench JSON");
        eprintln!("# wrote {path}");
    }
}
