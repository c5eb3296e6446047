//! scda-perf: the two dense probes no `SimKernel` replay can run yet.
//!
//! ```text
//! cargo run --release --bin perf
//! ```
//!
//! Performance is measured by `benchmark/` (`scda-replay-bench`): real
//! replays, end to end and layer by layer, with spread. None of its
//! workloads holds more than ~1k flows in flight, so two regimes have no
//! row there, and each is the only code path on its input:
//!
//! * `control_round_hyperscale` — a 1,000-rack × 10-server tree carrying
//!   100 000 concurrent SCDA flows (DESIGN.md §10); every iteration is a
//!   full driver tick, the offered-load telemetry sweep, the RM/RA
//!   control round and the server-metric refresh. This is the "dense
//!   activity must not regress" guard for work that makes sparse
//!   activity cheaper;
//! * `tick_hyperscale` — 100 000 rack-local flows with the embedded
//!   incremental max-min solver enabled and 64 flow caps re-pinned per
//!   iteration (DESIGN.md §11): the only timing of `IncrementalMaxMin`.
//!
//! Each probe prints min / median / max milliseconds per timed iteration
//! and asserts its deterministic counters against the constants below,
//! so a behaviour change at this scale fails the run; the timings are
//! printed, not gated. The probes go once a dense workload runs through
//! `SimKernel` in the benchmark.

#![expect(
    clippy::disallowed_methods,
    reason = "a timing probe: the wall clock is what it measures, and the simulated counters it pins never read it"
)]

use std::time::{Duration, Instant};

use scda_core::rate_metric::LinkSample;
use scda_core::tree::{RateCaps, Telemetry};
use scda_core::{ControlTree, MetricKind, Params};
use scda_simnet::builders::{ThreeTierConfig, ThreeTierTree};
use scda_simnet::{FlowId, LinkId, Network, NodeId};
use scda_transport::{AnyTransport, FlowDriver, ScdaWindow};

/// Concurrent flows in both probes.
const FLOWS: usize = 100_000;
/// Timed iterations per probe. The pinned counters hold for exactly this
/// many: violations feed back through the queues nonlinearly.
const ITERS: usize = 5;

/// 10 000 servers, ~11k control nodes.
fn hyperscale_tree() -> ThreeTierTree {
    ThreeTierConfig {
        racks: 1000,
        servers_per_rack: 10,
        racks_per_agg: 40,
        clients: 128,
        ..Default::default()
    }
    .build()
}

/// Effectively infinite transfers: the point is a steady 100k-flow
/// regime, not completions.
fn endless_flow() -> AnyTransport {
    AnyTransport::Scda(ScdaWindow::new(1e6, 1e6, 1e-3))
}

/// One span's per-iteration wall-clock samples as min / median / max.
fn print_span(name: &str, mut samples: Vec<Duration>) {
    samples.sort();
    let ms = |d: Duration| 1e3 * d.as_secs_f64();
    println!(
        "  {name:<10} {:>8.3} / {:>8.3} / {:>8.3}",
        ms(samples[0]),
        ms(samples[samples.len() / 2]),
        ms(samples[samples.len() - 1]),
    );
}

fn print_header(name: &str) {
    println!("{name}: 1000x10 servers, {FLOWS} flows, {ITERS} iterations; ms per iteration, min / median / max");
}

/// Sources are one server per rack; destinations stride the whole fleet
/// with a prime, so paths cross ToR, aggregation and core levels (each
/// new pair is one climb of the routing tree). Tree build, routing and
/// flow admission are outside the timed window.
fn control_round_hyperscale() {
    let tree = hyperscale_tree();
    let servers = tree.all_servers();
    let n = servers.len();
    let racks = tree.server_links.len();
    let params = Params::default();
    let mut ct = ControlTree::from_three_tier(&tree, params.clone(), MetricKind::Full);
    let mut link_loads = vec![0.0_f64; tree.topo.link_count()];

    let mut driver = FlowDriver::new(Network::new(tree.topo));
    driver.reserve_flows(FLOWS);
    for i in 0..FLOWS {
        let src = servers[(i % racks) * (n / racks)];
        let mut dst = servers[(i * 7919 + n / 2) % n];
        if dst == src {
            dst = servers[(i * 7919 + n / 2 + 1) % n];
        }
        driver.start_flow(FlowId(i as u64), src, dst, 1e15, endless_flow(), 0.0);
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

    let tau = params.tau;
    let mut metrics = Vec::new();
    let mut now = 0.0;
    let mut violations_total = 0;
    let mut completed = 0;
    let (mut tick, mut control, mut iteration) = (Vec::new(), Vec::new(), Vec::new());
    // The first super-step is not timed: it pays the lazy allocations.
    for timed in std::iter::once(false).chain([true; ITERS]) {
        now += tau;
        let t0 = Instant::now();
        let done = driver.tick(now, tau).completed.len();
        let t1 = Instant::now();
        driver.offered_loads_into(&mut link_loads);
        let mut tel = LoadTel {
            net: driver.net_mut(),
            loads: &link_loads,
            tau,
        };
        let violations = ct.control_round(now, &mut tel).len();
        ct.server_metrics_into(&mut metrics);
        let t2 = Instant::now();
        if timed {
            completed += done;
            violations_total += violations;
            tick.push(t1 - t0);
            control.push(t2 - t1);
            iteration.push(t2 - t0);
        }
    }

    print_header("control_round_hyperscale");
    print_span("tick", tick);
    print_span("control", control);
    print_span("iteration", iteration);
    let active_end = driver.active_count();
    println!("  violations_total={violations_total} completed={completed} active_end={active_end}");
    assert_eq!(violations_total, 250);
    assert_eq!(completed, 0);
    assert_eq!(active_end, FLOWS);
}

/// Rack-local paths (src server → ToR → dst server) keep the link–flow
/// incidence graph in ~1,000 disjoint components, so each iteration's
/// cap churn dirties a handful of them and the solver re-levels only
/// those, while the driver tick sweeps all 100k arena slots.
fn tick_hyperscale() {
    let tree = hyperscale_tree();
    let racks = tree.server_links.len();
    let per_rack = tree.servers[0].len();

    let mut driver = FlowDriver::new(Network::new(tree.topo));
    driver.reserve_flows(FLOWS);
    driver.net_mut().enable_max_min();
    for i in 0..FLOWS {
        let rack = i % racks;
        let p = i / racks;
        let src_idx = p % per_rack;
        let dst_idx = (src_idx + 1 + (p / per_rack) % (per_rack - 1)) % per_rack;
        driver.start_flow(
            FlowId(i as u64),
            tree.servers[rack][src_idx],
            tree.servers[rack][dst_idx],
            1e15,
            endless_flow(),
            0.0,
        );
    }

    let tau = Params::default().tau;
    let mut releveled_buf: Vec<(FlowId, f64)> = Vec::new();
    let mut releveled_total = 0;
    let mut completed = 0;
    let (mut waterfill, mut apply, mut tick, mut iteration) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // One warm solve + tick, so one-time allocations don't bill the window.
    driver.net_mut().max_min_solve();
    let mut now = tau;
    driver.tick(now, tau);
    for it in 0..ITERS as u64 {
        let t0 = Instant::now();
        // Deterministic cap churn: re-pin 64 flow caps to fresh values.
        for k in it * 64..(it + 1) * 64 {
            let cap = 2e5 + (k % 97) as f64 * 1e3;
            driver
                .net_mut()
                .set_flow_rate_cap(FlowId(k % FLOWS as u64), Some(cap));
        }
        let t1 = Instant::now();
        releveled_total += driver.net_mut().max_min_solve();
        let t2 = Instant::now();
        releveled_buf.clear();
        releveled_buf.extend(driver.net().releveled_flows());
        for &(id, rate) in &releveled_buf {
            if let Some(AnyTransport::Scda(w)) = driver.transport_mut(id) {
                w.set_rates(0.95 * rate, 0.95 * rate);
            }
        }
        let t3 = Instant::now();
        now += tau;
        completed += driver.tick(now, tau).completed.len();
        let t4 = Instant::now();
        waterfill.push(t2 - t1);
        apply.push(t3 - t2);
        tick.push(t4 - t3);
        iteration.push(t4 - t0);
    }

    print_header("tick_hyperscale");
    print_span("waterfill", waterfill);
    print_span("apply", apply);
    print_span("tick", tick);
    print_span("iteration", iteration);
    let full_solves = driver.net().max_min_stats().full_solves;
    let active_end = driver.active_count();
    println!(
        "  releveled_total={releveled_total} full_solves={full_solves} completed={completed} active_end={active_end}"
    );
    assert_eq!(releveled_total, 32_000);
    assert_eq!(full_solves, 0);
    assert_eq!(completed, 0);
    assert_eq!(active_end, FLOWS);
}

fn main() {
    control_round_hyperscale();
    tick_hyperscale();
}
