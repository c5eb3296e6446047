//! scda-perf: the dense probe no `SimKernel` replay can run yet.
//!
//! ```text
//! cargo run --release --bin perf
//! ```
//!
//! Performance is measured by `benchmark/` (`scda-replay-bench`): real
//! replays, end to end and layer by layer, with spread. None of its
//! workloads holds more than ~1k flows in flight, so one regime has no
//! row there: `control_round_hyperscale`, a 1,000-rack × 10-server tree
//! carrying 100 000 concurrent SCDA flows (DESIGN.md §10). Every
//! iteration is a full driver tick, the offered-load telemetry sweep,
//! the RM/RA control round and the server-metric refresh. This is the
//! "dense activity must not regress" guard for work that makes sparse
//! activity cheaper.
//!
//! The probe prints min / median / max milliseconds per timed iteration
//! and asserts its deterministic counters against the constants below,
//! so a behaviour change at this scale fails the run; the timings are
//! printed, not gated. The probe goes once a dense workload runs through
//! `SimKernel` in the benchmark.

#![expect(
    clippy::disallowed_methods,
    reason = "a timing probe: the wall clock is what it measures, and the simulated counters it pins never read it"
)]

use std::time::{Duration, Instant};

use scda_core::rate_metric::LinkSample;
use scda_core::tree::{RateCaps, Telemetry};
use scda_core::{ControlTree, MetricKind, Params};
use scda_simnet::builders::ThreeTierConfig;
use scda_simnet::{FlowId, LinkId, Network, NodeId};
use scda_transport::{AnyTransport, FlowDriver, ScdaWindow};

/// Concurrent flows in the probe.
const FLOWS: usize = 100_000;
/// Timed iterations. The pinned counters hold for exactly this many:
/// violations feed back through the queues nonlinearly.
const ITERS: usize = 5;

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

/// 10 000 servers, ~11k control nodes. Sources are one server per rack;
/// destinations stride the whole fleet with a prime, so paths cross ToR,
/// aggregation and core levels (each new pair is one climb of the
/// routing tree). Tree build, routing and flow admission are outside the
/// timed window.
fn control_round_hyperscale() {
    let tree = ThreeTierConfig {
        racks: 1000,
        servers_per_rack: 10,
        racks_per_agg: 40,
        clients: 128,
        ..Default::default()
    }
    .build();
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
        // Effectively infinite transfers: the point is a steady 100k-flow
        // regime, not completions.
        let endless = AnyTransport::Scda(ScdaWindow::new(1e6, 1e6, 1e-3));
        driver.start_flow(FlowId(i as u64), src, dst, 1e15, endless, 0.0);
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

    println!("control_round_hyperscale: 1000x10 servers, {FLOWS} flows, {ITERS} iterations; ms per iteration, min / median / max");
    print_span("tick", tick);
    print_span("control", control);
    print_span("iteration", iteration);
    let active_end = driver.active_count();
    println!("  violations_total={violations_total} completed={completed} active_end={active_end}");
    assert_eq!(violations_total, 250);
    assert_eq!(completed, 0);
    assert_eq!(active_end, FLOWS);
}

fn main() {
    control_round_hyperscale();
}
