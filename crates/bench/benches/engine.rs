//! Simulator microbenchmarks: event-queue throughput and fluid network
//! ticks at varying flow counts on the figure-6 topology.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use scda_obs::Obs;
use scda_simnet::builders::{clos, fat_tree, ThreeTierConfig};
use scda_simnet::units::{mbps, SimTime};
use scda_simnet::{
    run_until, run_until_observed, EcmpRoutes, FlowId, Network, Scheduler, Simulation, TickReport,
};

fn bench_scheduler(c: &mut Criterion) {
    c.bench_function("scheduler/push_pop_10k", |b| {
        b.iter(|| {
            let mut s: Scheduler<u64> = Scheduler::new();
            for i in 0..10_000u64 {
                s.at(((i * 7919) % 10_000) as f64, i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = s.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
}

/// A self-rescheduling ticker: every event schedules the next with a small
/// computed delay (the arithmetic a real packet/timer event does), so the
/// drain loop and scheduler dominate — the path any per-event
/// instrumentation overhead would show up on.
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

/// The observability acceptance gate: draining through
/// `run_until_observed` with a *disabled* handle must track plain
/// `run_until` (the instrumented path costs one branch per drain, nothing
/// per event). Compare the two `engine/drain_10k*` lines; they should be
/// within noise (<5%).
fn bench_engine_drain(c: &mut Criterion) {
    c.bench_function("engine/drain_10k", |b| {
        b.iter(|| {
            let mut sim = Ticker { acc: 0 };
            let mut sched = Scheduler::new();
            sched.at(0.0, Tick::At(0));
            run_until(&mut sim, &mut sched, 10_000.0 * 1e-4);
            sim.acc
        })
    });
    c.bench_function("engine/drain_10k_observed_disabled", |b| {
        let obs = Obs::disabled();
        b.iter(|| {
            let mut sim = Ticker { acc: 0 };
            let mut sched = Scheduler::new();
            sched.at(0.0, Tick::At(0));
            run_until_observed(&mut sim, &mut sched, 10_000.0 * 1e-4, &obs);
            sim.acc
        })
    });
}

fn bench_network_tick(c: &mut Criterion) {
    let mut g = c.benchmark_group("network/tick");
    for &flows in &[10usize, 100, 1000] {
        g.bench_with_input(BenchmarkId::from_parameter(flows), &flows, |b, &flows| {
            let tree = ThreeTierConfig::default().build();
            let clients = tree.clients.clone();
            let servers = tree.all_servers();
            let mut net = Network::new(tree.topo);
            let mut offered = Vec::with_capacity(flows);
            for i in 0..flows {
                let id = FlowId(i as u64);
                net.insert_flow(id, clients[i % clients.len()], servers[i % servers.len()]);
                offered.push((net.flow_slot(id), 1e6));
            }
            let mut report = TickReport::default();
            b.iter(|| net.advance_slots_into(0.005, &offered, &mut report))
        });
    }
    g.finish();
}

fn bench_route_warmup(c: &mut Criterion) {
    c.bench_function("routing/all_client_server_paths", |b| {
        let tree = ThreeTierConfig::default().build();
        b.iter(|| {
            let mut routes = scda_simnet::Routes::new(&tree.topo);
            let mut hops = 0usize;
            for &c in &tree.clients {
                for s in tree.all_servers() {
                    hops += routes
                        .path_handle(&tree.topo, c, s)
                        .map(|id| routes.path_of(id).len())
                        .unwrap_or(0);
                }
            }
            hops
        })
    });
}

fn bench_ecmp(c: &mut Criterion) {
    c.bench_function("routing/ecmp_fat_tree_k8_paths", |b| {
        let (topo, pods) = fat_tree(8, mbps(100.0), 0.001, 1e6);
        b.iter(|| {
            let mut ecmp = EcmpRoutes::new(&topo);
            let mut hops = 0usize;
            for f in 0..64u64 {
                hops += ecmp
                    .path(&topo, pods[0][0], pods[7][15], FlowId(f))
                    .map(|p| p.len())
                    .unwrap_or(0);
            }
            hops
        })
    });
    c.bench_function("routing/ecmp_clos_path_count", |b| {
        let (topo, servers) = clos(8, 4, 8, 4, mbps(100.0), 0.001, 1e6);
        b.iter(|| {
            let mut ecmp = EcmpRoutes::new(&topo);
            ecmp.path_count(&topo, servers[0][0], servers[7][3])
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_scheduler, bench_engine_drain, bench_network_tick, bench_route_warmup, bench_ecmp
}
criterion_main!(benches);
