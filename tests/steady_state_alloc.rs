//! Zero steady-state allocation, measured.
//!
//! The paper's scalability argument (§VI) assumes a τ-round costs only
//! its arithmetic. The same holds for a data-plane tick, a placement
//! query, a warm route lookup, flow-table churn and the event scheduler.
//! Each test below warms one of those paths on the quick fixture, then
//! counts the allocations a window of steady-state calls makes, and that
//! count must be zero. Growth up to a high-water mark belongs to the
//! warm-up; a buffer rebuilt per call shows up in the window. The last
//! check is a whole replay: doubling its horizon may add only the output
//! buffers' doublings.
//!
//! The counting allocator counts only on the thread that opened a window,
//! so the harness's other test threads do not leak into it.

mod common;

use scda_audit::Audit;
use scda_experiments::runner::{
    BestRatePlacement, ControlPolicy, EnergyOptions, ExplicitRateTransport, PendingStart,
    RunAccounting, RunResult, ScdaControl, ScdaOptions, SimKernel,
};
use scda_experiments::{Scale, Scenario};
use scda_metrics::{FctStats, ThroughputSeries};
use scda_simnet::builders::ThreeTierTree;
use scda_simnet::{FlowId, Network, NodeId, Routes, Scheduler};
use scda_transport::{FlowDriver, TickSummary};
use scda_workloads::{FlowDirection, FlowSpec};

use common::allocations;

/// Long enough that no flow completes inside any window.
const ENDLESS: f64 = 1e15;

fn fixture() -> (Scenario, ThreeTierTree) {
    let sc = Scenario::video(Scale::Quick, false, 1);
    let tree = sc.topo.build();
    (sc, tree)
}

/// The quick fixture under `ScdaControl`, primed, with the fixture's
/// first 40 requests admitted at once and made endless: a constant
/// population that overloads its bottlenecks every round.
fn loaded_scda() -> (Scenario, ScdaControl, FlowDriver) {
    loaded_scda_with(&ScdaOptions::default())
}

/// [`loaded_scda`] under `opts`.
fn loaded_scda_with(opts: &ScdaOptions) -> (Scenario, ScdaControl, FlowDriver) {
    let (sc, tree) = fixture();
    let mut scda = ScdaControl::new(&sc, opts, &tree);
    let mut driver = FlowDriver::new(Network::new(tree.topo));
    scda.prime(&mut driver);
    for (i, f) in sc.workload.flows.iter().take(40).enumerate() {
        let f = FlowSpec {
            size_bytes: ENDLESS,
            ..*f
        };
        let id = FlowId(i as u64);
        let adm = scda.admit(
            &f,
            id,
            0.0,
            &mut driver,
            &mut BestRatePlacement,
            &mut ExplicitRateTransport,
        );
        let p = PendingStart {
            id,
            src: adm.src,
            dst: adm.dst,
            path: adm.path,
            size: f.size_bytes,
            arrival: f.arrival,
            server: adm.server,
            dir: f.direction,
            client_idx: adm.client_idx,
            internal: false,
            transport: adm.transport,
        };
        scda.on_open(&p, &mut driver);
        driver.start_flow(p.id, p.src, p.dst, p.size, p.transport, 0.0);
    }
    (sc, scda, driver)
}

/// One τ of ticks (none completes a flow), then one control round
/// through the `ControlPolicy` trait; returns the round's allocations.
fn tau(
    sc: &Scenario,
    ctrl: &mut dyn ControlPolicy,
    driver: &mut FlowDriver,
    step: &mut u32,
) -> u64 {
    let mut summary = TickSummary::default();
    for _ in 0..(sc.tau / sc.dt).round() as u32 {
        driver.tick(f64::from(*step) * sc.dt, sc.dt, &mut summary);
        assert!(summary.completed.is_empty());
        *step += 1;
    }
    let now = f64::from(*step) * sc.dt;
    allocations(|| ctrl.round(now, driver))
}

#[test]
fn flow_driver_ticks_without_completions() {
    let (sc, _, mut driver) = loaded_scda();
    let mut summary = TickSummary::default();
    let mut tick = |driver: &mut FlowDriver, step: u32| {
        driver.tick(f64::from(step) * sc.dt, sc.dt, &mut summary);
        assert!(summary.completed.is_empty());
    };
    for step in 0..200 {
        tick(&mut driver, step);
    }
    let n = allocations(|| {
        for step in 200..700 {
            tick(&mut driver, step);
        }
    });
    assert_eq!(n, 0, "500 steady-state ticks allocated {n} times");
    assert_eq!(driver.active_count(), 40);
}

/// What a control policy reports at the end of a run.
fn finished(ctrl: &mut dyn ControlPolicy) -> RunResult {
    let mut r = RunResult {
        system: String::new(),
        fct: FctStats::new(),
        throughput: ThroughputSeries::new(1.0),
        sla_violations: 0,
        requested: 0,
        completed: 0,
        energy_joules: None,
        dormant_servers: 0,
        mitigations_applied: 0,
        replications_completed: 0,
        control_rounds: 0,
        changed_dirs_total: 0,
        profile: None,
        snapshots: None,
    };
    ctrl.finish(&mut r);
    r
}

/// 100 warm-up rounds of `loaded_scda_with(opts)`, then 200 counted
/// ones: `(allocations, violations fired in the window, the policy's
/// end-of-run report)`.
fn counted_rounds(opts: &ScdaOptions) -> (u64, usize, RunResult) {
    let (sc, mut scda, mut driver) = loaded_scda_with(opts);
    let mut step = 0;
    for _ in 0..100 {
        tau(&sc, &mut scda, &mut driver, &mut step);
    }
    let before = finished(&mut scda).sla_violations;
    let n: u64 = (0..200)
        .map(|_| tau(&sc, &mut scda, &mut driver, &mut step))
        .sum();
    let r = finished(&mut scda);
    (n, r.sla_violations - before, r)
}

/// The shared SCDA round: each `ScdaControl::round` runs the crate's one
/// per-τ sequence (`ScdaPlane::round`: offered loads, the tree's round
/// into a kept violations buffer, the index refresh) before its own
/// attribution, mitigation and re-window. The content lifecycle's
/// policy is crate-private and calls the same function, so this window
/// holds its round to zero allocations too.
#[test]
fn scda_control_rounds_with_violations() {
    let (n, fired, _) = counted_rounds(&ScdaOptions::default());
    assert!(fired > 0, "the window must detect violations");
    assert_eq!(n, 0, "200 rounds ({fired} violations) allocated {n} times");
}

/// An audited round attributes every violation: it finds the flows on
/// the violated link, counts them per class and checks recent wakes,
/// all in buffers the policy keeps, and the audit chains each violation
/// onto its link's open episode. What is left is the audit log itself:
/// its violation and episode records are the run's output and grow with
/// it. The window records about twice what the warm-up did, so each of
/// those two logs doubles its capacity at most twice in it; one
/// allocation per violation would add about a thousand.
#[test]
fn audited_rounds_with_violations() {
    const LOG_DOUBLINGS: u64 = 2 * 2;
    let audit = Audit::enabled();
    let opts = ScdaOptions {
        audit: audit.clone(),
        ..Default::default()
    };
    let (n, fired, r) = counted_rounds(&opts);
    assert!(fired > 0, "the window must detect violations");
    assert!(
        fired <= 2 * (r.sla_violations - fired),
        "the window may at most triple the log: {fired} after {}",
        r.sla_violations - fired
    );
    assert!(
        n <= LOG_DOUBLINGS,
        "200 audited rounds ({fired} violations) allocated {n} times"
    );
    let report = audit.report().expect("enabled");
    assert_eq!(report.violations, r.sla_violations as u64);
}

/// An energy round charges each server its flows' offered rates and
/// puts idle servers to sleep, from a per-server column the re-window
/// walk fills.
#[test]
fn energy_rounds_with_dormancy() {
    let opts = ScdaOptions {
        energy: Some(EnergyOptions::default()),
        ..Default::default()
    };
    assert!(opts.energy.as_ref().is_some_and(|e| e.dormancy));
    let (n, _, r) = counted_rounds(&opts);
    assert!(r.energy_joules.is_some_and(|j| j > 0.0));
    assert_eq!(n, 0, "200 energy rounds allocated {n} times");
}

#[test]
fn placement_queries_under_outstanding_discount() {
    // `ScdaControl::admit` answers each request from the placement index
    // under its outstanding-load discount: `write_target` for a write,
    // `read_best` for a read. These requests are never opened, so each
    // one only adds to the discount the next query sees.
    let (sc, mut scda, mut driver) = loaded_scda();
    let mut step = 0;
    for _ in 0..20 {
        tau(&sc, &mut scda, &mut driver, &mut step);
    }
    // A pair's first route lookup interns its path; that is not a query.
    let tree = sc.topo.build();
    for &s in &tree.all_servers() {
        for &c in &tree.clients {
            driver.net_mut().base_rtt_between(s, c);
            driver.net_mut().base_rtt_between(c, s);
        }
    }
    let requests: Vec<FlowSpec> = (0..200)
        .map(|i| FlowSpec {
            direction: [FlowDirection::Write, FlowDirection::Read][i % 2],
            ..sc.workload.flows[i % sc.workload.flows.len()]
        })
        .collect();
    let now = f64::from(step) * sc.dt;
    let n = allocations(|| {
        for (i, f) in requests.iter().enumerate() {
            let id = FlowId(1000 + i as u64);
            scda.admit(
                f,
                id,
                now,
                &mut driver,
                &mut BestRatePlacement,
                &mut ExplicitRateTransport,
            );
        }
    });
    assert_eq!(n, 0, "200 admissions allocated {n} times");
}

#[test]
fn warm_route_lookups() {
    let (_, tree) = fixture();
    let servers = tree.all_servers();
    let mut routes = Routes::new();
    // Both directions between every server and every client.
    let pairs: Vec<(NodeId, NodeId)> = servers
        .iter()
        .flat_map(|&s| tree.clients.iter().flat_map(move |&c| [(s, c), (c, s)]))
        .collect();
    for &(a, b) in &pairs {
        routes.path_handle(&tree.topo, a, b).expect("connected");
    }
    let n = allocations(|| {
        for _ in 0..20 {
            for &(a, b) in &pairs {
                let pid = routes.path_handle(&tree.topo, a, b).expect("connected");
                assert!(!routes.path_of(pid).is_empty() && routes.rtt_of(pid) > 0.0);
            }
        }
    });
    assert_eq!(n, 0, "warm path_handle hits allocated {n} times");
}

#[test]
fn network_remove_and_reinsert_at_constant_population() {
    let (_, tree) = fixture();
    let servers = tree.all_servers();
    let clients = tree.clients.clone();
    let mut net = Network::new(tree.topo);
    // Paths of different lengths: server to client, and server to server
    // within a rack or across the fabric.
    let n = servers.len();
    let endpoints = |i: usize| match i % 3 {
        0 => (servers[i % n], clients[i % clients.len()]),
        1 => (servers[i % n], servers[(i + 1) % n]),
        _ => (servers[i % n], servers[n - 1 - i % n]),
    };
    // 64 flows in flight, each removed and reinserted in a stride that
    // visits the whole id range: the window covers the id table, the slot
    // free list and the path arena, compactions included.
    const FLOWS: usize = 64;
    for i in 0..FLOWS {
        let (src, dst) = endpoints(i);
        net.insert_flow(FlowId(i as u64), src, dst);
    }
    let mut churn = |cycles: usize| {
        for c in 0..cycles {
            let i = (c * 7) % FLOWS;
            net.remove_flow(FlowId(i as u64));
            let (src, dst) = endpoints(i);
            net.insert_flow(FlowId(i as u64), src, dst);
        }
    };
    churn(10 * FLOWS);
    let n = allocations(|| churn(200 * FLOWS));
    assert_eq!(n, 0, "steady remove/insert churn allocated {n} times");
    assert_eq!(net.flow_count(), FLOWS);
}

/// A whole `SimKernel` replay of the quick fixture's first `horizon`
/// seconds under the stock SCDA policies: its allocations, its completed
/// flows and its throughput bins. The scenario, the control plane and a
/// network with every server-client route warm are built outside the
/// count.
fn replay_allocations(horizon: f64) -> (u64, usize, usize) {
    let (mut sc, tree) = fixture();
    sc.workload.flows.retain(|f| f.arrival < horizon);
    sc.duration = horizon;
    let mut ctrl = ScdaControl::new(&sc, &ScdaOptions::default(), &tree);
    let mut acct = RunAccounting::new(sc.throughput_interval, scda_obs::Obs::disabled());
    let mut net = Network::new(tree.topo.clone());
    for &s in &tree.all_servers() {
        for &c in &tree.clients {
            net.base_rtt_between(s, c);
            net.base_rtt_between(c, s);
        }
    }
    let mut result = None;
    let n = allocations(|| {
        result = Some(SimKernel::new(net).run(
            &sc,
            &mut ctrl,
            &mut BestRatePlacement,
            &mut ExplicitRateTransport,
            &mut acct,
        ));
    });
    let r = result.expect("the replay ran");
    (n, r.completed, r.throughput.points().len())
}

#[test]
fn whole_replay_allocations_do_not_grow_with_the_horizon() {
    // Twice the horizon at the same arrival rate: about twice the
    // requests, completions and throughput bins, and the same scale of
    // flows pending and in flight. Growth belongs only to the four output
    // `Vec`s that keep one entry per completion or per bin (`FctStats`'s
    // records and `ThroughputSeries`'s three columns). Each may double
    // twice more: once because its length doubles, once more because a
    // Poisson count need not stop at exactly double. The same slack
    // absorbs an in-flight table reaching a higher high-water mark once.
    // An allocation per completing tick or per flow adds a hundred.
    const OUTPUT_VECS: u64 = 4;
    const BOUND: u64 = 2 * OUTPUT_VECS;
    let (short, short_done, short_bins) = replay_allocations(10.0);
    let (long, long_done, long_bins) = replay_allocations(20.0);
    assert!(
        long_done > short_done * 3 / 2 && long_bins == 2 * short_bins,
        "the longer replay must do more work: {short_done} -> {long_done} completions, \
         {short_bins} -> {long_bins} bins"
    );
    assert!(
        long <= short + BOUND,
        "a 20 s replay allocated {long} times, a 10 s one {short}: more than \
         {BOUND} output-buffer doublings apart"
    );
}

#[test]
fn scheduler_push_and_batch_drain() {
    const DEPTH: usize = 256;
    let step = 1e-3;
    let mut sched: Scheduler<usize> = Scheduler::new();
    let mut batch = Vec::new();
    // One start falls due and one more is parked behind the rest; every
    // fourth arrival shares its predecessor's timestamp, so some drains
    // pop a batch of two.
    let cycle = |i: usize, sched: &mut Scheduler<usize>, batch: &mut Vec<usize>| {
        let t = (i + DEPTH - usize::from(i % 4 == 3)) as f64 * step;
        sched.at(t, i);
        while sched.pop_batch_until(i as f64 * step, batch).is_some() {}
    };
    for i in 0..DEPTH {
        sched.at(i as f64 * step, i);
    }
    for i in 0..4 * DEPTH {
        cycle(i, &mut sched, &mut batch);
    }
    let n = allocations(|| {
        for i in 4 * DEPTH..40 * DEPTH {
            cycle(i, &mut sched, &mut batch);
        }
    });
    assert_eq!(n, 0, "push / pop_batch_until cycles allocated {n} times");
}
