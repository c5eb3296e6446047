//! Determinism: two identical seeded runs must produce *bit-identical*
//! accounting.
//!
//! The golden kernel tests pin one run against stored numbers; this test
//! pins a run against a second run of itself in the same process, which
//! is exactly the property the `BTreeMap`-keyed kernel bookkeeping and
//! the `clippy.toml` hash-map / wall-clock ban exist to protect. Any per-process
//! hash seeding, wall-clock leakage, or entropy draw in the kernel,
//! control plane or transport shows up here as a single flipped bit.
//! The same comparison pins an observed run against its unobserved twin
//! and an audited run against its unaudited one: watching a run must not
//! change which code places a request, or anything else it does. And at
//! paper scale every admission's index answer is pinned against the
//! reference scan it is specified by.

use scda_audit::Audit;
use scda_core::testing::Selector;
use scda_core::{NodeSet, RateDiscount, SelectorConfig, ServerMetrics};
use scda_experiments::runner::{
    run_randtcp, run_scda, run_scda_with, BestRatePlacement, EnergyOptions, ExplicitRateTransport,
    Placement, PlacementCtx, RunResult, ScdaOptions,
};
use scda_experiments::{Group, Scale, Scenario};
use scda_obs::Obs;
use scda_simnet::NodeId;
use scda_workloads::FlowDirection;

/// Compare every float of a run's accounting by exact bit pattern —
/// `assert_eq!` on `f64` would also be exact, but comparing `to_bits`
/// makes failures print the raw patterns and survives NaN.
fn assert_bit_identical(a: &RunResult, b: &RunResult) {
    assert_eq!(a.digest(), b.digest(), "sim digests differ");
    assert_eq!(a.system, b.system);
    assert_eq!(a.requested, b.requested);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.sla_violations, b.sla_violations);

    let (ra, rb) = (a.fct.records(), b.fct.records());
    assert_eq!(ra.len(), rb.len(), "completed-flow counts differ");
    for (i, (x, y)) in ra.iter().zip(rb).enumerate() {
        assert_eq!(
            x.size_bytes.to_bits(),
            y.size_bytes.to_bits(),
            "flow {i} size"
        );
        assert_eq!(x.start.to_bits(), y.start.to_bits(), "flow {i} start");
        assert_eq!(x.finish.to_bits(), y.finish.to_bits(), "flow {i} finish");
    }

    let (pa, pb) = (a.throughput.points(), b.throughput.points());
    assert_eq!(pa.len(), pb.len(), "throughput series lengths differ");
    for (i, (x, y)) in pa.iter().zip(&pb).enumerate() {
        assert_eq!(x.time.to_bits(), y.time.to_bits(), "point {i} time");
        assert_eq!(
            x.aggregate.to_bits(),
            y.aggregate.to_bits(),
            "point {i} aggregate"
        );
        assert_eq!(
            x.per_flow.to_bits(),
            y.per_flow.to_bits(),
            "point {i} per-flow"
        );
    }
}

#[test]
fn scda_runs_are_bit_identical() {
    let sc = Group::DatacenterK3.scenario(Scale::Quick, 42);
    let opts = ScdaOptions::default();
    let first = run_scda(&sc, &opts);
    let second = run_scda(&sc, &opts);
    assert!(first.completed > 0, "scenario must exercise the kernel");
    assert_bit_identical(&first, &second);
}

#[test]
fn randtcp_runs_are_bit_identical() {
    // RandTCP carries the seeded placement RNG — same seed, same draws.
    let sc = Group::VideoNoControl.scenario(Scale::Quick, 7);
    let first = run_randtcp(&sc);
    let second = run_randtcp(&sc);
    assert!(first.completed > 0, "scenario must exercise the kernel");
    assert_bit_identical(&first, &second);
}

#[test]
fn observed_power_aware_run_matches_unobserved() {
    // Observation and §VII-D ranking both used to move admission onto a
    // separate scan; now every run decides through the placement index
    // and an observed one only reports more. Writes with replication, so
    // the power-aware replica pick is covered too.
    let sc = Group::DatacenterK3.scenario(Scale::Quick, 42);
    let opts = ScdaOptions {
        selector: SelectorConfig {
            r_scale: 0.5 * sc.topo.base_bw_bps / 8.0,
            power_aware: true,
        },
        energy: Some(EnergyOptions::default()),
        replicate_writes: true,
        ..Default::default()
    };
    let plain = run_scda(&sc, &opts);
    let obs = Obs::enabled();
    let observed = run_scda(
        &sc,
        &ScdaOptions {
            obs: obs.clone(),
            ..opts
        },
    );
    assert!(plain.replications_completed > 0, "replica picks exercised");
    assert_bit_identical(&plain, &observed);
    assert_eq!(plain.energy_joules, observed.energy_joules);

    let trace = obs.trace_jsonl().expect("enabled handle has a trace");
    let selected = trace.matches("\"event\":\"server_selected\"").count();
    assert_eq!(
        selected, observed.requested,
        "one server_selected event per external admission"
    );
}

#[test]
fn audited_mitigating_run_matches_unaudited() {
    // The audit handle only records. Fig. 7's video trace with the
    // mitigation ladder on is the run where every hook fires: lifecycle
    // spans, attributed violations, episodes closed by added bandwidth.
    let sc = Scenario::video(Scale::Quick, true, 1);
    let opts = ScdaOptions {
        mitigation: true,
        ..Default::default()
    };
    assert!(!opts.audit.is_enabled(), "the default handle is disabled");
    let plain = run_scda(&sc, &opts);
    let audit = Audit::enabled();
    let audited = run_scda(
        &sc,
        &ScdaOptions {
            audit: audit.clone(),
            ..opts
        },
    );
    assert_bit_identical(&plain, &audited);
    assert_eq!(plain.mitigations_applied, audited.mitigations_applied);

    let report = audit.report().expect("enabled handle has a report");
    assert!(report.violations > 0, "violations exercised");
    assert_eq!(report.violations, audited.sla_violations as u64);
    assert_eq!(report.time_to_mitigation_s.count(), report.violations);
}

/// The stock placement, with every answer checked against the reference
/// it is specified by: a `Selector` scan (`max_by(total_cmp)`) over
/// `ctx.index.metrics()` discounted through `ctx.query.discount.adjust`.
#[derive(Default)]
struct ScanChecked {
    admissions: usize,
    all: NodeSet,
}

impl Placement for ScanChecked {
    fn place(&mut self, ctx: &PlacementCtx<'_>) -> Option<(NodeId, f64)> {
        if self.admissions == 0 {
            self.all = ctx.servers.iter().copied().collect();
        }
        let indexed = BestRatePlacement.place(ctx);
        let discounted: Vec<ServerMetrics> = ctx
            .index
            .metrics()
            .iter()
            .map(|m| {
                let (path_down, path_up) = ctx.query.discount.adjust(m);
                ServerMetrics {
                    path_down,
                    path_up,
                    ..*m
                }
            })
            .collect();
        let scan = Selector::new(&discounted, ctx.query.energy, ctx.query.cfg);
        let scanned = match ctx.direction {
            FlowDirection::Write => scan.write_target(ctx.class, &NodeSet::new()),
            FlowDirection::Read => scan.read_source(&self.all),
        };
        let bits = |pick: Option<(NodeId, f64)>| pick.map(|(s, rate)| (s, rate.to_bits()));
        assert_eq!(
            bits(indexed),
            bits(scanned),
            "admission {}: index and scan disagree",
            self.admissions
        );
        self.admissions += 1;
        indexed
    }
}

/// Replay the first `flows` requests of `sc` under [`ScanChecked`].
fn assert_index_matches_scan(mut sc: Scenario, flows: usize) {
    sc.workload.flows.truncate(flows);
    sc.duration = sc.workload.flows.last().expect("non-empty prefix").arrival + 1.0;
    let mut placement = ScanChecked::default();
    run_scda_with(
        &sc,
        &ScdaOptions::default(),
        &mut placement,
        &mut ExplicitRateTransport,
    );
    assert_eq!(placement.admissions, flows);
}

#[test]
fn index_matches_scan_on_paper_scale_reads() {
    // The control tree hands out rates one or two ulps apart inside a
    // rack; a prune bound that is monotone only in ℝ lost the true
    // argmax at admission 5007 of this trace (and at 8625 of seed 2,
    // 13007 of seed 102) — the shortest prefix that shows it.
    assert_index_matches_scan(Scenario::video(Scale::Full, true, 101), 5008);
}

#[test]
fn index_matches_scan_on_paper_scale_writes() {
    assert_index_matches_scan(Scenario::datacenter(Scale::Full, 1.0, 1), 4000);
}
