//! Determinism: two identical seeded runs must produce *bit-identical*
//! accounting.
//!
//! The golden kernel tests pin one run against stored numbers; this test
//! pins a run against a second run of itself in the same process, which
//! is exactly the property the `BTreeMap`-keyed kernel bookkeeping and
//! the `scda-analyze` determinism lint exist to protect. Any per-process
//! hash seeding, wall-clock leakage, or entropy draw in the kernel,
//! control plane or transport shows up here as a single flipped bit.
//! The same comparison pins an observed run against its unobserved twin:
//! watching a run must not change which code places a request.

use scda_core::SelectorConfig;
use scda_experiments::runner::{run_randtcp, run_scda, EnergyOptions, RunResult, ScdaOptions};
use scda_experiments::{Group, Scale};
use scda_obs::Obs;

/// Compare every float of a run's accounting by exact bit pattern —
/// `assert_eq!` on `f64` would also be exact, but comparing `to_bits`
/// makes failures print the raw patterns and survives NaN.
fn assert_bit_identical(a: &RunResult, b: &RunResult) {
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
