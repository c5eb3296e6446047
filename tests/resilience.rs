//! Resilience and §IV/§VIII-B machinery in full runs: the in-band SLA
//! mitigation ladder (reserve bandwidth on violated links), internal
//! replication of completed writes, the OpenFlow SJF weighting, and link
//! failure handling at the network layer.

use scda::core::sla::SlaPolicy;
use scda::experiments::{run_scda, ScdaOptions};
use scda::prelude::*;
use scda::transport::TickSummary;

fn hot_scenario(seed: u64) -> Scenario {
    // Compress arrivals into a short burst to force contention.
    let mut sc = Scenario::video(Scale::Quick, false, seed);
    sc.workload.flows.retain(|f| f.arrival < 8.0);
    for f in sc.workload.flows.iter_mut() {
        f.arrival /= 3.0;
    }
    sc.duration = 16.0;
    sc
}

#[test]
fn mitigation_applies_reserve_bandwidth_and_reduces_violations() {
    let sc = hot_scenario(51);
    let plain = run_scda(&sc, &ScdaOptions::default());
    let mitigated = run_scda(
        &sc,
        &ScdaOptions {
            mitigation: Some(SlaPolicy::default()),
            mitigation_reserve_factor: 1.5,
            ..Default::default()
        },
    );
    assert!(
        plain.sla_violations > 0,
        "the burst must overload something"
    );
    assert!(
        mitigated.mitigations_applied > 0,
        "reserve bandwidth must have been granted"
    );
    assert!(
        mitigated.sla_violations < plain.sla_violations,
        "mitigation must reduce violations: {} vs {}",
        mitigated.sla_violations,
        plain.sla_violations
    );
    // Extra capacity can only help completion times.
    let pf = plain.fct.mean_fct().expect("completions");
    let mf = mitigated.fct.mean_fct().expect("completions");
    assert!(
        mf <= pf * 1.05,
        "mitigated {mf} should not be slower than plain {pf}"
    );
}

#[test]
fn replication_creates_and_completes_internal_transfers() {
    let mut sc = Scenario::video(Scale::Quick, false, 53);
    sc.workload.flows.retain(|f| f.arrival < 4.0);
    // Make everything a write so every completion schedules a replica.
    for f in sc.workload.flows.iter_mut() {
        f.direction = scda::workloads::FlowDirection::Write;
    }
    sc.duration = 20.0;
    let writes = sc.workload.len();
    let r = run_scda(
        &sc,
        &ScdaOptions {
            replicate_writes: true,
            ..Default::default()
        },
    );
    assert!(
        r.replications_completed > 0,
        "internal writes must complete"
    );
    assert!(
        r.replications_completed <= writes,
        "at most one replica per write"
    );
    // External FCT stats must not contain the internal transfers.
    assert_eq!(r.completed, r.fct.len());
    assert!(r.completed <= writes);
}

#[test]
fn replication_load_slows_external_flows_slightly_not_catastrophically() {
    let mut sc = Scenario::video(Scale::Quick, false, 57);
    sc.workload.flows.retain(|f| f.arrival < 4.0);
    sc.duration = 20.0;
    let without = run_scda(&sc, &ScdaOptions::default());
    let with = run_scda(
        &sc,
        &ScdaOptions {
            replicate_writes: true,
            ..Default::default()
        },
    );
    let a = without.fct.mean_fct().expect("completions");
    let b = with.fct.mean_fct().expect("completions");
    assert!(
        b < 3.0 * a,
        "replication traffic must not collapse the cloud: {a} vs {b}"
    );
}

#[test]
fn openflow_sjf_weighting_changes_allocations() {
    let sc = hot_scenario(59);
    let uniform = run_scda(&sc, &ScdaOptions::default());
    let openflow = run_scda(
        &sc,
        &ScdaOptions {
            openflow_sjf: Some(scda::core::OpenFlowSjf::default()),
            ..Default::default()
        },
    );
    assert_ne!(
        uniform.fct.mean_fct(),
        openflow.fct.mean_fct(),
        "packet-count weighting must alter the schedule"
    );
    // The weighting redistributes rates but must not break the system:
    // throughput stays in the same ballpark and everything completes.
    // (Every fresh flow starts at the maximum weight — zero packets sent —
    // so the schedule is burstier than uniform max-min; the paper's
    // OpenFlow switch would smooth this at packet granularity.)
    assert_eq!(openflow.completed, uniform.completed);
    let ut = uniform.throughput.mean_aggregate();
    let ot = openflow.throughput.mean_aggregate();
    assert!(
        ot > 0.5 * ut,
        "aggregate throughput collapsed: {ot} vs {ut}"
    );
}

#[test]
fn link_failure_mid_run_is_survivable_at_the_network_layer() {
    use scda::simnet::{FlowId, Network, NodeId};
    use scda::transport::{AnyTransport, FlowDriver, Reno};
    let tree = ThreeTierConfig {
        racks: 2,
        servers_per_rack: 2,
        racks_per_agg: 2,
        clients: 1,
        ..Default::default()
    }
    .build();
    let (edge_up, _) = tree.edge_links[0];
    let a: NodeId = tree.servers[0][0];
    let b: NodeId = tree.servers[1][0];
    let mut driver = FlowDriver::new(Network::new(tree.topo));
    driver.start_flow(
        FlowId(1),
        a,
        b,
        5e6,
        AnyTransport::Tcp(Reno::default()),
        0.0,
    );
    // Run a bit, fail the rack uplink, keep running: the in-flight flow
    // starves (its path is pinned), but a rerouted replacement finishes.
    let mut summary = TickSummary::default();
    let mut now = 0.0;
    for _ in 0..100 {
        driver.tick(now, 0.005, &mut summary);
        now += 0.005;
    }
    driver.net_mut().fail_link(edge_up);
    for _ in 0..200 {
        driver.tick(now, 0.005, &mut summary);
        now += 0.005;
    }
    let stuck = driver
        .progress(FlowId(1))
        .expect("still active")
        .remaining();
    assert!(stuck > 0.0, "flow over a failed link cannot finish");
    // The §IV-A answer: abort and reassign (here: restore + new flow).
    driver.abort_flow(FlowId(1)).expect("was active");
    driver.net_mut().restore_link(edge_up);
    driver.start_flow(
        FlowId(2),
        a,
        b,
        5e6,
        AnyTransport::Tcp(Reno::default()),
        now,
    );
    let mut done = false;
    for _ in 0..4000 {
        driver.tick(now, 0.005, &mut summary);
        if !summary.completed.is_empty() {
            done = true;
            break;
        }
        now += 0.005;
    }
    assert!(done, "reassigned flow must complete after restoration");
}
