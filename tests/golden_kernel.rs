//! Golden-equivalence pins for the staged simulation kernel.
//!
//! The `runner` module was refactored from one monolithic loop into a
//! [`SimKernel`](scda::experiments::SimKernel) driving pluggable policy
//! traits. These tests pin the refactor to the monolith's exact output:
//! every constant below was captured from the pre-refactor runner on the
//! same trimmed seed-42 video scenario, and the kernel must reproduce it
//! *bit-for-bit* — identical completed counts, violation/mitigation/
//! replication/round counters, and f64-equal mean FCT (compared via
//! `to_bits`, not an epsilon).
//!
//! If a change intentionally alters simulation behavior, regenerate the
//! constants with
//! `cargo run --release --example golden_capture -p scda-experiments`
//! and say so in the PR. An unintentional diff here is a determinism or
//! equivalence bug.
//!
//! These pins also survived the hyperscale struct-of-arrays refactor
//! (DESIGN.md §10) *without regeneration*: flattening the control
//! tree's per-node state into columns, columnizing the eq. 2/5 pass,
//! run-compressing the downward Ř pass and rehousing transport flows
//! in a generational arena all reproduce the monolith's outputs
//! bit-for-bit. Keep it that way — columnized loops may reorder which
//! element is processed when, but must preserve each element's exact
//! floating-point op sequence.

use scda_core::{PriorityPolicy, ResourceProfile, SelectorConfig};
use scda_experiments::runner::{
    run_randtcp, run_scda, DataTransport, EnergyOptions, ReservationPlan, RunResult, ScdaOptions,
    SelectionPolicy,
};
use scda_experiments::{Scale, Scenario};

/// The capture scenario: seed-42 Quick video workload with control
/// flows, trimmed to the first 5 s of arrivals over a 15 s horizon.
fn golden_scenario() -> Scenario {
    let mut sc = Scenario::video(Scale::Quick, true, 42);
    sc.workload.flows.retain(|f| f.arrival < 5.0);
    sc.duration = 15.0;
    sc
}

/// One pre-refactor capture: lifecycle counters plus the mean-FCT bits.
struct Golden {
    completed: usize,
    sla_violations: usize,
    mitigations_applied: usize,
    replications_completed: usize,
    control_rounds: usize,
    changed_dirs_total: usize,
    mean_fct_bits: u64,
}

fn assert_matches(label: &str, r: &RunResult, g: &Golden) {
    assert_eq!(r.completed, g.completed, "{label}: completed");
    assert_eq!(r.sla_violations, g.sla_violations, "{label}: sla");
    assert_eq!(
        r.mitigations_applied, g.mitigations_applied,
        "{label}: mitigations"
    );
    assert_eq!(
        r.replications_completed, g.replications_completed,
        "{label}: replications"
    );
    assert_eq!(r.control_rounds, g.control_rounds, "{label}: rounds");
    assert_eq!(
        r.changed_dirs_total, g.changed_dirs_total,
        "{label}: changed dirs"
    );
    let mean = r.fct.mean_fct().expect("run completed flows");
    assert_eq!(
        mean.to_bits(),
        g.mean_fct_bits,
        "{label}: mean FCT drifted — got {mean} ({:#018x}), pinned {:#018x}",
        mean.to_bits(),
        g.mean_fct_bits
    );
}

#[test]
fn randtcp_matches_pre_refactor_run() {
    let r = run_randtcp(&golden_scenario());
    assert_matches(
        "randtcp",
        &r,
        &Golden {
            completed: 229,
            sla_violations: 0,
            mitigations_applied: 0,
            replications_completed: 0,
            control_rounds: 0,
            changed_dirs_total: 0,
            mean_fct_bits: 0x3fe80a3c7b07d981,
        },
    );
}

#[test]
fn ablation_grid_matches_pre_refactor_runs() {
    // The full 2×2 selection × transport grid: each cell is a different
    // policy composition over the same kernel, and each must reproduce
    // the monolith's exact numbers (including the RNG draw sequence of
    // the Random cells).
    let sc = golden_scenario();
    let cells: [(SelectionPolicy, DataTransport, &str, Golden); 4] = [
        (
            SelectionPolicy::BestRate,
            DataTransport::ExplicitRate,
            "best+explicit",
            Golden {
                completed: 229,
                sla_violations: 26,
                mitigations_applied: 0,
                replications_completed: 0,
                control_rounds: 299,
                changed_dirs_total: 30,
                mean_fct_bits: 0x3fcfdaf5c497f3fc,
            },
        ),
        (
            SelectionPolicy::BestRate,
            DataTransport::Tcp,
            "best+tcp",
            Golden {
                completed: 229,
                sla_violations: 14,
                mitigations_applied: 0,
                replications_completed: 0,
                control_rounds: 299,
                changed_dirs_total: 14,
                mean_fct_bits: 0x3fe5cc4278f945a9,
            },
        ),
        (
            SelectionPolicy::Random,
            DataTransport::ExplicitRate,
            "random+explicit",
            Golden {
                completed: 229,
                sla_violations: 22,
                mitigations_applied: 0,
                replications_completed: 0,
                control_rounds: 299,
                changed_dirs_total: 30,
                mean_fct_bits: 0x3fcfc7a484c89ab1,
            },
        ),
        (
            SelectionPolicy::Random,
            DataTransport::Tcp,
            "random+tcp",
            Golden {
                completed: 229,
                sla_violations: 16,
                mitigations_applied: 0,
                replications_completed: 0,
                control_rounds: 299,
                changed_dirs_total: 21,
                mean_fct_bits: 0x3fe5cc4278f945ab,
            },
        ),
    ];
    for (sel, tr, label, golden) in &cells {
        let opts = ScdaOptions {
            selection_policy: *sel,
            transport_kind: *tr,
            ..Default::default()
        };
        assert_matches(label, &run_scda(&sc, &opts), golden);
    }
}

#[test]
fn kitchen_sink_matches_pre_refactor_run() {
    // Every optional subsystem at once — priorities, energy + dormancy,
    // SLA mitigation, write replication, reservations, resource books —
    // so the pin covers the control paths the default options skip.
    let sc = golden_scenario();
    let opts = ScdaOptions {
        selector: SelectorConfig {
            r_scale: 0.5 * sc.topo.base_bw_bps / 8.0,
            power_aware: true,
        },
        priority: Some(PriorityPolicy::ShortestFirst {
            scale_bytes: 500_000.0,
            gamma: 0.7,
        }),
        energy: Some(EnergyOptions::default()),
        mitigation: true,
        replicate_writes: true,
        reservations: Some(ReservationPlan {
            every: 2,
            min_rate: 1_000_000.0,
        }),
        resource_profiles: Some(vec![ResourceProfile::default()]),
        ..Default::default()
    };
    let r = run_scda(&sc, &opts);
    assert_matches(
        "kitchen-sink",
        &r,
        &Golden {
            completed: 229,
            sla_violations: 130,
            mitigations_applied: 27,
            replications_completed: 67,
            control_rounds: 299,
            changed_dirs_total: 262,
            mean_fct_bits: 0x3fe906cb09237bf1,
        },
    );
    let energy = r.energy_joules.expect("energy accounted");
    assert_eq!(
        energy.to_bits(),
        0x40d54f25e280e8bd,
        "kitchen-sink: energy drifted — got {energy}"
    );
    assert_eq!(r.dormant_servers, 40, "kitchen-sink: dormant servers");
}
