//! Print the bit-exact golden numbers `tests/golden_kernel.rs` pins.
//!
//! The integration test asserts that the staged kernel reproduces these
//! results exactly (same completed counts, f64-equal mean FCT). If a PR
//! *intentionally* changes simulation behavior, rerun this example
//!
//! ```text
//! cargo run --release --example golden_capture -p scda-experiments
//! ```
//!
//! and transplant the printed constants into the test, noting the
//! behavior change in the PR description. If you did not intend to
//! change behavior, the diff in these numbers is a bug.

use scda_core::{PriorityPolicy, ResourceProfile};
use scda_experiments::runner::{
    run_randtcp, run_scda, DataTransport, EnergyOptions, ReservationPlan, ScdaOptions,
    SelectionPolicy,
};
use scda_experiments::{Scale, Scenario};

fn sc() -> Scenario {
    let mut sc = Scenario::video(Scale::Quick, true, 42);
    sc.workload.flows.retain(|f| f.arrival < 5.0);
    sc.duration = 15.0;
    sc
}

fn show(label: &str, r: &scda_experiments::RunResult) {
    let mean = r.fct.mean_fct().unwrap_or(f64::NAN);
    println!(
        "{label}: completed={} sla={} mitig={} repl={} rounds={} changed={} mean_fct_bits={:#018x} mean_fct={mean}",
        r.completed,
        r.sla_violations,
        r.mitigations_applied,
        r.replications_completed,
        r.control_rounds,
        r.changed_dirs_total,
        mean.to_bits(),
    );
}

fn main() {
    let sc = sc();
    show("randtcp", &run_randtcp(&sc));
    for (sel, sname) in [
        (SelectionPolicy::BestRate, "best"),
        (SelectionPolicy::Random, "random"),
    ] {
        for (tr, tname) in [
            (DataTransport::ExplicitRate, "explicit"),
            (DataTransport::Tcp, "tcp"),
        ] {
            let opts = ScdaOptions {
                selection_policy: sel,
                transport_kind: tr,
                ..Default::default()
            };
            show(&format!("grid/{sname}+{tname}"), &run_scda(&sc, &opts));
        }
    }
    let sink = ScdaOptions {
        selector: scda_core::SelectorConfig {
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
    let r = run_scda(&sc, &sink);
    show("kitchen-sink", &r);
    println!(
        "kitchen-sink extras: energy_bits={:#018x} dormant={}",
        r.energy_joules.unwrap().to_bits(),
        r.dormant_servers
    );
}
