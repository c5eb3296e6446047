//! Golden pins for the §IX multipath study
//! (`scda_experiments::multipath::run_multipath`).
//!
//! No figure or benchmark workload runs the Clos experiment, so these
//! pins are what notice a change in how it opens flows, re-levels rates
//! or samples link loads. Every number must reproduce *bit-for-bit* —
//! floats are compared via `to_bits`, not an epsilon. A failure prints
//! the observed tuple in the pinned form; transplant it only if the
//! change intends the behaviour change and says so.

use scda_experiments::{run_multipath, MultipathConfig, PathPolicy};

/// One capture, in `MultipathResult` field order.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    completed: usize,
    offered: usize,
    mean_fct_bits: u64,
    fairness_bits: u64,
    peak_link_utilization_bits: u64,
}

fn capture(policy: PathPolicy) -> Golden {
    let r = run_multipath(
        &MultipathConfig {
            duration: 10.0,
            seed: 3,
            ..Default::default()
        },
        policy,
    );
    Golden {
        completed: r.completed,
        offered: r.offered,
        mean_fct_bits: r.fct.mean_fct().expect("flows completed").to_bits(),
        fairness_bits: r.fairness.expect("rates exist").to_bits(),
        peak_link_utilization_bits: r.peak_link_utilization.to_bits(),
    }
}

#[test]
fn ecmp_hash_matches_pinned_run() {
    assert_eq!(
        capture(PathPolicy::EcmpHash),
        Golden {
            completed: 253,
            offered: 253,
            mean_fct_bits: 0x3fddd97c11e7e4b4,
            fairness_bits: 0x3fed5da5e062c752,
            peak_link_utilization_bits: 0x3fbb1f068e116577,
        }
    );
}

#[test]
fn max_min_route_matches_pinned_run() {
    assert_eq!(
        capture(PathPolicy::MaxMinRoute),
        Golden {
            completed: 253,
            offered: 253,
            mean_fct_bits: 0x3fd53d1788219c1f,
            fairness_bits: 0x3fec565ad68d8d8e,
            peak_link_utilization_bits: 0x3fbf0e12f6fbdd37,
        }
    );
}

/// Every 2 MB flow is an elephant at a 1 MB threshold, so each open
/// places on the least-committed path from the live offered loads.
#[test]
fn hedera_all_elephants_matches_pinned_run() {
    assert_eq!(
        capture(PathPolicy::HederaLike {
            elephant_bytes: 1e6
        }),
        Golden {
            completed: 253,
            offered: 253,
            mean_fct_bits: 0x3fde479323eab9fd,
            fairness_bits: 0x3fed1b162ff2cccf,
            peak_link_utilization_bits: 0x3fbf3f3d827531f9,
        }
    );
}
