//! Golden pins for the content storage & retrieval lifecycle
//! (`scda_experiments::content_run`).
//!
//! Captured from the materialise-and-scan `Selector` implementation of
//! `run_content` before its three placements (write target, replica
//! target, read source) moved onto `PlacementIndex` queries; the
//! converted code must reproduce every number *bit-for-bit* — mean FCTs
//! are compared via `to_bits`, not an epsilon. A failure prints the
//! observed tuple in the pinned form; transplant it only if the PR
//! intends the behavior change and says so.

use scda_experiments::{run_content, ContentRunConfig, ReplicaScope, SelectionPolicy};

/// One capture, in `ContentRunResult` field order.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    write_mean_fct_bits: u64,
    read_mean_fct_bits: u64,
    replications: usize,
    reads_from_replica: usize,
    reads_from_primary: usize,
    stored_objects: usize,
}

fn capture(selection: SelectionPolicy, replica_scope: ReplicaScope) -> Golden {
    let r = run_content(&ContentRunConfig {
        duration: 20.0,
        selection,
        replica_scope,
        seed: 29,
        ..Default::default()
    });
    Golden {
        write_mean_fct_bits: r.write_fct.mean_fct().expect("writes completed").to_bits(),
        read_mean_fct_bits: r.read_fct.mean_fct().expect("reads completed").to_bits(),
        replications: r.replications,
        reads_from_replica: r.reads_from_replica,
        reads_from_primary: r.reads_from_primary,
        stored_objects: r.stored_objects,
    }
}

#[test]
fn best_rate_global_matches_selector_era_run() {
    assert_eq!(
        capture(SelectionPolicy::BestRate, ReplicaScope::Global),
        Golden {
            write_mean_fct_bits: 0x3fd29e10476add0f,
            read_mean_fct_bits: 0x3fcf89cab562f342,
            replications: 39,
            reads_from_replica: 146,
            reads_from_primary: 234,
            stored_objects: 79,
        }
    );
}

#[test]
fn best_rate_same_rack_matches_selector_era_run() {
    assert_eq!(
        capture(SelectionPolicy::BestRate, ReplicaScope::SameRack),
        Golden {
            write_mean_fct_bits: 0x3fd29e10476add0f,
            read_mean_fct_bits: 0x3fcf6d8b26612f4a,
            replications: 39,
            reads_from_replica: 197,
            reads_from_primary: 183,
            stored_objects: 79,
        }
    );
}

#[test]
fn random_matches_selector_era_run() {
    assert_eq!(
        capture(SelectionPolicy::Random, ReplicaScope::Global),
        Golden {
            write_mean_fct_bits: 0x3fd253f7ced91680,
            read_mean_fct_bits: 0x3fcd368f24ae068d,
            replications: 39,
            reads_from_replica: 187,
            reads_from_primary: 193,
            stored_objects: 79,
        }
    );
}
