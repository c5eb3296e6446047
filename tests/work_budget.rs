//! Work budgets: the control round's work as exact, host-independent
//! counts.
//!
//! Wall clock is a noisy performance signal; the work the simulator does
//! is deterministic. These pins hold the per-τ round's totals on the
//! quick fixtures (seed 1) exactly:
//!
//! * `ctrl.refolds` — RAs pass 1 re-folded;
//! * `ctrl.redescents` — `(RM position, level)` entries pass 2
//!   re-evaluated;
//! * `index.leaves_rewritten` — placement-index leaves the per-round
//!   refresh rewrote;
//! * `changed_dirs_total` — the §IV Δ-reports (also in `sim_digest`).
//!
//! A change that does more work fails here with the counter named. A
//! change that does less updates the pin and cites the ratio; a pin is
//! never raised without saying why. Each run is also held below the
//! dense round, which re-folds every RA, re-descends every position at
//! every level and offers every leaf, every round.

use scda::core::{ControlTree, MetricKind, Params};
use scda::experiments::runner::{run_scda, ScdaOptions};
use scda::experiments::{Scale, Scenario};
use scda::obs::{metric, Obs};

/// Exact totals of one observed run.
#[derive(Debug, PartialEq, Eq)]
struct Work {
    refolds: u64,
    redescents: u64,
    leaves_rewritten: u64,
    changed_dirs: usize,
}

/// What the dense round does over the same rounds: every RA, every
/// position at each of the `h_max` levels, every leaf.
#[derive(Debug)]
struct Dense {
    refolds: u64,
    redescents: u64,
    leaves: u64,
}

fn work_of(sc: &Scenario) -> (Work, Dense) {
    let obs = Obs::enabled();
    let opts = ScdaOptions {
        obs: obs.clone(),
        ..ScdaOptions::default()
    };
    let result = run_scda(sc, &opts);
    let reg = obs.metrics_snapshot().expect("obs is enabled");
    let rounds = reg.counter(metric::CTRL_ROUNDS);
    let tree = sc.topo.build();
    let ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    let servers = tree.all_servers().len() as u64;
    let ras = ct.len() as u64 - servers;
    let dense = Dense {
        refolds: rounds * ras,
        redescents: rounds * servers * u64::from(ct.hmax()),
        leaves: rounds * servers,
    };
    let work = Work {
        refolds: reg.counter(metric::CTRL_REFOLDS),
        redescents: reg.counter(metric::CTRL_REDESCENTS),
        leaves_rewritten: reg.counter(metric::INDEX_LEAVES_REWRITTEN),
        changed_dirs: result.changed_dirs_total,
    };
    (work, dense)
}

fn check(label: &str, sc: &Scenario, pinned: Work) {
    let (work, dense) = work_of(sc);
    assert_eq!(work, pinned, "{label}: round work moved off its pin");
    assert!(
        work.refolds < dense.refolds,
        "{label}: {work:?} vs {dense:?}"
    );
    assert!(
        work.redescents < dense.redescents,
        "{label}: {work:?} vs {dense:?}"
    );
    assert!(
        work.leaves_rewritten < dense.leaves,
        "{label}: {work:?} vs {dense:?}"
    );
}

#[test]
fn quick_video_round_work_is_pinned() {
    check(
        "video",
        &Scenario::video(Scale::Quick, true, 1),
        // Dense: 11 000 refolds, 120 000 redescents, 40 000 leaves.
        Work {
            refolds: 382,
            redescents: 3_090,
            leaves_rewritten: 1_020,
            changed_dirs: 200,
        },
    );
}

#[test]
fn quick_datacenter_round_work_is_pinned() {
    check(
        "datacenter",
        &Scenario::datacenter(Scale::Quick, 1.0, 1),
        // Dense: 11 000 refolds, 120 000 redescents, 40 000 leaves.
        Work {
            refolds: 285,
            redescents: 4_260,
            leaves_rewritten: 1_880,
            changed_dirs: 234,
        },
    );
}
