//! The workspace's former source-level lint rules, checked where each now
//! lives:
//!
//! * phase names are [`Phase`] values, whose constants are its only
//!   constructors, so a misspelt phase does not compile;
//! * eq. 2's units are the [`Seconds`], [`Bytes`] and [`BytesPerSec`]
//!   newtypes, so a duration passed as a rate does not compile;
//! * hot-path allocation is measured by the counting allocator in
//!   `common`, which `steady_state_alloc.rs` uses to pin zero-allocation
//!   windows. The tests here check the meter itself: what a window is
//!   charged for, and what it is not.
//!
//! Float equality and `unwrap` are clippy lint levels, pinned by
//! `clippy_gates.rs`; the float compares that are meant are checked here
//! for how they are suppressed.

mod common;

use std::collections::BTreeSet;
use std::path::Path;

use scda_core::{ControlTree, LinkSample, MetricKind, Params, RateCaps, SlaViolation, Telemetry};
use scda_experiments::runner::{run_scda, ScdaOptions};
use scda_experiments::{Scale, Scenario};
use scda_obs::{phase, Obs, Phase};
use scda_simnet::units::{Bytes, BytesPerSec, Seconds};
use scda_simnet::{LinkId, NodeId, ThreeTierConfig};

use common::allocations;

fn workspace_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The profiler's phases and the names the profile report gives them.
const CANONICAL: [(Phase, &str); 5] = [
    (phase::ADMISSION, "kernel.admission"),
    (phase::OPEN, "kernel.open"),
    (phase::CONTROL, "kernel.control"),
    (phase::TICK, "kernel.tick"),
    (phase::PLACE, "kernel.place"),
];

#[test]
fn phase_names_accept_canonical_literals_and_constants() {
    let obs = Obs::enabled();
    for (ph, name) in CANONICAL {
        assert_eq!(ph.name(), name);
        obs.time_phase(ph, || ());
    }
    let report = obs.profile_report().expect("every phase was timed once");
    assert_eq!(report.phases.len(), CANONICAL.len());
    for (_, name) in CANONICAL {
        assert_eq!(report.phase(name).map(|s| s.calls), Some(1), "{name}");
    }
}

/// Every phase the obs crate declares shows up in an observed SCDA run,
/// and the run reports no other: a phase no stage times is dead.
#[test]
fn phase_names_harvested_from_obs_source() {
    let src = workspace_file("crates/obs/src/lib.rs");
    let declared: BTreeSet<&str> = src
        .split("Phase(\"")
        .skip(1)
        .filter_map(|rest| rest.split_once('"'))
        .map(|(name, _)| name)
        .collect();
    let canonical: BTreeSet<&str> = CANONICAL.iter().map(|&(_, name)| name).collect();
    assert_eq!(declared, canonical);

    let mut sc = Scenario::video(Scale::Quick, false, 42);
    sc.workload.flows.retain(|f| f.arrival < 2.0);
    sc.duration = 4.0;
    let opts = ScdaOptions {
        obs: Obs::enabled(),
        ..Default::default()
    };
    let profile = run_scda(&sc, &opts)
        .profile
        .expect("an observed run has a profile");
    let reported: BTreeSet<&str> = profile.phases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(reported, declared);
}

/// The `.rs` files under `dir`, recursively, in path order.
fn rust_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("readable dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
}

/// An intended float compare in library code is suppressed with
/// `#[expect(clippy::float_cmp, reason = "…")]`: an `expect`, so a
/// suppression that no longer suppresses anything fails clippy, and a
/// reason, so the compare's intent sits beside it.
#[test]
fn float_eq_allow_suppresses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates/ is readable") {
        rust_files(
            &krate.expect("readable dir entry").path().join("src"),
            &mut files,
        );
    }
    let mut sites = 0;
    for path in files {
        let src = std::fs::read_to_string(&path).expect("readable source");
        for (at, _) in src.match_indices("clippy::float_cmp") {
            let line = &src[src[..at].rfind('\n').map_or(0, |i| i + 1)..at];
            if line.trim_start().starts_with("//") {
                continue;
            }
            let attr = &src[src[..at].rfind('#').expect("inside an attribute")..];
            if attr.starts_with("#![cfg_attr(not(test), warn(") {
                continue;
            }
            let attr = &attr[..attr.find(")]").expect("attribute closes")];
            assert!(
                attr.starts_with("#[expect(") && attr.contains("reason = \""),
                "{}: a float_cmp suppression must be an `expect` with a reason:\n{attr}",
                path.display()
            );
            sites += 1;
        }
    }
    assert!(
        sites > 0,
        "the scheduler and routing compares are suppressed"
    );
}

/// The newtypes combine only where the dimensions agree, and each
/// operation is the raw `f64` operation, bit for bit.
#[test]
fn unit_dimension_accepts_agreement_and_synonyms() {
    let grid = [0.0, 0.1, 1.0, 3.5, 1e6, 1.25e9];
    for &x in &grid {
        for &y in grid.iter().filter(|&&y| y > 0.0) {
            let bytes: Bytes = BytesPerSec::new(x) * Seconds::new(y);
            assert_eq!(bytes.get().to_bits(), (x * y).to_bits());
            let rate: BytesPerSec = Bytes::new(x) / Seconds::new(y);
            assert_eq!(rate.get().to_bits(), (x / y).to_bits());
            let scaled: Seconds = y * Seconds::new(x);
            assert_eq!(scaled.get().to_bits(), (y * x).to_bits());
            let diff = Bytes::new(x) - Bytes::new(y);
            assert_eq!(diff.get().to_bits(), (x - y).to_bits());
            let (a, b) = (BytesPerSec::new(x), BytesPerSec::new(y));
            assert_eq!(a.min(b).get().to_bits(), x.min(y).to_bits());
            assert_eq!(a.max(b).get().to_bits(), x.max(y).to_bits());
        }
    }
    // Eq. 2 in the newtypes is eq. 2 in raw `f64`, `(β·Q)/d` included.
    let p = Params::default();
    let (c, q) = (1.25e8, 3.0e6);
    let term = p.capacity_term(BytesPerSec::new(c), Bytes::new(q));
    let raw = (p.alpha * c - p.beta * q / p.drain_horizon).max(0.0);
    assert_eq!(term.get().to_bits(), raw.to_bits());
}

/// Demand far above every link's capacity term: every round violates.
struct Overloaded;

impl Telemetry for Overloaded {
    fn sample(&mut self, _: LinkId) -> LinkSample {
        LinkSample {
            flow_rate_sum: 1e12,
            ..Default::default()
        }
    }

    fn rate_caps(&mut self, _: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

/// A small three-tier control tree, warmed by a few violating rounds
/// into `violations`.
fn overloaded_tree(violations: &mut Vec<SlaViolation>) -> ControlTree {
    let tree = ThreeTierConfig {
        racks: 4,
        servers_per_rack: 3,
        racks_per_agg: 2,
        clients: 2,
        ..Default::default()
    }
    .build();
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
    for r in 0..5 {
        ct.control_round_into(f64::from(r), &mut Overloaded, violations);
    }
    assert!(!violations.is_empty(), "the fixture must violate");
    ct
}

/// A fresh `Vec` built per round in the measured path is charged to the
/// window, once per round.
#[test]
fn hot_transitive_fires_on_direct_allocs_in_tagged_fn() {
    let mut violations = Vec::new();
    let mut ct = overloaded_tree(&mut violations);
    let mut demand = 0.0;
    let n = allocations(|| {
        for r in 5..105 {
            ct.control_round_into(f64::from(r), &mut Overloaded, &mut violations);
            let fresh: Vec<f64> = violations.iter().map(|v| v.demand).collect();
            demand += fresh[0];
        }
    });
    assert!(demand > 0.0);
    assert_eq!(n, 100, "one fresh Vec per round");
}

/// An out-parameter grows during warm-up; once at its high-water mark,
/// refilling it is free.
#[test]
fn hot_transitive_exempts_growth_into_out_params() {
    let mut violations = Vec::new();
    let ct = overloaded_tree(&mut violations);
    let mut metrics = Vec::new();
    let growth = allocations(|| ct.server_metrics_into(&mut metrics));
    assert!(growth > 0, "the first fill grows the empty buffer");
    let n = allocations(|| {
        for _ in 0..100 {
            ct.server_metrics_into(&mut metrics);
        }
    });
    assert_eq!(n, 0, "100 refills of a warm buffer allocated {n} times");
}

/// The window sees allocations made anywhere below the call it measures:
/// `control_round` builds its result `Vec` inside the wrapper, while the
/// same rounds through `control_round_into` and a kept buffer are free.
#[test]
fn hot_transitive_reaches_through_helpers_with_a_witness_chain() {
    let mut violations = Vec::new();
    let mut ct = overloaded_tree(&mut violations);
    let into = allocations(|| {
        for r in 5..55 {
            ct.control_round_into(f64::from(r), &mut Overloaded, &mut violations);
        }
    });
    assert_eq!(
        into, 0,
        "50 rounds into a kept buffer allocated {into} times"
    );
    let wrapped = allocations(|| {
        for r in 55..105 {
            assert!(!ct.control_round(f64::from(r), &mut Overloaded).is_empty());
        }
    });
    assert!(wrapped >= 50, "50 wrapped rounds allocated {wrapped} times");
}

/// A window charges only its own thread: the harness runs other tests
/// on other threads, and their allocations are exempt.
#[test]
fn hot_transitive_exempts_test_code() {
    let boxes = || {
        for i in 0..1000_u64 {
            std::hint::black_box(Box::new(i));
        }
    };
    let here = allocations(boxes);
    assert_eq!(here, 1000);
    // Spawning allocates the thread's handle on this thread; what the
    // spawned thread allocates is not charged.
    let elsewhere = allocations(|| std::thread::scope(|s| drop(s.spawn(boxes))));
    assert!(
        elsewhere < 100,
        "another thread's 1000 boxes were charged: {elsewhere}"
    );
}
