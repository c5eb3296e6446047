//! Seeded metric-churn properties for the persistent placement index:
//! after the initial build and after **every** incremental refresh, the
//! index must return a bit-identical `(server, score)` to a fresh
//! [`Selector`] constructed over the same metrics — across every
//! content class, both placement stages, read sourcing, arbitrary
//! exclusion sets, dormant and waking fleets, a uniform congestion
//! discount paired with its monotone prune bound, and §VII-D power-aware
//! ranking over a heterogeneous energy book ticked between refreshes.

use proptest::prelude::*;
use scda_core::tree::MAX_LEVELS;
use scda_core::{
    ContentClass, EnergyBook, NoDiscount, NodeSet, PlaceQuery, PlacementIndex, PowerModelConfig,
    RateDiscount, Selector, SelectorConfig, ServerMetrics,
};
use scda_simnet::NodeId;

const CLASSES: [ContentClass; 4] = [
    ContentClass::Interactive,
    ContentClass::SemiInteractiveWrite,
    ContentClass::SemiInteractiveRead,
    ContentClass::Passive,
];

fn entry(id: u32, down: f64, up: f64) -> ServerMetrics {
    ServerMetrics {
        server: NodeId(id),
        r0_down: down,
        r0_up: up,
        path_down: down,
        path_up: up,
        down_levels: [down; MAX_LEVELS],
        up_levels: [up; MAX_LEVELS],
        n_levels: 4,
    }
}

/// The runner's outstanding-load shape: one datacenter-wide term applied
/// identically to every server, folded into the prune bound so subtree
/// rejection survives the uniform shrink.
struct UniformDiscount {
    k: f64,
    cap: f64,
}

impl RateDiscount for UniformDiscount {
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
        (self.bound(m.path_down), self.bound(m.path_up))
    }

    fn bound(&self, raw: f64) -> f64 {
        raw / (1.0 + self.k * raw / self.cap)
    }
}

/// Quantized rates: a small value lattice forces ties (the last-max-wins
/// rule) and straddles every interesting `r_scale` threshold.
fn rate() -> impl Strategy<Value = f64> {
    (0u32..24).prop_map(|v| 5.0 + 5.0 * v as f64)
}

fn flag() -> impl Strategy<Value = bool> {
    (0u32..2).prop_map(|v| v == 1)
}

#[derive(Debug, Clone)]
struct ChurnPlan {
    initial: Vec<(f64, f64)>,
    updates: Vec<(usize, f64, f64)>,
    excluded: Vec<bool>,
    dormant: Vec<bool>,
    /// Which of the dormant servers are mid-wake (unusable, idle power).
    waking: Vec<bool>,
    r_scale: f64,
}

fn churn_plan() -> impl Strategy<Value = ChurnPlan> {
    (1usize..20).prop_flat_map(|n| {
        (
            proptest::collection::vec((rate(), rate()), n),
            proptest::collection::vec((0..n, rate(), rate()), 0..14),
            proptest::collection::vec(flag(), n),
            proptest::collection::vec(flag(), n),
            proptest::collection::vec(flag(), n),
            prop_oneof![Just(30.0), Just(60.0), Just(115.0), Just(f64::INFINITY)],
        )
            .prop_map(
                |(initial, updates, excluded, dormant, waking, r_scale)| ChurnPlan {
                    initial,
                    updates,
                    excluded,
                    dormant,
                    waking,
                    r_scale,
                },
            )
    })
}

/// Compare every query shape the control plane issues against a fresh
/// `Selector` over `view` (the metrics as the selector should see them:
/// raw for `NoDiscount`, pre-discounted for a uniform discount).
fn assert_matches_selector<D: RateDiscount>(
    idx: &PlacementIndex,
    view: &[ServerMetrics],
    energy: Option<&EnergyBook>,
    cfg: &SelectorConfig,
    discount: &D,
    exclude: &NodeSet,
    label: &str,
) {
    let sel = Selector::new(view, energy, cfg);
    let q = PlaceQuery {
        energy,
        cfg,
        discount,
    };
    let primary = view[view.len() / 2].server;
    for class in CLASSES {
        assert_eq!(
            idx.write_target(class, exclude, &q),
            sel.write_target(class, exclude),
            "{label}: write {class:?}"
        );
        assert_eq!(
            idx.replica_target(class, primary, exclude, &q),
            sel.replica_target(class, primary, exclude),
            "{label}: replica {class:?} (primary {primary:?})"
        );
    }
    let replicas: NodeSet = view
        .iter()
        .map(|m| m.server)
        .filter(|s| !exclude.contains(*s))
        .collect();
    assert_eq!(
        idx.read_source(&replicas, &q),
        sel.read_source(&replicas),
        "{label}: read among non-excluded"
    );
    let all: NodeSet = view.iter().map(|m| m.server).collect();
    assert_eq!(
        idx.read_best(&q),
        sel.read_source(&all),
        "{label}: read over all"
    );
}

/// One full equivalence sweep at the index's current state: undiscounted
/// and uniformly discounted, rate-ranked and power-aware, with and
/// without energy, empty and populated exclusion sets.
fn sweep(
    idx: &PlacementIndex,
    metrics: &[ServerMetrics],
    energy: &EnergyBook,
    r_scale: f64,
    exclude: &NodeSet,
    step: usize,
) {
    // Vary the uniform term with the churn step so successive refreshes
    // are checked under different discount strengths.
    let discount = UniformDiscount {
        k: 1.0 + 3.0 * step as f64,
        cap: 100.0,
    };
    let discounted: Vec<ServerMetrics> = metrics
        .iter()
        .map(|m| {
            let (d, u) = discount.adjust(m);
            ServerMetrics {
                path_down: d,
                path_up: u,
                ..*m
            }
        })
        .collect();
    let empty = NodeSet::new();
    for power_aware in [false, true] {
        let cfg = &SelectorConfig {
            r_scale,
            power_aware,
        };
        for energy in [None, Some(energy)] {
            for excl in [&empty, exclude] {
                assert_matches_selector(idx, metrics, energy, cfg, &NoDiscount, excl, "raw");
                assert_matches_selector(
                    idx,
                    &discounted,
                    energy,
                    cfg,
                    &discount,
                    excl,
                    "discounted",
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline churn property: every refresh — full rebuild or
    /// incremental leaf re-bubble — leaves the index bit-identical to a
    /// selector built from scratch.
    #[test]
    fn churned_index_matches_fresh_selector(plan in churn_plan()) {
        let n = plan.initial.len();
        let mut metrics: Vec<ServerMetrics> = plan
            .initial
            .iter()
            .enumerate()
            .map(|(i, &(d, u))| entry(i as u32, d, u))
            .collect();
        let exclude: NodeSet = plan
            .excluded
            .iter()
            .enumerate()
            .filter(|(_, &x)| x)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        // The default model in kW: with P(t) < 1 the power-aware score
        // R̂/P exceeds the raw rate, so a query that still pruned on
        // raw-rate bounds would lose to the scan here.
        let model = PowerModelConfig {
            idle_watts: 0.15,
            load_watts: 0.1,
            dormant_watts: 0.015,
            ..Default::default()
        };
        let mut energy = EnergyBook::new(
            model,
            metrics.iter().map(|m| m.server),
            |i| 0.8 + 0.05 * (i % 8) as f64,
        );
        for (i, &d) in plan.dormant.iter().enumerate() {
            if d {
                energy.scale_down(NodeId(i as u32));
                if plan.waking[i] {
                    // Wakes complete at t = 2.0 — part-way through the
                    // longer churn plans.
                    energy.wake(NodeId(i as u32), 0.0);
                }
            }
        }
        // Uneven load, so P(t) spreads beyond the heterogeneity factors
        // and keeps moving as the book is ticked between refreshes.
        let load = |s: NodeId| (s.0 % 5) as f64 / 4.0;
        energy.tick(0.5, load);

        let mut idx = PlacementIndex::new();
        idx.refresh(&metrics);
        sweep(&idx, &metrics, &energy, plan.r_scale, &exclude, 0);

        for (step, &(i, d, u)) in plan.updates.iter().enumerate() {
            metrics[i] = entry(i as u32, d, u);
            let changed = idx.refresh(&metrics);
            prop_assert!(changed <= 1, "one-entry churn rewrites at most one leaf");
            energy.tick(0.5 + 0.25 * (step + 1) as f64, load);
            sweep(&idx, &metrics, &energy, plan.r_scale, &exclude, step + 1);
        }

        // A no-op refresh is free and changes nothing.
        prop_assert_eq!(idx.refresh(&metrics), 0);
        sweep(&idx, &metrics, &energy, plan.r_scale, &exclude, n);
    }
}
