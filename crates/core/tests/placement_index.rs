//! Seeded metric-churn properties for the persistent placement index:
//! after the initial build and after **every** incremental refresh, the
//! index must return a bit-identical `(server, score)` to a fresh
//! [`Selector`] constructed over the same metrics — across every
//! content class, both placement stages, read sourcing, arbitrary
//! exclusion sets, dormant and waking fleets, a uniform congestion
//! discount paired with its group bound, and §VII-D power-aware
//! ranking over a heterogeneous energy book ticked between refreshes.
//! A second property drives a shaped index (racks of 10 under
//! aggregations of 4 racks) through a level-structured discount whose
//! counts churn between queries, over rates that sit one and two ulps
//! apart or are identical across the fleet — the inputs on which a
//! prune bound that is monotone only in ℝ loses the argmax.

use proptest::prelude::*;
use scda_core::testing::Selector;
use scda_core::tree::MAX_LEVELS;
use scda_core::{
    discounted_share, share_bound, ContentClass, EnergyBook, GroupSpan, IndexShape, NoDiscount,
    NodeSet, PlaceQuery, PlacementIndex, PowerModelConfig, RateDiscount, SelectorConfig,
    ServerMetrics,
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

/// One datacenter-wide term applied identically to every server, folded
/// into the group bound so rejection survives the uniform shrink.
/// (`entry` repeats the path rate at every cached level.)
struct UniformDiscount {
    k: f64,
    cap: f64,
}

const TOP: usize = MAX_LEVELS - 1;

impl RateDiscount for UniformDiscount {
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
        (
            discounted_share(m.path_down, self.k, self.cap),
            discounted_share(m.path_up, self.k, self.cap),
        )
    }

    fn group_bound(&self, _level: u8, _group: usize, span: &GroupSpan) -> (f64, f64) {
        (
            share_bound(span.down_max[TOP], span.down_second[TOP], self.k, self.cap),
            share_bound(span.up_max[TOP], span.up_second[TOP], self.k, self.cap),
        )
    }
}

/// Quantized rates: a small value lattice forces ties (the last-max-wins
/// rule) and straddles every interesting `r_scale` threshold.
fn rate() -> impl Strategy<Value = f64> {
    (0u32..24).prop_map(|v| 5.0 + 5.0 * v as f64)
}

/// A rate the control tree could hand out (59375000.0 and
/// 59374999.999999985 met in one rack of the paper-scale run), moved by
/// up to two ulps either way.
fn ulp_rate() -> impl Strategy<Value = f64> {
    (
        prop_oneof![Just(59_375_000.0f64), Just(62_500_000.0), Just(9_301_566.5)],
        prop_oneof![
            Just(0i64),
            Just(0),
            Just(0),
            Just(1),
            Just(-1),
            Just(2),
            Just(-2)
        ],
    )
        .prop_map(|(base, ulps)| f64::from_bits((base.to_bits() as i64 + ulps) as u64))
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
    (1usize..20, flag()).prop_flat_map(|(n, ulps)| {
        let rate = move || {
            if ulps {
                ulp_rate().boxed()
            } else {
                rate().boxed()
            }
        };
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
    /// incremental — leaves the index bit-identical to a selector built
    /// from scratch.
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

const RACK: usize = 10;
const RACKS_PER_AGG: usize = 4;

/// The runner's outstanding-load discount in miniature: counts per
/// server, rack, aggregation and datacenter over four capacities, on a
/// fleet whose server `i` sits in rack `i / RACK`.
struct LevelDiscount {
    per_server: Vec<u32>,
    per_rack: Vec<u32>,
    per_agg: Vec<u32>,
    total: u32,
    caps: [f64; 4],
}

impl LevelDiscount {
    fn new(n: usize, caps: [f64; 4]) -> Self {
        let racks = n.div_ceil(RACK);
        LevelDiscount {
            per_server: vec![0; n],
            per_rack: vec![0; racks],
            per_agg: vec![0; racks.div_ceil(RACKS_PER_AGG)],
            total: 0,
            caps,
        }
    }

    /// Book (or, if the server holds a booking, release) one assignment.
    fn toggle(&mut self, server: usize, book: bool) {
        let rack = server / RACK;
        let agg = rack / RACKS_PER_AGG;
        if book {
            self.per_server[server] += 1;
            self.per_rack[rack] += 1;
            self.per_agg[agg] += 1;
            self.total += 1;
        } else if self.per_server[server] > 0 {
            self.per_server[server] -= 1;
            self.per_rack[rack] -= 1;
            self.per_agg[agg] -= 1;
            self.total -= 1;
        }
    }

    fn level_min(
        &self,
        counts: [u32; 4],
        term: impl Fn(usize, f64, f64) -> (f64, f64),
    ) -> (f64, f64) {
        let (mut down, mut up) = (f64::INFINITY, f64::INFINITY);
        for (h, (&k, &cap)) in counts.iter().zip(&self.caps).enumerate() {
            let (d, u) = term(h, k as f64, cap);
            down = down.min(d);
            up = up.min(u);
        }
        (down, up)
    }
}

impl RateDiscount for LevelDiscount {
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
        let i = m.server.0 as usize;
        let rack = i / RACK;
        let counts = [
            self.per_server[i],
            self.per_rack[rack],
            self.per_agg[rack / RACKS_PER_AGG],
            self.total,
        ];
        self.level_min(counts, |h, k, cap| {
            (
                discounted_share(m.down_levels[h], k, cap),
                discounted_share(m.up_levels[h], k, cap),
            )
        })
    }

    fn group_bound(&self, level: u8, group: usize, span: &GroupSpan) -> (f64, f64) {
        let counts = match level {
            1 => [
                0,
                self.per_rack[group],
                self.per_agg[group / RACKS_PER_AGG],
                self.total,
            ],
            2 => [0, 0, self.per_agg[group], self.total],
            _ => [0, 0, 0, self.total],
        };
        self.level_min(counts, |h, k, cap| {
            (
                share_bound(span.down_max[h], span.down_second[h], k, cap),
                share_bound(span.up_max[h], span.up_second[h], k, cap),
            )
        })
    }
}

/// Racks of `RACK` under aggregations of `RACKS_PER_AGG` under one root.
fn rack_shape(n: usize) -> IndexShape {
    let cuts = |stride: usize| -> Vec<u32> {
        (0..n)
            .step_by(stride)
            .chain([n])
            .map(|b| b as u32)
            .collect()
    };
    IndexShape::new(
        n,
        vec![
            (1, cuts(RACK)),
            (2, cuts(RACK * RACKS_PER_AGG)),
            (3, vec![0, n as u32]),
        ],
    )
}

/// Per-server `(down, up)` link rates, per-rack and per-aggregation
/// uplink rates; cumulative minima make the cached levels.
#[derive(Debug, Clone)]
struct Fabric {
    servers: Vec<(f64, f64)>,
    racks: Vec<(f64, f64)>,
    aggs: Vec<(f64, f64)>,
}

impl Fabric {
    fn metrics(&self) -> Vec<ServerMetrics> {
        self.servers
            .iter()
            .enumerate()
            .map(|(i, &s)| {
                let rack = self.racks[i / RACK];
                let agg = self.aggs[i / RACK / RACKS_PER_AGG];
                let mut down_levels = [s.0; MAX_LEVELS];
                let mut up_levels = [s.1; MAX_LEVELS];
                for (h, link) in [rack, agg].into_iter().enumerate() {
                    down_levels[h + 1] = down_levels[h].min(link.0);
                    up_levels[h + 1] = up_levels[h].min(link.1);
                }
                down_levels[TOP] = down_levels[TOP - 1];
                up_levels[TOP] = up_levels[TOP - 1];
                ServerMetrics {
                    server: NodeId(i as u32),
                    r0_down: s.0,
                    r0_up: s.1,
                    path_down: down_levels[TOP],
                    path_up: up_levels[TOP],
                    down_levels,
                    up_levels,
                    n_levels: 4,
                }
            })
            .collect()
    }
}

#[derive(Debug, Clone)]
struct LevelPlan {
    fabric: Fabric,
    /// `(server, down, up)` link-rate rewrites, one refresh each.
    updates: Vec<(usize, f64, f64)>,
    /// `(server, book?)` count churn applied before every sweep.
    bookings: Vec<(usize, bool)>,
    excluded: Vec<bool>,
    r_scale: f64,
}

fn level_plan() -> impl Strategy<Value = LevelPlan> {
    // Either rates a few ulps apart, a whole fleet of one rate, or the
    // coarse lattice of the churn property.
    let pair = |kind: u32| match kind {
        0 => (ulp_rate(), ulp_rate()).boxed(),
        1 => Just((59_375_000.0, 59_375_000.0)).boxed(),
        _ => (rate(), rate())
            .prop_map(|(d, u)| (d * 1e6, u * 1e6))
            .boxed(),
    };
    (1usize..260, 0u32..3).prop_flat_map(move |(n, kind)| {
        let racks = n.div_ceil(RACK);
        let fabric = (
            proptest::collection::vec(pair(kind), n),
            proptest::collection::vec(pair(kind), racks),
            proptest::collection::vec(pair(kind), racks.div_ceil(RACKS_PER_AGG)),
        )
            .prop_map(|(servers, racks, aggs)| Fabric {
                servers,
                racks,
                aggs,
            });
        (
            fabric,
            proptest::collection::vec((0..n, ulp_rate(), ulp_rate()), 0..6),
            proptest::collection::vec((0..n, flag()), 0..40),
            proptest::collection::vec(flag(), n),
            prop_oneof![Just(3.0e7), Just(5.9e7), Just(f64::INFINITY)],
        )
            .prop_map(|(fabric, updates, bookings, excluded, r_scale)| LevelPlan {
                fabric,
                updates,
                bookings,
                excluded,
                r_scale,
            })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A shaped index under a level-structured discount stays
    /// bit-identical to the scan through rate churn *and* count churn —
    /// on ulp-neighbour rates, where `share_bound` without its slack on
    /// the second-largest rate prunes the true argmax.
    #[test]
    fn shaped_index_matches_selector_on_ulp_neighbours(plan in level_plan()) {
        let mut fabric = plan.fabric.clone();
        let n = fabric.servers.len();
        let exclude: NodeSet = plan
            .excluded
            .iter()
            .enumerate()
            .filter(|(_, &x)| x)
            .map(|(i, _)| NodeId(i as u32))
            .collect();
        let cfg = SelectorConfig { r_scale: plan.r_scale, power_aware: false };
        let x = 6.25e7;
        let mut discount = LevelDiscount::new(n, [x, x, 3.0 * x, 6.0 * x]);
        let mut idx = PlacementIndex::with_shape(rack_shape(n));
        let mut bookings = plan.bookings.iter();

        for step in 0..=plan.updates.len() {
            if let Some(&(i, d, u)) = step.checked_sub(1).map(|s| &plan.updates[s]) {
                fabric.servers[i] = (d, u);
            }
            let metrics = fabric.metrics();
            idx.refresh(&metrics);
            // A few bookings per sweep, so the counts differ between
            // consecutive queries on the same spans.
            for &(server, book) in bookings.by_ref().take(8) {
                discount.toggle(server, book);
            }
            let discounted: Vec<ServerMetrics> = metrics
                .iter()
                .map(|m| {
                    let (d, u) = discount.adjust(m);
                    ServerMetrics { path_down: d, path_up: u, ..*m }
                })
                .collect();
            for excl in [&NodeSet::new(), &exclude] {
                assert_matches_selector(&idx, &discounted, None, &cfg, &discount, excl, "levels");
            }
        }
    }
}
