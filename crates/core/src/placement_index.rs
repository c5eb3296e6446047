//! Incremental placement index — the admission fast path (§VII at scale).
//!
//! [`crate::selection::Selector`] answers one placement query with a full
//! O(servers) scan over the round's `ServerMetrics`. That is fine per
//! control round, but the experiment kernel asks per *admission*: under
//! churny content-serving load the seed-era path costs
//! O(flows × servers). This module keeps a persistent index over the
//! per-server path rates — refreshed incrementally from the control
//! tree's metric deltas once per observed round — and answers the same
//! staged argmax queries in amortized sublinear time, bit-identically to
//! a freshly built `Selector` over the same metrics.
//!
//! # Why a tournament tree and not a sorted structure
//!
//! The admission path does not rank servers by their *raw* path rates:
//! SCDA's outstanding-load discount (the `1/(1+kR/C)` congestion model
//! applied in the runner before every placement) depends on per-server,
//! per-rack and datacenter-wide outstanding counts that change with
//! every admission. No order maintained between rounds can be exact
//! under a score that moves globally per admission. What *is* stable
//! between rounds is an upper bound: for any discount `f` with
//! `f(r) ≤ r` per direction, the adjusted score of a server never
//! exceeds its raw score. The index therefore keeps three complete
//! binary tournament trees (down, up, min-both) over the **raw** rates
//! and answers queries by branch-and-bound: descend subtrees in
//! right-to-left order, evaluate the exact discounted score only at
//! leaves, and prune any subtree whose upper bound cannot beat the best
//! exact score found so far. The pruning bound is the discount's own
//! monotone [`RateDiscount::bound`] of the subtree's raw maximum: a
//! discount with a uniform component (like the datacenter-wide
//! outstanding count, whose level rate is the cumulative path rate
//! itself on the three-tier tree) folds that shrink into the bound, so
//! subtree rejection stays sharp even when every exact score sits well
//! below its raw rate. With discounts that keep the top raw candidates
//! near the top (true of the runner's congestion discount), a query
//! touches O(log n) nodes amortized; in the worst case it degrades to
//! the same O(n) scan the `Selector` always pays.
//!
//! # Exactness
//!
//! Queries reproduce `Selector`'s `Iterator::max_by(total_cmp)`
//! semantics bit for bit, including its keep-the-**last**-of-equal-maxima
//! tie-break: the right-to-left descent meets higher indices first and
//! replaces the incumbent only on strictly-greater scores, so among
//! equal maxima the highest index wins — exactly the element a
//! left-to-right `max_by` scan would keep. The staged fallback ladders
//! (`write_target` / `replica_target` / `read_source`) replicate the
//! `Selector`'s filters verbatim, evaluated on the *discounted* rates
//! exactly as a `Selector` over a discounted copy of the metrics would
//! see them. The `placement_index.rs` proptest drives seeded metric
//! churn and asserts bit-identical `(NodeId, score)` picks against a
//! fresh `Selector` after every refresh.
//!
//! # Power-aware ranking
//!
//! With `SelectorConfig::power_aware` and an energy book the leaf score
//! is the adjusted rate over the server's measured power, `R̂/P(t)`
//! (§VII-D) — the same float ops as `Selector`. Dividing by a per-server
//! power can lift a score above any function of the raw rate, so no
//! raw-rate bound is sound for it: a power-aware query prunes nothing
//! and visits every leaf, the O(n) the reference scan always pays.

use std::cmp::Ordering;

use scda_simnet::NodeId;

use crate::content::ContentClass;
use crate::energy::EnergyBook;
use crate::selection::{NodeSet, SelectorConfig};
use crate::tree::ServerMetrics;

/// A per-query score adjustment applied to the raw per-server path
/// rates, e.g. the runner's outstanding-load congestion discount.
///
/// # Contract
///
/// `adjust` must be deterministic for a given metric entry, and both
/// adjusted rates must satisfy `adjusted ≤ bound(raw)` for the
/// corresponding raw path rate — the branch-and-bound prune is unsound
/// otherwise. The default `bound` is the identity, which reduces the
/// contract to `adjusted ≤ raw` (`adjust` may only discount, never
/// boost); the identity [`NoDiscount`] trivially satisfies it.
pub trait RateDiscount {
    /// Adjusted `(path_down, path_up)` for one server's metrics.
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64);

    /// Monotone upper bound on the adjusted score of any server whose
    /// raw path rate (in the queried direction) is `raw`: must be
    /// nondecreasing in `raw`, with `adjust(m).0 ≤ bound(m.path_down)`
    /// and `adjust(m).1 ≤ bound(m.path_up)` for every entry.
    ///
    /// The default — the identity — is always sound, but a discount
    /// with a *uniform* component (one applied identically to every
    /// server, like an outstanding-count term on a link every path
    /// crosses) should fold that component in here: pruning against the
    /// raw maxima alone degenerates to a full scan once every exact
    /// score sits well below its raw bound, whereas a bound that tracks
    /// the uniform shrink keeps subtree rejection sharp.
    fn bound(&self, raw: f64) -> f64 {
        raw
    }
}

/// The identity adjustment: rank on the raw path rates, exactly like a
/// `Selector` over undiscounted metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoDiscount;

impl RateDiscount for NoDiscount {
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
        (m.path_down, m.path_up)
    }
}

/// Borrowed query context: the same knobs a [`crate::Selector`] is
/// built from, plus the discount applied at leaves.
pub struct PlaceQuery<'a, D: RateDiscount> {
    /// Energy book for dormancy / usability filters (§VII-C).
    pub energy: Option<&'a EnergyBook>,
    /// Selection knobs (`R_scale`, power-aware ranking).
    pub cfg: &'a SelectorConfig,
    /// Score adjustment evaluated exactly at each visited leaf.
    pub discount: &'a D,
}

impl<'a, D: RateDiscount> PlaceQuery<'a, D> {
    fn usable(&self, s: NodeId) -> bool {
        match self.energy {
            Some(e) => e.is_active(s),
            None => true,
        }
    }

    fn dormant(&self, s: NodeId) -> bool {
        self.energy.map(|e| e.is_dormant(s)).unwrap_or(false)
    }
}

/// The §VII reservation rule on the *adjusted* uplink, mirroring
/// [`crate::Selector`]'s `is_reserved_for_passive` (so NaN ranks as
/// not-reserved in both paths).
fn reserved_for_passive(au: f64, r_scale: f64) -> bool {
    au >= r_scale
}

/// Which raw-rate tournament a query descends.
#[derive(Clone, Copy)]
enum Tournament {
    Down,
    Up,
    MinBoth,
}

/// The persistent index: a mirror of the last refreshed `ServerMetrics`
/// vector plus three complete binary tournament trees over the raw path
/// rates (down, up, min-both), `1`-rooted in flat arrays of length
/// `2·base` with leaves at `base + i` and `-∞` padding past `n`.
#[derive(Debug, Clone, Default)]
pub struct PlacementIndex {
    metrics: Vec<ServerMetrics>,
    base: usize,
    ub_down: Vec<f64>,
    ub_up: Vec<f64>,
    ub_min: Vec<f64>,
    refreshes: u64,
    entries_updated: u64,
}

/// Bit-exact equality of two metric entries — `==` on floats would
/// misreport NaN payload changes and trip up `-0.0`/`0.0` moves.
fn metrics_bits_eq(a: &ServerMetrics, b: &ServerMetrics) -> bool {
    a.server == b.server
        && a.n_levels == b.n_levels
        && a.r0_down.to_bits() == b.r0_down.to_bits()
        && a.r0_up.to_bits() == b.r0_up.to_bits()
        && a.path_down.to_bits() == b.path_down.to_bits()
        && a.path_up.to_bits() == b.path_up.to_bits()
        && a.down_levels
            .iter()
            .zip(&b.down_levels)
            .all(|(x, y)| x.to_bits() == y.to_bits())
        && a.up_levels
            .iter()
            .zip(&b.up_levels)
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

impl PlacementIndex {
    /// An empty index; the first [`PlacementIndex::refresh`] sizes it.
    pub fn new() -> Self {
        PlacementIndex::default()
    }

    /// Number of indexed servers.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the index holds no servers.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Refreshes performed and total entries rewritten across them —
    /// the incremental-maintenance telemetry surfaced by perf runs.
    pub fn refresh_stats(&self) -> (u64, u64) {
        (self.refreshes, self.entries_updated)
    }

    /// The metrics as of the last refresh, in index (= tree) order.
    pub fn metrics(&self) -> &[ServerMetrics] {
        &self.metrics
    }

    /// Absorb a round's metrics. Entries that are bit-identical to the
    /// mirror are skipped; each changed entry costs three O(log n) leaf
    /// re-bubbles. Returns the number of entries rewritten. A length
    /// change (topology change) rebuilds from scratch.
    pub fn refresh(&mut self, metrics: &[ServerMetrics]) -> usize {
        self.refreshes += 1;
        if metrics.len() != self.metrics.len() {
            self.rebuild(metrics);
            self.entries_updated += metrics.len() as u64;
            return metrics.len();
        }
        let mut changed = 0usize;
        for (i, m) in metrics.iter().enumerate() {
            if !metrics_bits_eq(&self.metrics[i], m) {
                self.metrics[i] = *m;
                self.update_leaf(i);
                changed += 1;
            }
        }
        self.entries_updated += changed as u64;
        changed
    }

    fn rebuild(&mut self, metrics: &[ServerMetrics]) {
        self.metrics.clear();
        self.metrics.extend_from_slice(metrics);
        let n = metrics.len();
        self.base = n.next_power_of_two().max(1);
        let len = 2 * self.base;
        for ub in [&mut self.ub_down, &mut self.ub_up, &mut self.ub_min] {
            ub.clear();
            ub.resize(len, f64::NEG_INFINITY);
        }
        for (i, m) in metrics.iter().enumerate() {
            let leaf = self.base + i;
            self.ub_down[leaf] = m.path_down;
            self.ub_up[leaf] = m.path_up;
            self.ub_min[leaf] = m.path_down.min(m.path_up);
        }
        for v in (1..self.base).rev() {
            for ub in [&mut self.ub_down, &mut self.ub_up, &mut self.ub_min] {
                ub[v] = max_total(ub[2 * v], ub[2 * v + 1]);
            }
        }
    }

    fn update_leaf(&mut self, i: usize) {
        let m = &self.metrics[i];
        let (d, u) = (m.path_down, m.path_up);
        let mut v = self.base + i;
        self.ub_down[v] = d;
        self.ub_up[v] = u;
        self.ub_min[v] = d.min(u);
        while v > 1 {
            v /= 2;
            for ub in [&mut self.ub_down, &mut self.ub_up, &mut self.ub_min] {
                ub[v] = max_total(ub[2 * v], ub[2 * v + 1]);
            }
        }
    }

    /// Stage-1 write placement (§VII): bit-identical to
    /// [`crate::Selector::write_target`] over the discounted
    /// metrics.
    // scda-analyze: hot(kernel.place)
    pub fn write_target<D: RateDiscount>(
        &self,
        class: ContentClass,
        exclude: &NodeSet,
        q: &PlaceQuery<'_, D>,
    ) -> Option<(NodeId, f64)> {
        let t = match class {
            ContentClass::Interactive => Tournament::MinBoth,
            _ => Tournament::Down,
        };
        let excl = |s: NodeId| exclude.contains(s);
        if class.is_active() {
            // Prefer servers not reserved for passive content...
            let hit = self.select(t, q, excl, |m, _ad, au| {
                !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
            });
            if hit.is_some() {
                return hit;
            }
        }
        // ...but never fail outright if only reserved ones remain.
        self.select(t, q, excl, |m, _ad, _au| q.usable(m.server))
            .or_else(|| self.select(t, q, excl, |_, _, _| true))
    }

    /// Stage-2 replica placement (§VII-B/C): bit-identical to
    /// [`crate::Selector::replica_target`] over the discounted
    /// metrics.
    // scda-analyze: hot(kernel.place)
    pub fn replica_target<D: RateDiscount>(
        &self,
        class: ContentClass,
        primary: NodeId,
        exclude: &NodeSet,
        q: &PlaceQuery<'_, D>,
    ) -> Option<(NodeId, f64)> {
        let excl = |s: NodeId| s == primary || exclude.contains(s);
        match class {
            ContentClass::Passive => self
                .select(Tournament::Up, q, excl, |m, _ad, au| {
                    reserved_for_passive(au, q.cfg.r_scale) && q.dormant(m.server)
                })
                .or_else(|| {
                    self.select(Tournament::Up, q, excl, |_, _ad, au| {
                        reserved_for_passive(au, q.cfg.r_scale)
                    })
                })
                .or_else(|| self.select(Tournament::Up, q, excl, |_, _, _| true)),
            ContentClass::Interactive => self
                .select(Tournament::MinBoth, q, excl, |m, _ad, au| {
                    !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
                })
                .or_else(|| self.select(Tournament::MinBoth, q, excl, |_, _, _| true)),
            _ => self
                .select(Tournament::Up, q, excl, |m, _ad, au| {
                    !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
                })
                .or_else(|| self.select(Tournament::Up, q, excl, |_, _, _| true)),
        }
    }

    /// Best read source among `replicas` (§VIII-C step 3):
    /// bit-identical to [`crate::Selector::read_source`].
    // scda-analyze: hot(kernel.place)
    pub fn read_source<D: RateDiscount>(
        &self,
        replicas: &NodeSet,
        q: &PlaceQuery<'_, D>,
    ) -> Option<(NodeId, f64)> {
        let excl = |s: NodeId| !replicas.contains(s);
        self.select(Tournament::Up, q, excl, |m, _ad, _au| q.usable(m.server))
            .or_else(|| self.select(Tournament::Up, q, excl, |_, _, _| true))
    }

    /// Best read source over **all** indexed servers — the shape the
    /// runner's placement hook asks for when every server holds the
    /// content. Bit-identical to `read_source` with a full replica set.
    // scda-analyze: hot(kernel.place)
    pub fn read_best<D: RateDiscount>(&self, q: &PlaceQuery<'_, D>) -> Option<(NodeId, f64)> {
        self.select(
            Tournament::Up,
            q,
            |_| false,
            |m, _ad, _au| q.usable(m.server),
        )
        .or_else(|| self.select(Tournament::Up, q, |_| false, |_, _, _| true))
    }

    /// One branch-and-bound argmax: exact discounted score at leaves
    /// (over `P(t)` when power-aware), raw-rate upper bounds for pruning. `filter` sees the metric entry
    /// plus its adjusted `(down, up)` rates, matching what a `Selector`
    /// over the discounted buffer would see.
    // scda-analyze: hot(kernel.place)
    fn select<D: RateDiscount>(
        &self,
        t: Tournament,
        q: &PlaceQuery<'_, D>,
        excluded: impl Fn(NodeId) -> bool + Copy,
        filter: impl Fn(&ServerMetrics, f64, f64) -> bool + Copy,
    ) -> Option<(NodeId, f64)> {
        if self.metrics.is_empty() {
            return None;
        }
        let ub = match t {
            Tournament::Down => &self.ub_down,
            Tournament::Up => &self.ub_up,
            Tournament::MinBoth => &self.ub_min,
        };
        // §VII-D divisor; `None` keeps the plain rate ranking.
        let power = if q.cfg.power_aware { q.energy } else { None };
        let mut best: Option<(NodeId, f64)> = None;
        let bound = |raw: f64| {
            if raw.is_finite() {
                q.discount.bound(raw)
            } else {
                // Keep `-∞` padding (and any non-finite rate) out of the
                // discount arithmetic: `-∞/(1 - ∞)` is NaN, which
                // `total_cmp` would rank above every real score.
                raw
            }
        };
        self.descend(
            ub,
            1,
            &mut best,
            &|m| {
                if excluded(m.server) {
                    return None;
                }
                let (ad, au) = q.discount.adjust(m);
                debug_assert!(
                    ad <= bound(m.path_down) && au <= bound(m.path_up),
                    "RateDiscount::bound must dominate adjusted rates \
                     (branch-and-bound soundness)"
                );
                if !filter(m, ad, au) {
                    return None;
                }
                let rate = match t {
                    Tournament::Down => ad,
                    Tournament::Up => au,
                    Tournament::MinBoth => ad.min(au),
                };
                Some(match power {
                    Some(e) => rate / e.power(m.server),
                    None => rate,
                })
            },
            &|raw, incumbent| {
                power.is_none() && bound(raw).total_cmp(&incumbent) != Ordering::Greater
            },
        );
        best
    }

    /// Right-to-left depth-first descent. Visiting the right child first
    /// means higher leaf indices are seen first; combined with the
    /// strictly-greater replacement rule this reproduces `max_by`'s
    /// keep-the-last-of-equal-maxima tie-break. `prune(ub, incumbent)`
    /// rejects a subtree whose raw maximum `ub` cannot strictly beat the
    /// incumbent score.
    // scda-analyze: hot(kernel.place)
    fn descend(
        &self,
        ub: &[f64],
        v: usize,
        best: &mut Option<(NodeId, f64)>,
        eval: &impl Fn(&ServerMetrics) -> Option<f64>,
        prune: &impl Fn(f64, f64) -> bool,
    ) {
        if let Some((_, incumbent)) = best {
            if prune(ub[v], *incumbent) {
                return;
            }
        }
        if v >= self.base {
            let i = v - self.base;
            if let Some(m) = self.metrics.get(i) {
                if let Some(score) = eval(m) {
                    let replace = match best {
                        None => true,
                        Some((_, incumbent)) => score.total_cmp(incumbent) == Ordering::Greater,
                    };
                    if replace {
                        *best = Some((m.server, score));
                    }
                }
            }
            return;
        }
        self.descend(ub, 2 * v + 1, best, eval, prune);
        self.descend(ub, 2 * v, best, eval, prune);
    }
}

/// `max` under IEEE total order — the reduction the tournaments use so
/// `-0.0`/`0.0` and NaN orderings agree with `total_cmp` at query time.
fn max_total(a: f64, b: f64) -> f64 {
    if a.total_cmp(&b) == Ordering::Greater {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::selection::Selector;
    use crate::tree::MAX_LEVELS;

    fn m(id: u32, down: f64, up: f64) -> ServerMetrics {
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

    fn cfg(r_scale: f64) -> SelectorConfig {
        SelectorConfig {
            r_scale,
            power_aware: false,
        }
    }

    #[test]
    fn matches_selector_on_every_class_and_stage() {
        let metrics = [
            m(0, 30.0, 30.0),
            m(1, 40.0, 40.0),
            m(2, 90.0, 90.0),
            m(3, 70.0, 5.0),
            m(4, 5.0, 70.0),
        ];
        let c = cfg(60.0);
        let mut idx = PlacementIndex::new();
        idx.refresh(&metrics);
        let sel = Selector::new(&metrics, None, &c);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &NoDiscount,
        };
        let empty = NodeSet::new();
        for class in [
            ContentClass::Interactive,
            ContentClass::SemiInteractiveWrite,
            ContentClass::SemiInteractiveRead,
            ContentClass::Passive,
        ] {
            assert_eq!(
                idx.write_target(class, &empty, &q),
                sel.write_target(class, &empty),
                "write {class:?}"
            );
            assert_eq!(
                idx.replica_target(class, NodeId(2), &empty, &q),
                sel.replica_target(class, NodeId(2), &empty),
                "replica {class:?}"
            );
        }
        let all: NodeSet = metrics.iter().map(|m| m.server).collect();
        assert_eq!(idx.read_source(&all, &q), sel.read_source(&all));
        assert_eq!(idx.read_best(&q), sel.read_source(&all));
    }

    #[test]
    fn equal_maxima_keep_the_last_like_max_by() {
        let metrics = [m(0, 50.0, 50.0), m(1, 50.0, 50.0), m(2, 50.0, 50.0)];
        let c = cfg(f64::INFINITY);
        let mut idx = PlacementIndex::new();
        idx.refresh(&metrics);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &NoDiscount,
        };
        let empty = NodeSet::new();
        let (bs, _) = idx
            .write_target(ContentClass::SemiInteractiveWrite, &empty, &q)
            .unwrap();
        assert_eq!(bs, NodeId(2), "ties break to the highest index");
    }

    #[test]
    fn incremental_refresh_tracks_changes() {
        let mut metrics = vec![m(0, 10.0, 10.0), m(1, 20.0, 20.0), m(2, 30.0, 30.0)];
        let mut idx = PlacementIndex::new();
        assert_eq!(idx.refresh(&metrics), 3, "first refresh builds all");
        assert_eq!(idx.refresh(&metrics), 0, "unchanged round is free");
        metrics[0] = m(0, 99.0, 99.0);
        assert_eq!(idx.refresh(&metrics), 1);
        let c = cfg(f64::INFINITY);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &NoDiscount,
        };
        let empty = NodeSet::new();
        let (bs, rate) = idx
            .write_target(ContentClass::SemiInteractiveWrite, &empty, &q)
            .unwrap();
        assert_eq!((bs, rate), (NodeId(0), 99.0));
    }

    #[test]
    fn discounted_scores_are_evaluated_exactly() {
        // Server 1 has the best raw rate but a heavy discount; the
        // branch-and-bound must not trust the raw upper bound.
        struct Halve(u32);
        impl RateDiscount for Halve {
            fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
                if m.server == NodeId(self.0) {
                    (m.path_down / 2.0, m.path_up / 2.0)
                } else {
                    (m.path_down, m.path_up)
                }
            }
        }
        let metrics = [m(0, 60.0, 60.0), m(1, 100.0, 100.0)];
        let c = cfg(f64::INFINITY);
        let mut idx = PlacementIndex::new();
        idx.refresh(&metrics);
        let d = Halve(1);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &d,
        };
        let empty = NodeSet::new();
        let (bs, rate) = idx
            .write_target(ContentClass::SemiInteractiveWrite, &empty, &q)
            .unwrap();
        assert_eq!((bs, rate), (NodeId(0), 60.0), "100/2 = 50 < 60");
    }

    #[test]
    fn uniform_discount_with_tight_bound_stays_exact() {
        // A discount applied identically to every server, with the
        // matching monotone bound — picks must equal a Selector over the
        // pre-discounted metrics even though pruning now rejects
        // subtrees far below their raw maxima.
        struct Uniform;
        impl RateDiscount for Uniform {
            fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
                (self.bound(m.path_down), self.bound(m.path_up))
            }
            fn bound(&self, raw: f64) -> f64 {
                raw / (1.0 + 64.0 * raw / 100.0)
            }
        }
        let metrics: Vec<ServerMetrics> = (0..37)
            .map(|i| {
                let r = 10.0 + ((i * 31) % 97) as f64;
                m(i, r, 120.0 - r)
            })
            .collect();
        let c = cfg(25.0);
        let mut idx = PlacementIndex::new();
        idx.refresh(&metrics);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &Uniform,
        };
        let discounted: Vec<ServerMetrics> = metrics
            .iter()
            .map(|m| {
                let (d, u) = Uniform.adjust(m);
                ServerMetrics {
                    path_down: d,
                    path_up: u,
                    ..*m
                }
            })
            .collect();
        let sel = Selector::new(&discounted, None, &c);
        let empty = NodeSet::new();
        for class in [
            ContentClass::Interactive,
            ContentClass::SemiInteractiveWrite,
            ContentClass::SemiInteractiveRead,
            ContentClass::Passive,
        ] {
            assert_eq!(
                idx.write_target(class, &empty, &q),
                sel.write_target(class, &empty),
                "write {class:?}"
            );
            assert_eq!(
                idx.replica_target(class, NodeId(5), &empty, &q),
                sel.replica_target(class, NodeId(5), &empty),
                "replica {class:?}"
            );
        }
        let all: NodeSet = metrics.iter().map(|m| m.server).collect();
        assert_eq!(idx.read_source(&all, &q), sel.read_source(&all));
    }

    #[test]
    fn empty_index_selects_nothing() {
        let idx = PlacementIndex::new();
        let c = cfg(1.0);
        let q = PlaceQuery {
            energy: None,
            cfg: &c,
            discount: &NoDiscount,
        };
        let empty = NodeSet::new();
        assert!(idx
            .write_target(ContentClass::Passive, &empty, &q)
            .is_none());
        assert!(idx.read_best(&q).is_none());
    }
}
