//! Incremental placement index — the admission fast path (§VII at scale).
//!
//! [`crate::testing::Selector`] answers one placement query with a full
//! O(servers) scan over the round's `ServerMetrics`. That is fine per
//! control round, but the experiment kernel asks per *admission*. This
//! module keeps a persistent index over the per-server path rates —
//! refreshed once per round by difference, from the leaves the control
//! tree's round moved ([`PlacementIndex::refresh_moved`]) — and answers
//! the same staged argmax queries in O(groups on the path + a few
//! racks), bit-identically to a freshly built `Selector` over the same
//! metrics.
//!
//! # One tree, shaped like the RA tree
//!
//! §VI–§VII answer a placement by walking the RM/RA hierarchy: each RA
//! keeps the best server beneath it and the NNS asks the RA of the
//! corresponding rack. The index is that walk. Its search tree is an
//! [`IndexShape`]: for every tree level `h ≥ 1` the leaves (servers, in
//! `ServerMetrics` order) are cut into groups sharing their level-`h`
//! ancestor — racks, then aggregations, then the root — taken from
//! [`crate::ControlTree::index_shape`]. Each group carries a
//! [`GroupSpan`]: per direction and per cached level the largest and the
//! second-largest distinct cumulative rate beneath it, plus the max path
//! rates.
//!
//! The admission path does not rank servers by their *raw* rates: the
//! runner's outstanding-load discount depends on per-server, per-rack,
//! per-aggregation and datacenter-wide counts that move with every
//! admission, so no order kept between rounds can be exact. What is
//! stable between rounds is the span, and what separates candidates is
//! exactly the per-rack and per-aggregation counts — which are *uniform
//! over a group of the shape*. A query is therefore one right-to-left
//! depth-first branch-and-bound over root → aggregations → racks →
//! leaves: the exact discounted score is evaluated only at leaves, and a
//! group is skipped when [`RateDiscount::group_bound`] — the discount's
//! own bound over the group's span, using the counts the whole group
//! shares — cannot beat the best exact score found so far. A binary
//! tournament over flat leaf indices could only carry the
//! datacenter-wide term above the leaves: once every aggregation holds
//! one booking, nothing above a leaf could be rejected.
//!
//! An index built with [`PlacementIndex::new`] has no tree to take a
//! shape from and runs the same code over a synthetic fixed-fanout shape
//! whose groups promise no shared ancestor ([`IndexShape::UNSHAPED`]).
//!
//! # Exactness
//!
//! Queries reproduce `Selector`'s `Iterator::max_by(total_cmp)`
//! semantics bit for bit, including its keep-the-**last**-of-equal-maxima
//! tie-break: the right-to-left descent meets higher indices first,
//! replaces the incumbent only on strictly-greater scores and skips a
//! group when `bound ≤ incumbent`, so among equal maxima the highest
//! index wins — exactly the element a left-to-right `max_by` scan would
//! keep. The staged fallback ladders (`write_target` / `replica_target`
//! / `read_source`) replicate the `Selector`'s filters verbatim,
//! evaluated on the *discounted* rates exactly as a `Selector` over a
//! discounted copy of the metrics would see them.
//!
//! Pruning is sound only if the bound dominates every leaf score **as
//! computed in `f64`**, and a bound that is monotone in ℝ need not be.
//! The counter-example that fixed this contract: `x / (1 + k·x/C)` is
//! increasing in `x`, but the control tree hands out rates one or two
//! ulps apart (59375000.0 and 59374999.999999985 in one rack), and the
//! server with the *smaller* rate scored 9.301566579634465e6 against a
//! bound of 9.301566579634463e6 computed from the larger — one ulp
//! under, so `bound ≤ incumbent` pruned the true argmax. Adding a few
//! ulps of slack everywhere restores soundness but stops pruning *ties*,
//! the common case on an idle fabric. [`share_bound`] is the rule that
//! keeps both: the exact score of the group's largest rate, and slack
//! only on its second-largest distinct rate, which stands for every
//! smaller one. A NaN bound and a span holding a non-finite rate
//! never prune. `tests/placement_index.rs` drives rates on a lattice, on
//! one-ulp neighbourhoods and on whole fleets of identical rates through
//! a level-structured discount and asserts bit-identical `(NodeId,
//! score)` picks against a fresh `Selector` after every refresh.
//!
//! # Power-aware ranking
//!
//! With `SelectorConfig::power_aware` and an energy book the leaf score
//! is the adjusted rate over the server's measured power, `R̂/P(t)`
//! (§VII-D) — the same float ops as `Selector`. Dividing by a per-server
//! power can lift a score above any function of the raw rate, so no
//! rate bound is sound for it: a power-aware query prunes nothing and
//! visits every leaf, the O(n) the reference scan always pays.

use std::cell::Cell;
use std::cmp::Ordering;
use std::ops::Range;

use scda_simnet::NodeId;

use crate::content::ContentClass;
use crate::energy::EnergyBook;
use crate::selection::{NodeSet, Rank, SelectorConfig};
use crate::tree::{set_positions, ControlTree, ServerMetrics, MAX_LEVELS};

/// A per-query score adjustment applied to the raw per-server path
/// rates, e.g. the runner's outstanding-load congestion discount.
///
/// # Contract (in `f64`, not ℝ)
///
/// `adjust` must be deterministic for a given metric entry. For every
/// leaf `m` of a group, both values `group_bound` returns must be `≥`
/// the corresponding value of `adjust(m)` *as the machine computes it* —
/// the branch-and-bound prune is unsound otherwise, and monotonicity of
/// the formula in ℝ does not give it (see the module docs; build bounds
/// from [`share_bound`]). To keep pruning ties, a bound should equal the
/// best leaf's term bit for bit whenever the group's largest rate at the
/// level that binds stands clear of its second-largest.
pub trait RateDiscount {
    /// Adjusted `(path_down, path_up)` for one server's metrics.
    fn adjust(&self, m: &ServerMetrics) -> (f64, f64);

    /// Upper bounds on `adjust`'s `(down, up)` over every leaf of one
    /// group of the index's [`IndexShape`]: `group` is the group's
    /// position within tree level `level` (its leaves share their
    /// ancestor at `level` and above; [`IndexShape::UNSHAPED`] promises
    /// nothing), `span` the top of the raw rates beneath it.
    ///
    /// The default — the raw path maxima — is sound for any discount
    /// that only ever shrinks a rate (`adjusted ≤ raw`, which one
    /// division by a value `≥ 1` gives in `f64` too). A discount whose
    /// terms are shared by whole groups (a count on the rack uplink, on
    /// the aggregation link, on the trunk) should fold them in here:
    /// pruning against raw maxima degenerates to a full scan once every
    /// exact score sits well below its raw rate.
    fn group_bound(&self, level: u8, group: usize, span: &GroupSpan) -> (f64, f64) {
        let _ = (level, group);
        (span.path_down_max, span.path_up_max)
    }
}

/// The share `x / (1 + k·x/cap)` a flow keeps of a per-flow rate `x` on a
/// link of capacity `cap` once `k` not-yet-visible flows join (`C/N →
/// C/(N + k)`). Discounts built from it must call it — leaf scores are
/// pinned to this operation order.
#[inline]
pub fn discounted_share(x: f64, k: f64, cap: f64) -> f64 {
    x / (1.0 + k * x / cap)
}

/// An `f64` upper bound on [`discounted_share`]`(x, k, cap)` over a set
/// of rates `x ≥ 0` whose largest value is `max` and whose largest value
/// *below* `max` is `second` (`-∞` when every rate is `max`); `k ≥ 0`,
/// `cap > 0`, all finite.
///
/// * `k = 0`: the share is `x / 1.0 = x` exactly, so `max` bounds it.
///   (Also the bound to use when `k` is unknown: `1 + k·x/cap ≥ 1` and
///   division rounds monotonically, so the computed share never exceeds
///   `x`.)
/// * rates equal to `max` score the share at `max` — exactly, so equal
///   scores in another group still prune;
/// * rates `x ≤ second` score at most the share at `second` widened by
///   `1 + 8ε`. The share is four correctly-rounded operations on
///   nonnegative terms (no cancellation), so computed and real values
///   differ by a factor within `(1 ± ε/2)⁴`; the real share is
///   increasing in `x`; hence `fl(x) ≤ real(x)·(1+ε/2)⁴ ≤
///   real(second)·(1+ε/2)⁴ ≤ fl(second)·((1+ε/2)/(1−ε/2))⁴ <
///   fl(second)·(1 + 8ε)`, with room left for rounding the widening
///   product itself.
///
/// The bound is the larger of the two: the share at `max` unless
/// `second` sits within a few ulps of it.
#[inline]
pub fn share_bound(max: f64, second: f64, k: f64, cap: f64) -> f64 {
    if k.total_cmp(&0.0).is_eq() {
        return max;
    }
    let at_max = discounted_share(max, k, cap);
    if second.total_cmp(&f64::NEG_INFINITY).is_eq() {
        return at_max;
    }
    at_max.max(discounted_share(second, k, cap) * (1.0 + 8.0 * f64::EPSILON))
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

/// Borrowed query context: the same knobs a [`crate::testing::Selector`] is
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
/// [`crate::testing::Selector`]'s `is_reserved_for_passive` (so NaN ranks as
/// not-reserved in both paths).
fn reserved_for_passive(au: f64, r_scale: f64) -> bool {
    au >= r_scale
}

/// How the index groups its leaves: per level, bottom (racks) first, the
/// tree level the groups stand for and their boundaries over leaf
/// positions — group `g` covers `bounds[g]..bounds[g + 1]`. Levels nest:
/// every boundary of a level is a boundary of the level below.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IndexShape {
    leaves: usize,
    levels: Vec<(u8, Vec<u32>)>,
}

impl IndexShape {
    /// Level tag of groups whose leaves share no known ancestor.
    pub const UNSHAPED: u8 = u8::MAX;

    /// Children per group of the synthetic shape.
    const FANOUT: usize = 8;

    /// A shape over `leaves` positions from `(tree level, boundaries)`
    /// pairs, bottom level first. A shape without levels gets one
    /// all-covering [`IndexShape::UNSHAPED`] group.
    ///
    /// # Panics
    ///
    /// Panics if a level's boundaries do not run strictly increasing
    /// from `0` to `leaves`, or a level does not nest in the one below.
    pub fn new(leaves: usize, mut levels: Vec<(u8, Vec<u32>)>) -> Self {
        if levels.is_empty() && leaves > 0 {
            levels.push((Self::UNSHAPED, vec![0, leaves as u32]));
        }
        for (i, (_, bounds)) in levels.iter().enumerate() {
            assert!(
                bounds.first() == Some(&0)
                    && bounds.last() == Some(&(leaves as u32))
                    && bounds.windows(2).all(|w| w[0] < w[1]),
                "index shape: level boundaries must rise strictly from 0 to the leaf count"
            );
            if i > 0 {
                let below = &levels[i - 1].1;
                assert!(
                    bounds.iter().all(|b| below.binary_search(b).is_ok()),
                    "index shape: each level must nest in the one below"
                );
            }
        }
        IndexShape { leaves, levels }
    }

    /// The synthetic shape: groups of [`IndexShape::FANOUT`] all the way
    /// up, every level [`IndexShape::UNSHAPED`].
    fn fanout(leaves: usize) -> Self {
        let mut levels = Vec::new();
        let mut groups = leaves;
        let mut stride = 1;
        while groups > Self::FANOUT || (levels.is_empty() && leaves > 0) {
            stride *= Self::FANOUT;
            let mut bounds: Vec<u32> = (0..leaves).step_by(stride).map(|b| b as u32).collect();
            bounds.push(leaves as u32);
            groups = bounds.len() - 1;
            levels.push((Self::UNSHAPED, bounds));
        }
        Self::new(leaves, levels)
    }
}

/// The top of the raw rates beneath one group of the shape — what a
/// [`RateDiscount::group_bound`] may read. Per direction and cached
/// level: the largest rate and the largest rate *below* it (`-∞` when
/// every leaf carries the largest one's bits), both under IEEE total
/// order.
#[derive(Debug, Clone, Copy, Default)]
pub struct GroupSpan {
    /// Max of `down_levels[h]` per cached level `h`.
    pub down_max: [f64; MAX_LEVELS],
    /// Largest `down_levels[h]` below `down_max[h]`.
    pub down_second: [f64; MAX_LEVELS],
    /// Max of `up_levels[h]`.
    pub up_max: [f64; MAX_LEVELS],
    /// Largest `up_levels[h]` below `up_max[h]`.
    pub up_second: [f64; MAX_LEVELS],
    /// Max of `path_down`.
    pub path_down_max: f64,
    /// Max of `path_up`.
    pub path_up_max: f64,
    /// Every rate beneath the group is finite; a group that fails this
    /// is never pruned (`-∞/(1 − ∞)` is NaN, which `total_cmp` may rank
    /// above every real score).
    finite: bool,
}

/// Fold the `(max, second)` of another set into this one's.
fn absorb_top2(max: &mut f64, second: &mut f64, o_max: f64, o_second: f64) {
    match max.total_cmp(&o_max) {
        Ordering::Equal => *second = max_total(*second, o_second),
        Ordering::Greater => *second = max_total(*second, o_max),
        Ordering::Less => {
            *second = max_total(*max, o_second);
            *max = o_max;
        }
    }
}

impl GroupSpan {
    fn of_leaf(m: &ServerMetrics) -> Self {
        GroupSpan {
            down_max: m.down_levels,
            down_second: [f64::NEG_INFINITY; MAX_LEVELS],
            up_max: m.up_levels,
            up_second: [f64::NEG_INFINITY; MAX_LEVELS],
            path_down_max: m.path_down,
            path_up_max: m.path_up,
            finite: m.path_down.is_finite()
                && m.path_up.is_finite()
                && m.down_levels
                    .iter()
                    .chain(&m.up_levels)
                    .all(|x| x.is_finite()),
        }
    }

    fn absorb(&mut self, o: &GroupSpan) {
        for h in 0..MAX_LEVELS {
            absorb_top2(
                &mut self.down_max[h],
                &mut self.down_second[h],
                o.down_max[h],
                o.down_second[h],
            );
            absorb_top2(
                &mut self.up_max[h],
                &mut self.up_second[h],
                o.up_max[h],
                o.up_second[h],
            );
        }
        self.path_down_max = max_total(self.path_down_max, o.path_down_max);
        self.path_up_max = max_total(self.path_up_max, o.path_up_max);
        self.finite &= o.finite;
    }

    /// The span over a non-empty run of spans.
    fn over(mut parts: impl Iterator<Item = GroupSpan>) -> Self {
        let mut span = parts.next().expect("index groups are non-empty");
        for p in parts {
            span.absorb(&p);
        }
        span
    }
}

/// One level of the index tree: group `g`'s children are
/// `child[g]..child[g + 1]` — groups of the level below, leaf positions
/// on the bottom level.
#[derive(Debug, Clone)]
struct Level {
    tag: u8,
    child: Vec<u32>,
    /// The group of the level above each group sits in (empty on the
    /// top level).
    parent: Vec<u32>,
    spans: Vec<GroupSpan>,
    /// Queued for recomputation by the refresh in progress.
    dirty: Vec<bool>,
    /// The queued groups; capacity for every group, so a refresh never
    /// allocates.
    queue: Vec<u32>,
}

impl Level {
    fn children(&self, g: usize) -> Range<usize> {
        self.child[g] as usize..self.child[g + 1] as usize
    }
}

/// Work done by queries since the index was built, as plain counts — a
/// property CI can hold without a clock.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Argmax descents run (a staged query runs one per stage tried).
    pub queries: u64,
    /// Group bounds evaluated.
    pub bounds: u64,
    /// Groups those bounds rejected.
    pub pruned: u64,
    /// Leaves whose exact score was computed.
    pub leaves: u64,
}

/// The persistent index: a mirror of the last refreshed `ServerMetrics`
/// vector plus the [`GroupSpan`] of every group of its shape.
#[derive(Debug, Clone, Default)]
pub struct PlacementIndex {
    metrics: Vec<ServerMetrics>,
    /// The tree's shape; `None` runs on the synthetic one.
    shape: Option<IndexShape>,
    /// Bottom level first.
    levels: Vec<Level>,
    /// The bottom-level group of each leaf.
    leaf_group: Vec<u32>,
    /// The tree epoch the mirror was last brought to by
    /// [`PlacementIndex::refresh_moved`]; `None` after a slice refresh.
    synced: Option<u64>,
    queries: Cell<u64>,
    bounds: Cell<u64>,
    pruned: Cell<u64>,
    leaves: Cell<u64>,
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

fn bump(c: &Cell<u64>) {
    c.set(c.get() + 1);
}

impl PlacementIndex {
    /// An empty index over the synthetic shape; the first
    /// [`PlacementIndex::refresh`] sizes it.
    pub fn new() -> Self {
        PlacementIndex::default()
    }

    /// An empty index whose search tree is `shape` — the control tree's
    /// own ([`crate::ControlTree::index_shape`]), so that a
    /// [`RateDiscount::group_bound`] can use the counts a rack or an
    /// aggregation shares. Every refresh must bring as many entries as
    /// the shape has leaves, in the tree's order.
    pub fn with_shape(shape: IndexShape) -> Self {
        PlacementIndex {
            shape: Some(shape),
            ..PlacementIndex::default()
        }
    }

    /// Number of indexed servers.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the index holds no servers.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Query work since the index was built.
    pub fn query_stats(&self) -> QueryStats {
        QueryStats {
            queries: self.queries.get(),
            bounds: self.bounds.get(),
            pruned: self.pruned.get(),
            leaves: self.leaves.get(),
        }
    }

    /// The metrics as of the last refresh, in index (= tree) order.
    pub fn metrics(&self) -> &[ServerMetrics] {
        &self.metrics
    }

    /// Absorb a round's metrics. Entries that are bit-identical to the
    /// mirror are skipped; a changed entry queues its bottom group, and
    /// queued spans are recomputed bottom-up. Returns the number of
    /// entries rewritten. A length change (topology change) rebuilds
    /// from scratch. The full form of [`PlacementIndex::refresh_moved`]:
    /// it offers every leaf.
    pub fn refresh(&mut self, metrics: &[ServerMetrics]) -> usize {
        self.synced = None;
        self.absorb(metrics.len(), |i| metrics[i], None)
    }

    /// Absorb `tree`'s last round by difference: only the leaves the
    /// round moved are read ([`ControlTree::metrics_at`]), rewritten if
    /// their bits changed, and re-bubbled. Call it after every round of `tree`: the mirror
    /// then equals a [`PlacementIndex::refresh`] over
    /// [`ControlTree::server_metrics_into`] bit for bit, because every
    /// leaf a round leaves unflagged kept its bits. When the index did
    /// not absorb the round before (its first call, a skipped round, a
    /// slice refresh in between) it reads every leaf. Returns the number
    /// of entries rewritten.
    pub fn refresh_moved(&mut self, tree: &ControlTree) -> usize {
        let moved = tree.moved_rms();
        let in_step =
            self.synced.is_some_and(|e| e + 1 == tree.epoch()) && moved.len() == self.metrics.len();
        self.synced = Some(tree.epoch());
        self.absorb(
            moved.len(),
            |i| tree.metrics_at(i),
            in_step.then_some(moved),
        )
    }

    /// The one refresh: size the index to `n` leaves, rewrite the leaves
    /// whose `only` mask is nonzero (every leaf without it) and whose
    /// `leaf(i)` changed bits, and recompute the groups above them.
    fn absorb(
        &mut self,
        n: usize,
        leaf: impl Fn(usize) -> ServerMetrics,
        only: Option<&[u64]>,
    ) -> usize {
        let changed = if n != self.metrics.len() {
            self.reshape(n);
            self.metrics.clear();
            self.metrics.extend((0..n).map(&leaf));
            if let Some(bottom) = self.levels.first_mut() {
                bottom.dirty.fill(true);
                bottom.queue.extend(0..bottom.spans.len() as u32);
            }
            n
        } else {
            match only {
                Some(flags) => set_positions(flags)
                    .map(|i| self.write_leaf(i, leaf(i)))
                    .sum(),
                None => (0..n).map(|i| self.write_leaf(i, leaf(i))).sum(),
            }
        };
        self.bubble();
        changed
    }

    /// Rewrite leaf `i` if `m` differs from the mirror in any bit, and
    /// queue its bottom group. Returns 1 if it did.
    fn write_leaf(&mut self, i: usize, m: ServerMetrics) -> usize {
        if metrics_bits_eq(&self.metrics[i], &m) {
            return 0;
        }
        self.metrics[i] = m;
        let bottom = &mut self.levels[0];
        let g = self.leaf_group[i] as usize;
        if !bottom.dirty[g] {
            bottom.dirty[g] = true;
            bottom.queue.push(g as u32);
        }
        1
    }

    /// Recompute every queued group's span, bottom level first, queuing
    /// the group above each.
    fn bubble(&mut self) {
        let metrics = &self.metrics;
        for l in 0..self.levels.len() {
            let (lower, upper) = self.levels.split_at_mut(l);
            let (level, above) = upper
                .split_first_mut()
                .expect("invariant: l indexes a level");
            for q in 0..level.queue.len() {
                let g = level.queue[q] as usize;
                level.dirty[g] = false;
                let kids = level.children(g);
                level.spans[g] = match lower.last() {
                    None => GroupSpan::over(metrics[kids].iter().map(GroupSpan::of_leaf)),
                    Some(below) => GroupSpan::over(below.spans[kids].iter().copied()),
                };
                if let Some(up) = above.first_mut() {
                    let p = level.parent[g] as usize;
                    if !up.dirty[p] {
                        up.dirty[p] = true;
                        up.queue.push(p as u32);
                    }
                }
            }
            level.queue.clear();
        }
    }

    /// Lay the level skeleton out for `n` leaves (spans are filled by
    /// the refresh that called this).
    fn reshape(&mut self, n: usize) {
        let synthetic;
        let shape = match &self.shape {
            Some(shape) => {
                assert_eq!(
                    shape.leaves, n,
                    "placement index: the shape and the metrics must come from the same tree"
                );
                shape
            }
            None => {
                synthetic = IndexShape::fanout(n);
                &synthetic
            }
        };
        self.levels.clear();
        for (i, (tag, bounds)) in shape.levels.iter().enumerate() {
            let child = match i.checked_sub(1) {
                None => bounds.clone(),
                Some(b) => {
                    let below = &shape.levels[b].1;
                    bounds
                        .iter()
                        .map(|s| below.binary_search(s).expect("levels nest") as u32)
                        .collect()
                }
            };
            let groups = bounds.len() - 1;
            self.levels.push(Level {
                tag: *tag,
                child,
                parent: Vec::new(),
                spans: vec![GroupSpan::default(); groups],
                dirty: vec![false; groups],
                queue: Vec::with_capacity(groups),
            });
        }
        // Invert the child ranges: each leaf's and each group's parent.
        self.leaf_group = vec![0; n];
        for l in 0..self.levels.len() {
            let (lower, upper) = self.levels.split_at_mut(l);
            let level = &upper[0];
            let below = match lower.last_mut() {
                Some(below) => {
                    below.parent = vec![0; below.spans.len()];
                    &mut below.parent
                }
                None => &mut self.leaf_group,
            };
            for g in 0..level.spans.len() {
                below[level.children(g)].fill(g as u32);
            }
        }
    }

    /// Stage-1 write placement (§VII): bit-identical to
    /// [`crate::testing::Selector::write_target`] over the discounted
    /// metrics.
    pub fn write_target<D: RateDiscount>(
        &self,
        class: ContentClass,
        exclude: &NodeSet,
        q: &PlaceQuery<'_, D>,
    ) -> Option<(NodeId, f64)> {
        let rank = match class {
            ContentClass::Interactive => Rank::MinBoth,
            _ => Rank::Down,
        };
        let excl = |s: NodeId| exclude.contains(s);
        if class.is_active() {
            // Prefer servers not reserved for passive content...
            let hit = self.select(rank, q, excl, |m, _ad, au| {
                !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
            });
            if hit.is_some() {
                return hit;
            }
        }
        // ...but never fail outright if only reserved ones remain.
        self.select(rank, q, excl, |m, _ad, _au| q.usable(m.server))
            .or_else(|| self.select(rank, q, excl, |_, _, _| true))
    }

    /// Stage-2 replica placement (§VII-B/C): bit-identical to
    /// [`crate::testing::Selector::replica_target`] over the discounted
    /// metrics.
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
                .select(Rank::Up, q, excl, |m, _ad, au| {
                    reserved_for_passive(au, q.cfg.r_scale) && q.dormant(m.server)
                })
                .or_else(|| {
                    self.select(Rank::Up, q, excl, |_, _ad, au| {
                        reserved_for_passive(au, q.cfg.r_scale)
                    })
                })
                .or_else(|| self.select(Rank::Up, q, excl, |_, _, _| true)),
            ContentClass::Interactive => self
                .select(Rank::MinBoth, q, excl, |m, _ad, au| {
                    !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
                })
                .or_else(|| self.select(Rank::MinBoth, q, excl, |_, _, _| true)),
            _ => self
                .select(Rank::Up, q, excl, |m, _ad, au| {
                    !reserved_for_passive(au, q.cfg.r_scale) && q.usable(m.server)
                })
                .or_else(|| self.select(Rank::Up, q, excl, |_, _, _| true)),
        }
    }

    /// Best read source among `replicas` (§VIII-C step 3):
    /// bit-identical to [`crate::testing::Selector::read_source`].
    pub fn read_source<D: RateDiscount>(
        &self,
        replicas: &NodeSet,
        q: &PlaceQuery<'_, D>,
    ) -> Option<(NodeId, f64)> {
        let excl = |s: NodeId| !replicas.contains(s);
        self.select(Rank::Up, q, excl, |m, _ad, _au| q.usable(m.server))
            .or_else(|| self.select(Rank::Up, q, excl, |_, _, _| true))
    }

    /// Best read source over **all** indexed servers — the shape the
    /// runner's placement hook asks for when every server holds the
    /// content. Bit-identical to `read_source` with a full replica set.
    pub fn read_best<D: RateDiscount>(&self, q: &PlaceQuery<'_, D>) -> Option<(NodeId, f64)> {
        self.select(Rank::Up, q, |_| false, |m, _ad, _au| q.usable(m.server))
            .or_else(|| self.select(Rank::Up, q, |_| false, |_, _, _| true))
    }

    /// One branch-and-bound argmax: exact discounted score at leaves
    /// (over `P(t)` when power-aware), the discount's group bounds for
    /// pruning. `filter` sees the metric entry plus its adjusted
    /// `(down, up)` rates, matching what a `Selector` over the discounted
    /// buffer would see.
    fn select<D: RateDiscount>(
        &self,
        rank: Rank,
        q: &PlaceQuery<'_, D>,
        excluded: impl Fn(NodeId) -> bool + Copy,
        filter: impl Fn(&ServerMetrics, f64, f64) -> bool + Copy,
    ) -> Option<(NodeId, f64)> {
        bump(&self.queries);
        // §VII-D divisor; `None` keeps the plain rate ranking.
        let power = if q.cfg.power_aware { q.energy } else { None };
        let pick = |down: f64, up: f64| match rank {
            Rank::Down => down,
            Rank::Up => up,
            Rank::MinBoth => down.min(up),
        };
        let top = match self.levels.last() {
            Some(level) => level.spans.len(),
            None => self.metrics.len(),
        };
        let mut best: Option<(NodeId, f64)> = None;
        self.descend(
            self.levels.len(),
            0..top,
            f64::INFINITY,
            &mut best,
            &|m| {
                if excluded(m.server) {
                    return None;
                }
                bump(&self.leaves);
                let (ad, au) = q.discount.adjust(m);
                if !filter(m, ad, au) {
                    return None;
                }
                let rate = pick(ad, au);
                Some(match power {
                    Some(e) => rate / e.power(m.server),
                    None => rate,
                })
            },
            &|level, g| {
                let span = &level.spans[g];
                if power.is_some() || !span.finite {
                    return f64::NAN;
                }
                bump(&self.bounds);
                let (down, up) = q.discount.group_bound(level.tag, g, span);
                pick(down, up)
            },
        );
        best
    }

    /// Right-to-left depth-first descent over `items` — groups of
    /// `levels[height − 1]`, or leaf positions at height 0. Visiting the
    /// right end first means higher leaf indices are seen first; combined
    /// with the strictly-greater replacement rule and `bound ≤ incumbent`
    /// rejection this reproduces `max_by`'s keep-the-last-of-equal-maxima
    /// tie-break. `bound` is NaN for a group that may not be pruned;
    /// `ceiling` is the least bound evaluated on the way down.
    fn descend(
        &self,
        height: usize,
        items: Range<usize>,
        ceiling: f64,
        best: &mut Option<(NodeId, f64)>,
        eval: &impl Fn(&ServerMetrics) -> Option<f64>,
        bound: &impl Fn(&Level, usize) -> f64,
    ) {
        let Some(level) = height.checked_sub(1).map(|l| &self.levels[l]) else {
            for m in self.metrics[items].iter().rev() {
                let Some(score) = eval(m) else { continue };
                debug_assert!(
                    score.total_cmp(&ceiling) != Ordering::Greater,
                    "RateDiscount::group_bound must dominate adjusted rates \
                     (branch-and-bound soundness)"
                );
                let replace = match best {
                    None => true,
                    Some((_, incumbent)) => score.total_cmp(incumbent) == Ordering::Greater,
                };
                if replace {
                    *best = Some((m.server, score));
                }
            }
            return;
        };
        for g in items.rev() {
            let mut ceiling = ceiling;
            if let Some((_, incumbent)) = best {
                let b = bound(level, g);
                if !b.is_nan() {
                    if b.total_cmp(incumbent) != Ordering::Greater {
                        bump(&self.pruned);
                        continue;
                    }
                    ceiling = ceiling.min(b);
                }
            }
            self.descend(height - 1, level.children(g), ceiling, best, eval, bound);
        }
    }
}

#[cfg(test)]
impl PlacementIndex {
    /// Every group span's fields as bits, bottom level first — what the
    /// control tree's twin test compares.
    pub(crate) fn span_bits(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for level in &self.levels {
            for s in &level.spans {
                for h in 0..MAX_LEVELS {
                    out.extend(
                        [s.down_max[h], s.down_second[h], s.up_max[h], s.up_second[h]]
                            .map(f64::to_bits),
                    );
                }
                out.extend([s.path_down_max.to_bits(), s.path_up_max.to_bits()]);
                out.push(u64::from(s.finite));
            }
        }
        out
    }
}

/// `max` under IEEE total order — the reduction spans use so
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
    use crate::testing::Selector;
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
        // matching group bound — picks must equal a Selector over the
        // pre-discounted metrics even though pruning now rejects
        // groups far below their raw maxima.
        struct Uniform;
        const TOP: usize = MAX_LEVELS - 1;
        impl RateDiscount for Uniform {
            fn adjust(&self, m: &ServerMetrics) -> (f64, f64) {
                (
                    discounted_share(m.path_down, 64.0, 100.0),
                    discounted_share(m.path_up, 64.0, 100.0),
                )
            }
            fn group_bound(&self, _level: u8, _group: usize, span: &GroupSpan) -> (f64, f64) {
                (
                    share_bound(span.down_max[TOP], span.down_second[TOP], 64.0, 100.0),
                    share_bound(span.up_max[TOP], span.up_second[TOP], 64.0, 100.0),
                )
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
