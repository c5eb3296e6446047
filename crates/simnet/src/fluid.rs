//! Max-min water-filling solvers: the one-shot reference and the
//! incremental re-leveler.
//!
//! Computes the exact max-min fair allocation for a set of flows over
//! capacitated links, honoring optional per-flow rate caps (a flow
//! bottlenecked "elsewhere" — at its application, CPU or disk, the
//! `R_other` of the paper's §VI-A — is simply a capped flow).
//!
//! SCDA's *distributed* allocation (the RM/RA iteration of eqs. 2-4) is
//! supposed to converge to this allocation; the integration tests use this
//! solver as ground truth for that claim, and the control plane uses it for
//! the end-to-end reference rate `R_e2e` of eq. 4.
//!
//! Two entry points share one algorithm (DESIGN.md §11):
//!
//! * [`max_min_rates_into`] — the from-scratch reference: solve a whole
//!   problem once into a caller-held buffer.
//! * [`IncrementalMaxMin`] — a persistent solver that keeps a CSR
//!   link→flow incidence structure, patches it on `add_flow` /
//!   `remove_flow` / cap changes, and on [`IncrementalMaxMin::solve`]
//!   re-levels only the connected components reachable from dirty links.
//!   Its rates are **bit-identical** to the reference on the same live
//!   flow set (property-tested in `incremental_matches_reference`),
//!   because both decompose the problem into link-connected components
//!   and run the same component-local waterfill in the same flow order.

use crate::ids::LinkId;

/// One flow for the solver: the directed links it crosses and an optional
/// external rate cap (same units as the link capacities).
#[derive(Debug, Clone)]
pub struct FluidFlow {
    /// Directed links the flow traverses.
    pub path: Vec<LinkId>,
    /// Rate limit imposed outside these links (application, CPU, disk), if
    /// any.
    pub cap: Option<f64>,
}

impl FluidFlow {
    /// An uncapped flow over `path`.
    pub fn new(path: Vec<LinkId>) -> Self {
        FluidFlow { path, cap: None }
    }

    /// A flow over `path` additionally limited to `cap`.
    pub fn capped(path: Vec<LinkId>, cap: f64) -> Self {
        FluidFlow {
            path,
            cap: Some(cap),
        }
    }
}

/// Progressive-filling max-min into a caller-held buffer: `out` is
/// cleared and receives one rate per flow (same order as `flows`).
///
/// # Examples
///
/// A capped flow releases its unused share (the paper's eq. 3 behavior):
///
/// ```
/// use scda_simnet::{max_min_rates_into, FluidFlow, LinkId};
/// let mut rates = Vec::new();
/// max_min_rates_into(
///     &[100.0],
///     &[FluidFlow::capped(vec![LinkId(0)], 10.0), FluidFlow::new(vec![LinkId(0)])],
///     &mut rates,
/// );
/// assert_eq!(rates, vec![10.0, 90.0]);
/// ```
///
/// `caps[l]` is the capacity of link `LinkId(l)`; only links referenced by
/// some path matter. Flows with an empty path get their cap (or
/// `f64::INFINITY` if uncapped — the caller decides what "unconstrained"
/// means for a same-host transfer).
///
/// The classic invariants hold on the output (and are property-tested):
/// no link is over capacity, and every flow is *either* at its cap *or*
/// crosses at least one saturated link on which it has a maximal rate.
///
/// Implemented as a fresh [`IncrementalMaxMin`] build plus one full
/// solve, so this *is* the incremental solver's reference semantics by
/// construction.
pub fn max_min_rates_into(caps: &[f64], flows: &[FluidFlow], out: &mut Vec<f64>) {
    let mut solver = IncrementalMaxMin::new(caps);
    for f in flows {
        solver.add_flow(&f.path, f.cap);
    }
    solver.solve();
    out.clear();
    out.extend_from_slice(solver.rates());
}

/// Comparison slack for freeze decisions, matching the historical
/// from-scratch solver: a cap within `EPS` of the fair share freezes as
/// capped; a link within `EPS` of the minimum share is a bottleneck.
const EPS: f64 = 1e-9;

/// Sentinel for "no external cap": behaves identically to `None` in every
/// freeze comparison (a finite fair share is never `>= INFINITY - EPS`).
const UNCAPPED: f64 = f64::INFINITY;

/// Re-level counters accumulated across [`IncrementalMaxMin::solve`]
/// calls — the observable evidence that incremental solves touch work
/// proportional to *change*, not to the live flow count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Total `solve()` calls that found dirty state.
    pub solves: u64,
    /// Solves that exceeded the dirty-fraction threshold and re-leveled
    /// every live flow.
    pub full_solves: u64,
    /// Connected components re-leveled (across all solves).
    pub components: u64,
    /// Flow rates recomputed (across all solves). Untouched components
    /// keep their cached rates and are not counted.
    pub flows_releveled: u64,
}

/// Fraction of live flows above which an affected set stops being
/// "incremental": past this, `solve()` re-levels everything in one sweep
/// (identical rates — components are independent — but without the
/// per-component bookkeeping overhead). See DESIGN.md §11.
const FULL_SOLVE_DIRTY_FRAC: f64 = 0.25;

/// A persistent max-min solver with slot-addressed flows, CSR link→flow
/// incidence and dirty-component re-leveling.
///
/// * `add_flow` returns a stable `u32` slot; `remove_flow` frees it for
///   reuse. Paths live in one CSR arena (`path_start/path_len/path_data`),
///   compacted when removals leave more garbage than live entries.
/// * Each link keeps its crossing flows in a slack CSR region
///   (`inc_*`), patched in place on add/remove — no per-solve rebuild.
/// * Mutations mark the touched links dirty; `solve()` walks the
///   link↔flow graph from the dirty links, re-partitions exactly the
///   reached flows into connected components, and re-runs the canonical
///   component waterfill on each. Rates of unreached flows are provably
///   unchanged (their component's inputs did not change), so their cache
///   stays valid — and bit-identical to a from-scratch solve.
pub struct IncrementalMaxMin {
    // ---- per-link state ----
    /// Link capacities (the `caps[l]` of the reference solver).
    caps: Vec<f64>,
    /// CSR link→flow incidence: `inc_data[inc_start[l] .. +inc_len[l]]`
    /// holds the slots of flows crossing `l` (unordered — only membership
    /// matters; the waterfill never iterates it).
    inc_start: Vec<u32>,
    inc_len: Vec<u32>,
    /// Allocated width of each link's region (slack for in-place growth).
    inc_cap: Vec<u32>,
    inc_data: Vec<u32>,
    /// Garbage entries in `inc_data` left by region relocations.
    inc_garbage: usize,

    // ---- per-flow (slot) state ----
    path_start: Vec<u32>,
    path_len: Vec<u32>,
    path_data: Vec<LinkId>,
    /// Garbage entries in `path_data` left by removed flows.
    path_garbage: usize,
    /// External rate cap ([`UNCAPPED`] when absent).
    flow_cap: Vec<f64>,
    live: Vec<bool>,
    free: Vec<u32>,
    /// Cached allocation, valid after `solve()` for live slots.
    rate: Vec<f64>,

    // ---- dirty tracking ----
    /// Links whose incidence, capacity or member caps changed since the
    /// last solve (deduplicated via `dirty_mark`).
    dirty_links: Vec<LinkId>,
    dirty_mark: Vec<bool>,
    /// Empty-path flows needing their (trivial) rate refreshed.
    dirty_singletons: Vec<u32>,

    // ---- reusable solve scratch (epoch-stamped; never cleared) ----
    epoch: u64,
    flow_seen: Vec<u64>,
    link_seen: Vec<u64>,
    /// BFS worklist of links, then recycled as the component link list.
    link_work: Vec<LinkId>,
    /// Flows reached by the dirty walk, sorted ascending before solving.
    affected: Vec<u32>,
    /// Union-find over affected flows (indexed by position in `affected`).
    uf_parent: Vec<u32>,
    /// Per-link: union-find index of the first affected flow seen on the
    /// link this solve (epoch-stamped via `link_rep_seen`).
    link_rep: Vec<u32>,
    link_rep_seen: Vec<u64>,
    /// Component grouping (counting-sort CSR over union-find roots).
    comp_of: Vec<u32>,
    comp_start: Vec<u32>,
    comp_cursor: Vec<u32>,
    members: Vec<u32>,
    // ---- waterfill scratch ----
    rem: Vec<f64>,
    count: Vec<u32>,
    fill_seen: Vec<u64>,
    frozen: Vec<bool>,

    /// Dirty fraction above which `solve()` re-levels everything
    /// ([`FULL_SOLVE_DIRTY_FRAC`]; a field so a unit test can raise it).
    full_solve_dirty_frac: f64,
    stats: SolveStats,
}

impl IncrementalMaxMin {
    /// A solver over links with the given capacities and no flows.
    pub fn new(caps: &[f64]) -> Self {
        let nl = caps.len();
        IncrementalMaxMin {
            caps: caps.to_vec(),
            inc_start: vec![0; nl],
            inc_len: vec![0; nl],
            inc_cap: vec![0; nl],
            inc_data: Vec::new(),
            inc_garbage: 0,
            path_start: Vec::new(),
            path_len: Vec::new(),
            path_data: Vec::new(),
            path_garbage: 0,
            flow_cap: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            rate: Vec::new(),
            dirty_links: Vec::new(),
            dirty_mark: vec![false; nl],
            dirty_singletons: Vec::new(),
            epoch: 0,
            flow_seen: Vec::new(),
            link_seen: vec![0; nl],
            link_work: Vec::new(),
            affected: Vec::new(),
            uf_parent: Vec::new(),
            link_rep: vec![0; nl],
            link_rep_seen: vec![0; nl],
            comp_of: Vec::new(),
            comp_start: Vec::new(),
            comp_cursor: Vec::new(),
            members: Vec::new(),
            rem: vec![0.0; nl],
            count: vec![0; nl],
            fill_seen: vec![0; nl],
            frozen: Vec::new(),
            full_solve_dirty_frac: FULL_SOLVE_DIRTY_FRAC,
            stats: SolveStats::default(),
        }
    }

    /// Pre-size the flow columns for `n` concurrent flows with an average
    /// path length of `avg_path` links.
    pub fn reserve_flows(&mut self, n: usize, avg_path: usize) {
        self.path_start.reserve(n);
        self.path_len.reserve(n);
        self.flow_cap.reserve(n);
        self.live.reserve(n);
        self.rate.reserve(n);
        self.path_data.reserve(n * avg_path);
        self.inc_data.reserve(n * avg_path);
    }

    /// Number of links.
    #[inline]
    pub fn link_count(&self) -> usize {
        self.caps.len()
    }

    /// Number of live flows.
    #[inline]
    pub fn live_count(&self) -> usize {
        self.live.iter().filter(|&&v| v).count()
    }

    /// Whether any mutation since the last [`IncrementalMaxMin::solve`]
    /// still awaits re-leveling.
    #[inline]
    pub fn is_dirty(&self) -> bool {
        !self.dirty_links.is_empty() || !self.dirty_singletons.is_empty()
    }

    /// Re-level counters (see [`SolveStats`]).
    #[inline]
    pub fn stats(&self) -> SolveStats {
        self.stats
    }

    /// The per-slot rate column. Valid for live slots after `solve()`;
    /// freed slots read 0.0.
    #[inline]
    pub fn rates(&self) -> &[f64] {
        &self.rate
    }

    /// The allocation of a live flow. Call [`IncrementalMaxMin::solve`]
    /// first; a dirty solver returns stale rates (debug-asserted).
    #[inline]
    pub fn rate(&self, slot: u32) -> f64 {
        debug_assert!(self.live[slot as usize], "rate of a freed slot");
        debug_assert!(!self.is_dirty(), "rate read from a dirty solver");
        self.rate[slot as usize]
    }

    /// Slots re-leveled by the last `solve()`, ascending. Callers use
    /// this to push refreshed allocations to exactly the flows whose
    /// rates may have moved.
    #[inline]
    pub fn last_releveled(&self) -> &[u32] {
        &self.affected
    }

    /// Register a flow over `path` with an optional external cap; returns
    /// its slot. The path links are marked dirty (empty paths mark the
    /// flow as a trivial singleton instead).
    pub fn add_flow(&mut self, path: &[LinkId], cap: Option<f64>) -> u32 {
        self.maybe_compact_paths(path.len());
        let start = self.path_data.len() as u32;
        self.path_data.extend_from_slice(path);
        let cap = cap.unwrap_or(UNCAPPED);
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                self.path_start[s] = start;
                self.path_len[s] = path.len() as u32;
                self.flow_cap[s] = cap;
                self.live[s] = true;
                self.rate[s] = 0.0;
                slot
            }
            None => {
                let slot = self.path_start.len() as u32;
                self.path_start.push(start);
                self.path_len.push(path.len() as u32);
                self.flow_cap.push(cap);
                self.live.push(true);
                self.rate.push(0.0);
                self.flow_seen.push(0);
                slot
            }
        };
        if path.is_empty() {
            self.dirty_singletons.push(slot);
        } else {
            for i in 0..path.len() {
                let l = self.path_data[start as usize + i];
                self.incidence_add(l, slot);
                self.mark_link_dirty(l);
            }
        }
        slot
    }

    /// Deregister a flow; its slot is recycled and its links re-level on
    /// the next solve.
    ///
    /// # Panics
    ///
    /// Panics if the slot is not live (double-removal is a harness bug).
    pub fn remove_flow(&mut self, slot: u32) {
        let s = slot as usize;
        assert!(self.live[s], "solver slot {slot} not live");
        let (start, len) = (self.path_start[s] as usize, self.path_len[s] as usize);
        for i in start..start + len {
            let l = self.path_data[i];
            self.incidence_remove(l, slot);
            self.mark_link_dirty(l);
        }
        self.path_garbage += len;
        self.live[s] = false;
        self.rate[s] = 0.0;
        self.path_len[s] = 0;
        // scda-analyze: allow(hot-path-transitive-alloc, free-list push reuses capacity released by add_flow pops — net growth only when the live population grows)
        self.free.push(slot);
    }

    /// Change a live flow's external cap ([`None`] clears it). Marks the
    /// flow's component dirty.
    pub fn set_flow_cap(&mut self, slot: u32, cap: Option<f64>) {
        let s = slot as usize;
        assert!(self.live[s], "solver slot {slot} not live");
        let cap = cap.unwrap_or(UNCAPPED);
        if self.flow_cap[s].to_bits() == cap.to_bits() {
            return; // no-op: identical constraint, nothing re-levels
        }
        self.flow_cap[s] = cap;
        let (start, len) = (self.path_start[s] as usize, self.path_len[s] as usize);
        if len == 0 {
            self.dirty_singletons.push(slot);
        } else {
            for i in start..start + len {
                let l = self.path_data[i];
                self.mark_link_dirty(l);
            }
        }
    }

    /// Change a link's capacity; every flow in the link's component
    /// re-levels on the next solve.
    pub fn set_link_cap(&mut self, l: LinkId, cap: f64) {
        if self.caps[l.index()].to_bits() == cap.to_bits() {
            return;
        }
        self.caps[l.index()] = cap;
        self.mark_link_dirty(l);
    }

    /// A live flow's path.
    #[inline]
    pub fn path(&self, slot: u32) -> &[LinkId] {
        let s = slot as usize;
        let start = self.path_start[s] as usize;
        &self.path_data[start..start + self.path_len[s] as usize]
    }

    #[inline]
    fn mark_link_dirty(&mut self, l: LinkId) {
        if !self.dirty_mark[l.index()] {
            self.dirty_mark[l.index()] = true;
            // scda-analyze: allow(hot-path-transitive-alloc, dirty-set push into persistent scratch drained by the next solve; capacity is retained across solves)
            self.dirty_links.push(l);
        }
    }

    /// Append `slot` to link `l`'s incidence region, relocating the
    /// region to the tail of `inc_data` (with doubled slack) when full.
    fn incidence_add(&mut self, l: LinkId, slot: u32) {
        let li = l.index();
        let (start, len, cap) = (
            self.inc_start[li] as usize,
            self.inc_len[li] as usize,
            self.inc_cap[li] as usize,
        );
        if len < cap {
            self.inc_data[start + len] = slot;
            self.inc_len[li] += 1;
            return;
        }
        self.maybe_compact_incidence(len + 1);
        // Relocate with doubled width; the old region becomes garbage.
        let (start, len) = (self.inc_start[l.index()] as usize, len);
        let new_cap = (len * 2).max(4);
        let new_start = self.inc_data.len();
        for i in 0..len {
            let v = self.inc_data[start + i];
            self.inc_data.push(v);
        }
        self.inc_data.push(slot);
        self.inc_data
            .resize(new_start + new_cap, u32::MAX /* slack */);
        self.inc_garbage += len;
        let li = l.index();
        self.inc_start[li] = new_start as u32;
        self.inc_len[li] = len as u32 + 1;
        self.inc_cap[li] = new_cap as u32;
    }

    /// Remove `slot` from link `l`'s incidence region (swap-remove; the
    /// region is unordered).
    fn incidence_remove(&mut self, l: LinkId, slot: u32) {
        let li = l.index();
        let (start, len) = (self.inc_start[li] as usize, self.inc_len[li] as usize);
        let region = &mut self.inc_data[start..start + len];
        let pos = region
            .iter()
            .position(|&f| f == slot)
            .expect("invariant: incidence lists every path link of a live flow");
        region[pos] = region[len - 1];
        self.inc_len[li] -= 1;
    }

    /// Rebuild `inc_data` tightly (plus slack for `extra` upcoming
    /// entries) once relocation garbage outweighs live entries.
    fn maybe_compact_incidence(&mut self, extra: usize) {
        let live: usize = self.inc_len.iter().map(|&x| x as usize).sum();
        if self.inc_garbage + (self.inc_data.len() - live - self.inc_garbage) <= live + extra {
            return;
        }
        let mut fresh = Vec::with_capacity(live * 2 + extra);
        for li in 0..self.inc_start.len() {
            let (start, len) = (self.inc_start[li] as usize, self.inc_len[li] as usize);
            let new_start = fresh.len();
            fresh.extend_from_slice(&self.inc_data[start..start + len]);
            // Keep one slot of headroom so steady add/remove churn does
            // not immediately relocate again.
            fresh.push(u32::MAX);
            self.inc_start[li] = new_start as u32;
            self.inc_cap[li] = (len + 1) as u32;
        }
        self.inc_data = fresh;
        self.inc_garbage = 0;
    }

    /// Compact `path_data` once removed flows' paths outweigh live ones.
    fn maybe_compact_paths(&mut self, extra: usize) {
        if self.path_garbage <= self.path_data.len().saturating_sub(self.path_garbage) + extra {
            return;
        }
        let live: usize = self.path_data.len() - self.path_garbage;
        let mut fresh = Vec::with_capacity(live + extra);
        for s in 0..self.path_start.len() {
            if !self.live[s] {
                continue;
            }
            let (start, len) = (self.path_start[s] as usize, self.path_len[s] as usize);
            let new_start = fresh.len() as u32;
            fresh.extend_from_slice(&self.path_data[start..start + len]);
            self.path_start[s] = new_start;
        }
        self.path_data = fresh;
        self.path_garbage = 0;
    }

    /// Re-level every component reachable from the dirty links. No-op on
    /// a clean solver. After this call, [`IncrementalMaxMin::rate`] is
    /// bit-identical to what [`max_min_rates_into`] computes from scratch
    /// on the same live flows (in ascending slot order).
    // scda-analyze: hot(simnet.waterfill)
    pub fn solve(&mut self) {
        for k in 0..self.dirty_singletons.len() {
            let s = self.dirty_singletons[k] as usize;
            if self.live[s] && self.path_len[s] == 0 {
                // Empty-path flows are only limited by their cap, exactly
                // like the reference's pre-pass.
                self.rate[s] = self.flow_cap[s];
            }
        }
        self.dirty_singletons.clear();
        if self.dirty_links.is_empty() {
            self.affected.clear();
            return;
        }
        self.stats.solves += 1;
        self.epoch += 1;
        let epoch = self.epoch;

        // 1. Reach: walk link→flow→link from the dirty links; everything
        //    reached is exactly the union of components whose inputs
        //    changed (dirty sets are closed under link-sharing).
        self.affected.clear();
        self.link_work.clear();
        for k in 0..self.dirty_links.len() {
            let l = self.dirty_links[k];
            self.dirty_mark[l.index()] = false;
            if self.link_seen[l.index()] != epoch {
                self.link_seen[l.index()] = epoch;
                // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                self.link_work.push(l);
            }
        }
        self.dirty_links.clear();
        let mut head = 0;
        while head < self.link_work.len() {
            let l = self.link_work[head];
            head += 1;
            let (start, len) = (self.inc_start[l.index()] as usize, self.inc_len[l.index()]);
            for i in start..start + len as usize {
                let f = self.inc_data[i];
                if self.flow_seen[f as usize] == epoch {
                    continue;
                }
                self.flow_seen[f as usize] = epoch;
                // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                self.affected.push(f);
                let (ps, pl) = (
                    self.path_start[f as usize] as usize,
                    self.path_len[f as usize] as usize,
                );
                for j in ps..ps + pl {
                    let pl_link = self.path_data[j];
                    if self.link_seen[pl_link.index()] != epoch {
                        self.link_seen[pl_link.index()] = epoch;
                        // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                        self.link_work.push(pl_link);
                    }
                }
            }
        }
        if self.affected.is_empty() {
            return; // e.g. a cap change on a link no flow crosses
        }

        // 2. Fallback: past the dirty-fraction threshold the affected set
        //    is most of the problem — grab everything and skip nothing.
        //    Rates are unchanged either way (components are independent).
        let live_count = self.live_count();
        if self.affected.len() > ((live_count as f64) * self.full_solve_dirty_frac) as usize
            && self.affected.len() < live_count
        {
            self.stats.full_solves += 1;
            self.affected.clear();
            for s in 0..self.live.len() {
                if self.live[s] && self.path_len[s] != 0 {
                    // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                    self.affected.push(s as u32);
                }
            }
        } else {
            self.affected.sort_unstable();
        }

        // 3. Partition the affected flows into link-connected components
        //    (union-find; links carry the representative).
        let n_aff = self.affected.len();
        self.uf_parent.clear();
        for i in 0..n_aff {
            // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
            self.uf_parent.push(i as u32);
        }
        for i in 0..n_aff {
            let f = self.affected[i] as usize;
            let (ps, pl) = (self.path_start[f] as usize, self.path_len[f] as usize);
            for j in ps..ps + pl {
                let li = self.path_data[j].index();
                if self.link_rep_seen[li] != epoch {
                    self.link_rep_seen[li] = epoch;
                    self.link_rep[li] = i as u32;
                } else {
                    union(&mut self.uf_parent, i as u32, self.link_rep[li]);
                }
            }
        }

        // 4. Group members by root (counting-sort CSR): ascending-slot
        //    order within each component, the order the reference visits.
        self.comp_of.clear();
        self.comp_start.clear();
        let mut n_comps = 0u32;
        for i in 0..n_aff {
            let r = find(&mut self.uf_parent, i as u32);
            if r == i as u32 {
                // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                self.comp_of.push(n_comps);
                // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                self.comp_start.push(0);
                n_comps += 1;
            } else {
                // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                self.comp_of.push(u32::MAX);
            }
        }
        for i in 0..n_aff {
            let r = find(&mut self.uf_parent, i as u32);
            self.comp_start[self.comp_of[r as usize] as usize] += 1;
        }
        let mut acc = 0u32;
        self.comp_cursor.clear();
        for c in 0..n_comps as usize {
            let cnt = self.comp_start[c];
            self.comp_start[c] = acc;
            // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
            self.comp_cursor.push(acc);
            acc += cnt;
        }
        // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
        self.comp_start.push(acc);
        self.members.clear();
        self.members.resize(n_aff, 0);
        for i in 0..n_aff {
            let r = find(&mut self.uf_parent, i as u32);
            let c = self.comp_of[r as usize] as usize;
            self.members[self.comp_cursor[c] as usize] = self.affected[i];
            self.comp_cursor[c] += 1;
        }

        // 5. Waterfill each component with the canonical arithmetic.
        for c in 0..n_comps as usize {
            let (lo, hi) = (self.comp_start[c] as usize, self.comp_start[c + 1] as usize);
            self.solve_component(lo, hi);
        }
        self.stats.components += n_comps as u64;
        self.stats.flows_releveled += n_aff as u64;
    }

    /// The canonical component-local waterfill over
    /// `self.members[lo..hi]` (ascending slots). Arithmetic and freeze
    /// order match the historical global solver restricted to one
    /// component; DESIGN.md §11 gives the bit-exactness argument.
    fn solve_component(&mut self, lo: usize, hi: usize) {
        let epoch = self.epoch;
        // Component link list + per-link residual capacity and unfrozen
        // counts. Each link belongs to exactly one component per solve,
        // so one epoch stamp serves all components of this pass.
        let links_from = self.link_work.len();
        for m in lo..hi {
            let f = self.members[m] as usize;
            self.frozen.resize(self.live.len(), false);
            self.frozen[f] = false;
            let (ps, pl) = (self.path_start[f] as usize, self.path_len[f] as usize);
            for j in ps..ps + pl {
                let l = self.path_data[j];
                let li = l.index();
                if self.fill_seen[li] != epoch {
                    self.fill_seen[li] = epoch;
                    self.rem[li] = self.caps[li];
                    self.count[li] = 0;
                    // scda-analyze: allow(hot-path-transitive-alloc, persistent solver scratch cleared per solve with capacity retained — amortized-free after warm-up)
                    self.link_work.push(l);
                }
                self.count[li] += 1;
            }
        }
        let mut remaining = hi - lo;
        while remaining > 0 {
            // Tightest per-flow fair share over this component's loaded
            // links (min is iteration-order independent).
            let mut s = f64::INFINITY;
            for k in links_from..self.link_work.len() {
                let li = self.link_work[k].index();
                let c = self.count[li];
                if c > 0 {
                    s = s.min((self.rem[li].max(0.0)) / c as f64);
                }
            }
            debug_assert!(s.is_finite(), "active flows must cross some counted link");

            // Capped flows whose cap is below the fair share freeze
            // first: they are bottlenecked elsewhere and release their
            // unused share — the max-min property the paper highlights
            // for eq. 3.
            let mut froze_capped = false;
            for m in lo..hi {
                let f = self.members[m] as usize;
                if self.frozen[f] {
                    continue;
                }
                let cap = self.flow_cap[f];
                if cap <= s + EPS {
                    let r = cap.max(0.0);
                    self.rate[f] = r;
                    self.frozen[f] = true;
                    remaining -= 1;
                    froze_capped = true;
                    let (ps, pl) = (self.path_start[f] as usize, self.path_len[f] as usize);
                    for j in ps..ps + pl {
                        let li = self.path_data[j].index();
                        self.rem[li] -= r;
                        self.count[li] -= 1;
                    }
                }
            }
            if froze_capped {
                continue;
            }

            // Otherwise saturate the bottleneck links: freeze every flow
            // crossing a link whose fair share equals the minimum.
            let mut froze_any = false;
            for m in lo..hi {
                let f = self.members[m] as usize;
                if self.frozen[f] {
                    continue;
                }
                let (ps, pl) = (self.path_start[f] as usize, self.path_len[f] as usize);
                let bottlenecked = self.path_data[ps..ps + pl].iter().any(|&l| {
                    let li = l.index();
                    let c = self.count[li];
                    c > 0 && (self.rem[li].max(0.0) / c as f64) <= s + EPS
                });
                if bottlenecked {
                    self.rate[f] = s;
                    self.frozen[f] = true;
                    remaining -= 1;
                    froze_any = true;
                    for j in ps..ps + pl {
                        let li = self.path_data[j].index();
                        self.rem[li] -= s;
                        self.count[li] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progress stall in water-filling");
            if !froze_any {
                // Defensive: freeze everything at the current share rather
                // than loop forever (pathological float input only).
                for m in lo..hi {
                    let f = self.members[m] as usize;
                    if !self.frozen[f] {
                        self.rate[f] = s;
                        self.frozen[f] = true;
                        remaining -= 1;
                    }
                }
            }
        }
        self.link_work.truncate(links_from);
    }
}

/// Union-find `find` with path halving.
#[inline]
fn find(parent: &mut [u32], mut x: u32) -> u32 {
    while parent[x as usize] != x {
        parent[x as usize] = parent[parent[x as usize] as usize];
        x = parent[x as usize];
    }
    x
}

/// Union-find `union` by root index (smaller root wins, deterministic).
#[inline]
fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra == rb {
        return;
    }
    let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
    parent[hi as usize] = lo;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: u32) -> LinkId {
        LinkId(i)
    }

    fn solve(caps: &[f64], flows: &[FluidFlow]) -> Vec<f64> {
        let mut out = Vec::new();
        max_min_rates_into(caps, flows, &mut out);
        out
    }

    #[test]
    fn equal_shares_on_one_link() {
        let caps = [90.0];
        let flows = vec![FluidFlow::new(vec![l(0)]); 3];
        let r = solve(&caps, &flows);
        for x in r {
            assert!((x - 30.0).abs() < 1e-6);
        }
    }

    #[test]
    fn capped_flow_releases_share() {
        // 2 flows on a 100-link; one capped at 10 → other gets 90.
        let caps = [100.0];
        let flows = vec![
            FluidFlow::capped(vec![l(0)], 10.0),
            FluidFlow::new(vec![l(0)]),
        ];
        let r = solve(&caps, &flows);
        assert!((r[0] - 10.0).abs() < 1e-6);
        assert!((r[1] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn multi_link_bottleneck_chain() {
        // Classic example: link0 cap 100 shared by f0,f1; link1 cap 40
        // crossed by f1 only. f1 gets 40, f0 gets 60.
        let caps = [100.0, 40.0];
        let flows = vec![FluidFlow::new(vec![l(0)]), FluidFlow::new(vec![l(0), l(1)])];
        let r = solve(&caps, &flows);
        assert!((r[1] - 40.0).abs() < 1e-6);
        assert!((r[0] - 60.0).abs() < 1e-6);
    }

    #[test]
    fn parking_lot() {
        // Three links of cap 30; one long flow over all three, one short
        // flow per link. Max-min: everyone gets 15.
        let caps = [30.0, 30.0, 30.0];
        let flows = vec![
            FluidFlow::new(vec![l(0), l(1), l(2)]),
            FluidFlow::new(vec![l(0)]),
            FluidFlow::new(vec![l(1)]),
            FluidFlow::new(vec![l(2)]),
        ];
        let r = solve(&caps, &flows);
        for x in &r {
            assert!((x - 15.0).abs() < 1e-6, "rates {r:?}");
        }
    }

    #[test]
    fn empty_path_uncapped_is_infinite() {
        let r = solve(&[], &[FluidFlow::new(vec![])]);
        assert!(r[0].is_infinite());
    }

    #[test]
    fn empty_path_capped_gets_cap() {
        let r = solve(&[], &[FluidFlow::capped(vec![], 7.0)]);
        assert_eq!(r[0], 7.0);
    }

    #[test]
    fn no_flows_no_rates() {
        let r = solve(&[10.0], &[]);
        assert!(r.is_empty());
    }

    #[test]
    fn heterogeneous_caps_waterfill() {
        // One 120-link, three flows capped at 10, 20, none.
        let caps = [120.0];
        let flows = vec![
            FluidFlow::capped(vec![l(0)], 10.0),
            FluidFlow::capped(vec![l(0)], 20.0),
            FluidFlow::new(vec![l(0)]),
        ];
        let r = solve(&caps, &flows);
        assert!((r[0] - 10.0).abs() < 1e-6);
        assert!((r[1] - 20.0).abs() < 1e-6);
        assert!((r[2] - 90.0).abs() < 1e-6);
    }

    #[test]
    fn incremental_releveled_set_is_local() {
        // Two disjoint components; touching one must not re-level the
        // other (its cached rates stay).
        let mut s = IncrementalMaxMin::new(&[100.0, 50.0]);
        s.full_solve_dirty_frac = 1.0; // no full-solve fallback: observe strict locality
        let a0 = s.add_flow(&[l(0)], None);
        let a1 = s.add_flow(&[l(0)], None);
        let b0 = s.add_flow(&[l(1)], None);
        s.solve();
        assert_eq!(s.rate(a0), 50.0);
        assert_eq!(s.rate(b0), 50.0);
        let base = s.stats();
        s.set_flow_cap(a1, Some(10.0));
        s.solve();
        let st = s.stats();
        assert_eq!(st.solves, base.solves + 1);
        assert_eq!(st.flows_releveled, base.flows_releveled + 2);
        assert_eq!(s.last_releveled(), &[a0, a1]);
        assert_eq!(s.rate(a0), 90.0);
        assert_eq!(s.rate(a1), 10.0);
        assert_eq!(s.rate(b0), 50.0);
    }

    #[test]
    fn removal_splits_component_and_relevels_both_halves() {
        // A bridge flow joins two links; removing it splits the
        // component and both halves re-level.
        let mut s = IncrementalMaxMin::new(&[100.0, 60.0]);
        let a = s.add_flow(&[l(0)], None);
        let bridge = s.add_flow(&[l(0), l(1)], None);
        let b = s.add_flow(&[l(1)], None);
        s.solve();
        assert_eq!(s.rate(bridge), 30.0);
        assert_eq!(s.rate(a), 70.0);
        s.remove_flow(bridge);
        s.solve();
        assert_eq!(s.rate(a), 100.0);
        assert_eq!(s.rate(b), 60.0);
    }

    #[test]
    fn link_cap_change_relevels_component() {
        let mut s = IncrementalMaxMin::new(&[100.0]);
        let a = s.add_flow(&[l(0)], None);
        let b = s.add_flow(&[l(0)], None);
        s.solve();
        assert_eq!(s.rate(a), 50.0);
        s.set_link_cap(l(0), 30.0);
        s.solve();
        assert_eq!(s.rate(a), 15.0);
        assert_eq!(s.rate(b), 15.0);
    }

    #[test]
    fn clean_solver_solve_is_noop() {
        let mut s = IncrementalMaxMin::new(&[100.0]);
        s.add_flow(&[l(0)], None);
        s.solve();
        let st = s.stats();
        s.solve();
        assert_eq!(s.stats(), st, "clean solve must not count as work");
    }

    #[test]
    fn slot_reuse_keeps_reference_order() {
        let mut s = IncrementalMaxMin::new(&[100.0]);
        let a = s.add_flow(&[l(0)], None);
        let _b = s.add_flow(&[l(0)], None);
        s.remove_flow(a);
        let c = s.add_flow(&[l(0)], Some(20.0)); // reuses slot 0
        assert_eq!(c, a);
        s.solve();
        assert_eq!(s.rate(c), 20.0);
    }

    /// Check the two max-min invariants for a computed allocation.
    fn assert_max_min(caps: &[f64], flows: &[FluidFlow], rates: &[f64]) {
        const EPS: f64 = 1e-6;
        // 1. Feasibility.
        let mut load = vec![0.0; caps.len()];
        for (f, &r) in flows.iter().zip(rates) {
            for &l in &f.path {
                load[l.index()] += r;
            }
        }
        for (l, &ld) in load.iter().enumerate() {
            assert!(
                ld <= caps[l] + EPS,
                "link {l} over capacity: {ld} > {}",
                caps[l]
            );
        }
        // 2. Every flow is at its cap or has a saturated link where its
        //    rate is maximal among the link's flows.
        for (j, (f, &r)) in flows.iter().zip(rates).enumerate() {
            if let Some(cap) = f.cap {
                if (r - cap).abs() < EPS {
                    continue;
                }
            }
            let ok = f.path.iter().any(|&l| {
                let saturated = load[l.index()] >= caps[l.index()] - EPS;
                let maximal = flows
                    .iter()
                    .zip(rates)
                    .filter(|(g, _)| g.path.contains(&l))
                    .all(|(_, &r2)| r2 <= r + EPS);
                saturated && maximal
            });
            assert!(ok, "flow {j} (rate {r}) is neither capped nor bottlenecked");
        }
    }

    #[test]
    fn invariants_on_fixed_cases() {
        let caps = [100.0, 40.0, 75.0];
        let flows = vec![
            FluidFlow::new(vec![l(0), l(1)]),
            FluidFlow::new(vec![l(0), l(2)]),
            FluidFlow::capped(vec![l(2)], 5.0),
            FluidFlow::new(vec![l(1), l(2)]),
        ];
        let r = solve(&caps, &flows);
        assert_max_min(&caps, &flows, &r);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn arb_case() -> impl Strategy<Value = (Vec<f64>, Vec<FluidFlow>)> {
            // 1..6 links with caps 1..1000, 1..12 flows with random paths
            // (non-empty subsets) and optional caps.
            (1usize..6).prop_flat_map(|nl| {
                let caps = proptest::collection::vec(1.0f64..1000.0, nl);
                let flows = proptest::collection::vec(
                    (
                        proptest::collection::vec(0u32..nl as u32, 1..=nl),
                        proptest::option::of(0.5f64..500.0),
                    ),
                    1..12,
                );
                (caps, flows).prop_map(|(caps, fl)| {
                    let flows = fl
                        .into_iter()
                        .map(|(mut path, cap)| {
                            path.sort_unstable();
                            path.dedup();
                            FluidFlow {
                                path: path.into_iter().map(LinkId).collect(),
                                cap,
                            }
                        })
                        .collect();
                    (caps, flows)
                })
            })
        }

        proptest! {
            #[test]
            fn max_min_invariants_hold((caps, flows) in arb_case()) {
                let rates = solve(&caps, &flows);
                prop_assert_eq!(rates.len(), flows.len());
                for &r in &rates {
                    prop_assert!(r >= -1e-9 && r.is_finite());
                }
                super::assert_max_min(&caps, &flows, &rates);
            }

            #[test]
            fn allocation_is_scale_invariant((caps, flows) in arb_case()) {
                // Scaling all capacities and caps by c scales all rates by c.
                let c = 3.5;
                let caps2: Vec<f64> = caps.iter().map(|x| x * c).collect();
                let flows2: Vec<FluidFlow> = flows
                    .iter()
                    .map(|f| FluidFlow { path: f.path.clone(), cap: f.cap.map(|x| x * c) })
                    .collect();
                let r1 = solve(&caps, &flows);
                let r2 = solve(&caps2, &flows2);
                for (a, b) in r1.iter().zip(&r2) {
                    prop_assert!((a * c - b).abs() < 1e-6 * (1.0 + b.abs()));
                }
            }
        }

        /// One step of the incremental-vs-reference drive: mutate, then
        /// (maybe) solve and compare bit-for-bit.
        #[derive(Debug, Clone)]
        enum Op {
            Add { path: Vec<u32>, cap: Option<f64> },
            Remove { pick: usize },
            FlowCap { pick: usize, cap: Option<f64> },
            LinkCap { link: u32, cap: f64 },
            Solve,
        }

        fn arb_ops(nl: usize) -> impl Strategy<Value = Vec<Op>> {
            // Kind is drawn 0..12 and bucketed so op frequencies are
            // weighted (adds most common, link-cap changes rare).
            let op = (
                0u32..12,
                proptest::collection::vec(0u32..nl as u32, 1..=nl),
                proptest::option::of(0.5f64..500.0),
                0usize..64,
                0u32..nl as u32,
                1.0f64..1000.0,
            )
                .prop_map(|(kind, mut path, cap, pick, link, link_cap)| match kind {
                    0..=3 => {
                        path.sort_unstable();
                        path.dedup();
                        Op::Add { path, cap }
                    }
                    4 | 5 => Op::Remove { pick },
                    6 | 7 => Op::FlowCap { pick, cap },
                    8 => Op::LinkCap {
                        link,
                        cap: link_cap,
                    },
                    _ => Op::Solve,
                });
            proptest::collection::vec(op, 1..40)
        }

        proptest! {
            /// Satellite 2: after every solve in a random add/remove/
            /// cap-change sequence, the incremental rates are bit-identical
            /// to a from-scratch reference over the same live flows.
            #[test]
            fn incremental_matches_reference(
                (nl, ops) in (2usize..6).prop_flat_map(|nl| (Just(nl), arb_ops(nl))),
                caps in proptest::collection::vec(1.0f64..1000.0, 6),
            ) {
                let caps = &caps[..nl];
                let mut inc = IncrementalMaxMin::new(caps);
                // Shadow model: (slot, FluidFlow) for live flows.
                let mut live: Vec<(u32, FluidFlow)> = Vec::new();
                let mut ref_caps = caps.to_vec();
                let mut out = Vec::new();
                for op in ops {
                    match op {
                        Op::Add { path, cap } => {
                            let path: Vec<LinkId> = path.into_iter().map(LinkId).collect();
                            let slot = inc.add_flow(&path, cap);
                            live.push((slot, FluidFlow { path, cap }));
                            live.sort_by_key(|&(s, _)| s);
                        }
                        Op::Remove { pick } => {
                            if live.is_empty() { continue; }
                            let (slot, _) = live.remove(pick % live.len());
                            inc.remove_flow(slot);
                        }
                        Op::FlowCap { pick, cap } => {
                            if live.is_empty() { continue; }
                            let k = pick % live.len();
                            inc.set_flow_cap(live[k].0, cap);
                            live[k].1.cap = cap;
                        }
                        Op::LinkCap { link, cap } => {
                            if link as usize >= nl { continue; }
                            inc.set_link_cap(LinkId(link), cap);
                            ref_caps[link as usize] = cap;
                        }
                        Op::Solve => {
                            inc.solve();
                            // Reference: same live flows, ascending slot
                            // order (the order a fresh build would add them).
                            let flows: Vec<FluidFlow> =
                                live.iter().map(|(_, f)| f.clone()).collect();
                            max_min_rates_into(&ref_caps, &flows, &mut out);
                            for (k, (slot, _)) in live.iter().enumerate() {
                                prop_assert_eq!(
                                    inc.rate(*slot).to_bits(),
                                    out[k].to_bits(),
                                    "slot {} diverged after incremental solve",
                                    slot
                                );
                            }
                        }
                    }
                }
                // Final settle: one more solve must also agree.
                inc.solve();
                let flows: Vec<FluidFlow> = live.iter().map(|(_, f)| f.clone()).collect();
                max_min_rates_into(&ref_caps, &flows, &mut out);
                for (k, (slot, _)) in live.iter().enumerate() {
                    prop_assert_eq!(inc.rate(*slot).to_bits(), out[k].to_bits());
                }
            }
        }
    }
}
