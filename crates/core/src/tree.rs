//! The RM/RA control tree (§III-B, §VI, figure 2).
//!
//! One **resource monitor** (RM) sits at each block server (level 0),
//! monitoring the server's uplink/downlink; one **resource allocator** (RA)
//! sits at each switch (levels 1..h_max), monitoring the switch's links
//! toward the core. Every control interval τ the tree runs one *round*:
//!
//! 1. every RM/RA samples its links (queue `Q`, flow-rate sum `S` or
//!    arrival rate `Λ`) and updates its allocator state — eqs. 2-5;
//! 2. an **upward pass** (figure 2, left) folds the best per-subtree rates
//!    `R̂` toward the root: an RM's `R̂⁰ = min(R⁰, R_other)`; an RA's
//!    `R̂ʰ = min(max_children R̂ʰ⁻¹, Rʰ)`. *Which* block server achieves
//!    the best is walked down on demand ([`ControlTree::best_server_at`]);
//! 3. a **downward pass** (figure 2, right) gives every RM the cumulative
//!    bottleneck rate `Ř` up to *each* level of the tree, which prices
//!    reads, replication between racks, and the per-τ window updates of
//!    on-going flows (§VIII-D);
//! 4. SLA violations (`S > α·C − β·Q/d`, §IV-A) are detected per link and
//!    reported to the caller.
//!
//! Directions follow the paper: **down** carries data toward the servers
//! (client writes), **up** carries data from servers toward clients
//! (reads). Every node therefore monitors a `(down, up)` link pair.
//!
//! # Data layout (hyperscale refactor)
//!
//! The tree stores **no per-node structs**: all hot state lives in
//! struct-of-arrays columns indexed by [`CtrlId`] (see DESIGN.md §10).
//! Per direction there is one contiguous `f64` column each for capacity,
//! allocator iteration state, this/previous round's own-link rate and the
//! subtree-best `R̂`; the child lists are one flat CSR array; the per-RM
//! cumulative `Ř` vectors are one level-major array
//! (`r_check[h · n_rms + rm_pos]`), so the downward pass writes each
//! level contiguously; and the server→RM lookup is a dense `NodeId`-
//! indexed table instead of a `BTreeMap`. A round is one serial sweep
//! over those columns; the crate spawns no threads. Pass 0 sweeps every
//! node; passes 1 and 2 revisit only what moved (DESIGN.md §10).

use scda_simnet::builders::ThreeTierTree;
use scda_simnet::units::{Bytes, BytesPerSec};
use scda_simnet::{LinkId, NodeId};
use serde::{Deserialize, Serialize};

use crate::params::Params;
use crate::placement_index::IndexShape;
use crate::rate_metric::{LinkSample, MetricKind};
use crate::sla::{SlaViolation, ViolationSite};

/// Index of a node in the control tree (not a network node!).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CtrlId(pub usize);

/// Traffic direction, from the servers' point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Direction {
    /// Toward the servers — the write path (`d` subscripts in the paper).
    Down,
    /// From the servers toward clients — the read path (`u` subscripts).
    Up,
}

/// Sender/receiver caps from non-network resources (CPU, disk,
/// application) — the `R_other` of §VI-A.
#[derive(Debug, Clone, Copy)]
pub struct RateCaps {
    /// Cap on serving reads (uplink side), bytes/s.
    pub send: f64,
    /// Cap on absorbing writes (downlink side), bytes/s.
    pub recv: f64,
}

impl Default for RateCaps {
    fn default() -> Self {
        RateCaps {
            send: f64::INFINITY,
            recv: f64::INFINITY,
        }
    }
}

/// What the control plane reads from the data plane each round. In a real
/// deployment this is the RM software querying its local switch; in the
/// reproduction the experiment harness implements it over the simulated
/// [`scda_simnet::Network`].
pub trait Telemetry {
    /// Queue / flow-sum / arrival-rate sample for one directed link.
    fn sample(&mut self, link: LinkId) -> LinkSample;
    /// Other-resource caps of a block server.
    fn rate_caps(&mut self, server: NodeId) -> RateCaps;
}

/// Specification of one control node for [`ControlTree::new`].
#[derive(Debug, Clone)]
pub struct NodeSpec {
    /// Tree level: 0 for RMs, 1..=h_max for RAs.
    pub level: u8,
    /// Parent index in the spec list (None for the root).
    pub parent: Option<usize>,
    /// The block server an RM monitors (None for RAs).
    pub server: Option<NodeId>,
    /// Monitored link in the *down* direction (toward servers).
    pub down_link: LinkId,
    /// Monitored link in the *up* direction (toward clients).
    pub up_link: LinkId,
}

/// Column sentinel for "no parent" / "not an RM" / "unknown server".
const NONE: u32 = u32::MAX;

/// Relative move past which an allocation counts as changed — the §IV
/// Δ-report threshold behind [`ControlTree::changed_dirs`].
pub const DELTA_REL_EPS: f64 = 0.05;

/// Work the difference-driven rounds did since the tree was built, as
/// plain counts: the host-independent measure of a round's cost, which
/// an observed round reports as `ctrl.refolds` / `ctrl.redescents`. A
/// dense round re-folds every RA and re-descends every RM position at
/// every chain level `1..=h_max`.
#[derive(Debug, Clone, Copy, Default)]
struct RoundWork {
    /// RAs whose `R̂` pass 1 re-folded.
    refolds: u64,
    /// `(RM position, chain level ≥ 1)` pairs whose `Ř` pass 2
    /// re-evaluated.
    redescents: u64,
}

/// One direction's per-node state, stored as parallel columns indexed by
/// [`CtrlId`]. `r_alloc` is the allocator's `R(t−τ)` iteration state
/// (what [`crate::rate_metric::LinkAllocator`] keeps as `r_prev`);
/// `r_own` is this round's published own-link allocation, which starts
/// at 0 until the first round runs — the two only coincide after a round.
/// `moved` is each node's [`Moved`] mask of `r_own` over the last round,
/// the exact XOR of its old and new bits.
struct DirColumns {
    link: Vec<LinkId>,
    cap: Vec<f64>,
    r_alloc: Vec<f64>,
    r_own: Vec<f64>,
    r_hat: Vec<f64>,
    moved: Vec<Moved>,
}

impl DirColumns {
    /// Columns for `n` nodes, all zero until [`DirColumns::set_node`].
    fn with_len(n: usize) -> Self {
        DirColumns {
            link: vec![LinkId(0); n],
            cap: vec![0.0; n],
            r_alloc: vec![0.0; n],
            r_own: vec![0.0; n],
            r_hat: vec![0.0; n],
            moved: vec![0; n],
        }
    }

    /// Set node `i`'s link, mirroring `LinkAllocator::new`: the
    /// iteration starts optimistically at `R(0) = α·C`.
    fn set_node(&mut self, i: usize, link: LinkId, capacity: f64, params: &Params) {
        assert!(capacity > 0.0, "capacity must be positive");
        self.link[i] = link;
        self.cap[i] = capacity;
        self.r_alloc[i] = params.alpha * capacity;
    }

    /// Pass-0 numeric sweep: one eq. 2/5 allocator step for *every* node
    /// at once, reading the telemetry gathered in `scratch` and filling
    /// `scratch.cap_term`/`scratch.load` for the violation sweep behind
    /// it, and `moved` beside `r_own`. Each element runs the exact
    /// floating-point op sequence of [`crate::rate_metric::update_rate`]
    /// (the `capacity_term` is computed once and shared with the
    /// violation check — same formula, same operands), so the results
    /// are bit-identical to the scalar per-node form. Hoisting the
    /// metric-kind branch out of the loop and keeping the bodies
    /// branch-free is what lets the compiler vectorize the divisions —
    /// the round's dominant cost at paper scale and beyond.
    fn update_all(
        &mut self,
        scratch: &mut DirScratch,
        metric: MetricKind,
        params: &Params,
        observing: bool,
    ) {
        let n = self.cap.len();
        let cap = &self.cap[..n];
        let r_alloc = &mut self.r_alloc[..n];
        let r_own = &mut self.r_own[..n];
        let moved = &mut self.moved[..n];
        let queue = &scratch.queue[..n];
        let flow = &scratch.flow[..n];
        let arrival = &scratch.arrival[..n];
        let cap_term = &mut scratch.cap_term[..n];
        let load = &mut scratch.load[..n];
        match metric {
            MetricKind::Full => {
                for i in 0..n {
                    let ct = params
                        .capacity_term(BytesPerSec::new(cap[i]), Bytes::new(queue[i]))
                        .get();
                    cap_term[i] = ct;
                    load[i] = flow[i].max(arrival[i]);
                    let prev = r_own[i];
                    // N̂ = S / R(t−τ); an idle link offers the whole term.
                    let n_eff = (flow[i] / r_alloc[i]).max(1.0);
                    let floor = params.min_rate.min(cap[i]);
                    // max-then-min, not `clamp`: same result for the
                    // non-NaN finite rates this sweep produces, but
                    // without clamp's `min <= max` panic path, which
                    // would keep the loop scalar.
                    let r = (ct / n_eff).max(floor).min(cap[i]);
                    r_alloc[i] = r;
                    r_own[i] = r;
                    moved[i] = r.to_bits() ^ prev.to_bits();
                }
            }
            MetricKind::Simplified => {
                for i in 0..n {
                    let ct = params
                        .capacity_term(BytesPerSec::new(cap[i]), Bytes::new(queue[i]))
                        .get();
                    cap_term[i] = ct;
                    load[i] = flow[i].max(arrival[i]);
                    let prev = r_own[i];
                    let r = if arrival[i] <= 0.0 {
                        ct
                    } else {
                        ct * r_alloc[i] / arrival[i]
                    };
                    let floor = params.min_rate.min(cap[i]);
                    let r = r.max(floor).min(cap[i]);
                    r_alloc[i] = r;
                    r_own[i] = r;
                    moved[i] = r.to_bits() ^ prev.to_bits();
                }
            }
        }
        if observing {
            // Per-link utilization for the round's metrics flush — one
            // vectorized division sweep instead of a scalar divide per
            // link inside the observation loop.
            let util = &mut scratch.util[..n];
            for i in 0..n {
                util[i] = if cap[i] > 0.0 { load[i] / cap[i] } else { 0.0 };
            }
        }
    }

    /// The last round's §IV Δ-reports: allocations that moved by more
    /// than [`DELTA_REL_EPS`] relative. Only a marked node can count (an
    /// unmoved allocation moved by 0), and its previous rate is its
    /// current one XOR its mask, bit for bit.
    fn delta_reports(&self) -> usize {
        set_positions(&self.moved)
            .filter(|&i| {
                let r = self.r_own[i];
                let prev = f64::from_bits(r.to_bits() ^ self.moved[i]);
                (r - prev).abs() > DELTA_REL_EPS * prev.max(1.0)
            })
            .count()
    }
}

/// Reused pass-0 scratch columns for one direction: raw telemetry
/// (`queue`/`flow`/`arrival`, filled by the sample sweep) and derived
/// values (`cap_term`/`load`, plus `util` on observed trees, filled by
/// [`DirColumns::update_all`] and read by the violation/observation
/// sweep and [`ControlTree::observe_round`]). Allocated once at
/// construction so control rounds stay allocation-free.
struct DirScratch {
    queue: Vec<f64>,
    flow: Vec<f64>,
    arrival: Vec<f64>,
    cap_term: Vec<f64>,
    load: Vec<f64>,
    util: Vec<f64>,
}

impl DirScratch {
    fn with_len(n: usize) -> Self {
        DirScratch {
            queue: vec![0.0; n],
            flow: vec![0.0; n],
            arrival: vec![0.0; n],
            cap_term: vec![0.0; n],
            load: vec![0.0; n],
            util: vec![0.0; n],
        }
    }

    #[inline]
    fn set(&mut self, id: usize, s: &LinkSample) {
        self.queue[id] = s.queue_bytes;
        self.flow[id] = s.flow_rate_sum;
        self.arrival[id] = s.arrival_rate;
    }
}

/// A move mask: the XOR of a value's bits before and after a round, OR-ed
/// over everything it stands for — nonzero iff something moved bitwise.
/// A mask rather than a `bool`, because the sweeps that write one are
/// vectorized `f64` loops, and 64-bit lanes store without repacking.
type Moved = u64;

/// Masks scanned per block when looking for nonzero ones.
const MASK_BLOCK: usize = 16;

/// The positions of the nonzero masks in `masks`, ascending; zero blocks
/// of [`MASK_BLOCK`] are skipped with one test each.
pub(crate) fn set_positions(masks: &[Moved]) -> impl Iterator<Item = usize> + '_ {
    masks
        .chunks(MASK_BLOCK)
        .enumerate()
        .filter(|(_, block)| block.iter().fold(0, |acc, &m| acc | m) != 0)
        .flat_map(|(b, block)| {
            block
                .iter()
                .enumerate()
                .filter(|&(_, &m)| m != 0)
                .map(move |(i, _)| b * MASK_BLOCK + i)
        })
}

/// One ancestor run of pass 2 at one level: the run's slice of the
/// level below (`prev_*`) and of the level being written (`cur_*`), and
/// its RM positions' masks.
struct RunCols<'a> {
    prev_d: &'a [f64],
    cur_d: &'a mut [f64],
    prev_u: &'a [f64],
    cur_u: &'a mut [f64],
    pos_moved: &'a mut [Moved],
    rm_moved: &'a mut [Moved],
}

impl RunCols<'_> {
    /// Re-evaluate every position as `step(prev)` in one branch-free
    /// sweep, OR-ing each position's [`Moved`] mask into `rm_moved`. With
    /// `frontier` — the next level will re-evaluate only what moved
    /// here — it also writes `pos_moved` and returns whether any
    /// position moved; otherwise it returns `false`.
    fn sweep(
        &mut self,
        frontier: bool,
        step_d: impl Fn(f64) -> f64,
        step_u: impl Fn(f64) -> f64,
    ) -> bool {
        let n = self.cur_d.len();
        let (prev_d, cur_d) = (&self.prev_d[..n], &mut self.cur_d[..n]);
        let (prev_u, cur_u) = (&self.prev_u[..n], &mut self.cur_u[..n]);
        let (pos_moved, rm_moved) = (&mut self.pos_moved[..n], &mut self.rm_moved[..n]);
        if !frontier {
            for i in 0..n {
                let rd = step_d(prev_d[i]);
                let ru = step_u(prev_u[i]);
                rm_moved[i] |=
                    (rd.to_bits() ^ cur_d[i].to_bits()) | (ru.to_bits() ^ cur_u[i].to_bits());
                cur_d[i] = rd;
                cur_u[i] = ru;
            }
            return false;
        }
        let mut any = 0;
        for i in 0..n {
            let rd = step_d(prev_d[i]);
            let ru = step_u(prev_u[i]);
            let m = (rd.to_bits() ^ cur_d[i].to_bits()) | (ru.to_bits() ^ cur_u[i].to_bits());
            cur_d[i] = rd;
            cur_u[i] = ru;
            pos_moved[i] = m;
            rm_moved[i] |= m;
            any |= m;
        }
        any != 0
    }

    /// Re-evaluate `min(prev, own)` only where `pos_moved` is nonzero:
    /// where the level below moved. Returns whether any position moved,
    /// and how many were visited.
    fn sweep_moved(&mut self, own_d: f64, own_u: f64) -> (bool, u64) {
        let mut any = 0;
        let mut visited = 0u64;
        for i in 0..self.cur_d.len() {
            if self.pos_moved[i] == 0 {
                continue;
            }
            visited += 1;
            let rd = self.prev_d[i].min(own_d);
            let ru = self.prev_u[i].min(own_u);
            let m =
                (rd.to_bits() ^ self.cur_d[i].to_bits()) | (ru.to_bits() ^ self.cur_u[i].to_bits());
            self.cur_d[i] = rd;
            self.cur_u[i] = ru;
            self.pos_moved[i] = m;
            self.rm_moved[i] |= m;
            any |= m;
        }
        (any != 0, visited)
    }
}

/// The assembled RM/RA tree. All per-node state lives in index-keyed
/// columns — see the module docs for the layout.
pub struct ControlTree {
    params: Params,
    metric: MetricKind,
    /// Tree level per node: 0 for RMs, 1..=h_max for RAs.
    levels: Vec<u8>,
    /// Parent per node; the root's entry is `len()`, a spare slot in
    /// the `refold`/`redescend` flag columns, so a node marks its parent
    /// without a branch.
    parent: Vec<u32>,
    /// CSR offsets into `child_list`, length `len() + 1`.
    child_start: Vec<u32>,
    /// Flat child lists, grouped per node in construction order. Only
    /// children with an RM beneath them are listed: the others have no
    /// block server to offer, so neither the fold nor the argmax walk
    /// may pick them.
    child_list: Vec<u32>,
    /// Monitored block server per node (RMs only).
    servers: Vec<Option<NodeId>>,
    down: DirColumns,
    up: DirColumns,
    down_scratch: DirScratch,
    up_scratch: DirScratch,
    /// Node index → RM position (index into the RM-ordered columns);
    /// [`NONE`] for RAs.
    rm_pos: Vec<u32>,
    /// Per RM position: length of its root chain (1 + #ancestors) —
    /// the number of meaningful `Ř` entries.
    rm_depth: Vec<u8>,
    /// Flat ancestor chains, stride `hmax`: entry
    /// `rm_anc[pos · hmax + (h−1)]` is the node at chain position `h`.
    rm_anc: Vec<u32>,
    /// Maximal runs of consecutive RM positions sharing one level-`h`
    /// ancestor, level-major: `(start, end, anc)` covers positions
    /// `start..end`; `anc == NONE` marks chains that ended below `h`
    /// (their `Ř` copies through). Sibling RMs are adjacent in
    /// construction order, so the downward pass degenerates to a few
    /// slice-vs-scalar `min` sweeps per level instead of a per-RM
    /// ancestor gather.
    anc_runs: Vec<(u32, u32, u32)>,
    /// `anc_runs[anc_run_offsets[h−1]..anc_run_offsets[h]]` are level
    /// `h`'s runs (`1 ≤ h ≤ hmax`); length `hmax + 1`.
    anc_run_offsets: Vec<u32>,
    /// Level-major cumulative bottleneck `Ř_d`:
    /// `r_check_down[h · n_rms + pos]` (valid for `h < rm_depth[pos]`
    /// once a round has run).
    r_check_down: Vec<f64>,
    /// Level-major cumulative bottleneck `Ř_u` (same layout).
    r_check_up: Vec<f64>,
    /// Dense server → RM-node lookup indexed by `NodeId.0`.
    rm_of_server: Vec<u32>,
    /// Pass-1 flags by node (plus the root's spare slot): a child's `R̂`
    /// moved this round, so the node must re-fold.
    refold: Vec<bool>,
    /// Pass-2 flags by node (plus the spare slot): some RM position
    /// beneath the node moved its `Ř` at the chain level below it.
    redescend: Vec<bool>,
    /// Per RM position: the [`Moved`] mask of `Ř` at the chain level
    /// pass 2 is on.
    pos_moved: Vec<Moved>,
    /// Per RM position: the round's [`Moved`] mask over the RM's `R̂` and
    /// all its `Ř` — the leaves a mirror of [`ControlTree::metrics_at`]
    /// must rewrite.
    rm_moved: Vec<Moved>,
    /// Cumulative pass-1/2 work.
    work: RoundWork,
    root: CtrlId,
    /// Bottom-up evaluation order: stable level sort, so each level's
    /// slice is in construction order.
    order: Vec<CtrlId>,
    /// `order[level_offsets[h]..level_offsets[h + 1]]` are the level-`h`
    /// nodes; length `hmax + 2`.
    level_offsets: Vec<usize>,
    hmax: u8,
    /// Rounds executed so far (trace correlation id; also the "has the
    /// first round filled `Ř`?" flag).
    round: u64,
    /// Observability sink (disabled by default).
    obs: scda_obs::Obs,
}

/// Maximum tree depth the per-server level cache covers — exactly the
/// paper's three-tier tree (the RM plus three RA tiers). Sized to fit:
/// [`ServerMetrics`] is copied out per server per round on the hot
/// selection path, and every unused slot is pure memory-bandwidth waste
/// (deeper trees cap `n_levels` and keep the deepest entry as padding).
pub const MAX_LEVELS: usize = 4;

/// Read-only per-server metrics after a control round, used by the server
/// selection strategies.
#[derive(Debug, Clone, Copy)]
pub struct ServerMetrics {
    /// The block server.
    pub server: NodeId,
    /// `R̂⁰_d` — available write rate at the server's own link (incl.
    /// `R_other`).
    pub r0_down: f64,
    /// `R̂⁰_u` — available read rate at the server's own link.
    pub r0_up: f64,
    /// `Ř^{h_max}_d` — bottleneck write rate over the whole path from the
    /// cloud entry down to this server.
    pub path_down: f64,
    /// `Ř^{h_max}_u` — bottleneck read rate from this server up to the
    /// cloud entry.
    pub path_up: f64,
    /// Cumulative `Ř_d` per level (index = level; entries past
    /// `n_levels` repeat the deepest value) — a cache of
    /// [`ControlTree::rate_to_level`] so hot selection paths avoid
    /// per-call tree walks.
    pub down_levels: [f64; MAX_LEVELS],
    /// Cumulative `Ř_u` per level.
    pub up_levels: [f64; MAX_LEVELS],
    /// Number of meaningful level entries (`h_max + 1`).
    pub n_levels: u8,
}

impl ControlTree {
    /// Build a tree from node specs. `capacity_of` maps a link to its
    /// capacity in **bytes/s**.
    ///
    /// # Panics
    ///
    /// Panics on malformed specs: multiple roots, parent after child,
    /// RAs with servers, RMs without, or level inversions.
    pub fn new(
        params: Params,
        metric: MetricKind,
        specs: &[NodeSpec],
        mut capacity_of: impl FnMut(LinkId) -> f64,
    ) -> Self {
        params.validate().expect("invalid params");
        assert!(!specs.is_empty(), "control tree needs at least one node");
        let n = specs.len();
        let mut levels = Vec::with_capacity(n);
        let mut parents: Vec<u32> = Vec::with_capacity(n);
        let mut servers = Vec::with_capacity(n);
        // The columns the tree keeps come first, before the build's
        // scratch: freeing that scratch then leaves no long-lived column
        // above it on the heap.
        let mut down = DirColumns::with_len(n);
        let mut up = DirColumns::with_len(n);
        let n_rms = specs.iter().filter(|s| s.level == 0).count();
        let (refold, redescend) = (vec![false; n + 1], vec![false; n + 1]);
        let (pos_moved, rm_moved) = (vec![0; n_rms], vec![0; n_rms]);
        let mut root = None;
        let mut hmax = 0u8;
        let mut max_server = None::<u32>;
        for (i, s) in specs.iter().enumerate() {
            if let Some(p) = s.parent {
                assert!(p < i, "parents must precede children in the spec list");
                assert!(
                    specs[p].level > s.level,
                    "parent level must exceed child level"
                );
            } else {
                assert!(root.is_none(), "multiple roots");
                root = Some(CtrlId(i));
            }
            if s.level == 0 {
                assert!(s.server.is_some(), "RMs (level 0) must name a server");
                let srv = s
                    .server
                    .expect("invariant: asserted is_some immediately above");
                max_server = Some(max_server.map_or(srv.0, |m: u32| m.max(srv.0)));
            } else {
                assert!(s.server.is_none(), "RAs must not name a server");
            }
            hmax = hmax.max(s.level);
            levels.push(s.level);
            parents.push(s.parent.map_or(NONE, |p| p as u32));
            servers.push(s.server);
            down.set_node(i, s.down_link, capacity_of(s.down_link), &params);
            up.set_node(i, s.up_link, capacity_of(s.up_link), &params);
        }
        let root =
            root.expect("invariant: spec[0] cannot name an earlier parent, so a root exists");

        // Which nodes have an RM beneath them (every RM does): walk up
        // from each RM until a marked node.
        let mut has_rm = vec![false; n];
        for (i, &l) in levels.iter().enumerate() {
            let mut cur = i as u32;
            while l == 0 && cur != NONE && !has_rm[cur as usize] {
                has_rm[cur as usize] = true;
                cur = parents[cur as usize];
            }
        }

        // Children as one flat CSR array (construction order per parent,
        // like the old per-node `Vec<CtrlId>` push order), keeping only
        // the children with an RM beneath.
        let mut child_count = vec![0u32; n];
        for (i, &p) in parents.iter().enumerate() {
            if p != NONE && has_rm[i] {
                child_count[p as usize] += 1;
            }
        }
        let mut child_start = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        for &c in &child_count {
            child_start.push(acc);
            acc += c;
        }
        child_start.push(acc);
        let mut cursor = child_start[..n].to_vec();
        let mut child_list = vec![0u32; acc as usize];
        for (i, &p) in parents.iter().enumerate() {
            if p != NONE && has_rm[i] {
                let slot = &mut cursor[p as usize];
                child_list[*slot as usize] = i as u32;
                *slot += 1;
            }
        }

        // Bottom-up order: stable sort by level (children are strictly
        // lower-level than parents), plus per-level offsets.
        let mut order: Vec<CtrlId> = (0..n).map(CtrlId).collect();
        order.sort_by_key(|&id| levels[id.0]);
        let mut level_offsets = vec![0usize; hmax as usize + 2];
        for &l in &levels {
            level_offsets[l as usize + 1] += 1;
        }
        for h in 0..=hmax as usize {
            level_offsets[h + 1] += level_offsets[h];
        }

        // RM-ordered columns: position map, ancestor chains, depths.
        let nr = level_offsets[1];
        let stride = hmax as usize;
        let mut rm_pos = vec![NONE; n];
        let mut rm_depth = vec![0u8; nr];
        let mut rm_anc = vec![NONE; nr * stride];
        let mut rm_of_server = vec![NONE; max_server.map_or(0, |m| m as usize + 1)];
        for (pos, &rm) in order[..nr].iter().enumerate() {
            rm_pos[rm.0] = pos as u32;
            let mut depth = 1u8;
            let mut cur = parents[rm.0];
            while cur != NONE {
                rm_anc[pos * stride + (depth as usize - 1)] = cur;
                depth += 1;
                cur = parents[cur as usize];
            }
            rm_depth[pos] = depth;
            if let Some(s) = servers[rm.0] {
                rm_of_server[s.0 as usize] = rm.0 as u32;
            }
        }

        // Group RM positions into per-level ancestor runs (see the
        // `anc_runs` field docs). Worst case — no two neighbours share a
        // parent — degenerates to one run per RM, i.e. the plain gather.
        let mut anc_runs: Vec<(u32, u32, u32)> = Vec::new();
        let mut anc_run_offsets = vec![0u32; stride + 1];
        for h in 1..=stride {
            let key_at = |pos: usize| {
                if h < rm_depth[pos] as usize {
                    rm_anc[pos * stride + (h - 1)]
                } else {
                    NONE
                }
            };
            let mut pos = 0;
            while pos < nr {
                let key = key_at(pos);
                let start = pos;
                pos += 1;
                while pos < nr && key_at(pos) == key {
                    pos += 1;
                }
                anc_runs.push((start as u32, pos as u32, key));
            }
            anc_run_offsets[h] = anc_runs.len() as u32;
        }

        // The root's parent is the flag columns' spare slot.
        for p in &mut parents {
            if *p == NONE {
                *p = n as u32;
            }
        }

        ControlTree {
            params,
            metric,
            levels,
            parent: parents,
            child_start,
            child_list,
            servers,
            down,
            up,
            down_scratch: DirScratch::with_len(n),
            up_scratch: DirScratch::with_len(n),
            rm_pos,
            rm_depth,
            rm_anc,
            anc_runs,
            anc_run_offsets,
            r_check_down: vec![0.0; (hmax as usize + 1) * nr],
            r_check_up: vec![0.0; (hmax as usize + 1) * nr],
            rm_of_server,
            refold,
            redescend,
            pos_moved,
            rm_moved,
            work: RoundWork::default(),
            root,
            order,
            level_offsets,
            hmax,
            round: 0,
            obs: scda_obs::Obs::disabled(),
        }
    }

    /// Attach an observability handle: every round traces begin/end,
    /// per-level rate propagation and each SLA violation, and feeds the
    /// `ctrl.*` metrics.
    pub fn set_obs(&mut self, obs: scda_obs::Obs) {
        self.obs = obs;
    }

    /// Build the canonical tree for the paper's figure-1/figure-6 topology:
    /// an RM per server, an RA per edge switch (level 1), per aggregation
    /// switch (level 2), and one root RA at the core (level 3) monitoring
    /// the client trunk.
    pub fn from_three_tier(tree: &ThreeTierTree, params: Params, metric: MetricKind) -> Self {
        let mut specs = Vec::new();
        // Root RA: down = gw→core (writes entering the cloud), up =
        // core→gw (reads leaving it).
        specs.push(NodeSpec {
            level: 3,
            parent: None,
            server: None,
            down_link: tree.trunk.0,
            up_link: tree.trunk.1,
        });
        let mut agg_spec = Vec::with_capacity(tree.aggs.len());
        for (a, &(agg_up, agg_down)) in tree.agg_links.iter().enumerate() {
            agg_spec.push(specs.len());
            let _ = a;
            specs.push(NodeSpec {
                level: 2,
                parent: Some(0),
                server: None,
                down_link: agg_down,
                up_link: agg_up,
            });
        }
        for (r, &(edge_up, edge_down)) in tree.edge_links.iter().enumerate() {
            let parent = agg_spec[tree.agg_of_rack[r]];
            let edge_idx = specs.len();
            specs.push(NodeSpec {
                level: 1,
                parent: Some(parent),
                server: None,
                down_link: edge_down,
                up_link: edge_up,
            });
            for (s, &(srv_up, srv_down)) in tree.server_links[r].iter().enumerate() {
                specs.push(NodeSpec {
                    level: 0,
                    parent: Some(edge_idx),
                    server: Some(tree.servers[r][s]),
                    down_link: srv_down,
                    up_link: srv_up,
                });
            }
        }
        let topo = &tree.topo;
        ControlTree::new(params, metric, &specs, |l| topo.link(l).capacity_bytes())
    }

    /// Highest RA level (`h_max`; 3 in the three-tier tree).
    #[inline]
    pub fn hmax(&self) -> u8 {
        self.hmax
    }

    /// Number of control nodes (RMs + RAs).
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Whether the tree is empty (never true for a built tree).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty()
    }

    /// Number of RMs (leaves).
    #[inline]
    fn n_rms(&self) -> usize {
        self.level_offsets[1]
    }

    /// The RMs in construction order (the level-0 prefix of the stable
    /// level sort).
    #[inline]
    fn rms(&self) -> &[CtrlId] {
        &self.order[..self.level_offsets[1]]
    }

    /// The RM responsible for `server`.
    fn rm_of(&self, server: NodeId) -> Option<CtrlId> {
        let idx = *self.rm_of_server.get(server.0 as usize)?;
        (idx != NONE).then_some(CtrlId(idx as usize))
    }

    /// The block server a control node monitors (None for RAs).
    pub fn server_of(&self, node: CtrlId) -> Option<NodeId> {
        self.servers.get(node.0).copied().flatten()
    }

    /// The binding max-min bottleneck for `server` in direction `dir`: the
    /// lowest tree level whose link caps the server's cumulative `Ř`
    /// (within a 1e-9 relative tolerance — `Ř` is non-increasing with
    /// level, so the first level that already equals the full-path rate is
    /// where the path allocation binds), plus that level's monitored link.
    /// `None` before the first control round or for unknown servers.
    pub fn bottleneck_of(&self, server: NodeId, dir: Direction) -> Option<(u8, LinkId)> {
        let rm = self.rm_of(server)?;
        if self.round == 0 {
            return None;
        }
        let pos = self.rm_pos[rm.0] as usize;
        let depth = self.rm_depth[pos] as usize;
        let nr = self.n_rms();
        let (r_check, links) = match dir {
            Direction::Down => (&self.r_check_down, &self.down.link),
            Direction::Up => (&self.r_check_up, &self.up.link),
        };
        let path_rate = r_check[(depth - 1) * nr + pos];
        let mut level = 0usize;
        for h in 0..depth {
            if r_check[h * nr + pos] <= path_rate * (1.0 + 1e-9) {
                level = h;
                break;
            }
        }
        // Entry h of the Ř vector is the h-th node on the RM→root chain.
        let node = if level == 0 {
            rm.0
        } else {
            self.rm_anc[pos * self.hmax as usize + (level - 1)] as usize
        };
        Some((level as u8, links[node]))
    }

    /// The params this tree runs with.
    #[inline]
    pub fn params(&self) -> &Params {
        &self.params
    }

    /// Number of completed control rounds — a monotone metrics epoch.
    /// Server metrics only move inside [`ControlTree::control_round`]
    /// (capacity reconfigurations change future rounds, not the current
    /// `Ř`/`R̂` vectors), so a consumer that mirrors `server_metrics_into`
    /// output — e.g. the admission placement index — is exactly as fresh
    /// as the epoch it last refreshed at.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.round
    }

    /// Run one control round at simulation time `now`, sampling links via
    /// `telemetry`. Returns detected SLA violations.
    pub fn control_round(&mut self, now: f64, telemetry: &mut impl Telemetry) -> Vec<SlaViolation> {
        let mut violations = Vec::new();
        self.control_round_into(now, telemetry, &mut violations);
        violations
    }

    /// [`ControlTree::control_round`] into a caller-owned buffer:
    /// `violations` is cleared, then filled with this round's SLA
    /// violations. A buffer kept across rounds keeps its capacity, so a
    /// round allocates only when it detects more violations than any
    /// round before it.
    ///
    /// Pass 0 runs over every node; passes 1 and 2 re-evaluate only what
    /// moved below or at each node. A node they skip has bit-identical
    /// inputs to last round's, and each pass is a pure function of its
    /// inputs, so the skipped values are the ones a full pass would
    /// write.
    pub fn control_round_into(
        &mut self,
        now: f64,
        telemetry: &mut impl Telemetry,
        violations: &mut Vec<SlaViolation>,
    ) {
        violations.clear();
        let round = self.round;
        self.round += 1;
        let observing = self.obs.is_enabled();
        #[expect(
            clippy::disallowed_methods,
            reason = "wall-clock profiling of the round; gated on obs and never read by allocator state"
        )]
        let t0 = observing.then(std::time::Instant::now);
        if observing {
            self.obs
                .emit(scda_obs::TraceEvent::CtrlRoundBegin { now, round });
        }
        let work_before = self.work;
        // The first round has no previous state to differ from: every
        // value counts as moved.
        let all: Moved = if round == 0 { Moved::MAX } else { 0 };
        self.sense(now, telemetry, violations, observing);
        self.fold_up(all, telemetry);
        self.descend(all);
        if let Some(t0) = t0 {
            self.observe_round(now, round, violations, work_before, t0.elapsed());
        }
    }

    /// Pass 0, three column sweeps over every node: (a) gather telemetry
    /// in the canonical order (ascending id, down before up — a stateful
    /// telemetry source sees the same call sequence as ever); (b) the
    /// vectorizable eq. 2/5 update over each direction's columns, which
    /// also marks how each node's `r_own` moved (plus the per-link
    /// utilization column on observed trees); (c) violation detection,
    /// re-reading the shared cap_term/load scratch so both agree with
    /// the update. The round-end metrics flush reads the same scratch
    /// columns.
    fn sense(
        &mut self,
        now: f64,
        telemetry: &mut impl Telemetry,
        violations: &mut Vec<SlaViolation>,
        observing: bool,
    ) {
        let n = self.levels.len();
        for id in 0..n {
            let sample = telemetry.sample(self.down.link[id]);
            self.down_scratch.set(id, &sample);
            let sample = telemetry.sample(self.up.link[id]);
            self.up_scratch.set(id, &sample);
        }
        self.down
            .update_all(&mut self.down_scratch, self.metric, &self.params, observing);
        self.up
            .update_all(&mut self.up_scratch, self.metric, &self.params, observing);
        for id in 0..n {
            for (dir, cols, scr) in [
                (Direction::Down, &self.down, &self.down_scratch),
                (Direction::Up, &self.up, &self.up_scratch),
            ] {
                if scr.load[id] > scr.cap_term[id] {
                    violations.push(SlaViolation {
                        time: now,
                        site: ViolationSite {
                            node: CtrlId(id),
                            level: self.levels[id],
                            link: cols.link[id],
                            direction: dir,
                        },
                        demand: scr.load[id],
                        capacity_term: scr.cap_term[id],
                    });
                }
            }
        }
    }

    /// Pass 1 (upward, figure 2 left), by difference. Every RM's
    /// `R̂⁰ = min(R⁰, R_other)` is re-read — its caps can move while its
    /// link does not — and is also level 0 of pass 2's `Ř`, so this loop
    /// seeds pass 2's masks too. An RA re-folds only when its own rate
    /// moved in pass 0 or a child's `R̂` moved below it; the stable
    /// level sort puts children first, so their flags are final by
    /// then. Moves are bitwise: a move by one ulp re-folds.
    fn fold_up(&mut self, all: Moved, telemetry: &mut impl Telemetry) {
        let nr = self.n_rms();
        for pos in 0..nr {
            let id = self.order[pos].0;
            let server =
                self.servers[id].expect("invariant: RMs (level 0) are constructed with a server");
            let caps = telemetry.rate_caps(server);
            let rd = self.down.r_own[id].min(caps.recv);
            let ru = self.up.r_own[id].min(caps.send);
            self.pos_moved[pos] = all
                | (rd.to_bits() ^ self.down.r_hat[id].to_bits())
                | (ru.to_bits() ^ self.up.r_hat[id].to_bits());
            self.down.r_hat[id] = rd;
            self.up.r_hat[id] = ru;
            self.r_check_down[pos] = rd;
            self.r_check_up[pos] = ru;
        }
        self.rm_moved.copy_from_slice(&self.pos_moved);
        // An RM's parent is its chain's level-1 ancestor: flag it once
        // per level-1 run that moved.
        self.refold.fill(false);
        self.redescend.fill(false);
        let level1 = self.anc_run_offsets.get(1).map_or(0, |&o| o as usize);
        for &(start, end, anc) in &self.anc_runs[..level1] {
            let moved = self.pos_moved[start as usize..end as usize]
                .iter()
                .fold(0, |acc, &m| acc | m);
            if anc != NONE && moved != 0 {
                self.refold[anc as usize] = true;
                self.redescend[anc as usize] = true;
            }
        }
        for i in nr..self.order.len() {
            let id = self.order[i].0;
            if self.refold[id] | ((all | self.down.moved[id] | self.up.moved[id]) != 0) {
                self.work.refolds += 1;
                let moved = self.fold_children(id);
                self.refold[self.parent[id] as usize] |= moved;
            }
        }
    }

    /// Fold one RA's children (already evaluated) into its own columns:
    /// `R̂ʰ = min(best child R̂, Rʰ)`. The strictly-greater comparison
    /// keeps the *first* best child in construction order, the one
    /// [`ControlTree::best_server_at`] walks to. Returns whether either
    /// direction's `R̂` moved bitwise.
    fn fold_children(&mut self, id: usize) -> bool {
        let kids =
            &self.child_list[self.child_start[id] as usize..self.child_start[id + 1] as usize];
        let (mut rd, mut ru) = (self.down.r_own[id], self.up.r_own[id]);
        if let Some((&first, rest)) = kids.split_first() {
            let (mut best_d, mut best_u) = (
                self.down.r_hat[first as usize],
                self.up.r_hat[first as usize],
            );
            for &c in rest {
                let (vd, vu) = (self.down.r_hat[c as usize], self.up.r_hat[c as usize]);
                if vd > best_d {
                    best_d = vd;
                }
                if vu > best_u {
                    best_u = vu;
                }
            }
            rd = best_d.min(rd);
            ru = best_u.min(ru);
        }
        let moved = (rd.to_bits() != self.down.r_hat[id].to_bits())
            | (ru.to_bits() != self.up.r_hat[id].to_bits());
        self.down.r_hat[id] = rd;
        self.up.r_hat[id] = ru;
        moved
    }

    /// Pass 2 (downward, figure 2 right), by difference: every RM's
    /// cumulative `Ř` per level, level-major — level `h` is computed from
    /// level `h − 1` and the `h`-th ancestor's own rate, one ancestor run
    /// at a time. A run whose ancestor's `r_own` moved is swept whole
    /// with slice-vs-scalar `min`s the compiler vectorizes; a run whose
    /// ancestor stood still re-evaluates only the positions whose
    /// level-`h − 1` `Ř` moved (`pos_moved`), and a run with neither is
    /// skipped. What moved is OR-ed into `rm_moved`, and a run that
    /// moved flags its ancestor's parent for the next level.
    fn descend(&mut self, all: Moved) {
        let nr = self.n_rms();
        for h in 1..=self.hmax as usize {
            let (done_d, rest_d) = self.r_check_down.split_at_mut(h * nr);
            let prev_d = &done_d[(h - 1) * nr..];
            let cur_d = &mut rest_d[..nr];
            let (done_u, rest_u) = self.r_check_up.split_at_mut(h * nr);
            let prev_u = &done_u[(h - 1) * nr..];
            let cur_u = &mut rest_u[..nr];
            let runs = &self.anc_runs
                [self.anc_run_offsets[h - 1] as usize..self.anc_run_offsets[h] as usize];
            for &(start, end, anc) in runs {
                let (s, e) = (start as usize, end as usize);
                let mut run = RunCols {
                    prev_d: &prev_d[s..e],
                    cur_d: &mut cur_d[s..e],
                    prev_u: &prev_u[s..e],
                    cur_u: &mut cur_u[s..e],
                    pos_moved: &mut self.pos_moved[s..e],
                    rm_moved: &mut self.rm_moved[s..e],
                };
                if anc == NONE {
                    // Chains ended below h: padding, guarded by rm_depth
                    // everywhere it could be read, copied through. The
                    // level above copies again, so it needs no frontier.
                    self.work.redescents += (e - s) as u64;
                    run.sweep(false, |x| x, |x| x);
                    continue;
                }
                let a = anc as usize;
                let (own_d, own_u) = (self.down.r_own[a], self.up.r_own[a]);
                let moved = if (all | self.down.moved[a] | self.up.moved[a]) != 0 {
                    self.work.redescents += (e - s) as u64;
                    // The next level reads this one's masks only if its
                    // ancestor — this one's parent — stood still.
                    let p = self.parent[a] as usize;
                    let frontier = h < self.hmax as usize
                        && p < self.levels.len()
                        && (all | self.down.moved[p] | self.up.moved[p]) == 0;
                    run.sweep(frontier, |x| x.min(own_d), |x| x.min(own_u))
                } else if self.redescend[a] {
                    let (moved, visited) = run.sweep_moved(own_d, own_u);
                    self.work.redescents += visited;
                    moved
                } else {
                    false
                };
                self.redescend[self.parent[a] as usize] |= moved;
            }
        }
    }

    /// Flush one observed round into the trace ring and metrics registry:
    /// per-level propagation summaries, per-violation events, the round
    /// envelope and the `ctrl.*` / `link.*` metrics (the latter read
    /// straight from the pass-0 scratch columns).
    fn observe_round(
        &self,
        now: f64,
        round: u64,
        violations: &[SlaViolation],
        work_before: RoundWork,
        elapsed: std::time::Duration,
    ) {
        use scda_obs::TraceEvent;
        let changed_dirs = self.changed_dirs() as u32;
        let duration_us = 1e6 * elapsed.as_secs_f64();
        let nr = self.n_rms();
        self.obs.with_core(|c| {
            for v in violations {
                c.tracer.push(TraceEvent::SlaViolationDetected {
                    now,
                    level: v.site.level,
                    link: v.site.link.0,
                    down: v.site.direction == Direction::Down,
                    demand: v.demand,
                    capacity_term: v.capacity_term,
                });
            }
            // The figure-2 propagation per level: the best R̂ reaching each
            // level of the upward fold and the worst cumulative Ř floor of
            // the downward pass.
            for h in 0..=self.hmax {
                let mut hat_down = f64::NEG_INFINITY;
                let mut hat_up = f64::NEG_INFINITY;
                let (lo, hi) = (
                    self.level_offsets[h as usize],
                    self.level_offsets[h as usize + 1],
                );
                for &id in &self.order[lo..hi] {
                    hat_down = hat_down.max(self.down.r_hat[id.0]);
                    hat_up = hat_up.max(self.up.r_hat[id.0]);
                }
                let mut check_down = f64::INFINITY;
                let mut check_up = f64::INFINITY;
                for pos in 0..nr {
                    if (h as usize) < self.rm_depth[pos] as usize {
                        check_down = check_down.min(self.r_check_down[h as usize * nr + pos]);
                        check_up = check_up.min(self.r_check_up[h as usize * nr + pos]);
                    }
                }
                c.tracer.push(TraceEvent::RatePropagation {
                    now,
                    round,
                    level: h,
                    r_hat_down_max: hat_down,
                    r_hat_up_max: hat_up,
                    r_check_down_min: check_down,
                    r_check_up_min: check_up,
                });
            }
            c.tracer.push(TraceEvent::CtrlRoundEnd {
                now,
                round,
                violations: violations.len() as u32,
                changed_dirs,
                duration_us,
            });
            c.metrics.counter_add(scda_obs::metric::CTRL_ROUNDS, 1);
            c.metrics
                .counter_add(scda_obs::metric::CTRL_VIOLATIONS, violations.len() as u64);
            c.metrics
                .counter_add(scda_obs::metric::CTRL_CHANGED_DIRS, changed_dirs as u64);
            c.metrics.counter_add(
                scda_obs::metric::CTRL_REFOLDS,
                self.work.refolds - work_before.refolds,
            );
            c.metrics.counter_add(
                scda_obs::metric::CTRL_REDESCENTS,
                self.work.redescents - work_before.redescents,
            );
            c.metrics
                .observe(scda_obs::metric::CTRL_ROUND_DURATION_US, duration_us);
            for id in 0..self.levels.len() {
                for scr in [&self.down_scratch, &self.up_scratch] {
                    c.metrics
                        .observe(scda_obs::metric::LINK_QUEUE_BYTES, scr.queue[id]);
                    c.metrics
                        .observe(scda_obs::metric::LINK_UTILIZATION, scr.util[id]);
                }
            }
        });
    }

    /// The best block server *under a specific RA* — §VI: "If the NNS
    /// wants to select a server at a specific rack, it asks the RA at
    /// level 1 of the corresponding rack for the best server in that
    /// rack." Returned with the RA's `R̂`. The server is found on demand
    /// by re-walking the fold's choice: from `ra`, step to the first
    /// child with the strictly greatest `R̂` until an RM — the server
    /// the fold would have carried up. `None` for an RA with no RM
    /// beneath it, and for any RA before the first round.
    pub fn best_server_at(&self, ra: CtrlId, dir: Direction) -> Option<(NodeId, f64)> {
        let r_hat = match dir {
            Direction::Down => &self.down.r_hat,
            Direction::Up => &self.up.r_hat,
        };
        let mut node = ra.0;
        loop {
            if let Some(server) = self.servers[node] {
                return Some((server, r_hat[ra.0]));
            }
            if self.round == 0 {
                return None;
            }
            let mut best: Option<(f64, u32)> = None;
            for &c in &self.child_list
                [self.child_start[node] as usize..self.child_start[node + 1] as usize]
            {
                let v = r_hat[c as usize];
                if best.is_none_or(|(b, _)| v > b) {
                    best = Some((v, c));
                }
            }
            node = best?.1 as usize;
        }
    }

    /// Number of `(node, direction)` allocations that moved by more than
    /// [`DELTA_REL_EPS`] (relative) in the last round — the paper's
    /// Δ-reporting optimization sends updates only for these ("it can
    /// send the difference ... if there is a change in the rate
    /// values"). Counted over the nodes pass 0 marked as moved.
    pub fn changed_dirs(&self) -> usize {
        self.down.delta_reports() + self.up.delta_reports()
    }

    /// The per-RM-position [`Moved`] masks of the last round: nonzero
    /// where it moved the RM's `R̂` or any of its `Ř`, i.e. where
    /// [`ControlTree::metrics_at`] may differ from the round before. A
    /// mirror that absorbs these after every round stays bit-identical
    /// to a full [`ControlTree::server_metrics_into`] read-out.
    pub(crate) fn moved_rms(&self) -> &[Moved] {
        &self.rm_moved
    }

    /// The root RA (the level-`h_max` node the NNS asks for global write
    /// placement).
    pub fn root(&self) -> CtrlId {
        self.root
    }

    /// How the tree groups its servers, for a
    /// [`crate::PlacementIndex`] over [`ControlTree::server_metrics_into`]'s
    /// order: per chain level `h ≥ 1` the maximal runs of consecutive RMs
    /// sharing their level-`h` ancestor (racks, then aggregations, then
    /// the root on the three-tier tree). An RM whose chain ends below
    /// `h` is a group of its own there.
    pub fn index_shape(&self) -> IndexShape {
        let n = self.n_rms() as u32;
        let levels = (1..=self.hmax as usize)
            .map(|h| {
                let runs = &self.anc_runs
                    [self.anc_run_offsets[h - 1] as usize..self.anc_run_offsets[h] as usize];
                let mut bounds = Vec::with_capacity(runs.len() + 1);
                for &(start, end, anc) in runs {
                    if anc == NONE {
                        bounds.extend(start..end);
                    } else {
                        bounds.push(start);
                    }
                }
                bounds.push(n);
                (h as u8, bounds)
            })
            .collect();
        IndexShape::new(n as usize, levels)
    }

    /// Per-server metrics for filtered selection (replica placement with
    /// exclusions, dormancy filters, power-aware ranking), RMs in
    /// construction order — deterministic. Allocation-free: clears and
    /// refills `out`, so hot per-arrival selection paths reuse one
    /// buffer.
    pub fn server_metrics_into(&self, out: &mut Vec<ServerMetrics>) {
        out.clear();
        let nr = self.n_rms();
        out.reserve(nr);
        for (pos, &rm) in self.rms().iter().enumerate() {
            out.push(self.metrics_of(pos, rm.0, nr));
        }
    }

    /// The metrics of the RM at position `pos` (construction order, the
    /// order of [`ControlTree::server_metrics_into`] and of the placement
    /// index's leaves).
    ///
    /// # Panics
    ///
    /// Panics if `pos` is not below the number of RMs.
    pub fn metrics_at(&self, pos: usize) -> ServerMetrics {
        self.metrics_of(pos, self.rms()[pos].0, self.n_rms())
    }

    /// [`ControlTree::metrics_at`] for the RM `id` at position `pos` of
    /// `nr`.
    #[inline(always)]
    fn metrics_of(&self, pos: usize, id: usize, nr: usize) -> ServerMetrics {
        let r0_down = self.down.r_hat[id];
        let r0_up = self.up.r_hat[id];
        // Before the first round the Ř columns are unfilled — every
        // level falls back to R̂⁰, like the old empty per-RM vectors.
        let depth = if self.round > 0 {
            self.rm_depth[pos] as usize
        } else {
            0
        };
        let mut down_levels = [r0_down; MAX_LEVELS];
        let mut up_levels = [r0_up; MAX_LEVELS];
        let mut last_d = r0_down;
        let mut last_u = r0_up;
        for (h, (slot_d, slot_u)) in down_levels.iter_mut().zip(&mut up_levels).enumerate() {
            if h < depth {
                last_d = self.r_check_down[h * nr + pos];
                last_u = self.r_check_up[h * nr + pos];
            }
            *slot_d = last_d;
            *slot_u = last_u;
        }
        let (path_down, path_up) = if depth > 0 {
            (
                self.r_check_down[(depth - 1) * nr + pos],
                self.r_check_up[(depth - 1) * nr + pos],
            )
        } else {
            (r0_down, r0_up)
        };
        ServerMetrics {
            server: self.servers[id]
                .expect("invariant: RMs (level 0) are constructed with a server"),
            r0_down,
            r0_up,
            path_down,
            path_up,
            down_levels,
            up_levels,
            n_levels: (self.hmax + 1).min(MAX_LEVELS as u8),
        }
    }

    /// The cumulative bottleneck rate from `server` up to tree level
    /// `level` (§VIII-D prices on-going flows with this). Level 0 is the
    /// server's own link.
    pub fn rate_to_level(&self, server: NodeId, level: u8, dir: Direction) -> Option<f64> {
        let rm = self.rm_of(server)?;
        if self.round == 0 {
            return None;
        }
        let pos = self.rm_pos[rm.0] as usize;
        if level as usize >= self.rm_depth[pos] as usize {
            return None;
        }
        let nr = self.n_rms();
        Some(match dir {
            Direction::Down => self.r_check_down[level as usize * nr + pos],
            Direction::Up => self.r_check_up[level as usize * nr + pos],
        })
    }

    /// A level-0 RM's ancestor chain (node indices, nearest first).
    fn ancestors_of(&self, rm: CtrlId) -> &[u32] {
        let pos = self.rm_pos[rm.0] as usize;
        let stride = self.hmax as usize;
        let n_anc = self.rm_depth[pos] as usize - 1;
        &self.rm_anc[pos * stride..pos * stride + n_anc]
    }

    /// The lowest tree level at which two servers share an ancestor RA
    /// (§VIII-D: "the lowest level parent both the sender and receiver
    /// share"). Returns `h_max` for servers under different top-level
    /// branches, 1 for same-rack pairs, 0 (no network) for `a == b`.
    fn shared_level(&self, a: NodeId, b: NodeId) -> Option<u8> {
        if a == b {
            return Some(0);
        }
        let (ra, rb) = (self.rm_of(a)?, self.rm_of(b)?);
        let anc_a = self.ancestors_of(ra);
        for &p in self.ancestors_of(rb) {
            if anc_a.contains(&p) {
                return Some(self.levels[p as usize]);
            }
        }
        None
    }

    /// The rate a replication/transfer flow between two in-cloud servers
    /// should use: `min(sender's Ř_u, receiver's Ř_d)` up to their shared
    /// level (§VIII-D).
    pub fn transfer_rate(&self, sender: NodeId, receiver: NodeId) -> Option<f64> {
        let h = self.shared_level(sender, receiver)?;
        let up = self.rate_to_level(sender, h, Direction::Up)?;
        let down = self.rate_to_level(receiver, h, Direction::Down)?;
        Some(up.min(down))
    }

    /// The allocated rate for a client-facing flow at `server`:
    /// the full-path `Ř^{h_max}` in the given direction.
    pub fn client_rate(&self, server: NodeId, dir: Direction) -> Option<f64> {
        self.rate_to_level(server, self.hmax, dir)
    }

    /// Export the full per-node state for off-line diagnosis (§I: metrics
    /// "offloaded to an external server ... for data mining").
    pub fn snapshot(&self, now: f64) -> crate::diagnostics::TreeSnapshot {
        use crate::diagnostics::{DirSnapshot, NodeSnapshot, TreeSnapshot};
        let dir_snap = |cols: &DirColumns, i: usize, dir: Direction| DirSnapshot {
            link: cols.link[i],
            capacity: cols.cap[i],
            rate: cols.r_alloc[i],
            r_hat: cols.r_hat[i],
            best_bs: self.best_server_at(CtrlId(i), dir).map(|(s, _)| s),
        };
        TreeSnapshot {
            time: now,
            nodes: (0..self.levels.len())
                .map(|i| NodeSnapshot {
                    level: self.levels[i],
                    server: self.servers[i],
                    down: dir_snap(&self.down, i, Direction::Down),
                    up: dir_snap(&self.up, i, Direction::Up),
                })
                .collect(),
        }
    }

    /// Reconfigure the capacity (bytes/s) of a monitored link — the data
    /// plane applied reserve bandwidth and the allocator must agree.
    /// Returns `false` if no control node monitors `link`.
    pub fn set_link_capacity(&mut self, link: LinkId, capacity_bytes_per_s: f64) -> bool {
        for i in 0..self.levels.len() {
            if self.down.link[i] == link {
                assert!(capacity_bytes_per_s > 0.0, "capacity must stay positive");
                self.down.cap[i] = capacity_bytes_per_s;
                return true;
            }
            if self.up.link[i] == link {
                assert!(capacity_bytes_per_s > 0.0, "capacity must stay positive");
                self.up.cap[i] = capacity_bytes_per_s;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ContentClass, NoDiscount, NodeSet, PlaceQuery, PlacementIndex, SelectorConfig};
    use proptest::prelude::*;
    use scda_simnet::builders::ThreeTierConfig;
    use scda_simnet::units::mbps;

    /// Telemetry where every link is idle.
    struct Idle;
    impl Telemetry for Idle {
        fn sample(&mut self, _l: LinkId) -> LinkSample {
            LinkSample::default()
        }
        fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
            RateCaps::default()
        }
    }

    fn small_tree() -> (ThreeTierTree, ControlTree) {
        let cfg = ThreeTierConfig {
            racks: 4,
            servers_per_rack: 3,
            racks_per_agg: 2,
            clients: 2,
            ..Default::default()
        };
        let tree = cfg.build();
        let ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);
        (tree, ct)
    }

    /// `server_metrics` into a fresh buffer (test convenience).
    fn metrics_of(ct: &ControlTree) -> Vec<ServerMetrics> {
        let mut out = Vec::new();
        ct.server_metrics_into(&mut out);
        out
    }

    #[test]
    fn construction_counts_nodes() {
        let (tree, ct) = small_tree();
        // 1 root + 2 aggs + 4 edges + 12 RMs
        assert_eq!(ct.len(), 1 + 2 + 4 + 12);
        assert_eq!(ct.hmax(), 3);
        for s in tree.all_servers() {
            assert!(ct.rm_of(s).is_some());
        }
    }

    #[test]
    fn idle_round_offers_alpha_capacity_everywhere() {
        let (tree, mut ct) = small_tree();
        let v = ct.control_round(0.0, &mut Idle);
        assert!(v.is_empty(), "idle cloud has no SLA violations");
        let m = metrics_of(&ct);
        assert_eq!(m.len(), 12);
        let x = mbps(500.0) / 8.0;
        for sm in &m {
            // Own-link rates: α·X.
            assert!(
                (sm.r0_down - 0.95 * x).abs() < 1.0,
                "r0_down {}",
                sm.r0_down
            );
            assert!((sm.r0_up - 0.95 * x).abs() < 1.0);
            // Whole path is bottlenecked by the X links too (trunk is 6X,
            // agg links 3X).
            assert!((sm.path_down - 0.95 * x).abs() < 1.0);
        }
        let _ = tree;
    }

    #[test]
    fn best_server_tracks_loaded_links() {
        let (tree, mut ct) = small_tree();
        // Load every *server* downlink except rack 2 / server 1 (switch
        // links stay idle so only the leaf links differentiate servers).
        let favored = tree.servers[2][1];
        struct Loaded {
            favored_down: LinkId,
            server_downs: Vec<LinkId>,
        }
        impl Telemetry for Loaded {
            fn sample(&mut self, l: LinkId) -> LinkSample {
                if l != self.favored_down && self.server_downs.contains(&l) {
                    // Heavy load: S = 10x the allocator's advertisement
                    // decays R.
                    LinkSample {
                        flow_rate_sum: 1e9,
                        ..Default::default()
                    }
                } else {
                    LinkSample::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let favored_down = tree.server_links[2][1].1;
        let server_downs: Vec<LinkId> = tree
            .server_links
            .iter()
            .flatten()
            .map(|&(_, down)| down)
            .collect();
        let mut tel = Loaded {
            favored_down,
            server_downs,
        };
        for _ in 0..5 {
            ct.control_round(0.0, &mut tel);
        }
        let (bs, rate) = ct.best_server_at(ct.root(), Direction::Down).unwrap();
        assert_eq!(bs, favored, "the only unloaded downlink must win");
        assert!(rate > 0.0);
    }

    #[test]
    fn r_other_caps_rm_rates() {
        let (tree, mut ct) = small_tree();
        struct SlowDisk {
            slow: NodeId,
        }
        impl Telemetry for SlowDisk {
            fn sample(&mut self, _l: LinkId) -> LinkSample {
                LinkSample::default()
            }
            fn rate_caps(&mut self, s: NodeId) -> RateCaps {
                if s == self.slow {
                    RateCaps {
                        send: 1000.0,
                        recv: 500.0,
                    }
                } else {
                    RateCaps::default()
                }
            }
        }
        let slow = tree.servers[0][0];
        ct.control_round(0.0, &mut SlowDisk { slow });
        let m = metrics_of(&ct)
            .into_iter()
            .find(|sm| sm.server == slow)
            .unwrap();
        assert_eq!(m.r0_up, 1000.0);
        assert_eq!(m.r0_down, 500.0);
        // And the best global server is NOT the disk-limited one.
        let (bs, _) = ct.best_server_at(ct.root(), Direction::Down).unwrap();
        assert_ne!(bs, slow);
    }

    #[test]
    fn interactive_best_uses_min_of_directions() {
        let (tree, mut ct) = small_tree();
        // Server A: the best downlink (every other server's is loaded),
        // and a terrible uplink.
        struct Skewed {
            a_up: LinkId,
            other_downs: Vec<LinkId>,
        }
        impl Telemetry for Skewed {
            fn sample(&mut self, l: LinkId) -> LinkSample {
                let flow_rate_sum = if l == self.a_up {
                    1e10
                } else if self.other_downs.contains(&l) {
                    1e9
                } else {
                    0.0
                };
                LinkSample {
                    flow_rate_sum,
                    ..Default::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let a = tree.servers[0][0];
        let (a_up, a_down) = tree.server_links[0][0];
        let other_downs = tree.server_links.iter().flatten();
        let other_downs = other_downs.map(|&(_, d)| d).filter(|&d| d != a_down);
        let mut tel = Skewed {
            a_up,
            other_downs: other_downs.collect(),
        };
        for _ in 0..5 {
            ct.control_round(0.0, &mut tel);
        }
        // §VII-A ranks interactive content on min(R_d, R_u): the
        // placement index's `Rank::MinBoth`, over the tree's own shape.
        let mut index = PlacementIndex::with_shape(ct.index_shape());
        index.refresh(&metrics_of(&ct));
        let cfg = SelectorConfig {
            r_scale: f64::INFINITY,
            power_aware: false,
        };
        let q = PlaceQuery {
            energy: None,
            cfg: &cfg,
            discount: &NoDiscount,
        };
        let none = NodeSet::new();
        let write = index.write_target(ContentClass::SemiInteractiveWrite, &none, &q);
        assert_eq!(write.map(|(s, _)| s), Some(a), "A has the best downlink");
        let (bs, _) = index
            .write_target(ContentClass::Interactive, &none, &q)
            .expect("servers exist");
        assert_ne!(bs, a, "interactive selection must avoid the skewed server");
    }

    #[test]
    fn shared_level_structure() {
        let (tree, ct) = small_tree();
        let same_rack = ct.shared_level(tree.servers[0][0], tree.servers[0][1]);
        assert_eq!(same_rack, Some(1));
        // racks 0,1 share agg 0 (racks_per_agg = 2).
        let same_agg = ct.shared_level(tree.servers[0][0], tree.servers[1][0]);
        assert_eq!(same_agg, Some(2));
        let cross_agg = ct.shared_level(tree.servers[0][0], tree.servers[3][0]);
        assert_eq!(cross_agg, Some(3));
        assert_eq!(
            ct.shared_level(tree.servers[0][0], tree.servers[0][0]),
            Some(0)
        );
    }

    #[test]
    fn transfer_rate_bottlenecked_at_shared_level() {
        let (tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        let r = ct
            .transfer_rate(tree.servers[0][0], tree.servers[0][1])
            .unwrap();
        let x = mbps(500.0) / 8.0;
        assert!(
            (r - 0.95 * x).abs() < 1.0,
            "same-rack transfer sees only X links"
        );
    }

    #[test]
    fn rate_to_level_is_monotone_decreasing() {
        let (tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        let s = tree.servers[1][2];
        let mut prev = f64::INFINITY;
        for h in 0..=3 {
            let r = ct.rate_to_level(s, h, Direction::Up).unwrap();
            assert!(r <= prev + 1e-9, "Ř must shrink (or hold) with level");
            prev = r;
        }
    }

    #[test]
    fn sla_violation_detected_on_overload() {
        let (_tree, mut ct) = small_tree();
        struct Overloaded;
        impl Telemetry for Overloaded {
            fn sample(&mut self, _l: LinkId) -> LinkSample {
                // Demand far above any link's capacity term.
                LinkSample {
                    flow_rate_sum: 1e12,
                    ..Default::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let v = ct.control_round(1.5, &mut Overloaded);
        assert!(!v.is_empty());
        assert_eq!(v[0].time, 1.5);
        assert!(v[0].demand > v[0].capacity_term);
    }

    #[test]
    fn level_cache_matches_rate_to_level() {
        let (tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        for m in metrics_of(&ct) {
            assert_eq!(m.n_levels, 4);
            for h in 0..=ct.hmax() {
                let down = ct.rate_to_level(m.server, h, Direction::Down).unwrap();
                let up = ct.rate_to_level(m.server, h, Direction::Up).unwrap();
                assert_eq!(m.down_levels[h as usize], down, "down level {h}");
                assert_eq!(m.up_levels[h as usize], up, "up level {h}");
            }
            // Padding repeats the deepest value.
            for h in (ct.hmax() as usize + 1)..MAX_LEVELS {
                assert_eq!(m.down_levels[h], m.down_levels[ct.hmax() as usize]);
            }
        }
        let _ = tree;
    }

    #[test]
    fn server_metrics_into_reuses_the_buffer() {
        let (_tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        let mut buf = Vec::new();
        ct.server_metrics_into(&mut buf);
        let first = buf.len();
        let cap = buf.capacity();
        ct.server_metrics_into(&mut buf);
        assert_eq!(buf.len(), first, "refill, not append");
        assert_eq!(buf.capacity(), cap, "no reallocation on refill");
    }

    #[test]
    fn rack_local_selection_stays_in_rack() {
        // §VI: the NNS can ask a level-1 RA for the best server *in that
        // rack*.
        let (tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        let level = |h: usize| &ct.order[ct.level_offsets[h]..ct.level_offsets[h + 1]];
        let racks = level(1);
        assert_eq!(racks.len(), 4, "one level-1 RA per rack");
        for (r, &ra) in racks.iter().enumerate() {
            let (bs, rate) = ct
                .best_server_at(ra, Direction::Down)
                .expect("rack has servers");
            assert!(tree.servers[r].contains(&bs), "rack {r} returned {bs}");
            assert!(rate > 0.0);
        }
        assert_eq!(level(2).len(), 2);
        assert_eq!(level(3).len(), 1);
    }

    #[test]
    fn bottleneck_of_walks_the_binding_level() {
        let (tree, mut ct) = small_tree();
        assert!(
            ct.bottleneck_of(tree.servers[0][0], Direction::Down)
                .is_none(),
            "no bottleneck before the first round"
        );
        ct.control_round(0.0, &mut Idle);
        // Idle tree: every path is bottlenecked by the server's own X link.
        let (level, link) = ct
            .bottleneck_of(tree.servers[0][0], Direction::Down)
            .unwrap();
        assert_eq!(level, 0);
        assert_eq!(link, tree.server_links[0][0].1);

        // Load rack 0's edge downlink hard: the binding level moves up.
        struct EdgeLoaded {
            edge_down: LinkId,
        }
        impl Telemetry for EdgeLoaded {
            fn sample(&mut self, l: LinkId) -> LinkSample {
                if l == self.edge_down {
                    LinkSample {
                        flow_rate_sum: 1e10,
                        ..Default::default()
                    }
                } else {
                    LinkSample::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let edge_down = tree.edge_links[0].1;
        let mut tel = EdgeLoaded { edge_down };
        for _ in 0..8 {
            ct.control_round(0.0, &mut tel);
        }
        let (level, link) = ct
            .bottleneck_of(tree.servers[0][0], Direction::Down)
            .unwrap();
        assert_eq!(level, 1, "the loaded edge link becomes the bottleneck");
        assert_eq!(link, edge_down);
        // Other racks keep their server-link bottleneck.
        let (level, _) = ct
            .bottleneck_of(tree.servers[3][0], Direction::Down)
            .unwrap();
        assert_eq!(level, 0);
    }

    #[test]
    fn server_of_resolves_rms_only() {
        let (tree, ct) = small_tree();
        let rm = ct.rm_of(tree.servers[1][1]).unwrap();
        assert_eq!(ct.server_of(rm), Some(tree.servers[1][1]));
        assert_eq!(ct.server_of(CtrlId(0)), None, "the root RA has no server");
    }

    #[test]
    fn changed_nodes_reflects_load_shifts() {
        let (_tree, mut ct) = small_tree();
        ct.control_round(0.0, &mut Idle);
        ct.control_round(0.0, &mut Idle);
        assert_eq!(ct.changed_dirs(), 0, "steady idle state: no deltas");
        struct Slam;
        impl Telemetry for Slam {
            fn sample(&mut self, _l: LinkId) -> LinkSample {
                LinkSample {
                    flow_rate_sum: 1e10,
                    ..Default::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        ct.control_round(0.0, &mut Slam);
        assert!(ct.changed_dirs() > 0, "a load slam must move allocations");
    }

    #[test]
    fn observed_round_traces_propagation_and_violations() {
        let (_tree, mut ct) = small_tree();
        let obs = scda_obs::Obs::enabled();
        ct.set_obs(obs.clone());
        ct.control_round(0.0, &mut Idle);
        struct Overloaded;
        impl Telemetry for Overloaded {
            fn sample(&mut self, _l: LinkId) -> LinkSample {
                LinkSample {
                    flow_rate_sum: 1e12,
                    ..Default::default()
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let v = ct.control_round(0.05, &mut Overloaded);
        assert!(!v.is_empty());

        let m = obs.metrics_snapshot().unwrap();
        assert_eq!(m.counter("ctrl.rounds"), 2);
        assert_eq!(m.counter("ctrl.violations"), v.len() as u64);
        assert_eq!(m.histogram("ctrl.round_duration_us").unwrap().count(), 2);
        // 19 nodes x 2 directions x 2 rounds of link samples.
        assert_eq!(m.histogram("link.utilization").unwrap().count(), 2 * 2 * 19);

        let jsonl = obs.trace_jsonl().unwrap();
        assert!(jsonl.contains("\"event\":\"ctrl_round_begin\""));
        assert!(jsonl.contains("\"event\":\"ctrl_round_end\""));
        assert!(jsonl.contains("\"event\":\"sla_violation\""));
        // One rate_propagation line per level per round.
        let props = jsonl.matches("\"event\":\"rate_propagation\"").count();
        assert_eq!(props, 2 * (ct.hmax() as usize + 1));
    }

    #[test]
    fn unobserved_round_is_unchanged_by_instrumented_twin() {
        // The observed and plain trees must compute identical allocations,
        // bit for bit: on the small idle tree, and on a wide one (100
        // racks × 2) whose skewed telemetry gives the upward fold ties
        // and near-ties to break first-wins.
        fn check(tree: &ThreeTierTree, tel: &mut impl Telemetry) {
            let mut plain = ControlTree::from_three_tier(tree, Params::default(), MetricKind::Full);
            let mut observed =
                ControlTree::from_three_tier(tree, Params::default(), MetricKind::Full);
            observed.set_obs(scda_obs::Obs::enabled());
            for i in 0..6 {
                let now = i as f64 * 0.05;
                let vp = plain.control_round(now, tel);
                let vo = observed.control_round(now, tel);
                assert_eq!(vp.len(), vo.len(), "round {i}: violation counts");
            }
            let (a, b) = (metrics_of(&plain), metrics_of(&observed));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.server, y.server);
                assert_eq!(x.r0_down.to_bits(), y.r0_down.to_bits());
                assert_eq!(x.r0_up.to_bits(), y.r0_up.to_bits());
                assert_eq!(x.path_down.to_bits(), y.path_down.to_bits());
                assert_eq!(x.path_up.to_bits(), y.path_up.to_bits());
                for h in 0..MAX_LEVELS {
                    assert_eq!(x.down_levels[h].to_bits(), y.down_levels[h].to_bits());
                    assert_eq!(x.up_levels[h].to_bits(), y.up_levels[h].to_bits());
                }
            }
            assert_eq!(
                plain.best_server_at(plain.root(), Direction::Down),
                observed.best_server_at(observed.root(), Direction::Down)
            );
        }
        struct Mixed;
        impl Telemetry for Mixed {
            fn sample(&mut self, l: LinkId) -> LinkSample {
                LinkSample {
                    queue_bytes: (l.0 % 11) as f64 * 2e4,
                    flow_rate_sum: (l.0 % 17) as f64 * 2e6,
                    arrival_rate: (l.0 % 17) as f64 * 2e6,
                }
            }
            fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
                RateCaps::default()
            }
        }
        let (small, _) = small_tree();
        check(&small, &mut Idle);
        let wide = ThreeTierConfig {
            racks: 100,
            servers_per_rack: 2,
            racks_per_agg: 10,
            clients: 4,
            ..Default::default()
        };
        check(&wide.build(), &mut Mixed);
    }

    #[test]
    fn index_shape_follows_racks_aggregations_and_root() {
        let (_tree, ct) = small_tree();
        assert_eq!(
            ct.index_shape(),
            IndexShape::new(
                12,
                vec![
                    (1, vec![0, 3, 6, 9, 12]),
                    (2, vec![0, 6, 12]),
                    (3, vec![0, 12]),
                ]
            )
        );
    }

    #[test]
    fn index_shape_isolates_servers_whose_chain_ends_early() {
        // Two servers under a rack RA, a third hanging off the root: at
        // level 2 the third has no ancestor and stands alone.
        let node = |level, parent, server: Option<u32>, link: u32| NodeSpec {
            level,
            parent,
            server: server.map(NodeId),
            down_link: LinkId(link),
            up_link: LinkId(link + 1),
        };
        let specs = [
            node(2, None, None, 0),
            node(1, Some(0), None, 2),
            node(0, Some(1), Some(0), 4),
            node(0, Some(1), Some(1), 6),
            node(0, Some(0), Some(2), 8),
        ];
        let ct = ControlTree::new(Params::default(), MetricKind::Full, &specs, |_| 1000.0);
        assert_eq!(
            ct.index_shape(),
            IndexShape::new(3, vec![(1, vec![0, 2, 3]), (2, vec![0, 2, 3])])
        );
    }

    /// A hand-built tree that exercises every irregular case of the
    /// passes: RMs of one rack that are not adjacent (two ancestor runs),
    /// an RM hanging off the root (its chain ends below `h_max`), an RM
    /// under a level-2 RA (a level gap), and RAs with no RM beneath.
    fn irregular_tree(metric: MetricKind) -> ControlTree {
        let node = |level, parent, server: Option<u32>, link: u32| NodeSpec {
            level,
            parent,
            server: server.map(NodeId),
            down_link: LinkId(link),
            up_link: LinkId(link + 1),
        };
        let specs = [
            node(3, None, None, 0),
            node(2, Some(0), None, 2),
            node(1, Some(1), None, 4),
            node(0, Some(2), Some(0), 6),
            node(1, Some(1), None, 8),
            node(0, Some(4), Some(1), 10),
            node(0, Some(2), Some(2), 12),
            node(0, Some(0), Some(3), 14),
            node(1, Some(0), None, 16),
            node(2, Some(0), None, 18),
            node(1, Some(9), None, 20),
            node(0, Some(1), Some(4), 22),
        ];
        ControlTree::new(Params::default(), metric, &specs, |l| {
            1.0e6 * f64::from(1 + l.0 % 5)
        })
    }

    /// Scripted telemetry: one sample per link id, caps per server id.
    struct Script {
        samples: Vec<LinkSample>,
        caps: Vec<RateCaps>,
    }

    impl Telemetry for Script {
        fn sample(&mut self, l: LinkId) -> LinkSample {
            self.samples[l.index()]
        }
        fn rate_caps(&mut self, s: NodeId) -> RateCaps {
            self.caps[s.index()]
        }
    }

    /// SplitMix64 step: the script's value stream.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    impl Script {
        /// Re-draw a share of the samples and caps from small lattices,
        /// so values both move and repeat bit for bit between rounds.
        fn churn(&mut self, seed: u64, share: u64) {
            const RATES: [f64; 5] = [0.0, 2.5e5, 1.0e6, 4.0e6, 1.6e7];
            const QUEUES: [f64; 4] = [0.0, 1.0e4, 2.0e5, 3.0e6];
            const CAPS: [f64; 4] = [f64::INFINITY, f64::INFINITY, 5.0e5, 3.0e6];
            let mut st = seed;
            for s in &mut self.samples {
                if mix(&mut st) % 100 < share {
                    s.queue_bytes = QUEUES[(mix(&mut st) % 4) as usize];
                    s.flow_rate_sum = RATES[(mix(&mut st) % 5) as usize];
                    s.arrival_rate = RATES[(mix(&mut st) % 5) as usize];
                }
            }
            for c in &mut self.caps {
                if mix(&mut st) % 100 < share / 2 {
                    c.send = CAPS[(mix(&mut st) % 4) as usize];
                    c.recv = CAPS[(mix(&mut st) % 4) as usize];
                }
            }
        }
    }

    /// The dense reference: today's passes 1–2 written out whole — every
    /// RA folded over every child with its best block server carried up,
    /// every RM position re-descended at every level — over the state
    /// pass 0 left. Returns the per-node `(down, up)` best servers.
    fn dense_passes(ct: &mut ControlTree, tel: &mut impl Telemetry) -> Vec<[Option<NodeId>; 2]> {
        let n = ct.len();
        let nr = ct.n_rms();
        let mut children = vec![Vec::new(); n];
        for (i, &p) in ct.parent.iter().enumerate() {
            if (p as usize) < n {
                children[p as usize].push(i);
            }
        }
        let mut best: Vec<[Option<NodeId>; 2]> = vec![[None, None]; n];
        for pos in 0..nr {
            let id = ct.order[pos].0;
            let server = ct.servers[id].unwrap();
            let caps = tel.rate_caps(server);
            ct.down.r_hat[id] = ct.down.r_own[id].min(caps.recv);
            ct.up.r_hat[id] = ct.up.r_own[id].min(caps.send);
            best[id] = [Some(server); 2];
        }
        for i in nr..ct.order.len() {
            let id = ct.order[i].0;
            for (d, cols) in [&mut ct.down, &mut ct.up].into_iter().enumerate() {
                let mut top: Option<(f64, NodeId)> = None;
                for &c in &children[id] {
                    if let Some(bs) = best[c][d] {
                        if top.is_none_or(|(v, _)| cols.r_hat[c] > v) {
                            top = Some((cols.r_hat[c], bs));
                        }
                    }
                }
                let own = cols.r_own[id];
                cols.r_hat[id] = top.map_or(own, |(v, _)| v.min(own));
                best[id][d] = top.map(|(_, bs)| bs);
            }
        }
        for pos in 0..nr {
            let rm = ct.order[pos].0;
            ct.r_check_down[pos] = ct.down.r_hat[rm];
            ct.r_check_up[pos] = ct.up.r_hat[rm];
        }
        for h in 1..=ct.hmax as usize {
            let runs = ct.anc_runs
                [ct.anc_run_offsets[h - 1] as usize..ct.anc_run_offsets[h] as usize]
                .to_vec();
            for (start, end, anc) in runs {
                for pos in start as usize..end as usize {
                    let (below, at) = ((h - 1) * nr + pos, h * nr + pos);
                    if anc == NONE {
                        ct.r_check_down[at] = ct.r_check_down[below];
                        ct.r_check_up[at] = ct.r_check_up[below];
                    } else {
                        ct.r_check_down[at] =
                            ct.r_check_down[below].min(ct.down.r_own[anc as usize]);
                        ct.r_check_up[at] = ct.r_check_up[below].min(ct.up.r_own[anc as usize]);
                    }
                }
            }
        }
        best
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn metric_bits(m: &ServerMetrics) -> Vec<u64> {
        let mut v = vec![
            u64::from(m.server.0),
            u64::from(m.n_levels),
            m.r0_down.to_bits(),
            m.r0_up.to_bits(),
            m.path_down.to_bits(),
            m.path_up.to_bits(),
        ];
        v.extend(
            m.down_levels
                .iter()
                .chain(&m.up_levels)
                .map(|x| x.to_bits()),
        );
        v
    }

    /// Drive `diff` (the tree as built) and a twin through the same
    /// scripted rounds; after every round the twin redoes passes 1–2
    /// densely, and every column, both `Ř` matrices, the violations,
    /// the Δ-report count, the argmax walk and a by-difference index
    /// must equal the dense side's in bits.
    fn check_twin(
        build: impl Fn() -> ControlTree,
        links: usize,
        servers: usize,
        rounds: &[(u64, u64, (usize, usize, f64))],
    ) {
        let (mut diff, mut dense) = (build(), build());
        let mut script = Script {
            samples: vec![LinkSample::default(); links],
            caps: vec![RateCaps::default(); servers],
        };
        let mut idx_diff = PlacementIndex::with_shape(diff.index_shape());
        let mut idx_dense = PlacementIndex::with_shape(dense.index_shape());
        let (mut v_diff, mut v_dense) = (Vec::new(), Vec::new());
        let mut metrics = Vec::new();
        for (k, &(seed, share, (resize, node, factor))) in rounds.iter().enumerate() {
            // share 0 is an idle stretch: the previous round's inputs.
            script.churn(seed, share);
            if resize == 0 {
                let node = node % diff.len();
                let link = diff.down.link[node];
                let cap = diff.down.cap[node] * factor;
                prop_assert!(diff.set_link_capacity(link, cap));
                prop_assert!(dense.set_link_capacity(link, cap));
            }
            let now = k as f64;
            diff.control_round_into(now, &mut script, &mut v_diff);
            let prev_own = [dense.down.r_own.clone(), dense.up.r_own.clone()];
            dense.round += 1;
            v_dense.clear();
            dense.sense(now, &mut script, &mut v_dense, false);
            let best = dense_passes(&mut dense, &mut script);

            for (a, b) in [(&diff.down, &dense.down), (&diff.up, &dense.up)] {
                prop_assert_eq!(&a.link, &b.link);
                prop_assert_eq!(bits(&a.cap), bits(&b.cap));
                prop_assert_eq!(bits(&a.r_alloc), bits(&b.r_alloc));
                prop_assert_eq!(bits(&a.r_own), bits(&b.r_own));
                prop_assert_eq!(bits(&a.r_hat), bits(&b.r_hat), "round {}", k);
                prop_assert_eq!(&a.moved, &b.moved);
            }
            prop_assert_eq!(
                bits(&diff.r_check_down),
                bits(&dense.r_check_down),
                "round {}",
                k
            );
            prop_assert_eq!(
                bits(&diff.r_check_up),
                bits(&dense.r_check_up),
                "round {}",
                k
            );
            prop_assert_eq!(format!("{v_diff:?}"), format!("{v_dense:?}"));
            let changed = |prev: &[f64], cur: &[f64]| {
                prev.iter()
                    .zip(cur)
                    .filter(|&(&p, &c)| (c - p).abs() > DELTA_REL_EPS * p.max(1.0))
                    .count()
            };
            prop_assert_eq!(
                diff.changed_dirs(),
                changed(&prev_own[0], &dense.down.r_own) + changed(&prev_own[1], &dense.up.r_own)
            );
            for (i, b) in best.iter().enumerate() {
                for (d, dir) in [Direction::Down, Direction::Up].into_iter().enumerate() {
                    prop_assert_eq!(diff.best_server_at(CtrlId(i), dir).map(|(s, _)| s), b[d]);
                }
            }
            idx_diff.refresh_moved(&diff);
            dense.server_metrics_into(&mut metrics);
            idx_dense.refresh(&metrics);
            prop_assert_eq!(
                idx_diff
                    .metrics()
                    .iter()
                    .map(metric_bits)
                    .collect::<Vec<_>>(),
                idx_dense
                    .metrics()
                    .iter()
                    .map(metric_bits)
                    .collect::<Vec<_>>()
            );
            prop_assert_eq!(idx_diff.span_bits(), idx_dense.span_bits());
        }
    }

    /// Rounds as `(seed, share of inputs re-drawn in %, (resize unless
    /// nonzero, node, capacity factor))`.
    fn round_plan() -> impl Strategy<Value = Vec<(u64, u64, (usize, usize, f64))>> {
        proptest::collection::vec(
            (
                0u64..u64::MAX,
                prop_oneof![Just(0u64), Just(2), Just(20), Just(100)],
                (0usize..7, 0usize..10_000, prop_oneof![Just(0.5), Just(2.0)]),
            ),
            1..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn difference_round_equals_dense_round(
            plan in round_plan(),
            simplified in 0u8..2,
        ) {
            let metric = if simplified == 1 { MetricKind::Simplified } else { MetricKind::Full };
            let (fig2, _) = small_tree();
            check_twin(
                || ControlTree::from_three_tier(&fig2, Params::default(), metric),
                fig2.topo.link_count(),
                fig2.topo.node_count(),
                &plan,
            );
            let quick = ThreeTierConfig {
                racks: 8,
                servers_per_rack: 5,
                racks_per_agg: 4,
                clients: 8,
                ..Default::default()
            }
            .build();
            check_twin(
                || ControlTree::from_three_tier(&quick, Params::default(), metric),
                quick.topo.link_count(),
                quick.topo.node_count(),
                &plan,
            );
            check_twin(|| irregular_tree(metric), 24, 5, &plan);
        }
    }

    #[test]
    #[should_panic(expected = "parents must precede")]
    fn bad_spec_order_rejected() {
        let specs = [
            NodeSpec {
                level: 0,
                parent: Some(1),
                server: Some(NodeId(0)),
                down_link: LinkId(0),
                up_link: LinkId(1),
            },
            NodeSpec {
                level: 1,
                parent: None,
                server: None,
                down_link: LinkId(2),
                up_link: LinkId(3),
            },
        ];
        ControlTree::new(Params::default(), MetricKind::Full, &specs, |_| 1000.0);
    }
}
