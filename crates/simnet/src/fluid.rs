//! The exact max-min water-filling solver.
//!
//! Computes the exact max-min fair allocation for a set of flows over
//! capacitated links, honoring optional per-flow rate caps (a flow
//! bottlenecked "elsewhere" — at its application, CPU or disk, the
//! `R_other` of the paper's §VI-A — is simply a capped flow).
//!
//! SCDA's *distributed* allocation (the RM/RA iteration of eqs. 2-4) is
//! supposed to converge to this allocation; the integration tests use this
//! solver as ground truth for that claim, and the §IX max/min route
//! policy (`scda-experiments`' `multipath`) uses it as its per-τ rate step.
//!
//! [`max_min_rates_into`] solves one whole problem per call with
//! call-local scratch: it splits the flows into link-connected components
//! and water-fills each component on its own (DESIGN.md §11).

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
/// The flows are split into link-connected components (union-find,
/// smaller root wins) and each component is water-filled with its
/// members in input order, so a flow's rate depends only on the flows it
/// shares links with, bit for bit.
pub fn max_min_rates_into(caps: &[f64], flows: &[FluidFlow], out: &mut Vec<f64>) {
    out.clear();
    // Empty-path flows are limited only by their cap; every routed flow
    // is overwritten by its component's waterfill below.
    out.extend(flows.iter().map(|f| {
        if f.path.is_empty() {
            f.cap.unwrap_or(UNCAPPED)
        } else {
            0.0
        }
    }));

    // Union the flows that share a link; each link remembers the first
    // flow seen on it.
    let mut parent: Vec<u32> = (0..flows.len() as u32).collect();
    let mut link_rep = vec![u32::MAX; caps.len()];
    for (i, f) in flows.iter().enumerate() {
        for &l in &f.path {
            match link_rep[l.index()] {
                u32::MAX => link_rep[l.index()] = i as u32,
                rep => union(&mut parent, i as u32, rep),
            }
        }
    }
    let root: Vec<u32> = (0..flows.len() as u32)
        .map(|i| find(&mut parent, i))
        .collect();
    // Routed flows grouped by component; the stable sort keeps each
    // component's members in input order.
    let mut members: Vec<u32> = (0..flows.len() as u32)
        .filter(|&i| !flows[i as usize].path.is_empty())
        .collect();
    members.sort_by_key(|&i| root[i as usize]);

    let mut fill = Waterfill {
        flows,
        rem: caps.to_vec(),
        count: vec![0; caps.len()],
        frozen: vec![false; flows.len()],
        links: Vec::new(),
    };
    for component in members.chunk_by(|&a, &b| root[a as usize] == root[b as usize]) {
        fill.component(component, out);
    }
}

/// Comparison slack for freeze decisions: a cap within `EPS` of the fair
/// share freezes as capped; a link within `EPS` of the minimum share is a
/// bottleneck.
const EPS: f64 = 1e-9;

/// Sentinel for "no external cap": behaves identically to `None` in every
/// freeze comparison (a finite fair share is never `>= INFINITY - EPS`).
const UNCAPPED: f64 = f64::INFINITY;

/// The scratch of one [`max_min_rates_into`] call: per-link residual
/// capacity and unfrozen-flow count, per-flow frozen flag, and the
/// current component's links.
struct Waterfill<'a> {
    flows: &'a [FluidFlow],
    rem: Vec<f64>,
    count: Vec<u32>,
    frozen: Vec<bool>,
    links: Vec<LinkId>,
}

impl Waterfill<'_> {
    /// Water-fill one link-connected component (`members`, flow indices
    /// in input order) into `out`: freeze rounds that first settle every
    /// capped flow at or below the fair share, and otherwise every flow
    /// crossing a link at the minimum share (DESIGN.md §11).
    fn component(&mut self, members: &[u32], out: &mut [f64]) {
        // Component link list + per-link unfrozen counts. Each link
        // belongs to exactly one component, so a zero count here means
        // a first visit.
        self.links.clear();
        for &f in members {
            for &l in &self.flows[f as usize].path {
                if self.count[l.index()] == 0 {
                    self.links.push(l);
                }
                self.count[l.index()] += 1;
            }
        }
        let mut remaining = members.len();
        while remaining > 0 {
            // Tightest per-flow fair share over this component's loaded
            // links (min is iteration-order independent).
            let mut s = f64::INFINITY;
            for l in &self.links {
                let li = l.index();
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
            for &f in members {
                let f = f as usize;
                if self.frozen[f] {
                    continue;
                }
                let cap = self.flows[f].cap.unwrap_or(UNCAPPED);
                if cap <= s + EPS {
                    let r = cap.max(0.0);
                    out[f] = r;
                    self.frozen[f] = true;
                    remaining -= 1;
                    froze_capped = true;
                    for l in &self.flows[f].path {
                        self.rem[l.index()] -= r;
                        self.count[l.index()] -= 1;
                    }
                }
            }
            if froze_capped {
                continue;
            }

            // Otherwise saturate the bottleneck links: freeze every flow
            // crossing a link whose fair share equals the minimum.
            let mut froze_any = false;
            for &f in members {
                let f = f as usize;
                if self.frozen[f] {
                    continue;
                }
                let path = &self.flows[f].path;
                let bottlenecked = path.iter().any(|&l| {
                    let li = l.index();
                    let c = self.count[li];
                    c > 0 && (self.rem[li].max(0.0) / c as f64) <= s + EPS
                });
                if bottlenecked {
                    out[f] = s;
                    self.frozen[f] = true;
                    remaining -= 1;
                    froze_any = true;
                    for l in path {
                        self.rem[l.index()] -= s;
                        self.count[l.index()] -= 1;
                    }
                }
            }
            debug_assert!(froze_any, "progress stall in water-filling");
            if !froze_any {
                // Defensive: freeze everything at the current share rather
                // than loop forever (pathological float input only).
                for &f in members {
                    let f = f as usize;
                    if !self.frozen[f] {
                        out[f] = s;
                        self.frozen[f] = true;
                        remaining -= 1;
                    }
                }
            }
        }
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

            /// Two link-disjoint problems solved apart give the same rate
            /// bits as the pair solved as one problem, B's links shifted
            /// past A's: a flow's rate depends only on its own component.
            /// Without a drawn B, B is a twin of A with capacities nudged
            /// by far less than `EPS`, so every fair share ties across
            /// the two halves.
            #[test]
            fn components_solve_independently(
                (caps_a, flows_a) in arb_case(),
                b in proptest::option::of(arb_case()),
            ) {
                let (caps_b, flows_b) = b.unwrap_or_else(|| {
                    (caps_a.iter().map(|c| c * (1.0 + 1e-12)).collect(), flows_a.clone())
                });
                let shift = caps_a.len() as u32;
                let caps: Vec<f64> = caps_a.iter().chain(&caps_b).copied().collect();
                let flows: Vec<FluidFlow> = flows_a
                    .iter()
                    .cloned()
                    .chain(flows_b.iter().map(|f| FluidFlow {
                        path: f.path.iter().map(|l| LinkId(l.0 + shift)).collect(),
                        cap: f.cap,
                    }))
                    .collect();
                let apart: Vec<f64> = solve(&caps_a, &flows_a)
                    .into_iter()
                    .chain(solve(&caps_b, &flows_b))
                    .collect();
                let joint = solve(&caps, &flows);
                prop_assert_eq!(apart.len(), joint.len());
                for (k, (a, j)) in apart.iter().zip(&joint).enumerate() {
                    prop_assert_eq!(a.to_bits(), j.to_bits(), "flow {}", k);
                }
            }
        }
    }
}
