//! The tick-driven fluid network.
//!
//! [`Network`] owns the topology, the routing cache, one [`LinkState`] per
//! directed link and the set of active flows. A transport layer drives it:
//! every tick it hands [`Network::advance_slots_into`] the instantaneous
//! offered rate of each flow, and gets back per-flow goodput, loss
//! fraction and the queueing-inflated RTT — everything a window-based
//! transport (TCP) or an explicit-rate transport (SCDA) needs to react.
//!
//! Flows live in a slot arena (DESIGN.md §10): ids resolve through a
//! [`FlowTable`] sized by the flows in flight, and the hot tick path
//! works on dense `u32` slots with all per-flow paths packed into one
//! CSR arena. Link capacities and queueing delays are cached in columns
//! so the per-tick flow loops never touch the topology or recompute a
//! division per flow-link visit, and each slot's queueing-inflated RTT
//! is cached too, so reading it never walks the path.
//!
//! This arena is the only flow table on the data path: the transport
//! layer's `FlowDriver` keeps its per-flow columns (progress, transport)
//! in the same slot space and walks [`Network::flow_slots`] for id
//! order. A driver's network therefore gets flows only through that
//! driver.
//!
//! The network layer deliberately knows nothing about windows, SLAs,
//! server selection or rate allocation; those live in `scda-transport`,
//! `scda-core` and whoever runs the max-min solver over the network's
//! flows.

use crate::ids::{FlowId, FlowTable, LinkId, NodeId};
use crate::link::LinkState;
use crate::routing::{PathId, Routes};
use crate::topology::Topology;
use crate::units::{Bytes, BytesPerSec, Seconds};

/// The endpoints of a flow that just left the arena (the by-value form
/// [`Network::remove_flow`] returns). Deliberately path-free: the link
/// sequence lives in the CSR arena, and copying it out for every
/// completion would put an allocation on the per-τ removal path — read
/// it via [`Network::flow`] *before* removing when it is needed.
#[derive(Debug, Clone, Copy)]
pub struct NetFlow {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Propagation-only round-trip time (no queueing) in seconds.
    pub base_rtt: f64,
}

/// A borrowed view of an active flow (what [`Network::flow`] returns —
/// the path stays in the CSR arena instead of being cloned).
#[derive(Debug, Clone, Copy)]
pub struct FlowRef<'a> {
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Propagation-only round-trip time (no queueing) in seconds.
    pub base_rtt: f64,
    slot: u32,
    path: &'a [LinkId],
}

impl<'a> FlowRef<'a> {
    /// Directed links from `src` to `dst`.
    #[inline]
    pub fn path(&self) -> &'a [LinkId] {
        self.path
    }

    /// The arena slot the flow occupies (the key of the `*_of_slot`
    /// accessors until the flow is removed).
    #[inline]
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

/// Per-flow outcome of one tick.
#[derive(Debug, Clone, Copy)]
pub struct FlowTick {
    /// Which flow.
    pub flow: FlowId,
    /// Bytes successfully carried end-to-end this tick.
    pub goodput_bytes: f64,
    /// Fraction of this flow's offered bytes lost to full queues on its
    /// path this tick (0 when all queues had room).
    pub loss_frac: f64,
    /// Round-trip time including current forward-path queueing delay.
    pub rtt: f64,
}

/// Outcome of one [`Network::advance_slots_into`] call.
#[derive(Debug, Clone, Default)]
pub struct TickReport {
    /// One entry per offered flow, in the order offered.
    pub flows: Vec<FlowTick>,
}

/// `base_rtt + Σ qd` over `path`: the one definition of a flow's
/// queueing-inflated RTT, summed in path order as the tick report sums it.
fn queued_rtt(base_rtt: f64, path: &[LinkId], qd: &[f64]) -> f64 {
    let mut qdelay = 0.0;
    for &l in path {
        qdelay += qd[l.index()];
    }
    base_rtt + qdelay
}

/// The fluid network: topology + routes + link queues + active flows.
pub struct Network {
    topo: Topology,
    routes: Routes,
    links: Vec<LinkState>,

    // ---- cached per-link columns (refreshed via the faults funnel) ----
    /// Capacity in bytes/s (`topo.link(l).capacity_bytes()`).
    cap_bytes: Vec<f64>,
    /// Queue capacity in bytes.
    queue_cap: Vec<f64>,
    /// Current queueing delay (`links[l].queueing_delay(cap_bytes[l])`);
    /// valid because queues change only inside `advance_slots_into` (queue
    /// state is read-only outside this crate) and capacities only through
    /// `faults::set_link_capacity`.
    qd: Vec<f64>,
    /// Scratch: per-link aggregate offered rate (bytes/s) this tick.
    offered: Vec<f64>,
    /// Scratch: per-link survival factor `1 - drop_frac` this tick.
    keep: Vec<f64>,
    /// Scratch: per-link service share (`cap/offered` when overloaded,
    /// else exactly 1.0) this tick.
    serv: Vec<f64>,

    // ---- flow slot arena ----
    /// id → slot, the id order every per-flow walk follows.
    index: FlowTable<u32>,
    slot_id: Vec<FlowId>,
    srcs: Vec<NodeId>,
    dsts: Vec<NodeId>,
    base_rtt: Vec<f64>,
    /// Per live slot: `base_rtt + Σ qd` over its path, summed in path
    /// order, bit for bit. Rewritten wherever `qd` changes or a slot is
    /// filled (see [`Network::rtt_of_slot`]).
    rtt: Vec<f64>,
    path_start: Vec<u32>,
    path_len: Vec<u32>,
    path_data: Vec<LinkId>,
    /// The previous `path_data` buffer, kept for its capacity: compaction
    /// copies the live paths into it and swaps the two.
    path_spare: Vec<LinkId>,
    path_garbage: usize,
    live: Vec<bool>,
    free: Vec<u32>,

    /// Failed links with their pre-failure (capacity, delay) (see
    /// `faults`).
    failed: Vec<(LinkId, f64, f64)>,
}

impl Network {
    /// Wrap a topology; all queues start empty.
    pub fn new(topo: Topology) -> Self {
        let routes = Routes::new();
        let n_links = topo.link_count();
        let cap_bytes: Vec<f64> = topo.links().iter().map(|l| l.capacity_bytes()).collect();
        let queue_cap: Vec<f64> = topo.links().iter().map(|l| l.queue_cap_bytes).collect();
        Network {
            topo,
            routes,
            links: vec![LinkState::new(); n_links],
            cap_bytes,
            queue_cap,
            qd: vec![0.0; n_links],
            offered: vec![0.0; n_links],
            keep: vec![1.0; n_links],
            serv: vec![1.0; n_links],
            index: FlowTable::new(),
            slot_id: Vec::new(),
            srcs: Vec::new(),
            dsts: Vec::new(),
            base_rtt: Vec::new(),
            rtt: Vec::new(),
            path_start: Vec::new(),
            path_len: Vec::new(),
            path_data: Vec::new(),
            path_spare: Vec::new(),
            path_garbage: 0,
            live: Vec::new(),
            free: Vec::new(),
            failed: Vec::new(),
        }
    }

    /// Failed links with their remembered original (capacity, delay).
    #[inline]
    pub fn failed_links(&self) -> &[(LinkId, f64, f64)] {
        &self.failed
    }

    /// Internal: mutable failed-link registry (used by the `faults`
    /// module).
    #[inline]
    pub(crate) fn failed_links_internal(&mut self) -> &mut Vec<(LinkId, f64, f64)> {
        &mut self.failed
    }

    /// Internal: mutable topology (used by the `faults` module; external
    /// callers go through `set_link_capacity`/`fail_link` so the routing
    /// cache stays coherent).
    #[inline]
    pub(crate) fn topo_mut_internal(&mut self) -> &mut Topology {
        &mut self.topo
    }

    /// Internal: replace the routing cache with an empty one for the
    /// current topology (used by the `faults` module).
    pub(crate) fn rebuild_routes(&mut self) {
        self.routes = Routes::new();
    }

    /// Internal: re-derive the cached link columns from the topology
    /// after the `faults` module changed it. The queueing-delay cache is
    /// recomputed against the new capacities, and every live slot's RTT
    /// against the new delays, so `rtt` never reads a stale division.
    pub(crate) fn refresh_link_columns(&mut self) {
        for i in 0..self.links.len() {
            let link = &self.topo.links()[i];
            self.cap_bytes[i] = link.capacity_bytes();
            self.queue_cap[i] = link.queue_cap_bytes;
            self.qd[i] = self.links[i].queueing_delay(self.cap_bytes[i]);
        }
        self.rewalk_rtts();
    }

    /// Recompute every live slot's RTT from the current `qd`.
    fn rewalk_rtts(&mut self) {
        for s in 0..self.rtt.len() {
            if self.live[s] {
                self.rtt[s] = queued_rtt(self.base_rtt[s], self.path_of_slot(s as u32), &self.qd);
            }
        }
    }

    /// The underlying topology.
    #[inline]
    pub fn topo(&self) -> &Topology {
        &self.topo
    }

    /// Mutable access to the routing cache (e.g. to pre-warm paths).
    #[inline]
    pub fn routes_mut(&mut self) -> &mut Routes {
        &mut self.routes
    }

    /// Register a flow from `src` to `dst` under the caller-chosen id.
    ///
    /// # Panics
    ///
    /// Panics if the id is already active, the destination is unreachable,
    /// or `src == dst` (zero-length paths carry no network traffic — model
    /// local transfers outside the network).
    pub fn insert_flow(&mut self, id: FlowId, src: NodeId, dst: NodeId) -> FlowRef<'_> {
        assert!(src != dst, "flow endpoints must differ");
        let pid = self
            .routes
            .path_handle(&self.topo, src, dst)
            .unwrap_or_else(|| panic!("no route {src} -> {dst}"));
        self.insert_flow_interned(id, src, dst, pid)
    }

    /// Register a flow over a previously interned path (the shortest
    /// path's [`Routes::path_handle`] or an explicit
    /// [`Network::intern_path`]). The arena-cached links and RTT are
    /// reused directly — no per-open path walk or allocation.
    ///
    /// # Panics
    ///
    /// Panics if the id is already active, before the arena changes.
    pub fn insert_flow_interned(
        &mut self,
        id: FlowId,
        src: NodeId,
        dst: NodeId,
        pid: PathId,
    ) -> FlowRef<'_> {
        assert!(!self.index.contains(id), "flow id {id} already active");
        let base_rtt = self.routes.rtt_of(pid);
        let rtt = queued_rtt(base_rtt, self.routes.path_of(pid), &self.qd);
        let len = self.routes.path_of(pid).len();
        self.maybe_compact_paths(len);
        let start = self.path_data.len() as u32;
        self.path_data.extend_from_slice(self.routes.path_of(pid));
        let len = len as u32;
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                self.slot_id[s] = id;
                self.srcs[s] = src;
                self.dsts[s] = dst;
                self.base_rtt[s] = base_rtt;
                self.rtt[s] = rtt;
                self.path_start[s] = start;
                self.path_len[s] = len;
                self.live[s] = true;
                slot
            }
            None => {
                let slot = self.slot_id.len() as u32;
                self.slot_id.push(id);
                self.srcs.push(src);
                self.dsts.push(dst);
                self.base_rtt.push(base_rtt);
                self.rtt.push(rtt);
                self.path_start.push(start);
                self.path_len.push(len);
                self.live.push(true);
                slot
            }
        };
        self.index.insert(id, slot);
        self.flow_at(slot)
    }

    /// Intern an explicit path (e.g. an ECMP candidate) into the routing
    /// cache's shared arena, deduplicating by content, and return its
    /// handle for [`Network::insert_flow_interned`].
    pub fn intern_path(&mut self, path: &[LinkId]) -> PathId {
        self.routes.intern_explicit(&self.topo, path)
    }

    /// Cached propagation RTT (seconds) of an interned path.
    pub fn path_rtt(&self, pid: PathId) -> f64 {
        self.routes.rtt_of(pid)
    }

    /// Compact `path_data` once removed flows' paths outweigh live ones.
    fn maybe_compact_paths(&mut self, extra: usize) {
        if self.path_garbage <= self.path_data.len().saturating_sub(self.path_garbage) + extra {
            return;
        }
        let live: usize = self.path_data.len() - self.path_garbage;
        let mut fresh = std::mem::take(&mut self.path_spare);
        fresh.clear();
        fresh.reserve(live + extra);
        for s in 0..self.path_start.len() {
            if !self.live[s] {
                continue;
            }
            let (start, len) = (self.path_start[s] as usize, self.path_len[s] as usize);
            let new_start = fresh.len() as u32;
            fresh.extend_from_slice(&self.path_data[start..start + len]);
            self.path_start[s] = new_start;
        }
        self.path_spare = std::mem::replace(&mut self.path_data, fresh);
        self.path_garbage = 0;
    }

    /// Deregister a completed/aborted flow.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not active (double-removal is a harness bug).
    pub fn remove_flow(&mut self, id: FlowId) -> NetFlow {
        let slot = self
            .index
            .remove(id)
            .unwrap_or_else(|| panic!("flow {id} not active"));
        let s = slot as usize;
        let len = self.path_len[s] as usize;
        let flow = NetFlow {
            src: self.srcs[s],
            dst: self.dsts[s],
            base_rtt: self.base_rtt[s],
        };
        self.path_garbage += len;
        self.path_len[s] = 0;
        self.live[s] = false;
        // Reuses capacity released by earlier insert pops: the free list
        // grows only when the live population does.
        self.free.push(slot);
        flow
    }

    /// The active flow behind `id`.
    ///
    /// # Panics
    ///
    /// Panics if the flow is not active.
    #[inline]
    pub fn flow(&self, id: FlowId) -> FlowRef<'_> {
        self.flow_at(self.live_slot(id))
    }

    /// The arena slot behind `id`, or `None` if the flow is not active
    /// (resolve once, then use the `*_of_slot` accessors on the hot
    /// path).
    #[inline]
    pub fn flow_slot(&self, id: FlowId) -> Option<u32> {
        self.index.get(id).copied()
    }

    /// [`Network::flow_slot`] for a flow the caller knows is active.
    fn live_slot(&self, id: FlowId) -> u32 {
        self.flow_slot(id)
            .unwrap_or_else(|| panic!("flow {id} not active"))
    }

    /// Active flows as `(id, slot)` in ascending id order — the order
    /// every deterministic per-flow accumulation downstream relies on.
    #[inline]
    pub fn flow_slots(&self) -> impl Iterator<Item = (FlowId, u32)> + '_ {
        self.index.iter().map(|(id, &slot)| (id, slot))
    }

    /// The flow occupying `slot` (must be live).
    #[inline]
    fn flow_at(&self, slot: u32) -> FlowRef<'_> {
        let s = slot as usize;
        debug_assert!(self.live[s], "flow slot {slot} not live");
        FlowRef {
            src: self.srcs[s],
            dst: self.dsts[s],
            base_rtt: self.base_rtt[s],
            slot,
            path: self.path_of_slot(slot),
        }
    }

    /// A live slot's `(src, dst)` endpoints.
    #[inline]
    pub fn endpoints_of_slot(&self, slot: u32) -> (NodeId, NodeId) {
        (self.srcs[slot as usize], self.dsts[slot as usize])
    }

    /// A live slot's routed path.
    #[inline]
    pub fn path_of_slot(&self, slot: u32) -> &[LinkId] {
        let s = slot as usize;
        let start = self.path_start[s] as usize;
        &self.path_data[start..start + self.path_len[s] as usize]
    }

    /// A live slot's propagation-only RTT in seconds.
    #[inline]
    pub fn base_rtt_of_slot(&self, slot: u32) -> f64 {
        self.base_rtt[slot as usize]
    }

    /// Number of active flows.
    #[inline]
    pub fn flow_count(&self) -> usize {
        self.index.len()
    }

    /// Propagation-only RTT between two nodes over the routed path (used
    /// to price connection handshakes before a flow exists).
    pub fn base_rtt_between(&mut self, src: NodeId, dst: NodeId) -> Option<f64> {
        let pid = self.routes.path_handle(&self.topo, src, dst)?;
        Some(self.routes.rtt_of(pid))
    }

    /// Current queueing-inflated RTT of a flow (forward-path queues only;
    /// ACKs are modeled as unqueued, which matches the paper's asymmetric
    /// write/read traffic).
    pub fn rtt(&self, id: FlowId) -> f64 {
        self.rtt_of_slot(self.live_slot(id))
    }

    /// Queueing-inflated RTT by arena slot (the hot-path form: no id
    /// lookup and no path walk). A column read, always equal bit for bit
    /// to `base_rtt + Σ qd` over the slot's path: a slot's entry is
    /// walked when it is filled, the tick report rewrites every offered
    /// slot's, and every other change to `qd` re-walks all live slots.
    #[inline]
    pub fn rtt_of_slot(&self, slot: u32) -> f64 {
        debug_assert!(self.live[slot as usize], "flow slot {slot} not live");
        self.rtt[slot as usize]
    }

    /// Link queue/accounting state.
    #[inline]
    pub fn link_state(&self, l: LinkId) -> &LinkState {
        &self.links[l.index()]
    }

    /// Read and reset a link's arrival counter (bytes since the previous
    /// call): the per-control-interval `L(t)` the resource monitors
    /// sample. The only write to link state from outside this crate;
    /// queues change only inside [`Network::advance_slots_into`], which
    /// keeps the cached queueing delays and RTTs valid.
    #[inline]
    pub fn take_arrived(&mut self, l: LinkId) -> f64 {
        self.links[l.index()].take_arrived()
    }

    /// Advance the whole network by `dt` seconds, slot-addressed.
    ///
    /// `offered` lists `(arena slot, bytes/second)` (see
    /// [`Network::flow_slot`]), each live slot at most once; flows not
    /// listed offer zero. Every link (even idle ones) integrates its
    /// queue, so queues drain during lulls. `report` is cleared and
    /// refilled with one [`FlowTick`] per offered flow, in offered order,
    /// and each offered slot's cached RTT takes the report's value. When
    /// `offered` leaves a live flow out, every live slot's RTT is
    /// re-walked instead. Arithmetic is bit-identical to the
    /// historical per-flow formulation: the per-link survival/service/
    /// queueing factors are hoisted into columns, and an underloaded
    /// link's service factor is exactly 1.0 (multiplying by it reproduces
    /// the old skipped branch bit-for-bit).
    pub fn advance_slots_into(&mut self, dt: f64, offered: &[(u32, f64)], report: &mut TickReport) {
        debug_assert!(dt > 0.0);
        self.offered.fill(0.0);
        for &(slot, rate) in offered {
            let s = slot as usize;
            debug_assert!(self.live[s], "flow slot {slot} not live");
            debug_assert!(rate >= 0.0, "negative offered rate for {}", self.slot_id[s]);
            let start = self.path_start[s] as usize;
            for &l in &self.path_data[start..start + self.path_len[s] as usize] {
                self.offered[l.index()] += rate;
            }
        }

        for (i, state) in self.links.iter_mut().enumerate() {
            let cap = self.cap_bytes[i];
            let drop_frac = state.advance(
                BytesPerSec::new(self.offered[i]),
                BytesPerSec::new(cap),
                Bytes::new(self.queue_cap[i]),
                Seconds::new(dt),
            );
            self.keep[i] = 1.0 - drop_frac;
            self.serv[i] = if self.offered[i] > cap {
                cap / self.offered[i]
            } else {
                1.0
            };
            self.qd[i] = state.queueing_delay(cap);
        }

        report.flows.clear();
        report.flows.reserve(offered.len());
        for &(slot, rate) in offered {
            let s = slot as usize;
            // Delivery is limited by each link's service share: a FIFO link
            // offered A > C delivers each flow's bytes scaled by C/A (the
            // rest sits in the queue as delay, or is dropped once the
            // queue is full). Loss is reported separately as the
            // congestion signal loss-driven transports react to.
            let mut survive = 1.0;
            let mut service = 1.0;
            let mut qdelay = 0.0;
            let start = self.path_start[s] as usize;
            for &l in &self.path_data[start..start + self.path_len[s] as usize] {
                let i = l.index();
                survive *= self.keep[i];
                service *= self.serv[i];
                qdelay += self.qd[i];
            }
            let rtt = self.base_rtt[s] + qdelay;
            self.rtt[s] = rtt;
            report.flows.push(FlowTick {
                flow: self.slot_id[s],
                goodput_bytes: rate * dt * service,
                loss_frac: 1.0 - survive,
                rtt,
            });
        }
        if offered.len() < self.index.len() {
            self.rewalk_rtts();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::dumbbell;
    use crate::units::mbps;

    impl Network {
        /// Id-addressed tick into a fresh report — unit-test convenience
        /// over [`Network::advance_slots_into`] (also used by `faults`).
        pub(crate) fn advance(&mut self, dt: f64, offered: &[(FlowId, f64)]) -> TickReport {
            let slots: Vec<(u32, f64)> = offered
                .iter()
                .map(|&(id, rate)| (self.live_slot(id), rate))
                .collect();
            let mut report = TickReport::default();
            self.advance_slots_into(dt, &slots, &mut report);
            report
        }
    }

    fn net() -> (Network, Vec<NodeId>, Vec<NodeId>, (LinkId, LinkId)) {
        let (topo, s, r, b) = dumbbell(4, mbps(80.0), 0.001, 100_000.0);
        (Network::new(topo), s, r, b)
    }

    #[test]
    fn insert_and_remove_flow() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        assert!(n.flow_slot(FlowId(1)).is_some());
        assert_eq!(n.flow_count(), 1);
        let f = n.remove_flow(FlowId(1));
        assert_eq!(f.src, s[0]);
        assert!(n.flow_slot(FlowId(1)).is_none());
    }

    #[test]
    #[should_panic(expected = "already active")]
    fn duplicate_flow_id_panics() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        n.insert_flow(FlowId(1), s[1], r[1]);
    }

    #[test]
    fn duplicate_insert_leaves_the_arena_unchanged() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        let path = n.flow(FlowId(1)).path().to_vec();
        let dup = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            n.insert_flow(FlowId(1), s[1], r[1]);
        }));
        assert!(dup.is_err(), "a duplicate id must panic");
        assert_eq!(n.flow_count(), 1);
        assert_eq!(n.flow(FlowId(1)).path(), &path[..]);
        assert_eq!(n.endpoints_of_slot(n.flow(FlowId(1)).slot()), (s[0], r[0]));
    }

    #[test]
    fn base_rtt_accounts_for_both_directions() {
        let (mut n, s, r, _) = net();
        let f = n.insert_flow(FlowId(1), s[0], r[0]);
        // path: access (0.1ms) + bottleneck (1ms) + access (0.1ms) = 1.2ms
        // one-way, 2.4ms RTT.
        assert!((f.base_rtt - 0.0024).abs() < 1e-9);
    }

    #[test]
    fn underload_goodput_equals_offered() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        let rep = n.advance(0.1, &[(FlowId(1), 1_000_000.0)]); // 1 MB/s « 10 MB/s
        assert_eq!(rep.flows.len(), 1);
        let ft = rep.flows[0];
        assert!((ft.goodput_bytes - 100_000.0).abs() < 1e-6);
        assert_eq!(ft.loss_frac, 0.0);
    }

    #[test]
    fn overload_builds_queue_then_drops() {
        let (mut n, s, r, (fwd, _)) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        n.insert_flow(FlowId(2), s[1], r[1]);
        // Bottleneck is 10 MB/s; offer 20 MB/s total.
        let offered = [(FlowId(1), 10e6), (FlowId(2), 10e6)];
        let rep1 = n.advance(0.005, &offered);
        // First tick: queue absorbs (queue cap 100 KB > 50 KB excess).
        assert_eq!(rep1.flows[0].loss_frac, 0.0);
        assert!(n.link_state(fwd).queue_bytes() > 0.0);
        // Keep pushing; queue fills and drops begin.
        let mut lossy = false;
        for _ in 0..20 {
            let rep = n.advance(0.005, &offered);
            if rep.flows[0].loss_frac > 0.0 {
                lossy = true;
                break;
            }
        }
        assert!(lossy, "sustained 2x overload must eventually drop");
    }

    #[test]
    fn rtt_inflates_with_queueing() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        let base = n.rtt(FlowId(1));
        n.advance(0.01, &[(FlowId(1), 50e6)]); // 5x overload builds queue
        assert!(n.rtt(FlowId(1)) > base);
    }

    #[test]
    fn idle_links_drain() {
        let (mut n, s, r, (fwd, _)) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        n.advance(0.01, &[(FlowId(1), 50e6)]);
        let q1 = n.link_state(fwd).queue_bytes();
        assert!(q1 > 0.0);
        n.advance(0.05, &[]); // nobody sends
        assert!(n.link_state(fwd).queue_bytes() < q1);
    }

    #[test]
    fn flows_not_offered_are_idle() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        n.insert_flow(FlowId(2), s[1], r[1]);
        let rep = n.advance(0.01, &[(FlowId(2), 1e6)]);
        assert_eq!(rep.flows.len(), 1);
        assert_eq!(rep.flows[0].flow, FlowId(2));
    }

    #[test]
    fn aggregate_goodput_capped_at_bottleneck_in_steady_state() {
        let (mut n, s, r, _) = net();
        for i in 0..4 {
            n.insert_flow(FlowId(i as u64), s[i], r[i]);
        }
        let offered: Vec<_> = (0..4).map(|i| (FlowId(i as u64), 10e6)).collect();
        // Run long enough to reach loss steady state.
        let mut last_goodput = 0.0;
        for _ in 0..200 {
            let rep = n.advance(0.005, &offered);
            last_goodput = rep.flows.iter().map(|f| f.goodput_bytes).sum::<f64>() / 0.005;
        }
        let cap = mbps(80.0) / 8.0;
        assert!(
            last_goodput <= cap * 1.05,
            "steady-state goodput {last_goodput} must not exceed bottleneck {cap}"
        );
    }

    #[test]
    fn slot_accessors_match_id_accessors() {
        let (mut n, s, r, _) = net();
        let slot = n.insert_flow(FlowId(7), s[0], r[0]).slot();
        assert_eq!(n.flow_slot(FlowId(7)), Some(slot));
        assert_eq!(n.rtt(FlowId(7)).to_bits(), n.rtt_of_slot(slot).to_bits());
        assert_eq!(n.flow(FlowId(7)).path(), n.path_of_slot(slot));
        assert_eq!(
            n.flow(FlowId(7)).base_rtt.to_bits(),
            n.base_rtt_of_slot(slot).to_bits()
        );
        assert_eq!(n.endpoints_of_slot(slot), (s[0], r[0]));
    }

    #[test]
    fn slot_reuse_after_removal() {
        let (mut n, s, r, _) = net();
        n.insert_flow(FlowId(1), s[0], r[0]);
        let slot1 = n.flow_slot(FlowId(1));
        n.remove_flow(FlowId(1));
        assert_eq!(n.flow_slot(FlowId(1)), None);
        n.insert_flow(FlowId(2), s[1], r[1]);
        assert_eq!(n.flow_slot(FlowId(2)), slot1, "freed slot is recycled");
        let f = n.flow(FlowId(2));
        assert_eq!(f.src, s[1]);
        assert!(!f.path().is_empty());
    }

    #[test]
    fn advance_slots_into_matches_advance() {
        let (mut n1, s, r, _) = net();
        let (mut n2, ..) = net();
        for i in 0..3u64 {
            n1.insert_flow(FlowId(i), s[i as usize], r[i as usize]);
            n2.insert_flow(FlowId(i), s[i as usize], r[i as usize]);
        }
        let offered_ids: Vec<_> = (0..3u64).map(|i| (FlowId(i), 9e6)).collect();
        let offered_slots: Vec<_> = (0..3u64).map(|i| (n2.live_slot(FlowId(i)), 9e6)).collect();
        let mut report = TickReport::default();
        for _ in 0..50 {
            let rep1 = n1.advance(0.005, &offered_ids);
            n2.advance_slots_into(0.005, &offered_slots, &mut report);
            for (a, b) in rep1.flows.iter().zip(&report.flows) {
                assert_eq!(a.flow, b.flow);
                assert_eq!(a.goodput_bytes.to_bits(), b.goodput_bytes.to_bits());
                assert_eq!(a.loss_frac.to_bits(), b.loss_frac.to_bits());
                assert_eq!(a.rtt.to_bits(), b.rtt.to_bits());
            }
        }
    }
}
