//! Generational slab arena for active flows (DESIGN.md §10).
//!
//! The driver's hot loops — the per-tick offered-rate scan and the per-τ
//! offered-load telemetry — iterate *every* active flow. A
//! `BTreeMap<FlowId, ActiveFlow>` scatters those struct reads across the
//! heap; at the hyperscale target (100k+ concurrent flows) the pointer
//! chasing dominates the tick. The arena instead keeps each field in its
//! own contiguous column (struct-of-arrays) indexed by a slot number:
//!
//! ```text
//! slot:        0        1        2        3     ...
//! progress:  [ p0 ] [ p1 ] [ .. ] [ p3 ]        (dense Vec, holes reused)
//! transport: [ t0 ] [ t1 ] [ .. ] [ t3 ]
//! src/dst:   [ .. ] [ .. ] [ .. ] [ .. ]
//! gen:       [  0 ] [  2 ] [  5 ] [  0 ]        (bumped on every free)
//! live:      [  T ] [  T ] [  F ] [  T ]
//! free list:               [ 2 ]                (LIFO reuse)
//! id index:  BTreeMap<FlowId, slot>             (deterministic id order)
//! ```
//!
//! Slots are recycled through a free list; each recycle bumps the slot's
//! generation, so a stale [`FlowHandle`] from a completed flow can never
//! alias the flow that later reuses its slot (property-tested in
//! `tests/arena_props.rs`). The side `BTreeMap` maps ids to slots and is
//! what iteration walks, which keeps every observable ordering — offered
//! vectors, completion scans, load accumulation — identical to the old
//! `BTreeMap<FlowId, ActiveFlow>` layout, bit for bit.

use std::collections::BTreeMap;

use scda_simnet::{FlowId, NodeId};

use crate::flow::FlowProgress;
use crate::AnyTransport;

/// A generational reference to an arena slot. Stale handles (their flow
/// completed or aborted, even if the slot was since reused) resolve to
/// `None` rather than aliasing the new occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowHandle {
    slot: u32,
    gen: u32,
}

/// Struct-of-arrays store of active flows. See the module docs.
pub struct FlowArena {
    progress: Vec<FlowProgress>,
    transports: Vec<AnyTransport>,
    srcs: Vec<NodeId>,
    dsts: Vec<NodeId>,
    /// Per-slot generation, bumped on every free.
    gens: Vec<u32>,
    /// Whether the slot currently holds a flow.
    live: Vec<bool>,
    /// The network arena slot mirroring each flow (set via
    /// [`FlowArena::set_net_slot`]; `u32::MAX` until then). Lets the
    /// driver's tick read RTTs and paths without per-flow id lookups.
    net_slots: Vec<u32>,
    /// Freed slots awaiting reuse (LIFO).
    free: Vec<u32>,
    /// Id → slot; iteration order (and thus every downstream float
    /// accumulation order) is ascending `FlowId`.
    index: BTreeMap<FlowId, u32>,
}

impl Default for FlowArena {
    fn default() -> Self {
        Self::new()
    }
}

impl FlowArena {
    /// An empty arena.
    pub fn new() -> Self {
        FlowArena {
            progress: Vec::new(),
            transports: Vec::new(),
            srcs: Vec::new(),
            dsts: Vec::new(),
            gens: Vec::new(),
            live: Vec::new(),
            net_slots: Vec::new(),
            free: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// An empty arena with column capacity for `n` concurrent flows.
    pub fn with_capacity(n: usize) -> Self {
        let mut a = Self::new();
        a.reserve(n);
        a
    }

    /// Grow every column's capacity to hold `additional` more flows
    /// without reallocating (hyperscale scenarios pre-size once instead
    /// of doubling through 100k-element copies).
    pub fn reserve(&mut self, additional: usize) {
        self.progress.reserve(additional);
        self.transports.reserve(additional);
        self.srcs.reserve(additional);
        self.dsts.reserve(additional);
        self.gens.reserve(additional);
        self.live.reserve(additional);
        self.net_slots.reserve(additional);
    }

    /// Number of live flows.
    #[inline]
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no flows are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Insert a flow, reusing a freed slot if one exists.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already live.
    pub fn insert(
        &mut self,
        id: FlowId,
        progress: FlowProgress,
        transport: AnyTransport,
        src: NodeId,
        dst: NodeId,
    ) -> FlowHandle {
        assert!(!self.index.contains_key(&id), "flow id {id} already driven");
        let slot = match self.free.pop() {
            Some(slot) => {
                let s = slot as usize;
                self.progress[s] = progress;
                self.transports[s] = transport;
                self.srcs[s] = src;
                self.dsts[s] = dst;
                self.live[s] = true;
                self.net_slots[s] = u32::MAX;
                slot
            }
            None => {
                let slot = self.progress.len() as u32;
                self.progress.push(progress);
                self.transports.push(transport);
                self.srcs.push(src);
                self.dsts.push(dst);
                self.gens.push(0);
                self.live.push(true);
                self.net_slots.push(u32::MAX);
                slot
            }
        };
        self.index.insert(id, slot);
        FlowHandle {
            slot,
            gen: self.gens[slot as usize],
        }
    }

    /// Remove a flow, returning its progress. The slot's generation is
    /// bumped so outstanding handles to it go stale, and the slot joins
    /// the free list.
    pub fn remove(&mut self, id: FlowId) -> Option<FlowProgress> {
        let slot = self.index.remove(&id)?;
        let s = slot as usize;
        self.live[s] = false;
        self.gens[s] = self.gens[s].wrapping_add(1);
        // scda-analyze: allow(hot-path-transitive-alloc, free-list push reuses capacity released by earlier insert pops — net growth only when the live population grows)
        self.free.push(slot);
        Some(self.progress[s])
    }

    /// The current handle for a live flow.
    pub fn handle_of(&self, id: FlowId) -> Option<FlowHandle> {
        let slot = *self.index.get(&id)?;
        Some(FlowHandle {
            slot,
            gen: self.gens[slot as usize],
        })
    }

    /// Resolve a handle to its flow id — `None` if the flow was removed,
    /// even when the slot has since been reused by another flow.
    pub fn resolve(&self, h: FlowHandle) -> Option<FlowId> {
        let s = h.slot as usize;
        if !self.live.get(s).copied().unwrap_or(false) || self.gens[s] != h.gen {
            return None;
        }
        Some(self.progress[s].id)
    }

    /// A live flow's progress.
    pub fn progress(&self, id: FlowId) -> Option<&FlowProgress> {
        self.index.get(&id).map(|&s| &self.progress[s as usize])
    }

    /// A live flow's transport.
    pub fn transport(&self, id: FlowId) -> Option<&AnyTransport> {
        self.index.get(&id).map(|&s| &self.transports[s as usize])
    }

    /// Mutable transport access.
    pub fn transport_mut(&mut self, id: FlowId) -> Option<&mut AnyTransport> {
        let slot = *self.index.get(&id)?;
        Some(&mut self.transports[slot as usize])
    }

    /// Mutable progress + transport access in one lookup (the tick's
    /// digest step touches both).
    pub fn entry_mut(&mut self, id: FlowId) -> Option<(&mut FlowProgress, &mut AnyTransport)> {
        let slot = *self.index.get(&id)? as usize;
        Some((&mut self.progress[slot], &mut self.transports[slot]))
    }

    /// Iterate live flows in ascending id order: `(id, progress,
    /// transport, src, dst)`. This is the ordering contract every
    /// deterministic accumulation downstream relies on.
    pub fn iter(
        &self,
    ) -> impl Iterator<Item = (FlowId, &FlowProgress, &AnyTransport, NodeId, NodeId)> + '_ {
        self.index.iter().map(|(&id, &slot)| {
            let s = slot as usize;
            (
                id,
                &self.progress[s],
                &self.transports[s],
                self.srcs[s],
                self.dsts[s],
            )
        })
    }

    /// Live flow ids in ascending order (test/diagnostic convenience).
    pub fn ids(&self) -> impl Iterator<Item = FlowId> + '_ {
        self.index.keys().copied()
    }

    /// Record the network arena slot mirroring flow `id` (the driver sets
    /// this once at start; the tick then never resolves ids).
    pub fn set_net_slot(&mut self, id: FlowId, net_slot: u32) {
        let slot = *self
            .index
            .get(&id)
            .expect("invariant: net slot set only for driven flows");
        self.net_slots[slot as usize] = net_slot;
    }

    /// Live `(id, slot)` pairs in ascending id order — the slot-level
    /// form of [`FlowArena::iter`] for loops that index columns directly.
    pub fn iter_slots(&self) -> impl Iterator<Item = (FlowId, u32)> + '_ {
        self.index.iter().map(|(&id, &slot)| (id, slot))
    }

    /// Append every live slot in ascending id order (the tick's slot
    /// work-list; `out` is not cleared).
    pub fn live_slots_into(&self, out: &mut Vec<u32>) {
        out.extend(self.index.values().copied());
    }

    /// The progress column, slot-indexed (dead slots hold stale entries —
    /// pair with a live slot list).
    #[inline]
    pub fn progress_col(&self) -> &[FlowProgress] {
        &self.progress
    }

    /// The transport column, slot-indexed.
    #[inline]
    pub fn transports_col(&self) -> &[AnyTransport] {
        &self.transports
    }

    /// The source-node column, slot-indexed.
    #[inline]
    pub fn srcs_col(&self) -> &[NodeId] {
        &self.srcs
    }

    /// The destination-node column, slot-indexed.
    #[inline]
    pub fn dsts_col(&self) -> &[NodeId] {
        &self.dsts
    }

    /// The network-slot column, slot-indexed.
    #[inline]
    pub fn net_slots_col(&self) -> &[u32] {
        &self.net_slots
    }

    /// Mutable progress + transport access by slot (no id lookup).
    #[inline]
    pub fn entry_mut_slot(&mut self, slot: u32) -> (&mut FlowProgress, &mut AnyTransport) {
        let s = slot as usize;
        debug_assert!(self.live[s], "flow slot {slot} not live");
        (&mut self.progress[s], &mut self.transports[s])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::Reno;

    fn flow(id: u64) -> (FlowId, FlowProgress, AnyTransport, NodeId, NodeId) {
        let fid = FlowId(id);
        (
            fid,
            FlowProgress::new(fid, 1000.0, 0.0),
            AnyTransport::Tcp(Reno::default()),
            NodeId(1),
            NodeId(2),
        )
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut a = FlowArena::new();
        let (id, p, t, s, d) = flow(7);
        let h = a.insert(id, p, t, s, d);
        assert_eq!(a.len(), 1);
        assert_eq!(a.resolve(h), Some(id));
        assert_eq!(a.progress(id).map(|p| p.size_bytes), Some(1000.0));
        let removed = a.remove(id).expect("live flow removes");
        assert_eq!(removed.id, id);
        assert!(a.is_empty());
        assert_eq!(a.resolve(h), None, "handle goes stale on remove");
        assert!(a.remove(id).is_none());
    }

    #[test]
    fn slot_reuse_does_not_alias() {
        let mut a = FlowArena::new();
        let (id1, p, t, s, d) = flow(1);
        let h1 = a.insert(id1, p, t, s, d);
        a.remove(id1);
        let (id2, p, t, s, d) = flow(2);
        let h2 = a.insert(id2, p, t, s, d);
        // id2 reuses id1's slot, but the stale handle must not see it.
        assert_eq!(a.resolve(h1), None);
        assert_eq!(a.resolve(h2), Some(id2));
    }

    #[test]
    fn iteration_is_id_ordered_regardless_of_slots() {
        let mut a = FlowArena::new();
        for raw in [5u64, 1, 9, 3] {
            let (id, p, t, s, d) = flow(raw);
            a.insert(id, p, t, s, d);
        }
        a.remove(FlowId(1));
        let (id, p, t, s, d) = flow(2);
        a.insert(id, p, t, s, d); // reuses 1's slot, sorts between 1 and 3
        let ids: Vec<u64> = a.ids().map(|f| f.0).collect();
        assert_eq!(ids, vec![2, 3, 5, 9]);
    }

    #[test]
    #[should_panic(expected = "already driven")]
    fn double_insert_rejected() {
        let mut a = FlowArena::new();
        let (id, p, t, s, d) = flow(1);
        a.insert(id, p, t, s, d);
        let (_, p, t, s, d) = flow(1);
        a.insert(FlowId(1), p, t, s, d);
    }
}
