//! Typed index newtypes for the simulator arenas.
//!
//! Nodes, links and flows are stored in contiguous vectors and referenced by
//! index everywhere (no `Rc`, no interior pointers); the newtypes keep the
//! three index spaces from being mixed up at compile time. [`FlowTable`]
//! is the id-ordered table every per-flow map on the replay path uses.

use serde::{Deserialize, Serialize};

/// Index of a node (server, switch or client) in a [`crate::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

/// Index of a *directed* link in a [`crate::Topology`].
///
/// Every physical cable is represented as two directed links (one per
/// direction) so that uplink and downlink rate allocation — which the SCDA
/// rate metric treats separately (the `d`/`u` subscripts of Table I) — fall
/// out naturally.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub u32);

/// Identifier of a flow registered with the fluid [`crate::Network`].
///
/// Flow ids are assigned by the caller (the experiment harness numbers flows
/// in arrival order) and never reused within a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowId(pub u64);

/// The flows in flight, keyed by [`FlowId`] and iterated in id order.
///
/// A sorted `Vec` of `(id, value)` entries. Ids are issued in arrival
/// order and flows open close to that order, so an insert lands at or
/// near the end and its memmove is short. A removal leaves a tombstone
/// instead of shifting the tail; the table compacts in place once
/// tombstones make up a quarter of its entries, so a removal costs
/// amortized O(log n) however many flows are in flight. An insert whose
/// sorted position borders a tombstone takes it over. Capacity never
/// shrinks: once the table has reached its high-water mark, insert /
/// remove churn allocates nothing.
#[derive(Debug, Clone)]
pub struct FlowTable<V> {
    /// Ascending by id; `None` is a tombstone.
    entries: Vec<(FlowId, Option<V>)>,
    /// Tombstones in `entries`.
    dead: usize,
}

impl<V> Default for FlowTable<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> FlowTable<V> {
    /// An empty table.
    pub fn new() -> Self {
        FlowTable {
            entries: Vec::new(),
            dead: 0,
        }
    }

    /// Live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.entries.len() - self.dead
    }

    /// True when no entry is live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn find(&self, id: FlowId) -> Result<usize, usize> {
        self.entries.binary_search_by_key(&id, |e| e.0)
    }

    /// The value under `id`, if live.
    #[inline]
    pub fn get(&self, id: FlowId) -> Option<&V> {
        self.find(id).ok().and_then(|i| self.entries[i].1.as_ref())
    }

    /// True when `id` is live.
    #[inline]
    pub fn contains(&self, id: FlowId) -> bool {
        self.get(id).is_some()
    }

    /// Put `v` under `id`, returning the value it replaces.
    pub fn insert(&mut self, id: FlowId, v: V) -> Option<V> {
        let i = match self.find(id) {
            Ok(i) => {
                let prev = self.entries[i].1.replace(v);
                if prev.is_none() {
                    self.dead -= 1;
                }
                return prev;
            }
            Err(i) => i,
        };
        // Every entry before `i` sorts below `id` and every entry from
        // `i` on above it, so a tombstone on either side can take `id`
        // without breaking the order.
        let dead_at = |j: usize| self.entries.get(j).is_some_and(|e| e.1.is_none());
        if i > 0 && dead_at(i - 1) {
            self.entries[i - 1] = (id, Some(v));
            self.dead -= 1;
        } else if dead_at(i) {
            self.entries[i] = (id, Some(v));
            self.dead -= 1;
        } else {
            self.entries.insert(i, (id, Some(v)));
        }
        None
    }

    /// Take the value under `id` out of the table.
    pub fn remove(&mut self, id: FlowId) -> Option<V> {
        let i = self.find(id).ok()?;
        let v = self.entries[i].1.take()?;
        self.dead += 1;
        self.maybe_compact();
        Some(v)
    }

    /// Keep only the entries `keep` accepts, visiting them in id order.
    pub fn retain(&mut self, mut keep: impl FnMut(FlowId, &mut V) -> bool) {
        for (id, slot) in &mut self.entries {
            if let Some(v) = slot {
                if !keep(*id, v) {
                    *slot = None;
                    self.dead += 1;
                }
            }
        }
        self.maybe_compact();
    }

    /// Live entries in ascending id order.
    #[inline]
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &V)> + '_ {
        self.entries
            .iter()
            .filter_map(|(id, v)| v.as_ref().map(|v| (*id, v)))
    }

    /// Drop the tombstones once they are a quarter of the entries: each
    /// compaction follows at least a quarter as many removals as it
    /// moves entries.
    fn maybe_compact(&mut self) {
        if self.dead * 4 > self.entries.len() {
            self.entries.retain(|e| e.1.is_some());
            self.dead = 0;
        }
    }
}

impl NodeId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LinkId {
    /// The raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for LinkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl std::fmt::Display for FlowId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "f{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_ordered_by_index() {
        assert!(NodeId(1) < NodeId(2));
        assert!(LinkId(0) < LinkId(10));
        assert!(FlowId(5) < FlowId(6));
    }

    #[test]
    fn display_forms() {
        assert_eq!(NodeId(3).to_string(), "n3");
        assert_eq!(LinkId(4).to_string(), "l4");
        assert_eq!(FlowId(9).to_string(), "f9");
    }

    #[test]
    fn index_round_trip() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(LinkId(8).index(), 8);
    }
}
