//! Fabric set-up allocates by rows, not by nodes.
//!
//! A node is its id and its kind, and adjacency lives in three `u32`
//! columns, so a [`Topology`] reserved up front fills without allocating,
//! and building the figure-6 tree allocates a constant number of columns
//! plus each rack's two rows (`servers` and `server_links`), whatever the
//! rack width. A name or an adjacency `Vec` per node would show here as
//! thousands of allocations.
//!
//! The counting allocator counts only on the thread that opened a window,
//! so the harness's other test threads do not leak into it.

mod common;

use scda_simnet::{NodeId, NodeKind, ThreeTierConfig, Topology};

use common::allocations;

#[test]
fn a_reserved_topology_fills_without_allocating() {
    for n in [1_000, 100_000] {
        let mut t = Topology::with_capacity(n, 2 * (n - 1));
        let filled = allocations(|| {
            let root = t.add_node(NodeKind::Switch { level: 1 });
            for i in 1..n {
                let leaf = t.add_node(NodeKind::Server);
                // A star of cables, with a chain link every other node.
                let up = if i % 2 == 0 {
                    NodeId(i as u32 - 1)
                } else {
                    root
                };
                t.add_duplex(leaf, up, 1e9, 1e-3, 1e6);
            }
        });
        assert_eq!(
            filled, 0,
            "filling {n} reserved nodes allocated {filled} times"
        );
        assert_eq!(t.node_count(), n);
        assert_eq!(t.link_count(), 2 * (n - 1));
    }
}

#[test]
fn three_tier_build_allocates_two_rows_per_rack() {
    // The topology's five columns and the tree's nine id lists.
    const COLUMNS: u64 = 14;
    for racks in [100, 1000] {
        let cfg = ThreeTierConfig {
            racks,
            servers_per_rack: 10,
            racks_per_agg: 10,
            ..Default::default()
        };
        let mut tree = None;
        let n = allocations(|| tree = Some(cfg.build()));
        let bound = COLUMNS + 2 * racks as u64;
        assert!(
            n <= bound,
            "{racks} racks allocated {n} times, more than {bound}"
        );
        let tree = tree.expect("built");
        assert_eq!(tree.all_servers().len(), 10 * racks);
    }
}
