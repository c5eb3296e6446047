//! The forward-star adjacency against the link arena: random sequences
//! of node, link and duplex additions. After every step each node's
//! `out_links` must be exactly the links whose source it is, in id
//! (= insertion) order, and `reverse_of` must agree with a linear scan of
//! every link.

use proptest::prelude::*;
use scda_simnet::{LinkId, NodeId, NodeKind, Topology};

#[derive(Debug, Clone)]
enum Op {
    Node,
    /// A one-way link between two existing nodes (indices mod count).
    Link(usize, usize),
    /// Both directions of a cable between two existing nodes.
    Duplex(usize, usize),
}

/// Links are listed twice, so graphs grow parallel and one-way links as
/// well as cables.
fn op() -> impl Strategy<Value = Op> {
    let pair = || (0usize..64, 0usize..64);
    prop_oneof![
        Just(Op::Node),
        pair().prop_map(|(a, b)| Op::Link(a, b)),
        pair().prop_map(|(a, b)| Op::Link(a, b)),
        pair().prop_map(|(a, b)| Op::Duplex(a, b)),
    ]
}

/// The first link `dst -> src` of `l`, by a scan of the whole arena.
fn scanned_reverse(t: &Topology, l: LinkId) -> Option<LinkId> {
    let link = t.link(l);
    t.links()
        .iter()
        .find(|c| c.src == link.dst && c.dst == link.src)
        .map(|c| c.id)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn out_links_list_each_source_in_id_order(ops in proptest::collection::vec(op(), 1..200)) {
        let mut t = Topology::new();
        t.add_node(NodeKind::Server);
        for op in &ops {
            let n = t.node_count();
            let ends = |a: usize, b: usize| (NodeId((a % n) as u32), NodeId((b % n) as u32));
            match *op {
                Op::Node => {
                    t.add_node(NodeKind::Switch { level: 1 });
                }
                Op::Link(a, b) => {
                    let (a, b) = ends(a, b);
                    if a != b {
                        t.add_link(a, b, 1e6, 0.001, 1e4);
                    }
                }
                Op::Duplex(a, b) => {
                    let (a, b) = ends(a, b);
                    if a != b {
                        t.add_duplex(a, b, 1e6, 0.001, 1e4);
                    }
                }
            }
            for node in 0..t.node_count() {
                let node = NodeId(node as u32);
                let listed: Vec<LinkId> = t.out_links(node).collect();
                let scanned: Vec<LinkId> =
                    t.links().iter().filter(|l| l.src == node).map(|l| l.id).collect();
                prop_assert_eq!(listed, scanned);
            }
            for l in 0..t.link_count() {
                let l = LinkId(l as u32);
                prop_assert_eq!(t.reverse_of(l), scanned_reverse(&t, l));
            }
        }
    }
}
