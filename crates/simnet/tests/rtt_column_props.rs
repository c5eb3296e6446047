//! The per-slot RTT column against a walk of the path: random sequences
//! of flow inserts and removals, ticks that offer every live flow, some
//! of them or none, capacity changes, and link failures and restores.
//! After every step each live slot's cached RTT must equal, bit for bit,
//! `base_rtt + Σ queueing delay` summed over its path in path order.

use proptest::prelude::*;
use scda_simnet::builders::dumbbell;
use scda_simnet::units::mbps;
use scda_simnet::{FlowId, LinkId, Network, NodeId, TickReport};

const PAIRS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    /// A new flow between two of the hosts (indices into `hosts`).
    Insert(usize, usize),
    /// Remove the live flow at this position in id order (mod count).
    Remove(usize),
    /// One tick. Each live flow offers `rates[k % rates.len()]` times
    /// 10 MB/s; `offer` says which of them are offered at all.
    Advance {
        offer: Offer,
        rates: Vec<u8>,
        dt_ms: u8,
    },
    /// Scale a link's capacity by `pct` percent of the dumbbell's base.
    SetCapacity(usize, u8),
    Fail(usize),
    Restore(usize),
}

#[derive(Debug, Clone, Copy)]
enum Offer {
    Full,
    /// Every live flow whose position has this remainder mod 2.
    Partial(u8),
    Empty,
}

/// Ticks are listed three times and inserts twice, to make them the
/// common ops; full offers are listed twice among the offer kinds.
fn op() -> impl Strategy<Value = Op> {
    let insert = || (0..2 * PAIRS, 0..2 * PAIRS).prop_map(|(a, b)| Op::Insert(a, b));
    let offer = || {
        prop_oneof![
            Just(Offer::Full),
            Just(Offer::Full),
            (0u8..2).prop_map(Offer::Partial),
            Just(Offer::Empty),
        ]
    };
    let advance = move || {
        (offer(), proptest::collection::vec(0u8..4, 1..6), 1u8..20).prop_map(
            |(offer, rates, dt_ms)| Op::Advance {
                offer,
                rates,
                dt_ms,
            },
        )
    };
    let link = || 0usize..64;
    prop_oneof![
        insert(),
        insert(),
        (0usize..16).prop_map(Op::Remove),
        advance(),
        advance(),
        advance(),
        (link(), 10u8..200).prop_map(|(l, pct)| Op::SetCapacity(l, pct)),
        link().prop_map(Op::Fail),
        link().prop_map(Op::Restore),
    ]
}

/// The walked RTT of `slot`: the definition the column must match.
fn walked_rtt(net: &Network, slot: u32) -> f64 {
    let mut qdelay = 0.0;
    for &l in net.path_of_slot(slot) {
        let cap = net.topo().link(l).capacity_bytes();
        qdelay += net.link_state(l).queueing_delay(cap);
    }
    net.base_rtt_of_slot(slot) + qdelay
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rtt_column_equals_the_walked_path(ops in proptest::collection::vec(op(), 1..120)) {
        let bottleneck = mbps(80.0);
        let (topo, s, r, _) = dumbbell(PAIRS, bottleneck, 0.001, 60_000.0);
        let hosts: Vec<NodeId> = s.iter().chain(&r).copied().collect();
        let mut net = Network::new(topo);
        let n_links = net.topo().link_count();
        let mut next_id = 0u64;
        let mut offered: Vec<(u32, f64)> = Vec::new();
        let mut report = TickReport::default();
        for op in &ops {
            match *op {
                Op::Insert(a, b) => {
                    if a != b {
                        net.insert_flow(FlowId(next_id), hosts[a], hosts[b]);
                        next_id += 1;
                    }
                }
                Op::Remove(k) => {
                    let n = net.flow_count();
                    if n > 0 {
                        let (id, _) = net.flow_slots().nth(k % n).expect("k % n < n");
                        net.remove_flow(id);
                    }
                }
                Op::Advance { offer, ref rates, dt_ms } => {
                    offered.clear();
                    for (k, (_, slot)) in net.flow_slots().enumerate() {
                        let keep = match offer {
                            Offer::Full => true,
                            Offer::Partial(m) => k % 2 == usize::from(m),
                            Offer::Empty => false,
                        };
                        if keep {
                            offered.push((slot, f64::from(rates[k % rates.len()]) * 10e6));
                        }
                    }
                    net.advance_slots_into(f64::from(dt_ms) * 1e-3, &offered, &mut report);
                    for (ft, &(slot, _)) in report.flows.iter().zip(&offered) {
                        prop_assert_eq!(ft.rtt.to_bits(), net.rtt_of_slot(slot).to_bits());
                    }
                }
                Op::SetCapacity(l, pct) => {
                    let l = LinkId((l % n_links) as u32);
                    if !net.is_link_failed(l) {
                        net.set_link_capacity(l, bottleneck * f64::from(pct) / 100.0);
                    }
                }
                Op::Fail(l) => net.fail_link(LinkId((l % n_links) as u32)),
                Op::Restore(l) => {
                    net.restore_link(LinkId((l % n_links) as u32));
                }
            }
            for (id, slot) in net.flow_slots() {
                let want = walked_rtt(&net, slot);
                prop_assert_eq!(
                    net.rtt_of_slot(slot).to_bits(),
                    want.to_bits(),
                    "flow {} after {:?}: cached {} walked {}",
                    id.0,
                    op,
                    net.rtt_of_slot(slot),
                    want
                );
                prop_assert_eq!(net.rtt(id).to_bits(), want.to_bits());
            }
        }
    }
}
