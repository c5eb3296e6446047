//! `FlowTable` against a `BTreeMap` reference: random insert (ids in and
//! out of order, fresh and reused), remove, get and iterate sequences,
//! long enough to cross many compactions.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proptest::prelude::*;
use scda_simnet::{FlowId, FlowTable};

#[derive(Debug, Clone)]
enum Op {
    Insert(u64, u32),
    Remove(u64),
    Get(u64),
    /// Keep the entries whose value has this remainder mod 3.
    Retain(u32),
}

/// Ids from a small range, so inserts revisit removed ids and land next
/// to tombstones, with removals frequent enough to compact repeatedly.
/// Inserts and removals are listed twice to make them the common ops.
fn op() -> impl Strategy<Value = Op> {
    let insert = || (0u64..48, 0u32..1000).prop_map(|(id, v)| Op::Insert(id, v));
    let remove = || (0u64..48).prop_map(Op::Remove);
    prop_oneof![
        insert(),
        insert(),
        remove(),
        remove(),
        (0u64..48).prop_map(Op::Get),
        (0u32..3).prop_map(Op::Retain),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flow_table_matches_btreemap(ops in proptest::collection::vec(op(), 1..400)) {
        let mut table: FlowTable<u32> = FlowTable::new();
        let mut model: BTreeMap<FlowId, u32> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert(id, v) => {
                    prop_assert_eq!(table.insert(FlowId(id), v), model.insert(FlowId(id), v));
                }
                Op::Remove(id) => {
                    prop_assert_eq!(table.remove(FlowId(id)), model.remove(&FlowId(id)));
                }
                Op::Get(id) => {
                    prop_assert_eq!(table.get(FlowId(id)), model.get(&FlowId(id)));
                    prop_assert_eq!(table.contains(FlowId(id)), model.contains_key(&FlowId(id)));
                }
                Op::Retain(r) => {
                    let mut seen = Vec::new();
                    table.retain(|id, v| {
                        seen.push(id);
                        *v % 3 == r
                    });
                    prop_assert_eq!(seen, model.keys().copied().collect::<Vec<_>>());
                    model.retain(|_, v| *v % 3 == r);
                }
            }
            prop_assert_eq!(table.len(), model.len());
            prop_assert_eq!(table.is_empty(), model.is_empty());
            let got: Vec<(FlowId, u32)> = table.iter().map(|(id, &v)| (id, v)).collect();
            let want: Vec<(FlowId, u32)> = model.iter().map(|(&id, &v)| (id, v)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// The replay's pattern: ids issued in order, opened a little out of
    /// order, most flows finishing roughly first-in first-out.
    #[test]
    fn flow_table_matches_btreemap_on_a_sliding_window(
        jitter in proptest::collection::vec(0u64..6, 64..600),
        lifetimes in proptest::collection::vec(1usize..40, 64..600),
    ) {
        let mut table: FlowTable<u64> = FlowTable::new();
        let mut model: BTreeMap<FlowId, u64> = BTreeMap::new();
        let mut due: Vec<(usize, FlowId)> = Vec::new();
        for (step, (&j, &life)) in jitter.iter().zip(&lifetimes).enumerate() {
            // Open the flow `j` ids behind the newest, if it is not open yet.
            let id = FlowId((step as u64).saturating_sub(j));
            if let Entry::Vacant(slot) = model.entry(id) {
                slot.insert(step as u64);
                prop_assert_eq!(table.insert(id, step as u64), None);
                due.push((step + life, id));
            }
            due.retain(|&(at, id)| {
                if at > step {
                    return true;
                }
                assert_eq!(table.remove(id), model.remove(&id));
                false
            });
            let got: Vec<(FlowId, u64)> = table.iter().map(|(id, &v)| (id, v)).collect();
            let want: Vec<(FlowId, u64)> = model.iter().map(|(&id, &v)| (id, v)).collect();
            prop_assert_eq!(got, want);
            prop_assert_eq!(table.len(), model.len());
        }
    }
}
