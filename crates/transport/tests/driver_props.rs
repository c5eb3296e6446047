//! Property test for the driver's flow bookkeeping: whatever sequence of
//! starts, aborts and completions it sees, the driver must look exactly
//! like a `BTreeMap<FlowId, _>` of the flows in flight — same ids, same
//! ascending order (the determinism contract every downstream float
//! accumulation relies on), same endpoints and sizes — and a flow
//! started into a slot a finished flow freed must see its own progress
//! and transport, never the previous occupant's.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

use proptest::prelude::*;
use scda_simnet::builders::dumbbell;
use scda_simnet::units::mbps;
use scda_simnet::{FlowId, Network, NodeId};
use scda_transport::{AnyTransport, FlowDriver, ScdaWindow};

const PAIRS: usize = 4;
const DT: f64 = 0.001;

/// One step of a random flow lifecycle.
#[derive(Debug, Clone)]
enum Op {
    /// Start flow `id` on sender/receiver pair `pair` (skipped if live).
    Start { id: u64, pair: usize, kb: u32 },
    /// Abort flow `id` (a no-op if not live).
    Abort(u64),
    /// Tick until at least one flow completes (or none is left).
    TickToCompletion,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // A small id universe forces heavy slot reuse and id collisions.
    prop_oneof![
        (0u64..16, 0..PAIRS, 1u32..20).prop_map(|(id, pair, kb)| Op::Start { id, pair, kb }),
        (0u64..16).prop_map(Op::Abort),
        Just(Op::TickToCompletion),
    ]
}

/// What the model remembers of a flow in flight.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Flow {
    size: f64,
    src: NodeId,
    dst: NodeId,
    /// The allocated rate its transport was started with — unique per
    /// start, so a stale transport in a reused slot cannot match.
    rate: f64,
}

/// The driver's view of the flows in flight equals the model's.
fn check(d: &FlowDriver, model: &BTreeMap<FlowId, Flow>) {
    let got: Vec<(FlowId, NodeId, NodeId)> = d.active_flows().collect();
    let want: Vec<(FlowId, NodeId, NodeId)> =
        model.iter().map(|(&id, f)| (id, f.src, f.dst)).collect();
    prop_assert_eq!(got, want);
    prop_assert_eq!(d.active_count(), model.len());
    prop_assert_eq!(d.active_count(), d.net().flow_count());
    for (&id, f) in model {
        let p = d.progress(id).expect("model says live");
        prop_assert_eq!(p.id, id);
        prop_assert_eq!(p.size_bytes, f.size);
        prop_assert!(p.acked_bytes < p.size_bytes, "a live flow is unfinished");
        match d.transport(id) {
            Some(AnyTransport::Scda(w)) => prop_assert_eq!(w.rate_up(), f.rate),
            other => panic!("flow {id} has transport {other:?}"),
        }
    }
}

proptest! {
    #[test]
    fn active_flows_match_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..80)) {
        let (topo, s, r, _) = dumbbell(PAIRS, mbps(80.0), 0.001, 200_000.0);
        let mut d = FlowDriver::new(Network::new(topo));
        let mut model: BTreeMap<FlowId, Flow> = BTreeMap::new();
        let mut now = 0.0;
        for (step, op) in ops.iter().enumerate() {
            match *op {
                Op::Start { id, pair, kb } => {
                    let id = FlowId(id);
                    if let Entry::Vacant(entry) = model.entry(id) {
                        let f = Flow {
                            size: f64::from(kb) * 1000.0,
                            src: s[pair],
                            dst: r[pair],
                            rate: 1e6 + step as f64,
                        };
                        let t = AnyTransport::Scda(ScdaWindow::new(f.rate, f.rate, 0.0024));
                        d.start_flow(id, f.src, f.dst, f.size, t, now);
                        prop_assert_eq!(d.progress(id).map(|p| p.acked_bytes), Some(0.0));
                        entry.insert(f);
                    }
                }
                Op::Abort(id) => {
                    let id = FlowId(id);
                    let aborted = d.abort_flow(id);
                    prop_assert_eq!(aborted.map(|p| p.size_bytes), model.remove(&id).map(|f| f.size));
                }
                Op::TickToCompletion => {
                    for _ in 0..10_000 {
                        if model.is_empty() {
                            break;
                        }
                        let summary = d.tick(now, DT);
                        now += DT;
                        for c in &summary.completed {
                            let f = model.remove(&c.id).expect("completed flow was live");
                            prop_assert_eq!((c.size_bytes, c.src, c.dst), (f.size, f.src, f.dst));
                        }
                        if !summary.completed.is_empty() {
                            break;
                        }
                    }
                }
            }
            check(&d, &model);
        }
    }
}
