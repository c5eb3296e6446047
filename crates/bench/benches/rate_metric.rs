//! Rate-metric microbenchmarks: the per-link allocator update (eqs. 2/5),
//! priority weighting (eq. 6) and the server selector.

use criterion::{criterion_group, criterion_main, Criterion};

use scda_core::rate_metric::{LinkAllocator, LinkSample, MetricKind};
use scda_core::selection::{NodeSet, Selector, SelectorConfig};
use scda_core::tree::ServerMetrics;
use scda_core::{ContentClass, Params, PriorityPolicy};
use scda_simnet::NodeId;

fn bench_allocator_update(c: &mut Criterion) {
    let params = Params::default();
    let sample = LinkSample {
        queue_bytes: 5e4,
        flow_rate_sum: 4e7,
        arrival_rate: 4e7,
    };
    c.bench_function("rate_metric/update_full", |b| {
        let mut a = LinkAllocator::new(62.5e6, MetricKind::Full, &params);
        b.iter(|| a.update(&sample, &params))
    });
    c.bench_function("rate_metric/update_simplified", |b| {
        let mut a = LinkAllocator::new(62.5e6, MetricKind::Simplified, &params);
        b.iter(|| a.update(&sample, &params))
    });
}

fn bench_priority_weights(c: &mut Criterion) {
    c.bench_function("rate_metric/priority_weights_1k_flows", |b| {
        let policy = PriorityPolicy::ShortestFirst {
            scale_bytes: 1e6,
            gamma: 0.7,
        };
        b.iter(|| {
            let mut acc = 0.0;
            for j in 0..1000 {
                acc += policy.weight(1e3 + j as f64 * 1e4, 1e6, 0.0);
            }
            acc
        })
    });
}

fn bench_selector(c: &mut Criterion) {
    // 200 servers (paper scale), deterministic metric spread.
    let metrics: Vec<ServerMetrics> = (0..200u32)
        .map(|i| ServerMetrics {
            server: NodeId(i),
            r0_down: 1e6 + (i as f64 * 7919.0) % 6e7,
            r0_up: 1e6 + (i as f64 * 104729.0) % 6e7,
            path_down: 1e6 + (i as f64 * 7919.0) % 6e7,
            path_up: 1e6 + (i as f64 * 104729.0) % 6e7,
            down_levels: [1e6 + (i as f64 * 7919.0) % 6e7; scda_core::tree::MAX_LEVELS],
            up_levels: [1e6 + (i as f64 * 104729.0) % 6e7; scda_core::tree::MAX_LEVELS],
            n_levels: 4,
        })
        .collect();
    let cfg = SelectorConfig {
        r_scale: 5e7,
        power_aware: false,
    };
    c.bench_function("selection/write_target_200_servers", |b| {
        let sel = Selector::new(&metrics, None, &cfg);
        let none = NodeSet::new();
        b.iter(|| sel.write_target(ContentClass::Interactive, &none))
    });
    c.bench_function("selection/replica_target_200_servers", |b| {
        let sel = Selector::new(&metrics, None, &cfg);
        let excluded = NodeSet::from_iter([NodeId(7)]);
        b.iter(|| sel.replica_target(ContentClass::Passive, NodeId(3), &excluded))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_allocator_update, bench_priority_weights, bench_selector
}
criterion_main!(benches);
