//! SLA machinery walkthrough: priorities, realtime violation detection and
//! the mitigation ladder (§IV of the paper).
//!
//! Uses the control-plane API directly — no full simulation — to show how
//! the pieces a cloud operator would script against fit together. The whole
//! walkthrough runs under an enabled observability handle: pass a path to
//! dump the control-plane trace as JSONL, and the end of the run prints the
//! per-phase profile and metrics the handle gathered.
//!
//! ```text
//! cargo run --release --example datacenter_sla [TRACE.jsonl]
//! ```

use scda::core::rate_metric::LinkSample;
use scda::core::sla::Mitigation;
use scda::core::tree::{RateCaps, Telemetry};
use scda::core::{ControlTree, MetricKind, Params, PriorityPolicy, SlaMonitor};
use scda::obs::{phase, Obs};
use scda::prelude::*;
use scda::simnet::LinkId;

/// Telemetry with a dial-a-load knob on every link.
struct Load(f64);
impl Telemetry for Load {
    fn sample(&mut self, _l: LinkId) -> LinkSample {
        LinkSample {
            flow_rate_sum: self.0,
            ..Default::default()
        }
    }
    fn rate_caps(&mut self, _s: NodeId) -> RateCaps {
        RateCaps::default()
    }
}

fn main() {
    let tree = ThreeTierConfig {
        racks: 4,
        servers_per_rack: 4,
        racks_per_agg: 2,
        clients: 4,
        ..Default::default()
    }
    .build();
    let x_bytes = tree.topo.link(tree.server_links[0][0].0).capacity_bytes();
    let mut ct = ControlTree::from_three_tier(&tree, Params::default(), MetricKind::Full);

    // Observe the whole walkthrough: every control round below lands in the
    // trace ring and the metrics registry.
    let obs = Obs::enabled();
    ct.set_obs(obs.clone());
    let trace_path: Option<String> = std::env::args().nth(1);

    // --- 1. Priorities (§IV-A): a gold flow asks for 2x its current rate.
    println!("== prioritized allocation ==");
    let fair = x_bytes / 4.0;
    let gold = PriorityPolicy::DeadlineDriven { deadline: 10.0 };
    let w = gold.weight(2.0 * fair * 10.0, fair, 0.0);
    println!("gold flow at {fair:.0} B/s with a 10 s deadline on 2x the bytes -> weight {w:.2}");
    println!(
        "explicit rule: want {:.0} while getting {:.0} -> weight {:.2}",
        2.0 * fair,
        fair,
        scda::core::priority::weight_for_target(2.0 * fair, fair)
    );

    // --- 2. Realtime violation detection (§IV-A) and the mitigation
    //        ladder: drive the whole cloud into overload for a few control
    //        intervals and watch the monitor escalate.
    println!("\n== SLA violation detection and mitigation ==");
    let mut monitor = SlaMonitor::new();
    for round in 0..4 {
        let now = round as f64 * 2.0; // > episode window so episodes count up
        let violations = ct.control_round(now, &mut Load(3.0 * x_bytes));
        if let Some(v) = violations.first() {
            let action = monitor.ingest(*v);
            println!(
                "t={now:>3.0}s  {} violations (first: level {}, shortfall {:.1} MB/s) -> {:?}",
                violations.len(),
                v.site.level,
                v.shortfall() / 1e6,
                action
            );
            if action == Mitigation::Escalate {
                println!("         escalated to the administrator: the cloud needs more capacity");
            }
        }
    }

    // --- 3. After load clears, advertised rates recover.
    println!("\n== recovery ==");
    for _ in 0..8 {
        obs.time_phase(phase::CONTROL, || ct.control_round(10.0, &mut Load(0.0)));
    }
    let (bs, rate) = ct
        .best_server_at(ct.root(), Direction::Down)
        .expect("tree has servers");
    println!(
        "idle again: best write target {bs} at {:.1}% of X",
        100.0 * rate / x_bytes
    );

    // --- 4. What the observability handle saw (§I: metrics offloaded to
    //        an external server for off-line diagnosis).
    println!("\n== observability ==");
    if let Some(reg) = obs.metrics_snapshot() {
        println!("{}", reg.to_table());
    }
    if let Some(report) = obs.profile_report() {
        println!("{}", report.to_table());
    }
    let jsonl = obs.trace_jsonl().expect("handle is enabled");
    println!(
        "trace: {} events; first SLA violation on the wire:",
        jsonl.lines().count()
    );
    if let Some(line) = jsonl
        .lines()
        .find(|l| l.contains("\"event\":\"sla_violation\""))
    {
        println!("  {line}");
    }
    if let Some(path) = trace_path {
        obs.write_trace_jsonl(std::path::Path::new(&path))
            .expect("write trace");
        println!("trace written to {path}");
    }
}
